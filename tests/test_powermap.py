from fractions import Fraction
from math import gcd

import pytest

from perprop import cyclotomic as cyc
from perprop.indicatrix import indicatrix_of, value_at
from perprop.perms import fpp, is_transitive, mean_trace, trace
from perprop.powermap import (
    AffineElement,
    CosetStatus,
    CycSetting,
    Preperiodicity,
    b_n_permset,
    build_B1,
    classify_regime,
    coset_status,
    galois_A,
    is_zero_preperiodic,
    parse_setting,
    zero_orbit_report,
)


def brute_coset_all_fixed(m: int, d: int) -> bool:
    """Oracle: exhaustive i, j search of the fixed-point condition."""
    return all(
        any(((m - 1) * i + j) % d == 0 for i in range(d)) for j in range(d)
    )


def brute_fixed_j_count(m: int, d: int) -> int:
    return sum(
        1 for j in range(d) if any(((m - 1) * i + j) % d == 0 for i in range(d))
    )


def test_galois_A_examples():
    assert galois_A(3, 1) == (1, 2)
    assert galois_A(3, 3) == (1,)
    assert galois_A(4, 1) == (1, 3)
    assert galois_A(2, 1) == (1,)
    assert galois_A(4, 4) == (1,)
    assert galois_A(6, 1) == (1, 5)
    assert galois_A(9, 1) == (1, 2, 4, 5, 7, 8)


def test_galois_A_e2_matches_base_rationals():
    # conductor 2 is still the rationals
    for d in (2, 3, 4, 5, 6):
        assert galois_A(d, 2) == galois_A(d, 1)


def test_build_B1_structure():
    data = build_B1(CycSetting.make(3, 1, 1))
    assert len(data.B1) == len(data.A) * 3 == 6
    assert {a.m for a in data.B1} == {1, 2}
    assert is_transitive(data.G)
    assert data.b1_permset().verify_group()
    # d=2: only translations
    data2 = build_B1(CycSetting.make(2, 1, 1))
    assert len(data2.B1) == 2 and data2.A == (1,)
    # d=4 over Q: two cosets
    data4 = build_B1(CycSetting.make(4, 1, 1))
    assert len(data4.B1) == 8 and data4.A == (1, 3)


def test_coset_partition_matches_A():
    for d, e in [(3, 1), (4, 1), (6, 1), (5, 1), (9, 1), (4, 4), (3, 3)]:
        data = build_B1(CycSetting.make(d, e, 1))
        assert len(data.B1) == len(data.A) * d
        for m in data.A:
            cs = data.coset_permset(m)
            assert len(cs) == d
            assert cs.verify_coset()


def test_coset_status_examples():
    assert coset_status(2, 3) is CosetStatus.ALL_HAVE_FIXED_POINTS
    assert coset_status(1, 3) is CosetStatus.HAS_FIXED_POINT_FREE
    assert coset_status(3, 4) is CosetStatus.HAS_FIXED_POINT_FREE
    with pytest.raises(ValueError):
        coset_status(2, 4)


def test_coset_status_agrees_with_exhaustive_search_up_to_30():
    for d in range(2, 31):
        for m in range(1, d):
            if gcd(m, d) != 1:
                continue
            brute = brute_coset_all_fixed(m, d)
            assert (coset_status(m, d) is CosetStatus.ALL_HAVE_FIXED_POINTS) == brute


def test_fixed_j_count_is_d_over_gcd():
    for d in range(2, 31):
        for m in range(1, d):
            if gcd(m, d) != 1:
                continue
            assert brute_fixed_j_count(m, d) == d // gcd(m - 1, d)


def test_affine_permutation_trace_matches_fixed_points():
    for d in (3, 4, 6):
        for m in range(1, d):
            if gcd(m, d) != 1:
                continue
            for j in range(d):
                elem = AffineElement(m, j, d)
                assert (trace(elem.as_permutation()) > 0) == elem.has_fixed_point()


def test_regime_table():
    expected = {
        (3, 1): "c",
        (3, 3): "b",
        (2, 1): "b",
        (4, 1): "b",
        (5, 1): "c",
        (6, 1): "b",
        (9, 1): "c",
        (4, 4): "b",
    }
    for (d, e), regime in expected.items():
        report = classify_regime(
            CycSetting.make(d, e, 1), Preperiodicity.NOT_PREPERIODIC
        )
        assert report.liminf_zero
        assert report.limit_zero != report.limsup_one  # exactly one holds
        got = "c" if report.limsup_one else "b"
        assert got == regime, (d, e)


def test_regime_c_witness_is_two_for_odd_d_over_q():
    for d in (3, 5, 7, 9, 11):
        report = classify_regime(
            CycSetting.make(d, 1, 1), Preperiodicity.NOT_PREPERIODIC
        )
        assert report.limsup_one and report.witness_m == 2


def test_regime_b_when_conductor_shares_factor():
    for d, e in [(3, 3), (4, 4), (6, 3), (10, 5), (4, 8)]:
        report = classify_regime(
            CycSetting.make(d, e, 1), Preperiodicity.NOT_PREPERIODIC
        )
        assert report.limit_zero, (d, e)


def test_classify_regime_requires_hypothesis():
    s = CycSetting.make(3, 1, 1)
    with pytest.raises(ValueError):
        classify_regime(s, Preperiodicity.PREPERIODIC)
    with pytest.raises(ValueError):
        classify_regime(s, Preperiodicity.UNDECIDED)


def test_preperiodicity_examples():
    assert is_zero_preperiodic(CycSetting.make(2, 1, 0), 10) is Preperiodicity.PREPERIODIC
    assert is_zero_preperiodic(CycSetting.make(2, 1, -1), 10) is Preperiodicity.PREPERIODIC
    assert is_zero_preperiodic(CycSetting.make(2, 1, 1), 10) is Preperiodicity.NOT_PREPERIODIC


def test_preperiodic_gauss_like_orbits():
    # 0 -> -2 -> 2 -> 2: preperiodic with a repeat onto index 2
    report = zero_orbit_report(CycSetting.make(2, 1, -2), 10)
    assert report.verdict is Preperiodicity.PREPERIODIC
    assert report.repeat_index == 2


def test_escape_certificate_in_cyclotomic_setting():
    report = zero_orbit_report(CycSetting.make(3, 3, "z"), 50)
    assert report.verdict is Preperiodicity.NOT_PREPERIODIC
    report = zero_orbit_report(CycSetting.make(2, 5, "2+2z"), 50)
    assert report.verdict is Preperiodicity.NOT_PREPERIODIC


def _certified_all_embeddings_above(z, e, threshold_up) -> bool:
    """Certify min_m |sigma_m(z)| > threshold_up with escalating precision.
    Escaping iterates have no catastrophic cancellation, so low precision
    decides; the cap covers the worst case anyway."""
    from perprop.bounds import sqrt_lower

    bits = 128
    cap = sum(abs(x).bit_length() for x in z) + 96
    while True:
        enclosures = cyc.embedding_abs_sq_intervals(z, e, bits)
        if min(sqrt_lower(iv[0], bits) for iv in enclosures) > threshold_up:
            return True
        if bits >= cap:
            return False
        bits = min(2 * bits, cap)


def test_escape_soundness_ten_more_iterations():
    # once flagged escaping, ten further exact iterates stay above the radius
    # (checked through exact rational enclosures; floats overflow out here)
    from perprop.bounds import sqrt_upper

    for d, e, c in [(2, 1, 1), (3, 1, 1), (3, 3, "z"), (2, 5, "2+2z")]:
        s = CycSetting.make(d, e, c)
        report = zero_orbit_report(s, 100)
        assert report.verdict is Preperiodicity.NOT_PREPERIODIC
        z = cyc.cyc_zero(e)
        for _ in range(report.escape_index):
            z = cyc.cyc_add(cyc.cyc_pow(z, d, e), s.c)
        if e <= 2:
            radius = 1 + abs(s.c[0])
            for _ in range(10):
                z = cyc.cyc_add(cyc.cyc_pow(z, d, e), s.c)
                assert abs(z[0]) > radius
        else:
            radius_up = 1 + max(
                sqrt_upper(iv[1], 128)
                for iv in cyc.embedding_abs_sq_intervals(s.c, e, 128)
            )
            for _ in range(10):
                z = cyc.cyc_add(cyc.cyc_pow(z, d, e), s.c)
                assert _certified_all_embeddings_above(z, e, radius_up)


def test_mixed_escape_settles_as_undecided():
    # |1 + zeta_5^2| < 1: the orbit stays bounded in that embedding while
    # exploding in another, so no all-embeddings certificate can exist; the
    # coefficient budget must settle this as undecided rather than spin
    report = zero_orbit_report(CycSetting.make(2, 5, "1+z"), 60)
    assert report.verdict is Preperiodicity.UNDECIDED


def test_undecided_when_budget_too_small():
    assert (
        is_zero_preperiodic(CycSetting.make(2, 1, 1), 1)
        is Preperiodicity.UNDECIDED
    )


def test_setting_parse_and_format():
    s = parse_setting("d=3 e=1 c=1")
    assert (s.d, s.e, s.c) == (3, 1, (1,))
    s = parse_setting("d=3 e=3 c=1+2z")
    assert s.c == (1, 2)
    assert str(s) == "d=3 e=3 c=1+2z"
    with pytest.raises(ValueError):
        parse_setting("d=3 c")
    with pytest.raises(ValueError):
        parse_setting("e=3")


def test_setting_validation():
    with pytest.raises(ValueError):
        CycSetting.make(1, 1, 1)
    with pytest.raises(ValueError):
        CycSetting(d=3, e=3, c=(1,))  # wrong coefficient length


def test_model_fpp_via_indicatrix_matches_group_fpp():
    # FPP(B_1) computed from the coset indicatrices equals the direct group FPP
    for d, e in [(3, 1), (4, 1), (3, 3), (5, 1)]:
        data = build_B1(CycSetting.make(d, e, 1))
        per_coset = [
            1 - value_at(indicatrix_of(data.coset_permset(m)), 0) for m in data.A
        ]
        aggregate = sum(per_coset, Fraction(0)) / len(data.A)
        assert aggregate == fpp(data.b1_permset())


def test_b_n_permset_order_and_burnside():
    group = b_n_permset(3, 1, 2)
    assert len(group) == 2 * 81
    assert mean_trace(group) == 1  # transitive on 9 points
    group1 = b_n_permset(2, 1, 1)
    assert len(group1) == 2
