import itertools
import random
from fractions import Fraction
from functools import lru_cache
from math import floor, gcd

import pytest

from perprop import cyclotomic as cyc
from perprop.bounds import sqrt_lower, sqrt_upper
from perprop.indicatrix import indicatrix_of, value_at
from perprop.perms import fpp, is_transitive, mean_trace, permset, trace
from perprop.powermap import (
    _SLOW_BITS,
    AffineElement,
    CosetStatus,
    CycSetting,
    Preperiodicity,
    _exceeds_radius,
    _radius_rung,
    _root_exceeds,
    _root_within,
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
    assert permset((a.as_permutation() for a in data.B1), kind="group").verify_group()
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
                has_fixed_point = j % gcd(m - 1, d) == 0
                assert (trace(elem.as_permutation()) > 0) == has_fixed_point


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
    bits = 128
    cap = sum(abs(x).bit_length() for x in z) + 96
    while True:
        den = 1 << cyc.abs_sq_shift(bits)
        enclosures = cyc.embedding_abs_sq_intervals(z, e, bits)
        if min(sqrt_lower(Fraction(lo, den), bits) for lo, _ in enclosures) > threshold_up:
            return True
        if bits >= cap:
            return False
        bits = min(2 * bits, cap)


def test_escape_soundness_ten_more_iterations():
    # once flagged escaping, ten further exact iterates stay above the radius
    # (checked through exact rational enclosures; floats overflow out here)
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
            den = 1 << cyc.abs_sq_shift(128)
            radius_up = 1 + max(
                sqrt_upper(Fraction(hi, den), 128)
                for _, hi in cyc.embedding_abs_sq_intervals(s.c, e, 128)
            )
            for _ in range(10):
                z = cyc.cyc_add(cyc.cyc_pow(z, d, e), s.c)
                assert _certified_all_embeddings_above(z, e, radius_up)


@lru_cache(maxsize=None)
def _fraction_cos_sin(j, e, bits):
    unit = 1 << (bits + cyc.GUARD_BITS)
    return [(Fraction(lo, unit), Fraction(hi, unit)) for lo, hi in cyc.cos_sin_2pi(j, e, bits)]


def _fraction_abs_sq(a, e, bits):
    """Oracle: the Fraction interval enclosures of |sigma_m(a)|^2 that the
    radius check used before its dyadic integer form (same cos/sin inputs)."""

    def scaled(iv, c):
        x, y = c * iv[0], c * iv[1]
        return (x, y) if x <= y else (y, x)

    def square(lo, hi):
        if lo >= 0:
            return lo * lo, hi * hi
        if hi <= 0:
            return hi * hi, lo * lo
        return Fraction(0), max(lo * lo, hi * hi)

    out = []
    for m in cyc.units_mod(e):
        re_lo = re_hi = im_lo = im_hi = Fraction(0)
        for i, c in enumerate(a):
            if c == 0:
                continue
            cos_iv, sin_iv = _fraction_cos_sin(m * i, e, bits)
            x, y = scaled(cos_iv, c)
            re_lo, re_hi = re_lo + x, re_hi + y
            x, y = scaled(sin_iv, c)
            im_lo, im_hi = im_lo + x, im_hi + y
        (a0, a1), (b0, b1) = square(re_lo, re_hi), square(im_lo, im_hi)
        out.append((a0 + b0, a1 + b1))
    return out


def _fraction_radius(c_sq, bits):
    """Oracle: (r_lo, r_hi) of the former radius check."""
    r_lo = 1 + max(sqrt_lower(iv[0], bits) for iv in c_sq)
    r_hi = 1 + max(sqrt_upper(iv[1], bits) for iv in c_sq)
    return r_lo, r_hi


def _fraction_rung(z_sq, radius, bits):
    """Oracle: one rung of the former radius check, on square roots."""
    r_lo, r_hi = radius
    z_lo = min(sqrt_lower(iv[0], bits) for iv in z_sq)
    z_hi = min(sqrt_upper(iv[1], bits) for iv in z_sq)
    if z_lo > r_hi:
        return True
    if z_hi <= r_lo:
        return False
    return None


def test_square_comparisons_match_square_roots():
    # the decisions on squares equal sqrt_lower(x) > r and sqrt_upper(x) <= r
    # on exact squares of dyadic rationals next to r and their neighbours
    radii = [Fraction(1), Fraction(2), Fraction(3, 2), Fraction(5, 4),
             1 + Fraction(1, 2**20), Fraction(7, 3), Fraction(10**9 + 7, 10**9)]
    cases = 0
    for bits in (0, 1, 5, *_SLOW_BITS):
        for shift in (0, 1, 6, 40, cyc.abs_sq_shift(bits)):
            for r in radii:
                half = shift // 2
                near = [(r.numerator << half) // r.denominator + k for k in range(-2, 3)]
                nums = {0, 1} | {y * y << (shift - 2 * half) for y in near}
                nums |= {floor(r * r * 2**shift) + k for k in range(-2, 3)}
                for num in nums:
                    x = Fraction(num, 1 << shift)
                    assert _root_exceeds(num, shift, bits, r) == (sqrt_lower(x, bits) > r)
                    if num >= 0:  # upper ends of enclosures of squares
                        assert _root_within(num, shift, bits, r) == (sqrt_upper(x, bits) <= r)
                    cases += 1
    assert cases > 2000


# the oracle test stops an orbit once its coefficients exceed this many bits
# in total; the Fraction oracle is slow on larger coefficients
_ORACLE_ORBIT_BITS = 2048


def test_radius_rungs_match_fraction_oracle():
    # every c with coefficients in [-1, 1] for d in 2..5, e in {3, 4, 5, 8}
    # (704 settings) plus 40 seeded such c per d for e = 7 (160 of 2912):
    # each of the 3381 iterates the orbit test visits below the bit cap has,
    # at every rung, the oracle's enclosures and True/False/undecided outcome
    def coefficient_choices(e):
        cs = [c for c in itertools.product((-1, 0, 1), repeat=cyc.euler_phi(e)) if any(c)]
        return random.Random(e).sample(cs, 40) if e == 7 else cs

    settings = iterates = 0
    outcomes = {True: 0, False: 0, None: 0}
    for e in (3, 4, 5, 7, 8):
        choices = coefficient_choices(e)
        radii = {
            c: [_fraction_radius(_fraction_abs_sq(c, e, bits), bits) for bits in _SLOW_BITS]
            for c in choices
        }
        for d, c in itertools.product(range(2, 6), choices):
            settings += 1
            seen = {cyc.cyc_zero(e)}
            z = cyc.cyc_zero(e)
            while True:
                z = cyc.cyc_add(cyc.cyc_pow(z, d, e), c)
                if z in seen or sum(abs(x).bit_length() for x in z) > _ORACLE_ORBIT_BITS:
                    break
                seen.add(z)
                iterates += 1
                for bits, radius in zip(_SLOW_BITS, radii[c]):
                    den = 1 << cyc.abs_sq_shift(bits)
                    z_sq = _fraction_abs_sq(z, e, bits)
                    got = cyc.embedding_abs_sq_intervals(z, e, bits)
                    assert [(Fraction(lo, den), Fraction(hi, den)) for lo, hi in got] == z_sq
                    outcome = _fraction_rung(z_sq, radius, bits)
                    assert _radius_rung(z, c, e, bits) is outcome, (d, e, c, bits)
                    outcomes[outcome] += 1
                if _exceeds_radius(z, c, e):
                    break
    assert (settings, iterates) == (864, 3381)
    assert min(outcomes.values()) > 0


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
        b1 = permset((a.as_permutation() for a in data.B1), kind="group")
        assert aggregate == fpp(b1)


def test_b_n_permset_order_and_burnside():
    group = b_n_permset(3, 1, 2)
    assert len(group) == 2 * 81
    assert mean_trace(group) == 1  # transitive on 9 points
    group1 = b_n_permset(2, 1, 1)
    assert len(group1) == 2
