import cmath
import itertools
import json
import random
from fractions import Fraction
from functools import lru_cache
from math import gcd, isqrt
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from perprop import cyclotomic as cyc
from perprop import powermap
from perprop.bounds import sqrt_lower, sqrt_upper
from perprop.indicatrix import indicatrix_of, value_at
from perprop.perms import (
    Permutation,
    PermSet,
    cyclic_group,
    fpp,
    is_transitive,
    mean_trace,
    trace,
)
from perprop.powermap import (
    _SLOW_BITS,
    ORBIT_BIT_BUDGET,
    CosetStatus,
    CycSetting,
    OrbitReport,
    Preperiodicity,
    _exceeds_radius,
    _power_bits_lower_bound,
    _product_norm_factor,
    _radius_bounds,
    _radius_rung,
    b_n_permset,
    classify_regime,
    coset_gcd,
    coset_indicatrix,
    coset_permset,
    coset_status,
    galois_A,
    zero_orbit_report,
)


GOLDEN_EXACT_GROUP = Path(__file__).resolve().parent.parent / "perfbench" / "golden" / "exact_group.json"


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
    b1 = b_n_permset(3, 1, 1)
    assert len(b1) == len(galois_A(3, 1)) * 3 == 6
    # the multiplier of i -> m*i + j is its image of 1 minus its image of 0
    assert {(row[1] - row[0]) % 3 for row in b1.images.tolist()} == {1, 2}
    assert is_transitive(PermSet(coset_permset(3, 1).images, kind="group"))
    assert b1.verify_group()
    # d=2: only translations
    assert len(b_n_permset(2, 1, 1)) == 2 and galois_A(2, 1) == (1,)
    # d=4 over Q: two cosets
    assert len(b_n_permset(4, 1, 1)) == 8 and galois_A(4, 1) == (1, 3)


def test_coset_partition_matches_A():
    for d, e in [(3, 1), (4, 1), (6, 1), (5, 1), (9, 1), (4, 4), (3, 3)]:
        assert len(b_n_permset(d, e, 1)) == len(galois_A(d, e)) * d
        translations = cyclic_group(d)
        for m in galois_A(d, e):
            cs = coset_permset(d, m)
            assert len(cs) == d
            rep = Permutation(tuple(m * i % d for i in range(d)))
            assert {p.images for p in cs} == {(h * rep).images for h in translations}


def test_coset_indicatrix_matches_enumerated_cosets():
    # the gcd rule against the trace counts of every explicit coset, for
    # d in 2..40 and e in {1, ..., 9, 12}: 4355 cosets
    checked = 0
    for d in range(2, 41):
        for e in (*range(1, 10), 12):
            for m in galois_A(d, e):
                enumerated = indicatrix_of(coset_permset(d, m))
                assert coset_indicatrix(coset_gcd(m, d)) == enumerated, (m, d, e)
                checked += 1
    assert checked == 4355


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
            if not brute:  # the translate j = 1, which regime names, fixes no point
                assert all(((m - 1) * i + 1) % d for i in range(d)), (m, d)


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
                elem = Permutation(tuple((m * i + j) % d for i in range(d)))
                has_fixed_point = j % gcd(m - 1, d) == 0
                assert (trace(elem) > 0) == has_fixed_point


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
        assert [m for m, _ in report.cosets] == list(galois_A(d, e))
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
        assert not report.limsup_one and report.witness_m is None, (d, e)


def test_classify_regime_requires_hypothesis():
    s = CycSetting.make(3, 1, 1)
    with pytest.raises(ValueError):
        classify_regime(s, Preperiodicity.PREPERIODIC)
    with pytest.raises(ValueError):
        classify_regime(s, Preperiodicity.UNDECIDED)


def test_preperiodicity_examples():
    for c, verdict in [(0, Preperiodicity.PREPERIODIC), (-1, Preperiodicity.PREPERIODIC),
                       (1, Preperiodicity.NOT_PREPERIODIC)]:
        assert zero_orbit_report(CycSetting.make(2, 1, c), 10).verdict is verdict


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
        for _ in range(report.steps):
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


def test_radius_squares():
    # e = 1: the radius 1 + |c| is exact at every rung
    for bits in _SLOW_BITS:
        k = bits + cyc.GUARD_BITS
        for c in range(-5, 6):
            expected = ((1 + abs(c)) << k) ** 2
            assert _radius_bounds((c,), 1, bits)[2:] == (expected, expected), (c, bits)
    # other conductors: the bounds enclose (1 + max |sigma(c)|)^2
    rng = random.Random(8)
    for e in (3, 4, 5, 7, 8):
        for _ in range(10):
            c = tuple(rng.randint(-9, 9) for _ in range(cyc.euler_phi(e)))
            radius = 1 + max(
                abs(sum(x * cmath.exp(2j * cmath.pi * m * i / e) for i, x in enumerate(c)))
                for m in cyc.units_mod(e)
            )
            for bits in _SLOW_BITS:
                lo, hi = _radius_bounds(c, e, bits)[2:]
                den = 1 << cyc.abs_sq_shift(bits)
                # r_lo - 1 and r_hi - 1 are the floor and ceiling square roots
                # of the largest lower and upper ends of c's enclosures
                c_sq = cyc.embedding_abs_sq_intervals(c, e, bits)
                one = 1 << (bits + cyc.GUARD_BITS)
                r_lo, r_hi = isqrt(lo), isqrt(hi)
                assert (r_lo**2, r_hi**2) == (lo, hi)
                c_lo, c_hi = max(iv[0] for iv in c_sq), max(iv[1] for iv in c_sq)
                assert (r_lo - one) ** 2 <= c_lo < (r_lo - one + 1) ** 2
                assert (r_hi - one - 1) ** 2 < c_hi <= (r_hi - one) ** 2
                assert lo / den <= radius**2 * (1 + 1e-12), (e, c, bits)
                assert hi / den >= radius**2 * (1 - 1e-12), (e, c, bits)
                assert (hi - lo) / den < 2.0**-bits, (e, c, bits)


def test_rational_radius_check_is_exact():
    # for e = 1 the first rung decides |z| > 1 + |c| exactly, on the boundary
    # |z| = 1 + |c| as well
    for c in range(-6, 7):
        for z in range(-50, 51):
            assert _exceeds_radius((z,), (c,), 1) == (abs(z) > 1 + abs(c)), (z, c)
            assert _radius_rung((z,), (c,), 1, _SLOW_BITS[0]) is (abs(z) > 1 + abs(c))


# the oracle test stops an orbit once its coefficients exceed this many bits
# in total; the Fraction oracle is slow on larger coefficients
_ORACLE_ORBIT_BITS = 2048


def _coefficient_choices(e):
    """Every nonzero c with coefficients in [-1, 1] for e in {3, 4, 5, 8};
    40 seeded such c for e = 7 (of 2186)."""
    cs = [c for c in itertools.product((-1, 0, 1), repeat=cyc.euler_phi(e)) if any(c)]
    return random.Random(e).sample(cs, 40) if e == 7 else cs


def test_radius_rungs_match_fraction_oracle():
    # every c with coefficients in [-1, 1] for d in 2..5, e in {3, 4, 5, 8}
    # (704 settings) plus 40 seeded such c per d for e = 7 (160 of 2912):
    # each of the 3381 iterates the orbit test visits below the bit cap has,
    # at every rung, the oracle's enclosures and True/False/undecided outcome
    settings = iterates = 0
    outcomes = {True: 0, False: 0, None: 0}
    for e in (3, 4, 5, 7, 8):
        choices = _coefficient_choices(e)
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


def _squared_rung(z, c, e, bits):
    """Oracle: one rung as the squared comparison, every endpoint of every
    enclosure of z squared."""
    r_lo_sq, r_hi_sq = _radius_bounds(c, e, bits)[2:]
    z_sq = cyc.embedding_abs_sq_intervals(z, e, bits)
    if all(lo > r_hi_sq for lo, _ in z_sq):
        return True
    if any(hi <= r_lo_sq for _, hi in z_sq):
        return False
    return None


def test_radius_rung_matches_squared_comparison(monkeypatch):
    # every rung zero_orbit_report visits, for the settings of the Fraction
    # oracle test and the first command of each slow stratum of the
    # exact_group goldens, decides as the squared comparison does, on
    # iterates far past the oracle test's bit cap
    golden = json.loads(GOLDEN_EXACT_GROUP.read_text())
    settings = [
        CycSetting.make(d, e, c)
        for e in (3, 4, 5, 7, 8)
        for d, c in itertools.product(range(2, 6), _coefficient_choices(e))
    ]
    for stratum in golden["regime_slow_strata"]:
        _, _, d, _, e, c_arg = stratum[0]["argv"]
        settings.append(CycSetting.make(int(d), int(e), c_arg.removeprefix("-c=")))
    rung = powermap._radius_rung
    outcomes = {True: 0, False: 0, None: 0}
    widest = 0

    def checked(z, c, e, bits):
        nonlocal widest
        got = rung(z, c, e, bits)
        assert got is _squared_rung(z, c, e, bits), (z, c, e, bits)
        outcomes[got] += 1
        widest = max(widest, *(abs(x).bit_length() for x in z))
        return got

    monkeypatch.setattr(powermap, "_radius_rung", checked)
    for s in settings:
        zero_orbit_report(s, 500)
    assert widest > 10_000
    assert min(outcomes.values()) > 0


def test_undecided_rung_stops_at_the_first_box_not_outside(monkeypatch):
    # every iterate past 10,000 bits of the first orbit of each slow stratum
    # of the exact_group goldens: each rung is undecided, draws fewer than
    # phi(e) boxes of the iterate, and decides as the squared comparison does
    golden = json.loads(GOLDEN_EXACT_GROUP.read_text())
    boxes = cyc.embedding_intervals
    drawn = 0

    def spy(z, e, bits):
        nonlocal drawn
        for box in boxes(z, e, bits):
            drawn += 1
            yield box

    monkeypatch.setattr(cyc, "embedding_intervals", spy)
    rungs = 0
    for stratum in golden["regime_slow_strata"]:
        _, _, d, _, e, c_arg = stratum[0]["argv"]
        s = CycSetting.make(int(d), int(e), c_arg.removeprefix("-c="))
        z = s.c
        while sum(abs(x).bit_length() for x in z) <= ORBIT_BIT_BUDGET:
            if max(abs(x).bit_length() for x in z) > 10_000:
                for bits in _SLOW_BITS:
                    _radius_bounds(s.c, s.e, bits)  # c's boxes are not counted
                    drawn = 0
                    assert _radius_rung(z, s.c, s.e, bits) is None
                    assert drawn < cyc.euler_phi(s.e), (s, bits)
                    assert _squared_rung(z, s.c, s.e, bits) is None
                    rungs += 1
            z = cyc.cyc_add(cyc.cyc_pow(z, s.d, s.e), s.c)
    assert rungs == 40  # ten iterates, four rungs each


def test_shortcut_needs_e_above_one_and_a_wide_iterate(monkeypatch):
    # two stand-in boxes, the first neither inside nor outside, the second
    # inside: the walk settles None at the first box only for e > 1 and
    # 2 max |z_i| > r_lo; for e = 1, or a smaller iterate, it reaches False
    for e, c in ((1, (1,)), (3, (1, 0))):
        r_lo, r_hi = _radius_bounds(c, e, _SLOW_BITS[0])[:2]
        fake = [(0, 2 * r_hi, 0, 0), (0, 0, 0, 0)]
        monkeypatch.setattr(cyc, "embedding_intervals", lambda z, e, bits: iter(fake))
        wide = (r_lo,) + (0,) * (len(c) - 1)
        narrow = (r_lo // 2,) + (0,) * (len(c) - 1)
        assert _radius_rung(wide, c, e, _SLOW_BITS[0]) is (None if e > 1 else False)
        assert _radius_rung(narrow, c, e, _SLOW_BITS[0]) is False
        monkeypatch.undo()


def test_mixed_escape_settles_as_undecided():
    # |1 + zeta_5^2| < 1: the orbit stays bounded in that embedding while
    # exploding in another, so no all-embeddings certificate can exist; the
    # coefficient budget must settle this as undecided rather than spin
    report = zero_orbit_report(CycSetting.make(2, 5, "1+z"), 60)
    assert report.verdict is Preperiodicity.UNDECIDED


def test_undecided_when_budget_too_small():
    assert zero_orbit_report(CycSetting.make(2, 1, 1), 1).verdict is Preperiodicity.UNDECIDED


def test_product_norm_factor_examples():
    # x^2 = -1 - x mod Phi_3, x^4 = -1 - x - x^2 - x^3 mod Phi_5 and x^6 the
    # like mod Phi_7; x^2 = -1 mod Phi_4 and x^4 = -1 mod Phi_8
    assert [_product_norm_factor(e) for e in (1, 3, 4, 5, 7, 8)] == [1, 2, 1, 4, 6, 1]


@st.composite
def _power_bits_cases(draw):
    """(z, d, c, e) with z = t 2^s + r: t of about 64 bits, either independent
    of mixed signs or +-T plus small offsets, whose powers cancel in some
    coefficients (e = 4: (T + Ti)^2 = 2T^2 i); r often at either end of
    [0, 2^s), and c either up to the size of z^d or cancelling some of it."""
    e = draw(st.sampled_from((1, 3, 4, 5, 7, 8)))
    n = cyc.euler_phi(e)
    d = draw(st.integers(2, 5))
    s = draw(st.integers(0, 3000))
    if draw(st.booleans()):
        t = draw(st.lists(st.integers(-(1 << 64), 1 << 64), min_size=n, max_size=n))
    else:
        T = draw(st.integers(1 << 63, 1 << 64))
        t = [draw(st.sampled_from((-T, T))) + draw(st.integers(-16, 16)) for _ in range(n)]
    low = st.sampled_from((0, (1 << s) - 1)) | st.integers(0, (1 << s) - 1)
    z = tuple((x << s) + draw(low) for x in t)
    if draw(st.booleans()):
        c_bits = draw(st.integers(0, d * (s + 64) + 8))
        c = draw(st.lists(st.integers(-(1 << c_bits), 1 << c_bits), min_size=n, max_size=n))
    else:
        c = [-(x >> draw(st.integers(0, 4))) + draw(st.integers(-16, 16))
             for x in cyc.cyc_pow(z, d, e)]
    return z, d, tuple(c), e


@given(_power_bits_cases())
@settings(max_examples=300, deadline=None)
def test_power_bits_lower_bound_is_a_lower_bound(case):
    z, d, c, e = case
    exact = sum(abs(x).bit_length() for x in cyc.cyc_add(cyc.cyc_pow(z, d, e), c))
    assert _power_bits_lower_bound(z, d, c, e) <= exact


def test_power_bits_lower_bound_is_close_on_an_undecided_orbit():
    # the step of d=3 e=8 c=2+z-z^2-2z^3 that crosses the budget: the bound
    # from 64 top bits is within 8 bits per coefficient of the exact sum
    # (equal to it, in fact)
    s = CycSetting.make(3, 8, "2+z-z^2-2z^3")
    z = cyc.cyc_zero(s.e)
    for _ in range(10):
        z = cyc.cyc_add(cyc.cyc_pow(z, s.d, s.e), s.c)
    exact = sum(abs(x).bit_length() for x in cyc.cyc_add(cyc.cyc_pow(z, s.d, s.e), s.c))
    assert ORBIT_BIT_BUDGET < exact - 8 * len(z) <= _power_bits_lower_bound(z, s.d, s.c, s.e) <= exact


def _reference_orbit_report(s, max_iter):
    """Oracle: the orbit loop without the over-budget certificate, which
    computes every iterate, the one past ORBIT_BIT_BUDGET included."""
    zero = cyc.cyc_zero(s.e)
    if s.c == zero:
        return OrbitReport(Preperiodicity.PREPERIODIC, steps=0, repeat_index=0)
    seen = {zero: 0}
    z = zero
    for step in range(1, max_iter + 1):
        z = cyc.cyc_add(cyc.cyc_pow(z, s.d, s.e), s.c)
        if z in seen:
            return OrbitReport(Preperiodicity.PREPERIODIC, steps=step, repeat_index=seen[z])
        seen[z] = step
        if sum(abs(x).bit_length() for x in z) > ORBIT_BIT_BUDGET:
            return OrbitReport(Preperiodicity.UNDECIDED, steps=step)
        if _exceeds_radius(z, s.c, s.e):
            return OrbitReport(Preperiodicity.NOT_PREPERIODIC, steps=step)
    return OrbitReport(Preperiodicity.UNDECIDED, steps=max_iter)


def test_orbit_report_matches_the_loop_without_the_certificate(monkeypatch):
    # d in 2..5, e in {5, 8}, c in [-1, 1]^4: 648 settings, 236 undecided,
    # every one of them at the budget and settled by the certificate
    bound = powermap._power_bits_lower_bound
    certified = 0

    def counted(z, d, c, e):
        nonlocal certified
        got = bound(z, d, c, e)
        certified += got > ORBIT_BIT_BUDGET
        return got

    monkeypatch.setattr(powermap, "_power_bits_lower_bound", counted)
    verdicts = {verdict: 0 for verdict in Preperiodicity}
    grid = itertools.product(range(2, 6), (5, 8), itertools.product((-1, 0, 1), repeat=4))
    for d, e, c in grid:
        s = CycSetting.make(d, e, c)
        expected = _reference_orbit_report(s, 500)
        assert zero_orbit_report(s, 500) == expected, s
        verdicts[expected.verdict] += 1
    assert sum(verdicts.values()) == 648
    assert verdicts[Preperiodicity.UNDECIDED] == certified == 236


def test_setting_parse_and_format():
    s = CycSetting.make(3, 1, "1")
    assert (s.d, s.e, s.c) == (3, 1, (1,))
    s = CycSetting.make(3, 3, "1+2z")
    assert s.c == (1, 2)
    assert str(s) == "d=3 e=3 c=1+2z"


def test_setting_validation():
    with pytest.raises(ValueError):
        CycSetting.make(1, 1, 1)
    with pytest.raises(ValueError):
        CycSetting(d=3, e=3, c=(1,))  # wrong coefficient length


def test_model_fpp_via_indicatrix_matches_group_fpp():
    # FPP(B_1) computed from the coset indicatrices, enumerated or in closed
    # form, equals the direct group FPP
    for d, e in [(3, 1), (4, 1), (3, 3), (5, 1)]:
        A = galois_A(d, e)
        b1 = b_n_permset(d, e, 1)
        for phi_of in (lambda m: indicatrix_of(coset_permset(d, m)),
                       lambda m: coset_indicatrix(coset_gcd(m, d))):
            per_coset = [1 - value_at(phi_of(m), 0) for m in A]
            aggregate = sum(per_coset, Fraction(0)) / len(A)
            assert aggregate == fpp(b1)


def test_b_n_permset_order_and_burnside():
    group = b_n_permset(3, 1, 2)
    assert len(group) == 2 * 81
    assert mean_trace(group) == 1  # transitive on 9 points
    group1 = b_n_permset(2, 1, 1)
    assert len(group1) == 2
