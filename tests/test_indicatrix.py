import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from perprop import indicatrix
from perprop.indicatrix import (
    DIVERGES,
    IndicatrixPoly,
    _endpoint_step,
    derivative_at_one,
    epsilon_index,
    indicatrix_of,
    iterate_at_zero,
    to_text,
    value_at,
)
from perprop.perms import Permutation, cyclic_group, fpp, permset, symmetric_group
from perprop.powermap import (
    b_n_permset,
    coset_gcd,
    coset_indicatrix,
    coset_permset,
    galois_A,
)
from perprop.wreath import iterated_wreath

F = Fraction

PHI_C2 = IndicatrixPoly({0: F(1, 2), 2: F(1, 2)})
PHI_C3 = IndicatrixPoly({0: F(2, 3), 3: F(1, 3)})
PHI_S3 = IndicatrixPoly({0: F(1, 3), 1: F(1, 2), 3: F(1, 6)})


def brute_indicatrix(group_elements):
    """Oracle: tally fixed-point counts over explicit image tuples."""
    n = len(group_elements[0])
    counts = [0] * (n + 1)
    for images in group_elements:
        counts[sum(1 for i in range(n) if images[i] == i)] += 1
    total = len(group_elements)
    return tuple(F(c, total) for c in counts)


def test_indicatrix_examples():
    # oracle values first
    assert brute_indicatrix([(0, 1), (1, 0)]) == (F(1, 2), F(0), F(1, 2))
    assert brute_indicatrix(list(itertools.permutations(range(3))))[:2] == (F(1, 3), F(1, 2))
    assert indicatrix_of(cyclic_group(2)) == PHI_C2
    assert indicatrix_of(cyclic_group(3)) == PHI_C3
    assert indicatrix_of(symmetric_group(3)) == PHI_S3


def test_value_at_examples():
    assert value_at(PHI_C2, 1) == 1
    assert value_at(PHI_C3, 0) == F(2, 3)
    assert value_at(PHI_S3, F(1, 3)) == F(41, 81)


def test_derivative_at_one_examples():
    assert derivative_at_one(PHI_C3) == 1
    assert derivative_at_one(PHI_S3) == 1
    ident_only = indicatrix_of(permset([Permutation(tuple(range(5)))]))
    assert derivative_at_one(ident_only) == 5


def test_coefficients_validated():
    with pytest.raises(ValueError):
        IndicatrixPoly({0: F(1, 2), 1: F(1, 2), 2: F(1, 2)})
    with pytest.raises(ValueError):
        IndicatrixPoly({0: F(3, 2), 1: F(-1, 2)})


def test_terms_are_nonzero_and_ascending():
    phi = IndicatrixPoly({3: F(1, 6), 2: 0, 0: F(1, 3), 1: F(1, 2)})
    assert phi.terms == ((0, F(1, 3)), (1, F(1, 2)), (3, F(1, 6)))
    assert phi == PHI_S3 == IndicatrixPoly(phi.terms)


def test_iterate_at_zero_examples():
    iv = iterate_at_zero(PHI_C2, 2)
    assert iv.lo <= F(5, 8) <= iv.hi
    iv = iterate_at_zero(PHI_C3, 2)
    assert iv.lo <= F(62, 81) <= iv.hi
    # zero constant term pins the whole orbit at zero
    x_only = IndicatrixPoly({1: F(1)})
    iv = iterate_at_zero(x_only, 17)
    assert iv.lo == iv.hi == 0


def test_iterate_interval_contains_exact_value():
    for phi in (PHI_C2, PHI_C3, PHI_S3):
        x = F(0)
        for n in range(1, 7):
            x = value_at(phi, x)
            iv = iterate_at_zero(phi, n)
            assert iv.lo <= x <= iv.hi
            assert iv.hi - iv.lo <= F(1, 2**62)


def test_iterate_switches_to_intervals_for_deep_iterates():
    iv = iterate_at_zero(PHI_C2, 40)
    assert iv.lo < iv.hi  # exact phase must have ended
    assert iv.hi - iv.lo <= F(1, 2**126)
    assert 0 < iv.lo and iv.hi < 1


def _random_indicatrix(rng, degree):
    weights = [F(rng.randrange(0, 50), rng.randrange(1, 1000)) for _ in range(degree)]
    weights.append(F(rng.randrange(1, 50), rng.randrange(1, 1000)))
    total = sum(weights)
    return IndicatrixPoly(dict(enumerate(w / total for w in weights)))


def _step_oracle(phi, lo, hi, wp):
    """Fraction form of one interval step: f at each endpoint over 2^wp,
    rounded outward to wp bits (floor for lo, ceiling for hi)."""
    def round_down(x):
        return F((x.numerator << wp) // x.denominator, 1 << wp)

    def round_up(x):
        return F(-((-x.numerator << wp) // x.denominator), 1 << wp)

    return (round_down(value_at(phi, F(lo, 1 << wp))),
            round_up(value_at(phi, F(hi, 1 << wp))))


_rng = random.Random(20161)
# (phi, steps): random dense polynomials and the enumerated level-1 cosets of
# d = 2, 3, 5, then the binomial coset indicatrices of every multiplier of
# d = 12 and d = 60 and one with g = 100, whose gaps exceed 1; a step of degree
# g carries g * wp bits, so those take fewer steps
STEP_CASES = [(_random_indicatrix(_rng, _rng.randrange(7)), 50) for _ in range(200)] + [
    (indicatrix_of(coset_permset(d, m)), 50) for d in (2, 3, 5) for m in galois_A(d, 1)
] + [(coset_indicatrix(coset_gcd(m, d)), 10) for d in (12, 60) for m in galois_A(d, 1)] + [
    (coset_indicatrix(100), 10)
]


@pytest.mark.parametrize("wp", [64, 256, 512, 4096])
def test_integer_endpoint_step_matches_fraction_rounding(wp):
    # every endpoint pair, from a seeded start in [0, 1], equals the
    # outward-rounded Fraction evaluation bit for bit
    rng = random.Random(wp)
    one = 1 << wp
    for phi, steps in STEP_CASES:
        step = _endpoint_step(phi, wp)
        lo = rng.randrange(one)
        hi = min(one, lo + rng.randrange(1 << (wp // 2)))
        for _ in range(steps):
            expected = _step_oracle(phi, lo, hi, wp)
            lo, hi = step(lo, hi)
            assert (F(lo, one), F(hi, one)) == expected, (phi, wp)


def test_epsilon_index_examples():
    assert epsilon_index(PHI_S3, F(1, 2)) == 2
    assert epsilon_index(PHI_C2, F(1, 2)) == 2
    x_only = IndicatrixPoly({1: F(1)})
    assert epsilon_index(x_only, F(1, 2)) is DIVERGES


def test_epsilon_index_restarts_when_enclosure_straddles(monkeypatch):
    # epsilon sits 2^-300 below 1 - f^30(0): the 256-bit enclosure of the
    # 30th iterate is wider than that, so the first scan straddles epsilon
    # and restarts at 512 bits, which decides it
    lo, hi, den = next(itertools.islice(indicatrix._iterates(PHI_C2, 4096), 29, None))
    eps = 1 - F(lo + hi, 2 * den) - F(1, 2**300)
    precisions = []
    real_iterates = indicatrix._iterates

    def spy(f, wp):
        precisions.append(wp)
        return real_iterates(f, wp)

    monkeypatch.setattr(indicatrix, "_iterates", spy)
    index = epsilon_index(PHI_C2, eps)
    assert precisions == [256, 512]
    monkeypatch.setattr(indicatrix, "PRECISION_LADDER", (4096,))
    assert epsilon_index(PHI_C2, eps) == index == 31
    assert precisions == [256, 512, 4096]


def test_both_drivers_climb_the_whole_ladder_then_give_up(monkeypatch):
    # every enclosure is [0, 1]: too wide for iterate_at_zero, and
    # straddling any epsilon for epsilon_index
    precisions = []

    def undecided(f, wp):
        precisions.append(wp)
        return itertools.repeat((0, 1 << wp, 1 << wp))

    monkeypatch.setattr(indicatrix, "_iterates", undecided)
    with pytest.raises(indicatrix.PrecisionExhaustedError, match="within 4096 bits"):
        iterate_at_zero(PHI_C2, 3)
    assert precisions == [256, 512, 1024, 2048, 4096]
    precisions.clear()
    with pytest.raises(indicatrix.PrecisionExhaustedError,
                       match="straddles epsilon=1/10 at 4096 bits"):
        epsilon_index(PHI_C2, F(1, 10))
    assert precisions == [256, 512, 1024, 2048, 4096]


def _binomial(g):
    return IndicatrixPoly({0: 1 - F(1, g), g: F(1, g)})


def _moments(phi):
    """Factorial moments mu_0..mu_4: sum over k of coeff_k * C(k, j)."""
    return [sum(c * math.comb(k, j) for k, c in phi.terms) for j in range(5)]


# every coset indicatrix with g <= 12, the base groups, and the level-2
# cosets of d = 2 (B_2 itself, from b_n_permset) and d = 3, each once: C2 and
# C3 are the cosets of g = 2 and 3, and the m = 2 coset of d = 3 is x, as g = 1
SKIP_CASES = list(dict.fromkeys([_binomial(g) for g in range(1, 13)] + [
    PHI_C2, PHI_C3, PHI_S3, indicatrix_of(b_n_permset(2, 1, 2))
] + [indicatrix_of(iterated_wreath(coset_permset(3, m), 2)) for m in galois_A(3, 1)]))


@pytest.mark.parametrize("phi", [_binomial(g) for g in range(2, 13)] + [
    PHI_C3, PHI_S3, indicatrix_of(b_n_permset(2, 1, 2))], ids=repr)
def test_parabolic_constants_bound_the_increment(phi):
    # exact Fractions: the Bonferroni bounds on F(u) = 1 - phi(1 - u) hold on
    # (0, 1], and 1/F(u) - 1/u - a - b*u lies in [k_lo u^2, k_hi u^2] on (0, U]
    _, _, mu2, mu3, mu4 = _moments(phi)
    for k in range(1, 65):
        u = F(k, 64)
        p3 = u - mu2 * u**2 + mu3 * u**3
        assert p3 - mu4 * u**4 <= 1 - value_at(phi, 1 - u) <= p3
    for U in (F(1, 20), F(1, 200), F(1, 2000)):
        a, b, k_lo, k_hi = indicatrix._parabolic_constants(phi, U)
        assert (a, b) == (mu2, mu2 * mu2 - mu3)
        for k in range(1, 33):
            u = U * F(k, 32)
            rest = 1 / (1 - value_at(phi, 1 - u)) - 1 / u - a - b * u
            assert k_lo * u**2 <= rest <= k_hi * u**2, (U, u)


def test_parabolic_constants_of_a_coset():
    # 1 - 1/g + x^g/g: a = (g - 1)/2 and b = (g^2 - 1)/12
    for g in range(2, 13):
        a, b, _, _ = indicatrix._parabolic_constants(_binomial(g), F(1, 200))
        assert (a, b) == (F(g - 1, 2), F(g * g - 1, 12))
    assert indicatrix._parabolic_constants(IndicatrixPoly({1: F(1)}), F(1, 200)) is None
    # 1 - mu_2 U - mu_4 U^3 <= 0 bounds no denominator away from 0
    assert indicatrix._parabolic_constants(_binomial(12), F(1, 5)) is None


def test_skip_ahead_equals_the_scan(monkeypatch):
    # the coset indicatrices of g <= 12 cover every level-1 coset of these d, e
    assert {coset_indicatrix(coset_gcd(m, d)) for d in range(2, 8) for e in (1, 3, 4)
            for m in galois_A(d, e)} <= set(SKIP_CASES)
    epsilons = (F(1, 10**3), F(1, 10**4), F(1, 50000))
    fast = {(phi, eps): epsilon_index(phi, eps) for phi in SKIP_CASES for eps in epsilons}
    fallbacks = []
    skip = indicatrix._skip_ahead
    monkeypatch.setattr(indicatrix, "_skip_ahead",
                        lambda *args: fallbacks.append(args) or None)
    slow = {(phi, eps): epsilon_index(phi, eps) for phi, eps in fast}
    assert fast == slow
    # the 14 indicatrices other than x reach the skip at each epsilon, and it
    # decides all 42 cases
    assert len(SKIP_CASES) == 15 and len(fallbacks) == 42
    assert all(skip(*args) is not None for args in fallbacks)


@pytest.mark.parametrize("phi", [PHI_C2, PHI_S3, _binomial(5), _binomial(12)], ids=repr)
def test_skip_ahead_is_never_wrong_next_to_a_target(phi):
    # 1/epsilon just below or above v_n = 1/(1 - phi^n(0)), where the answer
    # is n or n + 1: an enclosure of v that misses v_n by more than the offset
    # answers wrongly, a sound one answers rightly or falls back (None)
    a = _moments(phi)[2]
    iterates = indicatrix._iterates(phi, 256)
    start = [next(iterates) for _ in range(4000)]
    lo, hi, den = start[indicatrix.SKIP_AFTER - 1]
    u_lo, u_hi = F(den - hi, den), F(den - lo, den)
    decided = 0
    for n in (100, 300, 1000, 3000):
        lo, hi, den = start[n - 1]
        v = F(den, den - lo)  # within 2^-150 of v_n
        for offset in (a / 1000, a / 100, a / 10):
            for target, index in ((v - offset, n), (v + offset, n + 1)):
                answer = indicatrix._skip_ahead(phi, 1 / target, indicatrix.SKIP_AFTER,
                                                u_lo, u_hi)
                assert answer in (None, index), (n, offset, target > v)
                decided += answer is not None
    assert decided >= 12


def test_skip_ahead_replaces_the_scan(monkeypatch):
    drawn = []
    real_iterates = indicatrix._iterates

    def spy(f, wp):
        for item in real_iterates(f, wp):
            drawn.append(wp)
            yield item

    monkeypatch.setattr(indicatrix, "_iterates", spy)
    assert epsilon_index(PHI_C2, F(1, 10**4)) == 19989
    assert len(drawn) <= indicatrix.SKIP_AFTER + 1


def test_skip_ahead_answers_past_the_step_cap():
    # the scan with the step cap lifted gives 1999984 as well
    assert epsilon_index(PHI_C2, F(1, 10**6)) == 1999984 > indicatrix.MAX_ITERATION_STEPS


def test_epsilon_index_validates_epsilon():
    with pytest.raises(ValueError):
        epsilon_index(PHI_C2, F(3, 2))
    with pytest.raises(ValueError):
        epsilon_index(PHI_C2, 0)


def test_epsilon_index_definition_holds():
    # exact deep iteration is infeasible (denominators grow doubly
    # exponentially), so the definition is checked through enclosures
    for phi in (PHI_C2, PHI_C3, PHI_S3):
        for eps in (F(1, 2), F(1, 10)):
            n = epsilon_index(phi, eps)
            if n > 1:
                prev = iterate_at_zero(phi, n - 1)
                assert 1 - prev.hi >= eps  # previous index certified failing
            here = iterate_at_zero(phi, n)
            assert 1 - here.lo < eps


def test_monotone_strictly_increasing_sequence():
    for phi in (PHI_C2, PHI_C3, PHI_S3):
        prev_hi = F(-1)
        for n in range(1, 51):
            iv = iterate_at_zero(phi, n)
            assert iv.lo > prev_hi  # certified strict increase
            assert iv.hi < 1
            prev_hi = iv.hi


def test_convexity_on_grid():
    # increasing and convex on [0, 1]: on the 1/16 grid the values strictly
    # increase and the secant slopes do not decrease
    for phi in (PHI_C2, PHI_C3, PHI_S3):
        values = [value_at(phi, F(k, 16)) for k in range(17)]
        slopes = [b - a for a, b in zip(values, values[1:])]
        assert all(s > 0 for s in slopes)
        assert all(s <= t for s, t in zip(slopes, slopes[1:]))


def test_x_below_phi_below_one_on_unit_interval():
    for phi in (PHI_C2, PHI_C3, PHI_S3):
        for k in range(16):
            x = F(k, 16)
            assert x < value_at(phi, x) < 1


def test_to_text():
    assert to_text(PHI_C3) == "2/3 + 1/3*x^3"


@st.composite
def random_permsets(draw):
    n = draw(st.integers(min_value=1, max_value=6))
    rng = random.Random(draw(st.integers(min_value=0, max_value=2**32)))
    count = draw(st.integers(min_value=1, max_value=10))
    seen = {}
    for _ in range(count):
        images = list(range(n))
        rng.shuffle(images)
        seen[tuple(images)] = Permutation(tuple(images))
    return permset(seen.values())


@given(random_permsets())
@settings(max_examples=80)
def test_constant_term_is_one_minus_fpp(s):
    phi = indicatrix_of(s)
    assert value_at(phi, 0) == 1 - fpp(s)
    assert value_at(phi, 1) == 1
    assert sum(c for _, c in phi.terms) == 1
