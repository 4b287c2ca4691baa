import itertools
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
    compose,
    derivative_at_one,
    epsilon_index,
    indicatrix_of,
    iterate_at_zero,
    to_text,
    value_at,
)
from perprop.perms import Permutation, cyclic_group, fpp, permset, symmetric_group
from perprop.powermap import build_B1

F = Fraction

PHI_C2 = IndicatrixPoly((F(1, 2), F(0), F(1, 2)))
PHI_C3 = IndicatrixPoly((F(2, 3), F(0), F(0), F(1, 3)))
PHI_S3 = IndicatrixPoly((F(1, 3), F(1, 2), F(0), F(1, 6)))


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
        IndicatrixPoly((F(1, 2), F(1, 2), F(1, 2)))
    with pytest.raises(ValueError):
        IndicatrixPoly((F(3, 2), F(-1, 2)))


def test_iterate_at_zero_examples():
    iv = iterate_at_zero(PHI_C2, 2)
    assert F(5, 8) in iv
    iv = iterate_at_zero(PHI_C3, 2)
    assert F(62, 81) in iv
    # zero constant term pins the whole orbit at zero
    x_only = IndicatrixPoly((F(0), F(1)))
    iv = iterate_at_zero(x_only, 17)
    assert iv.lo == iv.hi == 0


def test_iterate_interval_contains_exact_value():
    for phi in (PHI_C2, PHI_C3, PHI_S3):
        x = F(0)
        for n in range(1, 7):
            x = value_at(phi, x)
            iv = iterate_at_zero(phi, n)
            assert x in iv
            assert iv.width <= F(1, 2**62)


def test_iterate_switches_to_intervals_for_deep_iterates():
    iv = iterate_at_zero(PHI_C2, 40)
    assert iv.lo < iv.hi  # exact phase must have ended
    assert iv.width <= F(1, 2**126)
    assert 0 < iv.lo and iv.hi < 1


def _random_indicatrix(rng, degree):
    weights = [F(rng.randrange(0, 50), rng.randrange(1, 1000)) for _ in range(degree)]
    weights.append(F(rng.randrange(1, 50), rng.randrange(1, 1000)))
    total = sum(weights)
    return IndicatrixPoly(tuple(w / total for w in weights))


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
STEP_CASES = [_random_indicatrix(_rng, _rng.randrange(7)) for _ in range(200)] + [
    indicatrix_of(data.coset_permset(m))
    for data in (build_B1(d, 1) for d in (2, 3, 5))
    for m in data.A
]


@pytest.mark.parametrize("wp", [64, 256, 512, 4096])
def test_integer_endpoint_step_matches_fraction_rounding(wp):
    # every endpoint pair, 50 steps from a seeded start in [0, 1], equals the
    # outward-rounded Fraction evaluation bit for bit
    rng = random.Random(wp)
    one = 1 << wp
    for phi in STEP_CASES:
        step = _endpoint_step(phi, wp)
        lo = rng.randrange(one)
        hi = min(one, lo + rng.randrange(1 << (wp // 2)))
        for _ in range(50):
            expected = _step_oracle(phi, lo, hi, wp)
            lo, hi = step(lo, hi)
            assert (F(lo, one), F(hi, one)) == expected, (phi, wp)


def test_epsilon_index_examples():
    assert epsilon_index(PHI_S3, F(1, 2)) == 2
    assert epsilon_index(PHI_C2, F(1, 2)) == 2
    x_only = IndicatrixPoly((F(0), F(1)))
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
    monkeypatch.setattr(indicatrix, "WORKING_PRECISION", 4096)
    assert epsilon_index(PHI_C2, eps) == index == 31
    assert precisions == [256, 512, 4096]


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


def test_compose_matches_pointwise():
    comp = compose(PHI_S3, PHI_C3)
    for x in (F(0), F(1, 3), F(1), F(2, 7)):
        assert value_at(comp, x) == value_at(PHI_S3, value_at(PHI_C3, x))


def test_compose_rejects_large_degrees():
    from perprop.perms import ResourceCapError

    big = IndicatrixPoly((F(0),) * 16 + (F(1),))
    with pytest.raises(ResourceCapError):
        compose(big, big)


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
    assert sum(phi.coeffs) == 1
