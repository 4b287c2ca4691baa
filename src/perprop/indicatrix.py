"""Fixed-point-count generating polynomials and their iteration at zero.

For a set of permutations, the indicatrix is the probability generating
polynomial of the fixed-point count: coefficient k is the proportion of
elements with exactly k fixed points.  Its constant term is the proportion of
fixed-point-free elements, so 1 - constant term is the fixed-point proportion
of the set, and iterating the polynomial at 0 tracks the fixed-point
proportion of iterated wreath-product cosets.  A polynomial is stored as its
nonzero terms, and every evaluation runs Horner over those terms with one
power per gap, so the binomial 1 - 1/g + x^g/g of a coset costs one power.

One driver, `_iterates`, serves iterate_at_zero and epsilon_index.  It is
exact in Fractions while denominators stay below a bit cap (iterating a degree-d
polynomial roughly multiplies denominator sizes by d, so exact iteration blows
up exponentially in bits), then carries outward-rounded dyadic endpoints as
integer numerators over 2^wp, stepped by integer Horner with no Fraction or gcd.
All returned enclosures are guaranteed to contain the true value.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import islice
from math import ceil, lcm

import numpy as np

from .perms import PermSet, ResourceCapError

DENOMINATOR_BIT_CAP = 128
ENCLOSURE_PRECISION = 128
WORKING_PRECISION = 256
MAX_PRECISION = 4096
MAX_ITERATION_STEPS = 200_000


class PrecisionExhaustedError(Exception):
    """The hard precision cap was reached before a comparison could be decided."""


class _Diverges:
    """Sentinel: the fixed-point proportion stays at 1, no finite index exists."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "DIVERGES"


DIVERGES = _Diverges()


@dataclass(frozen=True)
class IntervalRational:
    """A closed rational interval [lo, hi] enclosing one real value."""

    lo: Fraction
    hi: Fraction

    def __post_init__(self):
        if self.lo > self.hi:
            raise ValueError("interval with lo > hi")


@dataclass(frozen=True)
class IndicatrixPoly:
    """Probability generating polynomial of fixed-point counts.

    terms holds the pairs (k, Prob(count = k)) whose coefficient is nonzero,
    k ascending; the coefficients are positive and sum to 1.  It is built
    from a mapping k -> coefficient (or such pairs), and zeros are dropped.
    """

    terms: tuple[tuple[int, Fraction], ...]

    def __post_init__(self):
        terms = tuple(sorted((int(k), Fraction(c))
                             for k, c in dict(self.terms).items() if c != 0))
        object.__setattr__(self, "terms", terms)
        if any(k < 0 or c < 0 for k, c in terms):
            raise ValueError("negative exponent or coefficient in indicatrix")
        if sum(c for _, c in terms) != 1:
            raise ValueError("indicatrix coefficients must sum to 1")

    def __repr__(self) -> str:
        return f"IndicatrixPoly({to_text(self)!r})"


def indicatrix_of(s: PermSet) -> IndicatrixPoly:
    """Indicatrix of a permutation set: coefficient k counts trace-k elements."""
    counts = np.bincount(s.traces())
    return IndicatrixPoly({int(k): Fraction(int(counts[k]), len(s))
                           for k in np.flatnonzero(counts)})


def _horner_plan(terms):
    """(top, rest) for Horner over the nonzero terms with one power per gap:
    f(x) is acc = top, then acc = acc * x**gap + c for each (gap, c) in rest,
    ending at x^0 (with a zero constant if f(0) = 0)."""
    if terms[0][0]:
        terms = ((0, 0), *terms)
    down = terms[::-1]
    return down[0][1], [(k_up - k, c) for (k_up, _), (k, c) in zip(down, down[1:])]


def value_at(f: IndicatrixPoly, x) -> Fraction:
    """Exact Horner evaluation over the nonzero terms."""
    x = Fraction(x)
    top, rest = _horner_plan(f.terms)
    acc = Fraction(top)
    for gap, c in rest:
        acc = acc * x**gap + c
    return acc


def derivative_at_one(f: IndicatrixPoly) -> Fraction:
    """Sum of k * coeff_k; equals the mean trace of the source set."""
    return sum(k * c for k, c in f.terms)


def _endpoint_step(f: IndicatrixPoly, wp: int):
    """step(lo, hi): numerators over 2^wp of f(lo/2^wp) rounded down and of
    f(hi/2^wp) rounded up to wp bits, in integers.  With D the lcm of the
    coefficient denominators, a_k = c_k * D and deg = max(top k, 1),
    2^wp f(L/2^wp) is sum a_k L^k 2^(wp(deg-k)) / (D 2^(wp(deg-1))): integer
    Horner over the nonzero terms, a shift, D.
    """
    deg = max(f.terms[-1][0], 1)
    D = lcm(*(c.denominator for _, c in f.terms))
    top, rest = _horner_plan([(k, c.numerator * (D // c.denominator) << wp * (deg - k))
                              for k, c in f.terms])
    shift = wp * (deg - 1)

    def step(lo: int, hi: int) -> tuple[int, int]:
        p_lo = p_hi = top
        for gap, b in rest:
            p_lo = p_lo * lo**gap + b
            p_hi = p_hi * hi**gap + b
        return (p_lo >> shift) // D, -(((-p_hi) >> shift) // D)

    return step


def _iterates(f: IndicatrixPoly, wp: int):
    """Yield (lo, hi, den) with lo/den <= f^n(0) <= hi/den for n = 1, 2, ...:
    exact (lo == hi) while the denominator fits DENOMINATOR_BIT_CAP bits, then
    wp-bit endpoints (den = 2^wp) rounded outward, sound as f increases on [0, 1].
    """
    x = value_at(f, 0)
    while x.denominator.bit_length() <= DENOMINATOR_BIT_CAP:
        yield x.numerator, x.numerator, x.denominator
        x = value_at(f, x)
    den = 1 << wp
    lo = (x.numerator << wp) // x.denominator
    hi = -((-x.numerator << wp) // x.denominator)
    step = _endpoint_step(f, wp)
    while True:
        yield lo, hi, den
        lo, hi = step(lo, hi)


def iterate_at_zero(f: IndicatrixPoly, n: int) -> IntervalRational:
    """Enclosure of the n-th iterate of f at 0, of width at most
    2^(2 - ENCLOSURE_PRECISION) (2^-126): the n-th enclosure of _iterates,
    doubling the working precision until it is that narrow.  An n past
    MAX_ITERATION_STEPS is a ResourceCapError, raised before any step."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if n > MAX_ITERATION_STEPS:
        raise ResourceCapError(
            f"level {n} needs {n} iteration steps, cap is {MAX_ITERATION_STEPS}"
        )
    wp = max(WORKING_PRECISION, ENCLOSURE_PRECISION + 64 + n.bit_length())
    while wp <= MAX_PRECISION:
        lo, hi, den = next(islice(_iterates(f, wp), n - 1, None))
        if (hi - lo) << (ENCLOSURE_PRECISION - 2) <= den:
            return IntervalRational(Fraction(lo, den), Fraction(hi, den))
        wp *= 2
    raise PrecisionExhaustedError(
        f"could not reach width 2^-{ENCLOSURE_PRECISION - 2} within {MAX_PRECISION} bits"
    )


def epsilon_index(f: IndicatrixPoly, epsilon) -> int | _Diverges:
    """Smallest n with 1 - f^n(0) < epsilon, or DIVERGES if the constant term is 0.

    Intended for indicatrices of cosets of transitive groups, where the
    iterates at 0 converge to 1 whenever the constant term is positive.
    Comparisons against epsilon are decided from certified enclosures; if an
    enclosure straddles epsilon the scan restarts at doubled precision, up to
    the hard cap.  Running out of MAX_ITERATION_STEPS is a ResourceCapError.
    """
    epsilon = Fraction(epsilon)
    if not 0 < epsilon < 1:
        raise ValueError("epsilon must be in (0, 1)")
    if f.terms[0][0] > 0:  # no constant term
        return DIVERGES
    eps_num, eps_den = epsilon.numerator, epsilon.denominator
    wp = WORKING_PRECISION
    while True:
        # 1 - lo/den < epsilon  <=>  (den - lo) * eps_den < eps_num * den
        steps = zip(range(1, MAX_ITERATION_STEPS + 1), _iterates(f, wp))
        for n, (lo, hi, den) in steps:
            bar = eps_num * den
            if (den - lo) * eps_den < bar:
                return n
            if (den - hi) * eps_den < bar:
                break  # the enclosure straddles epsilon
        else:
            raise ResourceCapError(
                f"no index below epsilon={epsilon} within {MAX_ITERATION_STEPS}"
                f" iterations; {_index_estimate(f, epsilon)}"
            )
        if wp >= MAX_PRECISION:
            raise PrecisionExhaustedError(
                f"enclosure straddles epsilon={epsilon} at {MAX_PRECISION} bits"
            )
        wp = min(2 * wp, MAX_PRECISION)


def _index_estimate(f: IndicatrixPoly, epsilon: Fraction) -> str:
    """What the asymptotics of 1 - f^n(0) say about an index not reached.

    With f'(1) = 1 (cosets of transitive groups) and f''(1) > 0 the iterates
    approach 1 parabolically, 1 - f^n(0) ~ 2/(f''(1) n)."""
    slope = derivative_at_one(f)
    if slope != 1:
        return f"phi'(1) = {slope}, not 1"
    curvature = sum(k * (k - 1) * c for k, c in f.terms)
    return (
        f"estimated index {ceil(2 / (curvature * epsilon))}"
        " from the parabolic asymptotic 2/(phi''(1)*epsilon)"
    )


def to_text(f: IndicatrixPoly) -> str:
    """Text form like "2/3 + 1/3*x^3"."""
    return " + ".join(str(c) if k == 0 else f"{c}*x" if k == 1 else f"{c}*x^{k}"
                      for k, c in f.terms)
