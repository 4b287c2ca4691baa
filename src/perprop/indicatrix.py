"""Fixed-point-count generating polynomials and their iteration at zero.

For a set of permutations, the indicatrix is the probability generating
polynomial of the fixed-point count: coefficient k is the proportion of
elements with exactly k fixed points.  Its constant term is the proportion of
fixed-point-free elements, so 1 - constant term is the fixed-point proportion
of the set, and iterating the polynomial at 0 tracks the fixed-point
proportion of iterated wreath-product cosets.

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
COMPOSE_DEGREE_CAP = 64


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

    @property
    def width(self) -> Fraction:
        return self.hi - self.lo

    def __contains__(self, x) -> bool:
        return self.lo <= Fraction(x) <= self.hi


@dataclass(frozen=True)
class IndicatrixPoly:
    """Probability generating polynomial of fixed-point counts.

    coeffs[k] = Prob(count = k); all coefficients nonnegative, summing to 1.
    Trailing zeros are trimmed but the constant term is always present.
    """

    coeffs: tuple[Fraction, ...]

    def __post_init__(self):
        cs = tuple(Fraction(c) for c in self.coeffs)
        while len(cs) > 1 and cs[-1] == 0:
            cs = cs[:-1]
        object.__setattr__(self, "coeffs", cs)
        if any(c < 0 for c in self.coeffs):
            raise ValueError("negative coefficient in indicatrix")
        if sum(self.coeffs) != 1:
            raise ValueError("indicatrix coefficients must sum to 1")

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def __repr__(self) -> str:
        return f"IndicatrixPoly({to_text(self)!r})"


def indicatrix_of(s: PermSet) -> IndicatrixPoly:
    """Indicatrix of a permutation set: coefficient k counts trace-k elements."""
    counts = np.bincount(s.traces(), minlength=s.degree + 1)
    return IndicatrixPoly(tuple(Fraction(int(c), len(s)) for c in counts))


def value_at(f: IndicatrixPoly, x) -> Fraction:
    """Exact Horner evaluation."""
    x = Fraction(x)
    acc = Fraction(0)
    for c in reversed(f.coeffs):
        acc = acc * x + c
    return acc


def derivative_at_one(f: IndicatrixPoly) -> Fraction:
    """Sum of k * coeffs[k]; equals the mean trace of the source set."""
    return sum((Fraction(k) * c for k, c in enumerate(f.coeffs)), Fraction(0))


def compose(f: IndicatrixPoly, g: IndicatrixPoly) -> IndicatrixPoly:
    """Coefficient array of f(g(x)); only for composite degree at most
    COMPOSE_DEGREE_CAP (test use)."""
    if f.degree * g.degree > COMPOSE_DEGREE_CAP:
        raise ResourceCapError(
            f"composite degree {f.degree * g.degree} exceeds {COMPOSE_DEGREE_CAP}"
        )
    # Horner on polynomial coefficients
    acc = [Fraction(0)]
    for c in reversed(f.coeffs):
        nxt = [Fraction(0)] * (len(acc) + g.degree)
        for i, a in enumerate(acc):
            if a == 0:
                continue
            for j, b in enumerate(g.coeffs):
                nxt[i + j] += a * b
        while len(nxt) > 1 and nxt[-1] == 0:
            nxt.pop()
        nxt[0] += c
        acc = nxt
    return IndicatrixPoly(tuple(acc))


def _endpoint_step(f: IndicatrixPoly, wp: int):
    """step(lo, hi): numerators over 2^wp of f(lo/2^wp) rounded down and of
    f(hi/2^wp) rounded up to wp bits, in integers.  With D the lcm of the
    coefficient denominators and a_k = c_k * D, 2^wp f(L/2^wp) is
    sum a_k L^k 2^(wp(deg-k)) / (D 2^(wp(deg-1))): integer Horner, a shift, D.
    """
    coeffs = f.coeffs + (Fraction(0),) * (2 - len(f.coeffs))  # degree >= 1
    D = lcm(*(c.denominator for c in coeffs))
    shifted = [c.numerator * (D // c.denominator) << (wp * i)
               for i, c in enumerate(reversed(coeffs))]  # a_deg first
    shift = wp * (len(coeffs) - 2)

    def step(lo: int, hi: int) -> tuple[int, int]:
        p_lo = p_hi = 0
        for b in shifted:
            p_lo = p_lo * lo + b
            p_hi = p_hi * hi + b
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
    doubling the working precision until it is that narrow."""
    if n < 1:
        raise ValueError("n must be >= 1")
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
    if f.coeffs[0] == 0:
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
    curvature = sum(k * (k - 1) * c for k, c in enumerate(f.coeffs))
    return (
        f"estimated index {ceil(2 / (curvature * epsilon))}"
        " from the parabolic asymptotic 2/(phi''(1)*epsilon)"
    )


def to_text(f: IndicatrixPoly) -> str:
    """Text form like "2/3 + 1/3*x^3"."""
    parts = []
    for k, c in enumerate(f.coeffs):
        if c == 0 and not (k == 0 and len(f.coeffs) == 1):
            continue
        if k == 0:
            parts.append(str(c))
        elif k == 1:
            parts.append(f"{c}*x")
        else:
            parts.append(f"{c}*x^{k}")
    return " + ".join(parts)
