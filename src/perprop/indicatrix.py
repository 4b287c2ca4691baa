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

epsilon_index steps only the first SKIP_AFTER iterates.  When f'(1) = 1 and
f''(1) > 0, as for every coset of a transitive group, it then encloses
v_n = 1/(1 - f^n(0)) over strides of many n (`_skip_ahead`), the parabolic
(Leau-Fatou) behaviour of the fixed point 1 (Milnor, Dynamics in One Complex
Variable, section 10).  With u = 1 - x and the factorial moments
mu_j = sum_k c_k C(k, j), u_{n+1} = F(u_n) for F(u) = 1 - f(1 - u), and the
Bonferroni inequalities give P3(u) - mu_4 u^4 <= F(u) <= P3(u) on [0, 1], with
P3(u) = u - mu_2 u^2 + mu_3 u^3.  So v_{n+1} - v_n = 1/F(u_n) - 1/u_n is
a + b u_n + R(u_n), with a = mu_2, b = mu_2^2 - mu_3 and k_lo u^2 <= R(u) <=
k_hi u^2 for rationals k_lo, k_hi on [0, u_m] (`_parabolic_constants`).  A
stride sums the u_n between Jensen's bound and the chord of the convex
1/(A + alpha i).  All of it is exact rationals and integers rounded
outward, with no float; an index is returned only when certified, and
otherwise the scan goes on.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import islice
from math import comb, lcm

import numpy as np

from .perms import PermSet, ResourceCapError

DENOMINATOR_BIT_CAP = 128
ENCLOSURE_PRECISION = 128
WORKING_PRECISION = 256
MAX_PRECISION = 4096
MAX_ITERATION_STEPS = 200_000
SKIP_AFTER = 64  # iterates epsilon_index steps before it tries _skip_ahead
_GRID_BITS = 64  # bits _skip_ahead keeps of every u, which is at least epsilon
_STRIDE_SHARE = 8  # a stride raises v by about 1/8 of its value


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
    the hard cap.  After SKIP_AFTER iterates the scan hands its enclosure to
    `_skip_ahead`, which returns n only when its enclosures of v = 1/(1 - f^n(0))
    certify v_{n-1} <= 1/epsilon < v_n; otherwise the scan goes on.  A scan
    that runs out of MAX_ITERATION_STEPS is a ResourceCapError.
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
            if n == SKIP_AFTER:
                index = _skip_ahead(f, epsilon, n, Fraction(den - hi, den),
                                    Fraction(den - lo, den))
                if index is not None:
                    return index
        else:
            raise ResourceCapError(
                f"no index below epsilon={epsilon} within {MAX_ITERATION_STEPS} iterations"
            )
        if wp >= MAX_PRECISION:
            raise PrecisionExhaustedError(
                f"enclosure straddles epsilon={epsilon} at {MAX_PRECISION} bits"
            )
        wp = min(2 * wp, MAX_PRECISION)


def _parabolic_constants(f: IndicatrixPoly, U: Fraction):
    """(a, b, k_lo, k_hi) with k_lo u^2 <= 1/F(u) - 1/u - a - b u <= k_hi u^2
    for u in (0, U], where F(u) = 1 - f(1 - u); None unless f'(1) = 1,
    f''(1) > 0 and the denominators below stay positive on [0, U].

    With mu_j the factorial moments, D(u) = 1 - mu_2 u + mu_3 u^2 and
    E(u) = D(u) - mu_4 u^3, the Bonferroni bounds u E(u) <= F(u) <= u D(u)
    put 1/F(u) - 1/u - a - b u between u^2 (b mu_2 - mu_2 mu_3 - b mu_3 u)/D(u)
    and u^2 ((mu_4 - mu_2 mu_3 + b mu_2) + (mu_2 mu_4 - b mu_3) u + b mu_4 u^2)/E(u).
    On [0, U], 1 - mu_2 U - mu_4 U^3 <= E <= D and D, E <= 1 + mu_3 U^2.
    """
    _, mu1, mu2, mu3, mu4 = (sum(c * comb(k, j) for k, c in f.terms) for j in range(5))
    if mu1 != 1 or mu2 <= 0:
        return None
    a, b = mu2, mu2 * mu2 - mu3
    d_lo = 1 - mu2 * U
    e_lo = d_lo - mu4 * U**3
    den_hi = 1 + mu3 * U * U
    if e_lo <= 0:
        return None
    low = mu2 * (b - mu3) + min(-b * mu3, 0) * U
    high = (mu4 - mu2 * mu3 + b * mu2 + max(mu2 * mu4 - b * mu3, 0) * U
            + max(b * mu4, 0) * U * U)
    return (a, b, low / (den_hi if low >= 0 else d_lo),
            high / (e_lo if high >= 0 else den_hi))


def _skip_ahead(f: IndicatrixPoly, epsilon: Fraction, n: int, u_lo: Fraction,
                u_hi: Fraction) -> int | None:
    """The smallest index with 1 - f^index(0) < epsilon, given that
    u_n = 1 - f^n(0) lies in [u_lo, u_hi] with u_lo >= epsilon; None when the
    enclosures below cannot certify it.

    [lo, hi] encloses v_n = 1/u_n.  Every later u is at most top = 1/lo, so
    each increment of v lies in [step_lo, step_hi].  A stride of s steps adds
    s a + b S + R, where S, the sum of the next s values of u, lies between
    Jensen's bound s/(hi + step_hi (s-1)/2) and the chord of the convex
    1/(lo + step_lo i), and R lies between k_lo and k_hi times the sum of their
    squares.  A stride raises v by at most about 1/_STRIDE_SHARE of itself and
    ends with hi <= 1/epsilon, so the last one is a single step past 1/epsilon.
    Every quantity is an integer count of 1/one, rounded down on the lower
    side of its enclosure and up on the upper side; one is 2^_GRID_BITS over
    epsilon, so each u keeps _GRID_BITS bits.
    """
    constants = _parabolic_constants(f, u_hi)
    if constants is None:
        return None
    a, b, k_lo, k_hi = constants
    one = 1 << _GRID_BITS + (epsilon.denominator // epsilon.numerator).bit_length()
    target = _scaled(1 / epsilon, one, False)
    lo, hi = _scaled(1 / u_hi, one, False), _scaled(1 / u_lo, one, True)
    a_lo, a_hi = _scaled(a, one, False), _scaled(a, one, True)
    while True:
        top = -(-one * one // lo)
        top_sq = -(-top * top // one)
        step_lo = a_lo + min(_scaled(b, top, False), 0) + min(_scaled(k_lo, top_sq, False), 0)
        step_hi = a_hi + max(_scaled(b, top, True), 0) + max(_scaled(k_hi, top_sq, True), 0)
        if step_lo <= 0:
            return None
        s = max(1, min(lo // (_STRIDE_SHARE * step_hi), (target - hi) // step_hi))
        sum_lo = 2 * s * one * one // (2 * hi + step_hi * (s - 1))
        sum_hi = -(-s * (top - (-one * one // (lo + step_lo * (s - 1)))) // 2)
        squares_lo, squares_hi = sum_lo * sum_lo // (s * one), -(-top * sum_hi // one)
        new_lo = (lo + s * a_lo + min(_scaled(b, sum_lo, False), _scaled(b, sum_hi, False))
                  + min(_scaled(k_lo, squares_lo, False), _scaled(k_lo, squares_hi, False)))
        new_hi = (hi + s * a_hi + max(_scaled(b, sum_lo, True), _scaled(b, sum_hi, True))
                  + max(_scaled(k_hi, squares_lo, True), _scaled(k_hi, squares_hi, True)))
        if new_hi <= target:
            n, lo, hi = n + s, new_lo, new_hi
        elif s == 1 and new_lo > target:
            return n + 1
        else:
            return None


def _scaled(c: Fraction, x: int, up: bool) -> int:
    """c * x rounded down to an integer, or up when up is True."""
    if up:
        return -(-c.numerator * x // c.denominator)
    return c.numerator * x // c.denominator


def to_text(f: IndicatrixPoly) -> str:
    """Text form like "2/3 + 1/3*x^3"."""
    return " + ".join(str(c) if k == 0 else f"{c}*x" if k == 1 else f"{c}*x^{k}"
                      for k, c in f.terms)
