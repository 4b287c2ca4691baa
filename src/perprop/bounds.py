"""Effective upper bounds for image and periodic proportions over F_q.

Everything here is rational arithmetic with sqrt(q) replaced by an outward-
rounded rational enclosure, so every returned bound is a true upper bound;
nothing is ever silently under-reported.  The deviation inequality bounds
how far the count of degree-one primes with a given Frobenius class can sit
from its expected share; summing it over the classes that fix a root yields
an upper bound on the image proportion of the n-th iterate, which in turn
bounds the periodic proportion (the periodic set lies inside every forward
image).  The genus input is controlled by a Riemann-Hurwitz estimate and the
ramified-point count by tracking critical images through n iterates.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import isqrt

from .perms import PermSet, trace

SQRT_BITS = 64


def sqrt_upper(x, bits: int = SQRT_BITS) -> Fraction:
    """Rational upper bound on sqrt(x) for an int or Fraction x >= 0, within
    2^-bits, and exact when x is the square of a rational."""
    x = Fraction(x)
    if x < 0:
        raise ValueError("x must be nonnegative")
    n = x.numerator * x.denominator << (2 * bits)
    return Fraction(isqrt(n - 1) + 1 if n else 0, x.denominator << bits)  # ceil(sqrt(n))


def sqrt_lower(x, bits: int = SQRT_BITS) -> Fraction:
    """Rational lower bound on sqrt(x) for an int or Fraction x, within
    2^-bits; 0 when x < 0, as a lower end of an enclosure may be."""
    x = Fraction(x)
    if x < 0:
        return Fraction(0)
    n = x.numerator * x.denominator << (2 * bits)
    return Fraction(isqrt(n), x.denominator << bits)


@dataclass(frozen=True)
class BoundInputs:
    """Inputs to the deviation and proportion bounds.

    q: residue field size; m: degree of the residue extension picked up by
    the constant field; n: iterate; d: map degree; B_order: order of the
    reduced splitting group; C_size: size of one conjugacy class;
    fpp_value: fixed-point proportion of the model group; A_order: degree of
    the constant-field extension; class_count_c: number of conjugacy classes
    meeting the fixing set (any over-estimate is sound; B_order is the safe
    default).
    """

    q: int
    m: int
    n: int
    d: int
    B_order: int
    fpp_value: Fraction
    A_order: int
    class_count_c: int
    C_size: int = 1

    def __post_init__(self):
        if min(self.q, self.m, self.n, self.d, self.B_order, self.A_order) < 1:
            raise ValueError("all scalar inputs must be positive")
        if self.C_size < 0 or self.class_count_c < 0:
            raise ValueError("class counts must be nonnegative")
        if not 0 <= self.fpp_value <= 1:
            raise ValueError("fpp_value must lie in [0, 1]")
        if self.m > self.A_order:
            raise ValueError("residue extension degree cannot exceed A_order")


def genus_bound(B_order: int, n: int, d: int) -> int:
    """Riemann-Hurwitz estimate: B_order * n * (2d - 2)."""
    if B_order < 1 or n < 1 or d < 1:
        raise ValueError("need B_order, n, d >= 1")
    return B_order * n * (2 * d - 2)


def ramified_bound(n: int, d: int) -> int:
    """The n-th iterate ramifies over at most n * (2d - 2) points."""
    if n < 1 or d < 2:
        raise ValueError("need n >= 1 and d >= 2")
    return n * (2 * d - 2)


def murty_deviation(inputs: BoundInputs, genus: int, R_count: int) -> Fraction:
    """Upper bound on the deviation of a Frobenius class count:
    2*sqrt(q)*(genus*C/B + C) + (1 + C)*R, outward-rounded."""
    C = Fraction(inputs.C_size)
    main = 2 * sqrt_upper(inputs.q) * (Fraction(genus) * C / inputs.B_order + C)
    return main + (1 + C) * R_count


def error_term(q: int, n: int, d: int, B_order: int, class_count_c: int) -> Fraction:
    """The q-decaying part of the proportion bound (everything but m*FPP)."""
    g = genus_bound(B_order, n, d)
    r = ramified_bound(n, d)
    return (2 * sqrt_upper(q) / (q + 1)) * (g + B_order) + Fraction(
        (class_count_c + B_order + 1) * r, q + 1
    )


def proportion_bound(inputs: BoundInputs) -> Fraction:
    """Upper bound on the image proportion of the n-th iterate (hence on the
    periodic proportion): A_order*FPP + the decaying error term."""
    return inputs.A_order * inputs.fpp_value + error_term(
        inputs.q, inputs.n, inputs.d, inputs.B_order, inputs.class_count_c
    )


def min_norm_for_delta(
    delta,
    n: int,
    d: int,
    B_order: int,
    A_order: int = 1,
    class_count_c: int | None = None,
) -> int:
    """Smallest q with error_term(q) < delta (the term decreases in q, so the
    bound holds for every larger norm as well).  A_order is accepted for
    interface symmetry; the threshold concerns only the decaying term."""
    delta = Fraction(delta)
    if delta <= 0:
        raise ValueError("delta must be positive")
    if class_count_c is None:
        class_count_c = B_order

    def err(q: int) -> Fraction:
        return error_term(q, n, d, B_order, class_count_c)

    lo, hi = 1, 2
    while err(hi) >= delta:
        lo, hi = hi, hi * 2
    if err(2) < delta:
        return 2
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if err(mid) < delta:
            hi = mid
        else:
            lo = mid
    return hi


def fix_class_count(s: PermSet) -> int:
    """Number of conjugacy classes of the group meeting the set of elements
    with a fixed point; exact, by exhaustion (small explicit groups only)."""
    if s.kind != "group":
        raise ValueError("fix_class_count requires kind='group'")
    unseen = {p.images for p in s if trace(p) > 0}
    # conjugate on image tuples, g^-1 being the argsort of g:
    # (g * rep * g^-1)(i) = g(rep(g^-1(i)))
    images = [p.images for p in s]
    pairs = [(g, sorted(range(len(g)), key=g.__getitem__)) for g in images]
    classes = 0
    while unseen:
        rep = unseen.pop()
        classes += 1
        for g, g_inv in pairs:
            unseen.discard(tuple([g[rep[k]] for k in g_inv]))
    return classes
