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

from fractions import Fraction
from math import isqrt

import numpy as np

from .perms import PermSet

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
    2^-bits; 0 when x < 0, as a lower end of an enclosure may be.  It stays as
    the reference of the Fraction-oracle radius tests."""
    x = Fraction(x)
    if x < 0:
        return Fraction(0)
    n = x.numerator * x.denominator << (2 * bits)
    return Fraction(isqrt(n), x.denominator << bits)


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


def error_term(q: int, n: int, d: int, B_order: int, class_count_c: int) -> Fraction:
    """The q-decaying part of the proportion bound (everything but |A|*FPP).

    For a conjugacy class C of the reduced splitting group B, the number of
    unramified points of P^1(F_q) with Frobenius in C sits within
    2*sqrt(q)*(genus*|C|/|B| + |C|) + (1 + |C|)*R of its share |C|/|B| of
    them, with R = ramified_bound(n, d).  Summed over the class_count_c
    classes meeting the fixing set (sizes totalling at most |B|), plus R for
    the ramified points themselves, over the q + 1 points, with genus =
    genus_bound and sqrt(q) rounded up, this is the term returned.
    """
    g = genus_bound(B_order, n, d)
    r = ramified_bound(n, d)
    return (2 * sqrt_upper(q) / (q + 1)) * (g + B_order) + Fraction(
        (class_count_c + B_order + 1) * r, q + 1
    )


def fix_class_count(s: PermSet) -> int:
    """Number of conjugacy classes of the group meeting the set of elements
    with a fixed point; exact, by exhaustion (small explicit groups only)."""
    if s.kind != "group":
        raise ValueError("fix_class_count requires kind='group'")
    group = s.images
    inverses = np.argsort(group, axis=1)
    unseen = s.traces() > 0
    classes = 0
    while unseen.any():
        rep = group[unseen.argmax()]
        classes += 1
        # (g * rep * g^-1)(i) = g(rep(g^-1(i))), for every g at once
        found = s.find(np.take_along_axis(group, rep[inverses], axis=1))
        unseen[found[found >= 0]] = False
    return classes
