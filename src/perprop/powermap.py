"""Galois model and periodic-regime classification for x^d + c over Q(zeta_e).

The splitting field of x^d + c - t picks up the d-th roots of unity, and the
Galois group over the base is generated by affine maps i -> m*i + j on Z/d:
translations form the geometric part (a d-cycle group), while the multiplier
m ranges over the units fixing the base field's roots of unity.  One number
per multiplier, coset_gcd, gives each coset's indicatrix in closed form (the
explicit cosets remain as an oracle) and drives the trichotomy: the periodic
proportion of the reduced maps always has liminf 0; it tends to 0 when every
multiplier coset contains a fixed-point-free element, and has limsup 1 when
some multiplier's whole coset fixes points.  All of this is conditional on
the critical orbit of 0 being infinite, which is tested exactly on the
cyclotomic integers with a certified escape-radius argument.  An orbit that
grows past ORBIT_BIT_BUDGET bits is settled as undecided; the iterate that
would cross the budget is usually certified to do so from the 64 top bits of
the one before it (a norm bound on the rounding error of its d-th power), so
that power, the largest of the orbit, is never computed.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import gcd, isqrt

import numpy as np

from . import cyclotomic as cyc
from . import perms, wreath
from .indicatrix import IndicatrixPoly
from .perms import PermSet, ResourceCapError


class Preperiodicity(enum.Enum):
    PREPERIODIC = "preperiodic"
    NOT_PREPERIODIC = "not-preperiodic"
    UNDECIDED = "undecided"


class CosetStatus(enum.Enum):
    ALL_HAVE_FIXED_POINTS = "all-have-fixed-points"
    HAS_FIXED_POINT_FREE = "has-fpf-element"


@dataclass(frozen=True)
class CycSetting:
    """The map x^d + c over Q(zeta_e); c is a reduced cyclotomic integer."""

    d: int
    e: int
    c: tuple[int, ...]

    def __post_init__(self):
        _check_degree_and_conductor(self.d, self.e)
        if len(self.c) != cyc.euler_phi(self.e):
            raise ValueError(
                f"c must have {cyc.euler_phi(self.e)} coefficients for e={self.e}"
            )

    @classmethod
    def make(cls, d: int, e: int, c) -> "CycSetting":
        _check_degree_and_conductor(d, e)  # before parsing c, which needs e
        if isinstance(c, int):
            c_vec = cyc.cyc_int(c, e)
        elif isinstance(c, str):
            c_vec = cyc.parse_cyclotomic(c, e)
        else:
            c_vec = cyc.reduce_mod_cyclotomic(list(c), e)
        return cls(d=d, e=e, c=c_vec)

    def __str__(self) -> str:
        return f"d={self.d} e={self.e} c={cyc.format_cyclotomic(self.c)}"


def _check_degree_and_conductor(d: int, e: int) -> None:
    if d < 2:
        raise ValueError("need degree d >= 2")
    if e < 1:
        raise ValueError("need conductor e >= 1")


def galois_A(d: int, e: int) -> tuple[int, ...]:
    """Units m mod d with m = 1 mod gcd(e, d): the multipliers available over
    Q(zeta_e).  (Intersecting cyclotomic fields leaves exactly the residues
    congruent to 1 modulo the shared conductor; the even/odd subtleties take
    care of themselves because units mod an even d are odd.)"""
    if d < 2 or e < 1:
        raise ValueError("need d >= 2 and e >= 1")
    g = gcd(e, d)
    return tuple(m for m in range(1, d) if gcd(m, d) == 1 and m % g == 1 % g)


def coset_permset(d: int, m: int) -> PermSet:
    """Multiplier m's coset {i -> m*i + j : j in Z/d} as a set of permutations
    of Z/d: row j is (m*i + j) mod d."""
    i = np.arange(d)
    return PermSet((m * i + i[:, None]) % d)


def b_n_permset(d: int, e: int, n: int) -> PermSet:
    """The full model group at level n as explicit permutations of d^n points:
    the union over multipliers of the n-fold wreath coset of each multiplier's
    level-1 coset.  Brute force, for exact conjugacy-class counts, of at most
    perms.ENUMERATION_CAP elements."""
    perms.check_degree(d)
    A = galois_A(d, e)
    expected = len(A) * wreath.wreath_order(d, d, n)
    if expected > perms.ENUMERATION_CAP:
        raise ResourceCapError(
            f"B_n enumeration needs {expected} elements, cap is {perms.ENUMERATION_CAP}"
        )
    cosets = [wreath.iterated_wreath(coset_permset(d, m), n).images for m in A]
    return PermSet(np.concatenate(cosets), kind="group")


def coset_gcd(m: int, d: int) -> int:
    """g = gcd(m-1, d), which decides multiplier m's coset {i -> m*i + j : j}.

    i -> m*i + j fixes i iff (m-1)i = -j mod d, which is solvable iff g
    divides j, and then has exactly g solutions i.  So the j divisible by g,
    a 1/g share, fix g points and the rest fix none: the coset's indicatrix
    is (1 - 1/g) + x^g/g.  The whole coset fixes points iff g = 1; otherwise
    g > 1 does not divide 1, so j = 1 is a fixed-point-free element.
    """
    if gcd(m, d) != 1:
        raise ValueError(f"multiplier {m} not a unit mod {d}")
    return gcd(m - 1, d)


def coset_status(m: int, d: int) -> CosetStatus:
    """Whether every translate of multiplier m fixes a point (see coset_gcd)."""
    if coset_gcd(m, d) == 1:
        return CosetStatus.ALL_HAVE_FIXED_POINTS
    return CosetStatus.HAS_FIXED_POINT_FREE


def coset_indicatrix(g: int) -> IndicatrixPoly:
    """(1 - 1/g) + x^g/g, the indicatrix of every coset whose coset_gcd is g."""
    return IndicatrixPoly({0: 1 - Fraction(1, g), g: Fraction(1, g)})


@dataclass(frozen=True)
class RegimeReport:
    """Trichotomy verdict for the periodic-point proportion over primes, from
    the (m, status) pair of each multiplier in galois_A order.  The liminf is
    always 0 under the not-preperiodic hypothesis; the limit is 0 unless some
    multiplier's whole coset fixes points, and then the limsup is 1."""

    cosets: tuple[tuple[int, CosetStatus], ...]

    @property
    def witness_m(self) -> int | None:
        """The least multiplier whose whole coset fixes points, or None."""
        return min((m for m, status in self.cosets
                    if status is CosetStatus.ALL_HAVE_FIXED_POINTS), default=None)

    @property
    def limsup_one(self) -> bool:
        return self.witness_m is not None


def classify_regime(s: CycSetting, preper: Preperiodicity) -> RegimeReport:
    """Apply the trichotomy; requires the critical orbit of 0 to be infinite."""
    if preper is not Preperiodicity.NOT_PREPERIODIC:
        raise ValueError(
            f"classification needs '0 is not preperiodic'; got {preper.value}"
        )
    return RegimeReport(tuple((m, coset_status(m, s.d)) for m in galois_A(s.d, s.e)))


# -- critical orbit of 0 ------------------------------------------------------

_SLOW_BITS = (64, 128, 256, 512)
# Orbits escaping in one embedding while bounded in another never satisfy the
# all-embeddings escape criterion, yet their coefficients double each step;
# past this total bit size the verdict is settled as undecided.  The iterate
# that crosses it is usually certified over budget from the _TOP_BITS top bits
# of the one before (_power_bits_lower_bound), and is then never computed.
ORBIT_BIT_BUDGET = 250_000
_TOP_BITS = 64


@dataclass(frozen=True)
class OrbitReport:
    verdict: Preperiodicity
    steps: int  # index of the last iterate reached; an escape is certified there
    repeat_index: int | None = None  # earlier index the repeat collided with


@lru_cache(maxsize=None)
def _radius_bounds(c, e: int, bits: int) -> tuple[int, int, int, int]:
    """(r_lo, r_hi, r_lo^2, r_hi^2): integer bounds on the escape radius
    1 + max |embedding of c|, as numerators over 2^(bits + GUARD_BITS), and
    their squares, bounds on the squared radius as numerators over
    2^abs_sq_shift(bits)."""
    one = 1 << (bits + cyc.GUARD_BITS)
    c_sq = cyc.embedding_abs_sq_intervals(c, e, bits)
    c_lo = max(lo for lo, _ in c_sq)
    c_hi = max(hi for _, hi in c_sq)
    r_lo = one + isqrt(c_lo)
    r_hi = one + (isqrt(c_hi - 1) + 1 if c_hi else 0)  # ceil(sqrt(c_hi))
    return r_lo, r_hi, r_lo * r_lo, r_hi * r_hi


def _radius_rung(z, c, e: int, bits: int) -> bool | None:
    """The radius check at one precision of dyadic integer enclosures: True
    or False once certified, None while undecided.

    True when every embedding of z is certainly outside the radius, False
    when some embedding is certainly inside.  Each embedding's real and
    imaginary enclosures are first compared with the radius itself (for
    integers x, r >= 0, x^2 > r^2 iff x > r), so only numbers no larger than
    the radius are ever squared, never an iterate's huge endpoints.

    The boxes are drawn one at a time until the verdict is known (no box is
    both inside and outside, as r_lo <= r_hi).  For e > 1 each cos/sin radius
    is at least 2, so each box has re_rad >= 2 max |z_i|: once 2 max |z_i| >
    r_lo none can be inside, and the first box not certainly outside settles
    None.  For e = 1 the box is exact.
    """
    r_lo, r_hi, r_lo_sq, r_hi_sq = _radius_bounds(c, e, bits)

    def outside(re, re_rad, im, im_rad) -> bool:
        # smallest |Re| and |Im| over the box
        x, y = max(abs(re) - re_rad, 0), max(abs(im) - im_rad, 0)
        return x > r_hi or y > r_hi or x * x + y * y > r_hi_sq

    def inside(re, re_rad, im, im_rad) -> bool:
        # largest |Re| and |Im| over the box
        x, y = abs(re) + re_rad, abs(im) + im_rad
        return x <= r_lo and y <= r_lo and x * x + y * y <= r_lo_sq

    none_inside = e > 1 and 2 * max(map(abs, z)) > r_lo
    verdict = True
    for box in cyc.embedding_intervals(z, e, bits):
        if inside(*box):
            return False
        if not outside(*box):
            if none_inside:
                return None
            verdict = None
    return verdict


def _exceeds_radius(z, c, e: int) -> bool:
    """Certified check that every embedding of z exceeds 1 + max |embedding of c|.

    One integer path: dyadic enclosures of every embedding of z are compared
    with integer radius bounds at increasing precision, so no square root of
    an iterate is taken (for e = 1 the first rung is exact).
    Undecidable cases count as "no", which only delays the escape
    certificate, never falsifies it.
    """
    for bits in _SLOW_BITS:
        verdict = _radius_rung(z, c, e, bits)
        if verdict is not None:
            return verdict
    return False


@lru_cache(maxsize=None)
def _product_norm_factor(e: int) -> int:
    """K_e, the largest L1 norm of x^k mod Phi_e over k <= 2 phi(e) - 2."""
    return max(sum(map(abs, cyc.reduce_mod_cyclotomic([0] * k + [1], e)))
               for k in range(2 * cyc.euler_phi(e) - 1))


def _power_bits_lower_bound(z, d: int, c, e: int) -> int:
    """A lower bound on the total coefficient bit length of z^d + c, from the
    _TOP_BITS top bits of z; 0 when no coefficient of z is longer than that.

    Let ||.|| be the L1 norm on the power basis and phi = phi(e).  With
    s = (largest bit length) - _TOP_BITS and t = z >> s (floor),
    z = 2^s (t + rho) with every rho_i in [0, 1), so ||rho|| < phi.  A
    product of reduced a and b is the sum of a_i b_j (x^(i+j) mod Phi_e) with
    i + j <= 2 phi - 2, so ||ab mod Phi_e|| <= K ||a|| ||b||, K = K_e >= 1.
    Every term of the binomial expansion of (t + rho)^d - t^d is a product of
    d factors, d - 1 products, so its norm is at most
    E = K^(d-1) ((||t|| + phi)^d - ||t||^d), a bound on every coefficient of
    (t + rho)^d - t^d as well.  As z^d = 2^(sd) (t + rho)^d, each coefficient
    has |(z^d + c)_i| >= 2^(sd) (|(t^d)_i| - E) - |c_i|, with t^d exact, and
    bit length is monotone on nonnegative integers.
    """
    s = max(abs(x).bit_length() for x in z) - _TOP_BITS
    if s <= 0:
        return 0
    t = [x >> s for x in z]
    norm = sum(map(abs, t))
    E = _product_norm_factor(e) ** (d - 1) * ((norm + len(z)) ** d - norm**d)
    return sum(max(((abs(T) - E) << s * d) - abs(ci), 0).bit_length()
               for T, ci in zip(cyc.cyc_pow(t, d, e), c))


def zero_orbit_report(s: CycSetting, max_iter: int) -> OrbitReport:
    """Iterate 0 under x -> x^d + c exactly; detect a repeat or certify escape.

    An iterate certified over ORBIT_BIT_BUDGET before it is computed settles
    the orbit as undecided at its index, as the exact iterate would: every
    earlier iterate was within the budget, so it cannot repeat one."""
    if max_iter < 1:
        raise ValueError("max_iter must be >= 1")
    zero = cyc.cyc_zero(s.e)
    if s.c == zero:
        return OrbitReport(Preperiodicity.PREPERIODIC, steps=0, repeat_index=0)
    seen = {zero: 0}
    z = zero
    for step in range(1, max_iter + 1):
        if _power_bits_lower_bound(z, s.d, s.c, s.e) > ORBIT_BIT_BUDGET:
            return OrbitReport(Preperiodicity.UNDECIDED, steps=step)
        z = cyc.cyc_add(cyc.cyc_pow(z, s.d, s.e), s.c)
        if z in seen:
            return OrbitReport(
                Preperiodicity.PREPERIODIC, steps=step, repeat_index=seen[z]
            )
        seen[z] = step
        if sum(abs(x).bit_length() for x in z) > ORBIT_BIT_BUDGET:
            return OrbitReport(Preperiodicity.UNDECIDED, steps=step)
        if _exceeds_radius(z, s.c, s.e):
            return OrbitReport(Preperiodicity.NOT_PREPERIODIC, steps=step)
    return OrbitReport(Preperiodicity.UNDECIDED, steps=max_iter)

