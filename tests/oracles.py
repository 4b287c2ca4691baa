"""Reference functions the tests check the package against; nothing in the
package calls them."""

from fractions import Fraction
from math import isqrt

from perprop.bounds import SQRT_BITS
from perprop.perms import PermSet


def sqrt_lower(x, bits: int = SQRT_BITS) -> Fraction:
    """Rational lower bound on sqrt(x) for an int or Fraction x, within
    2^-bits; 0 when x < 0, as a lower end of an enclosure may be.  It is the
    reference of the Fraction-oracle radius tests."""
    x = Fraction(x)
    if x < 0:
        return Fraction(0)
    n = x.numerator * x.denominator << (2 * bits)
    return Fraction(isqrt(n), x.denominator << bits)


def verify_group(s: PermSet) -> bool:
    """Exhaustively check identity, closure and inverses."""
    elems = set(p.images for p in s)
    if tuple(range(s.degree)) not in elems:
        return False
    for a in s:
        if a.inverse().images not in elems:
            return False
        for b in s:
            if (a * b).images not in elems:
                return False
    return True
