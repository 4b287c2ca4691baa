"""Brute-force wreath products of permutation sets.

These enumerations are the independent oracle for the indicatrix recursion:
the fixed-point proportion of an n-fold iterated wreath product must match
1 minus the n-fold iterate of the base indicatrix at 0.  Each element
(pi; tau_0..tau_{m-1}) is the image row of its action on m*d leaves, indexed
block-major: (i, j) -> pi(i)*d + tau_i(j).  So the trace of an element is
the sum of bottom traces over top-fixed blocks, which is exactly the
identity the recursion manipulates.

Every element is enumerated, as one row of an int16 image array filled by
broadcasting, behind the hard enumeration cap perms.ENUMERATION_CAP; this
module is an oracle, not a production path.
"""

from __future__ import annotations

import numpy as np

from . import perms
from .perms import PermSet, ResourceCapError, check_degree

# Python's default limit on the digits of an int converted to str
MAX_ORDER_DIGITS = 4300
_ORDER_LIMIT = 10**MAX_ORDER_DIGITS
_ORDER_LIMIT_BITS = _ORDER_LIMIT.bit_length()


def coset_wreath(top_set: PermSet, bottom_set: PermSet) -> PermSet:
    """Full product set {(pi; tau_0..tau_{m-1})} as permutations of m*d
    leaves, of size |top|*|bottom|^m.  Two groups wreath to a group; any other
    pair gives a plain set (a coset of the wreath of the groups, when the
    inputs are cosets)."""
    m = top_set.degree
    d = bottom_set.degree
    p, q = len(top_set), len(bottom_set)
    size = p * q**m
    if size > perms.ENUMERATION_CAP:
        raise ResourceCapError(
            f"wreath enumeration needs {size} elements, cap is {perms.ENUMERATION_CAP}"
        )
    check_degree(m * d)  # so every leaf index below fits int16
    shifted_tops = top_set.images * d
    out = np.empty((p, q**m, m, d), dtype=np.int16)
    for i in range(m):
        # elements run over (pi, tau_0, ..., tau_{m-1}) in row-major order,
        # so tau_i is axis 2 of this view of block i
        block = out.reshape(p, q**i, q, q ** (m - 1 - i), m, d)[..., i, :]
        np.add(
            shifted_tops[:, i].reshape(p, 1, 1, 1, 1),
            bottom_set.images.reshape(1, 1, q, 1, d),
            out=block,
        )
    kind = "group" if top_set.kind == bottom_set.kind == "group" else "plain"
    return PermSet(out.reshape(size, m * d), kind=kind)


def iterated_wreath(g: PermSet, n: int) -> PermSet:
    """n-fold iterated wreath product of g with itself (n=1 gives g back)."""
    if n < 1:
        raise ValueError("n must be >= 1")
    expected = wreath_order(len(g), g.degree, n)
    if expected > perms.ENUMERATION_CAP:
        raise ResourceCapError(
            f"iterated wreath needs {expected} elements, cap is {perms.ENUMERATION_CAP}"
        )
    acc = g
    for _ in range(n - 1):
        acc = coset_wreath(acc, g)
    return acc


def wreath_order(group_size: int, d: int, n: int) -> int:
    """Order of the n-fold iterated wreath product of a size-group_size set of
    degree d, group_size^((d^n - 1)/(d - 1)).  An order of more than
    MAX_ORDER_DIGITS decimal digits raises ResourceCapError, decided from bit
    lengths before any large power is formed."""
    if d < 2 or n < 1:
        raise ValueError("need d >= 2 and n >= 1")
    if group_size < 2:
        return group_size
    # group_size^E >= 2^E with E >= d^(n-1) >= 2^((n-1)*(bitlen(d)-1)), so
    # bit lengths refuse a huge order before its power is formed
    if (n - 1) * (d.bit_length() - 1) < _ORDER_LIMIT_BITS.bit_length():
        exponent = (d**n - 1) // (d - 1)
        if exponent * (group_size.bit_length() - 1) < _ORDER_LIMIT_BITS:
            order = group_size**exponent  # fewer than 2 * _ORDER_LIMIT_BITS bits
            if order < _ORDER_LIMIT:
                return order
    raise ResourceCapError(
        f"the {n}-fold iterated wreath order has more than "
        f"{MAX_ORDER_DIGITS} decimal digits"
    )
