"""Dynamics of reduced maps on the projective line over a finite field.

Points are indexed 0..q-1 for field elements (by their base-p integer
encoding) with index q for the point at infinity, so a map becomes a flat
successor array and prime sweeps are cache-friendly vector passes.  Two
independent periodic-point algorithms are provided on purpose: a three-color
cycle traversal of the graph, and iteration of the image sets until the
sizes stabilize (the stable set is the intersection of all forward images).
Their agreement is part of the test suite, and the image-size sequence is
the quantity the effective bounds control.

A sweep row asks three questions of a graph, all answered by one walk of the
forward images (image_sizes_and_periodic): the first image sizes, whether
the map is bijective (the first image is everything), and the periodic
count.  That count is the last size if the walk stabilized; otherwise it
comes from pointer doubling on the last image only, relabelled by position,
since that image is closed under the map and holds every periodic point.
The walk starts from f(X), counting X as the graph's size, and drops each
gathered image before making the next, and the doubling's position table
once the relabelled image is built.

Every map is evaluated by one array kernel over blocks of BLOCK // f points
of F_{p^f}: the indices split into their base-p digits, an (f, block) array
of coefficients over F_p, and products are convolutions reduced by the monic
modulus, so a block's temporaries are about the same size at every f.  x^d + c
(over any F_{p^f}) is a square-and-multiply power by cyclotomic.power; a general
rational map (prime fields only, good reduction checked by a Euclidean gcd
plus degree comparison) is an array Horner evaluation of numerator and
denominator with a Fermat-power inverse.  Forward images are iterated with a
boolean mask over the points, so no step sorts.

Every reduction mod p goes through _mod, which takes y - (y // p) p in place
of y % p: numpy divides an int64 array by a scalar with a precomputed
multiplier, several times faster than its remainder, and floor division
rounds toward -infinity, so the result is in [0, p) for negative y too.  The
kernels reduce sums and products they have just made in place, and at f = 1
an index array is its own digit row, so no copy is made there.

A sweep row of x^d + c with gcd(d, q-1) = 1 needs no graph (row_walk): x^d
is then a bijection of F_q (onto F_q^*, whose order is prime to d, and 0 to
0), so x^d + c permutes F_q and fixes infinity.  Every point of P^1(F_q) is
periodic and every image is the whole line: the row is q+1 at every step.

A sweep row of x^d + c over a prime field with gcd(d, p-1) = 2 (d even, p
odd) is walked on the quotient F_p/{+1, -1} (row_walk).  x^d is constant on
each class {t, -t}, so with R = {0, ..., (p-1)/2}, one representative per
class, and h(s) = rep(s^d + c) on R, the (p+1)/2 points of R carry the row.
The walked graph keeps infinity last, at index (p+1)/2, fixed by h as by f:
|f^j(X)| = |h^(j-1)(R + infinity)| for j >= 1, and the periodic counts of f
and h are equal (two periodic points never share an image, so no class
holds two).  The image sizes need the kernel of x -> x^d
on F_p^* to be exactly {+1, -1}, that is gcd(d, p-1) = 2: then x^d + c is
injective on R, and f^j(X) is the image of h^(j-1)(R).  With a larger gcd
the classes of +-1 merge further under x^d and the sizes would differ.  The
class of t sits at position min(t, p - t) of R.  Rows over F_{p^f}, f >= 2,
walk the full graph: they have p <= sqrt(N), so they hold under 1% of the
points at norm 10^5, too few to pay for representatives by top base-p digit.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from itertools import islice
from math import gcd
from typing import Iterator, Optional

import numpy as np

from .cyclotomic import power
from .perms import ResourceCapError
from .powermap import CycSetting
from .residue_fields import Element, PrimeOfK, ResidueField, _poly_gcd, reduce_cyclotomic

MEMORY_CAP_POINTS = 20_000_000
# Coefficients evaluated together: a kernel block holds BLOCK // f points of
# F_{p^f}, so its (f, block) digits and (2f - 1, block) convolutions stay
# near 2 BLOCK int64 values at every f, small next to the successor array.
BLOCK = 8192


@dataclass(frozen=True)
class ReducedMap:
    """A self-map of P^1 over a finite field with good reduction.

    kind "power_plus_c" is x^d + c (good reduction automatic); kind "general"
    holds numerator/denominator coefficient tuples over a prime field,
    certified coprime with full degree at construction.
    """

    field: ResidueField
    kind: str
    degree: int
    c: Optional[Element] = None
    num_coeffs: Optional[tuple[Element, ...]] = None
    den_coeffs: Optional[tuple[Element, ...]] = None
    wild: bool = False


def reduce_map(s: CycSetting, P: PrimeOfK) -> ReducedMap:
    """The reduction of x^d + c at the prime P (wild when p <= d)."""
    return power_map(P.field, s.d, reduce_cyclotomic(s.c, P))


def power_map(field: ResidueField, d: int, c: Element) -> ReducedMap:
    """x^d + c over the field, wild when p <= d."""
    if d < 1:
        raise ValueError("degree must be >= 1")
    return ReducedMap(
        field=field,
        kind="power_plus_c",
        degree=d,
        c=tuple(c),
        wild=field.p <= d,
    )


def general_map(field: ResidueField, num_coeffs, den_coeffs) -> ReducedMap:
    """A rational map p(x)/q(x) over a prime field; raises unless the
    reduction is good (coprime numerator and denominator of full degree)."""
    if field.f != 1:
        raise ValueError("general rational maps are supported over prime fields only")
    num = _strip_elems(field, num_coeffs)
    den = _strip_elems(field, den_coeffs)
    if den == (field.zero,):
        raise ValueError("zero denominator")
    if num == (field.zero,):
        raise ValueError("zero numerator")
    ints_num = [c[0] for c in num]
    ints_den = [c[0] for c in den]
    if len(_poly_gcd(ints_num, ints_den, field.p)) != 1:
        raise ValueError("bad reduction: numerator and denominator share a root")
    return ReducedMap(
        field=field,
        kind="general",
        degree=max(len(num), len(den)) - 1,
        num_coeffs=num,
        den_coeffs=den,
    )


def _strip_elems(field: ResidueField, coeffs) -> tuple[Element, ...]:
    out = [tuple(c) if not isinstance(c, int) else field.from_int(c) for c in coeffs]
    while len(out) > 1 and out[-1] == field.zero:
        out.pop()
    return tuple(out)


@dataclass
class FunctionalGraph:
    """successor[i] = index of the image of point i; index size-1 is infinity."""

    successor: np.ndarray

    @property
    def size(self) -> int:
        return self.successor.size


def _check_int64(field: ResidueField) -> None:
    """Raise ResourceCapError unless the kernels' int64 arithmetic is exact
    over the field: a product of two coefficients is at most (p-1)^2, and a
    convolution sum, or a slot during reduction by the modulus, is within
    f (p-1)^2 of zero."""
    if field.f * (field.p - 1) ** 2 >= 2**63:
        raise ResourceCapError(
            f"F_{field.p}^{field.f} arithmetic would overflow int64 "
            f"(f (p-1)^2 >= 2^63)"
        )


def check_graph_points(size: int) -> None:
    """Raise ResourceCapError if a graph of size points is past the cap."""
    if size > MEMORY_CAP_POINTS:
        raise ResourceCapError(f"graph needs {size} points, cap is {MEMORY_CAP_POINTS}")


def build_graph(m: ReducedMap) -> FunctionalGraph:
    """Evaluate the map at every point of P^1(F_q), of at most
    MEMORY_CAP_POINTS points."""
    check_graph_points(m.field.q + 1)
    _check_int64(m.field)
    return FunctionalGraph(_successors(m, m.field.q))


def _successors(m: ReducedMap, n: int) -> np.ndarray:
    """n + 1 entries: the successors of the indices 0..n-1, BLOCK // f at a
    time, then that of infinity at index n, which x^d + c fixes."""
    succ = np.empty(n + 1, dtype=np.int64)
    block = BLOCK // m.field.f
    for start in range(0, n, block):
        idx = np.arange(start, min(start + block, n), dtype=np.int64)
        succ[start : start + idx.size] = _finite_successors(m, idx)
    succ[n] = n if m.kind == "power_plus_c" else _infinity_successor(m)
    return succ


def _finite_successors(m: ReducedMap, idx: np.ndarray) -> np.ndarray:
    F = m.field
    x = _digits(F, idx)
    mul = partial(_mul, F)
    one = _column(F.one)  # for a zero exponent; broadcasts against a block
    if m.kind == "power_plus_c":
        y = power(x, m.degree, mul, one) + _column(m.c)  # a new array: x stays intact
        return _indices(F, _mod(y, F.p, out=y))
    top = _eval_poly(F, m.num_coeffs, x)
    bottom = _eval_poly(F, m.den_coeffs, x)
    out = _indices(F, mul(top, power(bottom, F.q - 2, mul, one)))  # q - 2 = 0 over F_2
    out[~bottom.any(axis=0)] = F.q  # numerator nonzero there by good reduction
    return out


def row_walk(m: ReducedMap, max_entries: int) -> tuple[tuple[int, ...], int]:
    """image_sizes_and_periodic(build_graph(m), max_entries).  When m is
    x^d + c, the row is q+1 at every step if gcd(d, q-1) = 1, and over a
    prime field with gcd(d, p-1) = 2 the walk is over the (p+1)/2 classes of
    F_p/{+1, -1} (see the module docstring).  Refuses the same fields as
    build_graph."""
    F = m.field
    k = gcd(m.degree, F.q - 1) if m.kind == "power_plus_c" else 0
    if k != 1 and (k, F.f) != (2, 1):
        return image_sizes_and_periodic(build_graph(m), max_entries)
    check_graph_points(F.q + 1)
    _check_int64(F)
    if k == 1:
        return (F.q + 1, F.q + 1)[: max(max_entries, 1)], F.q + 1
    succ = _successors(m, (F.p + 1) // 2)
    np.minimum(succ[:-1], F.p - succ[:-1], out=succ[:-1])  # infinity stays last
    sizes, periodic = image_sizes_and_periodic(FunctionalGraph(succ), max_entries - 1)
    return ((F.q + 1,) + sizes)[: max(max_entries, 1)], periodic


def _infinity_successor(m: ReducedMap) -> int:
    F = m.field
    num, den = m.num_coeffs, m.den_coeffs
    if len(num) > len(den):
        return F.q
    if len(num) < len(den):
        return 0
    return F.index_of(F.mul(num[-1], F.inv(den[-1])))


# Kernel layout: n field elements are an (f, n) int64 array of coefficients in
# [0, p), row j holding the coefficient of t^j, so every row is contiguous.


def _column(a: Element) -> np.ndarray:
    return np.asarray(a, dtype=np.int64)[:, None]


def _mod(y: np.ndarray, p: int, out: Optional[np.ndarray] = None) -> np.ndarray:
    """y mod p in [0, p), written into out or else into the one temporary,
    y // p (see the module docstring for why not y % p)."""
    q = y // p
    q *= p
    return np.subtract(y, q, out=q if out is None else out)


def _digits(F: ResidueField, idx: np.ndarray) -> np.ndarray:
    """The elements with the given base-p indices (little-endian digits); at
    f = 1 a view of idx."""
    if F.f == 1:
        return idx[None, :]
    x = np.empty((F.f, idx.size), dtype=np.int64)
    rest = idx
    for j in range(F.f - 1):
        quotient = rest // F.p
        np.multiply(quotient, F.p, out=x[j])
        np.subtract(rest, x[j], out=x[j])
        rest = quotient
    x[F.f - 1] = rest
    return x


def _indices(F: ResidueField, x: np.ndarray) -> np.ndarray:
    """Base-p index of every element; at f = 1 a view of x."""
    if F.f == 1:
        return x[0]
    out = x[F.f - 1].copy()
    for j in range(F.f - 2, -1, -1):
        out *= F.p
        out += x[j]
    return out


def _mul(F: ResidueField, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Elementwise product: convolve the coefficient rows, then reduce by the
    monic modulus from the top coefficient down (over F_p, one product)."""
    f, p = F.f, F.p
    if f == 1:
        product = a * b
        return _mod(product, p, out=product)
    conv = np.zeros((2 * f - 1, max(a.shape[1], b.shape[1])), dtype=np.int64)
    for i in range(f):
        conv[i : i + f] += a[i] * b
    low = _column(F.modulus[:f])
    for k in range(2 * f - 2, f - 1, -1):
        conv[k - f : k] -= _mod(conv[k], p) * low
    return _mod(conv[:f], p)


def _eval_poly(F: ResidueField, coeffs: tuple[Element, ...], x: np.ndarray) -> np.ndarray:
    """A polynomial with field-element coefficients at every element (Horner)."""
    acc = _column(coeffs[-1])
    for coeff in reversed(coeffs[:-1]):
        acc = _mul(F, acc, x) + _column(coeff)
        _mod(acc, F.p, out=acc)
    return np.broadcast_to(acc, x.shape)


def periodic_by_cycles(g: FunctionalGraph) -> frozenset[int]:
    """Points on cycles, by an iterative three-color traversal (no recursion)."""
    succ = g.successor.tolist()
    state = bytearray(g.size)  # 0 untouched, 1 on current path, 2 finished
    periodic: set[int] = set()
    for start in range(g.size):
        if state[start]:
            continue
        path = []
        v = start
        while state[v] == 0:
            state[v] = 1
            path.append(v)
            v = succ[v]
        if state[v] == 1:  # met the current path again: new cycle through v
            periodic.add(v)
            u = succ[v]
            while u != v:
                periodic.add(u)
                u = succ[u]
        for u in path:
            state[u] = 2
    return frozenset(periodic)


def _forward_images(g: FunctionalGraph) -> Iterator[np.ndarray]:
    """The forward images f(X), f^2(X), ... of the whole space X (never X
    itself, whose size is g.size), as sorted index arrays, ending with the
    first one no smaller than its predecessor: that one is the stable set,
    the periodic points."""
    mask = np.empty(g.size, dtype=bool)
    image = g.successor  # of the whole space, so no gather on the first step
    size = g.size
    while True:
        mask[:] = False
        mask[image] = True
        image = None  # dropped before nonzero makes the next image
        nxt = mask.nonzero()[0]
        yield nxt
        if nxt.size == size:
            return
        size = nxt.size
        image = g.successor[nxt]


def periodic_by_image_iteration(g: FunctionalGraph) -> tuple[frozenset[int], tuple[int, ...]]:
    """Iterate forward images until the sizes stabilize; the stable set is the
    periodic set.  Returns (stable set, size sequence including the repeat)."""
    sizes = [g.size]
    for img in _forward_images(g):
        sizes.append(img.size)
    return frozenset(img.tolist()), tuple(sizes)


def image_sizes_and_periodic(
    g: FunctionalGraph, max_entries: int
) -> tuple[tuple[int, ...], int]:
    """The first entries of the image-size sequence, stopping at stability or
    at max_entries (the full space always counts), and the periodic count,
    from one forward-image walk.  If the walk stopped before stabilizing, the
    count is taken by pointer doubling on its last image, which the map sends
    into itself and which holds every periodic point (the whole space when
    the walk took no step)."""
    sizes = [g.size]
    img = None
    for img in islice(_forward_images(g), max(max_entries, 1) - 1):
        sizes.append(img.size)
    if len(sizes) >= 2 and sizes[-1] == sizes[-2]:
        return tuple(sizes), sizes[-1]
    if img is None:
        return tuple(sizes), _power_image_count(g.successor)
    position = np.empty(g.size, dtype=np.int64)
    position[img] = np.arange(img.size)
    position = position[g.successor[img]]  # the image relabelled; frees the table
    return tuple(sizes), _power_image_count(position)


def _power_image_count(successor: np.ndarray) -> int:
    """|periodic set| of a successor array: the image of its 2^k-th power,
    k = ceil(log2 size), by k squarings (pointer doubling).  After that many
    steps every point has entered its cycle, so the image is the periodic set."""
    t_power = successor
    for _ in range((successor.size - 1).bit_length()):
        t_power = t_power[t_power]
    mask = np.zeros(successor.size, dtype=bool)
    mask[t_power] = True
    return int(np.count_nonzero(mask))


def image_size_at(g: FunctionalGraph, n: int) -> int:
    """|n-th forward image of the whole space| (stops early once stable)."""
    if n < 0:
        raise ValueError("n must be >= 0")
    size = g.size
    for img in islice(_forward_images(g), n):
        size = img.size
    return size
