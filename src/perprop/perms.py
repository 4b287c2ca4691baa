"""Explicit permutation actions: traces, fixed-point proportions, small groups.

Permutations act on the dense point set {0, ..., degree-1}.  Composition is
"apply right, then left": (a * b)(i) = a(b(i)).  A single Permutation is an
image tuple; a PermSet holds a finite, duplicate-free collection of
permutations of one degree as one read-only int16 array of image rows in
lexicographic order, tagged as a full group or a plain set; a coset h*rep is
a plain set.  Fixed-point counts, membership and conjugation act on the
whole array at once.  Everything here is immutable and meant for small
explicit groups and brute-force oracles, not for computational group theory
at scale.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

import numpy as np

DEGREE_CAP = 10_000
# The most elements any explicit enumeration (closure, wreath, B_n) may build.
ENUMERATION_CAP = 1_000_000


class ResourceCapError(Exception):
    """An enumeration or size cap was exceeded; the message names the need."""


def check_degree(n: int) -> None:
    if not 1 <= n <= DEGREE_CAP:
        raise ValueError(f"degree must be in [1, {DEGREE_CAP}], got {n}")


@dataclass(frozen=True)
class Permutation:
    """A bijection of {0, ..., n-1}, stored as its image tuple."""

    images: tuple[int, ...]

    def __post_init__(self):
        n = len(self.images)
        check_degree(n)
        if sorted(self.images) != list(range(n)):
            raise ValueError("images is not a bijection of {0, ..., n-1}")

    @property
    def degree(self) -> int:
        return len(self.images)

    def __call__(self, i: int) -> int:
        return self.images[i]

    def __mul__(self, other: "Permutation") -> "Permutation":
        # apply right, then left
        if self.degree != other.degree:
            raise ValueError("degree mismatch in composition")
        return Permutation(tuple(self.images[j] for j in other.images))

    def inverse(self) -> "Permutation":
        inv = [0] * self.degree
        for i, j in enumerate(self.images):
            inv[j] = i
        return Permutation(tuple(inv))

    def cycle_string(self) -> str:
        """Disjoint-cycle text form, e.g. "(0 1 2)(3 4)"; identity is "()".
        It stays because __repr__ prints it, so a failed comparison of
        permutations reads as cycles."""
        seen = [False] * self.degree
        parts = []
        for start in range(self.degree):
            if seen[start]:
                continue
            cyc = [start]
            seen[start] = True
            j = self.images[start]
            while j != start:
                cyc.append(j)
                seen[j] = True
                j = self.images[j]
            if len(cyc) > 1:
                parts.append("(" + " ".join(str(k) for k in cyc) + ")")
        return "".join(parts) if parts else "()"

    def __repr__(self) -> str:
        return f"Permutation[{self.degree}] {self.cycle_string()}"


def identity(degree: int) -> Permutation:
    check_degree(degree)
    return Permutation(tuple(range(degree)))


def from_cycles(text: str, degree: int) -> Permutation:
    """Parse cycle notation like "(0 1 2)(3 4)"; points not mentioned are fixed.
    The inverse of Permutation.cycle_string and exported by the package; it
    stays as the notation the tests write their group generators in."""
    check_degree(degree)
    images = list(range(degree))
    moved: set[int] = set()
    body = text.strip()
    if body in ("", "()"):
        return Permutation(tuple(images))
    if not body.startswith("(") or not body.endswith(")"):
        raise ValueError(f"bad cycle notation: {text!r}")
    for chunk in body[1:-1].split(")("):
        pts = [int(tok) for tok in chunk.replace(",", " ").split()]
        if len(pts) < 2:
            raise ValueError(f"cycle needs at least two points: ({chunk})")
        for p in pts:
            if not 0 <= p < degree:
                raise ValueError(f"point {p} out of range for degree {degree}")
            if p in moved:
                raise ValueError(f"point {p} repeated across cycles")
            moved.add(p)
        for a, b in zip(pts, pts[1:] + pts[:1]):
            images[a] = b
    return Permutation(tuple(images))


def trace(p: Permutation) -> int:
    """Number of fixed points of p."""
    return sum(1 for i, j in enumerate(p.images) if i == j)


def _row_keys(rows) -> np.ndarray:
    """One bytes key per image row, whose order is the rows' lexicographic
    order: entries lie in [0, 2^15), so their big-endian bytes compare as
    the numbers do."""
    rows = np.ascontiguousarray(rows, dtype=">u2")
    return rows.view(np.dtype((np.void, rows.itemsize * rows.shape[1]))).ravel()


class PermSet:
    """A nonempty duplicate-free set of same-degree permutations.

    images is one read-only (N, degree) int16 array, an image row per
    element, in lexicographic row order, so equal sets compare equal and
    iteration order is deterministic; int16 holds every point because
    DEGREE_CAP < 2^15.  The constructor checks the degree, the range and
    bijectivity of every row and that no row repeats, on the whole array at
    once.  kind is "group" or "plain".  Iteration yields Permutations, for
    small sets.
    """

    def __init__(self, images, kind: str = "plain"):
        if kind not in ("group", "plain"):
            raise ValueError(f"bad kind {kind!r}")
        try:
            rows = np.asarray(images)
        except ValueError:  # rows of different lengths
            raise ValueError("mixed degrees in PermSet") from None
        if rows.ndim != 2 or len(rows) == 0 or rows.dtype.kind not in "iu":
            raise ValueError("PermSet needs a nonempty (N, degree) array of integer images")
        degree = rows.shape[1]
        check_degree(degree)
        # the range is checked before the cast, so no entry wraps
        if rows.min() < 0 or rows.max() >= degree:
            raise ValueError(f"an image lies outside {{0, ..., {degree - 1}}}")
        rows = rows.astype(np.int16, copy=False)
        if not (np.sort(rows, axis=1) == np.arange(degree, dtype=np.int16)).all():
            raise ValueError("a row is not a bijection of {0, ..., n-1}")
        rows = rows[np.lexsort(rows.T[::-1])]
        if not (rows[1:] != rows[:-1]).any(axis=1).all():
            raise ValueError("duplicate elements in PermSet")
        rows.flags.writeable = False
        self.images = rows
        self.kind = kind

    @property
    def degree(self) -> int:
        return self.images.shape[1]

    def __len__(self) -> int:
        return len(self.images)

    def __iter__(self):
        return (Permutation(tuple(row)) for row in self.images.tolist())

    def __eq__(self, other) -> bool:
        if not isinstance(other, PermSet):
            return NotImplemented
        return self.kind == other.kind and np.array_equal(self.images, other.images)

    def __repr__(self) -> str:
        return f"PermSet(degree={self.degree}, size={len(self)}, kind={self.kind!r})"

    @cached_property
    def _keys(self) -> np.ndarray:
        return _row_keys(self.images)

    def find(self, rows) -> np.ndarray:
        """Position of each image row (of this degree) in the set, or -1 where
        the row is no member; a binary search on the sorted rows."""
        keys = _row_keys(rows)
        pos = np.searchsorted(self._keys, keys)
        hit = self._keys[np.minimum(pos, len(self) - 1)] == keys
        return np.where(hit, pos, -1)

    def __contains__(self, p: Permutation) -> bool:
        return p.degree == self.degree and self.find([p.images])[0] >= 0

    def traces(self) -> np.ndarray:
        """Fixed-point count of every element, in row order."""
        return (self.images == np.arange(self.degree, dtype=np.int16)).sum(axis=1)

    def verify_group(self) -> bool:
        """Exhaustively check identity, closure and inverses."""
        elems = set(p.images for p in self)
        if tuple(range(self.degree)) not in elems:
            return False
        for a in self:
            if a.inverse().images not in elems:
                return False
            for b in self:
                if (a * b).images not in elems:
                    return False
        return True


def permset(elements, kind: str = "plain") -> PermSet:
    return PermSet([p.images for p in elements], kind=kind)


def coset(group: PermSet, rep: Permutation) -> PermSet:
    """The coset {h * rep : h in group}, as a plain set."""
    if group.kind != "group":
        raise ValueError("coset requires kind='group'")
    if rep.degree != group.degree:
        raise ValueError("representative degree mismatch")
    return permset(h * rep for h in group)


def close_under_composition(generators) -> PermSet:
    """Group generated by the given permutations, by breadth-first closure of
    at most ENUMERATION_CAP elements."""
    gens = list(generators)
    if not gens:
        raise ValueError("need at least one generator")
    degree = gens[0].degree
    elems = {identity(degree).images: identity(degree)}
    boundary = [identity(degree)]
    while boundary:
        new = []
        for g in gens:
            for b in boundary:
                c = g * b
                if c.images not in elems:
                    elems[c.images] = c
                    new.append(c)
                    if len(elems) > ENUMERATION_CAP:
                        raise ResourceCapError(
                            f"group closure exceeded cap of {ENUMERATION_CAP} elements"
                        )
        boundary = new
    return permset(elems.values(), kind="group")


def cyclic_group(n: int) -> PermSet:
    """C_n acting on n points by rotation."""
    check_degree(n)
    shift = Permutation(tuple((i + 1) % n for i in range(n)))
    return close_under_composition([shift])


def symmetric_group(n: int) -> PermSet:
    """S_n, all n! permutations of n points."""
    check_degree(n)
    return PermSet(list(itertools.permutations(range(n))), kind="group")


def fpp(s: PermSet) -> Fraction:
    """Proportion of elements fixing at least one point, as an exact rational."""
    return Fraction(int(np.count_nonzero(s.traces())), len(s))


def mean_trace(s: PermSet) -> Fraction:
    """Average number of fixed points over the set; 1 for cosets of transitive groups."""
    return Fraction(int(s.traces().sum()), len(s))


def is_transitive(s: PermSet) -> bool:
    """Whether the orbit of point 0 under the group is everything."""
    if s.kind != "group":
        raise ValueError("is_transitive requires kind='group'")
    orbit = np.zeros(s.degree, dtype=bool)
    orbit[0] = True
    while True:
        reached = orbit.copy()
        reached[s.images[:, orbit]] = True
        if np.array_equal(reached, orbit):
            return bool(orbit.all())
        orbit = reached
