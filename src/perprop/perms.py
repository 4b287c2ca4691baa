"""Explicit permutation actions: traces, fixed-point proportions, small groups.

Permutations act on the dense point set {0, ..., degree-1}.  Composition is
"apply right, then left": (a * b)(i) = a(b(i)).  PermSet holds a finite,
duplicate-free, canonically sorted collection of permutations of one degree,
tagged as a full group, a coset h*rep of a stored group, or a plain set.
Everything here is immutable and meant for small explicit groups and
brute-force oracles, not for computational group theory at scale.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from fractions import Fraction

DEGREE_CAP = 10_000


class ResourceCapError(Exception):
    """An enumeration or size cap was exceeded; the message names the need."""


def _check_degree(n: int) -> None:
    if not 1 <= n <= DEGREE_CAP:
        raise ValueError(f"degree must be in [1, {DEGREE_CAP}], got {n}")


@dataclass(frozen=True)
class Permutation:
    """A bijection of {0, ..., n-1}, stored as its image tuple."""

    images: tuple[int, ...]

    def __post_init__(self):
        n = len(self.images)
        _check_degree(n)
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
        """Disjoint-cycle text form, e.g. "(0 1 2)(3 4)"; identity is "()"."""
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
    _check_degree(degree)
    return Permutation(tuple(range(degree)))


def from_cycles(text: str, degree: int) -> Permutation:
    """Parse cycle notation like "(0 1 2)(3 4)"; points not mentioned are fixed."""
    _check_degree(degree)
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


@dataclass(frozen=True)
class PermSet:
    """A nonempty duplicate-free set of same-degree permutations.

    kind is one of "group", "coset", "plain".  A coset stores the group it is
    a coset of and one representative; its elements are {h * rep : h in group}.
    Elements are kept sorted by image tuple so equal sets compare equal and
    iteration order is deterministic.
    """

    degree: int
    elements: tuple[Permutation, ...]
    kind: str = "plain"
    group: "PermSet | None" = field(default=None, compare=False)
    representative: Permutation | None = field(default=None, compare=False)

    def __post_init__(self):
        if not self.elements:
            raise ValueError("PermSet must be nonempty")
        if self.kind not in ("group", "coset", "plain"):
            raise ValueError(f"bad kind {self.kind!r}")
        if any(p.degree != self.degree for p in self.elements):
            raise ValueError("mixed degrees in PermSet")
        imgs = [p.images for p in self.elements]
        if len(set(imgs)) != len(imgs):
            raise ValueError("duplicate elements in PermSet")
        if imgs != sorted(imgs):
            object.__setattr__(
                self,
                "elements",
                tuple(sorted(self.elements, key=lambda p: p.images)),
            )
        if self.kind == "coset" and (self.group is None or self.representative is None):
            raise ValueError("coset needs its group and a representative")

    def __len__(self) -> int:
        return len(self.elements)

    def __iter__(self):
        return iter(self.elements)

    def __contains__(self, p: Permutation) -> bool:
        return any(q.images == p.images for q in self.elements)

    def verify_group(self) -> bool:
        """Exhaustively check identity, closure and inverses."""
        elems = set(p.images for p in self.elements)
        if tuple(range(self.degree)) not in elems:
            return False
        for a in self.elements:
            if a.inverse().images not in elems:
                return False
            for b in self.elements:
                if (a * b).images not in elems:
                    return False
        return True

    def verify_coset(self) -> bool:
        if self.kind != "coset":
            return False
        want = set((h * self.representative).images for h in self.group)
        return want == set(p.images for p in self.elements)


def permset(elements, kind: str = "plain") -> PermSet:
    elems = tuple(elements)
    if not elems:
        raise ValueError("empty permutation set")
    return PermSet(degree=elems[0].degree, elements=elems, kind=kind)


def group_from(elements) -> PermSet:
    return permset(elements, kind="group")


def coset(group: PermSet, rep: Permutation) -> PermSet:
    """The coset {h * rep : h in group}."""
    if group.kind != "group":
        raise ValueError("coset requires kind='group'")
    if rep.degree != group.degree:
        raise ValueError("representative degree mismatch")
    elems = tuple({(h * rep).images: h * rep for h in group}.values())
    return PermSet(
        degree=group.degree,
        elements=elems,
        kind="coset",
        group=group,
        representative=rep,
    )


def close_under_composition(generators, cap: int = 1_000_000) -> PermSet:
    """Group generated by the given permutations, by breadth-first closure."""
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
                    if len(elems) > cap:
                        raise ResourceCapError(
                            f"group closure exceeded cap of {cap} elements"
                        )
        boundary = new
    return permset(elems.values(), kind="group")


def cyclic_group(n: int) -> PermSet:
    """C_n acting on n points by rotation."""
    _check_degree(n)
    shift = Permutation(tuple((i + 1) % n for i in range(n)))
    return close_under_composition([shift])


def symmetric_group(n: int) -> PermSet:
    """S_n as the explicit list of all n! permutations."""
    _check_degree(n)
    elems = [Permutation(p) for p in itertools.permutations(range(n))]
    return permset(elems, kind="group")


def fpp(s: PermSet) -> Fraction:
    """Proportion of elements fixing at least one point, as an exact rational."""
    if len(s) == 0:
        raise ValueError("fpp of empty set")
    fixing = sum(1 for p in s if trace(p) > 0)
    return Fraction(fixing, len(s))


def mean_trace(s: PermSet) -> Fraction:
    """Average number of fixed points over the set; 1 for cosets of transitive groups."""
    if len(s) == 0:
        raise ValueError("mean_trace of empty set")
    return Fraction(sum(trace(p) for p in s), len(s))


def is_transitive(s: PermSet) -> bool:
    """Whether the orbit of point 0 under the group is everything."""
    if s.kind != "group":
        raise ValueError("is_transitive requires kind='group'")
    orbit = {0}
    frontier = [0]
    while frontier:
        nxt = []
        for i in frontier:
            for p in s:
                j = p.images[i]
                if j not in orbit:
                    orbit.add(j)
                    nxt.append(j)
        frontier = nxt
    return len(orbit) == s.degree
