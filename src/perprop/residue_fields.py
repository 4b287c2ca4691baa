"""Finite fields F_{p^f} and primes of Q(zeta_e) above rational primes.

Field elements are coefficient tuples of length f over F_p in the power
basis of a deterministic modulus: the first monic irreducible of degree f
when candidates are read highest-coefficient-first (equivalently, ordered by
the integer sum a_j p^j).  A prime of the cyclotomic field is recorded as
(p, residue field, image of zeta), one per Frobenius orbit of primitive
roots of unity, so sweeps are bit-reproducible across runs.

Conductors congruent to 2 mod 4 are normalized to their odd half (same
field), and only unramified primes (p not dividing the normalized conductor)
are constructed or streamed.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import gcd, isqrt

from .cyclotomic import poly_divmod, poly_mulmod

Element = tuple[int, ...]


class RamifiedPrimeError(Exception):
    """The rational prime divides the conductor."""


def normalized_conductor(e: int) -> int:
    if e < 1:
        raise ValueError("conductor must be >= 1")
    return e // 2 if e % 4 == 2 else e


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    return all(n % f for f in range(3, isqrt(n) + 1, 2))


def primes_up_to(n: int) -> list[int]:
    if n < 2:
        return []
    sieve = bytearray([1]) * (n + 1)
    sieve[0] = sieve[1] = 0
    for i in range(2, isqrt(n) + 1):
        if sieve[i]:
            sieve[i * i :: i] = bytearray(len(range(i * i, n + 1, i)))
    return [i for i in range(2, n + 1) if sieve[i]]


def multiplicative_order(a: int, n: int) -> int:
    if n == 1:
        return 1
    if gcd(a, n) != 1:
        raise ValueError(f"{a} is not a unit mod {n}")
    order = 1
    x = a % n
    while x != 1:
        x = x * a % n
        order += 1
    return order


class ResidueField:
    """F_{p^f} with elements as length-f coefficient tuples over F_p."""

    def __init__(self, p: int, f: int, modulus: tuple[int, ...]):
        self.p = p
        self.f = f
        self.modulus = modulus  # monic, constant first, length f+1
        self.q = p**f
        self.zero: Element = (0,) * f
        self.one: Element = (1,) + (0,) * (f - 1)

    def __repr__(self) -> str:
        return f"ResidueField(p={self.p}, f={self.f}, q={self.q})"

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, ResidueField)
            and (self.p, self.f, self.modulus) == (other.p, other.f, other.modulus)
        )

    def __hash__(self):
        return hash((self.p, self.f, self.modulus))

    def from_int(self, n: int) -> Element:
        return (n % self.p,) + (0,) * (self.f - 1)

    def element_from_index(self, idx: int) -> Element:
        if not 0 <= idx < self.q:
            raise ValueError(f"index {idx} out of range for q={self.q}")
        out = []
        for _ in range(self.f):
            out.append(idx % self.p)
            idx //= self.p
        return tuple(out)

    def index_of(self, a: Element) -> int:
        idx = 0
        for coeff in reversed(a):
            idx = idx * self.p + coeff
        return idx

    def elements(self):
        for idx in range(self.q):
            yield self.element_from_index(idx)

    def add(self, a: Element, b: Element) -> Element:
        return tuple((x + y) % self.p for x, y in zip(a, b))

    def sub(self, a: Element, b: Element) -> Element:
        return tuple((x - y) % self.p for x, y in zip(a, b))

    def neg(self, a: Element) -> Element:
        return tuple(-x % self.p for x in a)

    def mul(self, a: Element, b: Element) -> Element:
        if self.f == 1:
            return (a[0] * b[0] % self.p,)
        p = self.p
        return tuple([c % p for c in poly_mulmod(a, b, self.modulus)])

    def pow(self, a: Element, k: int) -> Element:
        result = self.one
        base = a
        while k:
            if k & 1:
                result = self.mul(result, base)
            base = self.mul(base, base)
            k >>= 1
        return result

    def inv(self, a: Element) -> Element:
        if all(x == 0 for x in a):
            raise ZeroDivisionError("inverse of zero")
        if self.f == 1:
            return (pow(a[0], -1, self.p),)
        return self.pow(a, self.q - 2)


def _frobenius_power(base: list[int], modulus: tuple[int, ...], p: int) -> list[int]:
    # base^p mod modulus by square and multiply
    result = [1]
    b = list(base)
    k = p
    while k:
        if k & 1:
            result = [c % p for c in poly_mulmod(result, b, modulus)]
        b = [c % p for c in poly_mulmod(b, b, modulus)]
        k >>= 1
    return result


def _poly_gcd(a, b, p: int) -> list[int]:
    """A gcd over F_p of integer coefficient sequences (constant first): its
    length minus one is its degree, and [] means both are zero mod p."""

    def strip(u):
        u = [c % p for c in u]
        while u and u[-1] == 0:
            u.pop()
        return u

    a, b = strip(a), strip(b)
    while b:
        inv = pow(b[-1], -1, p)
        b = [c * inv % p for c in b]
        a, b = b, strip(poly_divmod(a, b)[1])
    return a


def _is_irreducible(modulus: tuple[int, ...], p: int) -> bool:
    # x^(p^f) = x mod modulus, and gcd(x^(p^(f/r)) - x, modulus) trivial for
    # prime r | f (the gcd form is needed: inequality alone admits composites
    # whose factor degrees are incomparable, like {3,2,1} at f=6)
    f = len(modulus) - 1
    checkpoints = {f // r for r in range(2, f + 1) if f % r == 0 and is_prime(r)}
    x = t = [0, 1] + [0] * (f - 2)  # f >= 2
    for step in range(1, f + 1):
        t = _frobenius_power(t, modulus, p)
        if step in checkpoints:
            diff = [u - v for u, v in zip(t, x)]
            if len(_poly_gcd(modulus, diff, p)) != 1:
                return False
        if step == f and t != x:
            return False
    return True


@lru_cache(maxsize=None)
def make_field(p: int, f: int) -> ResidueField:
    """F_{p^f} behind the first irreducible monic modulus in the canonical order."""
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    if f < 1:
        raise ValueError("extension degree must be >= 1")
    if f == 1:
        return ResidueField(p, 1, (0, 1))
    for idx in range(p**f):
        lower = []
        k = idx
        for _ in range(f):
            lower.append(k % p)
            k //= p
        modulus = tuple(lower) + (1,)
        if _is_irreducible(modulus, p):
            return ResidueField(p, f, modulus)
    raise AssertionError(f"no irreducible modulus found for p={p}, f={f}")


@dataclass(frozen=True)
class PrimeOfK:
    """A prime of Q(zeta_e) above p: its residue field and the image of zeta."""

    p: int
    e: int
    eprime: int
    field: ResidueField
    zeta_image: Element

    @property
    def f(self) -> int:
        return self.field.f

    @property
    def norm(self) -> int:
        return self.field.q

    def __repr__(self) -> str:
        return (
            f"PrimeOfK(p={self.p}, e={self.e}, norm={self.norm}, "
            f"zeta={self.zeta_image})"
        )


def _primitive_root_of_unity(field: ResidueField, order: int) -> Element:
    """Deterministic element of exact multiplicative order `order`."""
    if order == 1:
        return field.one
    cofactor = (field.q - 1) // order
    prime_parts = [r for r in range(2, order + 1) if order % r == 0 and is_prime(r)]
    for idx in range(2, field.q):
        candidate = field.pow(field.element_from_index(idx), cofactor)
        if candidate == field.zero or candidate == field.one:
            continue
        if all(field.pow(candidate, order // r) != field.one for r in prime_parts):
            return candidate
    raise AssertionError(f"no element of order {order} in {field!r}")


def primes_above(p: int, e: int) -> list[PrimeOfK]:
    """The primes of Q(zeta_e) above p, one per Frobenius orbit of primitive
    roots of unity, each tagged with a canonical orbit representative."""
    eprime = normalized_conductor(e)
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    if eprime > 1 and eprime % p == 0:
        raise RamifiedPrimeError(f"p={p} ramifies in Q(zeta_{e})")
    if eprime == 1:
        field = make_field(p, 1)
        return [PrimeOfK(p=p, e=e, eprime=1, field=field, zeta_image=field.one)]
    f = multiplicative_order(p, eprime)
    field = make_field(p, f)
    root = _primitive_root_of_unity(field, eprime)
    reps = []
    seen: set[int] = set()
    for k in range(1, eprime):
        if gcd(k, eprime) != 1 or k in seen:
            continue
        orbit_exps = {k}
        j = k * p % eprime
        while j not in orbit_exps:
            orbit_exps.add(j)
            j = j * p % eprime
        seen.update(orbit_exps)
        reps.append(min(field.pow(root, j) for j in orbit_exps))
    reps.sort()
    return [
        PrimeOfK(p=p, e=e, eprime=eprime, field=field, zeta_image=r) for r in reps
    ]


def prime_stream(e: int, norm_bound: int) -> list[PrimeOfK]:
    """All unramified primes of Q(zeta_e) with norm <= norm_bound, sorted by
    (norm, p, representative); deterministic."""
    if norm_bound < 2:
        raise ValueError("norm_bound must be >= 2")
    eprime = normalized_conductor(e)
    out: list[PrimeOfK] = []
    for p in primes_up_to(norm_bound):
        if eprime > 1 and eprime % p == 0:
            continue
        f = multiplicative_order(p, eprime)
        if p**f > norm_bound:
            continue
        out.extend(primes_above(p, e))
    out.sort(key=lambda P: (P.norm, P.p, P.zeta_image))
    return out


def reduce_cyclotomic(c, P: PrimeOfK) -> Element:
    """Image of a cyclotomic integer in the residue field of P."""
    field = P.field
    if P.e % 4 == 2:
        half = (P.eprime + 1) // 2
        zeta_e = field.neg(field.pow(P.zeta_image, half))
    else:
        zeta_e = P.zeta_image
    acc = field.zero
    for coeff in reversed(tuple(c)):
        acc = field.add(field.mul(acc, zeta_e), field.from_int(coeff))
    return acc
