import hashlib
import random

import pytest

from perprop.cyclotomic import euler_phi, parse_cyclotomic
from perprop.residue_fields import (
    RamifiedPrimeError,
    _primitive_root_of_unity,
    is_prime,
    make_field,
    multiplicative_order,
    normalized_conductor,
    prime_stream,
    primes_above,
    primes_up_to,
    reduce_cyclotomic,
)


def test_primes_up_to():
    assert primes_up_to(20) == [2, 3, 5, 7, 11, 13, 17, 19]
    assert primes_up_to(1) == []


def test_is_prime_small():
    assert [n for n in range(2, 30) if is_prime(n)] == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]


def test_normalized_conductor():
    assert normalized_conductor(1) == 1
    assert normalized_conductor(2) == 1
    assert normalized_conductor(6) == 3
    assert normalized_conductor(4) == 4
    assert normalized_conductor(12) == 12


def test_make_field_examples():
    f5 = make_field(5, 1)
    assert f5.q == 5 and f5.modulus == (0, 1)
    f25 = make_field(5, 2)
    assert f25.modulus == (2, 0, 1)  # x^2 + 2 is the first irreducible monic
    f8 = make_field(2, 3)
    assert f8.modulus == (1, 1, 0, 1)  # x^3 + x + 1


def test_make_field_rejects_composite():
    with pytest.raises(ValueError):
        make_field(6, 1)


def _monic_polys(p, degree):
    """Every monic polynomial of the given degree, constant first, in the
    canonical order (lower coefficients read as base-p digits)."""
    for idx in range(p**degree):
        yield tuple(idx // p**j % p for j in range(degree)) + (1,)


def _divides(divisor, poly, p):
    """Trial division of poly by a monic divisor over F_p."""
    rem = list(poly)
    k = len(divisor) - 1
    for i in range(len(rem) - 1, k - 1, -1):
        c = rem[i] % p
        for j, d in enumerate(divisor):
            rem[i - k + j] -= c * d
    return all(c % p == 0 for c in rem[:k])


def test_modulus_is_first_irreducible_by_trial_division():
    # oracle: the first monic polynomial in the canonical order with no monic
    # factor of degree 1..f//2 (sees root-free reducibles like (x^2+x+1)^2)
    for p in (2, 3, 5, 7):
        for f in range(2, 7):
            if p**f > 10**4:
                continue
            expected = next(
                poly
                for poly in _monic_polys(p, f)
                if not any(
                    _divides(g, poly, p)
                    for k in range(1, f // 2 + 1)
                    for g in _monic_polys(p, k)
                )
            )
            assert make_field(p, f).modulus == expected, (p, f)


def test_field_axioms_random_triples():
    rng = random.Random(11)
    for p, f in [(5, 2), (7, 1), (2, 3), (3, 2)]:
        field = make_field(p, f)
        elems = [field.element_from_index(i) for i in range(field.q)]
        for _ in range(1000):
            a, b, c = (rng.choice(elems) for _ in range(3))
            assert field.mul(a, field.add(b, c)) == field.add(
                field.mul(a, b), field.mul(a, c)
            )
            assert field.mul(field.mul(a, b), c) == field.mul(a, field.mul(b, c))
        for a in elems:
            if a != field.zero:
                assert field.mul(a, field.inv(a)) == field.one


def test_field_pow_matches_repeated_mul():
    for field in (make_field(5, 2), make_field(101, 1)):
        for a in map(field.element_from_index, range(field.q)):
            acc = field.one
            assert field.pow(a, 0) == acc
            for k in range(1, 6):
                acc = field.mul(acc, a)
                assert field.pow(a, k) == acc


def test_primes_above_examples():
    ps = primes_above(7, 3)
    assert len(ps) == 2 and all(P.f == 1 and P.norm == 7 for P in ps)
    assert [P.zeta_image for P in ps] == [(2,), (4,)]
    ps = primes_above(5, 3)
    assert len(ps) == 1 and ps[0].f == 2 and ps[0].norm == 25
    ps = primes_above(11, 1)
    assert len(ps) == 1 and ps[0].f == 1 and ps[0].norm == 11


def test_primes_above_ramified():
    with pytest.raises(RamifiedPrimeError):
        primes_above(3, 3)
    with pytest.raises(RamifiedPrimeError):
        primes_above(2, 4)
    # conductor 2 is the rationals: 2 is fine there
    assert primes_above(2, 2)[0].norm == 2


def test_zeta_image_has_exact_order():
    for p, e in [(7, 3), (5, 3), (13, 4), (11, 5), (7, 12), (3, 8)]:
        for P in primes_above(p, e):
            field = P.field
            assert field.pow(P.zeta_image, P.eprime) == field.one
            for r in range(2, P.eprime + 1):
                if P.eprime % r == 0 and is_prime(r):
                    assert field.pow(P.zeta_image, P.eprime // r) != field.one


def test_residue_degrees_sum_to_phi():
    for e in (3, 4, 5, 8, 12):
        for p in primes_up_to(40):
            if normalized_conductor(e) % p == 0:
                continue
            ps = primes_above(p, e)
            assert sum(P.f for P in ps) == euler_phi(normalized_conductor(e))


def test_prime_stream_examples():
    assert [P.norm for P in prime_stream(1, 10)] == [2, 3, 5, 7]
    assert [P.norm for P in prime_stream(3, 30)] == [4, 7, 7, 13, 13, 19, 19, 25]
    assert [P.norm for P in prime_stream(4, 20)] == [5, 5, 9, 13, 13, 17, 17]


def test_prime_stream_sorted_and_complete():
    for e in (1, 3, 4, 5):
        stream = prime_stream(e, 200)
        keys = [(P.norm, P.p, P.zeta_image) for P in stream]
        assert keys == sorted(keys)
        assert len(set(keys)) == len(keys)
        # direct re-enumeration oracle
        eprime = normalized_conductor(e)
        expected = []
        for p in primes_up_to(200):
            if eprime > 1 and eprime % p == 0:
                continue
            f = multiplicative_order(p, eprime)
            if p**f <= 200:
                expected.extend([p] * (euler_phi(eprime) // f))
        assert sorted(P.p for P in stream) == sorted(expected)


def test_prime_stream_is_unchanged():
    # every (e, p, f, modulus, zeta image) of these streams, in stream order,
    # as recorded before the stream skipped primality re-tests and constants
    digest = hashlib.sha256()
    count = 0
    for e in (1, 2, 3, 4, 5, 7, 8, 9, 11, 12, 15, 16):
        for P in prime_stream(e, 20000):
            digest.update(repr((P.e, P.p, P.f, P.field.modulus, P.zeta_image)).encode())
            count += 1
    assert count == 27211
    assert digest.hexdigest() == (
        "f27f3c3dabca732297f53ce267b8ec5ccffb55b4abe4148988c710b78b6f2e3b"
    )


def _has_exact_order(field, a, order):
    return field.pow(a, order) == field.one and all(
        field.pow(a, order // r) != field.one
        for r in range(2, order + 1)
        if order % r == 0 and is_prime(r)
    )


def test_root_search_skips_only_constants_that_cannot_succeed():
    # oracle: a plain scan from index 2 over every field F_{p^f}, f >= 2,
    # q <= 2000, and each conductor e' (not 2 mod 4) whose primes above p
    # have that residue field
    checked = 0
    for p in primes_up_to(44):
        f = 2
        while p**f <= 2000:
            field = make_field(p, f)
            for eprime in range(3, field.q):
                if (field.q - 1) % eprime or eprime % 4 == 2:
                    continue
                if multiplicative_order(p, eprime) != f:
                    continue
                cofactor = (field.q - 1) // eprime
                powers = (field.pow(field.element_from_index(i), cofactor)
                          for i in range(2, field.q))
                expected = next(a for a in powers if _has_exact_order(field, a, eprime))
                assert _primitive_root_of_unity(field, eprime) == expected, (p, f, eprime)
                for const in range(2, p):
                    a = field.pow(field.from_int(const), cofactor)
                    assert not _has_exact_order(field, a, eprime), (p, f, eprime, const)
                checked += 1
            f += 1
    assert checked == 226


def test_prime_stream_conductor_two_matches_rationals():
    assert [(P.p, P.norm) for P in prime_stream(2, 50)] == [
        (P.p, P.norm) for P in prime_stream(1, 50)
    ]


def test_reduce_cyclotomic_examples():
    P = primes_above(7, 3)[0]
    assert P.zeta_image == (2,)
    assert reduce_cyclotomic((1, 0), P) == (1,)
    assert reduce_cyclotomic((0, 1), P) == (2,)
    assert reduce_cyclotomic((1, 1), P) == (3,)


def test_reduce_cyclotomic_is_ring_hom():
    for p, e in [(7, 3), (5, 3), (13, 12), (11, 5)]:
        for P in primes_above(p, e):
            a = parse_cyclotomic("1+2z", e)
            b = parse_cyclotomic("3-z", e)
            from perprop.cyclotomic import cyc_add, cyc_mul

            field = P.field
            left = reduce_cyclotomic(cyc_mul(a, b, e), P)
            right = field.mul(reduce_cyclotomic(a, P), reduce_cyclotomic(b, P))
            assert left == right
            left = reduce_cyclotomic(cyc_add(a, b), P)
            right = field.add(reduce_cyclotomic(a, P), reduce_cyclotomic(b, P))
            assert left == right


def test_reduce_cyclotomic_even_conductor():
    # e = 6: zeta_6 must land on an element of order 6
    for P in primes_above(7, 6):
        image = reduce_cyclotomic((0, 1), P)
        field = P.field
        assert field.pow(image, 6) == field.one
        assert field.pow(image, 3) != field.one
        assert field.pow(image, 2) != field.one


def test_element_index_round_trip():
    field = make_field(3, 2)
    for idx in range(field.q):
        assert field.index_of(field.element_from_index(idx)) == idx
