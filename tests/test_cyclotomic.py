import cmath
import hashlib
import math
import random
import time
from fractions import Fraction

import pytest

from perprop.cyclotomic import (
    GUARD_BITS,
    abs_sq_shift,
    cos_sin_2pi,
    cyc_add,
    cyc_int,
    cyc_mul,
    cyc_pow,
    cyclotomic_polynomial,
    embedding_abs_sq_intervals,
    embedding_intervals,
    euler_phi,
    format_cyclotomic,
    parse_cyclotomic,
    pi_fixed,
    reduce_mod_cyclotomic,
    units_mod,
)
from perprop.powermap import _SLOW_BITS

F = Fraction


@pytest.mark.parametrize(
    "n, expected",
    [
        (1, (-1, 1)),
        (2, (1, 1)),
        (3, (1, 1, 1)),
        (4, (1, 0, 1)),
        (6, (1, -1, 1)),
        (12, (1, 0, -1, 0, 1)),
    ],
)
def test_cyclotomic_polynomials(n, expected):
    assert cyclotomic_polynomial(n) == expected


def test_euler_phi_matches_the_product_formula():
    # phi(n) = n * prod (1 - 1/p) over the primes p dividing n, for n <= 10^4
    def product_formula(n):
        result, m, p = n, n, 2
        while m > 1:
            if m % p == 0:
                result -= result // p
                while m % p == 0:
                    m //= p
            p += 1
        return result

    assert [euler_phi(n) for n in range(1, 10_001)] == [
        product_formula(n) for n in range(1, 10_001)]


def test_cyclotomic_polynomials_hash_as_recorded():
    # the hash pins Phi_n for every n <= 300
    polys = [cyclotomic_polynomial(n) for n in range(1, 301)]
    assert hashlib.sha256(repr(polys).encode()).hexdigest() == (
        "07ea613143c53799ac008aa00cda9959dc4456d45579253f142f47aff84be240")


def test_cyclotomic_degree_is_phi():
    for n in range(1, 40):
        assert len(cyclotomic_polynomial(n)) - 1 == euler_phi(n)


def test_product_over_divisors_is_x_n_minus_one():
    # multiply the cyclotomic factors back together for a few n, among them
    # 2310 = 2 3 5 7 11, whose 32 divisors take every branch of the recursion
    for n in (6, 8, 12, 2310):
        acc = [1]
        for d in range(1, n + 1):
            if n % d == 0:
                poly = cyclotomic_polynomial(d)
                out = [0] * (len(acc) + len(poly) - 1)
                for i, a in enumerate(acc):
                    if a:
                        for j, b in enumerate(poly):
                            out[i + j] += a * b
                acc = out
        assert acc == [-1] + [0] * (n - 1) + [1]


def test_zeta_power_relations():
    # zeta_3^3 = 1 and 1 + zeta_3 + zeta_3^2 = 0
    e = 3
    zeta = reduce_mod_cyclotomic([0, 1], e)
    assert cyc_pow(zeta, 3, e) == cyc_int(1, e)
    zsq = cyc_mul(zeta, zeta, e)
    assert cyc_add(cyc_add(cyc_int(1, e), zeta), zsq) == (0, 0)


def test_parse_and_format():
    assert parse_cyclotomic("1+2z", 3) == (1, 2)
    assert parse_cyclotomic("z^2-3", 5) == (-3, 0, 1, 0)
    assert parse_cyclotomic("-z", 4) == (0, -1)
    assert parse_cyclotomic("z^2", 3) == (-1, -1)  # zeta_3^2 = -1 - zeta_3
    assert format_cyclotomic((1, 2)) == "1+2z"
    assert format_cyclotomic((0, -1)) == "-z"
    assert format_cyclotomic((0, 0)) == "0"
    assert parse_cyclotomic(format_cyclotomic((-3, 5)), 3) == (-3, 5)


def test_parse_rejects_garbage():
    # a sign with no term after it is refused, not skipped
    for text in ("z+*", "", "1++2", "1+", "--1", "+-1"):
        with pytest.raises(ValueError):
            parse_cyclotomic(text, 3)


@pytest.mark.parametrize("e", [1, 2, 3, 5, 8, 12])
def test_exponents_are_read_mod_e(e):
    for k in range(3 * e + 1):
        assert parse_cyclotomic(f"z^{k}", e) == parse_cyclotomic(f"z^{k % e}", e), k
    start = time.perf_counter()
    huge = parse_cyclotomic(f"2-z^{10**18}", e)
    assert time.perf_counter() - start < 1
    assert huge == parse_cyclotomic(f"2-z^{10**18 % e}", e)


def test_units_mod():
    assert units_mod(1) == [1]
    assert units_mod(2) == [1]
    assert units_mod(12) == [1, 5, 7, 11]


def test_pi_interval_encloses_pi():
    # pi to 50 decimals lies in (v - u, v + u) / 2^128, u < 2^7
    v, u = pi_fixed(128)
    lo, hi = F(v - u, 2**128), F(v + u, 2**128)
    assert float(lo) <= math.pi <= float(hi)
    assert lo < F("3.14159265358979323846264338327950288419716939937510") < hi
    assert hi - lo < F(1, 2**120)


@pytest.mark.parametrize("j, e", [(0, 3), (1, 3), (2, 3), (1, 5), (3, 8), (7, 12)])
def test_cos_sin_enclosures_match_cmath(j, e):
    scale = 2 ** (64 + GUARD_BITS)
    (clo, chi), (slo, shi) = (
        (F(mid - rad, scale), F(mid + rad, scale)) for mid, rad in cos_sin_2pi(j, e, 64)
    )
    z = cmath.exp(2j * cmath.pi * j / e)
    assert float(clo) - 1e-12 <= z.real <= float(chi) + 1e-12
    assert float(slo) - 1e-12 <= z.imag <= float(shi) + 1e-12
    assert chi - clo < F(1, 2**48)


def test_cos_sin_enclosures_are_symmetric_and_at_least_four_wide():
    # each enclosure is (midpoint, radius), so symmetric, and the radius check
    # rules out "inside" from radii of at least 2 (e > 1)
    for e in range(2, 13):
        for j in range(e):
            for bits in _SLOW_BITS:
                for _, rad in cos_sin_2pi(j, e, bits):
                    assert rad >= 2, (j, e, bits)


def _four_product_boxes(a, e, bits):
    """Reference: every box endpoint summed from the cos/sin endpoints
    mid +- rad, swapped for negative coefficients, as before the
    midpoint-radius sums."""
    unit = 1 << (bits + GUARD_BITS)
    out = []
    for m in units_mod(e):
        re_lo = re_hi = im_lo = im_hi = 0
        for i, c in enumerate(a):
            if c == 0:
                continue
            (cos, cos_rad), (sin, sin_rad) = (
                cos_sin_2pi(m * i % e, e, bits) if e > 1 else ((unit, 0), (0, 0))
            )
            cos_lo, cos_hi = cos - cos_rad, cos + cos_rad
            sin_lo, sin_hi = sin - sin_rad, sin + sin_rad
            if c < 0:
                cos_lo, cos_hi, sin_lo, sin_hi = cos_hi, cos_lo, sin_hi, sin_lo
            re_lo += c * cos_lo
            re_hi += c * cos_hi
            im_lo += c * sin_lo
            im_hi += c * sin_hi
        out.append((re_lo, re_hi, im_lo, im_hi))
    return out


def test_midpoint_boxes_equal_four_product_boxes():
    # seeded coefficients of up to 50,000 bits, zeros and signs mixed, for
    # every conductor 1..12 at every rung of the radius check; each box is
    # compared through its endpoints mid +- rad
    rng = random.Random(22)
    for e in range(1, 13):
        for top in (2, 64, 3000, 50_000):
            a = tuple(rng.choice((-1, 0, 1)) * rng.getrandbits(rng.randint(1, top))
                      for _ in range(euler_phi(e)))
            for bits in _SLOW_BITS:
                boxes = [(re - re_rad, re + re_rad, im - im_rad, im + im_rad)
                         for re, re_rad, im, im_rad in embedding_intervals(a, e, bits)]
                assert boxes == _four_product_boxes(a, e, bits)


def _embedding_abs(a, e, m):
    """|sigma_m(a)| in complex doubles, the reference for the enclosures."""
    return abs(sum(c * cmath.exp(2j * cmath.pi * m * k / e) for k, c in enumerate(a)))


def test_embedding_intervals_contain_float_values():
    e = 5
    a = parse_cyclotomic("1+2z+z^3", e)
    values = [_embedding_abs(a, e, m) for m in units_mod(e)]
    den = 2 ** abs_sq_shift(64)
    enclosures = [(F(lo, den), F(hi, den)) for lo, hi in embedding_abs_sq_intervals(a, e, 64)]
    assert len(values) == len(enclosures)
    for v, (lo, hi) in zip(values, enclosures):
        assert float(lo) - 1e-9 <= v * v <= float(hi) + 1e-9
        assert hi - lo < F(1, 2**40)


def test_embedding_of_rational_integer():
    # all embeddings of a plain integer share its absolute value
    e = 5
    a = cyc_int(-7, e)
    for m in units_mod(e):
        assert abs(_embedding_abs(a, e, m) - 7.0) <= 1e-12
    for lo, hi in embedding_abs_sq_intervals(a, e, 64):
        assert lo <= 49 << abs_sq_shift(64) <= hi


@pytest.mark.parametrize("e", [1, 3, 4, 5, 7, 8, 12])
def test_cyc_pow_matches_repeated_multiplication(e):
    rng = random.Random(e)
    phi = euler_phi(e)
    elements = [(0,) * phi, cyc_int(1, e), cyc_int(-1, e)]
    elements += [tuple(rng.randint(-3, 3) for _ in range(phi)) for _ in range(4)]
    for a in elements:
        expected = cyc_int(1, e)
        for k in range(41):
            assert cyc_pow(a, k, e) == expected
            expected = cyc_mul(expected, a, e)
