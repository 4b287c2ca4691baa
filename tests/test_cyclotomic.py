import cmath
import math
from fractions import Fraction

import pytest

from perprop.cyclotomic import (
    cos_sin_2pi,
    cyc_add,
    cyc_int,
    cyc_mul,
    cyc_pow,
    cyclotomic_polynomial,
    embedding_abs_floats,
    embedding_abs_sq_intervals,
    euler_phi,
    format_cyclotomic,
    parse_cyclotomic,
    pi_interval,
    reduce_mod_cyclotomic,
    units_mod,
)

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


def test_cyclotomic_degree_is_phi():
    for n in range(1, 40):
        assert len(cyclotomic_polynomial(n)) - 1 == euler_phi(n)


def test_product_over_divisors_is_x_n_minus_one():
    # multiply the cyclotomic factors back together for a few n
    for n in (6, 8, 12):
        acc = [1]
        for d in range(1, n + 1):
            if n % d == 0:
                poly = cyclotomic_polynomial(d)
                out = [0] * (len(acc) + len(poly) - 1)
                for i, a in enumerate(acc):
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
    with pytest.raises(ValueError):
        parse_cyclotomic("z+*", 3)
    with pytest.raises(ValueError):
        parse_cyclotomic("", 3)


def test_units_mod():
    assert units_mod(1) == [1]
    assert units_mod(2) == [1]
    assert units_mod(12) == [1, 5, 7, 11]


def test_pi_interval_encloses_pi():
    lo, hi = pi_interval(128)
    assert float(lo) <= math.pi <= float(hi)
    assert hi - lo < F(1, 2**120)


@pytest.mark.parametrize("j, e", [(0, 3), (1, 3), (2, 3), (1, 5), (3, 8), (7, 12)])
def test_cos_sin_enclosures_match_cmath(j, e):
    (clo, chi), (slo, shi) = cos_sin_2pi(j, e, 64)
    z = cmath.exp(2j * cmath.pi * j / e)
    assert float(clo) - 1e-12 <= z.real <= float(chi) + 1e-12
    assert float(slo) - 1e-12 <= z.imag <= float(shi) + 1e-12
    assert chi - clo < F(1, 2**48)


def test_embedding_floats_match_cmath():
    e = 7
    a = parse_cyclotomic("2+z-3z^4", e)
    values, err = embedding_abs_floats(a, e)
    assert err < 1e-8
    for m, got in zip(units_mod(e), values):
        direct = abs(
            sum(c * cmath.exp(2j * cmath.pi * m * k / e) for k, c in enumerate(a))
        )
        assert abs(got - direct) < 1e-9


def test_embedding_intervals_contain_float_values():
    e = 5
    a = parse_cyclotomic("1+2z+z^3", e)
    values, _ = embedding_abs_floats(a, e)
    enclosures = embedding_abs_sq_intervals(a, e, 64)
    assert len(values) == len(enclosures)
    for v, (lo, hi) in zip(values, enclosures):
        assert float(lo) - 1e-9 <= v * v <= float(hi) + 1e-9
        assert hi - lo < F(1, 2**40)


def test_embedding_of_rational_integer():
    # all embeddings of a plain integer share its absolute value
    e = 5
    a = cyc_int(-7, e)
    values, err = embedding_abs_floats(a, e)
    for v in values:
        assert abs(v - 7.0) <= err + 1e-12
    for lo, hi in embedding_abs_sq_intervals(a, e, 64):
        assert lo <= 49 <= hi
