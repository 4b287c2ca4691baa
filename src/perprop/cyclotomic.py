"""Exact arithmetic in rings of cyclotomic integers.

Elements of Z[zeta_e] are integer coefficient tuples of length phi(e) in the
power basis 1, zeta, ..., zeta^(phi(e)-1), reduced modulo the e-th cyclotomic
polynomial.  Text form uses the letter z for zeta, e.g. "1+2z" or "z^2-3".
The module also holds the package's one integer-polynomial product and
monic long division; the residue fields reduce their results mod p.

Complex embeddings (zeta -> exp(2*pi*i*m/e) for units m mod e) are given
only as dyadic integer enclosures (integer numerators over a power of two),
one embedding at a time, each a (midpoint, radius) pair: pi by Machin's
formula, cos/sin by Taylor series with certified remainders, and each box
summed from those; only |value|^2 is an interval (lo, hi), read off a box.
They are the one path on which the critical-orbit radius test is decided;
no floating point is involved.
"""

from __future__ import annotations

import re
from functools import lru_cache
from math import gcd


def units_mod(e: int) -> list[int]:
    return [m for m in range(1, e + 1) if gcd(m, e) == 1]


@lru_cache(maxsize=None)
def euler_phi(n: int) -> int:
    return len(units_mod(n))


def poly_divmod(num, den) -> tuple[list[int], list[int]]:
    """Quotient and remainder of integer polynomials (coefficient sequences,
    constant first) by a monic divisor; the remainder has length deg(den)."""
    k = len(den) - 1
    rem = list(num) + [0] * (k - len(num))
    quot = [0] * (len(rem) - k)
    for i in range(len(rem) - 1, k - 1, -1):
        q = rem[i]
        if q:
            quot[i - k] = q
            for j, c in enumerate(den):
                rem[i - k + j] -= q * c
    return quot, rem[:k]


def poly_mulmod(a, b, mod) -> list[int]:
    """Remainder of the integer polynomial product a*b by the monic mod; a
    square (b is a) takes n(n+1)/2 coefficient products, not n^2."""
    conv = [0] * (len(a) + len(b) - 1)
    if a is b:
        for i, x in enumerate(a):
            if x:
                conv[2 * i] += x * x
                x2 = 2 * x
                for j in range(i + 1, len(a)):
                    conv[i + j] += x2 * a[j]
    else:
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b):
                    conv[i + j] += x * y
    return poly_divmod(conv, mod)[1]


@lru_cache(maxsize=None)
def cyclotomic_polynomial(n: int) -> tuple[int, ...]:
    """Integer coefficients of the n-th cyclotomic polynomial, constant first:
    with p the largest prime factor of n = m p, Phi_n(x) is Phi_m(x^p) when p
    divides m, and Phi_m(x^p) / Phi_m(x) otherwise."""
    if n < 1:
        raise ValueError("n must be >= 1")
    p, k = n, 2
    while k * k <= p:  # trial division leaves the largest prime factor (1 for n = 1)
        if p % k:
            k += 1
        else:
            p //= k
    if p == 1:
        return (-1, 1)
    low = cyclotomic_polynomial(n // p)
    spread = [0] * (p * (len(low) - 1) + 1)
    spread[::p] = low
    if (n // p) % p == 0:
        return tuple(spread)
    quot, rem = poly_divmod(spread, low)
    if any(rem):
        raise ArithmeticError("inexact polynomial division")
    return tuple(quot)


def reduce_mod_cyclotomic(coeffs, e: int) -> tuple[int, ...]:
    """Remainder of an integer polynomial in zeta_e modulo the e-th cyclotomic
    polynomial, padded to length phi(e)."""
    return tuple(poly_divmod(coeffs, cyclotomic_polynomial(e))[1])


def cyc_zero(e: int) -> tuple[int, ...]:
    return (0,) * euler_phi(e)


def cyc_int(k: int, e: int) -> tuple[int, ...]:
    return (k,) + (0,) * (euler_phi(e) - 1)


def cyc_add(a, b) -> tuple[int, ...]:
    return tuple(x + y for x, y in zip(a, b))


def cyc_mul(a, b, e: int) -> tuple[int, ...]:
    return tuple(poly_mulmod(a, b, cyclotomic_polynomial(e)))


def power(x, k: int, mul, one):
    """x^k by square-and-multiply with the product mul: no product with one
    and no squaring after the top bit of k; one is returned for k = 0."""
    result = None
    while k:
        if k & 1:
            result = x if result is None else mul(result, x)
        k >>= 1
        if k:
            x = mul(x, x)
    return one if result is None else result


def cyc_pow(a, k: int, e: int) -> tuple[int, ...]:
    return power(tuple(a), k, lambda x, y: cyc_mul(x, y, e), cyc_int(1, e))


def parse_cyclotomic(text: str, e: int) -> tuple[int, ...]:
    """Parse integer polynomials in z (= zeta_e), e.g. "1+2z" or "-z^2+3";
    a sign with no term after it is refused, and z^k is read as z^(k mod e)."""
    s = text.replace(" ", "")
    if not s:
        raise ValueError("empty cyclotomic literal")
    terms = re.findall(r"[+-]?[^+-]+", s)
    if "".join(terms) != s:
        raise ValueError(f"stray sign in cyclotomic literal {text!r}")
    coeffs: dict[int, int] = {}
    for term in terms:
        m = re.fullmatch(r"([+-]?)(\d*)(?:(z)(?:\^(\d+))?)?", term)
        if not m or (not m.group(2) and not m.group(3)):
            raise ValueError(f"bad term {term!r} in cyclotomic literal {text!r}")
        sign = -1 if m.group(1) == "-" else 1
        coef = int(m.group(2)) if m.group(2) else 1
        k = 0 if not m.group(3) else (int(m.group(4)) if m.group(4) else 1) % e
        coeffs[k] = coeffs.get(k, 0) + sign * coef
    top = max(coeffs)
    vec = [coeffs.get(i, 0) for i in range(top + 1)]
    return reduce_mod_cyclotomic(vec, e)


def format_cyclotomic(a) -> str:
    terms = []
    for i, c in enumerate(a):
        if c:
            z = "" if i == 0 else "z" if i == 1 else f"z^{i}"
            sign = "+" if c > 0 else "-"
            terms.append((sign if z and abs(c) == 1 else f"{c:+d}") + z)
    return "".join(terms).removeprefix("+") or "0"


# -- dyadic integer enclosures -----------------------------------------------

# cos/sin are carried to bits + GUARD_BITS fractional bits
GUARD_BITS = 40


def _atan_inv_fixed(x: int, prec: int) -> tuple[int, int]:
    # arctan(1/x) * 2^prec by the power series in integer fixed point;
    # returns (scaled value, error bound in units of 2^-prec)
    power = (1 << prec) // x
    xx = x * x
    total = 0
    k = 0
    while power > 0:
        term = power // (2 * k + 1)
        total += -term if k & 1 else term
        power //= xx
        k += 1
    return total, 4 * k + 4


@lru_cache(maxsize=None)
def pi_fixed(prec: int) -> tuple[int, int]:
    """(v, u) with |pi 2^prec - v| <= u, via Machin's formula in fixed point
    at prec + 10 bits."""
    a, ea = _atan_inv_fixed(5, prec + 10)
    b, eb = _atan_inv_fixed(239, prec + 10)
    value, err = 16 * a - 4 * b, 16 * ea + 4 * eb
    return (value - err) >> 10, (2 * err >> 10) + 2


def _fx_mul(a: tuple[int, int], b: tuple[int, int], prec: int) -> tuple[int, int]:
    # fixed-point product with error units: value in [(v-u), (v+u)] / 2^prec
    va, ua = a
    vb, ub = b
    v = va * vb >> prec
    u = (abs(va) * ub + abs(vb) * ua + ua * ub >> prec) + 2
    return v, u


@lru_cache(maxsize=None)
def cos_sin_2pi(j: int, e: int, bits: int) -> tuple[tuple[int, int], tuple[int, int]]:
    """Enclosures of cos(2*pi*j/e) and sin(2*pi*j/e), as integer numerators
    (midpoint, radius) over 2^(bits + GUARD_BITS); each radius is at least 2.

    Taylor series in integer fixed point (value plus error-unit bookkeeping);
    the tail is bounded by twice the next term once the term ratio drops
    below one half.  Pure integer arithmetic keeps high precisions cheap.
    """
    j %= e
    prec = bits + GUARD_BITS
    scale = 1 << prec
    pi_v, pi_u = pi_fixed(prec)
    x = ((2 * j) * pi_v // e, (2 * j) * pi_u // e + 2)
    x2 = _fx_mul(x, x, prec)
    x2_hi = x2[0] + x2[1]
    cos_v, cos_u = scale, 0
    sin_v, sin_u = x
    ct: tuple[int, int] = (scale, 0)  # running magnitude of the cos term
    st: tuple[int, int] = x
    sign = 1
    k = 0
    limit = 1 << 24  # error-unit sanity cap
    while True:
        k += 1
        sign = -sign
        ct = _fx_mul(ct, x2, prec)
        ct = (ct[0] // ((2 * k - 1) * (2 * k)), ct[1] // ((2 * k - 1) * (2 * k)) + 2)
        cos_v += sign * ct[0]
        cos_u += ct[1]
        st = _fx_mul(st, x2, prec)
        st = (st[0] // ((2 * k) * (2 * k + 1)), st[1] // ((2 * k) * (2 * k + 1)) + 2)
        sin_v += sign * st[0]
        sin_u += st[1]
        c_next = ((abs(ct[0]) + ct[1]) * x2_hi >> prec) // ((2 * k + 1) * (2 * k + 2)) + 1
        s_next = ((abs(st[0]) + st[1]) * x2_hi >> prec) // ((2 * k + 2) * (2 * k + 3)) + 1
        if (2 * k + 1) * (2 * k + 2) * scale >= 2 * x2_hi and max(c_next, s_next) <= (
            1 << 30
        ):
            break
    if max(cos_u, sin_u) > limit:
        raise ArithmeticError("error units exceeded the sanity cap")
    return (cos_v, cos_u + 2 * c_next), (sin_v, sin_u + 2 * s_next)


def abs_sq_shift(bits: int) -> int:
    """The enclosures of embedding_abs_sq_intervals are over 2^abs_sq_shift(bits)."""
    return 2 * (bits + GUARD_BITS)


def embedding_intervals(a, e: int, bits: int):
    """Yield the box (re, re_rad, im, im_rad) of sigma_m(a), one unit m mod e
    at a time: its real part is within re_rad of re, its imaginary part within
    im_rad of im, all integer numerators over 2^(bits + GUARD_BITS).  Each is
    summed as sum c_i mid_i +- sum |c_i| rad_i from the cos/sin enclosures,
    over the nonzero c_i only: one large product per term."""
    one = ((1 << (bits + GUARD_BITS), 0), (0, 0))  # the e = 1 embedding, exact
    terms = [(i, c, abs(c)) for i, c in enumerate(a) if c]
    for m in units_mod(e):
        re = re_rad = im = im_rad = 0
        for i, c, size in terms:
            (cos, cos_rad), (sin, sin_rad) = cos_sin_2pi(m * i % e, e, bits) if e > 1 else one
            re += c * cos
            re_rad += size * cos_rad
            im += c * sin
            im_rad += size * sin_rad
        yield re, re_rad, im, im_rad


def embedding_abs_sq_intervals(a, e: int, bits: int) -> list[tuple[int, int]]:
    """Enclosures of |sigma_m(a)|^2 for all units m mod e, as integer
    numerators (lo, hi) over 2^abs_sq_shift(bits).  Over a box, |Re| is at
    least max(|re| - re_rad, 0) and at most |re| + re_rad; so is |Im|."""
    out = []
    for re, re_rad, im, im_rad in embedding_intervals(a, e, bits):
        x_lo, y_lo = max(abs(re) - re_rad, 0), max(abs(im) - im_rad, 0)
        x_hi, y_hi = abs(re) + re_rad, abs(im) + im_rad
        out.append((x_lo * x_lo + y_lo * y_lo, x_hi * x_hi + y_hi * y_hi))
    return out
