"""Exact arithmetic in rings of cyclotomic integers.

Elements of Z[zeta_e] are integer coefficient tuples of length phi(e) in the
power basis 1, zeta, ..., zeta^(phi(e)-1), reduced modulo the e-th cyclotomic
polynomial.  Text form uses the letter z for zeta, e.g. "1+2z" or "z^2-3".
The module also holds the package's one integer-polynomial product and
monic long division; the residue fields reduce their results mod p.

Complex embeddings (zeta -> exp(2*pi*i*m/e) for units m mod e) are given
only as dyadic integer enclosures of their real and imaginary parts and of
|value|^2 (integer numerators over a power of two), one embedding at a time,
summed in midpoint-radius form from cos/sin enclosures symmetric about their
midpoints: Taylor series with certified remainders (pi itself enclosed via
Machin's formula).  They are the one path on which the critical-orbit radius
test is decided; no floating point is involved.
"""

from __future__ import annotations

import re
from fractions import Fraction
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
    """Integer coefficients of the n-th cyclotomic polynomial, constant first."""
    if n < 1:
        raise ValueError("n must be >= 1")
    num = [-1] + [0] * (n - 1) + [1]
    for d in range(1, n):
        if n % d == 0:
            num, rem = poly_divmod(num, cyclotomic_polynomial(d))
            if any(rem):
                raise ArithmeticError("inexact polynomial division")
    return tuple(num)


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
    parts = []
    for i, c in enumerate(a):
        if c == 0:
            continue
        if i == 0:
            parts.append(f"{c:+d}")
        else:
            z = "z" if i == 1 else f"z^{i}"
            if c == 1:
                parts.append(f"+{z}")
            elif c == -1:
                parts.append(f"-{z}")
            else:
                parts.append(f"{c:+d}{z}")
    if not parts:
        return "0"
    out = "".join(parts)
    return out[1:] if out.startswith("+") else out


# -- dyadic integer enclosures -----------------------------------------------

# cos/sin are carried to bits + GUARD_BITS fractional bits
GUARD_BITS = 40


def _isquare(lo: int, hi: int) -> tuple[int, int]:
    if lo >= 0:
        return lo * lo, hi * hi
    if hi <= 0:
        return hi * hi, lo * lo
    return 0, max(-lo, hi) ** 2


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
def pi_interval(bits: int) -> tuple[Fraction, Fraction]:
    """Rational enclosure of pi via Machin's formula, in fixed point."""
    prec = bits + 10
    a, ea = _atan_inv_fixed(5, prec)
    b, eb = _atan_inv_fixed(239, prec)
    value = 16 * a - 4 * b
    err = 16 * ea + 4 * eb
    return (Fraction(value - err, 1 << prec), Fraction(value + err, 1 << prec))


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
    (lo, hi) over 2^(bits + GUARD_BITS).

    Both are symmetric about their midpoint, with half-width at least 2.
    Taylor series in integer fixed point (value plus error-unit bookkeeping);
    the tail is bounded by twice the next term once the term ratio drops
    below one half.  Pure integer arithmetic keeps high precisions cheap.
    """
    j %= e
    prec = bits + GUARD_BITS
    scale = 1 << prec
    pi_lo, pi_hi = pi_interval(prec)
    pi_v = (pi_lo.numerator << prec) // pi_lo.denominator
    pi_u = ((pi_hi - pi_lo).numerator << prec) // (pi_hi - pi_lo).denominator + 2
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
    c_err = cos_u + 2 * c_next
    s_err = sin_u + 2 * s_next
    return (cos_v - c_err, cos_v + c_err), (sin_v - s_err, sin_v + s_err)


def abs_sq_shift(bits: int) -> int:
    """The enclosures of embedding_abs_sq_intervals are over 2^abs_sq_shift(bits)."""
    return 2 * (bits + GUARD_BITS)


def embedding_intervals(a, e: int, bits: int):
    """Yield the enclosure (re_lo, re_hi, im_lo, im_hi) of sigma_m(a), one
    unit m mod e at a time, as integer numerators over 2^(bits + GUARD_BITS).
    Each is summed in midpoint-radius form, sum c_i mid_i +- sum |c_i| rad_i,
    from the symmetric cos/sin enclosures: one large product per term."""
    unit = 1 << (bits + GUARD_BITS)
    for m in units_mod(e):
        re_mid = re_rad = im_mid = im_rad = 0
        for i, c in enumerate(a):
            if c == 0:
                continue
            (cos_lo, cos_hi), (sin_lo, sin_hi) = (
                cos_sin_2pi(m * i % e, e, bits) if e > 1 else ((unit, unit), (0, 0))
            )
            re_mid += c * (cos_lo + cos_hi >> 1)
            re_rad += abs(c) * (cos_hi - cos_lo >> 1)
            im_mid += c * (sin_lo + sin_hi >> 1)
            im_rad += abs(c) * (sin_hi - sin_lo >> 1)
        yield re_mid - re_rad, re_mid + re_rad, im_mid - im_rad, im_mid + im_rad


def embedding_abs_sq_intervals(a, e: int, bits: int) -> list[tuple[int, int]]:
    """Enclosures of |sigma_m(a)|^2 for all units m mod e, as integer
    numerators (lo, hi) over 2^abs_sq_shift(bits)."""
    out = []
    for re_lo, re_hi, im_lo, im_hi in embedding_intervals(a, e, bits):
        re_sq, im_sq = _isquare(re_lo, re_hi), _isquare(im_lo, im_hi)
        out.append((re_sq[0] + im_sq[0], re_sq[1] + im_sq[1]))
    return out
