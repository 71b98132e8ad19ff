"""Exact-rational measurement of rounding error, in units of u = 2**-p.

Every error ulplab returns is a plain, non-negative ``fractions.Fraction``
in ulps, in lowest terms.  ``relative_error`` forms it in integer
arithmetic and reduces it without a gcd of two big operands (see its
docstring).  Nothing is ever rounded except the final decimal rendering,
``to_decimal``, which truncates toward zero so printed digits are always a
correct prefix of the exact value; it and the reports print integers with
``_int_str``, which needs no change to Python's int<->str digit limit.
"""

from __future__ import annotations

import decimal
import math
import sys
from fractions import Fraction

from .softfloat import FpNumber, _coprime_fraction, _trailing_zeros

__all__ = ["relative_error", "to_decimal"]


def relative_error(
    computed: FpNumber, exact: Fraction | int, shift: int = 0
) -> Fraction:
    """|computed - E| / (|E| * 2**-p) for E = exact * 2**shift, exactly.

    ``p`` is the precision carried by ``computed``.  A long product passes
    its exact value as an integer and a shift, so no big ``Fraction`` is
    ever built.  With computed = C * 2**t and exact = N/D in lowest terms,
    the error is |C*D*2**a - N*2**b| * 2**p / (|N| * 2**b) for a, b >= 0
    with a - b = t - shift.  Modulo N's odd part the difference is
    C*D*2**a, and D is prime to N, so the odd part of the gcd is that of
    C and N: one remainder by the p-bit C.  The power of two comes from
    trailing-zero counts.
    """
    N, D = exact.numerator, exact.denominator
    if N == 0:
        raise ValueError("relative error against a zero exact value is undefined")
    p = computed.precision
    if computed.is_zero:
        return Fraction(1 << p)
    C = computed.sign * computed.significand
    a = computed.exponent - p + 1 - shift
    b = max(-a, 0)
    diff = abs((C * D << max(a, 0)) - (N << b))
    if not diff:
        return Fraction(0)
    N = abs(N)
    twos = min(_trailing_zeros(diff) + p, _trailing_zeros(N) + b)
    C_odd = abs(C) >> _trailing_zeros(C)
    N_odd = N >> _trailing_zeros(N)
    odd = math.gcd(C_odd, N_odd % C_odd)
    num = (diff << p >> twos) // odd
    den = (N << b >> twos) // odd
    return _coprime_fraction(num, den)


def to_decimal(value: Fraction, digits: int = 9) -> str:
    """Decimal expansion with ``digits`` fractional digits, truncated toward zero.

    Truncation (rather than rounding) keeps the output a prefix of the
    exact expansion: ``to_decimal(v, d)`` and ``to_decimal(v, d+1)`` agree
    on their first ``d`` digits.
    """
    if digits < 1:
        raise ValueError("digits must be >= 1")
    value = Fraction(value)
    sign = "-" if value < 0 else ""
    num, den = abs(value.numerator), value.denominator
    whole, rem = divmod(num, den)
    frac = _int_str(rem * 10**digits // den).zfill(digits)
    return f"{sign}{_int_str(whole)}.{frac}"


# Exact integer arithmetic in ``decimal``: no digit is ever dropped, and a
# result that would need rounding raises Inexact.  Callers compute through
# its methods, so the thread's current decimal context is never read or
# changed; nothing assigns to it.
_EXACT = decimal.Context(
    prec=decimal.MAX_PREC, Emax=decimal.MAX_EMAX, traps=[decimal.Inexact]
)

# Above this many bits, str() of an int (quadratic in CPython 3.11) loses to
# the divide-and-conquer conversion of _int_str.
_STR_DC_BITS = 40_000


def _int_str(n: int) -> str:
    """``str(n)``, in time near-linear in n's length for big n, under any
    int<->str digit limit.

    ``str()`` serves n below ``_STR_DC_BITS`` that the current limit admits
    (a b-bit integer has fewer than 0.302 * b + 1 digits).  Any other n is
    split at a power of two into high and low halves, both converted
    recursively to ``Decimal`` and recombined as hi * 2**w + lo in
    ``_EXACT`` (whose multiplication is subquadratic); the method of
    CPython 3.12's ``_pylong``.  Neither ``Decimal(int)`` nor
    ``str(Decimal)`` is subject to the limit.
    """
    bits = n.bit_length()
    limit = sys.get_int_max_str_digits()
    if bits <= _STR_DC_BITS and (not limit or bits <= 3 * limit):
        return str(n)
    powers = {}

    def pow2(w: int) -> decimal.Decimal:
        if w not in powers:
            if w <= 512:
                powers[w] = _EXACT.power(2, w)
            else:
                powers[w] = _EXACT.multiply(pow2(w // 2), pow2(w - w // 2))
        return powers[w]

    def convert(m: int, w: int) -> decimal.Decimal:
        # m >= 0 has at most w bits
        if w <= 512:
            return decimal.Decimal(m)
        half = w // 2
        hi = m >> half
        lo = convert(m - (hi << half), half)
        return _EXACT.add(_EXACT.multiply(convert(hi, w - half), pow2(half)), lo)

    text = str(convert(abs(n), bits))
    return "-" + text if n < 0 else text
