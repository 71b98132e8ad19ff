"""Exact-rational measurement of rounding error, in units of u = 2**-p.

Every error ulplab returns is a plain, non-negative ``fractions.Fraction``
in ulps, in lowest terms.  ``relative_error`` forms it in integer
arithmetic and reduces it without a gcd of two big operands (see its
docstring).  Nothing is ever rounded except the final decimal rendering,
``to_decimal``, which truncates toward zero so printed digits are always a
correct prefix of the exact value; it and the reports print integers with
``_int_str``, which needs no change to Python's int<->str digit limit, and
``spot``'s error fractions come from ``_spot_fractions``, which forms them
in exact ``decimal`` arithmetic from values carried from row to row.
"""

from __future__ import annotations

import decimal
import math
import sys
from collections.abc import Iterable, Iterator
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


# Rows of _spot_fractions whose denominator has at most this many bits are
# written by _int_str: below it, str() costs less than starting the running
# decimals.
_SPOT_DECIMAL_BITS = 3_000


def _spot_fractions(
    p: int, X: int, ns: range, errors: Iterable[Fraction]
) -> Iterator[str]:
    """The text ``"num/den"`` of each of ``errors``, which are
    ``spot_error(x, n)`` for the n of ``ns`` in order, x having precision p
    and significand X = X_odd * 2**t.

    Scaled to an integer and divided by 2**(t*n), the computed x**n is M =
    M_odd * 2**d.  Each of its n-1 steps rounds the one before times X_odd
    to p bits, which keeps that multiple of 2**d or moves it onto a grid at
    least as coarse, so M is an integer and d never falls from one n to the
    next.  With P = X_odd**n, which is odd, ``spot_error`` is |M - P| * 2**p
    / P in lowest terms: for odd = gcd(M, P) = P // den, den = P / odd and
    num = |M - P| * 2**p / odd.  So for q = num * odd / 2**p, M is the one
    of P +- q with at most p significant bits.  Both have at most p only
    where P has p+1 bits and its rounding tied; there P + q, taken unless it
    has more, gives the same |M - P| and no larger d than M, so the d taken
    never falls either.

    P and 2**d are kept as exact ``decimal`` integers, and each row
    multiplies them by X_odd and a small power of two, so a row costs time
    linear in its length, where ``str()`` of num and den is quadratic.  They
    start at the first row whose den passes ``_SPOT_DECIMAL_BITS``, and the
    rows before are written by ``_int_str``.  The thread's decimal context
    is never touched.
    """
    P_dec = None  # X_odd**n in decimal, once the running values start
    for n, err in zip(ns, errors):
        num, den = err.numerator, err.denominator
        if P_dec is None:
            if den.bit_length() <= _SPOT_DECIMAL_BITS:
                yield _int_str(num) + "/" + _int_str(den)
                continue
            X_odd = X >> _trailing_zeros(X)
            P, P_dec = X_odd**n, _EXACT.power(X_odd, n)
            two_d, d, two_p = decimal.Decimal(1), 0, _EXACT.power(2, p)
        else:
            P, P_dec = P * X_odd, _EXACT.multiply(P_dec, X_odd)
        odd = P // den
        q = num * odd >> p
        M = P + q
        if (M >> _trailing_zeros(M)).bit_length() > p:
            M = P - q
        shift = _trailing_zeros(M)
        two_d, d = _EXACT.multiply(two_d, _EXACT.power(2, shift - d)), shift
        diff = _EXACT.subtract(_EXACT.multiply(two_d, M >> d), P_dec)
        num_dec = _EXACT.divide_int(_EXACT.multiply(_EXACT.abs(diff), two_p), odd)
        yield str(num_dec) + "/" + str(_EXACT.divide_int(P_dec, odd))
