"""Precision-p binary floating-point values with an unbounded exponent range.

A nonzero value is ``sign * X * 2**(e - p + 1)`` where the integral
significand ``X`` satisfies ``2**(p-1) <= X <= 2**p - 1``.  Only the two
round-to-nearest modes and multiplication are provided: that is all the
iterated-product error measurements need, and keeping the surface small
means every code path is exercised by the exact-rational cross-checks.

The public constructor validates every field.  ``fp_mul`` and
``round_nearest`` build results that are normalised by construction, so
they skip the validation.  Exponents are integers of any size, as the
model has no overflow or underflow; ``to_fraction`` builds an integer of
about |e| bits, so it is for moderate exponents.
"""

from __future__ import annotations

from collections import namedtuple
from enum import Enum
from fractions import Fraction

__all__ = [
    "FpNumber",
    "RoundingMode",
    "fp_mul",
    "round_nearest",
]


class RoundingMode(Enum):
    """Tie-breaking rule for round-to-nearest."""

    TIES_EVEN = "even"  # on a tie, pick the even integral significand
    TIES_AWAY = "away"  # on a tie, pick the larger magnitude


def _trailing_zeros(n: int) -> int:
    """The exponent of the largest power of two dividing ``n != 0``."""
    return (n & -n).bit_length() - 1


def _coprime_fraction(num: int, den: int) -> Fraction:
    """``Fraction(num, den)`` for coprime ``num`` and ``den > 0``, without
    the gcd that the constructor spends on re-reducing them."""
    f = object.__new__(Fraction)
    f._numerator, f._denominator = num, den
    return f


def _check_precision(p: int) -> None:
    if not isinstance(p, int) or p < 2:
        raise ValueError(f"precision must be an integer >= 2, got {p!r}")


def _check_integer(n: int) -> None:
    # a bool is an int to isinstance, but True is no chain length
    if not isinstance(n, int) or isinstance(n, bool):
        raise ValueError(f"n must be an integer, got {n!r}")


def _check_length(n: int, least: int) -> None:
    _check_integer(n)
    if n < least:
        raise ValueError(f"n must be >= {least}, got {n}")


def _check_mode(mode: RoundingMode) -> None:
    if not isinstance(mode, RoundingMode):
        raise ValueError(f"mode must be a RoundingMode, got {mode!r}")


class FpNumber(namedtuple("FpNumber", "sign significand exponent precision")):
    """An immutable precision-p floating-point value: sign, the integral
    significand X (zero, or 2**(p-1) <= X <= 2**p - 1), exponent e and
    precision p.  Zero has the single canonical representation
    ``FpNumber(1, 0, 0, p)``."""

    __slots__ = ()

    def __new__(cls, sign: int, significand: int, exponent: int, precision: int):
        _check_precision(precision)
        if not type(sign) is type(significand) is type(exponent) is int:
            types = ", ".join(type(f).__name__ for f in (sign, significand, exponent))
            raise ValueError(f"sign, significand and exponent must be int, got {types}")
        if sign not in (1, -1):
            raise ValueError(f"sign must be +1 or -1, got {sign!r}")
        X = significand
        if X == 0:
            if sign != 1 or exponent != 0:
                raise ValueError("zero must be represented as (sign=+1, X=0, e=0)")
        elif not (1 << (precision - 1)) <= X <= (1 << precision) - 1:
            raise ValueError(f"significand {X} not normalised for precision {precision}")
        return tuple.__new__(cls, (sign, significand, exponent, precision))

    @classmethod
    def _make(cls, fields) -> "FpNumber":
        """Validating, so that ``_replace`` validates too."""
        return cls(*fields)

    # Not a sequence: tuple ordering, + and * give way to TypeError.
    __lt__ = __le__ = __gt__ = __ge__ = __add__ = __mul__ = __rmul__ = (
        lambda self, other: NotImplemented
    )

    @property
    def is_zero(self) -> bool:
        return self.significand == 0

    def to_fraction(self) -> Fraction:
        """Exact value ``sign * X * 2**(e - p + 1)``, in lowest terms: X's
        trailing zero bits cancel against the power-of-two denominator, so
        no gcd is taken."""
        X, s = self.significand, self.exponent - self.precision + 1
        if s >= 0 or not X:
            return _coprime_fraction(self.sign * (X << max(s, 0)), 1)
        t = min(_trailing_zeros(X), -s)
        return _coprime_fraction(self.sign * (X >> t), 1 << -s - t)

    @staticmethod
    def zero(p: int) -> "FpNumber":
        return FpNumber(1, 0, 0, p)


def _binade(num: int, den: int) -> int:
    """Largest e with 2**e <= num/den, for positive num/den, exactly."""
    e = num.bit_length() - den.bit_length()
    if e >= 0:
        if num < den << e:
            e -= 1
    elif num << -e < den:
        e -= 1
    return e


def round_nearest(
    t: Fraction | int,
    p: int,
    mode: RoundingMode = RoundingMode.TIES_EVEN,
) -> FpNumber:
    """Round the exact rational ``t`` to the nearest precision-p value.

    Exact ties go to the even integral significand under TIES_EVEN and to
    the larger magnitude under TIES_AWAY.  The binade is located by integer
    bit-length comparison, never by a floating-point logarithm.
    """
    _check_precision(p)
    _check_mode(mode)
    t = Fraction(t)
    if t == 0:
        return FpNumber.zero(p)
    sign = 1 if t > 0 else -1
    num, den = abs(t.numerator), t.denominator
    e = _binade(num, den)
    # Scale so that q = floor(|t| * 2**(p-1-e)) is the lower candidate.
    s = p - 1 - e
    if s >= 0:
        num <<= s
    else:
        den <<= -s
    q, r = divmod(num, den)
    r2 = 2 * r
    if r2 > den or (r2 == den and (mode is RoundingMode.TIES_AWAY or q & 1)):
        q += 1
    if q == 1 << p:  # rounded up across the binade boundary
        q = 1 << (p - 1)
        e += 1
    return tuple.__new__(FpNumber, (sign, q, e, p))


def fp_mul(
    a: FpNumber,
    b: FpNumber,
    mode: RoundingMode = RoundingMode.TIES_EVEN,
) -> FpNumber:
    """Correctly rounded product of two same-precision values.

    The exact product has at most 2p significand bits, so this is pure
    integer work; the result equals ``round_nearest`` of the exact product.
    ``mode`` is not checked here, on the per-step path: the callers that
    loop over ``fp_mul`` check it once per call.
    """
    p = a.precision
    if p != b.precision:
        raise ValueError(f"precision mismatch: {p} vs {b.precision}")
    P = a.significand * b.significand  # 0, or 2p-1 or 2p bits
    if not P:
        return FpNumber.zero(p)
    e = a.exponent + b.exponent
    bits = P.bit_length()
    if bits == 2 * p:
        e += 1
    shift = bits - p
    q = P >> shift
    r = P - (q << shift)
    half = 1 << (shift - 1)
    if r > half or (r == half and (mode is RoundingMode.TIES_AWAY or q & 1)):
        q += 1
        if q == 1 << p:
            q = 1 << (p - 1)
            e += 1
    return tuple.__new__(FpNumber, (a.sign * b.sign, q, e, p))
