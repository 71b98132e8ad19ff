"""Exact-rational measurement of rounding error, in units of u = 2**-p.

All arithmetic here is done on ``fractions.Fraction``; nothing is ever
rounded except the final decimal rendering, which truncates toward zero
so printed digits are always a correct prefix of the exact value.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from fractions import Fraction

from .softfloat import FpNumber

__all__ = ["ErrorInUlps", "relative_error", "to_decimal"]


@dataclass(frozen=True, order=True)
class ErrorInUlps:
    """A non-negative relative error divided by the unit roundoff."""

    value: Fraction

    def __post_init__(self) -> None:
        if self.value < 0:
            raise ValueError("error in ulps cannot be negative")

    def decimal(self, digits: int = 9) -> str:
        return to_decimal(self.value, digits)

    def __float__(self) -> float:
        return float(self.value)


def relative_error(computed: FpNumber, exact: Fraction | int) -> ErrorInUlps:
    """|computed - exact| / (|exact| * 2**-p), exactly.

    ``p`` is the precision carried by ``computed``.
    """
    exact = Fraction(exact)
    if exact == 0:
        raise ValueError("relative error against a zero exact value is undefined")
    diff = abs(computed.to_fraction() - exact)
    return ErrorInUlps(diff * (1 << computed.precision) / abs(exact))


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
    frac = rem * 10**digits // den
    with unlimited_int_digits():  # either part may pass the int-to-str limit
        return f"{sign}{whole}.{frac:0{digits}d}"


class unlimited_int_digits:
    """Lift Python's int<->str digit limit inside a ``with`` block, then
    restore it.

    Exact error numerators run to tens of thousands of digits; reports must
    print them, and the command line parse them back, whatever the
    process-wide limit is, without changing that limit for the rest of the
    process.  A class rather than a generator: it wraps every decimal
    rendering, and this form costs a third as much per use.
    """

    __slots__ = ("_old",)

    def __enter__(self) -> None:
        self._old = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(0)

    def __exit__(self, *exc_info) -> None:
        sys.set_int_max_str_digits(self._old)
