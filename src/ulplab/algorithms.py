"""The two evaluation schemes under study.

``naive_power`` computes x**n by n-1 successive multiplications by x and
returns the rounded power; ``iterated_product`` folds a factor list
strictly left to right and keeps every partial in a ``ProductTrace``.
``step_directions`` reads off which way each of a trace's roundings went,
which is what the downward-rounding checks feed on.  The steps of x**n
are those of ``iterated_product([x] * n)``.
"""

from __future__ import annotations

from collections import namedtuple

from .softfloat import FpNumber, RoundingMode, _check_length, _check_mode, fp_mul

__all__ = [
    "ProductTrace",
    "iterated_product",
    "naive_power",
    "step_directions",
]

# Sign of (rounded - exact) for one multiplication.
DOWN, EXACT, UP = "down", "exact", "up"


def _mul_direction(a: FpNumber, b: FpNumber, result: FpNumber) -> str:
    """Sign of (result - a*b) using integers only.

    Comparing through Fraction would materialise 2**e values, which for
    large exponents is enormous; the scaled-significand comparison is not.
    """
    if result.is_zero:
        return EXACT  # only possible when a or b is zero
    # both sides scaled by 2**(2p - 2 - ea - eb) > 0, preserving order
    exact_scaled = a.sign * b.sign * a.significand * b.significand
    shift = result.exponent - a.exponent - b.exponent + result.precision - 1
    rounded_scaled = result.sign * (result.significand << shift)
    if rounded_scaled == exact_scaled:
        return EXACT
    return DOWN if rounded_scaled < exact_scaled else UP


class ProductTrace(namedtuple("ProductTrace", "factors partials final")):
    """The ``factors``, the running rounded ``partials`` (the first is
    ``factors[0]``) and the ``final`` rounded product."""

    __slots__ = ()


def naive_power(
    x: FpNumber,
    n: int,
    mode: RoundingMode = RoundingMode.TIES_EVEN,
) -> FpNumber:
    """Iterate y <- round(x * y) for k = 2..n and return y; n = 1 gives x."""
    _check_length(n, 1)
    _check_mode(mode)
    y = x
    for _ in range(n - 1):
        y = fp_mul(x, y, mode)
    return y


def iterated_product(
    factors: list[FpNumber] | tuple[FpNumber, ...],
    mode: RoundingMode = RoundingMode.TIES_EVEN,
) -> ProductTrace:
    """Left-to-right rounded product of the factors, recording every partial."""
    if not factors:
        raise ValueError("at least one factor is required")
    _check_mode(mode)
    acc = factors[0]
    partials = [acc]
    for f in factors[1:]:
        acc = fp_mul(acc, f, mode)
        partials.append(acc)
    return ProductTrace(tuple(factors), tuple(partials), acc)


def step_directions(trace: ProductTrace) -> tuple[str, ...]:
    """DOWN, EXACT or UP for each of the trace's rounded multiplications."""
    steps = zip(trace.partials, trace.factors[1:], trace.partials[1:])
    return tuple(_mul_direction(prev, f, rounded) for prev, f, rounded in steps)
