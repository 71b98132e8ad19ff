"""Construction of factor sequences whose rounded product errs near n-1 ulps.

The iterated product of n factors cannot lose more than about n-1 ulps,
one per rounded multiplication.  This module builds sequences that come
within a whisker of that ceiling: every factor is chosen so that the next
rounded partial lands just below the exact one, so the per-step losses
all point the same way and accumulate instead of cancelling.

The recipe works in the binade [1, 2), where consecutive floats are
2**(-p+1) apart.  Seed with a_1 = a_2 = 1 + K*2**(-p+1), K = floor of
2**(p/2-1): the square 1 + 2K*2**(-p+1) + K**2*2**(-2p+2) then overshoots
a float by almost half a spacing, which rounding discards.  After that,
write the current partial as 1 + g*2**(-p+1) and pick the next factor
1 + k*2**(-p+1) (k of either sign) so the new cross term again sits just
under the rounding threshold.  All index arithmetic is exact integer
ceil/floor; nothing here depends on double-precision evaluation.

Only round-to-nearest ties-to-even is supported.  The seed square can be
an exact tie (it is whenever p is even, since then K**2*2**(-2p+2) equals
half a spacing), and the scheme needs that tie to round down, which
even-tie-breaking does and away-tie-breaking does not.
"""

from __future__ import annotations

import math
from collections import namedtuple
from collections.abc import Iterator, Sequence

from .algorithms import DOWN, iterated_product, step_directions
from .exact import relative_error
from .softfloat import (
    FpNumber,
    RoundingMode,
    _check_integer,
    _check_length,
    _check_precision,
    fp_mul,
    round_nearest,
)

__all__ = [
    "SequenceConstructionError",
    "SequenceReport",
    "build_sequence",
    "verify_prefixes",
    "verify_sequence",
]

MIN_PRECISION = 8  # below this the binade is too coarse for the drift to set up


class SequenceConstructionError(ValueError):
    """A partial product left the window the construction relies on."""


class SequenceReport(namedtuple(
    "SequenceReport", "directions all_down achieved_error error_bound gap passed"
)):
    """Outcome of independently re-running and checking a sequence: the
    ``directions``, one per rounded multiplication; the ``achieved_error``
    and the ``gap`` = error_bound - achieved_error, Fractions in ulps; and
    the ``error_bound``, n - 1."""

    __slots__ = ()


def _exact_product(factors: tuple[FpNumber, ...]) -> tuple[int, int]:
    """Exact product of the factors as (N, s): the value is N * 2**s.

    Each factor is sign * X * 2**(e - p + 1).  The signed significands are
    multiplied pairwise in a balanced product tree, so every multiplication
    has operands of about equal size and the last few dominate the cost; a
    left fold multiplies a growing product by one p-bit factor at a time,
    which takes time quadratic in n.
    """
    nums = [f.sign * f.significand for f in factors]
    while len(nums) > 1:
        odd = nums[-1:] if len(nums) & 1 else []
        nums = [a * b for a, b in zip(nums[::2], nums[1::2])] + odd
    shift = sum(f.exponent - f.precision + 1 for f in factors)
    return (nums[0] if nums else 1), shift


def _grid_factor(k: int, p: int) -> FpNumber:
    """The float 1 + k*2**(-p+1), for -2**(p-1) < k < 2**(p-1): the integer
    2**(p-1) + k is positive and below 2**p, so it rounds exactly, and the
    result is moved down p-1 binades."""
    f = round_nearest((1 << (p - 1)) + k, p)
    return FpNumber(f.sign, f.significand, f.exponent - p + 1, p)


def build_sequence(p: int, n: int) -> tuple[FpNumber, ...]:
    """Build n factors whose ties-to-even product loses almost n-1 ulps.

    Factors are emitted in the order they must be multiplied; the choice
    of factor i+1 depends on the rounded partial after factor i, so the
    sequence is specific to left-to-right evaluation at precision p.
    """
    _check_precision(p)
    if p < MIN_PRECISION:
        raise ValueError(f"p must be >= {MIN_PRECISION}, got {p}")
    _check_length(n, 2)
    mode = RoundingMode.TIES_EVEN
    quarter = 1 << (p - 2)
    seed_k = math.isqrt(quarter)  # floor(2**(p/2 - 1))
    seed = _grid_factor(seed_k, p)
    cur = fp_mul(seed, seed, mode)
    factors = [seed, seed]
    for i in range(2, n):
        if cur.exponent != 0:
            raise SequenceConstructionError(
                f"step {i}: partial product left [1, 2): {cur.to_fraction()}"
            )
        g = cur.significand - (1 << (p - 1))
        if g < 1:
            raise SequenceConstructionError(f"step {i}: partial product fell back to 1")
        if g * g <= quarter:
            # ceil(2**(p-2)/g - 1), exactly
            k = -((g - quarter) // g)
        else:
            k = -(quarter // g + 1)
        nxt = _grid_factor(k, p)
        factors.append(nxt)
        cur = fp_mul(cur, nxt, mode)
    return tuple(factors)


def verify_sequence(factors: tuple[FpNumber, ...]) -> SequenceReport:
    """Fold the factors from scratch and check the adversary's claim.

    Everything reported is derived here from the factors alone: p is the
    factors' precision and n their count.  Passing means every one of the
    n-1 ties-to-even multiplications rounded downward and the exact error
    of the product is strictly below n-1 ulps.
    """
    return next(verify_prefixes(factors, (len(factors),)))


def verify_prefixes(
    factors: tuple[FpNumber, ...], ns: Sequence[int]
) -> Iterator[SequenceReport]:
    """Yield ``verify_sequence(factors[:n])`` for each n of ``ns``, which must
    ascend strictly within 1..len(factors), from one rounded fold and one
    running exact product: a range costs a ``relative_error`` per prefix."""
    last = 0
    for n in ns:  # refused by the (len(factors) + 1)-th n at the latest
        _check_integer(n)
        if not last < n <= len(factors):
            raise ValueError(f"prefixes must ascend strictly within 1..{len(factors)}, got {ns!r}")
        last = n
    if not ns:
        return
    trace = iterated_product(factors[: ns[-1]], RoundingMode.TIES_EVEN)
    directions = step_directions(trace)
    downs = next((i for i, d in enumerate(directions) if d != DOWN), len(directions))
    N, shift, done = 1, 0, 0
    for n in ns:
        new_N, new_shift = _exact_product(factors[done:n])
        N, shift, done = N * new_N, shift + new_shift, n
        achieved = relative_error(trace.partials[n - 1], N, shift)
        yield SequenceReport(
            directions=directions[: n - 1],
            all_down=n - 1 <= downs,
            achieved_error=achieved,
            error_bound=n - 1,
            gap=n - 1 - achieved,
            passed=n - 1 <= downs and achieved < n - 1,
        )
