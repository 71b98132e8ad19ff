import decimal
import math
import random
import sys
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ulplab import (
    FpNumber,
    RoundingMode,
    SequenceConstructionError,
    build_sequence,
    exhaustive_max_error,
    relative_error,
    round_nearest,
    spot_error,
    to_decimal,
    verify_sequence,
)
from ulplab import exact
from ulplab.exact import _SPOT_DECIMAL_BITS, _STR_DC_BITS, _int_str, _spot_fractions
from ulplab.search import _scan_chunk
from conftest import int_digit_limit
from oracle import oracle_error_ulps, oracle_power


@st.composite
def error_cases(draw):
    """(computed, exact, shift) with exact * 2**shift an awkward exact value.

    The exact value is a plain rational (dyadic or not), an integer with a
    shift, a multiple of computed's significand, or computed's own value
    written with its significand scaled by a power of two (error zero).
    """
    p = draw(st.sampled_from([2, 3, 8, 24, 53]))
    sig = draw(st.integers(min_value=1 << (p - 1), max_value=(1 << p) - 1))
    sign = draw(st.sampled_from([1, -1]))
    e = draw(st.integers(min_value=-80, max_value=80))
    computed = FpNumber(sign, sig, e, p)
    t = e - p + 1  # computed == sign * sig * 2**t
    shift = draw(st.one_of(st.just(0), st.integers(min_value=-150, max_value=150)))
    kind = draw(st.sampled_from(["rational", "integer", "multiple", "equal"]))
    esign = draw(st.sampled_from([1, -1]))
    if kind == "rational":
        num = draw(st.integers(min_value=1, max_value=10**30))
        den = draw(st.integers(min_value=1, max_value=10**30))
        return computed, Fraction(esign * num, den), shift
    if kind == "integer":
        return computed, esign * draw(st.integers(min_value=1, max_value=1 << 200)), shift
    if kind == "multiple":  # sig divides the exact numerator
        m = draw(st.integers(min_value=1, max_value=1 << 70))
        return computed, esign * sig * m, shift
    j = draw(st.integers(min_value=0, max_value=40))
    return computed, sign * sig << j, t - j


def fraction_error(computed, exact, shift):
    e = Fraction(exact) * Fraction(2) ** shift
    return abs(computed.to_fraction() - e) * (1 << computed.precision) / abs(e)


@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_every_error_is_a_reduced_nonnegative_fraction(data):
    # Each producer of an error in ulps, on inputs drawn small enough that
    # an example runs in milliseconds.
    p = data.draw(st.integers(min_value=2, max_value=8))
    n = data.draw(st.integers(min_value=1, max_value=8))
    mode = data.draw(st.sampled_from(list(RoundingMode)))
    x = FpNumber(
        data.draw(st.sampled_from([1, -1])),
        data.draw(st.integers(min_value=1 << (p - 1), max_value=(1 << p) - 1)),
        data.draw(st.integers(min_value=-40, max_value=40)),
        p,
    )
    q = data.draw(st.integers(min_value=8, max_value=60))
    errors = [
        relative_error(*data.draw(error_cases())),
        spot_error(x, n, mode),
        exhaustive_max_error(p, n, mode).max_error,
    ]
    try:
        factors = build_sequence(q, data.draw(st.integers(min_value=2, max_value=30)))
        errors.append(verify_sequence(factors).achieved_error)
    except SequenceConstructionError:  # at q = 9 the construction stops at step 28
        pass
    for err in errors:
        assert type(err) is Fraction
        assert err.denominator > 0
        assert math.gcd(err.numerator, err.denominator) == 1
        assert err >= 0


class TestRelativeError:
    def test_zero_for_representable(self):
        x = round_nearest(Fraction(3, 2), 8)
        assert relative_error(x, Fraction(3, 2)) == 0

    def test_small_square_case(self):
        # squaring 1 + 2**-7 at p = 8 discards 2**-14; in ulps that is
        # 2**-14 / ((1 + 2**-6 + 2**-14) * 2**-8) = 256/16641
        x = round_nearest(1 + Fraction(1, 128), 8)
        from ulplab import fp_mul

        sq = fp_mul(x, x)
        err = relative_error(sq, x.to_fraction() ** 2)
        assert err == Fraction(256, 16641)

    def test_zero_exact_rejected(self):
        x = round_nearest(1, 8)
        with pytest.raises(ValueError):
            relative_error(x, 0)

    @given(case=error_cases())
    @settings(max_examples=400)
    def test_matches_fraction_arithmetic(self, case):
        computed, exact, shift = case
        got = relative_error(computed, exact, shift)
        assert got == fraction_error(computed, exact, shift)
        # built without the constructor's gcd, so check it is in lowest terms
        assert got.denominator > 0
        assert math.gcd(got.numerator, got.denominator) == 1

    @pytest.mark.parametrize(
        "computed,exact,shift",
        [
            (FpNumber(1, 6, 0, 3), 3, -1),  # even C, equal values
            (FpNumber(1, 6, 0, 3), 12, -3),  # even N, equal values
            (FpNumber(-1, 5, 4, 3), 40, 0),  # signs differ
            (FpNumber(1, 5, 0, 3), 15, -2),  # C divides N
            (FpNumber(1, 4, 0, 3), Fraction(-4, 3), 0),  # power of two, non-dyadic N/D
            (FpNumber.zero(8), Fraction(3, 7), 5),  # computed zero: 2**p ulps
        ],
    )
    def test_edges(self, computed, exact, shift):
        got = relative_error(computed, exact, shift)
        assert got == fraction_error(computed, exact, shift)
        assert math.gcd(got.numerator, got.denominator) == 1

    @given(
        sig=st.integers(min_value=1 << 9, max_value=(1 << 10) - 1),
        shift=st.integers(min_value=-20, max_value=20),
        num=st.integers(min_value=1, max_value=10**6),
        den=st.integers(min_value=1, max_value=10**6),
    )
    def test_scale_invariance(self, sig, shift, num, den):
        from ulplab import FpNumber

        exact = Fraction(num, den)
        x = FpNumber(1, sig, 0, 10)
        y = FpNumber(1, sig, shift, 10)
        base = relative_error(x, exact)
        scaled = relative_error(y, exact * Fraction(2) ** shift)
        assert base == scaled

    @given(
        sig=st.integers(min_value=1 << 7, max_value=(1 << 8) - 1),
        num=st.integers(min_value=1, max_value=10**4),
        den=st.integers(min_value=1, max_value=10**4),
    )
    def test_matches_oracle(self, sig, num, den):
        from ulplab import FpNumber

        x = FpNumber(1, sig, 0, 8)
        exact = Fraction(num, den)
        assert relative_error(x, exact) == oracle_error_ulps(
            x.to_fraction(), exact, 8
        )


class TestSearchErrorReduced:
    """``search`` reduces its best error as ``relative_error`` reduces any:
    by one remainder by the p-bit rounded significand."""

    def test_scan_report_is_reduced(self):
        # X0 = 40000000 = 2**9 * 78125 and X0**5000 has 126 k bits
        report = exhaustive_max_error(26, 5000, k_start=40000000 - (1 << 25),
                                      k_stop=40000001 - (1 << 25), force=True)
        err = report.max_error
        assert math.gcd(err.numerator, err.denominator) == 1
        assert err == spot_error(report.argmax_x, 5000)

    @pytest.mark.parametrize("n", [600, 5000])
    def test_best_sharing_an_odd_factor_with_x0(self, n):
        # X0 = 12345684 = 2**2 * 3 * 1028807: the best's error numerator
        # shares the odd factor 3 with X0**n, its denominator.
        p, X0 = 24, 12345684
        k = X0 - (1 << (p - 1))
        num, den, _, _, _, _ = _scan_chunk((p, n, False, k, k + 1))
        assert num % 3 == 0
        err = exhaustive_max_error(p, n, k_start=k, k_stop=k + 1).max_error
        assert math.gcd(err.numerator, err.denominator) == 1
        assert err == spot_error(FpNumber(1, X0, 0, p), n) == Fraction(num, den)


class TestToDecimal:
    @pytest.mark.parametrize(
        "value,digits,expected",
        [
            (Fraction(1, 3), 5, "0.33333"),
            (Fraction(2), 3, "2.000"),
            (Fraction(-1, 3), 4, "-0.3333"),
            (Fraction(7, 4), 2, "1.75"),
            (Fraction(1999, 1000), 2, "1.99"),  # truncated, not rounded
        ],
    )
    def test_examples(self, value, digits, expected):
        assert to_decimal(value, digits) == expected

    def test_worst_case_binade32_prefix(self):
        from ulplab import FpNumber, naive_power

        x = FpNumber(1, 8429278, 0, 24)
        err = relative_error(naive_power(x, 10), x.to_fraction() ** 10)
        assert to_decimal(err, 9).startswith("7.05960314")

    def test_renders_past_int_str_limit(self, default_int_digit_limit):
        # Both parts may be longer than Python's default 4300-digit limit,
        # and on either side of _STR_DC_BITS, where the digits stop coming
        # from str(); they must match plain zero-padded formatting.
        assert to_decimal(Fraction(1, 3), 5000) == "0." + "3" * 5000
        assert to_decimal(Fraction(10**5000), 1) == "1" + "0" * 5000 + ".0"
        d = _STR_DC_BITS * 3 // 10  # 10**d has about _STR_DC_BITS bits
        values = [
            Fraction(1, 3),
            Fraction(-22, 7),
            Fraction(1, 7 * 10**60),  # 60 leading zeros in the fraction
            Fraction(7**13_000, 3),  # whole part just below the threshold
            Fraction(-(7**15_000), 3),  # and just above it
        ]
        for v in values:
            for digits in (d - 1000, d, d + 1000):  # 36 k, 40 k, 43 k bits
                whole, rem = divmod(abs(v.numerator), v.denominator)
                frac = rem * 10**digits // v.denominator
                with int_digit_limit(0):
                    want = f"{'-' * (v < 0)}{whole}.{frac:0{digits}d}"
                assert to_decimal(v, digits) == want
        assert sys.get_int_max_str_digits() == 4300

    def test_digits_must_be_positive(self):
        with pytest.raises(ValueError):
            to_decimal(Fraction(1, 3), 0)

    @given(
        num=st.integers(min_value=0, max_value=10**9),
        den=st.integers(min_value=1, max_value=10**9),
        digits=st.integers(min_value=1, max_value=25),
    )
    def test_longer_rendering_extends_shorter(self, num, den, digits):
        v = Fraction(num, den)
        shorter = to_decimal(v, digits)
        longer = to_decimal(v, digits + 1)
        assert longer.startswith(shorter)

    @given(num=st.integers(min_value=0, max_value=10**9), den=st.integers(min_value=1, max_value=10**9))
    def test_truncation_brackets_value(self, num, den):
        v = Fraction(num, den)
        shown = Fraction(int(to_decimal(v, 12).replace(".", "")), 10**12)
        assert shown <= v < shown + Fraction(1, 10**12)

    def test_threads_leave_the_digit_limit_alone(self, default_int_digit_limit):
        # A whole part of 30 000 bits is past the limit; rendering it while
        # other threads do the same must not change the limit, even when
        # the interpreter switches threads every microsecond.
        value = Fraction((1 << 30_000) + 1, 3)
        want = to_decimal(value)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(4) as pool:
                got = list(pool.map(to_decimal, [value] * 40))
        finally:
            sys.setswitchinterval(interval)
        assert got == [want] * 40
        assert sys.get_int_max_str_digits() == 4300


class TestIntStr:
    # str() serves integers below _STR_DC_BITS that the int<->str digit
    # limit admits (at most 3 bits per allowed digit); the rest are
    # converted by splitting at powers of two.  Every digit must match
    # str() at the split sizes and across both thresholds, whatever the
    # limit.
    @staticmethod
    def cases(limit):
        rng = random.Random(10)
        k = _STR_DC_BITS * 3 // 10  # 10**k has about _STR_DC_BITS bits
        powers = (k - 5, k, k + 5, 3 * k) + ((limit - 1, limit) if limit else ())
        yield from (10**j + d for j in powers for d in (-1, 0, 1))
        edges = (_STR_DC_BITS, 3 * limit) if limit else (_STR_DC_BITS,)
        for bits in (*(e + d for e in edges for d in (-1, 0, 1)), 3 * _STR_DC_BITS):
            yield from ((1 << bits) + d for d in (-1, 0, 1))
            yield rng.getrandbits(bits) | 1 << (bits - 1)
        # long runs of zero bits and of zero digits around a split point
        yield (1 << (2 * _STR_DC_BITS)) + 12345
        yield (rng.getrandbits(1000) << 60_000) + rng.getrandbits(500)
        yield 7 * 10**30_000 + 3
        yield 0

    @pytest.mark.parametrize("limit", [0, 640, 4300])
    def test_matches_str_across_the_threshold(self, limit):
        cases = [s * n for n in self.cases(limit) for s in (1, -1)]
        with int_digit_limit(0):
            want = [str(n) for n in cases]
        with int_digit_limit(limit):
            got = [_int_str(n) for n in cases]
            assert sys.get_int_max_str_digits() == limit
        assert got == want


def spot_texts(x, ns, mode=RoundingMode.TIES_EVEN):
    """``spot_error``'s rows of ``ns`` as (errors, their texts through
    ``_spot_fractions``, their texts through ``_int_str``)."""
    errors = [spot_error(x, n, mode) for n in ns]
    want = [_int_str(e.numerator) + "/" + _int_str(e.denominator) for e in errors]
    return errors, list(_spot_fractions(x.precision, x.significand, ns, errors)), want


class TestSpotFractions:
    # the golden p = 113 input, whose significand ends in two zero bits
    X113 = 5192324351407105984705482084151108

    # Switch 0 starts the running decimals at the first row, so they are
    # checked at every size, error-free rows included; the real switch
    # checks the hand-over from _int_str.
    @settings(max_examples=80, deadline=None)
    @given(
        data=st.data(),
        p=st.integers(2, 200),
        sign=st.sampled_from([1, -1]),
        exponent=st.integers(-5, 4),
        mode=st.sampled_from(list(RoundingMode)),
        start=st.sampled_from([1, 2]),
        rows=st.integers(1, 40),
        switch=st.sampled_from([0, _SPOT_DECIMAL_BITS]),
    )
    def test_matches_int_str_on_every_row(
        self, data, p, sign, exponent, mode, start, rows, switch
    ):
        twos = data.draw(st.integers(0, p - 1), label="trailing zero bits of X")
        if twos == p - 1:  # x = 1: every row is 0/1
            X = 1 << (p - 1)
        else:
            odd = 2 * data.draw(st.integers(0, (1 << (p - 2 - twos)) - 1)) + 1
            X = (1 << (p - 1)) + (odd << twos)
        x = FpNumber(sign, X, exponent, p)
        with mock.patch.object(exact, "_SPOT_DECIMAL_BITS", switch):
            _, got, want = spot_texts(x, range(start, start + rows), mode)
        assert got == want

    def test_range_past_the_str_threshold(self, default_int_digit_limit):
        errors, got, want = spot_texts(FpNumber(1, self.X113, 0, 113), range(2, 401))
        assert errors[0].denominator.bit_length() <= _SPOT_DECIMAL_BITS
        assert errors[-1].denominator.bit_length() > _STR_DC_BITS
        assert got == want

    def test_leaves_the_callers_decimal_context_alone(self):
        with decimal.localcontext() as ctx:
            ctx.prec, ctx.traps[decimal.Inexact] = 3, True
            before = ctx.prec, dict(ctx.traps), dict(ctx.flags)
            errors, got, want = spot_texts(FpNumber(1, self.X113, 0, 113), range(20, 60))
            assert decimal.getcontext() is ctx
            assert (ctx.prec, dict(ctx.traps), dict(ctx.flags)) == before
        assert errors[-1].denominator.bit_length() > _SPOT_DECIMAL_BITS
        assert got == want


class TestExactArithmeticAxioms:
    # Fraction is the substrate for every oracle comparison in the suite,
    # so spot-check the field axioms hold exactly on awkward values.
    @given(
        a=st.fractions(max_denominator=10**6),
        b=st.fractions(max_denominator=10**6),
        c=st.fractions(max_denominator=10**6),
    )
    def test_add_mul_axioms(self, a, b, c):
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a + b == b + a and a * b == b * a

    @given(a=st.fractions(max_denominator=10**6))
    def test_power_by_repeated_multiplication(self, a):
        prod = Fraction(1)
        for _ in range(7):
            prod *= a
        assert prod == a**7
