import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ulplab import (
    FpNumber,
    RoundingMode,
    fp_mul,
    iterated_product,
    naive_power,
    round_nearest,
    step_directions,
)
import ulplab.algorithms
from ulplab.algorithms import DOWN, EXACT, UP
from oracle import oracle_power, oracle_product

EVEN = RoundingMode.TIES_EVEN
AWAY = RoundingMode.TIES_AWAY


def fp_in_unit_binade(p):
    return st.builds(
        FpNumber,
        st.just(1),
        st.integers(min_value=1 << (p - 1), max_value=(1 << p) - 1),
        st.just(0),
        st.just(p),
    )


def tie_prone_significand(p):
    """p-bit significands, half of them with exactly (p - 1) // 2 trailing
    zero bits: about half of those square to a tie."""
    zeros = (p - 1) // 2
    return st.builds(
        lambda s, tie: (s >> zeros | 1) << zeros if tie else s,
        st.integers(min_value=1 << (p - 1), max_value=(1 << p) - 1),
        st.booleans(),
    )


def fp_any(max_p=200, max_exponent=1000):
    """Zero or either sign, p in 2..max_p, exponent in +-max_exponent."""
    return st.integers(min_value=2, max_value=max_p).flatmap(
        lambda p: st.one_of(
            st.just(FpNumber.zero(p)),
            st.builds(
                FpNumber,
                st.sampled_from([1, -1]),
                tie_prone_significand(p),
                st.integers(min_value=-max_exponent, max_value=max_exponent),
                st.just(p),
            ),
        )
    )


class TestNaivePower:
    def test_n1_is_identity(self):
        x = round_nearest(Fraction(3, 2), 8)
        assert naive_power(x, 1) == x
        assert step_directions(iterated_product([x])) == ()

    def test_n_must_be_positive(self):
        with pytest.raises(ValueError):
            naive_power(round_nearest(1, 8), 0)

    @pytest.mark.parametrize("n", [2.0, 2.5, None, True])
    def test_n_must_be_an_int(self, n):
        x = round_nearest(Fraction(136, 128), 8)
        with pytest.raises(ValueError, match=f"^n must be an integer, got {n!r}$"):
            naive_power(x, n)

    @pytest.mark.parametrize("mode", ["away", None])
    def test_mode_must_be_a_rounding_mode(self, mode):
        x = round_nearest(Fraction(136, 128), 8)
        with pytest.raises(ValueError, match=f"mode must be a RoundingMode, got {mode!r}"):
            naive_power(x, 3, mode)

    def test_power_of_one_is_exact(self):
        one = round_nearest(1, 24)
        assert naive_power(one, 100).to_fraction() == 1
        assert set(step_directions(iterated_product([one] * 100))) == {EXACT}

    def test_step_structure(self):
        x = FpNumber(1, 182, 0, 8)
        trace = iterated_product([x] * 5)
        assert len(trace.partials) == 5 and len(step_directions(trace)) == 4
        assert naive_power(x, 5) == trace.final == trace.partials[-1]
        # each step is the rounded product of x with the previous value
        for prev, value in zip(trace.partials, trace.partials[1:]):
            assert value == fp_mul(x, prev)

    def test_calls_fp_mul_once_per_step(self, monkeypatch):
        # the benchmark's tracer counts naive_power's multiplications at
        # ulplab.algorithms.fp_mul, so every step must go through that name
        calls = []

        def counting(*args):
            calls.append(args)
            return fp_mul(*args)

        monkeypatch.setattr(ulplab.algorithms, "fp_mul", counting)
        x = FpNumber(1, 182, 0, 8)
        for n in (1, 2, 7):
            calls.clear()
            naive_power(x, n)
            assert len(calls) == n - 1

    def test_directions_recorded(self):
        # (1 + 2**-7)**2 rounds down at p = 8
        x = round_nearest(1 + Fraction(1, 128), 8)
        assert step_directions(iterated_product([x, x])) == (DOWN,)

    @given(
        x=st.one_of(fp_in_unit_binade(10), fp_any()),
        n=st.integers(min_value=1, max_value=40),
        mode=st.sampled_from([EVEN, AWAY]),
    )
    @settings(max_examples=200)
    def test_matches_independent_oracle(self, x, n, mode):
        want = oracle_power(x.to_fraction(), n, x.precision, ties_away=mode is AWAY)
        assert naive_power(x, n, mode).to_fraction() == want

    @given(x=fp_in_unit_binade(12), n=st.integers(min_value=1, max_value=10))
    def test_scale_equivariance(self, x, n):
        doubled = FpNumber(x.sign, x.significand, x.exponent + 1, x.precision)
        a = naive_power(x, n).to_fraction()
        b = naive_power(doubled, n).to_fraction()
        assert b == a * (1 << n)

    def test_exponent_past_2_to_62(self):
        # x**5 at exponent 2**61 is the exponent-0 power moved by 2**(5 * 2**61)
        x = FpNumber(1, 3 << 6, 2**61, 8)
        base = naive_power(FpNumber(1, 3 << 6, 0, 8), 5)
        assert naive_power(x, 5) == base._replace(exponent=base.exponent + 5 * 2**61)


class TestIteratedProduct:
    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            iterated_product([])

    @pytest.mark.parametrize("mode", ["away", None])
    def test_mode_must_be_a_rounding_mode(self, mode):
        x = round_nearest(Fraction(136, 128), 8)
        with pytest.raises(ValueError, match=f"mode must be a RoundingMode, got {mode!r}"):
            iterated_product([x, x, x], mode)

    def test_precision_mismatch_rejected(self):
        with pytest.raises(ValueError):
            iterated_product([round_nearest(1, 8), round_nearest(1, 9)])

    def test_all_ones(self):
        ones = [round_nearest(1, 16)] * 9
        assert iterated_product(ones).final.to_fraction() == 1

    def test_zero_factor_steps_are_exact(self):
        x = FpNumber(1, 182, 0, 8)
        trace = iterated_product([x, FpNumber.zero(8), x])
        assert trace.final.is_zero
        assert step_directions(trace) == (EXACT, EXACT)

    def test_partials_structure(self):
        fs = [FpNumber(1, 182, 0, 8), FpNumber(1, 145, 0, 8), FpNumber(1, 201, 0, 8)]
        trace = iterated_product(fs)
        assert trace.partials[0] == fs[0]
        assert len(trace.partials) == 3
        assert trace.final == trace.partials[-1]

    @given(
        x=st.integers(min_value=8, max_value=12).flatmap(fp_in_unit_binade),
        n=st.integers(min_value=1, max_value=12),
        mode=st.sampled_from([EVEN, AWAY]),
    )
    @settings(max_examples=200)
    def test_repeated_factor_equals_naive_power(self, x, n, mode):
        trace = iterated_product([x] * n, mode)
        assert trace.partials == tuple(naive_power(x, k, mode) for k in range(1, n + 1))

    @given(
        sigs=st.lists(
            st.integers(min_value=1 << 9, max_value=(1 << 10) - 1),
            min_size=1,
            max_size=8,
        ),
        mode=st.sampled_from([EVEN, AWAY]),
    )
    @settings(max_examples=200)
    def test_matches_independent_oracle(self, sigs, mode):
        fs = [FpNumber(1, s, 0, 10) for s in sigs]
        got = iterated_product(fs, mode).final.to_fraction()
        want = oracle_product([f.to_fraction() for f in fs], 10, ties_away=mode is AWAY)
        assert got == want

    @given(
        sigs=st.lists(
            st.integers(min_value=1 << 11, max_value=(1 << 12) - 1),
            min_size=2,
            max_size=10,
        )
    )
    @settings(max_examples=300)
    def test_two_sided_bracket(self, sigs):
        # (1-u)**(n-1) * exact <= rounded <= (1+u)**(n-1) * exact, exactly
        p = 12
        u = Fraction(1, 1 << p)
        fs = [FpNumber(1, s, 0, p) for s in sigs]
        exact = Fraction(1)
        for f in fs:
            exact *= f.to_fraction()
        got = iterated_product(fs).final.to_fraction()
        n = len(fs)
        assert (1 - u) ** (n - 1) * exact <= got <= (1 + u) ** (n - 1) * exact


class TestSmallInputsRoundDown:
    # x = 1 + 2ku with 1 <= k and k*k < 2**(p-2): squaring must round down
    # to exactly 1 + 4ku.  The integer threshold form works for odd p too.
    @pytest.mark.parametrize("p", [5, 6, 7, 8, 9, 10, 11, 12, 13, 14])
    @pytest.mark.parametrize("mode", [EVEN, AWAY])
    def test_square_rounds_down_for_small_x(self, p, mode):
        limit = math.isqrt((1 << (p - 2)) - 1)
        assert limit >= 1
        for k in range(1, limit + 1):
            x = FpNumber(1, (1 << (p - 1)) + k, 0, p)
            sq = iterated_product([x, x], mode)
            assert step_directions(sq) == (DOWN,)
            expect = 1 + Fraction(2 * k, 1 << (p - 1))
            assert sq.final.to_fraction() == expect

    def test_boundary_k_ties_even_still_rounds_down(self):
        # at k*k == 2**(p-2) the discarded square term is exactly half a
        # grid step; the tie picks the even significand below
        p = 8
        k = 8  # k*k == 64 == 2**6
        x = FpNumber(1, (1 << 7) + k, 0, p)
        assert step_directions(iterated_product([x, x], EVEN)) == (DOWN,)

    def test_boundary_k_ties_away_rounds_up(self):
        p = 8
        k = 8
        x = FpNumber(1, (1 << 7) + k, 0, p)
        assert step_directions(iterated_product([x, x], AWAY)) == (UP,)


class TestDownwardStepCapsError:
    # when some multiplication rounds downward (or is exact), the final
    # value stays below (1 + (n-1)u) * x**n; checked exhaustively at p = 8
    # for every n with 3*n*n <= 2**(p+1)
    def test_exhaustive_p8(self):
        p = 8
        u = Fraction(1, 1 << p)
        max_n = 1
        while 3 * (max_n + 1) ** 2 <= 1 << (p + 1):
            max_n += 1
        assert max_n >= 9
        hits = 0
        for k in range(1 << (p - 1)):
            x = FpNumber(1, (1 << (p - 1)) + k, 0, p)
            xf = x.to_fraction()
            for n in range(2, max_n + 1):
                trace = iterated_product([x] * n)
                if any(d in (DOWN, EXACT) for d in step_directions(trace)):
                    hits += 1
                    assert trace.final.to_fraction() <= (1 + (n - 1) * u) * xf**n
        assert hits > 1000  # the predicate is not vacuous
