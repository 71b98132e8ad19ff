import json
import math
import os
import tempfile
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ulplab.search as search
from ulplab import (
    FpNumber,
    RoundingMode,
    exhaustive_max_error,
    naive_power,
    relative_error,
    spot_error,
    to_decimal,
)
from ulplab.bounds import n_max
from ulplab.cli import run
from ulplab.search import _merge, _scan_binary64, _scan_chunk, _scan_exact
from oracle import oracle_error_ulps, oracle_max_power_error, oracle_power, oracle_round

EVEN = RoundingMode.TIES_EVEN
AWAY = RoundingMode.TIES_AWAY


class TestExhaustiveMaxError:
    def test_p5_n3_frozen_value(self):
        # frozen from the brute-force oracle before this module existed:
        # the 16-point space at p = 5 has its n = 3 worst case at x = 9/8
        r = exhaustive_max_error(5, 3)
        assert r.max_error == Fraction(800, 729)
        assert r.argmax_x.to_fraction() == Fraction(9, 8)
        assert r.violations == 0
        assert r.scanned == 16

    def test_p8_matches_oracle_full_table(self):
        for n in range(3, 9):
            r = exhaustive_max_error(8, n)
            want_err, want_x, want_viol = oracle_max_power_error(8, n)
            assert r.max_error == want_err
            assert r.argmax_x.to_fraction() == want_x
            assert r.violations == want_viol
            assert r.scanned == 128

    def test_p6_ties_away_matches_oracle(self):
        r = exhaustive_max_error(6, 4, AWAY)
        want_err, want_x, want_viol = oracle_max_power_error(6, 4, ties_away=True)
        assert r.max_error == want_err
        assert r.argmax_x.to_fraction() == want_x
        assert r.violations == want_viol

    def test_n_below_one_refused(self):
        with pytest.raises(ValueError, match="n must be >= 1, got 0"):
            exhaustive_max_error(6, 0)

    def test_n1_is_all_zero_error(self):
        r = exhaustive_max_error(6, 1)
        assert r.max_error == 0
        # tie-break: smallest significand attaining the max
        assert r.argmax_x.significand == 1 << 5

    def test_argmax_smallest_on_ties(self):
        # n = 1 gives a 0-error tie across all inputs; k = 0 must win.
        # Also check a windowed tie away from 0.
        r = exhaustive_max_error(7, 1, k_start=17, k_stop=40)
        assert r.argmax_x.significand == (1 << 6) + 17

    def test_window_scan_matches_restricted_oracle(self):
        p, n, lo, hi = 9, 5, 100, 180
        r = exhaustive_max_error(p, n, k_start=lo, k_stop=hi)
        best = Fraction(-1)
        best_x = None
        for k in range(lo, hi):
            x = Fraction((1 << (p - 1)) + k, 1 << (p - 1))
            err = oracle_error_ulps(oracle_power(x, n, p), x**n, p)
            if err > best:
                best, best_x = err, x
        assert r.max_error == best
        assert r.argmax_x.to_fraction() == best_x
        assert r.scanned == hi - lo

    def test_bad_window_rejected(self):
        with pytest.raises(ValueError):
            exhaustive_max_error(8, 3, k_start=5, k_stop=5)
        with pytest.raises(ValueError):
            exhaustive_max_error(8, 3, k_start=0, k_stop=1 << 10)

    def test_precision_guard(self):
        with pytest.raises(ValueError):
            exhaustive_max_error(27, 3)
        # forcing works on a tiny window
        r = exhaustive_max_error(27, 2, k_start=0, k_stop=16, force=True)
        assert r.scanned == 16

    def test_parallel_equals_sequential(self):
        lone = exhaustive_max_error(12, 5, chunk_size=256, jobs=1)
        pooled = exhaustive_max_error(12, 5, chunk_size=256, jobs=4)
        assert lone == pooled

    def test_chunk_boundaries_do_not_matter(self):
        a = exhaustive_max_error(11, 6, chunk_size=64)
        b = exhaustive_max_error(11, 6, chunk_size=1000)
        c = exhaustive_max_error(11, 6, chunk_size=1 << 20)
        assert a == b == c


class TestScanChunkInternals:
    def test_chunk_agrees_with_oracle(self):
        p, n = 9, 4
        num, den, k, viol = _scan_chunk((p, n, False, 37, 91))
        best = Fraction(-1)
        best_k = None
        count = 0
        for kk in range(37, 91):
            x = Fraction((1 << (p - 1)) + kk, 1 << (p - 1))
            err = oracle_error_ulps(oracle_power(x, n, p), x**n, p)
            if err > best:
                best, best_k = err, kk
            if err > n - 1:
                count += 1
        assert Fraction(num, den) == best
        assert k == best_k
        assert viol == count

    def test_merge_prefers_larger_then_smaller_k(self):
        a = (3, 2, 10, 1)  # error 3/2 at k=10, 1 violation
        b = (6, 4, 5, 2)  # same error at k=5
        merged = _merge(a, b)
        assert merged == (6, 4, 5, 3)
        c = (2, 1, 99, 0)  # larger error wins regardless of k
        assert _merge(merged, c) == (2, 1, 99, 3)
        # identity element
        assert _merge((-1, 1, -1, 0), a) == a

    @given(data=st.data())
    @settings(max_examples=300, deadline=None)
    def test_merge_matches_fraction_comparison(self, data):
        # The second state is empty, the same value in another unreduced
        # form, a value closer than 2**-53 relative (the float quotients
        # then mostly agree), or unrelated; "huge" lifts both past 2**1024.
        num = data.draw(st.integers(0, 1 << 200), label="num")
        den = data.draw(st.integers(1, 1 << 200), label="den")
        kind = data.draw(st.sampled_from(["empty", "equal", "near", "other"]))
        if data.draw(st.booleans(), label="huge"):
            num <<= 1100
        if kind == "empty":
            other = (-1, 1)
        elif kind == "equal":
            scale = st.integers(1, 1 << 64)
            m1, m2 = data.draw(st.tuples(scale, scale), label="scales")
            other = (num * m2, den * m2)
            num, den = num * m1, den * m1
        elif kind == "near":
            shift = data.draw(st.integers(54, 300), label="shift")
            delta = data.draw(st.integers(-3, 3), label="delta")
            other = (max(0, (num << shift) + delta), den << shift)
        else:
            other = (
                data.draw(st.integers(0, 1 << 200), label="num2"),
                data.draw(st.integers(1, 1 << 200), label="den2"),
            )
        k1 = data.draw(st.integers(0, 5), label="k1")
        a = (num, den, k1, data.draw(st.integers(0, 3), label="viol1"))
        if kind == "empty":
            b = (*other, -1, 0)
        else:
            k2 = data.draw(st.integers(0, 5), label="k2")
            b = (*other, k2, data.draw(st.integers(0, 3), label="viol2"))
        for state, part in ((a, b), (b, a)):
            sv, pv = Fraction(state[0], state[1]), Fraction(part[0], part[1])
            wins = pv > sv or (pv == sv and 0 <= part[2] < state[2])
            want = (part if wins else state)[:3] + (state[3] + part[3],)
            assert _merge(state, part) == want

    def test_merge_of_errors_beyond_float_range(self):
        # At p = 3, n = 100000 the errors exceed 2**1024 ulps, past what a
        # float quotient can hold; the merge must fall back to integers.
        r = exhaustive_max_error(3, 100000, chunk_size=1)
        assert r.max_error > 1 << 1100
        assert r.argmax_x.significand == 5
        assert r.violations == 1


class TestExactKernel:
    """``_scan_exact`` ranks errors by their float quotients first; its best
    and violation count must be those of an exact ranking of the errors."""

    @staticmethod
    def ranked(p, n, ties_away, k_lo, k_hi):
        errs = []
        for k in range(k_lo, k_hi):
            num, den, _, _ = _scan_exact((p, n, ties_away, k, k + 1))
            errs.append(Fraction(num, den))
        num, den, best_k, viol = _scan_exact((p, n, ties_away, k_lo, k_hi))
        assert Fraction(num, den) == max(errs)
        assert best_k == k_lo + errs.index(max(errs))
        assert viol == sum(err > n - 1 for err in errs)
        return errs

    @settings(max_examples=40, deadline=None)
    @given(
        p=st.integers(27, 40),
        n=st.integers(100, 600),
        ties_away=st.booleans(),
        data=st.data(),
    )
    def test_large_n_windows(self, p, n, ties_away, data):
        k_lo = data.draw(st.integers(0, (1 << (p - 1)) - 8), label="k_lo")
        width = data.draw(st.integers(2, 8), label="width")
        self.ranked(p, n, ties_away, k_lo, k_lo + width)

    def test_errors_beyond_float_range(self):
        # Five of these errors pass 2**1024 ulps, where the float quotient
        # overflows; the largest of them is neither the first nor the last.
        errs = self.ranked(4, 90000, True, 0, 8)
        huge = [k for k, err in enumerate(errs) if err > 1 << 1024]
        assert len(huge) == 5 and huge[0] < errs.index(max(errs)) < huge[-1]

    def test_equal_errors_keep_the_smallest_k(self):
        # At n = 1 every error is 0.
        for p, k_lo in ((27, 0), (33, 12345), (40, 1 << 38)):
            assert self.ranked(p, 1, False, k_lo, k_lo + 5)[0] == 0


def _both_kernels(p, n, k_lo, k_hi, mode=EVEN):
    """The binary64 kernel's tuple, after checking it equals the integer kernel's."""
    args = (p, n, mode is AWAY, k_lo, k_hi)
    fast = _scan_binary64(args)
    assert fast == _scan_exact(args), args
    return fast


def _window(p, k, radius):
    return max(0, k - radius), min(1 << (p - 1), k + radius + 1)


def _away_n_cap(p):
    """The largest n of the binary64 kernel's TIES_AWAY gate, n * 2**12 <= 2**(2p)."""
    return 1 << (2 * p - 12)


def _away_params(data):
    """(p, n) inside the binary64 kernel's TIES_AWAY gates."""
    p = data.draw(st.integers(7, 25), label="p")
    cap = _away_n_cap(p)
    n = data.draw(st.integers(2, min(40, cap)) | st.sampled_from([100, 600, 970])
                  .map(lambda n: min(n, cap)), label="n")
    return p, n


class TestBinary64Kernel:
    @settings(max_examples=400, deadline=None)
    @given(data=st.data())
    def test_matches_integer_kernel_on_random_windows(self, data):
        p = data.draw(st.integers(2, 26), label="p")
        n = data.draw(st.integers(1, 40) | st.sampled_from([100, 600]), label="n")
        space = 1 << (p - 1)
        k_lo = data.draw(st.integers(0, space - 1), label="k_lo")
        width = data.draw(st.integers(1, 64 if n <= 40 else 6), label="width")
        _both_kernels(p, n, k_lo, min(space, k_lo + width))

    @settings(max_examples=400, deadline=None)
    @given(data=st.data())
    def test_ties_away_matches_integer_kernel_on_random_windows(self, data):
        p, n = _away_params(data)
        space = 1 << (p - 1)
        k_lo = data.draw(st.integers(0, space - 1), label="k_lo")
        width = data.draw(st.integers(1, 64 if n <= 40 else 6), label="width")
        _both_kernels(p, n, k_lo, min(space, k_lo + width), AWAY)

    def test_matches_integer_kernel_on_whole_binades(self):
        for p in range(2, 11):
            for n in (2, 3, 5, 8, 13):
                _both_kernels(p, n, 0, 1 << (p - 1))
        for p in range(7, 14):  # TIES_AWAY, inside its n gate
            for n in (2, 3, 4, 5, 8, 13):
                if n <= _away_n_cap(p):
                    _both_kernels(p, n, 0, 1 << (p - 1), AWAY)

    @pytest.mark.parametrize("p", [8, 12, 16, 20, 24, 26])
    def test_exact_product_ties_at_even_p(self, p):
        # X0 = m * 2**(p/2 - 1) with m odd and X0**2 < 2**(2p-1): the square
        # has p-1 bits to drop, and exactly the top one of them is set.
        top = 1 << (2 * p - 1)
        X0s = [
            m << (p // 2 - 1)
            for m in range((1 << (p // 2)) + 1, 1 << (p // 2 + 1), 2)
            if (m << (p // 2 - 1)) ** 2 < top
        ]
        assert len(X0s) >= 3
        for X0 in X0s[:: max(1, len(X0s) // 6)]:
            x = Fraction(X0, 1 << (p - 1))
            assert oracle_round(x * x, p) != oracle_round(x * x, p, ties_away=True)
            k = X0 - (1 << (p - 1))
            for mode in (EVEN, AWAY) if p <= 25 else (EVEN,):  # TIES_AWAY: p <= 25
                for n in (2, 3, 7):
                    num, den, _, _ = _both_kernels(p, n, k, k + 1, mode)
                    want = oracle_error_ulps(oracle_power(x, n, p, mode is AWAY), x**n, p)
                    assert Fraction(num, den) == want
                    _both_kernels(p, n, *_window(p, k, 8), mode)

    # (p, j, k): step j of x = 1 + k * 2**(1-p) rounds up to a power of two,
    # so the significand reaches 2**p and the exponent moves on.
    ROUND_UP_CASES = [
        (8, 2, 53),
        (12, 7, 1662),
        (16, 3, 8517),
        (16, 3, 19248),
        (20, 7, 254801),
        (24, 6, 1027286),
    ]

    @pytest.mark.parametrize("p,j,k", ROUND_UP_CASES)
    def test_step_rounding_up_to_two_to_the_p(self, p, j, k):
        x = Fraction((1 << (p - 1)) + k, 1 << (p - 1))
        prev = oracle_power(x, j - 1, p)
        y = oracle_power(x, j, p)
        assert y > x * prev
        assert y.numerator & (y.numerator - 1) == 0  # a power of two
        assert y.denominator & (y.denominator - 1) == 0
        for n in (j, j + 1, j + 4):
            num, den, _, _ = _both_kernels(p, n, k, k + 1)
            assert Fraction(num, den) == oracle_error_ulps(oracle_power(x, n, p), x**n, p)
            _both_kernels(p, n, *_window(p, k, 16))

    @pytest.mark.parametrize("p", [2, 3, 9, 17, 26])
    def test_n1_and_n2(self, p):
        space = 1 << (p - 1)
        for lo, hi in ((0, min(space, 40)), (space // 3, min(space, space // 3 + 40))):
            num, _, k, viol = _both_kernels(p, 1, lo, hi)
            assert (num, k, viol) == (0, lo, 0)
            _both_kernels(p, 2, lo, hi)

    def test_equal_errors_keep_the_smallest_k(self):
        # For n >= 2 no window at p <= 12 has its maximum attained twice
        # (checked exhaustively), so the ties come from n = 1, where every
        # error is 0, and from chunk merges of such ranges.
        for lo in (0, 5, 17):
            assert _both_kernels(7, 1, lo, 40)[2] == lo
        r = exhaustive_max_error(7, 1, k_start=9, k_stop=60, chunk_size=4)
        assert r.argmax_x.significand == (1 << 6) + 9

    @pytest.mark.parametrize("p,n,k_big,k_viol", [(4, 600, 3, 5), (5, 1000, 4, 5), (6, 600, 8, 13)])
    def test_violation_below_the_running_best_is_counted(self, p, n, k_big, k_viol):
        # Candidate k_viol exceeds the (n-1)-ulp line but not the error of
        # the earlier k_big, so only the violation line makes it be scored.
        big = _both_kernels(p, n, k_big, k_big + 1)
        viol = _both_kernels(p, n, k_viol, k_viol + 1)
        assert viol[3] == 1
        assert viol[0] * big[1] < big[0] * viol[1]
        assert _both_kernels(p, n, k_big, k_viol + 1)[3] >= 2
        _both_kernels(p, n, 0, 1 << (p - 1))

    @settings(max_examples=120, deadline=None)
    @given(data=st.data())
    def test_documented_slack_bounds_the_estimate(self, data):
        """|rho_hat - rho| <= gamma_n * rho, the bound the filter relies on.

        rho_hat is formed as the kernel forms it: e = x**n by n-1 rounded
        products, then the exact computed power divided by e.  The kernel
        divides both by 2**ec, which is exact, so its estimate is this same
        double.
        """
        p = data.draw(st.integers(2, 26), label="p")
        n = data.draw(st.integers(2, 40) | st.sampled_from([100, 600]), label="n")
        k = data.draw(st.integers(0, (1 << (p - 1)) - 1), label="k")
        x = Fraction((1 << (p - 1)) + k, 1 << (p - 1))
        computed = oracle_power(x, n, p)
        e = float(x)
        for _ in range(n - 1):
            e *= float(x)
        rho_hat = Fraction(float(computed) / e)
        rho = computed / x**n
        u = Fraction(1, 1 << 53)
        gamma = n * u / (1 - n * u)
        assert abs(rho_hat - rho) <= gamma * rho
        # The pass-1 floor, from the kernel's own gamma, is below |rho - 1|.
        g = n * 2.0**-53 / (1.0 - n * 2.0**-53) * (1.0 + search._NUDGE)
        assert Fraction(search._error_floor(float(rho_hat), g)) <= abs(rho - 1)

    @settings(max_examples=300, deadline=None)
    @given(
        rho_hat=st.floats(0.999, 1.001) | st.floats(2.0**-512, 2.0**512),
        n=st.integers(2, 1 << 34),
    )
    def test_error_floor_is_below_the_exact_floor(self, rho_hat, n):
        g = n * 2.0**-53 / (1.0 - n * 2.0**-53) * (1.0 + search._NUDGE)
        r, gf = Fraction(rho_hat), Fraction(g)
        exact = max(r / (1 + gf) - 1, 1 - r / (1 - gf))
        assert Fraction(search._error_floor(rho_hat, g)) <= exact

    @settings(max_examples=120, deadline=None)
    @given(data=st.data())
    def test_widened_slack_bounds_the_ties_away_estimate(self, data):
        """At TIES_AWAY e runs on xa = x + a, a = 2**-2p, so rho_hat estimates
        v / xa**n: rho * (1 - gamma_n - n*a) <= rho_hat <= rho * (1 + gamma_n).
        The kernel's gamma covers both sides, and its floor stays below
        |rho - 1|."""
        p, n = _away_params(data)
        k = data.draw(st.integers(0, (1 << (p - 1)) - 1), label="k")
        x = Fraction((1 << (p - 1)) + k, 1 << (p - 1))
        a = Fraction(1, 1 << (2 * p))
        xa = float(x + a)
        assert xa == x + a
        computed = oracle_power(x, n, p, ties_away=True)
        e = xa
        for _ in range(n - 1):
            e *= xa
        rho_hat = Fraction(float(computed) / e)
        rho = computed / x**n
        u = Fraction(1, 1 << 53)
        gamma = n * u / (1 - n * u)
        assert rho * (1 - gamma - n * a) <= rho_hat <= rho * (1 + gamma)
        g = search._gamma(n, float(a))  # the kernel's own slack
        assert Fraction(g) >= gamma + n * a
        assert Fraction(search._error_floor(float(rho_hat), g)) <= abs(rho - 1)

    def test_dispatch(self, monkeypatch):
        def refuse(args):
            raise AssertionError(f"integer kernel used for {args}")

        monkeypatch.setattr(search, "_scan_exact", refuse)
        for args in (
            (20, 6, False, 0, 64),
            (2, 1025, False, 0, 2),  # n - 1 = 2**(p+8)
            (20, 6, True, 0, 64),
            (25, 2, True, 0, 64),
            (7, 4, True, 0, 64),  # n * 2**12 = 2**(2p)
        ):
            _scan_chunk(args)
        for args in (
            (26, 6, True, 0, 64),  # TIES_AWAY at p = 26
            (27, 6, False, 0, 64),  # p > 26
            (53, 6, False, 0, 64),
            (20, 1, False, 0, 64),  # n = 1
            (20, 1, True, 0, 64),
            (2, 1026, False, 0, 2),  # beyond n - 1 <= 2**(p+8)
            (21, (1 << 29) + 2, True, 0, 2),
            (7, 5, True, 0, 64),  # beyond n * 2**12 <= 2**(2p)
            (12, 4097, True, 0, 64),
        ):
            with pytest.raises(AssertionError):
                _scan_chunk(args)


class TestP53:
    """At p = 53, TIES_EVEN steps by the double product, TIES_AWAY by the
    integer step; both are checked against ``fp_mul``'s integer step (via
    ``spot_error``) and the brute-force oracle, at every n."""

    TOP = (1 << 52) - 5
    WINDOWS = [0, TOP, 4507062722867963 - (1 << 52) - 2]

    @pytest.mark.parametrize("mode", [EVEN, AWAY])
    @pytest.mark.parametrize("n", [2, 3, 6, 100, 2000])
    def test_windows(self, mode, n):
        for k_lo in self.WINDOWS:
            num, den, best_k, viol = _scan_chunk((53, n, mode is AWAY, k_lo, k_lo + 5))
            errs = [spot_error(FpNumber(1, (1 << 52) + k, 0, 53), n, mode)
                    for k in range(k_lo, k_lo + 5)]
            assert Fraction(num, den) == max(errs)
            assert best_k == k_lo + errs.index(max(errs))
            assert viol == sum(err > n - 1 for err in errs) == 0
            x = Fraction((1 << 52) + best_k, 1 << 52)
            computed = oracle_power(x, n, 53, mode is AWAY)
            assert Fraction(num, den) == oracle_error_ulps(computed, x**n, 53)

    @pytest.mark.parametrize("mode", [EVEN, AWAY])
    def test_exact_product_ties(self, mode):
        # X0 = m * 2**26 with m odd and m**2 > 2**53: the square has 53 bits
        # to drop, and exactly the top one of them is set.
        for m in (94906267, 100000001, (1 << 27) - 1):
            X0 = m << 26
            x = Fraction(X0, 1 << 52)
            assert oracle_round(x * x, 53) != oracle_round(x * x, 53, ties_away=True)
            for n in (2, 3, 7):
                k = X0 - (1 << 52)
                num, den, _, _ = _scan_chunk((53, n, mode is AWAY, k, k + 1))
                want = oracle_error_ulps(oracle_power(x, n, 53, mode is AWAY), x**n, 53)
                assert Fraction(num, den) == want

    @pytest.mark.parametrize("j,k", [(12, 246644481635288), (1284, 2429960675927)])
    def test_step_rounding_up_to_two(self, j, k):
        # Step j of x = 1 + k * 2**-52 multiplies to just below 2 and rounds
        # to 2, which the double step halves to 1 with ec up by one.
        x = Fraction((1 << 52) + k, 1 << 52)
        prev = oracle_power(x, j, 53)
        assert x * prev < 2
        assert oracle_power(x, j + 1, 53) == 2
        for n in (j + 1, j + 2, j + 5):
            num, den, _, _ = _scan_chunk((53, n, False, k, k + 1))
            assert Fraction(num, den) == spot_error(FpNumber(1, (1 << 52) + k, 0, 53), n)
            assert Fraction(num, den) == oracle_error_ulps(oracle_power(x, n, 53), x**n, 53)


@pytest.mark.parametrize("mode", [EVEN, AWAY])
def test_no_violation_up_to_n_max(mode):
    """The paper's theorem: below n_max(p), x**n computed naively is within
    (n-1) ulps for every x, under either tie rule, checked over whole binades."""
    for p in range(5, 13):
        for n in range(2, n_max(p) + 1):
            assert exhaustive_max_error(p, n, mode).violations == 0, (p, n)


def _binades(x, n, p):
    """b_1 .. b_{n-1}: the binade of each exact product x * v in the power
    iteration, v the rounded power before it, from exact fractions."""
    v, out = x, []
    for _ in range(n - 1):
        z = x * v
        out.append(z.numerator.bit_length() - z.denominator.bit_length()
                   - (z.numerator << z.denominator.bit_length()
                      < z.denominator << z.numerator.bit_length()))
        v = oracle_round(z, p)
    return out


@pytest.fixture
def forced_runs(monkeypatch):
    """Look for runs, at n <= ``_RUN_MAX_N``, in every range of ``min_run`` + 2
    candidates or more, whatever the binade's runs average."""

    def force(min_run):
        monkeypatch.setattr(search, "_RUN_GATE", 0)
        monkeypatch.setattr(search, "_MIN_RUN", min_run)

    return force


class TestRunKernel:
    """The branch-free loop over runs of candidates with the same binades."""

    @pytest.mark.parametrize("n", range(2, 41))
    def test_whole_binades_in_any_chunking(self, n, forced_runs):
        p = 10
        space = 1 << (p - 1)
        plans = [(None, (1, space)), (0, (2, 3, 5, 64, space)), (3, (5, 64, space))]
        for min_run, sizes in plans:
            if min_run is not None:
                forced_runs(min_run)
            for size in sizes:
                for lo in range(0, space, size):
                    _both_kernels(p, n, lo, min(space, lo + size))

    @pytest.mark.parametrize("n", range(2, 41))
    def test_whole_ties_away_binades_in_any_chunking(self, n, forced_runs):
        # A run's constants come from the iteration on xa.  From n = 25 on,
        # candidate 484 has a tie that moves a binade: its constants from
        # the ties-even iteration on x would be wrong for the run after it.
        p = 10
        space = 1 << (p - 1)
        for min_run, sizes in ((None, (1, space)), (0, (2, 3, 64, space))):
            if min_run is not None:
                forced_runs(min_run)
            for size in sizes:
                for lo in range(0, space, size):
                    _both_kernels(p, n, lo, min(space, lo + size), AWAY)

    # At p = 2, n = 1100 is past the binary64 kernel's range gate.
    GATE_CASES = [(p, n) for p in (2, 24, 26) for n in (259, 515, 969, 970, 1100)
                  if n <= (1 << (p + 8)) + 1]

    @pytest.mark.parametrize("p,n", GATE_CASES)
    def test_runs_only_where_the_constants_stay_finite(self, p, n, forced_runs, monkeypatch):
        # Windows at the top of the binade, where x is near 2 and so every
        # b_j is near j: the largest constants any run at this n can need.
        # At p = 2 the two candidates, 1 and 1.5, never share their s.  The
        # estimates are the branching loop's, so the filter still keeps few
        # candidates.
        built, kept = [], []

        def spy(*args):
            c1, consts, unscale = run_constants(*args)
            built.append(all(map(math.isfinite, (c1, *consts, unscale))))
            return c1, consts, unscale

        run_constants, error_floor = search._run_constants, search._error_floor
        monkeypatch.setattr(search, "_run_constants", spy)
        monkeypatch.setattr(search, "_error_floor", lambda *a: kept.append(a) or error_floor(*a))
        space = 1 << (p - 1)
        for min_run in (0, 8):
            forced_runs(min_run)
            kept.clear()
            _both_kernels(p, n, max(0, space - 48), space)
            assert len(kept) <= 4
        assert all(built)
        assert search._RUN_MAX_N == 969
        assert bool(built) == (n <= 969 and p > 2)

    @pytest.mark.parametrize("p", [2, 3])
    def test_at_the_range_gate(self, p):
        # n = 2**(p+8) + 1 is past _RUN_MAX_N, so every candidate is walked.
        n = (1 << (p + 8)) + 1
        space = 1 << (p - 1)
        for size in (1, 2, space):
            for lo in range(0, space, size):
                _both_kernels(p, n, lo, min(space, lo + size))

    @settings(max_examples=60, deadline=None)
    @given(
        p=st.integers(6, 20),
        n=st.integers(2, 24),
        data=st.data(),
    )
    def test_equal_sums_mean_equal_binades_between(self, p, n, data):
        """Each b_j is non-decreasing in x, so two candidates whose sums S
        agree have the same b_j, and so has every candidate between them.
        The walk's s holds that S and the last binade ec."""
        space = 1 << (p - 1)
        k_a = data.draw(st.integers(0, space - 2), label="k_a")
        k_b = data.draw(st.integers(k_a + 1, min(space - 1, k_a + 12)), label="k_b")
        rows = [_binades(Fraction(space + k, space), n, p) for k in range(k_a, k_b + 1)]
        for below, above in zip(rows, rows[1:]):
            assert all(b <= c for b, c in zip(below, above))
        if sum(rows[0]) == sum(rows[-1]):
            assert all(row == rows[0] for row in rows)
        m = (n - 1) * n // 2 + 1
        walks = search._walks(k_a, k_b + 1, 2.0 ** (1 - p), range(m + n - 1, m, -1),
                              1.5 * 2.0 ** (53 - p))
        assert [divmod(s, m) for _, _, _, s in walks] == [(row[-1], sum(row)) for row in rows]

    def test_a_binade_scan_chunk_walks_few_candidates(self, monkeypatch):
        # At p = 20, n = 6 a whole 8192-candidate chunk is one run or two:
        # walking each candidate again would show here.
        walked = []

        def spy(k_lo, k_hi, *rest):
            walked.append(k_hi - k_lo)
            return walks(k_lo, k_hi, *rest)

        walks = search._walks
        monkeypatch.setattr(search, "_walks", spy)
        for lo in (0, 1 << 17, 3 << 17):
            _scan_chunk((20, 6, False, lo, lo + 8192))
        assert sum(walked) < 3 * 8192 // 64


class TestCheckpointing:
    def test_interrupt_and_resume_bit_identical(self, tmp_path):
        ck = str(tmp_path / "scan.json")
        p, n, chunk = 11, 4, 200

        class Stop(Exception):
            pass

        calls = []

        def bail_after_two(done, total):
            calls.append(done)
            if len(calls) == 2:
                raise Stop()

        with pytest.raises(Stop):
            exhaustive_max_error(p, n, chunk_size=chunk, checkpoint=ck, progress=bail_after_two)
        with open(ck) as f:
            state = json.load(f)
        assert state["schema_version"] == 2
        assert state["next_k"] == 2 * chunk
        resumed = exhaustive_max_error(p, n, chunk_size=chunk, checkpoint=ck)
        clean = exhaustive_max_error(p, n, chunk_size=chunk)
        assert resumed == clean

    def test_finished_checkpoint_resumes_to_same_report(self, tmp_path):
        ck = str(tmp_path / "scan.json")
        first = exhaustive_max_error(10, 3, chunk_size=128, checkpoint=ck)
        again = exhaustive_max_error(10, 3, chunk_size=128, checkpoint=ck)
        assert first == again

    def test_mismatched_checkpoint_rejected(self, tmp_path):
        ck = str(tmp_path / "scan.json")
        exhaustive_max_error(10, 3, chunk_size=128, checkpoint=ck)
        with pytest.raises(ValueError):
            exhaustive_max_error(10, 4, chunk_size=128, checkpoint=ck)

    def test_big_numerator_checkpoint_resumes_to_same_bytes(
        self, tmp_path, default_int_digit_limit
    ):
        # The best error's numerator has about 8700 decimal digits, past the
        # default int-to-str limit.  The checkpoint is written before any
        # report is rendered, so no earlier render can have moved the limit.
        ck = str(tmp_path / "scan.json")
        argv = ["search", "--p", "24", "--n", "600", "--around", "16000000",
                "--radius", "32", "--jobs", "1", "--format", "json"]

        class Stop(Exception):
            pass

        def bail(done, total):
            raise Stop()

        lo, hi = 16000000 - (1 << 23) - 32, 16000000 - (1 << 23) + 33
        with pytest.raises(Stop):
            exhaustive_max_error(24, 600, k_start=lo, k_stop=hi, chunk_size=16,
                                 checkpoint=ck, progress=bail)
        assert os.path.getsize(ck) < 300
        resumed = run(argv + ["--checkpoint", ck])
        finished = run(argv + ["--checkpoint", ck])
        clean = run(argv)
        assert clean[0] == 0
        assert resumed == finished == clean
        numerator = json.loads(clean[1])["rows"][0]["max_error"]["fraction"].split("/")[0]
        assert len(numerator) > 4300

    def test_forged_checkpoint_reports_the_error_at_argmax(self, tmp_path):
        # A well-formed state that names a best_k which is not the binade's
        # worst case: the report's error is still the one attained there
        # (0.3966 ulps at 131/2^7), not a stored figure.
        ck = tmp_path / "scan.json"
        ck.write_text(json.dumps({
            "schema_version": 2, "p": 8, "n": 3, "mode": "even", "k_start": 0,
            "k_stop": 128, "next_k": 128, "best_k": 3, "violations": 0,
        }))
        report = exhaustive_max_error(8, 3, checkpoint=str(ck))
        assert report.argmax_x.to_fraction() == Fraction(131, 128)
        assert report.max_error == spot_error(report.argmax_x, 3)

    def test_existing_tmp_directory_does_not_block_writes(self, tmp_path):
        ck = tmp_path / "scan.json"
        (tmp_path / "scan.json.tmp").mkdir()
        report = exhaustive_max_error(10, 3, chunk_size=128, checkpoint=str(ck))
        assert report == exhaustive_max_error(10, 3, chunk_size=128)
        assert json.loads(ck.read_text())["next_k"] == 512

    def test_no_temp_file_left_behind(self, tmp_path):
        ck = tmp_path / "scan.json"
        exhaustive_max_error(10, 3, chunk_size=128, checkpoint=str(ck))
        assert [f.name for f in tmp_path.iterdir()] == ["scan.json"]

    def test_fsync_runs_before_replace(self, tmp_path, monkeypatch):
        events = []
        real_fsync, real_replace = search.os.fsync, search.os.replace

        def fsync(fd):
            events.append("fsync")
            real_fsync(fd)

        def replace(src, dst):
            events.append("replace")
            real_replace(src, dst)

        monkeypatch.setattr(search.os, "fsync", fsync)
        monkeypatch.setattr(search.os, "replace", replace)
        exhaustive_max_error(10, 3, chunk_size=128, checkpoint=str(tmp_path / "scan.json"))
        assert events == ["fsync", "replace"] * 4

    def test_failed_write_removes_temp_file(self, tmp_path, monkeypatch):
        def replace(src, dst):
            raise OSError("disk gone")

        monkeypatch.setattr(search.os, "replace", replace)
        with pytest.raises(OSError, match="disk gone"):
            exhaustive_max_error(10, 3, chunk_size=128, checkpoint=str(tmp_path / "scan.json"))
        assert list(tmp_path.iterdir()) == []

    def test_unknown_schema_rejected(self, tmp_path):
        ck = tmp_path / "scan.json"
        ck.write_text('{"schema_version": 99}')
        with pytest.raises(ValueError):
            exhaustive_max_error(10, 3, checkpoint=str(ck))

    def test_progress_reports_totals(self):
        seen = []
        exhaustive_max_error(9, 3, chunk_size=100, progress=lambda d, t: seen.append((d, t)))
        assert seen[-1] == (256, 256)
        assert [d for d, _ in seen] == sorted(d for d, _ in seen)

    def test_pooled_scan_checkpoints_like_serial(self, tmp_path):
        # a pooled scan writes every chunk's checkpoint and progress call in
        # the same order, with the same bytes, as a serial one
        def record(jobs):
            ck = tmp_path / f"scan-{jobs}.json"
            seen = []
            report = exhaustive_max_error(
                10, 4, jobs=jobs, chunk_size=100, checkpoint=str(ck),
                progress=lambda d, t: seen.append((d, t, ck.read_bytes())),
            )
            return report, seen

        serial, pooled = record(1), record(2)
        assert len(serial[1]) == 6  # 512 candidates in chunks of 100
        assert pooled == serial


CHECKPOINT_KEYS = {"schema_version", "p", "n", "mode", "k_start", "k_stop",
                   "next_k", "best_k", "violations"}


@settings(max_examples=60, deadline=None)
@given(
    p=st.integers(3, 12),
    n=st.sampled_from([1, 2, 3, 5, 8, 40, 100]),
    mode=st.sampled_from([EVEN, AWAY]),  # EVEN at n >= 2 runs the binary64 kernel
    data=st.data(),
)
def test_resume_after_any_chunk_equals_a_clean_scan(p, n, mode, data):
    space = 1 << (p - 1)
    k_start = data.draw(st.integers(0, space - 1))
    k_stop = data.draw(st.integers(k_start + 1, space))
    size = k_stop - k_start
    chunk = data.draw(st.integers(max(1, size // 16), size))
    stop_after = data.draw(st.integers(1, -(-size // chunk)))

    class Stop(Exception):
        pass

    def bail(done, total):
        if done >= min(stop_after * chunk, size):
            raise Stop()

    window = dict(k_start=k_start, k_stop=k_stop, chunk_size=chunk)
    with tempfile.TemporaryDirectory() as tmp:
        ck = os.path.join(tmp, "scan.json")
        with pytest.raises(Stop):
            exhaustive_max_error(p, n, mode, checkpoint=ck, progress=bail, **window)
        with open(ck) as f:
            assert set(json.load(f)) == CHECKPOINT_KEYS
        resumed = exhaustive_max_error(p, n, mode, checkpoint=ck, **window)
    assert resumed == exhaustive_max_error(p, n, mode, **window)


class QueueingPool:
    """Stands in for the ProcessPoolExecutor that ``search._pool`` builds,
    and runs chunks in-process.  Like the real pool, ``submit`` queues a
    chunk, a chunk's result is ready once it and every chunk queued before
    it have run, and ``shutdown`` runs what is still queued unless
    ``cancel_futures`` is set.  ``ran`` counts the chunks run, and
    ``most_queued`` is the most chunks queued at once."""

    def __init__(self, max_workers):
        self.max_workers = max_workers
        self.queue = []
        self.ran = 0
        self.most_queued = 0
        POOLS.append(self)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.shutdown()

    def submit(self, fn, chunk):
        job = QueuedJob(self, fn, chunk)
        self.queue.append(job)
        self.most_queued = max(self.most_queued, len(self.queue))
        return job

    def _run_next(self):
        job = self.queue.pop(0)
        self.ran += 1
        job.value = job.fn(job.chunk)

    def shutdown(self, wait=True, *, cancel_futures=False):
        if cancel_futures:
            self.queue.clear()
        while self.queue:
            self._run_next()


class QueuedJob:
    """The future ``QueueingPool.submit`` returns."""

    def __init__(self, pool, fn, chunk):
        self.pool, self.fn, self.chunk = pool, fn, chunk

    def result(self):
        while not hasattr(self, "value"):
            self.pool._run_next()
        return self.value


POOLS: list[QueueingPool] = []


class TestPool:
    @pytest.fixture(autouse=True)
    def queueing_pool(self, monkeypatch):
        POOLS.clear()
        monkeypatch.setattr(search, "_pool", QueueingPool)

    class Stop(Exception):
        pass

    def test_failed_checkpoint_write_cancels_queued_chunks(self, tmp_path, monkeypatch):
        def fail(path, payload):
            raise self.Stop()

        monkeypatch.setattr(search, "_write_checkpoint", fail)
        with pytest.raises(self.Stop):
            exhaustive_max_error(12, 6, jobs=2, chunk_size=256,
                                 checkpoint=str(tmp_path / "scan.json"))
        (pool,) = POOLS
        assert pool.ran == 1  # of 8 chunks

    def test_failed_progress_callback_cancels_queued_chunks(self):
        def fail(done, total):
            if done == 512:
                raise self.Stop()

        with pytest.raises(self.Stop):
            exhaustive_max_error(12, 6, jobs=2, chunk_size=256, progress=fail)
        (pool,) = POOLS
        assert pool.ran == 2

    @pytest.mark.parametrize("jobs,chunk_size,workers", [
        (64, 512, 2), (3, 512, 2), (2, 256, 2), (64, 256, 4), (3, 256, 3),
    ])
    def test_workers_bounded_by_chunk_count(self, jobs, chunk_size, workers, monkeypatch):
        monkeypatch.setattr(os, "cpu_count", lambda: 64)
        report = exhaustive_max_error(11, 5, jobs=jobs, chunk_size=chunk_size)
        (pool,) = POOLS
        assert pool.max_workers == workers
        assert pool.ran == 1024 // chunk_size
        assert pool.most_queued <= 2 * workers
        assert report == exhaustive_max_error(11, 5, chunk_size=chunk_size)

    @pytest.mark.parametrize("cpus,workers", [(3, 3), (1, None), (None, None)])
    def test_workers_bounded_by_cpu_count(self, cpus, workers, monkeypatch):
        # 4 chunks; an unknown CPU count allows one worker, which is no pool
        monkeypatch.setattr(os, "cpu_count", lambda: cpus)
        report = exhaustive_max_error(11, 5, jobs=64, chunk_size=256)
        assert [pool.max_workers for pool in POOLS] == ([workers] if workers else [])
        assert report == exhaustive_max_error(11, 5, chunk_size=256)

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_memory_does_not_grow_with_the_chunk_count(self, jobs, monkeypatch):
        # Each chunk is one candidate scored as 0 without any work, so what
        # could grow is the scan's own bookkeeping: a list of 2**14 chunk
        # tuples, made up front, would take about 2.5 MB.
        monkeypatch.setattr(search, "_scan_chunk", lambda args: (0, 1, args[3], 0))
        monkeypatch.setattr(os, "cpu_count", lambda: 2)

        def peak(chunks):
            tracemalloc.start()
            try:
                exhaustive_max_error(20, 3, k_stop=chunks, jobs=jobs, chunk_size=1)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        small, large = peak(1 << 8), peak(1 << 14)
        assert large < small + (64 << 10)
        assert all(pool.most_queued <= 4 for pool in POOLS)

    @pytest.mark.parametrize("jobs", [2, 64])
    def test_one_chunk_starts_no_pool(self, jobs):
        exhaustive_max_error(11, 5, jobs=jobs, chunk_size=1024)
        assert POOLS == []


def test_real_pool_is_shut_down_after_a_failure():
    import multiprocessing

    class Stop(Exception):
        pass

    def fail(done, total):
        raise Stop()

    with pytest.raises(Stop):
        exhaustive_max_error(12, 6, jobs=2, chunk_size=256, progress=fail)
    assert multiprocessing.active_children() == []


class TestPrecisionValidation:
    @pytest.mark.parametrize("p", [1, 0, -3, 2.0])
    def test_bad_precision_rejected_before_any_shift(self, p):
        with pytest.raises(ValueError, match="precision must be an integer >= 2"):
            exhaustive_max_error(p, 3)


class TestSpotError:
    def test_x_equals_one(self):
        one = FpNumber(1, 1 << 23, 0, 24)
        for n in (1, 2, 7, 50):
            assert spot_error(one, n) == 0

    def test_matches_oracle_at_p53(self):
        x = FpNumber(1, 4503796447992526, 0, 53)
        got = spot_error(x, 10)
        want = oracle_error_ulps(
            oracle_power(x.to_fraction(), 10, 53), x.to_fraction() ** 10, 53
        )
        assert got == want
        assert to_decimal(got, 7) == "7.9534189"

    def test_mode_plumbed_through(self):
        # squaring x hits an exact tie; the tie rules pick different
        # neighbours, so the n = 3 step inherits different values
        x = FpNumber(1, (1 << 7) + 8, 0, 8)
        even = spot_error(x, 3, EVEN)
        away = spot_error(x, 3, AWAY)
        assert even != away
        assert even == Fraction(4352, 4913)
        assert away == Fraction(3840, 4913)

    @given(
        p=st.sampled_from([2, 3, 8, 24, 53, 113]),
        data=st.data(),
        exponent=st.integers(min_value=-200, max_value=200),
        sign=st.sampled_from([1, -1]),
        n=st.integers(min_value=1, max_value=40),
        mode=st.sampled_from([EVEN, AWAY]),
    )
    def test_invariant_under_binade_shifts(self, p, data, exponent, sign, n, mode):
        sig = data.draw(st.integers(min_value=1 << (p - 1), max_value=(1 << p) - 1))
        x = FpNumber(sign, sig, exponent, p)
        want = relative_error(naive_power(x, n, mode), x.to_fraction() ** n)
        assert spot_error(x, n, mode) == want

    def test_exponent_past_2_to_62(self):
        # x**3 at exponent 2**62 is x0**3 moved by 2**(3 * 2**62), never built
        # as a fraction; x's error is that of x0 = x / 2**e
        x0 = FpNumber(1, 8473808, 0, 24)
        x = x0._replace(exponent=2**62)
        assert spot_error(x, 3) == spot_error(x0, 3)
        base = naive_power(x0, 3)
        assert naive_power(x, 3) == base._replace(exponent=base.exponent + 3 * 2**62)
