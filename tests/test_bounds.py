import decimal
import re
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ulplab import (
    bound_set,
    check_lemma2,
    check_property1,
    check_refined_binary32_bound,
    n_max,
    psi_fractions,
    to_decimal,
)
from ulplab import bounds
from ulplab.bounds import (
    _decide,
    _iroot,
    _lemma2_decided,
    _lemma2_holds,
    _lemma2_samples,
    _power_bounds,
    _property1_holds,
    _refined_binary32_decided,
    _refined_binary32_holds,
)
from ulplab.exact import _STR_DC_BITS, _int_str
from conftest import int_digit_limit


class TestBoundSet:
    def test_gamma_p8_n3(self):
        b = bound_set(8, 3)
        # gamma_2 in ulps is 2/(1 - 2**-7) = 256/127
        assert b.gamma == Fraction(256, 127)
        assert to_decimal(b.gamma, 4) == "2.0157"

    def test_gamma_p9_n11(self):
        b = bound_set(9, 11)
        assert to_decimal(b.gamma, 3) == "10.199"

    def test_n2_degenerate(self):
        b = bound_set(16, 2)
        assert b.simple == 1
        assert b.psi == 1
        assert b.gamma == 1 / (1 - Fraction(1, 1 << 16))

    def test_gamma_undefined(self):
        with pytest.raises(ValueError):
            bound_set(4, 17)  # (n-1)u = 1

    @given(
        p=st.integers(min_value=5, max_value=64),
        n=st.integers(min_value=2, max_value=500),
    )
    def test_ordering(self, n, p):
        if (n - 1) >= (1 << p):
            with pytest.raises(ValueError):
                bound_set(p, n)
            return
        b = bound_set(p, n)
        assert b.simple <= b.psi <= b.gamma

    def test_precision_below_2_refused(self):
        with pytest.raises(ValueError, match="precision must be an integer >= 2, got 1"):
            bound_set(1, 3)

    def test_precision_not_an_integer_refused(self):
        with pytest.raises(ValueError, match=r"precision must be an integer >= 2, got 2\.5"):
            bound_set(2.5, 3)

    @pytest.mark.parametrize("n", [2.5, 3.0, None, True])
    def test_n_not_an_integer_refused(self, n):
        with pytest.raises(ValueError, match=f"^n must be an integer, got {n!r}$"):
            bound_set(24, n)

    @given(
        p=st.integers(min_value=2, max_value=120),
        n=st.integers(min_value=2, max_value=300),
    )
    @example(p=2, n=4)  # n = 2**p, the last n with (n-1)u < 1
    @example(p=3, n=8)
    @example(p=5, n=32)
    def test_matches_the_definitions(self, p, n):
        # Each field equals its relative bound, divided by u, in plain
        # Fraction arithmetic, and is in lowest terms: psi is built
        # without the constructor's reduction.
        n = min(n, 1 << p)
        k, u = n - 1, Fraction(1, 1 << p)
        b = bound_set(p, n)
        assert b.simple == k
        assert b.psi == ((1 + u) ** k - 1) / u
        assert b.gamma == k * u / (1 - k * u) / u
        for f in (b.psi, b.gamma):
            assert f.denominator > 0
            assert gcd(f.numerator, f.denominator) == 1


class TestPsiFractions:
    @settings(max_examples=60, deadline=None)
    @given(
        p=st.integers(min_value=5, max_value=200),
        lo=st.integers(min_value=2, max_value=600),
        length=st.integers(min_value=1, max_value=40),
    )
    @example(p=4096, lo=8, length=5)  # numerators cross _STR_DC_BITS
    @example(p=65536, lo=2, length=3)
    @example(p=5, lo=2, length=31)  # up to the last defined n, 2**p
    def test_matches_bound_set(self, p, lo, length):
        ns = range(lo, min(lo + length, (1 << p) + 1))
        expected = [
            f"{_int_str(b.psi.numerator)}/{_int_str(b.psi.denominator)}"
            for b in (bound_set(p, n) for n in ns)
        ]
        assert list(psi_fractions(p, ns)) == expected

    def test_examples_cross_the_rendering_threshold(self):
        # the big-p examples above reach _int_str's divide-and-conquer path
        assert bound_set(4096, 8).psi.numerator.bit_length() < _STR_DC_BITS
        assert bound_set(4096, 12).psi.numerator.bit_length() > _STR_DC_BITS
        assert bound_set(65536, 2).psi.numerator.bit_length() < _STR_DC_BITS
        assert bound_set(65536, 3).psi.numerator.bit_length() > _STR_DC_BITS

    def test_first_row_by_hand(self):
        # n = 2: psi is 1 ulp; n = 3: (2**5 + 1)**2 - 2**10 over 2**5
        assert list(psi_fractions(5, range(2, 4))) == ["1/1", "65/32"]

    @pytest.mark.parametrize(
        "ns", [range(1, 5), range(0, 3), range(5, 2, -1), range(2, 9, 2)]
    )
    def test_bad_range_refused_at_its_first_row(self, ns):
        fold = psi_fractions(24, ns)  # nothing is formed yet
        with pytest.raises(ValueError, match="range of consecutive n >= 2"):
            next(fold)

    @pytest.mark.parametrize("ns", [[2.5], [2, 3], (2, 3), "23"])
    def test_ns_that_is_not_a_range_refused(self, ns):
        message = f"need a range of consecutive n >= 2, got {ns!r}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            list(psi_fractions(24, ns))

    @pytest.mark.parametrize("p", [-1, 0, 1, 1.5])
    def test_precision_below_2_refused_as_bound_set_refuses_it(self, p):
        with pytest.raises(ValueError, match=f"precision must be an integer >= 2, got {p}"):
            list(psi_fractions(p, range(2, 4)))
        with pytest.raises(ValueError, match=f"precision must be an integer >= 2, got {p}"):
            bound_set(p, 2)

    def test_empty_range_forms_no_power(self, monkeypatch):
        # a fold that reached any power of 2**24 would fail on the bare object
        monkeypatch.setattr(bounds, "_EXACT", object())
        assert list(psi_fractions(24, range(10**9, 10**9))) == []

    def test_leaves_the_callers_decimal_context_alone(self):
        ctx = decimal.getcontext()

        def state():
            return ctx.prec, ctx.Emax, ctx.Emin, dict(ctx.traps), dict(ctx.flags)

        before = state()
        fold = psi_fractions(24, range(2, 100))
        next(fold)
        next(fold)  # suspended between rows
        assert decimal.getcontext() is ctx and state() == before
        fold.close()  # abandoned
        assert decimal.getcontext() is ctx and state() == before
        big = 3**30_000  # past _STR_DC_BITS: the decimal conversion
        assert big.bit_length() > _STR_DC_BITS
        text = _int_str(big)
        assert decimal.getcontext() is ctx and state() == before
        with int_digit_limit(0):
            assert text == str(big)


class TestIRoot:
    @given(
        a=st.integers(min_value=0, max_value=1 << 3000)
        | st.integers(min_value=0, max_value=1 << 200),
        k=st.integers(min_value=1, max_value=12),
    )
    @example(a=(1 << 1500) ** 3 - 1, k=3)  # one below a perfect power
    @example(a=(1 << 1500) ** 3, k=3)
    @example(a=(3**700) ** 4, k=4)
    def test_is_the_floor_of_the_root(self, a, k):
        x = _iroot(a, k)
        assert x**k <= a < (x + 1) ** k

    @pytest.mark.parametrize("a,k", [(-1, 3), (8, 0)])
    def test_bad_arguments_refused(self, a, k):
        with pytest.raises(ValueError, match="need a >= 0 and k >= 1"):
            _iroot(a, k)


class TestNMax:
    @pytest.mark.parametrize(
        "p,expected",
        [(24, 2088), (53, 48385542), (113, 51953580258461959)],
    )
    def test_reference_values(self, p, expected):
        assert n_max(p) == expected

    def test_requires_p_at_least_5(self):
        with pytest.raises(ValueError):
            n_max(4)

    @pytest.mark.parametrize("p", [24.0, 2.5, 1])
    def test_precision_refused_as_bound_set_refuses_it(self, p):
        with pytest.raises(ValueError, match=f"^precision must be an integer >= 2, got {p}$"):
            n_max(p)

    @pytest.mark.parametrize("p", [5, 6, 7, 8, 11, 24, 31, 53, 64, 113])
    def test_defining_inequality(self, p):
        # n_max is the largest n with n**2 * 2**-p <= 2**(1/3) - 1,
        # equivalently (n**2 + 2**p)**3 <= 2**(3p+1) in integers
        n = n_max(p)
        assert (n * n + (1 << p)) ** 3 <= 1 << (3 * p + 1)
        m = n + 1
        assert (m * m + (1 << p)) ** 3 > 1 << (3 * p + 1)

    @pytest.mark.parametrize("p", [4096, 65536])
    def test_defining_inequality_at_large_p(self, p):
        n, bound = n_max(p), 1 << (3 * p + 1)
        assert (n * n + (1 << p)) ** 3 <= bound < ((n + 1) ** 2 + (1 << p)) ** 3

    def test_closed_form_meets_predicate_for_every_p(self):
        # The closed form isqrt(floor(cbrt(2**(3p+1))) - 2**p) must be the
        # largest n meeting the integer predicate at every precision.
        for p in range(5, 301):
            n, bound = n_max(p), 1 << (3 * p + 1)
            assert (n * n + (1 << p)) ** 3 <= bound < ((n + 1) ** 2 + (1 << p)) ** 3, p


class TestPropertyChecks:
    def test_property1(self):
        report = check_property1()
        assert report.passed
        assert report.checked == 177  # k = 1, 2, 3 on 59 points

    def test_property1_k4_counterexample(self):
        # the k = 4 failure is real: some u = 2**-j, j = 4..60, has it
        us = [Fraction(1, 1 << j) for j in range(4, 61)]
        assert any((1 + u / (1 + u)) ** 4 >= 1 + 4 * u for u in us)

    def test_property1_k2_closed_form(self):
        # (1 + u/(1+u))**2 - (1 + 2u) = -u**2 (1+2u)/(1+u)**2, negative
        u = Fraction(1, 256)
        lhs = (1 + u / (1 + u)) ** 2 - (1 + 2 * u)
        assert lhs == -(u**2) * (1 + 2 * u) / (1 + u) ** 2
        assert lhs < 0

    def test_lemma2_default_grid(self):
        report = check_lemma2()
        assert report.passed
        assert report.checked == 296  # 8 chain lengths, 37 points each

    def test_lemma2_endpoint_exact(self):
        # boundary u = 2/(3 n**2) must be included and hold
        n = 100
        u = Fraction(2, 3 * n * n)
        lhs = (1 + u) ** (n - 2) * (1 + u / (1 + n * n * u))
        assert lhs <= 1 + (n - 1) * u

    def test_refined_binary32(self):
        report = check_refined_binary32_bound()
        assert report.passed
        assert report.checked == 2079  # n = 10 .. 2088

    def test_refined_binary32_endpoint_by_hand(self):
        # n = 10: lhs is exactly 7.06u and the bound is 7.1896u
        u = Fraction(1, 1 << 24)
        lhs = (1 + Fraction(706, 100) * u) * (1 + u) ** 0 - 1
        assert lhs == Fraction(706, 100) * u
        assert lhs <= (10 - Fraction(28104, 10000)) * u


# t in (0, 1]: Lemma 2 is tried at u = 16/(3n^2) * t, past its interval's end
# 2/(3n^2), so that it both holds and fails
_UNIT = st.fractions(min_value=0, max_value=1, max_denominator=1 << 32).filter(bool)


def _lemma2_fraction_form(n: int, u: Fraction) -> bool:
    return (1 + u) ** (n - 2) * (1 + u / (1 + n * n * u)) <= 1 + (n - 1) * u


class TestIntegerPredicates:
    """Each check suite's integer predicate decides what the plain Fraction
    inequality decides, case by case, on both sides of its outcome."""

    @settings(max_examples=80, deadline=None)
    @given(
        k=st.integers(min_value=1, max_value=6),
        u=st.fractions(min_value=0, max_value=16, max_denominator=1 << 40).filter(bool),
        g=st.integers(min_value=1, max_value=1 << 10),
    )
    @example(k=4, u=Fraction(1, 16), g=1)  # the k = 4 failure
    @example(k=4, u=Fraction(10), g=1)  # k = 4 holds for a large u
    @example(k=3, u=Fraction(3, 1000), g=7)
    def test_property1(self, k, u, g):
        # a/b is u unreduced by the factor g
        expected = (1 + u / (1 + u)) ** k < 1 + k * u
        a, b = g * u.numerator, g * u.denominator
        assert _property1_holds(k, a, b) == expected

    @settings(max_examples=60, deadline=None)
    @given(
        n=st.integers(min_value=3, max_value=1200),
        t=_UNIT,
        g=st.integers(min_value=1, max_value=1 << 10),
    )
    @example(n=3, t=Fraction(1), g=3)
    def test_lemma2(self, n, t, g):
        a, b = g * 16 * t.numerator, g * 3 * n * n * t.denominator
        expected = _lemma2_fraction_form(n, Fraction(16, 3 * n * n) * t)
        assert _lemma2_holds(n, a, b, b ** (n - 2)) == expected

    @pytest.mark.parametrize("n", [3, 4, 5, 6, 10, 32, 100, 1000])
    def test_lemma2_samples(self, n):
        # 0 to 2/(3n^2) in 16 equal steps, then the 20 largest 2**-j inside
        top = Fraction(2, 3 * n * n)
        us = [Fraction(a, b) for a, b in _lemma2_samples(n)]
        assert us[:17] == [top * j / 16 for j in range(17)]
        j = next(j for j in range(1, 64) if Fraction(1, 1 << j) <= top)
        assert us[17:] == [Fraction(1, 1 << jj) for jj in range(j, j + 20)]

    @pytest.mark.parametrize(
        "n,c,holds",
        [(10, 8, False), (100, 4, False), (1000, 4, False), (10, 4, True),
         (100, 2, True), (1000, 2, True)],
    )
    def test_lemma2_fails_past_its_interval(self, n, c, holds):
        # u = c/(3n^2); the lemma's interval ends at c = 2, and the
        # Hypothesis test above draws c up to 16
        b = 3 * n * n
        assert _lemma2_fraction_form(n, Fraction(c, b)) is holds
        assert _lemma2_holds(n, c, b, b ** (n - 2)) is holds

    def test_refined_binary32_matches_the_product_form(self):
        # n = 10..2200: true to 2088, false from 2089 on
        step, m_pow = (1 << 24) + 1, 1
        lhs = 100 * ((100 << 24) + 706)
        for n in range(10, 2201):
            rhs = ((10_000 << 24) + 10_000 * n - 28_104) << (24 * (n - 10))
            expected = 100 * ((100 << 24) + 706) * m_pow <= rhs
            assert _refined_binary32_holds(n, lhs) is expected is (n <= 2088), n
            lhs, m_pow = lhs * step, m_pow * step

    @pytest.mark.parametrize("n", [10, 11, 50, 2088])
    def test_refined_binary32_equal_tops(self, n):
        # lhs >> s equal to the bound's r: only the low bits decide
        s, r = 24 * (n - 10), (10_000 << 24) + 10_000 * n - 28_104
        assert _refined_binary32_holds(n, r << s)
        assert _refined_binary32_holds(n, (r << s) - 1)
        assert not _refined_binary32_holds(n, (r << s) + 1)
        assert not _refined_binary32_holds(n, (r + 1) << s)


_LEMMA2_REPORT = bounds.CheckReport("lemma2", True, 296)
_REFINED_REPORT = bounds.CheckReport("refined_binary32", True, 2079)


class TestIntervalDecision:
    """The fixed-point intervals decide what the exact predicates decide, and
    a case they leave open goes to the exact predicate."""

    @settings(max_examples=80, deadline=None)
    @given(
        den=st.integers(min_value=1, max_value=1 << 41),
        step=st.integers(min_value=0, max_value=1 << 10),
        k=st.integers(min_value=0, max_value=2100),
    )
    @example(den=3, step=0, k=998)  # a base of exactly 1
    @example(den=1 << 40, step=1, k=998)  # the tightest Lemma 2 case's power
    @example(den=1 << 24, step=1, k=2078)  # the refined bound's last power
    def test_power_bounds_enclose_the_power(self, den, step, k):
        # lo <= (num/den)**k * 2**F <= hi, with a relative width below 2**(13-F)
        F, num = bounds._FRACTION_BITS, den + step
        lo, hi = _power_bounds(num, den, k)
        exact = num**k << F
        assert lo * den**k <= exact <= hi * den**k
        assert (hi - lo) << (F - 13) <= lo

    @pytest.mark.parametrize("n", [10, 11, 50, 2088])
    def test_decide_at_the_interval_edges(self, n):
        # bound = r * 2**F for the refined bound's r; scale c divides it
        # only as c * t: a top that meets the bound decides holds, a bottom
        # that meets it leaves the case open, and only a bottom past it fails
        r, c = (10_000 << 24) + 10_000 * n - 28_104, 100 * ((100 << 24) + 706)
        t = r << bounds._FRACTION_BITS
        assert _decide(t - 1, t, c, c * t) is True
        assert _decide(t, t, c, c * t) is True
        assert _decide(t - 1, t + 1, c, c * t) is None
        assert _decide(t, t + 1, c, c * t) is None
        assert _decide(t + 1, t + 1, c, c * t) is False

    @settings(max_examples=60, deadline=None)
    @given(
        n=st.integers(min_value=3, max_value=1200),
        t=_UNIT,
        g=st.integers(min_value=1, max_value=1 << 10),
        bits=st.sampled_from([3, bounds._FRACTION_BITS]),
    )
    @example(n=3, t=Fraction(1), g=3, bits=bounds._FRACTION_BITS)
    @example(n=1000, t=Fraction(1, 8), g=1, bits=bounds._FRACTION_BITS)  # u = 2/(3n^2)
    def test_lemma2_matches_the_exact_predicate(self, n, t, g, bits):
        # the draws of TestIntegerPredicates.test_lemma2, at the module's
        # precision and at one too coarse to decide anything but u = 0
        a, b = g * 16 * t.numerator, g * 3 * n * n * t.denominator
        expected = _lemma2_holds(n, a, b, b ** (n - 2))
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(bounds, "_FRACTION_BITS", bits)
            assert _lemma2_decided(n, a, b) is expected

    @pytest.mark.parametrize("bits", [2, bounds._FRACTION_BITS])
    def test_refined_binary32_matches_the_exact_predicate(self, bits, monkeypatch):
        # n = 10..2200: true to 2088, false from 2089 on, one n after another
        monkeypatch.setattr(bounds, "_FRACTION_BITS", bits)
        expected = [n <= 2088 for n in range(10, 2201)]
        assert list(_refined_binary32_decided(2201)) == expected

    def test_default_grids_never_fall_back(self, monkeypatch):
        # at the module's precision every case is decided by its interval
        def exact(*args):
            raise AssertionError(f"fell back on {args[:3]}")

        monkeypatch.setattr(bounds, "_lemma2_holds", exact)
        monkeypatch.setattr(bounds, "_refined_binary32_holds", exact)
        assert check_lemma2() == _LEMMA2_REPORT
        assert check_refined_binary32_bound() == _REFINED_REPORT

    def test_coarse_intervals_fall_back_to_the_same_reports(self, monkeypatch):
        # at 2 fractional bits only the cases at u = 0 (lemma 2) and n = 10
        # (refined; (1+u)**0 is 1) are decided; every other case is exact
        calls = []

        def counted(predicate):
            return lambda n, *args: calls.append(n) or predicate(n, *args)

        monkeypatch.setattr(bounds, "_FRACTION_BITS", 2)
        monkeypatch.setattr(bounds, "_lemma2_holds", counted(_lemma2_holds))
        assert check_lemma2() == _LEMMA2_REPORT
        assert len(calls) == 296 - len(bounds._LEMMA2_N_GRID)
        calls.clear()
        monkeypatch.setattr(bounds, "_refined_binary32_holds", counted(_refined_binary32_holds))
        assert check_refined_binary32_bound() == _REFINED_REPORT
        assert calls == list(range(11, 2089))
