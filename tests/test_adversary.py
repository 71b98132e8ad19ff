import math
import random
import re
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ulplab import (
    FpNumber,
    RoundingMode,
    round_nearest,
    build_sequence,
    iterated_product,
    to_decimal,
    verify_sequence,
)
from ulplab import adversary
from ulplab.adversary import (
    SequenceConstructionError,
    _exact_product,
    _grid_factor,
    verify_prefixes,
)
from ulplab.algorithms import DOWN
from oracle import oracle_product

# lowest-terms values quoted for the start of the p = 24 sequence
P24_PREFIX = [
    Fraction(4097, 4096),
    Fraction(4097, 4096),
    Fraction(8387583, 8388608),
    Fraction(8387241, 8388608),
    Fraction(262221, 262144),
    Fraction(8387601, 8388608),
    Fraction(8387279, 8388608),
]


class TestBuildSequence:
    def test_p24_factor_prefix(self):
        factors = build_sequence(24, 10)
        got = [f.to_fraction() for f in factors[:7]]
        assert got == P24_PREFIX

    def test_seed_factor_formula(self):
        for p in (8, 9, 24, 53, 113):
            factors = build_sequence(p, 3)
            k = math.isqrt(1 << (p - 2))  # floor(2**(p/2 - 1))
            seed = 1 + Fraction(k, 1 << (p - 1))
            assert factors[0].to_fraction() == seed
            assert factors[1] == factors[0]

    def test_n2_single_tie_rounds_down(self):
        report = verify_sequence(build_sequence(24, 2))
        # the seed square is an exact tie; even wins below, so the whole
        # error is one half-step: 1/pi_2 ulps
        assert report.achieved_error == Fraction(16777216, 16785409)
        assert report.achieved_error < 1

    def test_guards(self):
        with pytest.raises(ValueError):
            build_sequence(7, 10)
        with pytest.raises(ValueError):
            build_sequence(24, 1)

    @pytest.mark.parametrize(
        "p,n,message",
        [(24, 3.0, "n must be an integer, got 3.0"),
         (24, 2.5, "n must be an integer, got 2.5"),
         (8.5, 3, "precision must be an integer >= 2, got 8.5")],
    )
    def test_p_and_n_must_be_ints(self, p, n, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            build_sequence(p, n)

    def test_p9_falls_back_to_1(self):
        with pytest.raises(SequenceConstructionError) as info:
            build_sequence(9, 40)
        assert isinstance(info.value, ValueError)
        assert str(info.value) == "step 28: partial product fell back to 1"

    def test_partial_leaving_unit_binade_is_refused(self, monkeypatch):
        import ulplab.adversary as adversary

        two = FpNumber(1, 1 << 23, 1, 24)
        monkeypatch.setattr(adversary, "fp_mul", lambda a, b, mode: two)
        with pytest.raises(SequenceConstructionError) as info:
            build_sequence(24, 3)
        assert str(info.value) == "step 2: partial product left [1, 2): 2"

    def test_partials_stay_in_unit_binade(self):
        trace = iterated_product(build_sequence(24, 60))
        for partial in trace.partials[1:]:
            assert 1 <= partial.to_fraction() < 2

    def test_achieved_error_below_bound_always(self):
        for p, n in [(8, 30), (12, 100), (24, 40), (53, 12)]:
            report = verify_sequence(build_sequence(p, n))
            assert report.achieved_error < n - 1

    def test_achieved_error_increases_with_n(self):
        prev = Fraction(-1)
        for n in range(2, 26):
            cur = verify_sequence(build_sequence(24, n)).achieved_error
            assert cur > prev
            prev = cur

    def test_trace_matches_independent_oracle(self):
        factors = build_sequence(16, 12)
        want = oracle_product([f.to_fraction() for f in factors], 16)
        assert iterated_product(factors).final.to_fraction() == want

    def test_factors_are_exportable_fraction_strings(self):
        factors = build_sequence(24, 4)
        strings = [str(f.to_fraction()) for f in factors]
        assert strings[0] == "4097/4096"
        rebuilt = [Fraction(s) for s in strings]
        assert rebuilt == [f.to_fraction() for f in factors]


@st.composite
def grid_steps(draw):
    p = draw(st.integers(8, 200))
    half = 1 << (p - 1)
    return p, draw(st.integers(-half + 1, half - 1))


class TestGridFactor:
    @given(grid_steps())
    @example((8, -127))  # the least factor, 1/128: exponent -7
    @example((8, 127))  # the greatest, 255/128
    @example((24, -1))  # just below 1: exponent -1
    @example((24, 0))
    def test_is_the_rounded_grid_value(self, pk):
        p, k = pk
        value = 1 + Fraction(k, 1 << (p - 1))
        f = _grid_factor(k, p)
        assert f.to_fraction() == value
        assert f == round_nearest(value, p)


class TestLinearity:
    # p = 8 sequences fall back to 1 after 28 factors
    @pytest.mark.parametrize("p,n_max", [(8, 28), (24, 300), (53, 300), (113, 300)])
    def test_one_multiplication_per_new_factor(self, p, n_max, monkeypatch):
        import ulplab.adversary as adversary

        results = []
        real = adversary.fp_mul

        def recording(*args, **kwargs):
            results.append(real(*args, **kwargs))
            return results[-1]

        monkeypatch.setattr(adversary, "fp_mul", recording)
        for n in sorted({2, 3, n_max // 2, n_max}):
            results.clear()
            factors = build_sequence(p, n)
            assert len(factors) == n
            # the partials it multiplied are those of the fold from scratch
            assert tuple(results) == iterated_product(factors).partials[1:]


class TestVerifySequence:
    def test_all_steps_round_down(self):
        report = verify_sequence(build_sequence(24, 20))
        assert report.all_down
        assert len(report.directions) == 19
        assert set(report.directions) == {DOWN}
        assert report.passed

    def test_gap_is_bound_minus_achieved(self):
        report = verify_sequence(build_sequence(24, 10))
        assert report.gap == report.error_bound - report.achieved_error
        assert 0 < report.gap < Fraction(1, 100)

    def test_p_and_n_come_from_the_factors(self):
        factors = build_sequence(24, 10)
        report = verify_sequence(factors)
        assert (report.error_bound, len(report.directions)) == (9, 9)
        short = verify_sequence(factors[:4])
        assert (short.error_bound, len(short.directions)) == (3, 3)

    def test_tampered_factors_fail(self):
        factors = build_sequence(24, 6)
        # the factor order is the construction: moving one factor, or
        # reversing the list, makes some multiplication round up
        for forged in (factors[:3] + factors[4:] + (factors[3],), factors[::-1]):
            report = verify_sequence(forged)
            assert not report.all_down
            assert not report.passed

    def test_empty_list_refused(self):
        with pytest.raises(ValueError):
            verify_sequence(())

    def test_exact_product_matches_fraction_multiply(self):
        factors = build_sequence(24, 8)
        rng = random.Random(8)

        def random_factor(p):
            sig = rng.randrange(1 << (p - 1), 1 << p)
            return FpNumber(rng.choice((1, -1)), sig, rng.randint(-300, 300), p)

        factor_lists = [
            factors,
            (),
            (FpNumber(1, 128, 7, 8),),  # shift 0: the integer 128
            (FpNumber(-1, 129, 30, 8), FpNumber(1, 255, 9, 8)),  # positive shift
            (FpNumber(-1, 129, -30, 8), FpNumber(-1, 8388609, 40, 24)),
            factors + (FpNumber.zero(24),),
        ] + [
            tuple(random_factor(rng.choice((8, 24, 53))) for _ in range(rng.randint(1, 12)))
            for _ in range(60)
        ]
        for fs in factor_lists:
            prod = Fraction(1)
            for f in fs:
                prod *= f.to_fraction()
            num, shift = _exact_product(fs)
            assert num * Fraction(2) ** shift == prod


@st.composite
def prefix_ranges(draw):
    p = draw(st.integers(8, 113))
    b = draw(st.integers(2, 80))
    return p, draw(st.integers(2, b)), b


class TestVerifyPrefixes:
    @given(prefix_ranges())
    @example((9, 10, 40))  # the p = 9 construction fails at step 28
    @example((9, 2, 28))  # its longest sequence
    @example((8, 2, 2))
    def test_fold_equals_each_sequence_verified_alone(self, pab):
        p, a, b = pab
        alone = []
        for n in range(a, b + 1):
            try:
                alone.append(verify_sequence(build_sequence(p, n)))
            except SequenceConstructionError as exc:
                # the one build of the longest sequence fails the same way
                with pytest.raises(SequenceConstructionError, match=re.escape(str(exc))):
                    build_sequence(p, b)
                return
        factors = build_sequence(p, b)
        for n in range(a, b + 1):
            assert factors[:n] == build_sequence(p, n)
        assert list(verify_prefixes(factors, range(a, b + 1))) == alone

    def test_any_ascending_prefixes(self):
        factors = build_sequence(24, 50)
        ns = [1, 2, 17, 18, 50]
        want = [verify_sequence(factors[:n]) for n in ns]
        assert list(verify_prefixes(factors, ns)) == want

    @pytest.mark.parametrize(
        "ns,bad", [([2.5], 2.5), ([1, 3.0], 3.0), ([2, 4.5], 4.5), ([True], True), (["3"], "3")]
    )
    def test_prefixes_that_are_not_ints_are_named(self, ns, bad):
        with pytest.raises(ValueError, match=f"^n must be an integer, got {bad!r}$"):
            list(verify_prefixes(build_sequence(24, 5), ns))

    @pytest.mark.parametrize("ns", [[], range(3, 3)])
    def test_no_prefixes_no_reports(self, ns):
        assert list(verify_prefixes(build_sequence(24, 5), ns)) == []

    @pytest.mark.parametrize("ns", [[4, 3], [5, 2], [3, 3]])
    def test_prefixes_that_do_not_ascend_are_named_so(self, ns):
        message = f"prefixes must ascend strictly within 1..5, got {ns}"
        with pytest.raises(ValueError, match=re.escape(message)):
            list(verify_prefixes(build_sequence(24, 5), ns))

    @pytest.mark.parametrize(
        "ns",
        [[0], [3, 3], [5, 4], [51], [-1], [0, 3], [3, 9], range(0, 3), range(2, 10**6)],
    )
    def test_prefixes_must_ascend_within_the_factors(self, ns, monkeypatch):
        factors = build_sequence(24, 5)

        def no_fold(*args):
            raise AssertionError("folded before the prefixes were checked")

        monkeypatch.setattr(adversary, "iterated_product", no_fold)
        message = f"prefixes must ascend strictly within 1..5, got {ns!r}"
        with pytest.raises(ValueError, match=re.escape(message)):
            next(verify_prefixes(factors, ns))

    @settings(deadline=None)
    @given(
        length=st.integers(2, 30),
        ns=st.one_of(
            st.lists(st.integers(-2, 33), max_size=6),
            st.sets(st.integers(1, 30), max_size=6).map(sorted),
        ),
    )
    @example(length=5, ns=[0])
    @example(length=5, ns=[1, 5])
    def test_any_list_is_refused_or_folded(self, length, ns):
        factors = build_sequence(24, length)
        if ns != sorted(set(ns)) or not set(ns) <= set(range(1, length + 1)):
            message = f"prefixes must ascend strictly within 1..{length}, got {ns}"
            with pytest.raises(ValueError, match=re.escape(message)):
                list(verify_prefixes(factors, ns))
        else:
            want = [verify_sequence(factors[:n]) for n in ns]
            assert list(verify_prefixes(factors, ns)) == want


class TestReferenceErrors:
    # achieved errors for the published (p, n) table, truncated rendering
    @pytest.mark.parametrize(
        "p,n,prefix",
        [
            (24, 10, "8.99336984"),
            (24, 100, "98.9371972591"),
            (53, 10, "8.99999972447"),
            (53, 100, "98.9999970091"),
            (113, 10, "8.99999999999999973119"),
            (113, 100, "98.99999999999999701662"),
        ],
    )
    def test_table_prefixes(self, p, n, prefix):
        report = verify_sequence(build_sequence(p, n))
        assert to_decimal(report.achieved_error, 25).startswith(prefix)

    def test_p24_n100_gap(self):
        report = verify_sequence(build_sequence(24, 100))
        assert report.gap.__float__() == pytest.approx(0.0628, abs=2e-4)
