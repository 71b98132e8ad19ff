import copy
import pickle
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ulplab import (
    FpNumber,
    RoundingMode,
    fp_mul,
    round_nearest,
)
from ulplab.softfloat import _binade
from oracle import oracle_round

EVEN = RoundingMode.TIES_EVEN
AWAY = RoundingMode.TIES_AWAY


def rationals(max_num=10**6, max_exp=40):
    """Nonzero rationals with moderate dyadic scale."""
    return st.builds(
        lambda a, b, e: Fraction(a, b) * Fraction(2) ** e,
        st.integers(min_value=-max_num, max_value=max_num).filter(lambda a: a != 0),
        st.integers(min_value=1, max_value=max_num),
        st.integers(min_value=-max_exp, max_value=max_exp),
    )


def binade_scale(t: Fraction) -> Fraction:
    """2**e with 2**e <= |t| < 2**(e+1)."""
    return Fraction(2) ** _binade(abs(t.numerator), t.denominator)


def fp_numbers(p, max_exp=30):
    return st.builds(
        FpNumber,
        st.sampled_from([1, -1]),
        st.integers(min_value=1 << (p - 1), max_value=(1 << p) - 1),
        st.integers(min_value=-max_exp, max_value=max_exp),
        st.just(p),
    )


class TestFpNumber:
    def test_value_formula(self):
        x = FpNumber(1, 192, 0, 8)
        assert x.to_fraction() == Fraction(3, 2)
        y = FpNumber(-1, 192, 3, 8)
        assert y.to_fraction() == -12

    def test_canonical_zero(self):
        z = FpNumber.zero(8)
        assert z.is_zero and z.to_fraction() == 0
        with pytest.raises(ValueError):
            FpNumber(-1, 0, 0, 8)
        with pytest.raises(ValueError):
            FpNumber(1, 0, 3, 8)

    def test_significand_range_enforced(self):
        with pytest.raises(ValueError):
            FpNumber(1, 127, 0, 8)  # below 2**7
        with pytest.raises(ValueError):
            FpNumber(1, 256, 0, 8)  # 2**8 needs renormalising

    @pytest.mark.parametrize(
        "fields",
        [
            (1, 200.0, 0),
            (1.0, 200, 0.0),
            (True, 200, False),
            (1, 128, 1.5),
            (1, 128, None),
            (1, 128, 2.0**62),
        ],
        ids=["float-significand", "float-sign-exponent", "bool", "fractional-exponent",
             "none", "float-exponent"],
    )
    def test_field_type_guard(self, fields):
        # Exponents have no range, but every field must be exactly an int
        with pytest.raises(ValueError, match="must be int"):
            FpNumber(*fields, 8)

    def test_sign_enforced(self):
        with pytest.raises(ValueError, match="sign must be"):
            FpNumber(0, 128, 0, 8)

    def test_is_a_tuple_of_its_fields(self):
        x = FpNumber(precision=8, exponent=-1, significand=192, sign=-1)
        assert x == (-1, 192, -1, 8) and tuple(x) == (-1, 192, -1, 8)
        assert repr(x) == "FpNumber(sign=-1, significand=192, exponent=-1, precision=8)"
        assert hash(x) == hash((-1, 192, -1, 8))
        with pytest.raises(AttributeError):
            x.sign = 1

    @pytest.mark.parametrize(
        "op",
        [
            lambda x: x < x,
            lambda x: x >= x,
            lambda x: sorted([x, x]),
            lambda x: x + x,
            lambda x: x * 2,
            lambda x: 2 * x,
        ],
        ids=["lt", "ge", "sorted", "add", "mul", "rmul"],
    )
    def test_not_ordered_added_or_repeated(self, op):
        with pytest.raises(TypeError):
            op(FpNumber(1, 192, 0, 8))

    def test_replace_and_make_validate(self):
        x = FpNumber(1, 192, 0, 8)
        assert x._replace(exponent=3) == FpNumber(1, 192, 3, 8)
        with pytest.raises(ValueError, match="sign must be"):
            x._replace(sign=5)
        with pytest.raises(ValueError, match="not normalised"):
            FpNumber._make((1, 127, 0, 8))
        for bad in ({"exponent": 3.0}, {"sign": True}, {"significand": 192.5}):
            with pytest.raises(ValueError, match="must be int"):
                x._replace(**bad)
        with pytest.raises(ValueError, match="must be int"):
            FpNumber._make((1, 192, 0.5, 8))
        assert x._replace(exponent=-(2**62) - 1).exponent == -(2**62) - 1

    def test_pickle_and_deepcopy_round_trip(self):
        for x in (FpNumber(-1, 192, -7, 8), FpNumber.zero(53), round_nearest(3, 24)):
            assert pickle.loads(pickle.dumps(x)) == x
            assert copy.deepcopy(x) == x
            assert type(copy.deepcopy(x)) is FpNumber

    def test_unpickling_validates(self):
        bad = tuple.__new__(FpNumber, (1, 127, 0, 8))
        with pytest.raises(ValueError, match="not normalised"):
            pickle.loads(pickle.dumps(bad))
        for fields in ((1, 192, 0.0, 8), (False, 0, 0, 8), (1, 192.0, 0, 8)):
            with pytest.raises(ValueError, match="must be int"):
                pickle.loads(pickle.dumps(tuple.__new__(FpNumber, fields)))


class TestRoundNearest:
    def test_representable_returned_exactly(self):
        x = round_nearest(Fraction(3, 2), 8)
        assert (x.significand, x.exponent) == (192, 0)

    def test_tie_to_even_prefers_even_significand(self):
        # 1 + 2**-8 sits exactly between 128/128 and 129/128 at p = 8
        t = 1 + Fraction(1, 256)
        assert round_nearest(t, 8, EVEN).to_fraction() == 1
        assert round_nearest(t, 8, AWAY).to_fraction() == 1 + Fraction(1, 128)

    @pytest.mark.parametrize("mode", ["away", None])
    def test_mode_must_be_a_rounding_mode(self, mode):
        # "away" is not TIES_AWAY: taken as it was, 5/2 went to 2 (even), not 3
        with pytest.raises(ValueError, match=f"mode must be a RoundingMode, got {mode!r}"):
            round_nearest(Fraction(5, 2), 2, mode)

    def test_non_tie_goes_to_nearest(self):
        # frozen against a brute-force nearest-gridpoint scan
        t = 1 + 3 * Fraction(1, 512)
        assert round_nearest(t, 8).to_fraction() == Fraction(129, 128)

    def test_zero(self):
        assert round_nearest(0, 8).is_zero

    def test_negative_mirror(self):
        t = Fraction(-77777, 65536)
        assert round_nearest(t, 12).to_fraction() == -round_nearest(-t, 12).to_fraction()

    def test_tie_away_from_zero_on_negatives(self):
        t = -(1 + Fraction(1, 256))
        assert round_nearest(t, 8, AWAY).to_fraction() == -(1 + Fraction(1, 128))

    @given(t=rationals(), p=st.integers(min_value=2, max_value=24))
    @settings(max_examples=300)
    def test_matches_independent_oracle_even(self, t, p):
        assert round_nearest(t, p, EVEN).to_fraction() == oracle_round(t, p)

    @given(t=rationals(), p=st.integers(min_value=2, max_value=24))
    @settings(max_examples=300)
    def test_matches_independent_oracle_away(self, t, p):
        assert round_nearest(t, p, AWAY).to_fraction() == oracle_round(
            t, p, ties_away=True
        )

    @given(t=rationals(), p=st.integers(min_value=2, max_value=40))
    def test_absolute_error_at_most_half_grid(self, t, p):
        # |RN(t) - t| <= 2**(e-p) with 2**e <= |t| < 2**(e+1)
        r = round_nearest(t, p).to_fraction()
        scale = binade_scale(t)
        assert abs(r - t) <= scale / (1 << p)

    @given(t=rationals(), p=st.integers(min_value=2, max_value=40))
    def test_relative_error_below_u_over_1_plus_u(self, t, p):
        r = round_nearest(t, p).to_fraction()
        u = Fraction(1, 1 << p)
        assert abs(r - t) / abs(t) <= u / (1 + u)

    @pytest.mark.parametrize("p", [5, 8, 24, 53])
    def test_bound_attained_at_one_plus_u(self, p):
        # the tie at t = 1 + u rounds down to 1 under ties-even, so the
        # u/(1+u) ceiling is reached exactly
        u = Fraction(1, 1 << p)
        t = 1 + u
        r = round_nearest(t, p, EVEN).to_fraction()
        assert r == 1
        assert abs(r - t) / t == u / (1 + u)

    @given(
        t1=rationals(),
        t2=rationals(),
        p=st.integers(min_value=2, max_value=30),
        mode=st.sampled_from([EVEN, AWAY]),
    )
    def test_monotone(self, t1, t2, p, mode):
        if t1 > t2:
            t1, t2 = t2, t1
        assert (
            round_nearest(t1, p, mode).to_fraction()
            <= round_nearest(t2, p, mode).to_fraction()
        )

    @given(t=rationals(), p=st.integers(min_value=2, max_value=30))
    def test_scale_invariance(self, t, p):
        assert round_nearest(2 * t, p).to_fraction() == 2 * round_nearest(t, p).to_fraction()

    @given(x=fp_numbers(11))
    def test_idempotent_on_representables(self, x):
        assert round_nearest(x.to_fraction(), 11) == x

    @given(t=rationals(), p=st.integers(min_value=2, max_value=20))
    def test_faithful(self, t, p):
        # result is one of the two grid neighbours of t
        r = round_nearest(t, p).to_fraction()
        if r != t:
            between = (r + t) / 2
            # nothing representable strictly between r and t
            assert round_nearest(between, p).to_fraction() in (r, round_nearest(t, p).to_fraction())
            # and r is on the grid
            assert round_nearest(r, p).to_fraction() == r

    @given(t=rationals(), p=st.integers(min_value=2, max_value=30), w_num=st.integers(min_value=0, max_value=63))
    def test_sharper_bound_above_w(self, t, p, w_num):
        # with tbar = |t| scaled into [1, 2) and tbar >= w: |RN(t)-t|/|t| <= u/w
        w = 1 + Fraction(w_num, 64)
        tbar = abs(t) / binade_scale(t)
        if tbar >= w:
            r = round_nearest(t, p).to_fraction()
            assert abs(r - t) / abs(t) <= Fraction(1, 1 << p) / w


class TestBinade:
    @pytest.mark.parametrize(
        "num,den,e",
        [(1, 1, 0), (3, 1, 1), (4, 1, 2), (3, 4, -1), (1, 3, -2), (1, 4, -2)],
    )
    def test_examples(self, num, den, e):
        assert _binade(num, den) == e

    @given(t=rationals())
    def test_brackets_the_value(self, t):
        scale = binade_scale(t)
        assert scale <= abs(t) < 2 * scale


class TestFpMul:
    def test_identity(self):
        one = round_nearest(1, 8)
        assert fp_mul(one, one).to_fraction() == 1

    def test_small_square_rounds_down(self):
        # (1 + 2**-7)**2 = 1 + 2**-6 + 2**-14 -> 1 + 2**-6 at p = 8
        a = round_nearest(1 + Fraction(1, 128), 8)
        sq = fp_mul(a, a)
        assert sq.to_fraction() == 1 + Fraction(1, 64)
        assert sq.to_fraction() < a.to_fraction() ** 2

    def test_precision_mismatch(self):
        with pytest.raises(ValueError):
            fp_mul(round_nearest(1, 8), round_nearest(1, 9))

    def test_zero_factor(self):
        z = FpNumber.zero(8)
        assert fp_mul(z, round_nearest(Fraction(3, 2), 8)).is_zero

    def test_exponent_past_2_to_62(self):
        # no exponent range: the product of two values at 2**62 - 1 is
        # 2**(2**63 - 2), what the validating constructor builds
        big = FpNumber(1, 1 << 7, 2**62 - 1, 8)
        assert fp_mul(big, big) == FpNumber(1, 1 << 7, 2**63 - 2, 8)

    @given(
        a=fp_numbers(13),
        b=fp_numbers(13),
        mode=st.sampled_from([EVEN, AWAY]),
    )
    @settings(max_examples=300)
    def test_equals_round_of_exact_product(self, a, b, mode):
        got = fp_mul(a, b, mode)
        want = round_nearest(a.to_fraction() * b.to_fraction(), 13, mode)
        assert got == want

    @given(a=fp_numbers(24), b=fp_numbers(24))
    def test_matches_independent_oracle(self, a, b):
        got = fp_mul(a, b).to_fraction()
        assert got == oracle_round(a.to_fraction() * b.to_fraction(), 24)

    def test_carry_across_binade(self):
        # (90/64) * (91/64) = 1.99951... at p = 7 rounds up to 2.0 exactly
        a = round_nearest(Fraction(90, 64), 7)
        b = round_nearest(Fraction(91, 64), 7)
        prod = fp_mul(a, b)
        assert prod.to_fraction() == 2
        assert prod.exponent == 1 and prod.significand == 1 << 6


class TestToRational:
    def test_one(self):
        assert FpNumber(1, 128, 0, 8).to_fraction() == 1

    def test_sequence_seed_value(self):
        # 8390656 * 2**-23 at p = 24 is 4097/4096 in lowest terms
        assert FpNumber(1, 8390656, 0, 24).to_fraction() == Fraction(4097, 4096)

    @given(x=fp_numbers(16))
    def test_round_trip(self, x):
        assert round_nearest(x.to_fraction(), 16) == x

    @pytest.mark.parametrize(
        "x",
        [
            FpNumber.zero(24),
            FpNumber(1, 1 << 23, 0, 24),  # 1: a whole denominator cancels
            FpNumber(1, 1 << 23, 5, 24),  # 32: more zero bits than the shift
            FpNumber(1, 1 << 23, -1, 24),  # 1/2
            FpNumber(1, 3 << 22, 0, 24),  # 3/2: one bit short of an integer
            FpNumber(-1, 3 << 22, -3, 24),  # -3/16
            FpNumber(1, (1 << 24) - 1, -40, 24),  # odd significand
            FpNumber(-1, 5 << 21, 23, 24),  # integer, shift 0
            FpNumber(1, 9 << 20, 100, 24),  # integer above the significand
        ],
    )
    def test_lowest_terms(self, x):
        assert_lowest_terms(x)

    @given(data=st.data(), p=st.integers(2, 200))
    def test_lowest_terms_of_any_value(self, data, p):
        # clearing low bits leaves the top one: trailing zeros up to p - 1
        X = data.draw(st.integers(1 << (p - 1), (1 << p) - 1))
        z = data.draw(st.integers(0, p - 1))
        e = data.draw(st.integers(-1000, 1000))
        assert_lowest_terms(FpNumber(data.draw(st.sampled_from([1, -1])), X >> z << z, e, p))
        assert_lowest_terms(FpNumber.zero(p))


def assert_lowest_terms(x: FpNumber) -> None:
    """x.to_fraction() has the numerator and denominator of the Fraction
    that the constructor reduces."""
    s = x.exponent - x.precision + 1
    want = Fraction(x.sign * x.significand << max(s, 0), 1 << max(-s, 0))
    got = x.to_fraction()
    assert type(got) is Fraction
    assert (got.numerator, got.denominator) == (want.numerator, want.denominator)


def revalidated(x: FpNumber) -> FpNumber:
    """x rebuilt through the public constructor, which checks every field."""
    return FpNumber(x.sign, x.significand, x.exponent, x.precision)


# Exponents near +/- 2**61, so that a product's exponent lands on either
# side of +/- 2**62, a bound that 64-bit exponents would have.
near_half_limit = st.builds(
    lambda s, d: s * (2**61 + d),
    st.sampled_from([1, -1]),
    st.integers(min_value=-3, max_value=3),
)


class TestNormalisedResults:
    # fp_mul and round_nearest skip the constructor's validation; their
    # results must be exactly what the validating constructor builds.
    @given(
        p=st.sampled_from([2, 3, 8, 13, 24]),
        data=st.data(),
        exps=st.one_of(
            st.tuples(st.integers(-40, 40), st.integers(-40, 40)),
            st.tuples(near_half_limit, near_half_limit),
        ),
        mode=st.sampled_from([EVEN, AWAY]),
    )
    @settings(max_examples=300)
    def test_fp_mul_matches_validating_constructor(self, p, data, exps, mode):
        sigs = st.integers(min_value=1 << (p - 1), max_value=(1 << p) - 1)
        signs = st.sampled_from([1, -1])
        a0 = FpNumber(data.draw(signs), data.draw(sigs), 0, p)
        b0 = FpNumber(data.draw(signs), data.draw(sigs), 0, p)
        a = FpNumber(a0.sign, a0.significand, exps[0], p)
        b = FpNumber(b0.sign, b0.significand, exps[1], p)
        # the product of a and b is that of a0 and b0 moved by 2**(ea + eb)
        base = fp_mul(a0, b0, mode)
        want_e = base.exponent + exps[0] + exps[1]
        got = fp_mul(a, b, mode)
        want = FpNumber(base.sign, base.significand, want_e, p)
        assert got == want == revalidated(got)
        assert hash(got) == hash(want) and repr(got) == repr(want)

    @given(
        t=rationals(max_exp=200),
        p=st.sampled_from([2, 3, 8, 24, 53]),
        mode=st.sampled_from([EVEN, AWAY]),
    )
    def test_round_nearest_matches_validating_constructor(self, t, p, mode):
        got = round_nearest(t, p, mode)
        assert got == revalidated(got)
        assert repr(got) == repr(revalidated(got))

    def test_results_at_and_past_2_to_62(self):
        # 1.5 * 1.5 = 2.25 carries into the next binade: exponent + 1
        x = FpNumber(1, 3 << 6, 2**61, 8)
        y = FpNumber(1, 1 << 7, 2**61, 8)
        assert fp_mul(x, y) == FpNumber(1, 3 << 6, 2**62, 8)
        # 2.25 * 2**(2 * 2**61) rounds to 2.25 at p = 8: 1.125 * 2**(2**62 + 1)
        assert fp_mul(x, x) == FpNumber(1, 9 << 4, 2**62 + 1, 8)
        small = FpNumber(1, 1 << 7, -(2**62), 8)
        assert fp_mul(small, round_nearest(1, 8)) == small
        half = round_nearest(Fraction(1, 2), 8)
        assert fp_mul(small, half) == FpNumber(1, 1 << 7, -(2**62) - 1, 8)
