import math
import random
from fractions import Fraction

import pytest

from ulplab import (
    FpNumber,
    RoundingMode,
    build_sequence,
    iterated_product,
    verify_sequence,
)
from ulplab.adversary import AdversarySequence, SequenceConstructionError
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
        seq = build_sequence(24, 10)
        got = [f.to_fraction() for f in seq.factors[:7]]
        assert got == P24_PREFIX

    def test_seed_factor_formula(self):
        for p in (8, 9, 24, 53, 113):
            seq = build_sequence(p, 3)
            k = math.isqrt(1 << (p - 2))  # floor(2**(p/2 - 1))
            seed = 1 + Fraction(k, 1 << (p - 1))
            assert seq.factors[0].to_fraction() == seed
            assert seq.factors[1] == seq.factors[0]

    def test_n2_single_tie_rounds_down(self):
        seq = build_sequence(24, 2)
        # the seed square is an exact tie; even wins below, so the whole
        # error is one half-step: 1/pi_2 ulps
        assert seq.achieved_error.value == Fraction(16777216, 16785409)
        assert seq.achieved_error.value < 1

    def test_guards(self):
        with pytest.raises(ValueError):
            build_sequence(7, 10)
        with pytest.raises(ValueError):
            build_sequence(24, 1)

    def test_partials_stay_in_unit_binade(self):
        seq = build_sequence(24, 60)
        for partial in seq.trace.partials[1:]:
            assert 1 <= partial.to_fraction() < 2

    def test_achieved_error_below_bound_always(self):
        for p, n in [(8, 30), (12, 100), (24, 40), (53, 12)]:
            seq = build_sequence(p, n)
            assert seq.achieved_error.value < n - 1

    def test_achieved_error_increases_with_n(self):
        prev = Fraction(-1)
        for n in range(2, 26):
            cur = build_sequence(24, n).achieved_error.value
            assert cur > prev
            prev = cur

    def test_trace_matches_independent_oracle(self):
        seq = build_sequence(16, 12)
        want = oracle_product([f.to_fraction() for f in seq.factors], 16)
        assert seq.trace.final.to_fraction() == want

    def test_factors_are_exportable_fraction_strings(self):
        seq = build_sequence(24, 4)
        strings = [str(f.to_fraction()) for f in seq.factors]
        assert strings[0] == "4097/4096"
        rebuilt = [Fraction(s) for s in strings]
        assert rebuilt == [f.to_fraction() for f in seq.factors]


class TestLinearity:
    # p = 8 sequences fall back to 1 after 28 factors
    @pytest.mark.parametrize("p,n_max", [(8, 28), (24, 300), (53, 300), (113, 300)])
    def test_one_multiplication_per_new_factor(self, p, n_max, monkeypatch):
        import ulplab.adversary as adversary

        calls = []
        real = adversary.fp_mul

        def counting(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(adversary, "fp_mul", counting)
        for n in sorted({2, 3, n_max // 2, n_max}):
            calls.clear()
            seq = build_sequence(p, n)
            assert len(calls) == n - 1
            assert seq.trace == iterated_product(seq.factors)


class TestVerifySequence:
    def test_all_steps_round_down(self):
        report = verify_sequence(build_sequence(24, 20))
        assert report.all_down
        assert len(report.directions) == 19
        assert set(report.directions) == {DOWN}
        assert report.passed

    def test_gap_is_bound_minus_achieved(self):
        seq = build_sequence(24, 10)
        report = verify_sequence(seq)
        assert report.gap == report.error_bound - report.achieved_error.value
        assert 0 < report.gap < Fraction(1, 100)

    def test_tampered_trace_fails(self):
        seq = build_sequence(24, 6)
        # swap in a trace computed from different factors
        other = iterated_product(seq.factors[:-1] + (seq.factors[0],))
        forged = AdversarySequence(
            seq.p, seq.n, seq.factors, other, seq.achieved_error
        )
        assert not verify_sequence(forged).passed

    def test_exact_product_matches_fraction_multiply(self):
        seq = build_sequence(24, 8)
        rng = random.Random(8)

        def random_factor(p):
            sig = rng.randrange(1 << (p - 1), 1 << p)
            return FpNumber(rng.choice((1, -1)), sig, rng.randint(-300, 300), p)

        factor_lists = [
            seq.factors,
            (),
            (FpNumber(1, 128, 7, 8),),  # shift 0: the integer 128
            (FpNumber(-1, 129, 30, 8), FpNumber(1, 255, 9, 8)),  # positive shift
            (FpNumber(-1, 129, -30, 8), FpNumber(-1, 8388609, 40, 24)),
            seq.factors + (FpNumber.zero(24),),
        ] + [
            tuple(random_factor(rng.choice((8, 24, 53))) for _ in range(rng.randint(1, 12)))
            for _ in range(60)
        ]
        for factors in factor_lists:
            # forged: the trace and error belong to seq, not to these factors
            forged = AdversarySequence(
                seq.p, len(factors), factors, seq.trace, seq.achieved_error
            )
            prod = Fraction(1)
            for f in factors:
                prod *= f.to_fraction()
            assert forged.exact_product() == prod


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
        seq = build_sequence(p, n)
        assert seq.achieved_error.decimal(25).startswith(prefix)

    def test_p24_n100_gap(self):
        report = verify_sequence(build_sequence(24, 100))
        assert report.gap.__float__() == pytest.approx(0.0628, abs=2e-4)
