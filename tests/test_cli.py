import json
import os
import subprocess
import sys
import textwrap
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from ulplab import cli
from ulplab.cli import (
    GOLDEN_SCENARIOS,
    MAX_DIGITS,
    MAX_EXACT_BITS,
    MAX_PRECISION,
    CliError,
    _fp_repr,
    _fraction_str,
    _parse_range,
    _parse_x,
    main,
    run,
)
from ulplab.adversary import SequenceConstructionError, build_sequence
from ulplab.bounds import bound_set
from ulplab.softfloat import FpNumber
from conftest import int_digit_limit


def canonical(text: str) -> str:
    return json.dumps(json.loads(text), indent=2, sort_keys=True) + "\n"


class TestHelpers:
    def test_parse_range(self):
        assert _parse_range("7") == range(7, 8)
        assert _parse_range("3..8") == range(3, 9)
        with pytest.raises(CliError):
            _parse_range("8..3")
        with pytest.raises(CliError):
            _parse_range("x..3")

    def test_parse_x_forms(self):
        assert _parse_x("1", 24).to_fraction() == 1
        assert str(_parse_x("4097/4096", 24).to_fraction()) == "4097/4096"
        assert _parse_x("8473808/2^23", 24).significand == 8473808
        with pytest.raises(CliError):
            _parse_x("7/3", 24)  # not a binary float
        with pytest.raises(CliError):
            _parse_x("abc", 24)
        # any shift is taken: it only moves the exponent
        x = _parse_x("1/2^" + "9" * 20, 24)
        assert (x.significand, x.exponent) == (1 << 23, -(10**20 - 1))

    def test_parse_x_reads_exponents_without_shifting(self):
        # a shift of 2**62 or more is never built either
        x = _parse_x("3/2^4611686018427387903", 24)
        assert (x.sign, x.significand, x.exponent) == (1, 3 << 22, 1 - 4611686018427387903)
        x = _parse_x("1/2^4611686018427387905", 24)
        assert (x.sign, x.significand, x.exponent) == (1, 1 << 23, -4611686018427387905)
        x = _parse_x("-12/8", 24)
        assert (x.sign, x.significand, x.exponent) == (-1, 3 << 22, 0)
        assert _parse_x("0/2^99999999999999999999", 24).is_zero
        for text in ["1/2^-1", "3/2^", "5/2^x"]:
            with pytest.raises(CliError):
                _parse_x(text, 24)
        with pytest.raises(CliError, match="not exactly representable"):
            _parse_x("16777217/2^100", 24)  # odd part of 25 bits

    def test_fp_repr(self):
        x = _parse_x("8473808/2^23", 24)
        assert _fp_repr(x) == "8473808/2^23"
        # the significand stays visible even when the fraction would reduce
        assert _fp_repr(_parse_x("1", 24)) == "8388608/2^23"
        assert _fp_repr(FpNumber.zero(24)) == "0"

    def test_fp_repr_round_trips(self):
        for text in ["1", "6", "4097/4096", "8473808/2^23"]:
            x = _parse_x(text, 24)
            assert _parse_x(_fp_repr(x), 24) == x

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
    def test_fraction_str_of_any_value(self, x):
        assert _fraction_str(x) == str(x.to_fraction())

    @settings(max_examples=40, deadline=None)
    @given(p=st.integers(min_value=8, max_value=113), n=st.integers(2, 1000))
    @example(p=8, n=1000)
    @example(p=113, n=1000)
    def test_fraction_str_of_adversary_factors(self, p, n):
        # the factor strings adversary prints are str() of each Fraction
        try:
            factors = build_sequence(p, n)
        except SequenceConstructionError:
            assume(False)
        assert [_fraction_str(f) for f in factors] == [
            str(f.to_fraction()) for f in factors
        ]


class TestJsonIsCanonical:
    @pytest.mark.parametrize(
        "argv",
        [
            ["search", "--p", "8", "--n", "3..5", "--format", "json"],
            ["spot", "--p", "24", "--x", "8473808/2^23", "--n", "6", "--format", "json"],
            ["bounds", "--p", "24", "--n", "8..12", "--format", "json"],
            ["adversary", "--p", "24", "--n", "10", "--format", "json"],
            ["verify", "--format", "json"],
        ],
    )
    def test_parse_reserialize_is_identity(self, argv):
        code, text = run(argv)
        assert code == 0
        assert canonical(text) == text


class TestSearchCommand:
    def test_p8_table_values(self):
        code, text = run(["search", "--p", "8", "--n", "3..8", "--format", "json"])
        assert code == 0
        obj = json.loads(text)
        assert obj["schema_version"] == 1
        assert obj["mode"] == "even"
        decimals = [r["max_error"]["decimal"] for r in obj["rows"]]
        prefixes = ["1.35988", "1.73903", "2.21152", "2.53023", "2.69634", "3.42929"]
        for got, want in zip(decimals, prefixes):
            assert got.startswith(want)
        assert all(r["violations"] == 0 for r in obj["rows"])
        assert all(r["scanned"] == 128 for r in obj["rows"])

    def test_around_window(self):
        code, text = run(
            [
                "search", "--p", "24", "--n", "6", "--format", "json",
                "--around", "8473808", "--radius", "64",
            ]
        )
        assert code == 0
        row = json.loads(text)["rows"][0]
        assert row["argmax_x"] == "8473808/2^23"
        assert row["max_error"]["decimal"] == "4.328005618"
        assert row["scanned"] == 129

    def test_around_must_be_in_binade(self):
        with pytest.raises(CliError):
            run(["search", "--p", "24", "--n", "6", "--around", "1000"])

    def test_precision_guard_message(self):
        with pytest.raises(CliError, match="force"):
            run(["search", "--p", "30", "--n", "3"])

    def test_precision_guard_names_the_flag(self, capsys):
        # The library's keyword is force=True; the command line's is --force.
        assert main(["search", "--p", "53", "--n", "6", "--around", "4507062722867963"]) == 2
        err = capsys.readouterr().err
        assert "pass --force" in err and "force=True" not in err
        code, _ = run(["search", "--p", "53", "--n", "6", "--around", "4507062722867963",
                       "--radius", "2", "--force"])
        assert code == 0

    def test_jobs_and_chunking_do_not_change_bytes(self, monkeypatch):
        monkeypatch.setattr(os, "cpu_count", lambda: 8)  # 8 workers on any host
        argv = ["search", "--p", "12", "--n", "4..6", "--format", "json",
                "--chunk-size", "128"]
        _, base = run(argv + ["--jobs", "1"])
        _, multi = run(argv + ["--jobs", "8"])
        assert multi == base

    def test_csv_format(self):
        code, text = run(["search", "--p", "8", "--n", "3", "--format", "csv"])
        lines = text.splitlines()
        assert lines[0] == "n,max_error_ulps,fraction,argmax_x,scanned,violations"
        assert lines[1].split(",")[0] == "3"
        assert len(lines) == 2

    def test_violations_keep_json_parseable(self):
        # the violation count lives in the rows; no note follows the JSON
        code, text = run(["search", "--p", "3", "--n", "3000", "--format", "json"])
        assert code == 1
        assert json.loads(text)["rows"][0]["violations"] == 1

    def test_violations_line_ends_table(self):
        code, text = run(["search", "--p", "3", "--n", "3000"])
        assert code == 1
        assert text.endswith("violations: 1 input(s) exceeded the (n-1) ulp bound\n")

    def test_table_format_has_header(self):
        _, text = run(["search", "--p", "8", "--n", "3..4"])
        lines = text.splitlines()
        assert lines[0].startswith("n  ")
        assert len(lines) == 3


class TestSpotCommand:
    def test_exact_input_has_zero_error(self):
        _, text = run(["spot", "--p", "24", "--x", "1", "--n", "5", "--format", "json"])
        row = json.loads(text)["rows"][0]
        assert row["error"]["fraction"] == "0/1"
        assert row["error"]["decimal"] == "0.000000000"

    def test_published_argmax_values(self):
        _, text = run(
            ["spot", "--p", "53", "--x", "4503796447992526/2^52", "--n", "10",
             "--format", "json"]
        )
        row = json.loads(text)["rows"][0]
        assert row["error"]["decimal"] == "7.953418928"

    def test_digits_flag_truncates(self):
        _, text = run(
            ["spot", "--p", "24", "--x", "8473808/2^23", "--n", "6",
             "--format", "json", "--digits", "3"]
        )
        row = json.loads(text)["rows"][0]
        assert row["error"]["decimal"] == "4.328"

    def test_digits_past_int_str_limit(self, default_int_digit_limit):
        argv = ["spot", "--p", "24", "--x", "8473808/2^23", "--n", "6", "--digits", "5000"]
        code, text = run(argv)
        assert code == 0
        decimal = text.splitlines()[1].split()[1]
        assert decimal.startswith("4.328005618") and len(decimal) == 2 + 5000
        assert sys.get_int_max_str_digits() == 4300

    def test_extreme_exponents(self, capsys):
        # x = 2**-K has the error of x = 1 for every K, at 2**62 and past it
        def spot(x):
            code, text = run(["spot", "--p", "24", "--x", x, "--n", "2..3", "--format", "json"])
            assert code == 0
            return json.loads(text)

        near = spot("1/2^4611686018427387903")
        assert near["rows"] == spot("1")["rows"]
        assert near["x"] == "8388608/2^4611686018427387926"
        for k in (2**62 + 1, 10**20 - 1):
            far = spot(f"1/2^{k}")
            assert far["rows"] == near["rows"] and far["x"] == f"8388608/2^{k + 23}"
        assert main(["spot", "--p", "24", "--x", "1/2^4611686018427387905", "--n", "2"]) == 0
        captured = capsys.readouterr()
        assert captured.err == "" and captured.out.startswith("n  error_ulps")

    def test_negative_x_is_given_with_an_equals_sign(self, capsys):
        # argparse reads a bare -3/2 as an option, so --x=-3/2 is the form;
        # the error of -x is the error of x.
        def spot(*x):
            code, text = run(["spot", "--p", "4", *x, "--n", "2..6", "--format", "json"])
            assert code == 0
            return json.loads(text)

        minus, plus = spot("--x=-3/2"), spot("--x", "3/2")
        assert minus["rows"] == plus["rows"]
        assert any(row["error"]["fraction"] != "0/1" for row in plus["rows"])
        assert (minus["x"], plus["x"]) == ("-12/2^3", "12/2^3")
        assert main(["spot", "--p", "4", "--x", "-3/2", "--n", "2"]) == 2
        assert capsys.readouterr().err == "error: argument --x: expected one argument\n"

    def test_mode_flag(self):
        even = run(["spot", "--p", "8", "--x", "136/2^7", "--n", "3", "--format", "json"])
        away = run(
            ["spot", "--p", "8", "--x", "136/2^7", "--n", "3", "--format", "json",
             "--mode", "away"]
        )
        row_e = json.loads(even[1])["rows"][0]["error"]["fraction"]
        row_a = json.loads(away[1])["rows"][0]["error"]["fraction"]
        assert row_e == "256/289"  # 4352/4913 in lowest terms
        assert row_a == "3840/4913"


class TestBoundsCommand:
    def test_n_max_column_and_note(self):
        _, text = run(["bounds", "--p", "24", "--n", "2088..2089", "--format", "json"])
        obj = json.loads(text)
        assert obj["n_max"] == 2088
        assert obj["rows"][0]["within_n_max"] is True
        assert obj["rows"][1]["within_n_max"] is False

    def test_note_line_in_table_output(self):
        _, text = run(["bounds", "--p", "24", "--n", "2089"])
        assert "note: n=2089 exceeds n_max(24)=2088" in text

    def test_bound_ordering_in_rows(self):
        _, text = run(["bounds", "--p", "24", "--n", "10", "--format", "json"])
        row = json.loads(text)["rows"][0]
        simple = row["simple_ulps"]
        psi = float(row["psi_ulps"]["decimal"])
        gamma = float(row["gamma_ulps"]["decimal"])
        assert simple <= psi <= gamma

    def test_refuses_huge_n(self):
        with pytest.raises(CliError):
            run(["bounds", "--p", "24", "--n", "2000000"])

    @pytest.mark.parametrize("n,allowed", [("2..100", True), ("2..101", False)])
    def test_size_limit_includes_its_last_n(self, n, allowed, monkeypatch):
        # row n's psi numerator has p*(n-1) bits: 24 * 4950 over 2..100
        monkeypatch.setattr(cli, "MAX_SUMMED_BITS", 24 * 4950)
        argv = ["bounds", "--p", "24", "--n", n]
        if not allowed:
            with pytest.raises(CliError, match="121200 bits over its rows; the limit is 118800"):
                run(argv)
            return
        code, text = run(argv)
        assert code == 0
        assert text.splitlines()[-1].split()[0] == "100"


    @pytest.mark.parametrize(
        "n,message",
        [
            ("2..300", "gamma undefined: (n-1)*u = 1 >= 1"),
            ("258..300", "gamma undefined: (n-1)*u = 257/256 >= 1"),
            ("0..300", "n must be >= 2, got 0"),
            ("1..300", "n must be >= 2, got 1"),
        ],
    )
    def test_undefined_gamma_refused_before_any_row(self, n, message, monkeypatch):
        # the message is that of the first row bound_set refuses, and that
        # row is the only one computed
        import ulplab.cli

        calls = []

        def recording(p, n):
            calls.append(n)
            return bound_set(p, n)

        monkeypatch.setattr(ulplab.cli, "bound_set", recording)
        with pytest.raises(CliError) as info:
            run(["bounds", "--p", "8", "--n", n])
        assert str(info.value) == message
        assert len(calls) == 1

    def test_last_defined_n_still_renders(self):
        code, text = run(["bounds", "--p", "8", "--n", "255..256", "--format", "csv"])
        assert code == 0
        assert [line.split(",")[0] for line in text.splitlines()] == ["n", "255", "256"]


class TestAdversaryCommand:
    def test_json_report(self):
        code, text = run(
            ["adversary", "--p", "24", "--n", "10", "--format", "json",
             "--digits", "20"]
        )
        assert code == 0
        obj = json.loads(text)
        assert obj["passed"] is True
        assert obj["all_down"] is True
        assert obj["error_bound"] == 9
        assert obj["achieved_error"]["decimal"].startswith("8.99336984")
        assert obj["factors"][0] == "4097/4096"
        assert len(obj["factors"]) == 10

    def test_table_lists_factors(self):
        _, text = run(["adversary", "--p", "24", "--n", "4"])
        assert "a1" in text and "a4" in text
        assert "passed" in text

    def test_guard_becomes_cli_error(self):
        with pytest.raises(CliError):
            run(["adversary", "--p", "4", "--n", "10"])

    @pytest.mark.parametrize(
        "argv,sequences",
        [
            (["adversary", "--p", "24", "--n", "10"], 1),
            (["verify", "--p", "24", "--n", "10..12"], 3),
        ],
    )
    def test_one_exact_product_and_one_score_per_sequence(self, argv, sequences, monkeypatch):
        import ulplab.adversary as adversary

        calls = {"_exact_product": 0, "relative_error": 0}
        for name in calls:
            real = getattr(adversary, name)

            def counting(*args, _name=name, _real=real):
                calls[_name] += 1
                return _real(*args)

            monkeypatch.setattr(adversary, name, counting)
        assert run(argv)[0] == 0
        assert calls == {"_exact_product": sequences, "relative_error": sequences}


class TestVerifyCommand:
    def test_builtin_checks_pass(self):
        code, text = run(["verify", "--format", "json"])
        assert code == 0
        obj = json.loads(text)
        assert obj["passed"] is True
        names = [c["name"] for c in obj["checks"]]
        assert len(names) == 3

    def test_sequence_checks_added(self):
        code, text = run(["verify", "--p", "24", "--n", "3..4", "--format", "json"])
        assert code == 0
        obj = json.loads(text)
        assert len(obj["checks"]) == 5
        assert all(c["passed"] for c in obj["checks"])

    @pytest.mark.parametrize(
        "p,n,message",
        [
            ("24", "1..5", "n must be >= 2, got 1"),
            ("24", "0..5", "n must be >= 2, got 0"),
            ("24", "-3..5", "n must be >= 2, got -3"),
            ("4", "1..5", "p must be >= 8, got 4"),
            ("7", "2..5", "p must be >= 8, got 7"),
            ("9", "10..40", "step 28: partial product fell back to 1"),
        ],
    )
    def test_range_fails_as_its_first_failing_n(self, p, n, message):
        with pytest.raises(CliError) as info:
            run(["verify", "--p", p, f"--n={n}"])
        assert str(info.value) == message

    def test_digits_not_an_option(self):
        # verify prints no decimals, so it takes no --digits
        with pytest.raises(CliError, match="unrecognized arguments: --digits 5"):
            run(["verify", "--digits", "5"])


# Table and csv bytes, generated before the report path was shared by all
# commands; the json bytes are pinned by the goldens.
PINNED_TEXT = [
    (
        ["search", "--p", "8", "--n", "3"],
        "table",
        "n  max_error_ulps  fraction        argmax_x  scanned  violations\n"
        "3  1.359882479     1024768/753571  182/2^7   128      0\n",
    ),
    (
        ["search", "--p", "8", "--n", "3"],
        "csv",
        "n,max_error_ulps,fraction,argmax_x,scanned,violations\n"
        "3,1.359882479,1024768/753571,182/2^7,128,0\n",
    ),
    (
        ["spot", "--p", "24", "--x", "8473808/2^23", "--n", "6"],
        "table",
        "n  error_ulps   fraction\n"
        "6  4.328005618  95507974985190670908439149894696960/"
        "22067433225457203871395073751863609\n",
    ),
    (
        ["spot", "--p", "24", "--x", "8473808/2^23", "--n", "6"],
        "csv",
        "n,error_ulps,fraction\n"
        "6,4.328005618,95507974985190670908439149894696960/"
        "22067433225457203871395073751863609\n",
    ),
    (
        ["bounds", "--p", "24", "--n", "2086..2089"],
        "table",
        "n     simple_ulps  psi_ulps        gamma_ulps      within_n_max\n"
        "2086  2085         2085.129500622  2085.259147007  true\n"
        "2087  2086         2086.129624905  2086.259395664  true\n"
        "2088  2087         2087.129749248  2087.259644441  true\n"
        "2089  2088         2088.129873651  2088.259893337  false\n"
        "note: n=2089 exceeds n_max(24)=2088\n",
    ),
    (
        ["bounds", "--p", "24", "--n", "2086..2089"],
        "csv",
        "n,simple_ulps,psi_ulps,gamma_ulps,within_n_max\n"
        "2086,2085,2085.129500622,2085.259147007,true\n"
        "2087,2086,2086.129624905,2086.259395664,true\n"
        "2088,2087,2087.129749248,2087.259644441,true\n"
        "2089,2088,2088.129873651,2088.259893337,false\n",
    ),
    (
        ["adversary", "--p", "24", "--n", "4"],
        "table",
        "field                value\n"
        "p                    24\n"
        "n                    4\n"
        "achieved_error_ulps  2.997397951\n"
        "fraction             1179807173507110928384/393610455629518170909\n"
        "error_bound_ulps     3\n"
        "gap_ulps             0.002602048\n"
        "all_down             true\n"
        "passed               true\n"
        "a1                   4097/4096\n"
        "a2                   4097/4096\n"
        "a3                   8387583/8388608\n"
        "a4                   8387241/8388608\n",
    ),
    (
        ["adversary", "--p", "24", "--n", "4"],
        "csv",
        "field,value\n"
        "p,24\n"
        "n,4\n"
        "achieved_error_ulps,2.997397951\n"
        "fraction,1179807173507110928384/393610455629518170909\n"
        "error_bound_ulps,3\n"
        "gap_ulps,0.002602048\n"
        "all_down,true\n"
        "passed,true\n"
        "a1,4097/4096\n"
        "a2,4097/4096\n"
        "a3,8387583/8388608\n"
        "a4,8387241/8388608\n",
    ),
    (
        ["verify", "--p", "24", "--n", "10"],
        "table",
        "status  check               cases\n"
        "pass    property1           177\n"
        "pass    lemma2              296\n"
        "pass    refined_binary32    2079\n"
        "pass    sequence p=24 n=10  9\n",
    ),
    (
        ["verify", "--p", "24", "--n", "10"],
        "csv",
        "status,check,cases\n"
        "pass,property1,177\n"
        "pass,lemma2,296\n"
        "pass,refined_binary32,2079\n"
        "pass,sequence p=24 n=10,9\n",
    ),
]


@pytest.mark.parametrize(
    "argv,fmt,expected", PINNED_TEXT, ids=[f"{a[0]}-{f}" for a, f, _ in PINNED_TEXT]
)
def test_table_and_csv_bytes(argv, fmt, expected):
    assert run(argv + ["--format", fmt]) == (0, expected)


@pytest.fixture(scope="module")
def golden_dir(tmp_path_factory):
    d = tmp_path_factory.mktemp("goldens")
    code, _ = run(["regress", "--update", "--golden-dir", str(d)])
    assert code == 0
    return d


class TestRegressCommand:
    def test_update_writes_every_scenario(self, golden_dir):
        names = sorted(f.name for f in golden_dir.iterdir())
        assert names == sorted(name + ".json" for name, _ in GOLDEN_SCENARIOS)

    def test_clean_rerun_matches(self, golden_dir):
        code, text = run(["regress", "--golden-dir", str(golden_dir)])
        assert code == 0
        assert text.endswith(f"{len(GOLDEN_SCENARIOS)}/{len(GOLDEN_SCENARIOS)} scenarios ok\n")

    def test_committed_goldens_match(self):
        committed = Path(__file__).resolve().parent.parent / "goldens"
        code, text = run(["regress", "--golden-dir", str(committed)])
        assert code == 0
        assert text.endswith(f"{len(GOLDEN_SCENARIOS)}/{len(GOLDEN_SCENARIOS)} scenarios ok\n")

    def test_tampered_golden_is_caught(self, golden_dir, tmp_path):
        copy = tmp_path / "g"
        copy.mkdir()
        for f in golden_dir.iterdir():
            (copy / f.name).write_text(f.read_text())
        victim = copy / "spot-p24-n6.json"
        victim.write_text(victim.read_text().replace("4.328005618", "4.328005619"))
        code, text = run(["regress", "--golden-dir", str(copy)])
        assert code == 1
        assert "MISMATCH spot-p24-n6" in text
        assert "first diff at line" in text
        total = len(GOLDEN_SCENARIOS)
        assert f"{total - 1}/{total} scenarios ok" in text

    def test_missing_golden_is_reported(self, golden_dir, tmp_path):
        copy = tmp_path / "g"
        copy.mkdir()
        for f in golden_dir.iterdir():
            (copy / f.name).write_text(f.read_text())
        (copy / "table1.json").unlink()
        code, text = run(["regress", "--golden-dir", str(copy)])
        assert code == 1
        assert "MISSING table1" in text

    def test_failing_scenario_is_reported(self, tmp_path, monkeypatch):
        # at p = 6 some x**200 exceeds the (n-1) ulp bound: search exits 1
        bad = [("bad", ["search", "--p", "6", "--n", "200"])]
        monkeypatch.setattr(cli, "GOLDEN_SCENARIOS", bad)
        code, text = run(["regress", "--golden-dir", str(tmp_path)])
        assert code == 1
        assert text == "ERROR bad: scenario exited with status 1\n0/1 scenarios ok\n"

    def test_truncated_golden_differs_in_length_only(
        self, golden_dir, tmp_path, monkeypatch
    ):
        one = [s for s in GOLDEN_SCENARIOS if s[0] == "nmax-p24"]
        monkeypatch.setattr(cli, "GOLDEN_SCENARIOS", one)
        lines = (golden_dir / "nmax-p24.json").read_text().splitlines(keepends=True)
        (tmp_path / "nmax-p24.json").write_text("".join(lines[:-1]))
        code, text = run(["regress", "--golden-dir", str(tmp_path)])
        assert code == 1
        assert text == (
            f"MISMATCH nmax-p24: output differs from {tmp_path / 'nmax-p24.json'}\n"
            "  outputs differ in length only\n0/1 scenarios ok\n"
        )


class TestMainEntry:
    def test_usage_error_exits_2(self, capsys):
        assert main(["spot", "--p", "24", "--x", "7/3", "--n", "2"]) == 2
        assert "not exactly representable" in capsys.readouterr().err

    def test_digits_guard(self):
        with pytest.raises(CliError):
            run(["spot", "--p", "24", "--x", "1", "--n", "2", "--digits", "0"])

    def test_success_prints_report(self, capsys):
        assert main(["bounds", "--p", "24", "--n", "10", "--format", "csv"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("n,simple_ulps")

    def test_console_script(self):
        proc = subprocess.run(
            [sys.executable, "-m", "ulplab.cli", "bounds", "--p", "24", "--n", "10",
             "--format", "json"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["n_max"] == 2088

    @staticmethod
    def _spot_to(stdout, n):
        # Stdout buffered, as by default: the small report's bytes stay in the
        # buffer after the failed flush, and the exit flush must not retry them.
        # The large report overflows the buffer, so write itself fails.
        env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
        return subprocess.run(
            [sys.executable, "-m", "ulplab.cli", "spot", "--p", "24", "--x", "3/2",
             "--n", n], stdout=stdout, stderr=subprocess.PIPE, text=True, env=env,
        )

    @staticmethod
    def _assert_one_error_line(proc, reason):
        assert proc.returncode == 2
        assert proc.stderr == f"error: cannot write the report: {reason}\n"

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
    @pytest.mark.parametrize("n", ["2", "2..2000"], ids=["small", "large"])
    def test_failed_write_exits_2_with_one_line(self, n):
        with open("/dev/full", "w") as full:
            proc = self._spot_to(full, n)
        self._assert_one_error_line(proc, "[Errno 28] No space left on device")

    @pytest.mark.parametrize("n", ["2", "2..2000"], ids=["small", "large"])
    def test_closed_pipe_exits_2_with_one_line(self, n):
        read_end, write_end = os.pipe()
        os.close(read_end)  # no reader: every write fails with EPIPE
        try:
            proc = self._spot_to(write_end, n)
        finally:
            os.close(write_end)
        self._assert_one_error_line(proc, "[Errno 32] Broken pipe")

    def test_failed_write_in_process(self, monkeypatch, capsys):
        class Unwritable:
            def write(self, *text):
                raise OSError(28, "No space left on device")

            flush = write

        monkeypatch.setattr(sys, "stdout", Unwritable())
        assert main(["bounds", "--p", "24", "--n", "10"]) == 2
        assert capsys.readouterr().err == (
            "error: cannot write the report: [Errno 28] No space left on device\n"
        )

    def test_pool_modules_load_only_when_a_scan_starts_a_pool(self, tmp_path):
        # -S: a site-packages .pth file may import tempfile or typing itself.
        # The CPU count is pinned so that --jobs 2 starts a pool on any host.
        script = textwrap.dedent("""
            import json, os, sys
            sys.path.insert(0, sys.argv[1])
            import ulplab.cli

            def loaded():
                heavy = {"concurrent", "dataclasses", "inspect", "multiprocessing",
                         "tempfile", "typing"}
                return sorted(m for m in sys.modules if m.partition(".")[0] in heavy)

            argv = ["search", "--p", "8", "--n", "3", "--chunk-size", "16"]
            at_import = loaded()
            serial = ulplab.cli.run(argv + ["--jobs", "1"])
            after_serial = loaded()
            os.cpu_count = lambda: 2
            ck = os.path.join(sys.argv[2], "ck.json")
            pooled = ulplab.cli.run(argv + ["--jobs", "2", "--checkpoint", ck])
            after_pool = loaded()
            print(json.dumps([at_import, after_serial, pooled == serial, after_pool]))
        """)
        src = str(Path(cli.__file__).parent.parent)
        proc = subprocess.run(
            [sys.executable, "-S", "-c", script, src, str(tmp_path)],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0, proc.stderr
        at_import, after_serial, same, after_pool = json.loads(proc.stdout)
        assert at_import == after_serial == []
        assert same
        assert {"concurrent.futures", "tempfile"} <= set(after_pool)


# Commands over MAX_DIGITS, counted over all their rows together, over
# MAX_EXACT_BITS, which bounds the largest exact value a command builds, or
# over MAX_SUMMED_BITS, which bounds the exact values of all its rows.
OVER_LIMITS = [
    ["spot", "--p", "24", "--x", "3/2", "--n", "2..3", "--digits", "500001"],
    ["bounds", "--p", "24", "--n", "2..11", "--digits", str(MAX_DIGITS)],
    ["search", "--p", "8", "--n", "3..4", "--digits", str(MAX_DIGITS)],
    ["spot", "--p", "24", "--x", "3/2", "--n", "1..99999999999999999999"],
    ["bounds", "--p", "65536", "--n", "2..66"],
    ["bounds", "--p", "65536", "--n", "2..10000"],
    ["adversary", "--p", "65536", "--n", "65"],
    ["adversary", "--p", "24", "--n", "100000000"],
    ["verify", "--p", "65536", "--n", "2..65"],
    ["spot", "--p", "24", "--x", "3/2", "--n", "1000000000000"],
    ["search", "--p", "24", "--n", "1000000000000", "--around", "8473808", "--radius", "0"],
    ["spot", "--p", "24", "--x", "3/2", "--n", "2..3000"],
    ["bounds", "--p", "24", "--n", "2..4000"],
    ["verify", "--p", "24", "--n", "2..100000"],
]


class TestErrorBoundary:
    # Library ValueErrors become one "error:" line and exit status 2, and so
    # do an unused but malformed verify --n and a p too large to allocate.
    @pytest.mark.parametrize(
        "argv",
        [
            ["spot", "--p", "24", "--x", "0", "--n", "3"],
            ["spot", "--p", "24", "--x", "1", "--n", "0"],
            ["spot", "--p", "1", "--x", "1", "--n", "2"],
            ["verify", "--p", "4"],
            ["bounds", "--p", "4", "--n", "3"],
            ["adversary", "--p", "24", "--n", "1"],
            ["search", "--p", "8", "--n", "3", "--chunk-size", "0"],
            ["verify", "--n", "x"],
            ["verify", "--n", "5..2"],
            ["spot", "--p", "1000000000000", "--x", "1", "--n", "2"],
            ["bounds", "--p", "1000000000000", "--n", "2"],
            ["adversary", "--p", "1000000000000", "--n", "3"],
            ["verify", "--p", "1000000000000"],
            ["spot", "--p", "24", "--x", "1", "--n", "2", "--digits", str(MAX_DIGITS + 1)],
            ["search", "--p", "1000000000000", "--force", "--around", "5", "--n", "2"],
            *OVER_LIMITS,
        ],
    )
    def test_library_error_exits_2(self, argv, capsys):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ")
        assert captured.err.count("\n") == 1

    def test_precision_limit_is_inclusive(self):
        code, text = run(["spot", "--p", str(MAX_PRECISION), "--x", "3", "--n", "2"])
        assert (code, text.splitlines()[1].split()[:2]) == (0, ["2", "0.000000000"])

    def test_digits_limit_is_inclusive(self):
        code, text = run(["spot", "--p", "24", "--x", "8473808/2^23", "--n", "6",
                          "--digits", str(MAX_DIGITS)])
        decimal = text.splitlines()[1].split()[1]
        assert code == 0 and len(decimal) == 2 + MAX_DIGITS
        assert decimal.startswith("4.328005618")

    def test_digits_limit_holds_for_all_rows_together(self):
        digits = MAX_DIGITS // 2
        code, text = run(["spot", "--p", "24", "--x", "3/2", "--n", "2..3",
                          "--digits", str(digits)])
        rows = text.splitlines()[1:]
        assert code == 0 and [len(r.split()[1]) for r in rows] == [2 + digits] * 2
        with pytest.raises(CliError, match="renders 1000002 digits"):
            run(["spot", "--p", "24", "--x", "3/2", "--n", "2..3",
                 "--digits", str(digits + 1)])

    def test_bounds_bits_limit_is_inclusive(self):
        # the last row's psi numerator has p*(n-1) bits
        assert 65536 * 64 == MAX_EXACT_BITS
        assert run(["bounds", "--p", "65536", "--n", "65"])[0] == 0
        with pytest.raises(CliError, match=f"4259840 bits; the limit is {MAX_EXACT_BITS}"):
            run(["bounds", "--p", "65536", "--n", "65..66"])

    @pytest.mark.parametrize("command", ["adversary", "verify"])
    def test_product_bits_limit_is_inclusive(self, command, monkeypatch):
        # p*n bits for the longest sequence; the real limit takes seconds
        monkeypatch.setattr(cli, "MAX_EXACT_BITS", 24 * 40)
        n = "40" if command == "adversary" else "2..40"
        assert run([command, "--p", "24", "--n", n])[0] == 0
        with pytest.raises(CliError, match="the product of 41 factors would have 984 bits"):
            run([command, "--p", "24", "--n", "41" if command == "adversary" else "2..41"])

    @pytest.mark.parametrize(
        "argv,last_row",
        [
            (["spot", "--p", "24", "--x", "3/2"], "40,"),
            (["verify", "--p", "24"], "pass,sequence p=24 n=40,39"),
        ],
    )
    def test_summed_bits_limit_is_inclusive(self, argv, last_row, monkeypatch):
        # p*n bits per row: 24 * 819 over 2..40; the real limit takes seconds
        monkeypatch.setattr(cli, "MAX_SUMMED_BITS", 24 * 819)
        code, text = run(argv + ["--n", "2..40", "--format", "csv"])
        assert code == 0 and text.splitlines()[-1].startswith(last_row)
        with pytest.raises(CliError, match="20640 bits over its rows; the limit is 19656"):
            run(argv + ["--n", "2..41"])

    @pytest.mark.parametrize("argv", OVER_LIMITS)
    def test_limits_refuse_before_any_work(self, argv, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("work began before the refusal")

        for name in ("spot_error", "exhaustive_max_error", "bound_set", "n_max",
                     "psi_fractions", "build_sequence", "verify_prefixes",
                     "check_property1"):
            monkeypatch.setattr(cli, name, forbidden)
        with pytest.raises(CliError, match="the limit is"):
            run(argv)

    @pytest.mark.parametrize(
        "argv,err",
        [
            (["spot", "--p", "24", "--x", "7\n/3", "--n", "2"],
             "error: 7\\n/3 is not exactly representable at precision 24\n"),
            (["bounds", "--p", "24", "--n", "3", "a\nb"],
             "error: unrecognized arguments: a\\nb\n"),
        ],
    )
    def test_newline_in_argument_stays_on_one_line(self, argv, err, capsys):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == err


class TestSearchValidation:
    @pytest.mark.parametrize(
        "extra,message",
        [
            (["--jobs", "0"], "--jobs must be >= 1, got 0"),
            (["--jobs", "-2"], "--jobs must be >= 1, got -2"),
            (["--chunk-size", "0"], "--chunk-size must be >= 1, got 0"),
            (["--chunk-size", "-1"], "--chunk-size must be >= 1, got -1"),
            (["--around", "200", "--radius", "-5"], "--radius must be >= 0, got -5"),
            (["--radius", "-1"], "--radius must be >= 0, got -1"),
            (["--radius", "5"],
             "--radius needs --around; without it the whole binade is scanned"),
        ],
    )
    def test_bad_search_option_exits_2_before_scanning(
        self, extra, message, capsys, monkeypatch
    ):
        import ulplab.cli

        def no_scan(*args, **kwargs):
            raise AssertionError("scan started")

        monkeypatch.setattr(ulplab.cli, "exhaustive_max_error", no_scan)
        assert main(["search", "--p", "8", "--n", "3"] + extra) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"

    def test_precision_below_two_exits_2(self, capsys):
        assert main(["search", "--p", "1", "--n", "3"]) == 2
        err = capsys.readouterr().err
        assert err == "error: precision must be an integer >= 2, got 1\n"

    def test_precision_checked_before_around(self, capsys):
        assert main(["search", "--p", "0", "--n", "3", "--around", "5"]) == 2
        assert "precision must be an integer >= 2" in capsys.readouterr().err

    def test_checkpoint_with_n_range_exits_2_before_scanning(self, tmp_path, capsys):
        ck = tmp_path / "scan.json"
        argv = ["search", "--p", "8", "--n", "3..4", "--checkpoint", str(ck)]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("\n") == 1
        assert "single n" in captured.err
        assert not ck.exists()

    @pytest.mark.parametrize(
        "case",
        [
            "list", "not-json", "directory", "missing-directory", "schema-1",
            "next-k-below", "next-k-above", "next-k-at-start", "next-k-string",
            "best-k-string", "best-k-not-yet-scanned", "negative-violations",
            "violations-above-scanned",
        ],
    )
    def test_bad_checkpoint_exits_2(self, case, tmp_path, capsys):
        ck = tmp_path / "scan.json"
        state = {
            "schema_version": 2, "p": 8, "n": 3, "mode": "even", "k_start": 0,
            "k_stop": 128, "next_k": 64, "best_k": 3, "violations": 0,
        }
        edits = {
            "schema-1": {"schema_version": 1, "best_num": "1000", "best_den": "1"},
            "next-k-below": {"next_k": -5},
            "next-k-above": {"next_k": 200},
            "next-k-at-start": {"next_k": 0},  # written only after a chunk
            "next-k-string": {"next_k": "64"},
            "best-k-string": {"best_k": "3"},
            "best-k-not-yet-scanned": {"best_k": 64},
            "negative-violations": {"violations": -1},
            "violations-above-scanned": {"violations": 65},
        }
        if case == "list":
            ck.write_text("[]\n")
        elif case == "not-json":
            ck.write_text("{\n")
        elif case == "directory":
            ck.mkdir()
        elif case == "missing-directory":
            ck = tmp_path / "absent" / "scan.json"
        else:
            state.update(edits[case])
            ck.write_text(json.dumps(state))
        argv = ["search", "--p", "8", "--n", "3", "--jobs", "1", "--checkpoint", str(ck)]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ")
        assert captured.err.count("\n") == 1
        assert str(ck) in captured.err

    def test_big_render_restores_digit_limit(self, default_int_digit_limit):
        code, text = run(
            ["search", "--p", "24", "--n", "600", "--around", "16000000",
             "--radius", "32", "--jobs", "1", "--format", "json"]
        )
        assert code == 0
        numerator = json.loads(text)["rows"][0]["max_error"]["fraction"].split("/")[0]
        assert len(numerator) > 4300
        assert sys.get_int_max_str_digits() == 4300


def _readme_examples() -> dict[str, tuple[str, str]]:
    """Subcommand -> (command line, expected stdout) of each ``$ ulplab``
    block in the README."""
    readme = (Path(__file__).parent.parent / "README.md").read_text()
    examples = {}
    for block in readme.split("```text\n")[1:]:
        body = block.split("```")[0]
        first, _, output = body.partition("\n")
        if first.startswith("$ ulplab "):
            command = first[len("$ ulplab "):]
            examples[command.split()[0]] = (command, output)
    return examples


@pytest.mark.parametrize("subcommand", ["search", "spot", "bounds", "adversary"])
def test_readme_example_output(subcommand):
    command, output = _readme_examples()[subcommand]
    assert run(command.split()) == (0, output)


class TestBigPrecisionOutput:
    # At p = 15000 a significand has about 4516 decimal digits, past the
    # default int-to-str limit.
    def test_spot_prints_x(self, default_int_digit_limit):
        code, text = run(["spot", "--p", "15000", "--x", "3/2", "--n", "2",
                          "--format", "json"])
        assert code == 0
        assert sys.get_int_max_str_digits() == 4300
        with int_digit_limit(0):
            assert _parse_x(json.loads(text)["x"], 15000).to_fraction() == Fraction(3, 2)

    def test_spot_reads_back_its_own_x(self, default_int_digit_limit):
        first = run(["spot", "--p", "15000", "--x", "3/2", "--n", "2", "--format", "json"])
        x = json.loads(first[1])["x"]
        assert len(x) > 4300
        again = run(["spot", "--p", "15000", "--x", x, "--n", "2", "--format", "json"])
        assert again == first
        assert sys.get_int_max_str_digits() == 4300

    def test_search_takes_spot_significand(self, default_int_digit_limit):
        # argv integers past the limit parse: the limit is lifted before argparse runs
        x = json.loads(run(["spot", "--p", "15000", "--x", "3/2", "--n", "2",
                            "--format", "json"])[1])["x"]
        significand = x.split("/")[0]
        assert len(significand) > 4300
        code, text = run(["search", "--p", "15000", "--n", "2", "--around", significand,
                          "--radius", "0", "--force", "--format", "json"])
        assert code == 0
        assert sys.get_int_max_str_digits() == 4300
        with int_digit_limit(0):  # k_start and k_stop are integers here
            row = json.loads(text)["rows"][0]
        assert (row["argmax_x"], row["scanned"]) == (x, 1)

    def test_adversary_prints_factors(self, default_int_digit_limit):
        code, text = run(["adversary", "--p", "15000", "--n", "3", "--format", "json"])
        assert code == 0
        assert sys.get_int_max_str_digits() == 4300
        factors = json.loads(text)["factors"]
        seq = build_sequence(15000, 3)
        with int_digit_limit(0):
            assert [Fraction(f) for f in factors] == [
                f.to_fraction() for f in seq
            ]
        assert max(len(f) for f in factors) > 4300

