"""Tests of the benchmark harness itself (not of ulplab).

    python3 -m pytest ulpbench -q
"""

import hashlib
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import checks  # noqa: E402
import rep  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from run import MIN_BEYOND, Run, command_bests, percentile  # noqa: E402
from ulplab.cli import run as cli_run  # noqa: E402


def test_percentile_needs_ten_samples_beyond_it():
    samples = [float(v) for v in range(1, 101)]
    assert percentile(samples, 0.9) == (90.0, 10)
    assert percentile(samples, 0.5) == (50.0, 50)
    assert percentile(samples[:99], 0.9)[1] < MIN_BEYOND
    # Order does not matter; one repetition of many-small already suffices.
    assert percentile(samples[::-1], 0.9) == (90.0, 10)
    n = len(workloads.generate("many-small", 0))
    assert percentile([0.0] * n, 0.9)[1] >= MIN_BEYOND


def test_command_bests_sum_the_best_of_each_segment():
    reps = [
        {"cmd_s": [6.0, 5.0], "segments": [[1.0, 5.0], [5.0]]},
        {"cmd_s": [6.0, 4.0], "segments": [[4.0, 2.0], [1.0, 3.0]]},
    ]
    # Command 0 is cut alike in both repetitions: best parts, 1 + 2.
    # Command 1 is not, so its best whole time counts.
    assert command_bests(reps) == [3.0, 4.0]


def test_clock_leaves_the_reference_out(monkeypatch):
    monkeypatch.setattr(rep, "reference", lambda: time.sleep(0.02))
    clock = rep.Clock(sample=True)
    first = clock()  # runs the reference, which is due
    second = clock()  # too soon for another run
    assert len(clock.ref_s) == 1 and clock.ref_s[0] >= 0.02
    assert second - first < 0.01
    monkeypatch.setattr(rep, "REF_GAP_S", 0.0)
    clock()
    assert len(clock.ref_s) == 2
    plain = rep.Clock(sample=False)
    plain()
    assert plain.ref_s == []


def test_stamps_cut_scans_at_chunks_and_rows_at_calls(monkeypatch):
    import importlib

    import ulplab.cli

    # Registered with monkeypatch, so the wrappers are undone afterwards.
    sites = [(ulplab.cli, "exhaustive_max_error")]
    sites += [(importlib.import_module(m), attr) for m, attr in rep.STAMP_SITES]
    for mod, attr in sites:
        monkeypatch.setattr(mod, attr, getattr(mod, attr))
    stamps = []
    rep._install_stamps(stamps, time.perf_counter)
    commands = [
        ["search", "--p", "24", "--n", "6", "--around", "8473808", "--radius", "32",
         "--chunk-size", "4", "--format", "json"],
        ["spot", "--p", "24", "--x", "8473808/2^23", "--n", "2..7", "--format", "json"],
    ]
    result = rep._run_commands(ulplab.cli.run, commands, stamps=stamps)
    assert result["codes"] == [0, 0]
    # 65 candidates in chunks of 4: 17 chunks and the rendering after them.
    # Six rows of spot: six calls and the rendering.
    assert [len(s) for s in result["segments"]] == [18, 7]
    for whole, parts in zip(result["cmd_s"], result["segments"]):
        assert sum(parts) == pytest.approx(whole)


def test_self_time_subtracts_child_covered_time():
    spans = tracing.Spans(["root", "a", "b", "c", "leaf"])
    root = spans.add("root", -1, 0.0, 10.0)
    a = spans.add("a", root, 1.0, 4.0)
    spans.add("leaf", a, 2.0, 3.0)
    spans.add("b", root, 5.0, 9.0)
    # Overlaps b and runs past its parent: the covered part counts once.
    spans.add("c", root, 8.0, 10.5)
    totals = tracing.layer_totals(spans)
    self_s = {name: t["self_s"] for name, t in totals.items()}
    assert self_s == pytest.approx({"root": 2.0, "a": 2.0, "leaf": 1.0, "b": 4.0, "c": 2.5})
    assert all(t["calls"] == 1 for t in totals.values())


def test_tracer_nests_spans_and_restores_the_library():
    import ulplab.algorithms
    import ulplab.cli

    original = ulplab.algorithms.fp_mul
    tracer = tracing.Tracer()
    tracer.install()
    try:
        code, _ = ulplab.cli.run(["spot", "--p", "24", "--x", "8473808/2^23", "--n", "6"])
    finally:
        tracer.uninstall()
    assert code == 0 and ulplab.algorithms.fp_mul is original
    totals = tracing.layer_totals(tracer.spans)
    assert totals["softfloat.fp_mul"]["calls"] == 5
    assert totals["algorithms.naive_power"]["work"] == 5
    assert totals["cli.run"]["calls"] == 1
    spans = tracer.spans
    chain = []
    i = spans.name.tolist().index(spans.names.index("softfloat.fp_mul"))
    while i >= 0:
        chain.append(spans.names[spans.name[i]])
        i = spans.parent[i]
    assert chain == [
        "softfloat.fp_mul",
        "algorithms.naive_power",
        "search.spot_error",
        "cli.run",
    ]


def test_tracer_refuses_a_missing_entry_point(monkeypatch):
    import ulplab.cli

    sites = dict(tracing.SITES)
    sites["search.gone"] = ((("ulplab.search", "no_such_function"),), None)
    monkeypatch.setattr(tracing, "SITES", sites)
    original = ulplab.cli.run
    with pytest.raises(KeyError, match="no_such_function"):
        tracing.Tracer().install()
    assert ulplab.cli.run is original


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_same_inputs(workload):
    assert workloads.generate(workload, 7) == workloads.generate(workload, 7)


@pytest.mark.parametrize("workload", ["long-chain", "many-small"])
def test_seed_changes_values_not_composition_or_sizes(workload):
    one, two = workloads.generate(workload, 1), workloads.generate(workload, 2)
    assert one != two
    assert [workloads.shape(a) for a in one] == [workloads.shape(a) for a in two]
    assert [s["k_stop"] - s["k_start"] for s in workloads.scan_specs(one)] == [
        s["k_stop"] - s["k_start"] for s in workloads.scan_specs(two)
    ]


@pytest.mark.parametrize(
    "argv",
    [
        ["spot", "--p", "53", "--x", "4507062722867963/2^52", "--n", "2..7", "--format", "json"],
        ["search", "--p", "24", "--n", "6", "--around", "8473808", "--radius", "40", "--format", "json"],
        ["bounds", "--p", "24", "--n", "2..30", "--format", "json"],
        ["adversary", "--p", "24", "--n", "12", "--format", "json"],
        ["verify", "--p", "24", "--n", "10..11", "--format", "json"],
        ["regress", "--golden-dir", "goldens"],
    ],
)
def test_checks_accept_right_outputs(argv, monkeypatch):
    monkeypatch.chdir(HERE.parent)
    code, text = cli_run(argv)
    assert checks.check_output(argv, code, text) is None


def test_corrupted_output_is_counted_as_wrong(tmp_path):
    argv = ["spot", "--p", "24", "--x", "8473808/2^23", "--n", "6", "--format", "json"]
    code, text = cli_run(argv)
    # Last digit of the exact error's numerator, off by one.
    i = text.index('/', text.index('"fraction"')) - 1
    bad = text[:i] + str((int(text[i]) + 1) % 10) + text[i + 1:]
    assert checks.check_output(argv, code, bad) is not None

    bench = Run("many-small", 0, 1, False)
    bench.commands = [argv, argv]
    rep0 = tmp_path / "rep0"
    rep0.mkdir()
    (rep0 / "out-0.txt").write_text(text)
    (rep0 / "out-1.txt").write_text(bad)
    digest = [hashlib.sha256(t.encode()).hexdigest() for t in (text, bad)]
    first = {"codes": [0, 0], "errors": [None, None], "hashes": digest, "out_dir": str(rep0)}
    # A later repetition that differs from the checked one is wrong too.
    later = {"codes": [0, 0], "errors": [None, None], "hashes": digest[::-1], "out_dir": None}
    bench.check([first, later])
    assert bench.attempted == 4
    assert len(bench.wrong) == 3
