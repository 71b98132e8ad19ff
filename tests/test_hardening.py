"""Fuzzed command lines and a scan killed mid-run.

Every bad command line leaves ``main`` as one ``error:`` line on stderr and
exit status 2, argparse usage errors included; every good one prints a
report that parses.  A checkpointed scan killed with SIGKILL, or one whose
pool worker dies, resumes to the bytes of an uninterrupted run.
"""

import io
import json
import os
import random
import signal
import subprocess
import sys
import tempfile
import time
from contextlib import redirect_stderr, redirect_stdout
from functools import partial
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import ulplab
import ulplab.search
from ulplab.cli import MAX_DIGITS, main, run
from ulplab.search import _scan_chunk

GOLDENS = str(Path(__file__).parent.parent / "goldens")
TMP = "<tmp>"  # replaced by a fresh temporary directory in every example

# Each option maps to (values it parses, malformed values), small fixed lists
# so that each example runs in milliseconds: p <= 12 for search, n <= 60
# (300 for bounds and verify), --digits <= 40.  Parsed values still include some that
# the library refuses.
PRECISION = (
    ["2", "4", "5", "8", "24", "53", "113"],
    ["0", "1", "-1", "x", "", "1000000000000"],
)
COUNT = (["0", "1", "2", "6", "60", "2..5", "1..60"], ["-2", "5..2", "3..", "..", "x", ""])
OUTPUT = {
    "--format": (["table", "csv", "json"], ["xml", ""]),
    "--digits": (["1", "9", "40"], ["0", "-1", "x", str(MAX_DIGITS + 1)]),
}
MODE = {"--mode": (["even", "away"], ["up", ""])}
FLAG = ([], [])
OPTIONS = {
    "search": {
        "--p": (["2", "3", "5", "8", "12"], ["1", "0", "-1", "x", "", "1000000000000"]),
        "--n": (["1", "2", "3", "6", "60", "2..4", "58..60"], ["0", "-1", "4..2", "x", ""]),
        "--jobs": (["1", "2"], ["0", "-1"]),
        "--checkpoint": ([f"{TMP}/ck.json"], [f"{TMP}/absent/ck.json", TMP]),
        "--around": (["2048", "3000", "4095", "200"], ["-5", "5000", "x"]),
        "--radius": (["0", "16", "4096"], ["-1", "x"]),
        "--chunk-size": (["64", "1000"], ["0", "-1", "x"]),
        "--force": FLAG,
        "--progress": FLAG,
        **MODE,
        **OUTPUT,
    },
    "spot": {
        "--p": PRECISION,
        "--x": (
            # 6/4: an even significand; -3/2^900: a negative value with a
            # large 2^K; 2 and 1/2^7: exact powers of two; the last two: 2^K
            # past 2^62, where 64-bit exponents would end
            ["1", "3/2", "8473808/2^23", "1/2^3", "-3", "0", "7/3",
             "6/4", "-3/2^900", "2", "1/2^7", "1/2^" + "9" * 20, f"1/2^{2**62 + 1}"],
            ["1/0", "2^3", "x", "", "7\n/3"],
        ),
        "--n": COUNT,
        **MODE,
        **OUTPUT,
    },
    "bounds": {
        "--p": PRECISION,
        # 2..300: a long range through the running psi fold, and at p <= 8
        # a refusal where gamma becomes undefined; 1..3 and 2..3: rows from
        # 1, refused before any is formed, and from 2
        "--n": (["0", "1", "2", "60", "2..300", "1..3", "2..3", "1..60"], COUNT[1]),
        **OUTPUT,
    },
    "adversary": {
        "--p": PRECISION,
        "--n": (["1", "2", "3", "10", "60"], ["-1", "0", "2..3", "x", ""]),
        **OUTPUT,
    },
    "verify": {
        # p = 9: the construction fails at step 28, inside 10..40; 2..300:
        # long prefixes of the one folded sequence
        "--p": (PRECISION[0] + ["9"], PRECISION[1]),
        "--n": (COUNT[0] + ["2..300", "10..40"], COUNT[1]),
        "--format": OUTPUT["--format"],
    },
    "regress": {"--golden-dir": ([GOLDENS, f"{TMP}/goldens", TMP], [])},
}
REQUIRED = {"--p", "--n", "--x"}
JUNK = ["--bogus", "", "xml", "1..", "--p", "-", "7", "a\nb"]


@st.composite
def command_lines(draw) -> list[str]:
    """A command line with its required options and some optional ones; two
    in three carry one defect: a malformed value, a dropped token, a junk
    token, or a bad or missing command."""
    command = draw(st.sampled_from(list(OPTIONS)))
    options = OPTIONS[command]
    pairs = []
    for name, (good, _) in options.items():
        if command in ("verify", "regress") or name not in REQUIRED:
            if draw(st.booleans()):
                continue
        pairs.append([name, draw(st.sampled_from(good))] if good else [name])
    defect = draw(st.sampled_from(["none", "value", "drop", "junk", "command", "none"]))
    malformed = [k for k, (_, bad) in options.items() if bad]
    if defect == "value" and malformed:
        name = draw(st.sampled_from(malformed))
        pairs.append([name, draw(st.sampled_from(options[name][1]))])
    argv = [token for pair in draw(st.permutations(pairs)) for token in pair]
    if defect == "drop" and argv:
        del argv[draw(st.integers(0, len(argv) - 1))]
    if defect == "junk":
        argv.insert(draw(st.integers(0, len(argv))), draw(st.sampled_from(JUNK)))
    if defect == "command":
        return draw(st.sampled_from([[], ["bogus"], [""]])) + argv
    return [command] + argv


@settings(
    max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)
@given(argv=command_lines())
def test_every_command_line_exits_0_1_or_2_with_parseable_output(argv):
    with tempfile.TemporaryDirectory() as tmp:
        argv = [token.replace(TMP, tmp) for token in argv]
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:
                pytest.fail(f"main raised SystemExit({exc.code})")
    out, err = out.getvalue(), err.getvalue()
    assert code in (0, 1, 2)
    if code == 2:
        assert out == ""
        assert err.startswith("error: ")
        assert err.count("\n") == 1 and err.endswith("\n")
        return
    if "--progress" not in argv:
        assert err == ""
    formats = [v for k, v in zip(argv, argv[1:]) if k == "--format"]
    if formats and formats[-1] == "json":
        json.loads(out)


@pytest.mark.parametrize("jobs", [1, 2])
def test_killed_scan_resumes_to_the_same_bytes(jobs, tmp_path):
    # p = 16 in 128 chunks of 256; at n = 300 the scan takes about 1.3 s
    # with one worker.
    ck = tmp_path / "scan.json"
    argv = ["search", "--p", "16", "--n", "300", "--chunk-size", "256",
            "--jobs", str(jobs), "--format", "json"]
    want = run(argv)
    command = [sys.executable, "-m", "ulplab.cli", *argv, "--checkpoint", str(ck)]
    src = str(Path(ulplab.__file__).parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])])}

    proc = subprocess.Popen(command, env=env, stdout=subprocess.DEVNULL,
                            stderr=subprocess.DEVNULL, start_new_session=True)
    try:
        deadline = time.monotonic() + 30
        while not ck.exists() and proc.poll() is None and time.monotonic() < deadline:
            time.sleep(0.002)
        assert ck.exists(), "the scan wrote no checkpoint"
        time.sleep(random.Random(jobs).uniform(0.0, 0.4))
    finally:
        os.killpg(proc.pid, signal.SIGKILL)  # the pool's workers too
        proc.wait()

    state = json.loads(ck.read_text())
    assert state["next_k"] > state["k_start"] == 0
    # A temp file as a write cut short by the kill would leave it.
    (tmp_path / "scan.json.k1ll3d").write_text('{"schema_version": 2, "p"')
    resumed = subprocess.run(command, env=env, capture_output=True, text=True)
    assert (resumed.returncode, resumed.stdout) == want
    assert resumed.stderr == ""


def _dies_at(checkpoint: str, k: int, chunk):
    """The real chunk kernel, but the worker given the chunk from k exits
    once the scan has saved a checkpoint."""
    if chunk[3] < k:
        return _scan_chunk(chunk)
    deadline = time.monotonic() + 30
    while not os.path.exists(checkpoint) and time.monotonic() < deadline:
        time.sleep(0.001)
    os._exit(1)


def test_dead_worker_exits_2_and_resumes_to_the_same_bytes(tmp_path, monkeypatch, capsys):
    ck = str(tmp_path / "scan.json")
    argv = ["search", "--p", "12", "--n", "6", "--chunk-size", "64", "--format", "json"]
    want = run(argv + ["--jobs", "1"])
    monkeypatch.setattr(ulplab.search.os, "cpu_count", lambda: 2)
    with monkeypatch.context() as m:
        m.setattr(ulplab.search, "_scan_chunk", partial(_dies_at, ck, 512))
        assert main(argv + ["--jobs", "2", "--checkpoint", ck]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: a scan worker died; a --checkpoint scan resumes from its last chunk\n"
    )
    assert 0 < json.loads(Path(ck).read_text())["next_k"] <= 512
    assert run(argv + ["--jobs", "2", "--checkpoint", ck]) == want
