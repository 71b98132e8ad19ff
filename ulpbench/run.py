"""ulplab benchmark: seeded workloads, end-to-end metrics, and a traced run.

    python3 ulpbench/run.py --workload many-small --seed 1 --seconds 35 --trace 0

Run from anywhere; the repository root is this file's parent directory.
Each repetition runs in a fresh interpreter (``rep.py``), so ``setup_s``
and ``peak_rss_mb`` belong to it.  Repetitions repeat until ``--seconds``
have passed (at least ``MIN_REPS``).  ``setup_s`` is their median; the
other times are built from each command's best time, and every time is
scaled to a fixed reference's speed (see ``Run.end_to_end``).  Outputs
are checked against ``tests/oracle.py`` after the timed region.

``--trace 0`` reports the end-to-end metrics named in BENCHMARK.json.
``--trace 1`` alternates untraced and traced repetitions, probes the scan
layer, and reports the per-layer metrics.  The last stdout line is one
JSON object; the lines before it are a readable summary.  Every run's
argv list and raw timings are written under ``.ulpbench/runs/``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".ulpbench"

MIN_REPS = 3
# Times are reported at the speed at which rep.reference takes this long,
# close to its best time on the 2-vCPU host the baseline was measured on.
REF_S = 0.85e-3
CHILD_TIMEOUT_S = 150
# A percentile is only reported with this many samples beyond it.
MIN_BEYOND = 10

# Per-layer names that sum several spans.
LAYER_GROUPS = {
    "bounds.check_suites": (
        "bounds.check_property1",
        "bounds.check_lemma2",
        "bounds.check_refined_binary32_bound",
    )
}
LAYER_STATS = {"calls": "calls", "self_s": "self_s", "steps": "work", "factors": "work"}


class BenchError(Exception):
    """The benchmark cannot produce a trustworthy report."""


def percentile(samples: list[float], q: float) -> tuple[float, int]:
    """Nearest-rank q-quantile of the samples, and how many lie beyond it."""
    if not samples:
        raise BenchError("no samples")
    ordered = sorted(samples)
    rank = max(1, math.ceil(q * len(ordered)))
    return ordered[rank - 1], len(ordered) - rank


def command_bests(reps: list[dict]) -> list[float]:
    """Each command's best time over the repetitions.

    A command split into the same segments in every repetition (a scan at
    its chunks, spot and bounds at their rows) gets the sum of its
    segments' bests; any other command gets its best whole time.
    """
    bests = []
    for i in range(len(reps[0]["cmd_s"])):
        segs = [r["segments"][i] for r in reps]
        if all(len(s) == len(segs[0]) for s in segs):
            bests.append(sum(min(col) for col in zip(*segs)))
        else:
            bests.append(min(r["cmd_s"][i] for r in reps))
    return bests


def _child(job: dict) -> dict:
    """Run rep.py on one job in its own process group; return its JSON."""
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "rep.py"), json.dumps(job)],
        cwd=ROOT,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        start_new_session=True,
    )
    try:
        out, err = proc.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise BenchError(f"{job['kind']} job timed out after {CHILD_TIMEOUT_S} s") from None
    if proc.returncode != 0 or not out.strip():
        tail = "\n".join(err.strip().splitlines()[-5:])
        raise BenchError(f"{job['kind']} job failed (status {proc.returncode}):\n{tail}")
    return json.loads(out.splitlines()[-1])


def _outputs(result: dict) -> list[str]:
    return [
        (Path(result["out_dir"]) / f"out-{i}.txt").read_text() for i in range(len(result["codes"]))
    ]


class Run:
    """One benchmark invocation: repetitions, checks, and metrics."""

    def __init__(self, workload: str, seed: int, seconds: int, trace: bool) -> None:
        import workloads

        self.workload, self.seed, self.seconds, self.trace = workload, seed, seconds, trace
        self.commands = workloads.generate(workload, seed)
        self.scans = workloads.scan_specs(self.commands)
        self.tag = f"{workload}-seed{seed}-trace{int(trace)}"
        self.tmp_root = OUT / "tmp" / str(os.getpid())
        self.attempted = 0
        self.wrong: list[str] = []

    def _tmp(self, name: str) -> str:
        path = self.tmp_root / name
        path.mkdir(parents=True)
        return str(path)

    def rep(self, i: int, trace: bool, keep_outputs: bool) -> dict:
        tmp = self._tmp(f"rep{i}")
        spans = OUT / "spans" / f"{self.tag}.spans"
        spans.parent.mkdir(parents=True, exist_ok=True)
        job = {
            "kind": "rep",
            "workload": self.workload,
            "seed": self.seed,
            "tmp": tmp,
            "trace": trace,
            "out_dir": tmp if keep_outputs else None,
            "spans": str(spans),
        }
        return _child(job)

    def repetitions(self) -> list[dict]:
        """Until --seconds pass; traced runs alternate untraced and traced."""
        reps: list[dict] = []
        t0 = time.perf_counter()
        while len(reps) < MIN_REPS or time.perf_counter() - t0 < self.seconds:
            reps.append(self.rep(len(reps), self.trace and len(reps) % 2 == 1, not reps))
        return reps

    def check(self, reps: list[dict]) -> None:
        """Rep 0's outputs against the oracle; every later rep must match them."""
        from checks import check_output

        first = reps[0]
        for argv, code, error, text in zip(
            self.commands, first["codes"], first["errors"], _outputs(first)
        ):
            self.attempted += 1
            if bad := (error and f"{argv[0]}: raised {error}") or check_output(argv, code, text):
                self.wrong.append(bad)
        for r in reps[1:]:
            for argv, code, h, h0 in zip(self.commands, r["codes"], r["hashes"], first["hashes"]):
                self.attempted += 1
                if code != 0 or h != h0:
                    self.wrong.append(f"{argv[0]}: output differs between repetitions")
        if self.trace and self.workload == "binade-scan":
            self._check_pooled(first)

    def _check_pooled(self, first: dict) -> None:
        """Pooled reports without a checkpoint must equal the timed jobs=1,
        checkpointed reports byte for byte."""
        import workloads

        pooled = []
        for argv in self.commands:
            i = argv.index("--checkpoint")
            pooled.append(argv[:i] + argv[i + 2:] + ["--jobs", str(workloads.JOBS)])
        ref = _child({"kind": "argv", "commands": pooled, "out_dir": self._tmp("pooled")})
        for argv, code, text, want in zip(pooled, ref["codes"], _outputs(ref), _outputs(first)):
            self.attempted += 1
            if code != 0 or text != want:
                self.wrong.append(f"search p={argv[2]} n={argv[4]}: pooled report differs")

    def end_to_end(self, reps: list[dict]) -> tuple[dict, list[str]]:
        search = [i for i, argv in enumerate(self.commands) if argv[0] == "search"]
        candidates = sum(s["k_stop"] - s["k_start"] for s in self.scans)
        # Each command's time is its best over the repetitions, as timeit
        # reports it, built from the bests of its few-ms segments: other
        # tenants of a small shared host only ever add time, in phases
        # from a fraction of a second to minutes that slow Python work by
        # up to 2x, and a short segment needs only a short quiet moment.
        # Each repetition also times a fixed reference (rep.reference)
        # between the segments, and every time is scaled by REF_S over the
        # run's best reference time, so a run in which the host never got
        # as fast as in another is compared at the same speed.
        ref_s = min(t for r in reps for t in r["ref_s"])
        scale = REF_S / ref_s
        cmd_s = [t * scale for t in command_bests(reps)]
        cmd_ms = [t * 1000 for t in cmd_s]
        p50, beyond50 = percentile(cmd_ms, 0.5)
        p90, beyond90 = percentile(cmd_ms, 0.9)
        if self.workload == "many-small" and beyond90 < MIN_BEYOND:
            raise BenchError(f"only {beyond90} commands beyond p90")
        values = {
            "setup_s": statistics.median(r["setup_s"] for r in reps) * scale,
            "wall_s": sum(cmd_s),
            "cand_per_s": candidates / sum(cmd_s[i] for i in search),
            "cmd_p50_ms": p50,
            "cmd_p90_ms": p90,
            "peak_rss_mb": max(r["peak_rss_mb"] for r in reps),
        }
        refs = sum(len(r["ref_s"]) for r in reps)
        notes = [
            f"{len(reps)} repetitions of {len(self.commands)} commands; "
            f"each command's time is the sum of its segments' bests, setup_s the median",
            f"times at reference speed: x{scale:.4g} "
            f"(best of {refs} reference runs {ref_s * 1000:.4g} ms, nominal {REF_S * 1000:g} ms); "
            f"measured wall_s {sum(cmd_s) / scale:.4g} s",
            f"cmd latency: {len(cmd_ms)} samples (per-command best), "
            f"{beyond50} beyond p50, {beyond90} beyond p90"
            + ("" if beyond90 >= MIN_BEYOND else " (fewer than 10: p90 is indicative only)"),
            f"cand_per_s: {candidates} candidates per repetition over {len(search)} search commands",
        ]
        return values, notes

    def probe(self) -> dict:
        import workloads

        scans = _child(
            {"kind": "probe", "specs": self.scans, "tmp": self._tmp("probe"), "jobs": workloads.JOBS}
        )["scans"]
        self.attempted += len(scans)
        self.wrong += [
            f"search p={s['p']} n={s['n']}: jobs=1 and pooled reports differ"
            for s in scans
            if not s["agree"]
        ]
        kernel: dict[tuple[int, int], tuple[int, float]] = {}
        for s in scans:
            c, t = kernel.get((s["p"], s["n"]), (0, 0.0))
            kernel[(s["p"], s["n"])] = (c + s["candidates"], t + s["serial_s"])
        chunk_s = [c for s in scans for c in s["chunk_s"]]
        serial = sum(s["serial_s"] for s in scans)
        return {
            "kernel": {pn: c / t for pn, (c, t) in kernel.items()},
            "search.chunk_s.p50": percentile(chunk_s, 0.5)[0],
            "search.chunk_s.max": max(chunk_s),
            "search.pool.speedup": serial / sum(s["pool_s"] for s in scans),
        }

    def per_layer(self, reps: list[dict], names: list[str]) -> tuple[dict, list[str]]:
        import workloads

        traced = [r for r in reps if r["layers"]]
        plain = [r for r in reps if not r["layers"]]
        counts = [{k: (t["calls"], t["work"]) for k, t in r["layers"].items()} for r in traced]
        if any(c != counts[0] for c in counts):
            raise BenchError("call counts differ between traced repetitions")
        totals = {
            name: {
                "calls": t["calls"],
                "work": t["work"],
                "self_s": min(r["layers"][name]["self_s"] for r in traced),
            }
            for name, t in traced[0]["layers"].items()
        }
        at_work = workloads.LAYERS_AT_WORK[self.workload]
        idle = sorted(n for n in at_work if not totals[n]["calls"])
        if idle:
            raise BenchError(f"layers that do work on {self.workload} recorded no calls: {idle}")
        scan = self.probe()
        # The checkpointed scan differs from the plain one only by the
        # writer's calls, so their time is the checkpoint's overhead.
        scan["search.checkpoint.overhead_s"] = totals["search.checkpoint"]["self_s"]
        scan["tracing.overhead_s"] = min(r["wall_s"] for r in traced) - min(r["wall_s"] for r in plain)
        values = {}
        for name in names:
            if name.startswith("search.kernel.cand_per_s.p"):
                p, n = name.rsplit(".", 1)[1][1:].split("_n")
                values[name] = scan["kernel"].get((int(p), int(n)), 0.0)
            elif name in scan:
                values[name] = scan[name]
            else:
                layer, stat = name.rsplit(".", 1)
                parts = LAYER_GROUPS.get(layer, (layer,))
                if stat not in LAYER_STATS or any(p not in totals for p in parts):
                    raise BenchError(f"no traced entry point gives {name}")
                values[name] = sum(totals[p][LAYER_STATS[stat]] for p in parts)
        notes = [
            f"{len(plain)} untraced and {len(traced)} traced repetitions; "
            f"counts equal in every traced one, self times their best; "
            f"scan layer from a separate probe of {len(self.scans)} scanned ranges"
        ]
        return values, notes

    def execute(self, spec: dict) -> dict:
        shutil.rmtree(self.tmp_root, ignore_errors=True)
        try:
            reps = self.repetitions()
            self.check(reps)
            if self.trace:
                values, notes = self.per_layer(reps, [m["name"] for m in spec["per_layer"]])
                metrics_spec = spec["per_layer"]
            else:
                values, notes = self.end_to_end(reps)
                metrics_spec = spec["end_to_end"]
        finally:
            shutil.rmtree(self.tmp_root, ignore_errors=True)
        if unknown := [m["name"] for m in metrics_spec if m["name"] not in values]:
            raise BenchError(f"no measurement gives {unknown}")
        metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in metrics_spec}
        record = {
            "workload": self.workload,
            "seed": self.seed,
            "trace": self.trace,
            "argv": self.commands,
            "metrics": metrics,
            "wrong": self.wrong,
            "reps": [
                {k: r[k] for k in ("setup_s", "wall_s", "cmd_s", "segments", "ref_s", "layers")}
                for r in reps
            ],
        }
        (OUT / "runs").mkdir(parents=True, exist_ok=True)
        record_path = OUT / "runs" / f"{self.tag}.json"
        record_path.write_text(json.dumps(record, indent=1) + "\n")
        print(f"ulpbench {self.tag}: argv list and raw timings in {record_path.relative_to(ROOT)}")
        for line in notes:
            print(f"  {line}")
        for name, m in metrics.items():
            print(f"  {name:40s} {m['value']:.6g} {m['unit']}")
        print(f"  wrong_outputs {len(self.wrong)}/{self.attempted}")
        for bad in self.wrong[:10]:
            print(f"    {bad}")
        return {
            "correct": not self.wrong,
            "attempted": self.attempted,
            "failed": len(self.wrong),
            "metrics": metrics,
        }


def _source_tree_ok() -> str | None:
    for rel in ("src/ulplab/cli.py", "tests/oracle.py", "goldens", "BENCHMARK.json"):
        if not (ROOT / rel).exists():
            return f"{rel} is missing under {ROOT}: run from a full checkout"
    return None


def main(argv: list[str] | None = None) -> int:
    sys.path.insert(0, str(HERE))
    import workloads

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds is None or args.seconds < 1:
        parser.error("--seconds must be a positive whole number")
    if problem := _source_tree_ok():
        print(f"ulpbench: {problem}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    # The checks parse exact numerators of thousands of digits.
    sys.set_int_max_str_digits(0)
    # Compile once up front, so every repetition imports from the same cache.
    import compileall

    compileall.compile_dir(str(ROOT / "src" / "ulplab"), quiet=1)
    compileall.compile_dir(str(HERE), quiet=1, maxlevels=0)
    try:
        result = Run(args.workload, args.seed, args.seconds, bool(args.trace)).execute(spec)
    except BenchError as exc:
        print(f"ulpbench: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
