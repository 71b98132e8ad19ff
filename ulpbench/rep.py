"""One unit of benchmark work, in a fresh interpreter; prints one JSON line.

    python3 ulpbench/rep.py '<job json>'

Job kinds:

- ``rep``: one repetition of a workload.  ``setup_s`` covers importing
  ulplab and generating the seeded inputs; then every command runs once
  through ``ulplab.cli.run``, closed loop.  Each command's time is also
  cut into ``segments`` at the scan's ``progress`` callbacks, one per
  finished chunk, and after the calls in ``STAMP_SITES``.  Between them,
  every ``REF_GAP_S`` at most, the fixed ``reference`` work is timed into
  ``ref_s`` and left out of the commands' times.  With ``trace`` set, the
  cross-module calls are recorded as spans instead, written to ``spans``,
  and summed per layer into ``layers`` after the timed region.
- ``argv``: run a given argv list untimed (reference outputs for checks).
- ``probe``: the scan layer alone.  Each range the workload scans is
  scanned again through ``exhaustive_max_error``: at jobs=1 without a
  checkpoint (kernel rate, and per-chunk times from the ``progress``
  callback), and with a pool of ``jobs`` workers.

The repetition's peak RSS includes pool workers reaped by then.
"""

import sys
import time


def _rss_mb() -> float:
    import resource

    peak = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )
    return peak / 1024  # ru_maxrss is in KiB on Linux


# The reference is timed at most this often, at command starts, command
# ends and stamps.
REF_GAP_S = 0.05


def reference() -> int:
    """Fixed pure-Python work that times the host, not ulplab.

    Small-int arithmetic like the scan kernel's and big-int products like
    the long chains'.  Every reported time is relative to this function's
    time, so it must never change.
    """
    acc, x = 0, (1 << 19) + 12345
    for i in range(1500):
        y = x * (x + i)
        acc ^= (y >> (y.bit_length() - 20)) & 0xFF
    a, b = 3**3000, 7**2000
    for i in range(30):
        acc ^= ((a * (b + i)) >> 9000) & 0xFF
    return acc


class Clock:
    """``perf_counter`` with the reference's runs cut out.

    With ``sample`` set, a reading first runs ``reference`` if
    ``REF_GAP_S`` have passed since its last run and records its time in
    ``ref_s``.  Readings leave those runs out, so no command is charged
    for them.
    """

    def __init__(self, sample: bool) -> None:
        self.sample = sample
        self.ref_s: list[float] = []
        self._paused = 0.0
        self._last = float("-inf")

    def __call__(self) -> float:
        t = time.perf_counter()
        reading = t - self._paused
        if self.sample and t - self._last >= REF_GAP_S:
            reference()
            self._last = time.perf_counter()
            self.ref_s.append(self._last - t)
            self._paused += self._last - t
        return reading


# Calls after which a command's time is cut into segments: one per row of
# spot and bounds, one per rebuild of the adversary's product.  A site that
# a later ulplab no longer has is skipped; its commands are cut less finely.
STAMP_SITES = (
    ("ulplab.cli", "spot_error"),
    ("ulplab.cli", "bound_set"),
    ("ulplab.adversary", "iterated_product"),
)


def _install_stamps(stamps: list, clock) -> None:
    """Append a ``clock`` reading to ``stamps`` after every call to a stamp
    site and after every chunk of a scan that ``cli`` starts."""
    import importlib

    def stamped(fn):
        def call(*args, **kwargs):
            try:
                return fn(*args, **kwargs)
            finally:
                stamps.append(clock())

        return call

    for mod_name, attr in STAMP_SITES:
        mod = importlib.import_module(mod_name)
        if hasattr(mod, attr):
            setattr(mod, attr, stamped(getattr(mod, attr)))

    import ulplab.cli

    scan = ulplab.cli.exhaustive_max_error

    def stamped_scan(*args, progress=None, **kwargs):
        def tick(done, total):
            stamps.append(clock())
            if progress:
                progress(done, total)

        return scan(*args, progress=tick, **kwargs)

    ulplab.cli.exhaustive_max_error = stamped_scan


def _run_commands(run, commands, out_dir=None, stamps=None, clock=time.perf_counter):
    """Run each argv once; with ``out_dir``, save each stdout as out-<i>.txt.

    ``stamps`` is the list ``_install_stamps`` appends to, if installed:
    each command's time is then split at its stamps into ``segments``.
    """
    import hashlib
    import os

    cmd_s, segments, codes, errors, hashes = [], [], [], [], []
    for argv in commands:
        if stamps is not None:
            stamps.clear()
        t = clock()
        try:
            code, text = run(argv)
            error = None
        # A raising command (argparse exits) is a wrong output, not a crash.
        except (Exception, SystemExit) as exc:
            code, text, error = None, "", f"{type(exc).__name__}: {exc}"
        t_end = clock()
        cmd_s.append(t_end - t)
        cuts = [t, *(stamps or ()), t_end]
        segments.append([b - a for a, b in zip(cuts, cuts[1:])])
        codes.append(code)
        errors.append(error)
        hashes.append(hashlib.sha256(text.encode()).hexdigest())
        if out_dir:
            with open(os.path.join(out_dir, f"out-{len(hashes) - 1}.txt"), "w") as f:
                f.write(text)
    # Closed loop: the list's wall time is the sum of its commands' times,
    # leaving out the hashing and saving of outputs between them.
    return {
        "wall_s": sum(cmd_s),
        "cmd_s": cmd_s,
        "segments": segments,
        "codes": codes,
        "errors": errors,
        "hashes": hashes,
        "out_dir": out_dir,
    }


def _rep(job: dict, t0: float) -> dict:
    import ulplab.cli
    import workloads

    commands = workloads.with_tmp(workloads.generate(job["workload"], job["seed"]), job["tmp"])
    setup_s = time.perf_counter() - t0
    tracer, stamps, clock = None, None, Clock(sample=not job["trace"])
    if job["trace"]:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
    else:
        stamps = []
        _install_stamps(stamps, clock)
    try:
        # Looked up per repetition so the traced wrapper is the one called.
        result = _run_commands(ulplab.cli.run, commands, job["out_dir"], stamps, clock)
    finally:
        if tracer:
            tracer.uninstall()
    if tracer:
        from tracing import layer_totals

        tracer.spans.write(job["spans"])
        result["layers"] = layer_totals(tracer.spans)
    else:
        result["layers"] = None
    result["ref_s"] = clock.ref_s
    result["setup_s"] = setup_s
    result["peak_rss_mb"] = _rss_mb()
    return result


def _probe(job: dict) -> dict:
    from ulplab.search import exhaustive_max_error

    def timed(spec, **kw):
        """The report, the pass's time, and its per-chunk times."""
        stamps = [time.perf_counter()]
        report = exhaustive_max_error(
            spec["p"],
            spec["n"],
            k_start=spec["k_start"],
            k_stop=spec["k_stop"],
            chunk_size=spec["chunk_size"],
            force=spec["force"],
            progress=lambda done, total: stamps.append(time.perf_counter()),
            **kw,
        )
        return report, stamps[-1] - stamps[0], [b - a for a, b in zip(stamps, stamps[1:])]

    out = []
    for spec in job["specs"]:
        # Plain and pooled passes take turns, twice, and the faster of each
        # pair counts: a single pass on shared cores is too noisy.
        reports, plain, pool, chunk_s = [], [], [], []
        for _ in range(2):
            report, t, chunks = timed(spec)
            reports.append(report)
            if not plain or t < min(plain):
                chunk_s = chunks
            plain.append(t)
            report, t, _ = timed(spec, jobs=job["jobs"])
            reports.append(report)
            pool.append(t)
        out.append(
            {
                "p": spec["p"],
                "n": spec["n"],
                "candidates": spec["k_stop"] - spec["k_start"],
                "serial_s": min(plain),
                "pool_s": min(pool),
                "chunk_s": chunk_s,
                "agree": all(r == reports[0] for r in reports),
            }
        )
    return {"scans": out}


def main() -> None:
    t0 = time.perf_counter()
    import json
    import os

    job = json.loads(sys.argv[1])
    here = os.path.dirname(os.path.abspath(__file__))
    sys.path[:0] = [os.path.join(os.path.dirname(here), "src"), here]
    if job["kind"] == "rep":
        result = _rep(job, t0)
    elif job["kind"] == "argv":
        import ulplab.cli

        result = _run_commands(ulplab.cli.run, job["commands"], job["out_dir"])
    else:
        result = _probe(job)
    sys.stdout.write(json.dumps(result) + "\n")


if __name__ == "__main__":
    main()
