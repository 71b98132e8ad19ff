"""Seeded command lists for the three benchmark workloads.

Every workload is a list of argv lists for ``ulplab.cli.run``, a pure
function of the workload name and the seed.  The seed only picks values
(inputs x, window centres); which commands run, and how large each one
is, never depends on it, so runs with different seeds do the same amount
of work and only the numbers inside change.

This module imports nothing from ``ulplab``: the child process generates
its inputs inside the timed set-up, and the parent regenerates the same
list to record and check it.
"""

from __future__ import annotations

import os
import random

WORKLOADS = ("binade-scan", "long-chain", "many-small")

# Scan workers of the probe's pooled pass (search.pool.speedup).
JOBS = min(2, os.cpu_count() or 1)

# Placeholder in argv for the repetition's fresh scratch directory.
TMP = "{tmp}"

# binade-scan: the whole binade [1, 2) at two adjacent n.  2**19 candidates
# per n take about a second on one core; 64 chunks per n give the checkpoint
# writer real work and cut the timing into 64 segments per n.  The timed
# scan runs on one worker: on a 2-vCPU shared host a pool of two measured
# the other tenants (its makespan spread by 40% between identical runs);
# the probe still measures the pool, as search.pool.speedup.
SCAN_P = 20
SCAN_NS = (6, 7)
SCAN_CHUNK = 1 << 13
SCAN_JOBS = 1

# long-chain: long n, where every quadratic rebuild dominates.  The small
# window scan at n = 600 is under 2% of the wall time; it gives the
# workload a scan rate without making the scan kernel matter to it.  Its
# 65 candidates are split into 17 chunks, so its time is cut into short
# segments like the other commands'.
LONG_P = 24
ADVERSARY_N = 1000
SPOT_N = 600
BOUNDS_N = 1000
LONG_WINDOW_N = 600
LONG_WINDOW_RADIUS = 32
LONG_WINDOW_CHUNK = 4

# many-small: (p, n, radius, extra flags) of the windowed scans.
SMALL_WINDOWS = ((24, 10, 256, ()), (53, 6, 32, ("--force",)))
SMALL_WINDOWS_PER_P = 12
SMALL_SPOTS_PER_P = 30
SMALL_PRECISIONS = (24, 53, 113)
SMALL_BOUNDS_N = (10, 20, 30, 40, 50)
SMALL_ADVERSARY_N = (10, 20, 40, 60, 80, 100)

# Layers (span names) that must record calls on each workload.  A traced
# run that finds one of them idle refuses to report, so a refactor that
# moves work out of sight cannot silently zero a metric.
_LONG_CHAIN_LAYERS = {
    "cli.run",
    "search.exhaustive_max_error",
    "search.spot_error",
    "algorithms.naive_power",
    "algorithms.iterated_product",
    "softfloat.fp_mul",
    "softfloat.round_nearest",
    "exact.relative_error",
    "exact.to_decimal",
    "bounds.bound_set",
    "bounds.n_max",
    "adversary.build_sequence",
    "adversary.verify_sequence",
}
LAYERS_AT_WORK = {
    "binade-scan": {
        "cli.run",
        "search.exhaustive_max_error",
        "search.checkpoint",
        "exact.to_decimal",
    },
    "long-chain": _LONG_CHAIN_LAYERS,
    # Every traced layer but the checkpoint writer.
    "many-small": _LONG_CHAIN_LAYERS
    | {"bounds.check_property1", "bounds.check_lemma2", "bounds.check_refined_binary32_bound"},
}


def _x(rng: random.Random, p: int) -> str:
    """A random representable x in [1, 2), written as SIGNIFICAND/2^(p-1)."""
    return f"{rng.randrange(1 << (p - 1), 1 << p)}/2^{p - 1}"


def _centre(rng: random.Random, p: int, radius: int) -> str:
    """A significand whose whole window lies inside the binade, so no
    window is clipped and every seed scans the same number of candidates."""
    return str(rng.randrange((1 << (p - 1)) + radius, (1 << p) - radius))


def _window(p: int, n: int, centre: str, radius: int, extra=()) -> list[str]:
    return [
        "search", "--p", str(p), "--n", str(n), "--around", centre,
        "--radius", str(radius), "--jobs", "1", *extra, "--format", "json",
    ]


def _binade_scan(rng: random.Random) -> list[list[str]]:
    # Exhaustive, so the seed is unused.  One command per n: a checkpoint
    # file belongs to a single n.
    return [
        [
            "search", "--p", str(SCAN_P), "--n", str(n), "--jobs", str(SCAN_JOBS),
            "--chunk-size", str(SCAN_CHUNK),
            "--checkpoint", f"{TMP}/scan-p{SCAN_P}-n{n}.json", "--format", "json",
        ]
        for n in SCAN_NS
    ]


def _long_chain(rng: random.Random) -> list[list[str]]:
    p = str(LONG_P)
    return [
        ["adversary", "--p", p, "--n", str(ADVERSARY_N), "--format", "json"],
        ["spot", "--p", p, "--x", _x(rng, LONG_P), "--n", f"2..{SPOT_N}", "--format", "json"],
        ["bounds", "--p", p, "--n", f"2..{BOUNDS_N}", "--format", "json"],
        _window(
            LONG_P,
            LONG_WINDOW_N,
            _centre(rng, LONG_P, LONG_WINDOW_RADIUS),
            LONG_WINDOW_RADIUS,
            ("--chunk-size", str(LONG_WINDOW_CHUNK)),
        ),
    ]


def _many_small(rng: random.Random) -> list[list[str]]:
    cmds = []
    for p in SMALL_PRECISIONS:
        for i in range(SMALL_SPOTS_PER_P):
            n = 2 + i % 11
            cmds.append(["spot", "--p", str(p), "--x", _x(rng, p), "--n", str(n), "--format", "json"])
    for p, n, radius, extra in SMALL_WINDOWS:
        for _ in range(SMALL_WINDOWS_PER_P):
            cmds.append(_window(p, n, _centre(rng, p, radius), radius, extra))
    for p in SMALL_PRECISIONS:
        for n in SMALL_BOUNDS_N:
            cmds.append(["bounds", "--p", str(p), "--n", f"2..{n}", "--format", "json"])
        for n in SMALL_ADVERSARY_N:
            cmds.append(["adversary", "--p", str(p), "--n", str(n), "--format", "json"])
    cmds.append(["verify", "--format", "json"])
    cmds.append(["verify", "--p", "24", "--n", "10..12", "--format", "json"])
    cmds.append(["regress", "--golden-dir", "goldens"])
    return cmds


_GENERATORS = {
    "binade-scan": _binade_scan,
    "long-chain": _long_chain,
    "many-small": _many_small,
}


def generate(workload: str, seed: int) -> list[list[str]]:
    """The workload's argv lists for this seed; ``TMP`` marks scratch paths."""
    return _GENERATORS[workload](random.Random(seed))


def with_tmp(commands: list[list[str]], tmp: str) -> list[list[str]]:
    return [[a.replace(TMP, tmp) for a in argv] for argv in commands]


def shape(argv: list[str]) -> list[str]:
    """argv with the seeded values masked: what must not depend on the seed."""
    masked = list(argv)
    for i, a in enumerate(argv[:-1]):
        if a in ("--x", "--around"):
            masked[i + 1] = "*"
    return masked


def scan_specs(commands: list[list[str]]) -> list[dict]:
    """The significand ranges the workload's ``search`` commands scan.

    The traced run's scan-layer probe re-scans exactly these ranges through
    ``exhaustive_max_error``; the window arithmetic mirrors ``--around``.
    """
    specs = []
    for argv in commands:
        if argv[0] != "search":
            continue
        pairs = [a for a in argv[1:] if a != "--force"]  # the one bare flag used
        opts = dict(zip(pairs[::2], pairs[1::2]))
        p, n = int(opts["--p"]), int(opts["--n"])
        space = 1 << (p - 1)
        k_start, k_stop = 0, space
        if "--around" in opts:
            centre, radius = int(opts["--around"]) - space, int(opts["--radius"])
            k_start, k_stop = max(0, centre - radius), min(space, centre + radius + 1)
        specs.append(
            {
                "p": p,
                "n": n,
                "k_start": k_start,
                "k_stop": k_stop,
                "chunk_size": int(opts.get("--chunk-size", 1 << 20)),
                "force": "--force" in argv,
            }
        )
    return specs
