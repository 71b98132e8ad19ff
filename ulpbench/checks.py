"""Output checks, made outside the timed region against ``tests/oracle.py``.

The oracle shares no code with ulplab: it rounds by repeated halving and
works on ``Fraction`` throughout.  Every check takes one command's argv and
its stdout text and returns ``None`` when the output is right, or a short
reason when it is not.  Checks parse only the canonical JSON output.
"""

from __future__ import annotations

import json
import sys
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "tests"))
from oracle import (  # noqa: E402
    oracle_error_ulps,
    oracle_power,
    oracle_product,
)

# Rows re-derived per long range (first, last and evenly spaced between):
# the oracle is quadratic over a whole range.
SAMPLED_ROWS = 12
# A scanned window is re-scanned by the oracle when candidates * n is at
# most this; beyond it (whole binades, long n) only the argmax is re-derived.
# The oracle finds binades by repeated halving, so its cost grows with n**2.
WINDOW_ORACLE_BUDGET = 10_000


def _opt(argv: list[str], flag: str, default: str | None = None) -> str | None:
    return argv[argv.index(flag) + 1] if flag in argv else default


def _frac(text: str) -> Fraction:
    """'A/B', 'A/2^K' or 'A' as an exact Fraction."""
    num, _, den = text.partition("/")
    if den.startswith("2^"):
        return Fraction(int(num), 1 << int(den[2:]))
    return Fraction(int(num), int(den or 1))


def _error(obj: dict, want: Fraction, digits: int, what: str) -> str | None:
    """A rendered error object must be the exact fraction and its truncation."""
    if _frac(obj["fraction"]) != want:
        return f"{what}: fraction {obj['fraction'][:40]} is not {str(want)[:40]}"
    whole, rem = divmod(want.numerator, want.denominator)
    decimal = f"{whole}.{rem * 10**digits // want.denominator:0{digits}d}"
    if obj["decimal"] != decimal:
        return f"{what}: decimal {obj['decimal']} is not {decimal}"
    return None


def _sample(items: list, k: int = SAMPLED_ROWS) -> list:
    if len(items) <= k:
        return items
    step = (len(items) - 1) / (k - 1)
    return [items[round(i * step)] for i in range(k)]


def _range(text: str) -> list[int]:
    lo, _, hi = text.partition("..")
    return list(range(int(lo), int(hi or lo) + 1))


def check_spot(argv: list[str], obj: dict) -> str | None:
    p, digits = int(_opt(argv, "--p")), int(_opt(argv, "--digits", "9"))
    x = _frac(_opt(argv, "--x"))
    if _frac(obj["x"]) != x or obj["p"] != p:
        return "spot: echoed x or p differs from the request"
    if [r["n"] for r in obj["rows"]] != _range(_opt(argv, "--n")):
        return "spot: rows do not cover the requested n"
    for row in _sample(obj["rows"]):
        n = row["n"]
        want = oracle_error_ulps(oracle_power(x, n, p), x**n, p)
        if bad := _error(row["error"], want, digits, f"spot n={n}"):
            return bad
    return None


def _window_oracle(p: int, n: int, k_start: int, k_stop: int) -> tuple[Fraction, int]:
    """Largest oracle error over the window, and the smallest k attaining it."""
    best, best_k = Fraction(-1), -1
    for k in range(k_start, k_stop):
        x = Fraction((1 << (p - 1)) + k, 1 << (p - 1))
        err = oracle_error_ulps(oracle_power(x, n, p), x**n, p)
        if err > best:
            best, best_k = err, k
    return best, best_k


def check_search(argv: list[str], obj: dict) -> str | None:
    """Small windows re-scanned by the oracle; otherwise the argmax re-derived."""
    p, digits = int(_opt(argv, "--p")), int(_opt(argv, "--digits", "9"))
    if [r["n"] for r in obj["rows"]] != _range(_opt(argv, "--n")):
        return "search: rows do not cover the requested n"
    for row in obj["rows"]:
        n, k_start, k_stop = row["n"], row["k_start"], row["k_stop"]
        what = f"search p={p} n={n}"
        if row["violations"] != 0:
            return f"{what}: {row['violations']} violations"
        if row["scanned"] != k_stop - k_start:
            return f"{what}: scanned {row['scanned']} of {k_stop - k_start}"
        argmax = _frac(row["argmax_x"])
        if "--around" in argv:
            centre = int(_opt(argv, "--around")) - (1 << (p - 1))
            radius = int(_opt(argv, "--radius"))
            want = (centre - radius, centre + radius + 1)
        else:
            want = (0, 1 << (p - 1))
        if (k_start, k_stop) != want:
            return f"{what}: scanned [{k_start}, {k_stop}), not the requested range"
        if (k_stop - k_start) * n <= WINDOW_ORACLE_BUDGET:
            best, best_k = _window_oracle(p, n, k_start, k_stop)
            if argmax != Fraction((1 << (p - 1)) + best_k, 1 << (p - 1)):
                return f"{what}: argmax {row['argmax_x']} is not the oracle's"
        else:
            best = oracle_error_ulps(oracle_power(argmax, n, p), argmax**n, p)
        if bad := _error(row["max_error"], best, digits, what):
            return bad
    return None


def check_bounds(argv: list[str], obj: dict) -> str | None:
    """Rows against integer closed forms of psi, gamma and n_max."""
    p, digits = int(_opt(argv, "--p")), int(_opt(argv, "--digits", "9"))
    two_p = 1 << p

    def within(n: int) -> bool:  # n <= sqrt(2^(1/3) - 1) * 2^(p/2)
        return (n * n + two_p) ** 3 <= 1 << (3 * p + 1)

    cutoff = obj["n_max"]
    if not (within(cutoff) and not within(cutoff + 1)):
        return f"bounds: n_max {cutoff} is wrong"
    if [r["n"] for r in obj["rows"]] != _range(_opt(argv, "--n")):
        return "bounds: rows do not cover the requested n"
    for row in _sample(obj["rows"]):
        n = row["n"]
        k = n - 1
        # psi/u = ((2^p + 1)^k - 2^(pk)) / 2^(p(k-1)), gamma/u = k 2^p / (2^p - k)
        psi = Fraction((two_p + 1) ** k - (1 << (p * k)), 1 << (p * (k - 1)))
        gamma = Fraction(k * two_p, two_p - k)
        if row["simple_ulps"] != k or row["within_n_max"] != within(n):
            return f"bounds n={n}: simple bound or n_max flag is wrong"
        for key, want in (("psi_ulps", psi), ("gamma_ulps", gamma)):
            if bad := _error(row[key], want, digits, f"bounds n={n} {key}"):
                return bad
    return None


def check_adversary(argv: list[str], obj: dict) -> str | None:
    """Passed, and the achieved error re-derived from the printed factors."""
    p, n = int(_opt(argv, "--p")), int(_opt(argv, "--n"))
    digits = int(_opt(argv, "--digits", "9"))
    if not (obj["passed"] and obj["all_down"]):
        return f"adversary p={p} n={n}: sequence did not pass"
    factors = [Fraction(f) for f in obj["factors"]]
    if len(factors) != n or obj["error_bound"] != n - 1:
        return f"adversary p={p} n={n}: wrong length or bound"
    exact = Fraction(1)
    for f in factors:
        exact *= f
    achieved = oracle_error_ulps(oracle_product(factors, p), exact, p)
    if not achieved < n - 1:
        return f"adversary p={p} n={n}: oracle error is not below n-1"
    return _error(obj["achieved_error"], achieved, digits, "adversary") or _error(
        obj["gap"], n - 1 - achieved, digits, "adversary gap"
    )


def check_verify(argv: list[str], obj: dict) -> str | None:
    names = {c["name"] for c in obj["checks"] if c["passed"]}
    want = {"property1", "lemma2", "refined_binary32"}
    if "--p" in argv:
        p = _opt(argv, "--p")
        want |= {f"sequence p={p} n={n}" for n in _range(_opt(argv, "--n", "10"))}
    if not obj["passed"] or names != want:
        return f"verify: passing checks {sorted(names)}"
    return None


def check_regress(argv: list[str], text: str) -> str | None:
    goldens = len(list((ROOT / _opt(argv, "--golden-dir", "goldens")).glob("*.json")))
    if not text.endswith(f"\n{goldens}/{goldens} scenarios ok\n"):
        return f"regress: {text.splitlines()[-1] if text else 'no output'}"
    return None


_JSON_CHECKS = {
    "spot": check_spot,
    "search": check_search,
    "bounds": check_bounds,
    "adversary": check_adversary,
    "verify": check_verify,
}


def check_output(argv: list[str], code: int | None, text: str) -> str | None:
    """None if the command exited 0 and its output is right, else why not."""
    if code != 0:
        return f"{argv[0]}: exit status {code}"
    try:
        if argv[0] == "regress":
            return check_regress(argv, text)
        return _JSON_CHECKS[argv[0]](argv, json.loads(text))
    except (KeyError, ValueError, TypeError, ZeroDivisionError) as exc:
        return f"{argv[0]}: unreadable output ({type(exc).__name__}: {exc})"
