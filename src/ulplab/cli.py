"""Command-line front end: scans, spot checks, bound tables, hard sequences.

Output is deliberately boring: ``table`` for eyeballs, ``csv`` and ``json``
for machines.  JSON is canonical (two-space indent, sorted keys, trailing
newline) so that parse-then-reserialize is byte-identical, which is what
the golden-file regression leans on.  Progress chatter goes to standard
error only; standard output carries nothing but the report.

Error values are printed as an exact fraction together with a truncated
decimal; the decimal is always a correct prefix of the fraction's
expansion, never a rounded approximation.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys
from fractions import Fraction
from operator import itemgetter

from .adversary import build_sequence, verify_prefixes, verify_sequence
from .bounds import (
    CheckReport,
    bound_set,
    check_lemma2,
    check_property1,
    check_refined_binary32_bound,
    n_max,
    psi_fractions,
)
from .exact import _int_str, _trailing_zeros, to_decimal
from .search import DEFAULT_CHUNK_SIZE, PRECISION_GUARD, exhaustive_max_error, spot_error
from .softfloat import FpNumber, RoundingMode, _check_precision, round_nearest

__all__ = ["GOLDEN_SCENARIOS", "main", "run"]

SCHEMA_VERSION = 1

# Every command that takes --p builds p-bit numbers before anything else can
# fail, so a huge p would exhaust memory; it is refused first.  n_max, the
# slowest of them, still runs in well under a second at this limit.
MAX_PRECISION = 1 << 16

# Sizes _budget refuses before any work.  to_decimal builds 10**digits: a
# million digits, summed over a command's rows, take about a second.  Row n
# builds about p*n bits (x**n, n factors' product, psi's numerator): at the
# limit on one row `bounds --p 65536 --n 2..65` takes about 10 s, at the
# limit on all rows `spot --p 24 --n 2..2364` about 12 s.
MAX_DIGITS = 10**6
MAX_EXACT_BITS = 1 << 22
MAX_SUMMED_BITS = 1 << 26


class CliError(Exception):
    """A usage or guard problem; message goes to stderr, exit status 2."""


def _parse_range(text: str) -> range:
    """'7' -> range(7, 8); '3..8' -> range(3, 9).  Inclusive, ascending."""
    lo, sep, hi = text.partition("..")
    try:
        start = int(lo)
        stop = int(hi) if sep else start
    except ValueError:
        raise CliError(f"bad count or range {text!r}; expected N or A..B") from None
    if stop < start:
        raise CliError(f"empty range {text!r}")
    return range(start, stop + 1)


def _budget(args: argparse.Namespace, ns: range, value: str, lag: int = 0) -> None:
    """Refuse rows n in ``ns`` rendering over MAX_DIGITS digits in all, or of
    p*(n - lag) bits each over MAX_EXACT_BITS (the last row, ``value`` with
    {} for its n) or MAX_SUMMED_BITS in all.  No len(): it overflows."""
    rows, last, digits = ns.stop - ns.start, ns.stop - 1, getattr(args, "digits", 0)
    for size, limit, text in (
        (rows * digits, MAX_DIGITS, f"--n {args.n} renders {{}} digits at --digits {digits}"),
        (args.p * (last - lag), MAX_EXACT_BITS, value.format(last) + " would have {} bits"),
        (args.p * (ns.start + last - 2 * lag) * rows // 2, MAX_SUMMED_BITS,
         f"--n {args.n} would build {{}} bits over its rows"),
    ):
        if size > limit:
            raise CliError(f"{text.format(size)}; the limit is {limit}")


def _parse_x(text: str, p: int) -> FpNumber:
    """Parse '8473808/2^23', '4097/4096', or a plain integer, exactly.

    The 2^K of A/2^K goes into the exponent and is never built, so any
    K >= 0 is taken, and costs no more than reading it."""
    num_s, slash, den_s = text.partition("/")
    try:
        num = int(num_s)
        if den_s.startswith("2^"):
            den, shift = 1, int(den_s[2:])
            if shift < 0:
                raise ValueError
        else:
            den, shift = int(den_s) if slash else 1, 0
        value = Fraction(num, den)
    except (ValueError, ZeroDivisionError):
        raise CliError(f"bad value {text!r}; expected INT, A/B, or A/2^K") from None
    x = round_nearest(value, p)
    if x.to_fraction() != value:
        raise CliError(f"{text} is not exactly representable at precision {p}")
    if x.is_zero:
        return x
    return FpNumber(x.sign, x.significand, x.exponent - shift, p)


def _fp_repr(x: FpNumber) -> str:
    """Render as SIGNIFICAND/2^SHIFT (or a plain integer), unreduced."""
    if x.is_zero:
        return "0"
    sign = "-" if x.sign < 0 else ""
    shift = x.precision - 1 - x.exponent
    if shift <= 0:
        return sign + _int_str(x.significand << -shift)
    return f"{sign}{x.significand}/2^{shift}"


def _fraction_str(x: FpNumber) -> str:
    """``str(x.to_fraction())`` without the Fraction: the significand's
    trailing zero bits cancel against the power-of-two denominator."""
    shift = x.precision - 1 - x.exponent
    if x.is_zero or shift <= 0:
        return _fp_repr(x)
    t = min(_trailing_zeros(x.significand), shift)
    num = f"{'-' if x.sign < 0 else ''}{x.significand >> t}"
    return num if t == shift else f"{num}/{1 << shift - t}"


def _error_obj(err: Fraction, digits: int, den: str = "") -> dict:
    return {
        "fraction": f"{_int_str(err.numerator)}/{den or _int_str(err.denominator)}",
        "decimal": to_decimal(err, digits),
    }


def _cell(value) -> str:
    return str(value).lower() if isinstance(value, bool) else str(value)


def _render(args: argparse.Namespace, obj: dict, columns, rows, notes=()) -> str:
    """json writes ``obj`` under the schema version and command name; table and
    csv write one line per row, one cell per ``(header, getter)`` in ``columns``.
    Only the table appends ``notes``: json and csv carry the same facts in fields."""
    if args.format == "json":
        obj = {"schema_version": SCHEMA_VERSION, "command": args.command, **obj}
        return json.dumps(obj, indent=2, sort_keys=True) + "\n"
    header = [h for h, _ in columns]
    cells = [[_cell(get(r)) for _, get in columns] for r in rows]
    if args.format == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(cells)
        return buf.getvalue()
    # Pad every column but the last: each line is right-stripped anyway.
    widths = [max(len(c[i]) for c in [header, *cells]) for i in range(len(header) - 1)]
    lines = [
        "  ".join([*(c.ljust(w) for c, w in zip(line, widths)), line[-1]]).rstrip()
        for line in [header, *cells]
    ]
    return "\n".join([*lines, *notes]) + "\n"


def _progress_printer(p: int, n: int):
    def cb(done: int, total: int) -> None:
        print(f"search p={p} n={n}: {done}/{total}", file=sys.stderr, flush=True)

    return cb


_SEARCH_COLUMNS = (
    ("n", itemgetter("n")),
    ("max_error_ulps", lambda r: r["max_error"]["decimal"]),
    ("fraction", lambda r: r["max_error"]["fraction"]),
    ("argmax_x", itemgetter("argmax_x")),
    ("scanned", itemgetter("scanned")),
    ("violations", itemgetter("violations")),
)

# Half-width of a search --around window when --radius is not given.
_DEFAULT_RADIUS = 4096


def _cmd_search(args: argparse.Namespace) -> tuple[int, str]:
    mode = RoundingMode(args.mode)
    ns = _parse_range(args.n)
    _budget(args, ns, "x^{}")
    if args.checkpoint and len(ns) > 1:
        raise CliError(
            f"--checkpoint holds the state of a single n; got --n {args.n}"
        )
    for flag, value in (("--jobs", args.jobs), ("--chunk-size", args.chunk_size)):
        if value < 1:
            raise CliError(f"{flag} must be >= 1, got {value}")
    if args.radius is not None:
        if args.radius < 0:
            raise CliError(f"--radius must be >= 0, got {args.radius}")
        if args.around is None:
            raise CliError(
                "--radius needs --around; without it the whole binade is scanned"
            )
    _check_precision(args.p)
    if args.p > PRECISION_GUARD and not args.force:
        raise CliError(
            f"--p {args.p} exceeds the scan guard ({PRECISION_GUARD}); "
            "pass --force for a deliberately large run"
        )
    k_start, k_stop = 0, None
    if args.around is not None:
        radius = _DEFAULT_RADIUS if args.radius is None else args.radius
        center = args.around - (1 << (args.p - 1))
        if not 0 <= center < 1 << (args.p - 1):
            raise CliError(
                f"--around {args.around} is not a precision-{args.p} significand "
                f"in [2^{args.p - 1}, 2^{args.p})"
            )
        k_start = max(0, center - radius)
        k_stop = min(1 << (args.p - 1), center + radius + 1)
    rows = []
    for n in ns:
        r = exhaustive_max_error(
            args.p,
            n,
            mode,
            k_start=k_start,
            k_stop=k_stop,
            jobs=args.jobs,
            chunk_size=args.chunk_size,
            checkpoint=args.checkpoint,
            progress=_progress_printer(args.p, n) if args.progress else None,
            force=args.force,
        )
        rows.append(
            {
                "n": r.n,
                "max_error": _error_obj(r.max_error, args.digits),
                "argmax_x": _fp_repr(r.argmax_x),
                "scanned": r.scanned,
                "violations": r.violations,
                "k_start": r.k_start,
                "k_stop": r.k_stop,
            }
        )
    obj = {
        "p": args.p,
        "mode": mode.value,
        "rows": rows,
    }
    bad = sum(r["violations"] for r in rows)
    notes = [f"violations: {bad} input(s) exceeded the (n-1) ulp bound"] if bad else []
    return (1 if bad else 0), _render(args, obj, _SEARCH_COLUMNS, rows, notes)


_SPOT_COLUMNS = (
    ("n", itemgetter("n")),
    ("error_ulps", lambda r: r["error"]["decimal"]),
    ("fraction", lambda r: r["error"]["fraction"]),
)


def _cmd_spot(args: argparse.Namespace) -> tuple[int, str]:
    mode = RoundingMode(args.mode)
    x = _parse_x(args.x, args.p)
    ns = _parse_range(args.n)
    _budget(args, ns, "x^{}")
    rows = [
        {"n": n, "error": _error_obj(spot_error(x, n, mode), args.digits)} for n in ns
    ]
    obj = {
        "p": args.p,
        "mode": mode.value,
        "x": _fp_repr(x),
        "rows": rows,
    }
    return 0, _render(args, obj, _SPOT_COLUMNS, rows)


_BOUNDS_COLUMNS = (
    ("n", itemgetter("n")),
    ("simple_ulps", itemgetter("simple_ulps")),
    ("psi_ulps", lambda r: r["psi_ulps"]["decimal"]),
    ("gamma_ulps", lambda r: r["gamma_ulps"]["decimal"]),
    ("within_n_max", itemgetter("within_n_max")),
)


def _cmd_bounds(args: argparse.Namespace) -> tuple[int, str]:
    ns = _parse_range(args.n)
    _budget(args, ns, "psi's numerator at n = {}", lag=1)
    cutoff = n_max(args.p)  # refuses p < 5, so the shift below is safe
    first_undefined = max(ns[0], (1 << args.p) + 1)  # least n with (n-1)u >= 1
    if ns[0] >= 2 and first_undefined in ns:
        bound_set(args.p, first_undefined)  # raises its error before any row
    rows = []
    # bound_set accepts each n before the fold forms that row
    psi_texts = psi_fractions(args.p, ns)
    for n in ns:
        b = bound_set(args.p, n)
        rows.append(
            {
                "n": n,
                "simple_ulps": b.simple,
                "psi_ulps": {
                    "fraction": next(psi_texts),
                    "decimal": to_decimal(b.psi, args.digits),
                },
                "gamma_ulps": _error_obj(b.gamma, args.digits),
                "within_n_max": n <= cutoff,
            }
        )
    obj = {
        "p": args.p,
        "n_max": cutoff,
        "rows": rows,
    }
    notes = [f"note: n={n} exceeds n_max({args.p})={cutoff}" for n in ns if n > cutoff]
    return 0, _render(args, obj, _BOUNDS_COLUMNS, rows, notes)


_FIELD_VALUE_COLUMNS = (("field", itemgetter(0)), ("value", itemgetter(1)))


def _cmd_adversary(args: argparse.Namespace) -> tuple[int, str]:
    _budget(args, range(args.n, args.n + 1), "the product of {} factors")
    factors = build_sequence(args.p, args.n)
    report = verify_sequence(factors)
    values = [_fraction_str(f) for f in factors]
    # gap = (n-1) - achieved_error has the error's reduced denominator
    den = _int_str(report.achieved_error.denominator)
    err = _error_obj(report.achieved_error, args.digits, den)
    gap = _error_obj(report.gap, args.digits, den)
    obj = {
        "p": args.p,
        "n": args.n,
        "factors": values,
        "achieved_error": err,
        "error_bound": report.error_bound,
        "gap": gap,
        "all_down": report.all_down,
        "passed": report.passed,
    }
    rows = [
        ("p", args.p),
        ("n", args.n),
        ("achieved_error_ulps", err["decimal"]),
        ("fraction", err["fraction"]),
        ("error_bound_ulps", report.error_bound),
        ("gap_ulps", gap["decimal"]),
        ("all_down", report.all_down),
        ("passed", report.passed),
        *((f"a{i}", v) for i, v in enumerate(values, start=1)),
    ]
    text = _render(args, obj, _FIELD_VALUE_COLUMNS, rows)
    return (0 if report.passed else 1), text


_VERIFY_COLUMNS = (
    ("status", lambda r: "pass" if r["passed"] else "FAIL"),
    ("check", itemgetter("name")),
    ("cases", itemgetter("checked")),
)


def _cmd_verify(args: argparse.Namespace) -> tuple[int, str]:
    ns = _parse_range(args.n)  # refused even when --p is absent
    if args.p is not None:
        _budget(args, ns, "the product of {} factors")
    reports = [check_property1(), check_lemma2(), check_refined_binary32_bound()]
    if args.p is not None:
        # one sequence's prefixes; a range from below 2 fails as its first n
        factors = build_sequence(args.p, ns[-1] if ns[0] >= 2 else ns[0])
        reports += (
            CheckReport(f"sequence p={args.p} n={n}", r.passed, len(r.directions))
            for n, r in zip(ns, verify_prefixes(factors, ns))
        )
    checks = [dict(name=c.name, passed=c.passed, checked=c.checked) for c in reports]
    ok = all(c.passed for c in reports)
    obj = {"checks": checks, "passed": ok}
    return (0 if ok else 1), _render(args, obj, _VERIFY_COLUMNS, checks)


# Scenario name -> argv.  Golden file is <name>.json under the golden dir.
# These pin the published tables and spot values.  The search scenarios
# run with the default worker count; the bytes must not depend on it.
GOLDEN_SCENARIOS: list[tuple[str, list[str]]] = [
    ("table1", ["search", "--p", "8", "--n", "3..8", "--format", "json"]),
    ("table2", ["search", "--p", "9", "--n", "6..11", "--format", "json"]),
    ("table3-p24-n10", ["adversary", "--p", "24", "--n", "10", "--format", "json", "--digits", "20"]),
    ("table3-p24-n100", ["adversary", "--p", "24", "--n", "100", "--format", "json", "--digits", "20"]),
    ("table3-p53-n10", ["adversary", "--p", "53", "--n", "10", "--format", "json", "--digits", "20"]),
    ("table3-p53-n100", ["adversary", "--p", "53", "--n", "100", "--format", "json", "--digits", "20"]),
    ("table3-p113-n10", ["adversary", "--p", "113", "--n", "10", "--format", "json", "--digits", "20"]),
    ("table3-p113-n100", ["adversary", "--p", "113", "--n", "100", "--format", "json", "--digits", "20"]),
    ("spot-p24-n6", ["spot", "--p", "24", "--x", "8473808/2^23", "--n", "6", "--format", "json"]),
    ("spot-p24-n10", ["spot", "--p", "24", "--x", "8429278/2^23", "--n", "10", "--format", "json"]),
    ("spot-p53-n6", ["spot", "--p", "53", "--x", "4507062722867963/2^52", "--n", "6", "--format", "json"]),
    ("spot-p53-n10", ["spot", "--p", "53", "--x", "4503796447992526/2^52", "--n", "10", "--format", "json"]),
    ("spot-p113-n6", ["spot", "--p", "113", "--x", "5192324351407105984705482084151108/2^112", "--n", "6", "--format", "json"]),
    ("nmax-p24", ["bounds", "--p", "24", "--n", "10", "--format", "json"]),
    ("nmax-p53", ["bounds", "--p", "53", "--n", "10", "--format", "json"]),
    ("nmax-p113", ["bounds", "--p", "113", "--n", "10", "--format", "json"]),
]


def _cmd_regress(args: argparse.Namespace) -> tuple[int, str]:
    lines = []
    failures = 0
    for name, argv in GOLDEN_SCENARIOS:
        code, text = run(argv)
        if code != 0:
            lines.append(f"ERROR {name}: scenario exited with status {code}")
            failures += 1
            continue
        path = os.path.join(args.golden_dir, name + ".json")
        if args.update:
            os.makedirs(args.golden_dir, exist_ok=True)
            with open(path, "w") as f:
                f.write(text)
            lines.append(f"wrote {name}")
            continue
        try:
            with open(path) as f:
                want = f.read()
        except FileNotFoundError:
            lines.append(f"MISSING {name}: no golden at {path}")
            failures += 1
            continue
        if text == want:
            lines.append(f"ok {name}")
        else:
            failures += 1
            lines.append(f"MISMATCH {name}: output differs from {path}")
            for i, (got_l, want_l) in enumerate(
                zip(text.splitlines(), want.splitlines())
            ):
                if got_l != want_l:
                    lines.append(f"  first diff at line {i + 1}:")
                    lines.append(f"  expected: {want_l}")
                    lines.append(f"  actual:   {got_l}")
                    break
            else:
                lines.append("  outputs differ in length only")
    summary = f"{len(GOLDEN_SCENARIOS) - failures}/{len(GOLDEN_SCENARIOS)} scenarios ok"
    lines.append(summary)
    return (1 if failures else 0), "\n".join(lines) + "\n"


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):
        """Usage errors leave ``run`` as a CliError, like every other bad input."""
        raise CliError(message)


def _build_parser() -> _Parser:
    mode = argparse.ArgumentParser(add_help=False)
    mode.add_argument(
        "--mode",
        choices=[m.value for m in RoundingMode],
        default=RoundingMode.TIES_EVEN.value,
        help="tie-breaking rule (default: even)",
    )
    fmt = argparse.ArgumentParser(add_help=False)
    fmt.add_argument(
        "--format",
        choices=["table", "csv", "json"],
        default="table",
        help="output format (default: table)",
    )
    out = argparse.ArgumentParser(add_help=False, parents=[fmt])
    out.add_argument(
        "--digits",
        type=int,
        default=9,
        help="fractional digits in decimal renderings (truncated, default: 9)",
    )
    parser = _Parser(
        prog="ulplab",
        description="measure and bound the rounding error of iterated products",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    s = subs.add_parser(
        "search", parents=[mode, out], help="exhaustive worst-case scan over [1, 2)"
    )
    s.set_defaults(handler=_cmd_search)
    s.add_argument("--p", type=int, required=True, help="precision in bits")
    s.add_argument("--n", required=True, help="power count N or range A..B")
    s.add_argument("--jobs", type=int, default=os.cpu_count() or 1)
    s.add_argument("--checkpoint", help="resumable state file (single n only)")
    s.add_argument("--around", type=int, help="scan only near this significand")
    s.add_argument(
        "--radius",
        type=int,
        help=f"half-width of the --around window (default {_DEFAULT_RADIUS})",
    )
    s.add_argument(
        "--force", action="store_true", help=f"override the p<={PRECISION_GUARD} guard"
    )
    s.add_argument("--progress", action="store_true", help="progress on stderr")
    s.add_argument(
        "--chunk-size",
        type=int,
        default=DEFAULT_CHUNK_SIZE,
        help="candidates per work unit and checkpoint interval",
    )

    s = subs.add_parser("spot", parents=[mode, out], help="exact error of one input")
    s.set_defaults(handler=_cmd_spot)
    s.add_argument("--p", type=int, required=True)
    s.add_argument(
        "--x", required=True,
        help="value as INT, A/B, or A/2^K; a negative one as --x=-A/B",
    )
    s.add_argument("--n", required=True, help="power count N or range A..B")

    s = subs.add_parser("bounds", parents=[out], help="classical error bounds, in ulps")
    s.set_defaults(handler=_cmd_bounds)
    s.add_argument("--p", type=int, required=True)
    s.add_argument("--n", required=True, help="count N or range A..B")

    s = subs.add_parser(
        "adversary", parents=[out], help="build a near-worst-case factor list"
    )
    s.set_defaults(handler=_cmd_adversary)
    s.add_argument("--p", type=int, required=True)
    s.add_argument("--n", type=int, required=True)

    s = subs.add_parser(
        "verify", parents=[fmt], help="run the exact property check suites"
    )
    s.set_defaults(handler=_cmd_verify)
    s.add_argument("--p", type=int, help="also build+check sequences at this p")
    s.add_argument("--n", default="10", help="sequence lengths, N or A..B")

    s = subs.add_parser("regress", help="rerun golden scenarios and diff bytes")
    s.set_defaults(handler=_cmd_regress)
    s.add_argument("--golden-dir", default="goldens")
    s.add_argument("--update", action="store_true", help="rewrite golden files")
    return parser


# Built once per process: parse_args keeps no state between calls.
_PARSER = _build_parser()


def run(argv: list[str]) -> tuple[int, str]:
    """Parse argv and execute; returns (exit_status, stdout_text).

    Raises CliError for every bad input, usage errors included, so callers
    can decide how loud to be; ``main`` prints one ``error:`` line, exit 2.
    This is the one place where a ValueError or OSError becomes a CliError.
    It is also the one place that changes interpreter-wide state: the
    int<->str digit limit is lifted while argv is parsed and the command
    runs, for argv values and JSON integers of any length, and restored.
    """
    old_limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        args = _PARSER.parse_args(argv)
        if getattr(args, "digits", 9) < 1:
            raise CliError("--digits must be >= 1")
        if (getattr(args, "p", None) or 0) > MAX_PRECISION:
            raise CliError(f"--p must be <= {MAX_PRECISION}, got {args.p}")
        return args.handler(args)
    except (ValueError, OSError) as exc:
        raise CliError(str(exc)) from None
    finally:
        sys.set_int_max_str_digits(old_limit)


def main(argv: list[str] | None = None) -> int:
    try:
        code, text = run(sys.argv[1:] if argv is None else argv)
        try:
            sys.stdout.write(text)
            sys.stdout.flush()
        except OSError as exc:  # the report was not delivered
            # Stdout keeps what it could not write: point it at devnull, or the
            # flush at exit fails again, prints a traceback and exits 120.
            try:
                fd = sys.stdout.fileno()  # none under an in-process caller
                devnull = os.open(os.devnull, os.O_WRONLY)
                os.dup2(devnull, fd)
                os.close(devnull)
            except (AttributeError, OSError, ValueError):
                pass
            raise CliError(f"cannot write the report: {exc}") from None
    except CliError as exc:
        # A token can carry a newline into the message; keep it one line.
        print("error: " + str(exc).replace("\n", "\\n"), file=sys.stderr)
        return 2
    return code


if __name__ == "__main__":
    sys.exit(main())
