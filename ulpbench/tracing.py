"""Spans around the calls between ulplab's modules, recorded from outside.

``install`` replaces each cross-module entry point with a wrapper, at the
name the *calling* module looks it up by (``ulplab.algorithms.fp_mul`` is
the ``fp_mul`` that ``naive_power`` calls).  Every call becomes one span:
name, parent span, start and end.  Spans stay in flat arrays in memory
(24 bytes each, so the ~7e5 multiplications of long-chain cost ~17 MB) and
are written out once, at the end of the repetition.

Self time is a span's duration minus the part of it that its child spans
cover.  Only the pool workers of a scan run outside the spans; they call
nothing that is wrapped.
"""

from __future__ import annotations

import importlib
import json
import time
from array import array

# span name -> (patch sites as (module, attribute), work measure or None).
# The work measure turns the call's arguments into a count of work done.
SITES: dict[str, tuple[tuple[tuple[str, str], ...], object]] = {
    "softfloat.fp_mul": ((("ulplab.algorithms", "fp_mul"),), None),
    "softfloat.round_nearest": (
        (("ulplab.cli", "round_nearest"), ("ulplab.adversary", "round_nearest")),
        None,
    ),
    "algorithms.naive_power": (
        (("ulplab.search", "naive_power"),),
        lambda args, kwargs: (args[1] if len(args) > 1 else kwargs["n"]) - 1,
    ),
    "algorithms.iterated_product": (
        (("ulplab.adversary", "iterated_product"),),
        lambda args, kwargs: len(args[0] if args else kwargs["factors"]),
    ),
    "exact.relative_error": (
        (("ulplab.search", "relative_error"), ("ulplab.adversary", "relative_error")),
        None,
    ),
    "exact.to_decimal": ((("ulplab.cli", "to_decimal"),), None),
    "search.exhaustive_max_error": ((("ulplab.cli", "exhaustive_max_error"),), None),
    "search.spot_error": ((("ulplab.cli", "spot_error"),), None),
    # The one private site: the scan writes each chunk's checkpoint through
    # this module-level helper, so its calls are the checkpoint's whole cost.
    "search.checkpoint": ((("ulplab.search", "_write_checkpoint"),), None),
    "bounds.bound_set": ((("ulplab.cli", "bound_set"),), None),
    "bounds.n_max": ((("ulplab.cli", "n_max"),), None),
    "bounds.check_property1": ((("ulplab.cli", "check_property1"),), None),
    "bounds.check_lemma2": ((("ulplab.cli", "check_lemma2"),), None),
    "bounds.check_refined_binary32_bound": (
        (("ulplab.cli", "check_refined_binary32_bound"),),
        None,
    ),
    "adversary.build_sequence": ((("ulplab.cli", "build_sequence"),), None),
    "adversary.verify_sequence": ((("ulplab.cli", "verify_sequence"),), None),
    # regress re-enters run() through the module global, so inner runs nest.
    "cli.run": ((("ulplab.cli", "run"),), None),
}


class Spans:
    """Flat, append-only span storage: parallel arrays indexed by span id."""

    def __init__(self, names: list[str]) -> None:
        self.names = list(names)
        self.name = array("i")
        self.parent = array("i")  # -1 for a root span
        self.start = array("d")
        self.end = array("d")
        self.work = {n: 0 for n in names}

    def __len__(self) -> int:
        return len(self.start)

    def add(self, name: str, parent: int, start: float, end: float) -> int:
        """Append one finished span; the wrappers append in place instead."""
        self.name.append(self.names.index(name))
        self.parent.append(parent)
        self.start.append(start)
        self.end.append(end)
        return len(self.start) - 1

    def write(self, path: str) -> None:
        """A JSON header line (names, count, work), then the name, parent,
        start and end arrays in native byte order."""
        header = {"names": self.names, "count": len(self), "work": self.work}
        with open(path, "wb") as f:
            f.write(json.dumps(header).encode() + b"\n")
            for arr in (self.name, self.parent, self.start, self.end):
                arr.tofile(f)


class Tracer:
    """Installs the wrappers, records into a ``Spans``, and removes them."""

    def __init__(self) -> None:
        self.spans = Spans(list(SITES))
        self._stack = [-1]
        self._saved: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn, measure):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        nid = spans.names.index(name)
        names, parents, starts, ends, work = (
            spans.name, spans.parent, spans.start, spans.end, spans.work,
        )

        def traced(*args, **kwargs):
            i = len(starts)
            names.append(nid)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(i)
            if measure is not None:
                work[name] += measure(args, kwargs)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[i] = clock()
                stack.pop()

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        """Wrap every site; refuse (KeyError) if any site no longer exists."""
        missing = []
        for name, (sites, measure) in SITES.items():
            for mod_name, attr in sites:
                mod = importlib.import_module(mod_name)
                if not hasattr(mod, attr):
                    missing.append(f"{mod_name}.{attr}")
                    continue
                fn = getattr(mod, attr)
                self._saved.append((mod, attr, fn))
                setattr(mod, attr, self._wrap(name, fn, measure))
        if missing:
            self.uninstall()
            raise KeyError(f"traced entry points missing: {', '.join(missing)}")

    def uninstall(self) -> None:
        for mod, attr, fn in reversed(self._saved):
            setattr(mod, attr, fn)
        self._saved.clear()


def layer_totals(spans: Spans) -> dict[str, dict[str, float]]:
    """Per span name: calls, summed self time (s), and recorded work."""
    n = len(spans)
    start, end, parent = spans.start, spans.end, spans.parent
    covered = [0.0] * n
    reach = list(start)  # per span: end of the prefix its children cover
    # Children in start order, so each parent's covered part grows as a
    # running union; overlapping or out-of-range children count once.
    for i in sorted(range(n), key=start.__getitem__):
        p = parent[i]
        if p < 0:
            continue
        lo, hi = max(start[i], reach[p]), min(end[i], end[p])
        if hi > lo:
            covered[p] += hi - lo
            reach[p] = hi
    totals = {
        name: {"calls": 0, "self_s": 0.0, "work": spans.work.get(name, 0)}
        for name in spans.names
    }
    for i in range(n):
        t = totals[spans.names[spans.name[i]]]
        t["calls"] += 1
        t["self_s"] += (end[i] - start[i]) - covered[i]
    return totals
