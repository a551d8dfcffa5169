"""Benchmark-side tracing of homfill: wrappers around the public functions of
each module that record spans and call counts.

A span is (name, start, end, parent span, note).  Spans stay in memory while
the run goes on and are aggregated, and written out, once it ends.  Functions
called hundreds of thousands of times (``normal_form``, ``CayleyBall.step``)
get a call counter instead of a span, so that tracing them stays cheap.

Wrappers are installed in every ``homfill`` module namespace that binds the
wrapped object, so ``from .filling import harea_fill`` in another module is
traced as well.  A name the program no longer defines is reported as absent.
"""

from __future__ import annotations

import importlib
import json
import math
import statistics
import sys
import time
from contextlib import contextmanager

# (span name, module, attribute, note on the result recorded with the span)
SPANNED = (
    ("cayley.build_ball", "homfill.cayley", "build_ball", None),
    ("filling.enumerate_identity_cycles", "homfill.filling", "enumerate_identity_cycles", len),
    ("filling.fa_estimate", "homfill.filling", "fa_estimate", None),
    ("filling.harea_fill", "homfill.filling", "harea_fill", lambda r: r.status == "optimal"),
    ("highs.milp", "scipy.optimize", "milp", None),
    ("highs.linprog", "scipy.optimize", "linprog", None),
    ("exactlp.l1_fill", "homfill.exactlp", "l1_fill", lambda r: r.nodes),
    ("surface.assemble_surface", "homfill.surface", "assemble_surface", lambda d: len(d.faces)),
    ("surface.verify_surface", "homfill.surface", "verify_surface", None),
    ("surface.measure", "homfill.surface", "measure", None),
    ("extension.compute_constants", "homfill.extension", "compute_constants", None),
    ("extension.route_filling", "homfill.extension", "route_filling", None),
    ("extension.detect_t_cycles", "homfill.extension", "detect_t_cycles", None),
    ("extension.push_down", "homfill.extension", "push_down", lambda t: len(t.steps)),
    ("experiments.measure_ar_pair", "homfill.experiments", "measure_ar_pair", None),
    ("experiments.compare_presentations", "homfill.experiments", "compare_presentations", None),
)

# (counter name, module, class, method); every class of the module that
# defines the method itself is wrapped
COUNTED = (
    ("backends.normal_form.calls", "homfill.backends", None, "normal_form"),
    ("cayley.step.calls", "homfill.cayley", "CayleyBall", "step"),
    ("cayley.vertex_of.calls", "homfill.cayley", "CayleyBall", "vertex_of"),
)

SETUP = "bench.setup"
PASS = "bench.pass"


def _homfill_modules():
    return [m for name, m in list(sys.modules.items()) if name == "homfill" or name.startswith("homfill.")]


def patch_everywhere(original, replacement) -> list:
    """Rebind every homfill module global bound to ``original``; returns the
    undo list of (module, name, original)."""
    undo = []
    for module in _homfill_modules():
        for key, value in list(vars(module).items()):
            if value is original:
                setattr(module, key, replacement)
                undo.append((module, key, original))
    return undo


def restore(undo: list) -> None:
    for owner, key, original in reversed(undo):
        setattr(owner, key, original)


class Tracer:
    """Span recorder; ``install`` wraps the program, ``uninstall`` unwraps it."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index, note]
        self.stack: list[int] = []
        self.counts: dict[str, int] = {}
        self.absent: list[str] = []
        self.region_counts: dict[str, dict[str, int]] = {SETUP: {}, PASS: {}}
        self._undo: list = []

    def _span_wrapper(self, name, fn, note):
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        def wrapper(*args, **kwargs):
            record = [name, clock(), 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(record)
            try:
                result = fn(*args, **kwargs)
                if note is not None:
                    record[4] = note(result)
                return result
            finally:
                record[2] = clock()
                stack.pop()

        return wrapper

    def _count_wrapper(self, name, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def install(self) -> None:
        self.absent = []
        for name, module_name, attr, note in SPANNED:
            original = getattr(importlib.import_module(module_name), attr, None)
            undo = patch_everywhere(original, self._span_wrapper(name, original, note)) if original else []
            if not undo:
                self.absent.append(name)
            self._undo += undo
        for name, module_name, class_name, method in COUNTED:
            module = importlib.import_module(module_name)
            classes = [getattr(module, class_name, None)] if class_name else list(vars(module).values())
            self.counts.setdefault(name, 0)
            wrapped = False
            for cls in classes:
                if isinstance(cls, type) and cls.__module__ == module_name and method in vars(cls):
                    original = vars(cls)[method]
                    setattr(cls, method, self._count_wrapper(name, original))
                    self._undo.append((cls, method, original))
                    wrapped = True
            if not wrapped:
                self.absent.append(name)

    def uninstall(self) -> None:
        restore(self._undo)
        self._undo = []

    @contextmanager
    def region(self, name: str):
        """A root span around one set-up or one timed pass; call counts made
        inside it are added to the region's totals."""
        before = dict(self.counts)
        record = [name, time.perf_counter(), 0.0, -1, None]
        self.stack.append(len(self.spans))
        self.spans.append(record)
        try:
            yield
        finally:
            record[2] = time.perf_counter()
            self.stack.pop()
            totals = self.region_counts[name]
            for key, value in self.counts.items():
                totals[key] = totals.get(key, 0) + value - before.get(key, 0)

    def write(self, path) -> None:
        """All spans as one JSON document: a name table and one row per span."""
        names = sorted({s[0] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        rows = [[index[n], round(a, 7), round(b, 7), p] for n, a, b, p, _ in self.spans]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"names": names, "columns": ["name", "start", "end", "parent"], "spans": rows}, fh)

    def summary(self, setups: int, passes: int) -> dict[str, float]:
        """Per-layer metrics for one set-up plus one timed pass: span times
        and counts are summed per root region, then divided by the number of
        set-ups and passes traced, so whole counts stay exact."""
        spans = self.spans
        n = len(spans)
        region = [""] * n
        child_time = [0.0] * n
        children: list[list[int]] = [[] for _ in range(n)]
        for i, (name, start, end, parent, _) in enumerate(spans):
            if parent < 0:
                region[i] = name
            else:
                region[i] = region[parent]
                child_time[parent] += end - start
                children[parent].append(i)
        sums = {SETUP: dict(self.region_counts[SETUP]), PASS: dict(self.region_counts[PASS])}

        def add(i, key, value):
            totals = sums[region[i]]
            totals[key] = totals.get(key, 0) + value

        notes = {
            "filling.enumerate_identity_cycles": "filling.enumerate_identity_cycles.cycles",
            "surface.assemble_surface": "surface.faces",
            "extension.push_down": "extension.push_down.steps",
            "exactlp.l1_fill": "exactlp.l1_fill.nodes",
        }
        for i, (name, start, end, parent, note) in enumerate(spans):
            add(i, f"{name}.self_s", end - start - child_time[i])
            if parent < 0:
                add(i, "trace.wall_s" if name == PASS else "trace.setup_s", end - start)
                continue
            add(i, f"{name}.s", end - start)
            add(i, f"{name}.calls", 1)
            if name in notes:
                add(i, notes[name], note or 0)

        # the path of each fill, from the solver spans nested in it
        fill_ms = []
        certified = reached_proposer = proposer_certified = 0
        for i, (name, start, end, _, optimal) in enumerate(spans):
            if name != "filling.harea_fill":
                continue
            kids = {spans[c][0] for c in children[i]}
            path = "exact" if "exactlp.l1_fill" in kids else "proposer" if "highs.milp" in kids else "peeled"
            add(i, f"filling.fills.{path}", 1)
            fill_ms.append((end - start) * 1000.0)
            certified += bool(optimal)
            if "highs.milp" in kids:
                reached_proposer += 1
                proposer_certified += path == "proposer" and bool(optimal)
            if path == "peeled":
                add(i, "filling.peeled.s", end - start)
            elif path == "proposer":
                highs_s = sum(spans[c][2] - spans[c][1] for c in children[i] if spans[c][0].startswith("highs."))
                add(i, "filling.proposer_overhead.s", end - start - highs_s)

        out = dict.fromkeys(layer_units(), 0.0)
        for name, count in ((SETUP, setups), (PASS, passes)):
            for key, value in sums[name].items():
                out[key] += value / max(count, 1)
        out["filling.certified_ratio"] = certified / len(fill_ms) if fill_ms else 1.0
        out["filling.proposer_hit_ratio"] = proposer_certified / reached_proposer if reached_proposer else 1.0
        fill_ms.sort()
        out["filling.harea_fill.p50_ms"] = statistics.median(fill_ms) if fill_ms else 0.0
        out["filling.harea_fill.p99_ms"] = percentile(fill_ms, 0.99) if fill_ms else 0.0
        return out


def percentile(sorted_values: list[float], q: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    return sorted_values[max(0, math.ceil(q * len(sorted_values)) - 1)]


def layer_units() -> dict[str, str]:
    """Every per-layer metric of a traced run, with its unit."""
    units = {
        "trace.wall_s": "s",
        "trace.setup_s": "s",
        "trace.untraced_wall_s": "s",
        "trace.overhead_frac": "ratio",
        f"{SETUP}.self_s": "s",
        f"{PASS}.self_s": "s",
    }
    for name, *_ in SPANNED:
        units.update({f"{name}.s": "s", f"{name}.self_s": "s", f"{name}.calls": "count"})
    for name, *_ in COUNTED:
        units[name] = "count"
    for name in (
        "filling.enumerate_identity_cycles.cycles",
        "filling.fills.peeled",
        "filling.fills.proposer",
        "filling.fills.exact",
        "surface.faces",
        "extension.push_down.steps",
        "exactlp.l1_fill.nodes",
    ):
        units[name] = "count"
    units.update(
        {
            "filling.peeled.s": "s",
            "filling.proposer_overhead.s": "s",
            "filling.certified_ratio": "ratio",
            "filling.proposer_hit_ratio": "ratio",
            "filling.harea_fill.p50_ms": "ms",
            "filling.harea_fill.p99_ms": "ms",
        }
    )
    return units
