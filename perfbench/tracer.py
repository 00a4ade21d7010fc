"""Span tracing of charseq's layers, installed from outside the package.

Each traced function is replaced by a wrapper in every loaded charseq
module that bound it, because most modules import functions by name
(``from .pointlab import point_pool``) and would otherwise keep calling
the original.  A span records the function, its start and end, and the
span that was open when it started; spans stay in memory and are written
out once, when the round ends.  Self time is a span's duration minus the
durations of its direct child spans.

Nothing here is imported by an untraced run.
"""

from __future__ import annotations

import functools
import gzip
import json
import sys
import time
from collections import Counter, defaultdict

TARGETS = {
    "modlin": ("rank", "rref", "kernel_basis", "det", "interpolate", "poly_roots", "poly_gcd"),
    "pointlab": (
        "evaluation_matrix",
        "phi_points",
        "measure_rcs",
        "measure_abs",
        "dim_linear_system",
        "point_pool",
        "rational_points",
        "line_points_on_curve",
        "random_points_on_curve",
        "intersect_curves",
        "section_points",
        "gradient_at",
    ),
    "constructions": (
        "random_smooth_curve",
        "random_curve_through",
        "split_line",
        "split_section",
        "mixed_random_group",
        "sextic_with_marked_sections",
    ),
    "realize": ("realize", "addable_points", "filtration_points", "conjecture_scan"),
    "linsys": ("classify_maximal", "find_contained_section"),
}

# Functions whose GeometryError escapes are counted as ``.raised``.
RAISED = (
    "constructions.split_line",
    "constructions.split_section",
    "pointlab.intersect_curves",
    "pointlab.section_points",
    "realize.realize",
)

# (child, direct parent) -> work counter: calls of the child made by the parent.
NESTED = {
    ("pointlab.phi_points", "pointlab.measure_rcs"): "pointlab.measure_rcs.degrees",
    ("pointlab.line_points_on_curve", "pointlab.point_pool"): "pointlab.point_pool.lines",
    ("pointlab.line_points_on_curve", "constructions.split_line"): "constructions.split_line.tries",
    ("realize.addable_points", "realize.realize"): "realize.realize.dfs_nodes",
}

CHECKS = (
    "conversion_round_trip",
    "width_theorem",
    "complete_intersections",
    "liaison_theorem",
    "section_shift",
    "minimality_and_halphen",
    "linear_system_bounds",
    "sextic_remark",
    "realization_theorem",
    "conjecture_scanner",
)


def layer_metric_names() -> list[str]:
    """Every per-layer metric, in the order BENCHMARK.json lists them."""
    return list(layer_metrics({"calls": {}, "self_s": {}, "total_s": {}, "counts": {}}))


def _cells(matrix) -> int:
    import numpy as np

    return int(np.asarray(matrix).size)


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.spans: list[list] = []  # [name index, start, end, parent span or -1]
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self.origin = time.perf_counter()

    def _name_index(self, name: str) -> int:
        if name not in self.names:
            self.names.append(name)
        return self.names.index(name)

    def wrap(self, name: str, fn):
        idx = self._name_index(name)
        spans, stack, counts, names = self.spans, self.stack, self.counts, self.names
        perf = time.perf_counter
        raised_key = f"{name}.raised" if name in RAISED else None
        nested = {parent: key for (child, parent), key in NESTED.items() if child == name}
        cells_of_arg = name == "modlin.rank"
        cells_of_result = name == "pointlab.evaluation_matrix"
        from charseq.errors import GeometryError

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            if nested and parent >= 0:
                key = nested.get(names[spans[parent][0]])
                if key:
                    counts[key] += 1
            if cells_of_arg:
                counts["modlin.rank.cells"] += _cells(args[0] if args else kwargs["matrix"])
            span = [idx, perf(), 0.0, parent]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            except GeometryError:
                if raised_key:
                    counts[raised_key] += 1
                raise
            finally:
                span[2] = perf()
                stack.pop()
            if cells_of_result:
                counts["pointlab.evaluation_matrix.cells"] += int(result.size)
            return result

        return traced

    def install(self, extra: dict | None = None) -> None:
        """Wrap every target, and ``extra`` ({name: function}), in every
        loaded charseq module that bound it."""
        targets = []
        for module, functions in TARGETS.items():
            mod = sys.modules[f"charseq.{module}"]
            targets += [(getattr(mod, fn), f"{module}.{fn}") for fn in functions]
        targets += [(fn, name) for name, fn in (extra or {}).items()]
        wrappers = {id(fn): self.wrap(name, fn) for fn, name in targets}
        for modname, mod in list(sys.modules.items()):
            if mod is None or not (modname == "charseq" or modname.startswith("charseq.")):
                continue
            for attr, value in list(vars(mod).items()):
                if id(value) in wrappers:
                    setattr(mod, attr, wrappers[id(value)])

    def summary(self) -> dict:
        """Calls, self time and inclusive time per span name, plus counters."""
        child_time = defaultdict(float)
        for _, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        calls: Counter = Counter()
        self_s: dict[str, float] = defaultdict(float)
        total_s: dict[str, float] = defaultdict(float)
        for i, (idx, start, end, _) in enumerate(self.spans):
            name = self.names[idx]
            calls[name] += 1
            self_s[name] += (end - start) - child_time[i]
            total_s[name] += end - start
        return {
            "calls": dict(calls),
            "self_s": dict(self_s),
            "total_s": dict(total_s),
            "counts": dict(self.counts),
        }

    def write(self, path) -> None:
        """All spans, times in nanoseconds from the tracer's creation."""
        origin = self.origin
        rows = [
            [idx, round((start - origin) * 1e9), round((end - origin) * 1e9), parent]
            for idx, start, end, parent in self.spans
        ]
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            json.dump({"names": self.names, "spans": rows}, fh, separators=(",", ":"))


def merge(summaries: list[dict]) -> dict:
    """Sum several summaries (the processes of one CLI round)."""
    out = {"calls": Counter(), "self_s": defaultdict(float), "total_s": defaultdict(float), "counts": Counter()}
    for s in summaries:
        for key in out:
            for name, value in s[key].items():
                out[key][name] += value
    return {key: dict(value) for key, value in out.items()}


def layer_metrics(summary: dict, import_s: float | None = None) -> dict[str, float]:
    """The per-layer metrics of one traced round, zero where a layer did no work."""
    calls, self_s, total_s, counts = (summary[k] for k in ("calls", "self_s", "total_s", "counts"))
    out: dict[str, float] = {}
    for module, functions in TARGETS.items():
        for fn in functions:
            name = f"{module}.{fn}"
            out[f"{name}.calls"] = calls.get(name, 0)
            out[f"{name}.self_s"] = self_s.get(name, 0.0)
    for key in list(NESTED.values()) + ["modlin.rank.cells", "pointlab.evaluation_matrix.cells"]:
        out[key] = counts.get(key, 0)
    for name in RAISED:
        out[f"{name}.raised"] = counts.get(f"{name}.raised", 0)
    tries = counts.get("constructions.split_line.tries", 0)
    successes = calls.get("constructions.split_line", 0) - counts.get("constructions.split_line.raised", 0)
    out["constructions.split_line.success_ratio"] = successes / tries if tries else 0.0
    for check in CHECKS:
        out[f"verify.{check}.s"] = total_s.get(f"verify.{check}", 0.0)
    out["cli.import_s"] = import_s if import_s is not None else 0.0
    out["cli.main.self_s"] = self_s.get("cli.main", 0.0)
    return out
