"""In-memory spans around calls into sparsetree, and the per-layer metrics.

The benchmark times the public calls it makes itself.  For calls the program
makes internally, `Tracer.patched` rebinds the module attributes those calls
go through for the duration of a traced op, then restores them.
"""

from __future__ import annotations

import contextlib
import time

import sparsetree.boosting
import sparsetree.guessing
import sparsetree.solver

# (module, attribute, span name): internal calls seen only through rebinding
INTERNAL_CALLS = (
    (sparsetree.solver, "equivalence_classes", "dataset.equivalence_classes"),
    (sparsetree.solver, "minority_total", "dataset.minority_total"),
    (sparsetree.boosting, "fit", "boosting.fit"),
    (sparsetree.boosting, "predict_class", "boosting.predict_class"),
    (sparsetree.guessing, "binarize_with_thresholds", "dataset.binarize_with_thresholds"),
)


class NullTracer:
    """Untraced runs: calls go straight through."""

    def call(self, name, fn, *args, **kwargs):
        return fn(*args, **kwargs)


class Tracer:
    """Records one span (name, start, end, parent index) per call.

    Spans live in parallel flat lists, so recording allocates no container
    per call and adds no work for the garbage collector.
    """

    def __init__(self):
        self.names = []
        self.starts = []
        self.ends = []
        self.parents = []
        self._stack = []

    def call(self, name, fn, *args, **kwargs):
        idx = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.ends.append(0.0)
        self._stack.append(idx)
        self.starts.append(time.perf_counter())
        try:
            return fn(*args, **kwargs)
        finally:
            self.ends[idx] = time.perf_counter()
            self._stack.pop()

    def _wrap(self, name, fn):
        def traced(*args, **kwargs):
            return self.call(name, fn, *args, **kwargs)
        return traced

    @contextlib.contextmanager
    def patched(self):
        saved = [(mod, attr, getattr(mod, attr)) for mod, attr, _ in INTERNAL_CALLS]
        try:
            for mod, attr, name in INTERNAL_CALLS:
                setattr(mod, attr, self._wrap(name, getattr(mod, attr)))
            yield self
        finally:
            for mod, attr, fn in saved:
                setattr(mod, attr, fn)

    def totals(self):
        """Per span name: (calls, total seconds, self seconds).

        Self time is a span's duration minus the time its child spans cover.
        """
        durations = [t1 - t0 for t0, t1 in zip(self.starts, self.ends)]
        child = [0.0] * len(durations)
        for d, parent in zip(durations, self.parents):
            if parent >= 0:
                child[parent] += d
        out = {}
        for name, d, c in zip(self.names, durations, child):
            n, total, own = out.get(name, (0, 0.0, 0.0))
            out[name] = (n + 1, total + d, own + d - c)
        return out


# per-layer metric name -> unit, in the order BENCHMARK.json lists them
LAYER_UNITS = {
    "solver.optimize_s": "s",
    "solver.self_s": "s",
    "solver.expanded_per_s": "1/s",
    "solver.created": "count",
    "solver.expanded": "count",
    "solver.cache_hits": "count",
    "solver.cache_hit_ratio": "ratio",
    "solver.closed_by_guess": "count",
    "solver.guess_close_ratio": "ratio",
    "dataset.minority_total_calls": "count",
    "dataset.minority_total_s": "s",
    "dataset.equivalence_classes_s": "s",
    "dataset.load_csv_s": "s",
    "dataset.full_binarize_s": "s",
    "dataset.binarize_with_thresholds_s": "s",
    "boosting.fit_calls": "count",
    "boosting.fit_s": "s",
    "boosting.predict_class_s": "s",
    "guessing.column_eliminate_s": "s",
    "guessing.elimination_steps": "count",
    "guessing.columns_kept": "count",
    "guessing.reference_labels_s": "s",
    "guessing.reference_incorrect": "count",
    "trees.objective_s": "s",
    "trace.overhead_s": "s",
    "trace.overhead_ratio": "ratio",
}


def layer_metrics(tracer, facts):
    """Per-layer values of one traced op (all but the trace.* overhead pair)."""
    totals = tracer.totals()

    def calls(name):
        return totals.get(name, (0, 0.0, 0.0))[0]

    def seconds(name):
        return totals.get(name, (0, 0.0, 0.0))[1]

    optimize_s = seconds("solver.optimize")
    created, hits = facts["created"], facts["cache_hits"]
    return {
        "solver.optimize_s": optimize_s,
        "solver.self_s": totals["solver.optimize"][2],
        "solver.expanded_per_s": facts["expanded"] / optimize_s,
        "solver.created": created,
        "solver.expanded": facts["expanded"],
        "solver.cache_hits": hits,
        "solver.cache_hit_ratio": hits / (hits + created),
        "solver.closed_by_guess": facts["closed_by_guess"],
        "solver.guess_close_ratio": facts["closed_by_guess"] / created,
        "dataset.minority_total_calls": calls("dataset.minority_total"),
        "dataset.minority_total_s": seconds("dataset.minority_total"),
        "dataset.equivalence_classes_s": seconds("dataset.equivalence_classes"),
        "dataset.load_csv_s": seconds("dataset.load_csv"),
        "dataset.full_binarize_s": seconds("dataset.full_binarize"),
        "dataset.binarize_with_thresholds_s": seconds("dataset.binarize_with_thresholds"),
        "boosting.fit_calls": calls("boosting.fit"),
        "boosting.fit_s": seconds("boosting.fit"),
        "boosting.predict_class_s": seconds("boosting.predict_class"),
        "guessing.column_eliminate_s": seconds("guessing.column_eliminate"),
        "guessing.elimination_steps": facts.get("elimination_steps", 0),
        "guessing.columns_kept": facts.get("columns_kept", 0),
        "guessing.reference_labels_s": seconds("guessing.reference_labels"),
        "guessing.reference_incorrect": facts.get("reference_incorrect", 0),
        "trees.objective_s": seconds("trees.objective"),
    }
