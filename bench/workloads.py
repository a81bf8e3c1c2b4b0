"""The benchmark's three workloads: seeded inputs, one timed op each, and the gate.

Each workload builds its inputs from a seed (`setup`), runs one op through
the public API (`op`), and checks every answer exactly (`check`).  Calls are
made through a tracer's `call`, which only times them when tracing is on.

The generators are copies of the test-suite ones, making the same numpy
calls, so that edits to the tests cannot change the benchmark's inputs.

Seeds: oracle-corpus draws fresh datasets from the seed.  The two large
workloads shuffle the rows of one fixed draw instead: across fresh draws
their search size moves by up to 8% either way (exact-search) and by up to
1.6x (guessed-pipeline, whose surviving column count moves between 20 and
24), which would swamp any run-to-run comparison.  A shuffle still gives
each seed different input bytes and bitmasks; the pinned seed keeps the
generated order.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field

import numpy as np

import sparsetree
from sparsetree import guessing, solver, trees
from sparsetree.evaluation import brute_force_optimal
from sparsetree.solver import Regularizer, SolverConfig


def random_raw(rng, n, m, levels=4, noise=0.3):
    """Quantized features with a planted two-feature rule plus label noise."""
    x = np.round(rng.normal(size=(n, m)) * levels) / levels
    score = (x[:, 0] > 0.0).astype(float) + (x[:, m - 1] < 0.25).astype(float)
    y = (score + noise * rng.normal(size=n) > 1.0).astype(int)
    if y.min() == y.max():
        y[: n // 2] = 1 - y[0]
    return sparsetree.make_raw(x, y)


def random_binary_raw(rng, max_n=64, max_cols=8):
    """Small random dataset whose full binarization has 1..max_cols columns.

    Same draws as the test suite's `random_binary`; returns the raw dataset
    so that each op binarizes it afresh.
    """
    while True:
        n = int(rng.integers(6, max_n + 1))
        m = int(rng.integers(2, 5))
        x = rng.integers(0, 4, size=(n, m)).astype(float)
        y = rng.integers(0, 2, size=n).astype(int)
        if y.min() == y.max():
            continue
        raw = sparsetree.make_raw(x, y)
        if 1 <= sparsetree.full_binarize(raw).n_columns <= max_cols:
            return raw


def shuffled_rows(raw, seed, pinned_seed):
    """The rows of `raw` in an order drawn from `seed`; the pinned seed keeps them."""
    if seed == pinned_seed:
        return raw
    rows = np.random.default_rng(seed).permutation(raw.n_samples)
    return sparsetree.make_raw(raw.features[rows], raw.labels[rows], raw.feature_names)


@dataclass
class Outcome:
    """What one op produced: every solve, plus the facts the gate compares."""

    solves: list = field(default_factory=list)   # (bin_data, regularizer, SolveResult)
    facts: dict = field(default_factory=dict)

    def add_counters(self, result):
        for k, v in result.counters.as_dict().items():
            self.facts[k] = self.facts.get(k, 0) + v


def _counters(created, expanded, closed_by_guess, cache_hits):
    return {"created": created, "expanded": expanded,
            "closed_by_guess": closed_by_guess, "cache_hits": cache_hits}


class Workload:
    name: str
    status: str          # the status every solve must report
    pinned_seed: int     # the default seed, whose results are pinned
    pins: dict           # facts of the pinned seed; every op must reproduce them

    def validate(self, inputs):
        """Raise if the built inputs are not the intended ones."""

    def oracle(self, inputs):
        """Independent optimum per solve, or None; computed outside timing."""
        return None


class ExactSearch(Workload):
    name = "exact-search"
    status = "optimal"
    pinned_seed = 0
    pins = {"objective_units": 24000, **_counters(14468, 14115, 0, 18622)}

    def setup(self, seed, workdir):
        raw = random_raw(np.random.default_rng(self.pinned_seed), 1000, 6, levels=3)
        return shuffled_rows(raw, seed, self.pinned_seed)

    def validate(self, raw):
        cols = sparsetree.full_binarize(raw).n_columns
        if cols != 110:
            raise ValueError(f"exact-search input has {cols} columns, expected 110")

    def op(self, raw, t):
        b = t.call("dataset.full_binarize", sparsetree.full_binarize, raw)
        reg = Regularizer.from_text("1/100", raw.n_samples)
        res = t.call("solver.optimize", solver.optimize, b, SolverConfig(reg, depth_limit=3))
        out = Outcome(solves=[(b, reg, res)], facts={"objective_units": res.objective_units})
        out.add_counters(res)
        return out


class GuessedPipeline(Workload):
    """The README's guessed pipeline, from CSV to a guess-certified tree."""

    name = "guessed-pipeline"
    status = "guess-certified"
    pinned_seed = 1
    pins = {
        "objective_units": 2380000, **_counters(38821, 30922, 6791, 80655),
        "elimination_steps": 6, "columns_kept": 20,
    }

    def setup(self, seed, workdir):
        raw = random_raw(np.random.default_rng(self.pinned_seed), 10000, 10, levels=4)
        raw = shuffled_rows(raw, seed, self.pinned_seed)
        path = workdir / f"{self.name}-{seed}.csv"
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(list(raw.feature_names) + ["label"])
            for x, y in zip(raw.features, raw.labels):
                w.writerow([repr(float(v)) for v in x] + [int(y)])
        return path

    def validate(self, path):
        raw = sparsetree.load_csv(path)
        if raw.features.shape != (10000, 10):
            raise ValueError(f"guessed-pipeline CSV has shape {raw.features.shape}")

    def op(self, path, t):
        raw = t.call("dataset.load_csv", sparsetree.load_csv, path)
        trace = t.call("guessing.column_eliminate", guessing.column_eliminate, raw, 20, 3, 0.1, 0)
        reduced = t.call("dataset.binarize_with_thresholds", sparsetree.binarize_with_thresholds,
                         raw, trace.thresholds.pairs())
        ref = t.call("guessing.reference_labels", guessing.reference_labels, trace.ensemble, reduced)
        reg = Regularizer.from_text("1/1000", raw.n_samples)
        cfg = SolverConfig(reg, depth_limit=5, reference=ref)
        res = t.call("solver.optimize", solver.optimize, reduced, cfg)
        out = Outcome(solves=[(reduced, reg, res)], facts={
            "objective_units": res.objective_units,
            "elimination_steps": len(trace.steps),
            "columns_kept": reduced.n_columns,
            "reference_incorrect": ref.incorrect_count,
        })
        out.add_counters(res)
        return out


class OracleCorpus(Workload):
    """The acceptance suite's 210 small instances, each checked against brute force."""

    name = "oracle-corpus"
    status = "optimal"
    pinned_seed = 2024
    pins = {"objective_units": 71647, **_counters(9949, 6531, 0, 5793)}
    lambdas = ("0", "1/64", "1/20")

    def setup(self, seed, workdir):
        rng = np.random.default_rng(seed)
        return [random_binary_raw(rng, max_n=64, max_cols=8) for _ in range(70)]

    def validate(self, raws):
        if len(raws) != 70:
            raise ValueError(f"oracle corpus has {len(raws)} datasets, expected 70")

    def oracle(self, raws):
        out = []
        for raw in raws:
            b = sparsetree.full_binarize(raw)
            for lam in self.lambdas:
                reg = Regularizer.from_text(lam, raw.n_samples)
                out.append(brute_force_optimal(b, reg, 3).objective_units)
        return out

    def op(self, raws, t):
        out = Outcome(facts={"objective_units": 0})
        for raw in raws:
            b = t.call("dataset.full_binarize", sparsetree.full_binarize, raw)
            for lam in self.lambdas:
                reg = Regularizer.from_text(lam, raw.n_samples)
                res = t.call("solver.optimize", solver.optimize, b, SolverConfig(reg, depth_limit=3))
                out.solves.append((b, reg, res))
                out.facts["objective_units"] += res.objective_units
                out.add_counters(res)
        return out


WORKLOADS = {w.name: w for w in (ExactSearch(), GuessedPipeline(), OracleCorpus())}


def check(workload, outcome, t, expected, oracle=None):
    """Exactness gate for one op; returns a list of mismatch messages.

    `expected` holds the facts the op must reproduce exactly: the pinned
    values on a pinned seed, and the first op's facts for every later op.
    """
    errors = []
    for i, (b, reg, res) in enumerate(outcome.solves):
        if res.status != workload.status:
            errors.append(f"solve {i}: status {res.status!r}, expected {workload.status!r}")
        again = t.call("trees.objective", trees.objective, res.tree, b, reg)
        if again != res.objective:
            errors.append(f"solve {i}: tree re-evaluates to {again}, result says {res.objective}")
        if oracle is not None and res.objective_units != oracle[i]:
            errors.append(f"solve {i}: objective_units {res.objective_units}, brute force {oracle[i]}")
    for key, want in expected.items():
        got = outcome.facts.get(key)
        if got != want:
            errors.append(f"{key} = {got}, expected {want}")
    return errors
