"""Oracles and experiment harness.

brute_force_optimal is the solver's independent check: a plain exhaustive
recursion over (support, remaining depth) with no bounds, no queue and no
guessing, sharing only the integer objective scaling.  replicating_tree turns
a reduced-space ensemble into a single tree with identical predictions.
run_benchmark drives the full per-fold pipeline and aggregates medians.
"""

from __future__ import annotations

import statistics
import time
from dataclasses import asdict, dataclass, field, replace
from fractions import Fraction
from typing import Optional

import numpy as np

from . import boosting, guessing, trees
from .dataset import (
    BinaryDataset,
    RawDataset,
    binarize_with_thresholds,
    equivalence_classes,
    minority_total,
)
from .solver import Regularizer, SolverConfig, optimize
from .trees import Leaf, Node, Split


# ---------------------------------------------------------------- brute force

@dataclass(frozen=True)
class BruteForceResult:
    tree: Node
    objective: Fraction
    objective_units: int
    loss_count: int
    leaf_count: int
    depth: int


def brute_force_optimal(
    bin_data: BinaryDataset,
    reg: Regularizer,
    depth_limit: int,
    *,
    max_columns: int = 10,
    max_depth: int = 3,
) -> BruteForceResult:
    """Exhaustive minimum over all trees up to depth_limit.

    Ties prefer fewer leaves, then smaller depth, then the smallest
    (column index, true-branch-first) structure, matching the solver.
    Guarded to desk scale by default: at most max_columns columns and
    depth_limit at most max_depth.  The recursion has no bounds, so its cost
    grows with the number of distinct supports; raise the guards only for
    inputs known to have few of them.
    """
    if bin_data.n_columns > max_columns:
        raise ValueError(f"brute force limited to {max_columns} columns")
    if not 1 <= depth_limit <= max_depth:
        raise ValueError(f"brute force depth limit must be in [1, {max_depth}]")
    if reg.n_samples != bin_data.n_samples:
        raise ValueError("regularizer sample count does not match dataset")
    pos_mask = bin_data.pos_mask
    pen = reg.leaf_penalty_units
    q = reg.denom
    cols = bin_data.columns
    memo: dict = {}

    def best(bits: int, depth: int):
        key = (bits, depth)
        got = memo.get(key)
        if got is not None:
            return got
        n = bits.bit_count()
        pos = (bits & pos_mask).bit_count()
        label = 1 if pos > n - pos else 0
        top = (q * min(pos, n - pos) + pen, 1, 0, (-1,), Leaf(label))
        if depth > 0 and n > 1:
            for j, c in enumerate(cols):
                bl = bits & c
                if bl == 0 or bl == bits:
                    continue
                lu, ll, ld, ls, ln = best(bl, depth - 1)
                ru, rl, rd, rs, rn = best(bits ^ bl, depth - 1)
                f, t = bin_data.column_meta[j]
                cand = (
                    lu + ru,
                    ll + rl,
                    1 + max(ld, rd),
                    (j, ls, rs),
                    Split(bin_data.feature_names[f], t, ln, rn),
                )
                if cand[:4] < top[:4]:
                    top = cand
        memo[key] = top
        return top

    units, leaves, depth, _, node = best(bin_data.full_mask, depth_limit)
    loss_units = units - pen * leaves
    assert loss_units % q == 0
    return BruteForceResult(
        tree=node,
        objective=reg.fraction(units),
        objective_units=units,
        loss_count=loss_units // q,
        leaf_count=leaves,
        depth=depth,
    )


# ---------------------------------------------------------------- replication

_REPLICATE_MAX_COLUMNS = 20


def replicating_tree(ens: boosting.BoostedEnsemble, bin_data: BinaryDataset) -> Node:
    """Single tree predicting exactly like an ensemble trained on the
    indicator columns: complete expansion over every column, then bottom-up
    merge of sibling subtrees with identical prediction functions."""
    m = bin_data.n_columns
    if m > _REPLICATE_MAX_COLUMNS:
        raise ValueError(f"replication limited to {_REPLICATE_MAX_COLUMNS} columns")
    if m == 0:
        raise ValueError("dataset has no binary columns")
    idx = np.arange(1 << m)
    cells = np.zeros((1 << m, m), dtype=np.float64)
    for k in range(m):
        cells[:, k] = (idx >> (m - 1 - k)) & 1
    preds = boosting.predict_class(ens, cells)

    def build(level: int, lo: int, size: int) -> Node:
        seg = preds[lo: lo + size]
        if np.all(seg == seg[0]):
            return Leaf(int(seg[0]))
        half = size // 2
        if np.array_equal(seg[:half], seg[half:]):
            return build(level + 1, lo, half)
        on_false = build(level + 1, lo, half)
        on_true = build(level + 1, lo + half, half)
        f, t = bin_data.column_meta[level]
        return Split(bin_data.feature_names[f], t, on_true, on_false)

    out = build(0, 0, 1 << m)
    replicated = trees.predict(out, bin_data)
    direct = boosting.predict_class(ens, bin_data.rows_matrix().astype(np.float64))
    if not np.array_equal(replicated, direct):
        raise RuntimeError("replicating tree disagrees with the ensemble on training rows")
    return out


# ---------------------------------------------------------------- depth gap

def prune_to_depth(tree: Node, depth: int, bin_data: BinaryDataset) -> Node:
    """Cut the tree at the given depth; cut points become majority leaves of
    their captured training samples (ties and empty captures predict 0)."""
    if depth < 0:
        raise ValueError("depth must be >= 0")
    pos_mask = bin_data.pos_mask

    def walk(node: Node, left: int, bits: int) -> Node:
        if isinstance(node, Leaf):
            return node
        if left == 0:
            n = bits.bit_count()
            pos = (bits & pos_mask).bit_count()
            return Leaf(1 if pos > n - pos else 0)
        col = bin_data.columns[bin_data.column_index(node.feature, node.threshold)]
        bl = bits & col
        return Split(node.feature, node.threshold,
                     walk(node.on_true, left - 1, bl),
                     walk(node.on_false, left - 1, bits ^ bl))

    return walk(tree, depth, bin_data.full_mask)


def depth_gap_bound(opt_tree: Node, guessed_depth: int, bin_data: BinaryDataset, reg: Regularizer) -> Fraction:
    """Certified ceiling on the objective regret of solving at guessed_depth
    instead of the optimum's depth, from the depth-pruned optimum."""
    pruned = prune_to_depth(opt_tree, guessed_depth, bin_data)
    miss_pruned = trees.misclassified_count(pruned, bin_data)
    mt = minority_total(equivalence_classes(bin_data))
    h_star = trees.measure(opt_tree)[0]
    h_pruned = trees.measure(pruned)[0]
    return Fraction(miss_pruned - mt, bin_data.n_samples) - reg.value * (h_star - h_pruned)


# ---------------------------------------------------------------- folds

@dataclass(frozen=True)
class FoldPlan:
    test_indices: tuple[tuple[int, ...], ...]

    def train_indices(self, fold: int) -> tuple[int, ...]:
        test = set(self.test_indices[fold])
        n = sum(len(f) for f in self.test_indices)
        return tuple(i for i in range(n) if i not in test)


def kfold(raw: RawDataset, k: int, seed: int) -> FoldPlan:
    """Seeded shuffle, then round-robin assignment to k test folds."""
    import random

    n = raw.n_samples
    if not 2 <= k <= n:
        raise ValueError("fold count must be in [2, n_samples]")
    order = list(range(n))
    random.Random(seed).shuffle(order)
    folds = [sorted(order[f::k]) for f in range(k)]
    return FoldPlan(tuple(tuple(f) for f in folds))


# ---------------------------------------------------------------- benchmark

@dataclass
class BenchmarkConfig:
    folds: int = 5
    seed: int = 0
    n_estimators: int = 20
    max_depth: int = 3
    learning_rate: float = 0.1
    regularization: str = "0.001"
    depth_limit: Optional[int] = 3
    drop_tolerance: float = 0.0
    use_lb_guess: bool = True
    compare_no_guess: bool = True
    time_limit_s: Optional[float] = None


@dataclass
class FoldOutcome:
    fold: int
    error: Optional[str] = None
    train_accuracy: Optional[float] = None
    test_accuracy: Optional[float] = None
    objective: Optional[str] = None
    leaves: Optional[int] = None
    depth: Optional[int] = None
    status: Optional[str] = None
    reduced_columns: Optional[int] = None
    counters: Optional[dict] = None
    counters_no_guess: Optional[dict] = None
    objective_no_guess: Optional[str] = None
    wall_time_s: float = 0.0

    @property
    def completed(self) -> bool:
        return self.error is None


@dataclass
class BenchmarkReport:
    config: BenchmarkConfig
    folds: list[FoldOutcome] = field(default_factory=list)

    def summary(self) -> dict:
        done = [f for f in self.folds if f.completed]

        def stats(vals):
            if not vals:
                return None
            med = statistics.median(vals)
            if len(vals) >= 2:
                qs = statistics.quantiles(vals, n=4, method="inclusive")
                return {"median": med, "q1": qs[0], "q3": qs[2]}
            return {"median": med, "q1": vals[0], "q3": vals[0]}

        return {
            "completed_folds": len(done),
            "failed_folds": len(self.folds) - len(done),
            "train_accuracy": stats([f.train_accuracy for f in done]),
            "test_accuracy": stats([f.test_accuracy for f in done]),
            "leaves": stats([float(f.leaves) for f in done]),
        }


def _run_fold(raw: RawDataset, plan: FoldPlan, fold: int, cfg: BenchmarkConfig,
              solver_cfg: SolverConfig) -> FoldOutcome:
    out = FoldOutcome(fold=fold)
    t0 = time.monotonic()
    train = raw.subset(plan.train_indices(fold))
    test = raw.subset(plan.test_indices[fold])
    trace = guessing.column_eliminate(
        train, cfg.n_estimators, cfg.max_depth, cfg.learning_rate,
        drop_tolerance=cfg.drop_tolerance,
    )
    bin_train = trace.data
    ref = trace.reference if cfg.use_lb_guess else None
    fold_cfg = replace(solver_cfg, reference=ref,
                       regularizer=Regularizer.from_text(cfg.regularization, train.n_samples))
    result = optimize(bin_train, fold_cfg)
    out.counters = asdict(result.counters)
    if cfg.compare_no_guess:
        plain = result  # without an active guess, the solve just made is plain
        if result.lb_guess_active:
            plain = optimize(bin_train, replace(fold_cfg, reference=None))
        out.counters_no_guess = asdict(plain.counters)
        out.objective_no_guess = str(plain.objective)
    out.train_accuracy = 1.0 - result.loss_count / train.n_samples
    bin_test = binarize_with_thresholds(test, trace.thresholds.pairs())
    n_test = test.n_samples
    out.test_accuracy = (n_test - trees.misclassified_count(result.tree, bin_test)) / n_test
    out.objective = str(result.objective)
    out.leaves = result.leaf_count
    out.depth = result.depth
    out.status = result.status
    out.reduced_columns = bin_train.n_columns
    out.wall_time_s = time.monotonic() - t0
    return out


def run_benchmark(raw: RawDataset, cfg: BenchmarkConfig) -> BenchmarkReport:
    """Per-fold pipeline: reference fit, column elimination, guessed and
    plain solves, train/test scoring.  A fold failure is recorded on its
    entry and does not stop the run; invalid solver or reference options
    raise ValueError before any fold fits."""
    guessing.check_options(cfg.n_estimators, cfg.max_depth, cfg.learning_rate, cfg.drop_tolerance)
    solver_cfg = SolverConfig(
        regularizer=Regularizer.from_text(cfg.regularization, raw.n_samples),
        depth_limit=cfg.depth_limit,
        time_limit_s=cfg.time_limit_s,
    )
    plan = kfold(raw, cfg.folds, cfg.seed)
    report = BenchmarkReport(config=cfg)
    for fold in range(cfg.folds):
        try:
            report.folds.append(_run_fold(raw, plan, fold, cfg, solver_cfg))
        except Exception as e:  # noqa: BLE001 - fold isolation is the contract
            report.folds.append(FoldOutcome(fold=fold, error=f"{type(e).__name__}: {e}"))
    return report


def report_to_json(report: BenchmarkReport, include_timing: bool = False) -> str:
    import json

    folds = [asdict(f) for f in report.folds]
    if not include_timing:
        for entry in folds:
            del entry["wall_time_s"]
    return json.dumps(
        {"config": asdict(report.config), "folds": folds, "summary": report.summary()},
        indent=2,
    )


def report_to_csv(report: BenchmarkReport) -> str:
    import csv
    import io

    buf = io.StringIO()
    w = csv.writer(buf)
    w.writerow(["fold", "train_accuracy", "test_accuracy", "leaves", "depth", "status",
                "expanded", "expanded_no_guess", "error"])
    for f in report.folds:
        w.writerow([
            f.fold,
            "" if f.train_accuracy is None else repr(f.train_accuracy),
            "" if f.test_accuracy is None else repr(f.test_accuracy),
            "" if f.leaves is None else f.leaves,
            "" if f.depth is None else f.depth,
            f.status or "",
            "" if f.counters is None else f.counters["expanded"],
            "" if f.counters_no_guess is None else f.counters_no_guess["expanded"],
            f.error or "",
        ])
    s = report.summary()
    for name in ("train_accuracy", "test_accuracy", "leaves"):
        row = s[name]
        if row is None:
            w.writerow([name, "", "", "", "", "", "", "", "no completed folds"])
        else:
            w.writerow([name, repr(row["median"]), repr(row["q1"]), repr(row["q3"]),
                        "", "median/q1/q3", "", "", ""])
    return buf.getvalue()
