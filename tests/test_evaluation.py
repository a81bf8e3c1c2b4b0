import csv
import io
import json
from fractions import Fraction

import numpy as np
import pytest

import sparsetree
from sparsetree import boosting, evaluation, guessing, solver, trees
from sparsetree.boosting import BoostedEnsemble, ThresholdSet
from sparsetree.evaluation import (
    BenchmarkConfig,
    brute_force_optimal,
    depth_gap_bound,
    kfold,
    prune_to_depth,
    replicating_tree,
    run_benchmark,
)
from sparsetree.solver import Regularizer, SolverConfig

from conftest import masked_min_units, random_binary, random_raw


def _xor_binary():
    raw = sparsetree.make_raw(
        [[0.0, 0.0], [0.0, 1.0], [1.0, 0.0], [1.0, 1.0]], [0, 1, 1, 0]
    )
    return sparsetree.full_binarize(raw)


# ---------------------------------------------------------------- brute force

def test_brute_force_xor():
    bin_data = _xor_binary()
    res = brute_force_optimal(bin_data, Regularizer.from_text("0", 4), 2)
    assert res.objective == 0
    assert res.leaf_count == 4
    assert res.loss_count == 0


def test_brute_force_label_copy_column():
    raw = sparsetree.make_raw([[0.0], [0.0], [1.0], [1.0]], [0, 0, 1, 1])
    bin_data = sparsetree.full_binarize(raw)
    res = brute_force_optimal(bin_data, Regularizer.from_text("0.01", 4), 1)
    assert res.loss_count == 0
    assert res.leaf_count == 2
    assert res.depth == 1
    assert res.objective == Fraction(1, 50)


def test_brute_force_prefers_fewer_leaves_on_ties():
    # constant labels and a free split: the lone leaf must win
    raw = sparsetree.make_raw([[0.0], [1.0]], [0, 0])
    bin_data = sparsetree.full_binarize(raw)
    res = brute_force_optimal(bin_data, Regularizer.from_text("0", 2), 2)
    assert isinstance(res.tree, trees.Leaf)
    assert res.leaf_count == 1
    assert res.depth == 0


def test_brute_force_matches_masked_dp():
    rng = np.random.default_rng(0)
    for trial in range(8):
        bin_data = random_binary(rng, max_n=20, max_cols=6)
        reg = Regularizer.from_text(["0", "1/64", "1/20"][trial % 3], bin_data.n_samples)
        depth = 1 + trial % 3
        res = brute_force_optimal(bin_data, reg, depth)
        assert res.objective_units == masked_min_units(bin_data, depth, reg, bin_data.full_mask)
        assert trees.objective(res.tree, bin_data, reg) == res.objective


def test_brute_force_agrees_with_solver():
    rng = np.random.default_rng(1)
    for _ in range(5):
        bin_data = random_binary(rng, max_n=24, max_cols=7)
        reg = Regularizer.from_text("1/32", bin_data.n_samples)
        bf = brute_force_optimal(bin_data, reg, 3)
        opt = solver.optimize(bin_data, SolverConfig(reg, depth_limit=3))
        assert bf.objective_units == opt.objective_units


def test_brute_force_guards():
    rng = np.random.default_rng(2)
    raw = random_raw(rng, 30, 2, levels=12)
    wide = sparsetree.full_binarize(raw)
    assert wide.n_columns > 10
    reg = Regularizer.from_text("0", 30)
    with pytest.raises(ValueError, match="columns"):
        brute_force_optimal(wide, reg, 2)
    bin_data = _xor_binary()
    reg4 = Regularizer.from_text("0", 4)
    with pytest.raises(ValueError, match="depth"):
        brute_force_optimal(bin_data, reg4, 4)
    with pytest.raises(ValueError, match="depth"):
        brute_force_optimal(bin_data, reg4, 0)
    with pytest.raises(ValueError, match="sample"):
        brute_force_optimal(bin_data, Regularizer.from_text("0", 5), 2)


# ---------------------------------------------------------------- replication

def _constant_ensemble(names, score):
    return BoostedEnsemble(
        initial_score=score, learning_rate=0.1, n_estimators=1, max_depth=1,
        feature_names=names, trees=[],
    )


def test_replicate_constant_ensemble_is_lone_leaf():
    raw = sparsetree.make_raw([[0.0], [1.0]], [0, 1])
    bin_data = sparsetree.full_binarize(raw)
    ens = _constant_ensemble(("feature0≤0.5",), 4.0)
    tree = replicating_tree(ens, bin_data)
    assert isinstance(tree, trees.Leaf)
    assert tree.prediction == 1


def test_replicate_pipeline_ensemble_exactly():
    rng = np.random.default_rng(3)
    raw = random_raw(rng, 30, 2, levels=3)
    ens = boosting.fit(raw, 4, 2, 0.3)
    pairs = ThresholdSet.ranked(boosting.split_importance(ens)).pairs()
    assert len(pairs) <= 12  # 4 trees of depth 2 cannot use more splits
    bin_data = sparsetree.binarize_with_thresholds(raw, pairs)
    tens = guessing.translate_to_indicators(ens, pairs)
    tree = replicating_tree(tens, bin_data)
    got = trees.predict(tree, bin_data)
    want = boosting.predict_class(tens, bin_data.rows_matrix().astype(np.float64))
    assert np.array_equal(got, want)
    leaves, _ = trees.measure(tree)
    assert leaves <= 2 ** bin_data.n_columns


def test_replicate_guards():
    raw = sparsetree.make_raw([[float(i)] for i in range(22)], [i % 2 for i in range(22)])
    wide = sparsetree.full_binarize(raw)
    assert wide.n_columns == 21
    ens = _constant_ensemble(tuple(f"c{i}" for i in range(21)), 1.0)
    with pytest.raises(ValueError, match="limited to 20"):
        replicating_tree(ens, wide)
    empty = sparsetree.binarize_with_thresholds(raw, [])
    with pytest.raises(ValueError, match="no binary columns"):
        replicating_tree(ens, empty)


# ---------------------------------------------------------------- pruning

def test_prune_to_zero_is_majority_leaf():
    bin_data = _xor_binary()
    res = solver.optimize(bin_data, SolverConfig(Regularizer.from_text("0", 4), depth_limit=2))
    pruned = prune_to_depth(res.tree, 0, bin_data)
    assert isinstance(pruned, trees.Leaf)
    assert pruned.prediction == 0  # 2/2 tie goes to 0


def test_prune_beyond_depth_is_identity():
    bin_data = _xor_binary()
    res = solver.optimize(bin_data, SolverConfig(Regularizer.from_text("0", 4), depth_limit=2))
    assert trees.to_json(prune_to_depth(res.tree, 2, bin_data)) == trees.to_json(res.tree)
    assert trees.to_json(prune_to_depth(res.tree, 7, bin_data)) == trees.to_json(res.tree)


def test_prune_xor_to_depth_one():
    bin_data = _xor_binary()
    res = solver.optimize(bin_data, SolverConfig(Regularizer.from_text("0", 4), depth_limit=2))
    pruned = prune_to_depth(res.tree, 1, bin_data)
    leaves, depth = trees.measure(pruned)
    assert (leaves, depth) == (2, 1)
    assert trees.misclassified_count(pruned, bin_data) == 2


def test_prune_never_grows():
    rng = np.random.default_rng(4)
    for _ in range(5):
        bin_data = random_binary(rng, max_n=24, max_cols=6)
        res = solver.optimize(
            bin_data,
            SolverConfig(Regularizer.from_text("1/64", bin_data.n_samples), depth_limit=3),
        )
        full_leaves, _ = trees.measure(res.tree)
        for d in range(3):
            leaves, depth = trees.measure(prune_to_depth(res.tree, d, bin_data))
            assert leaves <= full_leaves
            assert depth <= d
    with pytest.raises(ValueError):
        prune_to_depth(res.tree, -1, bin_data)


# ---------------------------------------------------------------- depth gap

def test_gap_bound_trivial_when_guess_covers_depth():
    bin_data = _xor_binary()
    reg = Regularizer.from_text("0", 4)
    res = solver.optimize(bin_data, SolverConfig(reg, depth_limit=2))
    bound = depth_gap_bound(res.tree, 2, bin_data, reg)
    eq = sparsetree.equivalence_classes(bin_data)
    mt = sparsetree.minority_total(eq)
    assert bound == Fraction(res.loss_count - mt, 4)
    assert bound >= 0


def test_gap_bound_zero_lambda_is_pruned_loss_share():
    bin_data = _xor_binary()
    reg = Regularizer.from_text("0", 4)
    res = solver.optimize(bin_data, SolverConfig(reg, depth_limit=2))
    # all rows distinct so the minority term vanishes
    bound = depth_gap_bound(res.tree, 1, bin_data, reg)
    pruned = prune_to_depth(res.tree, 1, bin_data)
    assert bound == Fraction(trees.misclassified_count(pruned, bin_data), 4)


def test_gap_bound_dominates_actual_regret():
    rng = np.random.default_rng(5)
    reg_text = "1/128"
    done = 0
    for _ in range(12):
        bin_data = random_binary(rng, max_n=28, max_cols=6)
        reg = Regularizer.from_text(reg_text, bin_data.n_samples)
        deep = solver.optimize(bin_data, SolverConfig(reg, depth_limit=3))
        shallow = solver.optimize(bin_data, SolverConfig(reg, depth_limit=2))
        gap = shallow.objective - deep.objective
        assert gap >= 0
        assert gap <= depth_gap_bound(deep.tree, 2, bin_data, reg)
        done += 1
    assert done == 12


# ---------------------------------------------------------------- folds

def test_kfold_partitions_evenly():
    raw = sparsetree.make_raw([[float(i)] for i in range(10)], [i % 2 for i in range(10)])
    plan = kfold(raw, 5, seed=0)
    assert len(plan.test_indices) == 5
    assert [len(f) for f in plan.test_indices] == [2, 2, 2, 2, 2]
    seen = sorted(i for f in plan.test_indices for i in f)
    assert seen == list(range(10))
    for fold in range(5):
        train = plan.train_indices(fold)
        assert len(train) == 8
        assert sorted(train + plan.test_indices[fold]) == list(range(10))


def test_kfold_uneven_sizes_differ_by_at_most_one():
    raw = sparsetree.make_raw([[float(i)] for i in range(11)], [i % 2 for i in range(11)])
    sizes = sorted(len(f) for f in kfold(raw, 3, seed=4).test_indices)
    assert sizes == [3, 4, 4]


def test_kfold_seed_behavior():
    raw = sparsetree.make_raw([[float(i)] for i in range(12)], [i % 2 for i in range(12)])
    assert kfold(raw, 4, seed=9).test_indices == kfold(raw, 4, seed=9).test_indices
    assert kfold(raw, 4, seed=0).test_indices != kfold(raw, 4, seed=1).test_indices


def test_kfold_guards():
    raw = sparsetree.make_raw([[1.0], [2.0], [3.0]], [0, 1, 0])
    with pytest.raises(ValueError):
        kfold(raw, 1, seed=0)
    with pytest.raises(ValueError):
        kfold(raw, 4, seed=0)


# ---------------------------------------------------------------- benchmark

def _bench_raw():
    rng = np.random.default_rng(6)
    return random_raw(rng, 60, 3, noise=0.25)


def _bench_cfg(**kw):
    base = dict(
        folds=3, seed=0, n_estimators=5, max_depth=2, learning_rate=0.3,
        regularization="1/100", depth_limit=2,
    )
    base.update(kw)
    return BenchmarkConfig(**base)


def test_benchmark_runs_all_folds():
    report = run_benchmark(_bench_raw(), _bench_cfg())
    assert len(report.folds) == 3
    assert all(f.completed for f in report.folds)
    s = report.summary()
    assert s["completed_folds"] == 3
    assert s["failed_folds"] == 0
    for f in report.folds:
        assert f.status in ("optimal", "guess-certified")
        assert f.counters is not None and f.counters_no_guess is not None
        # the exact optimum is never worse than the guessed solve's tree
        assert Fraction(f.objective_no_guess) <= Fraction(f.objective)
        assert 0.0 <= f.train_accuracy <= 1.0
        assert 0.0 <= f.test_accuracy <= 1.0
        assert f.reduced_columns >= 1


def test_benchmark_json_deterministic():
    raw = _bench_raw()
    a = evaluation.report_to_json(run_benchmark(raw, _bench_cfg()))
    b = evaluation.report_to_json(run_benchmark(raw, _bench_cfg()))
    assert a == b
    obj = json.loads(a)
    assert set(obj) == {"config", "folds", "summary"}
    assert "wall_time_s" not in obj["folds"][0]
    timed = evaluation.report_to_json(run_benchmark(raw, _bench_cfg()), include_timing=True)
    assert "wall_time_s" in json.loads(timed)["folds"][0]


def test_benchmark_json_fold_keys_are_pinned():
    # every fold entry, failed or not, lists the same keys in this order;
    # wall time is the last key and only with timing
    keys = [
        "fold", "error", "train_accuracy", "test_accuracy", "objective", "leaves",
        "depth", "status", "reduced_columns", "counters", "counters_no_guess",
        "objective_no_guess",
    ]
    report = evaluation.BenchmarkReport(config=_bench_cfg(), folds=[
        evaluation.FoldOutcome(
            fold=0, train_accuracy=0.75, test_accuracy=0.5, objective="1/4", leaves=3,
            depth=2, status="optimal", reduced_columns=4,
            counters={"created": 5, "expanded": 2, "closed_by_guess": 0, "cache_hits": 1},
            counters_no_guess={"created": 6, "expanded": 3, "closed_by_guess": 0, "cache_hits": 1},
            objective_no_guess="1/5", wall_time_s=0.25,
        ),
        evaluation.FoldOutcome(fold=1, error="DegenerateModelError: single class"),
    ])
    plain = json.loads(evaluation.report_to_json(report))["folds"]
    timed = json.loads(evaluation.report_to_json(report, include_timing=True))["folds"]
    assert [list(f) for f in plain] == [keys, keys]
    assert [list(f) for f in timed] == [keys + ["wall_time_s"]] * 2
    assert plain[0]["counters"]["expanded"] == 2 and plain[1]["error"].startswith("Degenerate")
    assert [f["objective_no_guess"] for f in plain] == ["1/5", None]
    assert [f["wall_time_s"] for f in timed] == [0.25, 0.0]


def test_benchmark_solves_once_per_fold_without_a_guess(monkeypatch):
    calls = []

    def counting(*args, **kwargs):
        calls.append(1)
        return solver.optimize(*args, **kwargs)

    monkeypatch.setattr(evaluation, "optimize", counting)
    report = run_benchmark(_bench_raw(), _bench_cfg(use_lb_guess=False))
    assert len(calls) == 3
    for f in report.folds:
        assert f.status == "optimal"
        assert f.counters_no_guess == f.counters
        assert f.objective_no_guess == f.objective
    # a guessed fold still pairs its solve with a plain one
    calls.clear()
    report = run_benchmark(_bench_raw(), _bench_cfg())
    assert [f.status for f in report.folds] == ["guess-certified"] * 3
    assert len(calls) == 6


def test_report_with_every_fold_failed():
    report = evaluation.BenchmarkReport(config=_bench_cfg(), folds=[
        evaluation.FoldOutcome(fold=0, error="DegenerateModelError: single class"),
        evaluation.FoldOutcome(fold=1, error="ValueError: bad"),
    ])
    assert report.summary() == {
        "completed_folds": 0, "failed_folds": 2,
        "train_accuracy": None, "test_accuracy": None, "leaves": None,
    }
    rows = list(csv.reader(io.StringIO(evaluation.report_to_csv(report))))
    assert [r[0] for r in rows[1:3]] == ["0", "1"]
    assert rows[1][-1] == "DegenerateModelError: single class"
    assert rows[3:] == [
        [name, "", "", "", "", "", "", "", "no completed folds"]
        for name in ("train_accuracy", "test_accuracy", "leaves")
    ]


def test_benchmark_isolates_failed_folds():
    # two positives: under some seed both land in one test fold, whose
    # training half is then single-class and must fail alone
    labels = [1, 1, 0, 0, 0, 0]
    feats = [[10.0 * y + i] for i, y in enumerate(labels)]
    raw = sparsetree.make_raw(feats, labels)
    seed = None
    for s in range(60):
        plan = kfold(raw, 3, seed=s)
        bad = [
            f for f in range(3)
            if len({labels[i] for i in plan.train_indices(f)}) == 1
        ]
        if len(bad) == 1:
            seed = s
            break
    assert seed is not None
    report = run_benchmark(raw, _bench_cfg(seed=seed, n_estimators=3))
    failed = [f for f in report.folds if not f.completed]
    assert len(failed) == 1
    assert "single class" in failed[0].error
    assert report.summary()["completed_folds"] == 2


@pytest.mark.parametrize("bad", [
    {"time_limit_s": -1.0},
    {"time_limit_s": float("nan")},
    {"regularization": "-1/10"},
    {"regularization": "nonsense"},
    {"depth_limit": 0},
    {"max_depth": 0},
    {"n_estimators": 0},
    {"learning_rate": 0.0},
    {"drop_tolerance": 2.0},
])
def test_benchmark_checks_solver_options_before_fitting(monkeypatch, bad):
    def fitting(*args, **kwargs):
        raise AssertionError("a fold fitted before the solver options were checked")

    monkeypatch.setattr(evaluation.guessing, "column_eliminate", fitting)
    monkeypatch.setattr(evaluation.boosting, "fit", fitting)
    with pytest.raises(ValueError):
        run_benchmark(_bench_raw(), _bench_cfg(**bad))


def test_benchmark_csv_round_trip():
    report = run_benchmark(_bench_raw(), _bench_cfg())
    text = evaluation.report_to_csv(report)
    rows = list(csv.reader(io.StringIO(text)))
    assert rows[0][:6] == ["fold", "train_accuracy", "test_accuracy", "leaves", "depth", "status"]
    fold_rows = rows[1: 1 + len(report.folds)]
    for row, f in zip(fold_rows, report.folds):
        assert int(row[0]) == f.fold
        assert int(row[6]) == f.counters["expanded"]
    names = [r[0] for r in rows[1 + len(report.folds):]]
    assert names == ["train_accuracy", "test_accuracy", "leaves"]
