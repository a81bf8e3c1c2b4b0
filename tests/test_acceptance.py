"""End-to-end acceptance checks, one test per criterion.

Run with -v for the per-criterion verdict lines.  Criteria needing the
recidivism CSV skip with a pointer when the file is absent (see conftest).
"""

import json
import statistics
import time
from fractions import Fraction

import numpy as np
import pytest

import sparsetree
from sparsetree import boosting, cli, evaluation, guessing, solver, trees
from sparsetree.boosting import DegenerateModelError
from sparsetree.evaluation import (
    BenchmarkConfig,
    brute_force_optimal,
    depth_gap_bound,
    replicating_tree,
    run_benchmark,
)
from sparsetree.solver import Regularizer, SolverConfig

from conftest import compas_path, masked_min_units, random_binary, require_compas

_LAMBDAS = ("0", "1/64", "1/20")


@pytest.fixture(scope="module")
def corpus():
    """210 seeded instances: 70 binarized datasets under three penalties."""
    rng = np.random.default_rng(2024)
    datasets = [random_binary(rng, max_n=64, max_cols=8) for _ in range(70)]
    out = []
    for bin_data in datasets:
        for lam in _LAMBDAS:
            out.append((bin_data, Regularizer.from_text(lam, bin_data.n_samples)))
    return out


@pytest.fixture(scope="module")
def brute_cache():
    return {}


def _brute(cache, idx, bin_data, reg):
    got = cache.get(idx)
    if got is None:
        got = cache[idx] = brute_force_optimal(bin_data, reg, 3)
    return got


def test_criterion_1_exact_solves_match_brute_force(corpus, brute_cache):
    t0 = time.monotonic()
    for idx, (bin_data, reg) in enumerate(corpus):
        bf = _brute(brute_cache, idx, bin_data, reg)
        res = solver.optimize(bin_data, SolverConfig(reg, depth_limit=3))
        assert res.status == "optimal"
        assert res.objective_units == bf.objective_units, idx
        assert trees.objective(res.tree, bin_data, reg) == res.objective
    elapsed = time.monotonic() - t0
    assert len(corpus) >= 200
    assert elapsed < 120.0
    print(f"criterion 1: {len(corpus)} instances match the exhaustive optimum "
          f"exactly in {elapsed:.1f}s")


def _pipeline_holds_reference_bound(raw, lam):
    """Run eliminate -> replicate -> solve; True when a usable pipeline ran."""
    n = raw.n_samples
    try:
        trace = guessing.column_eliminate(raw, 4, 2, 0.3)
    except DegenerateModelError:
        return False
    pairs = trace.thresholds.pairs()
    if not 1 <= len(pairs) <= 20:
        return False
    bin_red = sparsetree.binarize_with_thresholds(raw, pairs)
    t_ref = replicating_tree(trace.ensemble, bin_red)
    reg = Regularizer.from_text(lam, n)
    depth_cap = max(1, trees.measure(t_ref)[1])
    res = solver.optimize(bin_red, SolverConfig(
        reg,
        depth_limit=depth_cap,
        reference=guessing.reference_labels(trace.ensemble, bin_red),
    ))
    leaves_ref = trees.measure(t_ref)[0]
    # the stated bound: starting-ensemble training loss plus the replicating
    # tree's leaf penalty, in exact arithmetic
    stated = Fraction(n - trace.initial_correct, n) + reg.value * leaves_ref
    assert res.objective <= trees.objective(t_ref, bin_red, reg) <= stated
    return True


def test_criterion_2_pipeline_never_worse_than_its_reference_tree():
    rng = np.random.default_rng(77)
    done = 0
    draws = 0
    while done < 50 and draws < 140:
        draws += 1
        n = int(rng.integers(40, 90))
        m = int(rng.integers(2, 4))
        x = rng.integers(0, 4, size=(n, m)).astype(float)
        y = (x[:, 0] + (x[:, 1] if m > 1 else 0) >= 3).astype(int)
        flips = rng.random(n) < 0.1
        y[flips] ^= 1
        raw = sparsetree.make_raw(x, y)
        lam = ("1/100", "1/64", "1/20")[done % 3]
        if _pipeline_holds_reference_bound(raw, lam):
            done += 1
    assert done >= 50

    extra = 0
    if compas_path() is not None:
        full = sparsetree.load_csv(compas_path())
        sub_rng = np.random.default_rng(7)
        for k in range(10):
            idx = sub_rng.choice(full.n_samples, size=min(500, full.n_samples), replace=False)
            sub = full.subset(sorted(int(i) for i in idx))
            if _pipeline_holds_reference_bound(sub, "1/100"):
                extra += 1
    print(f"criterion 2: {done + extra} pipelines ended at or below their "
          f"reference tree's bound (exact comparison)")


def test_criterion_3_guessed_runs_keep_the_reference_guarantee(corpus):
    checked = 0
    for idx, (bin_data, reg) in enumerate(corpus):
        n = bin_data.n_samples
        rng = np.random.default_rng(idx)
        labels = np.asarray([(bin_data.pos_mask >> i) & 1 for i in range(n)])
        preds = labels.copy()
        rate = 0.05 + 0.25 * rng.random()
        preds[rng.random(n) < rate] ^= 1
        ref = guessing.reference_from_predictions(preds, labels)
        res = solver.optimize(bin_data, SolverConfig(reg, depth_limit=3, reference=ref))
        if ref.single_class:
            assert res.refused_lb_guess
        correct_bits = bin_data.full_mask & ~ref.incorrect_bits
        bound = reg.denom * ref.incorrect_count + masked_min_units(
            bin_data, 3, reg, correct_bits
        )
        assert res.objective_units <= bound, idx
        assert trees.objective(res.tree, bin_data, reg) == res.objective
        checked += 1
    assert checked >= 200
    print(f"criterion 3: {checked} guessed runs stay within the reference-"
          f"completion bound for every admissible tree")


def test_criterion_4_suggested_depths_for_known_ensembles(capsys):
    # ten and a hundred depth-3 weak learners
    assert cli.main(["depth-bound", "--n-estimators", "10", "--weak-depth", "3"]) == 0
    first = json.loads(capsys.readouterr().out)
    assert first["suggested_depth"] == 11
    assert cli.main(["depth-bound", "--n-estimators", "100", "--weak-depth", "3"]) == 0
    second = json.loads(capsys.readouterr().out)
    assert second["suggested_depth"] == 15
    print("criterion 4: suggested depths are 11 and 15 for the two reference "
          "ensemble shapes (exact)")


def test_criterion_5_recidivism_five_fold_benchmark():
    path = require_compas()
    raw = sparsetree.load_csv(path)
    cfg = BenchmarkConfig(
        folds=5, seed=0, n_estimators=20, max_depth=3, learning_rate=0.1,
        regularization="0.001", depth_limit=3,
    )
    report = run_benchmark(raw, cfg)
    done = [f for f in report.folds if f.completed]
    assert len(done) == 5
    med_acc = statistics.median(f.train_accuracy for f in done)
    med_leaves = statistics.median(f.leaves for f in done)
    assert abs(med_acc - 0.683) <= 0.02
    assert med_leaves <= 10
    for f in done:
        assert f.wall_time_s < 60.0
    print(f"criterion 5: median train accuracy {med_acc:.3f}, median leaves "
          f"{med_leaves}, all folds under 60s")


def _paired_expansion_counts(raw, reg_text, n_est, max_depth, lr, drop_tolerance):
    """(guessed, plain) expanded counts: full pipeline vs no guessing at all."""
    full = sparsetree.full_binarize(raw)
    reg = Regularizer.from_text(reg_text, raw.n_samples)
    plain = solver.optimize(full, SolverConfig(reg, depth_limit=3))
    trace = guessing.column_eliminate(
        raw, n_est, max_depth, lr, drop_tolerance=drop_tolerance
    )
    red = sparsetree.binarize_with_thresholds(raw, trace.thresholds.pairs())
    ref = guessing.reference_labels(trace.ensemble, red)
    guessed = solver.optimize(red, SolverConfig(reg, depth_limit=3, reference=ref))
    return guessed.counters.expanded, plain.counters.expanded


def test_criterion_6_guessing_shrinks_the_search():
    pairs = []
    rng = np.random.default_rng(100)
    while len(pairs) < 7:
        n = 180
        m = 7
        x = np.round(rng.normal(size=(n, m)) * 2) / 2
        logits = (
            1.3 * (x[:, 0] > 0.3) + 1.1 * (x[:, 1] < -0.2)
            - 1.2 * (x[:, 2] > 0.8) - 0.4
        )
        y = (logits + 0.35 * rng.normal(size=n) > 0).astype(int)
        raw = sparsetree.make_raw(x, y)
        if sparsetree.full_binarize(raw).n_columns < 50:
            continue
        try:
            pairs.append(_paired_expansion_counts(raw, "0.02", 15, 2, 0.1, 0.05))
        except DegenerateModelError:
            continue

    if compas_path() is not None:
        raw = sparsetree.load_csv(compas_path())
        plan = evaluation.kfold(raw, 5, seed=0)
        for fold in range(5):
            train = raw.subset(plan.train_indices(fold))
            pairs.append(_paired_expansion_counts(train, "0.001", 20, 3, 0.1, 0.0))

    for g, p in pairs:
        assert g <= p, pairs
    ratios = [g / p for g, p in pairs if p > 0]
    med = statistics.median(ratios)
    assert med <= 0.5
    print(f"criterion 6: pipeline expansions never exceed plain ones over "
          f"{len(pairs)} paired runs; median ratio {med:.4f}")


def test_criterion_7_duplicate_row_bound_holds(corpus, brute_cache):
    for idx, (bin_data, reg) in enumerate(corpus):
        eq = sparsetree.equivalence_classes(bin_data)
        lb = Fraction(sparsetree.minority_total(eq, bin_data.full_mask), bin_data.n_samples)
        bf = _brute(brute_cache, idx, bin_data, reg)
        assert lb <= Fraction(bf.loss_count, bin_data.n_samples), idx
    print(f"criterion 7: contradiction floor stays below the optimal loss on "
          f"all {len(corpus)} instances")


def test_criterion_8_depth_shortfall_is_certified():
    rng = np.random.default_rng(8)
    reg_text = "1/200"
    done = 0
    draws = 0
    while done < 30 and draws < 90:
        draws += 1
        n = int(rng.integers(28, 56))
        base = rng.integers(0, 2, size=(n, 5)).astype(float)
        y = (base[:, 0].astype(int) ^ base[:, 1].astype(int) ^ base[:, 2].astype(int))
        y[rng.random(n) < 0.05] ^= 1
        raw = sparsetree.make_raw(base, y)
        bin_data = sparsetree.full_binarize(raw)
        if bin_data.n_columns < 3:
            continue
        reg = Regularizer.from_text(reg_text, n)
        deep = brute_force_optimal(bin_data, reg, 3)
        if deep.depth != 3:
            continue
        shallow = brute_force_optimal(bin_data, reg, 2)
        gap = shallow.objective - deep.objective
        bound = depth_gap_bound(deep.tree, 2, bin_data, reg)
        assert 0 <= gap <= bound, draws
        done += 1
    assert done >= 30
    print(f"criterion 8: {done} depth-3 optima, all depth-2 shortfalls within "
          f"the certified ceiling (exact)")


def test_criterion_9_runs_are_reproducible(tmp_path):
    rng = np.random.default_rng(123)
    lines = ["a,b,label"]
    for _ in range(60):
        x0 = round(float(rng.normal()), 1)
        x1 = int(rng.integers(0, 4))
        lines.append(f"{x0},{x1},{int(x1 >= 2)}")
    data = tmp_path / "raw.csv"
    data.write_text("\n".join(lines) + "\n")

    train_args = [
        "train", str(data), "--lambda", "1/100", "--depth", "3",
        "--guess-thresholds", "--lb-guess", "--n-est", "5", "--max-depth", "2",
        "--lr", "0.3",
    ]
    assert cli.main(train_args + ["--out", str(tmp_path / "a")]) == 0
    assert cli.main(train_args + ["--out", str(tmp_path / "b")]) == 0
    assert (tmp_path / "a.tree.json").read_bytes() == (tmp_path / "b.tree.json").read_bytes()
    assert (tmp_path / "a.report.json").read_bytes() == (tmp_path / "b.report.json").read_bytes()

    bench_args = [
        "benchmark", str(data), "--folds", "3", "--n-est", "5", "--max-depth", "2",
        "--lr", "0.3", "--lambda", "1/100", "--depth", "2",
    ]
    assert cli.main(bench_args + ["--out-json", str(tmp_path / "r1.json")]) == 0
    assert cli.main(bench_args + ["--out-json", str(tmp_path / "r2.json")]) == 0
    assert (tmp_path / "r1.json").read_bytes() == (tmp_path / "r2.json").read_bytes()

    gen = np.random.default_rng(5)
    for _ in range(4):
        bin_data = random_binary(gen, max_n=48, max_cols=8)
        reg = Regularizer.from_text("1/64", bin_data.n_samples)
        labels = np.asarray(
            [(bin_data.pos_mask >> i) & 1 for i in range(bin_data.n_samples)]
        )
        preds = labels.copy()
        preds[gen.random(bin_data.n_samples) < 0.15] ^= 1
        ref = guessing.reference_from_predictions(preds, labels)
        cfg = SolverConfig(reg, depth_limit=3, reference=ref)
        first = solver.optimize(bin_data, cfg)
        again = solver.optimize(bin_data, cfg)
        assert trees.to_json(first.tree) == trees.to_json(again.tree)
        assert solver.run_report(first) == solver.run_report(again)
    print("criterion 9: artifacts and guessed solves rerun byte-identical")
