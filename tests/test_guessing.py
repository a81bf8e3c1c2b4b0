import json
import math

import numpy as np
import pytest

import sparsetree
from sparsetree import boosting, guessing
from sparsetree.boosting import DegenerateModelError, ThresholdSet
from sparsetree.dataset import bools_to_bits

from conftest import random_raw


# ---------------------------------------------------------------- references

def test_reference_perfect_predictions():
    ref = guessing.reference_from_predictions([0, 1, 1], [0, 1, 1])
    assert ref.predicted == ref.labels == 0b110
    assert ref.incorrect_count == 0
    assert not ref.single_class


def test_reference_constant_zero():
    ref = guessing.reference_from_predictions([0, 0, 0], [0, 1, 1])
    assert (ref.predicted, ref.labels) == (0, 0b110)
    assert ref.incorrect_count == 2
    assert ref.single_class


@pytest.mark.parametrize("preds, labels, message", [
    pytest.param([0, 1], [0, 1, 1], "mismatch", id="length"),
    pytest.param([[0, 1]], [[0, 1]], "mismatch", id="2d"),
    # a bitmask would read each of these predictions or labels as 0
    pytest.param([0, 2, 1], [0, 1, 1], "0 or 1", id="two"),
    pytest.param([0.7, 1, 0], [1, 1, 0], "0 or 1", id="fraction"),
    pytest.param([-1, 1, 0], [0, 1, 0], "0 or 1", id="negative"),
    pytest.param([0, 1, 0], [0, 2, 0], "0 or 1", id="label-two"),
])
def test_reference_rejects_bad_input(preds, labels, message):
    with pytest.raises(ValueError, match=message):
        guessing.reference_from_predictions(preds, labels)


def test_equal_references_compare_and_hash_equal():
    raw = random_raw(np.random.default_rng(0), 50, 3, noise=0.6)
    ens = boosting.fit(raw, 6, 2, 0.1)
    a, b = guessing.reference_labels(ens, raw), guessing.reference_labels(ens, raw)
    assert a == b and hash(a) == hash(b)
    listed = guessing.reference_from_predictions(
        boosting.predict_class(ens, raw.features).tolist(), raw.labels.tolist())
    assert listed == a and len({a, b, listed}) == 1
    rescored = guessing.reference_from_predictions([0, 1], [1, 1])
    assert guessing.reference_from_predictions([0, 1], [0, 1]) != rescored


def test_reference_labels_from_ensemble():
    rng = np.random.default_rng(0)
    raw = random_raw(rng, 50, 3, noise=0.6)
    ens = boosting.fit(raw, 6, 2, 0.1)
    ref = guessing.reference_labels(ens, raw)
    preds = boosting.predict_class(ens, raw.features)
    assert ref.predicted == bools_to_bits(preds == 1)
    wrong = [i for i in range(50) if ((ref.predicted ^ ref.labels) >> i) & 1]
    assert wrong == [i for i in range(50) if preds[i] != raw.labels[i]]


def test_reference_labels_on_indicator_columns():
    rng = np.random.default_rng(1)
    raw = random_raw(rng, 40, 3)
    ens = boosting.fit(raw, 5, 2, 0.1)
    pairs = ThresholdSet.ranked(boosting.split_importance(ens)).pairs()
    bin_data = sparsetree.binarize_with_thresholds(raw, pairs)
    tens = guessing.translate_to_indicators(ens, pairs)
    ref = guessing.reference_labels(tens, bin_data)
    assert ref.predicted == bools_to_bits(boosting.predict_class(ens, raw.features) == 1)


# ---------------------------------------------------------------- depth bound

def test_vc_examples():
    assert guessing.vc_of_depth_trees(0) == 1
    assert guessing.vc_of_depth_trees(3) == 8
    assert guessing.vc_of_depth_trees(10) == 1024


def test_vc_range_guard():
    with pytest.raises(ValueError):
        guessing.vc_of_depth_trees(-1)
    with pytest.raises(ValueError):
        guessing.vc_of_depth_trees(63)


def test_min_depth_reference_points():
    d, product = guessing.min_depth_for_ensemble(10, 8)
    assert d == 11
    assert product == pytest.approx(90 * (3 * math.log(90) + 2))
    d2, _ = guessing.min_depth_for_ensemble(100, 8)
    assert d2 == 15


def test_min_depth_matches_high_precision():
    mpmath = pytest.importorskip("mpmath")
    mpmath.mp.dps = 60
    for k, vc in [(3, 3), (10, 8), (100, 8), (37, 19), (1000, 64)]:
        d, product = guessing.min_depth_for_ensemble(k, vc)
        m = k * vc + k
        exact = mpmath.mpf(m) * (3 * mpmath.log(m) + 2)
        assert d == int(mpmath.ceil(mpmath.log(exact, 2)))
        assert float(exact) == pytest.approx(product)


def test_min_depth_is_tight_ceiling():
    rng = np.random.default_rng(2)
    for _ in range(30):
        k = int(rng.integers(3, 10_000))
        vc = int(rng.integers(3, 10_000))
        d, product = guessing.min_depth_for_ensemble(k, vc)
        assert 2.0 ** d >= product
        assert 2.0 ** (d - 1) < product


def test_min_depth_small_inputs_rejected():
    with pytest.raises(ValueError):
        guessing.min_depth_for_ensemble(2, 8)
    with pytest.raises(ValueError):
        guessing.min_depth_for_ensemble(10, 2)
    # the shattering bound must fit in a float: an int too large to convert,
    # and a product that overflows
    with pytest.raises(ValueError):
        guessing.min_depth_for_ensemble(10, 10**400)
    with pytest.raises(ValueError):
        guessing.min_depth_for_ensemble(10, 10**306)


# ---------------------------------------------------------------- elimination

def _single_signal_raw():
    rng = np.random.default_rng(0)
    n = 40
    x0 = rng.normal(size=n).round(1)
    x1 = rng.integers(0, 2, size=n).astype(float)
    y = (x1 > 0.5).astype(int)
    return sparsetree.make_raw(np.column_stack([x0, x1]), y)


def _noisy_signal_raw():
    rng = np.random.default_rng(7)
    n = 80
    x = rng.integers(0, 4, size=(n, 3)).astype(float)
    y = (x[:, 0] >= 2).astype(int)
    flip = rng.choice(n, size=6, replace=False)
    y[flip] ^= 1
    return sparsetree.make_raw(x, y)


def _check_solve_inputs(raw, tr):
    """The trace's data and reference are what a caller would rebuild from
    its thresholds and ensemble."""
    again = sparsetree.binarize_with_thresholds(raw, tr.thresholds.pairs())
    assert tr.data.columns == again.columns
    assert tr.data.column_meta == again.column_meta
    assert tr.data.pos_mask == again.pos_mask
    ref = guessing.reference_labels(tr.ensemble, tr.data)
    assert tr.reference == ref


def test_eliminate_distills_single_signal():
    raw = _single_signal_raw()
    tr = guessing.column_eliminate(raw, 10, 2, 0.1)
    assert tr.thresholds.pairs() == [(1, 0.5)]
    assert tr.initial_correct == 40
    assert tr.stopping_bar == 40
    assert not tr.fallback_translated
    _check_solve_inputs(raw, tr)


def test_eliminate_retains_joint_signal():
    # imbalanced XOR: either column alone is useless, so the first removal
    # breaks the bar and everything stays
    rows = [(0.0, 0.0)] * 4 + [(0.0, 1.0)] * 2 + [(1.0, 0.0)] * 2 + [(1.0, 1.0)] * 3
    ys = [0] * 4 + [1] * 2 + [1] * 2 + [0] * 3
    raw = sparsetree.make_raw(np.array(rows), np.array(ys))
    tr = guessing.column_eliminate(raw, 20, 2, 0.3)
    assert tr.initial_correct == 11
    assert sorted(tr.thresholds.pairs()) == [(0, 0.5), (1, 0.5)]
    assert tr.steps == ()


def test_eliminate_with_tolerance_strips_noise():
    raw = _noisy_signal_raw()
    tr = guessing.column_eliminate(raw, 10, 2, 0.2, drop_tolerance=0.1)
    assert tr.initial_correct == 74
    assert tr.stopping_bar == 74 - math.floor(74 / 10)
    assert tr.stopping_bar == math.ceil(0.9 * 74)
    assert len(tr.steps) >= 1
    assert tr.thresholds.pairs() == [(0, 1.5)]
    for _, c in tr.steps:
        assert c >= tr.stopping_bar


def test_eliminate_full_tolerance_removes_everything():
    raw = _single_signal_raw()
    ens = boosting.fit(raw, 10, 2, 0.1)
    initial = len(boosting.split_importance(ens))
    tr = guessing.column_eliminate(raw, 10, 2, 0.1, drop_tolerance=1.0)
    assert tr.stopping_bar == 0
    assert len(tr.thresholds) == 0
    assert len(tr.steps) == initial
    _check_solve_inputs(raw, tr)


def test_eliminate_zero_tolerance_never_loses_accuracy():
    for seed in range(4):
        rng = np.random.default_rng(100 + seed)
        raw = random_raw(rng, 60, 3, noise=0.5)
        try:
            tr = guessing.column_eliminate(raw, 8, 2, 0.2)
        except DegenerateModelError:
            continue
        bin_data = sparsetree.binarize_with_thresholds(raw, tr.thresholds.pairs())
        ref = guessing.reference_labels(tr.ensemble, bin_data)
        assert raw.n_samples - ref.incorrect_count >= tr.initial_correct


def test_eliminate_fallback_keeps_the_first_fit():
    # on this draw no elimination step and no refit on every threshold keeps
    # the bar, so the first raw fit is translated onto the indicator columns
    raw = random_raw(np.random.default_rng(28), 60, 3, noise=0.8)
    tr = guessing.column_eliminate(raw, 5, 2, 0.3)
    assert tr.fallback_translated and tr.steps == ()
    bin_data = sparsetree.binarize_with_thresholds(raw, tr.thresholds.pairs())
    assert tr.ensemble.feature_names == tuple(
        bin_data.column_header(c) for c in range(bin_data.n_columns)
    )
    first = boosting.fit(raw, 5, 2, 0.3)
    assert guessing.reference_labels(tr.ensemble, bin_data).predicted == bools_to_bits(
        boosting.predict_class(first, raw.features) == 1)
    _check_solve_inputs(raw, tr)


def test_eliminate_replays_one_importance_order():
    # replayed through public calls: each step drops the last pair of
    # ThresholdSet.ranked over the latest fit's importances, then the
    # survivors are refit; the first draw's refits leave importance-0 pairs
    # tied for last, so the tie-break to the larger pair runs
    zero_ties = 0
    for seed, tol in [(3, 0.0), (1, 0.0), (7, 0.05)]:
        raw = random_raw(np.random.default_rng(seed), 60, 3, noise=0.5)
        tr = guessing.column_eliminate(raw, 8, 2, 0.2, drop_tolerance=tol)
        assert tr.steps and not tr.fallback_translated
        ranking = boosting.split_importance(boosting.fit(raw, 8, 2, 0.2))
        for victim, _ in tr.steps:
            assert victim == ThresholdSet.ranked(ranking).pairs()[-1]
            zero_ties += ranking[victim] == 0.0 and list(ranking.values()).count(0.0) >= 2
            rest = sorted(p for p in ranking if p != victim)
            data = sparsetree.binarize_with_thresholds(raw, rest)
            ranking = dict.fromkeys(rest, 0.0)
            for (c, _), v in boosting.split_importance(boosting.fit(data, 8, 2, 0.2)).items():
                ranking[data.column_meta[c]] += v
        assert ThresholdSet.ranked(ranking) == tr.thresholds
    assert zero_ties > 0


def test_eliminate_parameter_guards():
    raw = _single_signal_raw()
    with pytest.raises(ValueError):
        guessing.column_eliminate(raw, 5, 2, 0.1, drop_tolerance=-0.1)
    with pytest.raises(ValueError):
        guessing.column_eliminate(raw, 5, 2, 0.1, drop_tolerance=1.5)


def test_eliminate_rejects_single_class_reference():
    raw = sparsetree.make_raw([[1.0], [2.0], [3.0]], [0, 0, 0])
    with pytest.raises(DegenerateModelError):
        guessing.column_eliminate(raw, 5, 2, 0.1)


# ---------------------------------------------------------------- translation

def test_translate_preserves_predictions():
    rng = np.random.default_rng(3)
    raw = random_raw(rng, 70, 4, noise=0.6)
    ens = boosting.fit(raw, 8, 3, 0.1)
    pairs = ThresholdSet.ranked(boosting.split_importance(ens)).pairs()
    bin_data = sparsetree.binarize_with_thresholds(raw, pairs)
    tens = guessing.translate_to_indicators(ens, pairs)
    x_ind = bin_data.rows_matrix().astype(np.float64)
    assert np.array_equal(
        boosting.predict_class(tens, x_ind),
        boosting.predict_class(ens, raw.features),
    )


def _headers(bin_data):
    return tuple(bin_data.column_header(c) for c in range(bin_data.n_columns))


def test_indicator_fit_names_features_by_column_header():
    rng = np.random.default_rng(4)
    raw = random_raw(rng, 20, 2)
    bin_data = sparsetree.full_binarize(raw)
    ens = boosting.fit(bin_data, 5, 2, 0.3)
    assert ens.feature_names == _headers(bin_data)
    # predicting once per equivalence class is predicting on every row
    assert guessing.reference_labels(ens, bin_data).predicted == bools_to_bits(
        boosting.predict_class(ens, bin_data.rows_matrix()) == 1)
    tr = guessing.column_eliminate(_noisy_signal_raw(), 10, 2, 0.2)
    assert not tr.fallback_translated
    assert tr.ensemble.feature_names == _headers(tr.data)


# ---------------------------------------------------------------- trace json

def test_trace_json_shape_and_determinism():
    raw = _noisy_signal_raw()
    tr = guessing.column_eliminate(raw, 10, 2, 0.2, drop_tolerance=0.1)
    text = guessing.trace_to_json(tr)
    again = guessing.trace_to_json(
        guessing.column_eliminate(raw, 10, 2, 0.2, drop_tolerance=0.1)
    )
    assert text == again
    obj = json.loads(text)
    assert obj["initial_correct"] == tr.initial_correct
    assert obj["stopping_bar"] == tr.stopping_bar
    assert [s["refit_correct"] for s in obj["steps"]] == [c for _, c in tr.steps]
    assert [(t["feature"], t["threshold"]) for t in obj["thresholds"]] == tr.thresholds.pairs()
    assert "ensemble" in obj
