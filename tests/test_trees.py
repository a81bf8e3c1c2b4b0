import json
from fractions import Fraction

import numpy as np
import pytest

import sparsetree
from sparsetree import trees
from sparsetree.solver import Regularizer
from sparsetree.trees import Leaf, Split


def _dataset():
    x = np.array([[1.0, 10.0], [2.0, 20.0], [4.0, 30.0], [4.0, 10.0]])
    y = [0, 1, 1, 0]
    return sparsetree.full_binarize(sparsetree.make_raw(x, y, ["a", "b"]))


def _raw_walk(tree, row, names):
    while isinstance(tree, Split):
        v = row[names.index(tree.feature)]
        tree = tree.on_true if v <= tree.threshold else tree.on_false
    return tree.prediction


def _random_tree(rng, bin_data, depth):
    if depth == 0 or rng.random() < 0.3:
        return Leaf(int(rng.integers(0, 2)))
    f, t = bin_data.column_meta[int(rng.integers(0, bin_data.n_columns))]
    return Split(
        bin_data.feature_names[f],
        t,
        _random_tree(rng, bin_data, depth - 1),
        _random_tree(rng, bin_data, depth - 1),
    )


# ---------------------------------------------------------------- predict

def test_predict_lone_leaf():
    b = _dataset()
    assert list(trees.predict(Leaf(1), b)) == [1, 1, 1, 1]


def test_predict_depth_one():
    b = _dataset()
    t = Split("a", 1.5, Leaf(1), Leaf(0))
    assert list(trees.predict(t, b)) == [1, 0, 0, 0]


def test_predict_unknown_column():
    b = _dataset()
    with pytest.raises(KeyError, match="no column"):
        trees.predict(Split("a", 99.0, Leaf(0), Leaf(1)), b)


def test_predict_matches_per_row_walk():
    rng = np.random.default_rng(0)
    x = rng.normal(size=(30, 3)).round(1)
    y = rng.integers(0, 2, size=30)
    raw = sparsetree.make_raw(x, y, ["f0", "f1", "f2"])
    b = sparsetree.full_binarize(raw)
    for _ in range(15):
        t = _random_tree(rng, b, 3)
        got = trees.predict(t, b)
        expect = [_raw_walk(t, x[i], list(raw.feature_names)) for i in range(30)]
        assert list(got) == expect
        # the popcount accuracy the benchmark reports equals the numpy mean
        miss = trees.misclassified_count(t, b)
        assert miss == sum(int(p != label) for p, label in zip(expect, y))
        assert (30 - miss) / 30 == float((got == raw.labels).mean())


# ---------------------------------------------------------------- measure

def test_measure_lone_leaf():
    assert trees.measure(Leaf(0)) == (1, 0)


def test_measure_full_depth_two():
    t = Split("a", 1.0, Split("a", 0.5, Leaf(0), Leaf(1)), Split("a", 2.0, Leaf(1), Leaf(0)))
    assert trees.measure(t) == (4, 2)


def test_measure_leaves_equals_internal_plus_one():
    rng = np.random.default_rng(1)
    b = _dataset()
    for _ in range(20):
        t = _random_tree(rng, b, 4)

        def internal(n):
            return 0 if isinstance(n, Leaf) else 1 + internal(n.on_true) + internal(n.on_false)

        leaves, _ = trees.measure(t)
        assert leaves == internal(t) + 1


# ---------------------------------------------------------------- objective

def test_objective_perfect_leaf():
    raw = sparsetree.make_raw([[1.0], [2.0]], [1, 1])
    b = sparsetree.binarize_with_thresholds(raw, [(0, 1.5)])
    reg = Regularizer.from_text("0.01", 2)
    assert trees.objective(Leaf(1), b, reg) == Fraction(1, 100)


def test_objective_zero_lambda_perfect_tree():
    b = _dataset()
    # routes every row correctly: any-error tree would score loss/4 instead
    t = Split("a", 1.5, Leaf(0), Split("b", 15.0, Leaf(0), Leaf(1)))
    reg = Regularizer.from_text("0", 4)
    assert trees.misclassified_count(t, b) == 0
    assert trees.objective(t, b, reg) == 0


def test_objective_decomposes():
    rng = np.random.default_rng(2)
    b = _dataset()
    reg = Regularizer.from_text("1/7", 4)
    for _ in range(20):
        t = _random_tree(rng, b, 3)
        leaves, _ = trees.measure(t)
        loss = trees.misclassified_count(t, b)
        assert trees.objective(t, b, reg) == Fraction(loss, 4) + Fraction(1, 7) * leaves


# ---------------------------------------------------------------- serialization

def test_json_lone_leaf():
    assert json.loads(trees.to_json(Leaf(0))) == {"prediction": 0}


def _json_measure(obj):
    """(leaf count, depth) of a parsed tree JSON object."""
    if "prediction" in obj:
        return 1, 0
    lt, dt = _json_measure(obj["true"])
    lf, df = _json_measure(obj["false"])
    return lt + lf, 1 + max(dt, df)


def _json_predict(obj, b, i):
    """Prediction for sample i of b, read from the parsed JSON alone."""
    while "prediction" not in obj:
        assert obj["relation"] == "<="
        col = b.columns[b.column_index(obj["feature"], obj["threshold"])]
        obj = obj["true"] if col >> i & 1 else obj["false"]
    return obj["prediction"]


def test_json_round_trip():
    rng = np.random.default_rng(3)
    b = _dataset()
    for _ in range(20):
        t = _random_tree(rng, b, 3)
        obj = json.loads(trees.to_json(t))
        assert _json_measure(obj) == trees.measure(t)


def test_json_split_schema():
    t = Split("age", 27.5, Leaf(0), Leaf(1))
    obj = json.loads(trees.to_json(t))
    assert obj == {
        "feature": "age",
        "threshold": 27.5,
        "relation": "<=",
        "true": {"prediction": 0},
        "false": {"prediction": 1},
    }


def test_round_trip_preserves_predictions():
    rng = np.random.default_rng(4)
    b = _dataset()
    for _ in range(10):
        t = _random_tree(rng, b, 3)
        obj = json.loads(trees.to_json(t))
        got = [_json_predict(obj, b, i) for i in range(b.n_samples)]
        assert got == trees.predict(t, b).tolist()


def test_pretty_layout():
    t = Split("age", 27.5, Leaf(1), Leaf(0))
    text = trees.pretty(t)
    assert "age ≤ 27.5" in text
    assert "True:" in text and "False:" in text
    assert trees.pretty(Leaf(1)).strip() == "predict 1"
