import dataclasses
import math

import numpy as np
import pytest

import sparsetree
from sparsetree import boosting, guessing
from sparsetree.boosting import BoostedEnsemble, RegressionNode

from conftest import random_raw


def _stump(threshold, left_value, right_value, feature=0):
    return RegressionNode(
        samples=2,
        positives=1,
        feature=feature,
        threshold=threshold,
        left=RegressionNode(samples=1, positives=0, value=left_value),
        right=RegressionNode(samples=1, positives=1, value=right_value),
    )


def _ensemble(trees, initial=0.0, lr=1.0, names=("x0",)):
    return BoostedEnsemble(
        initial_score=initial,
        learning_rate=lr,
        n_estimators=len(trees),
        max_depth=1,
        seed=0,
        degenerate=False,
        feature_names=names,
        trees=trees,
    )


# ---------------------------------------------------------------- prediction

def test_stump_prediction():
    ens = _ensemble([_stump(2.5, -1.0, 1.0)])
    x = np.array([[2.0], [3.0]])
    assert list(boosting.predict_class(ens, x)) == [0, 1]


def test_zero_margin_predicts_zero():
    ens = _ensemble([_stump(2.5, 0.0, 0.0)])
    assert list(boosting.predict_class(ens, np.array([[1.0]]))) == [0]


def test_margin_is_summed_tree_outputs():
    rng = np.random.default_rng(0)
    raw = random_raw(rng, 50, 3)
    ens = boosting.fit(raw, 6, 2, 0.1, seed=1)
    x = raw.features
    expect = np.full(50, ens.initial_score)
    for t in ens.trees:
        out = np.array(
            [_walk(t, x[i]) for i in range(50)]
        )
        expect = expect + ens.learning_rate * out
    assert np.allclose(boosting.predict_margin(ens, x), expect)


def _walk(node, row):
    while not node.is_leaf:
        node = node.left if row[node.feature] <= node.threshold else node.right
    return node.value


def test_width_mismatch_rejected():
    rng = np.random.default_rng(1)
    raw = random_raw(rng, 20, 3)
    ens = boosting.fit(raw, 2, 1, 0.1, seed=0)
    with pytest.raises(ValueError, match="width"):
        boosting.predict_class(ens, np.zeros((4, 2)))


# ---------------------------------------------------------------- fitting

def test_perfect_separation_one_feature():
    x = np.array([[0.1], [0.2], [0.3], [0.7], [0.8], [0.9]])
    y = (x[:, 0] > 0.5).astype(int)
    raw = sparsetree.make_raw(x, y)
    ens = boosting.fit(raw, 5, 1, 0.1, seed=0)
    assert boosting.correct_count(ens, raw.features, raw.labels) == 6
    assert np.array_equal(boosting.predict_class(ens, x), y)


def test_degenerate_constant_labels():
    raw = sparsetree.make_raw([[1.0], [2.0]], [0, 0])
    ens = boosting.fit(raw, 3, 2, 0.1, seed=0)
    assert ens.degenerate
    assert list(boosting.predict_class(ens, np.array([[5.0], [-5.0]]))) == [0, 0]
    assert len(boosting.extract_thresholds(ens)) == 0
    assert boosting.correct_count(ens, raw.features, raw.labels) == raw.n_samples


def test_degenerate_on_balanced_labels_scores_half():
    raw = sparsetree.make_raw([[1.0], [2.0], [3.0], [4.0]], [0, 1, 0, 1])
    all_zero = BoostedEnsemble(
        initial_score=-4.0, learning_rate=0.1, n_estimators=1, max_depth=1,
        seed=0, degenerate=True, feature_names=raw.feature_names, trees=[],
    )
    assert boosting.correct_count(all_zero, raw.features, raw.labels) == 2


def test_fit_matches_sklearn_margins():
    sklearn = pytest.importorskip("sklearn.ensemble")
    rng = np.random.default_rng(2)
    for seed in range(6):
        r = np.random.default_rng(seed)
        n = int(r.integers(40, 100))
        m = int(r.integers(2, 5))
        x = r.normal(size=(n, m))
        y = (x @ r.normal(size=m) + 0.4 * r.normal(size=n) > 0).astype(int)
        if y.min() == y.max():
            continue
        raw = sparsetree.make_raw(x, y)
        ens = boosting.fit(raw, 8, 2, 0.1, seed=0)
        sk = sklearn.GradientBoostingClassifier(
            n_estimators=8, max_depth=2, learning_rate=0.1,
            criterion="squared_error", random_state=0,
        )
        sk.fit(x, y)
        assert np.allclose(boosting.predict_margin(ens, x), sk.decision_function(x), atol=1e-9)
        assert np.array_equal(boosting.predict_class(ens, x), sk.predict(x))


def test_training_loss_non_increasing():
    rng = np.random.default_rng(3)
    for trial in range(5):
        raw = random_raw(rng, 60, 4, noise=0.6)
        ens = boosting.fit(raw, 12, 2, 0.1, seed=trial)
        y = raw.labels.astype(float)
        prev = math.inf
        for k in range(ens.n_estimators + 1):
            staged = dataclasses.replace(ens, trees=ens.trees[:k])
            margin = boosting.predict_margin(staged, raw.features)
            loss = float(np.sum(np.logaddexp(0.0, margin) - y * margin))
            assert loss <= prev + 1e-9
            prev = loss


def test_fit_deterministic():
    rng = np.random.default_rng(4)
    raw = random_raw(rng, 40, 3)
    a = boosting.fit(raw, 5, 2, 0.1, seed=7)
    b = boosting.fit(raw, 5, 2, 0.1, seed=7)
    assert boosting.to_json(a) == boosting.to_json(b)


# ---------------------------------------------------------------- importances

def test_importance_pure_node_is_zero():
    # both children pure and same label as a pure parent: no impurity to drop
    node = RegressionNode(
        samples=4, positives=0, feature=0, threshold=0.5,
        left=RegressionNode(samples=2, positives=0, value=0.0),
        right=RegressionNode(samples=2, positives=0, value=0.0),
    )
    ens = _ensemble([node])
    assert boosting.split_importance(ens)[(0, 0.5)] == 0.0


def test_importance_perfect_root_stump():
    node = RegressionNode(
        samples=10, positives=5, feature=0, threshold=0.5,
        left=RegressionNode(samples=5, positives=0, value=-1.0),
        right=RegressionNode(samples=5, positives=5, value=1.0),
    )
    ens = _ensemble([node])
    assert boosting.split_importance(ens)[(0, 0.5)] == pytest.approx(0.5)


def test_importances_match_node_walk():
    rng = np.random.default_rng(6)
    raw = random_raw(rng, 50, 3, noise=0.7)
    ens = boosting.fit(raw, 6, 2, 0.1, seed=0)
    imp = boosting.split_importance(ens)
    assert all(v >= 0 for v in imp.values())

    def gini(pos, n):
        if n == 0:
            return 0.0
        p = pos / n
        return 2 * p * (1 - p)

    expect = {}
    n_total = raw.n_samples

    def walk(nd):
        if nd.is_leaf:
            return
        drop = gini(nd.positives, nd.samples) - (
            nd.left.samples / nd.samples * gini(nd.left.positives, nd.left.samples)
            + nd.right.samples / nd.samples * gini(nd.right.positives, nd.right.samples)
        )
        expect[(nd.feature, nd.threshold)] = expect.get((nd.feature, nd.threshold), 0.0) + nd.samples / n_total * drop
        walk(nd.left)
        walk(nd.right)

    for t in ens.trees:
        walk(t)
    assert set(imp) == set(expect)
    for k in imp:
        assert imp[k] == pytest.approx(expect[k])


# ---------------------------------------------------------------- thresholds

def test_extract_thresholds_single_stump():
    ens = _ensemble([_stump(2.5, -1.0, 1.0)])
    ts = boosting.extract_thresholds(ens)
    assert ts.pairs() == [(0, 2.5)]


def test_extract_thresholds_dedups_and_sums():
    ens = _ensemble([_stump(2.5, -1.0, 1.0), _stump(2.5, -0.5, 0.5)])
    ts = boosting.extract_thresholds(ens)
    assert len(ts) == 1
    single = boosting.split_importance(_ensemble([_stump(2.5, -1.0, 1.0)]))[(0, 2.5)]
    assert ts.entries[0][2] == pytest.approx(2 * single)


def test_extract_thresholds_count_bound():
    rng = np.random.default_rng(7)
    raw = random_raw(rng, 80, 4, noise=0.6)
    ens = boosting.fit(raw, 10, 3, 0.1, seed=0)
    ts = boosting.extract_thresholds(ens)
    assert len(ts) <= 10 * (2 ** 3 - 1)


def test_extract_thresholds_ordering_is_total():
    rng = np.random.default_rng(8)
    raw = random_raw(rng, 60, 3, noise=0.6)
    ens = boosting.fit(raw, 8, 2, 0.1, seed=0)
    e = boosting.extract_thresholds(ens).entries
    for a, b in zip(e[:-1], e[1:]):
        assert (-a[2], a[0], a[1]) <= (-b[2], b[0], b[1])
    assert len({(f, t) for f, t, _ in e}) == len(e)


def test_thresholds_induce_full_binarize_partitions():
    # every learned threshold must reproduce some midpoint column bit-for-bit
    rng = np.random.default_rng(9)
    raw = random_raw(rng, 40, 3, levels=2)
    ens = boosting.fit(raw, 6, 2, 0.1, seed=0)
    full = sparsetree.full_binarize(raw)
    for f, t in boosting.extract_thresholds(ens).pairs():
        col = sparsetree.binarize_with_thresholds(raw, [(f, t)]).columns[0]
        matches = [
            c for c, (g, _) in enumerate(full.column_meta)
            if g == f and full.columns[c] == col
        ]
        assert matches, (f, t)


def test_weak_tree_thresholds_are_member_midpoints():
    # routes rows down each tree: every split must sit at the midpoint of the
    # two member values it separates, and node stats must match the routing
    rng = np.random.default_rng(10)
    raw = random_raw(rng, 50, 3)
    ens = boosting.fit(raw, 6, 2, 0.1, seed=0)

    def walk(nd, rows):
        assert nd.samples == rows.size
        assert nd.positives == int(raw.labels[rows].sum())
        if nd.is_leaf:
            return
        vals = raw.features[rows, nd.feature]
        below = vals[vals <= nd.threshold]
        above = vals[vals > nd.threshold]
        assert below.size and above.size
        assert nd.threshold == (below.max() + above.min()) / 2
        go = raw.features[rows, nd.feature] <= nd.threshold
        walk(nd.left, rows[go])
        walk(nd.right, rows[~go])

    for t in ens.trees:
        walk(t, np.arange(raw.n_samples))


# ---------------------------------------------------------------- split kernels

def _node_stats(g, member):
    idx = np.flatnonzero(member)
    g_tot = float(g[idx].sum())
    return idx, g_tot, g_tot * g_tot / len(idx)


def test_two_valued_kernel_matches_sorted_prefix():
    # gain and threshold must be the same floats as the sorted-prefix path's,
    # not merely close: the fitted trees depend on exact ties
    rng = np.random.default_rng(21)
    seen = {"both": 0, "one_value": 0, "single_member": 0}
    for trial in range(600):
        lo, hi = [(0.0, 1.0), (3.0, 7.5), (-2.25, 0.1)][trial % 3]
        n = int(rng.integers(2, 60))
        xj = np.where(rng.random(n) < rng.random(), lo, hi)
        xj[:2] = lo, hi  # the feature itself always has both values
        g = rng.normal(size=n) * 10.0 ** rng.integers(-4, 4, size=n)
        member = rng.random(n) < rng.random()
        if trial % 7 == 0:
            member[:] = False
            member[rng.integers(n)] = True
        elif trial % 7 == 1:
            member &= xj == (lo if trial % 2 else hi)
        if not member.any():
            continue
        order, low, thr = boosting._split_plan(xj[:, None])[0]
        assert order is None and thr == (lo + hi) / 2.0
        idx, g_tot, base = _node_stats(g, member)
        sorted_order = np.argsort(xj, kind="stable")
        want = boosting._sorted_split(xj, g, sorted_order[member[sorted_order]], g_tot, base)
        gain = boosting._two_valued_gain(low[idx], g[idx], g_tot, base)
        if want[0] is None:
            assert gain is None
            seen["single_member" if len(idx) == 1 else "one_value"] += 1
        else:
            assert (gain, thr) == want
            seen["both"] += 1
    assert min(seen.values()) >= 20, seen


def test_split_plan_sorts_only_multi_valued_features():
    x = np.array([[0.0, 3.0, 1.0, 2.0], [1.0, 7.5, 2.0, 2.0], [0.0, 3.0, 3.0, 2.0]])
    plan = boosting._split_plan(x)
    assert [order is None for order, _, _ in plan] == [True, True, False, False]
    assert [thr for _, _, thr in plan[:2]] == [0.5, 5.25]
    assert plan[0][1].tolist() == [True, False, True]
    assert plan[2][0].tolist() == [0, 1, 2]


def _seed_grow(x, g, sorted_orders, member, depth, max_depth, y):
    """The sorted-prefix split search for every feature, as fit ran it before
    two-valued features got their own kernel."""
    idx = np.flatnonzero(member)
    node = RegressionNode(samples=len(idx), positives=int(y[idx].sum()))
    if depth >= max_depth or len(idx) < 2:
        return node
    g_tot = float(g[idx].sum())
    n_tot = len(idx)
    base = g_tot * g_tot / n_tot
    best_gain, best_feat, best_thr = boosting._MIN_GAIN, -1, 0.0
    for j in range(x.shape[1]):
        order = sorted_orders[j][member[sorted_orders[j]]]
        vals = x[order, j]
        gs = np.cumsum(g[order])
        ns = np.arange(1, n_tot + 1, dtype=np.float64)
        cut = np.flatnonzero(vals[:-1] < vals[1:])
        if len(cut) == 0:
            continue
        gl = gs[cut]
        nl = ns[cut]
        gr = g_tot - gl
        nr = n_tot - nl
        gains = gl * gl / nl + gr * gr / nr - base
        k = int(np.argmax(gains))
        if gains[k] > best_gain:
            best_gain = float(gains[k])
            best_feat = j
            best_thr = float((vals[cut[k]] + vals[cut[k] + 1]) / 2.0)
    if best_feat < 0:
        return node
    node.feature = best_feat
    node.threshold = best_thr
    go_left = member & (x[:, best_feat] <= best_thr)
    node.left = _seed_grow(x, g, sorted_orders, go_left, depth + 1, max_depth, y)
    node.right = _seed_grow(x, g, sorted_orders, member & ~go_left, depth + 1, max_depth, y)
    return node


def _seed_set_leaf_values(node, x, g, h, member):
    """Newton leaf values, routing the member mask down the tree, as fit
    set them before _grow handed over each leaf's members."""
    if node.is_leaf:
        num = float(g[member].sum())
        den = float(h[member].sum())
        v = num / den if den > boosting._MIN_HESS else 0.0
        node.value = float(np.clip(v, -boosting.SCORE_CLAMP, boosting.SCORE_CLAMP))
        return
    go_left = member & (x[:, node.feature] <= node.threshold)
    _seed_set_leaf_values(node.left, x, g, h, go_left)
    _seed_set_leaf_values(node.right, x, g, h, member & ~go_left)


def _seed_fit(raw, n_estimators, max_depth, learning_rate, seed):
    x = raw.features
    y = raw.labels.astype(np.float64)
    p_bar = float(y.mean())
    assert 0.0 < p_bar < 1.0
    sorted_orders = [np.argsort(x[:, j], kind="stable") for j in range(x.shape[1])]
    margin = np.full(len(y), math.log(p_bar / (1.0 - p_bar)))
    everyone = np.ones(len(y), dtype=bool)
    trees = []
    for _ in range(n_estimators):
        prob = 1.0 / (1.0 + np.exp(-margin))
        g = y - prob
        h = prob * (1.0 - prob)
        root = _seed_grow(x, g, sorted_orders, everyone, 0, max_depth, raw.labels)
        _seed_set_leaf_values(root, x, g, h, everyone)
        margin = margin + learning_rate * boosting._tree_predict(root, x)
        trees.append(root)
    return BoostedEnsemble(
        initial_score=float(math.log(p_bar / (1.0 - p_bar))),
        learning_rate=learning_rate,
        n_estimators=n_estimators,
        max_depth=max_depth,
        seed=seed,
        degenerate=False,
        feature_names=raw.feature_names,
        trees=trees,
    )


def test_fit_matches_the_sorted_prefix_algorithm():
    # indicator refits (every feature two-valued) and raw data that mixes
    # 0/1 and {3, 7.5} features with multi-valued ones
    for seed in range(6):
        rng = np.random.default_rng(40 + seed)
        raw = random_raw(rng, int(rng.integers(80, 400)), 3, levels=int(rng.integers(1, 4)))
        ind = guessing.indicator_raw(sparsetree.full_binarize(raw))
        mixed = sparsetree.make_raw(
            np.column_stack([
                raw.features,
                rng.integers(0, 2, size=raw.n_samples),
                np.where(rng.random(raw.n_samples) < 0.3, 3.0, 7.5),
            ]),
            raw.labels,
        )
        for data in (ind, mixed):
            got = boosting.to_json(boosting.fit(data, 8, 3, 0.2, seed))
            assert got == boosting.to_json(_seed_fit(data, 8, 3, 0.2, seed)), seed


# ---------------------------------------------------------------- serialization

def test_ensemble_json_round_trip():
    rng = np.random.default_rng(11)
    raw = random_raw(rng, 30, 3)
    ens = boosting.fit(raw, 4, 2, 0.1, seed=0)
    back = boosting.from_json(boosting.to_json(ens))
    assert boosting.to_json(back) == boosting.to_json(ens)
    assert np.array_equal(
        boosting.predict_class(back, raw.features),
        boosting.predict_class(ens, raw.features),
    )


def test_fit_parameter_validation():
    raw = sparsetree.make_raw([[1.0], [2.0]], [0, 1])
    with pytest.raises(ValueError):
        boosting.fit(raw, 0, 2, 0.1, seed=0)
    with pytest.raises(ValueError):
        boosting.fit(raw, 2, 0, 0.1, seed=0)
    with pytest.raises(ValueError):
        boosting.fit(raw, 2, 2, 0.0, seed=0)
