import dataclasses
import json
import math
from fractions import Fraction

import numpy as np
import pytest

import sparsetree
from sparsetree import boosting, guessing
from sparsetree.boosting import BoostedEnsemble, RegressionNode, ThresholdSet
from sparsetree.dataset import RawDataset, equivalence_classes

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
    ens = boosting.fit(raw, 6, 2, 0.1)
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
    ens = boosting.fit(raw, 2, 1, 0.1)
    with pytest.raises(ValueError, match="width"):
        boosting.predict_class(ens, np.zeros((4, 2)))


# ---------------------------------------------------------------- fitting

def test_perfect_separation_one_feature():
    x = np.array([[0.1], [0.2], [0.3], [0.7], [0.8], [0.9]])
    y = (x[:, 0] > 0.5).astype(int)
    raw = sparsetree.make_raw(x, y)
    ens = boosting.fit(raw, 5, 1, 0.1)
    assert guessing.reference_labels(ens, raw).incorrect_count == 0
    assert np.array_equal(boosting.predict_class(ens, x), y)


def test_cuts_between_values_near_the_float_maximum():
    # (a + b) / 2 overflows to inf here, which put every row left of the cut:
    # the two-valued kernel on the first feature, the sorted one on the second
    y = [0, 0, 1, 1]
    for col in ([1e308, 1e308, 1.7e308, 1.7e308], [1e308, 1e308, 1.7e308, 1.75e308]):
        raw = sparsetree.make_raw([[v] for v in col], y)
        ens = boosting.fit(raw, 1, 1, 0.5)
        assert ens.trees[0].threshold == 1.35e308
        assert list(boosting.predict_class(ens, raw.features)) == y


def test_degenerate_constant_labels():
    raw = sparsetree.make_raw([[1.0], [2.0]], [0, 0])
    ens = boosting.fit(raw, 3, 2, 0.1)
    assert ens.trees == []
    assert list(boosting.predict_class(ens, np.array([[5.0], [-5.0]]))) == [0, 0]
    assert len(ThresholdSet.ranked(boosting.split_importance(ens))) == 0
    assert guessing.reference_labels(ens, raw).incorrect_count == 0


def test_degenerate_on_balanced_labels_scores_half():
    raw = sparsetree.make_raw([[1.0], [2.0], [3.0], [4.0]], [0, 1, 0, 1])
    all_zero = BoostedEnsemble(
        initial_score=-4.0, learning_rate=0.1, n_estimators=1, max_depth=1,
        feature_names=raw.feature_names, trees=[],
    )
    assert guessing.reference_labels(all_zero, raw).incorrect_count == 2


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
        ens = boosting.fit(raw, 8, 2, 0.1)
        sk = sklearn.GradientBoostingClassifier(
            n_estimators=8, max_depth=2, learning_rate=0.1,
            criterion="squared_error", random_state=0,
        )
        sk.fit(x, y)
        assert np.allclose(boosting.predict_margin(ens, x), sk.decision_function(x), atol=1e-9)
        assert np.array_equal(boosting.predict_class(ens, x), sk.predict(x))


def test_training_loss_non_increasing():
    rng = np.random.default_rng(3)
    for _ in range(5):
        raw = random_raw(rng, 60, 4, noise=0.6)
        ens = boosting.fit(raw, 12, 2, 0.1)
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
    a = boosting.fit(raw, 5, 2, 0.1)
    b = boosting.fit(raw, 5, 2, 0.1)
    assert json.dumps(boosting.to_dict(a)) == json.dumps(boosting.to_dict(b))


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
    ens = boosting.fit(raw, 6, 2, 0.1)
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
    ts = ThresholdSet.ranked(boosting.split_importance(ens))
    assert ts.pairs() == [(0, 2.5)]


def test_extract_thresholds_dedups_and_sums():
    ens = _ensemble([_stump(2.5, -1.0, 1.0), _stump(2.5, -0.5, 0.5)])
    ts = ThresholdSet.ranked(boosting.split_importance(ens))
    assert len(ts) == 1
    single = boosting.split_importance(_ensemble([_stump(2.5, -1.0, 1.0)]))[(0, 2.5)]
    assert ts.entries[0][2] == pytest.approx(2 * single)


def test_extract_thresholds_count_bound():
    rng = np.random.default_rng(7)
    raw = random_raw(rng, 80, 4, noise=0.6)
    ens = boosting.fit(raw, 10, 3, 0.1)
    ts = ThresholdSet.ranked(boosting.split_importance(ens))
    assert len(ts) <= 10 * (2 ** 3 - 1)


def test_extract_thresholds_ordering_is_total():
    rng = np.random.default_rng(8)
    raw = random_raw(rng, 60, 3, noise=0.6)
    ens = boosting.fit(raw, 8, 2, 0.1)
    e = ThresholdSet.ranked(boosting.split_importance(ens)).entries
    for a, b in zip(e[:-1], e[1:]):
        assert (-a[2], a[0], a[1]) <= (-b[2], b[0], b[1])
    assert len({(f, t) for f, t, _ in e}) == len(e)


def test_thresholds_induce_full_binarize_partitions():
    # every learned threshold must reproduce some midpoint column bit-for-bit
    rng = np.random.default_rng(9)
    raw = random_raw(rng, 40, 3, levels=2)
    ens = boosting.fit(raw, 6, 2, 0.1)
    full = sparsetree.full_binarize(raw)
    for f, t in ThresholdSet.ranked(boosting.split_importance(ens)).pairs():
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
    ens = boosting.fit(raw, 6, 2, 0.1)

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

def _node_stats(w, wg, member):
    idx = np.flatnonzero(member)
    w_tot = float(w[idx].sum())
    g_tot = float(wg[idx].sum())
    return idx, w_tot, g_tot, g_tot * g_tot / w_tot


def test_two_valued_kernel_matches_sorted_prefix():
    # every two-valued feature's gain must be the same float as the
    # sorted-prefix path's on the same weighted groups, not merely close:
    # the fitted trees depend on exact ties
    rng = np.random.default_rng(21)
    values = [(0.0, 1.0), (3.0, 7.5), (-2.25, 0.1)]
    seen = {"both": 0, "one_value": 0, "single_member": 0}
    for trial in range(600):
        n = int(rng.integers(2, 60))
        m = int(rng.integers(2, 5))
        pairs = [values[(trial + j) % 3] for j in range(m)]
        x = np.column_stack([np.where(rng.random(n) < rng.random(), lo, hi) for lo, hi in pairs])
        x[:2] = [lo for lo, _ in pairs], [hi for _, hi in pairs]  # each column has both values
        # every third trial has groups of one row each, the rank shortcut's case
        w = np.ones(n) if trial % 3 == 0 else rng.integers(1, 6, size=n).astype(np.float64)
        wg = w * (rng.normal(size=n) * 10.0 ** rng.integers(-4, 4, size=n))
        member = rng.random(n) < rng.random()
        if trial % 7 == 0:
            member[:] = False
            member[rng.integers(n)] = True
        elif trial % 7 == 1:
            member &= x[:, 0] == (pairs[0][0] if trial % 2 else pairs[0][1])
        if not member.any():
            continue
        plan = boosting._Plan(x, w, w)
        assert plan.two.tolist() == list(range(m)) and plan.orders == []
        assert plan.thresholds.tolist() == [(lo + hi) / 2.0 for lo, hi in pairs]
        idx, w_tot, g_tot, base = _node_stats(w, wg, member)
        gains = boosting._two_valued_gains(plan.low[idx], w[idx], wg[idx], w_tot, g_tot, base)
        for j in range(m):
            order = np.argsort(x[:, j], kind="stable")
            want = boosting._sorted_split(x[:, j], w, wg, order[member[order]], w_tot, g_tot, base)
            if want is None:
                assert gains[j] == -np.inf
                seen["single_member" if len(idx) == 1 else "one_value"] += 1
            else:
                assert (gains[j], plan.thresholds[j]) == want
                seen["both"] += 1
    assert min(seen.values()) >= 20, seen


def test_split_plan_sorts_only_multi_valued_features():
    x = np.array([[0.0, 3.0, 1.0, 2.0], [1.0, 7.5, 2.0, 2.0], [0.0, 3.0, 3.0, 2.0]])
    w = np.ones(3)
    plan = boosting._Plan(x, w, w)
    assert plan.two.tolist() == [0, 1]
    assert plan.thresholds[:2].tolist() == [0.5, 5.25]
    assert plan.low.tolist() == [[True, True], [False, False], [True, True]]
    assert [(j, order.tolist()) for j, order in plan.orders] == [(2, [0, 1, 2]), (3, [0, 1, 2])]
    # numpy sums a one-column matrix pairwise, so a lone two-valued feature
    # takes the sorted kernel
    lone = boosting._Plan(x[:, 1:], w, w)
    assert lone.two.tolist() == [] and lone.low.shape == (3, 0)
    assert [j for j, _ in lone.orders] == [0, 1, 2]


def _seed_grow(x, w, g, sorted_orders, member, depth, max_depth, y):
    """The sorted-prefix split search for every feature, one feature at a
    time, with each row weighted (fit's algorithm before two-valued features
    got a kernel of their own and rows were grouped, for unit weights)."""
    idx = np.flatnonzero(member)
    node = RegressionNode(samples=int(w[idx].sum()), positives=int((w * y)[idx].sum()))
    if depth >= max_depth or len(idx) < 2:
        return node
    g_tot = float((w * g)[idx].sum())
    n_tot = float(w[idx].sum())
    base = g_tot * g_tot / n_tot
    best_gain, best_feat, best_thr = boosting._MIN_GAIN, -1, 0.0
    for j in range(x.shape[1]):
        order = sorted_orders[j][member[sorted_orders[j]]]
        vals = x[order, j]
        gs = np.cumsum((w * g)[order])
        ns = np.cumsum(w[order])
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
    node.left = _seed_grow(x, w, g, sorted_orders, go_left, depth + 1, max_depth, y)
    node.right = _seed_grow(x, w, g, sorted_orders, member & ~go_left, depth + 1, max_depth, y)
    return node


def _seed_set_leaf_values(node, x, wg, wh, member):
    """Newton leaf values, routing the member mask down the tree, as fit
    set them before _grow handed over each leaf's members."""
    if node.is_leaf:
        num = float(wg[member].sum())
        den = float(wh[member].sum())
        v = num / den if den > boosting._MIN_HESS else 0.0
        node.value = float(np.clip(v, -boosting.SCORE_CLAMP, boosting.SCORE_CLAMP))
        return
    go_left = member & (x[:, node.feature] <= node.threshold)
    _seed_set_leaf_values(node.left, x, wg, wh, go_left)
    _seed_set_leaf_values(node.right, x, wg, wh, member & ~go_left)


def _seed_fit(raw, n_estimators, max_depth, learning_rate, weights=None):
    x = raw.features
    y = raw.labels.astype(np.float64)
    w = np.ones(len(y)) if weights is None else np.asarray(weights, dtype=np.float64)
    p_bar = float((w * y).sum() / w.sum())
    assert 0.0 < p_bar < 1.0
    sorted_orders = [np.argsort(x[:, j], kind="stable") for j in range(x.shape[1])]
    margin = np.full(len(y), math.log(p_bar / (1.0 - p_bar)))
    everyone = np.ones(len(y), dtype=bool)
    trees = []
    for _ in range(n_estimators):
        prob = 1.0 / (1.0 + np.exp(-margin))
        g = y - prob
        h = prob * (1.0 - prob)
        root = _seed_grow(x, w, g, sorted_orders, everyone, 0, max_depth, y)
        _seed_set_leaf_values(root, x, w * g, w * h, everyone)
        margin = margin + learning_rate * boosting._tree_predict(root, x)
        trees.append(root)
    return BoostedEnsemble(
        initial_score=float(math.log(p_bar / (1.0 - p_bar))),
        learning_rate=learning_rate,
        n_estimators=n_estimators,
        max_depth=max_depth,
        feature_names=raw.feature_names,
        trees=trees,
    )


def _distinct_rows(raw):
    """The distinct (row, label) pairs in order of first occurrence, as a
    dataset, and how many rows each stands for.  Rows are compared by value,
    so -0.0 and 0.0 (which random_raw rounds to) are one value."""
    members = {}
    for i, (row, label) in enumerate(zip(raw.features, raw.labels.tolist())):
        members.setdefault(((row + 0.0).tobytes(), label), []).append(i)
    first = [rows[0] for rows in members.values()]
    grouped = RawDataset(raw.features[first], raw.labels[first], raw.feature_names)
    return grouped, [len(rows) for rows in members.values()]


def _exact_gain(g, left):
    """A split's squared-error gain, less the parent's term, in exact arithmetic."""
    gl, gr = sum(map(Fraction, g[left])), sum(map(Fraction, g[~left]))
    return gl * gl / int(left.sum()) + gr * gr / int((~left).sum())


def _assert_same_trees_up_to_a_tie(got, want, data):
    """got's trees against want's, both fit on data: the same splits and row
    counts, and leaf scores within 1e-12 relative, up to the first node
    where the two pick different splits.  Those two splits must then gain
    exactly the same on want's gradients at that stage, so that only
    rounding chose between them; the trees may differ from there on."""
    x, y = data.features, data.labels.astype(np.float64)
    margin = np.full(data.n_samples, want.initial_score)
    assert got.initial_score == want.initial_score and len(got.trees) == len(want.trees)
    for a, b in zip(got.trees, want.trees):
        g = y - 1.0 / (1.0 + np.exp(-margin))
        stack = [(a, b, np.ones(data.n_samples, dtype=bool))]
        while stack:
            na, nb, member = stack.pop()
            assert (na.samples, na.positives, na.is_leaf) == (nb.samples, nb.positives, nb.is_leaf)
            if na.is_leaf:
                assert na.value == pytest.approx(nb.value, rel=1e-12, abs=0.0)
                continue
            go_a = x[:, na.feature] <= na.threshold
            go_b = x[:, nb.feature] <= nb.threshold
            if (na.feature, na.threshold) != (nb.feature, nb.threshold):
                assert _exact_gain(g[member], go_a[member]) == _exact_gain(g[member], go_b[member])
                return
            stack += [(na.left, nb.left, member & go_a), (na.right, nb.right, member & ~go_a)]
        margin = margin + want.learning_rate * boosting._tree_predict(b, x)


def _assert_fits_agree(data, n_estimators, max_depth, learning_rate):
    """fit against the sorted-prefix algorithm.  On distinct rows, fit is
    that algorithm byte for byte.  On repeated rows, it is byte for byte the
    weighted algorithm over the distinct rows, and against the per-row
    algorithm it keeps every split until an exact tie, which the two may
    break differently: a group's weighted gradient rounds otherwise than
    the sum of its rows'."""
    got = boosting.fit(data, n_estimators, max_depth, learning_rate)
    want = _seed_fit(data, n_estimators, max_depth, learning_rate)
    grouped, counts = _distinct_rows(data)
    if grouped.n_samples == data.n_samples:
        assert json.dumps(boosting.to_dict(got)) == json.dumps(boosting.to_dict(want))
        return
    weighted = _seed_fit(grouped, n_estimators, max_depth, learning_rate, weights=counts)
    assert json.dumps(boosting.to_dict(got)) == json.dumps(boosting.to_dict(weighted))
    _assert_same_trees_up_to_a_tie(got, want, data)


def _float_view(b):
    """An indicator dataset's columns as raw 0/1 features, named by header."""
    names = tuple(b.column_header(c) for c in range(b.n_columns))
    return RawDataset(b.rows_matrix().astype(np.float64), b.labels, names)


def _assert_fit_matches_float_view(b, n_estimators, max_depth, learning_rate):
    """A fit on an indicator dataset, grouped by its equivalence classes,
    is byte for byte the fit on its columns as raw features."""
    got = boosting.fit(b, n_estimators, max_depth, learning_rate)
    want = boosting.fit(_float_view(b), n_estimators, max_depth, learning_rate)
    assert json.dumps(boosting.to_dict(got)) == json.dumps(boosting.to_dict(want))


def _with_extra_columns(rng, raw, features):
    # a 0/1 and a {3, 7.5} column next to the given ones
    n = raw.n_samples
    return sparsetree.make_raw(
        np.column_stack([features, rng.integers(0, 2, size=n), np.where(rng.random(n) < 0.3, 3.0, 7.5)]),
        raw.labels,
    )


def test_fit_matches_the_sorted_prefix_algorithm():
    # repeated rows: indicator refits (every feature two-valued) and raw
    # data that mixes 0/1 and {3, 7.5} features with multi-valued ones;
    # distinct rows: continuous features, alone and with the same extras
    for seed in range(6):
        rng = np.random.default_rng(40 + seed)
        raw = random_raw(rng, int(rng.integers(80, 400)), 3, levels=int(rng.integers(1, 4)))
        b = sparsetree.full_binarize(raw)
        _assert_fit_matches_float_view(b, 8, 3, 0.2)
        ind = _float_view(b)
        continuous = raw.features + rng.normal(size=raw.features.shape)
        for data, distinct in (
            (ind, False),
            (_with_extra_columns(rng, raw, raw.features), False),
            (sparsetree.make_raw(continuous, raw.labels), True),
            (_with_extra_columns(rng, raw, continuous), True),
        ):
            assert (len(np.unique(data.features, axis=0)) == data.n_samples) == distinct, seed
            _assert_fits_agree(data, 8, 3, 0.2)


def test_fit_on_thrice_repeated_rows_matches_the_sorted_prefix_algorithm():
    # heavy duplication: few distinct rows, each three times over
    for seed in range(4):
        rng = np.random.default_rng(60 + seed)
        raw = random_raw(rng, int(rng.integers(60, 200)), 4, levels=1)
        tripled = sparsetree.make_raw(np.repeat(raw.features, 3, axis=0), np.repeat(raw.labels, 3))
        assert len(np.unique(tripled.features, axis=0)) * 3 <= tripled.n_samples
        _assert_fits_agree(tripled, 10, 3, 0.3)
        b = sparsetree.full_binarize(tripled)
        _assert_fit_matches_float_view(b, 10, 3, 0.3)
        _assert_fits_agree(_float_view(b), 10, 3, 0.3)


def test_indicator_fit_is_the_fit_on_its_float_view():
    rng = np.random.default_rng(80)
    raw = random_raw(rng, 150, 3, levels=1)
    continuous = sparsetree.make_raw(raw.features + rng.normal(size=raw.features.shape), raw.labels)
    repeated, distinct = sparsetree.full_binarize(raw), sparsetree.full_binarize(continuous)
    assert equivalence_classes(repeated).n_classes < raw.n_samples
    assert equivalence_classes(distinct).n_classes == raw.n_samples
    # no columns: every row is one class, and each label one group
    no_columns = sparsetree.binarize_with_thresholds(raw, [])
    # one label only: no trees, feature names still the headers
    one_label = dataclasses.replace(repeated, pos_mask=repeated.full_mask)
    for b in (repeated, distinct, no_columns, one_label):
        _assert_fit_matches_float_view(b, 6, 3, 0.3)
    assert boosting.fit(one_label, 6, 3, 0.3).trees == []


def test_signed_zeros_are_one_value():
    # rows that differ only in the sign of a zero are equal rows: the fit is
    # byte for byte the one with every zero written 0.0, on multi-valued
    # and on 0/1 features
    rng = np.random.default_rng(90)
    for values in ([-1.0, -0.5, 0.0, 0.5, 1.0], [0.0, 1.0]):
        for _ in range(4):
            x = rng.choice(values, size=(300, 3))
            y = (x[:, 0] + x[:, 1] - x[:, 2] + rng.normal(size=300) > 0).astype(int)
            signed = np.where((x == 0.0) & (rng.random(x.shape) < 0.5), -0.0, x)
            assert np.signbit(signed).sum() > np.signbit(x).sum()
            got = boosting.fit(sparsetree.make_raw(signed, y), 8, 3, 0.3)
            want = boosting.fit(sparsetree.make_raw(x, y), 8, 3, 0.3)
            assert json.dumps(boosting.to_dict(got)) == json.dumps(boosting.to_dict(want))


def test_fit_parameter_validation():
    raw = sparsetree.make_raw([[1.0], [2.0]], [0, 1])
    with pytest.raises(ValueError):
        boosting.fit(raw, 0, 2, 0.1)
    with pytest.raises(ValueError):
        boosting.fit(raw, 2, 0, 0.1)
    with pytest.raises(ValueError):
        boosting.fit(raw, 2, 2, 0.0)
