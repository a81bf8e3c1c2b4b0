"""Gradient boosted regression trees as the reference binary classifier.

Stagewise logistic-loss boosting: the initial score is the training log-odds,
each stage fits an exact-greedy squared-error regression tree to the residual
y - sigmoid(margin), leaf values take a Newton step (sum residual over sum
hessian) clamped to +-4, and the margin accumulates learning_rate * tree(x).
Class 1 iff margin > 0; a zero margin predicts 0.

A fit runs over the distinct (row, label) pairs of its data, each weighted
by the number of rows it stands for: rows that are equal and share a label
get the same gradient at every stage, so a group's weighted gradient stands
for all of them.  Split gains and Newton steps take weighted sums, and node
samples/positives count rows.  An indicator dataset's groups are its
equivalence classes split by label; a raw dataset's rows compare by value.

Each fit picks a split kernel per feature from its groups.  Every feature
with exactly two distinct values (every indicator column, any 0/1 feature)
has one cut, at the midpoint of the two; at each node a sum along the
groups of the (groups x features) low-value mask, times the weights and
then the weighted gradients, gives every such feature's left weight and
left gradient sum at once, with no sort.  Every other feature walks the
node's groups in stable value order and takes prefix sums at each cut
between distinct neighbours.  For a two-valued feature both kernels add the
same terms in the same order (index order within the low value), so the
gains agree bit for bit and the fitted trees do not depend on which kernel
ran.  On data whose rows are all distinct every weight is 1 and the groups
are the rows in order, so the fit is byte-identical to the plain per-row
algorithm.  On repeated rows a group's weighted gradient rounds otherwise
than the sum of its rows', so leaf scores may differ in their last digits,
and two splits that gain exactly alike may be told apart the other way.

Fitting is fully deterministic: exact greedy search needs no randomness.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .dataset import BinaryDataset, RawDataset, equivalence_classes, midpoint

SCORE_CLAMP = 4.0
_MIN_GAIN = 1e-12
_MIN_HESS = 1e-12


class DegenerateModelError(ValueError):
    """Operation needs a reference model that predicts both classes."""


@dataclass
class RegressionNode:
    """One node of a weak tree; leaves have value set and no children.

    samples/positives are training-routing label stats kept for threshold
    importance (Gini over the 0/1 labels reaching the node).
    """

    samples: int
    positives: int
    feature: int = -1
    threshold: float = 0.0
    left: Optional["RegressionNode"] = None
    right: Optional["RegressionNode"] = None
    value: float = 0.0

    @property
    def is_leaf(self) -> bool:
        return self.left is None


@dataclass
class BoostedEnsemble:
    initial_score: float
    learning_rate: float
    n_estimators: int
    max_depth: int
    feature_names: tuple[str, ...]
    trees: list[RegressionNode]


@dataclass(frozen=True)
class ThresholdSet:
    """(feature index, threshold, importance) sorted by importance desc, ties (feature, threshold) asc."""

    entries: tuple[tuple[int, float, float], ...]

    @classmethod
    def ranked(cls, importance: dict[tuple[int, float], float]) -> "ThresholdSet":
        """The (feature, threshold) -> importance map, in the entries' order."""
        entries = sorted(((f, t, v) for (f, t), v in importance.items()), key=lambda e: (-e[2], e[0], e[1]))
        return cls(tuple(entries))

    def pairs(self) -> list[tuple[int, float]]:
        return [(f, t) for f, t, _ in self.entries]

    def __len__(self) -> int:
        return len(self.entries)


# ---------------------------------------------------------------- weak trees

class _Plan:
    """One fit's row groups and the split kernels' inputs over them.

    x holds each group's row, w its row count and wy its positive rows, all
    as floats.  two lists the columns with exactly two distinct values, low
    marks each group's low values in them, thresholds holds every column's
    cut (the midpoint, for a two-valued one) and orders pairs every other
    column with its stable value order.  numpy sums a one-column matrix
    pairwise rather than row after row, so a lone two-valued column goes to
    _sorted_split, whose gains _two_valued_gains matches."""

    def __init__(self, x, w, wy):
        self.x, self.w, self.wy = x, w, wy
        self.thresholds = np.zeros(x.shape[1])
        two, lows = [], []
        for j, col in enumerate(x.T):
            lo, hi = col.min(), col.max()
            low = col == lo
            if lo < hi and np.all(col[~low] == hi):
                two.append(j)
                lows.append(low)
                self.thresholds[j] = midpoint(lo, hi)
        if len(two) == 1:
            two, lows = [], []
        self.two = np.array(two, dtype=np.intp)
        self.low = np.column_stack(lows) if lows else np.zeros((x.shape[0], 0), dtype=bool)
        self.orders = [(j, np.argsort(x[:, j], kind="stable")) for j in range(x.shape[1]) if j not in two]


def _two_valued_gains(low, w, wg, w_tot, g_tot, base):
    """Every two-valued feature's gain at a node, -inf where the node holds
    one of its values only.

    low marks the node's groups at each feature's low value, w and wg hold
    their weights and weighted gradients, all in index order.  Each column's
    left sums run down the groups in that order, as _sorted_split's prefix
    sums at the cut do, so the gains are the same floats."""
    nl = (low * w[:, None]).sum(axis=0)
    gl = (low * wg[:, None]).sum(axis=0)
    both = (nl > 0.0) & (nl < w_tot)
    gains = np.full(len(nl), -np.inf)
    nl, gl = nl[both], gl[both]
    gr = g_tot - gl
    gains[both] = gl * gl / nl + gr * gr / (w_tot - nl) - base
    return gains


def _sorted_split(xj, w, wg, order, w_tot, g_tot, base):
    """Best cut of one feature at a node: (gain, threshold), or None when the
    node's groups share one value.

    w and wg hold each group's weight and weighted gradient; order lists the
    node's groups in stable value order, so the prefix sums add them in index
    order within each value."""
    vals = xj[order]
    cut = np.flatnonzero(vals[:-1] < vals[1:])  # split between distinct neighbors
    if len(cut) == 0:
        return None
    gl = np.cumsum(wg[order])[cut]
    # groups of one row each: the prefix weight is the rank
    nl = cut + 1.0 if w_tot == len(order) else np.cumsum(w[order])[cut]
    gr = g_tot - gl
    nr = w_tot - nl
    gains = gl * gl / nl + gr * gr / nr - base
    k = int(np.argmax(gains))
    return float(gains[k]), midpoint(vals[cut[k]], vals[cut[k] + 1])


def _grow(plan, wg, member, depth, max_depth, leaves):
    """Grow the weak tree under the member mask of row groups; every leaf is
    appended to leaves with its group indices, in ascending order."""
    idx = np.flatnonzero(member)
    w_node = plan.w[idx]
    w_tot = float(w_node.sum())
    node = RegressionNode(samples=int(w_tot), positives=int(plan.wy[idx].sum()))
    if depth >= max_depth or len(idx) < 2:
        leaves.append((node, idx))
        return node
    g_node = wg[idx]
    g_tot = float(g_node.sum())
    base = g_tot * g_tot / w_tot
    # slot 0 stands for no split, so a feature must beat _MIN_GAIN, and on
    # equal gains argmax keeps the first feature in column order
    gains = np.full(1 + len(plan.thresholds), -np.inf)
    gains[0] = _MIN_GAIN
    thresholds = plan.thresholds.copy()
    if len(plan.two):
        gains[1 + plan.two] = _two_valued_gains(plan.low[idx], w_node, g_node, w_tot, g_tot, base)
    for j, order in plan.orders:
        best = _sorted_split(plan.x[:, j], plan.w, wg, order[member[order]], w_tot, g_tot, base)
        if best is not None:
            gains[1 + j], thresholds[j] = best
    feat = int(np.argmax(gains)) - 1
    if feat < 0:
        leaves.append((node, idx))
        return node
    node.feature = feat
    node.threshold = float(thresholds[feat])
    go_left = member & (plan.x[:, feat] <= node.threshold)
    node.left = _grow(plan, wg, go_left, depth + 1, max_depth, leaves)
    node.right = _grow(plan, wg, member & ~go_left, depth + 1, max_depth, leaves)
    return node


def _tree_predict(node, x):
    out = np.empty(x.shape[0], dtype=np.float64)
    stack = [(node, np.ones(x.shape[0], dtype=bool))]
    while stack:
        nd, member = stack.pop()
        if nd.is_leaf:
            out[member] = nd.value
            continue
        go_left = member & (x[:, nd.feature] <= nd.threshold)
        stack.append((nd.left, go_left))
        stack.append((nd.right, member & ~go_left))
    return out


# ---------------------------------------------------------------- ensemble

def _groups_of(row_id, labels):
    """Each distinct (row id, label) pair's first row index and row count,
    in order of first occurrence."""
    _, first, count = np.unique(row_id * 2 + labels, return_index=True, return_counts=True)
    by_first = np.argsort(first)
    return first[by_first], count[by_first]


def _row_groups(data):
    """data's feature names and its distinct (row, label) pairs in order of
    first occurrence: each pair's row, and its label and row count as floats.
    Indicator rows are grouped by the dataset's equivalence classes, which
    the solver shares, and raw rows by value, so -0.0 and 0.0 are equal."""
    if isinstance(data, BinaryDataset):
        eq = equivalence_classes(data)
        first, count = _groups_of(eq.ids, data.labels)
        names = tuple(data.column_header(c) for c in range(data.n_columns))
        x = eq.rows[eq.ids[first]]
    else:
        row_id = np.unique(data.features, axis=0, return_inverse=True)[1].ravel()
        first, count = _groups_of(row_id, data.labels)
        names = data.feature_names
        # when every row is its own group, first is 0..n-1
        x = data.features if len(first) == data.n_samples else data.features[first]
    return names, x, data.labels[first].astype(np.float64), count.astype(np.float64)


def check_options(n_estimators: int, max_depth: int, learning_rate: float) -> None:
    """Raise ValueError for options fit refuses; reads no data."""
    if n_estimators < 1 or max_depth < 1:
        raise ValueError("n_estimators and max_depth must be >= 1")
    if not 0.0 < learning_rate <= 1.0:
        raise ValueError("learning_rate must be in (0, 1]")


def fit(data: RawDataset | BinaryDataset, n_estimators: int, max_depth: int,
        learning_rate: float) -> BoostedEnsemble:
    """Boost on raw features, or on indicator columns named by their headers."""
    check_options(n_estimators, max_depth, learning_rate)
    names, x, y, w = _row_groups(data)
    p_bar = float(data.labels.astype(np.float64).mean())
    trees = []
    if p_bar in (0.0, 1.0):
        initial_score = SCORE_CLAMP if p_bar == 1.0 else -SCORE_CLAMP
    else:
        initial_score = math.log(p_bar / (1.0 - p_bar))
        plan = _Plan(x, w, w * y)
        margin = np.full(len(w), initial_score)
        everyone = np.ones(len(w), dtype=bool)
        out = np.empty(len(w), dtype=np.float64)
        for _ in range(n_estimators):
            prob = 1.0 / (1.0 + np.exp(-margin))
            wg = w * (y - prob)
            wh = w * (prob * (1.0 - prob))
            leaves = []
            root = _grow(plan, wg, everyone, 0, max_depth, leaves)
            # the leaves partition the groups as _tree_predict routes them;
            # each leaf's Newton step sums its groups in index order
            for node, idx in leaves:
                num = float(wg[idx].sum())
                den = float(wh[idx].sum())
                v = num / den if den > _MIN_HESS else 0.0
                node.value = float(np.clip(v, -SCORE_CLAMP, SCORE_CLAMP))
                out[idx] = node.value
            margin = margin + learning_rate * out
            trees.append(root)
    return BoostedEnsemble(
        initial_score=initial_score,
        learning_rate=learning_rate,
        n_estimators=n_estimators,
        max_depth=max_depth,
        feature_names=names,
        trees=trees,
    )


def predict_margin(ens: BoostedEnsemble, x: np.ndarray) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != len(ens.feature_names):
        raise ValueError(
            f"feature width {x.shape[1] if x.ndim == 2 else 'n/a'} does not match "
            f"model width {len(ens.feature_names)}"
        )
    margin = np.full(x.shape[0], ens.initial_score)
    for t in ens.trees:
        margin = margin + ens.learning_rate * _tree_predict(t, x)
    return margin


def predict_class(ens: BoostedEnsemble, x: np.ndarray) -> np.ndarray:
    return (predict_margin(ens, x) > 0.0).astype(np.int8)


# ---------------------------------------------------------------- importances

def _gini(pos: int, n: int) -> float:
    if n == 0:
        return 0.0
    p = pos / n
    return 2.0 * p * (1.0 - p)


def split_importance(ens: BoostedEnsemble) -> dict[tuple[int, float], float]:
    """Summed Gini importance per (feature, threshold) over all internal nodes.

    Weighted impurity decrease of the training labels routed through each
    node: (n_node/N) * [G(node) - (n_L/n_node) G(left) - (n_R/n_node) G(right)].
    """
    out: dict[tuple[int, float], float] = {}
    if not ens.trees:
        return out
    n_total = ens.trees[0].samples
    stack = list(ens.trees)
    while stack:
        nd = stack.pop()
        if nd.is_leaf:
            continue
        drop = _gini(nd.positives, nd.samples) - (
            nd.left.samples / nd.samples * _gini(nd.left.positives, nd.left.samples)
            + nd.right.samples / nd.samples * _gini(nd.right.positives, nd.right.samples)
        )
        key = (nd.feature, nd.threshold)
        out[key] = out.get(key, 0.0) + nd.samples / n_total * drop
        stack.append(nd.left)
        stack.append(nd.right)
    return out


# ---------------------------------------------------------------- serialization

def _node_obj(nd: RegressionNode):
    if nd.is_leaf:
        return {"score": nd.value, "samples": nd.samples, "positives": nd.positives}
    return {
        "feature": nd.feature,
        "threshold": nd.threshold,
        "samples": nd.samples,
        "positives": nd.positives,
        "left": _node_obj(nd.left),
        "right": _node_obj(nd.right),
    }


def to_dict(ens: BoostedEnsemble) -> dict:
    return {
        "initial_score": ens.initial_score,
        "learning_rate": ens.learning_rate,
        "n_estimators": ens.n_estimators,
        "max_depth": ens.max_depth,
        "feature_names": list(ens.feature_names),
        "trees": [_node_obj(t) for t in ens.trees],
    }
