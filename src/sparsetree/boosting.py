"""Gradient boosted regression trees as the reference binary classifier.

Stagewise logistic-loss boosting: the initial score is the training log-odds,
each stage fits an exact-greedy squared-error regression tree to the residual
y - sigmoid(margin), leaf values take a Newton step (sum residual over sum
hessian) clamped to +-4, and the margin accumulates learning_rate * tree(x).
Class 1 iff margin > 0; a zero margin predicts 0.

Each fit picks a split kernel per feature from its data.  A feature with
exactly two distinct values (every indicator column, any 0/1 feature) has one
cut, at the midpoint of the two; its left gradient sum at a node is a
bincount of the node's gradients over the members holding the low value, with
no sort.  Every other feature walks the node's members in stable value order
and takes a prefix sum at each cut between distinct neighbours.  For a
two-valued feature both kernels add the same gradients in the same order
(index order within the low value), so the gains agree bit for bit and the
fitted trees do not depend on which kernel ran.

Fitting is fully deterministic: exact greedy search needs no randomness.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .dataset import RawDataset, midpoint

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

def _sorted_split(xj, g, order, g_tot, base):
    """Best cut of one feature at a node: (gain, threshold), or (None, None)
    when the node's members share one value.

    order lists the node's members in stable value order, so the prefix sums
    add gradients in index order within each value."""
    n_tot = len(order)
    vals = xj[order]
    gs = np.cumsum(g[order])
    ns = np.arange(1, n_tot + 1, dtype=np.float64)
    cut = np.flatnonzero(vals[:-1] < vals[1:])  # split between distinct neighbors
    if len(cut) == 0:
        return None, None
    gl = gs[cut]
    nl = ns[cut]
    gr = g_tot - gl
    nr = n_tot - nl
    gains = gl * gl / nl + gr * gr / nr - base
    k = int(np.argmax(gains))
    return float(gains[k]), midpoint(vals[cut[k]], vals[cut[k] + 1])


def _two_valued_gain(low, g_node, g_tot, base):
    """Gain of a two-valued feature's one cut at a node, or None when the node
    holds one value only.

    low marks the node's members at the low value, g_node their gradients,
    both in index order.  bincount adds the marked gradients one at a time in
    index order, which is the stable-sorted prefix sum _sorted_split takes at
    that cut, so the gain is the same float."""
    n_tot = len(low)
    nl = np.count_nonzero(low)
    if nl == 0 or nl == n_tot:
        return None
    gl = np.bincount(low, weights=g_node, minlength=2)[1]
    gr = g_tot - gl
    nr = n_tot - nl
    return float(gl * gl / nl + gr * gr / nr - base)


def _grow(x, g, plan, member, depth, max_depth, y, leaves):
    """Grow the weak tree under the member mask; every leaf is appended to
    leaves with its member indices, in ascending order."""
    idx = np.flatnonzero(member)
    node = RegressionNode(samples=len(idx), positives=int(y[idx].sum()))
    if depth >= max_depth or len(idx) < 2:
        leaves.append((node, idx))
        return node
    g_node = g[idx]
    g_tot = float(g_node.sum())
    n_tot = len(idx)
    base = g_tot * g_tot / n_tot
    best_gain, best_feat, best_thr = _MIN_GAIN, -1, 0.0
    for j, (order, low, thr) in enumerate(plan):
        if order is None:
            gain = _two_valued_gain(low[idx], g_node, g_tot, base)
        else:
            gain, thr = _sorted_split(x[:, j], g, order[member[order]], g_tot, base)
        if gain is not None and gain > best_gain:
            best_gain, best_feat, best_thr = gain, j, thr
    if best_feat < 0:
        leaves.append((node, idx))
        return node
    node.feature = best_feat
    node.threshold = best_thr
    go_left = member & (x[:, best_feat] <= best_thr)
    node.left = _grow(x, g, plan, go_left, depth + 1, max_depth, y, leaves)
    node.right = _grow(x, g, plan, member & ~go_left, depth + 1, max_depth, y, leaves)
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

def _split_plan(x):
    """Per feature, the split kernel's inputs: (None, low mask, cut threshold)
    for a feature with exactly two distinct values, (stable order, None, None)
    for any other."""
    plan = []
    for j in range(x.shape[1]):
        col = x[:, j]
        lo, hi = col.min(), col.max()
        low = col == lo
        if lo < hi and np.all(col[~low] == hi):
            plan.append((None, low, midpoint(lo, hi)))
        else:
            plan.append((np.argsort(col, kind="stable"), None, None))
    return plan


def fit(raw: RawDataset, n_estimators: int, max_depth: int, learning_rate: float) -> BoostedEnsemble:
    if n_estimators < 1 or max_depth < 1:
        raise ValueError("n_estimators and max_depth must be >= 1")
    if not 0.0 < learning_rate <= 1.0:
        raise ValueError("learning_rate must be in (0, 1]")
    x = raw.features
    y = raw.labels.astype(np.float64)
    n = len(y)
    p_bar = float(y.mean())
    trees = []
    if p_bar in (0.0, 1.0):
        initial_score = SCORE_CLAMP if p_bar == 1.0 else -SCORE_CLAMP
    else:
        initial_score = math.log(p_bar / (1.0 - p_bar))
        plan = _split_plan(x)
        margin = np.full(n, initial_score)
        everyone = np.ones(n, dtype=bool)
        out = np.empty(n, dtype=np.float64)
        for _ in range(n_estimators):
            prob = 1.0 / (1.0 + np.exp(-margin))
            g = y - prob
            h = prob * (1.0 - prob)
            leaves = []
            root = _grow(x, g, plan, everyone, 0, max_depth, raw.labels, leaves)
            # the leaves partition the rows as _tree_predict routes them; each
            # leaf's Newton step sums its members in index order
            for node, idx in leaves:
                num = float(g[idx].sum())
                den = float(h[idx].sum())
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
        feature_names=raw.feature_names,
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


def extract_thresholds(ens: BoostedEnsemble) -> ThresholdSet:
    """Deduplicated thresholds ranked by importance desc, ties (feature, threshold) asc."""
    return ThresholdSet.ranked(split_importance(ens))


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
