"""Guessing strategies driven by a boosted reference model.

Three accelerations for the optimal-tree search: shrink the threshold set by
iterative least-importance elimination with a training-accuracy stopping bar,
bound the depth limit via the ensemble's VC dimension, and derive
per-subproblem lower-bound guesses from the reference model's mistakes (the
solver consumes those through ReferenceLabels).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace
from fractions import Fraction

import numpy as np

from . import boosting
from .boosting import BoostedEnsemble, DegenerateModelError, RegressionNode, ThresholdSet
from .dataset import BinaryDataset, RawDataset, binarize_with_thresholds, bools_to_bits, indicator_header


@dataclass(frozen=True)
class ReferenceLabels:
    """Reference predictions aligned with a dataset's sample order."""

    predictions: np.ndarray
    incorrect_bits: int
    single_class: bool

    @property
    def incorrect_count(self) -> int:
        return self.incorrect_bits.bit_count()


def reference_from_predictions(predictions, labels) -> ReferenceLabels:
    preds = np.asarray(predictions, dtype=np.int8)
    y = np.asarray(labels)
    if preds.shape != y.shape:
        raise ValueError("prediction/label length mismatch")
    return ReferenceLabels(
        predictions=preds,
        incorrect_bits=bools_to_bits(preds != y),
        single_class=bool(preds.min() == preds.max()) if len(preds) else True,
    )


def reference_labels(ens: BoostedEnsemble, data) -> ReferenceLabels:
    """Evaluate an ensemble on a dataset it was trained for.

    Pass the BinaryDataset of indicator columns for a reduced-space ensemble,
    or the RawDataset for one trained on raw features.
    """
    if isinstance(data, BinaryDataset):
        x = data.rows_matrix().astype(np.float64)
    else:
        x = data.features
    return reference_from_predictions(boosting.predict_class(ens, x), data.labels)


# ---------------------------------------------------------------- depth guessing

def vc_of_depth_trees(depth: int) -> int:
    """Capacity proxy for binary trees of the given depth: 2**depth."""
    if not 0 <= depth <= 62:
        raise ValueError("weak-tree depth must be in [0, 62]")
    return 1 << depth


def min_depth_for_ensemble(n_estimators: int, vc_weak: int) -> tuple[int, float]:
    """Depth limit sufficient for a tree to match an ensemble of n_estimators
    weak learners of VC dimension vc_weak; also returns the inner product
    whose log2 is ceiled, for audit."""
    if n_estimators < 3 or vc_weak < 3:
        raise ValueError("shattering bound needs n_estimators >= 3 and vc_weak >= 3")
    m = n_estimators * vc_weak + n_estimators
    product = m * (3.0 * math.log(m) + 2.0)
    return math.ceil(math.log2(product)), product


# ---------------------------------------------------------------- column elimination

@dataclass(frozen=True)
class EliminationTrace:
    """What column elimination did, and the inputs of a guessed solve: data,
    the surviving indicator columns the accepted ensemble was fit on (the
    first fit rewritten onto them in the translated fallback), and reference,
    that ensemble's labels on data."""

    initial_correct: int
    stopping_bar: int
    steps: tuple[tuple[tuple[int, float], int], ...]
    thresholds: ThresholdSet
    ensemble: BoostedEnsemble
    fallback_translated: bool
    data: BinaryDataset
    reference: ReferenceLabels


def indicator_raw(bin_data: BinaryDataset) -> RawDataset:
    """View a binarized dataset as raw 0/1 features for refitting."""
    names = tuple(bin_data.column_header(c) for c in range(bin_data.n_columns))
    return RawDataset(bin_data.rows_matrix().astype(np.float64), bin_data.labels.copy(), names)


def _translate_node(nd: RegressionNode, col_of) -> RegressionNode:
    if nd.is_leaf:
        return RegressionNode(samples=nd.samples, positives=nd.positives, value=nd.value)
    c = col_of[(nd.feature, nd.threshold)]
    # indicator value 0 means feature > threshold, so raw children swap sides
    return RegressionNode(
        samples=nd.samples,
        positives=nd.positives,
        feature=c,
        threshold=0.5,
        left=_translate_node(nd.right, col_of),
        right=_translate_node(nd.left, col_of),
    )


def translate_to_indicators(ens: BoostedEnsemble, pairs) -> BoostedEnsemble:
    """Rewrite raw-feature splits as indicator-column splits at 0.5.

    Predicts identically to the source ensemble as long as `pairs` covers
    every split the source uses.
    """
    ordered = sorted(set((int(f), float(t)) for f, t in pairs))
    col_of = {p: c for c, p in enumerate(ordered)}
    return replace(ens, feature_names=tuple(indicator_header(f, t) for f, t in ordered),
                   trees=[_translate_node(t, col_of) for t in ens.trees])


def _importance_by_pair(refit: BoostedEnsemble, ordered_pairs) -> dict[tuple[int, float], float]:
    out = {p: 0.0 for p in ordered_pairs}
    for (c, _thr), v in boosting.split_importance(refit).items():
        out[ordered_pairs[c]] += v
    return out


def column_eliminate(
    raw: RawDataset,
    n_estimators: int,
    max_depth: int,
    learning_rate: float,
    drop_tolerance: float = 0.0,
) -> EliminationTrace:
    """Iteratively drop the globally least-important (feature, threshold).

    Each round refits the ensemble on the surviving indicator columns and
    re-ranks importances from that refit; elimination stops when a refit's
    training correct-count falls below ceil((1 - drop_tolerance) * initial),
    undoing the offending removal.
    """
    if not 0.0 <= drop_tolerance <= 1.0:
        raise ValueError("drop_tolerance must be in [0, 1]")
    ens0 = boosting.fit(raw, n_estimators, max_depth, learning_rate)
    # an ensemble with no trees, or whose trees are all leaves, gives every
    # row the same margin, so this also covers an empty threshold set
    preds0 = boosting.predict_class(ens0, raw.features)
    if preds0.min() == preds0.max():
        raise DegenerateModelError("reference model predicts a single class")
    initial_correct = int((preds0 == raw.labels).sum())
    tau = Fraction(str(drop_tolerance))
    bar = initial_correct - math.floor(tau * initial_correct)
    ranking = boosting.split_importance(ens0)
    survivors = sorted(ranking)  # in column order: a refit's column c is survivors[c]
    steps: list[tuple[tuple[int, float], int]] = []
    accepted = None  # (ensemble, data, reference) of the last refit kept

    def refit_on(pairs):
        data = binarize_with_thresholds(raw, pairs)
        x = indicator_raw(data)
        refit = boosting.fit(x, n_estimators, max_depth, learning_rate)
        ref = reference_labels(refit, x)
        return (refit, data, ref), raw.n_samples - ref.incorrect_count

    while survivors:
        # drop the least important; on ties, the larger (feature, threshold)
        victim = min(survivors, key=lambda p: (ranking[p], -p[0], -p[1]))
        candidate = [p for p in survivors if p != victim]
        refit, c = refit_on(candidate)
        if c < bar:
            break
        steps.append((victim, c))
        survivors = candidate
        accepted = refit
        ranking = _importance_by_pair(refit[0], survivors)

    fallback = False
    if accepted is None:
        refit, c = refit_on(survivors)
        if c >= bar:
            accepted = refit
        else:
            translated = translate_to_indicators(ens0, survivors)
            accepted = translated, refit[1], reference_labels(translated, refit[1])
            fallback = True
        ranking = _importance_by_pair(accepted[0], survivors)

    ensemble, data, reference = accepted
    return EliminationTrace(
        initial_correct=initial_correct,
        stopping_bar=bar,
        steps=tuple(steps),
        thresholds=ThresholdSet.ranked(ranking),
        ensemble=ensemble,
        fallback_translated=fallback,
        data=data,
        reference=reference,
    )


def trace_to_json(trace: EliminationTrace) -> str:
    obj = {
        "initial_correct": trace.initial_correct,
        "stopping_bar": trace.stopping_bar,
        "fallback_translated": trace.fallback_translated,
        "steps": [
            {"feature": f, "threshold": t, "refit_correct": c} for (f, t), c in trace.steps
        ],
        "thresholds": [
            {"feature": f, "threshold": t, "importance": v} for f, t, v in trace.thresholds.entries
        ],
        "ensemble": boosting.to_dict(trace.ensemble),
    }
    return json.dumps(obj, indent=2)
