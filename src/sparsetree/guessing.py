"""Guessing strategies driven by a boosted reference model.

Three accelerations for the optimal-tree search: shrink the threshold set by
iterative least-importance elimination with a training-accuracy stopping bar,
bound the depth limit via the ensemble's VC dimension, and derive
per-subproblem lower-bound guesses from the reference model's mistakes (the
solver counts those against the labels it solves; see ReferenceLabels).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace
from fractions import Fraction

import numpy as np

from . import boosting
from .boosting import BoostedEnsemble, DegenerateModelError, RegressionNode, ThresholdSet
from .dataset import (
    BinaryDataset,
    RawDataset,
    binarize_with_thresholds,
    bools_to_bits,
    equivalence_classes,
    indicator_header,
)


@dataclass(frozen=True)
class ReferenceLabels:
    """Reference predictions as bitmasks in a dataset's sample order: bit i of
    predicted is set when sample i is predicted 1, and labels is the pos_mask
    they were scored against, which optimize requires to be its dataset's."""

    predicted: int
    labels: int
    n_samples: int

    @property
    def incorrect_count(self) -> int:
        return (self.predicted ^ self.labels).bit_count()

    @property
    def single_class(self) -> bool:
        return self.predicted in (0, (1 << self.n_samples) - 1)


def reference_from_predictions(predictions, labels) -> ReferenceLabels:
    preds, y = np.asarray(predictions), np.asarray(labels)
    if preds.ndim != 1 or preds.shape != y.shape:
        raise ValueError("prediction/label length mismatch")
    if not (np.isin(preds, (0, 1)).all() and np.isin(y, (0, 1)).all()):
        raise ValueError("predictions and labels must be 0 or 1")
    return ReferenceLabels(bools_to_bits(preds == 1), bools_to_bits(y == 1), len(y))


def reference_labels(ens: BoostedEnsemble, data) -> ReferenceLabels:
    """Evaluate an ensemble on a dataset it was trained for.

    Pass the BinaryDataset of indicator columns for a reduced-space ensemble,
    or the RawDataset for one trained on raw features.  Equal indicator rows
    get equal predictions, so a BinaryDataset is evaluated on the rows of
    its equivalence classes, which a fit on it and the solver share.
    """
    if isinstance(data, BinaryDataset):
        eq = equivalence_classes(data)
        preds = boosting.predict_class(ens, eq.rows)[eq.ids]
        return ReferenceLabels(bools_to_bits(preds == 1), data.pos_mask, data.n_samples)
    return reference_from_predictions(boosting.predict_class(ens, data.features), data.labels)


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
    # m too large for a float, or a product that overflows to inf
    try:
        product = m * (3.0 * math.log(m) + 2.0)
        return math.ceil(math.log2(product)), product
    except OverflowError:
        raise ValueError("n_estimators * vc_weak is too large for a float") from None


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


def check_options(n_estimators: int, max_depth: int, learning_rate: float,
                  drop_tolerance: float) -> None:
    """Raise ValueError for options column_eliminate refuses; reads no data."""
    boosting.check_options(n_estimators, max_depth, learning_rate)
    if not 0.0 <= drop_tolerance <= 1.0:
        raise ValueError("drop_tolerance must be in [0, 1]")


def column_eliminate(
    raw: RawDataset,
    n_estimators: int,
    max_depth: int,
    learning_rate: float,
    drop_tolerance: float = 0.0,
) -> EliminationTrace:
    """Iteratively drop the globally least-important (feature, threshold).

    Each round's victim is the last pair of ThresholdSet.ranked(ranking):
    least important, the larger (feature, threshold) on ties.  Each round
    refits the ensemble on the surviving indicator columns and re-ranks
    importances from that refit; elimination stops when a refit's
    training correct-count falls below ceil((1 - drop_tolerance) * initial),
    undoing the offending removal.
    """
    check_options(n_estimators, max_depth, learning_rate, drop_tolerance)
    ens0 = boosting.fit(raw, n_estimators, max_depth, learning_rate)
    ref0 = reference_labels(ens0, raw)
    # an ensemble with no trees, or whose trees are all leaves, gives every
    # row the same margin, so this also covers an empty threshold set
    if ref0.single_class:
        raise DegenerateModelError("reference model predicts a single class")
    initial_correct = raw.n_samples - ref0.incorrect_count
    tau = Fraction(str(drop_tolerance))
    bar = initial_correct - math.floor(tau * initial_correct)
    ranking = boosting.split_importance(ens0)
    steps: list[tuple[tuple[int, float], int]] = []
    accepted = None  # (ensemble, data, reference) of the last refit kept

    def refit_on(pairs):
        data = binarize_with_thresholds(raw, pairs)
        refit = boosting.fit(data, n_estimators, max_depth, learning_rate)
        ref = reference_labels(refit, data)
        return (refit, data, ref), raw.n_samples - ref.incorrect_count

    while ranking:
        victim = ThresholdSet.ranked(ranking).pairs()[-1]
        # in column order: a refit's column c is candidate[c]
        candidate = sorted(p for p in ranking if p != victim)
        refit, c = refit_on(candidate)
        if c < bar:
            break
        steps.append((victim, c))
        accepted = refit
        ranking = _importance_by_pair(refit[0], candidate)

    fallback = False
    if accepted is None:
        survivors = sorted(ranking)
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
