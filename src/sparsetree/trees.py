"""Decision trees over thresholded features.

Nodes reference features by name plus threshold so a serialized tree stands
on its own; prediction resolves (name, threshold) against the indicator
columns of a BinaryDataset.  The true branch is taken when value <= threshold
(indicator bit 1).  A lone leaf has depth 0; depth counts splits on the
longest path.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from typing import Union

import numpy as np

from .dataset import BinaryDataset, bits_to_bools


@dataclass(frozen=True)
class Leaf:
    prediction: int


@dataclass(frozen=True)
class Split:
    feature: str
    threshold: float
    on_true: "Node"
    on_false: "Node"


Node = Union[Leaf, Split]


def measure(tree: Node) -> tuple[int, int]:
    """(leaf count, depth)."""
    if isinstance(tree, Leaf):
        return 1, 0
    lt, dt = measure(tree.on_true)
    lf, df = measure(tree.on_false)
    return lt + lf, 1 + max(dt, df)


def predict(tree: Node, bin_data: BinaryDataset) -> np.ndarray:
    """Predicted 0/1 label per sample."""
    n = bin_data.n_samples
    out_bits = _predict_bits(tree, bin_data, bin_data.full_mask)
    return bits_to_bools(out_bits, n).astype(np.int8)


def _predict_bits(tree: Node, bin_data: BinaryDataset, support: int) -> int:
    """Bitmask of samples in `support` predicted as label 1."""
    if isinstance(tree, Leaf):
        return support if tree.prediction == 1 else 0
    col = bin_data.columns[bin_data.column_index(tree.feature, tree.threshold)]
    s_true = support & col
    return _predict_bits(tree.on_true, bin_data, s_true) | _predict_bits(
        tree.on_false, bin_data, support ^ s_true
    )


def misclassified_count(tree: Node, bin_data: BinaryDataset) -> int:
    pred_pos = _predict_bits(tree, bin_data, bin_data.full_mask)
    wrong = pred_pos ^ bin_data.pos_mask
    return wrong.bit_count()


def objective(tree: Node, bin_data: BinaryDataset, reg) -> Fraction:
    """Exact regularized objective: loss/n + penalty * leaves."""
    if reg.n_samples != bin_data.n_samples:
        raise ValueError("regularizer sample count does not match dataset")
    leaves, _ = measure(tree)
    return reg.fraction(reg.units(misclassified_count(tree, bin_data), leaves))


# ---------------------------------------------------------------- serialization

def _to_obj(tree: Node):
    if isinstance(tree, Leaf):
        return {"prediction": int(tree.prediction)}
    return {
        "feature": tree.feature,
        "threshold": tree.threshold,
        "relation": "<=",
        "true": _to_obj(tree.on_true),
        "false": _to_obj(tree.on_false),
    }


def to_json(tree: Node) -> str:
    return json.dumps(_to_obj(tree), indent=2)


def pretty(tree: Node, indent: int = 0) -> str:
    pad = "  " * indent
    if isinstance(tree, Leaf):
        return f"{pad}predict {tree.prediction}"
    head = f"{pad}{tree.feature} ≤ {tree.threshold}"
    return "\n".join(
        [
            head,
            f"{pad}  True:",
            pretty(tree.on_true, indent + 2),
            f"{pad}  False:",
            pretty(tree.on_false, indent + 2),
        ]
    )
