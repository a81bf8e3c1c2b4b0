"""Shared test helpers: synthetic data, independent oracles, optional COMPAS."""

import os
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import sparsetree
from sparsetree.dataset import BinaryDataset

COMPAS_ENV = "COMPAS_CSV"
COMPAS_LOCAL = Path(__file__).parent / "data" / "compas.csv"


def compas_path():
    p = os.environ.get(COMPAS_ENV)
    if p and Path(p).is_file():
        return Path(p)
    if COMPAS_LOCAL.is_file():
        return COMPAS_LOCAL
    return None


def require_compas():
    p = compas_path()
    if p is None:
        pytest.skip(
            f"COMPAS data not present; set {COMPAS_ENV} or add {COMPAS_LOCAL}"
        )
    return sparsetree.load_csv(str(p))


def random_raw(rng, n, m, levels=4, noise=0.3):
    """Quantized features with a planted two-feature rule plus label noise."""
    x = np.round(rng.normal(size=(n, m)) * levels) / levels
    score = (x[:, 0] > 0.0).astype(float) + (x[:, m - 1] < 0.25).astype(float)
    y = (score + noise * rng.normal(size=n) > 1.0).astype(int)
    if y.min() == y.max():
        y[: n // 2] = 1 - y[0]
    return sparsetree.make_raw(x, y)


def random_binary(rng, max_n=64, max_cols=8):
    """Small random BinaryDataset for exhaustive-oracle comparisons."""
    while True:
        n = int(rng.integers(6, max_n + 1))
        m = int(rng.integers(2, 5))
        x = rng.integers(0, 4, size=(n, m)).astype(float)
        y = rng.integers(0, 2, size=n).astype(int)
        if y.min() == y.max():
            continue
        raw = sparsetree.make_raw(x, y)
        b = sparsetree.full_binarize(raw)
        if 1 <= b.n_columns <= max_cols:
            return b


# ---------------------------------------------------------------- oracles

def class_groups(bin_data: BinaryDataset):
    """Sample indices of each equivalence class, in order of first member:
    samples grouped by their indicator row as a dict key, without np.unique."""
    rows = bin_data.rows_matrix()
    seen = {}
    for i in range(bin_data.n_samples):
        seen.setdefault(tuple(rows[i]), []).append(i)
    return [tuple(g) for g in seen.values()]


def masked_min_units(bin_data: BinaryDataset, depth, reg, count_bits):
    """Min over all trees of depth <= depth of
    q * (misclassified samples inside count_bits) + leaf_penalty * leaves.

    Plain memoized recursion with no bounding, independent of the solver's
    search machinery.  count_bits = full mask gives the ordinary optimum.
    """
    q = reg.denom
    pen = reg.leaf_penalty_units
    pos = bin_data.pos_mask
    cols = bin_data.columns
    memo = {}

    def leaf_units(bits):
        # free leaf labeling: the minimizing label only counts masked errors
        wrong_if_one = (bits & ~pos & count_bits).bit_count()
        wrong_if_zero = (bits & pos & count_bits).bit_count()
        return q * min(wrong_if_one, wrong_if_zero) + pen

    def rec(bits, d):
        key = (bits, d)
        got = memo.get(key)
        if got is not None:
            return got
        best = leaf_units(bits)
        if d >= 1 and bits.bit_count() > 1:
            for c in cols:
                bl = bits & c
                if bl == 0 or bl == bits:
                    continue
                v = rec(bl, d - 1) + rec(bits ^ bl, d - 1)
                if v < best:
                    best = v
        memo[key] = best
        return best

    return rec(bin_data.full_mask, depth)


def exhaustive_min_units_nomemo(bin_data: BinaryDataset, depth, reg, bits=None):
    """Memoization-free twin of the exhaustive optimum, for tiny instances only."""
    q = reg.denom
    pen = reg.leaf_penalty_units
    pos = bin_data.pos_mask
    if bits is None:
        bits = bin_data.full_mask
    n = bits.bit_count()
    p = (bits & pos).bit_count()
    best = q * min(p, n - p) + pen
    if depth >= 1 and n > 1:
        for c in bin_data.columns:
            bl = bits & c
            if bl == 0 or bl == bits:
                continue
            v = exhaustive_min_units_nomemo(bin_data, depth - 1, reg, bl)
            v += exhaustive_min_units_nomemo(bin_data, depth - 1, reg, bits ^ bl)
            if v < best:
                best = v
    return best


def loss_fraction(pred, labels, n):
    return Fraction(int((np.asarray(pred) != np.asarray(labels)).sum()), n)
