"""Datasets for binary classification over thresholded numeric features.

A raw dataset holds continuous (or already 0/1) feature columns plus 0/1
labels.  Binarization turns every threshold into an indicator column
(bit = 1 iff value <= threshold); thresholds sit halfway between consecutive
distinct values of a feature (see midpoint).  Binary columns and labels are
stored as integer bitmasks over samples, which is what the solver operates on.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np


class DataFormatError(ValueError):
    """Malformed input data; message carries a 1-based row/column position."""


# ---------------------------------------------------------------- bit helpers

def bits_to_bools(bits: int, n: int) -> np.ndarray:
    """Expand an n-sample bitmask into a boolean vector (index order)."""
    raw = bits.to_bytes((n + 7) // 8, "little")
    return np.unpackbits(np.frombuffer(raw, dtype=np.uint8), bitorder="little")[:n].astype(bool)


def bools_to_bits(mask: np.ndarray) -> int:
    return int.from_bytes(np.packbits(np.asarray(mask, dtype=bool), bitorder="little").tobytes(), "little")


# ---------------------------------------------------------------- raw data

@dataclass(frozen=True)
class RawDataset:
    """Feature matrix (n, m) of finite float64 plus 0/1 labels."""

    features: np.ndarray
    labels: np.ndarray
    feature_names: tuple[str, ...]

    @property
    def n_samples(self) -> int:
        return self.features.shape[0]

    @property
    def n_features(self) -> int:
        return self.features.shape[1]

    def subset(self, indices: Sequence[int]) -> "RawDataset":
        idx = np.asarray(indices, dtype=int)
        return RawDataset(self.features[idx], self.labels[idx], self.feature_names)


def make_raw(features, labels, feature_names=None) -> RawDataset:
    """Validate and wrap arrays as a RawDataset."""
    x = np.asarray(features, dtype=np.float64)
    if x.ndim != 2:
        raise DataFormatError("feature matrix must be 2-dimensional")
    n, m = x.shape
    if n < 1:
        raise DataFormatError("no samples")
    if m < 1:
        raise DataFormatError("no feature columns")
    if not np.all(np.isfinite(x)):
        i, j = np.argwhere(~np.isfinite(x))[0]
        raise DataFormatError(f"non-finite feature value at row {i + 1}, column {j + 1}")
    y = np.asarray(labels)
    if y.shape != (n,):
        raise DataFormatError("labels must be one value per sample")
    if not np.all((y == 0) | (y == 1)):
        i = int(np.argwhere(~((y == 0) | (y == 1)))[0][0])
        raise DataFormatError(f"label outside {{0,1}} at row {i + 1}")
    if feature_names is None:
        feature_names = tuple(f"x{j}" for j in range(m))
    else:
        feature_names = tuple(feature_names)
        if len(feature_names) != m:
            raise DataFormatError("feature name count does not match columns")
        if len(set(feature_names)) != m:
            raise DataFormatError("duplicate feature names")
    return RawDataset(x, y.astype(np.int8), feature_names)


def load_csv(path) -> RawDataset:
    """Load a CSV of numeric feature columns; the last column is the 0/1 label.

    The file is UTF-8, with or without a leading byte-order mark.  Row
    positions in error messages are 1-based over data rows (the header is
    not counted); columns are 1-based.
    """
    try:
        fh = open(path, "r", newline="", encoding="utf-8-sig")
    except OSError as e:
        raise DataFormatError(f"cannot open {path}: {e}") from e
    with fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise DataFormatError("empty file: missing header") from None
        if len(header) < 2:
            raise DataFormatError("header must list at least one feature and the label")
        names = [h.strip() for h in header[:-1]]
        rows, labels = [], []
        for r, rec in enumerate(reader, start=1):
            if len(rec) != len(header):
                raise DataFormatError(f"row {r} has {len(rec)} cells, expected {len(header)}")
            vals = []
            for c, cell in enumerate(rec[:-1], start=1):
                text = cell.strip()
                if not text:
                    raise DataFormatError(f"missing value at row {r}, column {c}")
                try:
                    v = float(text)
                except ValueError:
                    raise DataFormatError(f"non-numeric value {text!r} at row {r}, column {c}") from None
                if not math.isfinite(v):
                    raise DataFormatError(f"non-finite value at row {r}, column {c}")
                vals.append(v)
            ltext = rec[-1].strip()
            try:
                lv = float(ltext)
            except ValueError:
                raise DataFormatError(f"non-numeric label {ltext!r} at row {r}") from None
            if lv not in (0.0, 1.0):
                raise DataFormatError(f"label outside {{0,1}} at row {r}")
            rows.append(vals)
            labels.append(int(lv))
    if not rows:
        raise DataFormatError("no samples")
    return make_raw(np.array(rows, dtype=np.float64), np.array(labels), names)


# ---------------------------------------------------------------- binarization

def midpoint(a: float, b: float) -> float:
    """A threshold t with a <= t < b, for a < b: their mean, or a where the
    mean rounds onto b.  Halving each first keeps a sum near the float
    maximum finite; elsewhere, halving a normal float is exact, so t is
    (a + b) / 2 bit for bit."""
    t = float(a / 2 + b / 2)
    return t if a <= t < b else float(a)


def indicator_header(feature: int, threshold: float) -> str:
    return f"feature{feature}≤{threshold!r}"


@dataclass(frozen=True)
class BinaryDataset:
    """Indicator columns as sample bitmasks; bit i of columns[c] is sample i.

    column_meta[c] = (source feature index, threshold); columns are ordered by
    (feature, threshold).  pos_mask, the bitmask of label-1 samples, is the
    only label field; labels unpacks it.
    """

    n_samples: int
    columns: tuple[int, ...]
    column_meta: tuple[tuple[int, float], ...]
    feature_names: tuple[str, ...]
    pos_mask: int
    # not an init field, so a dataclasses.replace copy starts with its own
    _cache: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    @property
    def n_columns(self) -> int:
        return len(self.columns)

    @property
    def full_mask(self) -> int:
        return (1 << self.n_samples) - 1

    @property
    def labels(self) -> np.ndarray:
        """0/1 int8 labels, unpacked from pos_mask on each read (a fresh array)."""
        return bits_to_bools(self.pos_mask, self.n_samples).view(np.int8)

    def column_header(self, c: int) -> str:
        return indicator_header(*self.column_meta[c])

    def rows_matrix(self) -> np.ndarray:
        """(n, m_tilde) uint8 matrix of the indicator columns, built per call."""
        n, width = self.n_samples, (self.n_samples + 7) // 8
        raw = b"".join(c.to_bytes(width, "little") for c in self.columns)
        packed = np.frombuffer(raw, dtype=np.uint8).reshape(self.n_columns, width)
        bits = np.unpackbits(packed, axis=1, bitorder="little")[:, :n]
        return np.ascontiguousarray(bits.T)

    def column_index(self, feature: str, threshold: float) -> int:
        """Index of the indicator column of a feature name and threshold."""
        if "lookup" not in self._cache:
            self._cache["lookup"] = {
                (self.feature_names[f], t): c for c, (f, t) in enumerate(self.column_meta)
            }
        try:
            return self._cache["lookup"][(feature, threshold)]
        except KeyError:
            raise KeyError(f"no column for feature {feature!r} at threshold {threshold!r}") from None


def _make_columns(raw: RawDataset, pairs: list[tuple[int, float]]) -> BinaryDataset:
    pairs = sorted(set(pairs))
    cols = tuple(bools_to_bits(raw.features[:, f] <= t) for f, t in pairs)
    return BinaryDataset(
        n_samples=raw.n_samples,
        columns=cols,
        column_meta=tuple(pairs),
        feature_names=raw.feature_names,
        pos_mask=bools_to_bits(raw.labels == 1),
    )


def full_binarize(raw: RawDataset) -> BinaryDataset:
    """All split points: midpoints between consecutive distinct values per feature.

    A feature with k_j distinct values contributes k_j - 1 columns, so the
    total column count is sum_j (k_j - 1).
    """
    pairs: list[tuple[int, float]] = []
    for j in range(raw.n_features):
        u = np.unique(raw.features[:, j])
        for a, b in zip(u[:-1], u[1:]):
            pairs.append((j, midpoint(a, b)))
    return _make_columns(raw, pairs)


def binarize_with_thresholds(raw: RawDataset, thresholds: Iterable[tuple[int, float]]) -> BinaryDataset:
    """Indicator columns for an explicit (feature, threshold) list, sorted by (feature, threshold)."""
    pairs = []
    for f, t in thresholds:
        f = int(f)
        if not 0 <= f < raw.n_features:
            raise DataFormatError(f"threshold references unknown feature index {f}")
        pairs.append((f, float(t)))
    return _make_columns(raw, pairs)


def write_binary_csv(bin_data: BinaryDataset, path) -> None:
    """CSV of 0/1 columns, header feature<idx><=<threshold>, label last."""
    rows, labels = bin_data.rows_matrix(), bin_data.labels
    with open(path, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow([bin_data.column_header(c) for c in range(bin_data.n_columns)] + ["label"])
        for i in range(bin_data.n_samples):
            w.writerow([int(v) for v in rows[i]] + [int(labels[i])])


def read_binary_csv(path) -> BinaryDataset:
    """Inverse of write_binary_csv; headers must follow the feature<idx><=<t>
    convention as the writer puts it (idx in ASCII digits and no leading
    zero, t finite and spelled as repr writes it), each (feature, threshold)
    at most once, and the file is UTF-8, with or without a leading
    byte-order mark."""
    try:
        fh = open(path, "r", newline="", encoding="utf-8-sig")
    except OSError as e:
        raise DataFormatError(f"cannot open {path}: {e}") from e
    with fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise DataFormatError("empty file: missing header") from None
        if not header:
            raise DataFormatError("empty header line")
        if header[-1].strip() != "label":
            raise DataFormatError("last header cell must be 'label'")
        meta, first = [], {}
        for c, cell in enumerate(header[:-1], start=1):
            text = cell.strip()
            if "≤" not in text or not text.startswith("feature"):
                raise DataFormatError(f"header column {c} is not of the form feature<idx>≤<threshold>")
            left, right = text.split("≤", 1)
            try:
                idx, thr = int(left[len("feature"):]), float(right)
                # int() also takes 01, 1_0, +1 and non-ASCII digits, but a
                # tree names the column feature<idx>, which the input does not
                if idx < 0 or left != f"feature{idx}":
                    raise ValueError("feature index not as the writer puts it")
            except ValueError:
                raise DataFormatError(f"header column {c} is not of the form feature<idx>≤<threshold>") from None
            # nan would also slip past the repeat check below, as nan != nan
            if not math.isfinite(thr):
                raise DataFormatError(f"header column {c} has a non-finite threshold {right!r}")
            # float() also takes 1_0, +0.5 and 0.50, but a tree names the
            # column by repr(threshold), a spelling the input did not use
            if right != repr(thr):
                raise DataFormatError(f"header column {c} writes the threshold {thr!r} as {right!r}")
            # a tree names its columns by (feature, threshold), so a repeat
            # would make it point at the wrong one
            if (idx, thr) in first:
                raise DataFormatError(
                    f"header columns {first[(idx, thr)]} and {c} are both {indicator_header(idx, thr)}")
            first[(idx, thr)] = c
            meta.append((idx, thr))
        rows, labels = [], []
        for r, rec in enumerate(reader, start=1):
            if len(rec) != len(header):
                raise DataFormatError(f"row {r} has {len(rec)} cells, expected {len(header)}")
            for c, cell in enumerate(rec[:-1], start=1):
                if cell.strip() not in ("0", "1"):
                    raise DataFormatError(f"non-binary cell at row {r}, column {c}")
            if rec[-1].strip() not in ("0", "1"):
                raise DataFormatError(f"label outside {{0,1}} at row {r}")
            rows.append([int(v) for v in rec[:-1]])
            labels.append(int(rec[-1]))
    if not rows:
        raise DataFormatError("no samples")
    mat = np.array(rows, dtype=np.uint8)
    n_feat = max(f for f, _ in meta) + 1 if meta else 0
    names = tuple(f"feature{j}" for j in range(n_feat))
    return BinaryDataset(
        n_samples=mat.shape[0],
        columns=tuple(bools_to_bits(mat[:, c] == 1) for c in range(mat.shape[1])),
        column_meta=tuple(meta),
        feature_names=names,
        pos_mask=bools_to_bits(np.array(labels) == 1),
    )


# ---------------------------------------------------------------- equivalence classes

@dataclass(frozen=True, eq=False)
class EquivalenceClasses:
    """Partition of samples by identical binarized feature vector.

    ids[i] is the class of sample i, numbered 0 .. n_classes - 1; minority
    is the bitmask of each class's rarer-label members (the label-1 ones on
    a tie; either side has the same count).  rows[k] is the (uint8)
    indicator row every member of class k shares, and columns holds each
    indicator column in class space: bit k of columns[c] is rows[k, c].
    """

    ids: np.ndarray
    n_classes: int
    minority: int
    rows: np.ndarray
    columns: tuple[int, ...]


def equivalence_classes(bin_data: BinaryDataset) -> EquivalenceClasses:
    """Partition of the samples by indicator row.  Computed once per dataset
    object and kept in its cache: the dataset is frozen, so every solve on it
    can share the result."""
    eq = bin_data._cache.get("classes")
    if eq is None:
        eq = bin_data._cache["classes"] = _partition(bin_data)
    return eq


def _partition(bin_data: BinaryDataset) -> EquivalenceClasses:
    rows = bin_data.rows_matrix()
    first, ids = [0], np.zeros(bin_data.n_samples, dtype=np.intp)  # no columns, one class
    if bin_data.n_columns:
        # each row packed to bytes is one opaque key; equal rows, equal keys
        packed = np.packbits(rows, axis=1)
        keys = packed.view(np.dtype((np.void, packed.shape[1]))).ravel()
        _, first, ids = np.unique(keys, return_index=True, return_inverse=True)
    is_pos = bits_to_bools(bin_data.pos_mask, bin_data.n_samples)
    # label 1 is a class's rarer label when at most half its members have it
    pos_is_minority = 2 * np.bincount(ids[is_pos], minlength=len(first)) <= np.bincount(ids)
    minority = bools_to_bits(is_pos == pos_is_minority[ids])
    # one member's row stands for its class; pack each column over classes
    rows = rows[first]
    by_class = np.packbits(rows.T, axis=1, bitorder="little")
    columns = tuple(int.from_bytes(c.tobytes(), "little") for c in by_class)
    return EquivalenceClasses(ids, len(first), minority, rows, columns)


def minority_total(eq: EquivalenceClasses) -> int:
    """Sum over classes of the rarer-label count.  This is the exact count
    whose scaled value is the dataset's equivalence-points lower bound."""
    return eq.minority.bit_count()
