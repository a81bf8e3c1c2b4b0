import numpy as np
import pytest

import sparsetree
from sparsetree.dataset import (
    DataFormatError,
    SupportSet,
    bits_to_bools,
    bools_to_bits,
    equivalence_classes,
    full_binarize,
    minority_bits,
    minority_total,
    read_binary_csv,
    write_binary_csv,
)

from conftest import exhaustive_min_units_nomemo, random_binary
from sparsetree.solver import Regularizer


# ---------------------------------------------------------------- bit packing

def test_bit_pack_round_trip():
    rng = np.random.default_rng(0)
    for _ in range(20):
        n = int(rng.integers(1, 70))
        mask = rng.integers(0, 2, size=n).astype(bool)
        bits = bools_to_bits(mask)
        assert np.array_equal(bits_to_bools(bits, n), mask)
        assert bits.bit_count() == int(mask.sum())


# ---------------------------------------------------------------- load_csv

def test_load_csv_basic(tmp_path):
    p = tmp_path / "d.csv"
    p.write_text("a,label\n1,0\n2,1\n")
    raw = sparsetree.load_csv(p)
    assert raw.n_samples == 2
    assert raw.n_features == 1
    assert list(raw.labels) == [0, 1]
    assert raw.feature_names == ("a",)


def test_load_csv_bad_label(tmp_path):
    p = tmp_path / "d.csv"
    p.write_text("a,label\n1,2\n")
    with pytest.raises(DataFormatError, match=r"label outside \{0,1\} at row 1"):
        sparsetree.load_csv(p)


def test_load_csv_empty_data(tmp_path):
    p = tmp_path / "d.csv"
    p.write_text("a,label\n")
    with pytest.raises(DataFormatError, match="no samples"):
        sparsetree.load_csv(p)


def test_load_csv_missing_file(tmp_path):
    with pytest.raises(DataFormatError, match="cannot open"):
        sparsetree.load_csv(tmp_path / "absent.csv")


def test_load_csv_bad_cell_position(tmp_path):
    p = tmp_path / "d.csv"
    p.write_text("a,b,label\n1,2,0\n1,oops,1\n")
    with pytest.raises(DataFormatError, match="row 2, column 2"):
        sparsetree.load_csv(p)


def test_load_csv_ragged_row(tmp_path):
    p = tmp_path / "d.csv"
    p.write_text("a,b,label\n1,2,0\n1,0\n")
    with pytest.raises(DataFormatError, match="row 2"):
        sparsetree.load_csv(p)


# ---------------------------------------------------------------- binarization

def test_full_binarize_midpoints():
    raw = sparsetree.make_raw([[1.0], [2.0], [4.0]], [0, 1, 1])
    b = full_binarize(raw)
    assert b.n_columns == 2
    assert b.column_meta == ((0, 1.5), (0, 3.0))


def test_full_binarize_constant_feature():
    raw = sparsetree.make_raw([[5.0], [5.0], [5.0]], [0, 1, 0])
    assert full_binarize(raw).n_columns == 0


def test_full_binarize_column_count_identity():
    raw = sparsetree.make_raw([[1.0, 7.0], [2.0, 7.0], [4.0, 7.0]], [0, 1, 1])
    assert full_binarize(raw).n_columns == 2  # (3-1) + (1-1)
    rng = np.random.default_rng(1)
    for _ in range(10):
        x = rng.integers(0, 5, size=(int(rng.integers(2, 30)), 3)).astype(float)
        y = rng.integers(0, 2, size=len(x))
        b = full_binarize(sparsetree.make_raw(x, y))
        expect = sum(len(np.unique(x[:, j])) - 1 for j in range(3))
        assert b.n_columns == expect


def test_column_bits_are_le_indicators():
    rng = np.random.default_rng(2)
    for _ in range(10):
        x = rng.normal(size=(int(rng.integers(2, 25)), 4)).round(1)
        y = rng.integers(0, 2, size=len(x))
        raw = sparsetree.make_raw(x, y)
        b = full_binarize(raw)
        for c, (f, t) in enumerate(b.column_meta):
            assert np.array_equal(
                bits_to_bools(b.columns[c], b.n_samples), x[:, f] <= t
            )


def test_binarize_with_thresholds_single():
    raw = sparsetree.make_raw([[1.0], [2.0], [4.0]], [0, 1, 1])
    b = sparsetree.binarize_with_thresholds(raw, [(0, 1.5)])
    assert b.n_columns == 1
    assert list(bits_to_bools(b.columns[0], 3)) == [True, False, False]


def test_binarize_with_thresholds_empty():
    raw = sparsetree.make_raw([[1.0], [2.0]], [0, 1])
    b = sparsetree.binarize_with_thresholds(raw, [])
    assert b.n_columns == 0
    assert list(b.labels) == [0, 1]


def test_binarize_with_all_midpoints_matches_full():
    rng = np.random.default_rng(3)
    for _ in range(10):
        x = rng.integers(0, 4, size=(int(rng.integers(2, 20)), 3)).astype(float)
        y = rng.integers(0, 2, size=len(x))
        raw = sparsetree.make_raw(x, y)
        full = full_binarize(raw)
        again = sparsetree.binarize_with_thresholds(raw, list(full.column_meta))
        assert again.columns == full.columns
        assert again.column_meta == full.column_meta


def test_binarize_with_thresholds_bad_feature():
    raw = sparsetree.make_raw([[1.0], [2.0]], [0, 1])
    with pytest.raises(DataFormatError, match="feature index"):
        sparsetree.binarize_with_thresholds(raw, [(3, 0.5)])


def test_make_raw_rejects_bad_input():
    with pytest.raises(DataFormatError, match="label"):
        sparsetree.make_raw([[1.0]], [2])
    with pytest.raises(DataFormatError, match="non-finite"):
        sparsetree.make_raw([[np.nan]], [0])
    with pytest.raises(DataFormatError, match="no samples"):
        sparsetree.make_raw(np.zeros((0, 2)), [])


# ---------------------------------------------------------------- CSV round trip

def test_binary_csv_round_trip(tmp_path):
    rng = np.random.default_rng(4)
    x = rng.integers(0, 3, size=(12, 2)).astype(float)
    y = rng.integers(0, 2, size=12)
    b = full_binarize(sparsetree.make_raw(x, y))
    p = tmp_path / "b.csv"
    write_binary_csv(b, p)
    back = read_binary_csv(p)
    assert back.columns == b.columns
    assert back.column_meta == b.column_meta
    assert np.array_equal(back.labels, b.labels)


# ---------------------------------------------------------------- support sets

def test_support_set_operations():
    s = SupportSet.from_indices([0, 2, 5], size=8)
    assert (s.bits, s.size) == (0b100101, 8)
    for bad in (8, -1):
        with pytest.raises(ValueError, match="out of range"):
            SupportSet.from_indices([0, bad], size=8)


# ---------------------------------------------------------------- equivalence

def _binary_from_rows(rows, labels):
    raw = sparsetree.make_raw(np.asarray(rows, dtype=float), labels)
    return sparsetree.binarize_with_thresholds(
        raw, [(j, 0.5) for j in range(raw.n_features)]
    )


def test_equivalence_classes_basic():
    b = _binary_from_rows([[0, 1], [0, 1], [1, 0]], [0, 1, 1])
    eq = equivalence_classes(b)
    assert sorted(map(sorted, eq.groups)) == [[0, 1], [2]]
    assert minority_total(eq, b.full_mask) == 1


def test_equivalence_classes_all_distinct():
    b = _binary_from_rows([[0, 0], [0, 1], [1, 0], [1, 1]], [0, 1, 1, 0])
    eq = equivalence_classes(b)
    assert len(eq.groups) == 4
    assert minority_total(eq, b.full_mask) == 0


def test_equivalence_classes_match_sort_and_scan():
    rng = np.random.default_rng(5)
    x = rng.integers(0, 2, size=(32, 5))
    y = rng.integers(0, 2, size=32)
    b = _binary_from_rows(x, y)
    eq = equivalence_classes(b)

    seen = {}
    for i in range(32):
        seen.setdefault(tuple(x[i]), []).append(i)
    expect = sorted(sorted(v) for v in seen.values())
    assert sorted(map(sorted, eq.groups)) == expect


def test_equivalence_invariant_under_column_permutation():
    rng = np.random.default_rng(6)
    x = rng.integers(0, 2, size=(20, 4))
    y = rng.integers(0, 2, size=20)
    g1 = equivalence_classes(_binary_from_rows(x, y)).groups
    g2 = equivalence_classes(_binary_from_rows(x[:, ::-1], y)).groups
    assert sorted(map(sorted, g1)) == sorted(map(sorted, g2))


def test_equivalence_classes_are_computed_once_per_dataset(monkeypatch):
    # every solve on one dataset object shares one partition; an equal
    # dataset built afresh is another object and gets its own
    from sparsetree import dataset, solver

    rows = np.random.default_rng(7).integers(0, 2, size=(24, 3))
    labels = np.arange(24) % 2
    b = _binary_from_rows(rows, labels)
    calls = []
    real = dataset._partition
    monkeypatch.setattr(dataset, "_partition", lambda d: calls.append(d) or real(d))
    first = equivalence_classes(b)
    for lam in ("0", "1/64", "1/20"):
        solver.optimize(b, solver.SolverConfig(Regularizer.from_text(lam, 24), depth_limit=2))
    assert equivalence_classes(b) is first
    assert len(calls) == 1 and calls[0] is b
    twin = _binary_from_rows(rows, labels)
    assert twin.columns == b.columns
    assert equivalence_classes(twin) is not first
    assert equivalence_classes(twin).groups == first.groups
    assert len(calls) == 2


def test_minority_total_pair():
    b = _binary_from_rows([[0], [0]], [0, 1])
    eq = equivalence_classes(b)
    assert minority_total(eq, b.full_mask) == 1
    assert minority_total(eq, 0) == 0


def test_minority_total_respects_support():
    b = _binary_from_rows([[0], [0], [0], [1]], [0, 0, 1, 1])
    eq = equivalence_classes(b)
    assert minority_total(eq, b.full_mask) == 1
    # support holding only one member of the impure group: nothing to pay
    assert minority_total(eq, SupportSet.from_indices([2, 3], 4)) == 0


def _per_group_recount(eq, y, bits):
    total = 0
    for grp in eq.groups:
        inside = [i for i in grp if bits >> i & 1]
        pos = sum(int(y[i]) for i in inside)
        total += min(pos, len(inside) - pos)
    return total


def test_minority_total_matches_per_group_recount():
    rng = np.random.default_rng(7)
    for _ in range(10):
        x = rng.integers(0, 2, size=(16, 3))
        y = rng.integers(0, 2, size=16)
        b = _binary_from_rows(x, y)
        eq = equivalence_classes(b)
        sub = rng.integers(0, 2, size=16).astype(bool)
        s = bools_to_bits(sub)
        assert minority_total(eq, s) == _per_group_recount(eq, y, s)


def test_minority_bits_counts_and_restricts_to_whole_classes():
    rng = np.random.default_rng(9)
    for _ in range(10):
        x = rng.integers(0, 2, size=(40, 3))
        y = rng.integers(0, 2, size=40)
        b = _binary_from_rows(x, y)
        eq = equivalence_classes(b)
        root = bools_to_bits(rng.integers(0, 2, size=40).astype(bool))
        mask = minority_bits(eq, root)
        assert mask.bit_count() == _per_group_recount(eq, y, root)
        assert mask & ~root == 0
        # a support cut from the root along whole classes needs no recount:
        # its minority members are the root's, restricted to it
        sub = 0
        for grp in eq.groups:
            if rng.random() < 0.5:
                for i in grp:
                    sub |= 1 << i
        sub &= root
        assert minority_bits(eq, sub) == mask & sub
        assert (mask & sub).bit_count() == _per_group_recount(eq, y, sub)


def test_minority_total_lower_bounds_every_tree():
    # no tree over the binary columns can misclassify fewer samples than the
    # summed per-group minority counts; checked against exhaustive search
    rng = np.random.default_rng(8)
    for _ in range(6):
        b = random_binary(rng, max_n=32, max_cols=6)
        eq = equivalence_classes(b)
        reg = Regularizer.from_text("0", b.n_samples)
        best_units = exhaustive_min_units_nomemo(b, 3, reg)
        assert minority_total(eq, b.full_mask) <= best_units
