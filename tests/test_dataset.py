from fractions import Fraction

import numpy as np
import pytest

import sparsetree
from sparsetree.dataset import (
    DataFormatError,
    bits_to_bools,
    bools_to_bits,
    equivalence_classes,
    full_binarize,
    minority_bits,
    minority_total,
    read_binary_csv,
    write_binary_csv,
)

from conftest import class_groups, exhaustive_min_units_nomemo, random_binary
from sparsetree.solver import Regularizer, SolverConfig, optimize


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
    p.write_text("a,label\n1,0\n1,yes\n")
    with pytest.raises(DataFormatError, match="non-numeric label 'yes' at row 2"):
        sparsetree.load_csv(p)


def test_load_csv_empty_data(tmp_path):
    p = tmp_path / "d.csv"
    p.write_text("a,label\n")
    with pytest.raises(DataFormatError, match="no samples"):
        sparsetree.load_csv(p)
    p.write_text("")
    with pytest.raises(DataFormatError, match="empty file"):
        sparsetree.load_csv(p)
    p.write_text("label\n1\n")
    with pytest.raises(DataFormatError, match="header must list at least one feature"):
        sparsetree.load_csv(p)


def test_load_csv_missing_file(tmp_path):
    with pytest.raises(DataFormatError, match="cannot open"):
        sparsetree.load_csv(tmp_path / "absent.csv")


def test_load_csv_bad_cell_position(tmp_path):
    p = tmp_path / "d.csv"
    p.write_text("a,b,label\n1,2,0\n1,oops,1\n")
    with pytest.raises(DataFormatError, match="row 2, column 2"):
        sparsetree.load_csv(p)
    p.write_text("a,b,label\n1,2,0\n , 1,1\n")
    with pytest.raises(DataFormatError, match="missing value at row 2, column 1"):
        sparsetree.load_csv(p)


def test_load_csv_non_finite_cell_position(tmp_path):
    p = tmp_path / "d.csv"
    for cell in ("nan", "inf", "-inf", " NaN ", "-Infinity"):
        p.write_text(f"a,b,label\n1,2,0\n3,4,1\n5,{cell},1\n")
        with pytest.raises(DataFormatError, match="non-finite value at row 3, column 2"):
            sparsetree.load_csv(p)
        p.write_text(f"a,b,label\n{cell},2,0\n")
        with pytest.raises(DataFormatError, match="non-finite value at row 1, column 1"):
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


def test_full_binarize_midpoints_split_their_values(tmp_path):
    # (a + b) / 2 overflows to inf near the float maximum, and rounds onto b
    # for neighbouring floats; either way the column no longer splits a from b
    big = sparsetree.make_raw([[1e308], [1e308], [1.7e308], [1.7e308]], [0, 0, 1, 1])
    b = full_binarize(big)
    assert b.column_meta == ((0, 1.35e308),)
    assert b.columns == (0b0011,)
    reg = Regularizer.from_text("1/100", 4)
    res = optimize(b, SolverConfig(reg, depth_limit=2))
    assert (res.objective, res.leaf_count) == (Fraction(1, 50), 2)
    # the header is finite, so the file reads back
    p = tmp_path / "big.csv"
    write_binary_csv(b, p)
    assert read_binary_csv(p).column_meta == b.column_meta
    lo, hi = 1 + 2.0 ** -52, 1 + 2.0 ** -51
    assert (lo + hi) / 2 == hi
    b = full_binarize(sparsetree.make_raw([[lo], [hi]], [0, 1]))
    assert b.column_meta == ((0, lo),)
    assert b.columns == (0b01,)


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


def test_rows_matrix_matches_per_column_unpacking():
    # sample counts off the byte edge, one sample, and no columns at all
    rng = np.random.default_rng(4)
    for n, m in ((13, 5), (8, 3), (61, 9), (1, 4), (1, 1), (7, 0), (1, 0)):
        x = rng.integers(0, 3, size=(n, 1)).astype(float)
        thresholds = [(0, float(t)) for t in rng.uniform(-0.5, 2.5, size=m)]
        b = sparsetree.binarize_with_thresholds(
            sparsetree.make_raw(x, rng.integers(0, 2, size=n)), thresholds
        )
        assert (b.n_samples, b.n_columns) == (n, m)
        want = np.zeros((n, m), dtype=np.uint8)
        for c in range(m):
            want[:, c] = bits_to_bools(b.columns[c], n)
        got = b.rows_matrix()
        assert got.dtype == np.uint8 and got.shape == (n, m)
        assert np.array_equal(got, want)


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
    with pytest.raises(DataFormatError, match="2-dimensional"):
        sparsetree.make_raw([1.0, 2.0], [0, 1])
    with pytest.raises(DataFormatError, match="no feature columns"):
        sparsetree.make_raw(np.zeros((2, 0)), [0, 1])
    with pytest.raises(DataFormatError, match="one value per sample"):
        sparsetree.make_raw([[1.0], [2.0]], [0])
    with pytest.raises(DataFormatError, match="name count"):
        sparsetree.make_raw([[1.0, 2.0]], [0], ["a"])
    with pytest.raises(DataFormatError, match="duplicate feature names"):
        sparsetree.make_raw([[1.0, 2.0]], [0], ["a", "a"])


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


@pytest.mark.parametrize("text, message", [
    ("", "empty file"),
    ("\nfeature0≤0.5,label\n1,0\n", "empty header"),
    ("feature0≤0.5,y\n1,0\n", "last header cell"),
    ("a≤0.5,label\n1,0\n", "header column 1"),
    ("feature0≤x,label\n1,0\n", "header column 1"),
    ("feature0≤0.5,feature-1≤0.5,label\n1,0,0\n", "header column 2"),
    ("feature0≤0.5,label\n1\n", "row 1 has 1 cells"),
    ("feature0≤0.5,label\n2,0\n", "non-binary cell at row 1"),
    ("feature0≤0.5,label\n1,0\n0,2\n", "label outside"),
    ("feature0≤0.5,label\n", "no samples"),
    # a tree names a column by (feature, threshold), so with two copies it
    # would name the later one, not necessarily the one the solve split
    ("feature0≤0.5,feature1≤2.5,feature0≤0.50,label\n1,0,1,1\n",
     "header columns 1 and 3 are both feature0≤0.5$"),
    # nan != nan, so a repeated nan header would pass the repeat check
    ("feature0≤nan,feature0≤nan,label\n1,0,1\n0,1,0\n", "header column 1 has a non-finite threshold 'nan'"),
    ("feature0≤inf,label\n1,0\n", "header column 1 has a non-finite threshold 'inf'"),
    ("feature0≤0.5,feature1≤-inf,label\n1,0,0\n", "header column 2 has a non-finite threshold '-inf'"),
    # int() takes each of these indices, but the writer never puts them, and
    # a tree would name feature1 for the first two
    ("feature01≤0.5,feature1_0≤0.5,label\n1,0,1\n1,0,1\n0,1,0\n0,1,0\n", "header column 1"),
    ("feature0≤0.5,feature1_0≤0.5,label\n1,0,1\n", "header column 2"),
    ("feature0≤0.5,feature+1≤0.5,label\n1,0,1\n", "header column 2"),
    ("feature0≤0.5,feature\u0661≤0.5,label\n1,0,1\n", "header column 2"),
    ("feature00≤0.5,label\n1,0\n", "header column 1"),
], ids=["empty-file", "blank-header", "no-label-cell", "not-a-feature", "bad-threshold",
        "negative-index", "short-row", "non-binary-cell", "bad-label", "no-rows",
        "repeated-indicator", "nan-threshold", "inf-threshold", "minus-inf-threshold",
        "leading-zero-index", "underscore-index", "plus-sign-index", "non-ascii-digit-index",
        "zero-padded-zero-index"])
def test_read_binary_csv_rejections(tmp_path, text, message):
    p = tmp_path / "b.csv"
    p.write_text(text)
    with pytest.raises(DataFormatError, match=message):
        read_binary_csv(p)


def test_read_binary_csv_missing_file(tmp_path):
    with pytest.raises(DataFormatError, match="cannot open"):
        read_binary_csv(tmp_path / "absent.csv")


def test_csv_readers_skip_a_byte_order_mark(tmp_path):
    raw_path, bin_path = tmp_path / "d.csv", tmp_path / "b.csv"
    raw_path.write_text("\ufeffâge,label\n1,0\n2,1\n", encoding="utf-8")
    bin_path.write_text("\ufefffeature0≤1.5,label\n1,0\n0,1\n", encoding="utf-8")
    assert sparsetree.load_csv(raw_path).feature_names == ("âge",)
    assert read_binary_csv(bin_path).column_meta == ((0, 1.5),)


# ---------------------------------------------------------------- equivalence

def _binary_from_rows(rows, labels):
    raw = sparsetree.make_raw(np.asarray(rows, dtype=float), labels)
    return sparsetree.binarize_with_thresholds(
        raw, [(j, 0.5) for j in range(raw.n_features)]
    )


def _classes(eq):
    """The partition eq.ids describes, as sorted lists of sample indices."""
    assert eq.ids.shape == eq.labels.shape
    assert sorted(set(eq.ids.tolist())) == list(range(eq.n_classes))
    return sorted(np.flatnonzero(eq.ids == k).tolist() for k in range(eq.n_classes))


def test_equivalence_classes_basic():
    b = _binary_from_rows([[0, 1], [0, 1], [1, 0]], [0, 1, 1])
    eq = equivalence_classes(b)
    assert sorted(map(sorted, class_groups(b))) == [[0, 1], [2]]
    assert _classes(eq) == [[0, 1], [2]]
    assert minority_total(eq, b.full_mask) == 1


def test_equivalence_classes_all_distinct():
    b = _binary_from_rows([[0, 0], [0, 1], [1, 0], [1, 1]], [0, 1, 1, 0])
    eq = equivalence_classes(b)
    assert len(class_groups(b)) == 4
    assert eq.n_classes == 4
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
    assert sorted(map(sorted, class_groups(b))) == expect
    assert _classes(eq) == expect


def test_equivalence_invariant_under_column_permutation():
    rng = np.random.default_rng(6)
    x = rng.integers(0, 2, size=(20, 4))
    y = rng.integers(0, 2, size=20)
    b1, b2 = _binary_from_rows(x, y), _binary_from_rows(x[:, ::-1], y)
    g1, g2 = class_groups(b1), class_groups(b2)
    assert sorted(map(sorted, g1)) == sorted(map(sorted, g2))
    assert _classes(equivalence_classes(b1)) == _classes(equivalence_classes(b2))
    assert _classes(equivalence_classes(b1)) == sorted(map(sorted, g1))


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
    assert np.array_equal(equivalence_classes(twin).ids, first.ids)
    assert equivalence_classes(twin).n_classes == first.n_classes
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
    assert minority_total(eq, 0b1100) == 0


def _per_group_recount(b, y, bits):
    total = 0
    for grp in class_groups(b):
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
        assert minority_total(eq, s) == _per_group_recount(b, y, s)


def test_minority_bits_counts_and_restricts_to_whole_classes():
    rng = np.random.default_rng(9)
    for _ in range(10):
        x = rng.integers(0, 2, size=(40, 3))
        y = rng.integers(0, 2, size=40)
        b = _binary_from_rows(x, y)
        eq = equivalence_classes(b)
        root = bools_to_bits(rng.integers(0, 2, size=40).astype(bool))
        mask = minority_bits(eq, root)
        assert mask.bit_count() == _per_group_recount(b, y, root)
        assert mask & ~root == 0
        # a support cut from the root along whole classes needs no recount:
        # its minority members are the root's, restricted to it
        sub = 0
        for grp in class_groups(b):
            if rng.random() < 0.5:
                for i in grp:
                    sub |= 1 << i
        sub &= root
        assert minority_bits(eq, sub) == mask & sub
        assert (mask & sub).bit_count() == _per_group_recount(b, y, sub)


def _minority_recount(b, bits):
    """Per-class rarer-label members inside bits, label 1 on a tie."""
    out = 0
    for grp in class_groups(b):
        inside = [i for i in grp if bits >> i & 1]
        pos = [i for i in inside if b.labels[i] == 1]
        take = pos if 2 * len(pos) <= len(inside) else [i for i in inside if b.labels[i] == 0]
        for i in take:
            out |= 1 << i
    return out


@pytest.mark.parametrize("m", [0, 1, 7, 8, 9, 17, 30])
def test_minority_bits_matches_a_per_class_recount(m):
    # column counts on both sides of the 8-column byte edges of the packed
    # rows; few distinct rows, each repeated with mixed labels
    rng = np.random.default_rng(100 + m)
    n = 120
    for _ in range(6):
        base = rng.integers(0, 2, size=(int(rng.integers(1, 8)), m))
        if m:
            # rows that differ only in the last column, past any byte edge
            flipped = base.copy()
            flipped[:, -1] ^= 1
            base = np.vstack([base, flipped])
        if m >= 2:
            base[:, 1] = base[:, 0]  # a duplicate column
        x = base[rng.integers(0, len(base), size=n)]
        y = rng.integers(0, 2, size=n)
        if m:
            b = _binary_from_rows(x, y)
        else:
            b = sparsetree.binarize_with_thresholds(sparsetree.make_raw(np.zeros((n, 1)), y), [])
        assert b.n_columns == m
        eq = equivalence_classes(b)
        groups = class_groups(b)
        assert eq.n_classes == len(groups)
        assert _classes(eq) == sorted(map(sorted, groups))
        halves = 0
        for grp in groups:
            for i in grp[::2]:
                halves |= 1 << i
        cut = bools_to_bits(rng.integers(0, 2, size=n).astype(bool))
        for bits in (b.full_mask, 0, halves, cut, cut & halves):
            assert minority_bits(eq, bits) == _minority_recount(b, bits)


@pytest.mark.parametrize("m", [0, 1, 7, 8, 9, 17])
def test_class_space_columns_match_per_class_rows(m):
    # bit k of a class-space column is the column's value on every member of
    # class k.  Few distinct rows, each repeated; m = 0 is the one-class
    # partition with no columns
    rng = np.random.default_rng(200 + m)
    n = 90
    for _ in range(5):
        base = rng.integers(0, 2, size=(int(rng.integers(1, 12)), m))
        x = base[rng.integers(0, len(base), size=n)]
        y = rng.integers(0, 2, size=n)
        if m:
            b = _binary_from_rows(x, y)
        else:
            b = sparsetree.binarize_with_thresholds(sparsetree.make_raw(np.zeros((n, 1)), y), [])
        eq = equivalence_classes(b)
        assert len(eq.columns) == b.n_columns == m
        for k in range(eq.n_classes):
            members = np.flatnonzero(eq.ids == k).tolist()
            for c, col in enumerate(eq.columns):
                assert {b.columns[c] >> i & 1 for i in members} == {col >> k & 1}
        for col in eq.columns:
            assert col >> eq.n_classes == 0


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
