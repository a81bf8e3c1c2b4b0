import gc
import sys
from dataclasses import asdict, replace
from fractions import Fraction

import numpy as np
import pytest

import sparsetree
from sparsetree import boosting, evaluation, guessing, solver, trees
from sparsetree.dataset import bits_to_bools
from sparsetree.solver import Regularizer, SolverConfig

from conftest import class_groups, masked_min_units, random_binary, random_raw


def _xor_binary():
    raw = sparsetree.make_raw(
        [[0.0, 0.0], [0.0, 1.0], [1.0, 0.0], [1.0, 1.0]], [0, 1, 1, 0]
    )
    return sparsetree.full_binarize(raw)


# ---------------------------------------------------------------- regularizer

def test_regularizer_lowest_terms():
    reg = Regularizer.from_text("0.01", 100)
    assert (reg.numer, reg.denom) == (1, 100)
    assert reg.value == Fraction(1, 100)
    assert reg.leaf_penalty_units == 100
    reg64 = Regularizer.from_text("1/64", 32)
    assert (reg64.numer, reg64.denom) == (1, 64)
    zero = Regularizer.from_text("0", 5)
    assert (zero.numer, zero.denom) == (0, 1)
    assert zero.leaf_penalty_units == 0


def test_regularizer_units_round_trip():
    reg = Regularizer.from_text("1/100", 100)
    assert reg.units(2, 1) == 300
    assert reg.fraction(300) == Fraction(3, 100)
    assert reg.fraction(reg.units(7, 3)) == Fraction(7, 100) + 3 * Fraction(1, 100)


def test_regularizer_rejections():
    with pytest.raises(ValueError, match="cannot parse"):
        Regularizer.from_text("abc", 10)
    with pytest.raises(ValueError, match=">= 0"):
        Regularizer.from_text("-1/2", 10)
    with pytest.raises(ValueError, match="sample"):
        Regularizer.from_text("0.1", 0)
    # an exact rational, but reports give the objective as a float too
    with pytest.raises(ValueError, match="too large for a float"):
        Regularizer.from_text("1e400", 10)
    assert Regularizer.from_text("1e300", 10).value == 10 ** 300


# ---------------------------------------------------------------- one-leaf solves

def _solve_four(labels4):
    """Depth-1 solve on four samples, where the one column is constant."""
    raw = sparsetree.make_raw([[0.0]] * 4, labels4)
    bin_data = sparsetree.binarize_with_thresholds(raw, [(0, 0.5)])
    reg = Regularizer.from_text("0.01", 4)
    cfg = SolverConfig(reg, depth_limit=1)
    return reg, solver.optimize(bin_data, cfg)


def test_majority_leaf_on_a_root_support():
    _, res = _solve_four([1, 1, 1, 0])
    assert res.tree == trees.Leaf(1)
    assert res.objective == Fraction(1, 4) + Fraction(1, 100)


def test_tied_leaf_predicts_zero():
    _, res = _solve_four([1, 1, 0, 0])
    assert res.tree == trees.Leaf(0)
    assert res.objective == Fraction(1, 2) + Fraction(1, 100)


def test_pure_root_support_costs_one_leaf():
    reg, res = _solve_four([1, 1, 1, 1])
    assert res.tree == trees.Leaf(1)
    assert res.objective == reg.value


# ---------------------------------------------------------------- small exact solves

def test_xor_zero_lambda_needs_four_leaves():
    bin_data = _xor_binary()
    cfg = SolverConfig(Regularizer.from_text("0", 4), depth_limit=2)
    res = solver.optimize(bin_data, cfg)
    assert res.objective == 0
    assert res.loss_count == 0
    assert res.leaf_count == 4
    assert res.depth == 2
    assert res.status == "optimal"
    assert not res.lb_guess_active


def test_xor_heavy_lambda_collapses_to_leaf():
    bin_data = _xor_binary()
    cfg = SolverConfig(Regularizer.from_text("0.3", 4), depth_limit=2)
    res = solver.optimize(bin_data, cfg)
    assert res.objective == Fraction(4, 5)
    assert res.leaf_count == 1
    assert res.depth == 0
    assert res.loss_count == 2
    assert isinstance(res.tree, trees.Leaf)


def test_single_sample_is_created_not_expanded():
    raw = sparsetree.make_raw([[1.0]], [1])
    one = sparsetree.binarize_with_thresholds(raw, [(0, 5.0)])
    res = solver.optimize(one, SolverConfig(Regularizer.from_text("1/2", 1), depth_limit=3))
    assert asdict(res.counters) == {"created": 1, "expanded": 0, "closed_by_guess": 0, "cache_hits": 0}
    assert res.tree == trees.Leaf(1)
    assert res.loss_count == 0
    assert res.objective == Fraction(1, 2)
    assert res.status == "optimal"


def test_matches_masked_dp_on_random_instances():
    rng = np.random.default_rng(0)
    lams = ["0", "1/64", "1/20"]
    for trial in range(9):
        bin_data = random_binary(rng, max_n=24, max_cols=6)
        reg = Regularizer.from_text(lams[trial % 3], bin_data.n_samples)
        depth = 2 + trial % 2
        res = solver.optimize(bin_data, SolverConfig(reg, depth_limit=depth))
        want = masked_min_units(bin_data, depth, reg, bin_data.full_mask)
        assert res.objective_units == want
        assert res.status == "optimal"
        # the reported tree really achieves the reported objective
        assert trees.objective(res.tree, bin_data, reg) == res.objective
        assert res.depth <= depth


def test_unbounded_agrees_with_bounded_at_its_depth():
    rng = np.random.default_rng(2)
    for _ in range(5):
        bin_data = random_binary(rng, max_n=18, max_cols=5)
        reg = Regularizer.from_text("1/16", bin_data.n_samples)
        free = solver.optimize(bin_data, SolverConfig(reg, depth_limit=None))
        assert free.status == "optimal"
        pinned = solver.optimize(
            bin_data, SolverConfig(reg, depth_limit=max(free.depth, 1))
        )
        assert pinned.objective_units == free.objective_units


def _records(search):
    """Every record in the search's cache, depth by depth."""
    return [rec for level in search.recs.values() for rec in level.values()]


def _entries(rec):
    """A record's recorded splits as (column, left, right): three entries at
    a time from its flat list.  A terminal record's split is its column
    alone, both sides forced leaves, so it yields none."""
    if type(rec.splits) is int:
        return []
    it = iter(rec.splits)
    return list(zip(it, it, it))


def _solved(rec):
    """A record is solved exactly when it has dropped its sample mask."""
    return rec.bits is None


def _leaf_units(rec, reg):
    """The units of rec's support as one majority leaf, from its counts."""
    return reg.denom * min(rec.pos, rec.n - rec.pos) + reg.leaf_penalty_units


def _supports(search, root_rec):
    """Each record's support over samples, walked down the recorded splits
    from the root: every record is created as one side of some split, and a
    solved record no longer keeps its own.  A record reached along two paths
    must have one support there."""
    columns = search.bin.columns
    got = {root_rec: search.bin.full_mask}
    todo = [root_rec]
    while todo:
        rec = todo.pop()
        bits = got[rec]
        for j, cl, cr in _entries(rec):
            bl = bits & columns[j]
            for child, side in ((cl, bl), (cr, bits ^ bl)):
                if type(child) is int:  # a forced leaf's units
                    continue
                if child in got:
                    assert got[child] == side
                else:
                    got[child] = side
                    todo.append(child)
    assert len(got) == len(_records(search))
    return got


def test_cache_holds_subproblem_optima():
    rng = np.random.default_rng(3)
    bin_data = random_binary(rng, max_n=22, max_cols=5)
    n = bin_data.n_samples
    reg = Regularizer.from_text("1/64", n)
    cfg = SolverConfig(reg, depth_limit=3)
    search = solver._Search(bin_data, cfg)
    root_rec, _ = search.run()
    support = _supports(search, root_rec)
    checked = 0
    for rec in _records(search):
        if not _solved(rec):
            continue
        # the DP's optimum over the whole dataset, counting loss only on the
        # support, is the support's own optimum: a leaf holding none of it
        # could merge with its sibling
        assert rec.upper == masked_min_units(bin_data, rec.depth, reg, support[rec])
        checked += 1
        if checked >= 12:
            break
    assert checked > 0


# ---------------------------------------------------------------- lb guessing

def _noisy_reference(bin_data, rng, err=0.15):
    labels = np.asarray(
        [(bin_data.pos_mask >> i) & 1 for i in range(bin_data.n_samples)]
    )
    preds = labels.copy()
    flips = rng.random(bin_data.n_samples) < err
    preds[flips] ^= 1
    return guessing.reference_from_predictions(preds, labels)


def test_guessed_solve_is_labeled_and_bounded_below_by_exact():
    rng = np.random.default_rng(4)
    for _ in range(6):
        bin_data = random_binary(rng, max_n=24, max_cols=6)
        reg = Regularizer.from_text("1/20", bin_data.n_samples)
        exact = solver.optimize(bin_data, SolverConfig(reg, depth_limit=3))
        ref = _noisy_reference(bin_data, rng)
        if ref.single_class:
            continue
        guessed = solver.optimize(
            bin_data, SolverConfig(reg, depth_limit=3, reference=ref)
        )
        assert guessed.lb_guess_active
        assert guessed.status == "guess-certified"
        assert guessed.objective_units >= exact.objective_units
        # reported tree still achieves the reported objective
        assert trees.objective(guessed.tree, bin_data, reg) == guessed.objective


def test_guessed_objective_beats_reference_completions():
    # the guessed optimum must cost no more than reference errors plus the
    # best tree on the points the reference got right
    rng = np.random.default_rng(5)
    for _ in range(4):
        bin_data = random_binary(rng, max_n=20, max_cols=5)
        reg = Regularizer.from_text("1/20", bin_data.n_samples)
        ref = _noisy_reference(bin_data, rng)
        if ref.single_class:
            continue
        guessed = solver.optimize(
            bin_data, SolverConfig(reg, depth_limit=3, reference=ref)
        )
        correct_bits = bin_data.full_mask & ~(ref.predicted ^ ref.labels)
        bound = reg.denom * ref.incorrect_count + masked_min_units(
            bin_data, 3, reg, correct_bits
        )
        assert guessed.objective_units <= bound


def test_single_class_reference_is_refused():
    bin_data = _xor_binary()
    ref = guessing.reference_from_predictions([0, 0, 0, 0], [0, 1, 1, 0])
    assert ref.single_class
    cfg = SolverConfig(
        Regularizer.from_text("0", 4), depth_limit=2, reference=ref
    )
    res = solver.optimize(bin_data, cfg)
    assert res.refused_lb_guess
    assert not res.lb_guess_active
    assert res.status == "optimal"
    assert res.counters.closed_by_guess == 0
    plain = solver.optimize(
        bin_data, SolverConfig(Regularizer.from_text("0", 4), depth_limit=2)
    )
    assert res.objective_units == plain.objective_units


def test_a_reference_without_mistakes_searches_as_the_exact_solve():
    # an exact solve counts zero mistakes, so a reference that makes none
    # guesses one leaf penalty, which never passes the certified floor: the
    # two searches match record for record, and only the label differs
    rng = np.random.default_rng(32)
    cut = 0
    for _ in range(5):
        bin_data = sparsetree.full_binarize(random_raw(rng, int(rng.integers(40, 100)), 3, levels=1))
        labels = bin_data.labels
        ref = guessing.reference_from_predictions(labels, labels)
        reg = Regularizer.from_text("1/50", bin_data.n_samples)
        for depth, max_records in ((3, None), (None, None), (3, 60), (None, 60)):
            exact = solver.optimize(bin_data, SolverConfig(reg, depth, max_records=max_records))
            guessed = solver.optimize(
                bin_data, SolverConfig(reg, depth, reference=ref, max_records=max_records))
            assert guessed.lb_guess_active
            assert asdict(guessed.counters) == asdict(exact.counters)
            assert guessed.counters.closed_by_guess == 0
            assert guessed.objective_units == exact.objective_units
            assert repr(guessed.tree) == repr(exact.tree)
            if exact.status == "optimal":
                assert guessed.status == "guess-certified"
            else:
                assert guessed.status == exact.status == "record-limit"
                cut += 1
    assert cut >= 5


# ---------------------------------------------------------------- run controls

def test_zero_time_budget_reports_partial_leaf():
    rng = np.random.default_rng(6)
    bin_data = random_binary(rng, max_n=40, max_cols=8)
    reg = Regularizer.from_text("1/64", bin_data.n_samples)
    res = solver.optimize(
        bin_data, SolverConfig(reg, depth_limit=4, time_limit_s=0.0)
    )
    assert res.status == "time-limit"
    assert res.counters.expanded == 0
    assert isinstance(res.tree, trees.Leaf)
    n, pos = bin_data.n_samples, bin_data.pos_mask.bit_count()
    assert res.objective == Fraction(min(pos, n - pos), n) + reg.value


def test_record_budget_returns_the_best_tree_so_far():
    bin_data = _xor_binary()
    cfg = SolverConfig(
        Regularizer.from_text("0", 4), depth_limit=2, max_records=1
    )
    res = solver.optimize(bin_data, cfg)
    # the root is expanded once, creating both sides of both columns, and
    # the search stops before the next expansion; at lambda 0 the leaf ties
    # its two-leaf splits in units and wins on leaves
    assert res.status == "record-limit"
    assert asdict(res.counters) == {"created": 5, "expanded": 1, "closed_by_guess": 0, "cache_hits": 0}
    assert res.tree == trees.Leaf(0)
    assert res.objective == Fraction(1, 2)


def test_reference_scored_on_other_labels_is_refused():
    # mistakes counted against other labels than the solved ones bound the
    # search by the wrong counts: such solves came back guess-certified
    # above criterion 3's bound
    rng = np.random.default_rng(26)
    refused = 0
    for _ in range(40):
        bin_data = random_binary(rng, max_n=24, max_cols=6)
        n = bin_data.n_samples
        labels = bits_to_bools(bin_data.pos_mask, n)
        given = labels ^ (rng.random(n) < 0.3)
        if np.array_equal(given, labels):
            continue
        preds = labels ^ (rng.random(n) < 0.15)
        ref = guessing.reference_from_predictions(preds.astype(int), given.astype(int))
        cfg = SolverConfig(Regularizer.from_text("1/20", n), depth_limit=3, reference=ref)
        with pytest.raises(ValueError, match="other labels"):
            solver.optimize(bin_data, cfg)
        refused += 1
    assert refused >= 30


def test_validation_rejections():
    raw = sparsetree.make_raw([[1.0], [2.0]], [0, 1])
    empty_cols = sparsetree.binarize_with_thresholds(raw, [])
    reg2 = Regularizer.from_text("0.1", 2)
    with pytest.raises(ValueError, match="no binary columns"):
        solver.optimize(empty_cols, SolverConfig(reg2))
    bin_data = sparsetree.full_binarize(raw)
    with pytest.raises(ValueError, match="does not match"):
        solver.optimize(bin_data, SolverConfig(Regularizer.from_text("0.1", 3)))
    # a reference scored on another dataset: 4 predictions for 2 samples
    other = guessing.reference_from_predictions([0, 1, 1, 0], [0, 1, 0, 0])
    with pytest.raises(ValueError, match="other labels"):
        solver.optimize(bin_data, SolverConfig(reg2, reference=other))
    # a fractional depth never reaches 0, so it would leave the search unbounded
    for depth in (0, 1.5, 2.0):
        with pytest.raises(ValueError, match="depth_limit"):
            SolverConfig(reg2, depth_limit=depth)
    # True is an int to isinstance, but it is no depth: it used to solve at depth 1
    with pytest.raises(ValueError, match="depth_limit"):
        SolverConfig(reg2, depth_limit=True)
    for records in (0, -1, True, 2.5):
        with pytest.raises(ValueError, match="max_records"):
            SolverConfig(reg2, max_records=records)
    # True used to be a 1 s budget, and "5" raised TypeError from math.isfinite
    for seconds in (-1.0, float("nan"), float("inf"), float("-inf"), True, "5"):
        with pytest.raises(ValueError, match="time_limit_s"):
            SolverConfig(reg2, time_limit_s=seconds)
    # the unset defaults and the edges stay allowed
    SolverConfig(reg2, max_records=None, time_limit_s=None)
    SolverConfig(reg2, max_records=1, time_limit_s=0.0)
    SolverConfig(reg2, time_limit_s=2)


def test_equiv_bound_is_an_optimization_only():
    rng = np.random.default_rng(7)
    for _ in range(4):
        bin_data = random_binary(rng, max_n=20, max_cols=5)
        reg = Regularizer.from_text("1/32", bin_data.n_samples)
        on = solver.optimize(bin_data, SolverConfig(reg, depth_limit=3))
        assert on.objective_units == evaluation.brute_force_optimal(bin_data, reg, 3).objective_units


def test_reruns_are_identical():
    rng = np.random.default_rng(8)
    bin_data = random_binary(rng, max_n=30, max_cols=7)
    reg = Regularizer.from_text("1/50", bin_data.n_samples)

    def solve():
        return solver.optimize(bin_data, SolverConfig(reg, depth_limit=3))

    a, b = solve(), solve()
    assert trees.to_json(a.tree) == trees.to_json(b.tree)
    assert solver.run_report(a) == solver.run_report(b)


def test_run_report_shape():
    bin_data = _xor_binary()
    res = solver.optimize(
        bin_data, SolverConfig(Regularizer.from_text("1/20", 4), depth_limit=2)
    )
    rep = solver.run_report(res)
    assert rep["status"] == "optimal"
    assert rep["objective"]["value"] == str(res.objective)
    assert rep["objective"]["leaves"] == res.leaf_count
    assert rep["regularization"] == {"lambda": "1/20", "n_samples": 4}
    assert rep["depth_limit"] == 2
    assert rep["lb_guess"] == {"active": False, "refused_single_class": False}
    assert set(rep["counters"]) == {"created", "expanded", "closed_by_guess", "cache_hits"}


# ---------------------------------------------------------------- search order and incremental bounds

def _pinned_instances():
    """Seeded solves of three kinds: exact, guessed, unbounded."""
    dense = sparsetree.full_binarize(random_raw(np.random.default_rng(10), 200, 4, levels=3))
    reg = Regularizer.from_text("1/100", dense.n_samples)
    # this draw has guess-closed children that lower a split's lower sum,
    # and children whose upper bound falls without waking their parents
    coarse = sparsetree.full_binarize(random_raw(np.random.default_rng(37), 150, 4, levels=1))
    ref = _noisy_reference(coarse, np.random.default_rng(38))
    small = sparsetree.full_binarize(random_raw(np.random.default_rng(12), 60, 3, levels=1))
    return {
        "exact": (dense, SolverConfig(reg, depth_limit=3)),
        "guessed": (
            coarse,
            SolverConfig(Regularizer.from_text("1/64", coarse.n_samples), depth_limit=3, reference=ref),
        ),
        "unbounded": (small, SolverConfig(Regularizer.from_text("1/50", small.n_samples))),
    }


_PINNED_TREES = {
    "exact": (
        "Split(feature='x3', threshold=0.16666666666666666, "
        "on_true=Split(feature='x0', threshold=-1.5, on_true=Leaf(prediction=0), on_false=Leaf(prediction=1)), "
        "on_false=Split(feature='x0', threshold=0.8333333333333333, "
        "on_true=Leaf(prediction=0), on_false=Leaf(prediction=1)))"
    ),
    "guessed": (
        "Split(feature='x3', threshold=0.5, "
        "on_true=Split(feature='x0', threshold=0.5, on_true=Leaf(prediction=0), on_false=Leaf(prediction=1)), "
        "on_false=Leaf(prediction=0))"
    ),
    "unbounded": (
        "Split(feature='x2', threshold=0.5, "
        "on_true=Split(feature='x0', threshold=0.5, "
        "on_true=Split(feature='x2', threshold=-0.5, "
        "on_true=Split(feature='x1', threshold=-1.5, on_true=Leaf(prediction=0), on_false=Leaf(prediction=1)), "
        "on_false=Split(feature='x0', threshold=-0.5, on_true=Leaf(prediction=1), on_false=Leaf(prediction=0))), "
        "on_false=Leaf(prediction=1)), "
        "on_false=Leaf(prediction=0))"
    ),
}


def test_search_counters_are_pinned():
    # exact objective, counters and extracted tree of seeded solves: any
    # change in search order or in extraction's tie rules shows up here
    want = {
        "exact": (4100, {"created": 3763, "expanded": 3567, "closed_by_guess": 0, "cache_hits": 5466}),
        "guessed": (2114, {"created": 410, "expanded": 306, "closed_by_guess": 80, "cache_hits": 238}),
        "unbounded": (860, {"created": 1288, "expanded": 1034, "closed_by_guess": 0, "cache_hits": 9511}),
    }
    for name, (bin_data, cfg) in _pinned_instances().items():
        units, counters = want[name]
        res = solver.optimize(bin_data, cfg)
        assert (res.objective_units, asdict(res.counters)) == (units, counters), name
        assert repr(res.tree) == _PINNED_TREES[name], name


def _split_sums(split):
    """(upper sum, lower sum) of one recorded split from its children now;
    a forced leaf's side is its units."""
    _col, left, right = split
    ul = ll = left
    ur = lr = right
    if type(left) is not int:
        ul, ll = left.upper, left.lower
    if type(right) is not int:
        ur, lr = right.upper, right.lower
    return ul + ur, ll + lr


def _heap_min(rec, leaf):
    """rec's lower bound as its heap gives it: the least non-stale entry,
    or the leaf's units."""
    k = len(rec.splits)
    _, sums, lows = rec.refresh
    fresh = [low for low, i in (divmod(e, k) for e in lows) if sums[i] == low]
    return min([leaf] + fresh)


def _check_bounds_against_full_rescan(search):
    """Every expanded, unsolved record's bounds against its splits now.

    Runs between expansions, when every woken parent has been refreshed.
    A child whose upper bound fell while it was expanded leaves its split
    marked on the parent without waking it, so those marks are folded in
    here as the next wake would fold them.  Such marks carry no change of
    a lower sum, so the heap must already hold the full lower bound."""
    reg = search.cfg.regularizer
    for rec in _records(search):
        if rec.refresh is None:  # unexpanded, terminal or solved
            continue
        leaf = _leaf_units(rec, reg)
        sums = [_split_sums(s) for s in _entries(rec)]
        full_upper = min([leaf] + [u for u, _ in sums])
        full_lower = min([leaf] + [l for _, l in sums])
        pending = [sums[i // 3][0] for i in rec.refresh[0]]  # dirty holds list offsets
        assert min([rec.upper] + pending) == full_upper
        assert _heap_min(rec, leaf) == full_lower
        assert rec.lower >= full_lower


def test_incremental_bounds_match_a_full_rescan():
    for name, (bin_data, cfg) in _pinned_instances().items():
        search = solver._Search(bin_data, cfg)
        expand = search._expand
        seen = {"expanded": 0}

        def expand_and_check(rec):
            expand(rec)
            seen["expanded"] += 1
            if seen["expanded"] % 5 == 0:
                _check_bounds_against_full_rescan(search)

        search._expand = expand_and_check
        root_rec, stopped_by = search.run()
        assert _solved(root_rec) and stopped_by is None, name
        _check_bounds_against_full_rescan(search)
        assert seen["expanded"] >= 300, name


def _two_leaf_scan(bin_data, reg, bits):
    """(units, column, (left units, right units)) of the best split of the
    support into two majority leaves: the least units over every column that
    divides it, the first such column on ties; None when no column does."""
    q, pen = reg.denom, reg.leaf_penalty_units
    best = None
    for j, c in enumerate(bin_data.columns):
        sides = []
        for side in (bits & c, bits & ~c):
            n = side.bit_count()
            pos = (side & bin_data.pos_mask).bit_count()
            if n == 0:
                break
            sides.append(q * min(pos, n - pos) + pen)
        else:
            if best is None or sum(sides) < best[0]:
                best = (sum(sides), j, tuple(sides))
    return best


def test_terminal_expansion_matches_a_column_scan():
    cases = _pinned_instances()
    del cases["unbounded"]  # no depth limit, so no terminal records
    dense = cases["exact"][0]
    coarse = cases["guessed"][0]
    cases["zero_lambda"] = (dense, SolverConfig(Regularizer.from_text("0", dense.n_samples), depth_limit=2))
    # lambda = 1/2 makes two leaves cost at least one leaf of any support
    for name, data in (("heavy_dense", dense), ("heavy_coarse", coarse)):
        cases[name] = (data, SolverConfig(Regularizer.from_text("1/2", data.n_samples), depth_limit=1))
    for name, (bin_data, cfg) in cases.items():
        reg = cfg.regularizer
        pen = reg.leaf_penalty_units
        search = solver._Search(bin_data, cfg)
        # how each terminal record is solved: closed by the floor without a
        # scan, from the outcome its sibling derived, or by its own scan
        how = {}
        expanded = set()
        expand, expand_terminal = search._expand, search._expand_terminal

        def note_and_expand(rec):
            expanded.add(rec)
            expand(rec)

        def classify_and_expand(rec):
            if rec.sib is not None and rec.sib[0] is None:
                how[rec] = "derived"
            elif rec.sib is None and search._floor(rec.bits) + pen >= rec.upper:
                how[rec] = "floor"
            else:
                how[rec] = "scanned"
            expand_terminal(rec)

        search._expand = note_and_expand
        search._expand_terminal = classify_and_expand
        root_rec, _ = search.run()
        support = _supports(search, root_rec)
        kept = empty = 0
        for rec in _records(search):
            if rec not in expanded or rec.depth != 1:
                continue
            assert rec in how, name
            assert _solved(rec) and rec.lower == rec.upper, name
            scan = _two_leaf_scan(bin_data, reg, support[rec])
            if scan is not None and scan[0] < _leaf_units(rec, reg):
                units, j, _ = scan
                assert rec.splits == j, name
                assert rec.upper == units, name
                kept += 1
            else:
                assert rec.splits == (), name
                assert rec.upper == _leaf_units(rec, reg), name
                empty += 1
        assert len(how) == kept + empty, name
        counts = {k: list(how.values()).count(k) for k in ("floor", "derived", "scanned")}
        if name.startswith("heavy"):
            assert (kept, empty) == (0, 1), name
            assert root_rec.depth == 1 and 2 * reg.leaf_penalty_units >= _leaf_units(root_rec, reg)
            # the floor alone rules out every split of that record
            assert counts["floor"] == 1, name
        else:
            assert kept >= 20, (name, kept)
        if name == "exact":
            assert counts["floor"] > 0 and counts["derived"] > 0, counts


def test_scan_lists_hold_every_column_that_splits_the_support():
    # a record scans the columns that split its first creator's support; the
    # list must still hold every column that splits its own support, in
    # column order, each with the samples whose label equals its bit
    for name, (bin_data, cfg) in _pinned_instances().items():
        search = solver._Search(bin_data, cfg)
        # the record each expansion creates: an expanded terminal record
        # drops its parent links, so creators are noted as they happen
        creator, scans, expanding = {}, {}, [None]
        expand, create = search._expand, search._create

        def note_expand(rec):
            expanding[0] = rec
            expand(rec)

        def note_create(*args):
            known = search.counters.created
            rec = create(*args)
            # the expansion looks a child up first, so every call creates
            assert search.counters.created == known + 1, name
            creator[rec] = expanding[0]
            scans[rec] = args[-1]  # the list is dropped once rec is expanded or solved
            return rec

        search._expand, search._create = note_expand, note_create
        root_rec, _ = search.run()
        support = _supports(search, root_rec)
        eq = sparsetree.equivalence_classes(bin_data)
        full, pos_bits = bin_data.full_mask, eq.pos_mask
        for j, c, agree in search.cols:
            assert c == eq.search_mask(bin_data.columns[j]), name
            assert agree == (c & pos_bits) | (full & ~c & ~pos_bits), name

        def splitting(rec):
            bits = support[rec]
            return [j for j, _, _ in search.cols if 0 < (bits & bin_data.columns[j]).bit_count() < rec.n]

        dropped = 0
        for rec in _records(search):
            scan = [j for j, _, _ in scans[rec]]
            assert scan and scan == sorted(scan), name
            assert set(splitting(rec)) <= set(scan), name
            # a child still unsolved when created links to its creator first
            if rec.parents:
                assert scan == splitting(next(iter(rec.parents))), name
            # every child scans its creator's list
            if creator[rec] is not None:
                assert scan == splitting(creator[rec]), name
            dropped += len(search.cols) - len(scan)
        # the lists do leave columns out
        assert dropped > 0, name


def test_records_hold_compact_splits():
    # an expanded record keeps its splits as one flat list of (column, left,
    # right) entries, a terminal one only the column of its two majority
    # leaves, which cost its upper bound; no expanded or solved record keeps
    # a column list
    for name, (bin_data, cfg) in _pinned_instances().items():
        search = solver._Search(bin_data, cfg)
        expanded = set()
        expand = search._expand

        def note_expand(rec):
            expanded.add(rec)
            expand(rec)

        search._expand = note_expand
        root_rec, _ = search.run()
        support = _supports(search, root_rec)
        q, pen = cfg.regularizer.denom, cfg.regularizer.leaf_penalty_units
        columns, pos_bits = bin_data.columns, bin_data.pos_mask
        flat = kept = 0
        for rec in _records(search):
            if rec in expanded or _solved(rec):
                assert rec.scan is None, name
            splits = rec.splits
            if rec not in expanded:
                assert splits == (), name
            elif cfg.depth_limit is not None and rec.depth == 1:
                if type(splits) is not int:
                    assert splits == () and rec.upper == _leaf_units(rec, cfg.regularizer), name
                    continue
                bits = support[rec]
                units = 0
                for side in (bits & columns[splits], bits & ~columns[splits]):
                    n, pos = side.bit_count(), (side & pos_bits).bit_count()
                    assert n > 0, name
                    units += q * min(pos, n - pos) + pen
                assert rec.upper == units < _leaf_units(rec, cfg.regularizer), name
                kept += 1
            else:
                assert type(splits) is list and len(splits) % 3 == 0, name
                cols = splits[::3]
                assert all(type(j) is int for j in cols), name
                assert cols == sorted(set(cols)), name  # in scan order, once each
                assert all(type(s) in (int, solver._Rec) for s in splits[1::3] + splits[2::3]), name
                flat += len(splits) > 0
        assert flat > 0, name
        assert kept > 0 or cfg.depth_limit is None, name


def _check_parent_links(search, expanded):
    """Every unsolved record links back to exactly the splits that have it
    as a side, as flat (parent, offset) pairs in the parents' expansion
    order, once per side, so a parent using it in two splits appears twice.
    Every solved record's close has reached its parents, and it holds ()."""
    want = {}
    for parent in expanded:
        for k, (_, *sides) in enumerate(_entries(parent)):
            for child in sides:
                if type(child) is solver._Rec:
                    want.setdefault(child, []).extend((parent, 3 * k))
    twice = 0
    for rec in _records(search):
        if _solved(rec):
            assert rec.parents == (), rec
            continue
        links = want.get(rec, [])
        assert type(rec.parents) is list and rec.parents == links, rec
        twice += len(links[::2]) - len(set(links[::2]))
    return twice


def test_records_link_back_to_the_splits_that_use_them():
    # checked once the search is cut by a record cap, and again at its end
    twice = 0
    for name, (bin_data, cfg) in _pinned_instances().items():
        created = solver.optimize(bin_data, cfg).counters.created
        for cap in (created // 3, None):
            search = solver._Search(bin_data, replace(cfg, max_records=cap))
            expanded = []
            expand = search._expand

            def note_expand(rec):
                expanded.append(rec)
                expand(rec)

            search._expand = note_expand
            root_rec, stopped_by = search.run()
            assert stopped_by == (None if cap is None else "record-limit"), name
            assert _solved(root_rec) == (cap is None), name
            twice += _check_parent_links(search, expanded)
    # some parent uses one child in two splits
    assert twice > 0


def _unpruned_best(rec, memo, reg):
    """(units, leaves, depth, structure, choice) of rec's best tree over
    every recorded split: the extraction pass without its lower-bound
    prune."""
    got = memo.get(rec)
    if got is None:
        leaf = (1, 0, solver._LEAF_KEY)
        key, choice = (_leaf_units(rec, reg), *leaf), None
        if type(rec.splits) is int:
            # a terminal record's column: two forced leaves costing its upper bound
            cand = (rec.upper, 2, 1, (rec.splits, solver._LEAF_KEY, solver._LEAF_KEY))
            if cand < key:
                key, choice = cand, rec.splits
        for k, (j, cl, cr) in enumerate(_entries(rec)):
            lu, ll, ld, ls = (cl, *leaf) if type(cl) is int else _unpruned_best(cl, memo, reg)[:4]
            ru, rl, rd, rs = (cr, *leaf) if type(cr) is int else _unpruned_best(cr, memo, reg)[:4]
            cand = (lu + ru, ll + rl, 1 + max(ld, rd), (j, ls, rs))
            if cand < key:
                key, choice = cand, 3 * k  # the split's offset in the flat list
        memo[rec] = got = (*key, choice)
    return got


class _TickClock:
    """Stands in for the time module: each monotonic() call is one second
    later, so a time limit of k cuts the search after about k expansions."""

    def __init__(self):
        self.now = 0.0

    def monotonic(self):
        self.now += 1.0
        return self.now


def test_pruned_extraction_matches_a_full_pass(monkeypatch):
    cases = _pinned_instances()
    dense, exact_cfg = cases["exact"]
    cases["time_limit"] = (dense, SolverConfig(exact_cfg.regularizer, depth_limit=3, time_limit_s=40))
    # lambda = 0 on XOR behind an irrelevant first feature: every tree of
    # zero loss ties in units and differs only in leaves, depth and structure
    xor_rows = [[c, a, b] for a in (0.0, 1.0) for b in (0.0, 1.0) for c in (0.0, 1.0)]
    xor = sparsetree.full_binarize(sparsetree.make_raw(xor_rows, [int(a != b) for _, a, b in xor_rows]))
    for depth in (2, 3):
        cases[f"xor_depth_{depth}"] = (
            xor, SolverConfig(Regularizer.from_text("0", xor.n_samples), depth_limit=depth)
        )
    monkeypatch.setattr(solver, "time", _TickClock())
    for name, (bin_data, cfg) in cases.items():
        bits = bin_data.full_mask
        search = solver._Search(bin_data, cfg)
        root_rec, stopped_by = search.run()
        assert stopped_by == ("time-limit" if name == "time_limit" else None), name
        memo, full = {}, {}
        assert search.best(root_rec, memo) == _unpruned_best(root_rec, full, cfg.regularizer), name
        # every record the pruned pass reached has the full pass's key and choice
        for rec, got in memo.items():
            assert got == full[rec], name
        tree = search.build(bits, root_rec, memo)
        assert repr(tree) == repr(search.build(bits, root_rec, full)), name
        if search.guessing:
            # a guess-closed record's lower is not certified: no prune
            assert memo.keys() == full.keys(), name
        elif name == "exact":
            assert len(memo) < len(full) // 10, (len(memo), len(full))


def test_cut_runs_return_a_valid_incumbent(monkeypatch):
    # a search stopped by either budget still returns a tree that scores
    # what the run reports; a record cap the full run never passes changes
    # nothing
    for name, (bin_data, cfg) in _pinned_instances().items():
        reg, limit = cfg.regularizer, cfg.depth_limit
        # a single leaf scores at most 1/2 + lambda, so an unbounded optimum
        # has at most 1/(2 lambda) + 1 leaves and fits in depth 1/(2 lambda)
        dp_depth = limit or reg.denom // (2 * reg.numer)
        optimum = evaluation.brute_force_optimal(
            bin_data, reg, dp_depth, max_columns=bin_data.n_columns, max_depth=dp_depth
        ).objective_units
        full = solver.optimize(bin_data, cfg)
        created = full.counters.created
        runs = []
        for cap in (1, 10, 100, created // 2, created, 2 * created):
            res = solver.optimize(bin_data, replace(cfg, max_records=cap))
            if cap >= created:
                assert (res.status, res.objective_units, asdict(res.counters), repr(res.tree)) == (
                    full.status, full.objective_units, asdict(full.counters), repr(full.tree)
                ), (name, cap)
            else:
                assert res.status == "record-limit", (name, cap)
                # one expansion passes the cap by at most two children per column
                assert cap < res.counters.created <= cap + 2 * bin_data.n_columns, (name, cap)
            runs.append(res)
        for seconds in (0, 5, 40, 200):
            monkeypatch.setattr(solver, "time", _TickClock())
            res = solver.optimize(bin_data, replace(cfg, time_limit_s=seconds))
            assert res.status == "time-limit", (name, seconds)
            runs.append(res)
        for res in runs:
            assert trees.objective(res.tree, bin_data, reg) == res.objective, name
            assert trees.measure(res.tree) == (res.leaf_count, res.depth), name
            assert trees.misclassified_count(res.tree, bin_data) == res.loss_count, name
            assert limit is None or res.depth <= limit, name
            assert res.objective_units == reg.units(res.loss_count, res.leaf_count), name
            # a cut run is a prefix of the full run, whose tree is at least as good
            assert optimum <= full.objective_units <= res.objective_units, name
        assert runs[0].counters.expanded < full.counters.expanded, name
        if not full.lb_guess_active:
            assert full.objective_units == optimum, name


def test_matches_the_exhaustive_dp_at_mid_scale():
    # the DP has no bounds and no search order; its guards are raised for
    # inputs with few distinct supports.  Objective and tree, tie rules
    # included, must match
    wide_raw = random_raw(np.random.default_rng(41), 1500, 4, levels=2)
    wide = sparsetree.full_binarize(wide_raw)
    assert wide.n_columns == 52
    reg = Regularizer.from_text("1/1000", wide.n_samples)
    res = solver.optimize(wide, SolverConfig(reg, depth_limit=3))
    bf = evaluation.brute_force_optimal(wide, reg, 3, max_columns=60)
    assert res.objective_units == bf.objective_units
    assert repr(res.tree) == repr(bf.tree)
    assert res.leaf_count >= 6

    # 200 distinct rows, each three times with independent labels
    rng = np.random.default_rng(50)
    base = random_raw(rng, 200, 3, levels=2)
    dup = sparsetree.full_binarize(sparsetree.make_raw(
        np.vstack([base.features] * 3), rng.integers(0, 2, size=600)
    ))
    assert len(class_groups(dup)) <= 200
    reg = Regularizer.from_text("1/200", dup.n_samples)
    res = solver.optimize(dup, SolverConfig(reg, depth_limit=4))
    bf = evaluation.brute_force_optimal(dup, reg, 4, max_columns=40, max_depth=4)
    assert res.objective_units == bf.objective_units
    assert repr(res.tree) == repr(bf.tree)
    assert res.depth == 4


def test_unbounded_solves_match_the_dp_at_depth_one_over_two_lambda():
    # a single leaf scores at most 1/2 + lambda, so an unbounded optimum has
    # at most 1/(2 lambda) + 1 leaves and fits in depth 1/(2 lambda): the
    # exact unbounded solve is the DP's optimum there, tie rules included.
    # Cut at half its records, the same solve returns a tree no better than
    # that optimum and scoring what it reports; a solve whose root's one
    # expansion ends it cannot be cut
    rng = np.random.default_rng(35)
    draws = [random_binary(rng, max_n=40, max_cols=6) for _ in range(24)]
    cut_short = 0
    for lam in ("1/6", "1/8"):
        for k, bin_data in enumerate(draws):
            reg = Regularizer.from_text(lam, bin_data.n_samples)
            depth = reg.denom // (2 * reg.numer)
            bf = evaluation.brute_force_optimal(bin_data, reg, depth, max_depth=depth)
            res = solver.optimize(bin_data, SolverConfig(reg))
            assert res.status == "optimal", (lam, k)
            assert res.objective_units == bf.objective_units, (lam, k)
            assert repr(res.tree) == repr(bf.tree), (lam, k)
            cut = solver.optimize(bin_data, SolverConfig(reg, max_records=res.counters.created // 2))
            assert cut.status == ("optimal" if res.counters.expanded == 1 else "record-limit"), (lam, k)
            cut_short += cut.status == "record-limit"
            assert bf.objective_units <= cut.objective_units, (lam, k)
            assert trees.objective(cut.tree, bin_data, reg) == cut.objective, (lam, k)
            assert cut.objective_units == reg.units(cut.loss_count, cut.leaf_count), (lam, k)
    assert cut_short >= 30


def test_floor_matches_a_per_group_recount():
    for name, (bin_data, cfg) in _pinned_instances().items():
        search = solver._Search(bin_data, cfg)
        # a record's floor is taken from its sample mask, which its close
        # drops, and a record may close inside _create, so each floor is
        # noted just before its close
        floors = {}
        close = search._close

        def note_close(rec):
            floors[rec] = search._floor(rec.bits)
            close(rec)

        search._close = note_close
        root_rec, _ = search.run()
        assert _solved(root_rec), name
        support = _supports(search, root_rec)
        groups = class_groups(bin_data)
        labels = bin_data.labels
        pen, q = cfg.regularizer.leaf_penalty_units, cfg.regularizer.denom
        ref = cfg.reference
        inc = None if ref is None else ref.predicted ^ ref.labels  # the reference's mistakes
        paid = 0
        for rec in _records(search):
            if ref is None:
                assert rec.miss == 0, name
            else:
                assert rec.miss == (support[rec] & inc).bit_count(), name
            recount = 0
            for group in groups:
                inside = [i for i in group if support[rec] >> i & 1]
                pos = sum(int(labels[i]) for i in inside)
                recount += min(pos, len(inside) - pos)
            floor = floors[rec] if _solved(rec) else search._floor(rec.bits)
            assert floor == pen + q * recount, name
            assert rec.lower >= floor, name
            paid += recount > 0
        # the bound is nonzero on some record
        assert paid > 0, name


def test_cache_is_keyed_by_class_masks():
    # a record is found by the classes its support meets; solved records,
    # expanded terminal ones among them, keep no sample mask and no parent
    # links
    for name, (bin_data, cfg) in _pinned_instances().items():
        search = solver._Search(bin_data, cfg)
        terminal = []
        expand_terminal = search._expand_terminal

        def note_terminal(rec):
            terminal.append(rec)
            expand_terminal(rec)

        search._expand_terminal = note_terminal
        root_rec, _ = search.run()
        support = _supports(search, root_rec)
        eq = sparsetree.equivalence_classes(bin_data)
        ids = eq.ids
        seen = set()
        for depth, level in search.recs.items():
            for cbits, rec in level.items():
                assert depth == rec.depth, name
                meets = {int(ids[i]) for i in range(bin_data.n_samples) if support[rec] >> i & 1}
                assert cbits == sum(1 << k for k in meets), name
                seen.add((support[rec], depth))
                # a record is solved once its bounds meet; until then it
                # holds its support in search order, whose low bits are
                # its key
                in_order = eq.search_mask(support[rec])
                assert in_order & search.root_cbits == cbits, name
                assert rec.bits == (None if rec.lower == rec.upper else in_order), name
        assert len(seen) == len(_records(search)), name
        assert all(_solved(rec) for rec in terminal), name
        assert not any(rec.parents for rec in _records(search) if _solved(rec)), name
        assert terminal or cfg.depth_limit is None, name


def _class_samples(eq):
    """Each class's members as one search-order mask, by class."""
    return [eq.search_mask(sum(1 << int(i) for i in np.flatnonzero(eq.ids == k)))
            for k in range(eq.n_classes)]


def _unsolved_keys(search):
    """Each unsolved record with its key, its class mask, in the cache."""
    return [(cbits, rec) for level in search.recs.values()
            for cbits, rec in level.items() if not _solved(rec)]


def _check_sample_masks(search, eq):
    """Check that every unsolved record's sample mask holds, in search
    order, the members of the classes in its key, and that its low
    n_classes bits are that key; return the unsolved records with their
    keys."""
    samples = _class_samples(eq)
    unsolved = _unsolved_keys(search)
    for cbits, rec in unsolved:
        assert rec.bits == sum(samples[k] for k in range(eq.n_classes) if cbits >> k & 1)
        assert rec.bits & ((1 << eq.n_classes) - 1) == cbits
    return unsolved


def test_a_wide_solve_of_distinct_rows_keeps_one_int_per_support():
    # every row its own class: each support is its class mask, and the
    # records of a search cut at its record budget, nearly all unexpanded,
    # hold it in both slots as one int
    rng = np.random.default_rng(0)
    x = rng.normal(size=(2000, 6)).round(2)
    raw = sparsetree.make_raw(x, (x[:, 0] + x[:, 1] * x[:, 2] > 0).astype(int))
    bin_data = sparsetree.full_binarize(raw)
    assert sparsetree.equivalence_classes(bin_data).n_classes == bin_data.n_samples
    reg = Regularizer.from_text("1/100", bin_data.n_samples)
    search = solver._Search(bin_data, SolverConfig(reg, depth_limit=3, max_records=20000))
    root_rec, stopped_by = search.run()
    assert stopped_by == "record-limit"
    assert asdict(search.counters) == {
        "created": 21313, "expanded": 6, "closed_by_guess": 0, "cache_hits": 10626}
    unsolved = _unsolved_keys(search)
    assert len(unsolved) > 20000
    assert all(rec.bits is cbits for cbits, rec in unsolved)
    search.release()
    assert search.best(root_rec, {})[0] == 41600


def test_only_supports_holding_a_repeated_row_keep_two_ints():
    # one row appears twice: its second copy is the one sample past the
    # class firsts in search order, so exactly the supports holding its
    # class keep a sample mask apart from the class mask
    rng = np.random.default_rng(3)
    x = rng.normal(size=(80, 3)).round(2)
    x = np.vstack([x, x[17]])
    y = (x[:, 0] + x[:, 1] > 0).astype(int)
    y[-1] = 1 - y[17]
    bin_data = sparsetree.full_binarize(sparsetree.make_raw(x, y))
    eq = sparsetree.equivalence_classes(bin_data)
    assert eq.n_classes == bin_data.n_samples - 1
    repeated = int(eq.ids[17])
    reg = Regularizer.from_text("1/100", bin_data.n_samples)
    search = solver._Search(bin_data, SolverConfig(reg, depth_limit=3, max_records=3000))
    assert search.run()[1] == "record-limit"
    unsolved = _check_sample_masks(search, eq)
    two = [rec for cbits, rec in unsolved if rec.bits is not cbits]
    assert two == [rec for cbits, rec in unsolved if cbits >> repeated & 1]
    assert 0 < len(two) < len(unsolved)
    # a support holding the repeated class has both labels in it, and a floor
    # above the leaf penalty
    assert all(search._floor(rec.bits) == reg.leaf_penalty_units + reg.denom for rec in two)


def test_supports_of_repeated_rows_keep_both_masks():
    # every class has at least three members, so no support is its class
    # mask: no record shares one int between its two slots
    rng = np.random.default_rng(50)
    base = random_raw(rng, 100, 3, levels=2)
    bin_data = sparsetree.full_binarize(sparsetree.make_raw(
        np.vstack([base.features] * 3), rng.integers(0, 2, size=300)))
    eq = sparsetree.equivalence_classes(bin_data)
    assert min(np.bincount(eq.ids)) >= 3
    reg = Regularizer.from_text("1/200", bin_data.n_samples)
    for cap in (500, None):
        search = solver._Search(bin_data, SolverConfig(reg, depth_limit=4, max_records=cap))
        search.run()
        unsolved = _check_sample_masks(search, eq)
        assert unsolved or cap is None
        assert not any(rec.bits is cbits for cbits, rec in unsolved)


def test_solved_records_keep_only_what_hits_and_extraction_read():
    # a cache hit reads a solved record's counts and bounds, and extraction
    # its counts, bounds and splits; the rest goes at its close, and each
    # extracted subproblem is memoized as one flat tuple
    assert len(solver._Rec.__slots__) <= 12
    assert sys.getsizeof(object.__new__(solver._Rec)) <= 128
    assert not {"cbits", "true_floor"} & set(solver._Rec.__slots__)
    for name, (bin_data, cfg) in _pinned_instances().items():
        reg = cfg.regularizer
        search = solver._Search(bin_data, cfg)
        root_rec, _ = search.run()
        support = _supports(search, root_rec)
        solved = 0
        for rec in _records(search):
            if rec.lower != rec.upper:  # bounds that have not met: unsolved
                continue
            solved += 1
            assert (rec.bits, rec.refresh, rec.scan) == (None,) * 3, name
            assert rec.parents == (), name
            n = support[rec].bit_count()
            pos = (support[rec] & bin_data.pos_mask).bit_count()
            assert _leaf_units(rec, reg) == reg.denom * min(pos, n - pos) + reg.leaf_penalty_units, name
        assert solved > 0, name
        memo = {}
        search.best(root_rec, memo)
        assert memo and all(type(got) is tuple and len(got) == 5 for got in memo.values()), name


def test_stored_counts_match_the_supports():
    # a cache hit reads the found record's sample, label-1 and reference
    # mistake counts in place of counting the samples again, and an
    # expansion reads the record's own, so each must be its walked
    # support's popcount
    for name, (bin_data, cfg) in _pinned_instances().items():
        search = solver._Search(bin_data, cfg)
        root_rec, _ = search.run()
        support = _supports(search, root_rec)
        ref = cfg.reference
        inc = None if ref is None else ref.predicted ^ ref.labels  # the reference's mistakes
        for rec in _records(search):
            got = support[rec]
            assert rec.n == got.bit_count(), name
            assert rec.pos == (got & bin_data.pos_mask).bit_count(), name
            assert rec.miss == (0 if inc is None else (got & inc).bit_count()), name
        assert search.counters.cache_hits > 0, name


def _collector_cases():
    """The pinned solves, plus exact solves cut by a record cap and by a
    zero time budget."""
    cases = _pinned_instances()
    dense, cfg = cases["exact"]
    cases["record_limit"] = (dense, replace(cfg, max_records=200))
    cases["time_limit"] = (dense, replace(cfg, time_limit_s=0))
    return cases


def _set_collector(enabled):
    if enabled:
        gc.enable()
    else:
        gc.disable()


def test_solves_leave_no_cyclic_garbage():
    # once the search ends no record points back up the graph, so reference
    # counting frees it all when optimize returns; optimize pauses the
    # collector and gives it back in the state it found it
    was = gc.isenabled()
    try:
        for name, (bin_data, cfg) in _collector_cases().items():
            gc.collect()
            gc.disable()
            res = solver.optimize(bin_data, cfg)
            assert not gc.isenabled(), name
            assert gc.collect() == 0, name
            if name.endswith("_limit"):
                assert res.status == name.replace("_", "-"), name
            gc.enable()
            again = solver.optimize(bin_data, cfg)
            assert gc.isenabled(), name
            assert (again.objective_units, repr(again.tree)) == (res.objective_units, repr(res.tree)), name
    finally:
        _set_collector(was)


def test_a_failing_search_restores_the_collector(monkeypatch):
    def fail(self):
        raise RuntimeError("search failed")

    monkeypatch.setattr(solver._Search, "run", fail)
    bin_data = _xor_binary()
    cfg = SolverConfig(Regularizer.from_text("0", 4), depth_limit=2)
    was = gc.isenabled()
    try:
        for enabled in (True, False):
            _set_collector(enabled)
            with pytest.raises(RuntimeError, match="search failed"):
                solver.optimize(bin_data, cfg)
            assert gc.isenabled() == enabled
    finally:
        _set_collector(was)


# ---------------------------------------------------------------- metamorphic relations

def _metamorphic_draws():
    """Seeded 120-200 row datasets, each with a 1-stage stump reference that
    leaves the guessed search real work to do.  The first six repeat many
    rows; in the last two every row is its own class but for one row, in
    the last, that appears twice."""
    draws = []
    for seed in range(6):
        rng = np.random.default_rng(seed)
        n, m = int(rng.integers(120, 201)), int(rng.integers(3, 5))
        draws.append((rng, random_raw(rng, n, m, levels=1)))
    rng = np.random.default_rng(6)
    cells = rng.choice(16 * 16, size=160, replace=False)
    x = np.column_stack((cells // 16, cells % 16)).astype(float)
    y = ((x[:, 0] > 7).astype(float) + (x[:, 1] < 9) + 0.6 * rng.normal(size=160) > 1.0).astype(int)
    draws.append((rng, sparsetree.make_raw(x, y)))
    draws.append((rng, sparsetree.make_raw(np.vstack([x, x[:1]]), np.append(y, 1 - y[0]))))
    for rng, raw in draws:
        ref = guessing.reference_labels(boosting.fit(raw, 1, 1, 0.5), raw)
        yield rng, raw, ref


def _solve(bin_data, lam="1/100", depth=3, ref=None):
    reg = Regularizer.from_text(lam, bin_data.n_samples)
    return solver.optimize(bin_data, SolverConfig(reg, depth_limit=depth, reference=ref))


def _fingerprint(res):
    return res.status, res.objective_units, asdict(res.counters), repr(res.tree)


def test_row_permutation_changes_nothing():
    # the search order of the samples follows the rows' order, and nothing
    # the search returns may: not on a full solve, nor on one cut short
    searched = 0
    for rng, raw, ref in _metamorphic_draws():
        perm = rng.permutation(raw.n_samples)
        moved = sparsetree.make_raw(raw.features[perm], raw.labels[perm])
        b, b_moved = sparsetree.full_binarize(raw), sparsetree.full_binarize(moved)
        assert b_moved.column_meta == b.column_meta
        full = _solve(b)
        assert _fingerprint(full) == _fingerprint(_solve(b_moved))
        cfg = SolverConfig(full.regularizer, depth_limit=3, max_records=full.counters.created // 2)
        cut = solver.optimize(b, cfg)
        assert cut.status == "record-limit"
        assert _fingerprint(cut) == _fingerprint(solver.optimize(b_moved, cfg))
        preds = bits_to_bools(ref.predicted, raw.n_samples)
        ref_moved = guessing.reference_from_predictions(preds[perm], moved.labels)
        guessed = _solve(b, ref=ref)
        assert guessed.status == "guess-certified"
        assert guessed.counters.closed_by_guess > 0
        assert _fingerprint(guessed) == _fingerprint(_solve(b_moved, ref=ref_moved))
        searched += guessed.counters.expanded > 1
    assert searched >= 4


def test_duplicate_and_complement_columns_change_nothing():
    for rng, raw, ref in _metamorphic_draws():
        b = sparsetree.full_binarize(raw)
        c1, c2 = (int(c) for c in rng.choice(b.n_columns, 2, replace=False))
        k = len(b.feature_names)
        wide = replace(
            b,
            columns=b.columns + (b.columns[c1], b.full_mask ^ b.columns[c2]),
            column_meta=b.column_meta + ((k, 0.0), (k + 1, 0.0)),
            feature_names=b.feature_names + ("copy", "complement"),
        )
        for r in (None, ref):
            assert _fingerprint(_solve(b, ref=r)) == _fingerprint(_solve(wide, ref=r))


def test_a_replaced_dataset_has_its_own_caches():
    # a copy whose columns are reversed must not reuse the original's row
    # matrix, column lookup or equivalence classes
    rng = np.random.default_rng(0)
    raw = sparsetree.make_raw(rng.integers(0, 4, size=(30, 2)), rng.integers(0, 2, size=30))
    b = sparsetree.full_binarize(raw)
    reg = Regularizer.from_text("1/30", 30)
    res = _solve(b, "1/30", 2)
    assert trees.objective(res.tree, b, reg) == res.objective
    c = replace(b, columns=b.columns[::-1], column_meta=b.column_meta[::-1])
    res = _solve(c, "1/30", 2)
    assert trees.objective(res.tree, c, reg) == res.objective == Fraction(2, 5)
    assert (c.rows_matrix() == b.rows_matrix()[:, ::-1]).all()


def test_column_permutation_keeps_the_exact_objective():
    # exact runs only: a guessed run's objective depends on which subproblems
    # the guess closes first, and column order changes that
    for rng, raw, _ in _metamorphic_draws():
        b = sparsetree.full_binarize(raw)
        order = rng.permutation(b.n_columns)
        shuffled = replace(
            b,
            columns=tuple(b.columns[c] for c in order),
            column_meta=tuple(b.column_meta[c] for c in order),
        )
        assert _solve(b).objective_units == _solve(shuffled).objective_units


def test_flipping_every_label_keeps_the_objective():
    for _, raw, _ in _metamorphic_draws():
        b = sparsetree.full_binarize(raw)
        flipped = replace(b, pos_mask=b.full_mask ^ b.pos_mask)
        for lam in ("0", "1/100", "1/20"):
            assert _solve(b, lam).objective_units == _solve(flipped, lam).objective_units, lam


# ---------------------------------------------------------------- monotonicity

_LAMBDAS = ("0", "1/200", "1/50", "1/20", "1/8", "1/2")
_DEPTHS = (1, 2, 3, 4, None)


def _small_draws():
    """Seeded 30-64 row datasets, small enough for unbounded solves."""
    for seed in range(6):
        rng = np.random.default_rng(seed)
        yield sparsetree.full_binarize(random_raw(rng, int(rng.integers(30, 65)), 3, levels=1))


def test_leaf_count_never_rises_with_lambda():
    # optimal trees with k1 leaves at lambda1 and k2 at lambda2 satisfy, by
    # exchange, (lambda2 - lambda1) * (k2 - k1) <= 0
    for b in _small_draws():
        for depth in _DEPTHS:
            runs = [_solve(b, lam, depth) for lam in _LAMBDAS]
            assert {r.status for r in runs} == {"optimal"}
            leaves = [r.leaf_count for r in runs]
            assert leaves == sorted(leaves, reverse=True), depth


def test_objective_never_rises_with_depth():
    for b in _small_draws():
        for lam in _LAMBDAS:
            units = [_solve(b, lam, depth).objective_units for depth in _DEPTHS]
            assert units == sorted(units, reverse=True), lam
