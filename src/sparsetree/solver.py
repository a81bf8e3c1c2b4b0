"""Optimal sparse tree search: best-first branch and bound over subproblems.

A subproblem is (support bitmask, remaining depth); unbounded-depth runs drop
the depth from the key.  All objective comparisons are exact on integers
scaled by n*q where the penalty is p/q: units(loss, leaves) = q*loss +
p*n*leaves.  Each record keeps a certified lower bound (one-leaf penalty
floor, equivalence-points bound) optionally raised by the reference-model
guess; a record is solved once its incumbent meets its lower bound, so a
guessed bound may close a subproblem before it is provably optimal.

The equivalence-points bound (GOSDT) counts, per group of samples with
identical column values, the rarer label inside the support.  Every support
the search creates is the root cut by indicator columns, which are constant on
each group, so it holds a group's members inside the root either all or none.
The bound is thus one popcount of the support against a minority mask of the
root, built once per solve.

Exploration pops the smallest current lower bound first, FIFO on ties.
Children whose bound sum cannot beat the parent incumbent are pruned at
expansion.  The returned tree is extracted afterwards as a pass over the
recorded actions minimizing (objective, leaves, depth, structure)
lexicographically per subproblem, which also picks up any child improvements
made after a guessed bound closed the parent.  That pass compares keys only;
tree nodes are built once, top-down along the winning choices.

Bounds flow from children to parents incrementally.  Each child links back to
the (parent, split index) pairs that use it.  The moment a record's bounds
change, the index of every split that uses it goes on that parent's dirty
list; a changed record then wakes its parents breadth-first, and each woken
parent refreshes only its dirty splits.  (The two-leaf incumbents a record
finds while it is expanded are marked but wake no one; parents fold them in
at their next wake.)  Child upper bounds only fall, so a parent's upper bound
is a running min.  For the lower bound a parent keeps each split's current
lower sum and a lazy min-heap of one int per entry, sum * k + index for k
splits: a refresh pushes a dirty split only when its sum changed, and pops
tops whose sum is stale.  Because splits are marked when the child changes,
not when the parent is woken, every refresh equals a full rescan of the
parent's splits, whether a sum rose or, after a guess closed a child, fell;
search order and counters do not depend on this bookkeeping.

A record one level above the depth limit has only forced-leaf children, so
its expansion is terminal: one pass over the columns counts each split's loss
with two popcounts, keeps the first column of least loss if its two leaves
beat the one leaf, and solves the record on the spot.
"""

from __future__ import annotations

import heapq
import math
import time
from collections import deque
from dataclasses import asdict, dataclass
from fractions import Fraction
from typing import Optional

from .dataset import BinaryDataset, SupportSet, equivalence_classes, minority_bits
# Not called here: bench/tracing.py rebinds solver.minority_total to trace it,
# and tests/test_bench_hooks.py checks the name is still bound.
from .dataset import minority_total  # noqa: F401
from .guessing import ReferenceLabels
from .trees import Leaf, Node, Split


class SolverMemoryError(RuntimeError):
    def __init__(self, counters):
        super().__init__(f"subproblem record budget exceeded: {counters}")
        self.counters = counters


@dataclass(frozen=True)
class Regularizer:
    """Leaf penalty lambda = numer/denom in lowest terms, over n samples."""

    numer: int
    denom: int
    n_samples: int

    @classmethod
    def from_text(cls, text: str, n_samples: int) -> "Regularizer":
        try:
            lam = Fraction(text)
        except (ValueError, ZeroDivisionError) as e:
            raise ValueError(f"cannot parse regularization {text!r}: {e}") from None
        if lam < 0:
            raise ValueError("regularization must be >= 0")
        if n_samples < 1:
            raise ValueError("need at least one sample")
        return cls(lam.numerator, lam.denominator, n_samples)

    @property
    def value(self) -> Fraction:
        return Fraction(self.numer, self.denom)

    @property
    def leaf_penalty_units(self) -> int:
        return self.numer * self.n_samples

    def units(self, loss_count: int, leaves: int) -> int:
        """Objective scaled by n*denom: exact integer comparisons."""
        return self.denom * loss_count + self.numer * self.n_samples * leaves

    def fraction(self, units: int) -> Fraction:
        return Fraction(units, self.n_samples * self.denom)


@dataclass
class Counters:
    created: int = 0
    expanded: int = 0
    closed_by_guess: int = 0
    cache_hits: int = 0

    def as_dict(self) -> dict:
        # kept for bench/workloads.py; the package itself uses dataclasses.asdict
        return asdict(self)


@dataclass
class SolverConfig:
    """What one solve minimizes and the limits it runs under.

    regularizer: the leaf penalty lambda and the sample count n.
    depth_limit: most splits on any root-to-leaf path; None leaves depth
        unbounded.
    reference: reference-model predictions; each subproblem's lower bound
        is raised to the reference's mistakes inside its support plus one
        leaf penalty, and the result is "guess-certified" rather than
        "optimal".  None solves exactly, and so does a reference that
        predicts a single class (it is refused).
    use_equiv_bound: raise every subproblem's floor by the equivalence-points
        bound; results are the same either way, only the search size moves.
    time_limit_s: wall-clock seconds for the search loop; None is no limit.
        Once spent, the search stops and returns the best tree found so far
        with status "time-limit".
    max_records: most subproblem records the search may create; None is no
        limit.  Creating one more raises SolverMemoryError, which carries the
        counters and no tree.
    """

    regularizer: Regularizer
    depth_limit: Optional[int] = None
    reference: Optional[ReferenceLabels] = None
    use_equiv_bound: bool = True
    time_limit_s: Optional[float] = None
    max_records: Optional[int] = None

    def __post_init__(self):
        if self.depth_limit is not None and self.depth_limit < 1:
            raise ValueError("depth_limit must be >= 1 when bounded")
        if self.max_records is not None and self.max_records < 1:
            raise ValueError("max_records must be >= 1 when set")
        if self.time_limit_s is not None and not (
            math.isfinite(self.time_limit_s) and self.time_limit_s >= 0
        ):
            raise ValueError("time_limit_s must be finite and >= 0 when set")


@dataclass
class SolveResult:
    tree: Node
    objective: Fraction
    objective_units: int
    loss_count: int
    leaf_count: int
    depth: int
    status: str
    counters: Counters
    regularizer: Regularizer
    depth_limit: Optional[int]
    lb_guess_active: bool
    refused_lb_guess: bool


# ---------------------------------------------------------------- records

_LEAF_KEY = (-1,)  # structure key of a leaf; a split's is (column, left key, right key)


class _Rec:
    __slots__ = (
        "bits", "depth", "n", "pos", "leaf_units", "true_floor", "guess_floor",
        "lower", "upper", "splits", "parents", "expanded", "solved",
        "dirty", "sums", "lows",
    )

    def __init__(self, bits, depth, n, pos, leaf_units, true_floor, guess_floor):
        self.bits = bits
        self.depth = depth
        self.n = n
        self.pos = pos
        self.leaf_units = leaf_units
        self.true_floor = true_floor
        self.guess_floor = guess_floor
        self.lower = true_floor if guess_floor is None else max(true_floor, guess_floor)
        self.upper = leaf_units
        self.splits = []          # (col, left, right, exactL, exactR); child None = forced leaf
        self.parents = {}         # parent _Rec -> split index or list of them, insertion ordered
        self.expanded = False
        self.solved = False
        # set from a non-terminal expansion until solved:
        self.dirty = None         # indices of splits whose children changed since the last refresh
        self.sums = None          # each split's lower sum as of its last refresh
        self.lows = None          # lazy min-heap of lower sum * len(splits) + split index; stale where sums differ


class _Search:
    def __init__(self, bin_data: BinaryDataset, cfg: SolverConfig, root_bits: int):
        self.bin = bin_data
        self.cfg = cfg
        self.reg = cfg.regularizer
        self.pen = self.reg.leaf_penalty_units
        self.q = self.reg.denom
        self.pos_bits = bin_data.pos_mask
        self.counters = Counters()
        self.recs: dict = {}
        self.heap: list = []
        self.seq = 0
        self.root_bits = root_bits
        self.bounded = cfg.depth_limit is not None

        ref = cfg.reference
        self.refused = False
        if ref is not None and ref.single_class:
            ref = None
            self.refused = True
        self.inc_bits = ref.incorrect_bits if ref is not None else None
        self.guessing = self.inc_bits is not None

        # rarer-label members of each equivalence class inside the root; see _create
        self.minority = (
            minority_bits(equivalence_classes(bin_data), root_bits) if cfg.use_equiv_bound else 0
        )

        # (index, bits) of each column, dropping duplicates (same or
        # complementary partition); earlier indices win every tie anyway,
        # later copies only cost scan time
        seen = set()
        self.cols = []
        for j, c in enumerate(bin_data.columns):
            cc = c & ((1 << bin_data.n_samples) - 1)
            key = min(cc, cc ^ ((1 << bin_data.n_samples) - 1))
            if key in seen:
                continue
            seen.add(key)
            self.cols.append((j, c))
        self.colbits = bin_data.columns

    # ---------------- record lifecycle

    def _create(self, bits, depth, n, pos, miss):
        """The record of (bits, depth), made on first use.  n, pos and miss
        are the support's sample, label-1 and reference-mistake counts (miss
        is None without a guess); every caller has already taken them."""
        key = (bits, depth)
        rec = self.recs.get(key)
        if rec is not None:
            self.counters.cache_hits += 1
            return rec
        leaf_units = self.q * min(pos, n - pos) + self.pen
        # Every support here is the root cut by indicator columns, and columns
        # are constant on an equivalence class, so a support holds all of a
        # class's members inside the root or none.  Its minority count is
        # therefore the popcount of the root's minority mask inside it.
        true_floor = self.pen + self.q * (bits & self.minority).bit_count()
        guess_floor = None if miss is None else self.pen + self.q * miss
        rec = _Rec(bits, depth, n, pos, leaf_units, true_floor, guess_floor)
        self.counters.created += 1
        if self.cfg.max_records is not None and self.counters.created > self.cfg.max_records:
            raise SolverMemoryError(self.counters)
        forced = (depth == 0) or (n == 1)
        if forced:
            rec.lower = rec.upper = leaf_units
            rec.solved = True
        elif rec.upper <= rec.lower:
            self._close(rec)
        self.recs[key] = rec
        if not rec.solved:
            self.seq += 1
            heapq.heappush(self.heap, (rec.lower, self.seq, rec))
        return rec

    @staticmethod
    def _link(child, parent, i):
        """Record that split i of parent has child as one side."""
        if child.solved:
            return  # a solved record never changes again
        links = child.parents
        had = links.get(parent)
        if had is None:
            links[parent] = i
        elif type(had) is int:
            links[parent] = [had, i]
        else:
            had.append(i)

    # ---------------- expansion

    def _expand(self, rec):
        rec.expanded = True
        self.counters.expanded += 1
        if rec.depth == 1 and self.bounded:
            self._expand_terminal(rec)
            return
        bits, n, pos = rec.bits, rec.n, rec.pos
        q, pen, pos_bits, inc_bits = self.q, self.pen, self.pos_bits, self.inc_bits
        miss = missl = missr = None
        if inc_bits is not None:
            miss = (bits & inc_bits).bit_count()
        create, link = self._create, self._link
        child_depth = rec.depth - 1 if self.bounded else None
        splits = rec.splits
        upper = rec.upper
        for j, c in self.cols:
            bl = bits & c
            nl = bl.bit_count()
            if nl == 0 or nl == n:
                continue
            nr = n - nl
            posl = (bl & pos_bits).bit_count()
            posr = pos - posl
            negl = nl - posl
            negr = nr - posr
            vl = q * (posl if posl < negl else negl) + pen
            vr = q * (posr if posr < negr else negr) + pen
            # cheap child floors for the prune check; records add the
            # equivalence-points term when created
            low_l = low_r = pen
            if miss is not None:
                missl = (bl & inc_bits).bit_count()
                missr = miss - missl
                low_l += q * missl
                low_r += q * missr
            if nl == 1:
                low_l = vl
            if nr == 1:
                low_r = vr
            if low_l + low_r >= upper:
                continue
            i = len(splits)
            cl = cr = None
            if nl != 1:
                cl = create(bl, child_depth, nl, posl, missl)
                link(cl, rec, i)
            if nr != 1:
                cr = create(bits ^ bl, child_depth, nr, posr, missr)
                link(cr, rec, i)
            splits.append((j, cl, cr, vl, vr))
            # splitting j into two majority leaves is an incumbent
            if vl + vr < upper:
                upper = vl + vr
        if upper < rec.upper:
            # parents see this at their next refresh, but it does not wake them
            rec.upper = upper
            self._mark_parents(rec)
        # a first refresh with every split dirty is the full scan
        k = len(splits)
        rec.dirty = list(range(k))
        rec.sums = [None] * k
        rec.lows = []
        if self._settle(rec, *self._refresh(rec)):
            self._propagate(rec)

    def _expand_terminal(self, rec):
        """Expand and solve a record whose children are all forced leaves.

        With d = posl - negl on a column's left side and D = pos - neg, the
        two majority leaves miss (n - max(|D|, |2d - D|)) / 2 samples, since
        2*min(a, b) = a + b - |a - b|.  |2d - D| is largest at the largest or
        the smallest d, so one pass with two popcounts per column finds the
        least loss and the first column holding it.  The split's two leaves
        cost q*loss + 2*pen, which beats the upper bound exactly when
        loss < -((2*pen - upper) // q); a column constant on the support has
        the leaf's own loss and never passes.  Splits that pass one after
        another strictly fall in value and extraction takes the least, so
        only the first column of least loss is stored."""
        n, pos, q, pen = rec.n, rec.pos, self.q, self.pen
        bp = rec.bits & self.pos_bits
        bn = rec.bits ^ bp
        hi, lo = -n - 1, n + 1
        for j, c in self.cols:
            d = (bp & c).bit_count() - (bn & c).bit_count()
            if d > hi:
                hi, j_hi = d, j
            if d < lo:
                lo, j_lo = d, j
        dd = 2 * pos - n
        up, down = 2 * hi - dd, dd - 2 * lo
        loss = (n - (up if up > down else down)) // 2
        if loss < -((2 * pen - rec.upper) // q):
            j = j_hi if up > down else j_lo if down > up else min(j_hi, j_lo)
            c = self.colbits[j]
            posl = (bp & c).bit_count()
            negl = (bn & c).bit_count()
            posr, negr = pos - posl, n - pos - negl
            rec.splits.append((j, None, None,
                               q * (posl if posl < negl else negl) + pen,
                               q * (posr if posr < negr else negr) + pen))
            rec.upper = q * loss + 2 * pen
        self._close(rec)
        self._mark_parents(rec)
        self._propagate(rec)

    # ---------------- bound maintenance

    def _refresh(self, rec):
        """Fold the dirty splits into rec's bounds: (upper, lower).

        Equal to a full rescan of rec's splits.  Child uppers only fall, so
        the upper is a running min.  Every split's current lower sum sits in
        the heap, as the one int sum * k + index for k splits; entries whose
        sum has since changed are stale and are dropped when they reach the
        top."""
        splits, sums, lows = rec.splits, rec.sums, rec.lows
        k = len(splits)
        upper = rec.upper
        for i in rec.dirty:
            _, cl, cr, ul, ur = splits[i]
            ll, lr = ul, ur
            if cl is not None:
                ul, ll = cl.upper, cl.lower
            if cr is not None:
                ur, lr = cr.upper, cr.lower
            if ul + ur < upper:
                upper = ul + ur
            l = ll + lr
            if l != sums[i]:
                sums[i] = l
                heapq.heappush(lows, l * k + i)
        rec.dirty.clear()
        lower = rec.leaf_units
        while lows:
            l, i = divmod(lows[0], k)
            if l == sums[i]:
                if l < lower:
                    lower = l
                break
            heapq.heappop(lows)
        return upper, lower

    def _settle(self, rec, upper, lower) -> bool:
        """Take refreshed bounds; True when rec changed and its parents must be
        woken."""
        changed = False
        if upper < rec.upper:
            rec.upper = upper
            changed = True
        if lower > rec.lower:
            rec.lower = lower
            changed = True
        if rec.upper <= rec.lower:
            self._close(rec)
            changed = True
        if changed:
            self._mark_parents(rec)
        return changed

    def _close(self, rec):
        """Solve rec at its upper bound, counting it when only the guess closes it."""
        rec.solved = True
        rec.dirty = rec.sums = rec.lows = None
        if rec.guess_floor is not None and rec.true_floor < rec.upper <= rec.guess_floor:
            self.counters.closed_by_guess += 1
        rec.lower = rec.upper

    @staticmethod
    def _mark_parents(rec):
        for p, i in rec.parents.items():
            if p.solved:
                continue
            if type(i) is int:
                p.dirty.append(i)
            else:
                p.dirty.extend(i)

    def _propagate(self, rec):
        work = deque([rec])
        while work:
            for p in work.popleft().parents:
                if not p.solved and self._settle(p, *self._refresh(p)):
                    work.append(p)

    # ---------------- main loop

    def run(self):
        t0 = time.monotonic()
        bits = self.root_bits
        miss = (bits & self.inc_bits).bit_count() if self.guessing else None
        root = self._create(bits, self.cfg.depth_limit, bits.bit_count(),
                            (bits & self.pos_bits).bit_count(), miss)
        timed_out = False
        while not root.solved and self.heap:
            if self.cfg.time_limit_s is not None and time.monotonic() - t0 > self.cfg.time_limit_s:
                timed_out = True
                break
            rec = heapq.heappop(self.heap)[2]
            if rec.solved:
                continue
            self._expand(rec)
        return root, timed_out

    # ---------------- extraction

    def best(self, rec, memo):
        """Key and choice of the best tree over the recorded action DAG below
        rec: the key (units, leaves, depth, structure) is minimal per
        subproblem, and the choice is the winning split tuple, or None for
        the leaf.  Children of closed records may have kept improving, so
        this can land below the record's incumbent; never above it."""
        got = memo.get(rec)
        if got is not None:
            return got
        key, choice = (rec.leaf_units, 1, 0, _LEAF_KEY), None
        for s in rec.splits:
            j, cl, cr, vl, vr = s
            lu, ll, ld, ls = self.best(cl, memo)[0] if cl is not None else (vl, 1, 0, _LEAF_KEY)
            ru, rl, rd, rs = self.best(cr, memo)[0] if cr is not None else (vr, 1, 0, _LEAF_KEY)
            cand = (lu + ru, ll + rl, 1 + (ld if ld > rd else rd), (j, ls, rs))
            if cand < key:
                key, choice = cand, s
        assert key[0] <= rec.upper, "extraction can only match or beat the incumbent"
        memo[rec] = got = key, choice
        return got

    def build(self, bits, rec, memo):
        """The tree of the choices best() made, top-down from the support
        bits; rec is None for a forced leaf."""
        choice = None if rec is None else self.best(rec, memo)[1]
        if choice is None:
            n = bits.bit_count()
            pos = (bits & self.pos_bits).bit_count()
            return Leaf(1 if pos > n - pos else 0)
        j, cl, cr, _vl, _vr = choice
        bl = bits & self.colbits[j]
        f, t = self.bin.column_meta[j]
        return Split(self.bin.feature_names[f], t,
                     self.build(bl, cl, memo), self.build(bits ^ bl, cr, memo))


def optimize(bin_data: BinaryDataset, cfg: SolverConfig, root_support: Optional[SupportSet] = None) -> SolveResult:
    """Minimize loss/n + penalty*leaves over trees on the dataset's columns."""
    if bin_data.n_columns < 1:
        raise ValueError("dataset has no binary columns")
    if cfg.regularizer.n_samples != bin_data.n_samples:
        raise ValueError("regularizer sample count does not match dataset")
    if root_support is None:
        root_bits = bin_data.full_mask
    else:
        if root_support.size != bin_data.n_samples:
            raise ValueError("root support size does not match dataset")
        root_bits = root_support.bits
        if root_bits < 0 or root_bits > bin_data.full_mask:
            raise ValueError("root support holds samples outside the dataset")
    if root_bits == 0:
        raise ValueError("empty root support")
    search = _Search(bin_data, cfg, root_bits)
    root, timed_out = search.run()
    memo = {}
    units, leaves, depth, _ = search.best(root, memo)[0]
    tree = search.build(root.bits, root, memo)
    reg = cfg.regularizer
    loss_units = units - reg.leaf_penalty_units * leaves
    assert loss_units % reg.denom == 0
    loss_count = loss_units // reg.denom
    if timed_out:
        status = "time-limit"
    elif search.guessing:
        status = "guess-certified"
    else:
        status = "optimal"
    return SolveResult(
        tree=tree,
        objective=reg.fraction(units),
        objective_units=units,
        loss_count=loss_count,
        leaf_count=leaves,
        depth=depth,
        status=status,
        counters=search.counters,
        regularizer=reg,
        depth_limit=cfg.depth_limit,
        lb_guess_active=search.guessing,
        refused_lb_guess=search.refused,
    )


def run_report(result: SolveResult) -> dict:
    """JSON-ready run summary; deterministic (no wall-clock fields)."""
    reg = result.regularizer
    return {
        "status": result.status,
        "objective": {
            "value": str(result.objective),
            "float": float(result.objective),
            "loss_count": result.loss_count,
            "leaves": result.leaf_count,
            "depth": result.depth,
        },
        "regularization": {
            "lambda": f"{reg.numer}/{reg.denom}",
            "n_samples": reg.n_samples,
        },
        "depth_limit": result.depth_limit,
        "lb_guess": {
            "active": result.lb_guess_active,
            "refused_single_class": result.refused_lb_guess,
        },
        "counters": asdict(result.counters),
    }
