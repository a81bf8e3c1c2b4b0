"""Optimal sparse tree search: best-first branch and bound over subproblems.

A subproblem is (support bitmask, remaining depth); unbounded-depth runs drop
the depth from the key.  All objective comparisons are exact on integers
scaled by n*q where the penalty is p/q: units(loss, leaves) = q*loss +
p*n*leaves.  Each record keeps a certified lower bound (one-leaf penalty
floor, equivalence-points bound) optionally raised by the reference-model
guess; a record is solved once its incumbent meets its lower bound, so a
guessed bound may close a subproblem before it is provably optimal.

Exploration pops the smallest current lower bound first, FIFO on ties.
Children whose bound sum cannot beat the parent incumbent are pruned at
expansion.  The returned tree is extracted afterwards as a pass over the
recorded actions minimizing (objective, leaves, depth, structure)
lexicographically per subproblem, which also picks up any child improvements
made after a guessed bound closed the parent.

Bounds flow from children to parents incrementally.  Each child links back to
the (parent, split index) pairs that use it.  The moment a record's bounds
change, the index of every split that uses it goes on that parent's dirty
list; a changed record then wakes its parents breadth-first, and each woken
parent refreshes only its dirty splits.  (The two-leaf incumbents a record
finds while it is expanded are marked but wake no one; parents fold them in
at their next wake.)  Child upper bounds only fall, so a
parent's upper bound is a running min.  For the lower bound a parent keeps
the min lower sum over its splits (and its leaf) with the split holding it,
and rescans only when that split's sum rose.  Because splits are marked when
the child changes, not when the parent is woken, every refresh equals a full
rescan of the parent's splits, so search order and counters do not depend on
this bookkeeping.

Without a lower-bound guess, child lower bounds never fall.  A split whose
lower sum is above its parent's upper bound can then never set either of the
parent's bounds again; the parent's next lower-bound rescan drops it for good
(it stays in the recorded actions for extraction).  With a guess this does not
hold: a child closed by the guess drops its lower bound to its incumbent,
which can bring the split's lower sum back under the parent's upper bound, so
the prune is off.
"""

from __future__ import annotations

import heapq
import time
from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .dataset import BinaryDataset, EquivalenceClasses, SupportSet, equivalence_classes, minority_total
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
        return cls.from_fraction(lam, n_samples)

    @classmethod
    def from_fraction(cls, lam: Fraction, n_samples: int) -> "Regularizer":
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
        return {
            "created": self.created,
            "expanded": self.expanded,
            "closed_by_guess": self.closed_by_guess,
            "cache_hits": self.cache_hits,
        }


@dataclass
class SolverConfig:
    regularizer: Regularizer
    depth_limit: Optional[int] = None
    reference: Optional[ReferenceLabels] = None
    use_equiv_bound: bool = True
    time_limit_s: Optional[float] = None
    max_records: Optional[int] = None

    def __post_init__(self):
        if self.depth_limit is not None and self.depth_limit < 1:
            raise ValueError("depth_limit must be >= 1 when bounded")


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


# ---------------------------------------------------------------- bound helpers

def leaf_objective(support, bin_data: BinaryDataset, reg: Regularizer) -> tuple[int, Fraction]:
    """Majority-vote leaf for the support: (label, exact objective). Ties predict 0."""
    bits = support.bits if isinstance(support, SupportSet) else int(support)
    n = bits.bit_count()
    pos = (bits & bin_data.pos_mask).bit_count()
    label = 1 if pos > n - pos else 0
    return label, reg.fraction(reg.units(min(pos, n - pos), 1))


def lb_guess_value(support, ref: ReferenceLabels, reg: Regularizer) -> Fraction:
    """Reference disagreement share inside the support plus one leaf penalty."""
    bits = support.bits if isinstance(support, SupportSet) else int(support)
    return reg.fraction(reg.denom * (bits & ref.incorrect_bits).bit_count() + reg.leaf_penalty_units)


def equiv_points_lb(support, eq: EquivalenceClasses, reg: Regularizer) -> Fraction:
    """Equivalence-class minority share inside the support plus one leaf penalty."""
    return reg.fraction(reg.denom * minority_total(eq, support) + reg.leaf_penalty_units)


def split_support(support: SupportSet, column_bits: int) -> tuple[SupportSet, SupportSet]:
    """Partition a support by one indicator column: (bit-1 side, bit-0 side)."""
    left = support.bits & column_bits
    return SupportSet(left, support.size), SupportSet(support.bits ^ left, support.size)


# ---------------------------------------------------------------- records

_LEAF = -1


class _Rec:
    __slots__ = (
        "bits", "depth", "n", "pos", "leaf_units", "true_floor", "guess_floor",
        "lower", "upper", "splits", "parents", "expanded", "solved", "by_guess",
        "dirty", "live", "lo_min", "lo_arg",
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
        self.by_guess = False
        # set from expansion until solved:
        self.dirty = None         # indices of splits whose children changed since the last refresh
        self.live = None          # splits in the lower-bound scan
        self.lo_min = None        # min lower sum over the leaf and the live splits
        self.lo_arg = None        # the split holding lo_min; None = the leaf


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
        # without a guess, child lower sums never fall, so a split whose
        # lower sum exceeds its parent's upper bound is dead for good
        self.prune_dead = not self.guessing

        self.eq = equivalence_classes(bin_data) if cfg.use_equiv_bound else None

        # drop duplicate columns (same or complementary partition); earlier
        # indices win every tie anyway, later copies only cost scan time
        seen = set()
        self.cols = []
        for j, c in enumerate(bin_data.columns):
            cc = c & ((1 << bin_data.n_samples) - 1)
            key = min(cc, cc ^ ((1 << bin_data.n_samples) - 1))
            if key in seen:
                continue
            seen.add(key)
            self.cols.append(j)
        self.colbits = bin_data.columns

    # ---------------- record lifecycle

    def _floors(self, bits):
        true_floor = self.pen
        if self.eq is not None:
            true_floor += self.q * minority_total(self.eq, bits)
        guess_floor = None
        if self.guessing:
            guess_floor = self.pen + self.q * (bits & self.inc_bits).bit_count()
        return true_floor, guess_floor

    def _create(self, bits, depth):
        key = (bits, depth)
        rec = self.recs.get(key)
        if rec is not None:
            self.counters.cache_hits += 1
            return rec
        n = bits.bit_count()
        pos = (bits & self.pos_bits).bit_count()
        leaf_units = self.q * min(pos, n - pos) + self.pen
        true_floor, guess_floor = self._floors(bits)
        rec = _Rec(bits, depth, n, pos, leaf_units, true_floor, guess_floor)
        self.counters.created += 1
        if self.cfg.max_records is not None and self.counters.created > self.cfg.max_records:
            raise SolverMemoryError(self.counters)
        forced = (depth == 0) or (n == 1)
        if forced:
            rec.lower = rec.upper = leaf_units
            rec.solved = True
        elif rec.upper <= rec.lower:
            rec.solved = True
            if guess_floor is not None and rec.upper <= guess_floor and rec.upper > true_floor:
                rec.by_guess = True
                self.counters.closed_by_guess += 1
            rec.lower = rec.upper
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
        bits, n, pos = rec.bits, rec.n, rec.pos
        q, pen, pos_bits, inc_bits = self.q, self.pen, self.pos_bits, self.inc_bits
        colbits, create, link = self.colbits, self._create, self._link
        child_depth = rec.depth - 1 if self.bounded else None
        leaf_children = child_depth == 0
        splits = rec.splits
        upper = rec.upper
        for j in self.cols:
            bl = bits & colbits[j]
            nl = bl.bit_count()
            if nl == 0 or nl == n:
                continue
            br = bits ^ bl
            nr = n - nl
            posl = (bl & pos_bits).bit_count()
            posr = pos - posl
            negl = nl - posl
            negr = nr - posr
            vl = q * (posl if posl < negl else negl) + pen
            vr = q * (posr if posr < negr else negr) + pen
            forced_l = leaf_children or nl == 1
            forced_r = leaf_children or nr == 1
            # cheap child floors for the prune check; records add the
            # equivalence-points term when created
            if forced_l:
                low_l = vl
            elif inc_bits is not None:
                low_l = pen + q * (bl & inc_bits).bit_count()
            else:
                low_l = pen
            if forced_r:
                low_r = vr
            elif inc_bits is not None:
                low_r = pen + q * (br & inc_bits).bit_count()
            else:
                low_r = pen
            if low_l + low_r >= upper:
                continue
            i = len(splits)
            cl = cr = None
            if not forced_l:
                cl = create(bl, child_depth)
                link(cl, rec, i)
            if not forced_r:
                cr = create(br, child_depth)
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
        rec.dirty = list(range(len(splits)))
        rec.live = splits
        rec.lo_min, rec.lo_arg = rec.leaf_units, None
        if self._settle(rec, *self._refresh(rec)):
            self._propagate(rec)

    # ---------------- bound maintenance

    def _scan_lower(self, rec, upper):
        """Min lower sum over the leaf and the live splits, and its split.

        Without a guess, splits whose lower sum exceeds `upper` leave the
        live list."""
        lo_min, lo_arg = rec.leaf_units, None
        keep = [] if self.prune_dead else None
        for s in rec.live:
            _, cl, cr, ll, lr = s
            if cl is not None:
                ll = cl.lower
            if cr is not None:
                lr = cr.lower
            l = ll + lr
            if l < lo_min:
                lo_min, lo_arg = l, s
            if keep is not None and l <= upper:
                keep.append(s)
        if keep is not None:
            rec.live = keep
        return lo_min, lo_arg

    def _refresh(self, rec):
        """Fold the dirty splits into rec's bounds: (upper, min lower sum).

        Equal to a full rescan of rec's splits.  Child uppers only fall, so
        the upper is a running min; the min lower sum is rescanned only when
        the split that held it rose."""
        splits = rec.splits
        upper, lo_min, lo_arg = rec.upper, rec.lo_min, rec.lo_arg
        rescan = False
        for i in rec.dirty:
            s = splits[i]
            _, cl, cr, ul, ur = s
            ll, lr = ul, ur
            if cl is not None:
                ul, ll = cl.upper, cl.lower
            if cr is not None:
                ur, lr = cr.upper, cr.lower
            if ul + ur < upper:
                upper = ul + ur
            l = ll + lr
            if s is lo_arg:
                if l > lo_min:
                    rescan = True
                else:
                    lo_min = l
            elif l < lo_min:
                lo_min, lo_arg = l, s
        rec.dirty.clear()
        if rescan:
            lo_min, lo_arg = self._scan_lower(rec, upper)
        rec.lo_min, rec.lo_arg = lo_min, lo_arg
        return upper, lo_min

    def _settle(self, rec, upper, lo_min) -> bool:
        """Take refreshed bounds; True when rec changed and its parents must be
        woken."""
        changed = False
        if upper < rec.upper:
            rec.upper = upper
            changed = True
        if lo_min > rec.lower:
            rec.lower = lo_min
            changed = True
        if rec.upper <= rec.lower:
            rec.solved = True
            rec.dirty = rec.live = rec.lo_arg = None
            changed = True
            if (
                rec.guess_floor is not None
                and rec.upper <= rec.guess_floor
                and rec.upper > rec.true_floor
            ):
                rec.by_guess = True
                self.counters.closed_by_guess += 1
            if rec.lower > rec.upper:
                rec.lower = rec.upper
        if changed:
            self._mark_parents(rec)
        return changed

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
        root = self._create(self.root_bits, self.cfg.depth_limit)
        timed_out = False
        while not root.solved and self.heap:
            if self.cfg.time_limit_s is not None and time.monotonic() - t0 > self.cfg.time_limit_s:
                timed_out = True
                break
            rec = heapq.heappop(self.heap)[2]
            if rec.solved or rec.expanded:
                continue
            self._expand(rec)
        return root, timed_out

    # ---------------- extraction

    def _leaf_node(self, bits):
        n = bits.bit_count()
        pos = (bits & self.pos_bits).bit_count()
        units = self.q * min(pos, n - pos) + self.pen
        return Leaf(1 if pos > n - pos else 0), units, 1, 0, (_LEAF,)

    def extract(self, rec, memo):
        """Best tree over the recorded action DAG: minimize (units, leaves,
        depth, structure) per subproblem.  Children of closed records may
        have kept improving, so this can land below the record's incumbent;
        never above it."""
        got = memo.get(rec)
        if got is not None:
            return got
        best = self._leaf_node(rec.bits)
        for j, cl, cr, _vl, _vr in rec.splits:
            bl = rec.bits & self.colbits[j]
            left = self.extract(cl, memo) if cl is not None else self._leaf_node(bl)
            right = self.extract(cr, memo) if cr is not None else self._leaf_node(rec.bits ^ bl)
            f, t = self.bin.column_meta[j]
            cand = (
                Split(self.bin.feature_names[f], t, left[0], right[0]),
                left[1] + right[1],
                left[2] + right[2],
                1 + max(left[3], right[3]),
                (j, left[4], right[4]),
            )
            if cand[1:] < best[1:]:
                best = cand
        assert best[1] <= rec.upper, "extraction can only match or beat the incumbent"
        memo[rec] = best
        return best


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
    if root_bits == 0:
        raise ValueError("empty root support")
    search = _Search(bin_data, cfg, root_bits)
    root, timed_out = search.run()
    tree, units, leaves, depth, _ = search.extract(root, {})
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
        "counters": result.counters.as_dict(),
    }
