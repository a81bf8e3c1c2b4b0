"""Optimal sparse tree search: best-first branch and bound over subproblems.

A subproblem is a support, a bitmask over samples, and a remaining depth;
unbounded-depth runs drop the depth.  All objective comparisons are exact on
integers scaled by n*q where the penalty is p/q: units(loss, leaves) = q*loss
+ p*n*leaves.  Each record keeps a certified lower bound (one-leaf penalty
floor, equivalence-points bound) raised to the reference-model guess, pen +
q*miss for the reference's miss mistakes inside the support; a record is
solved once its incumbent meets its lower bound, so a guess may close a
subproblem before it is provably optimal.  A solve without a reference counts
zero mistakes, and a guess of pen never passes the certified floor.

Every support the search creates is the whole dataset cut by indicator
columns, which are constant on each equivalence class (group of samples with
identical column values), so it holds a class's members either all or none.
Two consequences.  The equivalence-points bound (GOSDT), which counts per
class the rarer label inside the support, is one popcount of the support
against a minority mask, built once per dataset.  And the classes a support
meets fix it, so the subproblem cache is one dict per depth, keyed by the
class mask, with one bit per class rather than per sample.

The search numbers the samples class first (see EquivalenceClasses): class k's
first member is sample k, and the other members of the classes follow from bit
n_classes up.  The columns, labels, minority mask and reference mistakes are
put in this order once, before the search; tree building reads the dataset's
own.  In this order a support's class mask is its low n_classes bits, so one
column list serves both, and a record keeps only its support: a child's class
mask is its parent's cut by the column, as its support is.  A support with no
higher bit, each of whose classes is a single sample, is its class mask: its
record keeps the int that keys it in the cache, and it has no minority to
count.  On continuous features, where nearly every row is its own class, that
is most of the search.

An expansion looks each child up before counting it: a column splits the
support exactly when it splits its classes, and a child found in the cache
already holds its sample, label-1 and reference-mistake counts, so the other
side's are the support's minus these.  Only when neither side is found are the
samples counted, on sample masks, and a found left side leaves the right one
to be looked up only if the split passes the prune check.  A record keeps its
support's sample mask and its refresh state (below) only until it is solved,
its column list only until it is expanded or solved, and its parent links only
until its close has reached its parents.  So a solved record holds what a
cache hit and extraction read, its counts, bounds and splits, and its leaf's
units are computed from its counts where they are needed.  A record is solved
exactly when its sample mask is gone.

A non-terminal record's splits are one flat list, three entries per split:
column, left, right.  A side is the child record, or, for a one-sample side,
the int units of that forced leaf; a split is named by its offset in the
list, the offset of its column.  A terminal record's split is its column
alone, an int: both sides are majority leaves, and the record's upper bound
holds their units.  An unexpanded record, and a terminal one that keeps its
leaf, holds the empty tuple.

Records point at their parents (for bounds, below) and paired siblings at
each other, so the graph has cycles while the search runs.  When it ends,
optimize drops the cache and every record's remaining parent links (an
unsolved record's) and sibling pairing, before extraction.  What
is left is the split DAG below the root, which reference counting frees
when optimize returns.  The search itself makes no cyclic garbage (every
record stays in the cache until the end, and everything else is freed by
reference counting), so optimize pauses the cyclic collector around the
search and extraction, which would otherwise walk every live record on each
pass.

Exploration pops the smallest current lower bound first, FIFO on ties.
Children whose bound sum cannot beat the parent incumbent are pruned at
expansion.  The returned tree is extracted afterwards as a pass over the
recorded actions minimizing (objective, leaves, depth, structure)
lexicographically per subproblem, which also picks up any child improvements
made after a guessed bound closed the parent.  That pass compares keys only;
tree nodes are built once, top-down along the winning choices.  Without a
guess every lower bound is certified, so the pass skips a split whose
children's lower bounds sum to more than the best units found so far (ties
are still explored: they may win on leaves or depth) and reaches only a
few records near the winning tree.  Under a guess a closed record's lower
bound is the guess, not a certificate, and the pass visits every split.

Bounds flow from children to parents incrementally.  Each child links back to
the splits that use it in one flat list, as splits are kept: two entries per
link, parent then split offset, in link order.  The moment a record's bounds
change, each link's offset goes on its parent's dirty list; a changed record
then wakes its parents breadth-first, and each woken parent refreshes only
its dirty splits.  A parent that uses the record in two splits is linked, and
woken, twice in a row; the second refresh finds nothing dirty and changes
nothing.  (The two-leaf incumbents a record finds while it is expanded are
marked but wake no one; parents fold them in at their next wake.)  Child
upper bounds only fall, so a parent's upper bound is a running min.  For the
lower bound a parent keeps each split's current lower sum, by offset, and a
lazy min-heap of one int per split, sum * k + offset for a list of k entries:
a refresh pushes a dirty split only when its sum changed, and pops tops whose
sum is stale.  Because splits are marked when the child changes, not when the
parent is woken, every refresh equals a full rescan of the parent's splits,
whether a sum rose or, after a guess closed a child, fell; search order and
counters do not depend on this bookkeeping.

A record one level above the depth limit has only forced-leaf children, so
its expansion is terminal: one pass over the columns finds the first column
of least loss, keeps it if its two leaves beat the one leaf, and solves the
record on the spot.  Each column carries an agreement mask, the samples whose
label equals the column's bit, and |support & mask| = posl + negr fixes the
split's loss up to a constant: one popcount per column.  Two kinds of
terminal record skip the pass.  One whose floor plus one more leaf penalty
already reaches its leaf is closed at the leaf: a split has two leaves and at
least the equivalence-points loss.  And the two children of a split of a
depth-2 record are paired (MurTree's sibling subtraction): the parent's
agreement counts, taken during its own scan, are the sums of theirs, so the
first of the two expanded scans the parent's column list, derives the
other's outcome from the difference and keeps only that outcome, never the
counts.

A record scans only the columns that split the support of the record that
created it: a non-terminal expansion collects the columns it finds neither
empty nor full on its support and hands that one list to every child it
creates (a cache hit keeps its first creator's list; the root scans all).  A
column constant on any ancestor's support is constant on the child's too, so
no split is lost, and the list always holds the column that made the child.
A record drops its list once it is expanded or solved, so a creator's list
lives only as long as some child of it is still to be expanded.
"""

from __future__ import annotations

import gc
import heapq
import math
import numbers
import time
from collections import deque
from dataclasses import asdict, dataclass
from fractions import Fraction
from typing import Optional

from .dataset import BinaryDataset, equivalence_classes
# Not called here: bench/tracing.py rebinds solver.minority_total to trace it,
# and tests/test_bench_hooks.py checks the name is still bound.
from .dataset import minority_total  # noqa: F401
from .guessing import ReferenceLabels
from .trees import Leaf, Node, Split


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
        # reports give the objective as a float too
        try:
            float(lam)
        except OverflowError:
            raise ValueError(f"regularization {text!r} is too large for a float") from None
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


def _is_count(value) -> bool:
    """An int >= 1; bool is an int subclass, but True is no count."""
    return isinstance(value, int) and not isinstance(value, bool) and value >= 1


@dataclass
class SolverConfig:
    """What one solve minimizes and the limits it runs under.

    regularizer: the leaf penalty lambda and the sample count n.
    depth_limit: most splits on any root-to-leaf path, a positive int; None
        leaves depth unbounded.
    reference: reference-model predictions, scored on this dataset's labels
        (another dataset's is refused).  Each subproblem's lower bound is
        raised to its mistakes inside the support plus one leaf penalty, and
        the result is "guess-certified", not "optimal".  None solves exactly:
        it counts zero mistakes, whose bound never passes the certified one;
        so does a reference predicting a single class (it is refused).
    time_limit_s: wall-clock seconds for the search loop; None is no limit.
        Once spent, the search stops and returns the best tree found so far
        with status "time-limit".
    max_records: subproblem records the search may create; None is no limit.
        Once more than this many exist, the search stops before its next
        expansion and returns the best tree found so far with status
        "record-limit".  One expansion creates up to two children per column
        that splits its support, so the count may pass the cap by that many.
    """

    regularizer: Regularizer
    depth_limit: Optional[int] = None
    reference: Optional[ReferenceLabels] = None
    time_limit_s: Optional[float] = None
    max_records: Optional[int] = None

    def __post_init__(self):
        if self.depth_limit is not None and not _is_count(self.depth_limit):
            raise ValueError("depth_limit must be an int >= 1 when bounded")
        if self.max_records is not None and not _is_count(self.max_records):
            raise ValueError("max_records must be an int >= 1 when set")
        if self.time_limit_s is not None and not (
            isinstance(self.time_limit_s, numbers.Real)
            and not isinstance(self.time_limit_s, bool)
            and math.isfinite(self.time_limit_s) and self.time_limit_s >= 0
        ):
            raise ValueError("time_limit_s must be a finite number >= 0 when set")


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
    # a search holds one per subproblem: 12 slots make a 128 B object
    __slots__ = (
        "bits", "depth", "n", "pos", "miss",
        "lower", "upper", "splits", "parents", "refresh", "scan", "sib",
    )

    def __init__(self, bits, depth, n, pos, miss, lower, upper, scan):
        self.bits = bits          # the support over samples in search order, its low n_classes
                                  # bits its class mask; None exactly when solved; the cache
                                  # key itself when each of its classes is one sample
        self.depth = depth
        self.n = n                # sample and label-1 counts: a cache hit reads them, and
        self.pos = pos            # the leaf costs q * min(pos, n - pos) + pen
        self.miss = miss          # the support's reference mistakes; 0 without a guess
        self.lower = lower
        self.upper = upper        # the leaf's units until a split beats it
        # () until expanded, then the flat list [column, left, right, ...],
        # where a side is the child _Rec or the int units of a forced
        # one-sample leaf; after a terminal expansion the column of its two
        # majority leaves, or () when the leaf is kept
        self.splits = ()
        # the splits that have this record as a side, two entries each in
        # link order: [parent _Rec, split offset, ...], so a parent using it
        # in two splits appears twice, back to back.  () once it is solved
        # and its close has reached them; None once the search ends
        self.parents = []
        # (dirty, sums, lows) from a non-terminal expansion until solved, else
        # None: the offsets of splits whose children changed since the last
        # refresh; each split's lower sum as of its last refresh, at its
        # offset; a lazy min-heap of lower sum * len(splits) + split offset,
        # stale where sums differ
        self.refresh = None
        # _Search.cols entries of every column that may split bits; None
        # once expanded or solved
        self.scan = scan
        # a terminal record paired with its sibling: (sibling, the depth-2
        # parent's scan list, the parent's agreement counts over it) until
        # either is expanded; (None, (j, units) or None) once the sibling has
        # derived this record's outcome; see _expand_terminal.  None once
        # the search ends
        self.sib = None


class _Search:
    def __init__(self, bin_data: BinaryDataset, cfg: SolverConfig):
        self.bin = bin_data
        self.cfg = cfg
        self.pen = cfg.regularizer.leaf_penalty_units
        self.q = cfg.regularizer.denom
        self.counters = Counters()
        self.recs: dict = {}    # depth -> {class mask: record}
        self.heap: list = []
        self.bounded = cfg.depth_limit is not None

        # every mask over samples the search keeps is in search order (see
        # EquivalenceClasses): the low n_classes bits of a support are its
        # class mask, and a support with no higher bit is its class mask
        eq = equivalence_classes(bin_data)
        self.pos_bits = eq.pos_mask
        # rarer-label members of each equivalence class; see _floor
        self.minority = eq.minority
        # the root meets every class: its cache key with its depth, and the
        # largest support with no sample past the class firsts
        self.root_cbits = (1 << eq.n_classes) - 1

        ref = cfg.reference
        self.refused = ref is not None and ref.single_class
        self.guessing = ref is not None and not self.refused
        self.inc_bits = eq.search_mask(ref.predicted ^ bin_data.pos_mask) if self.guessing else 0

        # (index, bits, agreement mask) of each column, dropping duplicates
        # (same or complementary partition); earlier indices win every tie
        # anyway, later copies only cost scan time.  The agreement mask holds
        # the samples whose label equals the column's bit (see
        # _expand_terminal)
        full = bin_data.full_mask
        seen = set()
        self.cols = []
        for j, c in enumerate(eq.columns):
            key = min(c, c ^ full)
            if key in seen:
                continue
            seen.add(key)
            self.cols.append((j, c, full ^ self.pos_bits ^ c))

    # ---------------- record lifecycle

    def _floor(self, bits):
        """The certified floor of the support bits: pen plus q times its
        equivalence-points loss, the minority popcount inside it; none when
        each of its classes is one sample (no bit past the class firsts)."""
        if bits <= self.root_cbits:
            return self.pen
        return self.pen + self.q * (bits & self.minority).bit_count()

    def _closes_at_leaf(self, rec):
        """No split of unexpanded rec beats its leaf: each costs floor + pen or more."""
        return self._floor(rec.bits) + self.pen >= rec.upper

    def _create(self, level, bits, cbits, depth, n, pos, miss, scan):
        """Make the record of the support bits at depth and file it in level,
        the cache of that depth, under its class mask cbits; the caller has
        found no record there.  n, pos and miss are the support's sample,
        label-1 and reference-mistake counts (miss is 0 without a guess); every
        caller has already taken them.  scan is the column list the record will
        scan, in column order, holding at least every column not constant on
        bits.  The lower bound is the floor raised to the guess pen + q * miss;
        without a guess that is pen, never above it.  A support with no sample
        past the first n_classes is its class mask, kept as the key int cbits."""
        leaf_units = self.q * min(pos, n - pos) + self.pen
        bits = cbits if bits <= self.root_cbits else bits
        floor = self._floor(bits)
        guess = self.pen + self.q * miss
        lower = guess if guess > floor else floor
        rec = _Rec(bits, depth, n, pos, miss, lower, leaf_units, scan)
        counters = self.counters
        counters.created += 1
        level[cbits] = rec
        # a record whose leaf already meets its lower bound closes here, at
        # creation; a pure support, whose leaf costs pen, is one example
        if leaf_units <= lower:
            self._close(rec)
            rec.parents = ()  # nothing links a solved record
        else:
            heapq.heappush(self.heap, (rec.lower, counters.created, rec))  # creation index breaks ties
        return rec

    # ---------------- expansion

    def _expand(self, rec):
        self.counters.expanded += 1
        if rec.depth == 1 and self.bounded:
            self._expand_terminal(rec)
            return
        bits, n, pos, miss = rec.bits, rec.n, rec.pos, rec.miss
        cbits = bits & self.root_cbits
        q, pen, pos_bits, inc_bits = self.q, self.pen, self.pos_bits, self.inc_bits
        create, pair = self._create, self._pair
        child_depth = rec.depth - 1 if self.bounded else None
        level = self.recs.setdefault(child_depth, {})
        find = level.get
        splits = rec.splits = []
        upper = rec.upper
        hits = 0
        # the columns that split bits: a column constant here is constant on
        # every child, so the children scan only these.  The list fills
        # while they are created, and none is expanded before it is complete
        keep = []
        # over keep, |bits & agreement mask| when the children are terminal;
        # sibling children share it, see _expand_terminal
        agree = [] if child_depth == 1 else None
        neg = n - pos
        for col in rec.scan:
            j, c, _ = col
            # the support holds whole classes, so a column is constant on it
            # exactly when it is constant on its classes; in search order the
            # classes of the left side are the column's low bits inside cbits
            cbl = cbits & c
            if cbl == 0 or cbl == cbits:
                continue
            keep.append(col)
            cbr = cbits ^ cbl
            # a side found in the cache holds its counts, and the other
            # side's are the support's minus these: only when neither is
            # there are the samples counted.  After a left hit the right
            # side is looked up only if the split passes the prune check
            cl, cr, bl = find(cbl), None, None
            if cl is not None:
                nl, posl, missl = cl.n, cl.pos, cl.miss
            elif (cr := find(cbr)) is not None:
                nl, posl, missl = n - cr.n, pos - cr.pos, miss - cr.miss
            else:
                bl = bits & c
                nl = bl.bit_count()
                posl = (bl & pos_bits).bit_count()
                missl = (bl & inc_bits).bit_count()
            nr = n - nl
            if agree is not None:
                agree.append(2 * posl - nl + neg)
            posr = pos - posl
            negl = nl - posl
            negr = nr - posr
            vl = q * (posl if posl < negl else negl) + pen
            vr = q * (posr if posr < negr else negr) + pen
            # cheap child floors for the prune check, the guesses; records
            # add the equivalence-points term when created
            missr = miss - missl
            low_l = pen + q * missl
            low_r = pen + q * missr
            if nl == 1:
                low_l = vl
            if nr == 1:
                low_r = vr
            if low_l + low_r >= upper:
                continue
            # a one-sample side is a forced leaf, kept as its units; no
            # record but the root has one sample, so the cache never has it
            i = len(splits)
            left, right = vl, vr
            if cl is not None and nr != 1:
                cr = find(cbr)
            if nl != 1:
                if cl is None:
                    if bl is None:
                        bl = bits & c
                    cl = create(level, bl, cbl, child_depth, nl, posl, missl, keep)
                else:
                    hits += 1
                if cl.bits is not None:  # a solved record never changes again
                    cl.parents += rec, i
                left = cl
            if nr != 1:
                if cr is None:
                    if bl is None:
                        bl = bits & c
                    cr = create(level, bits ^ bl, cbr, child_depth, nr, posr, missr, keep)
                else:
                    hits += 1
                if cr.bits is not None:
                    cr.parents += rec, i
                right = cr
                if agree is not None and nl != 1:
                    pair(cl, cr, keep, agree)
            splits += j, left, right
            # splitting j into two majority leaves is an incumbent
            if vl + vr < upper:
                upper = vl + vr
        self.counters.cache_hits += hits
        rec.scan = None
        if upper < rec.upper:
            # parents see this at their next refresh, but it does not wake them
            rec.upper = upper
            self._mark_parents(rec)
        # a first refresh with every split dirty is the full scan
        k = len(splits)
        rec.refresh = list(range(0, k, 3)), [None] * k, []
        if self._refresh(rec):
            self._propagate(rec)

    def _pair(self, a, b, scan, agree):
        """Pair sibling terminal records a and b, children of one split of a
        depth-2 parent whose scan list and agreement counts are scan and
        agree, when both will be scanned: unsolved, unpaired, and not closed
        by the floor check of _expand_terminal.  Their upper bounds are
        still their leaves' and stay so until they are expanded."""
        if (a.bits is None or b.bits is None or a.sib is not None or b.sib is not None
                or self._closes_at_leaf(a) or self._closes_at_leaf(b)):
            return
        a.sib = (b, scan, agree)
        b.sib = (a, scan, agree)

    def _expand_terminal(self, rec):
        """Expand and solve a record whose children are all forced leaves.

        Its best split into two leaves is stored when it beats the leaf, and
        the record is closed at once.  Any split costs at least two leaf
        penalties plus the equivalence-points loss, so a record whose upper
        bound is no more than that is closed at its leaf without a scan (see
        _closes_at_leaf).  A record paired with its sibling (see _pair) scans
        the depth-2 parent's list, whose agreement counts the parent already
        took: the sibling's counts are the parent's minus its own, so the
        sibling's outcome is found here with no popcount per column and kept
        until the sibling is expanded.  The parent's list holds every column
        that splits either child, in column order, which is all the scan
        needs (see _two_leaves)."""
        sib, rec.sib = rec.sib, None
        bits = rec.bits
        if sib is not None and sib[0] is None:
            split = sib[1]  # derived when the sibling was expanded
        elif sib is None and self._closes_at_leaf(rec):
            split = None
        else:
            scan = rec.scan if sib is None else sib[1]
            own = [(bits & e).bit_count() for _, _, e in scan]
            split = self._two_leaves(rec, scan, own)
            if sib is not None:
                other, _, parent = sib
                other.sib = (None, self._two_leaves(
                    other, scan, [p - a for p, a in zip(parent, own)]))
        if split is not None:
            rec.splits, rec.upper = split
        self._close(rec)
        self._mark_parents(rec)
        self._propagate(rec)

    def _two_leaves(self, rec, scan, agree):
        """The split (j, units) of rec into two majority leaves of least
        loss, the first such column in scan, when it beats rec's upper
        bound; else None.  agree holds |rec.bits & e| for each column's
        agreement mask e.

        With d = posl - negl on a column's left side and D = pos - neg, the
        two majority leaves miss (n - max(|D|, |2d - D|)) / 2 samples, since
        2*min(a, b) = a + b - |a - b|.  |2d - D| is largest at the largest or
        the smallest d.  A column's agreement mask holds the samples whose
        label equals its bit, so |bits & e| = posl + negr = d + neg: one
        popcount per column gives d up to a constant, and the extremes
        a = d + neg give 2d - D = 2a - n.  The first column holding the least
        loss is the first index of the winning extreme, and its left counts
        take one more popcount, nl, since a + nl = 2*posl + neg.  The split's
        two leaves cost q*loss + 2*pen, which beats the upper bound exactly
        when loss < -((2*pen - upper) // q); a column constant on the support has
        the leaf's own loss and never passes, so scan may be any list holding
        every column that splits the support, in column order.  Splits that
        pass one after another strictly fall in value and extraction takes
        the least, so only the first column of least loss is stored."""
        n, q, pen = rec.n, self.q, self.pen
        hi, lo = max(agree), min(agree)
        up, down = 2 * hi - n, n - 2 * lo
        loss = (n - (up if up > down else down)) // 2
        if loss >= -((2 * pen - rec.upper) // q):
            return None
        if up > down:
            i = agree.index(hi)
        elif down > up:
            i = agree.index(lo)
        else:
            i = min(agree.index(hi), agree.index(lo))
        j, c, _ = scan[i]
        pos = rec.pos
        nl = (rec.bits & c).bit_count()
        posl = (nl + agree[i] - (n - pos)) // 2
        negl, posr = nl - posl, pos - posl
        negr = n - nl - posr
        return j, q * ((posl if posl < negl else negl) + (posr if posr < negr else negr)) + 2 * pen

    # ---------------- bound maintenance

    def _refresh(self, rec) -> bool:
        """Fold the dirty splits into rec's bounds, closing rec when they meet;
        True when rec changed and its parents are marked to be woken.

        Equal to a full rescan of rec's splits.  Child uppers only fall, so
        the upper is a running min.  Every split's current lower sum sits in
        the heap, as the one int sum * k + offset for a list of k entries;
        entries whose sum has since changed are stale and are dropped when
        they reach the top."""
        splits = rec.splits
        dirty, sums, lows = rec.refresh
        k = len(splits)
        upper = rec.upper
        for i in dirty:
            cl = splits[i + 1]
            cr = splits[i + 2]
            if type(cl) is int:
                ul = ll = cl
            else:
                ul, ll = cl.upper, cl.lower
            if type(cr) is int:
                ur = lr = cr
            else:
                ur, lr = cr.upper, cr.lower
            if ul + ur < upper:
                upper = ul + ur
            l = ll + lr
            if l != sums[i]:
                sums[i] = l
                heapq.heappush(lows, l * k + i)
        dirty.clear()
        # from the new upper, not the leaf: a least sum at or above it leaves
        # rec to close at its upper either way
        lower = upper
        while lows:
            l, i = divmod(lows[0], k)
            if l == sums[i]:
                if l < lower:
                    lower = l
                break
            heapq.heappop(lows)
        if lower < rec.lower:
            lower = rec.lower
        changed = upper < rec.upper or lower > rec.lower
        rec.upper, rec.lower = upper, lower
        if upper <= lower:
            self._close(rec)
            changed = True
        if changed:
            self._mark_parents(rec)
        return changed

    def _close(self, rec):
        """Solve rec at its upper bound, counting it when only the guess,
        pen + q * miss, closes it (the floor is taken only then).  It drops what
        only the search of an unsolved record reads: its sample mask, which
        marks it solved, its refresh state and its column list."""
        if rec.upper <= self.pen + self.q * rec.miss and self._floor(rec.bits) < rec.upper:
            self.counters.closed_by_guess += 1
        rec.bits = rec.refresh = rec.scan = None
        rec.lower = rec.upper

    @staticmethod
    def _mark_parents(rec):
        links = iter(rec.parents)
        for p, i in zip(links, links):
            if p.bits is not None:
                p.refresh[0].append(i)

    def _propagate(self, rec):
        """Wake the parents of rec, which has changed, breadth-first: the
        parent of each link, the even entries of a record's list.  A solved
        record never changes again, so once it has woken its parents it
        forgets them: its links become the empty tuple, not None, as one
        wave may queue a record twice."""
        work = deque([rec])
        while work:
            r = work.popleft()
            for p in r.parents[::2]:
                if p.bits is not None and self._refresh(p):
                    work.append(p)
            if r.bits is None:
                r.parents = ()

    # ---------------- main loop

    def run(self):
        """Expand until the root is solved or a budget is spent, checking both
        budgets between expansions.  Returns the root record and the budget
        that stopped the search, "time-limit" or "record-limit", or None."""
        t0 = time.monotonic()
        bits, depth = self.bin.full_mask, self.cfg.depth_limit
        miss = (bits & self.inc_bits).bit_count()
        root = self._create(self.recs.setdefault(depth, {}), bits, self.root_cbits, depth,
                            bits.bit_count(), (bits & self.pos_bits).bit_count(), miss, self.cols)
        time_limit_s, max_records = self.cfg.time_limit_s, self.cfg.max_records
        while root.bits is not None and self.heap:
            if time_limit_s is not None and time.monotonic() - t0 > time_limit_s:
                return root, "time-limit"
            if max_records is not None and self.counters.created > max_records:
                return root, "record-limit"
            self._expand(heapq.heappop(self.heap)[2])
        return root, None

    def release(self):
        """Once the search has ended, drop the cache and every record's parent
        links (left only on unsolved records) and sibling pairing.  What stays
        is the split DAG below the root, where no record points back up, so
        reference counting frees it.  A method, so that no loop variable
        outlives it holding a level of the cache."""
        for level in self.recs.values():
            for rec in level.values():
                rec.parents = rec.sib = None
        self.recs = None

    # ---------------- extraction

    def best(self, rec, memo):
        """The best tree over the recorded action DAG below rec, as one tuple
        (units, leaves, depth, structure, choice), memoized per record: its
        first four fields, the key, are minimal per subproblem, and the
        choice is the winning split's offset in a flat list, a terminal
        record's column, or None for the leaf.  Children of closed records
        may have kept improving, so this can land below the record's
        incumbent; never above it."""
        got = memo.get(rec)
        if got is not None:
            return got
        splits = rec.splits
        if type(splits) is int:
            # a terminal record's column: its two leaves cost its upper bound,
            # which beats its leaf
            memo[rec] = got = rec.upper, 2, 1, (splits, _LEAF_KEY, _LEAF_KEY), splits
            return got
        n, pos = rec.n, rec.pos
        key, choice = (self.q * (pos if pos < n - pos else n - pos) + self.pen, 1, 0, _LEAF_KEY), None
        prune = not self.guessing
        for i in range(0, len(splits), 3):
            cl = splits[i + 1]
            cr = splits[i + 2]
            lint, rint = type(cl) is int, type(cr) is int
            # certified lowers: a split whose children cannot reach key's
            # units cannot win; on a tie it still may, by leaves or depth
            if prune and ((cl if lint else cl.lower) + (cr if rint else cr.lower)) > key[0]:
                continue
            lu, ll, ld, ls, _ = (cl, 1, 0, _LEAF_KEY, None) if lint else self.best(cl, memo)
            ru, rl, rd, rs, _ = (cr, 1, 0, _LEAF_KEY, None) if rint else self.best(cr, memo)
            cand = (lu + ru, ll + rl, 1 + (ld if ld > rd else rd), (splits[i], ls, rs))
            if cand < key:
                key, choice = cand, i
        assert key[0] <= rec.upper, "extraction can only match or beat the incumbent"
        memo[rec] = got = (*key, choice)
        return got

    def build(self, bits, side, memo):
        """The tree of the choices best() made, top-down from the support
        bits; side is a record, or a forced leaf: its units, or None for
        a side of a terminal record's split."""
        choice = self.best(side, memo)[4] if type(side) is _Rec else None
        if choice is None:
            n = bits.bit_count()
            pos = (bits & self.bin.pos_mask).bit_count()
            return Leaf(1 if pos > n - pos else 0)
        splits = side.splits
        if type(splits) is int:
            j, cl, cr = splits, None, None
        else:
            j, cl, cr = splits[choice:choice + 3]
        bl = bits & self.bin.columns[j]
        f, t = self.bin.column_meta[j]
        return Split(self.bin.feature_names[f], t,
                     self.build(bl, cl, memo), self.build(bits ^ bl, cr, memo))


def optimize(bin_data: BinaryDataset, cfg: SolverConfig) -> SolveResult:
    """Minimize loss/n + penalty*leaves over trees on the dataset's columns.

    The cyclic garbage collector is paused (gc.disable) during the search and
    the extraction, and afterwards left enabled or disabled as it was found,
    also when the search raises.  The search makes no cyclic garbage, and the
    record graph it leaves is freed by reference counting on return."""
    if bin_data.n_columns < 1:
        raise ValueError("dataset has no binary columns")
    if cfg.regularizer.n_samples != bin_data.n_samples:
        raise ValueError("regularizer sample count does not match dataset")
    ref = cfg.reference
    if ref is not None and (ref.n_samples, ref.labels) != (bin_data.n_samples, bin_data.pos_mask):
        raise ValueError("reference was scored on other labels than the dataset's")
    search = _Search(bin_data, cfg)
    collecting = gc.isenabled()
    gc.disable()
    try:
        root, stopped_by = search.run()
        search.release()
        memo = {}
        units, leaves, depth, _, _ = search.best(root, memo)
        tree = search.build(bin_data.full_mask, root, memo)
    finally:
        if collecting:
            gc.enable()
    reg = cfg.regularizer
    loss_units = units - reg.leaf_penalty_units * leaves
    assert loss_units % reg.denom == 0
    loss_count = loss_units // reg.denom
    if stopped_by is not None:
        status = stopped_by
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
