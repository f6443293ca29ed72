"""Alignment and incremental combination of per-frame recognition results.

Each new frame is aligned against the running combined result with a
dynamic program whose costs come from the character-level distance, then
merged as a weighted average in one numpy step.  ``align`` fills the
backward GLD table over numpy's ``pairwise_costs`` / ``gap_costs`` and
reads the path off as two index lists into the result and the frame,
each padded with the empty distribution for the side a gap step skips; a
frame's own gap costs are computed once and kept on the frame.  The fill
and the traceback run compiled (``_kernels.c``, the same floating-point
operations in the same order, so the same alignment bit for bit) where a
C compiler is available, and otherwise as ``metrics.cost_table`` and the
Python traceback ``_path``, which stay the reference.  The merge gathers
with the index lists from the frame's and the state's rows, both kept
followed by the empty row, and blends ``old + factor * (new - old)`` in
place in its output; ``Alignment.steps`` builds :class:`AlignmentStep`
objects only when read, so no step object is made on the per-stage path.
The state optionally keeps the one history store the fast stopping
estimators read: every absorbed row once, in absorb order, and a
(frame x row id) table of indices into those rows.  Absorbing a frame
appends its M rows and points its slots at them (O(M*K)); every other
slot holds 0, the index of the empty distribution, so a frame reads as
empty wherever it was not aligned, rows created after it included.  Both
arrays grow geometrically; display order is applied only when the
history is read.  Methods ``a`` and ``b`` read the store through
``CombinerState.candidate_gld``: an O(n*S*K) scan of each frame's
spread from the current rows, then each candidate's merge share, its
nGLD and the sums of both, in one compiled call where available (numpy
otherwise).  The scan computes each current row's distance to the empty
row once per call, and a slot holding 0 adds that distance instead of
K+1 terms; ``b`` is ``a``'s aggregate normalised once.  On 40 stage
pairs of the benchmark corpus (K=36, S about 19, M about 15, 2-vCPU
Xeon) the compiled kernels took ``align`` from about 165 to 92 us.
"""
import math
import operator
import random
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import _kernels
from .core import CombinedResult, RecognitionFrame, _empty_row
from .metrics import cost_table, gap_costs, normalized, pairwise_costs
from .treap import MultisetIndex

# merge_share halves both weights from here on, so their sum stays finite
_HALVE_FROM = 2.0**1023

# frames per slice of the numpy history scan, which bounds its temporary
_SCAN_FRAMES = 32

MATCH = "match"
GAP_FRAME = "gap_frame"
GAP_COMBINED = "gap_combined"


@dataclass(frozen=True)
class AlignmentStep:
    """One row pairing: kind is MATCH, GAP_FRAME or GAP_COMBINED.

    ``combined_row`` / ``frame_row`` are positions in the respective row
    sequences; a gap step leaves the missing side as None.
    """

    kind: str
    combined_row: int | None = None
    frame_row: int | None = None


@dataclass(frozen=True)
class Alignment:
    """Ordered row pairing between a frame and the combined result.

    Two index lists, one entry per step in output order: walking them
    while merging produces the rows of the next combined result.
    ``result_rows`` holds the combined row, or S (one past the last) for a
    GAP_COMBINED step, where a brand-new row is inserted; ``frame_rows``
    holds the frame row, or M for a GAP_FRAME step.  These are the indices
    into both row matrices padded with the empty row, which is what the
    merge gathers with.  ``inserted`` and ``dropped`` count the
    GAP_COMBINED and GAP_FRAME steps.
    """

    result_rows: tuple[int, ...]
    frame_rows: tuple[int, ...]
    cost: float
    inserted: int
    dropped: int

    @cached_property
    def steps(self):
        """The pairing as :class:`AlignmentStep` objects, built on first read."""
        s = len(self.result_rows) - self.inserted
        m = len(self.frame_rows) - self.dropped
        return tuple(
            AlignmentStep(GAP_COMBINED, frame_row=f) if r == s
            else AlignmentStep(GAP_FRAME, combined_row=r) if f == m
            else AlignmentStep(MATCH, combined_row=r, frame_row=f)
            for r, f in zip(self.result_rows, self.frame_rows)
        )


def merge_share(weight, total):
    """Share w / (W + w) that a frame of weight ``w`` takes in a merge into weight ``W``.

    Elementwise when ``weight`` is a numpy array.  Exactly w / (W + w)
    while both terms are below 2**1023, where their sum cannot overflow.
    From there both are halved first, so the sum stays finite for any pair
    of finite weights; the halving is exact for every term but a subnormal
    one, whose effect on the share then rounds away either way.  The share
    is 0 where the sum is not positive.
    """
    top = weight.max(initial=total) if isinstance(weight, np.ndarray) else max(weight, total)
    if top >= _HALVE_FROM:
        weight = 0.5 * weight
        total = 0.5 * total
    denom = total + weight
    if isinstance(denom, np.ndarray):
        return np.divide(weight, denom, out=np.zeros_like(denom), where=denom > 0)
    return weight / denom if denom > 0 else 0.0


def _index(value, name):
    """``value`` as an int, through ``operator.index``.  A bool is refused:
    numpy would read True or False as a mask, not as an index."""
    if isinstance(value, bool):
        raise TypeError(f"{name} must be an integer, not bool")
    return operator.index(value)


def _rows_of(seq):
    return seq.rows if hasattr(seq, "rows") else np.asarray(seq, dtype=np.float64)


def align(frame, result):
    """Minimal-cost row alignment of ``frame`` against ``result``.

    MATCH costs the char distance between the paired rows; either gap
    costs the skipped row's distance to the empty distribution.  Ties are
    broken deterministically, scanning from the start: MATCH, then
    GAP_FRAME, then GAP_COMBINED.  A :class:`RecognitionFrame` brings its
    own cached gap costs.  Rows holding a NaN or an infinity raise
    ValueError.

    The costs stay numpy's ``pairwise_costs`` / ``gap_costs`` here, while
    ``metrics.gld`` computes the same costs in C.  A fused compiled
    ``align`` gave bit-identical alignments, but a ``base`` stage at n=25
    is 26 alignments and an ``a`` stage one, so it cut the acceptance
    suite's criterion 7 ratio (``base`` at least 10x ``a`` per stage at
    n=25) from 12.2-14.4x to 7.8-9.4x on a 2-vCPU Xeon, below its bound.
    """
    combined = _rows_of(result)
    fresh = _rows_of(frame)
    if combined.shape[0] and fresh.shape[0] and combined.shape[1] != fresh.shape[1]:
        raise ValueError(
            f"class counts differ: frame {fresh.shape[1] - 1} vs result {combined.shape[1] - 1}"
        )
    s, m = combined.shape[0], fresh.shape[0]

    sub = pairwise_costs(combined, fresh) if s and m else np.zeros((s, m))
    skip = gap_costs(combined)  # cost of a GAP_FRAME step per combined row
    fresh_gaps = frame.gap_costs if isinstance(frame, RecognitionFrame) else gap_costs(fresh)
    if _kernels.get() is not None:
        result_rows, frame_rows, cost = _kernels.path(sub, skip, fresh_gaps)
    else:
        result_rows, frame_rows, cost = _path(sub.tolist(), skip.tolist(), fresh_gaps.tolist())
    if not math.isfinite(cost):
        raise ValueError(f"alignment cost is {cost}: rows must be finite")
    steps = len(result_rows)
    return Alignment(result_rows, frame_rows, cost, steps - s, steps - m)


def _path(sub, skip, gaps):
    """(result_rows, frame_rows, cost) from :func:`metrics.cost_table` over
    nested lists: the Python kernel, and the reference of ``_kernels.path``."""
    table = cost_table(sub, skip, gaps)
    s, m = len(skip), len(gaps)
    # read the path off from the front, recomputing each cell's choices in
    # tie order; the recomputation is bit-equal to the one that filled it
    result_rows = []
    frame_rows = []
    i = j = 0
    while i < s or j < m:
        here = table[i][j]
        if i < s and j < m and sub[i][j] + table[i + 1][j + 1] == here:  # MATCH
            result_rows.append(i)
            frame_rows.append(j)
            i += 1
            j += 1
        elif i < s and skip[i] + table[i + 1][j] == here:  # GAP_FRAME
            result_rows.append(i)
            frame_rows.append(m)
            i += 1
        elif j < m:  # GAP_COMBINED
            result_rows.append(s)
            frame_rows.append(j)
            j += 1
        else:  # no choice reproduces the cell: a NaN cost
            raise ValueError("alignment costs hold a NaN: rows must be finite")
    return tuple(result_rows), tuple(frame_rows), table[0][0]


def _merge(alignment, frame_padded, result_padded, factor):
    """Rows of the merge along ``alignment``, followed by the empty row;
    factor = new weight / total weight.

    Both inputs end with the empty row, which a gap step gathers for the
    side it skips.  Each step gives ``old + factor * (new - old)``,
    computed in place in the output.
    """
    steps = len(alignment.result_rows)
    merged = np.empty((steps + 1, result_padded.shape[1]))
    rows = merged[:steps]
    frame_padded.take(alignment.frame_rows, axis=0, out=rows)
    old = result_padded.take(alignment.result_rows, axis=0)
    rows -= old
    rows *= factor
    rows += old
    merged[steps] = result_padded[-1]
    return merged


class CombinerState:
    """Running combination of a stream of recognition frames.

    ``track_history`` keeps the history store: per frame and row id, what
    the frame merged into that row (the empty distribution wherever the
    frame was not aligned to it, including rows created after the frame),
    as an index into the absorbed rows, each kept once.
    Methods ``a`` and ``b`` both read it through :meth:`candidate_gld`.
    ``track_treaps`` keeps the same store for method ``b``, requires unit
    frame weights and lets :meth:`cell` build a :class:`MultisetIndex` of
    one (row, class) history column on demand.  Both default off, so
    plain combination carries no bookkeeping overhead.  ``seed`` seeds
    only the treap priorities of :meth:`cell`.

    A state is meant to be owned by a single worker; results handed out
    are immutable snapshots.
    """

    def __init__(self, alphabet, *, track_history=False, track_treaps=False, seed=0):
        self.alphabet = alphabet
        self.track_history = bool(track_history)
        self.track_treaps = bool(track_treaps)
        self.n = 0
        self.weight_total = 0.0
        self._width = alphabet.size + 1
        self._padded = _empty_row(self._width)[None]  # the rows, then the empty row
        self._padded.setflags(write=False)
        self._matrix = self._padded[:0]
        self._order = []
        self._next_id = 0
        self._weights = []
        self._common_weight = 1.0  # the weight of every frame so far; None once two differ
        self._seed = seed
        # the history store: _rows[_slots[i, rid]] is what frame i merged
        # into row id rid.  _rows[0] is the empty distribution and every
        # slot starts at 0, so a frame not aligned to a row, or older than
        # it, reads as empty with no code for it.  _record is the only
        # writer of _slots and writes only indices below _used, which the
        # compiled scan relies on to stay inside _rows.
        self._rows = self._slots = None
        if self.track_history or self.track_treaps:
            self._rows = np.empty((64, self._width))
            self._rows[0] = _empty_row(self._width)
            self._slots = np.zeros((32, 8), dtype=np.int64)
        self._used = 1  # rows of _rows in use
        self._history = None  # the compiled scan's store and buffers (_kernels.Scan); None when stale

    @property
    def mean_rows(self):
        """Current combined rows, shape (S, K+1); a write-protected snapshot."""
        return self._matrix

    @property
    def row_ids(self):
        return tuple(self._order)

    @property
    def weights(self):
        return tuple(self._weights)

    @property
    def unweighted(self):
        return self._common_weight == 1.0

    def _check_frame(self, frame):
        if frame.num_classes != self.alphabet.size:
            raise ValueError(
                f"frame has {frame.num_classes} classes, state expects {self.alphabet.size}"
            )
        if self.track_treaps and frame.weight != 1.0:
            raise ValueError("treap bookkeeping supports unit frame weights only")

    def absorb(self, frame):
        """Fold one frame into the combined result, updating all bookkeeping.

        The history store appends the frame's rows and points the frame's
        slots of the row ids they were aligned to at them; every other row
        already reads as empty for this frame.
        """
        self._check_frame(frame)
        w = frame.weight
        new_total = self.weight_total + w
        if not math.isfinite(new_total):
            raise ValueError(f"frame weight {w} makes the weight total overflow")
        factor = merge_share(w, self.weight_total)
        alignment = align(frame, self._matrix)

        order = self._row_ids_after(alignment)
        self._next_id += alignment.inserted
        if self._rows is not None:
            # row id of each frame row, in frame order
            m = frame.num_chars
            self._record([rid for rid, j in zip(order, alignment.frame_rows) if j < m], frame.rows)

        padded = _merge(alignment, frame.padded_rows, self._padded, factor)
        padded.setflags(write=False)
        self._padded = padded
        self._matrix = padded[:-1]
        self._order = order
        self._weights.append(w)
        if self.n == 0:
            self._common_weight = w
        elif w != self._common_weight:
            self._common_weight = None
        self.n += 1
        self.weight_total = new_total

    def _row_ids_after(self, alignment):
        """Row ids in display order after a merge along ``alignment``.

        Rows the merge inserts take the next free ids, in order.
        """
        ids = self._order
        s = len(ids)
        new_ids = iter(range(self._next_id, self._next_id + alignment.inserted))
        return [ids[r] if r < s else next(new_ids) for r in alignment.result_rows]

    def _record(self, rids, rows):
        """Append frame n's rows to the store and point its slots at them.

        ``rids`` holds the row id of each of the frame's rows.  A full
        array grows by copying: the rows x2, the frames x2, the row ids
        to 5/4 of those in use.  Growing is the only change that makes the
        compiled scan's buffers stale.
        """
        end = self._used + len(rows)
        if end > len(self._rows):
            grown = np.empty((max(2 * len(self._rows), end), self._width))
            grown[: self._used] = self._rows[: self._used]
            self._rows = grown
            self._history = None
        frames, ids = self._slots.shape
        if self.n == frames or self._next_id > ids:
            grown = np.zeros(
                (2 * frames if self.n == frames else frames, max(ids, self._next_id * 5 // 4)),
                dtype=np.int64,
            )
            grown[:frames, :ids] = self._slots
            self._slots = grown
            self._history = None
        self._rows[self._used : end] = rows
        self._slots[self.n, rids] = np.arange(self._used, end)
        self._used = end

    def candidate_alignment(self, candidate):
        """Alignment of ``candidate`` against the current result, and its merge share.

        The share is :func:`merge_share` of the candidate's weight into the
        weight total so far; the state is untouched.
        """
        self._check_frame(candidate)
        return align(candidate, self._matrix), merge_share(candidate.weight, self.weight_total)

    def candidate_shares(self):
        """Merge share of every absorbed frame as the next candidate.

        :func:`merge_share` of each frame's weight into the weight total;
        one scalar when all frames have the same weight, else shape (n,).
        """
        if self._common_weight is not None:
            return merge_share(self._common_weight, self.weight_total)
        return merge_share(np.asarray(self._weights), self.weight_total)

    def combine_candidate(self, candidate):
        """Combined result if ``candidate`` arrived next; the state is untouched."""
        alignment, share = self.candidate_alignment(candidate)
        ids = self._row_ids_after(alignment)
        merged = _merge(alignment, candidate.padded_rows, self._padded, share)
        return CombinedResult(merged[:-1], ids)

    def current_result(self):
        """Snapshot of the combined result after the frames absorbed so far."""
        if self.n == 0:
            raise ValueError("no frames absorbed yet")
        return CombinedResult(self._matrix, tuple(self._order))

    def _scan(self, share=None, length=None):
        """The compiled scan's buffers after one fs_spread call (:func:`_kernels.spread`).

        The buffers and their addresses are rebuilt only when an array of
        the store has grown since the last scan.
        """
        if self._history is None:
            self._history = _kernels.Scan(self._rows, self._slots)
        scan = self._history
        scan.current[self._order] = self._matrix
        _kernels.spread(scan, self.n, len(self._order), share, length)
        return scan

    def spread(self):
        """Per frame i, the sum over rows and classes of |current - contribution_i|.

        Shape (n,).  One compiled pass over the store where
        :mod:`framestop._kernels` loads, reading each frame's rows through
        its slots and adding each current row's precomputed distance to the
        empty row for a slot that holds 0; otherwise a numpy scan of
        ``_SCAN_FRAMES`` frames at a time, so no temporary grows with the
        history.  The two sum in different orders and agree to about
        1e-15; both give exactly 0 for a frame equal to the current rows.
        """
        if self._rows is None:
            raise ValueError("state was built without history bookkeeping")
        n = self.n
        if _kernels.get() is not None:
            return self._scan().out[:n].copy()
        s = len(self._order)
        if s == 0:
            return np.zeros(n)
        current = np.empty((s, self._width))
        current[self._order] = self._matrix
        out = np.empty(n)
        for f in range(0, n, _SCAN_FRAMES):
            frames = slice(f, min(n, f + _SCAN_FRAMES))
            out[frames] = np.abs(self._rows[self._slots[frames, :s]] - current).sum(axis=(1, 2))
        return out

    def candidate_gld(self, length=None):
        """Method a's distance to every candidate next merge, and their sums.

        Candidate i, frame i arriving again, moves every row by its merge
        share (:meth:`candidate_shares`) of the gap between the current row
        and what frame i merged into it, as the merge itself does, so its
        GLD is g_i = spread_i * share_i / 2 (:meth:`spread`).  Returns
        (d, sum of g, sum of d), d of shape (n,): g itself, or its nGLD
        :func:`metrics.normalized` (g, ``length``) when ``length`` is given.
        Where :mod:`framestop._kernels` loads, the scan, the shares, the
        normalisation and both sums are one compiled call, with the same
        elementwise operations as the numpy path and the sums added in
        frame order; the two agree to a few parts in 1e15.
        """
        if self._rows is None:
            raise ValueError("state was built without history bookkeeping")
        if self.n == 0:
            raise ValueError("cannot estimate before the first frame")
        share = self.candidate_shares()
        if _kernels.get() is not None:
            scan = self._scan(share, length)
            return scan.out[: self.n].copy(), scan.sums[0], scan.sums[1]
        g = self.spread() * share / 2.0
        d = g if length is None else normalized(g, length)
        return d, float(g.sum()), float(d.sum())

    def _row_id(self, row_id):
        row_id = _index(row_id, "row id")
        if row_id not in range(self._next_id):
            raise KeyError(f"unknown row id {row_id}")
        return row_id

    @property
    def contributions(self):
        """History tensor, shape (n, S, K+1): what each frame merged into each
        row, rows in display order; a write-protected copy gathered from the store."""
        if not self.track_history:
            raise ValueError("state was built without history tracking")
        gathered = self._rows[self._slots[: self.n, self._order]]
        gathered.setflags(write=False)
        return gathered

    def contribution(self, frame_index, row_id):
        """Row that frame ``frame_index`` merged into ``row_id``.

        Frames contribute the empty distribution to rows they were not
        aligned with, including rows created after them.  Both indices are
        integers; a bool or a float raises TypeError.
        """
        if not self.track_history:
            raise ValueError("state was built without history tracking")
        frame_index = _index(frame_index, "frame index")
        if not 0 <= frame_index < self.n:
            raise IndexError(f"frame index {frame_index} out of range")
        row_id = self._row_id(row_id)
        return self._rows[self._slots[frame_index, row_id]].copy()

    def cell(self, row_id, class_index):
        """Treap of the history column of (row_id, class_index), built from the store.

        Priorities are seeded from the state's seed and the cell, so the
        same cell always gets the same shape.  ``class_index`` runs over
        0..K, 0 being the empty class.  Both indices are integers; a bool or
        a float raises TypeError.
        """
        if not self.track_treaps:
            raise ValueError("state was built without treap bookkeeping")
        row_id = self._row_id(row_id)
        class_index = _index(class_index, "class index")
        if not 0 <= class_index < self._width:
            raise IndexError(f"class index {class_index} out of range")
        column = self._rows[self._slots[: self.n, row_id], class_index]
        values, counts = np.unique(column, return_counts=True)
        index = MultisetIndex(random.Random(f"{self._seed}:{row_id}:{class_index}"))
        for value, count in zip(values.tolist(), counts.tolist()):
            index.insert(value, count)
        return index
