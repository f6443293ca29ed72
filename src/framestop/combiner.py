"""Alignment and incremental combination of per-frame recognition results.

Each new frame is aligned against the running combined result with a
dynamic program whose costs come from the character-level distance, then
merged as a weighted average.  ``align`` computes the substitution and
gap costs, fills the backward GLD table and reads the path off as two
index lists into the result and the frame, each padded with the empty
distribution for the side a gap step skips.  The merge blends
``old + factor * (new - old)`` along those lists from the frame's and the
state's rows, both kept followed by the empty row.  The state optionally
keeps the one history store the fast stopping estimators read: every
absorbed row once, in absorb order, in blocks of equal size that are
never copied, moved or resized, and a (frame x row id) table of global
indices into those rows.  Absorbing a frame appends its M rows and
points its slots at them (O(M*K)); every other slot holds 0, the index
of the empty distribution, so a frame reads as empty wherever it was not
aligned, rows created after it included.  The state is built with the
store's first sizes (``_STORE_CAPACITY``), whatever its frames will be;
when the kernels' absorb answers that it lacks room,
``CombinerState._reserve`` grows row ids and frames to twice their size
(or more, if the frame needs it) and appends blocks until the rows fit,
so no kernel grows anything; display order is applied only when the
history is read, by ``CombinerState.contributions``.
A freed state hands its blocks to the spare blocks (``_SPARE``, at most
``_SPARE_BYTES``, by block shape), and a new state's first block and
appended blocks come from there before ``np.empty``: glibc gives a freed
block's pages back to the system, so a new block would fault them in
afresh, once per state, where a steady run of states that reuse the spare
blocks faults in none (CHANGES.md, 2ce9d42).  A block
goes back only when the state holds its last reference: one that a
shallow copy of the state or a view still holds stays where it is.  A
reused block's rows are another state's, as a new block's are garbage:
``__init__`` writes the empty row 0 again, and no other row is read before
an absorb writes it, as slots index only rows below ``_used``.

Two kernels give the same alignments, rows, row ids and store bit for
bit, and each caller makes one call of the one that ``_kernels.get()``
returns, given the state's arrays themselves: ``CombinerState.absorb``
and ``combine_candidate`` call its ``absorb`` (the costs, in numpy's
summation order, the table, the path, the merge, the row ids and, with a
history store, the store write and the scan below over the merged rows;
that call alone tests the room), and ``align`` its ``align`` (the same
without the merge and the store).  The compiled kernels are ``fs_absorb``
and ``fs_spread`` in ``_kernels.c``; the Python ones, the reference, are
:func:`_absorb` and :func:`_align` here, which run numpy's
``pairwise_costs`` / ``gap_costs``, ``metrics.cost_table``, the
traceback :func:`_path`, :func:`_merge` and the numpy scan
(:func:`_spread`).

Methods ``a`` and ``b`` read the store through
``CombinerState.candidate_gld``, which returns the one record the absorb
kept: an O(n*S*K) scan of each frame's spread from the current rows,
taken by row id from the combined result, then each candidate's GLD g
(the spread times its merge share, halved), its nGLD d at 2 S and the
sums of both, as ``(d, g, sum of g, sum of d)``.  A store means that
the absorb scans: every absorb into a state with a store runs the scan
once, in either kernel, whether or not it is read, so a caller that
reads only ``contributions`` pays for it too.
A slot holding 0 adds the current row's distance to the empty row
instead of K+1 terms.  The compiled scan sums each frame in frame-wide
accumulators, four vectors of four lanes over all of the frame's rows
plus a scalar sum of the classes past the last group of four and one of
the empty-slot distances, combined once per frame; numpy sums in its own
order, and the two agree to a few parts in 1e15.  ``b`` is ``a``'s
aggregate normalised once.
"""
import math
import operator
import random
import sys
import threading
from dataclasses import dataclass

import numpy as np

from . import _kernels
from .core import _FLOAT_MAX, CombinedResult, _empty_row
from .metrics import _as_rows, cost_table, gap_costs, normalized, pairwise_costs
from .treap import MultisetIndex

# merge_share halves both weights from here on, so their sum stays finite
_HALVE_FROM = 2.0**1023

# frames per slice of the numpy history scan, which bounds its temporary
_SCAN_FRAMES = 32

# first sizes of a new state: rows of a history block (a power of two), frames,
# row ids; a 30-stage clip of acceptance criterion 7's recipe uses at most 466
# rows and 46 row ids
_STORE_CAPACITY = (512, 32, 64)

# the most bytes of history blocks that freed states leave for the next ones;
# two 400-stage states at K+1 = 37 hold 24 blocks, 3.6 MB
_SPARE_BYTES = 8 << 20


def _grown(array, needed, keep):
    """An array of twice ``array``'s rows, or of ``needed`` if that is more,
    holding its first ``keep`` rows; the rest is uninitialised."""
    grown = np.empty((max(2 * len(array), needed), *array.shape[1:]), dtype=array.dtype)
    grown[:keep] = array[:keep]
    return grown


class _SpareBlocks:
    """History blocks that freed states left, by shape, for the next states
    to take before they allocate (see the module docstring): at most
    ``cap`` bytes of them, and blocks of two shapes never mix.  States of
    several threads share them, so both ends hold a lock."""

    def __init__(self, cap):
        self.cap = cap
        self.held = 0  # bytes of the blocks kept
        self.blocks = {}  # shape -> blocks, the last kept taken first
        self._lock = threading.Lock()

    def take(self, shape):
        """A block of ``shape`` whose rows are not initialised: a kept one
        if there is one, else a new array."""
        with self._lock:
            kept = self.blocks.get(shape)
            if kept:
                block = kept.pop()
                self.held -= block.nbytes
                return block
        return np.empty(shape)

    def keep(self, block):
        """Keep ``block`` if it fits under the cap.  A finalizer calls this,
        maybe while its own thread holds the lock in :meth:`take` or here,
        so a busy lock drops the block rather than wait."""
        if not self._lock.acquire(blocking=False):
            return
        try:
            if self.held + block.nbytes <= self.cap:
                self.blocks.setdefault(block.shape, []).append(block)
                self.held += block.nbytes
        finally:
            self._lock.release()


_SPARE = _SpareBlocks(_SPARE_BYTES)


@dataclass(frozen=True)
class Alignment:
    """Ordered row pairing between a frame and the combined result.

    Two index lists, one entry per step in output order: walking them
    while merging produces the rows of the next combined result.
    ``result_rows`` holds the combined row, or S (one past the last) where
    the step inserts a brand-new row for a frame row the result lacks;
    ``frame_rows`` holds the frame row, or M where the step skips a
    combined row the frame lacks.  A step with neither index at its end
    is a match.  These are the indices into both row matrices padded with
    the empty row, which is what the merge gathers with.  ``inserted``
    and ``dropped`` count the steps holding S and M.
    """

    result_rows: tuple[int, ...]
    frame_rows: tuple[int, ...]
    cost: float
    inserted: int
    dropped: int


def merge_share(weight, total):
    """Share w / (W + w) that a frame of weight ``w`` takes in a merge into weight ``W``.

    Elementwise when ``weight`` is a numpy array.  Exactly w / (W + w)
    while both terms are below 2**1023, where their sum cannot overflow.
    From there both are halved first, so the sum stays finite for any pair
    of finite weights; the halving is exact for every term but a subnormal
    one, whose effect on the share then rounds away either way.  The share
    is 0 where the sum is not positive.
    """
    if not isinstance(weight, np.ndarray):
        return _scalar_share(weight, total)
    if weight.max(initial=total) >= _HALVE_FROM:
        weight, total = 0.5 * weight, 0.5 * total
    denom = total + weight
    return np.divide(weight, denom, out=np.zeros_like(denom), where=denom > 0)


def _scalar_share(weight, total):
    """:func:`merge_share` of a float ``weight``, without its type test:
    the share a state caches for its next candidate, and each candidate's
    share of ``estimate_base``."""
    if weight >= _HALVE_FROM or total >= _HALVE_FROM:
        weight, total = 0.5 * weight, 0.5 * total
    denom = total + weight
    return weight / denom if denom > 0 else 0.0


def _index(value, name):
    """``value`` as an int, through ``operator.index``.  A bool is refused:
    numpy would read True or False as a mask, not as an index."""
    if isinstance(value, bool):
        raise TypeError(f"{name} must be an integer, not bool")
    try:
        return operator.index(value)
    except TypeError:
        raise TypeError(f"{name} must be an integer, not {type(value).__name__}") from None


def align(frame, result):
    """Minimal-cost row alignment of ``frame`` against ``result``.

    A match costs the char distance between the paired rows; skipping a
    row on either side costs its distance to the empty distribution.  Ties
    are broken deterministically, scanning from the start: a match first,
    then skipping the combined row, then inserting the frame row.  Rows
    that are not a 2-D array, or that hold a NaN or an infinity, raise
    ValueError, as in ``metrics.gld``.

    This is one ``align`` call of the kernels (see the module docstring):
    ``fs_absorb`` with no merge and no store, whose costs equal numpy's
    ``pairwise_costs`` / ``gap_costs`` bit for bit, or :func:`_align`, the
    reference.  A ``base`` stage at
    n=25 is 26 alignments and an ``a`` stage one, so a faster ``align``
    narrows criterion 7's ratio (``base`` at least 10x ``a`` per stage at
    n=25), as ``a``'s absorb runs the same faster costs; CHANGES.md gives
    the measured ratio at each change to it.
    """
    combined = _as_rows(result)
    fresh = _as_rows(frame)
    if combined.shape[0] and fresh.shape[0] and combined.shape[1] != fresh.shape[1]:
        raise ValueError(
            f"class counts differ: frame {fresh.shape[1] - 1} vs result {combined.shape[1] - 1}"
        )
    result_rows, frame_rows, cost = _kernels.get().align(combined, fresh)
    if not math.isfinite(cost):
        raise ValueError(f"alignment cost is {cost}: rows must be finite")
    steps, s, m = len(result_rows), combined.shape[0], fresh.shape[0]
    return Alignment(result_rows, frame_rows, cost, steps - s, steps - m)


def _align(result, frame):
    """The Python kernel ``align``: (result_rows, frame_rows, cost) of the
    rows ``frame`` against the rows ``result``, 2-D arrays of one width,
    from numpy's costs and :func:`_path`; the cost finite or not."""
    s, m = len(result), len(frame)
    sub = pairwise_costs(result, frame) if s and m else np.zeros((s, m))
    # the cost of skipping each result row, and of inserting each frame row
    return _path(sub.tolist(), gap_costs(result).tolist(), gap_costs(frame).tolist())


def _path(sub, skip, gaps):
    """(result_rows, frame_rows, cost) from :func:`metrics.cost_table` over
    nested lists: the reference of the path the compiled ``align`` reads."""
    table = cost_table(sub, skip, gaps)
    s, m = len(skip), len(gaps)
    # read the path off from the front, recomputing each cell's choices in
    # tie order; the recomputation is bit-equal to the one that filled it
    result_rows = []
    frame_rows = []
    i = j = 0
    while i < s or j < m:
        here = table[i][j]
        if i < s and j < m and sub[i][j] + table[i + 1][j + 1] == here:  # match
            result_rows.append(i)
            frame_rows.append(j)
            i += 1
            j += 1
        elif i < s and skip[i] + table[i + 1][j] == here:  # skip the combined row
            result_rows.append(i)
            frame_rows.append(m)
            i += 1
        elif j < m:  # insert the frame row
            result_rows.append(s)
            frame_rows.append(j)
            j += 1
        else:  # no choice reproduces the cell: a NaN cost
            raise ValueError("alignment costs hold a NaN: rows must be finite")
    return tuple(result_rows), tuple(frame_rows), table[0][0]


def _merge(result_rows, frame_rows, frame_padded, result_padded, factor):
    """Rows of the merge along the path ``result_rows``, ``frame_rows``
    (see :class:`Alignment`), followed by the empty row; factor = new
    weight / total weight.

    Both inputs end with the empty row, which a gap step gathers for the
    side it skips.  Each step gives ``old + factor * (new - old)``,
    computed in place in the output.
    """
    steps = len(result_rows)
    merged = np.empty((steps + 1, result_padded.shape[1]))
    rows = merged[:steps]
    frame_padded.take(frame_rows, axis=0, out=rows)
    old = result_padded.take(result_rows, axis=0)
    rows -= old
    rows *= factor
    rows += old
    merged[steps] = result_padded[-1]
    return merged


def _absorb(result, frame, factor, order, blocks, used, slots, frame_index, share):
    """The Python kernel ``absorb``, with the compiled entry point's
    arguments and answer (see ``_kernels``): the frame rows ``frame`` merged
    into the result rows ``result``, each followed by the empty row, with
    the share ``factor``, along :func:`_align`'s path (:func:`_merge`); the
    row ids of the merged rows written to ``order``, which holds the
    result's on entry, the rows the merge inserts taking the ids S.., in
    order.  With a history store (``blocks`` not None) the frame's rows are
    appended at global row ``used``, on into the next blocks where they
    reach the end of one, frame ``frame_index``'s slot of the row id each
    frame row merged into is pointed at it, and the numpy scan
    (:func:`_spread`) runs over the merged rows, with the next candidates'
    ``share``.  Answers ``(cost, merged, scan)``, ``scan`` the kept record
    ``(d, g, sum of g, sum of d)``, d the nGLD of g at 2 S, or None without
    a store.  None, writing nothing, where ``order`` lacks S + M entries
    or the store the frame, M rows or S + M row ids; ValueError, writing
    nothing, where the alignment cost is not finite."""
    s, m = len(result) - 1, len(frame) - 1
    if len(order) < s + m or blocks is not None and not (
        frame_index < len(slots) and s + m <= slots.shape[1]
        and used + m <= len(blocks) * len(blocks[0])
    ):
        return None
    result_rows, frame_rows, cost = _align(result[:s], frame[:m])
    if not math.isfinite(cost):
        raise ValueError(f"alignment cost is {cost}: rows must be finite")
    merged = _merge(result_rows, frame_rows, frame, result, factor)
    merged.setflags(write=False)
    steps = len(result_rows)
    ids, new_ids = order[:s].tolist(), iter(range(s, steps))
    order[:steps] = [ids[r] if r < s else next(new_ids) for r in result_rows]
    if blocks is None:
        return cost, merged, None
    size = len(blocks[0])
    for start in range(used - used % size, used + m, size):
        low, high = max(used, start), min(used + m, start + size)
        blocks[start // size][low - start : high - start] = frame[low - used : high - used]
    # the row id of each frame row, in frame order
    rids = [rid for rid, j in zip(order[:steps].tolist(), frame_rows) if j < m]
    slots[frame_index, rids] = range(used, used + m)
    g = _spread(blocks, slots[: frame_index + 1], order[:steps], merged[:steps]) * share / 2.0
    d = normalized(g, 2.0 * steps)
    g.setflags(write=False)
    d.setflags(write=False)
    return cost, merged, (d, g, float(g.sum()), float(d.sum()))


def _gather(blocks, index, classes=slice(None)):
    """The rows of the history store ``blocks`` at the global row indices
    ``index``, an int64 array of any shape, cut to ``classes`` (an index
    into K+1): a new array of that shape followed by the cut's.  The rows
    from the least nonzero index to the largest are copied out of their
    blocks once, after the empty row, and gathered from there, so the cost
    follows the rows spanned, however many blocks they lie in."""
    size = len(blocks[0])
    high = int(index.max(initial=0)) + 1
    low = int(index.min(initial=high, where=index > 0))
    pieces = [blocks[0][:1, classes]]
    for start in range(low - low % size, high, size):
        rows = blocks[start // size]
        pieces.append(rows[max(low - start, 0) : min(high - start, size), classes])
    return np.concatenate(pieces).take(np.maximum(index - (low - 1), 0), axis=0)


def _spread(blocks, slots, order, rows):
    """Per frame of ``slots``, the sum over rows and classes of |current -
    contribution|, shape (n,): the numpy scan of the history store
    ``blocks``, the current rows taken by row id from ``rows`` through the
    inverse of the row-id ``order``.  ``_SCAN_FRAMES`` frames at a time,
    gathered across the blocks, so no temporary grows with the history."""
    s = len(order)
    position = np.empty(s, dtype=np.int64)  # row id r's row in rows
    position[order] = np.arange(s)
    current = rows[position]
    n = len(slots)
    out = np.empty(n)
    for f in range(0, n, _SCAN_FRAMES):
        frames = slice(f, min(n, f + _SCAN_FRAMES))
        out[frames] = np.abs(_gather(blocks, slots[frames, :s]) - current).sum(axis=(1, 2))
    return out


class CombinerState:
    """Running combination of a stream of recognition frames.

    ``track_history`` keeps the history store: per frame and row id, what
    the frame merged into that row (the empty distribution wherever the
    frame was not aligned to it, including rows created after the frame),
    as an index into the absorbed rows, each kept once.  ``track_treaps``
    is another name for the same switch: a state keeps the store if
    either is true, and each attribute records what its keyword was
    given.  A state with a store serves methods ``a`` and ``b``
    (:meth:`candidate_gld`), :attr:`contributions` and :meth:`cell`,
    whatever its frames' weights; a state without one refuses all four.
    Both default off, so plain combination carries no bookkeeping
    overhead.  ``seed`` seeds only the treap priorities of :meth:`cell`.

    ``n`` counts the frames absorbed and ``num_chars`` the combined rows, S.
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
        block_rows, frames, ids = _STORE_CAPACITY
        self._ids = np.empty(ids, dtype=np.int64)  # row ids 0..S-1 in display order, and room
        empty = _empty_row(self._width)[None].copy()  # owns its data, as every result does
        empty.setflags(write=False)
        # the one result array, the S rows followed by the empty row, and
        # S; it is write-protected and owns its data, so no view of it is
        # writable: both kernels' absorb return it so
        self._padded = empty
        self.num_chars = 0
        self._matrix = None  # mean_rows: _padded[:S], sliced on its first read
        # the absorb's scan of this result, (d, g, sum of g, sum of d), which
        # candidate_gld returns; None without a store
        self._scan = None
        self._weights = []
        self._common_weight = 1.0  # the weight of every frame so far; None once two differ
        self._share = 1.0  # the next candidate's: merge_share(_common_weight, weight_total)
        self._seed = seed
        # the history store: _slots[i, rid] is the global index, in absorb
        # order, of the row frame i merged into row id rid, and global row
        # g is row g & (2**_shift - 1) of block g >> _shift of _blocks, a
        # tuple of (2**_shift, K+1) arrays.  Row 0 is the empty
        # distribution and every slot starts at 0, so a frame not aligned
        # to a row, or older than it, reads as empty with no code for it.
        # The store starts as one block, slots for the first frames and a
        # slot per row id; a block is never copied, moved or resized: when
        # the rows outgrow the last, the next is appended.  Only an absorb
        # writes _slots, and only indices below _used, which the compiled
        # scan relies on to stay inside the blocks.
        self._blocks = self._slots = None
        if track_history or track_treaps:
            first = _SPARE.take((block_rows, self._width))
            first[0] = _empty_row(self._width)  # a kept block's row 0 is another state's
            self._blocks = (first,)
            self._slots = np.zeros((frames, ids), dtype=np.int64)
        self._shift = block_rows.bit_length() - 1
        self._used = 1  # global rows in use, the empty row included

    def __del__(self, _refs=sys.getrefcount, _spare=_SPARE):
        """Give the spare blocks each history block that only this state
        holds: not a block that a shallow copy of the state shares, nor one
        that a view keeps.  Both names are bound as defaults, as a state
        freed at exit may outlive the module's globals."""
        # None without a store, or when __init__ raised before it
        blocks = self.__dict__.pop("_blocks", None)
        # the count of an object that one local name holds, as blocks is here, so
        # that the tests below compare like with like whatever a call adds to it
        lone = object()
        alone = _refs(lone)
        if blocks is None or _refs(blocks) > alone:  # a shallow copy holds the tuple too
            return
        for block in blocks:
            if _refs(block) == alone + 1:  # held by the tuple and this loop alone
                _spare.keep(block)

    @property
    def mean_rows(self):
        """Current combined rows, shape (S, K+1); a write-protected snapshot:
        the view of the result without its empty row, made on the first
        read after an absorb and kept until the next."""
        rows = self._matrix
        if rows is None:
            rows = self._matrix = self._padded[: self.num_chars]
        return rows

    @property
    def row_ids(self):
        return tuple(self._ids[: self.num_chars].tolist())

    @property
    def weights(self):
        return tuple(self._weights)

    def _check_frame(self, frame):
        if frame.padded_rows.shape[1] != self._width:
            raise ValueError(
                f"frame has {frame.num_classes} classes, state expects {self.alphabet.size}"
            )

    def absorb(self, frame):
        """Fold one frame into the combined result, updating all bookkeeping.

        The history store appends the frame's rows and points the frame's
        slots of the row ids they were aligned to at them; every other row
        already reads as empty for this frame.  With a store, the state
        then keeps the scan that :meth:`candidate_gld` reads until the next
        absorb, write-protected.  This is one ``absorb`` call of the kernels
        (see the module docstring): the alignment, the merge, the store
        write and the scan, given the next candidates' shares.  That call is
        the only test of the room: when s + m row ids, ``_used`` + m rows or
        n + 1 frames are more than the state holds it answers None, writing
        nothing, and :meth:`_reserve` makes the room before the call is made
        again.  ``absorb`` refuses a non-finite alignment cost as
        :func:`align` does, writing nothing, and hands back the merged rows,
        followed by the empty row, write-protected: the array the state
        keeps.  Only a MemoryError in the compiled entry point's cut, after
        the row ids and the store are written, leaves the state
        inconsistent.  A frame of the common weight merges by the cached
        ``_share``, :func:`merge_share`'s float even for zero weights.
        """
        self._check_frame(frame)
        w = frame.weight
        new_total = self.weight_total + w
        if new_total > _FLOAT_MAX:
            raise ValueError(f"frame weight {w} makes the weight total overflow")
        factor = self._share if w == self._common_weight else _scalar_share(w, self.weight_total)
        common = self.n == 0 or w == self._common_weight
        # the next candidates' share, which the absorb's scan takes
        if common:
            share = _scalar_share(w, new_total)
        elif self._blocks is not None:
            share = merge_share(np.asarray([*self._weights, w]), new_total)
        else:
            share = None
        kernels = _kernels.get()
        while (answer := kernels.absorb(
            self._padded, frame.padded_rows, factor, self._ids, self._blocks, self._used,
            self._slots, self.n, share,
        )) is None:  # no room, nothing written
            self._reserve(len(frame.rows))
        _, self._padded, self._scan = answer
        self.num_chars = len(self._padded) - 1
        self._matrix = None
        self._weights.append(w)
        if common:
            self._common_weight = w
            self._share = share
        else:
            self._common_weight = None
        self.n += 1
        self.weight_total = new_total
        if self._blocks is not None:
            self._used += len(frame.rows)

    def _reserve(self, m):
        """Make room for frame n of ``m`` rows, whatever its alignment: s + m
        row ids and, with a history store, ``_used + m`` rows and n + 1
        frames, as a frame inserts at most m rows; nothing grows where the
        room is there.  Row ids and frames too few grow to twice their
        size, or to what is needed if more (:func:`_grown`; slots zeroed),
        and blocks of the state's block size are appended until the rows
        fit."""
        s = self.num_chars
        frames, ids = self.n + 1, s + m
        if ids > len(self._ids):
            self._ids = _grown(self._ids, ids, s)
        if self._blocks is None:
            return
        size = 1 << self._shift
        missing = self._used + m - len(self._blocks) * size
        if missing > 0:
            shape = (size, self._width)
            self._blocks += tuple(_SPARE.take(shape) for _ in range(-(-missing // size)))
        old = self._slots
        if frames > len(old) or len(self._ids) > old.shape[1]:  # a slot per row id
            height = len(old) if frames <= len(old) else max(2 * len(old), frames)
            self._slots = np.zeros((height, len(self._ids)), dtype=np.int64)
            self._slots[: self.n, : old.shape[1]] = old[: self.n]

    def candidate_alignment(self, candidate):
        """Alignment of ``candidate`` against the current result, and its merge share.

        The share is :func:`merge_share` of the candidate's weight into the
        weight total so far; the state is untouched.
        """
        self._check_frame(candidate)
        return align(candidate, self.mean_rows), _scalar_share(candidate.weight, self.weight_total)

    def combine_candidate(self, candidate):
        """Combined result if ``candidate`` arrived next, merged with its
        :func:`merge_share`; the state is untouched: one ``absorb`` call of
        the kernels with no history store, on a copy of the row-id order."""
        self._check_frame(candidate)
        s = self.num_chars
        order = np.empty(s + candidate.num_chars, dtype=np.int64)
        order[:s] = self._ids[:s]
        share = _scalar_share(candidate.weight, self.weight_total)
        _, merged, _ = _kernels.get().absorb(
            self._padded, candidate.padded_rows, share, order, None, 0, None, 0, None
        )
        return CombinedResult(merged[:-1], order[: len(merged) - 1].tolist())

    def current_result(self):
        """Snapshot of the combined result after the frames absorbed so far."""
        if self.n == 0:
            raise ValueError("no frames absorbed yet")
        return CombinedResult(self.mean_rows, self.row_ids)

    def candidate_gld(self):
        """Method a's distance to every candidate next merge, and their sums.

        Candidate i, frame i arriving again, moves every row by its merge
        share, :func:`merge_share` of frame i's weight into the weight
        total, of the gap between the current row and what frame i merged
        into it, as the merge itself does.  So its GLD g_i is half that
        share times frame i's spread, the sum over rows and classes of
        |current - what frame i merged| (:func:`_spread`).  Returns the
        scan the last absorb kept (see the module docstring),
        (d, g, sum of g, sum of d): g and its nGLD d at the length 2 S
        (:func:`metrics.normalized`), write-protected arrays of shape (n,),
        the same tuple until the next absorb, on either route.
        """
        self._check_store()
        if self.n == 0:
            raise ValueError("cannot estimate before the first frame")
        return self._scan

    def _check_store(self):
        """Refuse a state that keeps no history store, the one test of every
        reader of the store."""
        if self._blocks is None:
            raise ValueError("state was built without a history store: pass track_history "
                             "(or its alias track_treaps)")

    def _row_id(self, row_id):
        row_id = _index(row_id, "row id")
        if row_id not in range(self.num_chars):
            raise KeyError(f"unknown row id {row_id}")
        return row_id

    @property
    def contributions(self):
        """History tensor, shape (n, S, K+1): what each frame merged into each
        row, rows in display order; a write-protected copy gathered from the store."""
        self._check_store()
        gathered = _gather(self._blocks, self._slots[: self.n, self._ids[: self.num_chars]])
        gathered.setflags(write=False)
        return gathered

    def cell(self, row_id, class_index):
        """Treap of the history column of (row_id, class_index), built from the store.

        Each frame counts once, whatever its weight.  Priorities are seeded
        from the state's seed and the cell, so the same cell always gets the
        same shape.  ``class_index`` runs over 0..K, 0 being the empty class.
        Both indices are integers; a bool or a float raises TypeError.
        """
        self._check_store()
        row_id = self._row_id(row_id)
        class_index = _index(class_index, "class index")
        if not 0 <= class_index < self._width:
            raise IndexError(f"class index {class_index} out of range")
        column = _gather(self._blocks, self._slots[: self.n, row_id], class_index)
        values, counts = np.unique(column, return_counts=True)
        index = MultisetIndex(random.Random(f"{self._seed}:{row_id}:{class_index}"))
        for value, count in zip(values.tolist(), counts.tolist()):
            index.insert(value, count)
        return index
