"""Data model for per-frame text string recognition results.

A recognition result is a matrix of character distributions: one row per
character position, one column per character class, every entry in [0, 1]
and every row summing to one.  Internally each row carries one extra
leading column for the synthetic "empty" class (index 0), which stands for
"no character at this position" and is what unaligned positions get paired
with during combination.  Freshly loaded frames always have zero mass in
that column; it only picks up mass once frames of different lengths are
merged.

All numeric data is float64 numpy, and the arrays held by the types below
are write-protected after construction, so instances can be shared freely
across workers.
"""

import math
import warnings

import numpy as np

from . import metrics

# Rows must sum to one within this bound to count as valid distributions.
SUM_TOLERANCE = 1e-9

# Raw rows whose sums deviate from one by more than this still get
# renormalized, but loudly: softmax outputs are rarely bit-exact, yet a
# large deviation usually means the caller sent unnormalized scores.
RENORMALIZE_WARN = 1e-6

# Sums this close to one are left untouched so that writing and reloading
# already-normalized data reproduces it bit for bit.
_RENORMALIZE_SKIP = 1e-12

_FLOAT_MAX = float(np.finfo(np.float64).max)


class Alphabet:
    """Ordered set of distinct character symbols.

    The empty class is not a member; it lives implicitly at index 0 of
    extended distribution rows, with the alphabet's symbols occupying
    indices 1..K in order.
    """

    def __init__(self, symbols):
        syms = tuple(symbols)
        if not syms:
            raise ValueError("alphabet must contain at least one symbol")
        if any(not isinstance(s, str) or len(s) != 1 for s in syms):
            raise ValueError("alphabet symbols must be single characters")
        if len(set(syms)) != len(syms):
            raise ValueError("alphabet symbols must be distinct")
        self._symbols = syms
        self._positions = {ch: i for i, ch in enumerate(syms)}

    @property
    def symbols(self):
        return self._symbols

    @property
    def size(self):
        """Number of character classes, excluding the empty class."""
        return len(self._symbols)

    def position(self, symbol):
        """0-based position of ``symbol`` in the alphabet."""
        try:
            return self._positions[symbol]
        except KeyError:
            raise ValueError(f"symbol {symbol!r} is not in the alphabet") from None

    def __contains__(self, symbol):
        return symbol in self._positions

    def __len__(self):
        return len(self._symbols)

    def __eq__(self, other):
        return isinstance(other, Alphabet) and self._symbols == other._symbols

    def __hash__(self):
        return hash(self._symbols)

    def __repr__(self):
        return f"Alphabet({''.join(self._symbols)!r})"


def empty_distribution(alphabet):
    """Distribution representing "no character": all mass on the empty class."""
    return _empty_row(alphabet.size + 1)


def _empty_row(width):
    row = np.zeros(width)
    row[0] = 1.0
    return row


def _check_distribution_rows(rows, what):
    """Validate a 2-D array of extended distribution rows; returns the least entry."""
    if rows.ndim != 2:
        raise ValueError(f"{what} must be a 2-D array of distribution rows")
    if rows.shape[1] < 2:
        raise ValueError(f"{what} rows need the empty class plus at least one symbol class")
    if rows.size == 0:
        return 0.0
    least, most = rows.min(), rows.max()
    if not (math.isfinite(least) and math.isfinite(most)):  # NaN reaches both
        raise ValueError(f"{what} contains non-finite values")
    if least < -SUM_TOLERANCE or most > 1.0 + SUM_TOLERANCE:
        raise ValueError(f"{what} entries must lie in [0, 1]")
    sums = rows.sum(axis=1)
    worst = np.abs(sums - 1.0).max()
    if worst > SUM_TOLERANCE:
        raise ValueError(f"{what} rows must sum to 1 (worst deviation {worst:.3g})")
    return least


class RecognitionFrame:
    """One frame's recognition result: distribution rows plus a weight.

    ``rows`` has shape (M, K+1) with the empty-class column at index 0;
    entries in [-SUM_TOLERANCE, 0), which validation accepts, are stored
    as 0.  ``padded_rows`` is ``rows`` followed by the empty row, the
    layout the merge gathers from; ``rows`` is a view of it.
    Use :func:`make_frame` or :func:`from_string` to build frames from raw
    per-class scores or ground-truth text.
    """

    def __init__(self, rows, weight=1.0):
        rows = np.asarray(rows, dtype=np.float64)
        least = _check_distribution_rows(rows, "frame")
        if isinstance(weight, (bool, np.bool_)):  # a number to numpy, but not a weight
            raise TypeError("frame weight must be a number, not bool")
        if not np.isfinite(weight) or weight < 0:
            raise ValueError("frame weight must be a non-negative number")
        padded = np.zeros((rows.shape[0] + 1, rows.shape[1]))
        padded[:-1] = rows
        if least < 0:  # the tiny negatives validation lets through
            np.maximum(padded, 0.0, out=padded)
        padded[-1, 0] = 1.0
        padded.setflags(write=False)
        self.padded_rows = padded
        self.rows = padded[:-1]  # a view made after the write lock, so locked too
        self.weight = float(weight)

    @property
    def num_chars(self):
        return self.rows.shape[0]

    @property
    def num_classes(self):
        """Number of character classes, excluding the empty class."""
        return self.rows.shape[1] - 1

    def __repr__(self):
        return f"RecognitionFrame(chars={self.num_chars}, classes={self.num_classes}, weight={self.weight})"


def make_frame(raw_rows, weight=1.0, *, num_classes=None):
    """Build a frame from raw per-character class scores.

    ``raw_rows`` lists one score per alphabet class (no empty-class
    column).  Rows are renormalized to sum to one and the empty-class
    column is prepended with value 0.  Pass ``num_classes`` to pin the
    expected row width; it is required when ``raw_rows`` has no rows, since
    the width cannot be inferred from nothing.
    """
    rows = np.array(raw_rows, dtype=np.float64)
    if rows.shape[:1] == (0,):  # no rows; a row of no scores meets the width checks
        if num_classes is None:
            raise ValueError("num_classes is required for a zero-length frame")
        if num_classes < 1:
            raise ValueError("num_classes must be at least 1")
        return RecognitionFrame(np.zeros((0, num_classes + 1)), weight)
    if rows.ndim != 2:
        raise ValueError("raw rows must form a 2-D array: one row per character")
    if num_classes is not None and rows.shape[1] != num_classes:
        raise ValueError(f"rows have {rows.shape[1]} classes, expected {num_classes}")
    if rows.shape[1] == 0:
        raise ValueError("rows need at least one class")
    least, most = rows.min(), rows.max()
    if not (math.isfinite(least) and math.isfinite(most)):  # NaN reaches both
        raise ValueError("raw rows contain non-finite values")
    if least < 0:
        raise ValueError("raw rows must be non-negative")
    if most > _FLOAT_MAX / (2 * rows.shape[1]):  # a row sum may overflow, rounding included
        with np.errstate(over="ignore"):
            sums = rows.sum(axis=1)
        huge = ~np.isfinite(sums)  # scale these by their maximum before summing
        rows[huge] /= rows[huge].max(axis=1, keepdims=True)
        sums[huge] = rows[huge].sum(axis=1)
    else:
        sums = rows.sum(axis=1)
    if (sums <= 0).any():
        bad = int(np.argmax(sums <= 0))
        raise ValueError(f"row {bad} sums to zero; every character needs some mass")
    deviation = np.abs(sums - 1.0)
    if deviation.max() > RENORMALIZE_WARN:
        warnings.warn(
            f"renormalizing rows with sum deviation up to {deviation.max():.3g}",
            stacklevel=2,
        )
    fix = deviation > _RENORMALIZE_SKIP
    if fix.any():
        rows[fix] /= sums[fix, None]
    extended = np.hstack([np.zeros((rows.shape[0], 1)), rows])
    return RecognitionFrame(extended, weight)


def from_string(text, alphabet, weight=1.0):
    """One-hot frame for a known text, e.g. the ground truth of a clip."""
    rows = np.zeros((len(text), alphabet.size + 1))
    for j, ch in enumerate(text):
        rows[j, alphabet.position(ch) + 1] = 1.0
    return RecognitionFrame(rows, weight)


def to_text(rows, alphabet, *, drop_empty=False):
    """Greedy readout of distribution rows: the strongest symbol per row.

    The empty class never wins directly; with ``drop_empty`` rows whose
    empty-class mass dominates every symbol are skipped, which is the
    natural way to display a combined result.  Rows that are not a 2-D
    array raise ValueError, as in ``metrics.gld``, and so do rows of any
    width but the alphabet's size + 1.
    """
    rows = metrics._as_rows(rows)
    if rows.shape[0] and rows.shape[1] != alphabet.size + 1:
        raise ValueError(f"rows are {rows.shape[1]} wide, expected {alphabet.size + 1}: "
                         f"the empty class and {alphabet.size} symbols")
    if rows.size == 0:
        return ""
    chars = []
    for row in rows:
        best = int(np.argmax(row[1:]))
        if drop_empty and row[0] >= row[1 + best]:
            continue
        chars.append(alphabet.symbols[best])
    return "".join(chars)


class CombinedResult:
    """Accumulated combination of frame results.

    Same row layout as a frame.  ``row_ids`` are stable identifiers
    assigned in creation order; the tuple lists them in display order, so
    rows inserted by later frames do not disturb the identity of existing
    rows.
    """

    def __init__(self, rows, row_ids):
        rows = np.array(rows, dtype=np.float64)
        _check_distribution_rows(rows, "combined result")
        row_ids = tuple(row_ids)
        if len(row_ids) != rows.shape[0]:
            raise ValueError("need exactly one row id per row")
        if len(set(row_ids)) != len(row_ids):
            raise ValueError("row ids must be unique")
        rows.setflags(write=False)
        self.rows = rows
        self.row_ids = row_ids

    @property
    def num_chars(self):
        return self.rows.shape[0]

    @property
    def num_classes(self):
        return self.rows.shape[1] - 1

    def __len__(self):
        return self.rows.shape[0]

    def __repr__(self):
        return f"CombinedResult(chars={self.num_chars}, classes={self.num_classes})"


class Clip:
    """A unit of evaluation: frames of one text object plus its true value."""

    def __init__(self, clip_id, alphabet, truth, frames):
        if not isinstance(truth, str):  # a list of symbols would iterate as one
            raise TypeError(f"truth must be a string, not {type(truth).__name__}")
        frames = tuple(frames)
        for ch in truth:
            if ch not in alphabet:
                raise ValueError(f"truth contains {ch!r}, which is not in the alphabet")
        for idx, frame in enumerate(frames):
            if frame.num_classes != alphabet.size:
                raise ValueError(
                    f"frame {idx} has {frame.num_classes} classes, alphabet has {alphabet.size}"
                )
        self.id = str(clip_id)
        self.alphabet = alphabet
        self.truth = truth
        self.frames = frames

    def __repr__(self):
        return f"Clip({self.id!r}, frames={len(self.frames)}, truth={self.truth!r})"
