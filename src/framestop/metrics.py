"""Distances between recognition results.

Three layers: a scaled taxicab distance between two character
distributions, a generalized Levenshtein distance (GLD) between row
sequences that uses the taxicab distance for substitution and gap costs,
and a normalized GLD (nGLD) valued in [0, 1].  All three are metrics.
``cost_table`` is the one GLD dynamic program: ``gld`` reads its cost,
and ``combiner.align`` reads its path.  Both make one call of the kernel
module ``_kernels.get()`` returns.  Where the compiled kernels run, that
is their copy in ``_kernels.c``; otherwise it is the Python kernels,
:func:`pairwise_costs`, :func:`gap_costs` and ``cost_table``
(:func:`_cost` here), the reference.

The row distances (:func:`char_distance`, :func:`pairwise_costs`,
:func:`gap_costs`) sum their terms in framestop's own order,
:func:`_lane_sum`, written here from element-wise IEEE additions and in
``_kernels.c`` in C, not in numpy's ``sum``, whose order numpy does not
promise.  The C copy performs the same floating-point operations in the
same order, so it gives the same results bit for bit, in O(S*M) working
memory rather than the O(S*M*K) of the numpy cost matrix.
"""

import math
from enum import Enum

import numpy as np

from . import _kernels


class MetricKind(Enum):
    """Which sequence distance the estimators report."""

    GLD = "gld"
    NGLD = "ngld"


def _as_rows(seq):
    """``seq``'s rows as a 2-D aligned C-contiguous float64 array, the form
    the compiled kernels take; the array itself when it is one already.
    An unaligned array, such as ``np.frombuffer`` at an odd offset gives,
    is copied."""
    rows = np.ascontiguousarray(seq.rows if hasattr(seq, "rows") else seq, dtype=np.float64)
    if not rows.flags.aligned:
        rows = rows.copy()
    if rows.ndim == 1 and rows.size == 0:
        return rows.reshape(0, 0)
    if rows.ndim != 2:
        raise ValueError("expected a 2-D array of distribution rows")
    return rows


def _lane_sum(terms):
    """The sums of ``terms`` over its last axis in framestop's order: eight
    accumulators, starting at 0.0, over the whole groups of eight terms,
    accumulator l adding the terms k = l mod 8 in order, combined as
    ((0+1)+(2+3))+((4+5)+(6+7)), then the terms past the last whole group
    added in order.  Up to 128 terms this is the order of numpy's
    ``add.reduce`` on a contiguous axis; above that numpy splits the sum
    and this does not."""
    n = terms.shape[-1]
    whole = n - n % 8
    lanes = np.zeros(terms.shape[:-1] + (8,))
    for k in range(0, whole, 8):
        lanes += terms[..., k : k + 8]
    pairs = lanes[..., 0::2] + lanes[..., 1::2]
    halves = pairs[..., 0::2] + pairs[..., 1::2]
    total = halves[..., 0] + halves[..., 1]
    for k in range(whole, n):
        total += terms[..., k]
    return total


def char_distance(a, b):
    """Scaled taxicab distance between two distribution rows.

    Half the L1 distance, so two disjoint one-hot rows are at distance 1
    and the value always lies in [0, 1] for valid distributions.  Summed
    as :func:`pairwise_costs` sums, so it is that matrix's entry bit for
    bit.
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape:
        raise ValueError(f"row lengths differ: {a.shape} vs {b.shape}")
    return 0.5 * float(_lane_sum(np.abs(a - b)))


def gap_costs(rows):
    """Distance of each row to the empty distribution, vectorized."""
    rows = np.asarray(rows, dtype=np.float64)
    if rows.shape[0] == 0:
        return np.zeros(0)
    deltas = _lane_sum(np.abs(rows)) - np.abs(rows[:, 0]) + np.abs(rows[:, 0] - 1.0)
    return 0.5 * deltas


def _stacked(x_rows, y_rows):
    """The rows of ``x_rows`` then ``y_rows``, two row sets of one width or
    one of them empty, as one array: one :func:`gap_costs` call over both,
    split at ``len(x_rows)``, gives each side's costs bit for bit, as each
    row's cost is its own."""
    if not len(x_rows):
        return y_rows
    return np.concatenate((x_rows, y_rows)) if len(y_rows) else x_rows


def pairwise_costs(x_rows, y_rows):
    """Matrix of char_distance values between all row pairs of two sequences."""
    x_rows = np.asarray(x_rows, dtype=np.float64)
    y_rows = np.asarray(y_rows, dtype=np.float64)
    return 0.5 * _lane_sum(np.abs(x_rows[:, None, :] - y_rows[None, :, :]))


def cost_table(sub, gap_rows, gap_cols):
    """Backward table of the GLD recurrence over precomputed costs.

    ``table[i][j]`` is the least cost of aligning rows ``i..`` of the first
    sequence with rows ``j..`` of the second, so ``table[0][0]`` is their
    GLD.  ``sub[i][j]`` is the cost of pairing row i with row j (``sub``
    may be empty when either sequence is), ``gap_rows[i]`` / ``gap_cols[j]``
    the cost of skipping one row of either sequence.  Filled from the tail,
    so :func:`framestop.combiner.align` can read its path off from the
    front, where its tie order applies.  Nested lists of floats: at the
    sizes of one text line the Python loop beats per-row numpy calls.
    The whole table is kept, (S+1)*(M+1) floats at about 32 bytes each,
    the size of ``sub`` again; a caller after the cost alone pays that
    for sharing the one kernel.
    """
    s, m = len(gap_rows), len(gap_cols)
    below = [0.0] * (m + 1)
    for j in range(m - 1, -1, -1):
        below[j] = gap_cols[j] + below[j + 1]
    table = [below] * (s + 1)
    for i in range(s - 1, -1, -1):
        skip = gap_rows[i]
        left = skip + below[m]
        row = [left] * (m + 1)
        sub_i = sub[i] if m else ()
        for j in range(m - 1, -1, -1):
            best = sub_i[j] + below[j + 1]
            alt = skip + below[j]
            if alt < best:
                best = alt
            alt = gap_cols[j] + left
            if alt < best:
                best = alt
            row[j] = left = best
        table[i] = below = row
    return table


def gld(x, y):
    """Generalized Levenshtein distance between two row sequences.

    Substituting a row for another costs their char_distance; inserting or
    deleting a row costs its char_distance to the empty distribution.  For
    one-hot rows this reduces to plain Levenshtein distance.  Rows holding
    a NaN or an infinity raise ValueError, as in ``combiner.align``.

    Two kernels give the same cost bit for bit.  The compiled one
    computes the costs and the table in one C call with O(S*M) working
    memory: the substitution costs, the gap costs and the table as 8-byte
    doubles, no numpy temporary.  The Python one, :func:`_cost`, has a
    peak of O(S*M*K), in the substitution cost matrix of
    :func:`pairwise_costs`, and the table adds O(S*M) Python floats where
    a two-row forward pass would keep O(M): 64 rather than 48 bytes per
    cell at K+1=3 classes, no difference in the peak at K+1=37, where the
    cost matrix dominates (tracemalloc, S=M=1000).
    """
    return _gld(_as_rows(x), _as_rows(y))


def _gld(xr, yr):
    """:func:`gld` of two row sets that :func:`_as_rows` gave."""
    if xr.shape[1] and yr.shape[1] and xr.shape[1] != yr.shape[1]:
        raise ValueError(f"class counts differ: {xr.shape[1] - 1} vs {yr.shape[1] - 1}")
    cost = _kernels.get().gld(xr, yr)
    if not math.isfinite(cost):
        raise ValueError(f"GLD is {cost}: rows must be finite")
    return cost


def _cost(xr, yr):
    """The Python kernel ``gld``: the GLD of two row sets of one width that
    :func:`_as_rows` gave, from :func:`pairwise_costs`, :func:`gap_costs`
    and :func:`cost_table`; finite or not."""
    s, m = xr.shape[0], yr.shape[0]
    sub = pairwise_costs(xr, yr) if s and m else np.zeros((s, m))
    gaps = gap_costs(_stacked(xr, yr)).tolist()
    return cost_table(sub.tolist(), gaps[:s], gaps[s:])[0][0]


def normalized(g, length_sum):
    """nGLD value 2g / (g + L) of a GLD ``g`` between sequences of total length ``L``.

    Elementwise when ``g`` is an array.  The value is 0 wherever g + L is
    0: two empty sequences are identical.
    """
    denom = g + length_sum
    if isinstance(denom, np.ndarray):
        if (denom > 0).all():  # the usual case: no mask, no fill
            return 2.0 * g / denom
        return np.divide(2.0 * g, denom, out=np.zeros_like(denom), where=denom > 0)
    return 2.0 * g / denom if denom > 0 else 0.0


def ngld(x, y):
    """Normalized generalized Levenshtein distance, valued in [0, 1].

    2*GLD / (GLD + |x| + |y|); two empty sequences are identical, so the
    distance is 0 by definition in that case.
    """
    xr = _as_rows(x)
    yr = _as_rows(y)
    total = xr.shape[0] + yr.shape[0]
    if total == 0:
        return 0.0
    return normalized(_gld(xr, yr), total)
