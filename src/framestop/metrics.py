"""Distances between recognition results.

Three layers: a scaled taxicab distance between two character
distributions, a generalized Levenshtein distance (GLD) between row
sequences that uses the taxicab distance for substitution and gap costs,
and a normalized GLD (nGLD) valued in [0, 1].  All three are metrics.
``cost_table`` is the one GLD dynamic program: ``gld`` reads its cost,
and ``combiner.align`` reads its path.  Where a C compiler is available
both run its compiled copy in ``_kernels.c`` instead, which performs the
same floating-point operations in the same order and so gives the same
costs bit for bit; ``cost_table`` stays the fallback and the reference.
"""

from enum import Enum

import numpy as np

from . import _kernels


class MetricKind(Enum):
    """Which sequence distance the estimators report."""

    GLD = "gld"
    NGLD = "ngld"


def _as_rows(seq):
    rows = seq.rows if hasattr(seq, "rows") else np.asarray(seq, dtype=np.float64)
    if rows.ndim == 1 and rows.size == 0:
        return rows.reshape(0, 0)
    if rows.ndim != 2:
        raise ValueError("expected a 2-D array of distribution rows")
    return rows


def char_distance(a, b):
    """Scaled taxicab distance between two distribution rows.

    Half the L1 distance, so two disjoint one-hot rows are at distance 1
    and the value always lies in [0, 1] for valid distributions.
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape:
        raise ValueError(f"row lengths differ: {a.shape} vs {b.shape}")
    return 0.5 * float(np.abs(a - b).sum())


def gap_costs(rows):
    """Distance of each row to the empty distribution, vectorized."""
    rows = np.asarray(rows, dtype=np.float64)
    if rows.shape[0] == 0:
        return np.zeros(0)
    deltas = np.abs(rows).sum(axis=1) - np.abs(rows[:, 0]) + np.abs(rows[:, 0] - 1.0)
    return 0.5 * deltas


def pairwise_costs(x_rows, y_rows):
    """Matrix of char_distance values between all row pairs of two sequences."""
    x_rows = np.asarray(x_rows, dtype=np.float64)
    y_rows = np.asarray(y_rows, dtype=np.float64)
    return 0.5 * np.abs(x_rows[:, None, :] - y_rows[None, :, :]).sum(axis=2)


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
    one-hot rows this reduces to plain Levenshtein distance.

    Memory is O(S*M*K) at its peak, in the substitution cost matrix.  The
    backward table of :func:`cost_table` adds O(S*M) Python floats where a
    two-row forward pass would keep O(M): 64 rather than 48 bytes per cell
    at K+1=3 classes, no difference in the peak at K+1=37, where the
    cost matrix dominates (tracemalloc, S=M=1000).  The compiled fill
    keeps the table as 8-byte doubles.
    """
    xr = _as_rows(x)
    yr = _as_rows(y)
    if xr.shape[1] and yr.shape[1] and xr.shape[1] != yr.shape[1]:
        raise ValueError(f"class counts differ: {xr.shape[1] - 1} vs {yr.shape[1] - 1}")
    s, m = xr.shape[0], yr.shape[0]
    sub = pairwise_costs(xr, yr) if s and m else np.zeros((s, m))
    gaps_x, gaps_y = gap_costs(xr), gap_costs(yr)
    if _kernels.get() is not None:
        return _kernels.fill(sub, gaps_x, gaps_y)
    return cost_table(sub.tolist(), gaps_x.tolist(), gaps_y.tolist())[0][0]


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
    return normalized(gld(xr, yr), total)
