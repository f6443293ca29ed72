"""Distances between recognition results.

Three layers: a scaled taxicab distance between two character
distributions, a generalized Levenshtein distance (GLD) between row
sequences that uses the taxicab distance for substitution and gap costs,
and a normalized GLD (nGLD) valued in [0, 1].  All three are metrics.
"""

from enum import Enum

import numpy as np


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


def gld(x, y):
    """Generalized Levenshtein distance between two row sequences.

    Substituting a row for another costs their char_distance; inserting or
    deleting a row costs its char_distance to the empty distribution.  For
    one-hot rows this reduces to plain Levenshtein distance.
    """
    xr = _as_rows(x)
    yr = _as_rows(y)
    nx, ny = xr.shape[0], yr.shape[0]
    if xr.shape[1] and yr.shape[1] and xr.shape[1] != yr.shape[1]:
        raise ValueError(f"class counts differ: {xr.shape[1] - 1} vs {yr.shape[1] - 1}")
    if nx == 0 and ny == 0:
        return 0.0
    if nx == 0:
        return float(gap_costs(yr).sum())
    if ny == 0:
        return float(gap_costs(xr).sum())

    sub = pairwise_costs(xr, yr).tolist()
    gx = gap_costs(xr).tolist()
    gy = gap_costs(yr).tolist()

    # prev[m] = cost of aligning the first j rows of x with the first m of y
    prev = [0.0] * (ny + 1)
    for m in range(1, ny + 1):
        prev[m] = prev[m - 1] + gy[m - 1]
    for j in range(1, nx + 1):
        sub_j = sub[j - 1]
        gap_j = gx[j - 1]
        cur = [prev[0] + gap_j]
        for m in range(1, ny + 1):
            best = prev[m - 1] + sub_j[m - 1]
            up = prev[m] + gap_j
            if up < best:
                best = up
            left = cur[m - 1] + gy[m - 1]
            if left < best:
                best = left
            cur.append(best)
        prev = cur
    return prev[ny]


def normalized(g, length_sum):
    """nGLD value 2g / (g + L) of a GLD ``g`` between sequences of total length ``L``.

    Elementwise when ``g`` is an array.  The value is 0 wherever g + L is
    0: two empty sequences are identical.
    """
    denom = g + length_sum
    if isinstance(denom, np.ndarray):
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
