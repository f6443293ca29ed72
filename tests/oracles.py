"""Independent brute-force oracles the test suite checks the library against.

Everything here is deliberately written the slow, obvious way.  Apart
from ``base_oracle``, which scores the library's own candidate merge with
the library's GLD (the definition ``estimate_base`` shortcuts), and the
exact references for alignment and combination, which use the library's
row costs and merge share so their results can be required bit for bit,
nothing shares a code path with the implementations under test.
"""

import random
import warnings
from contextlib import contextmanager, nullcontext

import numpy as np

from framestop import _kernels
from framestop.combiner import merge_share
from framestop.core import Alphabet, Clip, RecognitionFrame, from_string, make_frame
from framestop.harness import SyntheticConfig, generate_synthetic
from framestop.metrics import MetricKind, gap_costs, gld, pairwise_costs


@contextmanager
def python_kernels():
    """Run the Python kernels inside the block, as where no C compiler exists,
    by installing them as the loader's kernels and this block as its reason."""
    saved = _kernels.lib, _kernels.reason
    _kernels.lib, _kernels.reason = _kernels.reference(), "set by python_kernels()"
    try:
        yield
    finally:
        _kernels.lib, _kernels.reason = saved


def kernel_route(request, route):
    """The block to run ``route``'s kernels in, "compiled" or "python", for a
    test given pytest's ``request``; the compiled route needs the kernels
    built, as the ``compiled`` fixture does."""
    if route == "python":
        return python_kernels()
    request.getfixturevalue("compiled")
    return nullcontext()


def costs(module, x, y):
    """(sub, gap_rows, gap_cols, gld) as the compiled ``module``'s fs_gld
    computes them, read from the working memory its ``gld(x, y, work)``
    fills: the arrays ``metrics.pairwise_costs(x, y)``, ``gap_costs(x)``
    and ``gap_costs(y)`` would give, and the GLD."""
    s, m = len(x), len(y)
    work = np.empty(2 * (s + 1) * (m + 1) - 1)
    cost = module.gld(x, y, work)
    return work[: s * m].reshape(s, m), work[s * m : s * m + s], work[s * m + s : s * m + s + m], cost


def char_distance_slow(a, b):
    return 0.5 * sum(abs(x - y) for x, y in zip(a, b))


def empty_row_slow(width):
    return [1.0] + [0.0] * (width - 1)


def gld_recursive(x_rows, y_rows):
    """Plain recursive edit distance; exponential, for tiny inputs only."""
    x = [list(r) for r in x_rows]
    y = [list(r) for r in y_rows]
    width = len(x[0]) if x else (len(y[0]) if y else 1)
    empty = empty_row_slow(width)

    def go(i, j):
        if i == len(x) and j == len(y):
            return 0.0
        best = float("inf")
        if i < len(x) and j < len(y):
            best = min(best, char_distance_slow(x[i], y[j]) + go(i + 1, j + 1))
        if i < len(x):
            best = min(best, char_distance_slow(x[i], empty) + go(i + 1, j))
        if j < len(y):
            best = min(best, char_distance_slow(y[j], empty) + go(i, j + 1))
        return best

    return go(0, 0)


def method_a_oracle(state, *, metric, delta):
    """Materialize every candidate merge under the stored alignments.

    For each seen frame, build the modelled next combined result row by
    row from the state's recorded contributions, then score it against
    the current result with a direct row-wise character-distance sum.
    Returns (estimate, per-candidate distances, distance-sum aggregate).
    """
    n = state.n
    current = state.mean_rows
    s = current.shape[0]
    total_weight = state.weight_total
    contributions = state.contributions
    per_candidate = []
    aggregate = 0.0
    for i in range(n):
        w = state.weights[i]
        g = 0.0
        for pos in range(s):
            contribution = contributions[i, pos]
            if total_weight + w > 0:
                # weigh by the two shares rather than scaling the rows by the
                # weights themselves, which underflow for subnormal weights
                merged = (total_weight / (total_weight + w)) * current[pos] + (
                    w / (total_weight + w)
                ) * contribution
            else:  # no weight at all: the merge leaves the row where it is
                merged = current[pos]
            g += char_distance_slow(current[pos], merged)
        aggregate += g
        if metric is MetricKind.GLD:
            per_candidate.append(g)
        else:
            denom = g + 2.0 * s
            per_candidate.append(2.0 * g / denom if denom > 0 else 0.0)
    estimate = (delta + sum(per_candidate)) / (n + 1)
    return estimate, per_candidate, aggregate


def base_oracle(state, frames, metric, delta):
    """Full modelling by its definition: re-combine, then measure.

    Merge every seen frame into the current result as the next candidate
    (``combine_candidate``) and score the merge with a GLD dynamic program
    against the current result.  Returns (estimate, per-candidate
    distances, GLD aggregate).
    """
    current = state.mean_rows
    s = current.shape[0]
    per_candidate = []
    aggregate = 0.0
    for frame in frames:
        candidate = state.combine_candidate(frame)
        g = gld(current, candidate.rows)
        aggregate += g
        if metric is MetricKind.GLD:
            per_candidate.append(g)
        else:
            denom = g + s + len(candidate)
            per_candidate.append(2.0 * g / denom if denom > 0 else 0.0)
    estimate = (delta + sum(per_candidate)) / (len(frames) + 1)
    return estimate, per_candidate, aggregate


def align_reference(frame_rows, result_rows):
    """The exact reference alignment: (result_rows, frame_rows, cost).

    Same costs (the library's ``pairwise_costs`` / ``gap_costs``) and the
    same backward table, written out in full, with the path read off from
    the front in the tie order match, skip the result row, insert the
    frame row.  As in the library, the two index lists hold S (M) for the
    side a step skips.  ``combiner.align`` must agree with it bit for bit.
    """
    combined = np.asarray(result_rows, dtype=np.float64)
    fresh = np.asarray(frame_rows, dtype=np.float64)
    s, m = combined.shape[0], fresh.shape[0]
    sub = pairwise_costs(combined, fresh).tolist() if s and m else []
    skip_combined = gap_costs(combined).tolist()
    insert_fresh = gap_costs(fresh).tolist()
    cost = [[0.0] * (m + 1) for _ in range(s + 1)]
    for j in range(m - 1, -1, -1):
        cost[s][j] = insert_fresh[j] + cost[s][j + 1]
    for i in range(s - 1, -1, -1):
        cost[i][m] = skip_combined[i] + cost[i + 1][m]
        for j in range(m - 1, -1, -1):
            best = sub[i][j] + cost[i + 1][j + 1]
            alt = skip_combined[i] + cost[i + 1][j]
            if alt < best:
                best = alt
            alt = insert_fresh[j] + cost[i][j + 1]
            if alt < best:
                best = alt
            cost[i][j] = best
    old_idx = []
    new_idx = []
    i = j = 0
    while i < s or j < m:
        here = cost[i][j]
        if i < s and j < m and sub[i][j] + cost[i + 1][j + 1] == here:  # match
            old_idx.append(i)
            new_idx.append(j)
            i += 1
            j += 1
        elif i < s and skip_combined[i] + cost[i + 1][j] == here:  # skip the result row
            old_idx.append(i)
            new_idx.append(m)
            i += 1
        else:  # insert the frame row
            old_idx.append(s)
            new_idx.append(j)
            j += 1
    return tuple(old_idx), tuple(new_idx), cost[0][0]


def merge_reference(old_idx, new_idx, frame_rows, result_rows, factor):
    """The reference merge: old + factor * (new - old) per step, empty for a skipped side."""
    empty = np.zeros((1, result_rows.shape[1]))
    empty[0, 0] = 1.0
    old = np.concatenate((result_rows, empty))[list(old_idx)]
    new = np.concatenate((frame_rows, empty))[list(new_idx)]
    return old + factor * (new - old)


def combine_reference(frames, width):
    """Absorb ``frames`` step by step: (rows, row ids, history tensor).

    Row ids are handed out in creation order; the history holds, per frame
    and row in display order, the row the frame merged into it, or the
    empty row.
    """
    rows = np.zeros((0, width))
    order = []
    next_id = 0
    total = 0.0
    history = []  # per frame: row id -> the frame row merged into it
    for frame in frames:
        old_idx, new_idx, _ = align_reference(frame.rows, rows)
        s, m = len(rows), frame.num_chars
        merged_into = {}
        new_order = []
        for old, new in zip(old_idx, new_idx):
            if old == s:
                rid = next_id
                next_id += 1
            else:
                rid = order[old]
            new_order.append(rid)
            if new < m:
                merged_into[rid] = frame.rows[new]
        rows = merge_reference(old_idx, new_idx, frame.rows, rows, merge_share(frame.weight, total))
        order = new_order
        total += frame.weight
        history.append(merged_into)
    empty = np.zeros(width)
    empty[0] = 1.0
    contributions = np.array([[h.get(rid, empty) for rid in order] for h in history])
    return rows, tuple(order), contributions.reshape(len(history), len(order), width)


def gld_reference(x_rows, y_rows):
    """The forward GLD dynamic program, one row of the table at a time."""
    x_rows = np.asarray(x_rows, dtype=np.float64)
    y_rows = np.asarray(y_rows, dtype=np.float64)
    nx, ny = x_rows.shape[0], y_rows.shape[0]
    gx = gap_costs(x_rows).tolist()
    gy = gap_costs(y_rows).tolist()
    sub = pairwise_costs(x_rows, y_rows).tolist() if nx and ny else []
    prev = [0.0] * (ny + 1)
    for m in range(1, ny + 1):
        prev[m] = prev[m - 1] + gy[m - 1]
    for j in range(1, nx + 1):
        cur = [prev[0] + gx[j - 1]]
        for m in range(1, ny + 1):
            cur.append(
                min(prev[m - 1] + sub[j - 1][m - 1], prev[m] + gx[j - 1], cur[m - 1] + gy[m - 1])
            )
        prev = cur
    return prev[ny]


class MultisetScan:
    """Brute-force mirror of MultisetIndex: a flat list of (value, mult)."""

    def __init__(self):
        self.items = []

    def insert(self, value, multiplicity=1):
        self.items.append((float(value), int(multiplicity)))

    def below(self, bound):
        count = 0
        total = 0.0
        for value, mult in self.items:
            if value < bound:
                count += mult
                total += value * mult
        return count, total

    def totals(self):
        count = sum(m for _, m in self.items)
        total = sum(v * m for v, m in self.items)
        return count, total


ORACLE_SYMBOLS = "ABCDE"


def random_clip(rng, index, *, max_frames=10, max_rows=6, max_classes=5, weighted=False):
    """Random membership-estimation clip for oracle corpora."""
    k = rng.randint(1, max_classes)
    alphabet = Alphabet(ORACLE_SYMBOLS[:k])
    frames = []
    for _ in range(rng.randint(1, max_frames)):
        m = rng.randint(0, max_rows)
        rows = [[rng.uniform(0.001, 1.0) for _ in range(k)] for _ in range(m)]
        weight = rng.uniform(0.25, 3.0) if weighted else 1.0
        with warnings.catch_warnings():
            # raw scores get renormalized loudly by design; the corpus is raw on purpose
            warnings.simplefilter("ignore")
            frames.append(make_frame(rows, weight, num_classes=k))
    truth = "".join(rng.choice(alphabet.symbols) for _ in range(rng.randint(0, max_rows)))
    return Clip(f"oracle-{index}", alphabet, truth, frames)


def looped_clip(stages=150, *, weighted=False, seed=27):
    """One clip of the criterion-7 recipe, its 30 frames looped to ``stages``.

    Long enough for a history store to grow its slot table's frames
    several times; with seed 27 the combination still creates rows at
    stages 37 and 51, after the first such growth.  ``weighted`` gives
    every frame a random weight in [0.25, 3].
    """
    config = SyntheticConfig(
        clip_count=1, text_length=15,
        alphabet="ABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789", frames_per_clip=30,
        p_sub=0.15, p_del=0.05, p_ins=0.05, confusion_mass=0.2, seed=seed,
    )
    clip = generate_synthetic(config)[0]
    rng = random.Random(seed)
    frames = []
    for stage in range(stages):
        frame = clip.frames[stage % len(clip.frames)]
        if weighted:
            frame = RecognitionFrame(frame.rows, rng.uniform(0.25, 3.0))
        frames.append(frame)
    return Clip(f"looped-{seed}", clip.alphabet, clip.truth, frames)


def late_rows_clip():
    """40 frames of "A", then frames of 12 characters.

    The rows the long frames add appear after a history store's slot
    table has grown its frames.
    """
    alphabet = Alphabet("AB")
    short = make_frame([[1.0, 0.0]])
    long = make_frame([[1.0, 0.0], [0.0, 1.0]] * 6)
    return Clip("late-rows", alphabet, "AB" * 6, [short] * 40 + [long] * 3)


def growth_clip():
    """A frame of 70 characters, 65 frames of its first 10, then 100
    characters once and the first 10 again.

    The first frame has more rows than a new history store has row ids;
    the long frame, the 67th, creates new rows after frame 64, when the
    slot table has doubled its frames twice, and outnumbers the row ids
    again.
    """
    alphabet = Alphabet("ABCD")
    rng = random.Random(64)
    text = "".join(rng.choice("ABCD") for _ in range(100))
    frames = [from_string(text[:70], alphabet)]
    frames += [from_string(text[:10], alphabet)] * 65
    frames += [from_string(text, alphabet), from_string(text[:10], alphabet)]
    return Clip("growth", alphabet, text, frames)


def random_onehot_rows(rng, length, width):
    """Random one-hot row sequence over ``width - 1`` symbol classes."""
    rows = np.zeros((length, width))
    for j in range(length):
        rows[j, rng.randint(1, width - 1)] = 1.0
    return rows


def random_distribution(rng, width):
    raw = np.array([rng.uniform(0.0, 1.0) for _ in range(width)])
    if raw.sum() == 0:
        raw[0] = 1.0
    return raw / raw.sum()
