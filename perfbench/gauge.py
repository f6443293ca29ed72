"""Machine-speed gauge: scales measured times to a fixed reference speed.

The shared virtual machines this benchmark runs on change speed by up to a
half, both ways, within tens of milliseconds, and can stay changed for
minutes; a run cannot outlast that by repeating work.  So the run times a
fixed kernel of its own before every frame (outside every timed interval)
and scales each measured interval by ``REF_NS`` over the mean of the kernel
times just before and just after it.  Sampled that close, a frame's time
moves about in proportion to the kernel's; sampled every 40 ms, it moved
only 0.4-0.7 times as much, and scaling overcorrected.  A reported time is what
the interval would have taken with the kernel at ``REF_NS``: a change in
framestop moves it, a change in machine speed mostly does not.

The kernel mixes what framestop's hot paths do: small numpy array
arithmetic, ``tolist`` and a pure-Python min-plus dynamic programme over the
lists.  It calls nothing from framestop, so no change there can move it.
"""

from bisect import bisect_right
from time import perf_counter_ns

import numpy as np

REF_NS = 200_000  # one sample at the reference speed: an uncontended core here
REPEATS = 2  # kernel calls per sample

_X = np.random.default_rng(0).random((15, 37))
_X /= _X.sum(axis=1, keepdims=True)
_Y = np.random.default_rng(1).random((16, 37))
_Y /= _Y.sum(axis=1, keepdims=True)


def kernel():
    """One gauge step: pairwise L1 costs of two fixed row sets, then an edit DP."""
    sub = (np.abs(_X[:, None, :] - _Y[None, :, :]).sum(axis=2) / 2).tolist()
    gap_x = (1.0 - _X[:, -1]).tolist()
    gap_y = (1.0 - _Y[:, -1]).tolist()
    prev = [0.0]
    for g in gap_y:
        prev.append(prev[-1] + g)
    for i, g in enumerate(gap_x):
        row = sub[i]
        cur = [prev[0] + g]
        for j, h in enumerate(gap_y):
            cur.append(min(prev[j] + row[j], prev[j + 1] + g, cur[j] + h))
        prev = cur
    return prev[-1]


class Gauge:
    """Kernel samples over a run: when each ended and how long it took."""

    def __init__(self):
        self.ends = []
        self.times = []

    def sample(self):
        start = perf_counter_ns()
        for _ in range(REPEATS):
            kernel()
        end = perf_counter_ns()
        self.ends.append(end)
        self.times.append(end - start)

    def scale(self, start):
        """Factor for an interval that started at ``start`` (perf_counter_ns).

        The interval lies between the last sample before it and the next one;
        a sample must precede and follow every measured interval.
        """
        after = bisect_right(self.ends, start)
        return 2 * REF_NS / (self.times[after - 1] + self.times[after])

    def speed(self):
        """Median machine speed over the run, relative to the reference."""
        times = sorted(self.times)
        return REF_NS / times[len(times) // 2]
