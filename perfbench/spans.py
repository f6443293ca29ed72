"""In-memory spans around framestop's public functions, installed from outside.

A traced run swaps each wrapped function at the attribute where its caller
looks it up (a module global or a class attribute), so no file of the
package changes.  Every wrapped call adds its count, inclusive time and self
time (inclusive minus the time of wrapped calls made inside it) to an
accumulator.  The stage loop closes the accumulator into a record at each scope
boundary: one record per stage, per truth-error evaluation and per setup
load, carrying the clip and stage that caused it.  Records stay in memory
until the run ends.
"""

from contextlib import contextmanager
from time import perf_counter_ns

import framestop.combiner as combiner
import framestop.harness as harness
import framestop.metrics as metrics
import framestop.stoppers as stoppers
from framestop.combiner import CombinerState
from framestop.treap import MultisetIndex

# (span name, owner, attribute): the owner is where the caller looks the
# attribute up.  A function reached through two owners is wrapped at both
# under one name: estimate_base reads gld from the stoppers module; ngld
# (the truth error) reads it from the metrics module; gld reads
# pairwise_costs and gap_costs from the metrics module, align reads them
# from the combiner module.  The benchmark calls ngld itself, for the truth
# error only.
TARGETS = (
    ("harness.load_clips", harness, "load_clips"),
    ("core.make_frame", harness, "make_frame"),
    ("combiner.absorb", CombinerState, "absorb"),
    ("combiner.combine_candidate", CombinerState, "combine_candidate"),
    ("combiner.align", combiner, "align"),
    ("metrics.pairwise_costs", combiner, "pairwise_costs"),
    ("metrics.pairwise_costs", metrics, "pairwise_costs"),
    ("metrics.gap_costs", combiner, "gap_costs"),
    ("metrics.gap_costs", metrics, "gap_costs"),
    ("metrics.gld", stoppers, "gld"),
    ("metrics.gld", metrics, "gld"),
    ("metrics.ngld_truth", metrics, "ngld"),
    ("stoppers.estimate_base", stoppers, "estimate_base"),
    ("stoppers.estimate_method_a", stoppers, "estimate_method_a"),
    ("stoppers.estimate_method_b", stoppers, "estimate_method_b"),
    ("stoppers.should_stop", stoppers, "should_stop"),
    ("treap.insert", MultisetIndex, "insert"),
    ("treap.below", MultisetIndex, "below"),
)
SPAN_NAMES = tuple(dict.fromkeys(name for name, _, _ in TARGETS))
COUNTERS = ("combiner.align.cells", "combiner.history_bytes")


def _align_cells(args):
    frame, combined = args
    return len(frame.rows) * len(combined)


def _history_bytes(args):
    state = args[0]
    return state.contributions.nbytes if state.track_history else 0


# Counters computed from a wrapped call's arguments after it returns.
COUNTER_HOOKS = {
    "combiner.align": ("combiner.align.cells", _align_cells),
    "combiner.absorb": ("combiner.history_bytes", _history_bytes),
}


class Tracer:
    """Span accumulator; one per traced run."""

    def __init__(self):
        self.records = []
        self._open = {}  # span name -> [calls, total_ns, self_ns]
        self._counts = {}
        self._child_ns = [0]  # time covered by wrapped children, per open span

    def wrap(self, name, fn):
        child_ns = self._child_ns
        hook = COUNTER_HOOKS.get(name)

        def traced(*args, **kwargs):
            child_ns.append(0)
            start = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter_ns() - start
                inner = child_ns.pop()
                child_ns[-1] += elapsed
                stat = self._open.get(name)
                if stat is None:
                    stat = self._open[name] = [0, 0, 0]
                stat[0] += 1
                stat[1] += elapsed
                stat[2] += elapsed - inner
            if hook is not None:
                counter, measure = hook
                self._counts[counter] = self._counts.get(counter, 0) + measure(args)
            return result

        return traced

    def close(self, kind, **ids):
        """Close the current scope into a record tagged with what caused it."""
        self.records.append({"kind": kind, **ids, "spans": self._open, "counts": self._counts})
        self._open = {}
        self._counts = {}
        self._child_ns[0] = 0

    def totals(self):
        """Per span name: calls, inclusive ns and self ns over every record."""
        spans = {name: [0, 0, 0] for name in SPAN_NAMES}
        counts = dict.fromkeys(COUNTERS, 0)
        for record in self.records:
            for name, stat in record["spans"].items():
                total = spans[name]
                for i in range(3):
                    total[i] += stat[i]
            for name, value in record["counts"].items():
                counts[name] += value
        return spans, counts


@contextmanager
def installed(tracer):
    """Swap every target for its traced wrapper; restore them on exit."""
    originals = [(owner, attr, owner.__dict__[attr]) for _, owner, attr in TARGETS]
    try:
        for name, owner, attr in TARGETS:
            setattr(owner, attr, tracer.wrap(name, owner.__dict__[attr]))
        yield tracer
    finally:
        for owner, attr, original in originals:
            setattr(owner, attr, original)
