"""Expected-change estimators and stopping rules.

The stopping decision is myopic: estimate the expected distance between
the current combined result and the one the next frame would produce, and
stop once that estimate is no higher than the cost of one more
observation.  Candidates for the next frame are the frames already seen.

Three estimators compute the same quantity at different price points:

* ``estimate_base`` models every candidate's full re-combination and
  scores it exactly from the one alignment that merge runs: n alignments
  per stage, O(n * S * M * K), where re-combining each candidate and
  measuring its distance with a second DP cost O(n * S * K * (S + M)).
  Each is one call of the kernels' ``align``, of whose answer it reads
  the cost and the step count; it builds no ``combiner.Alignment``.
* ``estimate_method_a`` reuses each frame's recorded row alignment and
  scores the modelled merge row-by-row, O(n * S * K): it reads
  ``CombinerState.candidate_gld``, the record of the scan of the state's
  history store that the absorb kept, every candidate scored, normalised
  and summed, compiled where available.
* ``estimate_method_b`` is ``a``'s aggregate normalised once instead of
  per candidate, from the same record, so it costs the same O(n * S * K)
  and its aggregate equals ``a``'s exactly, weighted or not: the scan's
  sum carries each frame's merge share.  The paper prices it at
  O(S * K * log n), one order-statistic treap query per (row, class)
  cell, which holds for unit weights alone.

A stage of ``a`` or ``b`` is one compiled call on the compiled route:
the absorb that every method pays (``fs_absorb``: the alignment, the
merge and the store write) runs the history scan (``fs_spread``) over
the merged rows in the same call.  On either route the absorb keeps the
scan, write-protected, and the estimate only reads it, in O(1); ``a``'s
breakdown makes Python floats of its n distances only when
``per_candidate`` is read.  The stage is the absorb's O(S * M * K)
alignment and merge plus the scan's O(n * S * K), which is most of it at
large n; ``scripts/record_bench.py`` measures it, and the committed
``BENCH_*.json`` files hold the figures.

:func:`stages` is the one per-stage loop; ``run_clip``, ``stage_traces``
and the harness's timing are folds over its records.
"""

import math
import time
from dataclasses import dataclass
from enum import Enum

import numpy as np

from . import _kernels
from .combiner import CombinerState, _finite, _index, _scalar_share
from .core import from_string
from .metrics import MetricKind, ngld, normalized
from .metrics import gld  # noqa: F401  unused here; the traced benchmark wraps stoppers.gld

_NGLD = MetricKind.NGLD  # a global, as a member read through its class is a slow lookup


class StopperMethod(Enum):
    BASE = "base"
    METHOD_A = "a"
    METHOD_B = "b"
    FIXED_STAGE = "fixed"


@dataclass(frozen=True)
class StopperConfig:
    """Stopping rule parameters.

    ``threshold`` is the observation cost the estimate is compared
    against; ``delta`` biases the estimate away from zero at small stage
    counts; ``fixed_stage`` applies to FIXED_STAGE only.  The process is
    always cut off at ``max_stages``, looping short clips as needed.  Both
    stage counts are integers; a bool or a float raises TypeError.
    """

    method: StopperMethod
    metric: MetricKind = MetricKind.NGLD
    delta: float = 0.1
    threshold: float = 0.0
    fixed_stage: int | None = None
    max_stages: int = 30

    def __post_init__(self):
        for name in ("delta", "threshold"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value >= 0):
                raise ValueError(f"{name} must be finite and non-negative")
        _index(self.max_stages, "max_stages")
        if self.fixed_stage is not None:
            _index(self.fixed_stage, "fixed_stage")
        if self.max_stages < 1:
            raise ValueError("max_stages must be at least 1")
        if self.method is StopperMethod.FIXED_STAGE:
            if self.fixed_stage is None or self.fixed_stage < 1:
                raise ValueError("FIXED_STAGE needs fixed_stage >= 1")


class _TupleOnFirstRead:
    """``EstimationBreakdown.per_candidate`` of a breakdown given an array:
    ``tuple(array.tolist())``, built on the first read and kept in the
    instance, where later reads find it before this descriptor."""

    def __get__(self, breakdown, owner=None):
        if breakdown is None:
            return None  # the field's default, which the dataclass reads off the class
        fields = breakdown.__dict__
        built = fields["per_candidate"] = tuple(fields["_distances"].tolist())
        return built


@dataclass(frozen=True, init=False)
class EstimationBreakdown:
    """One estimator evaluation.

    ``estimate`` is the expected distance to the next combined result;
    ``gld_aggregate`` the un-normalized distance sum behind it;
    ``per_candidate`` the individual candidate distances where the
    estimator computes them (base and method A), a tuple of floats.  Given
    a numpy array, as method A gives its read-only distances, the breakdown
    builds that tuple on the first read of ``per_candidate`` and keeps it,
    so a stage whose caller never reads it does not pay for n floats; the
    floats, ``==``, ``hash``, ``repr``, copies and pickles are those of the
    tuple given directly.
    """

    estimate: float
    gld_aggregate: float
    per_candidate: tuple[float, ...] | None = _TupleOnFirstRead()

    def __init__(self, estimate, gld_aggregate, per_candidate=None):
        fields = self.__dict__  # filled directly: a frozen __setattr__ per field costs 2x
        fields["estimate"] = estimate
        fields["gld_aggregate"] = gld_aggregate
        if isinstance(per_candidate, np.ndarray):
            fields["_distances"] = per_candidate
        else:
            fields["per_candidate"] = per_candidate

    def __reduce__(self):  # a copy or a pickle holds the tuple, as a tuple-built one does
        return EstimationBreakdown, (self.estimate, self.gld_aggregate, self.per_candidate)


@dataclass(frozen=True, eq=False)
class Stage:
    """One stage of the stopping process, as :func:`stages` ran it.

    ``rows`` is the combined result after the stage's frame (the state's
    write-protected snapshot); ``breakdown`` the estimate, None for
    FIXED_STAGE; ``stop`` whether the rule fires at this stage; and
    ``seconds`` the wall time of absorb plus estimate.
    """

    number: int
    rows: np.ndarray
    breakdown: EstimationBreakdown | None
    stop: bool
    seconds: float


@dataclass(frozen=True)
class StopOutcome:
    """Result of driving one clip to a stopping decision."""

    stop_stage: int
    forced: bool
    final_error: float
    estimate_trace: tuple[float, ...]


def estimate_base(state, frames, *, metric=MetricKind.NGLD, delta=0.1):
    """Full modelling: every seen frame as the next candidate, scored exactly.

    Let R be the current result, x a candidate of weight w, W the weight
    total, c = align(x, R).cost = gld(R, x) and C the merge of x into R
    along that alignment with share f = w / (W + w).  Every merged row is
    r + f * (x_row - r), with the empty row standing in for a skipped side,
    so the alignment's own path costs f * c between R and C and
    (1 - f) * c between C and x: gld(R, C) <= f * c and
    gld(C, x) <= (1 - f) * c.  GLD, with gap costs the distance to the
    empty row, is a metric on row sequences (Yujian & Bo 2007), so the
    triangle inequality gives gld(R, C) >= gld(R, x) - gld(C, x)
    >= c - (1 - f) * c = f * c.  Hence gld(R, C) = f * c exactly, and C
    has S + (inserted rows) rows.  One alignment per candidate replaces
    the merge and the second GLD dynamic program; over 35k candidates of
    random and benchmark-recipe clips the two agree to 9e-16.

    Each candidate passes the state's frame check, then is one call of the
    kernels' ``align`` (``_kernels.get()``) on the current rows, read once
    per stage, and the frame's rows.  Of its answer the estimate reads the
    cost, refused where it is not finite as :func:`combiner.align` refuses
    it, and the step count: C has S + steps = 2 S + inserted rows.  No
    ``Alignment`` is built and no rows are converted again, so every
    distance is the one ``CombinerState.candidate_alignment`` gives, bit
    for bit.
    """
    if state.n == 0:
        raise ValueError("cannot estimate before the first frame")
    if len(frames) != state.n:
        raise ValueError(f"got {len(frames)} frames for a state of {state.n}")
    rows, total, s = state.mean_rows, state.weight_total, state.num_chars
    align = _kernels.get().align
    as_ngld = metric is _NGLD
    distances = []
    aggregate = 0.0
    for frame in frames:
        state._check_frame(frame)
        path, _, cost = align(rows, frame.rows)
        g = _scalar_share(frame.weight, total) * _finite(cost)
        aggregate += g
        # S + steps = 2 S + inserted, the lengths of R and C
        distances.append(normalized(g, s + len(path)) if as_ngld else g)
    estimate = (delta + sum(distances)) / (state.n + 1)
    return EstimationBreakdown(estimate, aggregate, tuple(distances))


def estimate_method_a(state, *, metric=MetricKind.NGLD, delta=0.1):
    """Approximate modelling via the recorded per-frame row contributions.

    The breakdown holds the distance array of the record
    :meth:`CombinerState.candidate_gld` returns, d for nGLD and g for GLD,
    and builds ``per_candidate`` from it on its first read.
    """
    d, g, aggregate, d_sum = state.candidate_gld()
    distances, total = (d, d_sum) if metric is _NGLD else (g, aggregate)
    estimate = (delta + total) / (state.n + 1)
    return EstimationBreakdown(estimate, aggregate, distances)


def estimate_method_b(state, *, metric=MetricKind.NGLD, delta=0.1):
    """Method a's aggregate normalised once, instead of per candidate.

    Reads the sum of g of the same kept scan as method a, so any state
    with a history store serves it, weighted or not.
    """
    aggregate = state.candidate_gld()[2]
    length = 2.0 * state.num_chars
    converted = normalized(aggregate, length) if metric is _NGLD else aggregate
    estimate = (delta + converted) / (state.n + 1)
    return EstimationBreakdown(estimate, aggregate, None)


def should_stop(estimate, config):
    """Stop once the expected change is not higher than the observation cost."""
    return estimate <= config.threshold


def stages(clip, config, *, seed=0):
    """Yield one :class:`Stage` per frame up to ``max_stages``, looping the clip.

    Each stage absorbs the next frame, estimates the expected change the
    following frame would make and tests the stopping rule.  Records go on
    past the first stop, so a caller reads as far as it needs.  ``seed``
    seeds only the treap priorities of ``CombinerState.cell``, which no
    stage calls.
    """
    if not clip.frames:
        raise ValueError(f"clip {clip.id} has no frames")
    method, metric, delta = config.method, config.metric, config.delta
    state = CombinerState(
        clip.alphabet,
        track_history=method in (StopperMethod.METHOD_A, StopperMethod.METHOD_B),
        seed=seed,
    )
    observed = []
    for number in range(1, config.max_stages + 1):
        frame = clip.frames[(number - 1) % len(clip.frames)]
        start = time.perf_counter()
        state.absorb(frame)
        observed.append(frame)
        if method is StopperMethod.BASE:
            breakdown = estimate_base(state, observed, metric=metric, delta=delta)
        elif method is StopperMethod.METHOD_A:
            breakdown = estimate_method_a(state, metric=metric, delta=delta)
        elif method is StopperMethod.METHOD_B:
            breakdown = estimate_method_b(state, metric=metric, delta=delta)
        else:
            breakdown = None
        seconds = time.perf_counter() - start
        if breakdown is None:
            stop = number == config.fixed_stage
        else:
            stop = should_stop(breakdown.estimate, config)
        yield Stage(number, state.mean_rows, breakdown, stop, seconds)


def run_clip(clip, config, *, seed=0):
    """Drive one clip through combination until the stopping rule fires.

    Reads :func:`stages` up to the first stop; running out of stages
    forces a stop and flags the outcome.  The final error is the
    normalized sequence distance to the clip's ground truth.  ``seed`` is
    passed to :func:`stages`, where it seeds only ``CombinerState.cell``.
    """
    trace = []
    for stage in stages(clip, config, seed=seed):
        if stage.breakdown is not None:
            trace.append(stage.breakdown.estimate)
        if stage.stop:
            break
    truth = from_string(clip.truth, clip.alphabet)
    error = ngld(stage.rows, truth.rows)
    return StopOutcome(stage.number, not stage.stop, error, tuple(trace))


def fixed_stage_baseline(clip, stage, *, max_stages=30):
    """Outcome of always stopping after ``stage`` frames."""
    if stage < 1:
        raise ValueError("stage must be at least 1")
    config = StopperConfig(
        StopperMethod.FIXED_STAGE, fixed_stage=stage, max_stages=max_stages
    )
    return run_clip(clip, config)


def stage_traces(clip, config, *, seed=0):
    """Estimates and truth errors at every stage up to ``max_stages``.

    Runs the combination to the full horizon regardless of the threshold,
    so one pass supports a whole threshold sweep: the stop stage for any
    threshold is the first estimate at or under it.  FIXED_STAGE configs
    yield an empty estimate trace.  Returns (estimates, errors); errors
    has one entry per stage.  ``seed`` is passed to :func:`stages`, where
    it seeds only ``CombinerState.cell``.
    """
    truth = from_string(clip.truth, clip.alphabet).rows
    estimates = []
    errors = []
    for stage in stages(clip, config, seed=seed):
        if stage.breakdown is not None:
            estimates.append(stage.breakdown.estimate)
        errors.append(ngld(stage.rows, truth))
    return tuple(estimates), tuple(errors)
