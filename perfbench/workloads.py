"""The framestop benchmark: workloads, the closed stage loop, output checks.

One client consumes each clip as a live stream: a frame is decided (absorb,
estimate, stop test) before the next one is fed.  A run generates its corpus
from the seed (untimed), loads it from JSONL through ``harness.load_clips``
(timed as set-up), warms up on one whole clip, then repeats whole passes
over the corpus while the time budget allows.  Every timed interval is
scaled to a reference machine speed by the gauge (see gauge.py), and the
percentiles pool the frames of every pass.  After the loop, untimed and
untraced, every driven clip is checked against the library's own loops
(``run_clip`` / ``stage_traces``).
"""

import gc
import math
import os
import resource
import statistics
import time
from dataclasses import dataclass
from pathlib import Path

import framestop.harness as harness
import framestop.metrics as metrics
import framestop.stoppers as stoppers
from framestop.combiner import CombinerState
from framestop.core import from_string
from framestop.harness import SyntheticConfig, generate_synthetic, write_clips
from framestop.metrics import MetricKind
from framestop.stoppers import StopperConfig, StopperMethod

import spans
from gauge import Gauge

DELTA = 0.1
THRESHOLD = 0.02
TOLERANCE = 1e-9
SETUP_REPEATS = 5  # loads at least, and for at least SETUP_SECONDS
SETUP_SECONDS = 2.0
BUCKET_STAGES = {"base": (5, 15), "a": (5, 15, 100, 400), "b": (5, 15, 100, 400)}
SETUP_SPANS = ("harness.load_clips", "core.make_frame")

END_TO_END = {
    "stage_ms_p50": "ms",
    "stage_ms_p99": "ms",
    "stages_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


@dataclass(frozen=True)
class Workload:
    """One benchmark workload.

    ``clips`` is the corpus size, driven once per pass; ``max_stages`` caps
    each clip (clips loop past their 30 frames); ``long_horizon`` disables the
    early stop and evaluates the truth error at every stage.
    """

    name: str
    methods: tuple[str, ...]
    clips: int
    max_stages: int
    long_horizon: bool = False

    def corpus(self, seed):
        """The criterion-7 recipe: K=36, 15 characters, moderate edit noise."""
        return SyntheticConfig(
            clip_count=self.clips,
            text_length=15,
            alphabet="ABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789",
            frames_per_clip=30,
            p_sub=0.15,
            p_del=0.05,
            p_ins=0.05,
            confusion_mass=0.2,
            seed=seed,
        )

    def config(self, method):
        return StopperConfig(
            StopperMethod(method),
            metric=MetricKind.NGLD,
            delta=DELTA,
            threshold=THRESHOLD,
            max_stages=self.max_stages,
        )


WORKLOADS = {
    w.name: w
    for w in (
        Workload("online-base", ("base",), clips=72, max_stages=30),
        Workload("online-fast", ("a", "b"), clips=72, max_stages=30),
        Workload("long-horizon", ("a", "b"), clips=8, max_stages=400, long_horizon=True),
    )
}


@dataclass
class Drive:
    """Outputs of one clip under one method, as the stage loop saw them."""

    estimates: list
    aggregates: list
    errors: list  # truth error per stage (long horizon) or at the stop
    stop_stage: int = 0
    forced: bool = False
    treap_depth: int = 0  # deepest treap at the clip's end, traced runs only


def _estimate(method, state, observed):
    # looked up on the module at call time, so traced wrappers apply
    if method == "base":
        return stoppers.estimate_base(state, observed, metric=MetricKind.NGLD, delta=DELTA)
    if method == "a":
        return stoppers.estimate_method_a(state, metric=MetricKind.NGLD, delta=DELTA)
    return stoppers.estimate_method_b(state, metric=MetricKind.NGLD, delta=DELTA)


def _new_state(clip, method):
    # seed 0, as run_clip and stage_traces use, so treap shapes match
    return CombinerState(
        clip.alphabet, track_history=method == "a", track_treaps=method == "b", seed=0
    )


def drive_clip(workload, clip, frames, gauge, tracer=None):
    """Feed one clip frame by frame to every method of the workload.

    Appends one record per frame to ``frames``: [stage, methods still
    running, each one's stage ns, loop ns, start ns].  A stage is absorb +
    estimate + stop test.  The loop time is the whole frame, truth error
    included, plus for the last frame the final truth errors.  The gauge
    samples between frames, outside every timed interval.  Returns
    {method: Drive}.
    """
    truth = from_string(clip.truth, clip.alphabet).rows
    states = {m: _new_state(clip, m) for m in workload.methods}
    drives = {m: Drive([], [], []) for m in workload.methods}
    configs = {m: workload.config(m) for m in workload.methods}
    active = list(workload.methods)
    observed = []
    clip_frames = clip.frames
    for stage in range(1, workload.max_stages + 1):
        begin = time.perf_counter_ns()
        frame = clip_frames[(stage - 1) % len(clip_frames)]
        observed.append(frame)
        methods = tuple(active)
        times = []
        for method in methods:
            state = states[method]
            start = time.perf_counter_ns()
            state.absorb(frame)
            breakdown = _estimate(method, state, observed)
            stop = stoppers.should_stop(breakdown.estimate, configs[method])
            times.append(time.perf_counter_ns() - start)
            if tracer is not None:
                tracer.close("stage", clip=clip.id, method=method, stage=stage)
            drive = drives[method]
            drive.estimates.append(breakdown.estimate)
            drive.aggregates.append(breakdown.gld_aggregate)
            if workload.long_horizon:
                # every stage's error feeds a threshold sweep; no early stop
                drive.errors.append(metrics.ngld(state.mean_rows, truth))
                if tracer is not None:
                    tracer.close("truth", clip=clip.id, method=method, stage=stage)
            elif stop:
                drive.stop_stage = stage
                active.remove(method)
        frames.append([stage, methods, times, time.perf_counter_ns() - begin, begin])
        if not active:
            break
        gauge.sample()
    start = time.perf_counter_ns()
    for method, drive in drives.items():
        if not drive.stop_stage:  # ran to the cap, as run_clip's forced stop
            drive.stop_stage, drive.forced = workload.max_stages, True
        if not workload.long_horizon:
            drive.errors.append(metrics.ngld(states[method].mean_rows, truth))
            if tracer is not None:
                tracer.close("truth", clip=clip.id, method=method, stage=drive.stop_stage)
    frames[-1][3] += time.perf_counter_ns() - start
    if tracer is not None and "b" in states:
        state = states["b"]
        width = state.mean_rows.shape[1]
        drives["b"].treap_depth = max(
            (state.cell(rid, k).max_depth() for rid in state.row_ids for k in range(width)),
            default=0,
        )
    return drives


def measure(workload, clips, seconds, gauge, tracer=None):
    """Whole passes over ``clips`` for ``seconds`` (at least one pass).

    A pass starts only if the previous pass's time shows it can end by the
    deadline.  Returns (frames, driven): per pass its frame records (see
    drive_clip) and its {method: Drive} per clip.  Every pass does the same
    work in the same order.
    """
    passes = []
    driven = []
    gauge.sample()
    deadline = time.perf_counter_ns() + int(seconds * 1e9)
    last = 0
    while not driven or time.perf_counter_ns() + last <= deadline:
        begin = time.perf_counter_ns()
        frames = []
        drives = []
        for clip in clips:
            drives.append(drive_clip(workload, clip, frames, gauge, tracer))
            gauge.sample()  # every frame has a sample after it
        last = time.perf_counter_ns() - begin
        passes.append(frames)
        driven.append(drives)
    return passes, driven


def _close(x, y):
    return abs(x - y) <= TOLERANCE


def _same(xs, ys):
    return len(xs) == len(ys) and all(_close(x, y) for x, y in zip(xs, ys))


def check_clip(workload, clip, drives, reference):
    """Failed checks for one driven clip, as short messages (empty: correct)."""
    problems = []
    for method, drive in drives.items():
        for n, estimate in enumerate(drive.estimates, 1):
            if not (math.isfinite(estimate) and estimate >= DELTA / (n + 1)):
                problems.append(f"{method}: stage {n} estimate {estimate!r} below delta/(n+1)")
                break
        ref = reference[method]
        if workload.long_horizon:
            estimates, errors = ref
            if not _same(drive.estimates, estimates):
                problems.append(f"{method}: estimates differ from stage_traces")
            if not _same(drive.errors, errors):
                problems.append(f"{method}: truth errors differ from stage_traces")
        else:
            if (drive.stop_stage, drive.forced) != (ref.stop_stage, ref.forced):
                problems.append(
                    f"{method}: stop {drive.stop_stage} vs run_clip {ref.stop_stage}"
                )
            if not _same(drive.errors, [ref.final_error]):
                problems.append(f"{method}: final error differs from run_clip")
            if not _same(drive.estimates, ref.estimate_trace):
                problems.append(f"{method}: estimates differ from run_clip")
    if "a" in drives and "b" in drives and not workload.long_horizon:
        a, b = drives["a"].aggregates, drives["b"].aggregates
        common = min(len(a), len(b))
        if not _same(a[:common], b[:common]):
            problems.append("b's gld_aggregate differs from a's")
    return problems


def reference_outputs(workload, clip):
    """What the library's own loops produce for this clip, per method."""
    out = {}
    for method in workload.methods:
        config = workload.config(method)
        if workload.long_horizon:
            out[method] = stoppers.stage_traces(clip, config, seed=0)
        else:
            out[method] = stoppers.run_clip(clip, config, seed=0)
    return out


def check(workload, clips, driven):
    """(attempted, failed, first problems) over every clip of every pass."""
    references = [reference_outputs(workload, clip) for clip in clips]
    attempted = failed = 0
    problems = []
    for drives_of_pass in driven:
        for clip, drives, reference in zip(clips, drives_of_pass, references):
            attempted += 1
            found = check_clip(workload, clip, drives, reference)
            if found:
                failed += 1
                problems.extend(f"{clip.id}: {p}" for p in found)
    return attempted, failed, problems[:10]


def _ms(ns):
    return ns / 1e6


def scaled(passes, gauge):
    """Frames of every pass as (stage, methods, stage ns, loop ns), scaled to
    the gauge's reference speed; ``gauge=None`` leaves them unscaled."""
    out = []
    for frames in passes:
        for stage, methods, times, loop, start in frames:
            f = gauge.scale(start) if gauge is not None else 1.0
            out.append((stage, methods, tuple(t * f for t in times), loop * f))
    return out


def latency_metrics(frames):
    """p50 and p99 frame latency in ms, the sample count and how many lie
    beyond p99.  A frame's latency is what a live caller pays for it: the
    stages of every method deciding it."""
    values = sorted(sum(each) for _, _, each, _ in frames)
    if len(values) < 2:
        return _ms(values[0]), _ms(values[0]), len(values), 0
    p99 = statistics.quantiles(values, n=100, method="inclusive")[98]
    beyond = sum(1 for v in values if v > p99)
    return _ms(statistics.median(values)), _ms(p99), len(values), beyond


def bucket_metrics(frames):
    """Median stage latency per method at fixed stages; 0 where none ran."""
    out = {}
    for method, buckets in BUCKET_STAGES.items():
        for n in buckets:
            samples = [
                each[methods.index(method)]
                for stage, methods, each, _ in frames
                if stage == n and method in methods
            ]
            out[f"stage_ms.{method}.n{n}"] = _ms(statistics.median(samples)) if samples else 0.0
    return out


def stages_per_second(frames):
    """Stages decided per second of loop time, over every pass."""
    stages = sum(len(methods) for _, methods, _, _ in frames)
    return stages / (sum(loop for _, _, _, loop in frames) / 1e9)


def prepare(workload, seed, root):
    """Write the seeded corpus as JSONL (untimed); returns its path."""
    path = Path(root) / ".perfbench" / f"clips-{workload.name}-{seed}-{os.getpid()}.jsonl"
    path.parent.mkdir(parents=True, exist_ok=True)
    write_clips(generate_synthetic(workload.corpus(seed)), path)
    return path


def load(path, gauge):
    """Load the corpus repeatedly, the gauge sampled around each load.

    Returns (clips, median scaled seconds, median unscaled seconds, loads).
    """
    loads = []
    while len(loads) < SETUP_REPEATS or sum(ns for _, ns in loads) < SETUP_SECONDS * 1e9:
        gauge.sample()
        start = time.perf_counter_ns()
        clips = harness.load_clips(path)
        loads.append((start, time.perf_counter_ns() - start))
    gauge.sample()
    setup = statistics.median(ns * gauge.scale(start) for start, ns in loads) / 1e9
    wall = statistics.median(ns for _, ns in loads) / 1e9
    return clips, setup, wall, len(loads)


def warm_up(workload, clips, gauge):
    """One untimed drive of a whole clip, so lazy imports settle and the
    allocator has grown to the largest history buffers (the first pass of
    long-horizon ran 8% slower without it)."""
    drive_clip(workload, clips[0], [], gauge)


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run(workload, seed, seconds, root, trace=False):
    """Run one workload; returns the result dict the CLI prints."""
    path = prepare(workload, seed, root)
    try:
        gauge = Gauge()
        clips, setup_s, setup_wall, loads = load(path, gauge)
        warm_up(workload, clips, gauge)
        gc.collect()
        passes, driven = measure(workload, clips, seconds, gauge)
        rss = peak_rss_mb()
        if trace:
            return _run_traced(workload, clips, path, seconds, passes, driven, gauge)
    finally:
        path.unlink()
    attempted, failed, problems = check(workload, clips, driven)
    frames = scaled(passes, gauge)
    wall = scaled(passes, None)
    p50, p99, count, beyond = latency_metrics(frames)
    wall_p50, wall_p99, _, _ = latency_metrics(wall)
    values = {
        "stage_ms_p50": p50,
        "stage_ms_p99": p99,
        "stages_per_s": stages_per_second(frames),
        "setup_s": setup_s,
        "peak_rss_mb": rss,
    }
    shape = f"{count} samples: {count // len(passes)} frames x {len(passes)} passes"
    return {
        "attempted": attempted,
        "failed": failed,
        "problems": problems,
        "metrics": {name: (values[name], unit) for name, unit in END_TO_END.items()},
        "samples": {
            "stage_ms_p50": f"{shape}; unscaled {wall_p50:.4f}",
            "stage_ms_p99": f"{shape}, {beyond} beyond p99; unscaled {wall_p99:.4f}",
            "stages_per_s": f"{len(clips)} clips x {len(passes)} passes; "
            f"unscaled {stages_per_second(wall):.2f}",
            "setup_s": f"median of {loads} loads; unscaled {setup_wall:.4f}",
            "peak_rss_mb": "1 process",
        },
        "speed": gauge.speed(),
    }


def _run_traced(workload, clips, path, seconds, passes, driven, gauge):
    """Traced load and passes after the untraced ones; per-layer metrics.

    Layer counts and self times are per corpus load (harness, core) and per
    pass over the corpus (every other layer), so they do not depend on how
    many passes fit in the time budget.  Self times are unscaled wall time
    under tracing; the stage buckets and throughputs are scaled.
    """
    tracer = spans.Tracer()
    with spans.installed(tracer):
        harness.load_clips(path)
        tracer.close("setup")
        traced_passes, traced_driven = measure(workload, clips, seconds / 2, gauge, tracer)
    attempted, failed, problems = check(workload, clips, driven + traced_driven)
    count = len(traced_passes)
    totals, counts = tracer.totals()
    layer = {}
    for name, (calls, _, self_ns) in totals.items():
        per = 1 if name in SETUP_SPANS else count
        layer[f"{name}.calls"] = (calls / per, "count")
        layer[f"{name}.self_ms"] = (_ms(self_ns) / per, "ms")
    layer["combiner.align.cells"] = (counts["combiner.align.cells"] / count, "count")
    layer["combiner.history_bytes"] = (counts["combiner.history_bytes"] / count, "B")
    outputs = [pair for drives in traced_driven[0] for pair in drives.items()]
    depth = max((d.treap_depth for _, d in outputs), default=0)
    layer["treap.max_depth"] = (depth, "count")
    for method in ("base", "a", "b"):
        stops = [d.stop_stage for m, d in outputs if m == method]
        mean = statistics.fmean(stops) if stops else 0.0
        layer[f"stoppers.stop_stage_mean.{method}"] = (mean, "count")
    frames = scaled(passes, gauge)
    for name, value in bucket_metrics(frames).items():
        layer[name] = (value, "ms")
    layer["stage_ms.samples"] = (len(frames), "count")
    plain_rate = stages_per_second(frames)
    traced_rate = stages_per_second(scaled(traced_passes, gauge))
    layer["trace.stages_per_s"] = (traced_rate, "1/s")
    layer["trace.overhead_pct"] = (100.0 * (plain_rate / traced_rate - 1.0), "%")
    layer["machine.speed"] = (gauge.speed(), "ratio")
    return {
        "attempted": attempted,
        "failed": failed,
        "problems": problems,
        "metrics": layer,
        "samples": {},
        "speed": gauge.speed(),
        "records": tracer.records,
    }
