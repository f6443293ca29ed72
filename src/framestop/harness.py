"""Clip I/O, synthetic data, and the simulation / profiling / timing drivers.

Clips travel as JSONL, one object per line:

    {"id": str, "alphabet": str, "truth": str,
     "frames": [{"w": float (optional, default 1.0), "rows": [[K floats], ...]}, ...]}

Frame rows exclude the empty-class column; it is an internal artifact of
combination.  Driver outputs are CSV with floats at 9 significant digits.
"""

import csv
import json
import math
import random
from dataclasses import dataclass

from .core import Alphabet, Clip, make_frame
from .metrics import MetricKind
from .stoppers import StopperConfig, StopperMethod, run_clip, stage_traces, stages

SIMULATE_FIELDS = ("clip_id", "stop_stage", "forced", "final_error", "estimate_at_stop")
PROFILE_FIELDS = ("threshold", "mean_stop_stage", "mean_error", "forced_fraction")
BENCH_FIELDS = ("method", "stage", "mean_seconds", "best_seconds", "samples")

# most points a threshold grid may have; a profile runs every clip per point
MAX_GRID_POINTS = 10_000


@dataclass(frozen=True)
class SyntheticConfig:
    """Recipe for synthetic clips standing in for real recognition output.

    Each clip gets a random truth string; each frame applies
    character-level edit noise to it (one roll per character: substitute,
    delete, or prepend a random insertion), then smears ``confusion_mass``
    of every surviving one-hot row uniformly over the wrong classes.
    """

    clip_count: int
    text_length: int
    alphabet: str
    frames_per_clip: int = 30
    p_sub: float = 0.0
    p_del: float = 0.0
    p_ins: float = 0.0
    confusion_mass: float = 0.0
    seed: int = 0

    def __post_init__(self):
        for name in ("p_sub", "p_del", "p_ins"):
            p = getattr(self, name)
            if not 0.0 <= p <= 1.0:
                raise ValueError(f"{name} must be in [0, 1]")
        if self.p_sub + self.p_del + self.p_ins > 1.0:
            raise ValueError("p_sub + p_del + p_ins must not exceed 1")
        if not 0.0 <= self.confusion_mass < 1.0:
            raise ValueError("confusion_mass must be in [0, 1)")
        if self.clip_count < 0 or self.text_length < 0 or self.frames_per_clip < 1:
            raise ValueError("clip_count, text_length must be >= 0, frames_per_clip >= 1")


def generate_synthetic(config):
    """Deterministic synthetic clips; the same seed gives identical output."""
    alphabet = Alphabet(config.alphabet)
    k = alphabet.size
    symbols = alphabet.symbols
    rng = random.Random(config.seed)
    sub_cut = config.p_sub
    del_cut = sub_cut + config.p_del
    ins_cut = del_cut + config.p_ins

    def noisy_chars(truth):
        out = []
        for ch in truth:
            roll = rng.random()
            if roll < sub_cut:
                others = [s for s in symbols if s != ch]
                out.append(rng.choice(others) if others else ch)
            elif roll < del_cut:
                continue
            elif roll < ins_cut:
                out.append(rng.choice(symbols))
                out.append(ch)
            else:
                out.append(ch)
        return out

    def row_for(ch):
        if k > 1 and config.confusion_mass > 0.0:
            spread = config.confusion_mass / (k - 1)
            row = [spread] * k
            row[alphabet.position(ch)] = 1.0 - config.confusion_mass
            return row
        row = [0.0] * k
        row[alphabet.position(ch)] = 1.0
        return row

    clips = []
    for index in range(config.clip_count):
        truth = "".join(rng.choice(symbols) for _ in range(config.text_length))
        frames = []
        for _ in range(config.frames_per_clip):
            rows = [row_for(ch) for ch in noisy_chars(truth)]
            frames.append(make_frame(rows, num_classes=k))
        clips.append(Clip(f"clip-{config.seed}-{index:04d}", alphabet, truth, frames))
    return clips


def load_clips(path):
    """Read validated clips from a JSONL file; errors name the offending line."""
    clips = []
    with open(path, encoding="utf-8") as handle:
        for lineno, line in enumerate(handle, 1):
            if not line.strip():
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ValueError(f"{path}:{lineno}: invalid JSON: {exc}") from None
            except RecursionError:
                raise ValueError(f"{path}:{lineno}: invalid JSON: nested too deeply") from None
            try:
                clips.append(_clip_from_record(record))
            except (ValueError, KeyError, TypeError, OverflowError) as exc:
                raise ValueError(f"{path}:{lineno}: {exc}") from None
    return clips


def _clip_from_record(record):
    for key in ("id", "alphabet", "truth", "frames"):
        if key not in record:
            raise ValueError(f"missing field {key!r}")
    alphabet = Alphabet(record["alphabet"])
    frames = []
    for frame in record["frames"]:
        rows = frame["rows"]
        weight = frame.get("w", 1.0)
        frames.append(make_frame(rows, weight, num_classes=alphabet.size))
    return Clip(record["id"], alphabet, record["truth"], frames)


def write_clips(clips, path):
    """Write clips as JSONL, the exact format load_clips reads."""
    with open(path, "w", encoding="utf-8") as handle:
        for clip in clips:
            frames = []
            for frame in clip.frames:
                if frame.rows.size and frame.rows[:, 0].any():
                    raise ValueError(
                        f"clip {clip.id}: frames with empty-class mass cannot be serialized"
                    )
                entry = {}
                if frame.weight != 1.0:
                    entry["w"] = frame.weight
                entry["rows"] = frame.rows[:, 1:].tolist()
                frames.append(entry)
            record = {
                "id": clip.id,
                "alphabet": "".join(clip.alphabet.symbols),
                "truth": clip.truth,
                "frames": frames,
            }
            handle.write(json.dumps(record) + "\n")


def parse_grid(spec):
    """Parse a "lo:hi:step" grid, inclusive of both ends when step divides the range.

    All three parts must be finite, and the grid may have at most
    ``MAX_GRID_POINTS`` points; the count is checked before any is built.
    """
    parts = spec.split(":")
    if len(parts) != 3:
        raise ValueError(f"grid must look like lo:hi:step, got {spec!r}")
    try:
        lo, hi, step = (float(p) for p in parts)
    except ValueError:
        raise ValueError(f"grid has non-numeric parts: {spec!r}") from None
    if not all(math.isfinite(v) for v in (lo, hi, step)):
        raise ValueError(f"grid parts must be finite: {spec!r}")
    if hi < lo:
        raise ValueError("grid upper end is below the lower end")
    if step <= 0:
        if lo == hi:
            return [lo]
        raise ValueError("grid step must be positive")
    span = (hi - lo) / step + 1e-9
    if not span < MAX_GRID_POINTS:  # also catches hi - lo overflowing to inf
        raise ValueError(f"grid {spec!r} has more than {MAX_GRID_POINTS} points")
    count = int(span)
    return [lo + i * step for i in range(count + 1)]


def simulate(clips, config):
    """Run the stopping rule over every clip; one outcome row per clip."""
    if not clips:
        raise ValueError("no clips to simulate")
    rows = []
    for clip in clips:
        outcome = run_clip(clip, config)
        trace = outcome.estimate_trace
        rows.append(
            {
                "clip_id": clip.id,
                "stop_stage": outcome.stop_stage,
                "forced": int(outcome.forced),
                "final_error": outcome.final_error,
                "estimate_at_stop": trace[-1] if trace else float("nan"),
            }
        )
    return rows


def profile(clips, config, grid):
    """Threshold sweep: mean stop stage and mean error per operating point.

    One combination pass per clip supplies the whole sweep; the stop stage
    for a threshold is the first stage whose estimate is at or under it.
    For FIXED_STAGE the grid entries are stage numbers instead.
    """
    if not clips:
        raise ValueError("no clips to profile")
    grid = sorted(grid)
    if not grid:
        raise ValueError("empty threshold grid")
    fixed = config.method is StopperMethod.FIXED_STAGE
    if fixed and any(point < 1 or point != int(point) for point in grid):
        raise ValueError("FIXED_STAGE grid entries must be whole stages >= 1")
    traces = [stage_traces(clip, config) for clip in clips]
    rows = []
    for point in grid:
        stops = []
        errors = []
        forced_count = 0
        for estimates, stage_errors in traces:
            if fixed:
                forced = int(point) > config.max_stages
                stop = config.max_stages if forced else int(point)
            else:
                stop = next(
                    (i + 1 for i, est in enumerate(estimates) if est <= point), None
                )
                forced = stop is None
                if forced:
                    stop = config.max_stages
            stops.append(stop)
            errors.append(stage_errors[stop - 1])
            forced_count += forced
        rows.append(
            {
                "threshold": point,
                "mean_stop_stage": sum(stops) / len(stops),
                "mean_error": sum(errors) / len(errors),
                "forced_fraction": forced_count / len(traces),
            }
        )
    return rows


def bench(clips, methods, *, metric=MetricKind.NGLD, delta=0.1, repeats=1, max_stages=30):
    """Wall-clock seconds of absorb plus estimate, per method and stage.

    Bookkeeping and estimation shift work between the two phases
    differently per method, so they are timed as one unit.  Each repeat
    drives every clip under every method in turn, so slow spells of a
    shared machine hit all methods alike.  ``mean_seconds`` is the mean
    over clips x repeats; ``best_seconds`` takes each clip's minimum over
    the repeats, then the mean over clips.  Runs single-threaded.
    """
    if not clips:
        raise ValueError("no clips to benchmark")
    if repeats < 1:
        raise ValueError("repeats must be at least 1")
    methods = list(methods)
    if any(m is StopperMethod.FIXED_STAGE for m in methods):
        raise ValueError("FIXED_STAGE has no estimator to benchmark")
    configs = [
        StopperConfig(method, metric=metric, delta=delta, max_stages=max_stages)
        for method in methods
    ]
    times = {}  # (method, stage) -> per clip, the seconds of every repeat
    for _ in range(repeats):
        for index, clip in enumerate(clips):
            for config in configs:
                for stage, elapsed in _timed_stages(clip, config):
                    per_clip = times.setdefault((config.method.value, stage), {})
                    per_clip.setdefault(index, []).append(elapsed)
    rows = []
    for key in sorted(times):
        per_clip = times[key].values()
        samples = sum(len(seconds) for seconds in per_clip)
        rows.append(
            {
                "method": key[0],
                "stage": key[1],
                "mean_seconds": sum(sum(seconds) for seconds in per_clip) / samples,
                "best_seconds": sum(min(seconds) for seconds in per_clip) / len(per_clip),
                "samples": samples,
            }
        )
    return rows


def _timed_stages(clip, config):
    return ((stage.number, stage.seconds) for stage in stages(clip, config))


def write_csv(path, fieldnames, rows):
    """Write dict rows as CSV, floats at 9 significant digits."""
    with open(path, "w", encoding="utf-8", newline="") as handle:
        writer = csv.DictWriter(handle, fieldnames=fieldnames)
        writer.writeheader()
        for row in rows:
            writer.writerow(
                {
                    key: format(value, ".9g") if isinstance(value, float) else value
                    for key, value in row.items()
                }
            )
