import csv
import json
import math
import tracemalloc

import numpy as np
import pytest

import framestop.harness as harness
from framestop.core import Alphabet, Clip, RecognitionFrame, from_string
from framestop.harness import (
    BENCH_FIELDS,
    MAX_GRID_POINTS,
    PROFILE_FIELDS,
    SIMULATE_FIELDS,
    SyntheticConfig,
    bench,
    generate_synthetic,
    load_clips,
    parse_grid,
    profile,
    simulate,
    write_clips,
    write_csv,
)
from framestop.metrics import MetricKind
from framestop.stoppers import StopperConfig, StopperMethod


def noiseless_config(**overrides):
    base = dict(clip_count=3, text_length=4, alphabet="ABC", frames_per_clip=5, seed=11)
    base.update(overrides)
    return SyntheticConfig(**base)


def noisy_config(**overrides):
    base = dict(
        clip_count=4,
        text_length=5,
        alphabet="ABCDE",
        frames_per_clip=6,
        p_sub=0.2,
        p_del=0.1,
        p_ins=0.1,
        confusion_mass=0.3,
        seed=5,
    )
    base.update(overrides)
    return SyntheticConfig(**base)


def test_synthetic_config_validation():
    with pytest.raises(ValueError):
        noiseless_config(p_sub=1.2)
    with pytest.raises(ValueError):
        noiseless_config(p_sub=0.5, p_del=0.4, p_ins=0.2)
    with pytest.raises(ValueError):
        noiseless_config(confusion_mass=1.0)
    with pytest.raises(ValueError):
        noiseless_config(frames_per_clip=0)


def test_generate_noiseless_reproduces_truth():
    clips = generate_synthetic(noiseless_config())
    assert len(clips) == 3
    for clip in clips:
        truth_rows = from_string(clip.truth, clip.alphabet).rows
        assert len(clip.frames) == 5
        for frame in clip.frames:
            assert np.array_equal(frame.rows, truth_rows)


def test_generate_all_deleted():
    clips = generate_synthetic(noiseless_config(p_del=1.0))
    for clip in clips:
        for frame in clip.frames:
            assert frame.num_chars == 0


def test_generate_is_deterministic():
    a = generate_synthetic(noisy_config())
    b = generate_synthetic(noisy_config())
    for clip_a, clip_b in zip(a, b):
        assert clip_a.id == clip_b.id
        assert clip_a.truth == clip_b.truth
        for fa, fb in zip(clip_a.frames, clip_b.frames):
            assert np.array_equal(fa.rows, fb.rows)


def test_roundtrip_write_then_load_is_identical(tmp_path):
    path = tmp_path / "clips.jsonl"
    originals = generate_synthetic(noisy_config())
    # the first clip's frames weighted, zero and fractional weights among them
    first = originals[0]
    weights = [0.0, 0.3, 2.5, 1.0]
    weighted = [RecognitionFrame(f.rows, weights[i % 4]) for i, f in enumerate(first.frames)]
    originals[0] = Clip(first.id, first.alphabet, first.truth, weighted)
    write_clips(originals, path)
    assert '"w": 0.3' in path.read_text()
    loaded = load_clips(path)
    assert len(loaded) == len(originals)
    for original, back in zip(originals, loaded):
        assert back.id == original.id
        assert back.truth == original.truth
        assert back.alphabet == original.alphabet
        for fa, fb in zip(original.frames, back.frames):
            assert fa.weight == fb.weight
            assert np.array_equal(fa.rows, fb.rows)


def test_load_clips_minimal_record(tmp_path):
    path = tmp_path / "one.jsonl"
    record = {
        "id": "x",
        "alphabet": "AB",
        "truth": "A",
        "frames": [{"rows": [[1.0, 0.0]]}, {"w": 2.0, "rows": [[0.25, 0.75]]}],
    }
    path.write_text(json.dumps(record) + "\n")
    clips = load_clips(path)
    assert len(clips) == 1
    assert clips[0].frames[1].weight == 2.0
    assert np.array_equal(clips[0].frames[0].rows, [[0.0, 1.0, 0.0]])


@pytest.mark.parametrize(
    "mutate, message",
    [
        (lambda r: r["frames"].append({"rows": [[0.0, 0.0]]}), "sums to zero"),
        (lambda r: r.update(truth="AX"), "not in the alphabet"),
        (lambda r: r.pop("truth"), "missing field"),
        (lambda r: r["frames"].append({"rows": [[1.0, 0.0, 0.0]]}), "classes"),
    ],
)
def test_load_clips_rejects_bad_records(tmp_path, mutate, message):
    record = {"id": "x", "alphabet": "AB", "truth": "A", "frames": [{"rows": [[1.0, 0.0]]}]}
    mutate(record)
    path = tmp_path / "bad.jsonl"
    path.write_text(json.dumps(record) + "\n")
    with pytest.raises(ValueError, match=message) as err:
        load_clips(path)
    assert ":1:" in str(err.value)


def test_load_clips_names_json_error_line(tmp_path):
    path = tmp_path / "broken.jsonl"
    good = {"id": "x", "alphabet": "AB", "truth": "A", "frames": []}
    path.write_text(json.dumps(good) + "\n{oops\n")
    with pytest.raises(ValueError, match=":2:"):
        load_clips(path)


def test_write_clips_rejects_empty_class_mass(tmp_path):
    alpha = Alphabet("AB")
    from framestop.core import RecognitionFrame

    frame = RecognitionFrame(np.array([[0.5, 0.5, 0.0]]))
    clip = Clip("x", alpha, "A", [frame])
    with pytest.raises(ValueError, match="empty-class mass"):
        write_clips([clip], tmp_path / "bad.jsonl")


def test_parse_grid():
    assert parse_grid("0:0.1:0.02") == pytest.approx([0.0, 0.02, 0.04, 0.06, 0.08, 0.1])
    assert parse_grid("1:30:1")[0] == 1.0
    assert len(parse_grid("1:30:1")) == 30
    assert parse_grid("0.5:0.5:0") == [0.5]
    with pytest.raises(ValueError):
        parse_grid("1:0:1")
    with pytest.raises(ValueError):
        parse_grid("0:1")
    with pytest.raises(ValueError):
        parse_grid("a:b:c")
    with pytest.raises(ValueError):
        parse_grid("0:1:0")


def test_parse_grid_rejects_non_finite_and_oversized_grids():
    for spec in ("0:inf:1", "-inf:1:1", "nan:1:1", "0:1:nan", "0:1:inf"):
        with pytest.raises(ValueError, match="finite"):
            parse_grid(spec)
    # the point count is checked before the list is built
    for spec in ("0:1:1e-12", "-1e308:1e308:1", f"0:{MAX_GRID_POINTS}:1"):
        with pytest.raises(ValueError, match="points"):
            parse_grid(spec)
    assert len(parse_grid(f"1:{MAX_GRID_POINTS}:1")) == MAX_GRID_POINTS


def constant_clips(count=3):
    alpha = Alphabet("AB")
    frames = [from_string("AB", alpha) for _ in range(4)]
    return [Clip(f"c{i}", alpha, "AB", frames) for i in range(count)]


def test_simulate_constant_clips_stop_immediately():
    config = StopperConfig(StopperMethod.METHOD_A, threshold=0.05)
    rows = simulate(constant_clips(), config)
    assert [row["stop_stage"] for row in rows] == [1, 1, 1]
    assert all(row["final_error"] == 0.0 for row in rows)
    assert all(row["forced"] == 0 for row in rows)
    assert all(row["estimate_at_stop"] == 0.05 for row in rows)


def test_simulate_fixed_stage():
    config = StopperConfig(StopperMethod.FIXED_STAGE, fixed_stage=7)
    rows = simulate(constant_clips(), config)
    assert all(row["stop_stage"] == 7 for row in rows)
    assert all(math.isnan(row["estimate_at_stop"]) for row in rows)


def test_simulate_zero_threshold_forces_full_run():
    clips = generate_synthetic(noisy_config())
    config = StopperConfig(StopperMethod.METHOD_A, threshold=0.0, max_stages=30)
    rows = simulate(clips, config)
    assert all(row["stop_stage"] == 30 and row["forced"] == 1 for row in rows)


def test_simulate_is_deterministic():
    clips = generate_synthetic(noisy_config())
    config = StopperConfig(StopperMethod.METHOD_B, threshold=0.06)
    assert simulate(clips, config) == simulate(clips, config)


def test_simulate_requires_clips():
    with pytest.raises(ValueError):
        simulate([], StopperConfig(StopperMethod.BASE))


def test_profile_extremes_and_monotonicity():
    clips = generate_synthetic(noisy_config(clip_count=6))
    config = StopperConfig(StopperMethod.METHOD_A, max_stages=30)
    rows = profile(clips, config, [0.0, 0.03, 0.06, 0.12, 0.5])
    assert rows[0]["threshold"] == 0.0
    assert rows[0]["mean_stop_stage"] == 30.0
    assert rows[-1]["mean_stop_stage"] == 1.0
    stages = [row["mean_stop_stage"] for row in rows]
    assert stages == sorted(stages, reverse=True)
    thresholds = [row["threshold"] for row in rows]
    assert thresholds == sorted(thresholds)


def test_profile_large_threshold_is_single_frame_error():
    clips = generate_synthetic(noisy_config(clip_count=5))
    config = StopperConfig(StopperMethod.METHOD_A, max_stages=30)
    rows = profile(clips, config, [10.0])
    from framestop.stoppers import fixed_stage_baseline

    single = [fixed_stage_baseline(clip, 1).final_error for clip in clips]
    assert rows[0]["mean_error"] == pytest.approx(sum(single) / len(single), abs=1e-12)


def test_profile_fixed_stage_grid():
    clips = constant_clips()
    config = StopperConfig(StopperMethod.FIXED_STAGE, fixed_stage=1, max_stages=30)
    rows = profile(clips, config, list(range(1, 31)))
    assert all(row["mean_error"] == 0.0 for row in rows)
    assert [row["mean_stop_stage"] for row in rows] == [float(s) for s in range(1, 31)]
    with pytest.raises(ValueError, match="whole stages"):
        profile(clips, config, [0.5])


def test_profile_empty_grid_rejected():
    with pytest.raises(ValueError):
        profile(constant_clips(), StopperConfig(StopperMethod.BASE), [])


def test_bench_sample_counts():
    clips = generate_synthetic(noisy_config(clip_count=1))
    rows = bench(
        clips,
        [StopperMethod.BASE, StopperMethod.METHOD_A, StopperMethod.METHOD_B],
        repeats=1,
        max_stages=5,
    )
    assert len(rows) == 15
    assert all(row["samples"] == 1 for row in rows)
    assert all(row["mean_seconds"] > 0 for row in rows)
    methods = {row["method"] for row in rows}
    assert methods == {"base", "a", "b"}


def test_bench_interleaves_methods_and_takes_per_clip_minima(monkeypatch):
    clips = constant_clips(2)
    order = []
    seconds = {
        ("base", 0): [4.0, 2.0], ("base", 1): [6.0, 8.0],
        ("a", 0): [1.0, 3.0], ("a", 1): [5.0, 5.0],
    }

    def fake_stages(clip, config):
        index = clips.index(clip)
        order.append((config.method.value, index))
        repeat = sum(1 for key in order if key == (config.method.value, index)) - 1
        yield 1, seconds[(config.method.value, index)][repeat]

    monkeypatch.setattr(harness, "_timed_stages", fake_stages)
    rows = bench(clips, [StopperMethod.BASE, StopperMethod.METHOD_A], repeats=2)
    assert order == [("base", 0), ("a", 0), ("base", 1), ("a", 1)] * 2
    by_method = {row["method"]: row for row in rows}
    assert by_method["base"]["mean_seconds"] == 5.0
    assert by_method["base"]["best_seconds"] == 4.0  # mean of 2.0 and 6.0
    assert by_method["a"]["mean_seconds"] == 3.5
    assert by_method["a"]["best_seconds"] == 3.0  # mean of 1.0 and 5.0
    assert all(row["samples"] == 4 for row in rows)


def test_bench_memory_does_not_grow_with_repeats(monkeypatch):
    clips = generate_synthetic(noisy_config(clip_count=1))
    methods = [StopperMethod.BASE, StopperMethod.METHOD_A, StopperMethod.METHOD_B]
    # every repeat replays one run's timings, so only bench's own bookkeeping allocates
    recorded = {
        method.value: list(harness._timed_stages(clips[0], StopperConfig(method, max_stages=30)))
        for method in methods
    }
    monkeypatch.setattr(
        harness, "_timed_stages", lambda clip, config: iter(recorded[config.method.value])
    )

    def peak(repeats):
        tracemalloc.start()
        try:
            bench(clips, methods, repeats=repeats, max_stages=30)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    peak(1)  # first-call allocations
    # a list of every repeat's seconds would hold 90 x 50 of them: 36 KB
    assert peak(50) < peak(1) + 8192


def test_bench_validation():
    clips = constant_clips(1)
    with pytest.raises(ValueError):
        bench(clips, [StopperMethod.BASE], repeats=0)
    with pytest.raises(ValueError):
        bench([], [StopperMethod.BASE])
    with pytest.raises(ValueError, match="FIXED_STAGE"):
        bench(clips, [StopperMethod.FIXED_STAGE])


def test_write_csv_formats_floats(tmp_path):
    path = tmp_path / "out.csv"
    write_csv(
        path,
        ("name", "value"),
        [{"name": "pi", "value": 3.14159265358979}, {"name": "n", "value": 7}],
    )
    with open(path) as handle:
        rows = list(csv.DictReader(handle))
    assert rows[0]["value"] == "3.14159265"
    assert rows[1]["value"] == "7"


def test_csv_field_constants():
    assert SIMULATE_FIELDS[0] == "clip_id"
    assert PROFILE_FIELDS[0] == "threshold"
    assert BENCH_FIELDS[0] == "method"
