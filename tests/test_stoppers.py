import copy
import dataclasses
import math
import pickle
import random
import warnings

import numpy as np
import pytest

from framestop.combiner import CombinerState, align
from framestop.core import Alphabet, Clip, RecognitionFrame, from_string, make_frame
from framestop.metrics import MetricKind, gld, normalized
from framestop.stoppers import (
    EstimationBreakdown,
    StopperConfig,
    StopperMethod,
    estimate_base,
    estimate_method_a,
    estimate_method_b,
    fixed_stage_baseline,
    run_clip,
    should_stop,
    stage_traces,
    stages,
)

from oracles import (
    base_oracle,
    kernel_route,
    late_rows_clip,
    looped_clip,
    method_a_oracle,
    random_clip,
)

ALPHA = Alphabet("AB")
DELTA = 0.1


def state_for(texts, **kwargs):
    state = CombinerState(ALPHA, **kwargs)
    frames = [from_string(t, ALPHA) for t in texts]
    for frame in frames:
        state.absorb(frame)
    return state, frames


def test_config_validation():
    with pytest.raises(ValueError):
        StopperConfig(StopperMethod.BASE, delta=-0.1)
    with pytest.raises(ValueError):
        StopperConfig(StopperMethod.BASE, threshold=-1.0)
    with pytest.raises(ValueError):
        StopperConfig(StopperMethod.BASE, max_stages=0)
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError, match="finite"):
            StopperConfig(StopperMethod.BASE, delta=bad)
        with pytest.raises(ValueError, match="finite"):
            StopperConfig(StopperMethod.BASE, threshold=bad)
    with pytest.raises(ValueError):
        StopperConfig(StopperMethod.FIXED_STAGE)
    StopperConfig(StopperMethod.FIXED_STAGE, fixed_stage=3)
    # stage counts are integers: a float or a bool is refused, a numpy integer taken
    for bad in (2.5, 3.0, True):
        with pytest.raises(TypeError, match="max_stages"):
            StopperConfig(StopperMethod.BASE, max_stages=bad)
        with pytest.raises(TypeError, match="fixed_stage"):
            StopperConfig(StopperMethod.FIXED_STAGE, fixed_stage=bad)
        with pytest.raises(TypeError, match="fixed_stage"):
            fixed_stage_baseline(constant_clip(), bad)
    StopperConfig(StopperMethod.FIXED_STAGE, fixed_stage=np.int64(3), max_stages=np.int32(5))


def test_base_estimate_on_identical_frames():
    state, frames = state_for(["AB", "AB"])
    for metric in MetricKind:
        got = estimate_base(state, frames, metric=metric, delta=DELTA)
        assert got.estimate == DELTA / 3
        assert got.gld_aggregate == 0.0
    state1, frames1 = state_for(["AB"])
    assert estimate_base(state1, frames1, delta=DELTA).estimate == 0.05


def test_base_estimate_hand_example():
    state, frames = state_for(["A", "B"])
    got = estimate_base(state, frames, metric=MetricKind.NGLD, delta=DELTA)
    assert math.isclose(got.estimate, (0.1 + 4 / 13) / 3, abs_tol=1e-9)
    assert np.allclose(got.per_candidate, [2 / 13, 2 / 13], atol=1e-12)
    got_gld = estimate_base(state, frames, metric=MetricKind.GLD, delta=DELTA)
    assert math.isclose(got_gld.estimate, (0.1 + 1 / 3) / 3, abs_tol=1e-9)


def _base_corpus():
    rng = random.Random(404)
    clips = [random_clip(rng, i, weighted=i % 2 == 1) for i in range(120)]
    return clips + [looped_clip(60, weighted=True)]


def test_base_matches_recombination_oracle():
    worst = 0.0
    for clip in _base_corpus():
        state = CombinerState(clip.alphabet)
        frames = []
        for frame in clip.frames:
            state.absorb(frame)
            frames.append(frame)
            for metric in MetricKind:
                got = estimate_base(state, frames, metric=metric, delta=DELTA)
                estimate, per_candidate, aggregate = base_oracle(state, frames, metric, DELTA)
                worst = max(
                    worst,
                    abs(got.estimate - estimate),
                    abs(got.gld_aggregate - aggregate),
                    *(abs(x - y) for x, y in zip(got.per_candidate, per_candidate)),
                )
                assert len(got.per_candidate) == len(per_candidate)
    assert worst <= 1e-9, f"worst deviation from the oracle {worst}"


def test_candidate_gld_is_share_times_alignment_cost():
    checked = 0
    for clip in _base_corpus():
        state = CombinerState(clip.alphabet)
        for frame in clip.frames:
            state.absorb(frame)
            current = state.mean_rows
            for candidate in clip.frames:
                merged = state.combine_candidate(candidate)
                alignment = align(candidate, current)
                share = candidate.weight / (state.weight_total + candidate.weight)
                assert abs(gld(current, merged.rows) - share * alignment.cost) <= 1e-12
                inserted = alignment.result_rows.count(len(current))
                assert len(merged) == len(current) + inserted
                checked += 1
    assert checked > 5000


def _from_candidate_alignments(state, frames, metric):
    """(estimate, aggregate, per-candidate distances) of ``estimate_base``
    from the public ``candidate_alignment`` of each frame: share times
    cost, normalised at 2 S + inserted."""
    s = state.num_chars
    distances = []
    aggregate = 0.0
    for frame in frames:
        alignment, share = state.candidate_alignment(frame)
        g = share * alignment.cost
        aggregate += g
        length = 2 * s + alignment.inserted
        distances.append(g if metric is MetricKind.GLD else normalized(g, length))
    return (DELTA + sum(distances)) / (len(frames) + 1), aggregate, tuple(distances)


@pytest.mark.parametrize("route", ["compiled", "python"])
def test_base_equals_each_candidates_public_alignment_exactly(request, route):
    # estimate_base calls the kernels' align itself, and reads only the cost
    # and the step count; what it gives is still the public alignment's
    rng = random.Random(36)
    clips = [random_clip(rng, i, weighted=i % 2 == 1) for i in range(60)]
    empty, row = make_frame([], num_classes=2), make_frame([[0.7, 0.3]], 2.0)
    clips.append(Clip("zero-rows", ALPHA, "A", [empty, empty, row, empty]))
    seen = set()
    with kernel_route(request, route):
        for clip in clips:
            state = CombinerState(clip.alphabet)
            frames = []
            for frame in clip.frames:
                state.absorb(frame)
                frames.append(frame)
                seen.update({("state", state.num_chars == 0), ("frame", frame.num_chars == 0)})
                for metric in MetricKind:
                    got = estimate_base(state, frames, metric=metric, delta=DELTA)
                    want = _from_candidate_alignments(state, frames, metric)
                    assert (got.estimate, got.gld_aggregate, got.per_candidate) == want
        assert {("state", True), ("frame", True)} <= seen

        state, _ = state_for(["AB"])
        with pytest.raises(ValueError, match="frame has 3 classes, state expects 2"):
            estimate_base(state, [make_frame([[1, 0, 0]])])
        # rows past validation: an infinite row costs inf, refused as align refuses it
        frame = from_string("B", ALPHA)
        frame.rows = np.array([[0.0, 0.0, np.inf]])
        with np.errstate(invalid="ignore"):
            with pytest.raises(ValueError) as refused:
                align(frame, state.mean_rows)
            with pytest.raises(ValueError) as got:
                estimate_base(state, [frame])
        assert str(got.value) == str(refused.value) == "alignment cost is inf: rows must be finite"


def test_estimates_with_weights_near_the_float_limit():
    # A then B: W + w overflows for candidate A, the halved sum does not
    a_frame = from_string("A", ALPHA, weight=1e308)
    b_frame = from_string("B", ALPHA, weight=1e307)
    frames = [a_frame, b_frame]
    base_state = CombinerState(ALPHA)
    a_state = CombinerState(ALPHA, track_history=True)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for frame in frames:
            base_state.absorb(frame)
            a_state.absorb(frame)
        # current row is (W_A * A + W_B * B) / (W_A + W_B) = [10/11, 1/11]
        np.testing.assert_allclose(base_state.mean_rows, [[0.0, 10 / 11, 1 / 11]], rtol=1e-12)
        # (1.1e308 * [10/11, 1/11] + 1e308 * [1, 0]) / 2.1e308
        merged = base_state.combine_candidate(a_frame).rows
        np.testing.assert_allclose(merged, [[0.0, 20 / 21, 1 / 21]], rtol=1e-12)
        merged = base_state.combine_candidate(b_frame).rows
        np.testing.assert_allclose(merged, [[0.0, 5 / 6, 1 / 6]], rtol=1e-12)

        # shares 10/21 and 1/12 of the match costs 1/11 and 10/11
        want_gld = [10 / 21 / 11, 10 / 11 / 12]
        want_ngld = [2 * g / (g + 2) for g in want_gld]
        for metric, want in ((MetricKind.GLD, want_gld), (MetricKind.NGLD, want_ngld)):
            base = estimate_base(base_state, frames, metric=metric, delta=DELTA)
            approx = estimate_method_a(a_state, metric=metric, delta=DELTA)
            for got in (base, approx):
                np.testing.assert_allclose(got.per_candidate, want, rtol=1e-12)
                assert math.isclose(got.estimate, (DELTA + sum(want)) / 3, rel_tol=1e-12)
                assert math.isclose(got.gld_aggregate, sum(want_gld), rel_tol=1e-12)


def test_method_a_matches_base_on_hand_example():
    state, _ = state_for(["A", "B"], track_history=True)
    got = estimate_method_a(state, metric=MetricKind.NGLD, delta=DELTA)
    assert math.isclose(got.estimate, (0.1 + 4 / 13) / 3, abs_tol=1e-9)
    assert np.allclose(got.per_candidate, [2 / 13, 2 / 13], atol=1e-12)
    got_gld = estimate_method_a(state, metric=MetricKind.GLD, delta=DELTA)
    assert math.isclose(got_gld.estimate, (0.1 + 1 / 3) / 3, abs_tol=1e-9)
    assert math.isclose(got_gld.gld_aggregate, 1 / 3, abs_tol=1e-12)


def test_method_b_hand_example():
    state, _ = state_for(["A", "B"], track_treaps=True)
    got = estimate_method_b(state, metric=MetricKind.NGLD, delta=DELTA)
    assert math.isclose(got.estimate, (0.1 + 2 / 7) / 3, abs_tol=1e-9)
    assert got.per_candidate is None
    got_gld = estimate_method_b(state, metric=MetricKind.GLD, delta=DELTA)
    assert math.isclose(got_gld.estimate, (0.1 + 1 / 3) / 3, abs_tol=1e-9)
    assert math.isclose(got_gld.gld_aggregate, 1 / 3, abs_tol=1e-12)


def test_estimator_preconditions():
    state = CombinerState(ALPHA)
    with pytest.raises(ValueError):
        estimate_base(state, [])
    state_h = CombinerState(ALPHA, track_history=True)
    with pytest.raises(ValueError):
        estimate_method_a(state_h)
    with pytest.raises(ValueError, match="track_history"):
        estimate_method_a(state_for(["A"])[0])
    with pytest.raises(ValueError, match="track_treaps"):
        estimate_method_b(state_for(["A"])[0])
    state_frames_mismatch, frames = state_for(["A", "B"])
    with pytest.raises(ValueError):
        estimate_base(state_frames_mismatch, frames[:1])


def test_method_b_takes_a_weighted_state():
    # b reads a's kept scan, whose sum carries each frame's share: weights
    # 2 and 1 give shares 2/5 and 1/4 of the match costs 1/3 and 2/3
    for keyword in ("track_history", "track_treaps"):
        state = CombinerState(ALPHA, **{keyword: True})
        state.absorb(make_frame([[1, 0]], 2.0))
        state.absorb(make_frame([[0, 1]], 1.0))
        for metric in MetricKind:
            a = estimate_method_a(state, metric=metric, delta=DELTA)
            b = estimate_method_b(state, metric=metric, delta=DELTA)
            assert b.gld_aggregate == a.gld_aggregate
            assert math.isclose(b.gld_aggregate, 2 / 15 + 1 / 6, abs_tol=1e-12)
        g = b.gld_aggregate
        b = estimate_method_b(state, metric=MetricKind.NGLD, delta=DELTA)
        assert math.isclose(b.estimate, (DELTA + 2 * g / (g + 2)) / 3, abs_tol=1e-12)


def _constant_weights():
    """Per-frame weights of 30 stages: uniform draws, a zero first weight,
    and alternations of a tiny or a huge weight with an ordinary one."""
    rng = random.Random(30)
    return {
        "uniform": [rng.uniform(0.25, 3.0) for _ in range(30)],
        "zero-first": [0.0] + [rng.uniform(0.25, 3.0) for _ in range(29)],
        "1e-300-and-2": [1e-300, 2.0] * 15,
        "1e300-and-1": [1e300, 1.0] * 15,
    }


@pytest.mark.parametrize("route", ["compiled", "python"])
@pytest.mark.parametrize("weights", _constant_weights())
def test_weighted_constant_clips_give_exactly_delta_over_n_plus_1(request, route, weights):
    # acceptance criterion 4 with per-frame weights: base, a and b agree on
    # what a weight means where every candidate leaves the result as it is
    alphabet = Alphabet("ABC")
    kinds = (
        from_string("ABCA", alphabet).rows,
        make_frame([[0.6, 0.3, 0.1], [0.2, 0.5, 0.3], [0.25, 0.25, 0.5]]).rows,
        np.zeros((0, 4)),
    )
    with kernel_route(request, route):
        for rows in kinds:
            state = CombinerState(alphabet, track_history=True)
            frames = []
            for n, weight in enumerate(_constant_weights()[weights], 1):
                frames.append(RecognitionFrame(rows, weight))
                state.absorb(frames[-1])
                for metric in MetricKind:
                    for breakdown in (
                        estimate_base(state, frames, metric=metric, delta=DELTA),
                        estimate_method_a(state, metric=metric, delta=DELTA),
                        estimate_method_b(state, metric=metric, delta=DELTA),
                    ):
                        assert breakdown.estimate == DELTA / (n + 1), (len(rows), n, metric)


def test_weighted_method_a_matches_oracle():
    rng = random.Random(99)
    for i in range(30):
        clip = random_clip(rng, i, weighted=True)
        state = CombinerState(clip.alphabet, track_history=True)
        for frame in clip.frames:
            state.absorb(frame)
        for metric in MetricKind:
            got = estimate_method_a(state, metric=metric, delta=DELTA)
            want_estimate, want_per, want_aggregate = method_a_oracle(
                state, metric=metric, delta=DELTA
            )
            assert math.isclose(got.estimate, want_estimate, abs_tol=1e-9)
            assert np.allclose(got.per_candidate, want_per, atol=1e-9)
            assert math.isclose(got.gld_aggregate, want_aggregate, abs_tol=1e-9)


def test_method_b_aggregate_matches_method_a():
    rng = random.Random(41)
    clips = [random_clip(rng, i) for i in range(30)]
    clips += [looped_clip(), late_rows_clip()]
    for clip in clips:
        state = CombinerState(clip.alphabet, track_history=True, track_treaps=True)
        for frame in clip.frames:
            state.absorb(frame)
            a = estimate_method_a(state, delta=DELTA)
            b = estimate_method_b(state, delta=DELTA)
            assert math.isclose(a.gld_aggregate, b.gld_aggregate, abs_tol=1e-9)
        _, _, want_aggregate = method_a_oracle(state, metric=MetricKind.GLD, delta=DELTA)
        assert math.isclose(b.gld_aggregate, want_aggregate, abs_tol=1e-9)


@pytest.mark.parametrize("metric", list(MetricKind))
def test_zero_weight_first_frame_method_a_matches_base(metric):
    frames = [make_frame([[1, 0], [0, 1]], 0.0), from_string("AB", ALPHA), from_string("AB", ALPHA)]
    base_state = CombinerState(ALPHA)
    a_state = CombinerState(ALPHA, track_history=True)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for n, frame in enumerate(frames, 1):
            base_state.absorb(frame)
            a_state.absorb(frame)
            base = estimate_base(base_state, frames[:n], metric=metric, delta=DELTA)
            a = estimate_method_a(a_state, metric=metric, delta=DELTA)
            assert math.isclose(a.estimate, base.estimate, abs_tol=1e-12)
            assert math.isclose(a.gld_aggregate, base.gld_aggregate, abs_tol=1e-12)
            assert np.allclose(a.per_candidate, base.per_candidate, atol=1e-12)
    assert a.estimate == DELTA / 4


def test_estimates_never_below_delta_floor():
    rng = random.Random(3)
    for i in range(20):
        clip = random_clip(rng, i)
        state = CombinerState(clip.alphabet, track_history=True, track_treaps=True)
        frames = []
        for frame in clip.frames:
            state.absorb(frame)
            frames.append(frame)
            floor = DELTA / (state.n + 1)
            assert estimate_base(state, frames, delta=DELTA).estimate >= floor
            assert estimate_method_a(state, delta=DELTA).estimate >= floor
            assert estimate_method_b(state, delta=DELTA).estimate >= floor


def test_should_stop_boundary_is_inclusive():
    config = StopperConfig(StopperMethod.BASE, threshold=0.05)
    assert should_stop(0.05, config)
    assert not should_stop(0.05, StopperConfig(StopperMethod.BASE, threshold=0.04))
    assert should_stop(0.0333, StopperConfig(StopperMethod.BASE, threshold=0.04))


def constant_clip(text="AB", count=3):
    frames = [from_string(text, ALPHA) for _ in range(count)]
    return Clip("const", ALPHA, text, frames)


@pytest.mark.parametrize("method", [StopperMethod.BASE, StopperMethod.METHOD_A, StopperMethod.METHOD_B])
def test_run_clip_stops_when_trace_crosses(method):
    clip = constant_clip()
    config = StopperConfig(method, threshold=0.04, delta=DELTA)
    outcome = run_clip(clip, config)
    assert outcome.stop_stage == 2
    assert not outcome.forced
    assert outcome.final_error == 0.0
    assert np.allclose(outcome.estimate_trace, [0.05, 0.1 / 3], atol=1e-12)


def test_run_clip_inclusive_threshold_stops_at_one():
    outcome = run_clip(constant_clip(), StopperConfig(StopperMethod.METHOD_A, threshold=0.05))
    assert outcome.stop_stage == 1 and not outcome.forced


def test_run_clip_forced_stop_at_max_stages():
    rng = random.Random(8)
    clip = random_clip(rng, 0, max_frames=4, max_rows=4)
    config = StopperConfig(StopperMethod.METHOD_A, threshold=0.0, max_stages=30)
    outcome = run_clip(clip, config)
    assert outcome.forced and outcome.stop_stage == 30
    assert len(outcome.estimate_trace) == 30


def test_run_clip_loops_short_clips():
    clip = constant_clip(count=2)
    config = StopperConfig(StopperMethod.METHOD_A, threshold=0.1 / 8 - 1e-12, max_stages=12)
    outcome = run_clip(clip, config)
    # delta/(n+1) crosses just after n = 7, well past the clip's own length
    assert outcome.stop_stage == 8


def test_run_clip_rejects_empty_clip():
    clip = Clip("empty", ALPHA, "A", [])
    with pytest.raises(ValueError, match="no frames"):
        run_clip(clip, StopperConfig(StopperMethod.BASE))


def test_fixed_stage_baseline():
    clip = constant_clip()
    for stage in (1, 5, 30):
        outcome = fixed_stage_baseline(clip, stage)
        assert outcome.stop_stage == stage
        assert not outcome.forced
        assert outcome.final_error == 0.0
        assert outcome.estimate_trace == ()
    with pytest.raises(ValueError):
        fixed_stage_baseline(clip, 0)


def test_fixed_stage_past_horizon_is_forced():
    outcome = run_clip(
        constant_clip(),
        StopperConfig(StopperMethod.FIXED_STAGE, fixed_stage=50, max_stages=30),
    )
    assert outcome.forced and outcome.stop_stage == 30


def test_stop_stage_monotone_in_threshold():
    rng = random.Random(17)
    for i in range(8):
        clip = random_clip(rng, i, max_frames=6, max_rows=4)
        stages = []
        for threshold in [0.0, 0.02, 0.05, 0.1, 0.2, 0.5]:
            config = StopperConfig(StopperMethod.METHOD_A, threshold=threshold)
            stages.append(run_clip(clip, config).stop_stage)
        assert stages == sorted(stages, reverse=True)


def test_stage_traces_agree_with_run_clip():
    rng = random.Random(23)
    for i in range(6):
        clip = random_clip(rng, i, max_frames=5, max_rows=4)
        for method in (StopperMethod.BASE, StopperMethod.METHOD_A, StopperMethod.METHOD_B):
            config = StopperConfig(method, threshold=0.08, max_stages=12)
            estimates, errors = stage_traces(clip, config)
            assert len(estimates) == 12 and len(errors) == 12
            outcome = run_clip(clip, config)
            assert outcome.estimate_trace == estimates[: outcome.stop_stage]
            expected_stop = next(
                (n + 1 for n, est in enumerate(estimates) if est <= 0.08), 12
            )
            assert outcome.stop_stage == expected_stop
            assert outcome.final_error == errors[outcome.stop_stage - 1]


def test_stage_traces_fixed_stage_has_no_estimates():
    config = StopperConfig(StopperMethod.FIXED_STAGE, fixed_stage=1, max_stages=6)
    estimates, errors = stage_traces(constant_clip(), config)
    assert estimates == ()
    assert errors == (0.0,) * 6


@pytest.mark.parametrize("method", list(StopperMethod))
def test_stages_yields_one_record_per_stage(method):
    clip = random_clip(random.Random(41), 0, max_frames=4, max_rows=4)
    assert len(clip.frames) < 10
    config = StopperConfig(method, threshold=0.2, fixed_stage=3, max_stages=10)
    records = list(stages(clip, config, seed=5))
    assert [r.number for r in records] == list(range(1, 11))
    assert any(r.stop for r in records[:-1])  # records go on past the first stop

    state = CombinerState(
        clip.alphabet,
        track_history=method is StopperMethod.METHOD_A,
        track_treaps=method is StopperMethod.METHOD_B,
        seed=5,
    )
    observed = []
    for record in records:
        frame = clip.frames[(record.number - 1) % len(clip.frames)]
        state.absorb(frame)
        observed.append(frame)
        assert np.array_equal(record.rows, state.mean_rows)
        assert not record.rows.flags.writeable
        assert record.seconds > 0
        if method is StopperMethod.FIXED_STAGE:
            assert record.breakdown is None
            assert record.stop == (record.number == 3)
            continue
        if method is StopperMethod.BASE:
            expected = estimate_base(state, observed, delta=DELTA)
        elif method is StopperMethod.METHOD_A:
            expected = estimate_method_a(state, delta=DELTA)
        else:
            expected = estimate_method_b(state, delta=DELTA)
        assert record.breakdown == expected
        assert record.stop == should_stop(expected.estimate, config)

    empty = stages(Clip("empty", ALPHA, "A", []), config)
    with pytest.raises(ValueError, match="no frames"):
        next(empty)


def test_estimation_breakdown_fields():
    got = EstimationBreakdown(0.1, 0.0, (0.0,))
    assert got.estimate == 0.1 and got.gld_aggregate == 0.0
    assert got.per_candidate == (0.0,)
    assert EstimationBreakdown(0.1, 0.0).per_candidate is None


def test_an_estimation_breakdown_is_a_frozen_dataclass():
    got = EstimationBreakdown(0.25, 1.5, (0.5, 1.0))
    for name in ("estimate", "gld_aggregate", "per_candidate", "other"):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(got, name, 0.0)
    assert got == EstimationBreakdown(0.25, 1.5, (0.5, 1.0))
    assert got != EstimationBreakdown(0.25, 1.5, None)
    assert hash(got) == hash(EstimationBreakdown(0.25, 1.5, (0.5, 1.0)))
    assert repr(got) == "EstimationBreakdown(estimate=0.25, gld_aggregate=1.5, per_candidate=(0.5, 1.0))"
    assert EstimationBreakdown(gld_aggregate=1.5, estimate=0.25, per_candidate=(0.5, 1.0)) == got
    assert [f.name for f in dataclasses.fields(got)] == ["estimate", "gld_aggregate", "per_candidate"]
    changed = dataclasses.replace(got, estimate=0.75)
    assert changed == EstimationBreakdown(0.75, 1.5, (0.5, 1.0))
    assert dataclasses.replace(changed, per_candidate=None).per_candidate is None
    assert dataclasses.astuple(got) == (0.25, 1.5, (0.5, 1.0))
    assert got.estimate == 0.25  # untouched by the copies


def _lazy_clips():
    rng = random.Random(29)
    return [looped_clip(400)] + [random_clip(rng, i, weighted=True) for i in range(20)]


def _eager(state, metric):
    """Method a's per-candidate tuple as it was built before it was lazy."""
    d, g, _, _ = state.candidate_gld()
    return tuple((d if metric is MetricKind.NGLD else g).tolist())


@pytest.mark.parametrize("route", ["compiled", "python"])
def test_method_as_per_candidate_is_the_eager_tuple_built_on_first_read(request, route):
    # each breakdown is first read 10 absorbs after it was made: a snapshot
    later = 10
    with kernel_route(request, route):
        for clip in _lazy_clips():
            state = CombinerState(clip.alphabet, track_history=True)
            pending = []
            for frame in clip.frames + clip.frames[:later]:
                state.absorb(frame)
                for metric in MetricKind:
                    got = estimate_method_a(state, metric=metric, delta=DELTA)
                    assert "per_candidate" not in vars(got)  # nothing built yet
                    pending.append((state.n + later, got, _eager(state, metric)))
                while pending and pending[0][0] == state.n:
                    _, got, want = pending.pop(0)
                    first = got.per_candidate
                    assert type(first) is tuple and first == want
                    assert [d.hex() for d in first] == [d.hex() for d in want]
                    assert got.per_candidate is first and got.per_candidate is first


@pytest.mark.parametrize("route", ["compiled", "python"])
def test_a_lazy_breakdown_behaves_as_its_tuple_built_twin(request, route):
    with kernel_route(request, route):
        for clip in _lazy_clips()[:8]:
            state = CombinerState(clip.alphabet, track_history=True)
            for frame in clip.frames[:40]:
                state.absorb(frame)
            for metric in MetricKind:
                def lazy():  # a breakdown whose per_candidate no one has read
                    return estimate_method_a(state, metric=metric, delta=DELTA)

                made = lazy()
                twin = EstimationBreakdown(made.estimate, made.gld_aggregate, _eager(state, metric))
                assert lazy() == twin and twin == lazy() and not lazy() != twin
                assert hash(lazy()) == hash(twin)
                assert repr(lazy()) == repr(twin)
                replaced = dataclasses.replace(lazy(), estimate=0.5)
                assert replaced == dataclasses.replace(twin, estimate=0.5)
                assert dataclasses.astuple(lazy()) == dataclasses.astuple(twin)
                assert pickle.dumps(lazy()) == pickle.dumps(twin)
                assert pickle.loads(pickle.dumps(lazy())) == twin
                for copied in (copy.copy(lazy()), copy.deepcopy(lazy())):
                    assert copied == twin and type(copied.per_candidate) is tuple
                assert made.per_candidate == twin.per_candidate  # read after the copies
