"""Property tests over random weighted clips: every estimate is finite and well-bounded."""

import math
import warnings

from hypothesis import given, settings
from hypothesis import strategies as st

from framestop.combiner import CombinerState
from framestop.core import Alphabet, make_frame
from framestop.metrics import MetricKind
from framestop.stoppers import estimate_base, estimate_method_a, estimate_method_b

from oracles import method_a_oracle, python_kernels

DELTA = 0.1


@st.composite
def clips(draw, *, unit_weights=False):
    """(alphabet, frames): 1-6 frames of 0-5 rows over 1-4 classes, random weights."""
    k = draw(st.integers(1, 4))
    scores = st.floats(0.001, 1.0)
    weights = st.just(1.0) if unit_weights else st.floats(0.0, 4.0)
    frames = []
    for _ in range(draw(st.integers(1, 6))):
        rows = draw(st.lists(st.lists(scores, min_size=k, max_size=k), max_size=5))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # raw scores are renormalized loudly by design
            frames.append(make_frame(rows, draw(weights), num_classes=k))
    return Alphabet("ABCD"[:k]), frames


def _states(alphabet, frames, **tracking):
    """The state after each prefix of ``frames``, with the prefix."""
    state = CombinerState(alphabet, **tracking)
    for n, frame in enumerate(frames, 1):
        state.absorb(frame)
        yield state, frames[:n]


@settings(max_examples=200, deadline=None)
@given(clips())
def test_estimates_finite_bounded_and_a_matches_oracle(clip):
    alphabet, frames = clip
    for state, seen in _states(alphabet, frames, track_history=True):
        floor = DELTA / (state.n + 1)
        for metric in MetricKind:
            base = estimate_base(state, seen, metric=metric, delta=DELTA)
            a = estimate_method_a(state, metric=metric, delta=DELTA)
            for estimate in (base.estimate, a.estimate):
                assert math.isfinite(estimate) and estimate >= floor
            want, want_per, want_aggregate = method_a_oracle(state, metric=metric, delta=DELTA)
            assert abs(a.estimate - want) <= 1e-9
            assert abs(a.gld_aggregate - want_aggregate) <= 1e-9
            assert all(abs(x - y) <= 1e-9 for x, y in zip(a.per_candidate, want_per))


def _check_b_aggregate_is_a_aggregate(clip):
    alphabet, frames = clip
    for state, _ in _states(alphabet, frames, track_history=True, track_treaps=True):
        for metric in MetricKind:
            a = estimate_method_a(state, metric=metric, delta=DELTA)
            b = estimate_method_b(state, metric=metric, delta=DELTA)
            assert math.isfinite(b.estimate) and b.estimate >= DELTA / (state.n + 1)
            assert b.gld_aggregate == a.gld_aggregate


def _check_constant_clip_collapses(clip, repeats):
    alphabet, frames = clip
    frame = frames[0]
    constant = [frame] * repeats
    tracking = {"track_history": True, "track_treaps": frame.weight == 1.0}
    for state, seen in _states(alphabet, constant, **tracking):
        expected = DELTA / (state.n + 1)
        for metric in MetricKind:
            assert estimate_base(state, seen, metric=metric, delta=DELTA).estimate == expected
            assert estimate_method_a(state, metric=metric, delta=DELTA).estimate == expected
            if state.track_treaps:
                assert estimate_method_b(state, metric=metric, delta=DELTA).estimate == expected


@settings(max_examples=100, deadline=None)
@given(clips(unit_weights=True))
def test_method_b_aggregate_is_method_a_aggregate(clip):
    _check_b_aggregate_is_a_aggregate(clip)


@settings(max_examples=100, deadline=None)
@given(clips(unit_weights=True))
def test_method_b_aggregate_is_method_a_aggregate_on_python_kernels(clip):
    with python_kernels():
        _check_b_aggregate_is_a_aggregate(clip)


@settings(max_examples=100, deadline=None)
@given(clips(), st.integers(1, 8))
def test_constant_clips_collapse_exactly(clip, repeats):
    _check_constant_clip_collapses(clip, repeats)


@settings(max_examples=100, deadline=None)
@given(clips(), st.integers(1, 8))
def test_constant_clips_collapse_exactly_on_python_kernels(clip, repeats):
    with python_kernels():
        _check_constant_clip_collapses(clip, repeats)
