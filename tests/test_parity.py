"""Exact parity of the alignment and merge with the written-out reference,
on the compiled kernels where they load and on the Python kernels."""

import random

import numpy as np
import pytest

from framestop.combiner import CombinerState, align
from framestop.core import Alphabet, RecognitionFrame, from_string, make_frame
from framestop.metrics import gld

from oracles import (
    align_reference,
    combine_reference,
    gld_reference,
    late_rows_clip,
    looped_clip,
    python_kernels,
    random_clip,
)

AB = Alphabet("AB")


def _clips():
    rng = random.Random(4242)
    clips = [random_clip(rng, i, weighted=i % 2 == 1) for i in range(60)]
    return clips + [looped_clip(60), looped_clip(60, weighted=True), late_rows_clip()]


def _tie_cases():
    """(frame, result rows) pairs where several paths reach the optimal cost."""
    def text(t):
        return from_string(t, AB).rows

    empty_row_frame = RecognitionFrame([[1.0, 0.0, 0.0]])  # a match with A ties both gaps
    return [
        (from_string("A", AB), text("AA")),
        (from_string("AB", AB), text("BA")),
        (from_string("B", AB), text("AA")),
        (from_string("AAB", AB), text("ABB")),
        (from_string("AB", AB), text("AB")),
        (from_string("A", AB), text("AB")),
        (make_frame([], num_classes=2), text("AB")),
        (from_string("AB", AB), np.zeros((0, 3))),
        (empty_row_frame, text("A")),
        (empty_row_frame, text("BA")),
    ]


def _check_alignment(frame, result_rows):
    got = align(frame, result_rows)
    old_idx, new_idx, cost = align_reference(frame.rows, result_rows)
    assert (got.result_rows, got.frame_rows) == (old_idx, new_idx)
    assert got.cost == cost
    assert got.inserted == old_idx.count(len(result_rows))
    assert got.dropped == new_idx.count(frame.num_chars)


@pytest.mark.parametrize(("frame", "result_rows"), _tie_cases())
def test_align_matches_reference_on_ties(frame, result_rows):
    _check_alignment(frame, result_rows)


def test_align_and_absorb_match_reference_on_clips():
    _check_clips()


def _check_clips():
    for clip in _clips():
        state = CombinerState(clip.alphabet, track_history=True)
        for frame in clip.frames:
            _check_alignment(frame, state.mean_rows)
            state.absorb(frame)
        rows, row_ids, contributions = combine_reference(clip.frames, clip.alphabet.size + 1)
        assert np.array_equal(state.mean_rows, rows)
        assert state.row_ids == row_ids
        assert np.array_equal(state.contributions, contributions)


def test_gld_matches_forward_reference():
    _check_gld()


def _check_gld():
    worst = 0.0
    for clip in _clips():
        state = CombinerState(clip.alphabet)
        for frame in clip.frames:
            state.absorb(frame)
            for x, y in ((state.mean_rows, frame.rows), (frame.rows, state.mean_rows)):
                worst = max(worst, abs(gld(x, y) - gld_reference(x, y)))
    assert worst <= 1e-12


def test_parity_with_python_kernels():
    """The checks above, on the Python kernels (the default is the compiled ones)."""
    with python_kernels():
        for frame, result_rows in _tie_cases():
            _check_alignment(frame, result_rows)
        _check_clips()
        _check_gld()
