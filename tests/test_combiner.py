import random

import numpy as np
import pytest

from framestop.combiner import (
    GAP_COMBINED,
    GAP_FRAME,
    MATCH,
    CombinerState,
    align,
    merge_share,
)
from framestop.core import Alphabet, empty_distribution, from_string, make_frame
from framestop.metrics import MetricKind, char_distance, gld
from framestop.stoppers import estimate_method_a

from oracles import growth_clip, late_rows_clip, looped_clip, method_a_oracle, random_clip

ALPHA = Alphabet("AB")


def build(*texts, **kwargs):
    state = CombinerState(ALPHA, **kwargs)
    for text in texts:
        state.absorb(from_string(text, ALPHA))
    return state


def test_align_identical_is_all_match():
    frame = from_string("AB", ALPHA)
    state = build("AB")
    alignment = align(frame, state.current_result())
    assert [s.kind for s in alignment.steps] == [MATCH, MATCH]
    assert alignment.cost == 0.0


def test_align_shorter_frame_drops_row():
    frame = from_string("A", ALPHA)
    state = build("AB")
    alignment = align(frame, state.current_result())
    assert [s.kind for s in alignment.steps] == [MATCH, GAP_FRAME]
    assert alignment.steps[0].frame_row == 0
    assert alignment.steps[1].combined_row == 1
    assert alignment.cost == 1.0


def test_align_empty_frame_is_all_gap_frame():
    frame = make_frame([], num_classes=2)
    state = build("AB")
    alignment = align(frame, state.current_result())
    assert [s.kind for s in alignment.steps] == [GAP_FRAME, GAP_FRAME]


def test_align_empty_result_is_all_gap_combined():
    frame = from_string("AB", ALPHA)
    alignment = align(frame, np.zeros((0, 3)))
    assert [s.kind for s in alignment.steps] == [GAP_COMBINED, GAP_COMBINED]
    assert alignment.cost == 2.0


def test_align_class_mismatch():
    with pytest.raises(ValueError, match="class counts"):
        align(make_frame([[1, 0, 0]]), build("A").current_result())


def _check_coverage(alignment, s, m):
    combined = [st.combined_row for st in alignment.steps if st.combined_row is not None]
    frame = [st.frame_row for st in alignment.steps if st.frame_row is not None]
    assert combined == list(range(s))
    assert frame == list(range(m))


def test_align_covers_rows_in_order_and_matches_gld_cost():
    rng = random.Random(2024)
    for i in range(40):
        clip = random_clip(rng, i, max_frames=3)
        state = CombinerState(clip.alphabet)
        for fr in clip.frames:
            state.absorb(fr)
        probe = clip.frames[rng.randrange(len(clip.frames))]
        alignment = align(probe, state.mean_rows)
        _check_coverage(alignment, state.mean_rows.shape[0], probe.num_chars)
        assert abs(alignment.cost - gld(probe.rows, state.mean_rows)) <= 1e-9


def test_absorb_identical_frames_is_idempotent():
    frame = from_string("AB", ALPHA)
    state = CombinerState(ALPHA)
    state.absorb(frame)
    first = state.mean_rows.copy()
    for _ in range(9):
        state.absorb(frame)
        assert np.array_equal(state.mean_rows, first)
    assert state.n == 10


def test_absorb_merges_single_rows():
    state = build("A", "B")
    assert np.array_equal(state.mean_rows, [[0.0, 0.5, 0.5]])


def test_absorb_pads_shorter_frame_with_empty():
    state = build("AB", "A")
    assert np.allclose(state.mean_rows, [[0.0, 1.0, 0.0], [0.5, 0.0, 0.5]], atol=1e-15)


def test_absorb_growing_frame_inserts_row():
    state = build("A", "AB", track_history=True)
    assert state.mean_rows.shape == (2, 3)
    assert np.allclose(state.mean_rows, [[0.0, 1.0, 0.0], [0.5, 0.0, 0.5]], atol=1e-15)
    # the first frame implicitly contributed empty to the row created later
    new_rid = state.row_ids[1]
    assert np.array_equal(state.contribution(0, new_rid), empty_distribution(ALPHA))


def test_row_ids_stay_stable_under_insertion():
    state = build("B", "AB")
    # new row for 'A' is inserted in front; the old row keeps its id
    assert state.row_ids[1] == 0
    assert state.row_ids[0] == 1


def test_absorb_class_mismatch():
    state = CombinerState(ALPHA)
    with pytest.raises(ValueError, match="classes"):
        state.absorb(make_frame([[1, 0, 0]]))


def test_absorb_rejects_overflowing_weight_total():
    state = CombinerState(ALPHA, track_history=True)
    state.absorb(make_frame([[1, 0]], 1e308))
    with pytest.raises(ValueError, match="overflow"):
        state.absorb(make_frame([[0, 1]], 1e308))
    assert state.n == 1
    assert state.weight_total == 1e308
    assert np.array_equal(state.mean_rows, [[0.0, 1.0, 0.0]])


def test_subnormal_weights_merge_by_their_share():
    tiny = 5e-324  # the smallest subnormal; halving it rounds to 0
    assert merge_share(tiny, 0.0) == 1.0
    assert merge_share(tiny, tiny) == 0.5
    assert np.array_equal(merge_share(np.array([tiny, 3 * tiny]), 2 * tiny), [1 / 3, 0.6])
    state = CombinerState(ALPHA, track_history=True)
    state.absorb(make_frame([[1, 0]], tiny))
    assert np.array_equal(state.mean_rows, [[0.0, 1.0, 0.0]])
    state.absorb(make_frame([[0, 1]], tiny))
    assert np.array_equal(state.mean_rows, [[0.0, 0.5, 0.5]])


def test_absorb_weighted_frame_in_treap_mode_rejected():
    state = CombinerState(ALPHA, track_treaps=True)
    with pytest.raises(ValueError, match="unit frame weights"):
        state.absorb(make_frame([[1, 0]], 2.0))


def test_weighted_absorb_mixes_by_weight():
    state = CombinerState(ALPHA)
    state.absorb(make_frame([[1, 0]], 3.0))
    state.absorb(make_frame([[0, 1]], 1.0))
    assert np.allclose(state.mean_rows, [[0.0, 0.75, 0.25]], atol=1e-15)
    assert not state.unweighted


def test_combine_candidate_reproduces_sole_frame():
    frame = from_string("AB", ALPHA)
    state = CombinerState(ALPHA)
    state.absorb(frame)
    candidate = state.combine_candidate(frame)
    assert np.array_equal(candidate.rows, state.mean_rows)


def test_combine_candidate_weighted_average():
    state = build("A", "B")
    result = state.combine_candidate(from_string("A", ALPHA))
    assert np.allclose(result.rows, [[0.0, 2 / 3, 1 / 3]], atol=1e-15)


def test_combine_candidate_empty_frame_averages_toward_empty():
    state = build("AB")
    result = state.combine_candidate(make_frame([], num_classes=2))
    assert np.allclose(result.rows, [[0.5, 0.5, 0.0], [0.5, 0.0, 0.5]], atol=1e-15)


def test_combine_candidate_leaves_state_untouched():
    state = build("AB", "A")
    before_rows = state.mean_rows
    before_ids = state.row_ids
    state.combine_candidate(from_string("BBB", ALPHA))
    assert state.n == 2
    assert np.array_equal(state.mean_rows, before_rows)
    assert state.row_ids == before_ids


def test_current_result_snapshot():
    state = build("A")
    snap = state.current_result()
    state.absorb(from_string("B", ALPHA))
    assert np.array_equal(snap.rows, [[0.0, 1.0, 0.0]])
    with pytest.raises(ValueError):
        CombinerState(ALPHA).current_result()


def test_current_result_examples():
    assert np.array_equal(build("A").current_result().rows, [[0.0, 1.0, 0.0]])
    assert np.array_equal(build("A", "B").current_result().rows, [[0.0, 0.5, 0.5]])


def test_contribution_requires_history():
    state = build("A")
    with pytest.raises(ValueError, match="history"):
        state.contribution(0, 0)


def test_contribution_bounds():
    state = build("A", track_history=True)
    with pytest.raises(IndexError):
        state.contribution(1, 0)
    with pytest.raises(KeyError):
        state.contribution(0, 99)


@pytest.mark.parametrize("frame_index, row_id", [(0, True), (True, 1), (False, 0), (0, 1.0), (0.0, 1)])
def test_contribution_refuses_bool_and_float_indices(frame_index, row_id):
    # numpy would read a bool as a mask and gather a (1, frames, K+1) block
    state = build("AB", "AB", track_history=True)
    with pytest.raises(TypeError):
        state.contribution(frame_index, row_id)


def test_contribution_takes_numpy_integers():
    state = build("AB", "AB", track_history=True)
    got = state.contribution(np.int64(1), np.int32(1))
    assert got.shape == (3,) and np.array_equal(got, state.contribution(1, 1))


@pytest.mark.parametrize("row_id, class_index", [(True, 0), (0, True), (1.0, 0), (0, 1.0)])
def test_cell_refuses_bool_and_float_indices(row_id, class_index):
    state = build("AB", "AB", track_treaps=True)
    with pytest.raises(TypeError):
        state.cell(row_id, class_index)


def test_cell_requires_treaps():
    state = build("A")
    with pytest.raises(ValueError, match="treap"):
        state.cell(0, 0)
    state = build("A", track_treaps=True)
    for class_index in (-1, ALPHA.size + 1):
        with pytest.raises(IndexError, match="class index"):
            state.cell(0, class_index)


def _history_weighted_sums(state):
    width = state.alphabet.size + 1
    sums = {rid: np.zeros(width) for rid in state.row_ids}
    for i in range(state.n):
        w = state.weights[i]
        for rid in state.row_ids:
            sums[rid] += w * state.contribution(i, rid)
    return sums


def _check_against_oracle(state):
    """Method a equals the oracle, and the gathered history equals contribution()."""
    for metric in MetricKind:
        got = estimate_method_a(state, metric=metric, delta=0.1)
        want_estimate, want_per, want_aggregate = method_a_oracle(state, metric=metric, delta=0.1)
        assert abs(got.estimate - want_estimate) <= 1e-9
        assert np.allclose(got.per_candidate, want_per, atol=1e-9)
        assert abs(got.gld_aggregate - want_aggregate) <= 1e-9
    gathered = np.array(
        [[state.contribution(i, rid) for rid in state.row_ids] for i in range(state.n)]
    )
    assert np.array_equal(state.contributions, gathered.reshape(state.contributions.shape))


@pytest.mark.parametrize("weighted", [False, True])
def test_mean_consistency_invariant(weighted):
    rng = random.Random(31 + weighted)
    clips = [random_clip(rng, i, weighted=weighted) for i in range(25)]
    clips += [looped_clip(weighted=weighted), late_rows_clip(), growth_clip()]
    for clip in clips:
        state = CombinerState(clip.alphabet, track_history=True)
        for frame in clip.frames:
            state.absorb(frame)
            sums = _history_weighted_sums(state)
            for pos, rid in enumerate(state.row_ids):
                assert np.allclose(
                    state.mean_rows[pos] * state.weight_total, sums[rid], atol=1e-9
                )
        _check_against_oracle(state)


def test_treap_mirror_invariant():
    rng = random.Random(77)
    for i in range(15):
        clip = random_clip(rng, i)
        state = CombinerState(clip.alphabet, track_history=True, track_treaps=True)
        for frame in clip.frames:
            state.absorb(frame)
            sums = _history_weighted_sums(state)
            for rid in state.row_ids:
                for k in range(clip.alphabet.size + 1):
                    count, total = state.cell(rid, k).totals()
                    assert count == state.n
                    assert abs(total - sums[rid][k]) <= 1e-9


def test_length_bound():
    rng = random.Random(5)
    for i in range(20):
        clip = random_clip(rng, i)
        state = CombinerState(clip.alphabet)
        total_rows = 0
        for frame in clip.frames:
            total_rows += frame.num_chars
            state.absorb(frame)
            assert state.mean_rows.shape[0] <= total_rows
