import random
from contextlib import nullcontext

import numpy as np
import pytest

from framestop.combiner import CombinerState, align, merge_share
from framestop.core import Alphabet, empty_distribution, from_string, make_frame
from framestop.metrics import MetricKind, char_distance, gld
from framestop.stoppers import estimate_method_a, estimate_method_b

from oracles import (
    growth_clip,
    late_rows_clip,
    looped_clip,
    method_a_oracle,
    python_kernels,
    random_clip,
)

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
    assert (alignment.result_rows, alignment.frame_rows) == ((0, 1), (0, 1))
    assert alignment.cost == 0.0


def test_align_shorter_frame_drops_row():
    frame = from_string("A", ALPHA)
    state = build("AB")
    alignment = align(frame, state.current_result())
    # a match of frame row 0, then combined row 1 against the frame's empty row (M = 1)
    assert (alignment.result_rows, alignment.frame_rows) == ((0, 1), (0, 1))
    assert (alignment.inserted, alignment.dropped) == (0, 1)
    assert alignment.cost == 1.0


def test_align_empty_frame_is_all_gap_frame():
    frame = make_frame([], num_classes=2)
    state = build("AB")
    alignment = align(frame, state.current_result())
    assert (alignment.result_rows, alignment.frame_rows) == ((0, 1), (0, 0))
    assert (alignment.inserted, alignment.dropped) == (0, 2)


def test_align_empty_result_is_all_gap_combined():
    frame = from_string("AB", ALPHA)
    alignment = align(frame, np.zeros((0, 3)))
    assert (alignment.result_rows, alignment.frame_rows) == ((0, 0), (0, 1))
    assert (alignment.inserted, alignment.dropped) == (2, 0)
    assert alignment.cost == 2.0


def test_align_class_mismatch():
    with pytest.raises(ValueError, match="class counts"):
        align(make_frame([[1, 0, 0]]), build("A").current_result())
    # rows that are not a 2-D array, on either side, are refused as gld refuses them
    rows = np.array([[0.0, 1.0]])
    for wrong in (np.array([0.0, 1.0]), rows[None]):
        for frame, result in ((wrong, rows), (rows, wrong)):
            with pytest.raises(ValueError, match="expected a 2-D array"):
                align(frame, result)


def _check_coverage(alignment, s, m):
    combined = [r for r in alignment.result_rows if r != s]
    frame = [f for f in alignment.frame_rows if f != m]
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
    assert state.row_ids == (0, 1)
    assert np.array_equal(state.contributions[0, 1], empty_distribution(ALPHA))


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


def test_the_scalar_merge_share_is_the_array_path_bit_for_bit():
    rng = np.random.default_rng(1023)
    tiny = [0.0, -0.0, 5e-324, 2.0**-1070, 1e-310, 2.0**-1022]
    huge = [2.0**1023, np.nextafter(2.0**1023, 0.0), 1.5 * 2.0**1023, 1e308, np.finfo(float).max]
    plain = [1.0, 0.5, 3.0, 1e-300, 1e300]
    values = [*tiny, *huge, *plain, *rng.uniform(0.0, 4.0, 20), *(10.0 ** rng.uniform(-320, 308, 40))]
    for weight in values:
        for total in values:
            got = merge_share(weight, total)
            want = merge_share(np.array([weight]), total)
            assert isinstance(got, float)
            assert got.hex() == float(want[0]).hex(), (weight, total)


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


def _kept_bits(state):
    """Bytes of the rows, row ids, store and kept scan of ``state``."""
    out = [state.mean_rows.tobytes(), repr(state.row_ids).encode(), state.contributions.tobytes()]
    d, g, g_sum, d_sum = state._scan
    return out + [d.tobytes(), g.tobytes(), g_sum.hex().encode(), d_sum.hex().encode()]


def test_a_treaps_state_absorbs_weighted_frames_as_a_history_state():
    # track_treaps is another name for track_history's store
    rng = random.Random(404)
    clips = [random_clip(rng, i, weighted=True) for i in range(12)] + [looped_clip(45, weighted=True)]
    for route in (nullcontext, python_kernels):
        with route():
            for clip in clips:
                treaps = CombinerState(clip.alphabet, track_treaps=True)
                history = CombinerState(clip.alphabet, track_history=True)
                assert (treaps.track_history, treaps.track_treaps) == (False, True)
                assert (history.track_history, history.track_treaps) == (True, False)
                for frame in clip.frames:
                    treaps.absorb(frame)
                    history.absorb(frame)
                    assert _kept_bits(treaps) == _kept_bits(history)


def test_weighted_absorb_mixes_by_weight():
    state = CombinerState(ALPHA)
    state.absorb(make_frame([[1, 0]], 3.0))
    state.absorb(make_frame([[0, 1]], 1.0))
    assert np.allclose(state.mean_rows, [[0.0, 0.75, 0.25]], atol=1e-15)


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
    # every reader of the store refuses a state without one by the one
    # ValueError, which names both keywords
    state = build("A")
    readers = [
        lambda: state.contributions, state.spread, state.candidate_gld,
        lambda: state.cell(0, 0), lambda: estimate_method_a(state),
        lambda: estimate_method_b(state),
    ]
    for read in readers:
        with pytest.raises(ValueError, match="track_history.*track_treaps"):
            read()
    for keyword in ("track_history", "track_treaps"):
        assert build("A", **{keyword: True}).contributions.shape == (1, 1, 3)


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
    for row_id in (-1, 1):
        with pytest.raises(KeyError, match="unknown row id"):
            state.cell(row_id, 0)
    # either keyword, any weights: each frame counts once in a cell
    for keyword in ("track_history", "track_treaps"):
        state = CombinerState(ALPHA, **{keyword: True})
        state.absorb(make_frame([[1, 0]], 3.0))
        state.absorb(make_frame([[0, 1]], 0.5))
        assert state.cell(0, 1).totals() == (2, 1.0)
        assert estimate_method_b(state).gld_aggregate == estimate_method_a(state).gld_aggregate


def _history_weighted_sums(state):
    width = state.alphabet.size + 1
    contributions = state.contributions
    sums = {rid: np.zeros(width) for rid in state.row_ids}
    for i in range(state.n):
        w = state.weights[i]
        for pos, rid in enumerate(state.row_ids):
            sums[rid] += w * contributions[i, pos]
    return sums


def _check_against_oracle(state):
    """Method a equals the oracle."""
    for metric in MetricKind:
        got = estimate_method_a(state, metric=metric, delta=0.1)
        want_estimate, want_per, want_aggregate = method_a_oracle(state, metric=metric, delta=0.1)
        assert abs(got.estimate - want_estimate) <= 1e-9
        assert np.allclose(got.per_candidate, want_per, atol=1e-9)
        assert abs(got.gld_aggregate - want_aggregate) <= 1e-9


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
