import numpy as np
import pytest
from hypothesis import given, strategies as st

from framestop.core import (
    Alphabet,
    Clip,
    CombinedResult,
    RecognitionFrame,
    empty_distribution,
    from_string,
    make_frame,
    to_text,
)


def test_alphabet_basic():
    alpha = Alphabet("AB9")
    assert alpha.size == 3
    assert alpha.position("9") == 2
    assert "A" in alpha and "x" not in alpha
    assert len(alpha) == 3


def test_alphabet_rejects_duplicates_and_empty():
    with pytest.raises(ValueError):
        Alphabet("ABA")
    with pytest.raises(ValueError):
        Alphabet("")
    with pytest.raises(ValueError):
        Alphabet(["AB"])


def test_alphabet_unknown_symbol():
    with pytest.raises(ValueError):
        Alphabet("AB").position("C")


def test_empty_distribution_sizes():
    assert np.array_equal(empty_distribution(Alphabet("AB")), [1.0, 0.0, 0.0])
    assert np.array_equal(empty_distribution(Alphabet("A")), [1.0, 0.0])
    wide = empty_distribution(Alphabet("ABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789"))
    assert wide.shape == (37,) and wide[0] == 1.0 and wide[1:].sum() == 0.0


def test_make_frame_one_hot_passthrough():
    frame = make_frame([[1, 0]], 1.0)
    assert np.array_equal(frame.rows, [[0.0, 1.0, 0.0]])
    assert frame.weight == 1.0


def test_make_frame_already_normalized():
    frame = make_frame([[0.5, 0.5]])
    assert np.array_equal(frame.rows, [[0.0, 0.5, 0.5]])


@pytest.mark.filterwarnings("ignore:renormalizing")
def test_make_frame_renormalizes():
    frame = make_frame([[2, 2]])
    assert np.array_equal(frame.rows, [[0.0, 0.5, 0.5]])


def test_make_frame_rejects_zero_row():
    with pytest.raises(ValueError, match="sums to zero"):
        make_frame([[0.0, 0.0]])


def test_make_frame_rejects_negative():
    with pytest.raises(ValueError, match="non-negative"):
        make_frame([[0.5, -0.1]])


def test_make_frame_empty_needs_num_classes():
    with pytest.raises(ValueError):
        make_frame([])
    frame = make_frame([], num_classes=4)
    assert frame.rows.shape == (0, 5)


def test_make_frame_class_count_mismatch():
    with pytest.raises(ValueError, match="classes"):
        make_frame([[0.5, 0.5]], num_classes=3)


def test_make_frame_warns_on_large_deviation():
    with pytest.warns(UserWarning, match="renormalizing"):
        make_frame([[0.6, 0.6]])


def test_make_frame_silent_near_one():
    import warnings

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        make_frame([[0.5, 0.5 + 1e-9]])


def test_frame_rows_are_immutable():
    frame = make_frame([[1, 0]])
    with pytest.raises(ValueError):
        frame.rows[0, 0] = 0.5


def test_frame_rejects_negative_weight():
    with pytest.raises(ValueError):
        make_frame([[1, 0]], -1.0)


def test_from_string_examples():
    alpha = Alphabet("AB")
    assert np.array_equal(from_string("A", alpha).rows, [[0, 1, 0]])
    assert from_string("", alpha).rows.shape == (0, 3)
    assert np.array_equal(from_string("AB", alpha).rows, [[0, 1, 0], [0, 0, 1]])


def test_from_string_unknown_character():
    with pytest.raises(ValueError):
        from_string("AX", Alphabet("AB"))


@given(st.text(alphabet="ABC", max_size=12))
def test_from_string_roundtrips_through_argmax(text):
    alpha = Alphabet("ABC")
    frame = from_string(text, alpha)
    assert to_text(frame.rows, alpha) == text


def test_to_text_drop_empty():
    alpha = Alphabet("AB")
    rows = np.array([[0.8, 0.1, 0.1], [0.2, 0.7, 0.1]])
    assert to_text(rows, alpha, drop_empty=True) == "A"
    assert to_text(rows, alpha) == "AA"


@pytest.mark.filterwarnings("ignore:renormalizing")
@given(
    st.lists(
        st.lists(st.floats(min_value=0.001, max_value=100.0), min_size=3, max_size=3),
        min_size=1,
        max_size=6,
    )
)
def test_make_frame_always_yields_valid_distributions(raw):
    frame = make_frame(raw, num_classes=3)
    assert frame.rows.shape[1] == 4
    assert (frame.rows >= 0).all() and (frame.rows <= 1).all()
    assert np.allclose(frame.rows.sum(axis=1), 1.0, atol=1e-9)
    assert (frame.rows[:, 0] == 0).all()


def test_combined_result_validation():
    with pytest.raises(ValueError, match="row id"):
        CombinedResult(np.array([[0.0, 1.0, 0.0]]), [])
    with pytest.raises(ValueError, match="unique"):
        CombinedResult(np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 0.0]]), [3, 3])
    with pytest.raises(ValueError, match="sum"):
        CombinedResult(np.array([[0.0, 0.4, 0.4]]), [0])


def test_clip_validation():
    alpha = Alphabet("AB")
    frame = from_string("A", alpha)
    clip = Clip("c1", alpha, "AB", [frame])
    assert clip.truth == "AB" and len(clip.frames) == 1
    with pytest.raises(ValueError, match="not in the alphabet"):
        Clip("c2", alpha, "AX", [frame])
    with pytest.raises(ValueError, match="classes"):
        Clip("c3", alpha, "A", [make_frame([[1, 0, 0]])])


def test_recognition_frame_rejects_bad_rows():
    with pytest.raises(ValueError):
        RecognitionFrame(np.array([[0.5, 0.6, 0.2]]))
    with pytest.raises(ValueError):
        RecognitionFrame(np.array([0.0, 1.0]))


def test_make_frame_scales_scores_near_the_float_maximum():
    import warnings

    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.warns(UserWarning, match="renormalizing"):
            frame = make_frame([[1e308, 1e308], [0.25, 0.75]])
    assert frame.rows.tolist() == [[0.0, 0.5, 0.5], [0.0, 0.25, 0.75]]


def test_frame_clamps_tiny_negative_entries():
    frame = RecognitionFrame([[0.0, 1.0 + 5e-10, -5e-10]])
    assert frame.rows.tolist() == [[0.0, 1.0 + 5e-10, 0.0]]
    assert frame.padded_rows.tolist() == [[0.0, 1.0 + 5e-10, 0.0], [1.0, 0.0, 0.0]]
    with pytest.raises(ValueError, match="entries"):
        RecognitionFrame([[0.0, 1.0 + 2e-9, -2e-9]])
