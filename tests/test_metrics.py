import math
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from framestop.core import Alphabet, from_string
from framestop.metrics import char_distance, gap_costs, gld, ngld, normalized

from oracles import gld_recursive, random_distribution, random_onehot_rows

ALPHA = Alphabet("AB")


def onehot(text):
    return from_string(text, ALPHA).rows


def distributions(width=3):
    return st.lists(
        st.floats(min_value=0.0, max_value=1.0), min_size=width, max_size=width
    ).map(lambda vs: np.array(vs) / sum(vs) if sum(vs) > 0 else np.eye(width)[0])


def test_char_distance_examples():
    assert char_distance([0, 1, 0], [0, 1, 0]) == 0.0
    assert char_distance([0, 1, 0], [0, 0, 1]) == 1.0
    assert char_distance([0, 0.5, 0.5], [0, 1, 0]) == 0.5


def test_char_distance_length_mismatch():
    with pytest.raises(ValueError):
        char_distance([0, 1], [0, 1, 0])


@given(distributions(), distributions(), distributions())
@settings(max_examples=200)
def test_char_distance_metric_axioms(a, b, c):
    assert char_distance(a, a) == 0.0
    assert math.isclose(char_distance(a, b), char_distance(b, a), abs_tol=1e-12)
    assert char_distance(a, c) <= char_distance(a, b) + char_distance(b, c) + 1e-12


def test_gap_costs_matches_char_distance():
    rows = np.array([[0.0, 1.0, 0.0], [0.5, 0.25, 0.25], [1.0, 0.0, 0.0]])
    empty = np.array([1.0, 0.0, 0.0])
    expected = [char_distance(row, empty) for row in rows]
    assert np.allclose(gap_costs(rows), expected, atol=1e-15)


def test_gld_identity():
    rows = np.array([[0.0, 0.3, 0.7], [0.2, 0.5, 0.3]])
    assert gld(rows, rows) == 0.0


def test_gld_substitution_beats_double_gap():
    assert gld(onehot("A"), onehot("B")) == 1.0


def test_gld_single_deletion():
    assert gld(onehot("AB"), onehot("B")) == 1.0


def test_gld_against_empty():
    assert gld(onehot("AB"), onehot("")) == 2.0
    assert gld(onehot(""), onehot("")) == 0.0


def test_gld_class_count_mismatch():
    with pytest.raises(ValueError, match="class counts"):
        gld(np.array([[0.0, 1.0, 0.0]]), np.array([[0.0, 1.0, 0.0, 0.0]]))


def test_gld_matches_recursive_oracle():
    rng = random.Random(421)
    pool = []
    for _ in range(7):
        length = rng.randint(0, 5)
        pool.append(random_onehot_rows(rng, length, 4))
    for _ in range(7):
        length = rng.randint(0, 5)
        pool.append(np.array([random_distribution(rng, 4) for _ in range(length)]).reshape(length, 4))
    for x in pool:
        for y in pool:
            assert abs(gld(x, y) - gld_recursive(x, y)) <= 1e-12


@given(st.integers(0, 6), st.integers(0, 6), st.integers(1, 99))
@settings(max_examples=100)
def test_gld_bounded_by_total_length(nx, ny, seed):
    rng = random.Random(seed)
    x = random_onehot_rows(rng, nx, 4)
    y = random_onehot_rows(rng, ny, 4)
    assert gld(x, y) <= nx + ny + 1e-12


def test_ngld_examples():
    assert ngld(onehot("AB"), onehot("AB")) == 0.0
    assert math.isclose(ngld(onehot("A"), onehot("B")), 2.0 / 3.0, abs_tol=1e-12)
    assert ngld(onehot("A"), onehot("")) == 1.0
    assert ngld(onehot(""), onehot("")) == 0.0


@pytest.mark.parametrize("m", range(1, 11))
def test_disjoint_onehot_closed_form(m):
    x = onehot("A" * m)
    y = onehot("B" * m)
    assert math.isclose(gld(x, y), float(m), abs_tol=1e-12)
    assert math.isclose(ngld(x, y), 2.0 / 3.0, abs_tol=1e-12)


@given(st.integers(0, 5), st.integers(0, 5), st.integers(0, 5), st.integers(1, 9999))
@settings(max_examples=150)
def test_ngld_range_and_triangle_on_onehots(na, nb, nc, seed):
    rng = random.Random(seed)
    a = random_onehot_rows(rng, na, 4)
    b = random_onehot_rows(rng, nb, 4)
    c = random_onehot_rows(rng, nc, 4)
    dab, dbc, dac = ngld(a, b), ngld(b, c), ngld(a, c)
    for d in (dab, dbc, dac):
        assert 0.0 <= d <= 1.0
    assert dac <= dab + dbc + 1e-12


def test_normalized_scalar_and_elementwise():
    assert normalized(1.0, 3) == 0.5
    assert normalized(0.0, 0) == 0.0
    got = normalized(np.array([0.0, 1.0, 2.0]), np.array([0.0, 3.0, 2.0]))
    assert np.array_equal(got, [0.0, 0.5, 1.0])
    x, y = onehot("AB"), onehot("BBA")
    assert ngld(x, y) == normalized(gld(x, y), 5)
