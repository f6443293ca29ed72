import math
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from framestop.core import Alphabet, from_string
from framestop.metrics import (
    _lane_sum,
    char_distance,
    gap_costs,
    gld,
    ngld,
    normalized,
    pairwise_costs,
)

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


def _lane_sum_replica(terms):
    """framestop's summation order on floats, one addition at a time:
    accumulator l of eight adds the terms k = l mod 8 of the whole groups
    of eight in order, the accumulators combine as
    ((0+1)+(2+3))+((4+5)+(6+7)), then the terms past the last whole group
    are added in order."""
    lanes = [0.0] * 8
    whole = len(terms) - len(terms) % 8
    for k in range(whole):
        lanes[k % 8] += terms[k]
    total = ((lanes[0] + lanes[1]) + (lanes[2] + lanes[3])) + (
        (lanes[4] + lanes[5]) + (lanes[6] + lanes[7])
    )
    for k in range(whole, len(terms)):
        total += terms[k]
    return total


def _lane_terms(rng, width):
    """Four rows of ``width`` non-negative terms: exponentials with zeros
    mixed in, subnormals, magnitudes spread over 600 decades, and each
    term of one of those kinds at random."""
    zeros = rng.exponential(size=width) * (rng.random(width) < 0.5)
    subnormal = rng.exponential(size=width) * 2.0**-1060
    decades = 10.0 ** rng.uniform(-300.0, 300.0, width)
    mixed = np.choose(rng.integers(3, size=width), [zeros, subnormal, decades])
    return np.array([zeros, subnormal, decades, mixed])


def test_lane_sum_is_its_stated_order_in_hex():
    rng = np.random.default_rng(808)
    for width in range(1, 301):
        terms = _lane_terms(rng, width)
        want = [_lane_sum_replica(row).hex() for row in terms.tolist()]
        assert [x.hex() for x in _lane_sum(terms).tolist()] == want
        # over the last axis of any array, as pairwise_costs sums
        assert [x.hex() for x in _lane_sum(terms.reshape(2, 2, width)).ravel().tolist()] == want
        assert _lane_sum(terms[3]).hex() == want[3]


@pytest.mark.parametrize("width", [37, 129, 300])
def test_char_distance_is_the_pairwise_costs_entry_bit_for_bit(width):
    rng = np.random.default_rng(width)
    x, y = rng.dirichlet(np.full(width, 0.2), 5), rng.dirichlet(np.ones(width), 6)
    matrix = pairwise_costs(x, y)
    got = [[char_distance(a, b).hex() for b in y] for a in x]
    assert got == [[v.hex() for v in row] for row in matrix.tolist()]


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
