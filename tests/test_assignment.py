"""The bottleneck assignment against a brute force over all permutations."""

import functools
import itertools
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from ptlattice import (
    DegenerateSpectrumError,
    InvalidSpecError,
    Topology,
    build_matrix,
    left_right_pairs,
    matching_distance,
)
from ptlattice.spectra import _bottleneck_assignment, normalize_vector

# The brute force visits n! permutations, so sizes stay small.
MAX_N = 7

floats = st.floats(min_value=0.0, max_value=10.0, allow_nan=False)
# Few distinct values, so that rows tie and row minima share columns.
coarse = st.integers(0, 3).map(float)
coarse_signed = st.integers(-2, 2).map(float)


@st.composite
def square(draw, elements, max_n=MAX_N):
    n = draw(st.integers(1, max_n))
    rows = draw(
        st.lists(
            st.lists(elements, min_size=n, max_size=n), min_size=n, max_size=n
        )
    )
    return np.array(rows, dtype=float)


@st.composite
def tied_rows(draw, max_n=MAX_N):
    """Square matrix whose rows repeat a few drawn rows."""
    n = draw(st.integers(2, max_n))
    k = draw(st.integers(1, n - 1))
    base = draw(
        st.lists(st.lists(floats, min_size=n, max_size=n), min_size=k, max_size=k)
    )
    picks = draw(st.lists(st.integers(0, k - 1), min_size=n, max_size=n))
    return np.array([base[p] for p in picks], dtype=float)


@st.composite
def conjugate_spectra(draw, max_n=MAX_N):
    """Spectra closed under conjugation, with repeated values likely."""
    reals = draw(st.lists(coarse_signed, max_size=max_n))
    pairs = draw(
        st.lists(
            st.tuples(coarse_signed, st.integers(1, 2).map(float)),
            max_size=(max_n - len(reals)) // 2,
        )
    )
    values = [complex(x) for x in reals]
    for re, im in pairs:
        values += [complex(re, im), complex(re, -im)]
    assume(values)
    order = draw(st.permutations(range(len(values))))
    return np.array([values[i] for i in order])


costs = st.one_of(square(floats), square(coarse), tied_rows())


@functools.lru_cache(maxsize=MAX_N)
def permutations(n):
    return np.array(list(itertools.permutations(range(n))))


def brute_bottleneck(cost):
    """Least largest entry over all assignments of a square cost matrix."""
    return float(cost[np.arange(len(cost)), permutations(len(cost))].max(axis=1).min())


def brute_distance(a, b):
    return brute_bottleneck(np.abs(a[:, None] - b[None, :]))


def conjugate_cost(values):
    return np.abs(values[:, None] - np.conj(values)[None, :])


@settings(deadline=None, max_examples=200)
@given(st.one_of(costs, conjugate_spectra().map(conjugate_cost)))
def test_assignment_is_a_bottleneck_optimum(cost):
    rows = np.arange(cost.shape[0])
    cols = _bottleneck_assignment(cost)
    assert sorted(cols.tolist()) == rows.tolist()
    assert cost[rows, cols].max() == brute_bottleneck(cost)


def test_fallback_runs_when_row_minima_collide():
    cost = np.array([[1.0, 2.0], [0.0, 1.0]])
    assert cost.argmin(axis=1).tolist() == [0, 0]
    assert _bottleneck_assignment(cost).tolist() == [0, 1]
    # A stack takes each matrix alone: row minima first, then the search.
    stack = np.stack([cost, cost[::-1], cost])
    assert _bottleneck_assignment(stack).tolist() == [[0, 1], [1, 0], [0, 1]]


@settings(deadline=None, max_examples=200)
@given(conjugate_spectra(), st.data())
def test_matching_distance_equals_brute_force_bottleneck(values, data):
    conj = np.conj(values)
    assert matching_distance(values, conj) == brute_distance(values, conj)
    size = values.size
    shift = data.draw(st.lists(coarse_signed, min_size=size, max_size=size))
    other = data.draw(st.permutations(values.tolist())) + 0.5 * np.array(shift)
    assert matching_distance(values, other) == brute_distance(values, other)


def test_matching_distance_minimises_the_largest_distance():
    # The row minima of a sit in columns 1, 0, 0 of b.  The least sum of
    # distances, sqrt(5) + sqrt(13) via (b1, b2, b0), takes the largest
    # distance sqrt(13); the matching (b1, b0, b2) keeps each within sqrt(10).
    a = np.array([1 - 2j, -1 - 2j, 1j])
    b = np.array([1j, 3 - 1j, -3 + 1j])
    assert matching_distance(a, b) == pytest.approx(math.sqrt(10), rel=1e-15)
    assert matching_distance(a, b) == brute_distance(a, b)


def test_matching_distance_rejects_non_finite():
    with pytest.raises(InvalidSpecError):
        matching_distance([1.0, np.nan], [1.0, 2.0])
    with pytest.raises(InvalidSpecError):
        matching_distance([1.0, 2.0], [np.inf, 2.0])


entries = st.integers(-4, 4).map(float)
couplings = st.integers(1, 3).map(float)


@st.composite
def lattices(draw):
    topology = draw(st.sampled_from([Topology.OPEN, Topology.RING]))
    ring = topology is Topology.RING
    n = draw(st.sampled_from([4, 6]) if ring else st.integers(2, 8))
    bonds = n if ring else n - 1
    diag = draw(st.lists(entries, min_size=n, max_size=n))
    upper = draw(st.lists(couplings, min_size=bonds, max_size=bonds))
    return build_matrix(n, diag, upper, topology)


@settings(deadline=None, max_examples=100)
@given(lattices())
def test_left_right_pairs_pair_each_row_with_its_argmin(h):
    try:
        pairs = left_right_pairs(h)
    except DegenerateSpectrumError:
        assume(False)
    wt, vl = np.linalg.eig(h.T)
    for pair in pairs:
        nearest = int(np.abs(wt - np.conj(pair.eigenvalue)).argmin())
        assert np.array_equal(pair.left, normalize_vector(vl[:, nearest]))
