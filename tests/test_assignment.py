"""The built-in minimum-sum assignment against SciPy's solver as oracle."""

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
from ptlattice import spectra
from ptlattice.spectra import _min_sum_assignment, _shortest_augmenting_path

optimize = pytest.importorskip("scipy.optimize")

floats = st.floats(min_value=0.0, max_value=10.0, allow_nan=False)
# Few distinct values, so that rows tie and row minima share columns.
coarse = st.integers(0, 3).map(float)
coarse_signed = st.integers(-2, 2).map(float)


@st.composite
def square(draw, elements, max_n=12):
    n = draw(st.integers(1, max_n))
    rows = draw(
        st.lists(
            st.lists(elements, min_size=n, max_size=n), min_size=n, max_size=n
        )
    )
    return np.array(rows, dtype=float)


@st.composite
def tied_rows(draw, max_n=12):
    """Square matrix whose rows repeat a few drawn rows."""
    n = draw(st.integers(2, max_n))
    k = draw(st.integers(1, n - 1))
    base = draw(
        st.lists(st.lists(floats, min_size=n, max_size=n), min_size=k, max_size=k)
    )
    picks = draw(st.lists(st.integers(0, k - 1), min_size=n, max_size=n))
    return np.array([base[p] for p in picks], dtype=float)


@st.composite
def conjugate_spectra(draw, max_n=12):
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


def scipy_assignment(cost):
    rows, cols = optimize.linear_sum_assignment(cost)
    assert np.array_equal(rows, np.arange(cost.shape[0]))
    return cols


def conjugate_cost(values):
    return np.abs(values[:, None] - np.conj(values)[None, :])


@settings(deadline=None, max_examples=200)
@given(st.one_of(costs, conjugate_spectra().map(conjugate_cost)))
def test_assignment_is_optimal_like_scipy(cost):
    rows = np.arange(cost.shape[0])
    ours = _min_sum_assignment(cost)
    theirs = scipy_assignment(cost)
    assert sorted(ours.tolist()) == rows.tolist()
    assert cost[rows, ours].sum() == cost[rows, theirs].sum()
    assert cost[rows, ours].max() == cost[rows, theirs].max()


@settings(deadline=None, max_examples=200)
@given(st.one_of(costs, conjugate_spectra().map(conjugate_cost)))
def test_augmenting_path_reproduces_scipy(cost):
    # The fallback follows SciPy's algorithm step for step, ties included.
    assert _shortest_augmenting_path(cost.tolist()) == scipy_assignment(cost).tolist()


def test_fallback_runs_when_row_minima_collide():
    cost = np.array([[1.0, 2.0], [0.0, 1.0]])
    assert cost.argmin(axis=1).tolist() == [0, 0]
    assert _min_sum_assignment(cost).tolist() == scipy_assignment(cost).tolist()


def scipy_distance(a, b):
    cost = np.abs(a[:, None] - b[None, :])
    return float(cost[np.arange(a.size), scipy_assignment(cost)].max())


@settings(deadline=None, max_examples=200)
@given(conjugate_spectra(), st.data())
def test_matching_distance_equals_scipy(values, data):
    conj = np.conj(values)
    assert matching_distance(values, conj) == scipy_distance(values, conj)
    size = values.size
    shift = data.draw(st.lists(coarse_signed, min_size=size, max_size=size))
    other = data.draw(st.permutations(values.tolist())) + 0.5 * np.array(shift)
    assert matching_distance(values, other) == scipy_distance(values, other)


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
def test_left_right_pairs_match_scipy_pairing(h):
    try:
        ours = left_right_pairs(h)
    except DegenerateSpectrumError:
        assume(False)
    original = spectra._min_sum_assignment
    spectra._min_sum_assignment = scipy_assignment
    try:
        theirs = left_right_pairs(h)
    finally:
        spectra._min_sum_assignment = original
    assert len(ours) == len(theirs)
    for a, b in zip(ours, theirs):
        assert a.eigenvalue == b.eigenvalue
        assert np.array_equal(a.right, b.right)
        assert np.array_equal(a.left, b.left)
