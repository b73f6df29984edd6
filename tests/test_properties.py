"""Property-based invariants over randomized lattices and parameters."""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from ptlattice import (
    Model,
    Topology,
    build_matrix,
    count_real,
    eigenvalues,
    eigenvalues_charpoly_oracle,
    evaluate,
    get_family,
    intertwiner_residual,
    is_pt_symmetric,
    matching_distance,
    min_pairwise_gap,
    parity,
    parse_expression,
    pt_phase,
    spectral_metric,
    sweep_eigenvalues,
)
from ptlattice.models import FloatField

finite = st.floats(
    min_value=-10.0, max_value=10.0, allow_nan=False, allow_infinity=False
)
nonzero = finite.filter(lambda x: abs(x) > 1e-3)


def open_specs(min_n=2, max_n=6):
    return st.integers(min_n, max_n).flatmap(
        lambda n: st.tuples(
            st.lists(finite, min_size=n, max_size=n),
            st.lists(nonzero, min_size=n - 1, max_size=n - 1),
        ).map(lambda parts: (n, tuple(parts[0]), tuple(parts[1]), Topology.OPEN))
    )


def ring_specs():
    return st.sampled_from([4, 6]).flatmap(
        lambda n: st.tuples(
            st.lists(finite, min_size=n, max_size=n),
            st.lists(nonzero, min_size=n, max_size=n),
        ).map(lambda parts: (n, tuple(parts[0]), tuple(parts[1]), Topology.RING))
    )


@settings(deadline=None, max_examples=50)
@given(open_specs())
def test_every_open_chain_is_pt_symmetric(spec):
    assert is_pt_symmetric(build_matrix(*spec))


@settings(deadline=None, max_examples=50)
@given(ring_specs())
def test_every_ring_is_pt_symmetric(spec):
    assert is_pt_symmetric(build_matrix(*spec))


@settings(deadline=None, max_examples=30)
@given(st.integers(1, 12))
def test_parity_is_an_involution(n):
    p = parity(n)
    assert np.array_equal(p @ p, np.eye(n))


@settings(deadline=None, max_examples=50)
@given(ring_specs())
def test_ring_with_cut_corner_equals_open_chain(spec):
    n, diag, upper, _ = spec
    ring = build_matrix(*spec)
    ring[0, -1] = ring[-1, 0] = 0.0
    assert np.array_equal(ring, build_matrix(n, diag, upper[:-1], Topology.OPEN))


@settings(deadline=None, max_examples=50)
@given(open_specs())
def test_spectrum_is_conjugate_closed_with_real_trace(spec):
    h = build_matrix(*spec)
    values = eigenvalues(h).values
    paired = matching_distance(values, np.conj(values))
    scale = max(1.0, float(np.abs(values).max()))
    assert paired < 1e-10 * scale
    assert abs(values.sum().imag) < 1e-10 * scale
    assert abs(values.sum().real - np.trace(h)) < 1e-9 * scale


@settings(deadline=None, max_examples=25)
@given(open_specs(max_n=5))
def test_oracle_agrees_with_eigensolver(spec):
    h = build_matrix(*spec)
    solver = eigenvalues(h).values
    oracle = eigenvalues_charpoly_oracle(h).values
    scale = max(1.0, float(np.abs(solver).max()))
    assert matching_distance(solver, oracle) < 1e-8 * scale


@settings(deadline=None, max_examples=30)
@given(open_specs(max_n=5))
def test_phase_verdict_matches_eigenvector_defects(spec):
    h = build_matrix(*spec)
    values = eigenvalues(h).values
    scale = max(1.0, float(np.abs(values).max()))
    assume(min_pairwise_gap(values) > 1e-4 * scale)
    phase = pt_phase(h)
    n = spec[0]
    assert phase.unbroken == (count_real(values) == n)


@settings(deadline=None, max_examples=20)
@given(
    st.floats(min_value=0.2, max_value=1.4),
    st.lists(
        st.floats(min_value=0.1, max_value=5.0), min_size=4, max_size=4
    ),
)
def test_spectral_metric_is_positive_for_any_weights(t, weights):
    h = get_family(Model.EC4).matrix(t)
    candidate = spectral_metric(h, weights)
    assert np.linalg.eigvalsh(candidate.matrix).min() > 0
    assert intertwiner_residual(candidate.matrix, h) < 1e-12


@settings(deadline=None, max_examples=40)
@given(
    st.floats(min_value=-3.0, max_value=3.0),
    st.floats(min_value=-3.0, max_value=3.0),
    st.floats(min_value=0.1, max_value=3.0),
)
def test_expression_evaluation_matches_python(a, b, t):
    text = f"{a!r} * t + {b!r} / (1 + t*t) - sqrt({t!r})"
    ast = parse_expression(text)
    expected = a * t + b / (1 + t * t) - math.sqrt(t)
    assert evaluate(ast, t, FloatField) == pytest.approx(
        expected, rel=1e-12, abs=1e-12
    )


@settings(deadline=None, max_examples=10)
@given(st.floats(min_value=-1.4, max_value=1.4))
def test_sweep_single_point_matches_eigenvalues(t):
    family = get_family(Model.EC4)
    row = sweep_eigenvalues(family, [t])[0]
    direct = eigenvalues(family.matrix(t)).values
    assert matching_distance(row, direct) < 1e-9
