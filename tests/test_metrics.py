"""Metric operators: kernel bases, closed forms, positivity, tracking."""

import math

import numpy as np
import pytest

from ptlattice import (
    BrokenPhaseError,
    InvalidSpecError,
    MetricCandidate,
    MetricProvenance,
    MetricSection,
    Model,
    expand_in_basis,
    get_family,
    intertwiner_basis,
    intertwiner_residual,
    positivity_interval,
    recoupled_metric_boundary,
    reference_metric_ec4,
    reference_metric_ec4_eigenvalues,
    reference_metric_ec4_strong,
    spectral_metric,
    tracked_positivity_boundary,
    unvec_sym,
    vec_sym,
)

EC4 = get_family(Model.EC4)
STRONG = get_family(Model.EC4_STRONG_BOND)


def test_vec_sym_is_an_isometry():
    rng = np.random.default_rng(3)
    a = rng.standard_normal((4, 4))
    m = a + a.T
    v = vec_sym(m)
    assert np.linalg.norm(v) == pytest.approx(np.linalg.norm(m))
    assert np.allclose(unvec_sym(v, 4), m)


def test_intertwiner_basis_dimension_and_residuals():
    h = EC4.matrix(0.8)
    basis = intertwiner_basis(h)
    assert basis.dim == 4
    for theta in basis.elements:
        assert np.allclose(theta, theta.T)
        assert intertwiner_residual(theta, h) < 1e-12


def test_intertwiner_basis_requires_unbroken_phase():
    with pytest.raises(BrokenPhaseError):
        intertwiner_basis(EC4.matrix(1.55))


def test_reference_metric_ec4_solves_the_relation():
    for t in np.linspace(-1.45, 1.45, 30):
        theta = reference_metric_ec4(float(t)).matrix
        assert intertwiner_residual(theta, EC4.matrix(float(t))) < 1e-12


def test_reference_metric_ec4_eigenvalue_closed_form():
    for t in (-1.3, -0.4, 0.0, 0.7, 1.2):
        theta = reference_metric_ec4(t).matrix
        assert np.allclose(
            np.linalg.eigvalsh(theta),
            reference_metric_ec4_eigenvalues(t),
            atol=1e-10,
        )


def test_reference_metric_ec4_at_zero_is_three_identity():
    assert np.allclose(reference_metric_ec4(0.0).matrix, 3 * np.eye(4))


def test_reference_metric_strong_solves_the_relation():
    for t in np.linspace(-1.05, 1.05, 30):
        theta = reference_metric_ec4_strong(float(t)).matrix
        assert intertwiner_residual(theta, STRONG.matrix(float(t))) < 1e-12


def test_reference_metric_strong_centrosymmetric():
    theta = reference_metric_ec4_strong(0.9).matrix
    j = np.fliplr(np.eye(4))
    assert np.allclose(j @ theta @ j, theta)


def test_reference_metrics_lie_in_the_kernel():
    t = 0.6
    basis = intertwiner_basis(EC4.matrix(t))
    _, residual = expand_in_basis(reference_metric_ec4(t).matrix, basis)
    assert residual < 1e-10


def test_spectral_metric_positive_and_exact():
    h = EC4.matrix(0.9)
    cand = spectral_metric(h, [1.0, 2.0, 0.5, 1.5])
    assert cand.provenance is MetricProvenance.SPECTRAL
    assert np.linalg.eigvalsh(cand.matrix).min() > 0
    assert intertwiner_residual(cand.matrix, h) < 1e-12


def test_spectral_metric_rejects_bad_weights():
    h = EC4.matrix(0.9)
    with pytest.raises(InvalidSpecError):
        spectral_metric(h, [1.0, -1.0, 1.0, 1.0])
    with pytest.raises(InvalidSpecError):
        spectral_metric(h, [1.0, 1.0])


def test_spectral_metric_requires_unbroken_phase():
    with pytest.raises(BrokenPhaseError):
        spectral_metric(EC4.matrix(1.55), [1.0, 1.0, 1.0, 1.0])


def test_positivity_interval_ec4_endpoints():
    report = positivity_interval(reference_metric_ec4(0.0), -1.6, 1.6, 1e-10)
    lo, hi = report.interval
    root32 = math.sqrt(1.5)
    assert hi == pytest.approx(root32, abs=1e-8)
    assert lo == pytest.approx(-root32, abs=1e-8)


def test_positivity_interval_strong_endpoints():
    report = positivity_interval(
        reference_metric_ec4_strong(0.0), -1.6, 1.6, 1e-8
    )
    lo, hi = report.interval
    assert hi == pytest.approx(1.0828543885250657, abs=1e-6)
    assert lo == pytest.approx(-1.0828543885250657, abs=1e-6)


def test_positivity_interval_empty_when_negative():
    candidate = MetricCandidate(
        provenance=MetricProvenance.BASIS_COMBINATION,
        family=lambda t: -np.eye(3),
    )
    report = positivity_interval(candidate, 0.0, 1.0, 1e-6, coarse_steps=11)
    assert report.interval is None
    assert (report.min_eig_samples[:, 1] < 0).all()


@pytest.mark.parametrize(
    "runs, expected",
    [
        ([(-1.0, 0.2), (0.41, 0.77), (0.9, 2.0)], (0.41, 0.77)),  # widest run wins
        ([(-1.0, 0.25), (0.75, 2.0)], (0.0, 0.25)),  # a tie goes to the first run
        ([(-1.0, 2.0)], (0.0, 1.0)),  # a run at a grid end is not bisected
    ],
)
def test_positivity_interval_picks_the_widest_sampled_run(runs, expected):
    def theta(t):
        return np.eye(2) * (1.0 if any(a < t < b for a, b in runs) else -1.0)

    candidate = MetricCandidate(provenance=MetricProvenance.BASIS_COMBINATION, family=theta)
    report = positivity_interval(candidate, 0.0, 1.0, 1e-10, coarse_steps=11)
    assert report.interval == pytest.approx(expected, abs=1e-9)


@pytest.mark.parametrize(
    "lo, hi, tol", [(0.0, math.inf, 1e-10), (math.nan, 1.0, 1e-10), (0.0, 1.0, 0.0)]
)
def test_positivity_interval_rejects_unbounded_inputs(lo, hi, tol):
    with pytest.raises(InvalidSpecError):
        positivity_interval(reference_metric_ec4(0.0), lo, hi, tol)


def test_metric_section_tracks_identity_branch():
    section = MetricSection(EC4)
    theta0 = section.value(0.0)
    # at t=0 the Hamiltonian is diagonal; the trace-n positive section is I
    assert np.allclose(theta0, np.eye(4), atol=1e-12)
    theta = section.value(0.8)
    assert np.linalg.norm(theta - theta.T) < 1e-12
    assert np.trace(theta) == pytest.approx(4.0)
    # tracked branch solves the relation at the endpoint
    assert intertwiner_residual(theta, EC4.matrix(0.8)) < 1e-10


def test_tracked_boundary_ec4_inside_unbroken_phase():
    # Projection transport follows its own kernel section, so the endpoint
    # is method-defined here (measured limit ~1.1809, step-independent); it
    # need not match the closed-form family's sqrt(3/2).  What is invariant:
    # the loss happens strictly inside the unbroken phase (0, sqrt(2)), and
    # the value is reproducible at the bracket tolerance.
    boundary = tracked_positivity_boundary(EC4, 1e-8, search_max=1.45)
    assert 1.0 < boundary < math.sqrt(2.0)
    again = tracked_positivity_boundary(EC4, 1e-8, search_max=1.45)
    assert again == pytest.approx(boundary, abs=1e-7)


def test_recoupled_boundary_closed_form():
    target = (45 - 3 * math.sqrt(97)) / 16
    assert recoupled_metric_boundary(1e-10) == pytest.approx(target, abs=1e-8)


def test_candidate_without_family_refuses_at():
    candidate = MetricCandidate(
        provenance=MetricProvenance.SPECTRAL, matrix=np.eye(3)
    )
    with pytest.raises(InvalidSpecError):
        candidate.at(0.5)
