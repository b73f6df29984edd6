"""Metric operators: kernel bases, closed forms, positivity, tracking."""

import copy
import math
import warnings

import numpy as np
import pytest

from ptlattice import (
    BracketError,
    BrokenPhaseError,
    DegenerateSpectrumError,
    InvalidSpecError,
    MetricCandidate,
    MetricProvenance,
    MetricSection,
    Model,
    ModelDomainError,
    ModelFamily,
    Topology,
    get_family,
    intertwiner_bases,
    intertwiner_basis,
    intertwiner_residual,
    iter_families,
    positivity_interval,
    reference_metric_ec4,
    reference_metric_ec4_eigenvalues,
    reference_metric_ec4_strong,
    spectral_metric,
    tracked_positivity_boundary,
    unvec_sym,
    vec_sym,
)
from ptlattice.domains import bisect_edge
from ptlattice.errors import NumericalError, TrackingError
from ptlattice.metrics import _SECTION_STEP, _min_eig

EC4 = get_family(Model.EC4)
STRONG = get_family(Model.EC4_STRONG_BOND)


def test_vec_sym_is_an_isometry():
    rng = np.random.default_rng(3)
    a = rng.standard_normal((4, 4))
    m = a + a.T
    v = vec_sym(m)
    assert np.linalg.norm(v) == pytest.approx(np.linalg.norm(m))
    assert np.allclose(unvec_sym(v, 4), m)


def test_vec_sym_and_unvec_sym_on_a_stack_match_the_single_calls():
    rng = np.random.default_rng(5)
    a = rng.standard_normal((2, 3, 5, 5))
    stack = a + np.swapaxes(a, -1, -2)
    vectors = vec_sym(stack)
    assert vectors.shape == (2, 3, 15)
    back = unvec_sym(vectors, 5)
    for k in np.ndindex(2, 3):
        assert np.array_equal(vectors[k], vec_sym(stack[k]))
        assert np.array_equal(back[k], unvec_sym(vectors[k], 5))


def _loop_basis(h):
    """The kernel built entry by entry: one unit B_k and one SVD column at a time."""
    n = h.shape[0]
    r2 = math.sqrt(2.0)
    columns = []
    for i in range(n):
        for j in range(i, n):
            b = np.zeros((n, n))
            if i == j:
                b[i, i] = 1.0
            else:
                b[i, j] = b[j, i] = 1.0 / r2
            d = h.T @ b - b @ h
            columns.append([r2 * d[p, q] for p in range(n) for q in range(p + 1, n)])
    _, s, vt = np.linalg.svd(np.column_stack(columns), full_matrices=True)
    rank = int((s > 1e-9 * max(1.0, float(s.max()))).sum())
    elements = []
    for row in vt[rank:]:
        theta = np.zeros((n, n))
        k = 0
        for i in range(n):
            theta[i, i] = row[k]
            k += 1
            for j in range(i + 1, n):
                theta[i, j] = theta[j, i] = row[k] / r2
                k += 1
        elements.append(theta)
    return elements


_UNBROKEN_POINTS = {
    "mdg6-open": (0.05, 0.3, 0.9),
    "mdg6-w1": (0.2, 0.5, 0.9),
    "mdg6-w2": (0.5, 0.6, 0.9),
    "ec4": (-0.6, 0.1, 0.9, 1.35),
    "ec4-strongbond": (-0.6, 0.1, 0.9),
    "ec4-recoupled": (-0.6, 0.1, 0.9),
}


def _kernel_projector(elements):
    """sum_k vec_sym(theta_k) vec_sym(theta_k)^T: the kernel, free of the basis gauge."""
    vectors = vec_sym(np.asarray(elements))
    return vectors.T @ vectors


@pytest.mark.parametrize("family", list(iter_families()), ids=lambda f: f.name)
def test_intertwiner_basis_equals_the_entrywise_construction(family):
    # A kernel basis is unique only up to an orthogonal change of basis, so
    # the two constructions are compared through their kernel projectors.
    for t in _UNBROKEN_POINTS[family.name]:
        h = family.matrix(t)
        basis = intertwiner_basis(h)
        reference = _loop_basis(h)
        assert basis.dim == len(reference) == family.n
        projector = _kernel_projector(basis.elements)
        assert np.abs(projector - _kernel_projector(reference)).max() < 1e-12
        vectors = vec_sym(basis.elements)
        assert np.abs(vectors @ vectors.T - np.eye(family.n)).max() < 1e-12
        for theta in basis.elements:
            assert np.array_equal(theta, theta.T)
            assert intertwiner_residual(theta, h) < 1e-12


def test_intertwiner_residual_survives_a_huge_matrix():
    # ||H^T Theta - Theta H|| of a 1e200-scaled matrix overflows as one dot
    # product; the relative residual does not depend on the scale.
    h = EC4.matrix(0.8)
    theta = np.eye(4) + 0.1
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        huge = intertwiner_residual(theta, 1e200 * h)
    assert huge == pytest.approx(intertwiner_residual(theta, h), rel=1e-14)


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
    # Least-squares fit of the reference metric in the isometric vec_sym coordinates.
    target = vec_sym(reference_metric_ec4(t).matrix)
    columns = vec_sym(np.stack(basis.elements)).T
    coeffs, *_ = np.linalg.lstsq(columns, target, rcond=None)
    residual = np.linalg.norm(columns @ coeffs - target) / np.linalg.norm(target)
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


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_spectral_metric_rejects_non_finite_weights(bad):
    with pytest.raises(InvalidSpecError):
        spectral_metric(EC4.matrix(0.9), [1.0, bad, 1.0, 1.0])


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


@pytest.mark.parametrize(
    "reference, lo, hi, expected",
    [
        (reference_metric_ec4, 0.0, 1.4, (0.0, 1.2247448713719848)),
        (reference_metric_ec4, -1.6, 1.6, (-1.2247448713779447, 1.2247448713779447)),
        (reference_metric_ec4_strong, 0.0, 1.6, (0.0, 1.082854388570786)),
        (reference_metric_ec4_strong, -1.6, 1.6, (-1.082854388570786, 1.0828543885707855)),
    ],
)
def test_closed_form_positivity_intervals_are_pinned(reference, lo, hi, expected):
    report = positivity_interval(reference(0.0), lo, hi, 1e-10)
    assert report.interval == expected


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
    "reference, lo, first",
    [(reference_metric_ec4, 0.0, 1e197), (reference_metric_ec4_strong, -1e200, -1e200)],
)
def test_positivity_interval_names_the_first_point_whose_metric_overflows(
    reference, lo, first
):
    with pytest.raises(ModelDomainError) as info:
        positivity_interval(reference(0.0), lo, 1e200, 1e-10)
    assert info.value.t == first
    assert str(info.value).endswith(f"not finite in double precision at t={first}")


def test_positivity_interval_of_a_huge_finite_metric_overflows_nothing():
    # 3 + t^2 reaches 1.44e308 at the ends, where a sum m + m^T would overflow.
    report = positivity_interval(
        reference_metric_ec4(0.0), -1.2e154, -1.1e154, 1e-10, coarse_steps=5
    )
    assert report.interval is None
    assert np.isfinite(report.min_eig_samples).all()


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


# A t-independent ring: its tracked metric stays positive for every t.
_FLAT_RING = ModelFamily(
    name="flat-ring", n=4, topology=Topology.RING,
    diag_fn=lambda t, f: [-3, -1, 1, 3], upper_fn=lambda t, f: [0.1] * 4,
)


def test_tracked_boundary_reports_a_section_that_stays_positive():
    with pytest.raises(BracketError, match=r"stayed positive on \[0.0, 0.5\]"):
        tracked_positivity_boundary(_FLAT_RING, 1e-8, search_max=0.5)


def test_tracked_boundary_rejects_an_unbounded_search():
    with pytest.raises(InvalidSpecError):
        tracked_positivity_boundary(_FLAT_RING, 1e-8, search_max=math.inf)


def test_tracked_boundary_error_names_no_cli_option():
    with pytest.raises(InvalidSpecError) as info:
        tracked_positivity_boundary(_FLAT_RING, 1e-8, search_max=math.inf)
    assert str(info.value) == "t-range must be finite, got [0.0, inf]"


@pytest.mark.parametrize("tol", [math.nan, 0.0, -1e-8, math.inf])
def test_tracked_boundary_rejects_a_bad_tol(tol):
    with pytest.raises(InvalidSpecError):
        tracked_positivity_boundary(get_family(Model.EC4_RECOUPLED), tol)


def test_recoupled_boundary_closed_form():
    target = (45 - 3 * math.sqrt(97)) / 16
    boundary = tracked_positivity_boundary(get_family(Model.EC4_RECOUPLED), 1e-10)
    assert boundary == pytest.approx(target, abs=1e-8)


def test_candidate_without_family_refuses_at():
    candidate = MetricCandidate(
        provenance=MetricProvenance.SPECTRAL, matrix=np.eye(3)
    )
    with pytest.raises(InvalidSpecError):
        candidate.at(0.5)


# Unbroken, broken-phase and near-EP points; next to the EPs of mdg6-w1 and
# ec4-recoupled the gap gate fails, and mdg6-open flips between broken and
# unbroken near its order-6 point.
_MIXED_POINTS = {
    "mdg6-w1": (0.2, 0.5, -0.3, 0.1, 0.163160360358999, 0.16316036035900178,
                0.16316036035902676, 0.16316036035927656, 0.9),
    "ec4-recoupled": (0.1, 0.9, 0.97, 1.2, 0.9658391621632303, 0.9658391621632192,
                      0.9658391621631193, -0.6),
    "mdg6-open": (0.05, 0.9, -0.05, 0.0, 5e-6, 9.549779215678899e-06,
                  1.9413150973727513e-05, 1e-4),
}


@pytest.mark.parametrize("name", sorted(_MIXED_POINTS))
def test_intertwiner_bases_rows_equal_the_one_row_calls(name):
    family = get_family(name)
    ts = _MIXED_POINTS[name]
    rows = intertwiner_bases(family.matrices(ts))
    assert len(rows) == len(ts)
    for t, row in zip(ts, rows):
        h = family.matrix(t)
        if isinstance(row, Exception):
            assert row.__traceback__ is None
            with pytest.raises(Exception) as info:
                intertwiner_basis(h)
            assert type(info.value) is type(row)
            assert str(info.value) == str(row)
        else:
            basis = intertwiner_basis(h)
            assert row.dim == basis.dim == family.n
            for theta, expected in zip(row.elements, basis.elements, strict=True):
                assert np.array_equal(theta, expected)
    kinds = {type(row) for row in rows}
    assert {BrokenPhaseError} < kinds
    assert (DegenerateSpectrumError in kinds) == (name != "mdg6-open")


def test_intertwiner_bases_reports_a_non_finite_row_and_rejects_a_bad_shape():
    stack = np.stack([EC4.matrix(0.5), EC4.matrix(0.6)])
    stack[0, 1, 2] = math.nan
    bad, good = intertwiner_bases(stack)
    assert isinstance(bad, InvalidSpecError)
    assert str(bad) == "matrix entries must be finite"
    assert np.array_equal(np.stack(good.elements), np.stack(intertwiner_basis(stack[1]).elements))
    with pytest.raises(InvalidSpecError):
        intertwiner_bases(EC4.matrix(0.5))


def _singular_value_dims(r, n):
    """The kernel dimension n + p - #(s > 1e-9 max(1, s_max)) of each R."""
    s = np.linalg.svd(r, compute_uv=False)
    return [n + r.shape[-1] - int((row > 1e-9 * max(1.0, row.max())).sum()) for row in s]


def _triangular_with_singular_values(s, seed):
    """An upper-triangular R with the singular values s: the R of U diag(s) V^T."""
    rng = np.random.default_rng(seed)
    u, _ = np.linalg.qr(rng.standard_normal((s.size, s.size)))
    v, _ = np.linalg.qr(rng.standard_normal((s.size, s.size)))
    return np.linalg.qr((u * s) @ v.T, mode="r")


def test_certified_rank_rule_gives_the_singular_value_dims():
    from ptlattice.intertwiner import _kernel_dims

    n, p = 4, 6
    threshold = 1e-9 * 10.0  # s_max = 10
    cases = [
        np.array([10.0, 5.0, 3.0, 2.0, 1.0, 0.5]),  # settled by the bound
        np.array([10.0, 5.0, 3.0, 2.0, 1.0, 1.001 * threshold]),  # just above
        np.array([10.0, 5.0, 3.0, 2.0, 1.0, 0.999 * threshold]),  # just below
        np.array([10.0, 5.0, 3.0, 2.0, 0.999 * threshold, 0.5 * threshold]),
    ]
    r = np.stack([_triangular_with_singular_values(s, k) for k, s in enumerate(cases)])
    triangular = np.triu(np.random.default_rng(9).standard_normal((2, p, p)))
    triangular[0, 2, 2] = 0.0  # exactly rank-deficient
    triangular[1, 2, 2] = 1e-300  # R^-1 overflows
    r = np.concatenate([r, triangular])
    expected = _singular_value_dims(r, n)
    assert expected == [4, 4, 5, 6, 5, 5]
    assert _kernel_dims(r, n) == expected
    # A stack without the exactly singular R takes the bound; alone, each R agrees too.
    assert _kernel_dims(r[:4], n) == expected[:4]
    for k in range(len(r)):
        assert _kernel_dims(r[k:k + 1], n) == expected[k:k + 1]


def test_one_and_two_site_matrices_have_their_kernels_without_warnings():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        one = intertwiner_bases(np.array([[[1.5]], [[-2.0]]]))
        two = intertwiner_bases(np.array([[[1.0, 0.5], [0.3, -1.0]]]))
    for basis, n in [(one[0], 1), (one[1], 1), (two[0], 2)]:
        assert basis.dim == n
        vectors = vec_sym(basis.elements)
        assert np.abs(vectors @ vectors.T - np.eye(n)).max() < 1e-12
    h = np.array([[1.0, 0.5], [0.3, -1.0]])
    for theta in two[0].elements:
        assert intertwiner_residual(theta, h) < 1e-12


def _tracked_candidate(value):
    return MetricCandidate(provenance=MetricProvenance.BASIS_COMBINATION, family=value)


@pytest.mark.parametrize(
    "name, lo, hi, seed", [("mdg6-w1", 0.2, 0.9, 0.55), ("ec4-recoupled", 0.0, 1.4, 0.7)]
)
def test_positivity_on_a_section_equals_the_point_by_point_march(name, lo, hi, seed):
    family = get_family(name)
    section = MetricSection(family, t_seed=seed)
    report = positivity_interval(_tracked_candidate(section.value), lo, hi, 1e-10)
    # A lambda is no bound MetricSection.value: the reference samples point by point.
    fresh = MetricSection(family, t_seed=seed)
    expected = positivity_interval(_tracked_candidate(lambda t: fresh.value(t)), lo, hi, 1e-10)
    assert report.interval == expected.interval
    assert report.min_eig_samples.tobytes() == expected.min_eig_samples.tobytes()


def test_candidate_values_are_at_or_the_sections_values(monkeypatch):
    closed = reference_metric_ec4_strong(0.0)
    ts = [-1.3, 0.0, 0.4, 1.0828543885707855, 1.5]
    for t, theta in zip(ts, closed.values(ts), strict=True):
        assert np.array_equal(theta, closed.at(t))
    # Across the EP at t = 0.96584, so the section's gap errors are yielded too.
    family = get_family(Model.EC4_RECOUPLED)
    grid = [0.9, 0.97, 1.1, 0.5, 0.9658, 1.3, 0.2]
    section = MetricSection(family, t_seed=0.7)
    stacked = _tracked_candidate(section.value)
    fresh = MetricSection(family, t_seed=0.7)
    pointwise = _tracked_candidate(lambda t: fresh.value(t))  # sampled through at
    expected = list(MetricSection(family, t_seed=0.7).values(grid))
    assert any(isinstance(theta, BrokenPhaseError) for theta in expected)
    calls = []
    values = MetricSection.values
    monkeypatch.setattr(
        MetricSection, "values", lambda self, ts: calls.append(len(ts)) or values(self, ts)
    )
    # The section-backed candidate asks its section once for the whole grid.
    for candidate, asked in ((stacked, [len(grid)]), (pointwise, [1] * len(grid))):
        calls.clear()
        for theta, reference in zip(candidate.values(grid), expected, strict=True):
            if isinstance(reference, Exception):
                assert type(theta) is type(reference)
                assert str(theta) == str(reference)
            else:
                assert np.array_equal(theta, reference)
        assert calls == asked


def test_positivity_on_a_section_solves_the_coarse_kernels_in_stacks(monkeypatch):
    import ptlattice.metrics as metrics

    one_row, stacked = [], []
    monkeypatch.setattr(
        metrics, "intertwiner_basis", lambda h: one_row.append(h) or intertwiner_basis(h)
    )
    monkeypatch.setattr(
        metrics, "intertwiner_bases", lambda s: stacked.append(len(s)) or intertwiner_bases(s)
    )
    section = MetricSection(get_family(Model.MDG6_W1), t_seed=0.55)
    positivity_interval(_tracked_candidate(section.value), 0.2, 0.9, 1e-10)
    assert len(one_row) == 1  # the seed
    # The 1001 grid points and the 280 lattice points between them, 32 to a stack.
    assert sum(stacked) > 1281 and max(stacked) == 32


_GAPS = (BrokenPhaseError, DegenerateSpectrumError, TrackingError)


def _assert_values_match_value(section, reference, grid):
    for t, theta in zip(grid, section.values(grid), strict=True):
        try:
            expected = reference.value(t)
        except _GAPS as exc:
            assert type(theta) is type(exc)
            assert str(theta) == str(exc)
        else:
            assert np.array_equal(theta, expected)


@pytest.mark.parametrize(
    "name, seed, grid",
    [
        # Out of the unbroken phase and back, in and out of order.
        ("ec4-recoupled", 0.7, [0.9, 0.95, 0.97, 1.1, 0.96, 0.5, 0.99, 0.8, 0.9658, 1.3, 0.2]),
        # Down through the EP at t = 0.16316 and up again.
        ("mdg6-w1", 0.3, list(np.linspace(0.3, 0.12, 90)) + [0.25, 0.17, 0.1, 0.6]),
        # From inside the EP at t = 0.96584 to well past it: past the first
        # lost lattice point every point is a copy of its error.
        ("ec4-recoupled", 0.7, list(np.linspace(0.9, 1.4, 120))),
    ],
)
def test_values_keep_the_raise_points_and_anchors_of_the_sequential_march(name, seed, grid):
    family = get_family(name)
    _assert_values_match_value(
        MetricSection(family, t_seed=seed), MetricSection(family, t_seed=seed), grid
    )


class _NoStacks:
    """A family whose stacked assembly always fails."""

    def __init__(self, family):
        self.n, self.matrix = family.n, family.matrix

    def matrices(self, ts):
        raise RuntimeError("no stacks")


def test_values_march_step_by_step_where_the_stack_is_rejected():
    family = get_family(Model.EC4_RECOUPLED)
    grid = list(np.linspace(0.0, 1.1, 60))
    _assert_values_match_value(
        MetricSection(_NoStacks(family), t_seed=0.5), MetricSection(family, t_seed=0.5), grid
    )


def _sequential_boundary(family, tol, search_max=1.2):
    """tracked_positivity_boundary as a march of one lattice probe at a time."""
    section = MetricSection(family)

    def alive(t):
        try:
            return bool(_min_eig(section.value(t)) > 0)
        except _GAPS:
            return False

    good = t = 0.0
    k = 0
    while t < search_max:
        k += 1
        t = min(search_max, k * _SECTION_STEP)
        if not alive(t):
            break
        good = t
    return bisect_edge(alive, good, t, tol)


@pytest.mark.parametrize(
    "family, search_max", [(get_family(Model.EC4_RECOUPLED), 1.2), (EC4, 1.45)],
    ids=["ec4-recoupled", "ec4"],
)
def test_tracked_boundary_equals_the_probe_by_probe_march(family, search_max):
    boundary = tracked_positivity_boundary(family, 1e-8, search_max=search_max)
    assert boundary == _sequential_boundary(family, 1e-8, search_max)


def test_values_solve_no_stack_ahead_past_a_step_whose_kernel_fails(monkeypatch):
    import ptlattice.metrics as metrics

    stacks = []

    def solve(stack):
        stacks.append(intertwiner_bases(stack))
        return stacks[-1]

    monkeypatch.setattr(metrics, "intertwiner_bases", solve)
    section = MetricSection(EC4, t_seed=1.0)
    (theta,) = section.values([1.7])  # 280 lattice points, out of the unbroken phase at t = 1.5
    assert isinstance(theta, BrokenPhaseError)
    failed = [any(isinstance(row, Exception) for row in rows) for rows in stacks]
    assert failed == [False] * (len(stacks) - 1) + [True]
    assert len(stacks) < math.ceil(280 / 32)


def _subclasses(cls):
    return [cls] + [s for sub in cls.__subclasses__() for s in _subclasses(sub)]


def test_every_numerical_error_carries_diagnostics():
    for cls in _subclasses(NumericalError):
        assert cls("message").diagnostics == {}, cls.__name__
        assert cls("message", diagnostics={"t": 0.5}).diagnostics == {"t": 0.5}, cls.__name__
    # A lost section keeps the error of its first lost point and hands out copies.
    section = MetricSection(EC4, t_seed=1.0)
    (first,) = section.values([1.7])
    assert isinstance(first, NumericalError) and first.diagnostics == {}
    section._lost[1].diagnostics["t"] = 1.5
    (again,) = section.values([1.8])
    assert again is not section._lost[1] and again.diagnostics == {"t": 1.5}
    assert copy.copy(again).diagnostics == {"t": 1.5}


def test_positivity_past_a_lost_section_solves_its_first_steps_in_stacks(monkeypatch):
    import ptlattice.metrics as metrics

    one_row = []
    monkeypatch.setattr(
        metrics, "intertwiner_basis", lambda h: one_row.append(h) or intertwiner_basis(h)
    )
    section = MetricSection(get_family(Model.EC4_RECOUPLED), t_seed=0.7)
    positivity_interval(_tracked_candidate(section.value), 0.0, 1.4, 1e-10)
    # About 320 grid points lie past the EP at t = 0.96584; each fails at its first step.
    assert len(one_row) <= 60


@pytest.mark.parametrize(
    "name, lo, hi, expected",
    [
        ("mdg6-w1", 0.2, 0.9, (0.7328311282098292, 0.9)),
        ("ec4-recoupled", 0.0, 1.4, (0.0, 0.9658391621649267)),
        ("ec4-recoupled", -1.6, 1.6, (-0.9658391622066498, 0.96583916220665)),
    ],
)
def test_tracked_positivity_intervals_are_pinned(name, lo, hi, expected):
    seed = 0.0 if lo < 0.0 < hi else (lo + hi) / 2  # the command line's seed rule
    section = MetricSection(get_family(name), t_seed=seed)
    report = positivity_interval(_tracked_candidate(section.value), lo, hi, 1e-10)
    assert report.interval == expected


def test_tracked_boundary_is_pinned():
    boundary = tracked_positivity_boundary(get_family(Model.EC4_RECOUPLED), 1e-8)
    assert boundary == 0.9658391618728638


def test_section_value_does_not_depend_on_the_points_asked_before():
    family = get_family(Model.MDG6_W1)
    alone = MetricSection(family, t_seed=0.55).value(0.8)
    after = MetricSection(family, t_seed=0.55)
    after.value(0.79)
    assert np.array_equal(after.value(0.8), alone)
    # Nor on the grid it is sampled with, or on the other side of the seed.
    grid = MetricSection(family, t_seed=0.55)
    thetas = list(grid.values(np.linspace(0.3, 0.9, 37)))
    assert np.array_equal(grid.value(0.8), alone)
    assert np.array_equal(thetas[0], MetricSection(family, t_seed=0.55).value(0.3))


def test_tracked_edge_does_not_depend_on_the_coarse_grid():
    family = get_family(Model.MDG6_W1)
    edges = []
    for steps in (51, 201, 1001, 4001):
        section = MetricSection(family, t_seed=0.55)
        report = positivity_interval(
            _tracked_candidate(section.value), 0.2, 0.9, 1e-10, coarse_steps=steps
        )
        edges.append(report.interval[0])
    assert max(edges) - min(edges) <= 2e-10


def test_tracked_boundary_solves_each_lattice_probe_once(monkeypatch):
    import ptlattice.metrics as metrics

    rows = []
    monkeypatch.setattr(
        metrics, "intertwiner_basis", lambda h: rows.append(1) or intertwiner_basis(h)
    )
    monkeypatch.setattr(
        metrics, "intertwiner_bases", lambda s: rows.append(len(s)) or intertwiner_bases(s)
    )
    tracked_positivity_boundary(get_family(Model.EC4_RECOUPLED), 1e-8)
    # 387 probes up to the EP at t = 0.96584, a stack past it, and the bisection.
    assert sum(rows) < 600
