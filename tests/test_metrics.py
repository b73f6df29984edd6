"""Metric operators: kernel bases, closed forms, positivity, tracking."""

import math

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
from ptlattice.errors import TrackingError
from ptlattice.metrics import _SECTION_STEP, _positive

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


@pytest.mark.parametrize("family", list(iter_families()), ids=lambda f: f.name)
def test_intertwiner_basis_equals_the_entrywise_construction(family):
    for t in _UNBROKEN_POINTS[family.name]:
        h = family.matrix(t)
        elements = intertwiner_basis(h).elements
        reference = _loop_basis(h)
        assert len(elements) == len(reference) == family.n
        for theta, expected in zip(elements, reference):
            assert np.array_equal(theta, expected)


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


def _linear_nearest(section, t):
    # The reference rule: min over anchors in insertion order.
    return min(section._anchors, key=lambda a: abs(t - a))


def test_nearest_anchor_matches_the_linear_scan_on_every_tracked_probe(
    monkeypatch, capsys
):
    from ptlattice.cli import main

    lookup = MetricSection._nearest_anchor
    probes = []

    def checked(self, t):
        anchor = lookup(self, t)
        assert anchor == _linear_nearest(self, t), t
        probes.append(t)
        return anchor

    monkeypatch.setattr(MetricSection, "_nearest_anchor", checked)
    args = ["metric", "--model", "mdg6-w1", "--t-min", "0.2", "--t-max", "0.9", "--track"]
    assert main(args) == 0
    capsys.readouterr()
    assert len(probes) > 500


def test_nearest_anchor_tie_goes_to_the_first_inserted():
    section = MetricSection(EC4)  # seed anchor at t = 0
    theta = np.eye(4)
    for t in (1.0, -1.0, 3.0, 2.0, 2.0 + 1e-17, 1.0):
        section._store(t, theta)
    assert section._keys == sorted(section._anchors)
    assert list(section._anchors) == [0.0, 1.0, -1.0, 3.0, 2.0]
    # Ties at 0.5, -0.5 and 2.5; 2 + 1e-17 rounds to 2.0, so it is no new anchor.
    for t in (0.5, -0.5, 2.5, 1.5, 10.0, -10.0, 0.0, 2.0, 1.0 + 2**-52):
        assert section._nearest_anchor(t) == _linear_nearest(section, t), t
    assert section._nearest_anchor(0.5) == 0.0
    assert section._nearest_anchor(2.5) == 3.0


def test_nearest_anchor_tie_can_reach_past_the_neighbours():
    # From t = 1 all three anchors round to distance 1.0; the first inserted
    # is the one farthest from t.
    section = MetricSection(EC4)
    for t in (3e-17, 1e-17):
        section._store(t, np.eye(4))
    assert section._nearest_anchor(1.0) == _linear_nearest(section, 1.0) == 0.0


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


def _assert_same_anchors(section, reference):
    assert section._keys == reference._keys
    assert list(section._anchors) == list(reference._anchors)
    for t, (rank, theta) in reference._anchors.items():
        assert section._anchors[t][0] == rank
        assert np.array_equal(section._anchors[t][1], theta)


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
    _assert_same_anchors(section, fresh)


def test_positivity_on_a_section_solves_the_coarse_kernels_in_stacks(monkeypatch):
    import ptlattice.metrics as metrics

    one_row = []
    monkeypatch.setattr(
        metrics, "intertwiner_basis", lambda h: one_row.append(h) or intertwiner_basis(h)
    )
    section = MetricSection(get_family(Model.MDG6_W1), t_seed=0.55)
    positivity_interval(_tracked_candidate(section.value), 0.2, 0.9, 1e-10)
    assert len(section._anchors) > 1000
    assert len(one_row) < 100  # the bisection steps


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
    _assert_same_anchors(section, reference)


@pytest.mark.parametrize(
    "name, seed, grid",
    [
        # Out of the unbroken phase and back, in and out of order.
        ("ec4-recoupled", 0.7, [0.9, 0.95, 0.97, 1.1, 0.96, 0.5, 0.99, 0.8, 0.9658, 1.3, 0.2]),
        # Down through the EP at t = 0.16316 and up again.
        ("mdg6-w1", 0.3, list(np.linspace(0.3, 0.12, 90)) + [0.25, 0.17, 0.1, 0.6]),
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


def test_values_march_no_further_than_the_points_taken():
    family = get_family(Model.MDG6_W1)
    grid = list(np.linspace(0.3, 0.9, 100))
    section = MetricSection(family, t_seed=0.3)
    taken = list(zip(range(3), section.values(grid)))
    reference = MetricSection(family, t_seed=0.3)
    for _, t in zip(taken, grid):
        reference.value(t)
    _assert_same_anchors(section, reference)


def _sequential_boundary(family, tol, search_max=1.2):
    """tracked_positivity_boundary as a march of one probe at a time."""
    section = MetricSection(family)

    def alive(t):
        try:
            return _positive(section.value(t))
        except _GAPS:
            return False

    good = t = 0.0
    while t < search_max:
        t = min(search_max, t + _SECTION_STEP)
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


def test_values_hold_kernels_solved_ahead_only_while_the_caller_takes_points():
    section = MetricSection(get_family(Model.MDG6_W1), t_seed=0.3)
    probes = section.values(list(np.linspace(0.3, 0.9, 100)))
    next(probes)
    assert section._ahead
    probes.close()
    assert not section._ahead


def test_values_solve_no_stack_ahead_past_a_step_whose_kernel_fails(monkeypatch):
    import ptlattice.metrics as metrics

    stacks = []

    def solve(stack):
        stacks.append(intertwiner_bases(stack))
        return stacks[-1]

    monkeypatch.setattr(metrics, "intertwiner_bases", solve)
    section = MetricSection(EC4, t_seed=1.0)
    (theta,) = section.values([1.7])  # 280 steps, out of the unbroken phase at t = 1.5
    assert isinstance(theta, BrokenPhaseError)
    failed = [any(isinstance(row, Exception) for row in rows) for rows in stacks]
    assert failed == [False] * (len(stacks) - 1) + [True]
    assert len(stacks) < math.ceil(280 / 32)
