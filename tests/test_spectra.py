"""Spectral engine: eigenvalues, sorting, phases, and eigenvector pairs."""

import math
import warnings

import numpy as np
import pytest

from ptlattice import (
    ConsistencyError,
    DegenerateSpectrumError,
    InvalidSpecError,
    Model,
    ModelDomainError,
    SolverError,
    Spectrum,
    count_real,
    ec4_closed_form,
    ec4_pair_vectors,
    eigenvalues,
    get_family,
    left_right_pairs,
    matching_distance,
    min_pairwise_gap,
    pt_phase,
    sweep_eigenvalues,
    vector_angle,
)
from ptlattice.charpoly import eigenvalues_charpoly_oracle
from ptlattice.errors import PtLatticeError
from ptlattice.spectra import _POLISH_REL, _frobenius_scales, canonical_sort, eigenvalue_rows


def test_eigenvalues_of_diagonal_matrix():
    vals = eigenvalues(np.diag([3.0, -1.0, 2.0])).values
    assert np.allclose(vals, [-1.0, 2.0, 3.0])


def test_spectrum_requires_conjugate_closure():
    with pytest.raises(ConsistencyError):
        Spectrum.from_values([1.0 + 1.0j, 2.0], trace=3.0 + 1.0j)


def test_spectrum_values_sorted_canonically():
    s = Spectrum.from_values([2.0, 1.0 + 1.0j, 1.0 - 1.0j, -3.0], trace=1.0)
    assert np.array_equal(
        s.values, canonical_sort(np.array([-3.0, 1.0 - 1.0j, 1.0 + 1.0j, 2.0]))
    )
    assert s.values[0] == -3.0


def test_canonical_sort_real_then_imaginary():
    vals = np.array([1.0 + 2.0j, 1.0 - 2.0j, -1.0, 0.5])
    out = canonical_sort(vals)
    assert list(out) == [-1.0, 0.5, 1.0 - 2.0j, 1.0 + 2.0j]


def test_matching_distance_is_permutation_invariant():
    a = np.array([1.0, 2.0, 3.0])
    b = np.array([3.0, 1.0, 2.0])
    assert matching_distance(a, b) == 0.0
    assert matching_distance(a, b + 1e-3) == pytest.approx(1e-3, rel=1e-6)


def test_min_pairwise_gap():
    assert min_pairwise_gap(np.array([0.0, 1.0, 1.5])) == pytest.approx(0.5)


def test_count_real_uses_relative_threshold():
    vals = np.array([100.0 + 1e-8j, 100.0 - 1e-8j, 1.0, -1.0])
    # |Im| = 1e-8 is below 1e-9 * 100 = 1e-7, hence real
    assert count_real(vals, 1e-9) == 4
    assert count_real(vals, 1e-11) == 2


def test_count_real_rejects_odd_complex_count():
    with pytest.raises(ConsistencyError):
        count_real(np.array([1.0j, 1.0, 2.0]), 1e-12)


def test_sweep_matches_closed_form_across_phases():
    family = get_family(Model.EC4)
    grid = np.linspace(-1.6, 1.6, 65)
    rows = sweep_eigenvalues(family.matrices(grid))
    for t, row in zip(grid, rows):
        assert matching_distance(row, ec4_closed_form(float(t)).values) < 1e-9


def test_sweep_polish_handles_exact_degeneracy():
    family = get_family(Model.EC4)
    rows = sweep_eigenvalues(family.matrices([1.5]))
    assert matching_distance(rows[0], np.array([-1.0, 0.0, 0.0, 1.0])) < 1e-9


def _one_row_sweep(h):
    """A sweep row built alone: sorted eigenvalues, polished by the one-row rule."""
    row = canonical_sort(np.linalg.eigvals(h))
    polish = min_pairwise_gap(row) < _POLISH_REL * max(1.0, float(np.linalg.norm(h)))
    return (eigenvalues_charpoly_oracle(h).values if polish else row), polish


@pytest.mark.parametrize(
    "model, grid, polished",
    [
        (Model.EC4, np.linspace(1.0, 2.0, 401), [200]),  # the EP at t = 1.5
        # LAPACK scatters the order-6 point t = 0 beyond the polish gate.
        (Model.MDG6_OPEN, np.linspace(-1.0, 1.0, 51), []),
    ],
)
def test_sweep_rows_equal_the_one_row_construction(model, grid, polished):
    stack = get_family(model).matrices(grid)
    rows = sweep_eigenvalues(stack)
    reference = [_one_row_sweep(h) for h in stack]
    assert rows.shape == (grid.size, stack.shape[1])
    for row, (expected, _) in zip(rows, reference):
        assert np.array_equal(row, expected)
    assert [k for k, (_, polish) in enumerate(reference) if polish] == polished


@pytest.mark.parametrize(
    "stack", [np.zeros((4, 4)), np.zeros((2, 3, 4)), np.full((2, 3, 3), np.nan)]
)
def test_sweep_rejects_a_bad_stack(stack):
    with pytest.raises(InvalidSpecError):
        sweep_eigenvalues(stack)


def test_frobenius_scales_survive_overflow():
    stack = np.stack([
        get_family(Model.MDG6_W1).matrix(0.3),
        np.full((6, 6), 1e-3),
        np.diag([1e300, -2e300, 0.0, 3e300, 1.0, 0.0]),
        np.full((6, 6), 1e308),
    ])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        scales = _frobenius_scales(stack)
    # Finite norms keep the one-dot-product rounding of np.linalg.norm.
    assert scales[0] == max(1.0, np.linalg.norm(stack[0]))
    assert scales[1] == 1.0
    assert scales[2] == pytest.approx(math.sqrt(14.0) * 1e300, rel=1e-15)
    assert scales[3] == math.inf  # 6e308 exceeds the largest double


def test_left_right_pairs_satisfy_eigen_relations():
    h = get_family(Model.EC4).matrix(0.8)
    for pair in left_right_pairs(h):
        lam = pair.eigenvalue
        assert np.linalg.norm(h @ pair.right - lam * pair.right) < 1e-10
        assert np.linalg.norm(h.T @ pair.left - np.conj(lam) * pair.left) < 1e-10


def test_left_right_pairs_reject_near_degenerate():
    h = get_family(Model.EC4).matrix(1.5)
    with pytest.raises(DegenerateSpectrumError):
        left_right_pairs(h)


def test_pt_phase_unbroken_vs_broken():
    family = get_family(Model.EC4)
    assert pt_phase(family.matrix(0.5)).unbroken
    assert not pt_phase(family.matrix(1.55)).unbroken


def test_pt_phase_dual_evidence_agrees():
    family = get_family(Model.MDG6_OPEN)
    phase = pt_phase(family.matrix(0.5))
    assert phase.unbroken and phase.max_defect < 1e-6


def test_ec4_closed_form_complexifies_beyond_three_halves():
    s = ec4_closed_form(1.6)
    assert count_real(s.values) == 2


def test_ec4_pair_vectors_coalesce_at_sqrt2():
    psi2, psi3 = ec4_pair_vectors(math.sqrt(2.0))
    assert vector_angle(psi2, psi3) < 1e-12


def test_ec4_pair_vectors_eigenrelations():
    t = 0.9
    h = get_family(Model.EC4).matrix(t)
    psi2, psi3 = ec4_pair_vectors(t)
    r = math.sqrt(9 - 4 * t * t)
    assert np.linalg.norm(h @ psi2 - 1.0 * psi2) < 1e-12 * np.linalg.norm(psi2)
    assert np.linalg.norm(h @ psi3 - r * psi3) < 1e-12 * np.linalg.norm(psi3)


def test_ec4_pair_vectors_domain_limits():
    with pytest.raises(ModelDomainError):
        ec4_pair_vectors(0.0)
    with pytest.raises(ModelDomainError):
        ec4_pair_vectors(1.51)


def test_vector_angle_basics():
    a = np.array([1.0, 0.0])
    b = np.array([0.0, 1.0])
    assert vector_angle(a, a) == pytest.approx(0.0, abs=1e-15)
    assert vector_angle(a, 2 * a) == pytest.approx(0.0, abs=1e-15)
    assert vector_angle(a, b) == pytest.approx(math.pi / 2)


def _assert_rows_equal_the_one_matrix_calls(stack):
    rows, errors = eigenvalue_rows(stack)
    for h, row, error in zip(stack, rows, errors, strict=True):
        try:
            expected = eigenvalues(h).values
        except PtLatticeError as exc:
            assert type(error) is type(exc) and str(error) == str(exc)
        else:
            assert error is None
            assert np.array_equal(row, expected)


def test_eigenvalue_rows_settle_a_repeated_eigenvalue_one_matrix_at_a_time(monkeypatch):
    # Both 1s of diag(1, 1, 2) find their nearest conjugate in the first
    # column, so that row alone goes through Spectrum.from_values.
    settled = []
    from_values = Spectrum.from_values.__func__

    def spy(cls, values, **kwargs):
        settled.append(values)
        return from_values(cls, values, **kwargs)

    monkeypatch.setattr(Spectrum, "from_values", classmethod(spy))
    rotation = np.array([[0.0, 1.0, 0.0], [-1.0, 0.0, 0.0], [0.0, 0.0, 3.0]])
    stack = np.stack([rotation, np.diag([1.0, 1.0, 2.0]), rotation])
    eigenvalue_rows(stack)
    assert len(settled) == 1 and np.array_equal(np.sort(settled[0].real), [1.0, 1.0, 2.0])
    _assert_rows_equal_the_one_matrix_calls(stack)


def test_eigenvalue_rows_take_each_matrix_alone_where_the_stacked_solve_fails(monkeypatch):
    eigvals = np.linalg.eigvals

    def rejecting(a):
        # The stack, and alone the matrix marked by a 7 in its corner.
        if np.ndim(a) == 3 or a[0, 0] == 7.0:
            raise np.linalg.LinAlgError("Eigenvalues did not converge")
        return eigvals(a)

    monkeypatch.setattr(np.linalg, "eigvals", rejecting)
    family = get_family(Model.EC4)
    stack = family.matrices([0.5, 1.55, 1.0])
    stack[2, 0, 0] = 7.0
    rows, errors = eigenvalue_rows(stack)
    assert isinstance(errors[2], SolverError) and errors[:2] == [None, None]
    _assert_rows_equal_the_one_matrix_calls(stack)
