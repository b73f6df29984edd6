"""Spectral engine: eigenvalues, sorting, phases, and eigenvector pairs."""

import math
import warnings

import numpy as np
import pytest

from ptlattice import (
    ConsistencyError,
    DegenerateSpectrumError,
    Model,
    ModelDomainError,
    SolverError,
    Spectrum,
    count_real,
    degeneracy_order,
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
from ptlattice.charpoly import model_oracle_eigenvalues
from ptlattice.custom import load_custom_model
from ptlattice.spectra import (
    _POLISH_REL,
    _frobenius_scales,
    _largest_clusters,
    _perturbation_order,
    _perturbation_orders,
    canonical_sort,
    eigenvalue_rows,
)


def test_eigenvalues_of_diagonal_matrix():
    vals = eigenvalues(np.diag([3.0, -1.0, 2.0])).values
    assert np.allclose(vals, [-1.0, 2.0, 3.0])


def test_spectrum_requires_conjugate_closure():
    with pytest.raises(ConsistencyError):
        Spectrum.from_values([1.0 + 1.0j, 2.0], trace=3.0 + 1.0j)


def test_spectrum_trace_gate_fails_a_nan_drift_and_sums_huge_values():
    with pytest.raises(ConsistencyError, match="differs from trace by nan"):
        Spectrum.from_values([1.0, 2.0], trace=math.nan)
    # The trace and the row sum, 2e308, overflow a double; the gate sums
    # both at half scale.
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        _, errors = eigenvalue_rows(np.array([[[1e308, 0.5], [-0.5, 1e308]]]))
    assert errors == [None]


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
    rows = sweep_eigenvalues(family, grid)
    for t, row in zip(grid, rows):
        assert matching_distance(row, ec4_closed_form(float(t)).values) < 1e-9


def test_sweep_polish_handles_exact_degeneracy():
    rows = sweep_eigenvalues(get_family(Model.EC4), [1.5])
    assert matching_distance(rows[0], np.array([-1.0, 0.0, 0.0, 1.0])) < 1e-9


def test_sweep_rereads_a_gated_row_from_the_model_oracle(monkeypatch):
    from ptlattice import charpoly

    model_oracle, reread = charpoly.model_oracle_eigenvalues, []

    def spy(family, t):
        reread.append(t)
        return model_oracle(family, t)

    def float_lift(h):
        raise AssertionError("the sweep re-read a row from the rounded matrix")

    monkeypatch.setattr(charpoly, "model_oracle_eigenvalues", spy)
    monkeypatch.setattr(charpoly, "eigenvalues_charpoly_oracle", float_lift)
    family = get_family(Model.EC4)
    rows = sweep_eigenvalues(family, [1.0, 1.5])
    assert reread == [1.5]
    assert np.array_equal(rows[1], model_oracle(family, 1.5).values)


def test_sweep_reads_the_model_where_its_rounded_matrix_is_degenerate(tmp_path):
    # H = [[1/10, t], [-t, -1/10]] meets its EP at t = 1/10.  The double 0.1
    # lies just past it, so the model's pair is complex there, while the
    # rounded matrix, whose diagonal is that same double, reads a double zero.
    path = tmp_path / "two.yaml"
    path.write_text(
        'name: two\nn: 2\ntopology: open\ndiag: ["0.1", "-0.1"]\n'
        'couplings: ["t"]\nt_range: [-1, 1]\n'
    )
    rows = sweep_eigenvalues(load_custom_model(str(path)), [0.0, 0.1, 0.2])
    assert rows[1].tolist() == [-1.0536712127723508e-09j, 1.0536712127723508e-09j]


def _one_row_sweep(family, t):
    """A sweep row built alone: sorted eigenvalues, re-read by the one-row rule."""
    h = family.matrix(t)
    row = canonical_sort(np.linalg.eigvals(h))
    polish = min_pairwise_gap(row) < _POLISH_REL * max(1.0, float(np.linalg.norm(h)))
    return (model_oracle_eigenvalues(family, t).values if polish else row), polish


@pytest.mark.parametrize(
    "model, grid, polished",
    [
        (Model.EC4, np.linspace(1.0, 2.0, 401), [200]),  # the EP at t = 1.5
        # LAPACK scatters the order-6 point t = 0 beyond the polish gate.
        (Model.MDG6_OPEN, np.linspace(-1.0, 1.0, 51), []),
    ],
)
def test_sweep_rows_equal_the_one_row_construction(model, grid, polished):
    family = get_family(model)
    rows = sweep_eigenvalues(family, grid)
    reference = [_one_row_sweep(family, t) for t in grid]
    assert rows.shape == (grid.size, family.n)
    for row, (expected, _) in zip(rows, reference):
        assert np.array_equal(row, expected)
    assert [k for k, (_, polish) in enumerate(reference) if polish] == polished


def test_sweep_raises_the_closure_error_of_an_unpaired_complex_row(monkeypatch):
    solve = np.linalg.eigvals

    def unpaired(stack):
        vals = solve(stack).astype(complex)
        vals[..., 1, 0] += 0.1j  # a complex value whose conjugate is not in the row
        return vals

    monkeypatch.setattr(np.linalg, "eigvals", unpaired)
    with pytest.raises(ConsistencyError, match="not conjugate-paired"):
        sweep_eigenvalues(get_family(Model.EC4), [0.3, 0.6, 0.9])


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


def test_left_right_pairs_and_pt_phase_survive_a_huge_matrix():
    # The residual norms of a matrix above ||H|| ~ 1e154 overflow as one dot
    # product; the eigenpairs themselves are fine.
    h = get_family(Model.EC4).matrix(0.5)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        pairs = left_right_pairs(1e200 * h)
        phase = pt_phase(1e200 * h)
    expected = [1e200 * p.eigenvalue for p in left_right_pairs(h)]
    assert [p.eigenvalue for p in pairs] == pytest.approx(expected, rel=1e-13)
    assert phase.value is pt_phase(h).value
    assert phase.max_defect < 1e-12


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


def test_eigenvalue_rows_settle_a_repeated_eigenvalue_one_matrix_at_a_time():
    # Both 1s of diag(1, 1, 2) find their nearest conjugate in the first
    # column, so the closure gate of that row takes the matching search;
    # each row still equals the matrix solved alone.
    rotation = np.array([[0.0, 1.0, 0.0], [-1.0, 0.0, 0.0], [0.0, 0.0, 3.0]])
    stack = np.stack([rotation, np.diag([1.0, 1.0, 2.0]), rotation])
    rows, errors = eigenvalue_rows(stack)
    assert errors == [None, None, None]
    assert np.array_equal(rows[1], [1.0, 1.0, 2.0])
    assert np.allclose(rows[[0, 2]], [-1j, 1j, 3.0], rtol=0, atol=1e-15)
    for h, row in zip(stack, rows, strict=True):
        assert np.array_equal(eigenvalues(h).values, row)


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
    assert errors[:2] == [None, None]
    assert isinstance(errors[2], SolverError)
    assert str(errors[2]) == "eigensolver failed to converge: Eigenvalues did not converge"
    assert errors[2].diagnostics["n"] == 4
    for t, row in zip([0.5, 1.55], rows):
        assert matching_distance(row, ec4_closed_form(t).values) < 1e-12
    assert np.array_equal(rows[2], np.zeros(4))
    with pytest.raises(SolverError, match="did not converge"):
        eigenvalues(stack[2])


def test_eigenvalue_rows_gate_each_row_for_closure_and_trace(monkeypatch):
    # A row whose values are not conjugate-paired, or whose sum is not the
    # trace, fails with the message of Spectrum.from_values for its values.
    solved = {
        0: [1.0 + 1.0j, 1.0 - 1.0j, 2.0],
        1: [1.0 + 1.0j, 1.0, 2.0],
        2: [1.0, 2.0, 4.0],
    }
    monkeypatch.setattr(
        np.linalg, "eigvals", lambda a: np.array([solved[i] for i in range(len(a))])
    )
    stack = np.stack([np.diag([1.0, 1.0, 2.0])] * 3)
    rows, errors = eigenvalue_rows(stack)
    assert errors[0] is None
    for i in (1, 2):
        with pytest.raises(ConsistencyError) as expected:
            Spectrum.from_values(solved[i], trace=float(np.trace(stack[i])))
        assert type(errors[i]) is ConsistencyError
        assert str(errors[i]) == str(expected.value)
    assert "conjugate-paired" in str(errors[1]) and "trace" in str(errors[2])


def _per_k_perturbation_order(values, scale, n):
    """The order as one union-find pass per k, each at its own threshold."""
    best = 1
    for k in range(2, n + 1):
        threshold = 10.0 * scale * float(np.finfo(float).eps) ** (1.0 / k)
        if _union_find_cluster(values, threshold) >= k:
            best = k
    return best


def _union_find_cluster(values, threshold):
    """Largest single-linkage cluster of one row: a union-find with path halving."""
    from collections import Counter

    n = len(values)
    parent = list(range(n))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    i, j = np.triu_indices(n, 1)
    linked = np.abs(values[i] - values[j]) <= threshold
    for a, b in zip(i[linked].tolist(), j[linked].tolist()):
        parent[find(a)] = find(b)
    return max(Counter(find(i) for i in range(n)).values())


def _order_cases():
    rng = np.random.default_rng(2024)
    u = float(np.finfo(float).eps)
    cases = []
    for n in range(2, 13):
        for _ in range(12):
            spread = 10.0 ** rng.uniform(-12, 0)
            cases.append((rng.normal(size=n) * spread, 1.0))
            cases.append(((rng.normal(size=n) + 1j * rng.normal(size=n)) * spread, 3.5))
        # Repeated values, and distances exactly at each k's threshold.
        cases.append((rng.integers(0, 3, size=n) * 1e-9, 1.0))
        for k in range(2, n + 1):
            step = 10.0 * 2.0 * u ** (1.0 / k)
            cases.append((np.cumsum(rng.choice([0.0, step, 2.0 * step], size=n)), 2.0))
            cases.append((np.arange(n) * step, 2.0))
        # inf and nan values, and infinite or nan scales.
        for bad in (math.inf, -math.inf, math.nan, complex(math.nan, 1.0), complex(1.0, math.inf)):
            values = rng.normal(size=n) * 1e-7 + 0j
            values[rng.integers(0, n)] = bad
            cases.append((values, 1.0))
        cases.append((rng.normal(size=n) * 1e-7, math.inf))
        cases.append((rng.normal(size=n) * 1e-7, math.nan))
    return cases


def test_perturbation_order_equals_the_per_k_construction():
    with np.errstate(invalid="ignore"):
        for values, scale in _order_cases():
            n = len(values)
            expected = _per_k_perturbation_order(values, scale, n)
            assert _perturbation_order(values, scale, n) == expected, (values, scale)


def test_stacked_orders_equal_the_per_k_construction():
    by_n: dict = {}
    for values, scale in _order_cases():
        by_n.setdefault(len(values), []).append((values, scale))
    with np.errstate(invalid="ignore"):
        for n, cases in by_n.items():
            rows = np.array([values for values, _ in cases], dtype=complex)
            scales = np.array([scale for _, scale in cases])
            expected = [_per_k_perturbation_order(v, s, n) for v, s in cases]
            assert _perturbation_orders(rows, scales).tolist() == expected, n


def test_largest_clusters_equal_the_union_find_at_every_distance():
    with np.errstate(invalid="ignore"):
        for values, _ in _order_cases():
            values = np.asarray(values, dtype=complex)
            i, j = np.triu_indices(len(values), 1)
            # Each threshold lies exactly on a distance of the row.
            thresholds = np.unique(np.abs(values[i] - values[j]))
            sizes = _largest_clusters(values[None], thresholds[None])[0]
            expected = [_union_find_cluster(values, float(d)) for d in thresholds]
            assert sizes.tolist() == expected, values


def test_degeneracy_order_equals_the_union_find_at_every_distance():
    for values, _ in _order_cases():
        values = np.real_if_close(values)
        if np.iscomplexobj(values) or not np.isfinite(values).all():
            continue
        # ||H||_F <= 1/2 keeps the scale max(1, ||H||_F) at 1, so the
        # threshold is the distance itself.
        h = np.diag(values / (2.0 * max(1.0, float(np.linalg.norm(values)))))
        d = np.diag(h)
        i, j = np.triu_indices(len(d), 1)
        for distance in np.unique(np.abs(d[i] - d[j])).tolist():
            if distance > 0:
                assert degeneracy_order(h, distance) == _union_find_cluster(d, distance)
