"""Metric operators solving the intertwiner relation H^T Theta = Theta H.

The solution space over symmetric matrices is computed as an SVD kernel,
positive candidates are certified by minimum-eigenvalue sign, and two
closed-form reference families are provided for the equal-coupling ring and
its strengthened-bond variant.  For families without a closed form the
positivity domain is mapped by tracking one continuous section of the
kernel along t.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Callable

import numpy as np

from .errors import (
    BracketError,
    BrokenPhaseError,
    ConsistencyError,
    DegenerateSpectrumError,
    InvalidSpecError,
    TrackingError,
)
from .domains import bisect_edge, check_bracket, grid_steps
from .lattice import check_square
from .spectra import count_real, eigenvalues, left_right_pairs, min_pairwise_gap
from .tolerances import EPS_GAP, EPS_METRIC, POSITIVITY_STEPS

_SQRT2 = math.sqrt(2.0)


def vec_sym(m: np.ndarray) -> np.ndarray:
    """Isometric vectorization of a symmetric matrix (off-diagonals x sqrt2)."""
    m = np.asarray(m, dtype=float)
    n = m.shape[0]
    out = []
    for i in range(n):
        out.append(m[i, i])
        for j in range(i + 1, n):
            out.append(_SQRT2 * m[i, j])
    return np.asarray(out)


def unvec_sym(v: np.ndarray, n: int) -> np.ndarray:
    """Inverse of vec_sym."""
    m = np.zeros((n, n))
    k = 0
    for i in range(n):
        m[i, i] = v[k]
        k += 1
        for j in range(i + 1, n):
            m[i, j] = m[j, i] = v[k] / _SQRT2
            k += 1
    return m


def _vec_antisym(m: np.ndarray) -> np.ndarray:
    n = m.shape[0]
    out = []
    for i in range(n):
        for j in range(i + 1, n):
            out.append(_SQRT2 * m[i, j])
    return np.asarray(out)


@dataclass(frozen=True)
class SolutionBasis:
    """Orthonormal basis of symmetric solutions of H^T Theta = Theta H."""

    elements: tuple
    dim: int


def intertwiner_residual(theta, h) -> float:
    """Relative residual ||H^T Theta - Theta H||_F / (||H||_F ||Theta||_F)."""
    theta = check_square(theta)
    h = check_square(h)
    if theta.shape != h.shape:
        raise InvalidSpecError(
            f"shape mismatch: theta {theta.shape} vs h {h.shape}"
        )
    denom = float(np.linalg.norm(h)) * float(np.linalg.norm(theta))
    if denom == 0.0:
        return 0.0
    return float(np.linalg.norm(h.T @ theta - theta @ h)) / denom


# Singular values below this fraction of max(1, s_max) span the kernel.
_KERNEL_RANK_REL = 1e-9


def intertwiner_basis(h) -> SolutionBasis:
    """Kernel of Theta -> H^T Theta - Theta H over symmetric matrices.

    Requires a simple, fully real spectrum; there the kernel dimension is
    exactly n (one generator per eigenvalue).  The map sends symmetric to
    antisymmetric matrices, so the operator is (n(n-1)/2) x (n(n+1)/2).
    """
    h = check_square(h)
    n = h.shape[0]
    scale = max(1.0, float(np.linalg.norm(h)))
    vals = eigenvalues(h).values
    if count_real(vals) != n:
        raise BrokenPhaseError(
            "intertwiner basis requires a fully real spectrum"
        )
    gap = min_pairwise_gap(vals)
    if gap <= EPS_GAP * scale:
        raise DegenerateSpectrumError(
            f"minimal eigenvalue gap {gap:.3e} below the gate {EPS_GAP * scale:.3e}"
        )
    sym_dim = n * (n + 1) // 2
    columns = []
    for i in range(n):
        for j in range(i, n):
            b = np.zeros((n, n))
            if i == j:
                b[i, i] = 1.0
            else:
                b[i, j] = b[j, i] = 1.0 / _SQRT2
            columns.append(_vec_antisym(h.T @ b - b @ h))
    a = np.column_stack(columns) if columns else np.zeros((0, sym_dim))
    _, s, vt = np.linalg.svd(a, full_matrices=True)
    threshold = _KERNEL_RANK_REL * max(1.0, float(s.max()) if s.size else 0.0)
    rank = int((s > threshold).sum())
    kernel_dim = sym_dim - rank
    if kernel_dim != n:
        raise ConsistencyError(
            f"intertwiner kernel dimension {kernel_dim}, expected {n}"
        )
    elements = []
    for row in vt[rank:]:
        theta = unvec_sym(row, n)
        residual = float(np.linalg.norm(h.T @ theta - theta @ h))
        if residual > EPS_METRIC * scale:
            raise ConsistencyError(
                f"kernel element residual {residual:.3e} above bound"
            )
        elements.append(theta)
    return SolutionBasis(elements=tuple(elements), dim=kernel_dim)


def expand_in_basis(theta, basis: SolutionBasis) -> tuple[np.ndarray, float]:
    """Least-squares coefficients and relative residual of theta in the basis."""
    theta = check_square(theta)
    target = vec_sym(theta)
    m = np.column_stack([vec_sym(b) for b in basis.elements])
    coeffs, *_ = np.linalg.lstsq(m, target, rcond=None)
    norm = float(np.linalg.norm(target))
    if norm == 0.0:
        return coeffs, 0.0
    residual = float(np.linalg.norm(m @ coeffs - target)) / norm
    return coeffs, residual


class MetricProvenance(Enum):
    REFERENCE_EC4 = "reference-ec4"
    REFERENCE_EC4_STRONG = "reference-ec4-strongbond"
    SPECTRAL = "spectral"
    BASIS_COMBINATION = "basis-combination"


@dataclass(frozen=True)
class MetricCandidate:
    """A symmetric metric candidate: a t-family, a point value, or both."""

    provenance: MetricProvenance
    family: Callable[[float], np.ndarray] | None = None
    matrix: np.ndarray | None = None

    def at(self, t: float) -> np.ndarray:
        if self.family is None:
            raise InvalidSpecError(
                f"{self.provenance.value} candidate carries no t-family"
            )
        return self.family(float(t))


def _ec4_reference(t: float) -> np.ndarray:
    t = float(t)
    p = 3 + t * t
    return np.array(
        [
            [p, -3 * t, t * t, t],
            [-3 * t, p, -3 * t, t * t],
            [t * t, -3 * t, p, -3 * t],
            [t, t * t, -3 * t, p],
        ]
    )


def reference_metric_ec4(t: float) -> MetricCandidate:
    """Closed-form reference metric family for the equal-coupling ring."""
    return MetricCandidate(
        provenance=MetricProvenance.REFERENCE_EC4,
        family=_ec4_reference,
        matrix=_ec4_reference(t),
    )


def reference_metric_ec4_eigenvalues(t: float) -> np.ndarray:
    """Closed-form eigenvalues of the equal-coupling reference metric.

    {3 + t^2 + t +- sqrt(13t^2 + t^4 + 6t^3)} together with the pair
    obtained by t -> -t; both radicands are nonnegative for all real t.
    """
    t = float(t)
    vals = []
    for s in (t, -t):
        base = 3 + s * s + s
        rad = math.sqrt(13 * s * s + s ** 4 + 6 * s ** 3)
        vals.extend([base - rad, base + rad])
    return np.sort(np.asarray(vals))


def _ec4_strong_reference(t: float) -> np.ndarray:
    t = float(t)
    p = 3 + t * t
    d = 17 * t * t + 96
    a12 = p * t * (13 * t * t - 96) / d
    a13 = 24 * p * t * t / d
    a14 = p * t * (t * t + 96) / (2 * d)
    a23 = p * t * (7 * t * t - 96) / d
    return np.array(
        [
            [p, a12, a13, a14],
            [a12, p, a23, a13],
            [a13, a23, p, a12],
            [a14, a13, a12, p],
        ]
    )


def reference_metric_ec4_strong(t: float) -> MetricCandidate:
    """Closed-form reference metric family for the strengthened-bond ring."""
    return MetricCandidate(
        provenance=MetricProvenance.REFERENCE_EC4_STRONG,
        family=_ec4_strong_reference,
        matrix=_ec4_strong_reference(t),
    )


def spectral_metric(h, weights) -> MetricCandidate:
    """Theta = sum_k kappa_k |L_k><L_k| from the left eigenvectors.

    Positive definite by construction in the unbroken phase; weights map to
    eigenvalues in canonical (real, imaginary) order.
    """
    h = check_square(h)
    n = h.shape[0]
    weights = np.asarray(weights, dtype=float).ravel()
    if weights.size != n:
        raise InvalidSpecError(f"need {n} weights, got {weights.size}")
    if np.any(weights <= 0):
        raise InvalidSpecError("weights must be positive")
    vals = eigenvalues(h).values
    if count_real(vals) != n:
        raise BrokenPhaseError(
            "spectral metric exists only in the unbroken phase"
        )
    pairs = left_right_pairs(h)
    theta = np.zeros((n, n))
    for kappa, pair in zip(weights, pairs):
        left = pair.left
        if float(np.abs(left.imag).max()) > 1e-10:
            raise ConsistencyError("left eigenvector unexpectedly complex")
        lv = left.real
        theta += kappa * np.outer(lv, lv)
    min_eig = float(np.linalg.eigvalsh((theta + theta.T) / 2).min())
    if min_eig <= 0:
        raise ConsistencyError(
            f"spectral metric not positive definite (min eig {min_eig:.3e})"
        )
    residual = intertwiner_residual(theta, h)
    if residual > EPS_METRIC:
        raise ConsistencyError(
            f"spectral metric intertwiner residual {residual:.3e} above bound"
        )
    return MetricCandidate(provenance=MetricProvenance.SPECTRAL, matrix=theta)


@dataclass(frozen=True)
class PositivityReport:
    """Positivity interval of a metric family with the sampled min-eig curve."""

    interval: tuple[float, float] | None
    min_eig_samples: np.ndarray
    tol: float


def _min_eig(m: np.ndarray) -> float:
    m = (m + m.T) / 2
    return float(np.linalg.eigvalsh(m).min())


def _is_positive(m: np.ndarray) -> bool:
    # Cheap factorization first; eigendecomposition settles the near-boundary cases.
    m = (m + m.T) / 2
    try:
        np.linalg.cholesky(m)
        return True
    except np.linalg.LinAlgError:
        return _min_eig(m) > 0


# Where a tracked section cannot be continued the metric does not exist, so
# the point counts as non-positive rather than as a hard failure.
_SECTION_GAPS = (BrokenPhaseError, DegenerateSpectrumError, TrackingError)


def _sample_min_eig(candidate: MetricCandidate, t: float) -> float:
    try:
        return _min_eig(candidate.at(t))
    except _SECTION_GAPS:
        return -math.inf


def _sample_positive(candidate: MetricCandidate, t: float) -> bool:
    try:
        return _is_positive(candidate.at(t))
    except _SECTION_GAPS:
        return False


def positivity_interval(
    candidate: MetricCandidate,
    lo: float,
    hi: float,
    tol: float,
    *,
    coarse_steps: int | None = None,
) -> PositivityReport:
    """Refined maximal sub-interval of [lo, hi] where Theta(t) is positive.

    The coarse scan locates sign runs of the minimal eigenvalue; each edge
    of the widest positive run is then bisected to the requested bracket.
    If no sample is positive the report is empty (interval=None).
    """
    check_bracket(lo, hi, tol)
    steps = grid_steps(
        lo, hi, coarse_steps if coarse_steps is not None else POSITIVITY_STEPS
    )
    grid = np.linspace(lo, hi, steps)
    curve = np.array([_sample_min_eig(candidate, t) for t in grid])
    samples = np.column_stack([grid, curve])
    positive = curve > 0
    if not positive.any():
        return PositivityReport(interval=None, min_eig_samples=samples, tol=tol)

    edges = np.diff(positive.astype(int), prepend=0, append=0)
    runs = zip(np.flatnonzero(edges == 1), np.flatnonzero(edges == -1) - 1)
    first, last = max(runs, key=lambda r: grid[r[1]] - grid[r[0]])

    def bisect(pos_t: float, neg_t: float) -> float:
        return bisect_edge(lambda t: _sample_positive(candidate, t), pos_t, neg_t, tol)

    left = grid[first] if first == 0 else bisect(grid[first], grid[first - 1])
    right = grid[last] if last == len(grid) - 1 else bisect(grid[last], grid[last + 1])
    return PositivityReport(interval=(float(left), float(right)), min_eig_samples=samples, tol=tol)


# Longest t-step of a section march, and the least share of the norm a
# projection onto the next kernel may keep before the branch counts as lost.
_SECTION_STEP = 1.0 / 400.0
_SECTION_MIN_OVERLAP = 0.5


class MetricSection:
    """One continuous branch of the intertwiner kernel along t.

    Kernel bases from a generic solver are arbitrarily gauged per call, so
    the section marches in steps of at most _SECTION_STEP from the seed,
    projecting the previous metric onto each new kernel and renormalizing
    the trace.  A projection that loses more than half the norm means the
    branch was lost and raises.  Anchors are cached so repeated probes stay
    cheap.
    """

    def __init__(self, family, *, t_seed: float = 0.0):
        self.family = family
        n = family.n
        basis = intertwiner_basis(family.matrix(t_seed))
        seed = self._project(np.eye(n), basis, t_seed)
        self._anchors: dict[float, np.ndarray] = {float(t_seed): seed}

    def _project(self, theta_prev: np.ndarray, basis: SolutionBasis, t: float) -> np.ndarray:
        coeffs = np.array([float(np.tensordot(b, theta_prev)) for b in basis.elements])
        theta = sum(c * b for c, b in zip(coeffs, basis.elements))
        overlap = float(np.linalg.norm(theta)) / max(
            float(np.linalg.norm(theta_prev)), np.finfo(float).tiny
        )
        if overlap < _SECTION_MIN_OVERLAP:
            raise TrackingError(
                f"section lost at t={t}: projection kept only {overlap:.2f} of the norm"
            )
        trace = float(np.trace(theta))
        if trace <= 0:
            raise TrackingError(f"section lost at t={t}: nonpositive trace")
        return theta * (self.family.n / trace)

    def value(self, t: float) -> np.ndarray:
        """Tracked Theta(t); marches from the nearest cached anchor."""
        t = float(t)
        anchor_t = min(self._anchors, key=lambda a: abs(t - a))
        theta = self._anchors[anchor_t]
        distance = abs(t - anchor_t)
        if distance == 0.0:
            return theta
        steps = max(1, math.ceil(distance / _SECTION_STEP))
        for k in range(1, steps + 1):
            tk = anchor_t + (t - anchor_t) * k / steps
            basis = intertwiner_basis(self.family.matrix(tk))
            theta = self._project(theta, basis, tk)
            self._anchors[float(tk)] = theta
        return theta


def tracked_positivity_boundary(
    family, tol: float, *, search_max: float = 1.2
) -> float:
    """First loss of positivity of the tracked metric section above t = 0.

    Probes march upward in section steps; a probe counts as lost when the
    tracked metric stops being positive definite or the kernel itself
    degenerates (broken phase or eigenvalue collision).  The edge is then
    bisected to the requested bracket width.

    The endpoint is a property of the projection-transported section: the
    kernel bundle admits many smooth sections through the same seed, and
    which one the transport follows is part of the method.  Only when
    positivity is lost at a domain-ending exceptional point -- where the
    whole solution cone degenerates at once -- is the endpoint
    section-independent and comparable across constructions.
    """
    if tol <= 0:
        raise InvalidSpecError(f"tol must be positive, got {tol}")
    section = MetricSection(family)

    def alive(t: float) -> bool:
        try:
            return _is_positive(section.value(t))
        except _SECTION_GAPS:
            return False

    good = 0.0
    t = 0.0
    while t < search_max:
        t = min(search_max, t + _SECTION_STEP)
        if not alive(t):
            break
        good = t
    else:
        raise BracketError(
            f"metric stayed positive on [0.0, {search_max}]; no boundary found"
        )
    return bisect_edge(alive, good, t, tol)


def recoupled_metric_boundary(tol: float) -> float:
    """Positivity boundary of the numerically tracked recoupled-ring metric."""
    from .models import Model, get_family

    return tracked_positivity_boundary(get_family(Model.EC4_RECOUPLED), tol)
