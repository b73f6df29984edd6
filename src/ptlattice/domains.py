"""Reality domains in the coupling parameter t.

A model family's spectrum partitions a t-interval into maximal sub-intervals
with a constant number of real eigenvalues.  This module scans such
profiles, refines the transition points by bisection, classifies the
exceptional points sitting at domain boundaries or inside domains, and
extracts "islands" where exactly k eigenvalues stay real.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import (
    BracketError,
    DegenerateSpectrumError,
    EpNotFoundError,
    InvalidSpecError,
)
from .lattice import check_square
from .spectra import count_real, min_pairwise_gap, vector_angle
from .tolerances import (
    ANGLE_TOL,
    EPS_GAP,
    EPS_REAL,
    MAX_GRID_POINTS,
    POINTS_PER_UNIT,
)

_EPS = float(np.finfo(float).eps)
_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0


@dataclass(frozen=True)
class RealityProfile:
    """Real-eigenvalue counts sampled on a t-grid."""

    grid: np.ndarray
    counts: np.ndarray


class EPKind(Enum):
    """How eigenvalues meet at an exceptional point.

    COMPLEXIFICATION: a real pair collides and leaves the real axis, so the
    real count jumps across the point.  REAL_COALESCENCE: eigenvalues merge
    while the spectrum stays real on both sides.
    """

    COMPLEXIFICATION = "complexification"
    REAL_COALESCENCE = "real-coalescence"


@dataclass(frozen=True)
class EPLocation:
    """A located exceptional point: position, order, kind, and a residual.

    For coalescence points the residual is the eigenvector alignment angle;
    for complexification points it is the bisection bracket width.
    """

    t_star: float
    order: int
    kind: EPKind
    residual: float


@dataclass(frozen=True)
class DomainReport:
    """Partition of [lo, hi] into constant-real-count intervals.

    intervals: tuples (lo, hi, count) tiling the scanned range.
    eps: located exceptional points, sorted by position.
    boundary_tol: bracket width to which each boundary was refined.
    """

    lo: float
    hi: float
    intervals: tuple
    eps: tuple
    boundary_tol: float


def grid_steps(lo: float, hi: float, steps: int | None = None) -> int:
    """Number of grid points on [lo, hi], bounded by MAX_GRID_POINTS.

    steps=None picks the automatic density of POINTS_PER_UNIT points per
    unit of t.  A count below 2 or above the bound raises InvalidSpecError.
    """
    if steps is None:
        density = min((hi - lo) * POINTS_PER_UNIT, MAX_GRID_POINTS)
        steps = max(2, math.ceil(density) + 1)
    if steps < 2:
        raise InvalidSpecError(f"need at least 2 grid points (--steps), got {steps}")
    if steps > MAX_GRID_POINTS:
        raise InvalidSpecError(
            f"the grid on [{lo}, {hi}] would exceed {MAX_GRID_POINTS} points; "
            "give fewer --steps or a narrower --t-min/--t-max range"
        )
    return steps


def check_bracket(lo: float, hi: float, tol: float) -> None:
    """Reject a t-range that is not finite and increasing, or a bad tol."""
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise InvalidSpecError(
            f"t-range (--t-min, --t-max) must be finite, got [{lo}, {hi}]"
        )
    if not lo < hi:
        raise InvalidSpecError(f"need lo < hi (--t-min < --t-max), got [{lo}, {hi}]")
    if not (math.isfinite(tol) and tol > 0):
        raise InvalidSpecError(f"tol (--tol) must be positive and finite, got {tol}")


def check_eps_real(eps_real: float) -> None:
    """Reject a reality threshold that is negative or not finite."""
    if not (math.isfinite(eps_real) and eps_real >= 0):
        raise InvalidSpecError(
            f"eps_real (--eps-real) must be non-negative and finite, got {eps_real}"
        )


def _grid_eigenvalues(family, grid: np.ndarray) -> np.ndarray:
    """Eigenvalue rows for each grid point (unsorted, no polish)."""
    family.check_validity(float(grid[0]))
    family.check_validity(float(grid[-1]))
    return np.linalg.eigvals(np.stack([family.matrix(t) for t in grid]))


def reality_profile(family, grid, *, eps_real: float = EPS_REAL) -> RealityProfile:
    """Count real eigenvalues of the family at every grid point."""
    grid = np.asarray(grid, dtype=float)
    if grid.ndim != 1 or grid.size < 1:
        raise InvalidSpecError("grid must be a nonempty 1-d array")
    check_eps_real(eps_real)
    rows = _grid_eigenvalues(family, grid)
    counts = np.array([count_real(row, eps_real) for row in rows])
    return RealityProfile(grid=grid, counts=counts)


def bisect_edge(keep, inside: float, outside: float, tol: float) -> float:
    """Midpoint of a bracket bisected to width tol around where keep(t) flips.

    keep must hold at inside and fail at outside; inside may lie on either
    side of outside.  Every t-edge in the package (reality boundaries,
    positivity edges, the loss of a tracked section) is refined here.
    """
    while abs(outside - inside) > tol:
        mid = (inside + outside) / 2
        if keep(mid):
            inside = mid
        else:
            outside = mid
    return (inside + outside) / 2


def refine_reality_boundary(
    family,
    lo: float,
    hi: float,
    tol: float,
    *,
    eps_real: float = EPS_REAL,
) -> float:
    """Bisect a bracket whose endpoints have different real counts."""
    check_bracket(lo, hi, tol)
    check_eps_real(eps_real)

    def count_at(t: float) -> int:
        return count_real(np.linalg.eigvals(family.matrix(t)), eps_real)

    c_lo = count_at(lo)
    c_hi = count_at(hi)
    if c_lo == c_hi:
        raise BracketError(
            f"real count is {c_lo} at both endpoints of [{lo}, {hi}]"
        )
    return bisect_edge(lambda t: count_at(t) == c_lo, lo, hi, tol)


def _largest_cluster(values: np.ndarray, threshold: float) -> int:
    """Largest single-linkage cluster size at the given distance threshold."""
    n = len(values)
    parent = list(range(n))

    def find(i: int) -> int:
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for i in range(n):
        for j in range(i + 1, n):
            if abs(values[i] - values[j]) <= threshold:
                parent[find(i)] = find(j)
    sizes: dict[int, int] = {}
    for i in range(n):
        r = find(i)
        sizes[r] = sizes.get(r, 0) + 1
    return max(sizes.values())


def degeneracy_order(h, tol: float) -> int:
    """Largest eigenvalue-cluster size at linkage threshold tol * max(1, ||h||)."""
    h = check_square(h)
    if tol <= 0:
        raise InvalidSpecError(f"tol must be positive, got {tol}")
    scale = max(1.0, float(np.linalg.norm(h)))
    return _largest_cluster(np.linalg.eigvals(h), tol * scale)


# Singular values below this fraction of max(1, s_max) count as zero.
_JORDAN_RANK_REL = 1e-10


def maximal_jordan_block(h) -> bool:
    """Whether h is one maximal Jordan block up to numerical rank.

    A single n-fold Jordan block at the mean eigenvalue mu = trace/n has
    rank(h - mu I) = n - 1; the rank is read off the singular values.
    """
    h = check_square(h)
    n = h.shape[0]
    mu = np.trace(h) / n
    s = np.linalg.svd(h - mu * np.eye(n), compute_uv=False)
    rank = int((s > _JORDAN_RANK_REL * max(1.0, float(s[0]))).sum())
    return rank == n - 1


def _perturbation_order(values: np.ndarray, scale: float, n: int) -> int:
    """Largest k for which a k-cluster survives at the k-th-root noise scale.

    An order-k exceptional point perturbed at relative machine noise u
    scatters its eigenvalues over a radius ~ scale * u**(1/k), so the
    cluster test uses a threshold with the same root: a genuine order-k
    collision keeps >= k eigenvalues inside it, while an avoided crossing
    separates much faster and drops out for large k.
    """
    best = 1
    for k in range(2, n + 1):
        threshold = 10.0 * scale * _EPS ** (1.0 / k)
        if _largest_cluster(values, threshold) >= k:
            best = k
    return best


def _golden_minimize(fn, lo: float, hi: float, tol: float) -> float:
    a, b = lo, hi
    c = b - _INVPHI * (b - a)
    d = a + _INVPHI * (b - a)
    fc, fd = fn(c), fn(d)
    while b - a > tol:
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - _INVPHI * (b - a)
            fc = fn(c)
        else:
            a, c, fc = c, d, fd
            d = a + _INVPHI * (b - a)
            fd = fn(d)
    return (a + b) / 2


def locate_coalescence_ep(
    family,
    lo: float,
    hi: float,
    tol: float,
) -> EPLocation:
    """Find an eigenvalue coalescence inside (lo, hi) by gap minimization.

    The minimal pairwise eigenvalue gap is minimized by golden-section
    search; the candidate is accepted as an exceptional point when the
    colliding eigenvectors align.  Both the cluster threshold and the
    angle acceptance widen with the k-th root of machine epsilon because
    an order-k point cannot be resolved more sharply in floating point.
    """
    check_bracket(lo, hi, tol)

    def gap_at(t: float) -> float:
        return min_pairwise_gap(np.linalg.eigvals(family.matrix(t)))

    for endpoint in (lo, hi):
        h = family.matrix(endpoint)
        scale = max(1.0, float(np.linalg.norm(h)))
        if min_pairwise_gap(np.linalg.eigvals(h)) <= EPS_GAP * scale:
            raise DegenerateSpectrumError(
                f"spectrum already degenerate at bracket endpoint t={endpoint}"
            )

    t_star = _golden_minimize(gap_at, lo, hi, tol)
    h = family.matrix(t_star)
    n = h.shape[0]
    scale = max(1.0, float(np.linalg.norm(h)))
    values, vectors = np.linalg.eig(h)
    order = _perturbation_order(values, scale, n)
    if order < 2:
        raise EpNotFoundError(
            f"no eigenvalue cluster at the gap minimum t={t_star!r}"
        )
    pairs = [
        (abs(values[i] - values[j]), i, j)
        for i in range(n)
        for j in range(i + 1, n)
    ]
    _, i, j = min(pairs)
    angle = vector_angle(vectors[:, i], vectors[:, j])
    acceptance = max(ANGLE_TOL, 50.0 * _EPS ** (1.0 / order))
    if angle > acceptance:
        raise EpNotFoundError(
            f"closest eigenvectors stay {angle:.3e} apart at t={t_star!r}; "
            "the gap minimum is an avoided crossing"
        )
    return EPLocation(
        t_star=float(t_star),
        order=order,
        kind=EPKind.REAL_COALESCENCE,
        residual=float(angle),
    )


def _boundary_ep(family, t_star: float, tol: float) -> EPLocation:
    h = family.matrix(t_star)
    scale = max(1.0, float(np.linalg.norm(h)))
    values = np.linalg.eigvals(h)
    order = max(2, _perturbation_order(values, scale, h.shape[0]))
    return EPLocation(
        t_star=float(t_star),
        order=order,
        kind=EPKind.COMPLEXIFICATION,
        residual=float(tol),
    )


def domain_report(
    family,
    lo: float,
    hi: float,
    *,
    coarse_steps: int | None = None,
    tol: float = 1e-10,
    eps_real: float = EPS_REAL,
) -> DomainReport:
    """Partition [lo, hi] into constant-real-count intervals with EP markers.

    The coarse grid has grid_steps(lo, hi, coarse_steps) points.  Count
    transitions are refined by bisection and marked as complexification
    points; strict local minima of the eigenvalue gap in the interior of an
    interval are tested as coalescence candidates and kept only when the
    eigenvector-alignment test accepts them.
    """
    check_bracket(lo, hi, tol)
    check_eps_real(eps_real)
    coarse_steps = grid_steps(lo, hi, coarse_steps)
    grid = np.linspace(lo, hi, coarse_steps)
    rows = _grid_eigenvalues(family, grid)
    counts = np.array([count_real(row, eps_real) for row in rows])
    gaps = np.array([min_pairwise_gap(row) for row in rows])

    boundaries = []
    for i in range(len(grid) - 1):
        if counts[i] != counts[i + 1]:
            boundaries.append(
                refine_reality_boundary(
                    family, grid[i], grid[i + 1], tol, eps_real=eps_real
                )
            )

    edges = [lo, *boundaries, hi]
    intervals = []
    for a, b in zip(edges[:-1], edges[1:]):
        mid = (a + b) / 2
        count = count_real(np.linalg.eigvals(family.matrix(mid)), eps_real)
        intervals.append((float(a), float(b), int(count)))

    markers = [_boundary_ep(family, b, tol) for b in boundaries]

    spacing = (hi - lo) / (coarse_steps - 1)
    interior: list[EPLocation] = []
    for a, b, _ in intervals:
        inside = [
            i
            for i in range(1, len(grid) - 1)
            if a < grid[i - 1] and grid[i + 1] < b
        ]
        for i in inside:
            if gaps[i] < gaps[i - 1] and gaps[i] <= gaps[i + 1]:
                try:
                    ep = locate_coalescence_ep(family, grid[i - 1], grid[i + 1], tol)
                except (EpNotFoundError, DegenerateSpectrumError):
                    continue
                if any(abs(ep.t_star - other.t_star) <= spacing for other in interior):
                    continue
                interior.append(ep)

    eps = tuple(sorted(markers + interior, key=lambda e: e.t_star))
    return DomainReport(
        lo=float(lo),
        hi=float(hi),
        intervals=tuple(intervals),
        eps=eps,
        boundary_tol=float(tol),
    )


def reality_islands(
    family,
    lo: float,
    hi: float,
    k: int,
    *,
    coarse_steps: int | None = None,
    tol: float = 1e-10,
    eps_real: float = EPS_REAL,
) -> tuple:
    """Sub-intervals of [lo, hi] where exactly k eigenvalues are real."""
    if k < 0 or k > family.n or (family.n - k) % 2 != 0:
        # Complex eigenvalues come in conjugate pairs, so the real count
        # has the parity of n.
        raise InvalidSpecError(f"unreachable real count {k} for n={family.n}")
    report = domain_report(
        family, lo, hi, coarse_steps=coarse_steps, tol=tol, eps_real=eps_real
    )
    return tuple((a, b) for a, b, count in report.intervals if count == k)
