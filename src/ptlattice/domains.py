"""Reality domains in the coupling parameter t.

A model family's spectrum partitions a t-interval into maximal sub-intervals
with a constant number of real eigenvalues.  This module reports such a
partition, marks the exceptional points at its boundaries and inside its
intervals, and extracts "islands" where exactly k eigenvalues stay real.

For a family that the exact engine takes (``exact.reality_map``: the
entries fold into Q[t] and the discriminant degree bound is at most
``exact.MAX_DISC_DEGREE``), the partition is read off the family's
reality map: its edges are the correctly rounded real roots of the
discriminant where the exact real count changes, and every root inside the
range is tested as an exceptional point at that root, all roots in one
stacked eigensolve and one stacked cluster count (``spectra``'s
single-linkage rule).  No grid is solved or assembled: an interval
enclosure proves the range's entries defined and finite, and only where it
cannot are the grid's entries checked.  Neither ``eps_real`` nor the grid
size moves a count, and ``reality_islands``, which reports no marker,
solves nothing.

Every other family takes the float path.  It reads the partition off one
coarse grid, refines the transition points by bisection, and (for
``domain_report``'s markers) tests strict local minima of the eigenvalue gap
by golden-section search.  A coarse grid is one batch:
``ModelFamily.matrices`` assembles its whole stack, one stacked LAPACK call
solves it, and the row-wise rules of ``spectra`` give every real count and
gap at once.  Bisection and golden-section search stay point by point,
since each step depends on the one before.
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
from .spectra import (
    _EPS,
    _frobenius_scales,
    _index_pairs,
    _largest_clusters,
    _perturbation_orders,
    count_real,
    count_real_rows,
    min_pairwise_gap,
    min_pairwise_gaps,
    vector_angle,
)
from .tolerances import (
    ANGLE_TOL,
    EPS_GAP,
    EPS_REAL,
    check_bracket,
    check_eps_real,
    check_tol,
    grid_steps,
)

_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0


class EPKind(Enum):
    """How eigenvalues meet at an exceptional point.

    COMPLEXIFICATION: a real pair collides and leaves the real axis, so the
    real count jumps across the point.  REAL_COALESCENCE: real eigenvalues
    merge while the real count stays the same on both sides.
    COMPLEX_COALESCENCE: non-real eigenvalues merge off the real axis, as two
    conjugate pairs meeting in a quartet.
    """

    COMPLEXIFICATION = "complexification"
    REAL_COALESCENCE = "real-coalescence"
    COMPLEX_COALESCENCE = "complex-coalescence"


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


def bisect_edge(keep, inside: float, outside: float, tol: float) -> float:
    """Midpoint of a bracket bisected to width tol around where keep(t) flips.

    keep must hold at inside and fail at outside; inside may lie on either
    side of outside.  Every t-edge in the package (reality boundaries,
    positivity edges, the loss of a tracked section) is refined here.
    Where adjacent doubles lie more than tol apart, it stops at two of them.
    """
    while abs(outside - inside) > tol:
        mid = (inside + outside) / 2
        if mid == inside or mid == outside:
            break
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


def degeneracy_order(h, tol: float) -> int:
    """Largest eigenvalue-cluster size at linkage threshold tol * max(1, ||h||_F)."""
    stack = check_square(h)[None]
    check_tol(tol)
    threshold = tol * float(_frobenius_scales(stack)[0])
    return int(_largest_clusters(np.linalg.eigvals(stack), [[threshold]])[0, 0])


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
        scale = _frobenius_scales(h[None])[0]
        if min_pairwise_gap(np.linalg.eigvals(h)) <= EPS_GAP * scale:
            raise DegenerateSpectrumError(
                f"spectrum already degenerate at bracket endpoint t={endpoint}"
            )

    return _coalescence_at(family, _golden_minimize(gap_at, lo, hi, tol), tol)


def _coalescence_at(family, t_star: float, tol: float) -> EPLocation:
    """The one-row call of _markers at a crossing: the marker at t_star, or its EpNotFoundError."""
    out = _markers(family.matrix(t_star)[None], [t_star], [True], tol)
    if isinstance(out[0], Exception):
        raise out.pop()  # popped, as in intertwiner_basis
    return out[0]


def _markers(stack, ts, crossing, tol: float) -> list:
    """The EP marker at each t of ts, where stack holds the model's matrices there.

    A t where crossing is false is a count change, marked as a
    complexification point whose residual is the bracket width tol.  Any
    other t is a crossing, accepted where the closest eigenvectors align:
    its entry is then the coalescence EPLocation, of kind
    COMPLEX_COALESCENCE where the closest pair meets off the real axis, and
    otherwise the EpNotFoundError that rejects it.  The order is the cluster
    size at the u^(1/k) noise radius, scaled by max(1, ||H||_F) as
    _frobenius_scales takes it, and at least 2 at a count change.

    One stacked eig solves every row where any t is a crossing, else one
    stacked eigvals.  The rows are complex wherever any row is, where a
    one-row call of an all-real row is real; every quantity below takes the
    same value from a real row as from that row with zero imaginary parts.
    """
    if any(crossing):
        rows, bases = np.linalg.eig(stack)
    else:
        rows, bases = np.linalg.eigvals(stack), None
    orders = _perturbation_orders(rows, _frobenius_scales(stack)).tolist()
    i, j = _index_pairs(stack.shape[1])
    out: list = []
    for k, (t_star, order, crosses) in enumerate(zip(ts, orders, crossing)):
        if not crosses:
            out.append(
                EPLocation(
                    t_star=float(t_star),
                    order=max(2, order),
                    kind=EPKind.COMPLEXIFICATION,
                    residual=float(tol),
                )
            )
            continue
        if order < 2:
            out.append(EpNotFoundError(f"no eigenvalue cluster at the gap minimum t={t_star!r}"))
            continue
        values, vectors = rows[k], bases[k]
        # The closest pair; on a tie, the first in row-major order.
        closest = np.abs(values[i] - values[j]).argmin()
        a, b = i[closest], j[closest]
        angle = vector_angle(vectors[:, a], vectors[:, b])
        acceptance = max(ANGLE_TOL, 50.0 * _EPS ** (1.0 / order))
        if angle > acceptance:
            out.append(
                EpNotFoundError(
                    f"closest eigenvectors stay {angle:.3e} apart at t={t_star!r}; "
                    "the gap minimum is an avoided crossing"
                )
            )
            continue
        radius = float(np.abs(values).max())
        off_axis = abs((values[a] + values[b]).imag) / 2 > EPS_REAL * max(1.0, radius)
        out.append(
            EPLocation(
                t_star=float(t_star),
                order=order,
                kind=EPKind.COMPLEX_COALESCENCE if off_axis else EPKind.REAL_COALESCENCE,
                residual=float(angle),
            )
        )
    return out


def _grid_within(lo: float, hi: float, steps: int) -> bool:
    """Whether every point of np.linspace(lo, hi, steps) lies in [lo, hi], for float ends.

    Point i < steps - 1 is lo + i * ((hi - lo) / (steps - 1)) in doubles
    (lo + (i / (steps - 1)) * (hi - lo) where that step underflows to 0),
    and the last is hi.  Each operation rounds monotonically, so no point
    lies below lo and the largest interior one is that at i = steps - 2.
    Other ends linspace converts (an int) or takes in another precision (a
    float32), so they are not decided here.
    """
    if not (isinstance(lo, float) and isinstance(hi, float)):
        return False
    div, delta, i = steps - 1, hi - lo, float(steps - 2)
    step = delta / div
    return lo + (i * step if step else i / div * delta) <= hi


def _exact_partition(family, rmap, lo: float, hi: float, tol: float) -> tuple:
    """(intervals, markers) of [lo, hi] read off a reality map; markers() gives the EP markers.

    A root inside (lo, hi) where the count changes is an edge, marked as a
    complexification point; any other root inside is marked where the
    eigenvector-alignment test accepts it.  A root on lo or hi is an edge of
    the range, not a cell, and takes no marker.  One stack of matrix(t) at
    the roots serves every marker: for the few roots of a range, building
    each matrix costs less than the fixed cost of a matrices call.
    """
    edges, levels, crossing = [float(lo)], [rmap.count_above(lo)], []
    roots = rmap.roots_inside(lo, hi)
    for root in roots:
        count = rmap.count_above(root)
        crossing.append(count == levels[-1])
        if not crossing[-1]:
            edges.append(root)
            levels.append(count)
    edges.append(float(hi))

    def markers() -> tuple:
        if not roots:
            return ()
        stack = np.stack([family.matrix(root) for root in roots])
        # A crossing whose eigenvectors stay apart takes no marker.
        found = _markers(stack, roots, crossing, tol)
        return tuple(m for m in found if not isinstance(m, EpNotFoundError))

    return tuple(zip(edges, edges[1:], levels)), markers


def _partition(family, lo, hi, coarse_steps, tol: float, eps_real: float) -> tuple:
    """(intervals, markers) of [lo, hi]: the partition, and a function giving its EP markers.

    The range and the options are checked, and the entries proved or
    checked, as domain_report documents; no marker is solved until
    markers() is called.
    """
    check_bracket(lo, hi, tol)
    check_eps_real(eps_real)
    steps = grid_steps(lo, hi, coarse_steps)
    # The ends first, so a range reaching past the validity interval is
    # reported at its end; check_entries and matrices check every point.
    family.check_validity(float(lo))
    family.check_validity(float(hi))
    from .exact import reality_map

    rmap = reality_map(family)
    if rmap is not None:
        if not (_grid_within(lo, hi, steps) and family.certify_entries(lo, hi)):
            family.check_entries(np.linspace(lo, hi, steps))
        return _exact_partition(family, rmap, lo, hi, tol)
    grid = np.linspace(lo, hi, steps)
    return _grid_partition(family, grid, family.matrices(grid), lo, hi, tol, eps_real)


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

    An entry undefined or not finite inside the range raises matrix(t)'s
    error at its first point on the coarse grid of
    grid_steps(lo, hi, coarse_steps) points.

    For a family the exact engine takes, the partition comes from its
    reality map (``_exact_partition``): edges are the correctly rounded
    discriminant roots where the real count changes, and boundary_tol
    bounds their distance from the exact roots.  No grid is solved: an
    interval enclosure of the entries over the range
    (``ModelFamily.certify_entries``) proves them defined and finite at
    every double t of it, and only where it cannot are the grid's entries
    checked (``ModelFamily.check_entries``), without building its stack.
    The markers at the range's roots take one stack of the model's matrices
    and one stacked eigensolve.

    Otherwise the grid is the one scan: each interval takes the real count
    of the grid points it covers, so a window narrower than a grid cell may
    go unseen.  Count transitions are refined by bisection and marked as
    complexification points; strict local minima of the eigenvalue gap in
    the interior of an interval are tested as coalescence candidates and
    kept only when the eigenvector-alignment test accepts them.
    """
    intervals, markers = _partition(family, lo, hi, coarse_steps, tol, eps_real)
    return DomainReport(
        lo=float(lo),
        hi=float(hi),
        intervals=intervals,
        eps=markers(),
        boundary_tol=float(tol),
    )


def _grid_partition(family, grid, stack, lo: float, hi: float, tol: float, eps_real: float):
    """(intervals, markers) of [lo, hi] read off the grid's matrix stack.

    markers() gives the EP markers: the boundaries' and the accepted
    golden-section minima of the gap.
    """
    rows = np.linalg.eigvals(stack)
    counts = count_real_rows(rows, eps_real)

    # Each cell whose ends differ in count holds one boundary, so every
    # interval covers at least one grid point and takes its count from them.
    cells = np.flatnonzero(counts[:-1] != counts[1:])
    boundaries = [
        refine_reality_boundary(family, grid[i], grid[i + 1], tol, eps_real=eps_real)
        for i in cells
    ]
    edges = [lo, *boundaries, hi]
    levels = counts[[0, *(cells + 1)]].tolist()
    intervals = tuple(zip(map(float, edges), map(float, edges[1:]), levels))

    def markers() -> tuple:
        found = []
        if boundaries:
            stack = np.stack([family.matrix(b) for b in boundaries])
            found = _markers(stack, boundaries, [False] * len(boundaries), tol)

        gaps = min_pairwise_gaps(rows)
        spacing = (hi - lo) / (len(grid) - 1)
        minima = 1 + np.flatnonzero((gaps[1:-1] < gaps[:-2]) & (gaps[1:-1] <= gaps[2:]))
        interior: list[EPLocation] = []
        for a, b, _ in intervals:
            for i in minima[(a < grid[minima - 1]) & (grid[minima + 1] < b)]:
                try:
                    ep = locate_coalescence_ep(family, grid[i - 1], grid[i + 1], tol)
                except (EpNotFoundError, DegenerateSpectrumError):
                    continue
                if any(abs(ep.t_star - other.t_star) <= spacing for other in interior):
                    continue
                interior.append(ep)
        return tuple(sorted(found + interior, key=lambda e: e.t_star))

    return intervals, markers


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
    """Sub-intervals of [lo, hi] where exactly k eigenvalues are real.

    They are the intervals of domain_report with that count, from the same
    checks and the same partition.  No EP marker is solved: on the exact
    path no matrix is built and nothing reaches LAPACK, and on the float
    path no golden-section search runs.
    """
    if k < 0 or k > family.n or (family.n - k) % 2 != 0:
        # Complex eigenvalues come in conjugate pairs, so the real count
        # has the parity of n.
        raise InvalidSpecError(f"unreachable real count {k} for n={family.n}")
    intervals, _ = _partition(family, lo, hi, coarse_steps, tol, eps_real)
    return tuple((a, b) for a, b, count in intervals if count == k)
