"""Metric operators solving the intertwiner relation H^T Theta = Theta H.

The solution space over symmetric matrices is the SVD kernel of
``intertwiner``; positive candidates are certified by minimum-eigenvalue
sign, and two closed-form reference families are provided for the
equal-coupling ring and its strengthened-bond variant.  For families
without a closed form the positivity domain is mapped by tracking one
continuous section of the kernel along t.

positivity_interval and tracked_positivity_boundary march a tracked
section through MetricSection.values, which plans a chunk of points and
solves the kernels of their steps ahead, keyed by t_k, in stacks
(intertwiner_bases); the coarse grid takes one stacked eigvalsh per chunk.
Bisection stays point by point.
"""

from __future__ import annotations

import copy
import math
from bisect import bisect_left, insort
from dataclasses import dataclass
from enum import Enum
from itertools import islice
from typing import Callable

import numpy as np

from .errors import (
    BracketError,
    BrokenPhaseError,
    ConsistencyError,
    DegenerateSpectrumError,
    InvalidSpecError,
    ModelDomainError,
    TrackingError,
)
from .domains import bisect_edge
from .intertwiner import (
    SolutionBasis,
    intertwiner_bases,
    intertwiner_basis,
    intertwiner_residual,
)
from .lattice import check_square
from .spectra import count_real, eigenvalues, left_right_pairs
from .tolerances import EPS_METRIC, POSITIVITY_STEPS, check_bracket, grid_steps


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


def _min_eig(m: np.ndarray):
    """Least eigenvalue of (m + m^T)/2, per matrix of a stack; positive definite means > 0."""
    # Halved before the sum: the same bits above the subnormals, and a finite m stays finite.
    return np.linalg.eigvalsh(m / 2 + m.swapaxes(-1, -2) / 2).min(axis=-1)


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
    if not np.all(np.isfinite(weights) & (weights > 0)):
        raise InvalidSpecError("weights must be positive and finite")
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
    min_eig = float(_min_eig(theta))
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


# Where a tracked section cannot be continued the metric does not exist, so
# the point counts as non-positive rather than as a hard failure.
_SECTION_GAPS = (BrokenPhaseError, DegenerateSpectrumError, TrackingError)


def _sample(candidate: MetricCandidate, t: float):
    """Theta(t), or the error where a tracked section cannot be continued."""
    try:
        return candidate.at(t)
    except _SECTION_GAPS as exc:
        return exc.with_traceback(None)


def _positive(theta) -> bool:
    """Whether a sampled metric is positive definite; a gap error is not."""
    return not isinstance(theta, Exception) and bool(_min_eig(theta) > 0)


def _tracked_section(candidate: MetricCandidate) -> "MetricSection | None":
    """The section whose bound value method is the candidate's family, if any."""
    section = getattr(candidate.family, "__self__", None)
    if isinstance(section, MetricSection) and candidate.family == section.value:
        return section
    return None


def _min_eig_curve(candidate: MetricCandidate, grid: np.ndarray) -> np.ndarray:
    """The minimal eigenvalue of the candidate at each grid point, -inf in a gap.

    A tracked section marches the grid through MetricSection.values; other
    candidates are evaluated point by point.  Each chunk of metrics goes
    through one stacked eigvalsh.  A metric entry that overflowed raises
    ModelDomainError; bisection then stays between two finite grid points,
    where the closed forms, growing with |t|, stay finite too.
    """
    section = _tracked_section(candidate)
    if section is not None:
        thetas = section.values(grid)
    else:
        thetas = (_sample(candidate, t) for t in grid)
    curve = np.full(grid.size, -math.inf)
    for start in range(0, grid.size, _CHUNK_STEPS):
        chunk = list(islice(thetas, _CHUNK_STEPS))
        alive = [k for k, theta in enumerate(chunk) if not isinstance(theta, Exception)]
        if alive:
            stack = np.stack([chunk[k] for k in alive])
            if not np.isfinite(stack).all():
                t = float(grid[start + alive[np.isfinite(stack).all(axis=(1, 2)).argmin()]])
                name = candidate.provenance.value
                raise ModelDomainError(
                    f"{name} metric: an entry is not finite in double precision at t={t}", t=t
                )
            curve[start + np.array(alive)] = _min_eig(stack)
    return curve


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
    If no sample is positive the report is empty (interval=None).  A
    candidate built on a MetricSection's value method samples the coarse
    grid in planned chunks; bisection stays point by point.
    """
    check_bracket(lo, hi, tol)
    steps = grid_steps(
        lo, hi, coarse_steps if coarse_steps is not None else POSITIVITY_STEPS
    )
    grid = np.linspace(lo, hi, steps)
    curve = _min_eig_curve(candidate, grid)
    samples = np.column_stack([grid, curve])
    positive = curve > 0
    if not positive.any():
        return PositivityReport(interval=None, min_eig_samples=samples, tol=tol)

    edges = np.diff(positive.astype(int), prepend=0, append=0)
    runs = zip(np.flatnonzero(edges == 1), np.flatnonzero(edges == -1) - 1)
    first, last = max(runs, key=lambda r: grid[r[1]] - grid[r[0]])

    def bisect(pos_t: float, neg_t: float) -> float:
        return bisect_edge(lambda t: _positive(_sample(candidate, t)), pos_t, neg_t, tol)

    left = grid[first] if first == 0 else bisect(grid[first], grid[first - 1])
    right = grid[last] if last == len(grid) - 1 else bisect(grid[last], grid[last + 1])
    return PositivityReport(interval=(float(left), float(right)), min_eig_samples=samples, tol=tol)


# Longest t-step of a section march, and the least share of the norm a
# projection onto the next kernel may keep before the branch counts as lost.
_SECTION_STEP = 1.0 / 400.0
_SECTION_MIN_OVERLAP = 0.5
# Steps whose kernels a planned march solves in one stack, and points whose
# metrics share one stacked eigvalsh; it bounds what is held ahead of use.
_CHUNK_STEPS = 32


class MetricSection:
    """One continuous branch of the intertwiner kernel along t.

    Kernel bases from a generic solver are arbitrarily gauged per call, so
    the section marches in steps of at most _SECTION_STEP from the seed,
    projecting the previous metric onto each new kernel and renormalizing
    the trace.  A projection that loses more than half the norm means the
    branch was lost and raises.  Anchors are cached so repeated probes stay
    cheap, and kept in sorted order so the nearest one is found by bisection.

    A march is a plan and its execution.  The plan (_plan) is the nearest
    anchor and the steps t_k, which depend on the anchor ts alone.  values()
    plans a chunk of points on a shadow copy of the anchors, solves their
    steps' kernels ahead in stacks of _CHUNK_STEPS, keyed by t_k, then
    marches each point in order with value(), which replans it on the real
    anchors and takes each step's kernel solved ahead, or solves it alone.
    A kernel depends on its step alone, so the result and the point of
    failure are those of value(t) called point after point.
    """

    def __init__(self, family, *, t_seed: float = 0.0):
        self.family = family
        n = family.n
        basis = intertwiner_basis(family.matrix(t_seed))
        seed = self._project(np.eye(n), basis, t_seed)
        # Anchor t -> (insertion rank, Theta), and the anchor ts sorted.
        self._anchors: dict[float, tuple[int, np.ndarray]] = {}
        self._keys: list[float] = []
        self._store(float(t_seed), seed)
        # Step t_k -> its kernel, or the error solving it raises, from values().
        self._ahead: dict[float, SolutionBasis | Exception] = {}

    def _store(self, t: float, theta: np.ndarray) -> None:
        if t in self._anchors:
            self._anchors[t] = (self._anchors[t][0], theta)
        else:
            self._anchors[t] = (len(self._anchors), theta)
            insort(self._keys, t)

    def _nearest_anchor(self, t: float) -> float:
        """The nearest anchor to t; on a tie, the one inserted first.

        Rounded distances |t - a| never shrink away from t, so the anchors
        at the least distance form one run of sorted keys beside t.
        """
        keys = self._keys
        p = bisect_left(keys, t)
        best = min(abs(t - keys[i]) for i in (p - 1, p) if 0 <= i < len(keys))
        lo = hi = p
        while lo > 0 and abs(t - keys[lo - 1]) == best:
            lo -= 1
        while hi < len(keys) and abs(t - keys[hi]) == best:
            hi += 1
        return min(keys[lo:hi], key=lambda a: self._anchors[a][0])

    def _plan(self, t: float) -> tuple[float, list[float]]:
        """The anchor a march to t starts from, and its steps t_k."""
        anchor_t = self._nearest_anchor(t)
        distance = abs(t - anchor_t)
        if distance == 0.0:
            return anchor_t, []
        steps = max(1, math.ceil(distance / _SECTION_STEP))
        return anchor_t, [anchor_t + (t - anchor_t) * k / steps for k in range(1, steps + 1)]

    def _project(self, theta_prev: np.ndarray, basis: SolutionBasis, t: float) -> np.ndarray:
        elements = np.stack(basis.elements)
        # An (n, 1, k) @ (k, 1) product: one dot per element, bit for bit
        # np.tensordot(b, theta_prev); the ordered sum below keeps its bits too.
        coeffs = (elements.reshape(len(elements), 1, -1) @ theta_prev.reshape(-1, 1)).ravel()
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
        anchor_t, steps = self._plan(float(t))
        theta = self._anchors[anchor_t][1]
        for tk in steps:
            basis = self._ahead.pop(tk, None)
            if basis is None:
                basis = intertwiner_basis(self.family.matrix(tk))
            elif isinstance(basis, Exception):
                raise basis
            theta = self._project(theta, basis, tk)
            self._store(tk, theta)
        return theta

    def _plan_chunk(self, ts: list, start: int) -> tuple[int, list[float]]:
        """End of the chunk of ts from start, and the steps its marches plan.

        The points are planned in order on a shadow copy of the anchors,
        each as if every march before it had succeeded, until the chunk
        holds at least _CHUNK_STEPS steps.
        """
        shadow = copy.copy(self)
        shadow._anchors = dict(self._anchors)
        shadow._keys = list(self._keys)
        steps: list[float] = []
        stop = start
        while stop < len(ts) and len(steps) < _CHUNK_STEPS:
            _, planned = shadow._plan(ts[stop])
            for tk in planned:
                shadow._store(tk, None)
            steps += planned
            stop += 1
        return stop, steps

    def _solve_ahead(self, steps: list) -> None:
        """Solve the kernels of steps ahead, _CHUNK_STEPS to a stack, up to
        the first stack with an error row (no march passes it) or one that
        the family or the stack rejects (value() solves those steps alone)."""
        for k in range(0, len(steps), _CHUNK_STEPS):
            window = steps[k:k + _CHUNK_STEPS]
            try:
                rows = intertwiner_bases(self.family.matrices(window))
            except Exception:
                return
            self._ahead.update(zip(window, rows))
            if any(isinstance(row, Exception) for row in rows):
                return

    def values(self, ts):
        """Tracked Theta at each t in order, as value(t) gives them one by one.

        Yields value(t), or the BrokenPhaseError, DegenerateSpectrumError or
        TrackingError that it raises; any other error propagates.  A chunk
        is marched only as far as the caller takes its points.  After a
        point fails, the next one marches alone without a plan, since a
        plan made past a lost section would be spent on kernels no march
        reaches; planning resumes after the next point that succeeds.
        """
        ts = [float(t) for t in ts]
        start, lost = 0, False
        while start < len(ts):
            if lost:
                stop = start + 1
            else:
                stop, steps = self._plan_chunk(ts, start)
                self._solve_ahead(steps)
            try:
                for t in ts[start:stop]:
                    start += 1
                    try:
                        theta, lost = self.value(t), False
                    except _SECTION_GAPS as exc:
                        theta, lost = exc.with_traceback(None), True
                    yield theta
                    if lost:
                        break
            finally:
                self._ahead.clear()


def tracked_positivity_boundary(
    family, tol: float, *, search_max: float = 1.2
) -> float:
    """First loss of positivity of the tracked metric section above t = 0.

    Probes march upward in section steps; a probe counts as lost when the
    tracked metric stops being positive definite or the kernel itself
    degenerates (broken phase or eigenvalue collision).  The edge is then
    bisected to the requested bracket width.  The probes go through one
    MetricSection.values march, which plans and solves them one chunk at a
    time and marches no further than the first lost one.

    The endpoint is a property of the projection-transported section: the
    kernel bundle admits many smooth sections through the same seed, and
    which one the transport follows is part of the method.  Only when
    positivity is lost at a domain-ending exceptional point -- where the
    whole solution cone degenerates at once -- is the endpoint
    section-independent and comparable across constructions.
    """
    check_bracket(0.0, search_max, tol)
    section = MetricSection(family)
    candidate = MetricCandidate(MetricProvenance.BASIS_COMBINATION, family=section.value)

    ts = [0.0]
    while ts[-1] < search_max:
        ts.append(min(search_max, ts[-1] + _SECTION_STEP))
    probes = section.values(ts[1:])
    for good, t, theta in zip(ts, ts[1:], probes):
        if not _positive(theta):
            probes.close()  # drops the kernels solved ahead of the probes
            return bisect_edge(lambda u: _positive(_sample(candidate, u)), good, t, tol)
    raise BracketError(
        f"metric stayed positive on [0.0, {search_max}]; no boundary found"
    )
