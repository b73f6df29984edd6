"""Metric operators solving the intertwiner relation H^T Theta = Theta H.

The solution space over symmetric matrices is the kernel that
``intertwiner`` solves; positive candidates are certified by minimum-eigenvalue
sign, and two closed-form reference families are provided for the
equal-coupling ring and its strengthened-bond variant.  For families
without a closed form the positivity domain is mapped by tracking one
continuous section of the kernel along t.

A tracked section (MetricSection) is transported along a fixed lattice of
t from its seed, so Theta(t) depends on t alone.  positivity_interval and
tracked_positivity_boundary sample every candidate through
MetricCandidate.values: a candidate built on a section's value method reads
MetricSection.values, which solves its kernels in stacks
(intertwiner_bases), and any other is evaluated point by point.  The
metrics of a chunk take one stacked eigvalsh.  Bisection samples each new
probe together with the probes of its next two levels, and keeps what it
has sampled.
"""

from __future__ import annotations

import copy
import math
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
    intertwiner_bases,
    intertwiner_basis,
    intertwiner_residual,
)
from .lattice import check_square
from .spectra import count_real, eigenvalues, left_right_pairs
from .tolerances import (
    EPS_METRIC,
    MAX_GRID_POINTS,
    POSITIVITY_STEPS,
    check_bracket,
    grid_steps,
)


class MetricProvenance(Enum):
    REFERENCE_EC4 = "reference-ec4"
    REFERENCE_EC4_STRONG = "reference-ec4-strongbond"
    SPECTRAL = "spectral"
    BASIS_COMBINATION = "basis-combination"


@dataclass(frozen=True)
class MetricCandidate:
    """A symmetric metric candidate: a t-family, a point value, or both.

    at(t) evaluates the family at one point; values(ts) samples it at many,
    and is what every sampler of this module reads.
    """

    provenance: MetricProvenance
    family: Callable[[float], np.ndarray] | None = None
    matrix: np.ndarray | None = None

    def at(self, t: float) -> np.ndarray:
        if self.family is None:
            raise InvalidSpecError(
                f"{self.provenance.value} candidate carries no t-family"
            )
        return self.family(float(t))

    def values(self, ts):
        """Theta(t) at each t in order, or the error where a tracked section cannot be continued.

        A candidate whose family is a MetricSection's bound value method
        yields MetricSection.values, which solves the kernels of its points
        in stacks; any other is evaluated through at, point by point.
        """
        section = getattr(self.family, "__self__", None)
        if isinstance(section, MetricSection) and self.family == section.value:
            yield from section.values(ts)
            return
        for t in ts:
            try:
                yield self.at(t)
            except _SECTION_GAPS as exc:
                yield exc.with_traceback(None)


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


def _min_eig_chunks(candidate: MetricCandidate, ts):
    """The minimal eigenvalue of the candidate's metric at each t, a chunk at a time.

    Samples the candidate through MetricCandidate.values and yields the
    curve of each _CHUNK_POINTS points of ts, from one stacked eigvalsh;
    -inf in a gap.  A metric entry that overflowed raises ModelDomainError.
    """
    thetas = candidate.values(ts)
    for start in range(0, len(ts), _CHUNK_POINTS):
        chunk = list(islice(thetas, _CHUNK_POINTS))
        curve = np.full(len(chunk), -math.inf)
        alive = [k for k, theta in enumerate(chunk) if not isinstance(theta, Exception)]
        if alive:
            stack = np.stack([chunk[k] for k in alive])
            if not np.isfinite(stack).all():
                t = float(ts[start + alive[np.isfinite(stack).all(axis=(1, 2)).argmin()]])
                raise ModelDomainError(
                    f"{candidate.provenance.value} metric: an entry is not finite "
                    f"in double precision at t={t}", t=t
                )
            curve[alive] = _min_eig(stack)
        yield curve


def _bisect_positivity(candidate: MetricCandidate, inside: float, outside: float, tol: float):
    """bisect_edge on whether the candidate's sampled metric is positive.

    Theta depends on t alone, so a probe not sampled yet is sampled in one
    MetricCandidate.values call with the six probes that may follow it in
    bisect_edge's next two levels, and the signs are kept; so about every
    third probe takes one stacked eigvalsh, and on a tracked section solves
    one stack of kernels.  The bracket lies between two finite grid points,
    where the closed forms, growing with |t|, stay finite too.
    """
    bracket = [inside, outside]
    seen: dict[float, bool] = {}

    def keep(t: float) -> bool:
        if t not in seen:
            # bisect_edge's next midpoint, after t is kept or not, and the next after it.
            up, down = (t + bracket[1]) / 2, (bracket[0] + t) / 2
            probes = [t, up, (up + bracket[1]) / 2, (t + up) / 2,
                      down, (down + t) / 2, (bracket[0] + down) / 2]
            (curve,) = _min_eig_chunks(candidate, probes)
            seen.update(zip(probes, (curve > 0).tolist()))
        positive = seen[t]
        bracket[0 if positive else 1] = t
        return positive

    return bisect_edge(keep, inside, outside, tol)


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
    If no sample is positive the report is empty (interval=None).  The
    grid and the bisection probes are sampled through
    MetricCandidate.values, where a gap counts as non-positive (-inf); a
    grid metric with an entry that overflowed raises ModelDomainError.
    The grid sets only where a tracked section is sampled: Theta(t) itself
    does not depend on it.
    """
    check_bracket(lo, hi, tol)
    steps = grid_steps(
        lo, hi, coarse_steps if coarse_steps is not None else POSITIVITY_STEPS
    )
    grid = np.linspace(lo, hi, steps)
    curve = np.concatenate(list(_min_eig_chunks(candidate, grid)))
    samples = np.column_stack([grid, curve])
    positive = curve > 0
    if not positive.any():
        return PositivityReport(interval=None, min_eig_samples=samples, tol=tol)

    edges = np.diff(positive.astype(int), prepend=0, append=0)
    runs = zip(np.flatnonzero(edges == 1), np.flatnonzero(edges == -1) - 1)
    first, last = max(runs, key=lambda r: grid[r[1]] - grid[r[0]])

    def bisect(pos_t: float, neg_t: float) -> float:
        return _bisect_positivity(candidate, pos_t, neg_t, tol)

    left = grid[first] if first == 0 else bisect(grid[first], grid[first - 1])
    right = grid[last] if last == len(grid) - 1 else bisect(grid[last], grid[last + 1])
    return PositivityReport(interval=(float(left), float(right)), min_eig_samples=samples, tol=tol)


# Spacing of a section's lattice, and the least share of the norm a
# projection onto the next kernel may keep before the branch counts as lost.
_SECTION_STEP = 1.0 / 400.0
_SECTION_MIN_OVERLAP = 0.5
# Points whose metrics share one stacked eigvalsh.
_CHUNK_POINTS = 32
# Points in one stack of kernels: as many as keep its Q factors, q^2 floats
# a point for q = n(n+1)/2, within those of 32 points at n = 6, and at most
# 64, as the stack that grows the lattice past a loss solves kernels that no
# point reaches.
_STACK_FLOATS, _STACK_STEPS = 32 * 21 * 21, 64


class MetricSection:
    """One continuous branch of the intertwiner kernel along t.

    Kernel bases from a generic solver are arbitrarily gauged per call, so
    the section is transported along the fixed lattice t_k = t_seed + k h,
    h = _SECTION_STEP: Theta_0 is the projection of I onto the kernel at
    the seed, and Theta_{k+-1} the projection of Theta_k onto the kernel at
    t_{k+-1}, with its trace renormalized to n.  Theta(t) is Theta_k where t
    is t_k, and else one projection of Theta_k onto the kernel at t, for k
    the lattice point next to t on the seed's side.  So Theta(t) depends on
    t alone, not on the points asked before it or on a sampling grid.

    A projection that loses more than half the norm means the branch was
    lost and raises TrackingError.  The first lattice index lost on each
    side keeps its error, and every t at or past it yields a copy of it
    without solving a kernel.  The lattice holds at most MAX_GRID_POINTS
    points on each side of the seed, as a grid does.
    """

    def __init__(self, family, *, t_seed: float = 0.0):
        self.family = family
        n = family.n
        self._t_seed = float(t_seed)
        basis = intertwiner_basis(family.matrix(t_seed))
        seed = self._project(np.eye(n), basis, t_seed)
        # Theta_k at index |k| of the arm on the side of k's sign, and the
        # error of the first index lost on a side, the length of its arm.
        self._arms = {1: [seed], -1: [seed]}
        self._lost: dict[int, Exception] = {}
        q = n * (n + 1) // 2
        self._stack_steps = min(_STACK_STEPS, max(1, _STACK_FLOATS // (q * q)))

    def _project(self, theta_prev: np.ndarray, basis, t: float) -> np.ndarray:
        """theta_prev projected onto the kernel at t; a kernel that failed raises its error."""
        if isinstance(basis, Exception):
            raise copy.copy(basis)  # a copy: the stored row keeps no traceback
        n = self.family.n
        flat = basis.elements.reshape(basis.dim, n * n)
        prev = theta_prev.ravel()
        coeffs = flat @ prev
        theta = coeffs @ flat
        # The elements are orthonormal, so ||theta|| = ||coeffs||; theta_prev
        # has trace n, so its norm is at least sqrt(n).
        overlap = math.sqrt(float(coeffs @ coeffs) / float(prev @ prev))
        if overlap < _SECTION_MIN_OVERLAP:
            raise TrackingError(
                f"section lost at t={t}: projection kept only {overlap:.2f} of the norm"
            )
        trace = sum(theta[:: n + 1].tolist())
        if trace <= 0:
            raise TrackingError(f"section lost at t={t}: nonpositive trace")
        return theta.reshape(n, n) * (n / trace)

    def _kernels(self, ts: list):
        """The kernel at each t, or the error solving it gives, from one stack.

        Where the family or the stack rejects the stack, the kernels are
        solved one row at a time as they are taken, so an error of the
        model is raised at its own point; a gap error is yielded.
        """
        try:
            rows = intertwiner_bases(self.family.matrices(ts))
        except Exception:
            rows = None
        if rows is not None:
            yield from rows
            return
        for t in ts:
            try:
                row = intertwiner_basis(self.family.matrix(t))
            except _SECTION_GAPS as exc:
                row = exc.with_traceback(None)
            yield row

    def _lattice_point(self, k: int):
        """Theta_k, or a copy of the error of the first index lost on its side.

        The lattice grows up to k a stack of points at a time, and stops at
        the first point it loses.
        """
        side = 1 if k >= 0 else -1
        arm = self._arms[side]
        while abs(k) >= len(arm) and side not in self._lost:
            js = range(len(arm), min(abs(k) + 1, len(arm) + self._stack_steps))
            ts = [self._t_seed + side * j * _SECTION_STEP for j in js]
            for t, basis in zip(ts, self._kernels(ts)):
                try:
                    arm.append(self._project(arm[-1], basis, t))
                except _SECTION_GAPS as exc:
                    self._lost[side] = exc.with_traceback(None)
                    break
        return arm[abs(k)] if abs(k) < len(arm) else copy.copy(self._lost[side])

    def values(self, ts):
        """Tracked Theta at each t in order.

        Yields Theta(t), or the BrokenPhaseError, DegenerateSpectrumError or
        TrackingError where the section cannot be continued to t; any other
        error propagates.  The points are taken a stack at a time, as the
        caller takes them: their lattice points first, then the kernels of
        those off the lattice in one stack.  A t whose lattice point lies
        more than MAX_GRID_POINTS from the seed raises InvalidSpecError
        before any kernel is solved.
        """
        ts = [float(t) for t in ts]
        lattice = [int((t - self._t_seed) / _SECTION_STEP) for t in ts]
        for t, k in zip(ts, lattice):
            if abs(k) > MAX_GRID_POINTS:
                raise InvalidSpecError(
                    f"the tracked section from t={self._t_seed} to t={t} would exceed "
                    f"{MAX_GRID_POINTS} lattice points; give a narrower range"
                )
        for start in range(0, len(ts), self._stack_steps):
            chunk = ts[start : start + self._stack_steps]
            ks = lattice[start : start + self._stack_steps]
            for k in sorted({min(ks), max(ks)}, key=abs, reverse=True):
                self._lattice_point(k)  # the far ends first: each side grows in one pass
            thetas, off = [], []
            for t, k in zip(chunk, ks):
                theta = self._lattice_point(k)
                if t != self._t_seed + k * _SECTION_STEP and not isinstance(theta, Exception):
                    off.append(len(thetas))
                thetas.append(theta)
            for i, basis in zip(off, self._kernels([chunk[i] for i in off])):
                try:
                    thetas[i] = self._project(thetas[i], basis, chunk[i])
                except _SECTION_GAPS as exc:
                    thetas[i] = exc.with_traceback(None)
            yield from thetas

    def value(self, t: float) -> np.ndarray:
        """Tracked Theta(t): the one-point call of values()."""
        (theta,) = self.values([t])
        if isinstance(theta, Exception):
            raise theta
        return theta


def tracked_positivity_boundary(
    family, tol: float, *, search_max: float = 1.2
) -> float:
    """First loss of positivity of the tracked metric section above t = 0.

    The probes are the section's lattice points below search_max, then
    search_max; a probe counts as lost when the tracked metric stops being
    positive definite or the kernel itself degenerates (broken phase or
    eigenvalue collision).  The lattice grows a chunk of probes at a time
    up to the chunk that holds the first lost probe, and the edge is then
    bisected between the last positive probe and the first lost one.

    The endpoint is a property of the projection-transported section: the
    kernel bundle admits many smooth sections through the same seed, and
    which one the transport follows is part of the method.  Only when
    positivity is lost at a domain-ending exceptional point -- where the
    whole solution cone degenerates at once -- is the endpoint
    section-independent and comparable across constructions.
    """
    check_bracket(0.0, search_max, tol)
    candidate = MetricCandidate(
        MetricProvenance.BASIS_COMBINATION, family=MetricSection(family).value
    )

    ts = [0.0]
    while (t := len(ts) * _SECTION_STEP) < search_max:
        ts.append(t)
    ts.append(search_max)
    chunks = _min_eig_chunks(candidate, ts[1:])
    for start, curve in zip(range(1, len(ts), _CHUNK_POINTS), chunks):
        if not (curve > 0).all():
            k = start + int((curve > 0).argmin())
            return _bisect_positivity(candidate, ts[k - 1], ts[k], tol)
    raise BracketError(
        f"metric stayed positive on [0.0, {search_max}]; no boundary found"
    )
