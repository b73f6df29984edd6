"""Spectra, eigenpairs, and PT-phase classification for small real matrices.

Dense spectra come from LAPACK via numpy, for a whole (m, n, n) stack of
matrices in one call (``eigenvalue_rows``, whose one-row call is
``eigenvalues``).  A spectrum is trusted only after a matching against
another spectrum: its own conjugate, the oracle's, or that of H^T.  The
matching minimises its largest distance (the bottleneck objective); where
the row minima of the distance matrix sit in distinct columns they are that
matching, and otherwise a threshold search with augmenting paths finds it.
The real-count and gap rules classify a whole (m, n) array of eigenvalue
rows at once (``count_real_rows``, ``min_pairwise_gaps``); ``count_real``
and ``min_pairwise_gap`` are their one-row calls.  The order of an
eigenvalue cluster is read by one single-linkage rule over a whole (m, n)
array of rows and their distance thresholds at once (``_largest_clusters``).
Near-degenerate sweep rows are re-read from the model's own
characteristic-polynomial oracle (``charpoly.model_oracle_eigenvalues``),
because a backward-stable QR eigensolver can only resolve an order-k
coalescence to about u^(1/k) (u = machine epsilon), while the polynomial
loses nothing, and is exact in the entries of a family that folds.  Every
degeneracy gate scales by max(1, ||H||_F) as ``_frobenius_scales`` takes
it, finite for every finite matrix.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import (
    ConsistencyError,
    DegenerateSpectrumError,
    InvalidSpecError,
    ModelDomainError,
    SolverError,
)
from .lattice import check_square, is_pt_symmetric, parity
from .tolerances import EPS_GAP, EPS_REAL, EPS_SPEC, MAX_DENSE_N, MAX_ORACLE_N

_EPS = float(np.finfo(float).eps)


def _bottleneck_assignment(cost: np.ndarray) -> np.ndarray:
    """Column of each row in an assignment of least largest cost.

    Takes a square cost matrix, or a stack of them, and returns one
    assignment per matrix.  Where the row minima sit in distinct columns
    they are the assignment, since no assignment has a largest entry below
    the largest row minimum.  Otherwise Kuhn's augmenting paths (Naval Res.
    Logist. Q. 2, 83 (1955)) match the rows one at a time on the entries at
    or below a level, which starts at that bound and climbs the sorted
    entries: a row left without an augmenting path shows that the level
    admits no perfect matching.  The last level is the least largest cost
    (Gross's bottleneck assignment).
    """
    n = cost.shape[-1]
    stack = cost.reshape(-1, n, n)
    cols = stack.argmin(axis=2)
    for k, minima in enumerate(cols.tolist()):
        if len(set(minima)) == n:
            continue
        c = stack[k]
        if not np.isfinite(c).all():
            raise InvalidSpecError("assignment cost matrix has non-finite entries")
        levels = iter(np.unique(c[c >= c.min(axis=1).max()]))
        level = next(levels)
        row_of = [-1] * n

        def augment(i: int, seen: set) -> bool:
            # Row i takes a free column, or one whose row can move on.
            for j in np.flatnonzero(c[i] <= level).tolist():
                if j not in seen:
                    seen.add(j)
                    if row_of[j] < 0 or augment(row_of[j], seen):
                        row_of[j] = i
                        return True
            return False

        for i in range(n):
            while not augment(i, set()):
                level = next(levels)  # the largest entry admits every matching
        cols[k] = np.argsort(row_of)
    return cols.reshape(cost.shape[:-1])


def matching_distance(a, b) -> float:
    """Max elementwise distance between two spectra under optimal matching.

    The matching minimises its largest distance (the bottleneck objective).
    Where the nearest value of b to each value of a lies in a column of its
    own, those nearest values are such a matching.  Matching makes the
    comparison independent of the ordering conventions of the two sources
    (canonical sorting alone can pair wrong partners when real parts nearly
    tie).
    """
    a = np.asarray(a, dtype=complex).ravel()
    b = np.asarray(b, dtype=complex).ravel()
    if a.shape != b.shape:
        raise InvalidSpecError(f"spectra sizes differ: {a.size} vs {b.size}")
    if a.size == 0:
        return 0.0
    cost = np.abs(a[:, None] - b[None, :])
    cols = _bottleneck_assignment(cost)
    distance = float(cost[np.arange(a.size), cols].max())
    # A non-finite value fills its whole row or column of the cost matrix,
    # so it always reaches the matched maximum.
    if not math.isfinite(distance):
        raise InvalidSpecError("spectra contain non-finite values")
    return distance


def canonical_sort(values: np.ndarray) -> np.ndarray:
    """Sort complex values by (real part, then imaginary part)."""
    values = np.asarray(values, dtype=complex).ravel()
    order = np.lexsort((values.imag, values.real))
    return values[order]


@functools.lru_cache(maxsize=MAX_DENSE_N)
def _index_pairs(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Index arrays (i, j) of the pairs i < j, read-only as the cache shares them.

    Built once per n: np.triu_indices costs more than a one-row gap.
    """
    pairs = np.triu_indices(n, 1)
    for index in pairs:
        index.setflags(write=False)
    return pairs


def min_pairwise_gaps(rows) -> np.ndarray:
    """Smallest |lambda_i - lambda_j| over i < j, for each row of an (m, n) array.

    |lambda_j - lambda_i| is bit for bit |lambda_i - lambda_j|, so the pairs
    i < j alone give the minimum over all distinct pairs.
    """
    rows = np.asarray(rows, dtype=complex)
    m, n = rows.shape
    if n < 2:
        return np.full(m, math.inf)
    i, j = _index_pairs(n)
    return np.abs(rows[:, i] - rows[:, j]).min(axis=1)


def min_pairwise_gap(values) -> float:
    """Smallest |lambda_i - lambda_j| over distinct index pairs."""
    values = np.asarray(values, dtype=complex).ravel()
    return float(min_pairwise_gaps(values[None, :])[0])


def _largest_clusters(rows: np.ndarray, thresholds) -> np.ndarray:
    """Largest single-linkage cluster of each row of an (m, n) array at each of its thresholds.

    thresholds is (m, K); entry (r, k) of the (m, K) result is the size of
    the largest set of row r that links within thresholds[r, k], where
    |lambda_i - lambda_j| <= threshold links i and j (Kruskal's single
    linkage, Proc. AMS 7, 48 (1956)).  The links of every row and threshold
    form one 0/1 (m, K, n, n) stack, squared until it holds the paths of up
    to n // 2 links: every connected set of s indices has one within s // 2
    links of all the others (the centre of a spanning tree), so the largest
    row sum is the largest cluster.  A nan distance or threshold links
    nothing, and every index is a cluster of at least 1.
    """
    n = rows.shape[1]
    with np.errstate(invalid="ignore"):
        gaps = np.abs(rows[:, :, None] - rows[:, None, :])
        linked = gaps[:, None] <= np.asarray(thresholds)[:, :, None, None]
    linked |= np.eye(n, dtype=bool)
    # In float32 each product is a BLAS call, exact on 0/1 entries once clamped at 1.
    paths = linked.astype(np.float32)
    for _ in range((n // 2 - 1).bit_length()):
        paths = np.minimum(paths @ paths, 1.0)
    return paths.sum(axis=-1).max(axis=-1).astype(int)


def _perturbation_orders(rows: np.ndarray, scales) -> np.ndarray:
    """Largest k for which a k-cluster survives at the k-th-root noise scale, per row.

    An order-k exceptional point perturbed at relative machine noise u
    scatters its eigenvalues over a radius ~ scale * u**(1/k), so the
    cluster test of row r uses the threshold 10 * scales[r] * u**(1/k): a
    genuine order-k collision keeps >= k eigenvalues inside it, while an
    avoided crossing separates much faster and drops out for large k.
    """
    ks = np.arange(2, rows.shape[1] + 1)
    roots = np.array([_EPS ** (1.0 / k) for k in ks.tolist()])
    with np.errstate(over="ignore"):  # an inf threshold links every finite gap
        thresholds = 10.0 * np.asarray(scales)[:, None] * roots
    sizes = _largest_clusters(rows, thresholds)
    return ((sizes >= ks) * ks).max(axis=1, initial=1)


def _perturbation_order(values, scale: float, n: int) -> int:
    """The one-row call of _perturbation_orders, for n values."""
    return int(_perturbation_orders(np.reshape(values, (1, n)), [scale])[0])


@dataclass(frozen=True)
class Spectrum:
    """Canonically sorted complex eigenvalues of one real matrix."""

    values: np.ndarray

    def __post_init__(self):
        vals = canonical_sort(self.values)
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)

    @property
    def n(self) -> int:
        return int(self.values.size)

    @classmethod
    def from_values(
        cls,
        values,
        *,
        trace: float | None = None,
        tol: float = EPS_SPEC,
    ) -> "Spectrum":
        spec = cls(np.asarray(values, dtype=complex).ravel())
        diagonals = None if trace is None else [[trace]]
        errors = _spectrum_errors(spec.values[None], diagonals, tol)
        if errors[0] is not None:
            raise errors.pop()  # popped, as in intertwiner_basis
        return spec


def _spectrum_errors(rows: np.ndarray, diagonals, tol: float = EPS_SPEC) -> list:
    """The closure and trace gates of each sorted row of an (m, n) eigenvalue array.

    Entry i is None, or the ConsistencyError of row i: a non-finite value;
    a closure defect (the matching distance between the row and its own
    conjugate) above tol * max(1, spectral radius); or, where diagonals is
    not None, a row sum that is not within n times that bound of the trace,
    the sum of row i of diagonals.
    """
    m, n = rows.shape
    finite = np.isfinite(rows).all(axis=1)
    errors: list = [
        None if ok else ConsistencyError("spectrum contains non-finite values")
        for ok in finite.tolist()
    ]
    if n == 0:
        return errors
    if not finite.all():
        rows = np.where(finite[:, None], rows, 0.0)
    bound = tol * np.maximum(1.0, np.abs(rows).max(axis=1))
    if rows.imag.any():
        cost = np.abs(rows[:, :, None] - rows.conj()[:, None, :])
        cols = _bottleneck_assignment(cost)
        closure = cost[np.arange(m)[:, None], np.arange(n), cols].max(axis=1)
    else:  # real rows are their own conjugates
        closure = np.zeros(m)
    # |row sum - trace|, taken at a power of two 2**-k <= 1/n: the scaling
    # is exact and keeps every partial sum finite.  A nan drift fails.
    unit = 0.5 ** (n - 1).bit_length()
    drift = np.zeros(m)
    if diagonals is not None:
        drift = np.abs((rows * unit).sum(axis=1) - (np.asarray(diagonals) * unit).sum(axis=1))
    for i in np.flatnonzero(finite & ((closure > bound) | ~(drift <= bound * n * unit))):
        errors[i] = ConsistencyError(
            "non-real eigenvalues are not conjugate-paired "
            f"(closure defect {closure[i]:.3e})"
            if closure[i] > bound[i]
            else f"eigenvalue sum differs from trace by {float(drift[i]) / unit:.3e}"
        )
    return errors


def eigenvalues(h) -> Spectrum:
    """All eigenvalues of a small dense real matrix, verified for closure.

    The one-row call of eigenvalue_rows.
    """
    rows, errors = eigenvalue_rows(check_square(h)[None])
    if errors[0] is not None:
        raise errors.pop()  # popped, as in intertwiner_basis
    return Spectrum(rows[0])


def eigenvalue_rows(stack: np.ndarray) -> tuple[np.ndarray, list]:
    """Canonically sorted eigenvalues of each matrix of a finite (m, n, n) stack.

    Returns the rows and, per row, None or the error of that matrix: a
    SolverError where LAPACK rejects it, or the ConsistencyError of the
    closure and trace gates of Spectrum.from_values.  The matrices go
    through one stacked solve; a stack that LAPACK rejects is solved again
    one matrix at a time.  n above MAX_DENSE_N raises InvalidSpecError.
    """
    m, n, _ = stack.shape
    if n > MAX_DENSE_N:
        raise InvalidSpecError(f"dense solver limited to n <= {MAX_DENSE_N}, got {n}")
    errors: list = [None] * m
    try:
        vals = np.linalg.eigvals(stack).astype(complex)
    except np.linalg.LinAlgError:
        vals = np.zeros((m, n), dtype=complex)
        for i, h in enumerate(stack):
            try:
                vals[i] = np.linalg.eigvals(h)
            except np.linalg.LinAlgError as exc:
                errors[i] = SolverError(
                    f"eigensolver failed to converge: {exc}",
                    diagnostics={"n": n, "frobenius_norm": float(np.linalg.norm(h))},
                )
    rows = vals[np.arange(m)[:, None], np.lexsort((vals.imag, vals.real), axis=-1)]
    gates = _spectrum_errors(rows, stack.diagonal(axis1=1, axis2=2))
    return rows, [gate if error is None else error for error, gate in zip(errors, gates)]


# Relative eigenvalue gap below which a sweep row is re-solved by the oracle.
_POLISH_REL = 1e-5


def _norm(x: np.ndarray) -> float:
    """np.linalg.norm(x), or max|x| * ||x / max|x||| where its dot product overflows.

    Each caller enters np.errstate(over="ignore") once for all its norms.
    """
    norm = float(np.linalg.norm(x))
    if math.isinf(norm):
        peak = float(np.abs(x).max())
        norm = peak * float(np.linalg.norm(x / peak))
    return norm


def _frobenius_scales(stack: np.ndarray) -> np.ndarray:
    """max(1, ||H||_F) of each matrix H of a finite (m, n, n) stack.

    Each norm as _norm(h) takes it; a norm over the stack axes sums in
    another order.
    """
    m, n, _ = stack.shape
    flat = stack.reshape(m, 1, n * n)
    with np.errstate(over="ignore"):
        norms = np.sqrt(flat @ flat.transpose(0, 2, 1)).ravel()
        huge = np.isinf(norms)
        if huge.any():
            norms[huge] = [_norm(h) for h in stack[huge]]
    return np.maximum(1.0, norms)


def sweep_eigenvalues(family, ts) -> np.ndarray:
    """Eigenvalues of a model family at each t of ts, one canonically sorted row each.

    The rows are those of eigenvalue_rows on family.matrices(ts), one
    stacked LAPACK call behind the closure and trace gates; the first row
    error is raised.  Rows whose minimal eigenvalue gap falls below
    _POLISH_REL * max(1, ||H||_F) sit near a coalescence where QR accuracy
    degrades to u^(1/k); those rows are re-read from the model's own oracle
    (charpoly.model_oracle_eigenvalues), exact in the entries where the
    family folds, where n <= MAX_ORACLE_N.  Larger matrices keep the LAPACK
    rows, as validate skips its oracle check above that size.
    """
    ts = np.asarray(ts, dtype=float).ravel()
    stack = family.matrices(ts)
    rows, errors = eigenvalue_rows(stack)
    failed = [k for k, error in enumerate(errors) if error is not None]
    if failed:
        raise errors.pop(failed[0])  # popped, as in intertwiner_basis
    if family.n > MAX_ORACLE_N:
        return rows
    scales = _frobenius_scales(stack)
    for i in np.flatnonzero(min_pairwise_gaps(rows) < _POLISH_REL * scales):
        from .charpoly import model_oracle_eigenvalues

        rows[i] = model_oracle_eigenvalues(family, ts[i]).values
    return rows


def count_real_rows(rows, eps_real: float = EPS_REAL) -> np.ndarray:
    """Real count of each row of an (m, n) eigenvalue array.

    An eigenvalue counts as real when |Im| <= eps_real * max(1, spectral
    radius of its row).  Complex eigenvalues of a real matrix pair up, so
    an odd complex count raises ConsistencyError, for the first such row.
    """
    rows = np.asarray(rows, dtype=complex)
    m, n = rows.shape
    if n == 0:
        return np.zeros(m, dtype=int)
    # fmax, unlike maximum, keeps the floor 1.0 for a row holding a nan.
    threshold = eps_real * np.fmax(1.0, np.abs(rows).max(axis=1))
    counts = (np.abs(rows.imag) <= threshold[:, None]).sum(axis=1)
    odd = (n - counts) % 2
    if odd.any():
        raise ConsistencyError(
            f"{n - counts[odd.argmax()]} eigenvalues classified complex; "
            "conjugate pairing demands an even number"
        )
    return counts


def count_real(spectrum, eps_real: float = EPS_REAL) -> int:
    """Number of eigenvalues with |Im| <= eps_real * max(1, spectral radius)."""
    values = spectrum.values if isinstance(spectrum, Spectrum) else None
    if values is None:
        values = np.asarray(spectrum, dtype=complex).ravel()
    return int(count_real_rows(values[None, :], eps_real)[0])


def normalize_vector(v: np.ndarray) -> np.ndarray:
    """Unit Euclidean norm with the first significant component positive real."""
    v = np.asarray(v, dtype=complex).ravel()
    norm = float(np.linalg.norm(v))
    if norm == 0.0:
        raise InvalidSpecError("cannot normalize a zero vector")
    v = v / norm
    magnitudes = np.abs(v)
    k = int(np.argmax(magnitudes > 1e-8 * magnitudes.max()))
    phase = v[k] / abs(v[k])
    return v * np.conj(phase)


def vector_angle(u, v) -> float:
    """Angle in [0, pi/2] between the rays of two complex vectors.

    Computed from the rejection norm, which stays accurate for nearly
    parallel vectors where 1 - |cos| cancels.
    """
    u = normalize_vector(u)
    v = normalize_vector(v)
    rejection = u - np.vdot(v, u) * v
    s = float(np.linalg.norm(rejection))
    return math.asin(min(1.0, s))


@dataclass(frozen=True)
class EigenPair:
    """One eigenvalue with unit-norm right and left eigenvectors."""

    eigenvalue: complex
    right: np.ndarray
    left: np.ndarray


def left_right_pairs(h) -> list[EigenPair]:
    """Biorthogonal eigenpairs of a real matrix with a simple spectrum.

    Left vectors are right eigenvectors of the transpose: for real H the
    left vector of eigenvalue lambda satisfies H^T L = conj(lambda) L.
    """
    h = check_square(h)
    n = h.shape[0]
    scale = float(_frobenius_scales(h[None])[0])
    try:
        w, vr = np.linalg.eig(h)
        wt, vl = np.linalg.eig(h.T)
    except np.linalg.LinAlgError as exc:
        raise SolverError(f"eigensolver failed to converge: {exc}") from exc
    gap = min_pairwise_gap(w)
    if gap <= EPS_GAP * scale:
        raise DegenerateSpectrumError(
            f"minimal eigenvalue gap {gap:.3e} is below the gate "
            f"{EPS_GAP * scale:.3e}; use degeneracy_order instead"
        )
    cost = np.abs(wt[:, None] - np.conj(w)[None, :])
    cols = _bottleneck_assignment(cost)
    if float(cost[np.arange(n), cols].max()) > 1e-8 * scale:
        raise ConsistencyError(
            "eigenvalues of H and H^T do not match as conjugates"
        )
    left_of = np.argsort(cols)
    pairs = []
    with np.errstate(over="ignore"):  # for _norm
        for j in range(n):
            lam = complex(w[j])
            right = normalize_vector(vr[:, j])
            left = normalize_vector(vl[:, left_of[j]])
            res_r = _norm(h @ right - lam * right)
            res_l = _norm(h.T @ left - np.conj(lam) * left)
            bound = max(EPS_SPEC * scale, 64 * np.finfo(float).eps * scale)
            if res_r > bound or res_l > bound:
                raise SolverError(
                    f"eigenpair residual too large ({max(res_r, res_l):.3e})",
                    diagnostics={"eigenvalue": lam, "bound": bound},
                )
            pairs.append(EigenPair(eigenvalue=lam, right=right, left=left))
    pairs.sort(key=lambda p: (p.eigenvalue.real, p.eigenvalue.imag))
    return pairs


class Phase(Enum):
    UNBROKEN = "unbroken"
    BROKEN = "broken"


@dataclass(frozen=True)
class PtPhase:
    """Phase verdict plus per-eigenvalue proportionality defects.

    evidence[k] is the sine of the angle between P|R_k> and |L_k>; in the
    unbroken phase the two rays coincide for every k.
    """

    value: Phase
    evidence: np.ndarray

    @property
    def unbroken(self) -> bool:
        return self.value is Phase.UNBROKEN

    @property
    def max_defect(self) -> float:
        return float(self.evidence.max()) if self.evidence.size else 0.0


# Largest pairing defect sin(angle(P|R_k>, |L_k>)) that counts as proportional.
_DEFECT_TOL = 1e-6


def pt_phase(h) -> PtPhase:
    """Classify the PT phase by two independent criteria and cross-check them.

    Criterion one: every eigenvalue real within EPS_REAL.  Criterion two:
    P|R_k> proportional to |L_k> for every k.  The two must agree; a
    disagreement beyond _DEFECT_TOL raises.
    """
    h = check_square(h)
    if not is_pt_symmetric(h):
        raise InvalidSpecError("matrix is not PT-symmetric under the alternating parity")
    pairs = left_right_pairs(h)
    p = parity(h.shape[0])
    defects = np.array(
        [math.sin(vector_angle(p @ pair.right, pair.left)) for pair in pairs]
    )
    values = np.array([pair.eigenvalue for pair in pairs])
    all_real = count_real(values) == h.shape[0]
    all_proportional = bool(defects.max() <= _DEFECT_TOL)
    if all_real != all_proportional:
        raise ConsistencyError(
            f"reality ({all_real}) and proportionality ({all_proportional}) "
            f"criteria disagree; defects={defects}"
        )
    phase = Phase.UNBROKEN if all_real else Phase.BROKEN
    return PtPhase(value=phase, evidence=defects)


def ec4_closed_form(t: float) -> Spectrum:
    """Closed-form spectrum of the equal-coupling 4-site ring.

    {-(9-4t^2)^(1/2), -1, 1, (9-4t^2)^(1/2)}; the radical turns imaginary
    for |t| > 3/2, complexifying the outer pair.
    """
    r = np.sqrt(complex(9 - 4 * t * t))
    return Spectrum.from_values([-r, -1.0, 1.0, r], trace=0.0)


def ec4_pair_vectors(t: float) -> tuple[np.ndarray, np.ndarray]:
    """Closed-form eigenvectors of the equal-coupling ring for E=1 and E=+sqrt(9-4t^2).

    Returned unnormalized, exactly as the closed forms read; their rays
    coincide at t = +-sqrt(2).  The fourth component of the second vector
    divides by t, so t=0 is excluded; beyond |t|=3/2 the radical is
    imaginary and the forms leave the real domain.
    """
    if t == 0.0:
        raise ModelDomainError(
            "closed-form eigenvector component divides by t; t=0 not admissible"
        )
    if abs(t) > 1.5:
        raise ModelDomainError(
            "closed-form eigenvectors need |t| <= 3/2 (real radical)",
            radical="sqrt(9 - 4t^2)",
        )
    r = math.sqrt(9 - 4 * t * t)
    psi2 = np.array([0.0, t, 2.0, t])
    psi3 = np.array(
        [
            t * t - 2,
            (r + 1) * t / 2,
            3 - t * t + r,
            ((4 - t * t) * r + 12 - 5 * t * t) / (2 * t),
        ]
    )
    return psi2, psi3
