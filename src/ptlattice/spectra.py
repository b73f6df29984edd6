"""Spectra, eigenpairs, and PT-phase classification for small real matrices.

Dense spectra come from LAPACK via numpy; grid sweeps batch all matrices
into one stacked eigenvalue call.  The real-count and gap rules classify a
whole (m, n) array of eigenvalue rows at once (``count_real_rows``,
``min_pairwise_gaps``); ``count_real`` and ``min_pairwise_gap`` are their
one-row calls, and ``eigenvalue_rows`` runs the closure and trace gates of
``eigenvalues`` over a stack.  Near-degenerate sweep points are re-solved
through the arbitrary-precision characteristic-polynomial path, because a
backward-stable QR eigensolver can only resolve an order-k coalescence to
about u^(1/k) (u = machine epsilon), while the polynomial of the same
matrix loses nothing.
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
    PtLatticeError,
    SolverError,
)
from .lattice import check_square, is_pt_symmetric, parity
from .tolerances import EPS_GAP, EPS_REAL, EPS_SPEC, MAX_ORACLE_N

MAX_DENSE_N = 64


def _min_sum_assignment(cost: np.ndarray) -> np.ndarray:
    """Column of each row in a minimum-sum assignment of a square cost matrix.

    When the row minima sit in distinct columns, that choice reaches the sum
    of the row minima, a lower bound on every assignment, so it is optimal;
    every other optimum also takes each row's minimum, so all optima share
    their largest entry.  Otherwise the shortest-augmenting-path Hungarian
    method solves the problem exactly.
    """
    cols = cost.argmin(axis=1)
    if len(set(cols.tolist())) == cols.size:
        return cols
    if not np.isfinite(cost).all():
        raise InvalidSpecError("assignment cost matrix has non-finite entries")
    return np.array(_shortest_augmenting_path(cost.tolist()))


def _shortest_augmenting_path(cost: list) -> list:
    """O(n^3) Kuhn-Munkres method for a finite square cost matrix.

    Crouse's variant (IEEE Trans. Aerosp. Electron. Syst. 52, 1679 (2016)):
    rows join one at a time, each along a Dijkstra shortest augmenting path
    in reduced costs, after which the dual potentials u, v are updated.  On
    equal path costs it prefers a free column, and it scans columns from
    the last to the first, so a constant matrix gives the identity.  These
    are the steps of SciPy's linear_sum_assignment, so the two return the
    same assignment, ties included.
    """
    n = len(cost)
    u = [0.0] * n
    v = [0.0] * n
    col4row = [-1] * n
    row4col = [-1] * n
    path = [-1] * n
    for cur_row in range(n):
        shortest = [math.inf] * n
        remaining = list(range(n - 1, -1, -1))
        scanned_rows = []
        scanned_cols = []
        min_val = 0.0
        i = cur_row
        sink = -1
        while sink == -1:
            scanned_rows.append(i)
            row, ui = cost[i], u[i]
            lowest = math.inf
            index = -1
            for it, j in enumerate(remaining):
                r = min_val + row[j] - ui - v[j]
                if r < shortest[j]:
                    path[j] = i
                    shortest[j] = r
                if shortest[j] < lowest or (
                    shortest[j] == lowest and row4col[j] == -1
                ):
                    lowest = shortest[j]
                    index = it
            min_val = lowest
            j = remaining[index]
            if row4col[j] == -1:
                sink = j
            else:
                i = row4col[j]
            scanned_cols.append(j)
            remaining[index] = remaining[-1]
            remaining.pop()
        u[cur_row] += min_val
        for i in scanned_rows:
            if i != cur_row:
                u[i] += min_val - shortest[col4row[i]]
        for j in scanned_cols:
            v[j] -= min_val - shortest[j]
        j = sink
        while True:
            i = path[j]
            row4col[j] = i
            col4row[i], j = j, col4row[i]
            if i == cur_row:
                break
    return col4row


def matching_distance(a, b) -> float:
    """Max elementwise distance between two spectra under optimal matching.

    Bipartite matching makes the comparison independent of the ordering
    conventions of the two sources (canonical sorting alone can pair wrong
    partners when real parts nearly tie).
    """
    a = np.asarray(a, dtype=complex).ravel()
    b = np.asarray(b, dtype=complex).ravel()
    if a.shape != b.shape:
        raise InvalidSpecError(f"spectra sizes differ: {a.size} vs {b.size}")
    if a.size == 0:
        return 0.0
    cost = np.abs(a[:, None] - b[None, :])
    cols = _min_sum_assignment(cost)
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
        values = np.asarray(values, dtype=complex).ravel()
        if not np.all(np.isfinite(values)):
            raise ConsistencyError("spectrum contains non-finite values")
        spec = cls(values)
        if spec.n:
            scale = max(1.0, float(np.abs(spec.values).max()))
            closure = matching_distance(spec.values, np.conj(spec.values))
            if closure > tol * scale:
                raise ConsistencyError(
                    f"non-real eigenvalues are not conjugate-paired "
                    f"(closure defect {closure:.3e})"
                )
            if trace is not None:
                drift = abs(complex(spec.values.sum()) - complex(trace))
                if drift > tol * scale * spec.n:
                    raise ConsistencyError(
                        f"eigenvalue sum differs from trace by {drift:.3e}"
                    )
        return spec


def eigenvalues(h) -> Spectrum:
    """All eigenvalues of a small dense real matrix, verified for closure."""
    h = check_square(h)
    n = h.shape[0]
    if n > MAX_DENSE_N:
        raise InvalidSpecError(f"dense solver limited to n <= {MAX_DENSE_N}, got {n}")
    try:
        vals = np.linalg.eigvals(h)
    except np.linalg.LinAlgError as exc:
        raise SolverError(
            f"eigensolver failed to converge: {exc}",
            diagnostics={"n": n, "frobenius_norm": float(np.linalg.norm(h))},
        ) from exc
    return Spectrum.from_values(vals, trace=float(np.trace(h)))


def eigenvalue_rows(stack: np.ndarray) -> tuple[np.ndarray, list]:
    """eigenvalues(h).values for each matrix of a finite (m, n, n) stack.

    Returns the rows and, per row, None or the error eigenvalues(h) raises
    there.  One stacked solve; the closure and trace gates of
    Spectrum.from_values then run on all rows at once where each value's
    nearest conjugate lies in its own column, as then the row minima are
    the optimal matching (_min_sum_assignment).  A row this cannot settle
    or that fails a gate, and every row of a stack with a non-finite value
    or one LAPACK rejects, takes the one-matrix path and its message.
    """
    m, n, _ = stack.shape
    errors: list = [None] * m
    try:
        vals = np.linalg.eigvals(stack).astype(complex)
    except np.linalg.LinAlgError:
        vals = None
        rows = np.zeros((m, n), dtype=complex)
        exact = range(m)
    else:
        rows = vals[np.arange(m)[:, None], np.lexsort((vals.imag, vals.real), axis=-1)]
        exact = range(m)  # unless every value is finite
        if np.isfinite(rows).all():
            scale = np.maximum(1.0, np.abs(rows).max(axis=1))
            cost = np.abs(rows[:, :, None] - rows.conj()[:, None, :])
            columns = np.sort(cost.argmin(axis=2), axis=1)
            closure = cost.min(axis=2).max(axis=1)
            drift = np.abs(rows.sum(axis=1) - np.trace(stack, axis1=1, axis2=2))
            settled = (
                (columns[:, 1:] != columns[:, :-1]).all(axis=1)
                & (closure <= EPS_SPEC * scale)
                & (drift <= EPS_SPEC * scale * n)
            )
            exact = np.flatnonzero(~settled)
    for i in exact:
        try:
            if vals is None:
                rows[i] = eigenvalues(stack[i]).values
            else:
                trace = float(np.trace(stack[i]))
                rows[i] = Spectrum.from_values(vals[i], trace=trace).values
        except PtLatticeError as exc:
            errors[i] = exc.with_traceback(None)
    return rows, errors


# Relative eigenvalue gap below which a sweep row is re-solved by the oracle.
_POLISH_REL = 1e-5


def _frobenius_scales(stack: np.ndarray) -> np.ndarray:
    """max(1, ||H||_F) of each matrix H of a finite (m, n, n) stack.

    Each norm as np.linalg.norm(h) takes it, the root of one dot product;
    a norm over the stack axes sums in another order.  Where the dot
    product overflows, the norm is max|h| * ||h / max|h|||_F instead, which
    is inf only where the norm itself exceeds the largest double.
    """
    m, n, _ = stack.shape
    flat = stack.reshape(m, 1, n * n)
    with np.errstate(over="ignore"):
        norms = np.sqrt(flat @ flat.transpose(0, 2, 1)).ravel()
        huge = np.isinf(norms)
        if huge.any():
            peak = np.abs(flat[huge]).max(axis=(1, 2))
            unit = flat[huge] / peak[:, None, None]
            norms[huge] = peak * np.sqrt(unit @ unit.transpose(0, 2, 1)).ravel()
    return np.maximum(1.0, norms)


def sweep_eigenvalues(stack) -> np.ndarray:
    """Eigenvalues of an (m, n, n) matrix stack, one canonically sorted row each.

    All matrices go through a single stacked LAPACK call.  Rows whose
    minimal eigenvalue gap falls below _POLISH_REL * max(1, ||H||_F) sit
    near a coalescence where QR accuracy degrades to u^(1/k); those rows are
    re-solved through the exact characteristic polynomial of the same
    matrix, where n <= MAX_ORACLE_N.  Larger matrices keep the LAPACK rows,
    as validate skips its oracle check above that size.  The polish takes
    lattice stacks only (band plus ring corners, as every model assembles);
    a polished row with another non-zero entry raises InvalidSpecError.
    """
    stack = np.asarray(stack, dtype=float)
    if stack.ndim != 3 or stack.shape[1] != stack.shape[2]:
        raise InvalidSpecError(
            f"expected a stack of square matrices, got shape {stack.shape}"
        )
    if not np.all(np.isfinite(stack)):
        raise InvalidSpecError("matrix entries must be finite")
    try:
        vals = np.linalg.eigvals(stack).astype(complex)
    except np.linalg.LinAlgError as exc:
        raise SolverError(f"stacked eigensolver failed: {exc}") from exc
    rows = np.take_along_axis(vals, np.lexsort((vals.imag, vals.real), axis=-1), -1)
    if stack.shape[1] > MAX_ORACLE_N:
        return rows
    scales = _frobenius_scales(stack)
    for i in np.flatnonzero(min_pairwise_gaps(rows) < _POLISH_REL * scales):
        from .charpoly import eigenvalues_charpoly_oracle

        rows[i] = eigenvalues_charpoly_oracle(stack[i]).values
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
    scale = max(1.0, float(np.linalg.norm(h)))
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
    cols = _min_sum_assignment(cost)
    rows = np.arange(n)
    if float(cost[rows, cols].max()) > 1e-8 * scale:
        raise ConsistencyError(
            "eigenvalues of H and H^T do not match as conjugates"
        )
    left_of = np.empty(n, dtype=int)
    left_of[cols] = rows
    pairs = []
    for j in range(n):
        lam = complex(w[j])
        right = normalize_vector(vr[:, j])
        left = normalize_vector(vl[:, left_of[j]])
        res_r = float(np.linalg.norm(h @ right - lam * right))
        res_l = float(np.linalg.norm(h.T @ left - np.conj(lam) * left))
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
