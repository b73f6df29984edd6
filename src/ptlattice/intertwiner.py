"""The intertwiner relation H^T Theta = Theta H over symmetric matrices.

Symmetric matrices are handled through the isometric vec_sym layout.  The
solution space of the relation is the kernel of its operator A, which
intertwiner_bases solves for a whole stack of matrices at once behind the
spectrum gates of Mostafazadeh's construction (J. Math. Phys. 43, 205
(2002)): a simple, fully real spectrum gives exactly n solutions.  The
kernel is the last n columns of Q in a complete QR of A^T, and the square
part of R, which has the singular values of A, settles its dimension.
intertwiner_basis is its one-matrix call.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    BrokenPhaseError,
    ConsistencyError,
    DegenerateSpectrumError,
    InvalidSpecError,
)
from .lattice import check_square
from .spectra import (
    _frobenius_scales,
    _index_pairs,
    _norm,
    count_real,
    count_real_rows,
    eigenvalue_rows,
    min_pairwise_gap,
    min_pairwise_gaps,
)
from .tolerances import EPS_GAP, EPS_METRIC

_SQRT2 = math.sqrt(2.0)


@functools.lru_cache(maxsize=8)
def _sym_layout(n: int) -> tuple[np.ndarray, ...]:
    """The vec_sym layout of n x n matrices, read-only as the cache shares it.

    Index arrays (i, j) of the entries i <= j in row-major order and their
    weights (1 on the diagonal, sqrt2 off it).
    """
    rows, cols = np.triu_indices(n)
    weights = np.where(rows == cols, 1.0, _SQRT2)
    for array in (rows, cols, weights):
        array.setflags(write=False)
    return rows, cols, weights


@functools.lru_cache(maxsize=8)
def _operator_layout(n: int) -> tuple[tuple[np.ndarray, ...], ...]:
    """Where the operator's transpose A^T takes its entries from H.

    With B_k the symmetric unit of vec_sym(B_k) = e_k, k = (a, b), a <= b,
    and r = (i, j), i < j, the entry of A^T at row k and column r is
    sqrt2 (H^T B_k - B_k H)[i, j].  For a = b it is
    sqrt2 (H[a, i] [j = a] - H[a, j] [i = a]); for a < b it is
    H[a, i] [j = b] - H[b, j] [i = a] + H[b, i] [j = a] - H[a, j] [i = b].
    Returns two groups of (index into A^T, index into H, coefficient), each
    writing an entry once: the term -H[b, j] [i = a], the second group,
    meets the first term only at r = (a, b).  O(n^3) entries, read-only as
    the cache shares them.
    """
    rows, cols = np.triu_indices(n)
    iu, ju = _index_pairs(n)
    pair = np.zeros((n, n), dtype=np.intp)
    pair[iu, ju] = np.arange(iu.size)
    coef = np.where(rows == cols, _SQRT2, 1.0)
    one = np.ones(rows.size)
    x = np.arange(n)

    def terms(keep, src, col, before, c):
        # c[k] H[src[k], x] at r = (x, col[k]), x < col[k], or (col[k], x), x > col[k].
        side = x < col[:, None] if before else x > col[:, None]
        k, x_ = np.nonzero(keep[:, None] & side)
        r = pair[x_, col[k]] if before else pair[col[k], x_]
        return k * iu.size + r, src[k] * n + x_, c[k]

    every, distinct = np.ones(rows.size, dtype=bool), rows < cols
    first = [
        terms(every, rows, cols, True, coef),
        terms(distinct, cols, rows, True, one),
        terms(distinct, rows, cols, False, -one),
    ]
    groups = (
        tuple(np.concatenate(parts) for parts in zip(*first)),
        terms(every, cols, rows, False, -coef),
    )
    for group in groups:
        for array in group:
            array.setflags(write=False)
    return groups


def _operator_transposes(h: np.ndarray) -> np.ndarray:
    """A^T of each matrix H of an (m, n, n) stack, (m, n(n+1)/2, n(n-1)/2)."""
    m, n, _ = h.shape
    q, p = n * (n + 1) // 2, n * (n - 1) // 2
    flat = h.reshape(m, n * n)
    (to, src, c), (to_second, src_second, c_second) = _operator_layout(n)
    at = np.zeros((m, q * p))
    at[:, to] = flat[:, src] * c
    at[:, to_second] += flat[:, src_second] * c_second
    return at.reshape(m, q, p)


def vec_sym(m: np.ndarray) -> np.ndarray:
    """Isometric vectorization of a symmetric matrix (off-diagonals x sqrt2).

    A stack of matrices in the last two axes gives a stack of vectors.
    """
    m = np.asarray(m, dtype=float)
    rows, cols, weights = _sym_layout(m.shape[-1])
    return weights * m[..., rows, cols]


def unvec_sym(v: np.ndarray, n: int) -> np.ndarray:
    """Inverse of vec_sym, also for a stack of vectors in the last axis."""
    rows, cols, weights = _sym_layout(n)
    entries = np.asarray(v, dtype=float) / weights
    m = np.zeros(entries.shape[:-1] + (n, n))
    m[..., rows, cols] = m[..., cols, rows] = entries
    return m


@dataclass(frozen=True)
class SolutionBasis:
    """Orthonormal basis of symmetric solutions of H^T Theta = Theta H.

    elements is one (dim, n, n) array; elements[k] is the k-th solution.
    """

    elements: np.ndarray
    dim: int


def intertwiner_residual(theta, h) -> float:
    """Relative residual ||H^T Theta - Theta H||_F / (||H||_F ||Theta||_F)."""
    theta = check_square(theta)
    h = check_square(h)
    if theta.shape != h.shape:
        raise InvalidSpecError(
            f"shape mismatch: theta {theta.shape} vs h {h.shape}"
        )
    diff = h.T @ theta - theta @ h
    with np.errstate(over="ignore"):  # for _norm
        denom = _norm(h) * _norm(theta)
        return 0.0 if denom == 0.0 else _norm(diff) / denom


# Singular values below this fraction of max(1, s_max) span the kernel.
_KERNEL_RANK_REL = 1e-9


def _kernel_dims(r: np.ndarray, n: int) -> list:
    """Kernel dimension of each operator A from the square R of A^T = QR.

    R (a stack of p x p upper-triangular matrices, p = n(n-1)/2) has the
    singular values of A, and the kernel dimension is n + p, the columns of
    A, less the count of singular values s > _KERNEL_RANK_REL * max(1, s_max).
    The bound 1/||R^-1||_F <= s_min and s_max <= ||R||_F proves that every s
    passes, so the dimension is n; the rows that the bound does not settle
    count their exact singular values.
    """
    m, p, _ = r.shape
    dims = [n] * m
    if p == 0:  # n = 1: no antisymmetric part, so A has no rows
        return dims
    try:
        inverse = np.linalg.inv(r)
    except np.linalg.LinAlgError:  # an exact zero pivot
        inverse = np.full_like(r, np.inf)
    # ||R^-1||_F^2 < 1e18 / max(1, ||R||_F^2), with no product to overflow:
    # an inf or nan from a tiny pivot or a huge R settles nothing.
    size = np.einsum("kij,kij->k", inverse, inverse)
    settled = size < _KERNEL_RANK_REL**-2 / np.maximum(1.0, np.einsum("kij,kij->k", r, r))
    for k in [] if settled.all() else np.flatnonzero(~settled).tolist():
        s = np.linalg.svd(r[k], compute_uv=False)
        dims[k] = n + p - int((s > _KERNEL_RANK_REL * max(1.0, s.max())).sum())
    return dims


def _kernels(h: np.ndarray) -> tuple[list, np.ndarray]:
    """The kernel dimension and the last n columns of Q, as matrices, per H.

    Q and R are the complete QR of A^T.  R is dropped once the dimensions
    are counted, as Q and R are the largest arrays of a stacked solve.
    """
    n = h.shape[-1]
    p = n * (n - 1) // 2
    q, r = np.linalg.qr(_operator_transposes(h), mode="complete")
    dims = _kernel_dims(r[:, :p], n)
    del r
    return dims, unvec_sym(q[:, :, p:].transpose(0, 2, 1), n)


def _spectrum_gate(values: np.ndarray, scale: float, n: int) -> Exception | None:
    """The error a spectrum row fails the kernel's gates with, or None."""
    try:
        if count_real(values) != n:
            return BrokenPhaseError("intertwiner basis requires a fully real spectrum")
    except ConsistencyError as exc:
        return exc.with_traceback(None)
    gap = min_pairwise_gap(values)
    if gap <= EPS_GAP * scale:
        return DegenerateSpectrumError(
            f"minimal eigenvalue gap {gap:.3e} below the gate {EPS_GAP * scale:.3e}"
        )
    return None


def intertwiner_bases(stack) -> list:
    """intertwiner_basis for each matrix of an (m, n, n) stack, in one pass.

    Entry i is the SolutionBasis of stack[i], or the exception that
    intertwiner_basis(stack[i]) raises, of the same type and message but
    without a traceback (a stored traceback would keep the whole stack
    alive).  The spectrum gates run over the whole stack, and a row that
    the stacked rules flag is settled by the one-row rules; the rows that
    pass go through one stacked complete QR, the rank rule of _kernel_dims
    and the residual gate.  A stack that is not (m, n, n) or has n above the
    dense limit raises InvalidSpecError, and an exact singular-value count
    that fails raises its LinAlgError.
    """
    stack = np.asarray(stack, dtype=float)
    if stack.ndim != 3 or stack.shape[1] != stack.shape[2]:
        raise InvalidSpecError(
            f"expected a stack of square matrices, got shape {stack.shape}"
        )
    m, n, _ = stack.shape
    out: list = [None] * m
    index, h = np.arange(m), stack
    finite = np.isfinite(stack).all(axis=(1, 2))
    if not finite.all():
        for row in np.flatnonzero(~finite).tolist():
            out[row] = InvalidSpecError("matrix entries must be finite")
        index = index[finite]
        h = stack[index]
    scales = _frobenius_scales(h)

    rows, errors = eigenvalue_rows(h)
    flagged = np.zeros(len(rows), dtype=bool)  # where every eigenvalue is exactly real
    if rows.imag.any():
        try:
            flagged = count_real_rows(rows) != n
        except ConsistencyError:  # an odd complex count: settle every row alone
            flagged[:] = True
    flagged |= min_pairwise_gaps(rows) <= EPS_GAP * scales
    for k in np.flatnonzero(flagged).tolist() if flagged.any() else []:
        if errors[k] is None:
            errors[k] = _spectrum_gate(rows[k], scales[k], n)
    keep = [exc is None for exc in errors]
    if not all(keep):
        for row, exc in zip(index.tolist(), errors):
            out[row] = exc
        index, h, scales = index[keep], h[keep], scales[keep]
        if not index.size:
            return out

    kernel_dims, elements = _kernels(h)
    # Theta is symmetric, so Theta H = (H^T Theta)^T.
    x = h.transpose(0, 2, 1)[:, None] @ elements
    x -= x.swapaxes(-1, -2)
    residuals = np.sqrt(np.einsum("keij,keij->ke", x, x))
    above = residuals > EPS_METRIC * scales[:, None]
    failed = above.any(axis=1).tolist()
    for k, (row, dim) in enumerate(zip(index.tolist(), kernel_dims)):
        if dim != n:
            out[row] = ConsistencyError(f"intertwiner kernel dimension {dim}, expected {n}")
        elif failed[k]:
            worst = residuals[k, above[k].argmax()]  # the first element above the bound
            out[row] = ConsistencyError(f"kernel element residual {worst:.3e} above bound")
        else:
            out[row] = SolutionBasis(elements=elements[k], dim=dim)
    return out


def intertwiner_basis(h) -> SolutionBasis:
    """Kernel of Theta -> H^T Theta - Theta H over symmetric matrices.

    Requires a simple, fully real spectrum; there the kernel dimension is
    exactly n (one generator per eigenvalue).  The map sends symmetric to
    antisymmetric matrices, so the operator is (n(n-1)/2) x (n(n+1)/2).
    This is the one-row call of intertwiner_bases.
    """
    out = intertwiner_bases(check_square(h)[None])
    if isinstance(out[0], Exception):
        # Popped: the traceback holds this frame, and an error left in a
        # local would make a cycle that keeps every frame of the march alive.
        raise out.pop()
    return out[0]
