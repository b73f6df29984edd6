"""The intertwiner relation H^T Theta = Theta H over symmetric matrices.

Symmetric matrices are handled through the isometric vec_sym layout.  The
solution space of the relation is the SVD kernel of its operator, which
intertwiner_bases solves for a whole stack of matrices at once behind the
spectrum gates of Mostafazadeh's construction (J. Math. Phys. 43, 205
(2002)): a simple, fully real spectrum gives exactly n solutions.
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

    Index arrays (i, j) of the entries i <= j in row-major order, their
    weights (1 on the diagonal, sqrt2 off it), and the unit matrices B_k
    with vec_sym(B_k) = e_k, n^3 (n+1) / 2 floats, so few sizes are kept.
    """
    rows, cols = np.triu_indices(n)
    weights = np.where(rows == cols, 1.0, _SQRT2)
    units = np.zeros((rows.size, n, n))
    k = np.arange(rows.size)
    units[k, rows, cols] = units[k, cols, rows] = 1.0 / weights
    for array in (rows, cols, weights, units):
        array.setflags(write=False)
    return rows, cols, weights, units


def vec_sym(m: np.ndarray) -> np.ndarray:
    """Isometric vectorization of a symmetric matrix (off-diagonals x sqrt2).

    A stack of matrices in the last two axes gives a stack of vectors.
    """
    m = np.asarray(m, dtype=float)
    rows, cols, weights, _ = _sym_layout(m.shape[-1])
    return weights * m[..., rows, cols]


def unvec_sym(v: np.ndarray, n: int) -> np.ndarray:
    """Inverse of vec_sym, also for a stack of vectors in the last axis."""
    rows, cols, weights, _ = _sym_layout(n)
    entries = np.asarray(v, dtype=float) / weights
    m = np.zeros(entries.shape[:-1] + (n, n))
    m[..., rows, cols] = m[..., cols, rows] = entries
    return m


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
    pass go through one stacked SVD and the residual gate.  A stack that
    is not (m, n, n) or has n above the dense limit raises InvalidSpecError,
    and a stacked SVD that fails raises its LinAlgError.
    """
    stack = np.asarray(stack, dtype=float)
    if stack.ndim != 3 or stack.shape[1] != stack.shape[2]:
        raise InvalidSpecError(
            f"expected a stack of square matrices, got shape {stack.shape}"
        )
    m, n, _ = stack.shape
    finite = np.isfinite(stack).all(axis=(1, 2))
    out: list = [
        None if ok else InvalidSpecError("matrix entries must be finite")
        for ok in finite.tolist()
    ]
    index = np.flatnonzero(finite)
    h = stack[index]
    scales = _frobenius_scales(h)

    rows, errors = eigenvalue_rows(h)
    try:
        flagged = count_real_rows(rows) != n
    except ConsistencyError:  # an odd complex count: settle every row alone
        flagged = np.ones(len(rows), dtype=bool)
    flagged |= min_pairwise_gaps(rows) <= EPS_GAP * scales
    for k in np.flatnonzero(flagged):
        if errors[k] is None:
            errors[k] = _spectrum_gate(rows[k], scales[k], n)
    keep = [exc is None for exc in errors]
    if not all(keep):
        for row, exc in zip(index.tolist(), errors):
            out[row] = exc
        index, h, scales = index[keep], h[keep], scales[keep]
        if not index.size:
            return out

    *_, units = _sym_layout(n)
    hT = h.transpose(0, 2, 1)
    # Row r, column k: the strict upper triangle of H_r^T B_k - B_k H_r, x sqrt2.
    i, j = _index_pairs(n)
    a = hT[:, None] @ units
    a -= units @ h[:, None]
    a = (_SQRT2 * a[..., i, j]).transpose(0, 2, 1)
    _, s, vt = np.linalg.svd(a, full_matrices=True)
    threshold = _KERNEL_RANK_REL * np.maximum(1.0, s.max(axis=1, initial=0.0))
    kernel_dims = (vt.shape[1] - (s > threshold[:, None]).sum(axis=1)).tolist()
    elements = unvec_sym(vt[:, vt.shape[1] - n:], n)
    # Each residual norm as np.linalg.norm takes it, the root of one dot product.
    flat = (hT[:, None] @ elements - elements @ h[:, None]).reshape(-1, n, 1, n * n)
    residuals = np.sqrt(flat @ flat.transpose(0, 1, 3, 2)).reshape(-1, n)
    above = residuals > EPS_METRIC * scales[:, None]
    failed = above.any(axis=1).tolist()
    for k, (row, dim) in enumerate(zip(index.tolist(), kernel_dims)):
        if dim != n:
            out[row] = ConsistencyError(f"intertwiner kernel dimension {dim}, expected {n}")
        elif failed[k]:
            worst = residuals[k, above[k].argmax()]  # the first element above the bound
            out[row] = ConsistencyError(f"kernel element residual {worst:.3e} above bound")
        else:
            out[row] = SolutionBasis(elements=tuple(elements[k]), dim=dim)
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
