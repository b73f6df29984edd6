"""Characteristic-polynomial spectra in arbitrary precision.

Independent cross-check for the LAPACK eigensolver: coefficients of
det(M - lambda I) come from an exact determinant recursion on the
tridiagonal(+corner) structure (general dense inputs fall back to the
Faddeev-LeVerrier sweep), evaluated in mpmath arithmetic; roots come from
mpmath's simultaneous-iteration polynomial solver.

Two entry paths exist on purpose.  Lifting a double-precision matrix is
exact and cross-checks the eigensolver on that matrix.  Evaluating a model
family's closed-form entries directly in working precision matters near
high-order degeneracies: entry rounding of order u perturbs an order-k
coalescence's roots by u^(1/k), which for k=6 is ~1e-2 and no polynomial
solve on the rounded matrix can recover it.
"""

from __future__ import annotations

import numpy as np

from .errors import InvalidSpecError, OracleError
from .spectra import Spectrum
from .tolerances import ORACLE_DPS

# After the sibling modules: compiling them with mpmath already resident
# raises the peak memory of an oracle run.
import mpmath  # noqa: E402

MAX_ORACLE_N = 12


def _as_rows(h) -> list[list]:
    """Nested-list rows from an ndarray or nested lists; no value conversion."""
    if isinstance(h, np.ndarray):
        if h.ndim != 2 or h.shape[0] != h.shape[1]:
            raise InvalidSpecError(f"expected a square matrix, got shape {h.shape}")
        return [[mpmath.mpf(float(x)) for x in row] for row in h]
    rows = [list(row) for row in h]
    n = len(rows)
    if any(len(row) != n for row in rows):
        raise InvalidSpecError("expected a square matrix")
    return rows


def _poly_add(p, q):
    if len(p) < len(q):
        p, q = q, p
    out = list(p)
    for i, c in enumerate(q):
        out[i] += c
    return out


def _poly_scale(p, s):
    return [c * s for c in p]


def _poly_mul_linear(p, a):
    """Multiply ascending polynomial p by (a - lambda)."""
    out = [mpmath.mpf(0)] * (len(p) + 1)
    for i, c in enumerate(p):
        out[i] += a * c
        out[i + 1] -= c
    return out


def _tridiag_charpoly(diag, sup, sub):
    """Ascending coefficients of det(T - lambda I) for a tridiagonal block."""
    d_prev = [mpmath.mpf(1)]
    if not diag:
        return d_prev
    d_cur = [diag[0], mpmath.mpf(-1)]
    for k in range(1, len(diag)):
        nxt = _poly_mul_linear(d_cur, diag[k])
        nxt = _poly_add(nxt, _poly_scale(d_prev, -sub[k - 1] * sup[k - 1]))
        d_prev, d_cur = d_cur, nxt
    return d_cur


def _is_bordered_tridiagonal(rows) -> bool:
    """Exact-zero test outside the band and the two ring corners."""
    n = len(rows)
    if n < 3:
        return True
    for i in range(n):
        for j in range(n):
            if abs(i - j) <= 1:
                continue
            if (i, j) in ((0, n - 1), (n - 1, 0)):
                continue
            if rows[i][j] != 0:
                return False
    return True


def _bordered_charpoly(rows):
    """det(M - lambda I) for tridiagonal M plus corners (1,n) and (n,1).

    Laplace expansion along the border column gives
    det = D_{1..n} - gamma*beta*D_{2..n-1}
          + (-1)^(n+1) * (gamma*prod(sub) + beta*prod(sup))
    with gamma = M[1,n], beta = M[n,1] and D the band-minor charpolys.
    """
    n = len(rows)
    diag = [rows[i][i] for i in range(n)]
    sup = [rows[i][i + 1] for i in range(n - 1)]
    sub = [rows[i + 1][i] for i in range(n - 1)]
    p = _tridiag_charpoly(diag, sup, sub)
    if n < 3:
        return p
    gamma = rows[0][n - 1]
    beta = rows[n - 1][0]
    if gamma == 0 and beta == 0:
        return p
    inner = _tridiag_charpoly(diag[1:-1], sup[1:-1], sub[1:-1])
    p = _poly_add(p, _poly_scale(inner, -gamma * beta))
    prod_sub = mpmath.mpf(1)
    prod_sup = mpmath.mpf(1)
    for x in sub:
        prod_sub *= x
    for x in sup:
        prod_sup *= x
    sign = mpmath.mpf(-1) ** (n + 1)
    p[0] += sign * (gamma * prod_sub + beta * prod_sup)
    return p


def _faddeev_leverrier(rows):
    """Ascending coefficients of det(M - lambda I) for a general dense matrix."""
    n = len(rows)
    ident = [[mpmath.mpf(1 if i == j else 0) for j in range(n)] for i in range(n)]

    def mat_mul(a, b):
        return [
            [sum(a[i][k] * b[k][j] for k in range(n)) for j in range(n)]
            for i in range(n)
        ]

    def mat_add_scaled_identity(a, s):
        return [
            [a[i][j] + (s if i == j else 0) for j in range(n)] for i in range(n)
        ]

    def trace(a):
        return sum(a[i][i] for i in range(n))

    # det(lambda I - M) = sum c_k lambda^k with c_n = 1.
    c = [mpmath.mpf(0)] * (n + 1)
    c[n] = mpmath.mpf(1)
    m = ident
    for k in range(1, n + 1):
        am = mat_mul(rows, m)
        c[n - k] = -trace(am) / k
        m = mat_add_scaled_identity(am, c[n - k])
    sign = mpmath.mpf(-1) ** n
    return [sign * c[k] for k in range(n + 1)]


def charpoly_coefficients(h, *, dps: int = ORACLE_DPS) -> list:
    """Ascending coefficients of det(M - lambda I) in mp arithmetic."""
    with mpmath.workdps(dps):
        rows = _as_rows(h)
        if len(rows) > MAX_ORACLE_N:
            raise InvalidSpecError(
                f"oracle limited to n <= {MAX_ORACLE_N}, got {len(rows)}"
            )
        if _is_bordered_tridiagonal(rows):
            return _bordered_charpoly(rows)
        return _faddeev_leverrier(rows)


def _roots(coeffs_ascending, dps: int) -> np.ndarray:
    """All roots, multiplicity included; exact zero roots deflated first."""
    with mpmath.workdps(dps):
        coeffs = list(coeffs_ascending)
        zero_roots = 0
        while len(coeffs) > 1 and coeffs[0] == 0:
            coeffs.pop(0)
            zero_roots += 1
        values = [0.0] * zero_roots
        if len(coeffs) > 1:
            descending = [c / coeffs[-1] for c in reversed(coeffs)]
            try:
                roots, err = mpmath.polyroots(
                    descending, maxsteps=200, extraprec=2 * mpmath.mp.prec, error=True
                )
            except mpmath.libmp.NoConvergence as exc:
                raise OracleError(f"polynomial root finder stagnated: {exc}") from exc
            if err > mpmath.mpf(10) ** (-12):
                raise OracleError(
                    f"polynomial roots uncertain (error estimate {mpmath.nstr(err, 3)})"
                )
            values.extend(complex(r) for r in roots)
        return np.asarray(values, dtype=complex)


def eigenvalues_charpoly_oracle(h, *, dps: int = ORACLE_DPS) -> Spectrum:
    """Oracle spectrum of a double-precision matrix (entries lifted exactly)."""
    coeffs = charpoly_coefficients(h, dps=dps)
    values = _roots(coeffs, dps)
    rows = _as_rows(h)
    trace = float(sum(rows[i][i] for i in range(len(rows))))
    return Spectrum.from_values(values, trace=trace, tol=1e-9)


def model_oracle_eigenvalues(family, t: float, *, dps: int = ORACLE_DPS) -> Spectrum:
    """Oracle spectrum with entries built in mp precision from closed forms."""
    with mpmath.workdps(dps):
        rows = family.matrix_mp(t)
        coeffs = charpoly_coefficients(rows, dps=dps)
        values = _roots(coeffs, dps)
        trace = float(sum(rows[i][i] for i in range(len(rows))))
    return Spectrum.from_values(values, trace=trace, tol=1e-9)
