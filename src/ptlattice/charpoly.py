"""Characteristic-polynomial spectra: exact coefficients, high-precision roots.

Independent cross-check for the LAPACK eigensolver.  Doubles and mpf are
dyadic, so one power of two makes the matrix an integer one, and the
determinant recursion on the tridiagonal(+corner) lattice structure gives
det(M - lambda I) exactly on Python ints; other matrices are refused.  The
polynomial is centred on its mean root by an exact Taylor shift, and Yun's
square-free decomposition (SYMSAC 1976) over a primitive integer remainder
sequence hands mpmath's simultaneous-iteration solver factors with simple
roots only.  Each factor's double-precision roots (numpy's companion-matrix
solve) start that iteration, which polishes them to 50 digits in about three
quadratically convergent steps.  The recursion, the remainder sequence and
the square-free split live in ``poly``, which the exact reality engine
(``exact``) shares without numpy or mpmath; this module keeps the root
polishing.

Two entry paths exist on purpose.  Lifting a double-precision matrix is
exact and cross-checks the eigensolver on that matrix.  Evaluating a model
family's closed-form entries directly in working precision matters near
high-order degeneracies: entry rounding of order u perturbs an order-k
coalescence's roots by u^(1/k), which for k=6 is ~1e-2 and no polynomial
solve on the rounded matrix can recover it.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

from .errors import ConsistencyError, InvalidSpecError, OracleError
from .poly import _add, _bordered_charpoly, _square_free, integer_polynomial
from .spectra import Spectrum
from .tolerances import MAX_ORACLE_N, ORACLE_DPS

# After the sibling modules: compiling them with mpmath already resident
# raises the peak memory of an oracle run.
import mpmath  # noqa: E402


def _dyadic(x) -> tuple[int, int]:
    """(m, e) with x == m * 2**e exactly, for a double or an mpf."""
    if isinstance(x, mpmath.mpf):
        sign, man, exp, _ = x._mpf_  # man_exp would drop the sign
        if man or not exp:
            return (-man if sign else man), exp
    elif math.isfinite(x):
        num, den = float(x).as_integer_ratio()
        return num, 1 - den.bit_length()
    raise InvalidSpecError("matrix entries must be finite")


def _integer_rows(h) -> tuple[list[list[int]], int]:
    """(A, e) with h == 2**e * A, A an integer lattice matrix; h holds doubles or mpf."""
    if isinstance(h, np.ndarray) and (h.ndim != 2 or h.shape[0] != h.shape[1]):
        raise InvalidSpecError(f"expected a square matrix, got shape {h.shape}")
    entries = [[_dyadic(x) for x in row] for row in h]
    n = len(entries)
    if any(len(row) != n for row in entries):
        raise InvalidSpecError("expected a square matrix")
    if n > MAX_ORACLE_N:
        raise InvalidSpecError(f"oracle limited to n <= {MAX_ORACLE_N}, got {n}")
    for i, j in ((i, j) for i in range(n) for j in range(n) if 1 < abs(i - j) < n - 1):
        if entries[i][j][0]:
            raise InvalidSpecError(
                f"oracle takes lattice matrices only: entry [{i}, {j}] = {h[i][j]} "
                f"lies off the band and the ring corners"
            )
    e = min((x for row in entries for m, x in row if m), default=0)
    return [[m << (x - e) if m else 0 for m, x in row] for row in entries], e


def charpoly_coefficients(h) -> list[Fraction]:
    """Exact ascending coefficients of det(M - lambda I) of a lattice matrix M."""
    rows, e = _integer_rows(h)
    n = len(rows)
    sup = [rows[i][i + 1] for i in range(n - 1)]
    sub = [rows[i + 1][i] for i in range(n - 1)]
    gamma, beta = (rows[0][n - 1], rows[n - 1][0]) if n >= 3 else (0, 0)
    p = _bordered_charpoly(
        [rows[i][i] for i in range(n)],
        [s * u for s, u in zip(sub, sup)],
        gamma * beta,
        (-1) ** (n + 1) * (gamma * math.prod(sub) + beta * math.prod(sup)),
    )
    # det(2^e A - lambda I) = sum_k a_k 2^(e(n-k)) lambda^k
    return [c * Fraction(2) ** (e * (n - k)) for k, c in enumerate(p)]


def _spectrum(coeffs: list[Fraction], dps: int) -> Spectrum:
    """All roots of exact dyadic coefficients, multiplicity included.

    The solver sees the polynomial centred on its mean root -c_{n-1}/(n c_n),
    which is added back in mp; the centred roots must sum to zero, a trace
    check with no double to overflow.  Each factor's roots lie within its
    Fujiwara bound 2^bits; in y = x / 2^bits the monic factor's coefficients
    fit in doubles, and np.roots of them, scaled back, starts polyroots.
    polyroots stops on an absolute correction below 10^-dps: a factor whose
    bound exceeds 1 gains its bits of working precision, and one whose bound
    is below 1 is solved in y, its roots scaled back in mp, so that roots
    below 10^-dps are not merged into their mean.
    """
    n = len(coeffs) - 1
    mean = -coeffs[-2] / (n * coeffs[-1]) if n else Fraction(0)
    centred: list = []
    for c in reversed(coeffs):  # Horner: centred(x) = p(x + mean)
        centred = _add([c, *centred], [mean * a for a in centred])
    roots = []
    with mpmath.workdps(dps):
        for f, k in _square_free(integer_polynomial(centred)):
            if len(f) < 2:
                continue
            deg, lead = len(f) - 1, f[-1].bit_length()
            bits = max((c.bit_length() - lead) // (deg - i) + 2 for i, c in enumerate(f[:-1]))
            # The monic factor in y = x / 2^bits, its coefficients below 1/2.
            y = [Fraction(c, f[-1]) / Fraction(2) ** (bits * (deg - i)) for i, c in enumerate(f)]
            starts = np.roots([float(c) for c in reversed(y)])
            up = max(bits, 0)  # solved in x, or in y where the bound is below 1
            if bits < 0:
                f = [c << (-bits * (deg - i)) for i, c in enumerate(f)]
            try:
                found, err = mpmath.polyroots(
                    f[::-1],
                    maxsteps=200,
                    extraprec=2 * mpmath.mp.prec + up,
                    error=True,
                    roots_init=[mpmath.mpc(z) * mpmath.ldexp(1, up) for z in starts],
                )
            except mpmath.libmp.NoConvergence as exc:
                raise OracleError(f"polynomial root finder stagnated: {exc}") from exc
            if err > mpmath.mpf(10) ** (-12):
                raise OracleError(
                    f"polynomial roots uncertain (error estimate {mpmath.nstr(err, 3)})"
                )
            roots += [r * mpmath.ldexp(1, bits - up) for r in found] * k
        shift = mpmath.mpf(mean.numerator) / mean.denominator
        values = [r + shift for r in roots]
        drift = abs(mpmath.fsum(roots))  # the trace gate of from_values, in mp
        if drift > 1e-9 * max([1, *map(abs, values)]) * n:
            raise ConsistencyError(f"eigenvalue sum differs from trace by {float(drift):.3e}")
    return Spectrum.from_values([complex(v) for v in values], tol=1e-9)


def eigenvalues_charpoly_oracle(h, *, dps: int = ORACLE_DPS) -> Spectrum:
    """Oracle spectrum of a double-precision matrix (entries lifted exactly)."""
    return _spectrum(charpoly_coefficients(h), dps)


def model_oracle_eigenvalues(family, t: float, *, dps: int = ORACLE_DPS) -> Spectrum:
    """Oracle spectrum with entries built in mp precision from closed forms."""
    with mpmath.workdps(dps):
        rows = family.matrix_mp(t)
    return _spectrum(charpoly_coefficients(rows), dps)
