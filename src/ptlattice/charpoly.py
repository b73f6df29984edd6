"""Characteristic-polynomial spectra: exact coefficients, high-precision roots.

Independent cross-check for the LAPACK eigensolver.  Doubles are dyadic, so
one power of two makes the matrix an integer one, and the determinant
recursion on the tridiagonal(+corner) lattice structure gives det(M - lambda I)
exactly on Python ints; other matrices are refused.  The polynomial is
centred on its mean root by an integer Taylor shift, and Yun's square-free
decomposition (SYMSAC 1976) over a primitive integer remainder sequence
leaves factors with simple roots only.  Each factor's double-precision roots
(numpy's companion-matrix solve) start a Durand-Kerner iteration, the
simultaneous Newton step of mpmath's polyroots, which polishes them to 50
digits in about three quadratically convergent steps.  It runs on Python
integers: each root is a fixed-point Gaussian integer, and the roots are
rounded to the working precision and then to doubles as mpmath rounds them,
so the spectra are those polyroots gives, at a fraction of its cost, without
mpmath.  The recursion, the remainder sequence and the square-free split
live in ``poly``, which the exact reality engine (``exact``) shares without
numpy; this module keeps the root polishing.

Two entry paths exist on purpose.  Lifting a double-precision matrix is
exact and cross-checks the eigensolver on that matrix.  A model family's
closed-form entries matter near high-order degeneracies: entry rounding of
order u perturbs an order-k coalescence's roots by u^(1/k), which for k=6 is
~1e-2 and no polynomial solve on the rounded matrix can recover it.  So the
exact-entry path takes the family's characteristic polynomial from the
exact engine's fold into Q[t] (``exact.folded``), exact at the double t;
a family that does not fold is lifted from its double-precision matrix.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

from .errors import ConsistencyError, InvalidSpecError, OracleError
from .lattice import determinant_inputs
from .poly import _bordered_charpoly, _square_free, integer_polynomial
from .spectra import Spectrum
from .tolerances import MAX_ORACLE_N

# Durand-Kerner steps before the oracle gives up, as polyroots(maxsteps=200).
_MAX_STEPS = 200

# Bits of working precision for 50 decimal digits, counted as mpmath does.
_PREC = round((50 + 1) * 3.3219280948873626)


def _dyadic(x) -> tuple[int, int]:
    """(m, e) with x == m * 2**e exactly, for a finite double."""
    if not math.isfinite(x):
        raise InvalidSpecError("matrix entries must be finite")
    num, den = float(x).as_integer_ratio()
    return num, 1 - den.bit_length()


def _check_size(n: int) -> None:
    if n > MAX_ORACLE_N:
        raise InvalidSpecError(f"oracle limited to n <= {MAX_ORACLE_N}, got {n}")


def _integer_rows(h) -> tuple[list[list[int]], int]:
    """(A, e) with h == 2**e * A, A an integer lattice matrix of the doubles in h."""
    if isinstance(h, np.ndarray) and (h.ndim != 2 or h.shape[0] != h.shape[1]):
        raise InvalidSpecError(f"expected a square matrix, got shape {h.shape}")
    rows = h.tolist() if isinstance(h, np.ndarray) else h  # floats convert faster
    entries = [[_dyadic(x) for x in row] for row in rows]
    n = len(entries)
    if any(len(row) != n for row in entries):
        raise InvalidSpecError("expected a square matrix")
    _check_size(n)
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
    p = _bordered_charpoly(*determinant_inputs(rows))
    # det(2^e A - lambda I) = sum_k a_k 2^(e(n-k)) lambda^k
    scales = (e * (n - k) for k in range(n + 1))
    return [Fraction(c << s) if s >= 0 else Fraction(c, 1 << -s) for c, s in zip(p, scales)]


def _round(m: int, e: int, prec: int) -> tuple[int, int]:
    """m * 2**e rounded to prec significant bits, ties to even, as (m', e')."""
    drop = abs(m).bit_length() - prec
    if drop <= 0:
        return m, e
    q, r = divmod(abs(m), 1 << drop)
    half = 1 << (drop - 1)
    if r > half or (r == half and q & 1):
        q += 1
    return (q if m > 0 else -q), e + drop


def _round_sum(a: tuple[int, int], b: tuple[int, int], prec: int) -> tuple[int, int]:
    """The exact sum of two dyadics (m, e), rounded to prec bits."""
    (ma, ea), (mb, eb) = a, b
    low = min(ea, eb)
    return _round((ma << (ea - low)) + (mb << (eb - low)), low, prec)


def _round_quotient(a: tuple[int, int], den: int, prec: int) -> tuple[int, int]:
    """The dyadic a = (m, e) over a positive integer, rounded to prec bits."""
    m, e = a
    k = max(0, prec + 2 + den.bit_length() - abs(m).bit_length())
    q, r = divmod(abs(m) << k, den)  # q has at least prec + 2 bits
    q = q << 1 | bool(r)  # a sticky bit stands for the remainder
    return _round(q if m >= 0 else -q, e - k - 1, prec)


def _to_float(m: int, e: int) -> float:
    """m * 2**e as a double: rounded to 53 bits, then scaled, as mpmath does."""
    m, e = _round(m, e, 53)
    try:
        return math.ldexp(m, e)
    except OverflowError:
        return math.copysign(math.inf, m)


def _ratio(a: int, b: int, s: int) -> float:
    """The double nearest a / (b 2^s): Python rounds an integer quotient correctly."""
    return a / (b << s) if s >= 0 else (a << -s) / b


def _fixed(x: float, bits: int) -> int:
    """The double x scaled by 2**bits to an integer, exact unless below 2**-bits."""
    num, den = float(x).as_integer_ratio()
    shift = bits + 1 - den.bit_length()
    return num << shift if shift >= 0 else num >> -shift


def _horner(coeffs: list[int], zr: int, zi: int, bits: int) -> tuple[int, int]:
    """A monic polynomial at z in fixed point, coeffs descending after the unit lead."""
    vr, vi = 1 << bits, 0
    for c in coeffs:
        vr, vi = ((vr * zr - vi * zi) >> bits) + c, (vr * zi + vi * zr) >> bits
    return vr, vi


def _polish(monic: list[int], roots: list, bits: int, tol: int) -> None:
    """Durand-Kerner (Kerner, Numer. Math. 8, 290 (1966)), in place.

    monic are a monic factor's ascending coefficients, roots its starts as
    pairs (re, im), all integers scaled by 2**bits.  Each root is updated in
    turn from the others' newest values, and a zero divisor is skipped, as in
    mpmath's polyroots.  The polish stops once the largest correction of a
    step is below tol.
    """
    deg = len(monic) - 1
    coeffs = monic[-2::-1]
    err2 = 0
    for _ in range(_MAX_STEPS):
        err2 = 0
        for i in range(deg):
            pr, pi = roots[i]
            vr, vi = _horner(coeffs, pr, pi, bits)
            # The product of the differences to the other roots, (qr + i qi) 2^e,
            # rounded after each factor to `bits` significant bits; one
            # division by it stands for polyroots' division by each.
            qr, qi, e = 1, 0, 0
            for j, (rr, ri) in enumerate(roots):
                if j != i and (rr != pr or ri != pi):
                    dr, di = pr - rr, pi - ri
                    qr, qi = qr * dr - qi * di, qr * di + qi * dr
                    s = max(abs(qr), abs(qi)).bit_length() - bits
                    qr, qi = (qr >> s, qi >> s) if s >= 0 else (qr << -s, qi << -s)
                    e += s - bits
            den = (qr * qr + qi * qi) << max(e, 0)
            vr, vi = (vr * qr + vi * qi) << max(-e, 0), (vi * qr - vr * qi) << max(-e, 0)
            vr, vi = vr // den, vi // den
            roots[i] = (pr - vr, pi - vi)
            err2 = max(err2, vr * vr + vi * vi)
        if err2 < tol * tol:
            return
    raise OracleError(
        f"polynomial root finder stagnated: Didn't converge in maxsteps={_MAX_STEPS} steps.",
        diagnostics={
            "degree": deg,
            "steps": _MAX_STEPS,
            "error_estimate": _to_float(math.isqrt(err2), -bits),
            "threshold": _to_float(tol, -bits),
        },
    )


def _spectrum(coeffs: list) -> Spectrum:
    """All roots of exact rational coefficients, multiplicity included.

    The solver sees the polynomial centred on its mean root -c_{n-1}/(n c_n),
    which is added back at the end; the centred roots must sum to zero, a
    trace check with no double to overflow.  Each factor's roots lie within
    its Fujiwara bound 2^bits; in y = x / 2^bits the monic factor's
    coefficients fit in doubles, and np.roots of them starts the polish.
    With prec = _PREC bits, the polish works on a fixed-point scale of 3 prec
    bits and stops on an absolute correction below 2^(1-prec): a factor whose
    bound exceeds 1 is solved in x, its scale gaining its bits, and one whose
    bound is below 1 is solved in y, so that roots below 2^-prec are not
    merged into their mean.  Each root and the mean are rounded to prec
    bits, and so is their sum, before it becomes a double: the roundings of
    mpmath's polyroots, so that an exact root stays exact.
    """
    prec = _PREC
    n = len(coeffs) - 1
    a = integer_polynomial(coeffs)
    mean = Fraction(-a[-2], n * a[-1]) if n else Fraction(0)
    # With mean = P/Q, sum_k a_k Q^(n-k) (w + P)^k is an integer Taylor shift by
    # P with the roots w = Q (x - mean); in z = x - mean = w / Q it is centred(z),
    # its coefficient of z^j Q^j times that of w^j.
    P, Q = mean.numerator, mean.denominator
    b = [c * Q ** (n - k) for k, c in enumerate(a)]
    for i in range(n if P else 0):
        for j in range(n - 1, i - 1, -1):
            b[j] += P * b[j + 1]
    centred = [c * Q**j for j, c in enumerate(b)]
    roots = []  # pairs of (m, e): the real and imaginary part, each of prec bits
    for f, k in _square_free(centred):
        if len(f) < 2:
            continue
        deg, lead = len(f) - 1, f[-1].bit_length()
        bits = max((c.bit_length() - lead) // (deg - i) + 2 for i, c in enumerate(f[:-1]))
        # The monic factor in y = x / 2^bits, its coefficients below 1/2,
        # each the double nearest the exact quotient.
        y = [_ratio(c, f[-1], bits * (deg - i)) for i, c in enumerate(f)]
        starts = np.roots(y[::-1]).tolist()
        up = max(bits, 0)  # solved in s = x / 2^(bits - up): x, or y where bits < 0
        scale = 3 * prec + up
        monic = [(c << (scale - (bits - up) * (deg - i))) // f[-1] for i, c in enumerate(f)]
        zs = [(_fixed(z.real, scale + up), _fixed(z.imag, scale + up)) for z in starts]
        tol = 1 << (scale + 1 - prec)
        _polish(monic, zs, scale, tol)
        e = bits - up - scale  # the exponent of a root in x
        for re, im in zs:
            if re * re + im * im < tol * tol:
                re = im = 0
            elif abs(im) < tol:
                im = 0
            elif abs(re) < tol:
                re = 0
            roots += [(_round(re, e, prec), _round(im, e, prec))] * k
    shift = _round_quotient(_round(mean.numerator, 0, prec), mean.denominator, prec)
    values = [
        complex(_to_float(*_round_sum(re, shift, prec)), _to_float(*im)) for re, im in roots
    ]
    # The trace gate of from_values, on the exact sum of the centred roots.
    low = min([0] + [e for root in roots for _, e in root])
    drift = math.hypot(
        *(_to_float(sum(m << (e - low) for m, e in part), low) for part in zip(*roots))
    )
    if drift > 1e-9 * max([1, *map(abs, values)]) * n:
        raise ConsistencyError(f"eigenvalue sum differs from trace by {drift:.3e}")
    return Spectrum.from_values(values, tol=1e-9)


def eigenvalues_charpoly_oracle(h) -> Spectrum:
    """Oracle spectrum of a double-precision matrix (entries lifted exactly)."""
    return _spectrum(charpoly_coefficients(h))


def model_oracle_eigenvalues(family, t: float) -> Spectrum:
    """Oracle spectrum of the model itself at the double t, exact in its entries.

    For a family whose entries fold into Q[t] (``exact.folded``), the
    characteristic polynomial is exact at t = m / D: det(S H(t) - nu) on
    integers, with S = D^W L, and its coefficient of nu^k times S^k has the
    eigenvalues as roots.  A family that does not fold (a radical on the
    diagonal, a sum of different radicals, a ring whose product of radicands
    is not a square, ...) takes eigenvalues_charpoly_oracle(family.matrix(t)).
    ModelDomainError is raised where the double-precision entries raise it.
    """
    from .exact import folded
    from .models import FloatField

    fold = folded(family)
    if fold is None:
        return eigenvalues_charpoly_oracle(family.matrix(t))
    family._entries(t, FloatField)
    if not math.isfinite(t):
        raise InvalidSpecError("matrix entries must be finite")
    _check_size(family.n)
    coeffs, s = fold.charpoly_at(float(t))
    return _spectrum([c * s**k for k, c in enumerate(coeffs)])
