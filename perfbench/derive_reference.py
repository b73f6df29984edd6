"""Derive the benchmark's reference data with sympy, without importing ptlattice.

Each family is rebuilt from its row of the README's model table (and the
demo-chain document), with the lattice sign rules: H[i,i+1] = c_i,
H[i+1,i] = -c_i, and on rings H[1,n] = -c_n, H[n,1] = +c_n.  For every
family the script writes

- the real roots of disc_lambda det(H(t) - lambda) in the family's range,
  each with the size of the eigenvalue cluster that meets there (its order)
  and whether the real count changes across it (a reality boundary);
- the exact real-eigenvalue count in every cell between those roots;

and the closed forms and constants the checks quote, each verified here
against the derived polynomials.

Usage: python3 perfbench/derive_reference.py [--out perfbench/reference.json]
Running it again reproduces the file byte for byte.
"""

from __future__ import annotations

import argparse
import json
import pathlib

import mpmath
import sympy as sp
import yaml

HERE = pathlib.Path(__file__).resolve().parent

T, LAM, S = sp.symbols("t lambda s")  # S stands for sqrt(1 - t)

SITES6 = (-5, -3, -1, 1, 3, 5)
SITES4 = (-3, -1, 1, 3)
CHAIN6 = [sp.sqrt(5) * S, sp.sqrt(8) * S, 3 * S, sp.sqrt(8) * S, sp.sqrt(5) * S]

# name: (site energies, topology, couplings, range over which roots are listed)
ROWS = {
    "mdg6-open": (SITES6, "open", CHAIN6, (-1, 1)),
    "mdg6-w1": (SITES6, "ring", CHAIN6 + [S / 100], (-1, 1)),
    "mdg6-w2": (
        SITES6,
        "ring",
        CHAIN6[:2] + [sp.Rational(301, 100) * S] + CHAIN6[3:] + [S / 10],
        (-1, 1),
    ),
    "ec4": (SITES4, "ring", [T, T, T, T], (-2, 2)),
    "ec4-strongbond": (SITES4, "ring", [T, T, T, 3 * T / 2], (-2, 2)),
    "ec4-recoupled": (SITES4, "ring", [T, 4 * T / 3, T, T / 4], (-2, 2)),
}

DIGITS = 40


def demo_chain_row():
    doc = yaml.safe_load((HERE / "demo-chain.yaml").read_text(encoding="utf-8"))
    lo, hi = doc["t_range"]
    return doc["name"], (
        tuple(sp.sympify(x, locals={"t": T}) for x in doc["diag"]),
        doc["topology"],
        [sp.sympify(x, locals={"t": T}) for x in doc["couplings"]],
        (sp.Rational(str(lo)), sp.Rational(str(hi))),
    )


def charpoly(sites, topology, couplings) -> sp.Poly:
    """det(H(t) - lambda) as a polynomial in (lambda, t) with rational coefficients."""
    n = len(sites)
    h = sp.diag(*sites)
    for i, c in enumerate(couplings[: n - 1]):
        h[i, i + 1] = c
        h[i + 1, i] = -c
    if topology == "ring":
        h[0, n - 1] = -couplings[-1]
        h[n - 1, 0] = couplings[-1]
    det = sp.Poly(sp.expand((h - LAM * sp.eye(n)).det(method="berkowitz")), S)
    if any(k % 2 for (k,) in det.monoms()):
        raise ValueError("odd power of sqrt(1 - t) left in the determinant")
    folded = sp.expand(sum(c * (1 - T) ** (k // 2) for (k,), c in det.terms()))
    poly = sp.Poly(folded, LAM, T)
    if poly.get_domain() not in (sp.ZZ, sp.QQ):
        raise ValueError(f"coefficients are not rational: {poly.get_domain()}")
    return poly


def largest_cluster(poly: sp.Poly, t_star) -> tuple[int, bool]:
    """Size of the largest eigenvalue cluster at t*, and whether it is real.

    The roots of det(H(t*) - lambda) are found at 60 digits; t* carries 70,
    so an order-k cluster is resolved to about 1e-70/k.
    """
    with mpmath.workdps(60):
        ts = mpmath.mpf(str(sp.N(t_star, 70)))
        coeffs = [mpmath.mpf(0)] * (poly.degree(LAM) + 1)
        for (i, j), c in poly.terms():
            c = sp.Rational(c)
            coeffs[i] += mpmath.mpf(c.p) / c.q * ts**j
        descending = list(reversed(coeffs))
        zeros = 0
        while abs(descending[-1]) < mpmath.mpf(10) ** -50:
            descending.pop()
            zeros += 1
        roots = [mpmath.mpc(0)] * zeros
        if len(descending) > 1:
            roots += list(mpmath.polyroots(descending, maxsteps=400, extraprec=400))
        radius = mpmath.mpf(10) ** -6
        sizes = [sum(1 for q in roots if abs(r - q) < radius) for r in roots]
        size = max(sizes)
        centre = roots[sizes.index(size)]
        return size, bool(abs(mpmath.im(centre)) < radius)


def real_count(poly: sp.Poly, t_value: sp.Rational) -> int:
    at_t = sp.Poly(poly.as_expr().subs(T, t_value), LAM)
    return int(at_t.count_roots())


def num(x) -> float:
    return float(sp.N(x, DIGITS))


def family_reference(poly: sp.Poly, t_range) -> dict:
    lo, hi = (sp.Rational(x) for x in t_range)
    disc = sp.Poly(sp.discriminant(poly.as_expr(), LAM), T)
    roots = [r for r in disc.sqf_part().real_roots() if lo < r < hi]
    roots.sort(key=num)
    edges = [lo, *roots, hi]
    cells = []
    for a, b in zip(edges[:-1], edges[1:]):
        mid = sp.Rational(str(sp.N((a + b) / 2, 30)))
        cells.append({"lo": num(a), "hi": num(b), "count": real_count(poly, mid)})
    root_rows = []
    for k, r in enumerate(roots):
        order, real = largest_cluster(poly, r)
        root_rows.append(
            {
                "t": num(r),
                "order": order,
                "real": real,
                "boundary": cells[k]["count"] != cells[k + 1]["count"],
            }
        )
    return {
        "range": [num(lo), num(hi)],
        "disc_degree": disc.degree(),
        "roots": root_rows,
        "cells": cells,
    }


def smallest_positive_det_root(theta: sp.Matrix, upper) -> sp.Expr:
    """First t > 0 where det Theta(t) vanishes (Theta(0) is positive definite)."""
    numerator, _ = sp.fraction(sp.together(theta.det(method="berkowitz")))
    det = sp.Poly(sp.expand(numerator), T)
    return min((r for r in det.sqf_part().real_roots() if 0 < r < upper), key=num)


def ec4_reference_metric() -> sp.Matrix:
    p = 3 + T**2
    return sp.Matrix(
        [
            [p, -3 * T, T**2, T],
            [-3 * T, p, -3 * T, T**2],
            [T**2, -3 * T, p, -3 * T],
            [T, T**2, -3 * T, p],
        ]
    )


def ec4_strong_reference_metric() -> sp.Matrix:
    p = 3 + T**2
    d = 17 * T**2 + 96
    a12 = p * T * (13 * T**2 - 96) / d
    a13 = 24 * p * T**2 / d
    a14 = p * T * (T**2 + 96) / (2 * d)
    a23 = p * T * (7 * T**2 - 96) / d
    return sp.Matrix(
        [
            [p, a12, a13, a14],
            [a12, p, a23, a13],
            [a13, a23, p, a12],
            [a14, a13, a12, p],
        ]
    )


def divides_disc(poly: sp.Poly, value) -> bool:
    disc = sp.Poly(sp.discriminant(poly.as_expr(), LAM), T)
    return disc.rem(sp.Poly(sp.minimal_polynomial(value, T), T)).is_zero


def derive() -> dict:
    rows = dict(ROWS)
    name, row = demo_chain_row()
    rows[name] = row
    polys = {name: charpoly(*row[:3]) for name, row in rows.items()}

    ec4_closed = sp.expand((LAM**2 - 1) * (LAM**2 - (9 - 4 * T**2)))
    if polys["ec4"].as_expr() != ec4_closed:
        raise ValueError("ec4 charpoly differs from (l^2 - 1)(l^2 - (9 - 4t^2))")
    open_closed = sp.expand(sp.Mul(*[LAM**2 - k**2 * T for k in (1, 3, 5)]))
    if polys["mdg6-open"].as_expr() != open_closed:
        raise ValueError("mdg6-open charpoly differs from prod (l^2 - k^2 t)")

    boundary_constants = {
        "ec4_sqrt2": ("ec4", sp.sqrt(2)),
        "ec4_three_halves": ("ec4", sp.Rational(3, 2)),
        "strongbond_4sqrt2_5": ("ec4-strongbond", 4 * sp.sqrt(2) / 5),
        "strongbond_sqrt_32_17": ("ec4-strongbond", sp.sqrt(sp.Rational(32, 17))),
        "strongbond_sqrt33_window": ("ec4-strongbond", (sp.sqrt(33) - 3) / 2),
        "recoupled_boundary": ("ec4-recoupled", (45 - 3 * sp.sqrt(97)) / 16),
    }
    constants = {}
    for key, (family, value) in boundary_constants.items():
        if not divides_disc(polys[family], value):
            raise ValueError(f"{key} is not a discriminant root of {family}")
        constants[key] = num(value)

    ec4_end = smallest_positive_det_root(ec4_reference_metric(), 2)
    if sp.simplify(ec4_end - sp.sqrt(sp.Rational(3, 2))) != 0:
        raise ValueError(f"ec4 metric endpoint {ec4_end} is not sqrt(3/2)")
    constants["ec4_metric_endpoint"] = num(ec4_end)
    constants["strongbond_metric_endpoint"] = num(
        smallest_positive_det_root(ec4_strong_reference_metric(), 2)
    )

    return {
        "closed_forms": {
            "ec4": "(lambda^2 - 1)(lambda^2 - (9 - 4t^2)): +-1, +-sqrt(9 - 4t^2)",
            "mdg6-open": "prod_{k=1,3,5} (lambda^2 - k^2 t): +-k sqrt(t)",
        },
        "constants": constants,
        "families": {
            name: family_reference(polys[name], rows[name][3]) for name in rows
        },
    }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default=str(HERE / "reference.json"))
    args = parser.parse_args()
    text = json.dumps(derive(), indent=1, sort_keys=True) + "\n"
    pathlib.Path(args.out).write_text(text, encoding="utf-8")


if __name__ == "__main__":
    main()
