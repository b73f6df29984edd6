"""Characteristic-polynomial oracle: coefficients and high-precision roots."""

import math
import random
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
import yaml

from ptlattice import (
    InvalidSpecError,
    Model,
    OracleError,
    charpoly_coefficients,
    eigenvalues_charpoly_oracle,
    get_family,
    matching_distance,
)
from ptlattice import charpoly
from ptlattice.charpoly import model_oracle_eigenvalues
from ptlattice.custom import load_custom_model
from ptlattice.exact import folded, reality_map
from ptlattice.lattice import layout

DEMO_CHAIN = Path(__file__).resolve().parents[1] / "perfbench" / "demo-chain.yaml"


def _chain(tmp_path, n, diag, couplings, topology="open"):
    doc = {"name": f"chain{n}", "n": n, "topology": topology, "diag": diag, "couplings": couplings}
    path = tmp_path / f"chain{n}.yaml"  # read at once, so a later chain may overwrite it
    path.write_text(yaml.safe_dump(doc), encoding="utf-8")
    return load_custom_model(str(path))


def _affine_chain7(tmp_path):
    # Degree bound 42, above the reality map's cap: no map, but it folds.
    return _chain(tmp_path, 7, [str(k) for k in range(7)], ["t + 0.5"] * 6)


def _radical_products(tmp_path):
    # Products of the same radical and of two different radicals.
    return _chain(
        tmp_path, 4, ["-3", "-1", "1", "3"],
        ["sqrt(1 - t) * sqrt(1 - t)", "sqrt(2) * sqrt(1 + t)", "t"],
    )


def _seeded_documents(tmp_path, count=6):
    # Open chains and rings whose couplings repeat radicands, or pair 2 - 2t
    # with 0.5 - 0.5t, different radicands whose product is a square.  A
    # ring places each radicand twice, so its product of radicands is a
    # square and the ring folds.
    rng = random.Random(33)
    radicands = ["1 - t", "t + 2", "2 - 2*t", "3*t + 1.5"]
    factors = ["1", "t", "2", "0.5*t + 1", "-1.5"]
    families = []
    for k in range(count):
        ring = k % 2 == 0
        n = rng.choice([4, 6]) if ring else rng.randint(3, 6)
        if ring:
            roots = [rng.choice(radicands) for _ in range(n // 2)]
            pairs = [r.replace("2 - 2*t", "0.5 - 0.5*t") if rng.random() < 0.5 else r
                     for r in roots]
            roots += pairs
            rng.shuffle(roots)
        else:
            roots = [rng.choice(radicands + ["1"]) for _ in range(n - 1)]
        couplings = [f"({rng.choice(factors)})*sqrt({r})" for r in roots]
        diag = [rng.choice(["-3", "-1", "0.5", "2", "t", "1 - t"]) for _ in range(n)]
        families.append(
            _chain(tmp_path, n, diag, couplings, "ring" if ring else "open")
        )
    return families


def test_coefficients_of_known_matrix():
    # det(M - x I) for diag(1, 2) is (1-x)(2-x) = x^2 - 3x + 2, ascending
    coeffs = charpoly_coefficients(np.diag([1.0, 2.0]))
    assert [float(c) for c in coeffs] == pytest.approx([2.0, -3.0, 1.0])


def test_non_lattice_matrix_is_refused_naming_the_entry():
    # The oracle takes the band and the two ring corners only: a planted
    # entry off them is refused, however small.
    h = get_family(Model.EC4).matrix(0.7)
    h[1, 3] = 1e-30
    with pytest.raises(InvalidSpecError, match=r"entry \[1, 3\] = 1e-30"):
        charpoly_coefficients(h)


def test_oracle_matches_eigensolver_on_registry_model():
    h = get_family(Model.MDG6_W2).matrix(0.25)
    oracle = eigenvalues_charpoly_oracle(h).values
    solver = np.linalg.eigvals(h)
    assert matching_distance(oracle, solver) < 1e-10


def test_oracle_handles_complex_phase():
    h = get_family(Model.EC4).matrix(1.55)
    oracle = eigenvalues_charpoly_oracle(h).values
    solver = np.linalg.eigvals(h)
    assert matching_distance(oracle, solver) < 1e-10


def test_oracle_exact_zero_deflation():
    # singular by construction: a zero row/column pair
    h = np.zeros((3, 3))
    h[0, 0] = 2.0
    h[1, 1] = -2.0
    values = eigenvalues_charpoly_oracle(h).values
    assert sorted(abs(v) for v in values) == pytest.approx([0.0, 2.0, 2.0])


def test_oracle_rejects_oversized_input(tmp_path):
    with pytest.raises(InvalidSpecError):
        eigenvalues_charpoly_oracle(np.eye(13))
    chain13 = _chain(tmp_path, 13, ["0"] * 13, ["t"] * 12)
    with pytest.raises(InvalidSpecError, match="n <= 12, got 13"):
        model_oracle_eigenvalues(chain13, 0.5)


@pytest.mark.parametrize(
    "h, message",
    [
        (np.array([[1.0, np.inf], [-np.inf, 1.0]]), "entries must be finite"),
        (np.zeros((2, 3)), r"square matrix, got shape \(2, 3\)"),
        ([[1.0, 2.0], [3.0]], "expected a square matrix"),
    ],
    ids=["non-finite", "non-square", "ragged"],
)
def test_oracle_refuses_a_matrix_it_cannot_lift(h, message):
    with pytest.raises(InvalidSpecError, match=message):
        eigenvalues_charpoly_oracle(h)


def test_model_oracle_beats_float_entry_rounding():
    # At t=0 the whole spectrum collapses; entry rounding scatters float
    # roots to ~1e-2, while the model's exact characteristic polynomial is
    # x^6, whose roots are six exact zeros.
    family = get_family(Model.MDG6_OPEN)
    assert model_oracle_eigenvalues(family, 0.0).values.tolist() == [0] * 6


def test_model_oracle_agrees_with_float_path_away_from_degeneracy(tmp_path):
    chain7 = _affine_chain7(tmp_path)
    assert reality_map(chain7) is None and folded(chain7) is not None
    cases = [(get_family(Model.EC4), 0.5)]
    cases += [(chain7, t) for t in (-2.2, 0.3, 1.7)]
    cases += [(_radical_products(tmp_path), t) for t in (-0.6, 0.3)]
    for family, t in cases:
        exact = model_oracle_eigenvalues(family, t).values
        floats = eigenvalues_charpoly_oracle(family.matrix(t)).values
        assert matching_distance(exact, floats) < 1e-12, (family.name, t)


def test_model_oracle_of_a_document_that_does_not_fold_is_the_float_lift(tmp_path):
    family = _chain(
        tmp_path, 4, ["-3", "sqrt(t + 2)", "1", "3"], ["t", "t", "t", "t"], "ring"
    )
    assert folded(family) is None
    for t in (-1.5, 0.3, 1.1):
        assert (
            model_oracle_eigenvalues(family, t).values.tolist()
            == eigenvalues_charpoly_oracle(family.matrix(t)).values.tolist()
        )


def test_charpoly_leading_coefficient_is_unity():
    h = get_family(Model.MDG6_W1).matrix(0.1)
    coeffs = charpoly_coefficients(h)
    assert coeffs[-1] == 1


def _exact_charpoly(rows):
    """Ascending coefficients of det(M - x I) by sympy, from the exact entries.

    An entry is a sympy number or a double, taken at its exact value.
    """
    sp = pytest.importorskip("sympy")
    m = sp.Matrix(
        [[x if isinstance(x, sp.Basic) else sp.Rational(*float(x).as_integer_ratio())
          for x in row] for row in rows]
    )
    n = m.shape[0]
    # charpoly is det(x I - M), descending; det(M - x I) is (-1)^n times it.
    return [(-1) ** n * sp.expand(c) for c in reversed(m.charpoly().all_coeffs())]


def _model_rows(family, t):
    """The family's entries at the double t as exact sympy numbers."""
    sp = pytest.importorskip("sympy")
    field = SimpleNamespace(sqrt=sp.sqrt, num=sp.Rational)
    tf = sp.Rational(t)
    return layout(family.n, family.diag_fn(tf, field), family.upper_fn(tf, field), family.topology)


@pytest.mark.parametrize("path", ["matrix", "folded"])
@pytest.mark.parametrize("t", [-0.4, 0.3, 0.9])
def test_coefficients_equal_sympy_charpoly(path, t, tmp_path):
    families = [get_family(m) for m in Model] + [load_custom_model(str(DEMO_CHAIN))]
    families += [_affine_chain7(tmp_path), _radical_products(tmp_path)]
    families += _seeded_documents(tmp_path)
    for family in families:
        if path == "matrix":
            # The float matrix, lifted exactly: equal coefficient for coefficient.
            rows = family.matrix(t)
            exact = _exact_charpoly(rows)
            coeffs = charpoly_coefficients(rows)
            assert all(isinstance(c, Fraction) for c in coeffs)
        else:
            # The model's characteristic polynomial at t, up to a constant factor.
            exact = _exact_charpoly(_model_rows(family, t))
            exact = [c / exact[-1] for c in exact]
            p, s = folded(family).charpoly_at(t)
            coeffs = [c * s**k for k, c in enumerate(p)]
            coeffs = [Fraction(c, coeffs[-1]) for c in coeffs]
        assert all(c.is_Rational for c in exact), family.name
        assert [(c.numerator, c.denominator) for c in coeffs] == [
            (int(c.p), int(c.q)) for c in exact
        ], family.name


@pytest.mark.parametrize(
    "h, expected",
    [
        # Site energies 0, 1, 2 of a chain at coupling t = 0: each a 3-fold or
        # a 4-fold eigenvalue, which polyroots alone stalls on.
        (np.diag([0.0, 1.0, 2.0] * 3), [0] * 3 + [1] * 3 + [2] * 3),
        (np.diag([0.0, 1.0, 2.0] * 4), [0] * 4 + [1] * 4 + [2] * 4),
        # det(H(t) - x) = (x^2 - 1)(x^2 - (9 - 4t^2)) for ec4: -1, 0, 0, 1 at t = 1.5.
        (get_family(Model.EC4).matrix(1.5), [-1, 0, 0, 1]),
        # Simple roots 1 +- 2^-60, closer than double resolution: np.roots
        # starts them as a complex pair, which the polish still separates.
        (np.array([[0.0, 0.0, 0.0], [0.0, 1.0, 2.0**-60], [0.0, 2.0**-60, 1.0]]), [0, 1, 1]),
    ],
    ids=["chain9-t0", "chain12-t0", "ec4-t1.5", "cluster-2^-60"],
)
def test_oracle_repeated_eigenvalues_are_exact(h, expected):
    assert eigenvalues_charpoly_oracle(h).values.tolist() == expected


@pytest.mark.parametrize("t", [-1e300, -1e150, 1e150, 1e300])
def test_oracle_ec4_at_huge_scale(t):
    # The roots are +-1 and +-i sqrt(4t^2 - 9), which rounds to +-2ti.
    values = eigenvalues_charpoly_oracle(get_family(Model.EC4).matrix(t)).values
    assert values.tolist() == [-1, -2j * abs(t), 2j * abs(t), 1]


def test_oracle_centres_a_trace_beyond_the_double_range():
    # The trace 2e308 overflows a double; the centred roots are +-0.5i.
    h = np.array([[1e308, 0.5], [-0.5, 1e308]])
    assert eigenvalues_charpoly_oracle(h).values.tolist() == [1e308 - 0.5j, 1e308 + 0.5j]


@pytest.mark.parametrize(
    "h, expected",
    [
        # Lower-triangular: the eigenvalues are the diagonal entries.
        (
            [[-2.903607776861689e-125, 0.0], [6.455699165158357e-126, 5.807215553723378e-125]],
            [-2.903607776861689e-125, 5.807215553723378e-125],
        ),
        ([[0.0, 6.925861551099974e-179], [6.925861551099974e-179, 0.0]],
         [-6.925861551099974e-179, 6.925861551099974e-179]),
        ([[0.0, -1.2977885965913514e166], [-1.2977885965913514e166, 0.0]],
         [-1.2977885965913514e166, 1.2977885965913514e166]),
    ],
    ids=["tiny-triangular", "tiny-symmetric", "huge-symmetric"],
)
def test_oracle_resolves_roots_far_from_the_unit_disc(h, expected):
    # polyroots stops on an absolute correction of 1e-50, which would merge
    # roots below that into their mean: they are solved in y = x / 2^bits.
    # Roots of 1e166 take too many steps from starts of order 1.
    assert eigenvalues_charpoly_oracle(np.array(h)).values.tolist() == expected


@pytest.mark.parametrize(
    "solve, model, t",
    [
        (lambda f, t: eigenvalues_charpoly_oracle(f.matrix(t)), Model.EC4, 0.31),
        (model_oracle_eigenvalues, Model.MDG6_OPEN, 1e-5),
    ],
    ids=["float-lift-ec4", "exact-entry-mdg6-open"],
)
def test_polish_starts_from_double_precision_roots(monkeypatch, solve, model, t):
    # Durand-Kerner evaluates the factor once per root and step; from
    # double-precision starts it converges quadratically in 3 steps.
    evaluations = []
    horner = charpoly._horner

    def counted(coeffs, *args):
        evaluations.append(len(coeffs))
        return horner(coeffs, *args)

    monkeypatch.setattr(charpoly, "_horner", counted)
    family = get_family(model)
    solve(family, t)
    assert evaluations and len(evaluations) <= 4 * family.n


def _lattice_matrix(rng, n, *, ring=False, diag=None, coupling=1.0):
    """A seeded lattice matrix: random band, signs and ring corners."""
    h = np.diag(rng.normal(size=n) if diag is None else np.asarray(diag, dtype=float))
    c = coupling * rng.normal(size=n - 1)
    h[np.arange(n - 1), np.arange(1, n)] = c
    h[np.arange(1, n), np.arange(n - 1)] = c * rng.choice([-1.0, 1.0], size=n - 1)
    if ring:
        h[0, n - 1], h[n - 1, 0] = coupling * rng.normal(size=2)
    return h


def _sympy_cases():
    rng = np.random.default_rng(2027)
    cases = {}
    for i in range(18):
        n = int(rng.integers(2, 9))
        h = _lattice_matrix(rng, n, ring=n >= 3 and i % 3 == 1)
        cases[f"random-{i}"] = h * (1.0, 1e150, 1e-150)[i % 3]
    for i in range(3):
        # Two equal blocks split by a zero coupling: every root is double.
        block = _lattice_matrix(rng, 3)
        h = np.zeros((6, 6))
        h[:3, :3] = h[3:, 3:] = block
        cases[f"repeated-{i}"] = h
    for i in range(3):
        # All roots within about 2^-60 of 1, below double resolution.
        n = 4 + i
        cases[f"cluster-{i}"] = _lattice_matrix(rng, n, diag=[1.0] * n, coupling=2.0**-60)
    return cases


SYMPY_CASES = _sympy_cases()


@pytest.mark.parametrize("case", sorted(SYMPY_CASES))
def test_oracle_values_are_the_doubles_nearest_sympy_roots(case):
    # sympy's 80-digit roots of each square-free factor, in y with x = c + 2^k y,
    # c the mean root and 2^k the scale of h - c; the oracle value is the
    # double nearest each.
    sp = pytest.importorskip("sympy")
    h = SYMPY_CASES[case]
    n = len(h)
    c = sum(sp.Rational(*float(v).as_integer_ratio()) for v in np.diag(h)) / n
    scale = sp.Integer(2) ** math.frexp(float(np.abs(h - float(c) * np.eye(n)).max()))[1]
    x = sp.Symbol("x")
    poly = sp.Poly(
        sum(a * (c + scale * x) ** i for i, a in enumerate(_exact_charpoly(h))), x
    )
    expected = []
    for factor, multiplicity in poly.sqf_list()[1]:
        for root in factor.nroots(n=80):
            re, im = root.as_real_imag()
            expected += [complex(float(c + scale * re), float(scale * im))] * multiplicity
    expected.sort(key=lambda z: (z.real, z.imag))
    assert eigenvalues_charpoly_oracle(h).values.tolist() == expected


def test_oracle_errors_carry_their_diagnostics(monkeypatch):
    h = get_family(Model.EC4).matrix(0.31)
    monkeypatch.setattr(charpoly, "_MAX_STEPS", 2)
    with pytest.raises(OracleError, match="stagnated") as stalled:
        eigenvalues_charpoly_oracle(h)
    diagnostics = stalled.value.diagnostics
    assert sorted(diagnostics) == ["degree", "error_estimate", "steps", "threshold"]
    assert diagnostics["degree"] == 4 and diagnostics["steps"] == 2
    # 50 digits are 169 bits; two steps from double starts reach about 2^-104.
    assert diagnostics["threshold"] == 2.0**-168 < diagnostics["error_estimate"] < 2.0**-90
