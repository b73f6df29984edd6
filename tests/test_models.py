"""Registry model families: entries, validity ranges, and stacked assembly."""

import hashlib
import math

import numpy as np
import pytest

from ptlattice import (
    Model,
    ModelDomainError,
    Topology,
    build_matrix,
    get_family,
    is_pt_symmetric,
    iter_families,
    load_custom_model,
    model_names,
)
from ptlattice import models


def test_registry_is_complete():
    assert set(model_names()) == {
        "mdg6-open",
        "mdg6-w1",
        "mdg6-w2",
        "ec4",
        "ec4-strongbond",
        "ec4-recoupled",
    }


@pytest.mark.parametrize("model", list(Model))
def test_every_model_is_pt_symmetric_at_samples(model):
    family = get_family(model)
    lo = max(family.t_min, -1.0)
    hi = min(family.t_max, 1.0)
    for t in np.linspace(lo, hi, 7):
        assert is_pt_symmetric(family.matrix(float(t)))


def test_mdg6_open_shape_and_entries():
    family = get_family(Model.MDG6_OPEN)
    assert family.n == 6 and family.topology is Topology.OPEN
    h = family.matrix(0.0)
    assert np.array_equal(np.diag(h), [-5, -3, -1, 1, 3, 5])
    expected = [math.sqrt(5), math.sqrt(8), 3.0, math.sqrt(8), math.sqrt(5)]
    assert np.allclose(np.diag(h, 1), expected)
    assert np.allclose(np.diag(h, -1), [-c for c in expected])


def test_mdg6_open_diagonal_at_upper_edge():
    h = get_family(Model.MDG6_OPEN).matrix(1.0)
    assert np.allclose(h, np.diag([-5, -3, -1, 1, 3, 5]))


def test_mdg6_validity_range():
    family = get_family(Model.MDG6_OPEN)
    assert family.contains(1.0) and not family.contains(1.0 + 1e-12)
    with pytest.raises(ModelDomainError) as err:
        family.matrix(1.1)
    assert "sqrt" in str(err.value)


def test_w1_adds_weak_corner():
    base = get_family(Model.MDG6_OPEN).matrix(0.5)
    w1 = get_family(Model.MDG6_W1).matrix(0.5)
    corner = math.sqrt(0.5) / 100
    assert w1[0, 5] == pytest.approx(-corner)
    assert w1[5, 0] == pytest.approx(corner)
    inner = w1.copy()
    inner[0, 5] = inner[5, 0] = 0.0
    assert np.allclose(inner, base)


def test_w2_strengthens_central_bond_and_corner():
    w2 = get_family(Model.MDG6_W2).matrix(0.5)
    root = math.sqrt(0.5)
    assert w2[2, 3] == pytest.approx(301 * root / 100)
    assert w2[0, 5] == pytest.approx(-root / 10)


def test_ec4_is_equal_coupling_ring():
    h = get_family(Model.EC4).matrix(0.7)
    assert np.array_equal(np.diag(h), [-3, -1, 1, 3])
    assert np.allclose(np.diag(h, 1), [0.7, 0.7, 0.7])
    assert h[0, 3] == pytest.approx(-0.7)
    assert h[3, 0] == pytest.approx(0.7)


def test_ec4_strongbond_scales_closing_coupling():
    h = get_family(Model.EC4_STRONG_BOND).matrix(0.7)
    assert h[3, 0] == pytest.approx(1.5 * 0.7)


def test_ec4_recoupled_ratios():
    h = get_family(Model.EC4_RECOUPLED).matrix(0.6)
    assert np.allclose(np.diag(h, 1), [0.6, 0.8, 0.6])
    assert h[3, 0] == pytest.approx(0.15)


def test_matrix_assembles_through_build_matrix(monkeypatch):
    calls = []

    def counted(*args):
        calls.append(args)
        return build_matrix(*args)

    monkeypatch.setattr(models, "build_matrix", counted)
    family = get_family(Model.EC4)
    h = family.matrix(0.5)
    assert len(calls) == 1
    n, diag, upper, topology = calls[0]
    assert (n, topology) == (family.n, family.topology)
    assert np.array_equal(h, build_matrix(n, diag, upper, topology))


# SHA-256 of family.matrix(t) as little-endian doubles, recorded from the
# separate open-chain and ring builders before they were merged into one
# assembler.  Any change to an entry, a sign or a corner changes a digest.
REGISTRY_DIGESTS = {
    ("mdg6-open", -0.4): "caeff679124cbbce1c6d2e72383949d93a871f76cbb0845e966948b550ea201e",
    ("mdg6-open", 0.3): "4204a39eb82e6cd26058d84345612134ebeae62fb0e3a5f1e659faba2398c1b4",
    ("mdg6-open", 0.9): "f2a0e218ef03a5b0a722268ebcec9b911ef2048df26b3d57c8661e76b05718d6",
    ("mdg6-w1", -0.4): "f38043fd97af8d6c3c1c5abf551dd9494c3893ef40c18eea333a1299539f8035",
    ("mdg6-w1", 0.3): "b4343a274c153150b59878b5894689297a73b41bb2fdc1f5717a4323a0cc4e58",
    ("mdg6-w1", 0.9): "9c280190066dd50a73875cf82c83f268273a565f8e8f195e446659e0ffc632ac",
    ("mdg6-w2", -0.4): "1f509e7d944724cd34dd07ed4c0a380ea5fa622e4cd39a4e20080361f95c1439",
    ("mdg6-w2", 0.3): "4abe380080929acadb0a9429cd293c09c28955ade3a63a8634ab3d9d2a7c45cf",
    ("mdg6-w2", 0.9): "86276a5f65000e0e393f68e9b7ea15b8b0282710feec8fe07c77cb49fad950f1",
    ("ec4", -0.4): "07f71a6d966f497f2e7907458ee249f9716b48f3f27ffc62e36d77a5208deeb5",
    ("ec4", 0.3): "6e226b628a436b1d15cdd9d019d1c2602cd8cc034fe136a0d3f9361171cef867",
    ("ec4", 0.9): "06c525b4ece64c71fede5ad658c1dbb8f8aaf92cba471f816bb91693aff6c2a0",
    ("ec4-strongbond", -0.4): "59dfbd312170bd2c86cc2542d24e74deb89e27a81d457edded8df05d93a38816",
    ("ec4-strongbond", 0.3): "663084c44c716c5fe53aee0b6fee9412ec0311571e99cd034a7e83614e50f60e",
    ("ec4-strongbond", 0.9): "187906722d3b20dd3a5190c681c879dcb9f2bb8cbd9f139d3966ab64e148db27",
    ("ec4-recoupled", -0.4): "ae79fa8748a16ffbe639652f2840fad981a572b367b9a6fe08198ebf62f53c77",
    ("ec4-recoupled", 0.3): "73c90796d51348b01ddf89473d4d5770ef7c7db6b3aee58b246dc0e1b64c9dfe",
    ("ec4-recoupled", 0.9): "9a19af60b8a2c3cd3111d4eba389bd23fb2f6372dea564d2db5235466fd1b2d9",
}


@pytest.mark.parametrize("model,t", sorted(REGISTRY_DIGESTS))
def test_registry_matrices_are_bit_exact(model, t):
    h = get_family(model).matrix(t)
    assert hashlib.sha256(h.astype("<f8").tobytes()).hexdigest() == REGISTRY_DIGESTS[model, t]


# Validity [-2, 1] is inferred from the two radicands; "2" is a constant
# entry, which the stacked assembly must broadcast along the stack.
SQRT_DOC = """\
name: two-radicands
n: 4
topology: ring
diag: ["-3", "-1", "1", "2"]
couplings: ["sqrt(1 - t)", "t / 3", "sqrt(t + 2) * t", "1 - t * t"]
"""


def _stack_families(tmp_path):
    path = tmp_path / "two-radicands.yaml"
    path.write_text(SQRT_DOC, encoding="utf-8")
    return [*iter_families(), load_custom_model(str(path))]


def test_matrices_is_the_stack_of_matrix_bit_for_bit(tmp_path):
    for family in _stack_families(tmp_path):
        lo, hi = max(family.t_min, -2.0), min(family.t_max, 2.0)
        ts = np.linspace(lo, hi, 401)
        assert ts[0] == lo and ts[-1] == hi
        expected = np.stack([family.matrix(t) for t in ts])
        stack = family.matrices(ts)
        assert stack.dtype == expected.dtype and stack.shape == expected.shape
        assert stack.tobytes() == expected.tobytes(), family.name


def test_custom_document_validity_is_inferred_for_the_stack(tmp_path):
    family = _stack_families(tmp_path)[-1]
    assert (family.t_min, family.t_max) == (-2.0, 1.0)


def test_matrices_reports_the_first_point_outside_the_range():
    family = get_family(Model.MDG6_OPEN)
    with pytest.raises(ModelDomainError) as err:
        family.matrices([0.5, 1.25, -0.3, 1.5])
    assert err.value.t == 1.25


@pytest.mark.parametrize(
    "coupling, bad_t",
    [
        ("sqrt(t*t - 0.0625)", 0.0),
        ("1/(1/(t - 0.5))", 0.5),
        ("1/(1e400/(t - 0.5))", 0.5),
    ],
    ids=["negative-radicand", "hidden-zero-divisor", "infinite-literal"],
)
def test_matrices_raises_what_matrix_raises(tmp_path, coupling, bad_t):
    # numpy turns each of these into a finite entry or a nan at bad_t alone,
    # where the scalar path raises.
    doc = SQRT_DOC.replace('"sqrt(1 - t)"', f'"{coupling}"').replace(
        "topology: ring", "topology: ring\nt_range: [-1, 1]"
    )
    path = tmp_path / "undefined.yaml"
    path.write_text(doc, encoding="utf-8")
    family = load_custom_model(str(path))
    ts = np.array([0.75, -0.5, bad_t, -1.0])
    with pytest.raises(ModelDomainError) as scalar:
        for t in ts:
            family.matrix(t)
    with pytest.raises(ModelDomainError) as stacked:
        family.matrices(ts)
    assert stacked.value.t == scalar.value.t == bad_t
    assert str(stacked.value) == str(scalar.value)


def test_matrices_replays_an_infinite_t(tmp_path):
    # Unbounded validity admits t = inf, where t/(1/t) divides inf by zero:
    # the scalar path raises, numpy raises no flag and 1/inf is a finite 0.
    doc = SQRT_DOC.replace('"sqrt(1 - t)"', '"1/(t/(1/t))"').replace(
        '"t / 3", "sqrt(t + 2) * t", "1 - t * t"', '"1", "1/t", "2"'
    )
    path = tmp_path / "unbounded.yaml"
    path.write_text(doc, encoding="utf-8")
    family = load_custom_model(str(path))
    assert family.t_max == math.inf
    with pytest.raises(ModelDomainError) as err:
        family.matrices([0.5, math.inf])
    assert err.value.t == math.inf


def _ec4_copy(**changes):
    return models.ModelFamily(**{**vars(get_family(Model.EC4)), **changes})


def test_families_compare_and_hash_by_value():
    ec4 = get_family(Model.EC4)
    copy = _ec4_copy()
    assert copy is not ec4 and copy == ec4 and hash(copy) == hash(ec4)
    assert _ec4_copy(t_max=2.0) != ec4
    assert _ec4_copy(upper_fn=lambda t, f: [t] * 4) != ec4
    assert ec4 != "ec4"
    # The exact engine's caches key on the family, so an equal copy hits them.
    from ptlattice.exact import reality_map

    assert reality_map(copy) is reality_map(ec4)


def test_families_are_immutable_and_show_no_closures():
    ec4 = get_family(Model.EC4)
    with pytest.raises(AttributeError):
        ec4.t_max = 2.0
    with pytest.raises(AttributeError):
        del ec4.name
    assert ec4.t_max == math.inf
    assert repr(ec4) == (
        "ModelFamily(name='ec4', n=4, topology=<Topology.RING: 'ring'>, "
        "t_min=-inf, t_max=inf, radical=None)"
    )


def test_check_entries_builds_no_stack(monkeypatch):
    family = get_family(Model.MDG6_W1)
    monkeypatch.setattr(models, "layout", None)  # the stack's layout step
    family.check_entries(np.linspace(-0.4, 0.4, 1601))


def test_check_entries_replays_a_non_finite_constant():
    # No numpy flag marks a constant inf a closure returns; the check does.
    family = models.ModelFamily(
        name="inf-diag", n=2, topology=Topology.OPEN,
        diag_fn=lambda t, f: [math.inf, 1.0], upper_fn=lambda t, f: [t],
    )
    for check in (family.check_entries, family.matrices):
        with pytest.raises(ModelDomainError) as err:
            check([0.25, 0.5])
        assert err.value.t == 0.25
        assert str(err.value) == (
            "model inf-diag: an entry is not finite in double precision at t=0.25"
        )


# --------------------------------------------------- interval certificate


def _expression_family(diag, couplings, topology):
    from ptlattice.custom import evaluate, parse_expression

    d = [parse_expression(text) for text in diag]
    u = [parse_expression(text) for text in couplings]
    return models.ModelFamily(
        name="random", n=len(diag), topology=topology,
        diag_fn=lambda t, f: [evaluate(a, t, f) for a in d],
        upper_fn=lambda t, f: [evaluate(a, t, f) for a in u],
    )


def _coefficient(rng):
    return f"{rng.uniform(-2.0, 2.0):.2f}"


def _random_case(rng):
    """A random chain or ring of entry expressions and a range of t.

    Couplings are affine, affine or quadratic radicands, affine over a
    constant divisor (now and then 0), a radicand holding a quotient of
    affines, or 1e308 times a quadratic; diagonals now and then hold
    literals near 1e308.
    Half the cases with an affine radicand end their range on its correctly
    rounded root, on the side where the radicand is positive (on_root).
    """
    from fractions import Fraction

    from ptlattice.lattice import coupling_count

    topology = rng.choice([Topology.OPEN, Topology.RING])
    n = rng.choice([4, 6]) if topology is Topology.RING else rng.randint(2, 6)
    diag = [
        rng.choice(["1.7e308", "-8.9e307"]) if rng.random() < 0.1 else _coefficient(rng)
        for _ in range(n)
    ]
    couplings, roots = [], []
    for _ in range(coupling_count(n, topology)):
        a, b, c = (_coefficient(rng) for _ in range(3))
        kind = rng.randrange(6)
        if kind == 0:
            couplings.append(f"{a}*t + {b}")
        elif kind == 1:
            couplings.append(f"sqrt({a} + {b}*t)")
            if Fraction(b):
                roots.append((float(-Fraction(a) / Fraction(b)), Fraction(b) > 0))
        elif kind == 2:
            couplings.append(f"sqrt({a} + {b}*t - {c}*t*t)")
        elif kind == 3:
            couplings.append(f"({a}*t + {b})/{rng.choice([c, c, c, '0'])}")
        elif kind == 4:
            couplings.append(f"sqrt({a} + (t - {b})/(t - {c}))")
        else:
            couplings.append(f"1e308*({a} - {b}*t*t)")
    width = rng.choice([0.01, 0.3, 2.0])
    on_root = bool(roots) and rng.random() < 0.5
    if on_root:
        root, rising = rng.choice(roots)
        lo, hi = (root, root + width) if rising else (root - width, root)
    else:
        lo = rng.uniform(-3.0, 3.0)
        hi = lo + width
    return _expression_family(diag, couplings, topology), lo, hi, on_root


def test_certified_ranges_pass_check_entries_on_their_grids():
    # The enclosure must hold at every double of a certified range: its grid
    # (and its ends and seeded points inside it) must build without error.
    import random

    from ptlattice.domains import _grid_within
    from ptlattice.tolerances import grid_steps

    rng = random.Random(35)
    certified = fell_back = raised = certified_on_root = 0
    for _ in range(600):
        family, lo, hi, on_root = _random_case(rng)
        steps = grid_steps(lo, hi)
        assert _grid_within(lo, hi, steps)
        grid = np.linspace(lo, hi, steps)
        if family.certify_entries(lo, hi):
            certified += 1
            certified_on_root += on_root
            family.check_entries(grid)
            for t in (lo, hi, *(rng.uniform(lo, hi) for _ in range(20))):
                family.matrix(t)
        else:
            fell_back += 1
            try:
                family.check_entries(grid)
            except ModelDomainError:
                raised += 1
    # Of 600 ranges, 107 certify (34 of them ending on a radicand root) and
    # 493 fall back to the grid, where 483 raise: the set holds many ranges
    # whose grid fails, and the certificate gives up on 10 whose grid passes.
    assert (certified, certified_on_root, fell_back, raised) == (107, 34, 493, 483)


def test_mdg6_open_certifies_up_to_its_radicand_root():
    # 1 - 1.0 is 0.0: the radicand's lower bound is 0 at the range's end.
    family = get_family(Model.MDG6_OPEN)
    assert family.certify_entries(-1.0, 1.0)
    assert not family.certify_entries(-1.0, math.nextafter(1.0, 2.0))


def test_a_radicand_that_rounds_below_zero_at_its_root_is_not_certified(tmp_path):
    # The inferred end 3.0 is the correctly rounded root, but 0.3 - 0.1*3.0
    # is -5.6e-17 in doubles.
    path = tmp_path / "edge.yaml"
    path.write_text(
        'name: edge\nn: 2\ntopology: open\ndiag: ["1", "-1"]\n'
        'couplings: ["sqrt(0.3 - 0.1*t)"]\n',
        encoding="utf-8",
    )
    family = load_custom_model(str(path))
    assert family.t_max == 3.0
    assert not family.certify_entries(0.0, 3.0)
    assert family.certify_entries(0.0, 2.9)


def test_certify_entries_keeps_to_the_validity_interval():
    family = models.ModelFamily(
        name="short", n=2, topology=Topology.OPEN,
        diag_fn=lambda t, f: [t, 1.0], upper_fn=lambda t, f: [t], t_max=0.5,
    )
    assert family.certify_entries(0.0, 0.5)
    assert not family.certify_entries(0.0, 1.0)


@pytest.mark.parametrize(
    "diag, upper",
    [
        (lambda t, f: [t, 1.0], lambda t, f: [1.0 if t < 0.5 else 2.0]),  # branches on t
        (lambda t, f: [float(t), 1.0], lambda t, f: [t]),  # leaves the field
        (lambda t, f: [t, 1.0], lambda t, f: [t, t]),  # one coupling too many
        (lambda t, f: [t, 1.0, 1.0], lambda t, f: []),  # one site too many, one bond too few
        (lambda t, f: [math.inf, 1.0], lambda t, f: [t]),  # a constant inf
        (lambda t, f: [f.num("1e400"), 1.0], lambda t, f: [t]),  # a literal past the doubles
        (lambda t, f: [1e308 * t, 1e308 * t], lambda t, f: [t]),  # entries whose sum overflows
        (lambda t, f: [t, 1.0], lambda t, f: [1 / (t - 0.25)]),  # a divisor spanning 0
        # Radicands negative at t = 0 or 1, each inside one bound of X - Y
        # or X / Y that two corners alone would miss.
        (lambda t, f: [t, 1.0], lambda t, f: [f.sqrt((2 + t) - 2.5 * (1 - t))]),
        (lambda t, f: [t, 1.0], lambda t, f: [f.sqrt(1.5 - (1 + t) / (1 + 3 * (1 - t)))]),
    ],
    ids=[
        "branch", "float", "count", "shape", "inf", "literal", "sum", "divisor", "difference",
        "quotient",
    ],
)
def test_certify_entries_proves_nothing_it_cannot_bound(diag, upper):
    family = models.ModelFamily(
        name="odd", n=2, topology=Topology.OPEN, diag_fn=diag, upper_fn=upper,
    )
    assert not family.certify_entries(0.0, 1.0)
