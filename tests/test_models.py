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
