"""Custom model documents: grammar, validity inference, and loading."""

import numpy as np
import pytest
import yaml

from ptlattice import (
    ExprError,
    Model,
    ModelDomainError,
    ModelFileError,
    evaluate,
    get_family,
    infer_validity,
    load_custom_model,
    parse_expression,
)
from ptlattice.charpoly import model_oracle_eigenvalues
from ptlattice.models import FloatField


def write_yaml(tmp_path, doc, name="model.yaml"):
    path = tmp_path / name
    path.write_text(yaml.safe_dump(doc), encoding="utf-8")
    return str(path)


EC4_DOC = {
    "name": "ec4-custom",
    "n": 4,
    "topology": "ring",
    "diag": ["-3", "-1", "1", "3"],
    "couplings": ["t", "t", "t", "t"],
}


class TestGrammar:
    def test_literals_and_arithmetic(self):
        ast = parse_expression("2 * (1 + 3) - 6 / 2")
        assert evaluate(ast, 0.0, FloatField) == pytest.approx(5.0)

    def test_parameter_and_sqrt(self):
        ast = parse_expression("sqrt(5 * (1 - t))")
        assert evaluate(ast, 0.8, FloatField) == pytest.approx(1.0)

    def test_unary_minus_and_precedence(self):
        ast = parse_expression("-t * 3 + 2")
        assert evaluate(ast, 1.0, FloatField) == pytest.approx(-1.0)

    def test_scientific_notation(self):
        ast = parse_expression("1.5e-2 * t")
        assert evaluate(ast, 2.0, FloatField) == pytest.approx(0.03)

    @pytest.mark.parametrize(
        "text", ["sqrt(", "2 **", "x + 1", "sin(t)", "(1", "1 muffin", ""]
    )
    def test_rejected_expressions(self, text):
        with pytest.raises(ExprError):
            parse_expression(text)

    def test_parse_error_carries_column(self):
        with pytest.raises(ExprError) as err:
            parse_expression("1 + @", "couplings[0]")
        assert err.value.column == 5
        assert err.value.field == "couplings[0]"


# The longest expression of each shape that fits MAX_EXPR_TOKENS (256).
LONGEST = {
    "parentheses": "(" * 127 + "t" + ")" * 127,  # 255 tokens
    "unary-minus": "-" * 255 + "t",  # 256 tokens
    "nested-sqrt": "sqrt(" * 85 + "t" + ")" * 85,  # 256 tokens
    "sum": "+".join(["t"] * 128),  # 255 tokens
}


class TestExpressionLength:
    @pytest.mark.parametrize("text", LONGEST.values(), ids=LONGEST)
    def test_longest_expressions_load_and_evaluate(self, tmp_path, text):
        doc = dict(EC4_DOC, couplings=[text, "t", "t", "t"], t_range=[0.0, 1.0])
        family = load_custom_model(write_yaml(tmp_path, doc))
        assert np.isfinite(family.matrices([0.25, 0.5])).all()
        assert np.isfinite(family.matrix(0.5)).all()
        model_oracle_eigenvalues(family, 0.5)

    def test_one_token_more_is_rejected(self):
        with pytest.raises(ExprError) as err:
            parse_expression("-" * 256 + "t", "couplings[0]")
        assert err.value.field == "couplings[0]"
        assert err.value.column == 257
        assert "longer than 256 tokens" in str(err.value)


class TestValidityInference:
    def test_affine_radicand_clips_above(self):
        lo, hi = infer_validity([parse_expression("sqrt(1 - t)")])
        assert lo == -np.inf and hi == 1.0

    def test_affine_radicand_clips_below(self):
        lo, hi = infer_validity([parse_expression("sqrt(2 * (1 + t))")])
        assert lo == -1.0 and hi == np.inf

    def test_two_sided_clip(self):
        lo, hi = infer_validity(
            [parse_expression("sqrt(1 - t) + sqrt(t + 2)")]
        )
        assert (lo, hi) == (-2.0, 1.0)

    def test_no_radical_means_unbounded(self):
        lo, hi = infer_validity([parse_expression("3 * t + 1")])
        assert lo == -np.inf and hi == np.inf

    def test_nonaffine_radicand_needs_explicit_range(self):
        with pytest.raises(ModelFileError):
            infer_validity([parse_expression("sqrt(9 - 4*t*t)")])

    def test_contradictory_radicands_rejected(self):
        with pytest.raises(ModelFileError):
            infer_validity(
                [parse_expression("sqrt(t - 2) + sqrt(1 - t)")]
            )


class TestExactInference:
    """Radicands fold exactly, as the exact engine folds the entries."""

    def test_an_inferred_end_is_the_correctly_rounded_root(self):
        # -0.3 / -0.1 is 2.9999999999999996 in doubles; the root is 3.
        lo, hi = infer_validity([parse_expression("sqrt(0.3 - 0.1*t)")])
        assert lo == -np.inf and hi == 3.0

    def test_an_irrational_constant_needs_an_explicit_range(self):
        with pytest.raises(ModelFileError, match="t_range"):
            infer_validity([parse_expression("sqrt(1 - sqrt(2)*t)")])

    def test_a_literal_beyond_the_exact_range_needs_an_explicit_range(self):
        with pytest.raises(ModelFileError, match="t_range"):
            infer_validity([parse_expression("sqrt(1e500 - t)")])


class TestLoading:
    def test_equivalent_to_registry_ec4(self, tmp_path):
        family = load_custom_model(write_yaml(tmp_path, EC4_DOC))
        registry = get_family(Model.EC4)
        rng = np.random.default_rng(11)
        for t in rng.uniform(-1.5, 1.5, 10):
            assert np.abs(family.matrix(float(t)) - registry.matrix(float(t))).max() < 1e-14

    def test_numeric_scalars_accepted_as_expressions(self, tmp_path):
        doc = dict(EC4_DOC, diag=[-3, -1, 1, 3])
        family = load_custom_model(write_yaml(tmp_path, doc))
        assert np.array_equal(np.diag(family.matrix(0.0)), [-3, -1, 1, 3])

    def test_inferred_validity_enforced(self, tmp_path):
        doc = {
            "name": "chain",
            "n": 3,
            "topology": "open",
            "diag": ["-1", "0", "1"],
            "couplings": ["sqrt(1 - t)", "sqrt(1 + t)"],
        }
        family = load_custom_model(write_yaml(tmp_path, doc))
        assert (family.t_min, family.t_max) == (-1.0, 1.0)
        with pytest.raises(ModelDomainError):
            family.matrix(1.5)

    def test_explicit_range_allows_nonaffine_radicand(self, tmp_path):
        doc = {
            "name": "ring",
            "n": 4,
            "topology": "ring",
            "diag": ["0", "0", "0", "0"],
            "couplings": ["sqrt(9 - 4*t*t)", "t", "t", "t"],
            "t_range": [-1.5, 1.5],
        }
        family = load_custom_model(write_yaml(tmp_path, doc))
        assert (family.t_min, family.t_max) == (-1.5, 1.5)

    def test_nonaffine_radicand_without_range_rejected(self, tmp_path):
        doc = {
            "name": "ring",
            "n": 4,
            "topology": "ring",
            "diag": ["0", "0", "0", "0"],
            "couplings": ["sqrt(9 - 4*t*t)", "t", "t", "t"],
        }
        with pytest.raises(ModelFileError):
            load_custom_model(write_yaml(tmp_path, doc))

    def test_odd_ring_rejected(self, tmp_path):
        doc = {
            "name": "bad",
            "n": 5,
            "topology": "ring",
            "diag": ["0"] * 5,
            "couplings": ["t"] * 5,
        }
        with pytest.raises(ModelFileError):
            load_custom_model(write_yaml(tmp_path, doc))

    @pytest.mark.parametrize("n", [1, 65])
    def test_size_outside_the_dense_range_rejected(self, tmp_path, n):
        doc = {"name": "chain", "n": n, "topology": "open",
               "diag": ["0"] * n, "couplings": ["t"] * (n - 1)}
        with pytest.raises(ModelFileError, match=f"got {n}") as err:
            load_custom_model(write_yaml(tmp_path, doc))
        assert err.value.field == "n"

    def test_largest_size_loads(self, tmp_path):
        doc = {"name": "chain", "n": 64, "topology": "open",
               "diag": ["0"] * 64, "couplings": ["t"] * 63}
        family = load_custom_model(write_yaml(tmp_path, doc))
        assert family.n == 64 and family.matrix(0.5).shape == (64, 64)

    def test_wrong_coupling_count_rejected(self, tmp_path):
        doc = dict(EC4_DOC, couplings=["t", "t", "t"])
        with pytest.raises(ModelFileError):
            load_custom_model(write_yaml(tmp_path, doc))

    def test_unknown_field_rejected(self, tmp_path):
        doc = dict(EC4_DOC, flavor="strange")
        with pytest.raises(ModelFileError):
            load_custom_model(write_yaml(tmp_path, doc))

    def test_missing_field_rejected(self, tmp_path):
        doc = {k: v for k, v in EC4_DOC.items() if k != "topology"}
        with pytest.raises(ModelFileError) as err:
            load_custom_model(write_yaml(tmp_path, doc))
        assert err.value.field == "topology"

    def test_missing_file(self, tmp_path):
        with pytest.raises(ModelFileError):
            load_custom_model(str(tmp_path / "nope.yaml"))

    def test_invalid_yaml_reports_location(self, tmp_path):
        path = tmp_path / "broken.yaml"
        path.write_text("name: [unclosed\nn: 4\n", encoding="utf-8")
        with pytest.raises(ModelFileError) as err:
            load_custom_model(str(path))
        assert err.value.line is not None

    def test_bad_t_range_rejected(self, tmp_path):
        doc = dict(EC4_DOC, t_range=[2, 1])
        with pytest.raises(ModelFileError):
            load_custom_model(write_yaml(tmp_path, doc))

    def test_t_range_exponent_without_dot_is_named(self, tmp_path):
        # YAML 1.1 reads 1e10 (no dot) as a string, not as a float.
        path = tmp_path / "model.yaml"
        path.write_text(
            yaml.safe_dump(EC4_DOC) + "t_range: [0, 1e10]\n",
            encoding="utf-8",
        )
        with pytest.raises(ModelFileError) as err:
            load_custom_model(str(path))
        assert err.value.field == "t_range"
        message = str(err.value)
        assert "t_range[1] is '1e10', a YAML string, not a number" in message
        assert "1.0e10" in message
        assert "lo < hi" not in message


class TestUndefinedEntries:
    """An explicit t_range may cover points where an entry has no value."""

    @pytest.mark.parametrize(
        "build",
        [
            pytest.param(lambda family, t: family.matrix(t), id="matrix"),
            pytest.param(model_oracle_eigenvalues, id="model_oracle_eigenvalues"),
        ],
    )
    @pytest.mark.parametrize(
        "coupling, t, topology",
        [("sqrt(t*t - 4)", 0.5, "ring"), ("1/t", 0.0, "ring"), ("sqrt(t*t - 4)", 0.5, "open")],
        # On the open chain the entries fold into Q[t], where c^2 = t^2 - 4
        # has a value at every t: the oracle must still refuse t = 0.5.
        ids=["negative-radicand", "zero-divisor", "negative-radicand-open-chain"],
    )
    def test_undefined_entry_is_a_domain_error(self, tmp_path, build, coupling, t, topology):
        couplings = [coupling, "t", "t", "t"][: 4 if topology == "ring" else 3]
        doc = dict(EC4_DOC, topology=topology, couplings=couplings, t_range=[-1, 1])
        family = load_custom_model(write_yaml(tmp_path, doc))
        with pytest.raises(ModelDomainError) as err:
            build(family, t)
        assert err.value.t == t
        assert f"undefined at t={t}" in str(err.value)

    def test_overflowing_entry_is_a_domain_error(self, tmp_path):
        # 50 factors of t overflow a double at t = 1e10 but not at t = 10.
        doc = dict(
            EC4_DOC,
            couplings=["t", "t", "t", "*".join(["t"] * 50)],
            t_range=[0.0, 1e10],
        )
        family = load_custom_model(write_yaml(tmp_path, doc))
        with pytest.raises(ModelDomainError) as err:
            family.matrix(1e10)
        assert err.value.t == 1e10
        assert "not finite" in str(err.value) and "t=10000000000.0" in str(err.value)
        assert np.isfinite(family.matrix(10.0)).all()
