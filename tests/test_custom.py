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
from ptlattice.models import FloatField, MpField


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

    def test_mp_field_evaluation_is_high_precision(self):
        import mpmath

        ast = parse_expression("sqrt(2)")
        with mpmath.workdps(40):
            value = evaluate(ast, mpmath.mpf(0), MpField)
            assert abs(value * value - 2) < mpmath.mpf(10) ** -38

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

    def test_mp_lift_of_custom_model(self, tmp_path):
        import mpmath

        doc = {
            "name": "chain",
            "n": 3,
            "topology": "open",
            "diag": ["-1", "0", "1"],
            "couplings": ["sqrt(1 - t)", "sqrt(1 + t)"],
        }
        family = load_custom_model(write_yaml(tmp_path, doc))
        with mpmath.workdps(30):
            hm = family.matrix_mp(0.5)
        h = family.matrix(0.5)
        assert abs(float(hm[0][1]) - h[0, 1]) < 1e-15


class TestUndefinedEntries:
    """An explicit t_range may cover points where an entry has no value."""

    @pytest.mark.parametrize("build", ["matrix", "matrix_mp"])
    @pytest.mark.parametrize(
        "coupling, t",
        [("sqrt(t*t - 4)", 0.5), ("1/t", 0.0)],
        ids=["negative-radicand", "zero-divisor"],
    )
    def test_undefined_entry_is_a_domain_error(self, tmp_path, build, coupling, t):
        import mpmath

        doc = dict(EC4_DOC, couplings=[coupling, "t", "t", "t"], t_range=[-1, 1])
        family = load_custom_model(write_yaml(tmp_path, doc))
        with mpmath.workdps(30), pytest.raises(ModelDomainError) as err:
            getattr(family, build)(t)
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

    def test_mp_sqrt_rejects_negative_radicand(self):
        import mpmath

        with pytest.raises(ValueError):
            MpField.sqrt(mpmath.mpf(-1))
        assert MpField.sqrt(mpmath.mpf(4)) == 2
