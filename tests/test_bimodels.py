"""Bivariate model containers: matrix evaluation against the univariate
layer, constructor boxes, and the flat key-value round trip."""

import numpy as np
import pytest

from bicov.bimodels import (BivariateModel, LmcBivariate, ModelParseError,
                            cauchy_bivariate, eval_matrix,
                            matern_bivariate, model_from_text, model_to_text,
                            spherical_bivariate, stable_bivariate)
from bicov.corrfn import cauchy, evaluate, spherical, stable


def example_models():
    return [
        stable_bivariate(1.0, 1.5, 0.4, 0.8, 0.9, 0.6, 0.5, 0.7, 0.7),
        cauchy_bivariate(2.0, 0.5, -0.3, 0.5, 0.7, 0.9, 2.0, 2.5, 2.1,
                         2.0, 2.25, 2.5),
        spherical_bivariate(1.0, 1.0, 0.2, 1.0, 1.4, 2.0),
        matern_bivariate(0.7, 1.1, 0.35, 0.5, 1.0, 1.5, 1.0, 1.0, 1.0),
        LmcBivariate(b1=(1.0, 0.3, 0.5), b2=(0.4, -0.1, 0.8),
                     psi1=stable(1.0, 0.5), psi2=stable(1.0, 2.0)),
    ]


class TestEvalMatrix:
    def test_entries_compose_from_members(self):
        m = stable_bivariate(2.0, 0.5, -0.35, 0.8, 0.9, 0.6, 0.5, 0.7, 0.7)
        r = 1.7
        c = eval_matrix(m, r)
        assert c.shape == (2, 2)
        assert c[0, 0] == pytest.approx(4.0 * evaluate(m.psi11, r), rel=1e-15)
        assert c[1, 1] == pytest.approx(0.25 * evaluate(m.psi22, r), rel=1e-15)
        want12 = -0.35 * 2.0 * 0.5 * evaluate(m.psi12, r)
        assert c[0, 1] == want12
        assert c[1, 0] == c[0, 1]

    def test_array_input_shape(self):
        m = cauchy_bivariate(1.0, 1.0, 0.5, 0.5, 0.6, 0.7, 1.0, 1.5, 2.0,
                             1.0, 1.0, 1.0)
        c = eval_matrix(m, np.linspace(0.0, 3.0, 7))
        assert c.shape == (7, 2, 2)
        assert np.all(c[:, 0, 1] == c[:, 1, 0])
        # r = 0 gives the sill matrix
        assert c[0, 0, 0] == 1.0 and c[0, 1, 1] == 1.0
        assert c[0, 0, 1] == pytest.approx(0.5)

    def test_lmc_combination(self):
        m = LmcBivariate(b1=(1.0, 0.3, 0.5), b2=(0.4, -0.1, 0.8),
                         psi1=stable(1.0, 0.5), psi2=stable(1.0, 2.0))
        r = 0.9
        c = eval_matrix(m, r)
        p1, p2 = evaluate(m.psi1, r), evaluate(m.psi2, r)
        assert c[0, 0] == pytest.approx(1.0 * p1 + 0.4 * p2, rel=1e-15)
        assert c[0, 1] == pytest.approx(0.3 * p1 - 0.1 * p2, rel=1e-15)
        assert c[1, 1] == pytest.approx(0.5 * p1 + 0.8 * p2, rel=1e-15)


class TestConstructorBoxes:
    def test_marginal_smoothness_capped_at_one(self):
        with pytest.raises(ValueError):
            stable_bivariate(1, 1, 0.2, 1.2, 1.0, 0.5, 1, 1, 1)
        with pytest.raises(ValueError):
            cauchy_bivariate(1, 1, 0.2, 0.5, 1.0, 1.0001, 1, 1, 1, 1, 1, 1)
        # cross smoothness may exceed 1
        stable_bivariate(1, 1, 0.2, 0.8, 1.9, 0.5, 1, 1, 1)

    def test_sigma_and_rho_boxes(self):
        with pytest.raises(ValueError):
            stable_bivariate(0.0, 1, 0.2, 0.5, 0.5, 0.5, 1, 1, 1)
        with pytest.raises(ValueError):
            stable_bivariate(1, 1, 1.2, 0.5, 0.5, 0.5, 1, 1, 1)
        # |rho| = 1 is constructible; validity is a separate question
        stable_bivariate(1, 1, -1.0, 0.5, 0.5, 0.5, 1, 1, 1)

    def test_lmc_requires_psd_coefficients(self):
        with pytest.raises(ValueError):
            LmcBivariate(b1=(1.0, 2.0, 1.0), b2=(1.0, 0.0, 1.0),
                         psi1=stable(1.0, 1.0), psi2=stable(1.0, 2.0))
        with pytest.raises(ValueError):
            LmcBivariate(b1=(-1.0, 0.0, 1.0), b2=(1.0, 0.0, 1.0),
                         psi1=stable(1.0, 1.0), psi2=stable(1.0, 2.0))

    def test_kind_property(self):
        assert stable_bivariate(1, 1, 0, 0.5, 0.5, 0.5, 1, 1, 1).kind == "stable"
        mixed = BivariateModel(1.0, 1.0, 0.0, stable(0.5, 1.0),
                               cauchy(0.5, 1.0, 1.0), stable(0.5, 1.0))
        assert mixed.kind == "mixed"
        assert LmcBivariate((1, 0, 1), (1, 0, 1), stable(1.0, 1.0),
                            stable(1.0, 2.0)).kind == "lmc"


class TestSerialization:
    @pytest.mark.parametrize("model", example_models())
    def test_round_trip_is_exact(self, model):
        text = model_to_text(model)
        back = model_from_text(text)
        assert model_to_text(back) == text
        assert type(back) is type(model)
        if isinstance(model, BivariateModel):
            assert back.rho == model.rho
            assert back.psi12.params == model.psi12.params
        else:
            assert back.b1 == model.b1 and back.b2 == model.b2

    def test_comments_and_blank_lines(self):
        text = model_to_text(example_models()[0])
        sprinkled = "# header comment\n\n" + text.replace(
            "rho = ", "rho =   ", 1) + "\n# trailing\n"
        back = model_from_text(sprinkled)
        assert back.rho == 0.4

    def test_mixed_model_not_serializable(self):
        mixed = BivariateModel(1.0, 1.0, 0.0, stable(0.5, 1.0),
                               cauchy(0.5, 1.0, 1.0), stable(0.5, 1.0))
        with pytest.raises(ValueError):
            model_to_text(mixed)


class TestParseErrors:
    def test_missing_kind(self):
        with pytest.raises(ModelParseError):
            model_from_text("sigma1 = 1\n")

    def test_unknown_kind_line_number(self):
        with pytest.raises(ModelParseError, match="line 2"):
            model_from_text("# comment\nkind = gaussian\n")

    def test_bad_number_line_number(self):
        text = model_to_text(example_models()[0])
        bad = text.replace("s12 = 0.69999999999999996", "s12 = seven")
        assert "seven" in bad
        line_no = next(i for i, ln in enumerate(bad.splitlines(), 1)
                       if ln.startswith("s12"))
        with pytest.raises(ModelParseError, match=f"line {line_no}"):
            model_from_text(bad)

    def test_duplicate_key(self):
        text = model_to_text(example_models()[0]) + "rho = 0.1\n"
        n_lines = len(text.splitlines())
        with pytest.raises(ModelParseError, match=f"line {n_lines}: duplicate"):
            model_from_text(text)

    def test_missing_key(self):
        text = "\n".join(ln for ln in model_to_text(example_models()[0]).splitlines()
                         if not ln.startswith("s22"))
        with pytest.raises(ModelParseError, match="missing keys: s22"):
            model_from_text(text)

    def test_extra_key(self):
        text = model_to_text(example_models()[2]) + "alpha11 = 0.5\n"
        with pytest.raises(ModelParseError, match="does not belong"):
            model_from_text(text)

    def test_missing_equals(self):
        with pytest.raises(ModelParseError, match="line 1"):
            model_from_text("kind stable\n")

    def test_out_of_box_value_reports_kind_line(self):
        text = model_to_text(example_models()[0]).replace(
            "alpha11 = 0.80000000000000004", "alpha11 = 1.5")
        with pytest.raises(ModelParseError):
            model_from_text(text)

    def test_parse_error_carries_line_number_attribute(self):
        try:
            model_from_text("kind = gaussian\n")
        except ModelParseError as exc:
            assert exc.line_no == 1
