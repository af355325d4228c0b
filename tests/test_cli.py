import ast
import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import bicov as bc
from bicov.bimodels import LmcBivariate, model_from_text, model_to_text
from bicov.cli import _COMMANDS, main
from bicov.field import _ParamSpec, _ProfiledNll
from bicov import BivariateModel, matern, spherical, stable
from bicov.spectral import NonIntegrable, QuadratureError


GOLDEN = Path(__file__).parent / "data" / "golden"


def write_model(tmp_path, model, name="model.txt"):
    path = tmp_path / name
    path.write_text(model_to_text(model))
    return str(path)


VALID_STABLE = bc.stable_bivariate(1.0, 1.0, 0.2, 0.2, 0.6, 0.5, 2.0, 1.0, 3.0)
NZ_STABLE = bc.stable_bivariate(1.0, 1.0, 0.3, 0.8, 0.55, 0.6, 1.0, 1.0, 1.0)
EDGE_STABLE = bc.stable_bivariate(1.0, 1.0, 0.2, 1.0, 1.5, 1.0, 1.0, 1.0, 1.0)


class TestValidate:
    def test_valid_stable_within_bound(self, tmp_path, capsys):
        code = main(["validate", write_model(tmp_path, VALID_STABLE), "--dim", "1"])
        out = capsys.readouterr().out
        assert code == 0
        fields = dict(ln.split("=", 1) for ln in out.strip().splitlines())
        assert fields["kind"] == "stable"
        assert fields["decidability"] == "SufficientBound"
        assert 0.2 <= float(fields["rho_bound"]) < 1.0

    def test_above_bound_is_inconclusive(self, tmp_path):
        m = bc.stable_bivariate(1.0, 1.0, 0.5, 0.2, 0.6, 0.5, 2.0, 1.0, 3.0)
        assert main(["validate", write_model(tmp_path, m)]) == 1

    def test_necessarily_zero_rejects_nonzero_rho(self, tmp_path, capsys):
        code = main(["validate", write_model(tmp_path, NZ_STABLE)])
        out = capsys.readouterr().out
        assert code == 2
        assert "decidability=NecessarilyZero" in out

    def test_necessarily_zero_accepts_zero_rho(self, tmp_path):
        m = bc.stable_bivariate(1.0, 1.0, 0.0, 0.8, 0.55, 0.6, 1.0, 1.0, 1.0)
        assert main(["validate", write_model(tmp_path, m)]) == 0

    def test_marginal_exponent_edge_is_inconclusive(self, tmp_path, capsys):
        code = main(["validate", write_model(tmp_path, EDGE_STABLE)])
        out = capsys.readouterr().out
        assert code == 1
        assert "decidability=ZeroInfimumInconclusive" in out

    def test_engine_overflow_is_a_compute_error(self, tmp_path, capsys, monkeypatch):
        def overflow(*args, **kw):
            raise OverflowError("math range error")

        monkeypatch.setattr(bc.validity, "max_rho_stable", overflow)
        code = main(["validate", write_model(tmp_path, VALID_STABLE)])
        err = capsys.readouterr().err
        assert code == 70
        assert len(err.strip().splitlines()) == 1
        assert "OverflowError" in err

    def test_dim_2_is_answered_by_dim_3(self, tmp_path, capsys):
        path = write_model(tmp_path, VALID_STABLE)
        codes, outs = [], []
        for dim in ("3", "2"):
            codes.append(main(["validate", path, "--dim", dim]))
            outs.append(capsys.readouterr().out)
        assert codes == [0, 0]
        assert outs[1] == outs[0] + ("note=n = 2 answered by the n = 3 criterion "
                                     "(validity in R^3 implies R^2)\n")

    @pytest.mark.parametrize("model,dim", [
        # joint scales near 1e12 put the integrand's minimum below r = 1e-8
        # (this model once overflowed the engine)
        (bc.stable_bivariate(1.0, 1.0, 0.9, 0.3, 0.9, 0.6, 1e12, 0.8e12, 1.2e12), "3"),
        # invalid at its rho: the integrand falls past r = 1e8
        (bc.stable_bivariate(1.0, 1.0, 0.9, 0.44106384241154395, 1.00037917225745,
                             0.9266215973600441, 0.524792291980781,
                             1.1969038928944962, 63.643313475110595), "1"),
    ], ids=["joint-scale-1e12", "falling-past-1e8"])
    def test_window_edge_minimum_is_inconclusive(self, tmp_path, capsys, model, dim):
        code = main(["validate", write_model(tmp_path, model), "--dim", dim])
        out = capsys.readouterr().out
        assert code == 1
        assert "infimum_location=AtWindowEdge" in out
        assert "decidability=ZeroInfimumInconclusive" in out

    def test_valid_cauchy(self, tmp_path):
        m = bc.cauchy_bivariate(1.0, 1.0, 0.2, 0.5, 0.7, 0.9,
                                2.0, 2.5, 2.1, 2.0, 2.25, 2.5)
        assert main(["validate", write_model(tmp_path, m)]) == 0

    def test_spherical_distinct_scales_invalid(self, tmp_path, capsys):
        m = BivariateModel(1.0, 1.0, 0.05, spherical(1.0),
                           spherical(1.4), spherical(2.0))
        code = main(["validate", write_model(tmp_path, m)])
        out = capsys.readouterr().out
        assert code == 2
        assert "valid=false" in out
        assert "witness_frequency=" in out

    def test_spherical_common_scale_valid(self, tmp_path):
        m = BivariateModel(1.0, 1.0, 0.3, spherical(1.3),
                           spherical(1.3), spherical(1.3))
        assert main(["validate", write_model(tmp_path, m)]) == 0

    def test_lmc_always_valid(self, tmp_path):
        m = LmcBivariate((1.0, 0.3, 0.2), (0.1, 0.25, 0.9),
                         stable(1.0, 0.5), stable(1.0, 2.0))
        assert main(["validate", write_model(tmp_path, m)]) == 0

    def test_matern_zero_rho_valid(self, tmp_path, capsys):
        m = BivariateModel(1.0, 1.0, 0.0, matern(0.6, 1.0),
                           matern(1.0, 1.0), matern(1.4, 1.0))
        code = main(["validate", write_model(tmp_path, m)])
        assert code == 0
        assert "separable" in capsys.readouterr().out

    def test_matern_nonzero_rho_inconclusive(self, tmp_path, capsys):
        m = BivariateModel(1.0, 1.0, 0.3, matern(0.6, 1.0),
                           matern(1.0, 1.0), matern(1.4, 1.0))
        code = main(["validate", write_model(tmp_path, m)])
        assert code == 1
        assert "ZeroInfimumInconclusive" in capsys.readouterr().out


# validate on every kind in bimodels._FORMATS and every route it can take
VALIDATE_MATRIX = {
    "stable-certified": VALID_STABLE,
    "stable-above-bound": bc.stable_bivariate(1.0, 1.0, 0.5, 0.2, 0.6, 0.5, 2.0, 1.0, 3.0),
    "stable-necessarily-zero": NZ_STABLE,
    "stable-necessarily-zero-rho-0": bc.stable_bivariate(1.0, 1.0, 0.0, 0.8, 0.55, 0.6,
                                                         1.0, 1.0, 1.0),
    "stable-window-edge": bc.stable_bivariate(1.0, 1.0, 0.9, 0.3, 0.9, 0.6,
                                              1e12, 0.8e12, 1.2e12),
    "cauchy-v": bc.cauchy_bivariate(1.0, 1.0, 0.2, 0.5, 0.7, 0.9, 2.0, 2.5, 2.1, 2.0, 2.25, 2.5),
    "cauchy-iv": bc.cauchy_bivariate(1.0, 1.0, 0.1, 0.5, 0.6, 0.6, 2.0, 2.2, 3.0, 1.0, 1.0, 1.0),
    "cauchy-ii": bc.cauchy_bivariate(1.0, 1.0, 0.05, 0.5, 0.7, 0.9, 2.5, 2.2, 2.5,
                                     2.0, 2.25, 2.5),
    "cauchy-ii-beta-below-2": bc.cauchy_bivariate(1.0, 1.0, 0.05, 0.5, 0.7, 0.9, 1.5, 1.2, 1.5,
                                                  2.0, 2.25, 2.5),
    "cauchy-iii": bc.cauchy_bivariate(1.0, 1.0, 0.05, 0.5, 0.7, 0.9, 2.5, 2.6, 4.0,
                                      2.0, 2.25, 2.5),
    "spherical-distinct": bc.spherical_bivariate(1.0, 1.0, 0.05, 1.0, 1.4, 2.0),
    "spherical-equal": bc.spherical_bivariate(1.0, 1.0, 0.3, 1.3, 1.3, 1.3),
    "spherical-rho-0": bc.spherical_bivariate(1.0, 1.0, 0.0, 1.0, 1.4, 2.0),
    "lmc": LmcBivariate((1.0, 0.3, 0.2), (0.1, 0.25, 0.9), stable(1.0, 0.5), stable(1.0, 2.0)),
    "matern-separable": bc.matern_bivariate(1.0, 1.0, 0.0, 0.6, 1.0, 1.4, 1.0, 1.0, 1.0),
    "matern-not-applicable": bc.matern_bivariate(1.0, 1.0, 0.3, 0.6, 1.0, 1.4, 1.0, 1.0, 1.0),
    "matern-generic": bc.matern_bivariate(1.0, 1.0, 0.2, 0.2729653856654739, 0.4008165909944131,
                                          0.13916612038035503, 0.435816560541311,
                                          1.7179540936378843, 2.7086787231686267),
}

_CAUCHY_IV_AT_2 = (1, "kind=cauchy\nrho=0.050000000000000003\nrho_bound_raw=0\nrho_bound=0\n"
                      "case=iv\ninfimum_location=AtInfinity\ndecidability=ZeroInfimumInconclusive\n"
                      "note=n = 2 answered by the n = 3 criterion (validity in R^3 implies R^2)\n")


def _spherical_unrefuted(dim):
    return (1, "kind=spherical\ndecidability=ZeroInfimumInconclusive\nnote=distinct "
               f"spherical scales are refuted in R^3 only; nothing is proved in R^{dim}\n")


# the record's refutations that were proved in another dimension; each exits 1 now
MATRIX_FIXED = {
    # the record read case ii, NecessarilyZero, exit 2, from R^3's rule "every beta
    # below 3"; in R^2 no beta (2.5, 2.2, 2.5) is below 2, so the case is iv
    "cauchy-ii --dim 2": _CAUCHY_IV_AT_2,
    # the record read case iii from 2 beta12 < beta11 + 3 = 5.5; at n = 2 that is 4.5,
    # below 2 beta12 = 5.2, so the case is iv
    "cauchy-iii --dim 2": _CAUCHY_IV_AT_2,
    # the record refuted distinct spherical scales, exit 2: the triviality argument
    # is an R^3 one, and in R^1 every member's density is positive (see
    # TestSphericalOutsideR3 in test_validity.py)
    "spherical-distinct --dim 1": _spherical_unrefuted(1),
    "spherical-distinct --dim 2": _spherical_unrefuted(2),
}


class TestValidateMatrix:
    """stdout and exit code of validate on each model in R^1, R^2 and R^3, against
    ``data/validate_matrix.json``, recorded from the code before validate took every
    route through ``certify``; only ``MATRIX_FIXED`` departs from it."""

    RECORD = json.loads((Path(__file__).parent / "data" / "validate_matrix.json").read_text())

    @pytest.mark.parametrize("dim", ["1", "2", "3"])
    @pytest.mark.parametrize("name", list(VALIDATE_MATRIX))
    def test_validate_matches_the_record(self, tmp_path, capsys, name, dim):
        case = f"{name} --dim {dim}"
        code = main(["validate", write_model(tmp_path, VALIDATE_MATRIX[name]), "--dim", dim])
        want = MATRIX_FIXED.get(case, tuple(self.RECORD[case]))
        assert (code, capsys.readouterr().out) == want


class TestUsageAndFileErrors:
    def test_unknown_subcommand(self):
        assert main(["frobnicate"]) == 64

    def test_rho_is_not_sweepable(self, tmp_path, capsys):
        path = write_model(tmp_path, VALID_STABLE)
        code = main(["curve", path, "--sweep", "rho=0:1:5",
                     "--out", str(tmp_path / "c.csv")])
        assert code == 64
        assert "certified output" in capsys.readouterr().err

    def test_missing_model_file(self, tmp_path):
        assert main(["validate", str(tmp_path / "nope.txt")]) == 65

    def test_malformed_model_reports_line(self, tmp_path, capsys):
        path = tmp_path / "bad.txt"
        path.write_text("kind = stable\nsigma1 = banana\n")
        assert main(["validate", str(path)]) == 66
        assert "line 2" in capsys.readouterr().err

    def test_matern_nu_above_the_cap_is_a_malformed_model(self, tmp_path, capsys):
        path = tmp_path / "big_nu.txt"
        text = model_to_text(bc.matern_bivariate(1.0, 1.0, 0.0, 0.5, 1.0, 1.5, 1.0, 1.0, 1.0))
        path.write_text(text.replace("nu12 = 1\n", "nu12 = 1000\n"))
        assert main(["validate", str(path)]) == 66
        assert "nu must be at most 300" in capsys.readouterr().err

    def test_malformed_data_reports_row(self, tmp_path, capsys):
        model = write_model(tmp_path, VALID_STABLE)
        data = tmp_path / "data.csv"
        data.write_text("x,y,component,value\n0,0,1,1.0\n1,oops,2,0.5\n")
        targets = tmp_path / "targets.csv"
        targets.write_text("x,y\n0.5,0.5\n")
        code = main(["krige", model, str(data), str(targets),
                     "--out", str(tmp_path / "k.csv")])
        assert code == 66
        assert "row 3" in capsys.readouterr().err

    @pytest.mark.parametrize("cell", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize("where", ["data x", "data value", "targets x"])
    def test_non_finite_cell_reports_row(self, tmp_path, capsys, cell, where):
        model = write_model(tmp_path, VALID_STABLE)
        rows = ["0,0,1,1.0", "1,0,2,0.5", "0,1,1,0.25", "1,1,2,0.75"]
        targets = ["0.5,0.5", "0.25,0.75"]
        if where == "data x":
            rows[2] = f"{cell},1,1,0.25"
        elif where == "data value":
            rows[2] = f"0,1,1,{cell}"
        else:
            targets[1] = f"{cell},0.75"
        data = tmp_path / "data.csv"
        data.write_text("x,y,component,value\n" + "\n".join(rows) + "\n")
        target_path = tmp_path / "targets.csv"
        target_path.write_text("x,y\n" + "\n".join(targets) + "\n")
        out = tmp_path / "k.csv"
        code = main(["krige", model, str(data), str(target_path),
                     "--component", "1", "--out", str(out)])
        assert code == 66
        column = where.split()[1]
        row = 3 if where == "targets x" else 4
        assert f"row {row}: non-finite {column}" in capsys.readouterr().err
        assert not out.exists()

    def test_wrong_data_header(self, tmp_path, capsys):
        model = write_model(tmp_path, VALID_STABLE)
        data = tmp_path / "data.csv"
        data.write_text("lon,lat,component,value\n0,0,1,1.0\n")
        targets = tmp_path / "targets.csv"
        targets.write_text("x,y\n0.5,0.5\n")
        code = main(["krige", model, str(data), str(targets),
                     "--out", str(tmp_path / "k.csv")])
        assert code == 66
        assert "row 1" in capsys.readouterr().err

    def test_bad_sweep_spec(self, tmp_path):
        path = write_model(tmp_path, VALID_STABLE)
        assert main(["curve", path, "--sweep", "alpha12=1:2",
                     "--out", str(tmp_path / "c.csv")]) == 66

    def test_bad_grid_spec(self, tmp_path):
        path = write_model(tmp_path, VALID_STABLE)
        assert main(["simulate", path, "--grid", "4by4:2",
                     "--out", str(tmp_path / "s.csv")]) == 66


class TestExceptionMap:
    # each computation failure and the one stderr line main prints for it, exit 70
    FAILURES = [
        (NonIntegrable("no pointwise density"), "no pointwise density"),
        (QuadratureError("error estimate 0.01"), "error estimate 0.01"),
        (np.linalg.LinAlgError("not positive definite"), "not positive definite"),
        (ValueError("sigma1 must be positive"), "sigma1 must be positive"),
        (OverflowError("math range error"), "computation failed: OverflowError: math range error"),
        (RuntimeError("no bracket"), "computation failed: RuntimeError: no bracket"),
    ]

    @pytest.mark.parametrize("exc, line", FAILURES, ids=[type(e).__name__ for e, _ in FAILURES])
    def test_main_maps_each_computation_failure(self, monkeypatch, capsys, exc, line):
        # a QuadratureError is a RuntimeError: it keeps its bare message only while
        # main names it before the RuntimeError branch
        def raising(args):
            raise exc
        _, help_line, arguments = _COMMANDS["validate"]
        monkeypatch.setitem(_COMMANDS, "validate", (raising, help_line, arguments))
        assert main(["validate", "model.txt"]) == 70
        assert capsys.readouterr() == ("", line + "\n")


class TestCurve:
    def test_sweep_writes_bound_table(self, tmp_path, capsys):
        path = write_model(tmp_path, VALID_STABLE)
        out = tmp_path / "curve.csv"
        code = main(["curve", path, "--sweep", "alpha12=0.3:1.1:6",
                     "--dim", "1", "--out", str(out)])
        assert code == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "alpha12,rho_bound,decidability"
        assert len(lines) == 7
        tags = {ln.split(",")[2] for ln in lines[1:]}
        assert tags <= {"SufficientBound", "NecessarilyZero",
                        "ZeroInfimumInconclusive"}
        # alpha12 below the marginal mean pins the bound at zero
        first = lines[1].split(",")
        assert float(first[1]) == 0.0
        assert first[2] == "NecessarilyZero"

    def test_dim_2_writes_the_dim_3_table(self, tmp_path):
        path = write_model(tmp_path, VALID_STABLE)
        for dim in ("2", "3"):
            assert main(["curve", path, "--sweep", "alpha12=0.3:1.1:4", "--dim", dim,
                         "--out", str(tmp_path / f"curve{dim}.csv")]) == 0
        assert (tmp_path / "curve2.csv").read_bytes() == (tmp_path / "curve3.csv").read_bytes()

    def test_unknown_parameter(self, tmp_path):
        path = write_model(tmp_path, VALID_STABLE)
        assert main(["curve", path, "--sweep", "zeta=0:1:4",
                     "--out", str(tmp_path / "c.csv")]) == 66


class TestSpectral:
    def test_profile_csv(self, tmp_path):
        path = write_model(tmp_path, VALID_STABLE)
        out = tmp_path / "spec.csv"
        code = main(["spectral", path, "--dim", "1", "--umax", "5",
                     "--points", "11", "--out", str(out)])
        assert code == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "u,f11,f12,f22"
        assert len(lines) == 12

    def test_dim_2_writes_the_dim_3_profile(self, tmp_path):
        path = write_model(tmp_path, bc.stable_bivariate(1.0, 1.5, 0.4, 0.8, 0.9, 0.6,
                                                         0.9, 1.1, 0.8))
        for dim in ("2", "3"):
            assert main(["spectral", path, "--dim", dim, "--umax", "4", "--points", "5",
                         "--out", str(tmp_path / f"spec{dim}.csv")]) == 0
        assert (tmp_path / "spec2.csv").read_bytes() == (tmp_path / "spec3.csv").read_bytes()

    def test_readme_model_at_default_dim(self, tmp_path):
        # alpha11 = 0.2 defeats quadrature of the zero-frequency transform in
        # R^3, so u = 0 comes from the closed form
        out = tmp_path / "spec.csv"
        assert main(["spectral", str(GOLDEN / "stable.txt"), "--out", str(out)]) == 0
        assert out.read_text().splitlines()[1].startswith("0,2760314891.")

    @pytest.mark.parametrize("option,value,named", [
        ("--points", "-1", "--points must be at least 1"),
        ("--points", "0", "--points must be at least 1"),
        ("--umax", "-1", "--umax must be nonnegative and finite"),
    ])
    def test_bad_grid_option_is_refused_where_parsed(self, tmp_path, capsys, option, value,
                                                     named):
        # before: numpy's "Number of samples, -1, ..." and "frequency must be
        # nonnegative" exited 70, and --points 0 wrote a header-only table
        out = tmp_path / "spec.csv"
        code = main(["spectral", write_model(tmp_path, VALID_STABLE), "--dim", "1",
                     option, value, "--out", str(out)])
        err = capsys.readouterr().err
        assert code == 66 and not out.exists()
        assert err.count("\n") == 1 and named in err

    def test_heavy_cauchy_is_a_compute_error(self, tmp_path, capsys):
        m = bc.cauchy_bivariate(1.0, 1.0, 0.2, 1.0, 1.0, 1.0,
                                0.5, 0.5, 0.5, 1.0, 1.0, 1.0)
        code = main(["spectral", write_model(tmp_path, m), "--dim", "1",
                     "--out", str(tmp_path / "s.csv")])
        assert code == 70
        assert "diverging" in capsys.readouterr().err

    @pytest.mark.parametrize("s11", ["1e-300", "1e-150"])
    def test_tiny_stable_scale_is_a_compute_error(self, tmp_path, capsys, s11):
        # s11^3 underflows to 0, where the u = 0 density divided by it
        path = tmp_path / "tiny.txt"
        path.write_text((GOLDEN / "stable.txt").read_text().replace("s11 = 2\n",
                                                                    f"s11 = {s11}\n"))
        code = main(["spectral", str(path), "--dim", "3", "--out", str(tmp_path / "s.csv")])
        err = capsys.readouterr().err
        assert code == 70
        assert len(err.strip().splitlines()) == 1
        assert "double range" in err


class TestVariancePastTheDoubleRange:
    """sigma1^2 = 1e400: simulate and krige refuse the model with one line
    that names the double range, as a computation error (exit 70)."""

    MODEL = bc.stable_bivariate(1e200, 1.0, 0.4, 0.8, 0.9, 0.6, 0.9, 1.1, 0.8)

    def check(self, argv, capsys):
        code = main(argv)
        err = capsys.readouterr().err
        assert code == 70
        assert err.splitlines() == [err.strip()]
        assert "leaves the double range" in err and "computation failed" not in err

    def test_simulate(self, tmp_path, capsys):
        self.check(["simulate", write_model(tmp_path, self.MODEL), "--grid", "3x3:5",
                    "--seed", "3", "--out", str(tmp_path / "s.csv")], capsys)

    def test_krige(self, tmp_path, capsys):
        data = tmp_path / "data.csv"
        data.write_text("x,y,component,value\n0,0,1,1.0\n1,0,2,0.5\n0,1,1,0.25\n")
        targets = tmp_path / "targets.csv"
        targets.write_text("x,y\n0.5,0.5\n")
        self.check(["krige", write_model(tmp_path, self.MODEL), str(data), str(targets),
                    "--out", str(tmp_path / "k.csv")], capsys)


class TestSimulate:
    def test_grid_rows_and_determinism(self, tmp_path):
        path = write_model(tmp_path, VALID_STABLE)
        out1, out2, out3 = (tmp_path / f"s{i}.csv" for i in range(3))
        for out in (out1, out2):
            assert main(["simulate", path, "--grid", "4x3:2.0",
                         "--seed", "7", "--out", str(out)]) == 0
        assert main(["simulate", path, "--grid", "4x3:2.0",
                     "--seed", "8", "--out", str(out3)]) == 0
        lines = out1.read_text().strip().splitlines()
        assert lines[0] == "x,y,component,value"
        assert len(lines) == 25          # 12 nodes, both components
        assert out1.read_bytes() == out2.read_bytes()
        assert out1.read_bytes() != out3.read_bytes()

    def test_points_file_with_components(self, tmp_path):
        path = write_model(tmp_path, VALID_STABLE)
        pts = tmp_path / "pts.csv"
        pts.write_text("x,y,component\n0,0,1\n0,0,2\n1,1,1\n")
        out = tmp_path / "sim.csv"
        assert main(["simulate", path, "--points", str(pts),
                     "--seed", "3", "--out", str(out)]) == 0
        assert len(out.read_text().strip().splitlines()) == 4

    @pytest.mark.parametrize("flag,value,message", [
        ("--nugget1", "nan", "nuggets must be finite and nonnegative"),
        ("--nugget2", "inf", "nuggets must be finite and nonnegative"),
        ("--nugget1", "-1", "nuggets must be finite and nonnegative"),
        ("--mean1", "nan", "means must be finite"),
        ("--mean2", "-inf", "means must be finite"),
    ])
    def test_bad_nugget_or_mean_is_a_compute_error(self, tmp_path, capsys, flag, value,
                                                   message):
        out = tmp_path / "sim.csv"
        code = main(["simulate", write_model(tmp_path, VALID_STABLE), "--grid", "3x3:1",
                     f"{flag}={value}", "--out", str(out)])
        captured = capsys.readouterr()
        assert code == 70
        assert len(captured.err.strip().splitlines()) == 1
        assert message in captured.err
        assert captured.out == "" and not out.exists()


class TestFitAndKrige:
    def test_fit_smoke_and_krige_exactness(self, tmp_path, capsys):
        model_path = write_model(tmp_path, VALID_STABLE)
        data = tmp_path / "data.csv"
        assert main(["simulate", model_path, "--grid", "5x5:8.0",
                     "--seed", "1", "--out", str(data)]) == 0

        fitted = tmp_path / "fitted.txt"
        code = main(["fit", str(data), "--kind", "stable", "--starts", "1",
                     "--max-evals", "80", "--out", str(fitted)])
        out = capsys.readouterr().out
        assert code == 0
        assert "kind=stable" in out
        assert "loo_rmse=" in out
        # max_evals caps the evaluations of all starts
        assert int(out.split("n_iter=")[1].split()[0]) <= 80
        refit = model_from_text(fitted.read_text())
        assert refit.kind == "stable"

        targets = tmp_path / "targets.csv"
        targets.write_text("x,y\n0,0\n0.37,4.2\n")
        kout = tmp_path / "krige.csv"
        code = main(["krige", model_path, str(data), str(targets),
                     "--component", "1", "--out", str(kout)])
        assert code == 0
        lines = kout.read_text().strip().splitlines()
        assert lines[0] == "x,y,prediction,variance"
        assert len(lines) == 3
        # first target coincides with an observed node: exact reproduction
        first_obs = float(data.read_text().splitlines()[1].split(",")[3])
        pred, var = (float(v) for v in lines[1].split(",")[2:])
        assert pred == pytest.approx(first_obs, abs=1e-6)
        assert var <= 1e-8

    @pytest.mark.parametrize("starts", ["0", "-1"])
    def test_fit_rejects_fewer_than_one_start(self, tmp_path, capsys, starts):
        data = tmp_path / "data.csv"
        assert main(["simulate", write_model(tmp_path, VALID_STABLE), "--grid", "5x5:8.0",
                     "--seed", "1", "--out", str(data)]) == 0
        capsys.readouterr()
        code = main(["fit", str(data), "--kind", "stable", "--starts", starts,
                     "--out", str(tmp_path / "f.txt")])
        err = capsys.readouterr().err
        assert code == 70
        assert err == "n_starts must be at least 1\n"

    @pytest.mark.parametrize("value", ["nan", "-1"])
    def test_fit_reports_a_bad_nugget(self, tmp_path, capsys, value):
        code = main(["fit", str(GOLDEN / "sim5x5.csv"), "--kind", "stable",
                     f"--nugget1={value}", "--out", str(tmp_path / "f.txt")])
        assert code == 70
        assert capsys.readouterr().err == (
            f"nuggets must be finite and nonnegative, got {float(value)} and 0.0\n")

    def test_fit_rejects_constant_data(self, tmp_path, capsys):
        data = tmp_path / "flat.csv"
        rows = ["x,y,component,value"]
        for i in range(12):
            rows.append(f"{i * 0.37},{(i * i) % 5},1,2.5")
            rows.append(f"{i * 0.37},{(i * i) % 5},2,{0.1 * i}")
        data.write_text("\n".join(rows) + "\n")
        code = main(["fit", str(data), "--kind", "stable",
                     "--out", str(tmp_path / "m.txt")])
        assert code == 70
        assert "degenerate" in capsys.readouterr().err


class TestEngineLookup:
    def test_callers_reach_the_engines_through_validity(self, tmp_path, capsys, monkeypatch):
        # the fit's rho cap and validate look the engines up on bicov.validity,
        # where a wrapper (the benchmark's tracer) sees them; neither passes an
        # engine option
        calls = []
        for name in ("max_rho_stable", "max_rho_cauchy"):
            original = getattr(bc.validity, name)

            def counting(*args, _original=original, _name=name, **kw):
                calls.append((_name, kw))
                return _original(*args, **kw)
            monkeypatch.setattr(bc.validity, name, counting)

        pts = np.random.default_rng(0).uniform(0.0, 10.0, size=(12, 2))
        data = bc.simulate(VALID_STABLE, np.repeat(pts, 2, axis=0), np.tile([1, 2], 12), seed=2)
        spec = _ParamSpec("stable", data, 2, False, 0.0, 0.0)
        objective = _ProfiledNll(spec, data)
        for theta in spec.starts(3, 0):
            objective(theta)
        assert calls == [("max_rho_stable", {})] * 3

        calls.clear()
        cauchy = bc.cauchy_bivariate(1.0, 1.0, 0.1, 0.5, 0.8, 0.6, 4.0, 4.5, 5.0, 1.0, 1.0, 1.0)
        for model in (VALID_STABLE, cauchy):
            main(["validate", write_model(tmp_path, model)])
        assert calls == [("max_rho_stable", {}), ("max_rho_cauchy", {})]


class TestModuleEntryPoint:
    def test_subprocess_byte_determinism(self, tmp_path):
        path = write_model(tmp_path, VALID_STABLE)
        outs = [tmp_path / f"run{i}.csv" for i in range(2)]
        for out in outs:
            res = subprocess.run(
                [sys.executable, "-m", "bicov.cli", "simulate", path,
                 "--grid", "3x3:1.5", "--seed", "42", "--out", str(out)],
                capture_output=True, text=True)
            assert res.returncode == 0
        assert outs[0].read_bytes() == outs[1].read_bytes()

    @staticmethod
    def modules_after(code: str) -> set:
        """The modules a fresh interpreter holds after running code."""
        res = subprocess.run(
            [sys.executable, "-c", code + "\nimport sys\nprint(sorted(sys.modules))"],
            capture_output=True, text=True)
        assert res.returncode == 0, res.stderr
        return set(ast.literal_eval(res.stdout.strip().splitlines()[-1]))

    @classmethod
    def scipy_modules_after(cls, code: str) -> str:
        """The scipy modules a fresh interpreter holds after running code."""
        return str(sorted(m for m in cls.modules_after(code) if m.split(".")[0] == "scipy"))

    def test_bare_import_loads_no_submodule_and_no_numpy(self):
        # public names and submodules are imported on first access
        loaded = self.modules_after("import bicov")
        assert "numpy" not in loaded
        assert {m for m in loaded if m.startswith("bicov.")} == set()

    # the layers each command loads beside cli, bimodels and corrfn: validate, curve
    # and spectral run no field, simulate and krige no bound engine and no spectral
    # density, and the stable fit runs the bound engine for its rho cap
    LAYERS = {"validate": {"validity"}, "curve": {"validity"}, "spectral": {"validity", "spectral"},
              "simulate": {"field"}, "krige": {"field"}, "fit": {"field", "validity"}}

    @pytest.mark.parametrize("argv", [
        ["validate", "{model}"],
        ["curve", "{model}", "--sweep", "alpha12=0.3:1.1:3", "--out", "{out}"],
        ["spectral", "{model}", "--out", "{out}"],
        ["simulate", "{model}", "--grid", "5x5:8.0", "--seed", "1", "--out", "{out}"],
        ["krige", "{model}", "{golden}/sim5x5.csv", "{golden}/targets.csv", "--out", "{out}"],
        ["fit", "{golden}/sim5x5.csv", "--kind", "stable", "--starts", "1", "--max-evals", "2",
         "--out", "{out}"],
    ], ids=lambda argv: argv[0])
    def test_each_command_loads_only_its_layers(self, tmp_path, argv):
        layers = self.LAYERS[argv[0]]
        argv = [a.format(model=GOLDEN / "stable.txt", golden=GOLDEN, out=tmp_path / "out.csv")
                for a in argv]
        loaded = self.modules_after(f"from bicov.cli import main\nassert main({argv!r}) == 0")
        assert {m for m in loaded if m.startswith("bicov.")} == {
            f"bicov.{m}" for m in ("cli", "bimodels", "corrfn", *layers)}

    @pytest.mark.parametrize("module", ["bicov", "bicov.cli"])
    def test_import_leaves_scipy_unloaded(self, module):
        # scipy is imported inside the functions that use it: the package loads
        # nothing yet, the CLI numpy and no scipy module
        assert self.scipy_modules_after(f"import {module}") == "[]"

    @pytest.mark.parametrize("argv", [
        ["validate", "{model}"],
        ["curve", "{model}", "--sweep", "alpha12=0.3:1.1:3", "--out", "{out}"],
        ["simulate", "{model}", "--grid", "5x5:8.0", "--seed", "1", "--out", "{out}"],
        ["krige", "{model}", "{golden}/sim5x5.csv", "{golden}/targets.csv", "--component", "1",
         "--out", "{out}"],
    ], ids=lambda argv: argv[0])
    def test_numpy_only_commands_leave_scipy_unloaded(self, tmp_path, argv):
        # the bound engine and the simulation's Cholesky factor are numpy only, and
        # cokriging reaches scipy's LAPACK through ctypes without importing scipy
        argv = [a.format(model=GOLDEN / "stable.txt", golden=GOLDEN, out=tmp_path / "out.csv")
                for a in argv]
        code = f"from bicov.cli import main\nassert main({argv!r}) == 0"
        assert self.scipy_modules_after(code) == "[]"

    SAMPLE = ("import numpy as np, bicov as bc\n"
              f"model = bc.model_from_text({model_to_text(VALID_STABLE)!r})\n"
              "locs = np.random.default_rng(0).uniform(0.0, 10.0, size=(40, 2))\n"
              "data = bc.simulate(model, np.repeat(locs, 2, axis=0), np.tile([1, 2], 40), seed=1)\n")

    @pytest.mark.parametrize("call", [
        "bc.nll(model, data)", "bc.loo_rmse(model, data)",
        "bc.cokrige(model, data, [[5.0, 5.0]], 1)",
    ], ids=lambda call: call[3:call.index("(")])
    def test_likelihood_and_cokriging_leave_scipy_unloaded(self, call):
        assert self.scipy_modules_after(self.SAMPLE + call) == "[]"

    def test_fit_loads_scipy_optimize(self):
        modules = self.scipy_modules_after(
            self.SAMPLE + "bc.fit_ml(data, 'stable', n_starts=1, max_evals=2)")
        assert "'scipy.optimize'" in modules

    @pytest.mark.parametrize("dim", ["1", "3"])
    @pytest.mark.parametrize("model", [
        VALID_STABLE,
        bc.cauchy_bivariate(1.0, 1.2, 0.3, 0.8, 0.9, 0.6, 3.5, 4.0, 5.0, 0.9, 1.1, 0.8),
        bc.spherical_bivariate(1.0, 1.0, 0.05, 1.0, 1.4, 2.0),
        bc.matern_bivariate(1.0, 1.3, 0.2, 0.5, 1.0, 1.5, 0.7, 0.7, 0.7),
    ], ids=lambda m: m.kind)
    def test_spectral_leaves_scipy_unloaded(self, tmp_path, model, dim):
        # every member density is a closed form or the numpy Fourier rule
        argv = ["spectral", write_model(tmp_path, model), "--dim", dim,
                "--out", str(tmp_path / "out.csv")]
        code = f"from bicov.cli import main\nassert main({argv!r}) == 0"
        assert self.scipy_modules_after(code) == "[]"

    def test_spherical_certify_outside_r3_leaves_scipy_unloaded(self):
        # distinct scales are refuted by a witness search in R^3 only, so R^1
        # decides without tan_roots
        code = ("import bicov as bc\n"
                "r = bc.certify(bc.spherical_bivariate(1, 1, 0.05, 1, 1.4, 2), 1)\n"
                "assert r.case == 'no-route'")
        assert self.scipy_modules_after(code) == "[]"
