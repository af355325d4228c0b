"""Tests of the benchmark itself: its checks reject wrong answers, it runs.

    python3 -m pytest bench/tests -q
"""

import dataclasses
import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [BENCH, os.path.join(ROOT, "src")]

import bicov as bc  # noqa: E402
import workloads  # noqa: E402


def one_round(wl):
    res = {}
    for label, fn, _ in wl.ops():
        try:
            res[label] = fn()
        except Exception as exc:
            res[label] = exc
    return res


@pytest.fixture(scope="module")
def certify():
    wl = workloads.Certify(bc, 5, reduced=True)
    return wl, one_round(wl)


@pytest.fixture(scope="module")
def fit():
    wl = workloads.Fit(bc, 5, reduced=True)
    return wl, one_round(wl)


@pytest.fixture(scope="module")
def predict():
    wl = workloads.Predict(bc, 5, reduced=True)
    return wl, one_round(wl)


@pytest.fixture(scope="module")
def cli(tmp_path_factory):
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    wl = workloads.Cli(bc, 5, reduced=True, workdir=str(tmp_path_factory.mktemp("cli")), env=env)
    return wl, one_round(wl)


def test_untouched_outputs_pass(certify, fit, predict, cli):
    faulty = {label for label, _, fault in certify[0].ops() if fault}
    assert set(certify[0].check(certify[1])) <= faulty
    for wl, res in (fit, predict, cli):
        assert wl.check(res) == {}


def test_bound_times_1_01_is_rejected(certify):
    wl, res = certify
    label = "stable-iv.d0.n1.fine"
    rep = res[label]
    raw = rep.rho_bound_raw * 1.01
    planted = {**res, label: dataclasses.replace(rep, rho_bound_raw=raw, rho_bound=min(raw, 1.0))}
    assert label in wl.check(planted)


def test_nll_off_by_1e6_relative_is_rejected(fit):
    wl, res = fit
    for label in ("fit.stable", "fit.lmc"):
        planted = {**res, label: dataclasses.replace(res[label], nll=res[label].nll * (1 + 1e-6))}
        assert label in wl.check(planted)


def test_one_perturbed_kriging_weight_is_rejected(predict):
    wl, res = predict
    label = "predict.krige.stable"
    pred, var = res[label]
    z = res["predict.simulate.stable"].values
    # weight of observation 3 for target 7 moved by 1e-3
    pred = pred.copy()
    pred[7] += 1e-3 * (z[3] - (1.0 if wl.comps[3] == 1 else 2.0))
    assert label in wl.check({**res, label: (pred, var)})


def test_changed_exit_code_is_rejected(cli):
    wl, res = cli
    for label in ("cli.validate", "cli.simulate", "cli.krige"):
        code, out = res[label]
        assert label in wl.check({**res, label: (code + 1, out)})


def test_loo_and_whitening_reject_planted_errors(predict):
    wl, res = predict
    rmse = res["predict.loo.cauchy"]
    assert "predict.loo.cauchy" in wl.check({**res, "predict.loo.cauchy": rmse * (1 + 1e-6)})
    sample = res["predict.simulate.lmc"]
    values = sample.values.copy()
    values[0] += 1e-4
    bad = dataclasses.replace(sample, values=values)
    assert "predict.simulate.lmc" in wl.check({**res, "predict.simulate.lmc": bad})


def _run(args, cwd=ROOT, timeout=600):
    return subprocess.run([sys.executable, os.path.join(cwd, "bench", "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=timeout)


def test_reduced_run_of_all_workloads_untraced_then_traced():
    proc = _run(["--reduced", "--seconds", "0", "--seed", "3"])
    assert proc.returncode == 0, proc.stderr
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] is True
    # 8 scale copies outside the engine's window and the alpha = 0.2 profile
    assert last["failed"] == 9
    for w in workloads.WORKLOADS:
        for name in ("setup_s", "round_s", "peak_rss_mb"):
            assert last["metrics"][f"{w}.{name}"]["value"] > 0

    proc = _run(["--reduced", "--seconds", "0", "--seed", "3", "--trace", "1"])
    assert proc.returncode == 0, proc.stderr
    m = {k: v["value"] for k, v in json.loads(proc.stdout.strip().splitlines()[-1])["metrics"].items()}
    assert m["certify.field.gram.calls"] == 0
    assert m["predict.validity.max_rho_fine.calls"] == 0
    assert m["predict.validity.max_rho_coarse.calls"] == 0
    assert m["fit.validity.max_rho_coarse.calls"] > 0
    assert m["cli.field.gram.per_krige_cmd"] == 2
    assert m["predict.field.linalg.cho_factor.per_loo"] == 2
    with open(os.path.join(BENCH, "out", "result-fit-seed3-reduced-trace1.json")) as fh:
        by_op = json.load(fh)["calls_by_op"]
    assert "validity.max_rho_coarse" not in by_op["fit.lmc"]


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _run(["--workload", "certify", "--seed", "0", "--seconds", "1", "--trace", "0"],
                cwd=str(tmp_path), timeout=170)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_reference_ratio_matches_the_closed_form_integrand():
    m = bc.stable_bivariate(1.0, 1.0, 0.0, 0.3, 0.9, 0.6, 1.0, 0.8, 1.2)
    spec = workloads.from_bicov(m)
    lr = np.linspace(np.log(1e-3), np.log(1e2), 11)
    for n in (1, 3):
        own = workloads.refs.log_ratio(spec, n, lr)
        lib = np.log(bc.stable_bound_integrand(m, n, np.exp(lr)))
        assert np.allclose(own, lib, rtol=0, atol=1e-10)
