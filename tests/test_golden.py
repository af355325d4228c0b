"""CLI outputs against golden files.

The files under ``data/golden`` are the stdout and the output files of the
README commands, recorded from the code before the stable and Cauchy bound
engines were merged into one.  Every byte must match, except the floats of
the Cauchy ``validate`` run: the merged engine sums the log prefactor in a
different order, which moves ``rho_bound`` by a few ulps and the location of
a flat minimum in its eighth digit.  ``fit.out`` and ``fit.txt`` were
recorded again when ``fit_ml`` moved from the Nelder-Mead simplex to
L-BFGS-B on the exact gradient.  ``validate_stable.out`` and ``curve.csv``
were recorded again when a zoom replaced the golden-section search that
refines the engine's minima, and the u = 0 row of ``spectral.csv`` when
zero-frequency densities moved from quadrature to closed forms.

The commands run in one child interpreter with BLAS pinned to one thread,
because the Cholesky factor of the 512-site simulation differs in its last
bits between thread counts.
"""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import bicov

GOLDEN = Path(__file__).parent / "data" / "golden"
INPUTS = ("stable.txt", "cauchy.txt", "targets.csv")

# (name, argv, files the command writes); later cases read earlier outputs
CASES = [
    ("validate_stable", ["validate", "stable.txt"], []),
    ("validate_cauchy", ["validate", "cauchy.txt"], []),
    ("curve", ["curve", "stable.txt", "--sweep", "alpha12=0.3:1.1:6",
               "--out", "curve.csv"], ["curve.csv"]),
    ("spectral", ["spectral", "stable.txt", "--dim", "1", "--umax", "5",
                  "--out", "spectral.csv"], ["spectral.csv"]),
    ("simulate", ["simulate", "stable.txt", "--grid", "16x16:10.0", "--seed", "7",
                  "--out", "simulate.csv"], ["simulate.csv"]),
    ("simulate_5x5", ["simulate", "stable.txt", "--grid", "5x5:8.0", "--seed", "1",
                      "--out", "sim5x5.csv"], ["sim5x5.csv"]),
    ("krige", ["krige", "stable.txt", "sim5x5.csv", "targets.csv",
               "--component", "1", "--out", "krige.csv"], ["krige.csv"]),
    ("fit", ["fit", "sim5x5.csv", "--kind", "stable", "--starts", "1",
             "--max-evals", "80", "--out", "fit.txt"], ["fit.txt"]),
]

_CHILD_SCRIPT = """
import contextlib, io, json, sys
from bicov.cli import main
results = {}
for name, argv in json.loads(sys.argv[1]):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(argv)
    results[name] = [code, buf.getvalue()]
print(json.dumps(results))
"""


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    work = tmp_path_factory.mktemp("golden")
    for name in INPUTS:
        shutil.copy(GOLDEN / name, work / name)
    src = str(Path(bicov.__file__).resolve().parents[1])
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               MKL_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    res = subprocess.run(
        [sys.executable, "-c", _CHILD_SCRIPT, json.dumps([c[:2] for c in CASES])],
        cwd=work, env=env, capture_output=True, text=True)
    assert res.returncode == 0, res.stderr
    return work, json.loads(res.stdout)


def _fields(text):
    return dict(ln.split("=", 1) for ln in text.strip().splitlines())


@pytest.mark.parametrize("name,files", [(c[0], c[2]) for c in CASES],
                         ids=[c[0] for c in CASES])
def test_matches_golden(runs, name, files):
    work, results = runs
    code, out = results[name]
    assert code == 0
    want = (GOLDEN / f"{name}.out").read_text()
    if name == "validate_cauchy":
        got, ref = _fields(out), _fields(want)
        assert got.keys() == ref.keys()
        for key in ref:
            if key in ("rho_bound_raw", "rho_bound"):
                assert float(got[key]) == pytest.approx(float(ref[key]), rel=1e-14, abs=0)
            elif key == "infimum_location":
                assert float(got[key]) == pytest.approx(float(ref[key]), rel=1e-6, abs=0)
            else:
                assert got[key] == ref[key]
    else:
        assert out == want
    for fname in files:
        assert (work / fname).read_bytes() == (GOLDEN / fname).read_bytes(), fname
