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
zero-frequency densities moved from quadrature to closed forms.  Its other
rows were recorded again when the double exponential Fourier rule replaced
QUADPACK's oscillatory quadrature: each value moved by at most 1.4e-11
relative (f11, the alpha = 0.2 member, moved most).

When one per-member log term replaced the signed log-sum-exp and the log
prefactor in the log-integrand, the last bits of the engine's values moved,
and these were recorded again:

* ``validate_stable.out``: ``rho_bound_raw`` and ``rho_bound``
  0.36071557940574134 -> 0.36071557940574139, ``infimum_location``
  7.7889947227561729 -> 7.7889946095258411;
* ``curve.csv``: alpha12 = 0.78, 0.27895243261239117 -> 0.27895243261239122,
  and alpha12 = 1.1, 0.16685330534977652 -> 0.16685330534977658;
* ``fit.out`` and ``fit.txt``: the fit stops at its 80-evaluation cap, so the
  coarse cap's last bits move where it stops.  ``nll`` 63.020814095024825 ->
  63.020597758993844, ``aic`` 148.04162819004966 -> 148.04119551798769,
  ``loo_rmse`` 0.80840366101137007 -> 0.8084476569513922, ``mean1``
  0.64771894829202925 -> 0.6477903872258769, ``mean2`` 0.030210326907338089
  -> 0.030212304699268788; ``sigma1`` 0.81841441227398315 ->
  0.81863439426935902, ``sigma2`` 1.0071943082096222 -> 1.007573861694103,
  ``rho`` 0.45456337189381735 -> 0.45399093609189484, ``alpha11``
  0.73754518035080907 -> 0.73979312057904667, ``alpha12``
  0.77907774140851427 -> 0.78055680846563047, ``alpha22``
  0.75640828666928994 -> 0.75791931542345392, ``s11`` 1.2433161765267327 ->
  1.2397979088833029, ``s12`` 4.6524652184576878 -> 4.6406842186687651,
  ``s22`` 9.8165919095478014 -> 9.7793987077105751.

The Cauchy ``validate`` run is not recorded again: its ``rho_bound`` moved
from 0.59040784708340566 to 0.59040784708340532, within the 1e-14 it is held
to.

When every caller took one engine mode, a 512-point scan of log r with the
zoom (the fit's cap included, so no clip follows it), these were recorded
again:

* ``validate_stable.out``: ``rho_bound_raw`` and ``rho_bound``
  0.36071557940574139 -> 0.36071557940574134, ``infimum_location``
  7.7889946095258411 -> 7.7889946877629743;
* ``curve.csv``: alpha12 = 0.62, 0.3542116509536456 -> 0.35421165095364548,
  and alpha12 = 0.78, 0.27895243261239122 -> 0.27895243261239128;
* ``fit.out`` and ``fit.txt``: the cap is smooth now, and the fit converges
  after 51 evaluations where it stopped on its 80-evaluation cap.  ``nll``
  63.020597758993844 -> 62.981954818422594, ``aic`` 148.04119551798769 ->
  147.96390963684519, ``loo_rmse`` 0.8084476569513922 -> 0.80388921021812954,
  ``mean1`` 0.6477903872258769 -> 0.64063078172101584, ``mean2``
  0.030212304699268788 -> 0.030378409521011462, ``converged`` false -> true,
  ``n_iter`` 80 -> 51; ``sigma1`` 0.81863439426935902 -> 0.82650766907088768,
  ``sigma2`` 1.007573861694103 -> 1.0164668704561466, ``rho``
  0.45399093609189484 -> 0.44128807747969279, ``alpha11`` 0.73979312057904667
  -> 0.61123363663185382, ``alpha12`` 0.78055680846563047 ->
  0.88167975522209585, ``alpha22`` 0.75791931542345392 -> 0.86617077357942751,
  ``s11`` 1.2397979088833029 -> 1.3128494669938899, ``s12``
  4.6406842186687651 -> 11.308746499195436, ``s22`` 9.7793987077105751 ->
  15.416252619078913.

The Cauchy ``validate`` run's ``rho_bound`` reads 0.59040784708340499 in that
mode, 1.3e-15 relative from the file, and is not recorded again.

When the stable and Cauchy fits moved to better-conditioned coordinates
(each marginal log scale to its microergodic parameter, log(sigma_i^2
s_ii^alpha_ii), the cross log scale to its offset from the mean marginal one,
and the cross smoothness and rho to maps that reach their edges), ``fit.out``
and ``fit.txt`` were recorded again.  The 25-site fit no longer stops after
51 evaluations but keeps descending to its 80-evaluation cap, where it ends
1.0e-6 nats lower (uncapped, it converges after 340 at 62.976929510383556):
``nll`` 62.981954818422594 -> 62.981953803409333, ``aic``
147.96390963684519 -> 147.96390760681868, ``loo_rmse`` 0.80388921021812954
-> 0.80389303637952847, ``mean1`` 0.64063078172101584 ->
0.64064103389060933, ``mean2`` 0.030378409521011462 -> 0.030378383523815954,
``converged`` true -> false, ``n_iter`` 51 -> 80; ``sigma1``
0.82650766907088768 -> 0.82646921245230631, ``sigma2`` 1.0164668704561466 ->
1.0164588549047517, ``rho`` 0.44128807747969279 -> 0.44122803302129315,
``alpha11`` 0.61123363663185382 -> 0.61137397632783919, ``alpha12``
0.88167975522209585 -> 0.95099556113010442, ``alpha22`` 0.86617077357942751
-> 0.94702198172839203, ``s11`` 1.3128494669938899 -> 1.3127281281364016,
``s12`` 11.308746499195436 -> 7.6727938262606372, ``s22`` 15.416252619078913
-> 8.6861088515557903.

When the zoom that refines the engine's minima stopped at 1e-8 in log r
instead of 1e-10 (four passes instead of six), these were recorded again:

* ``validate_stable.out``: ``rho_bound_raw`` and ``rho_bound``
  0.36071557940574134 -> 0.36071557940574139, ``infimum_location``
  7.7889946877629743 -> 7.7889946762571158;
* ``curve.csv``: alpha12 = 0.62, 0.35421165095364548 -> 0.3542116509536456,
  alpha12 = 0.78, 0.27895243261239128 -> 0.27895243261239139, and
  alpha12 = 1.1, 0.16685330534977658 -> 0.16685330534977663;
* ``fit.out`` and ``fit.txt``: the fit still stops on its 80-evaluation cap.
  ``nll`` 62.981953803409333 -> 62.981953835869717, ``aic``
  147.96390760681868 -> 147.96390767173943, ``loo_rmse``
  0.80389303637952847 -> 0.80389376275843827, ``mean1`` 0.64064103389060933
  -> 0.64063862627283985, ``mean2`` 0.030378383523815954 ->
  0.030378383716269955; ``sigma1`` 0.82646921245230631 ->
  0.82650474876650282, ``sigma2`` 1.0164588549047517 -> 1.0164623782275168,
  ``rho`` 0.44122803302129315 -> 0.4412435049123819, ``alpha11``
  0.61137397632783919 -> 0.61147635114694199, ``alpha12``
  0.95099556113010442 -> 0.95091310887235658, ``alpha22``
  0.94702198172839203 -> 0.94688827914813978, ``s11`` 1.3127281281364016 ->
  1.3123795541791627, ``s12`` 7.6727938262606372 -> 7.6709593255166624,
  ``s22`` 8.6861088515557903 -> 8.6751429972139302.

When cokriging moved to mean + c^T a, a = K^-1 (z - means) from one vector
solve, with the variance sill - |L^-1 c|^2 from one lower-triangular solve,
``krige.csv`` was recorded again:

* x, y = 0, 0: prediction 0.56145521118564601 -> 0.56145521118564612
  (variance 0 on both);
* x, y = 0.37, 4.2: prediction 0.85582862351060918 -> 0.85582862351060929;
* x, y = 5.5, 1.25: prediction 0.70335958542993005 -> 0.70335958542992993,
  variance 0.76621698049336817 -> 0.76621698049336828.

When the fit's gradient took K^-1 from a recursive triangular inverse and
summed K^-1 - a a^T from one triangle (its entries doubled), in place of
LAPACK potri and the mirrored matrix, the gradient's last bits moved, and
``fit.out`` and ``fit.txt`` were recorded again.  The fit still stops on its
80-evaluation cap.  ``nll`` 62.981953835869717 -> 62.981953654779844, ``aic``
147.96390767173943 -> 147.96390730955969, ``loo_rmse`` 0.80389376275843827
-> 0.80389151775329626, ``mean1`` 0.64063862627283985 -> 0.64063646777729311,
``mean2`` 0.030378383716269955 -> 0.030378381591055947; ``sigma1``
0.82650474876650282 -> 0.82651873296255218, ``sigma2`` 1.0164623782275168 ->
1.0164896927685014, ``rho`` 0.4412435049123819 -> 0.44123755418714694,
``alpha11`` 0.61147635114694199 -> 0.61136244213483648, ``alpha12``
0.95091310887235658 -> 0.95107315076319432, ``alpha22`` 0.94688827914813978
-> 0.94717568448174894, ``s11`` 1.3123795541791627 -> 1.3126140314770338,
``s12`` 7.6709593255166624 -> 7.6726968524717156, ``s22`` 8.6751429972139302
-> 8.7441140073487986.

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
