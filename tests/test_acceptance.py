"""End-to-end acceptance gate.

Each test covers one shipping criterion and prints a single PASS/FAIL line
with the measured figures, so a full run reads as a checklist.  The checks
here deliberately go through public entry points only; unit-level coverage
lives in the per-module test files.
"""
import dataclasses
import math
import time

import numpy as np
import pytest
from scipy.integrate import quad

import bicov as bc
from bicov import derivative
from bicov.cli import main
from bicov.field import FieldSample, loo_rmse


@pytest.fixture
def report(capsys):
    def _line(num, ok, detail):
        with capsys.disabled():
            print(f"criterion {num:2d}: {'PASS' if ok else 'FAIL'} ({detail})")
    return _line


# ---------------------------------------------------------------- helpers

def second_form(fam, r, n):
    d2 = derivative(fam, r, 2)
    return d2 if n == 1 else d2 - r * derivative(fam, r, 3)


def brute_force_bound(model, n, points=1_000_000):
    """sqrt of the grid infimum of D11 D22 / D12^2 on a 10^6-point log grid.

    Factors that drifted out of double range are dropped and the ratio is
    ordered as (D11/D12)(D22/D12) so heavy tails stay representable.
    """
    r = np.geomspace(1e-8, 1e8, points)
    with np.errstate(all="ignore"):
        d11 = second_form(model.psi11, r, n)
        d22 = second_form(model.psi22, r, n)
        d12 = second_form(model.psi12, r, n)
        ok = ((np.abs(d11) > 1e-280) & (np.abs(d22) > 1e-280)
              & (np.abs(d12) > 1e-280) & np.isfinite(d11)
              & np.isfinite(d22) & np.isfinite(d12))
        vals = np.where(ok, (d11 / d12) * (d22 / d12), np.nan)
    vals = np.where(np.isfinite(vals), vals, np.nan)
    return math.sqrt(float(np.nanmin(vals)))


def draw_stable(rng, rho=0.0):
    a11, a22 = rng.uniform(0.15, 0.95, 2)
    a12 = min(max(a11, a22) + rng.uniform(0.05, 0.9), 1.9)
    s = rng.uniform(0.3, 3.0, 3)
    return bc.stable_bivariate(1.0, 1.3, rho, a11, a12, a22, *s)


def draw_cauchy(rng, rho=0.0):
    a11, a22 = rng.uniform(0.2, 0.95, 2)
    a12 = min(max(a11, a22) + rng.uniform(0.05, 0.9), 1.9)
    b11, b22 = rng.uniform(0.4, 4.0, 2)
    b12 = 0.5 * (b11 + b22) + rng.uniform(0.05, 1.0)
    s = rng.uniform(0.3, 3.0, 3)
    return bc.cauchy_bivariate(1.0, 1.3, rho, a11, a12, a22,
                               b11, b12, b22, *s)


def draw_interior(rng, index):
    """A SufficientBound instance whose infimum sits at an interior radius.

    Alternates family with ``index`` parity and dimension in blocks of two,
    redrawing until the engine reports an interior minimum whose derivative
    factors are representable as doubles at the minimizer: raw-value oracles
    cannot see minima that live below double range, which is the regime the
    log-space engine exists for in the first place.
    """
    fam_stable = index % 2 == 0
    n = 1 if index % 4 < 2 else 3
    bound_fn = bc.max_rho_stable if fam_stable else bc.max_rho_cauchy
    while True:
        m = draw_stable(rng) if fam_stable else draw_cauchy(rng)
        rep = bound_fn(m, n)
        if (rep.decidability != "SufficientBound"
                or not isinstance(rep.infimum_location, float)):
            continue
        r_star = np.array([rep.infimum_location])
        d_star = [second_form(f, r_star, n)[0]
                  for f in (m.psi11, m.psi12, m.psi22)]
        if all(np.isfinite(v) and abs(v) > 1e-250 for v in d_star):
            return m, n, rep


# ------------------------------------------------------------- criteria

def test_criterion_01_separable_exactness(report):
    t0 = time.perf_counter()
    rng = np.random.default_rng(11)
    worst = 0.0
    for _ in range(20):
        a = rng.uniform(0.1, 0.99)
        s = rng.uniform(0.3, 3.0)
        ac = rng.uniform(0.2, 0.99)
        b = rng.uniform(0.4, 4.0)
        sc = rng.uniform(0.3, 3.0)
        ms = bc.stable_bivariate(1.0, 1.0, 0.5, a, a, a, s, s, s)
        mc = bc.cauchy_bivariate(1.0, 1.0, 0.5, ac, ac, ac, b, b, b,
                                 sc, sc, sc)
        # the bound integrand is constant for a separable model, so a coarse
        # grid with no bracket refinement is exact and keeps this under 1 s
        for n in (1, 3):
            rs = bc.max_rho_stable(ms, n, grid_points=256, refine_brackets=0)
            rc = bc.max_rho_cauchy(mc, n, grid_points=256, refine_brackets=0)
            worst = max(worst, abs(rs.rho_bound_raw - 1.0),
                        abs(rc.rho_bound_raw - 1.0))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-10 and elapsed < 1.0
    report(1, ok, f"max |rho_bound - 1| = {worst:.1e}, {elapsed:.2f}s")
    assert worst <= 1e-10
    assert elapsed < 1.0


CLASSIFICATION_ROWS = [
    # (a11, a12, a22, s11, s12, s22, case, decidability)
    (0.5, 0.5, 0.5, 1.0, 2.0, 2.0, "i", "SufficientBound"),
    (0.7, 0.7, 0.7, 0.5, 1.1, 1.2, "i", "SufficientBound"),
    (0.3, 0.3, 0.3, 2.0, 3.0, 3.0, "i", "SufficientBound"),
    (0.8, 0.8, 0.5, 1.0, 1.0, 1.0, "ii", "SufficientBound"),
    (0.6, 0.6, 0.4, 2.0, 1.9, 0.7, "ii", "SufficientBound"),
    (0.9, 0.9, 0.3, 0.8, 0.7, 2.0, "ii", "SufficientBound"),
    (0.5, 0.8, 0.8, 1.0, 1.0, 1.0, "iii", "SufficientBound"),
    (0.4, 0.6, 0.6, 0.7, 1.9, 2.0, "iii", "SufficientBound"),
    (0.3, 0.9, 0.9, 2.0, 0.7, 0.8, "iii", "SufficientBound"),
    (0.2, 0.6, 0.5, 2.0, 1.0, 3.0, "iv", "SufficientBound"),
    (0.8, 0.9, 0.6, 0.5, 0.7, 0.7, "iv", "SufficientBound"),
    (0.5, 1.4, 0.9, 1.0, 1.0, 1.0, "iv", "SufficientBound"),
    (0.8, 0.55, 0.6, 1.0, 1.0, 1.0, "alpha12-below-mean", "NecessarilyZero"),
    (0.5, 0.3, 0.7, 2.0, 0.5, 1.0, "alpha12-below-mean", "NecessarilyZero"),
    (0.9, 0.5, 0.3, 0.7, 1.3, 2.0, "alpha12-below-mean", "NecessarilyZero"),
    (1.0, 1.5, 1.0, 1.0, 1.0, 1.0, "iv", "ZeroInfimumInconclusive"),
    (1.0, 1.2, 1.0, 0.5, 2.0, 1.0, "iv", "ZeroInfimumInconclusive"),
    (1.0, 1.1, 0.5, 1.0, 0.8, 1.5, "iv", "ZeroInfimumInconclusive"),
]


def test_criterion_02_case_classification(report):
    t0 = time.perf_counter()
    failures = []
    for a11, a12, a22, s11, s12, s22, case, dec in CLASSIFICATION_ROWS:
        m = bc.stable_bivariate(1.0, 1.0, 0.1, a11, a12, a22, s11, s12, s22)
        rep = bc.max_rho_stable(m, 1)
        got = (rep.case, rep.decidability)
        if got != (case, dec):
            failures.append((a11, a12, a22, got, (case, dec)))
        if dec == "NecessarilyZero" and rep.rho_bound != 0.0:
            failures.append((a11, a12, a22, "bound", rep.rho_bound))
    elapsed = time.perf_counter() - t0
    ok = not failures and elapsed < 5.0
    report(2, ok, f"{len(CLASSIFICATION_ROWS) - len(failures)}"
                  f"/{len(CLASSIFICATION_ROWS)} rows, {elapsed:.2f}s")
    assert not failures, failures
    assert elapsed < 5.0


def test_criterion_03_pd_at_the_bound(report):
    t0 = time.perf_counter()
    rng = np.random.default_rng(5)
    worst = math.inf
    checked = 0
    for i in range(100):
        fam_stable = i < 50
        bound_fn = bc.max_rho_stable if fam_stable else bc.max_rho_cauchy
        while True:
            probe = draw_stable(rng) if fam_stable else draw_cauchy(rng)
            reps = {n: bound_fn(probe, n) for n in (1, 3)}
            if all(r.decidability == "SufficientBound"
                   for r in reps.values()):
                break
        for n in (1, 3):
            m = dataclasses.replace(probe, rho=reps[n].rho_bound)
            pts = rng.uniform(0.0, 10.0, size=(100, n))
            sample = FieldSample(np.repeat(pts, 2, axis=0),
                                 np.tile([1, 2], 100))
            g = bc.gram(m, sample)
            chk = bc.check_pd(g)
            worst = min(worst, chk.min_eigenvalue / float(np.max(np.diag(g))))
            checked += 1
    elapsed = time.perf_counter() - t0
    ok = worst >= -1e-8 and checked == 200 and elapsed < 120.0
    report(3, ok, f"200 Gram matrices, worst min-eig/max-diag = "
                  f"{worst:+.1e}, {elapsed:.1f}s")
    assert worst >= -1e-8
    assert elapsed < 120.0


def test_criterion_04_infimum_oracle_equivalence(report):
    t0 = time.perf_counter()
    rng = np.random.default_rng(42)
    worst = 0.0
    for i in range(100):
        m, n, rep = draw_interior(rng, i)
        brute = brute_force_bound(m, n)
        worst = max(worst, abs(brute - rep.rho_bound_raw) / rep.rho_bound_raw)
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-6 and elapsed < 120.0
    report(4, ok, f"100 instances vs 1e6-point grid, worst rel "
                  f"{worst:.1e}, {elapsed:.1f}s")
    assert worst <= 1e-6
    assert elapsed < 120.0


def test_criterion_05_cross_path_consistency(report):
    t0 = time.perf_counter()
    rng = np.random.default_rng(99)
    worst = 0.0
    for i in range(100):
        m, n, rep = draw_interior(rng, i)
        gen = bc.generic_sufficient_check(m, n)
        worst = max(worst,
                    abs(gen.rho_bound_raw - rep.rho_bound_raw)
                    / rep.rho_bound_raw)
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-9 and elapsed < 60.0
    report(5, ok, f"100 instances generic vs closed route, worst rel "
                  f"{worst:.1e}, {elapsed:.1f}s")
    assert worst <= 1e-9
    assert elapsed < 60.0


def test_criterion_06_spherical_impossibility(report):
    t0 = time.perf_counter()
    rng = np.random.default_rng(7)
    roots = bc.tan_roots(200)
    failures = []
    for _ in range(20):
        s11, s12, s22 = rng.uniform(0.3, 3.0, 3)
        verdict = bc.spherical_triviality(s11, s12, s22, 0.05)
        witness_set = 2.0 * s11 * roots
        hit = np.min(np.abs(witness_set - verdict.witness_u)) <= 1e-9 * s11
        if verdict.valid or not hit:
            failures.append((s11, s12, s22, verdict))
    # a common scale factorizes the determinant, so no frequency violates
    equal = bc.spherical_triviality(1.1, 1.1, 1.1, 0.05)
    u = np.linspace(1e-6, 2.0 * 1.1 * roots[-1], 20_000)
    f = bc.spherical_density_closed_form(1.1, u)
    margin = f * f * (1.0 - 0.05 ** 2)
    elapsed = time.perf_counter() - t0
    ok = (not failures and equal.valid and float(np.min(margin)) >= 0.0
          and elapsed < 10.0)
    report(6, ok, f"20 distinct-scale triples refuted at 2*s11*u_k, "
                  f"equal scales clean, {elapsed:.2f}s")
    assert not failures, failures
    assert equal.valid
    assert float(np.min(margin)) >= 0.0
    assert elapsed < 10.0


def test_criterion_07_tauberian_slopes(report):
    t0 = time.perf_counter()
    devs = []
    for alpha, window in ((0.2, (1e4, 1e6)), (0.5, (1e2, 1e3)),
                          (1.0, (1e2, 1e3)), (1.5, (1e2, 1e3))):
        slope = bc.tauberian_slope(bc.stable(alpha, 1.0), 1, window)
        devs.append(abs(slope - (-alpha - 1.0)))
    origin = bc.tauberian_slope(bc.cauchy(1.0, 0.5, 1.0), 1, (1e-4, 1e-3))
    devs.append(abs(origin - (-0.5)))
    elapsed = time.perf_counter() - t0
    worst = max(devs)
    ok = worst <= 0.05 and elapsed < 60.0
    report(7, ok, f"4 stable tails + cauchy origin, worst slope dev "
                  f"{worst:.3f}, {elapsed:.2f}s")
    assert worst <= 0.05
    assert elapsed < 60.0


def spherical_density_reference(s, u):
    """Direct quadrature of the radial transform over the support [0, 1/s]."""
    def psi(r):
        t = s * r
        return 1.0 - 1.5 * t + 0.5 * t ** 3

    if u == 0.0:
        val, _ = quad(lambda r: r * r * psi(r), 0.0, 1.0 / s)
        return val / (2.0 * math.pi ** 2)
    if u < 2.0:
        val, _ = quad(lambda r: r * math.sin(u * r) * psi(r), 0.0, 1.0 / s)
    else:
        val, _ = quad(lambda r: r * psi(r), 0.0, 1.0 / s,
                      weight="sin", wvar=u)
    return val / (2.0 * math.pi ** 2 * u)


def test_criterion_08_transform_fidelity(report):
    t0 = time.perf_counter()
    u = np.linspace(0.0, 50.0, 101)
    got = bc.member_spectral_density(bc.stable(1.0, 1.0), 1, u)
    want = 1.0 / (math.pi * (1.0 + u * u))
    dev_exp = float(np.max(np.abs(got - want)))

    dev_sph = 0.0
    for s in (1.0, 0.7):
        for uu in (0.0, 5e-4, 0.3, 1.0, 2.7, 8.9868 / s * 0.5, 15.0, 30.0):
            closed = float(bc.spherical_density_closed_form(s, uu))
            ref = spherical_density_reference(s, uu)
            dev_sph = max(dev_sph, abs(closed - ref))
    elapsed = time.perf_counter() - t0
    ok = dev_exp <= 1e-6 and dev_sph <= 1e-7 and elapsed < 30.0
    report(8, ok, f"exponential dev {dev_exp:.1e}, spherical dev "
                  f"{dev_sph:.1e}, {elapsed:.2f}s")
    assert dev_exp <= 1e-6
    assert dev_sph <= 1e-7
    assert elapsed < 30.0


FIT_TRUTH = dict(sigma1=1.0, sigma2=1.5, rho=0.4, a11=0.8, a12=0.9, a22=0.6,
                 s11=0.5, s12=0.7, s22=0.7)
FIT_STARTS = {"stable": 2, "matern": 1, "lmc": 1}


@pytest.mark.slow
def test_criterion_09_end_to_end_fit(report):
    t0 = time.perf_counter()
    truth = bc.stable_bivariate(*FIT_TRUTH.values())
    loo_wins = 0
    recoveries = 0
    seeds_run = 0
    for seed in range(10):
        if time.perf_counter() - t0 >= 900.0:
            break   # past its time limit: the verdict is FAIL, so skip the rest
        seeds_run += 1
        pts = np.random.default_rng(seed).uniform(0.0, 10.0, size=(150, 2))
        locs = np.repeat(pts, 2, axis=0)
        comps = np.tile([1, 2], 150)
        data = bc.simulate(truth, locs, comps, seed=seed,
                           mean1=1.0, mean2=2.0)
        fits = {kind: bc.fit_ml(data, kind, n_starts=ns, seed=0)
                for kind, ns in FIT_STARTS.items()}
        loo = {kind: loo_rmse(f, data) for kind, f in fits.items()}
        loo_wins += min(loo, key=loo.get) == "stable"

        st = fits["stable"].model
        got = dict(sigma1=st.sigma1, sigma2=st.sigma2, rho=st.rho,
                   a11=st.psi11.params.alpha, a12=st.psi12.params.alpha,
                   a22=st.psi22.params.alpha,
                   s11=st.psi11.params.scale, s12=st.psi12.params.scale,
                   s22=st.psi22.params.scale)
        recoveries += all(
            abs(got[k] - v) <= 0.1 if k == "rho"
            else abs(got[k] - v) <= 0.25 * abs(v)
            for k, v in FIT_TRUTH.items())
    elapsed = time.perf_counter() - t0
    ok = loo_wins >= 6 and recoveries >= 7 and elapsed < 900.0
    report(9, ok, f"loo wins {loo_wins}/10 (need 6), recovery "
                  f"{recoveries}/10 (need 7), {seeds_run}/10 seeds, {elapsed:.0f}s")
    assert elapsed < 900.0
    assert loo_wins >= 6
    assert recoveries >= 7


def test_criterion_10_cli_determinism(report, tmp_path):
    t0 = time.perf_counter()
    model = tmp_path / "model.txt"
    model.write_text(bc.model_to_text(bc.stable_bivariate(
        1.0, 1.0, 0.2, 0.2, 0.6, 0.5, 2.0, 1.0, 3.0)))
    sims = []
    for i in range(2):
        out = tmp_path / f"sim{i}.csv"
        assert main(["simulate", str(model), "--grid", "5x5:8.0",
                     "--seed", "1", "--out", str(out)]) == 0
        sims.append(out.read_bytes())
    fits = []
    for i in range(2):
        out = tmp_path / f"fit{i}.txt"
        assert main(["fit", str(tmp_path / "sim0.csv"), "--kind", "stable",
                     "--starts", "1", "--max-evals", "80",
                     "--out", str(out)]) == 0
        fits.append(out.read_bytes())
    elapsed = time.perf_counter() - t0
    ok = sims[0] == sims[1] and fits[0] == fits[1]
    report(10, ok, f"simulate and fit outputs byte-identical, "
                   f"{elapsed:.1f}s")
    assert sims[0] == sims[1]
    assert fits[0] == fits[1]
