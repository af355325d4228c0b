"""Digest of the numerical outputs a refactor of the Gram or the fit must keep.

Prints one SHA-256 prefix per case and a total over all of them:

* ``gram`` for a stable, Cauchy, Matern, spherical and LMC model on a
  colocated sample with the components interleaved, the same sample with the
  components one after the other, a heterotopic and a partly colocated
  sample, without and with nuggets;
* ``gram`` once more for the Matern model on 120 colocated sites, 7,140
  distances per pair, and ``loo`` of a sample simulated there: its 240 rows
  take the fit's triangular inverse through two levels of recursion;
* ``simulate``: the values of a simulated sample on the same models and
  samples;
* ``krige``: ``cokrige`` of that simulated sample for both target components,
  so a change to cokriging shows apart from a change to simulation;
* ``loo``: ``loo_rmse`` of that simulated sample, on a line of its own;
* ``nll``: value and gradient of the fit objective at four Latin-hypercube
  points for every fitted kind, without and with ``fit_nugget``, on plain data
  and on data with ten repeated rows (which needs the nugget floor);
* ``fit``: a single-start ``fit_ml`` of every kind on 100 seeded sites that
  observe one component each, written as its evaluation count and a digest of
  the fitted model's text, so a change in the optimizer's path shows;
* ``bound``: the bound engine's reports on a seeded set of stable and Cauchy
  models in R^1 and R^3, ``fine`` (the defaults, which every route in the
  package takes, the fit's rho cap included), ``coarse`` (the public keywords
  ``grid_points=512, refine_brackets=0``, which no route passes) and by the
  generic route, each report written as text with its location as a float or
  a tag;
* ``deriv``: radial derivatives of orders 1 to 3 of a stable, Cauchy and
  spherical member and of a Matern member on each side of nu = 1, on a
  distance grid clear of the spherical kink, and the generic route's reports
  on a rough bivariate Matern model in R^1 and R^3;
* ``psi``: a Matern member's value and radial derivatives of orders 1 to 3
  for nu from 0.05 to the cap of 300, at x from 1e-150 to 700 and at inf
  (the value at 0 too);
* ``spectral``: the spectral density of a stable, Cauchy, spherical and
  Matern member in R^1 and R^3 at u = 0, 1e-3, 0.5, 2 and 20;
* ``grad``: the fit's derivatives of the log infimum in every member's
  parameters, at the default and at the coarse report of each ``bound`` model.

Run it on two checkouts and compare the output; equal totals mean
bit-identical results.  Byte equality holds at a fixed BLAS thread count,
whatever the number of CPUs the process may run on:

    OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python3 tools/hash_outputs.py
"""

import hashlib

import numpy as np

import bicov as bc
from bicov.field import _ParamSpec, _ProfiledNll
from bicov.validity import NotApplicable, _log_infimum_gradient, generic_sufficient_check


def digest(*arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(np.asarray(a, dtype=float)).tobytes())
    return h.hexdigest()[:16]


MODELS = {
    "stable": bc.stable_bivariate(1.0, 1.5, 0.4, 0.8, 0.9, 0.6, 0.9, 1.1, 0.8),
    "cauchy": bc.cauchy_bivariate(1.0, 1.2, 0.3, 0.8, 0.9, 0.6, 1.5, 2.0, 2.5, 0.9, 1.1, 0.8),
    "matern": bc.matern_bivariate(1.0, 1.3, 0.2, 0.5, 1.0, 1.5, 0.7, 0.7, 0.7),
    "spherical": bc.spherical_bivariate(1.0, 0.8, 0.0, 0.3, 0.2, 0.25),
    "lmc": bc.LmcBivariate(b1=(1.0, 0.3, 0.5), b2=(0.4, 0.1, 0.9),
                           psi1=bc.stable(1.0, 0.7), psi2=bc.stable(1.5, 1.3)),
}

DERIV_MEMBERS = {
    "stable": bc.stable(0.7, 1.3),
    "cauchy": bc.cauchy(1.2, 2.5, 0.8),
    "spherical": bc.spherical(0.7),
    "matern 0.8": bc.matern(0.8, 1.3),
    "matern 2.2": bc.matern(2.2, 0.6),
}
PSI_NUS = (0.05, 0.5, 0.75, 1.0, 2.5, 10.0, 150.0, 300.0)
SPECTRAL_MEMBERS = {
    "stable": bc.stable(0.7, 1.3),
    "cauchy": bc.cauchy(1.2, 3.5, 0.8),
    "spherical": bc.spherical(0.7),
    "matern": bc.matern(0.8, 1.3),
}
ROUGH_MATERN = bc.matern_bivariate(1.0, 1.0, 0.0, 0.2729653856654739, 0.4008165909944131,
                                   0.13916612038035503, 0.435816560541311,
                                   1.7179540936378843, 2.7086787231686267)


def bound_models(kind: str):
    """30 seeded models of one family.  The cross smoothness is in turn a free
    draw, the larger marginal one and the marginal mean, so reports below,
    at and above the case edges all occur."""
    rng = np.random.default_rng(11 if kind == "stable" else 12)
    for i in range(30):
        a11, a22 = rng.uniform(0.05, 1.0, 2)
        a12 = (rng.uniform(0.05, 2.0), max(a11, a22), 0.5 * (a11 + a22))[i % 3]
        scales = rng.uniform(0.1, 10.0, 3)
        if kind == "stable":
            yield bc.stable_bivariate(1.0, 1.0, 0.0, a11, a12, a22, *scales)
        else:
            betas = rng.uniform(0.1, 5.0, 3)
            yield bc.cauchy_bivariate(1.0, 1.0, 0.0, a11, a12, a22, *betas, *scales)


def report_text(report) -> str:
    loc = report.infimum_location
    return " ".join([repr(report.rho_bound_raw), repr(report.infimum), report.case,
                     loc if isinstance(loc, str) else repr(loc), report.decidability,
                     str(report.n), report.note])


def generic_text(model, n: int) -> str:
    try:
        return report_text(generic_sufficient_check(model, n))
    except NotApplicable:
        return "NotApplicable"


def main() -> None:
    rng = np.random.default_rng(3)
    pts = rng.uniform(0, 10, size=(60, 2))
    samples = {
        "colocated": (np.repeat(pts, 2, axis=0), np.tile([1, 2], 60)),
        "colocated-sorted": (np.vstack([pts, pts]), np.repeat([1, 2], 60)),
        "heterotopic": (rng.uniform(0, 10, size=(90, 2)),
                        rng.permutation(np.tile([1, 2], 45))),
        "partly": (np.vstack([pts[:40], pts[20:]]), np.repeat([1, 2], 40)),
    }
    lines = []
    for sname, (locs, comps) in samples.items():
        sample = bc.FieldSample(locs, comps)
        for mname, model in MODELS.items():
            for nuggets in ((0.0, 0.0), (0.3, 0.05)):
                lines.append(f"gram {sname} {mname} {nuggets} "
                             f"{digest(bc.gram(model, sample, *nuggets))}")
            data = bc.simulate(model, locs, comps, seed=5, mean1=1.0, mean2=2.0,
                               nugget1=0.01, nugget2=0.02)
            targets = pts[:7] + 0.3
            out = [*bc.cokrige(model, data, targets, 1, nugget1=0.01, nugget2=0.02),
                   *bc.cokrige(model, data, targets, 2)]
            lines.append(f"simulate {sname} {mname} {digest(data.values)}")
            lines.append(f"krige {sname} {mname} {digest(*out)}")
            lines.append(f"loo {sname} {mname} {digest(bc.loo_rmse(model, data))}")
    # 120 colocated sites: 7,140 distances per pair
    big = np.repeat(np.random.default_rng(4).uniform(0, 10, size=(120, 2)), 2, axis=0)
    sample = bc.FieldSample(big, np.tile([1, 2], 120))
    lines.append(f"gram colocated-120 matern {digest(bc.gram(MODELS['matern'], sample))}")
    data = bc.simulate(MODELS["matern"], big, sample.components, seed=5, mean1=1.0, mean2=2.0,
                       nugget1=0.01, nugget2=0.02)
    lines.append(f"loo colocated-120 matern {digest(bc.loo_rmse(MODELS['matern'], data))}")

    locs, comps = samples["colocated"]
    plain = bc.simulate(MODELS["stable"], locs[:80], comps[:80], seed=0, mean1=1.0, mean2=2.0)
    repeated = bc.FieldSample(np.vstack([locs[:80], locs[:10]]),
                              np.concatenate([comps[:80], comps[:10]]),
                              values=np.concatenate([plain.values, plain.values[:10]]))
    for kind in ("stable", "cauchy", "matern", "lmc"):
        for dname, data in (("plain", plain), ("repeated", repeated)):
            for fit_nugget in (False, True):
                spec = _ParamSpec(kind, data, 3, fit_nugget, 0.0, 0.0)
                objective = _ProfiledNll(spec, data)
                values = []
                for theta in spec.starts(4, 7):
                    value, grad = objective(theta)
                    values += [value, *grad]
                lines.append(f"nll {kind} {dname} {fit_nugget} {digest(values)}")
    sites = np.random.default_rng(6).uniform(0, 10, size=(100, 2))
    fit_data = bc.simulate(MODELS["stable"], sites, np.tile([1, 2], 50), seed=6,
                           mean1=1.0, mean2=2.0)
    for kind in ("stable", "cauchy", "matern", "lmc"):
        fit = bc.fit_ml(fit_data, kind, n_starts=1, seed=0)
        text = bc.model_to_text(fit.model)
        lines.append(f"fit {kind} {fit.n_iter} {hashlib.sha256(text.encode()).hexdigest()[:16]}")

    for kind in ("stable", "cauchy"):
        engine = bc.max_rho_stable if kind == "stable" else bc.max_rho_cauchy
        for n in (1, 3):
            routes = {
                "fine": lambda m: report_text(engine(m, n)),
                "coarse": lambda m: report_text(engine(m, n, grid_points=512,
                                                       refine_brackets=0)),
                "generic": lambda m: generic_text(m, n),
            }
            for route, text in routes.items():
                h = hashlib.sha256("\n".join(map(text, bound_models(kind))).encode())
                lines.append(f"bound {kind} {n} {route} {h.hexdigest()[:16]}")

    r = np.geomspace(1e-3, 1e2, 41)
    for name, fam in DERIV_MEMBERS.items():
        lines.append(f"deriv {name} {digest(*(bc.derivative(fam, r, k) for k in (1, 2, 3)))}")
    for n in (1, 3):
        text = generic_text(ROUGH_MATERN, n)
        lines.append(f"deriv generic matern {n} {hashlib.sha256(text.encode()).hexdigest()[:16]}")

    x = np.concatenate([np.geomspace(1e-150, 700.0, 121), [np.inf]])
    for nu in PSI_NUS:
        fam = bc.matern(nu)
        values = [bc.evaluate(fam, np.concatenate([[0.0], x]))]
        values += [bc.derivative(fam, x, k) for k in (1, 2, 3)]
        lines.append(f"psi matern {nu:g} {digest(*values)}")

    u = np.array([0.0, 1e-3, 0.5, 2.0, 20.0])
    for name, fam in SPECTRAL_MEMBERS.items():
        for n in (1, 3):
            lines.append(f"spectral {name} {n} {digest(bc.member_spectral_density(fam, n, u))}")

    for kind in ("stable", "cauchy"):
        engine = bc.max_rho_stable if kind == "stable" else bc.max_rho_cauchy
        for n in (1, 3):
            grads = [_log_infimum_gradient(m, report) for m in bound_models(kind)
                     for report in (engine(m, n), engine(m, n, grid_points=512,
                                                          refine_brackets=0))]
            lines.append(f"grad {kind} {n} {digest(*(g for grad in grads for g in grad))}")

    for line in lines:
        print(line)
    print("TOTAL", hashlib.sha256("\n".join(lines).encode()).hexdigest())


if __name__ == "__main__":
    main()
