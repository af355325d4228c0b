"""The four workloads: seeded inputs, the timed operations, and their checks.

A workload builds its inputs from the seed in ``__init__``, warms up in
``warm_up`` and then exposes ``ops()``: the fixed list of (label, call,
known_fault) making up one round.  Every round runs the same operations on
the same inputs, so the share of failed operations is a property of the
code, not of the run length.  ``check`` receives one round's outcomes by
label and returns the problems found, by label; it compares with
computations from ``refs`` (which never imports bicov) or with properties
the method must have.  ``detail`` turns per-operation timings into the
workload's own figures.

bicov is passed in as ``bc`` and always reached through its module
attributes at call time, so a tracer installed after set-up sees every call.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import math
import os
import re
import statistics
import subprocess
import sys

import numpy as np

import refs

FIT_TRUTH = dict(kind="member", sigma1=1.0, sigma2=1.5, rho=0.4,
                 m11=("stable", 0.8, 0.5), m12=("stable", 0.9, 0.7),
                 m22=("stable", 0.6, 0.7))
# fit_ml adds a polish of max(budget // 2, 150 * dim) evaluations after the
# start, so this budget runs 400 + 1350 (stable) and 400 + 1200 (lmc)
# evaluations; both phases stop on the budget, so the count is the same for
# every data seed and the fit time does not swing with the optimizer's path.
FIT_MAX_EVALS = 400

README_MODEL = dict(kind="member", sigma1=1.0, sigma2=1.0, rho=0.2,
                    m11=("stable", 0.2, 2.0), m12=("stable", 0.6, 1.0),
                    m22=("stable", 0.5, 3.0))
# the scale-invariance probe: fixed, so its failures are the same every run
SCALE_PROBE = dict(kind="member", sigma1=1.0, sigma2=1.0, rho=0.0,
                   m11=("stable", 0.3, 1.0), m12=("stable", 0.9, 0.8),
                   m22=("stable", 0.6, 1.2))
SCALE_FACTORS = (1e-12, 1e-9, 1e-6, 1e-3, 1e3, 1e6, 1e9, 1e12)
# the engine scans r in [1e-8, 1e8] whatever the scales, so these copies
# report a wrong bound (or overflow at 1e12)
SCALE_FAULTY = {1e-12, 1e-9, 1e9, 1e12}
FAULT_SCALE = "fixed r window in validity._scan_infimum breaks scale invariance"
FAULT_QUAD = "n=3 zero-frequency quadrature fails for stable alpha <= 0.25"

SPECTRAL_U = np.array([0.0, 0.5, 2.0])


# ---------------------------------------------------------------------------
# Conversions between reference dicts and bicov models.

@dataclasses.dataclass(frozen=True)
class Refusal:
    """A documented refusal (NotApplicable, NonIntegrable): an answer, not a failure."""
    kind: str
    message: str

    @classmethod
    def of(cls, exc):
        return cls(type(exc).__name__, str(exc))


def to_bicov(bc, spec, **override):
    spec = {**spec, **override}
    if spec["kind"] == "lmc":
        return bc.LmcBivariate(tuple(spec["b1"]), tuple(spec["b2"]),
                               bc.stable(*spec["m1"][1:]), bc.stable(*spec["m2"][1:]))
    m11, m12, m22 = spec["m11"], spec["m12"], spec["m22"]
    head = (spec["sigma1"], spec["sigma2"], spec["rho"])
    fam = m11[0]
    if fam == "stable":
        return bc.stable_bivariate(*head, m11[1], m12[1], m22[1], m11[2], m12[2], m22[2])
    if fam == "cauchy":
        return bc.cauchy_bivariate(*head, m11[1], m12[1], m22[1], m11[2], m12[2], m22[2],
                                   m11[3], m12[3], m22[3])
    if fam == "matern":
        return bc.matern_bivariate(*head, m11[1], m12[1], m22[1], m11[2], m12[2], m22[2])
    return bc.spherical_bivariate(*head, m11[1], m12[1], m22[1])


def _member(f):
    p = f.params
    if f.kind == "Stable":
        return ("stable", p.alpha, p.scale)
    if f.kind == "Cauchy":
        return ("cauchy", p.alpha, p.beta, p.scale)
    return ("matern", p.nu, p.scale)


def from_bicov(model):
    if hasattr(model, "b1"):
        return dict(kind="lmc", b1=model.b1, b2=model.b2,
                    m1=_member(model.psi1), m2=_member(model.psi2))
    return dict(kind="member", sigma1=model.sigma1, sigma2=model.sigma2, rho=model.rho,
                m11=_member(model.psi11), m12=_member(model.psi12), m22=_member(model.psi22))


def rescaled(spec, c):
    return {**spec, **{k: spec[k][:-1] + (spec[k][-1] * c,) for k in ("m11", "m12", "m22")}}


def _rel(a, b):
    return abs(a - b) / max(abs(b), 1e-300)


def _median_sum(times, prefix):
    """Median over rounds of the summed time of the operations under a prefix."""
    per_round = [sum(t[i] for label, t in times.items() if label.startswith(prefix))
                 for i in range(len(next(iter(times.values()))))]
    return statistics.median(per_round)


# ---------------------------------------------------------------------------
# certify

# Draws per template and dimension: the fine engine's cost varies several
# fold with the parameters, so one draw per template leaves the round time at
# the mercy of the seed.
CERTIFY_DRAWS = 3


def _certify_models(rng, reduced):
    """(name, spec, n, expected decidability) for the seeded templates.

    Each template pins the case of the paper's analysis; its free parameters
    are drawn in ranges where every library call succeeds.
    """
    u = rng.uniform
    out = []
    for n, draw in [(n, d) for d in range(1 if reduced else CERTIFY_DRAWS) for n in (1, 3)]:
        block = []
        st = lambda a11, a12, a22, s: dict(
            kind="member", sigma1=1.0, sigma2=1.3, rho=0.0,
            m11=("stable", a11, s[0]), m12=("stable", a12, s[1]), m22=("stable", a22, s[2]))
        a11, a22 = u(0.3, 0.95, 2)
        block.append(("stable-iv", st(a11, min(max(a11, a22) + u(0.05, 0.6), 1.9), a22,
                                    u(0.5, 2.0, 3)), n, "SufficientBound"))
        a = u(0.3, 0.95)
        s11, s22 = u(0.5, 2.0, 2)
        s12 = (0.5 * (s11 ** a + s22 ** a)) ** (1.0 / a) * u(1.05, 1.5)
        block.append(("stable-i", st(a, a, a, (s11, s12, s22)), n, "SufficientBound"))
        # s12 well above its case threshold: just above it the infimum sits
        # far out, below double range, where the generic route cannot look
        a11 = u(0.6, 0.95)
        a22 = u(0.3, a11 - 0.2)
        s11, s22 = u(0.5, 2.0, 2)
        block.append(("stable-ii", st(a11, a11, a22, (s11, 2.0 ** (-1.0 / a11) * s11 * u(2.0, 4.0), s22)),
                    n, "SufficientBound"))
        block.append(("stable-iii", st(a22, a11, a11, (s22, 2.0 ** (-1.0 / a11) * s11 * u(2.0, 4.0), s11)),
                    n, "SufficientBound"))
        a11, a22 = u(0.5, 0.95, 2)
        block.append(("stable-below-mean", st(a11, 0.5 * (a11 + a22) - u(0.05, 0.2), a22,
                                            u(0.5, 2.0, 3)), n, "NecessarilyZero"))
        block.append(("stable-edge", st(1.0, u(1.1, 1.8), 1.0, u(0.5, 2.0, 3)), n,
                    "ZeroInfimumInconclusive"))
        a, s = u(0.3, 0.95), u(0.5, 2.0)
        block.append(("stable-separable", st(a, a, a, (s, s, s)), n, "SufficientBound"))

        ca = lambda a, b, s: dict(
            kind="member", sigma1=1.0, sigma2=1.3, rho=0.0,
            m11=("cauchy", a[0], b[0], s[0]), m12=("cauchy", a[1], b[1], s[1]),
            m22=("cauchy", a[2], b[2], s[2]))
        a11, a22 = u(0.3, 0.95, 2)
        b11, b22 = u(n + 0.5, n + 3.0, 2)
        block.append(("cauchy-v", ca((a11, min(max(a11, a22) + u(0.05, 0.6), 1.9), a22),
                                   (b11, 0.5 * (b11 + b22) + u(0.05, 1.0), b22),
                                   u(0.5, 2.0, 3)), n, "SufficientBound"))
        a11, a22 = u(0.5, 0.95, 2)
        block.append(("cauchy-i", ca((a11, 0.5 * (a11 + a22) - u(0.05, 0.2), a22),
                                   (b11, 0.5 * (b11 + b22) + u(0.05, 1.0), b22),
                                   u(0.5, 2.0, 3)), n, "NecessarilyZero"))
        a11, a22 = u(0.3, 0.95, 2)
        a12 = min(max(a11, a22) + u(0.05, 0.6), 1.9)
        c11, c22 = u(0.3 * n, 0.9 * n, 2)
        block.append(("cauchy-ii", ca((a11, a12, a22), (c11, 0.5 * (c11 + c22) - u(0.02, 0.1), c22),
                                    u(0.5, 2.0, 3)), n, "NecessarilyZero"))
        c11, c22 = u(0.3 * n, 0.9 * n), u(n + 0.5, n + 2.0)
        block.append(("cauchy-iii", ca((a11, a12, a22), (c11, 0.5 * (c11 + n) - u(0.02, 0.1), c22),
                                     u(0.5, 2.0, 3)), n, "NecessarilyZero"))
        block.append(("cauchy-iv", ca((a11, a12, a22), (b11, 0.5 * (b11 + b22) - u(0.05, 0.2), b22),
                                    u(0.5, 2.0, 3)), n, "ZeroInfimumInconclusive"))
        a, b, s = u(0.3, 0.95), u(n + 0.5, n + 3.0), u(0.5, 2.0)
        block.append(("cauchy-separable", ca((a, a, a), (b, b, b), (s, s, s)), n, "SufficientBound"))
        out += [(f"{name}.d{draw}.n{n}", spec, n, dec) for name, spec, _, dec in block
                if not reduced or name in ("stable-iv", "cauchy-v", "stable-below-mean")]
    return out


class Certify:
    """The paper's question, asked of many seeded models, with no Gram matrix."""

    def __init__(self, bc, seed, reduced=False):
        self.bc = bc
        rng = np.random.default_rng(seed)
        self.models = _certify_models(rng, reduced)
        # fixed models: the scale probe at unit scale, and the README model in
        # n = 3 whose alpha11 = 0.2 trips the zero-frequency quadrature
        self.models.append(("scale-probe.n1", SCALE_PROBE, 1, "SufficientBound"))
        self.models.append(("scale-probe.n3", SCALE_PROBE, 3, "SufficientBound"))
        self.models.append(("readme.n3", README_MODEL, 3, "SufficientBound"))
        self.spherical = [(f"spherical-distinct-{i}", tuple(rng.uniform(0.3, 3.0, 3)),
                           rng.uniform(0.05, 0.9)) for i in range(1 if reduced else 3)]
        s = rng.uniform(0.3, 3.0)
        self.spherical.append(("spherical-equal", (s, s, s), rng.uniform(0.05, 0.9)))
        self.copies = [(f"scale-probe.n{n}.c{c:g}", n, c)
                       for n in (1, 3) for c in SCALE_FACTORS]
        self.seed = seed
        self.reports = {}

    def _bound_fn(self, spec):
        bc = self.bc
        return bc.max_rho_stable if spec["m11"][0] == "stable" else bc.max_rho_cauchy

    def warm_up(self):
        _, spec, n, _ = self.models[0]
        self._bound_fn(spec)(to_bicov(self.bc, spec), n)

    def n_models(self):
        return len(self.models) + len(self.spherical) + len(self.copies)

    def ops(self):
        bc = self.bc
        out = []
        for name, spec, n, _ in self.models:
            model = to_bicov(bc, spec)

            def fine(model=model, spec=spec, n=n, name=name):
                self.reports[name] = report = self._bound_fn(spec)(model, n)
                return report

            def generic(model=model, n=n):
                try:
                    return bc.generic_sufficient_check(model, n)
                except bc.NotApplicable as exc:
                    return Refusal.of(exc)

            def spectral(spec=spec, n=n, name=name):
                bound = self.reports[name].rho_bound
                at_bound = to_bicov(bc, spec, rho=bound)
                try:
                    profile = bc.cross_spectral_profile(at_bound, n, SPECTRAL_U)
                except bc.NonIntegrable as exc:
                    return Refusal.of(exc)
                return profile, bc.spectral_pd_inequality(profile, bound)

            fault = FAULT_QUAD if name == "readme.n3" else None
            out.append((f"{name}.fine", fine, None))
            # below the mean the ratio falls until the raw derivatives
            # underflow, and the generic route raises RuntimeError on most
            # seeds; its answer would not bound anything there either
            if not name.startswith("stable-below-mean"):
                out.append((f"{name}.generic", generic, None))
            out.append((f"{name}.spectral", spectral, fault))
        for name, scales, rho in self.spherical:
            out.append((name, lambda s=scales, rho=rho: bc.spherical_triviality(*s, rho), None))
        for label, n, c in self.copies:
            model = to_bicov(bc, rescaled(SCALE_PROBE, c))
            out.append((label, lambda model=model, n=n: bc.max_rho_stable(model, n),
                        FAULT_SCALE if c in SCALE_FAULTY else None))
        return out

    def check(self, res):
        problems = {}
        grid_rng = np.random.default_rng(self.seed + 1)
        for name, spec, n, expected in self.models:
            rep = res[f"{name}.fine"]
            if isinstance(rep, BaseException):
                continue
            p = []
            if rep.decidability != expected:
                p.append(f"decidability {rep.decidability}, expected {expected}")
            if expected == "NecessarilyZero" and rep.rho_bound != 0.0:
                p.append(f"NecessarilyZero with bound {rep.rho_bound!r}")
            # the log-domain engine may land an ulp or two below 1
            if "separable" in name and abs(rep.rho_bound_raw - 1.0) > 1e-12:
                p.append(f"separable model bound {rep.rho_bound_raw!r}, expected 1")
            if expected == "SufficientBound":
                p.append(refs.bound_soundness(spec, n, rep.rho_bound_raw, rep.infimum_location))
                p.append(_gram_psd_problem(spec, n, rep.rho_bound, grid_rng))
            _add(problems, f"{name}.fine", p)

            gen = res.get(f"{name}.generic")
            if (gen is not None and expected == "SufficientBound" and isinstance(rep.infimum_location, float)
                    and rep.rho_bound_raw < 1.0):
                if isinstance(gen, Refusal):
                    _add(problems, f"{name}.generic", [f"generic route refused: {gen.message}"])
                elif _rel(gen.rho_bound_raw, rep.rho_bound_raw) > 1e-9:
                    _add(problems, f"{name}.generic",
                         [f"generic {gen.rho_bound_raw!r} vs closed {rep.rho_bound_raw!r}"])

            spec_res = res[f"{name}.spectral"]
            _add(problems, f"{name}.spectral", [_spectral_problem(spec, n, spec_res)])

        for name, scales, rho in self.spherical:
            v = res[name]
            if isinstance(v, BaseException):
                continue
            if name == "spherical-equal":
                _add(problems, name, [] if v.valid else ["equal scales refuted"])
            elif v.valid or v.witness_u is None:
                _add(problems, name, [f"distinct scales not refuted: {v}"])
            else:
                f11, f12, f22 = (refs.spherical_density(s, v.witness_u) for s in scales)
                det = f11 * f22 - rho ** 2 * f12 ** 2
                if not det < 0.0:
                    _add(problems, name, [f"determinant {det:g} >= 0 at the witness {v.witness_u:g}"])

        for label, n, c in self.copies:
            rep = res[label]
            if isinstance(rep, BaseException):
                continue
            unit = res[f"scale-probe.n{n}.fine"]
            if _rel(rep.rho_bound_raw, unit.rho_bound_raw) > 1e-6:
                _add(problems, label, [f"bound {rep.rho_bound_raw!r} at scale x{c:g}, "
                                       f"{unit.rho_bound_raw!r} at unit scale"])
        return problems

    def detail(self, times):
        fine = [t for label, ts in times.items() if label.endswith(".fine") for t in ts]
        return {"certify_models_per_s": (self.n_models() / _median_sum(times, ""), "1/s"),
                "certify_bound_ms": (1e3 * statistics.median(fine), "ms")}


def _add(problems, label, items):
    items = [p for p in items if p]
    if items:
        problems[label] = "; ".join(items)


def _gram_psd_problem(spec, n, rho, rng):
    """Random colocated sites in R^n at rho = bound: the Gram must be PSD."""
    pts = rng.uniform(0.0, 3.0, size=(30, n))
    locs = np.repeat(pts, 2, axis=0)
    comps = np.tile([1, 2], 30)
    k = refs.gram({**spec, "rho": rho}, locs, comps)
    low = float(np.linalg.eigvalsh(k)[0])
    if low < -1e-8 * float(np.max(np.diag(k))):
        return f"Gram at rho = bound has eigenvalue {low:g}"
    return ""


def _spectral_problem(spec, n, res):
    members = (spec["m11"], spec["m12"], spec["m22"])
    pointwise = all(m[0] == "stable" or m[2] > n for m in members)
    if isinstance(res, BaseException):
        return ""
    if isinstance(res, Refusal):
        return f"no profile for members with a pointwise density: {res.message}" if pointwise else ""
    if not pointwise:
        return "profile produced for a member without a pointwise density"
    profile, pd_check = res
    p = []
    for m, f in zip(members, (profile.f11, profile.f12, profile.f22)):
        want = refs.density_at_zero(m, n)
        if _rel(float(f[0]), want) > 1e-6:
            p.append(f"f(0) {float(f[0])!r} for {m}, closed form {want!r}")
    rho = pd_check.rho
    margin = profile.f11 * profile.f22 - rho ** 2 * profile.f12 ** 2
    scale = float(np.max(profile.f11 * profile.f22 + profile.f12 ** 2))
    if float(np.min(margin)) < -1e-9 * scale:
        p.append(f"f11 f22 < rho^2 f12^2 at rho = bound {rho!r}")
    if not pd_check.satisfied:
        p.append("spectral_pd_inequality fails at rho = bound")
    return "; ".join(p)


# ---------------------------------------------------------------------------
# fit

def _colocated(rng, n_sites, extent):
    pts = rng.uniform(0.0, extent, size=(n_sites, 2))
    return np.repeat(pts, 2, axis=0), np.tile([1, 2], n_sites)


def _own_sample(spec, locs, comps, rng, mean1, mean2):
    k = refs.gram(spec, locs, comps)
    z = np.linalg.cholesky(k) @ rng.standard_normal(len(comps))
    return z + np.where(comps == 1, mean1, mean2)


class Fit:
    """Single-start stable and LMC fits on one simulated stable data set."""

    def __init__(self, bc, seed, reduced=False):
        self.bc = bc
        rng = np.random.default_rng(seed)
        self.locs, self.comps = _colocated(rng, 30 if reduced else 150, 10.0)
        self.z = _own_sample(FIT_TRUTH, self.locs, self.comps, rng, 1.0, 2.0)
        self.data = bc.FieldSample(locations=self.locs, components=self.comps, values=self.z)
        self.max_evals = 20 if reduced else FIT_MAX_EVALS

    def warm_up(self):
        bc = self.bc
        bc.nll(to_bicov(bc, FIT_TRUTH), self.data)
        bc.max_rho_stable(to_bicov(bc, FIT_TRUTH), 3, grid_points=512, refine_brackets=0)

    def ops(self):
        bc = self.bc
        return [(f"fit.{kind}", lambda kind=kind: bc.fit_ml(
                    self.data, kind, n_starts=1, seed=0, max_evals=self.max_evals), None)
                for kind in ("stable", "lmc")]

    def check(self, res):
        problems = {}
        for label, fit in res.items():
            if isinstance(fit, BaseException):
                continue
            spec = from_bicov(fit.model)
            p = []
            own = refs.Factored(spec, self.locs, self.comps, fit.nugget1, fit.nugget2).nll(self.z)
            if _rel(fit.nll, own) > 1e-8:
                p.append(f"nll {fit.nll!r}, recomputed {own!r}")
            if label == "fit.stable":
                bound = self.bc.max_rho_stable(to_bicov(self.bc, spec, rho=0.0), 3).rho_bound
                if abs(fit.model.rho) > bound:
                    p.append(f"|rho| {abs(fit.model.rho)!r} above the fine bound {bound!r}")
            else:
                for b in (spec["b1"], spec["b2"]):
                    eig = np.linalg.eigvalsh(np.array([[b[0], b[1]], [b[1], b[2]]]))
                    if eig[0] < -1e-12 * max(1.0, abs(eig[1])):
                        p.append(f"coefficient matrix {b} is not PSD")
            _add(problems, label, p)
        return problems

    def detail(self, times):
        return {"fit_stable_s": (statistics.median(times["fit.stable"]), "s"),
                "fit_lmc_s": (statistics.median(times["fit.lmc"]), "s")}


# ---------------------------------------------------------------------------
# predict

PREDICT_MODELS = {
    "stable": FIT_TRUTH,
    # case v, certified bound 0.6477 in R^3
    "cauchy": dict(kind="member", sigma1=1.0, sigma2=1.2, rho=0.5,
                   m11=("cauchy", 0.5, 1.5, 0.5), m12=("cauchy", 0.8, 2.5, 0.6),
                   m22=("cauchy", 0.7, 2.0, 0.7)),
    # common scale and nu12 = mean, rho set to 0.8 of the exact limit below
    "matern": dict(kind="member", sigma1=1.0, sigma2=0.8, rho=None,
                   m11=("matern", 0.5, 1.0), m12=("matern", 0.75, 1.0),
                   m22=("matern", 1.0, 1.0)),
    "lmc": dict(kind="lmc", b1=(1.0, 0.5, 0.8), b2=(0.5, -0.2, 0.6),
                m1=("stable", 1.0, 0.5), m2=("stable", 0.5, 1.0)),
}
PREDICT_MODELS["matern"]["rho"] = 0.8 * refs.matern_parsimonious_bound(0.5, 1.0, 2)


class Predict:
    """simulate, cokrige and leave-one-out at 1,600 observations, four models."""

    def __init__(self, bc, seed, reduced=False):
        self.bc = bc
        rng = np.random.default_rng(seed)
        n_sites = 100 if reduced else 800
        self.locs, self.comps = _colocated(rng, n_sites, 40.0)
        n_targets = 20 if reduced else 300
        # the first five targets are observed component-1 sites
        self.targets = np.vstack([self.locs[0:10:2], rng.uniform(0.0, 40.0, (n_targets, 2))])
        self.sim_seed = int(rng.integers(0, 2 ** 31))
        self.models = {name: to_bicov(bc, spec) for name, spec in PREDICT_MODELS.items()}
        self.samples = {}

    def warm_up(self):
        bc = self.bc
        bc.simulate(self.models["stable"], self.locs[:40], self.comps[:40], seed=0)

    def ops(self):
        bc = self.bc
        out = []
        for name, model in self.models.items():
            def sim(name=name, model=model):
                self.samples[name] = s = bc.simulate(model, self.locs, self.comps,
                                                     seed=self.sim_seed, mean1=1.0, mean2=2.0)
                return s

            out += [(f"predict.simulate.{name}", sim, None),
                    (f"predict.krige.{name}", lambda name=name, model=model: bc.cokrige(
                        model, self.samples[name], self.targets, 1, mean1=1.0, mean2=2.0), None),
                    (f"predict.loo.{name}", lambda name=name, model=model: bc.loo_rmse(
                        model, self.samples[name]), None)]
        return out

    def check(self, res):
        problems = {}
        for name, spec in PREDICT_MODELS.items():
            sample = res[f"predict.simulate.{name}"]
            if isinstance(sample, BaseException):
                continue
            z = sample.values
            own = refs.Factored(spec, self.locs, self.comps)
            eps = own.whiten(z, sample.info["jitter"], 1.0, 2.0)
            normals = np.random.Generator(np.random.Philox(self.sim_seed)).standard_normal(
                (1, len(z)))[0]
            err = float(np.max(np.abs(eps - normals)))
            _add(problems, f"predict.simulate.{name}",
                 [f"whitened values differ from the Philox normals by {err:g}" if err > 1e-6 else ""])
            kr = res[f"predict.krige.{name}"]
            if not isinstance(kr, BaseException):
                _add(problems, f"predict.krige.{name}", [self._krige_problem(own, z, *kr)])
            loo = res[f"predict.loo.{name}"]
            if not isinstance(loo, BaseException):
                _add(problems, f"predict.loo.{name}", [self._loo_problem(own, z, loo)])
        return problems

    def _krige_problem(self, own, z, pred, var):
        own_pred, own_var = own.cokrige(z, self.targets, 1, 1.0, 2.0)
        sill = refs.sill(own.model, 1)
        p = []
        dp = float(np.max(np.abs(pred - own_pred)))
        dv = float(np.max(np.abs(var - own_var)))
        if dp > 1e-6 * math.sqrt(sill) or dv > 1e-6 * sill:
            p.append(f"differs from the dense solve: prediction {dp:g}, variance {dv:g}")
        obs = z[0:10:2]
        if (float(np.max(np.abs(pred[:5] - obs))) > 1e-6 * math.sqrt(sill)
                or float(np.max(np.abs(var[:5]))) > 1e-6 * sill):
            p.append("observed sites are not reproduced with zero variance")
        if float(np.min(var)) < -1e-8 * sill or float(np.max(var)) > sill * (1.0 + 1e-12):
            p.append(f"variance outside [0, sill]: {float(np.min(var)):g}..{float(np.max(var)):g}")
        return "; ".join(p)

    def _loo_problem(self, own, z, rmse):
        resid, centered = own.loo_residuals(z)
        rms = float(np.sqrt(np.mean(resid ** 2)))
        p = []
        if _rel(rmse, rms) > 1e-8:
            p.append(f"loo rmse {rmse!r}, recomputed {rms!r}")
        for i in np.linspace(0, len(z) - 1, 3).astype(int):
            direct = own.deleted_residual(centered, i)
            if abs(direct - resid[i]) > 1e-6 * max(1.0, abs(direct)):
                p.append(f"deleted residual {i}: {resid[i]!r} vs explicit {direct!r}")
        return "; ".join(p)

    def detail(self, times):
        return {f"predict_{step}_s": (_median_sum(times, f"predict.{step}."), "s")
                for step in ("simulate", "krige", "loo")}


# ---------------------------------------------------------------------------
# cli

_CLI_STEPS = ("import", "validate", "curve", "spectral", "simulate", "krige")


def _kv(text):
    return dict(line.split("=", 1) for line in text.splitlines() if "=" in line)


class Cli:
    """The README commands, each in a fresh interpreter.

    With ``in_process`` (the traced run) the subcommands go through
    ``bicov.cli.main`` in this process instead, and the import is measured
    by ``python -X importtime`` in a fresh interpreter.
    """

    def __init__(self, bc, seed, reduced=False, workdir=".", env=None, in_process=False):
        self.bc = bc
        self.env = env
        self.in_process = in_process
        rng = np.random.default_rng(seed)
        self.dir = workdir
        self.spec = {**README_MODEL, "rho": float(rng.uniform(0.05, 0.35))}
        self.grid = "4x4:10.0" if reduced else "16x16:10.0"
        self.sim_seed = int(rng.integers(0, 2 ** 31))
        self.targets = rng.uniform(0.0, 10.0, size=(10 if reduced else 50, 2))
        self.import_s = self.import_scipy_stats_s = 0.0
        os.makedirs(workdir, exist_ok=True)
        with open(self.path("model.txt"), "w", encoding="utf-8") as fh:
            fh.write(bc.model_to_text(to_bicov(bc, self.spec)))
        with open(self.path("targets.csv"), "w", encoding="utf-8") as fh:
            fh.write("x,y\n" + "".join(f"{float(x)!r},{float(y)!r}\n" for x, y in self.targets))

    def path(self, name):
        return os.path.join(self.dir, name)

    def argv(self, step):
        m = self.path("model.txt")
        return {
            "validate": ["validate", m, "--dim", "3"],
            "curve": ["curve", m, "--sweep", "alpha12=0.3:1.1:6", "--out", self.path("bounds.csv")],
            "spectral": ["spectral", m, "--dim", "1", "--umax", "5", "--out", self.path("dens.csv")],
            "simulate": ["simulate", m, "--grid", self.grid, "--seed", str(self.sim_seed),
                         "--out", self.path("sim.csv")],
            "krige": ["krige", m, self.path("sim.csv"), self.path("targets.csv"),
                      "--component", "1", "--out", self.path("pred.csv")],
        }[step]

    def warm_up(self):
        pass

    def _run_fresh(self, args):
        proc = subprocess.run([sys.executable, *args], env=self.env, capture_output=True,
                              text=True, timeout=170)
        return proc.returncode, proc.stdout

    def _import_traced(self):
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import bicov"],
                              env=self.env, capture_output=True, text=True, timeout=170)
        cum = {}
        for line in proc.stderr.splitlines():
            m = re.match(r"import time:\s*\d+\s*\|\s*(\d+)\s*\|\s*(\S.*)$", line)
            if m:
                cum[m.group(2).strip()] = int(m.group(1)) / 1e6
        self.import_s = cum.get("bicov", 0.0)
        self.import_scipy_stats_s = cum.get("scipy.stats", 0.0)
        return proc.returncode, ""

    def _main(self, argv):
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = self.bc.cli.main(argv)
        return code, out.getvalue()

    def ops(self):
        out = [("cli.import", self._import_traced if self.in_process
                else lambda: self._run_fresh(["-c", "import bicov"]), None)]
        for step in _CLI_STEPS[1:]:
            argv = self.argv(step)
            run = (lambda a=argv: self._main(a)) if self.in_process else (
                lambda a=argv: self._run_fresh(["-m", "bicov.cli", *a]))
            out.append((f"cli.{step}", run, None))
        return out

    def check(self, res):
        problems = {}
        for label, r in res.items():
            if isinstance(r, BaseException):
                continue
            code, stdout = r
            step = label.split(".", 1)[1]
            p = getattr(self, f"_check_{step}", lambda c, s: "" if c == 0 else f"exit {c}")(code, stdout)
            _add(problems, label, [p])
        return problems

    def _check_validate(self, code, stdout):
        kv = _kv(stdout)
        try:
            bound = float(kv["rho_bound"])
            raw = float(kv["rho_bound_raw"])
            loc = kv["infimum_location"]
        except (KeyError, ValueError):
            return f"unparsable output (exit {code}): {stdout!r}"
        loc = loc if loc in ("AtZero", "AtInfinity") else float(loc)
        p = [refs.bound_soundness(self.spec, 3, raw, loc)]
        want = 0 if (kv.get("decidability") == "SufficientBound"
                     and abs(self.spec["rho"]) <= bound) else 1
        if code != want:
            p.append(f"exit {code}, expected {want}")
        return "; ".join(x for x in p if x)

    def _check_curve(self, code, stdout):
        if code != 0:
            return f"exit {code}"
        rows = _csv_rows(self.path("bounds.csv"))
        if len(rows) != 6:
            return f"{len(rows)} rows, expected 6"
        p = []
        for a12, bound, tag in rows:
            spec = {**self.spec, "m12": ("stable", float(a12), self.spec["m12"][2])}
            if tag == "SufficientBound":
                p.append(refs.bound_soundness(spec, 3, float(bound), None))
            elif float(bound) != 0.0:
                p.append(f"{tag} with bound {bound}")
        return "; ".join(x for x in p if x)

    def _check_spectral(self, code, stdout):
        if code != 0:
            return f"exit {code}"
        rows = _csv_rows(self.path("dens.csv"))
        if len(rows) != 101:
            return f"{len(rows)} rows, expected 101"
        f11 = float(rows[0][1])
        want = refs.density_at_zero(self.spec["m11"], 1)
        return "" if _rel(f11, want) <= 1e-6 else f"f11(0) {f11!r}, closed form {want!r}"

    def _grid_sample(self):
        nx, ny = (int(v) for v in self.grid.split(":")[0].split("x"))
        extent = float(self.grid.split(":")[1])
        gx, gy = np.meshgrid(np.linspace(0, extent, nx), np.linspace(0, extent, ny), indexing="ij")
        pts = np.column_stack([gx.ravel(), gy.ravel()])
        return np.repeat(pts, 2, axis=0), np.tile([1, 2], len(pts))

    def _check_simulate(self, code, stdout):
        if code != 0:
            return f"exit {code}"
        rows = _csv_rows(self.path("sim.csv"))
        locs, comps = self._grid_sample()
        if len(rows) != len(comps):
            return f"{len(rows)} rows, expected {len(comps)}"
        data = np.array(rows, dtype=float)
        m = re.search(r"jitter ([^)]+)\)", stdout)
        jitter = float(m.group(1)) if m else 0.0
        own = refs.Factored(self.spec, data[:, :2], data[:, 2].astype(int))
        eps = own.whiten(data[:, 3], jitter, 0.0, 0.0)
        normals = np.random.Generator(np.random.Philox(self.sim_seed)).standard_normal(
            (1, len(rows)))[0]
        err = float(np.max(np.abs(eps - normals)))
        return "" if err <= 1e-6 else f"whitened values differ from the Philox normals by {err:g}"

    def _check_krige(self, code, stdout):
        if code != 0:
            return f"exit {code}"
        rows = np.array(_csv_rows(self.path("pred.csv")), dtype=float)
        if len(rows) != len(self.targets):
            return f"{len(rows)} rows, expected {len(self.targets)}"
        data = np.array(_csv_rows(self.path("sim.csv")), dtype=float)
        locs, comps, z = data[:, :2], data[:, 2].astype(int), data[:, 3]
        own = refs.Factored(self.spec, locs, comps)
        mu = own.means(z)
        pred, var = own.cokrige(z, self.targets, 1, mu[0], mu[1])
        dp = float(np.max(np.abs(rows[:, 2] - pred)))
        dv = float(np.max(np.abs(rows[:, 3] - var)))
        if dp > 1e-6 or dv > 1e-6:
            return f"differs from the dense solve: prediction {dp:g}, variance {dv:g}"
        return ""

    def detail(self, times):
        return {f"cli_{step}_s": (statistics.median(times[f"cli.{step}"]), "s")
                for step in _CLI_STEPS}


def _csv_rows(path):
    with open(path, encoding="utf-8") as fh:
        return [line.strip().split(",") for line in fh.read().splitlines()[1:] if line.strip()]


WORKLOADS = {"certify": Certify, "fit": Fit, "predict": Predict, "cli": Cli}
