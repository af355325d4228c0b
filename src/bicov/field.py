"""Applied layer: Gram assembly, simulation, likelihood fitting, cokriging.

The block Gram matrix over an observation set is the brute-force positive
definiteness oracle for everything upstream: a model certified by the
validity module must produce a numerically nonnegative spectrum here.
Simulation is plain Cholesky with an escalating jitter ladder and a
counter-based generator so runs are reproducible bit for bit.  Fitting is
exact Gaussian maximum likelihood with per-component constant means profiled
out in closed form and the remaining parameters optimized by multi-start
Nelder-Mead in a transformed space where every iterate is a valid model:
the colocated correlation is parameterized as tanh(u) times the certified
bound for the current structural parameters, so the optimizer simply cannot
leave the valid region.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np
from scipy.linalg import LinAlgError, cho_factor, cho_solve
from scipy.optimize import minimize
from scipy.special import gammaln

from .bimodels import (LmcBivariate, _entry, cauchy_bivariate, matern_bivariate,
                       stable_bivariate)
from .corrfn import stable
from .validity import max_rho_cauchy, max_rho_stable

__all__ = [
    "FieldSample",
    "PdCheck",
    "FitResult",
    "gram",
    "check_pd",
    "simulate",
    "nll",
    "fit_ml",
    "cokrige",
    "loo_rmse",
    "aic",
]


@dataclass(frozen=True)
class FieldSample:
    """Observation (or simulation) rows: location, component index, value."""
    locations: np.ndarray            # (N, d) coordinates, d in {1, 2, 3}
    components: np.ndarray           # (N,) indices in {1, 2}
    values: np.ndarray | None = None
    seed: int | None = None
    info: dict = field(default_factory=dict)

    def __post_init__(self):
        loc = np.atleast_2d(np.asarray(self.locations, dtype=float))
        comp = np.asarray(self.components, dtype=int)
        if loc.ndim != 2 or loc.shape[1] not in (1, 2, 3):
            raise ValueError("locations must be (N, d) with d in {1, 2, 3}")
        if comp.shape != (loc.shape[0],):
            raise ValueError("components must be one index per location row")
        if not np.all((comp == 1) | (comp == 2)):
            raise ValueError("component indices must be 1 or 2")
        if not np.all(np.isfinite(loc)):
            raise ValueError("locations must be finite")
        object.__setattr__(self, "locations", loc)
        object.__setattr__(self, "components", comp)
        if self.values is not None:
            vals = np.asarray(self.values, dtype=float)
            if vals.shape[-1] != loc.shape[0]:
                raise ValueError("values must align with location rows")
            object.__setattr__(self, "values", vals)


@dataclass(frozen=True)
class PdCheck:
    passed: bool
    min_eigenvalue: float
    threshold: float


@dataclass(frozen=True)
class FitResult:
    model: object                    # BivariateModel or LmcBivariate
    kind: str
    nugget1: float
    nugget2: float
    mean1: float
    mean2: float
    nll: float
    n_params: int
    aic: float
    converged: bool
    n_iter: int


# ---------------------------------------------------------------------------
# Gram assembly.

def gram(model, sample: FieldSample, nugget1: float = 0.0,
         nugget2: float = 0.0) -> np.ndarray:
    """Block covariance matrix in the sample's row order.

    Every cell is gathered from one table of evaluated entries, and cells
    (i, j) and (j, i) read the same slot, so the result is bitwise symmetric.
    When both components are observed at the same sites in the same order,
    the cross cells of sites (p, q) and (q, p) share a slot too: their
    distances are equal bit for bit.  Nuggets add to the matching diagonal
    entries only.
    """
    return _GramCache(sample).build(model, nugget1, nugget2)


def _block_distances(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Distances between the rows of a and b, bit-equal to
    ``np.linalg.norm(a[i] - b[j])`` (squares summed in coordinate order)."""
    sq = 0.0
    for k in range(a.shape[1]):
        diff = a[:, None, k] - b[None, :, k]
        sq = sq + diff * diff
    return np.sqrt(sq)


class _GramCache:
    """A sample's block distances and ``idx``, the slot of every Gram cell in
    the table [11 entries, 12 entries, 22 entries, var1 + nugget1,
    var2 + nugget2], so repeated builds only re-evaluate families.  A block
    whose two location lists are equal keeps one slot per unordered pair."""

    def __init__(self, sample: FieldSample):
        self.comp = sample.components
        rows = {c: np.flatnonzero(self.comp == c) for c in (1, 2)}
        pts = {c: sample.locations[r] for c, r in rows.items()}
        self.idx = np.empty((self.comp.size,) * 2, dtype=np.intp)
        self.dist, start = {}, 0
        for pair in ("11", "12", "22"):
            i, j = int(pair[0]), int(pair[1])
            full = _block_distances(pts[i], pts[j])
            if np.array_equal(pts[i], pts[j]):
                # the self-pairs of 11 and 22 are the diagonal: variance slots
                upper = np.triu(np.ones(full.shape, dtype=bool), k=int(i == j))
                slots = np.zeros(full.shape, dtype=np.intp)
                slots[upper] = slots.T[upper] = start + np.arange(np.count_nonzero(upper))
                # symmetric: the mirrored block is written from slots itself, contiguously
                self.dist[pair], mirror = full[upper], slots
            else:
                slots = start + np.arange(full.size).reshape(full.shape)
                self.dist[pair], mirror = full.ravel(), slots.T
            start += self.dist[pair].size
            self.idx[np.ix_(rows[i], rows[j])] = slots
            if i != j:
                self.idx[np.ix_(rows[j], rows[i])] = mirror
        for c in (1, 2):
            self.idx[rows[c], rows[c]] = start + c - 1

    def build(self, model, nugget1: float, nugget2: float) -> np.ndarray:
        vals = [_entry(model, pair, d) for pair, d in self.dist.items() if d.size]
        var1 = float(_entry(model, "11", np.zeros(1))[0])
        var2 = float(_entry(model, "22", np.zeros(1))[0])
        table = np.concatenate(vals + [np.array([var1 + nugget1, var2 + nugget2])])
        return table[self.idx]


def check_pd(matrix: np.ndarray, tol_rel: float = 1e-8) -> PdCheck:
    """Eigenvalue test: pass when min eig >= -tol_rel * largest diagonal."""
    m = np.asarray(matrix, dtype=float)
    if not np.array_equal(m, m.T):
        raise ValueError("matrix must be exactly symmetric")
    w = np.linalg.eigvalsh(m)
    threshold = -tol_rel * float(np.max(np.diag(m)))
    return PdCheck(bool(w[0] >= threshold), float(w[0]), threshold)


# ---------------------------------------------------------------------------
# Simulation.

_JITTER_LADDER = (0.0, 1e-12, 1e-11, 1e-10, 1e-9, 1e-8, 1e-7, 1e-6)


def _chol_with_jitter(m: np.ndarray) -> tuple[np.ndarray, float]:
    scale = float(np.max(np.diag(m)))
    for j in _JITTER_LADDER:
        try:
            return np.linalg.cholesky(m + j * scale * np.eye(m.shape[0])), j * scale
        except np.linalg.LinAlgError:
            continue
    raise np.linalg.LinAlgError(
        "covariance matrix is not positive definite even with maximal jitter")


def simulate(model, locations, components, seed: int, n_draws: int = 1,
             mean1: float = 0.0, mean2: float = 0.0,
             nugget1: float = 0.0, nugget2: float = 0.0) -> FieldSample:
    """Draw a Gaussian field sample by Cholesky factorization.

    Deterministic for a given seed (counter-based generator).  The jitter
    actually applied is recorded under ``info["jitter"]``.  With
    ``n_draws > 1`` the values array has one row per draw.
    """
    base = FieldSample(locations=locations, components=components)
    m = gram(model, base, nugget1, nugget2)
    chol, jitter = _chol_with_jitter(m)
    rng = np.random.Generator(np.random.Philox(seed))
    eps = rng.standard_normal((n_draws, m.shape[0]))
    means = np.where(base.components == 1, mean1, mean2)
    values = eps @ chol.T + means
    if n_draws == 1:
        values = values[0]
    return FieldSample(locations=base.locations, components=base.components,
                       values=values, seed=seed, info={"jitter": jitter})


# ---------------------------------------------------------------------------
# Exact Gaussian likelihood with profiled per-component means.

def _nll_core(m: np.ndarray, comp: np.ndarray, z: np.ndarray):
    """NLL, profiled means (mean1, mean2) and the Cholesky factor of m."""
    factor = cho_factor(m, lower=True)
    cols = [c for c in (1, 2) if np.any(comp == c)]
    design = np.column_stack([(comp == c).astype(float) for c in cols])
    solved_design = cho_solve(factor, design)
    mu_fit = np.linalg.solve(design.T @ solved_design, solved_design.T @ z)
    means = {c: float(v) for c, v in zip(cols, mu_fit)}
    mu1, mu2 = means.get(1, 0.0), means.get(2, 0.0)
    resid = z - design @ mu_fit
    quad_form = float(resid @ cho_solve(factor, resid))
    logdet = 2.0 * float(np.sum(np.log(np.diag(factor[0]))))
    value = 0.5 * (len(z) * math.log(2.0 * math.pi) + logdet + quad_form)
    return value, mu1, mu2, factor


def nll(model, data: FieldSample, nugget1: float = 0.0,
        nugget2: float = 0.0) -> tuple[float, float, float]:
    """Negative log-likelihood and the profiled means (mean1, mean2)."""
    if data.values is None:
        raise ValueError("data sample carries no values")
    m = gram(model, data, nugget1, nugget2)
    return _nll_core(m, data.components, np.asarray(data.values, dtype=float))[:3]


# ---------------------------------------------------------------------------
# Maximum likelihood fitting.

def _clip_rho(want: float, bound: float) -> tuple[float, float]:
    cap = bound * (1.0 - 1e-12)
    if abs(want) <= cap:
        return want, 0.0
    return math.copysign(cap, want), abs(want) - cap


def _box(theta: float, lo: float, hi: float) -> float:
    return lo + (hi - lo) / (1.0 + math.exp(-theta))


def _box_inv(x: float, lo: float, hi: float) -> float:
    frac = min(max((x - lo) / (hi - lo), 1e-12), 1.0 - 1e-12)
    return math.log(frac / (1.0 - frac))


def _parsimonious_matern_rho_bound(nu1: float, nu2: float, d: int) -> float:
    """Exact |rho| limit for common-scale members with nu12 = (nu1 + nu2)/2.

    With a shared scale the spectral ratio f12^2 / (f11 f22) is frequency
    free, so the bound is sharp: a gamma-function expression in nu1, nu2, d.
    """
    half = 0.5 * d
    mean_nu = 0.5 * (nu1 + nu2)
    log_b = (0.5 * (gammaln(nu1 + half) + gammaln(nu2 + half)
                    - gammaln(nu1) - gammaln(nu2))
             + gammaln(mean_nu) - gammaln(mean_nu + half))
    return math.exp(log_b)


class _ParamSpec:
    """Per-kind transformed parameter space with latin hypercube start boxes.

    theta is unconstrained; decode() maps it to a model whose every iterate
    is valid (structural boxes via logistic transforms, |rho| inside the
    certified bound via tanh scaling).
    """

    def __init__(self, kind: str, data: FieldSample, n_valid: int,
                 fit_nugget: bool, nugget1: float, nugget2: float):
        self.kind = kind
        self.n_valid = n_valid
        self.fit_nugget = fit_nugget
        self.nugget1, self.nugget2 = nugget1, nugget2
        self.d_space = data.locations.shape[1]

        z = np.asarray(data.values, dtype=float)
        v1 = float(np.var(z[data.components == 1])) or 1.0
        v2 = float(np.var(z[data.components == 2])) or 1.0
        self.emp_var = (v1, v2)
        rng = np.random.default_rng(0)
        n_obs = data.locations.shape[0]
        ii = rng.integers(0, n_obs, size=min(4000, n_obs * n_obs))
        jj = rng.integers(0, n_obs, size=ii.size)
        keep = ii != jj
        pair_dists = np.linalg.norm(
            data.locations[ii[keep]] - data.locations[jj[keep]], axis=1)
        # center the inverse-range starts on a near-neighbor quantile: the
        # median pairwise distance sits far outside the correlated zone
        d_near = float(np.quantile(pair_dists, 0.2))
        s_mid = 1.0 / max(d_near, 1e-12)

        # (start-box lo, start-box hi) per theta coordinate, in theta space
        lv1, lv2 = math.log(v1), math.log(v2)
        ls = math.log(s_mid)
        box = [(lv1 - 1.2, lv1 + 1.2), (lv2 - 1.2, lv2 + 1.2), (-0.7, 0.7)]
        if kind in ("stable", "cauchy"):
            box += [(_box_inv(0.35, 1e-3, 1.0), _box_inv(0.95, 1e-3, 1.0)),
                    (_box_inv(0.35, 1e-3, 1.0), _box_inv(0.95, 1e-3, 1.0)),
                    (_box_inv(0.5, 1e-3, 2.0), _box_inv(1.2, 1e-3, 2.0))]
            if kind == "cauchy":
                lb = (_box_inv(math.log(0.3), math.log(0.01), math.log(50.0)),
                      _box_inv(math.log(5.0), math.log(0.01), math.log(50.0)))
                box += [lb, lb, lb]
            box += [(ls - 2.0, ls + 2.0)] * 3
        elif kind == "matern":
            lo = _box_inv(math.log(0.3), math.log(0.05), math.log(10.0))
            hi = _box_inv(math.log(2.5), math.log(0.05), math.log(10.0))
            box += [(lo, hi), (lo, hi), (ls - 2.0, ls + 2.0)]
        elif kind == "lmc":
            a1 = 0.5 * math.log(0.5 * v1)
            a2 = 0.5 * math.log(0.5 * v2)
            sd12 = 0.6 * math.sqrt(v2)
            box = [(a1 - 1.0, a1 + 1.0), (-sd12, sd12), (a2 - 1.0, a2 + 1.0),
                   (a1 - 1.0, a1 + 1.0), (-sd12, sd12), (a2 - 1.0, a2 + 1.0),
                   (ls - 2.2, ls + 0.6), (ls - 0.6, ls + 2.2)]
        else:
            raise ValueError(f"unknown model kind {kind!r}")
        if fit_nugget:
            box += [(math.log(v1) - 9.0, math.log(v1) - 1.6),
                    (math.log(v2) - 9.0, math.log(v2) - 1.6)]
        self.start_box = np.array(box)
        self.dim = len(box)

    def starts(self, n_starts: int, seed: int) -> np.ndarray:
        from scipy.stats import qmc   # imported here: scipy.stats takes ~0.6 s to load
        unit = qmc.LatinHypercube(d=self.dim, seed=seed).random(n_starts)
        lo, hi = self.start_box[:, 0], self.start_box[:, 1]
        return lo + unit * (hi - lo)

    def decode(self, theta: np.ndarray, coarse: bool = True):
        """theta -> (model, nugget1, nugget2, rho_excess).

        Every output model is valid by construction: tanh(theta) proposes a
        correlation, and any part beyond the certified bound for the current
        structural parameters is clipped off.  The clipped excess is returned
        so the objective can penalize it, keeping that direction informative
        even where the bound is zero.
        """
        th = np.asarray(theta, dtype=float)
        if self.fit_nugget:
            nug1, nug2 = math.exp(th[-2]), math.exp(th[-1])
            th = th[:-2]
        else:
            nug1, nug2 = self.nugget1, self.nugget2
        grid = 512 if coarse else 4096
        if self.kind == "lmc":
            l1 = (math.exp(th[0]), th[1], math.exp(th[2]))
            l2 = (math.exp(th[3]), th[4], math.exp(th[5]))
            b1 = (l1[0] ** 2, l1[0] * l1[1], l1[1] ** 2 + l1[2] ** 2)
            b2 = (l2[0] ** 2, l2[0] * l2[1], l2[1] ** 2 + l2[2] ** 2)
            model = LmcBivariate(b1=b1, b2=b2,
                                 psi1=stable(1.0, math.exp(th[6])),
                                 psi2=stable(1.0, math.exp(th[7])))
            return model, nug1, nug2, 0.0

        sig1, sig2 = math.exp(0.5 * th[0]), math.exp(0.5 * th[1])
        want = math.tanh(th[2])
        if self.kind == "matern":
            nu1 = math.exp(_box(th[3], math.log(0.05), math.log(10.0)))
            nu2 = math.exp(_box(th[4], math.log(0.05), math.log(10.0)))
            s = math.exp(th[5])
            bound = _parsimonious_matern_rho_bound(nu1, nu2, self.d_space)
            rho, excess = _clip_rho(want, bound)
            model = matern_bivariate(sig1, sig2, rho, nu1,
                                     0.5 * (nu1 + nu2), nu2, s, s, s)
            return model, nug1, nug2, excess

        a11 = _box(th[3], 1e-3, 1.0)
        a22 = _box(th[4], 1e-3, 1.0)
        a12 = _box(th[5], 1e-3, 2.0)
        if self.kind == "stable":
            make, bound_fn, betas = stable_bivariate, max_rho_stable, ()
        else:
            lb_lo, lb_hi = math.log(0.01), math.log(50.0)
            b11, b22, b12 = (math.exp(_box(v, lb_lo, lb_hi)) for v in th[6:9])
            make, bound_fn, betas = cauchy_bivariate, max_rho_cauchy, (b11, b12, b22)
        s11, s22, s12 = (math.exp(v) for v in th[6 + len(betas):9 + len(betas)])
        probe = make(1.0, 1.0, 0.0, a11, a12, a22, *betas, s11, s12, s22)
        report = bound_fn(probe, self.n_valid, grid_points=grid,
                          refine_brackets=0 if coarse else 8)
        rho, excess = _clip_rho(want, report.rho_bound)
        model = make(sig1, sig2, rho, a11, a12, a22, *betas, s11, s12, s22)
        return model, nug1, nug2, excess

    def exact_rho_clip(self, model):
        """Re-certify rho with the fine engine and clip into the exact bound."""
        if self.kind not in ("stable", "cauchy"):
            return model
        bound_fn = max_rho_stable if self.kind == "stable" else max_rho_cauchy
        bound = bound_fn(replace(model, rho=0.0), self.n_valid).rho_bound
        if abs(model.rho) > bound:
            return replace(model, rho=math.copysign(bound, model.rho))
        return model


_KIND_ALIASES = {
    "stable": "stable", "stablebivariate": "stable",
    "cauchy": "cauchy", "cauchybivariate": "cauchy",
    "matern": "matern", "maternbivariate": "matern",
    "lmc": "lmc",
}


def fit_ml(data: FieldSample, model_kind: str, n_starts: int = 8, seed: int = 0,
           max_evals: int | None = None, fit_nugget: bool = False,
           nugget1: float = 0.0, nugget2: float = 0.0) -> FitResult:
    """Multi-start Nelder-Mead maximum likelihood over a valid-by-design space.

    Means are profiled out exactly at every objective evaluation.  A singular
    Gram matrix is retried with a nugget floor of 1e-8 times the empirical
    component variance; persistent failure is penalized, and non-convergence
    returns the best iterate with the flag down.
    """
    if data.values is None:
        raise ValueError("data sample carries no values")
    kind = _KIND_ALIASES.get(model_kind.lower().replace("_", ""))
    if kind is None:
        raise ValueError(f"unknown model kind {model_kind!r}")
    for c in (1, 2):
        mask = data.components == c
        if int(np.sum(mask)) < 10:
            raise ValueError(f"need at least 10 observations of component {c}")
        if float(np.var(np.asarray(data.values, dtype=float)[mask])) == 0.0:
            raise ValueError(f"degenerate input: component {c} values are constant")

    n_valid = 1 if data.locations.shape[1] == 1 else 3
    spec = _ParamSpec(kind, data, n_valid, fit_nugget, nugget1, nugget2)
    cache = _GramCache(data)
    z = np.asarray(data.values, dtype=float)
    floor1 = 1e-8 * spec.emp_var[0]
    floor2 = 1e-8 * spec.emp_var[1]
    floor_used = {"hit": False}

    def objective(theta: np.ndarray) -> float:
        try:
            model, nug1, nug2, excess = spec.decode(theta)
        except (ValueError, OverflowError):
            return 1e13
        try:
            value = _nll_core(cache.build(model, nug1, nug2), cache.comp, z)[0]
        except (LinAlgError, np.linalg.LinAlgError):
            try:
                value = _nll_core(cache.build(model, nug1 + floor1, nug2 + floor2),
                                  cache.comp, z)[0]
                floor_used["hit"] = True
            except (LinAlgError, np.linalg.LinAlgError):
                return 1e12
        if not math.isfinite(value):
            return 1e12
        # correlation clipped at the validity bound: steer back inside
        return value + 1e3 * excess ** 2

    budget = max_evals if max_evals is not None else 400 * spec.dim
    best = None
    total_evals = 0
    for theta0 in spec.starts(n_starts, seed):
        res = minimize(objective, theta0, method="Nelder-Mead",
                       options=dict(adaptive=True, maxfev=budget,
                                    xatol=1e-4, fatol=1e-7))
        total_evals += res.nfev
        if best is None or res.fun < best.fun:
            best = res
    # polish: restart from the winner with a fresh simplex and tighter stop
    res = minimize(objective, best.x, method="Nelder-Mead",
                   options=dict(adaptive=True, maxfev=max(budget // 2, 150 * spec.dim),
                                xatol=1e-6, fatol=1e-9))
    total_evals += res.nfev
    if res.fun < best.fun:
        best = res

    model, nug1, nug2, _ = spec.decode(best.x, coarse=False)
    model = spec.exact_rho_clip(model)
    if floor_used["hit"]:
        nug1, nug2 = nug1 + floor1, nug2 + floor2
    try:
        value, mu1, mu2, _ = _nll_core(cache.build(model, nug1, nug2), cache.comp, z)
    except (LinAlgError, np.linalg.LinAlgError):
        nug1, nug2 = nug1 + floor1, nug2 + floor2
        value, mu1, mu2, _ = _nll_core(cache.build(model, nug1, nug2), cache.comp, z)
    n_params = spec.dim + 2
    return FitResult(model=model, kind=kind, nugget1=nug1, nugget2=nug2,
                     mean1=mu1, mean2=mu2, nll=value, n_params=n_params,
                     aic=2.0 * n_params + 2.0 * value,
                     converged=bool(best.success), n_iter=total_evals)


def aic(result: FitResult) -> float:
    """Akaike information criterion of a fit (2k + 2 NLL, means included)."""
    return 2.0 * result.n_params + 2.0 * result.nll


# ---------------------------------------------------------------------------
# Simple cokriging and leave-one-out residuals.

def _unpack_fitted(model_or_fit, nugget1, nugget2, mean1, mean2):
    if isinstance(model_or_fit, FitResult):
        fit = model_or_fit
        return (fit.model,
                fit.nugget1 if nugget1 is None else nugget1,
                fit.nugget2 if nugget2 is None else nugget2,
                fit.mean1 if mean1 is None else mean1,
                fit.mean2 if mean2 is None else mean2)
    return (model_or_fit, nugget1 or 0.0, nugget2 or 0.0,
            mean1 or 0.0, mean2 or 0.0)


def cokrige(model_or_fit, data: FieldSample, targets, target_component: int,
            nugget1: float | None = None, nugget2: float | None = None,
            mean1: float | None = None, mean2: float | None = None):
    """Simple cokriging predictions and variances at target locations.

    Weights solve the block Gram system once per call; the prediction is
    mean + w^T (data - means) and the variance C(0) - w^T c0 refers to the
    nugget-free field, so an observed location with zero nugget reproduces
    its observation with zero variance.
    """
    model, nug1, nug2, mu1, mu2 = _unpack_fitted(
        model_or_fit, nugget1, nugget2, mean1, mean2)
    return _cokrige(model, data, targets, target_component, nug1, nug2, (mu1, mu2))


def _cokrige(model, data: FieldSample, targets, target_component: int,
             nugget1: float, nugget2: float, means=None):
    """:func:`cokrige` for a bare model; ``means=None`` takes the profiled
    GLS means of the data from the same Gram factor as the weights."""
    if data.values is None:
        raise ValueError("data sample carries no values")
    if target_component not in (1, 2):
        raise ValueError("target component must be 1 or 2")
    pts = np.atleast_2d(np.asarray(targets, dtype=float))
    if pts.shape[1] != data.locations.shape[1]:
        raise ValueError("targets must match the data coordinate dimension")

    z = np.asarray(data.values, dtype=float)
    comp = data.components
    m = gram(model, data, nugget1, nugget2)
    if means is None:
        _, mu1, mu2, factor = _nll_core(m, comp, z)
    else:
        (mu1, mu2), factor = means, cho_factor(m, lower=True)
    dist = _block_distances(pts, data.locations)
    cross = np.empty_like(dist)
    for c in (1, 2):
        cols = comp == c
        if np.any(cols):
            pair = "".join(sorted(f"{target_component}{c}"))
            cross[:, cols] = _entry(model, pair, dist[:, cols])
    weights = cho_solve(factor, cross.T)
    means_z = np.where(comp == 1, mu1, mu2)
    target_mean = mu1 if target_component == 1 else mu2
    pred = target_mean + (z - means_z) @ weights
    sill = float(_entry(model, f"{target_component}{target_component}",
                        np.zeros(1))[0])
    var = sill - np.einsum("ij,ji->i", cross, weights)
    return pred, var


def loo_rmse(model_or_fit, data: FieldSample,
             nugget1: float | None = None, nugget2: float | None = None) -> float:
    """Leave-one-out RMSE via the precision-matrix shortcut.

    For a Gaussian vector the deleted residual at i is (P (z - mu))_i / P_ii
    with P the precision matrix, so no refitting or resolving per point is
    needed.  Means are the profiled GLS estimates of the full data.
    """
    model, nug1, nug2, _, _ = _unpack_fitted(model_or_fit, nugget1, nugget2,
                                             None, None)
    if data.values is None:
        raise ValueError("data sample carries no values")
    z = np.asarray(data.values, dtype=float)
    m = gram(model, data, nug1, nug2)
    _, mu1, mu2, factor = _nll_core(m, data.components, z)
    precision = cho_solve(factor, np.eye(m.shape[0]))
    centered = z - np.where(data.components == 1, mu1, mu2)
    resid = (precision @ centered) / np.diag(precision)
    return float(np.sqrt(np.mean(resid ** 2)))
