"""Reference computations the benchmark checks bicov against.

Nothing here imports bicov.  Models are plain dicts, members are tuples:

    ("stable", alpha, scale)         psi(r) = exp(-(scale r)^alpha)
    ("cauchy", alpha, beta, scale)   psi(r) = (1 + (scale r)^alpha)^(-beta/alpha)
    ("matern", nu, scale)            psi(r) = 2^(1-nu)/Gamma(nu) x^nu K_nu(x), x = scale r

    {"kind": "member", "sigma1", "sigma2", "rho", "m11", "m12", "m22"}
    {"kind": "lmc", "b1": (b11, b12, b22), "b2": (...), "m1", "m2"}

The second-order forms behind the rho bound are rebuilt here from the chain
rule on t = (s r)^alpha, as polynomials in t times an envelope, so the
soundness check never reads bicov's own auxiliary functions.
"""

from __future__ import annotations

import math

import numpy as np
from numpy.polynomial import Polynomial
from scipy.integrate import quad
from scipy.linalg import cho_factor, cho_solve, solve_triangular
from scipy.special import gammaln, kv

_T = Polynomial([0.0, 1.0])


# ---------------------------------------------------------------------------
# Member correlations and the 2x2 covariance.

def member_corr(m, r):
    r = np.asarray(r, dtype=float)
    if m[0] == "stable":
        return np.exp(-((m[2] * r) ** m[1]))
    if m[0] == "cauchy":
        return (1.0 + (m[3] * r) ** m[1]) ** (-m[2] / m[1])
    if m[0] == "matern":
        nu, x = m[1], m[2] * r
        out = np.ones_like(x)
        pos = x > 0.0
        with np.errstate(over="ignore", invalid="ignore"):
            v = 2.0 ** (1.0 - nu) / math.gamma(nu) * x[pos] ** nu * kv(nu, x[pos])
        out[pos] = np.where(np.isfinite(v), v, 0.0)
        return out
    raise ValueError(f"unknown member {m[0]!r}")


def pair_cov(model, pair, r):
    """Covariance entry C_pair(r), pair in {"11", "12", "22"}."""
    if model["kind"] == "lmc":
        k = {"11": 0, "12": 1, "22": 2}[pair]
        return (model["b1"][k] * member_corr(model["m1"], r)
                + model["b2"][k] * member_corr(model["m2"], r))
    amp = {"11": model["sigma1"] ** 2,
           "12": model["rho"] * model["sigma1"] * model["sigma2"],
           "22": model["sigma2"] ** 2}[pair]
    return amp * member_corr(model["m" + pair], r)


def sill(model, comp):
    return float(pair_cov(model, f"{comp}{comp}", np.zeros(1))[0])


def gram(model, locs, comps, nugget1=0.0, nugget2=0.0):
    d = np.sqrt(((locs[:, None, :] - locs[None, :, :]) ** 2).sum(axis=2))
    key = comps[:, None] + comps[None, :]
    out = np.empty(d.shape)
    for code, pair in ((2, "11"), (3, "12"), (4, "22")):
        mask = key == code
        out[mask] = pair_cov(model, pair, d[mask])
    out[np.diag_indices_from(out)] += np.where(comps == 1, nugget1, nugget2)
    return out


def cross_cov(model, targets, target_comp, locs, comps):
    d = np.sqrt(((targets[:, None, :] - locs[None, :, :]) ** 2).sum(axis=2))
    out = np.empty(d.shape)
    for c in (1, 2):
        cols = comps == c
        pair = "".join(sorted(f"{target_comp}{c}"))
        out[:, cols] = pair_cov(model, pair, d[:, cols])
    return out


# ---------------------------------------------------------------------------
# Likelihood, cokriging, leave-one-out, whitening: one factorisation each.

class Factored:
    """A model's Gram matrix over a sample, factorised once by Cholesky."""

    def __init__(self, model, locs, comps, nugget1=0.0, nugget2=0.0):
        self.model, self.locs, self.comps = model, locs, comps
        self.k = gram(model, locs, comps, nugget1, nugget2)
        self.f = cho_factor(self.k, lower=True)

    def means(self, z):
        """GLS estimates of the per-component means."""
        design = np.column_stack([(self.comps == c).astype(float) for c in (1, 2)])
        kx = cho_solve(self.f, design)
        return np.linalg.solve(design.T @ kx, kx.T @ z)

    def _centered(self, z):
        mu = self.means(z)
        return z - np.where(self.comps == 1, mu[0], mu[1])

    def nll(self, z):
        """Negative log likelihood with profiled per-component means."""
        resid = self._centered(z)
        logdet = 2.0 * float(np.sum(np.log(np.diag(self.f[0]))))
        return 0.5 * (len(z) * math.log(2.0 * math.pi) + logdet
                      + float(resid @ cho_solve(self.f, resid)))

    def cokrige(self, z, targets, target_comp, mean1, mean2):
        """Simple cokriging: solve K w = c0, predict and take the variance."""
        c0 = cross_cov(self.model, targets, target_comp, self.locs, self.comps)
        w = cho_solve(self.f, c0.T)
        means = np.where(self.comps == 1, mean1, mean2)
        pred = (mean1 if target_comp == 1 else mean2) + (z - means) @ w
        var = sill(self.model, target_comp) - np.einsum("ij,ji->i", c0, w)
        return pred, var

    def loo_residuals(self, z):
        """Deleted residuals with the full-data GLS means held fixed."""
        centered = self._centered(z)
        precision = cho_solve(self.f, np.eye(len(z)))
        return (precision @ centered) / np.diag(precision), centered

    def deleted_residual(self, centered, i):
        """Residual at i predicted from every other row, by explicit deletion."""
        keep = np.arange(len(centered)) != i
        w = np.linalg.solve(self.k[np.ix_(keep, keep)], self.k[keep, i])
        return centered[i] - w @ centered[keep]

    def whiten(self, values, jitter, mean1, mean2):
        """Invert values = L eps + means for the factor of K + jitter I."""
        chol = self.f[0] if jitter == 0.0 else np.linalg.cholesky(
            self.k + jitter * np.eye(len(values)))
        return solve_triangular(chol, values - np.where(self.comps == 1, mean1, mean2),
                                lower=True)


# ---------------------------------------------------------------------------
# Second-order forms and the rho-bound ratio, in log form.

def _t_forms(m, n):
    """(envelope(log t) -> log, polynomial g) with D_n(r) = r^-2 env(t) g(t).

    psi = F(t) gives psi'' = r^-2 H(t), H = a^2 t^2 F'' + a (a - 1) t F', and
    psi'' - r psi''' = r^-2 (3 H - a t H').
    """
    if m[0] == "stable":
        a = m[1]
        h = a * a * _T ** 2 - a * (a - 1.0) * _T          # H = e^-t h
        g = h if n == 1 else 3.0 * h - a * _T * (h.deriv() - h)
        return (lambda t, lt: -t), g
    a, b = m[1], m[2]
    c = b / a
    h = a * a * c * (c + 1.0) * _T ** 2 - a * (a - 1.0) * c * _T * (1.0 + _T)
    if n == 1:                                            # H = (1+t)^-(c+2) h
        return (lambda t, lt: -(c + 2.0) * np.log1p(t)), h
    g = 3.0 * (1.0 + _T) * h - a * _T * ((1.0 + _T) * h.deriv() - (c + 2.0) * h)
    return (lambda t, lt: -(c + 3.0) * np.log1p(t)), g


def log_second_form(m, n, log_r):
    """(log|r^2 D_n(r)|, sign D_n(r)) on a grid of log r."""
    a, s = m[1], m[-1]
    lt = a * (math.log(s) + log_r)
    t = np.exp(lt)
    env, g = _t_forms(m, n)
    gv = g(t)
    with np.errstate(divide="ignore"):
        return env(t, lt) + np.log(np.abs(gv)), np.sign(gv)


def log_ratio(model, n, log_r):
    """log(D11 D22 / D12^2) where defined (marginal forms positive), else nan."""
    l11, g11 = log_second_form(model["m11"], n, log_r)
    l22, g22 = log_second_form(model["m22"], n, log_r)
    l12, g12 = log_second_form(model["m12"], n, log_r)
    out = l11 + l22 - 2.0 * l12
    return np.where((g11 > 0) & (g22 > 0) & (g12 != 0) & np.isfinite(out), out, np.nan)


DENSE_GRID = np.linspace(math.log(1e-8), math.log(1e8), 200_001)


def bound_soundness(model, n, bound_raw, location):
    """Problems with a reported bound: '' when sound.

    The squared bound must not exceed the ratio anywhere on a dense log grid
    over the engine's window, and must sit within 1e-6 of the grid minimum
    around an interior minimiser.
    """
    if bound_raw == 0.0:
        return ""
    log_b2 = 2.0 * math.log(bound_raw)
    lr = log_ratio(model, n, DENSE_GRID)
    worst = float(np.nanmin(lr))
    if log_b2 > worst + 1e-9:
        return f"bound^2 {math.exp(log_b2):.12g} exceeds the ratio {math.exp(worst):.12g}"
    if isinstance(location, float):
        local = math.log(location) + np.linspace(-1e-2, 1e-2, 20_001)
        near = float(np.nanmin(log_ratio(model, n, local)))
        if abs(log_b2 - near) > 1e-6:
            return (f"bound^2 {math.exp(log_b2):.12g} is not the local minimum "
                    f"{math.exp(near):.12g} near r = {location:.6g}")
    return ""


# ---------------------------------------------------------------------------
# Spectral closed forms.

def density_at_zero(m, n):
    """f(0) of a stable or Cauchy member in R^n (Cauchy needs beta > n)."""
    k = n                                                   # int r^(k-1) psi(r) dr
    if m[0] == "stable":
        a, s = m[1], m[2]
        log_int = gammaln(k / a) - math.log(a)
    else:
        a, b, s = m[1], m[2], m[3]
        log_int = gammaln(k / a) + gammaln((b - k) / a) - gammaln(b / a) - math.log(a)
    const = math.pi if n == 1 else 2.0 * math.pi ** 2
    return math.exp(log_int - k * math.log(s)) / const


def spherical_density(s, u):
    """R^3 density of the spherical member with support radius 1/s, by quadrature."""
    radius = 1.0 / s
    psi = lambda r: r * (1.0 - 1.5 * s * r + 0.5 * (s * r) ** 3)
    val, _ = quad(psi, 0.0, radius, weight="sin", wvar=u, epsabs=1e-15, limit=200)
    return val / (2.0 * math.pi ** 2 * u)


def matern_parsimonious_bound(nu1, nu2, d):
    """Exact |rho| limit for a common-scale Matern pair with nu12 = mean."""
    mean_nu = 0.5 * (nu1 + nu2)
    half = 0.5 * d
    return math.exp(0.5 * (gammaln(nu1 + half) + gammaln(nu2 + half)
                           - gammaln(nu1) - gammaln(nu2))
                    + gammaln(mean_nu) - gammaln(mean_nu + half))
