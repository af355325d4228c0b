"""Isotropic spectral densities and necessary positive definiteness checks.

A member psi(r) = psi1(s r) on R^n has the density f(u) = c_n J(u/s) / s^n,
c_1 = 1/pi, c_3 = 1/(2 pi^2), where J(v) integrates psi1(x) cos(v x) (n = 1) or
x psi1(x) sin(v x) / v (n = 3) over x > 0.  J(0) is a gamma or beta function, or
3/8 for the spherical member in R^1.  Closed forms serve every frequency for the
Matern member, Gamma(nu + n/2) / (Gamma(nu) pi^(n/2) s^n) (1 + (u/s)^2)^-(nu + n/2),
and the spherical member: J(v) = 3 (v^2/2 - v sin v + 1 - cos v) / v^4 in R^1, an
elementary form in R^3, each with its series near v = 0, where it cancels.

Stable and Cauchy members at v > 0 take Ooura and Mori's double exponential rule
for Fourier integrals (J. Comput. Appl. Math. 112, 1999), vectorised: its nodes
approach the zeros of sin or cos double exponentially, which also sums heavy
tails that converge only conditionally.  Where max(1, v^-n) psi1(1/v) < 1e-18
the member sheds its mass before the first oscillation, which those nodes
under-resolve, and the exp-sinh rule takes the whole integrand.  A stable member
with alpha <= 0.1 in R^3 is integrated by parts first, x psi1 sin(v x) ->
(psi1 + x psi1') cos(v x) / v, of bounded amplitude.  Each rule runs at t-steps
0.025 and 0.05.  Where the two differ by more than 1e-5 |J| + 1e-9, the step-0.05
rule may be the one that is off (a heavy Cauchy tail at a tiny frequency), so
the rule runs again at step 0.0125 and its difference from step 0.025 decides;
above that threshold too, QuadratureError is raised.  The value is the step-0.025
one either way.

A valid bivariate model must satisfy f11(u) f22(u) >= rho^2 f12(u)^2 for almost
every frequency; ``spectral_pd_inequality`` checks this margin on a grid.  The
bivariate spherical impossibility result (``validity.spherical_triviality``)
tests the same inequality on its own, at the zeros of a marginal density.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .bimodels import BivariateModel, _write_csv
from .corrfn import (CorrelationFamily, NonIntegrable, QuadratureError, StableParams, _as_r,
                     _check_n13, _maybe_scalar, _outer)

__all__ = [
    "NonIntegrable",
    "QuadratureError",
    "SpectralProfile",
    "SpectralCheck",
    "tan_roots",
    "spherical_density_closed_form",
    "member_spectral_density",
    "cross_spectral_profile",
    "spectral_pd_inequality",
    "tauberian_slope",
]


@dataclass(frozen=True)
class SpectralProfile:
    n: int
    u: np.ndarray
    f11: np.ndarray
    f12: np.ndarray
    f22: np.ndarray

    def to_csv(self, path: str) -> None:
        _write_csv(path, ("u", "f11", "f12", "f22"),
                   zip(self.u, self.f11, self.f12, self.f22))


@dataclass(frozen=True)
class SpectralCheck:
    satisfied: bool
    rho: float
    min_margin: float
    u_at_min: float


# ---------------------------------------------------------------------------
# Roots of tan(x) = x and the spherical closed form.

def tan_roots(k_max: int) -> np.ndarray:
    """First ``k_max`` positive roots of tan(x) = x.

    Root k lies in (pi k, pi k + pi/2), where cot(x) - 1/x falls strictly
    from +inf to below zero.  Each call returns a fresh copy of a solve made
    once per ``k_max``.
    """
    if k_max < 1:
        raise ValueError("k_max must be at least 1")
    return _tan_roots(k_max).copy()


@lru_cache(maxsize=8)
def _tan_roots(k_max: int) -> np.ndarray:
    from scipy.optimize import brentq

    def g(x: float) -> float:
        return math.cos(x) / math.sin(x) - 1.0 / x

    roots = np.empty(k_max)
    for k in range(1, k_max + 1):
        lo = math.pi * k + 1e-8
        hi = math.pi * k + math.pi / 2.0 - 1e-8
        roots[k - 1] = brentq(g, lo, hi, xtol=1e-13, rtol=4.0 * np.finfo(float).eps)
    return roots


def spherical_density_closed_form(s: float, u):
    """Spectral density in R^3 of the spherical correlation with scale s.

    f(u) = (3 s / (pi^2 u^6)) (u cos(u / 2s) - 2 s sin(u / 2s))^2, with a
    series expansion below x = u / 2s = 1e-3 where the direct form cancels.
    f(0) = 1 / (48 pi^2 s^3).
    """
    s3 = _scale_power(s, 3)
    uu, scalar = _as_r(u, True, "frequency")
    x = uu / (2.0 * s)
    out = np.empty_like(uu)
    small = x < 1e-3
    xs = x[small]
    poly = (1.0 / 3.0 - xs ** 2 / 30.0 + xs ** 4 / 840.0 - xs ** 6 / 45360.0)
    out[small] = 3.0 / (16.0 * math.pi ** 2 * s3) * poly ** 2
    ub, xb = uu[~small], x[~small]
    out[~small] = (3.0 * s / (math.pi ** 2 * ub ** 6)
                   * (ub * np.cos(xb) - 2.0 * s * np.sin(xb)) ** 2)
    return _maybe_scalar(out, scalar)


# ---------------------------------------------------------------------------
# Densities: closed forms where known, one double exponential rule beyond.

_C = {1: 1.0 / math.pi, 3: 0.5 / math.pi ** 2}   # c_n of the module docstring
# J(v) of the R^1 spherical member below v = 1: 3 sum_(k>=2) (-1)^k (2k-1)/(2k)! v^(2k-4)
_SPHERE_SERIES = [3.0 * (-1) ** k * (2 * k - 1) / math.factorial(2 * k) for k in range(10, 1, -1)]


@lru_cache(maxsize=None)
def _rule(h: float, trig: str) -> tuple[np.ndarray, np.ndarray]:
    """Nodes x, weights w at t-step h: sum(w g(x / v)) / v integrates g(x) trig(v x)
    over x > 0 for trig "sin" or "cos", and sum(w g(x)) integrates g for "exp"."""
    span = 4.0 if trig == "exp" else 8.0
    k = np.arange(-round(span / h), round(span / h) + 1)
    if trig == "exp":
        x = np.exp(0.5 * math.pi * np.sinh(k * h))
        return x, 0.5 * math.pi * h * np.cosh(k * h) * x
    t = k * h if trig == "sin" else (k - 0.5) * h
    m, b = math.pi / h, 0.25
    a = b / math.sqrt(1.0 + m * math.log1p(m) / (4.0 * math.pi))
    g = 2.0 * t - a * np.expm1(-t) + b * np.expm1(t)
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        e = -np.expm1(-g)
        x = m * t / e
        dx = m / e - m * t * (2.0 + a * np.exp(-t) + b * np.exp(t)) * np.exp(-g) / e ** 2
        # for t > 0, trig(x) = (-1)^k sin(m t / expm1(g)) keeps its tiny values accurate
        w = h * dx * np.where(t > 0.0, (-1.0) ** k * np.sin(m * t / np.expm1(g)),
                              np.sin(x) if trig == "sin" else np.cos(x))
    c = 2.0 + a + b   # the sine node t = 0: phi = 1/c, phi' = (1 - (b - a)/c^2)/2
    x[t == 0.0] = m / c
    w[t == 0.0] = 0.5 * h * m * (1.0 - (b - a) / c ** 2) * math.sin(m / c)
    return x[w != 0.0], w[w != 0.0]


def _transform(p, n: int, v: np.ndarray, h: float = 0.025) -> tuple[np.ndarray, np.ndarray]:
    """J(v) of a stable or Cauchy member at unit frequencies v > 0 by the rules at
    t-step h, and the change from the rules at step 2h as its error estimate."""
    parts = n == 3 and p.alpha <= 0.1 and isinstance(p, StableParams)
    trig = "sin" if n == 3 and not parts else "cos"

    def amp(x):   # psi1 (R^1), x psi1 (R^3), or psi1 + x psi1' = G + alpha t G' (by parts)
        t = x ** p.alpha
        g = _outer(p, t, int(parts))
        return g[0] + p.alpha * t * g[1] if parts else g[0] * x if n == 3 else g[0]

    def total(h, fast, vv):
        x, w = _rule(h, "exp" if fast else trig)
        if fast:
            return (getattr(np, trig)(vv * x) * amp(x) * w).sum(1)
        return (amp(x / vv) * w).sum(1) / vv[:, 0]

    with np.errstate(over="ignore", under="ignore", invalid="ignore"):
        fast = np.maximum(1.0, v ** -n) * _outer(p, v ** -p.alpha, 0)[0] < 1e-18
        out = np.empty((2, v.size))
        for rows in (fast, ~fast):
            out[:, rows] = [total(hh, rows is fast, v[rows, None]) for hh in (h, 2 * h)]
    out /= v ** ((n == 3) + parts)
    return out[0], np.abs(out[1] - out[0])


def _scale_power(scale: float, n: int) -> float:
    """scale^n; ValueError where it is not a positive finite double."""
    try:
        scale_n = scale ** n
    except OverflowError:
        scale_n = math.inf
    if not 0.0 < scale_n < math.inf:
        raise ValueError(f"scale {scale:g} must be positive with scale^{n} in the double range")
    return scale_n


def _zero_density(family: CorrelationFamily, n: int) -> float:
    """The density at u = 0 in closed form (see the module docstring); inf where
    it leaves the double range."""
    p, c = family.params, _C[n]
    try:
        if family.kind == "Spherical":
            return c * 3.0 / (8.0 * p.scale)
        if family.kind == "Stable":
            return c * math.gamma(n / p.alpha) / (p.alpha * p.scale ** n)
        log_b = (math.lgamma(n / p.alpha) + math.lgamma((p.beta - n) / p.alpha)
                 - math.lgamma(p.beta / p.alpha))
        return c * math.exp(log_b) / (p.alpha * p.scale ** n)
    except (OverflowError, ZeroDivisionError):   # Gamma or exp overflows, or alpha s^n is 0
        return math.inf


@np.errstate(over="ignore", divide="ignore", invalid="ignore")   # a non-finite result raises
def _density(family: CorrelationFamily, n: int, uu: np.ndarray, check: bool = True):
    _check_n13(n)
    p = family.params
    scale_n = _scale_power(p.scale, n)
    if check and family.kind == "Cauchy" and p.beta <= n:
        raise NonIntegrable("generalized Cauchy member with beta <= n has a diverging density "
                            "at the origin; no pointwise profile is produced")
    if family.kind == "Spherical" and n == 3:
        out = spherical_density_closed_form(p.scale, uu)
    elif family.kind == "Matern":
        # (1 + (u/s)^2)^-k as hypot(1, u/s)^-2k, which does not overflow
        k = p.nu + 0.5 * n
        head = math.exp(math.lgamma(k) - math.lgamma(p.nu)) / (math.pi ** (0.5 * n) * scale_n)
        out = head * np.hypot(1.0, uu / p.scale) ** (-2.0 * k)
    else:
        pos = uu > 0.0
        out = np.full_like(uu, np.nan if pos.all() else _zero_density(family, n))
        v = uu[pos] / p.scale
        if family.kind == "Spherical":
            j = np.where(v < 1.0, np.polyval(_SPHERE_SERIES, v * v),
                         3.0 * (0.5 * v * v - v * np.sin(v) + 2.0 * np.sin(0.5 * v) ** 2) / v ** 4)
        else:
            def transform(vv, h):   # blocks of 256 frequencies bound the temporaries
                blocks = np.split(vv, range(256, vv.size, 256))
                return [np.concatenate(r) for r in zip(*(_transform(p, n, b, h) for b in blocks))]
            j, err = transform(v, 0.025)
            tol = 1e-5 * np.abs(j) + 1e-9
            bad = np.flatnonzero(~(err <= tol))   # a NaN estimate fails too
            if bad.size:   # the step-2h rule may be the one that is off: try step h/2
                err[bad] = transform(v[bad], 0.0125)[1]
                bad = bad[~(err[bad] <= tol[bad])]
            if bad.size:
                raise QuadratureError(f"{family.kind} member in R^{n} at u = {uu[pos][bad[0]]:g}: "
                                      f"estimated error {err[bad[0]]:g} for value {j[bad[0]]:g}")
        out[pos] = _C[n] * j / scale_n
    bad = np.flatnonzero(~np.isfinite(out))
    if bad.size:
        raise ValueError(f"the {family.kind.lower()} member's density in R^{n} at u = "
                         f"{uu[bad[0]]:g} leaves the double range (scale {p.scale:g})")
    return out


def member_spectral_density(family: CorrelationFamily, n: int, u) -> np.ndarray:
    """Spectral density of a single member correlation on a frequency grid."""
    uu, scalar = _as_r(u, True, "frequency")
    return _maybe_scalar(_density(family, n, uu), scalar)


def cross_spectral_profile(model: BivariateModel, n: int, u) -> SpectralProfile:
    """Member densities f11, f12, f22 of a bivariate model on a grid."""
    uu = _as_r(u, True, "frequency")[0].copy()
    members = (model.psi11, model.psi12, model.psi22)
    return SpectralProfile(n, uu, *(_density(f, n, uu) for f in members))


def spectral_pd_inequality(profile: SpectralProfile, rho: float) -> SpectralCheck:
    """Check f11 f22 - rho^2 f12^2 >= 0 over the profile grid.

    A tiny relative slack absorbs quadrature noise; genuine violations (as in
    the bivariate spherical model) exceed it by many orders of magnitude.
    """
    margin = profile.f11 * profile.f22 - rho ** 2 * profile.f12 ** 2
    i = int(np.argmin(margin))
    scale = float(np.max(profile.f11 * profile.f22 + profile.f12 ** 2))
    ok = bool(margin[i] >= -1e-9 * max(scale, 1e-300))
    return SpectralCheck(satisfied=ok, rho=rho, min_margin=float(margin[i]),
                         u_at_min=float(profile.u[i]))


def tauberian_slope(family: CorrelationFamily, n: int,
                    window: tuple[float, float]) -> float:
    """Least-squares log-log slope of the density at 9 log-spaced frequencies in a window.

    Matches the tail decay exponent -(n + alpha) of the powered exponential
    family when the window sits far enough out, and the origin exponent
    beta - n of a heavy-tailed generalized Cauchy member (beta < n) when the
    window sits near zero.  This path skips the integrability gate: for
    beta <= n the transform still converges conditionally at u > 0.
    """
    lo, hi = window
    if not (0.0 < lo < hi):
        raise ValueError("window must satisfy 0 < lo < hi")
    uu = np.geomspace(lo, hi, 9)
    f = _density(family, n, uu, check=False)
    if np.any(f <= 0.0):
        raise QuadratureError("density is not positive over the window")
    return float(np.polyfit(np.log(uu), np.log(f), 1)[0])

