"""Isotropic spectral densities and necessary positive definiteness checks.

For an isotropic correlation psi on R^n the spectral density is a Hankel
transform; in the two dimensions handled here it reduces to

* n = 1:  f(u) = (1 / pi)        * integral_0^inf psi(r) cos(u r) dr
* n = 3:  f(u) = (1 / (2 pi^2 u)) * integral_0^inf r psi(r) sin(u r) dr

evaluated at u > 0 with the oscillatory-weight quadrature from QUADPACK,
which also sums conditionally convergent tails (heavy-tailed members whose
integrand is not absolutely integrable).  At u = 0 both are c_n times the
integral of r^(n-1) psi(r), c_1 = 1/pi, c_3 = 1/(2 pi^2): a gamma or beta
function, or 3 / (8 s) for the spherical member in R^1, used in closed form.
Two members have closed forms at every frequency, used directly: the Matern
member, Gamma(nu + n/2) / (Gamma(nu) pi^(n/2) s^n) (1 + (u/s)^2)^-(nu + n/2),
and the spherical member in R^3, an elementary form with a series fallback
near u = 0 where it cancels catastrophically.  So the quadrature serves
stable, Cauchy and R^1 spherical members at u > 0 only.

A valid bivariate model must satisfy f11(u) f22(u) >= rho^2 f12(u)^2 for
almost every frequency; ``spectral_pd_inequality`` checks this margin on a
grid.  The bivariate spherical impossibility result
(``validity.spherical_triviality``) tests the same inequality on its own, at
the zeros of a marginal closed-form density.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .bimodels import BivariateModel, _write_csv
from .corrfn import CorrelationFamily, _as_r, _check_n13, _maybe_scalar

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


class NonIntegrable(ValueError):
    """The member correlation has no pointwise spectral density on this path."""


class QuadratureError(RuntimeError):
    """The oscillatory quadrature did not reach the requested accuracy."""


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
    from +inf to below zero.
    """
    from scipy.optimize import brentq
    if k_max < 1:
        raise ValueError("k_max must be at least 1")

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
    if s <= 0.0:
        raise ValueError("scale must be positive")
    uu, scalar = _as_r(u, True, "frequency")
    x = uu / (2.0 * s)
    out = np.empty_like(uu)
    small = x < 1e-3
    xs = x[small]
    poly = (1.0 / 3.0 - xs ** 2 / 30.0 + xs ** 4 / 840.0 - xs ** 6 / 45360.0)
    out[small] = 3.0 / (16.0 * math.pi ** 2 * s ** 3) * poly ** 2
    ub, xb = uu[~small], x[~small]
    out[~small] = (3.0 * s / (math.pi ** 2 * ub ** 6)
                   * (ub * np.cos(xb) - 2.0 * s * np.sin(xb)) ** 2)
    return _maybe_scalar(out, scalar)


# ---------------------------------------------------------------------------
# Pointwise densities: closed forms where known, oscillatory quadrature beyond.

# Oscillatory-weight tolerance: 1e-10 absolute is reachable even for the
# conditionally convergent heavy-tail transforms, where a tighter demand
# only makes the cycle extrapolation report failure.
_QUAD_OPTS = dict(limit=400, limlst=200, epsabs=1e-10)


def _integrand(family: CorrelationFamily):
    kind = family.kind
    if kind == "Stable":
        a, s = family.params.alpha, family.params.scale
        return lambda r: math.exp(-((s * r) ** a))
    if kind == "Cauchy":
        a, b, s = family.params.alpha, family.params.beta, family.params.scale
        return lambda r: (1.0 + (s * r) ** a) ** (-b / a)
    s = family.params.scale   # spherical
    return lambda r: 1.0 - 1.5 * s * r + 0.5 * (s * r) ** 3 if s * r < 1.0 else 0.0


def _check_abserr(value: float, abserr: float, what: str) -> float:
    if abserr > 1e-5 * abs(value) + 1e-9:
        raise QuadratureError(f"{what}: estimated error {abserr:g} for value {value:g}")
    return value


def _zero_density(family: CorrelationFamily, n: int) -> float:
    """The density at u = 0 in closed form (see the module docstring)."""
    p, c = family.params, (1.0 / math.pi if n == 1 else 0.5 / math.pi ** 2)
    if family.kind == "Spherical":
        return c * 3.0 / (8.0 * p.scale)
    if family.kind == "Stable":
        return c * math.gamma(n / p.alpha) / (p.alpha * p.scale ** n)
    log_b = (math.lgamma(n / p.alpha) + math.lgamma((p.beta - n) / p.alpha)
             - math.lgamma(p.beta / p.alpha))
    return c * math.exp(log_b) / (p.alpha * p.scale ** n)


def _density_point(family: CorrelationFamily, n: int, u: float,
                   check: bool = True) -> float:
    _check_n13(n)
    if check and family.kind == "Cauchy" and family.params.beta <= n:
        raise NonIntegrable(
            "generalized Cauchy member with beta <= n has a diverging density "
            "at the origin; no pointwise profile is produced")
    if family.kind == "Spherical" and n == 3:
        return float(spherical_density_closed_form(family.params.scale, u))
    if family.kind == "Matern":
        # (1 + (u/s)^2)^-k as hypot(1, u/s)^-2k, which does not overflow
        p, k = family.params, family.params.nu + 0.5 * n
        head = math.exp(math.lgamma(k) - math.lgamma(p.nu)) / (math.pi ** (0.5 * n) * p.scale ** n)
        return head * math.hypot(1.0, u / p.scale) ** (-2.0 * k)
    if u == 0.0:
        return _zero_density(family, n)

    from scipy.integrate import IntegrationWarning, quad
    psi = _integrand(family)
    # accuracy is judged via the returned error estimate; the library's
    # convergence warnings are redundant chatter on these integrals
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", IntegrationWarning)
        if family.kind == "Spherical":
            val, err = quad(psi, 0.0, 1.0 / family.params.scale, weight="cos", wvar=u,
                            limit=400, epsabs=1e-13)
            return _check_abserr(val, err, "compact-support transform") / math.pi

        if n == 1:
            val, err = quad(psi, 0.0, np.inf, weight="cos", wvar=u, **_QUAD_OPTS)
            return _check_abserr(val, err, "cosine transform") / math.pi
        val, err = quad(lambda r: r * psi(r), 0.0, np.inf, weight="sin", wvar=u,
                        **_QUAD_OPTS)
        return _check_abserr(val, err, "sine transform") / (2.0 * math.pi ** 2 * u)


def member_spectral_density(family: CorrelationFamily, n: int, u) -> np.ndarray:
    """Spectral density of a single member correlation on a frequency grid."""
    uu, scalar = _as_r(u, True, "frequency")
    out = np.array([_density_point(family, n, float(ui)) for ui in uu])
    return _maybe_scalar(out, scalar)


def cross_spectral_profile(model: BivariateModel, n: int, u) -> SpectralProfile:
    """Member densities f11, f12, f22 of a bivariate model on a grid."""
    uu = np.atleast_1d(np.asarray(u, dtype=float)).copy()
    return SpectralProfile(
        n=n,
        u=uu,
        f11=np.asarray(member_spectral_density(model.psi11, n, uu)),
        f12=np.asarray(member_spectral_density(model.psi12, n, uu)),
        f22=np.asarray(member_spectral_density(model.psi22, n, uu)),
    )


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
    """Least-squares log-log slope of the density at 9 log-spaced frequencies
    spanning a window.

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
    f = np.array([_density_point(family, n, float(ui), check=False) for ui in uu])
    if np.any(f <= 0.0):
        raise QuadratureError("density is not positive over the window")
    return float(np.polyfit(np.log(uu), np.log(f), 1)[0])

