"""Univariate stationary isotropic correlation families.

Four families are supported: powered exponential ("stable"), generalized
Cauchy, spherical, and Matern.  Each is a correlation function psi(r) with
psi(0) = 1, evaluated for distances r >= 0, together with closed-form radial
derivatives of orders 1..3 (central finite differences for Matern, a
comparison model; the generic derivative route of the validity module
differentiates Matern members this way).

A stable or Cauchy member is psi = G(t) at t = (s*r)**alpha, with outer
function G(t) = exp(-t) or (1 + t)**(-beta/alpha).  One function per family
returns G and its derivatives in t.  The radial derivatives chain them with
t's derivatives in r (Faa di Bruno), and the derivatives in alpha, log scale
and beta that maximum likelihood fitting needs chain them with t's
derivatives in the parameters; Matern has a closed form in log scale and
central differences in nu.  The closed forms are cross-validated against
finite differences in the test suite and independent of the auxiliary ratios
of the validity module, so the two code paths check each other.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

import numpy as np

__all__ = [
    "ALPHA_MIN",
    "StableParams",
    "CauchyParams",
    "SphericalParams",
    "MaternParams",
    "CorrelationFamily",
    "KinkError",
    "stable",
    "cauchy",
    "spherical",
    "matern",
    "evaluate",
    "derivative",
]

# Below this, (s*r)**alpha is numerically degenerate (hovers near 1 for every r).
ALPHA_MIN = 1e-4


class KinkError(ValueError):
    """Requested a derivative too close to a non-differentiable point."""


def _require(cond: bool, msg: str) -> None:
    if not cond:
        raise ValueError(msg)


# kv is reached through this module attribute, so its calls can be counted
def _bessel_kv(nu, x):
    from scipy.special import kv
    return kv(nu, x)


@dataclass(frozen=True)
class StableParams:
    """Powered exponential parameters: psi(r) = exp(-(scale*r)**alpha)."""

    alpha: float
    scale: float

    def __post_init__(self):
        _require(ALPHA_MIN <= self.alpha <= 2.0,
                 f"stable alpha must be in [{ALPHA_MIN}, 2], got {self.alpha}")
        _require(self.scale > 0.0, f"scale must be positive, got {self.scale}")


@dataclass(frozen=True)
class CauchyParams:
    """Generalized Cauchy parameters: psi(r) = (1+(scale*r)**alpha)**(-beta/alpha)."""

    alpha: float
    beta: float
    scale: float

    def __post_init__(self):
        _require(ALPHA_MIN <= self.alpha <= 2.0,
                 f"cauchy alpha must be in [{ALPHA_MIN}, 2], got {self.alpha}")
        _require(self.beta > 0.0, f"beta must be positive, got {self.beta}")
        _require(self.scale > 0.0, f"scale must be positive, got {self.scale}")


@dataclass(frozen=True)
class SphericalParams:
    """Spherical parameters: psi(r) = (1 - 1.5*x + 0.5*x**3) for x = scale*r < 1, else 0."""

    scale: float

    def __post_init__(self):
        _require(self.scale > 0.0, f"scale must be positive, got {self.scale}")


@dataclass(frozen=True)
class MaternParams:
    """Matern parameters: psi(r) = 2**(1-nu)/Gamma(nu) * x**nu * K_nu(x), x = scale*r."""

    nu: float
    scale: float

    def __post_init__(self):
        _require(self.nu > 0.0, f"nu must be positive, got {self.nu}")
        _require(self.scale > 0.0, f"scale must be positive, got {self.scale}")


Params = Union[StableParams, CauchyParams, SphericalParams, MaternParams]

_KINDS = {"Stable": StableParams, "Cauchy": CauchyParams,
          "Spherical": SphericalParams, "Matern": MaternParams}


@dataclass(frozen=True)
class CorrelationFamily:
    """A correlation family tag plus its parameter record."""

    kind: str
    params: Params

    def __post_init__(self):
        _require(self.kind in _KINDS, f"unknown family kind {self.kind!r}")
        _require(isinstance(self.params, _KINDS[self.kind]),
                 f"params of type {type(self.params).__name__} do not match kind {self.kind!r}")


def stable(alpha: float, scale: float = 1.0) -> CorrelationFamily:
    return CorrelationFamily("Stable", StableParams(float(alpha), float(scale)))


def cauchy(alpha: float, beta: float, scale: float = 1.0) -> CorrelationFamily:
    return CorrelationFamily("Cauchy", CauchyParams(float(alpha), float(beta), float(scale)))


def spherical(scale: float = 1.0) -> CorrelationFamily:
    return CorrelationFamily("Spherical", SphericalParams(float(scale)))


def matern(nu: float, scale: float = 1.0) -> CorrelationFamily:
    return CorrelationFamily("Matern", MaternParams(float(nu), float(scale)))


def _as_r(r, allow_zero: bool, name: str = "distance r") -> tuple[np.ndarray, bool]:
    """``r`` as a 1-d float array and whether it was a scalar; NaN fails both checks."""
    arr = np.asarray(r, dtype=float)
    scalar = arr.ndim == 0
    arr = np.atleast_1d(arr)
    if allow_zero:
        _require(bool(np.all(arr >= 0.0)), f"{name} must be nonnegative")
    else:
        _require(bool(np.all(arr > 0.0)), f"{name} must be positive")
    return arr, scalar


def _maybe_scalar(values: np.ndarray, scalar: bool):
    return float(values[0]) if scalar else values


def _check_n13(n: int) -> None:
    _require(n in (1, 3), f"dimension n must be 1 or 3, got {n}")


def _outer(p: Union[StableParams, CauchyParams], t, order: int) -> list:
    """[G(t), G'(t), ..., G^(order)(t)] of the outer function G, psi = G((s*r)**alpha):
    exp(-t), or (1 + t)**(-c) with c = beta/alpha.  G is formed in place, in the array
    of -t or (order 0) of 1 + t: at Gram sizes every fresh array costs page faults."""
    if isinstance(p, StableParams):
        e = -t
        np.exp(e, out=e)
        ne = -e if order else None
        return [e, ne, e, ne][:order + 1]
    c, base = p.beta / p.alpha, 1.0 + t
    g = [np.power(base, -c, out=None if order else base)]
    for j in range(order):
        g.append(g[-1] * (-c - j) / base)
    return g


def _matern_kx(nu: float, x: np.ndarray, power: float, order: float, fill: float) -> np.ndarray:
    """2**(1-nu)/Gamma(nu) * x**power * K_order(x) at x >= 0: ``fill`` where
    x <= 1e-150 (kv overflows there) and 0 where the product is not finite
    (kv underflows to 0 for huge x)."""
    from scipy.special import gamma
    out, safe = np.full_like(x, fill), x > 1e-150
    val = (2.0 ** (1.0 - nu) / gamma(nu)) * x[safe] ** power * _bessel_kv(order, x[safe])
    out[safe] = np.where(np.isfinite(val), val, 0.0)
    return out


def evaluate(family: CorrelationFamily, r):
    """Evaluate psi(r) for scalar or array distances r >= 0.

    Returns a float for scalar input, an ndarray otherwise.  psi(0) is
    exactly 1 for every family.
    """
    rr, scalar = _as_r(r, allow_zero=True)
    p = family.params
    if family.kind in ("Stable", "Cauchy"):
        out = _outer(p, (p.scale * rr) ** p.alpha, 0)[0]
    elif family.kind == "Spherical":
        x = p.scale * rr
        out = np.where(x < 1.0, 1.0 - 1.5 * x + 0.5 * x ** 3, 0.0)
    else:  # Matern; psi is 1 to double precision below the cut-off
        out = _matern_kx(p.nu, p.scale * rr, p.nu, p.nu, fill=1.0)
    # r = 0 must give exactly 1
    out = np.where(rr == 0.0, 1.0, out)
    return _maybe_scalar(out, scalar)


def _chain_deriv(p: Union[StableParams, CauchyParams], rr: np.ndarray, order: int) -> np.ndarray:
    """d^order/dr^order G(t(r)) by Faa di Bruno; t_k = d^k t/dr^k = t_(k-1) (alpha-k+1)/r."""
    a = p.alpha
    t = (p.scale * rr) ** a
    g = _outer(p, t, order)
    t1 = a * t / rr
    if order == 1:
        return g[1] * t1
    t2 = t1 * (a - 1.0) / rr
    if order == 2:
        return g[2] * t1 * t1 + g[1] * t2
    t3 = t2 * (a - 2.0) / rr
    return g[3] * t1 * t1 * t1 + 3.0 * g[2] * t1 * t2 + g[1] * t3


def _spherical_deriv(p: SphericalParams, rr: np.ndarray, order: int) -> np.ndarray:
    s = p.scale
    if np.any(np.abs(rr - 1.0 / s) < 1e-9 / s):
        raise KinkError(
            f"spherical derivative requested within {1e-9 / s:g} of the kink at r = {1.0 / s:g}")
    x = s * rr
    inside = x < 1.0
    if order == 1:
        return np.where(inside, -1.5 * s + 1.5 * s ** 3 * rr ** 2, 0.0)
    if order == 2:
        return np.where(inside, 3.0 * s ** 3 * rr, 0.0)
    return np.where(inside, 3.0 * s ** 3, 0.0)


# central finite-difference stencils; steps balance truncation against cancellation
_FD_STEP = {1: 6.0e-6, 2: 1.2e-4, 3: 7.4e-4}


def _matern_deriv(family: CorrelationFamily, rr: np.ndarray, order: int) -> np.ndarray:
    h = _FD_STEP[order] * rr
    if order == 1:
        return (evaluate(family, rr + h) - evaluate(family, rr - h)) / (2.0 * h)
    if order == 2:
        return (evaluate(family, rr + h) - 2.0 * evaluate(family, rr)
                + evaluate(family, rr - h)) / h ** 2
    return (evaluate(family, rr + 2.0 * h) - 2.0 * evaluate(family, rr + h)
            + 2.0 * evaluate(family, rr - h) - evaluate(family, rr - 2.0 * h)) / (2.0 * h ** 3)


def derivative(family: CorrelationFamily, r, order: int):
    """Radial derivative of psi of the given order (1, 2, or 3) at r > 0.

    Stable and Cauchy use closed forms; spherical is piecewise polynomial and
    rejects points within 1e-9/scale of its kink at r = 1/scale; Matern falls
    back to central finite differences.
    """
    if order not in (1, 2, 3):
        raise ValueError(f"derivative order must be 1, 2 or 3, got {order}")
    rr, scalar = _as_r(r, allow_zero=False)
    p = family.params
    if family.kind in ("Stable", "Cauchy"):
        out = _chain_deriv(p, rr, order)
    elif family.kind == "Spherical":
        out = _spherical_deriv(p, rr, order)
    else:
        out = _matern_deriv(family, rr, order)
    return _maybe_scalar(out, scalar)


def _param_derivatives(family: CorrelationFamily, r: np.ndarray, free=(True, True, True)):
    """psi(r) and its derivatives in the family's parameters at r >= 0.

    The parameters are (alpha, log scale) for stable members, (alpha, log
    scale, beta) for Cauchy members and (nu, log scale) for Matern members;
    one whose ``free`` flag is false is not computed and comes back as None.
    psi(0) = 1 for every parameter value, so every derivative is 0 at r = 0.
    """
    p = family.params
    x = p.scale * np.asarray(r, dtype=float)
    if family.kind == "Matern":
        h, psi = 1e-5 * p.nu, np.asarray(evaluate(family, r))
        # x d/dx [x^nu K_nu(x)] = -x^(nu+1) K_(nu-1)(x)
        parts = (lambda: (evaluate(matern(p.nu + h, p.scale), r)
                          - evaluate(matern(p.nu - h, p.scale), r)) / (2.0 * h),
                 lambda: -_matern_kx(p.nu, x, p.nu + 1.0, p.nu - 1.0, fill=0.0))
    elif family.kind in ("Stable", "Cauchy"):
        # dt/dalpha = t log x, dt/dlog s = alpha t; a Cauchy member's exponent c = beta/alpha
        # adds dpsi/dc = -psi log(1 + t) times dc/dalpha = -c/alpha or dc/dbeta = 1/alpha
        a, t = p.alpha, x ** p.alpha
        psi, g1 = _outer(p, t, 1)
        parts = [lambda: g1 * t * np.log(x, out=np.zeros_like(x), where=x > 0.0),
                 lambda: a * g1 * t]
        if family.kind == "Cauchy":
            c, log_base, d_t = p.beta / a, np.log1p(t), parts[0]
            parts = [lambda: d_t() + c / a * psi * log_base, parts[1],
                     lambda: -psi * log_base / a]
    else:
        raise ValueError(f"no parameter derivatives for the {family.kind} family")
    return psi, [d() if f else None for d, f in zip(parts, free)]
