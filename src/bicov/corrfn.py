"""Univariate stationary isotropic correlation families.

Four families are supported: powered exponential ("stable"), generalized
Cauchy, spherical, and Matern.  Each is a correlation function psi(r) with
psi(0) = 1, evaluated for distances r >= 0, together with closed-form radial
derivatives of orders 1..3 (central finite differences for Matern, a
comparison model; the generic derivative route of the validity module
differentiates Matern members this way).

The stable and Cauchy derivatives are hand-derived via the chain rule on
t = (s*r)**alpha and cross-validated against finite differences in the test
suite.  They are deliberately independent from the closed-form auxiliary
ratios used by the validity module, so the two code paths check each other.

Maximum likelihood fitting also needs derivatives in the parameters:
closed forms in alpha, log scale and beta for stable and Cauchy members, and
for Matern a closed form in log scale with central differences in nu (the
family has no closed form in nu).
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


def evaluate(family: CorrelationFamily, r):
    """Evaluate psi(r) for scalar or array distances r >= 0.

    Returns a float for scalar input, an ndarray otherwise.  psi(0) is
    exactly 1 for every family.
    """
    rr, scalar = _as_r(r, allow_zero=True)
    p = family.params
    if family.kind == "Stable":
        out = np.exp(-((p.scale * rr) ** p.alpha))
    elif family.kind == "Cauchy":
        out = (1.0 + (p.scale * rr) ** p.alpha) ** (-p.beta / p.alpha)
    elif family.kind == "Spherical":
        x = p.scale * rr
        out = np.where(x < 1.0, 1.0 - 1.5 * x + 0.5 * x ** 3, 0.0)
    else:  # Matern
        from scipy.special import gamma
        x = p.scale * rr
        out = np.ones_like(x)
        pos = x > 0.0
        # kv overflows for extremely small arguments; psi is 1 to double precision there
        safe = pos & (x > 1e-150)
        xs = x[safe]
        val = (2.0 ** (1.0 - p.nu) / gamma(p.nu)) * xs ** p.nu * _bessel_kv(p.nu, xs)
        out[safe] = np.where(np.isfinite(val), val, 0.0)  # kv underflows to 0 for huge x
    # r = 0 must give exactly 1
    out = np.where(rr == 0.0, 1.0, out)
    return _maybe_scalar(out, scalar)


def _stable_deriv(p: StableParams, rr: np.ndarray, order: int) -> np.ndarray:
    a, s = p.alpha, p.scale
    t = (s * rr) ** a
    e = np.exp(-t)
    t1 = a * t / rr
    if order == 1:
        return -e * t1
    t2 = a * (a - 1.0) * t / rr ** 2
    if order == 2:
        return e * (t1 * t1 - t2)
    t3 = a * (a - 1.0) * (a - 2.0) * t / rr ** 3
    return e * (-t1 ** 3 + 3.0 * t1 * t2 - t3)


def _cauchy_deriv(p: CauchyParams, rr: np.ndarray, order: int) -> np.ndarray:
    a, s = p.alpha, p.scale
    c = p.beta / a
    t = (s * rr) ** a
    base = 1.0 + t
    t1 = a * t / rr
    g1 = -c * base ** (-c - 1.0)
    if order == 1:
        return g1 * t1
    t2 = a * (a - 1.0) * t / rr ** 2
    g2 = c * (c + 1.0) * base ** (-c - 2.0)
    if order == 2:
        return g2 * t1 * t1 + g1 * t2
    t3 = a * (a - 1.0) * (a - 2.0) * t / rr ** 3
    g3 = -c * (c + 1.0) * (c + 2.0) * base ** (-c - 3.0)
    return g3 * t1 ** 3 + 3.0 * g2 * t1 * t2 + g1 * t3


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
    if family.kind == "Stable":
        out = _stable_deriv(p, rr, order)
    elif family.kind == "Cauchy":
        out = _cauchy_deriv(p, rr, order)
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
    pos = x > 0.0
    if family.kind == "Matern":
        from scipy.special import gamma
        h, safe = 1e-5 * p.nu, pos & (x > 1e-150)

        def d_ls():
            # x d/dx [x^nu K_nu(x)] = -x^(nu+1) K_(nu-1)(x); same cut-offs as evaluate
            val = (-(2.0 ** (1.0 - p.nu) / gamma(p.nu)) * x[safe] ** (p.nu + 1.0)
                   * _bessel_kv(p.nu - 1.0, x[safe]))
            out = np.zeros_like(x)
            out[safe] = np.where(np.isfinite(val), val, 0.0)
            return out
        psi = np.asarray(evaluate(family, r))
        parts = (lambda: (evaluate(matern(p.nu + h, p.scale), r)
                          - evaluate(matern(p.nu - h, p.scale), r)) / (2.0 * h), d_ls)
    elif family.kind in ("Stable", "Cauchy"):
        a = p.alpha
        t = x ** a
        if family.kind == "Stable":
            psi = np.exp(-t)
            parts = (lambda: -psi * t * np.log(np.where(pos, x, 1.0)), lambda: -a * psi * t)
        else:
            c = p.beta / a
            base = 1.0 + t
            psi = base ** -c
            log_base = np.log1p(t)
            frac = t / base
            parts = (lambda: psi * (c / a * log_base
                                    - c * frac * np.log(np.where(pos, x, 1.0))),
                     lambda: -p.beta * psi * frac, lambda: -psi * log_base / a)
    else:
        raise ValueError(f"no parameter derivatives for the {family.kind} family")
    return psi, [d() if f else None for d, f in zip(parts, free)]
