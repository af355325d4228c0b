"""Univariate stationary isotropic correlation families.

Four families are supported: powered exponential ("stable"), generalized
Cauchy, spherical, and Matern.  Each is a correlation function psi(r) with
psi(0) = 1, evaluated for distances r >= 0, together with closed-form radial
derivatives of orders 1..3 (Bessel K recurrences for Matern, which the
generic derivative route of the validity module reads).

A stable or Cauchy member is psi = G(t) at t = (s*r)**alpha, with outer
function G(t) = exp(-t) or (1 + t)**(-beta/alpha).  One function per family
returns G and its derivatives in t.  The radial derivatives chain them with
t's derivatives in r (Faa di Bruno), and the derivatives in alpha, log scale
and beta that maximum likelihood fitting needs chain them with t's
derivatives in the parameters; Matern has a closed form in log scale and a
central difference in nu, the module's one finite difference.  The forms are
checked against 50-digit oracles in the test suite and are independent of the
validity module's auxiliary ratios, so the two code paths check each other.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from typing import Union

import numpy as np

__all__ = [
    "ALPHA_MIN",
    "NU_MAX",
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
# Above this, psi = c x**nu K_nu(x) is NaN at some x: kv overflows where K_nu's
# small-x series would cancel (first seen at nu = 320 over r in [1e-6, 5e3]).
NU_MAX = 300.0


class KinkError(ValueError):
    """Requested a derivative too close to a non-differentiable point."""


def _require(cond: bool, msg: str) -> None:
    if not cond:
        raise ValueError(msg)


def _require_positive(value: float, name: str) -> None:
    """ValueError unless value is positive and finite (NaN fails too)."""
    _require(0.0 < value < math.inf, f"{name} must be positive and finite, got {value}")


# A share of at least this many values is worth a thread of its own: on a
# 2-core Xeon, where kv costs about 0.35 us a value, two shares of 2,048 beat
# one kv call by about 1.1x and two of 4,096 by 1.2-1.3x.
_KV_SHARE_MIN = 2048


def _cpu_count() -> int:
    """The CPUs this process may run on (its affinity mask where the OS has one)."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


# kv is reached through this module attribute, so its calls can be counted
def _bessel_kv(order: float, x):
    """scipy's K_order at every value of x.  An array of at least 2 * _KV_SHARE_MIN
    values is cut into contiguous shares, one per CPU while each keeps at least
    _KV_SHARE_MIN: the calling thread computes the first, threads started for
    this call the others, each into its own slice of one output.  kv is
    elementwise and releases the GIL, so every split gives the same bits; no
    thread outlives the call, so none is left after a fork."""
    from scipy.special import kv
    x = np.asarray(x, dtype=float)
    shares = min(_cpu_count(), x.size // _KV_SHARE_MIN)
    if shares < 2:
        return kv(order, x)
    from concurrent.futures import ThreadPoolExecutor
    out = np.empty_like(x, order="C")
    flat_x, flat_out = np.ravel(x), out.reshape(-1)
    cuts = [x.size * k // shares for k in range(shares + 1)]
    with ThreadPoolExecutor(shares - 1) as pool:
        futures = [pool.submit(kv, order, flat_x[a:b], out=flat_out[a:b])
                   for a, b in zip(cuts[1:-1], cuts[2:])]
        kv(order, flat_x[:cuts[1]], out=flat_out[:cuts[1]])
        for f in futures:
            f.result()
    return out


@dataclass(frozen=True)
class StableParams:
    """Powered exponential parameters: psi(r) = exp(-(scale*r)**alpha)."""

    alpha: float
    scale: float

    def __post_init__(self):
        _require(ALPHA_MIN <= self.alpha <= 2.0,
                 f"stable alpha must be in [{ALPHA_MIN}, 2], got {self.alpha}")
        _require_positive(self.scale, "scale")


@dataclass(frozen=True)
class CauchyParams:
    """Generalized Cauchy parameters: psi(r) = (1+(scale*r)**alpha)**(-beta/alpha)."""

    alpha: float
    beta: float
    scale: float

    def __post_init__(self):
        _require(ALPHA_MIN <= self.alpha <= 2.0,
                 f"cauchy alpha must be in [{ALPHA_MIN}, 2], got {self.alpha}")
        _require_positive(self.beta, "beta")
        _require_positive(self.scale, "scale")


@dataclass(frozen=True)
class SphericalParams:
    """Spherical parameters: psi(r) = (1 - 1.5*x + 0.5*x**3) for x = scale*r < 1, else 0."""

    scale: float

    def __post_init__(self):
        _require_positive(self.scale, "scale")


@dataclass(frozen=True)
class MaternParams:
    """Matern parameters: psi(r) = 2**(1-nu)/Gamma(nu) * x**nu * K_nu(x), x = scale*r,
    for 0 < nu <= NU_MAX (300)."""

    nu: float
    scale: float

    def __post_init__(self):
        _require(self.nu > 0.0, f"nu must be positive, got {self.nu}")
        _require(self.nu <= NU_MAX, f"nu must be at most {NU_MAX:g}, got {self.nu}")
        _require_positive(self.scale, "scale")


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
    """2**(1-nu)/Gamma(nu) * x**power * K_order(x) at x >= 0, ``fill`` where x <= 1e-150
    and 0 at x = inf.

    Where the constant is not a normal float (from nu near 170) or the product is
    not finite, the value is taken in logs; where kv overflows too, K_a, a = |order|,
    is (1/2) Gamma(a) (x/2)**-a times :func:`_kv_small_x`, with the constants grouped
    so that psi itself (power = order = nu) is that series exactly."""
    from scipy.special import gamma, gammaln
    out, safe = np.full_like(x, fill), x > 1e-150
    xs, k = x[safe], _bessel_kv(order, x[safe])
    const = 2.0 ** (1.0 - nu) / gamma(nu)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        val = const * xs ** power * k
        redo = ~np.isfinite(val) | (not const >= np.finfo(float).tiny)
        a, ln2, log_x, kr = abs(order), math.log(2.0), np.log(xs[redo]), k[redo]
        logs = (1.0 - nu) * ln2 - gammaln(nu) + power * log_x + np.log(kr)
        over = np.isposinf(kr)
        logs[over] = ((a - nu) * ln2 + (gammaln(a) - gammaln(nu)) + (power - a) * log_x[over]
                      + np.log(_kv_small_x(a, xs[redo][over])))
        val[redo] = np.exp(logs)
    val[np.isposinf(xs)] = 0.0   # K decays exponentially: every x**power K(x) ends at 0
    out[safe] = val
    return out


def _kv_small_x(a: float, x: np.ndarray) -> np.ndarray:
    """sum over k < a of (x**2/4)**k / (k! (1-a)_k), K_a's leading series
    (DLMF 10.31.1, 10.27.4) over (1/2) Gamma(a) (x/2)**-a, for a > 2 where kv(a, x)
    overflows: the omitted I-part is below 1e-300 of it there.  The terms stop once
    all fall below 1e-17; NaN where x**2/4 > (a - 1)/2, where the first terms
    would not shrink at least twofold (kv overflows there only from a near 315 on)."""
    q = 0.25 * x * x
    total, term, j = np.ones_like(x), np.ones_like(x), 0
    while j + 1 < a and np.max(np.abs(term), initial=0.0) >= 1e-17:
        term = term * q / ((j + 1) * (j + 1 - a))
        total += term
        j += 1
    return np.where(q <= 0.5 * (a - 1.0), total, np.nan)


@np.errstate(over="ignore")   # a scaled distance past the double range is inf: psi is 0
def evaluate(family: CorrelationFamily, r):
    """Evaluate psi(r) for scalar or array distances r >= 0.

    Returns a float for scalar input, an ndarray otherwise.  psi(0) is
    exactly 1 for every family, and psi(inf) is 0.
    """
    rr, scalar = _as_r(r, allow_zero=True)
    p = family.params
    if family.kind in ("Stable", "Cauchy"):
        out = _outer(p, (p.scale * rr) ** p.alpha, 0)[0]
    elif family.kind == "Spherical":
        x = p.scale * rr
        xc = np.minimum(x, 1.0)   # the cubic is not formed past the range: it would overflow
        out = np.where(x < 1.0, 1.0 - 1.5 * xc + 0.5 * xc ** 3, 0.0)
    else:  # Matern; psi is 1 to double precision below the cut-off
        out = _matern_kx(p.nu, p.scale * rr, p.nu, p.nu, fill=1.0)
    # r = 0 must give exactly 1
    out = np.where(rr == 0.0, 1.0, out)
    return _maybe_scalar(out, scalar)


def _chain_deriv(p: Union[StableParams, CauchyParams], rr: np.ndarray, orders) -> list:
    """[d^k/dr^k G(t(r)) for k in orders], orders from 1..3, by one Faa di Bruno pass;
    t_k = d^k t/dr^k = t_(k-1) (alpha-k+1)/r.  Each order's values are the same
    whatever other orders are asked with it."""
    a, top = p.alpha, max(orders)
    t = (p.scale * rr) ** a
    g = _outer(p, t, top)
    t1 = a * t / rr
    t2 = t1 * (a - 1.0) / rr if top > 1 else None
    t3 = t2 * (a - 2.0) / rr if top > 2 else None
    chains = {1: lambda: g[1] * t1,
              2: lambda: g[2] * t1 * t1 + g[1] * t2,
              3: lambda: g[3] * t1 * t1 * t1 + 3.0 * g[2] * t1 * t2 + g[1] * t3}
    return [chains[k]() for k in orders]


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


def _matern_deriv(p: MaternParams, rr: np.ndarray, order: int) -> np.ndarray:
    """s**order phi^(order)(s*r), phi = c x**nu K_nu(x) (DLMF 10.29.4), NaN at s*r <= 1e-150;
    K_(nu-2) is read directly from nu = 1 on, below as K_nu - 2(nu-1)/x K_(nu-1): no cancelling."""
    s, nu, x = p.scale, p.nu, p.scale * rr
    def k(power, q): return _matern_kx(nu, x, power, q, fill=np.nan)
    if order == 1:
        return -s * k(nu, nu - 1.0)
    if nu >= 1.0:
        return s ** order * (k(nu, nu - 2.0) - k(nu - 1.0, nu - 1.0) if order == 2
                             else 3.0 * k(nu - 1.0, nu - 2.0) - k(nu, nu - 3.0))
    if order == 2:
        return s ** 2 * (k(nu, nu) - (2.0 * nu - 1.0) * k(nu - 1.0, nu - 1.0))
    return s ** 3 * ((2.0 * nu - 1.0) * (k(nu, nu) - 2.0 * (nu - 1.0) * k(nu - 1.0, nu - 1.0))
                     / x - k(nu, nu - 1.0))


def derivative(family: CorrelationFamily, r, order: int):
    """Radial derivative of psi of the given order (1, 2, or 3) at r > 0.

    Every family has a closed form: stable and Cauchy chain their outer function,
    Matern reads Bessel K terms (NaN where scale*r <= 1e-150), and spherical is
    piecewise polynomial and rejects points within 1e-9/scale of its kink at 1/scale.
    """
    if order not in (1, 2, 3):
        raise ValueError(f"derivative order must be 1, 2 or 3, got {order}")
    rr, scalar = _as_r(r, allow_zero=False)
    out, = _radial_derivatives(family, rr, (order,))
    return _maybe_scalar(out, scalar)


def _radial_derivatives(family: CorrelationFamily, rr: np.ndarray, orders) -> list:
    """[psi^(k)(r) for k in orders] at a 1-d float array rr > 0, unchecked: each is
    :func:`derivative`'s value, a stable or Cauchy member's all from one chain."""
    p = family.params
    if family.kind in ("Stable", "Cauchy"):
        return _chain_deriv(p, rr, orders)
    deriv = _spherical_deriv if family.kind == "Spherical" else _matern_deriv
    return [deriv(p, rr, k) for k in orders]


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
        # psi at nu +- h straight from _matern_kx, as evaluate reads it: nu + h may pass NU_MAX
        parts = (lambda: (_matern_kx(p.nu + h, x, p.nu + h, p.nu + h, fill=1.0)
                          - _matern_kx(p.nu - h, x, p.nu - h, p.nu - h, fill=1.0)) / (2.0 * h),
                 lambda: -_matern_kx(p.nu, x, p.nu + 1.0, p.nu - 1.0, fill=0.0))
    elif family.kind in ("Stable", "Cauchy"):
        # dt/dalpha = t log x, dt/dlog s = alpha t; a Cauchy member's exponent c = beta/alpha
        # adds dpsi/dc = -psi log(1 + t) times dc/dalpha = -c/alpha or dc/dbeta = 1/alpha
        a, t = p.alpha, x ** p.alpha
        psi, g1 = _outer(p, t, 1)
        parts = [lambda: g1 * t * np.log(x, out=np.zeros_like(x), where=x > 0.0),
                 lambda: a * g1 * t]
        if family.kind == "Cauchy":
            # the alpha terms sum to psi c/alpha (log1p(u) - u log u/(1 + u)), u = min(t, 1/t)
            c, u = p.beta / a, np.divide(1.0, t, out=t.copy(), where=t > 1.0)
            u_log_u = u * np.log(u, out=np.zeros_like(u), where=u > 0.0)
            parts = [lambda: c / a * psi * (np.log1p(u) - u_log_u / (1.0 + u)), parts[1],
                     lambda: -psi * np.log1p(t) / a]
    else:
        raise ValueError(f"no parameter derivatives for the {family.kind} family")
    return psi, [d() if f else None for d, f in zip(parts, free)]
