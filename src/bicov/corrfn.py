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
derivatives in the parameters.  Matern members are the trapezoidal rule for
K's integral, one exp table per bucket of distances serving psi, its radial
derivatives and its derivatives in log scale and nu, all closed forms; the
module takes no finite difference.  The forms are
checked against 50-digit oracles in the test suite and are independent of the
validity module's auxiliary ratios, so the two code paths check each other.
"""

from __future__ import annotations

import functools
import math
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
# The largest Matern smoothness accepted: up to it the quadrature's values and
# derivatives are checked against 30-digit mpmath (tests/test_corrfn.py).
NU_MAX = 300.0


class KinkError(ValueError):
    """Requested a derivative too close to a non-differentiable point."""


def _require(cond: bool, msg: str) -> None:
    if not cond:
        raise ValueError(msg)


def _require_positive(value: float, name: str) -> None:
    """ValueError unless value is positive and finite (NaN fails too)."""
    _require(0.0 < value < math.inf, f"{name} must be positive and finite, got {value}")


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


# Matern members by the trapezoidal rule.  With t = e^s in DLMF 10.32.10,
# x**b K_b(x) = 2**(b-1) I_b(x) for b >= 0, where I_b(x) is the integral over
# the real line of exp(b s - e^s - (x/2)**2 e^-s) ds: psi = I_nu(x) / Gamma(nu),
# a gamma density in log time damped by exp(-(x/2)**2 e^-s).  The rule
# converges geometrically in the step (Trefethen & Weideman 2014, SIAM Review 56).
# Its nodes s_j depend only on x's binary exponent and the class of b, so one
# table exp(-(x/2)**2 e^-s_j) per bucket of distances serves every order of a
# class that a caller asks for, each summing the table with weights of its own,
# elementwise and in node order: a value has the same bits whatever is summed
# beside it.

_WINDOW = 40.0     # nodes whose log integrand lies further below its peak are dropped
_X_ZERO = 4096.0   # from x = 2**12 on every term is below the least double
_CHUNK = 1 << 13   # distances per pass over the nodes: 64 KB per array and order


def _order_class(b: float) -> int:
    """0 for an order b <= 1, else c with 2**(c-1) < b <= 2**c."""
    m, e = math.frexp(b)
    return 0 if b <= 1.0 else e - (m == 0.5)


@functools.lru_cache(maxsize=256)
def _nodes(e: int, c: int) -> tuple:
    """(s_j, -exp(-s_j), h) for x in [2**(e-1), 2**e) and orders of class c.  The
    step is min(0.25, 0.45 / (x**2 + b**2)**(1/4)) at the largest x and b; the
    nodes run over the hull of the windows where b s - e^s - (x/2)**2 e^-s lies
    within _WINDOW of its peak, at the four corners of the bucket and the class."""
    x_lo, x_hi = math.ldexp(1.0, e - 1), math.ldexp(1.0, e)
    b_lo, b_hi = (0.0, 1.0) if c == 0 else (math.ldexp(1.0, c - 1), math.ldexp(1.0, c))
    h = min(0.25, 0.45 / math.sqrt(math.hypot(x_hi, b_hi)))
    y_lo, y_hi = 0.25 * x_lo * x_lo, 0.25 * x_hi * x_hi
    span = x_hi + 2.0 * b_hi + _WINDOW + 10.0   # bounds e^s and (x/2)**2 e^-s in the windows
    s = h * np.arange(math.floor((math.log(y_lo / span) - 1.0) / h),
                      math.ceil((math.log(span) + 1.0) / h) + 1)
    keep = np.zeros(s.size, dtype=bool)
    for b in (b_lo, b_hi):
        for y in (y_lo, y_hi):
            f = b * s - np.exp(s) - y * np.exp(-s)
            keep |= f >= f.max() - _WINDOW
    s = s[np.flatnonzero(keep)[0]:np.flatnonzero(keep)[-1] + 1]
    return s, -np.exp(-s), h


def _stirling(b: float) -> float:
    """b log b - b - log Gamma(b) for b >= 1, by Stirling's series from b = 20 on,
    where the direct sum would lose the digits that cancel."""
    if b < 20.0:
        return b * math.log(b) - b - math.lgamma(b)
    r = 1.0 / (b * b)
    return 0.5 * math.log(b / (2.0 * math.pi)) - (1.0 / 12.0 - r * (
        1.0 / 360.0 - r * (1.0 / 1260.0 - r / 1680.0))) / b


def _weights(s: np.ndarray, h: float, b: float, d) -> np.ndarray:
    """h exp(b s - e^s) / Gamma(b) at the nodes (Gamma(0) read as 1), from b = 1 on
    as h exp(_stirling(b) - b (e^u - 1 - u)), u = s - log b, so no large terms cancel;
    times s - d for the sum whose integral is dI_b/db - d I_b."""
    if b >= 1.0:
        u = s - math.log(b)
        w = h * np.exp(_stirling(b) - b * (np.expm1(u) - u))
    else:
        w = h * np.exp(b * s - np.exp(s) - (math.lgamma(b) if b > 0.0 else 0.0))
    return w if d is None else w * (s - d)


def _tail_nodes(e: int, nu: float) -> tuple:
    """(s_j, -exp(-s_j), h) as :func:`_nodes` gives them, for the integrand
    (s - d) exp(nu s - e^s) (1 - exp(-(x/2)**2 e^-s)) of one order nu, whose
    mass lies where the gamma density is cut off, not where it is kept: left of
    log (x/2)**2 it falls at the rate nu alone."""
    x_lo, x_hi = math.ldexp(1.0, e - 1), math.ldexp(1.0, e)
    h = min(0.25, 0.45 / math.sqrt(math.hypot(x_hi, nu)))
    y_lo, y_hi = 0.25 * x_lo * x_lo, 0.25 * x_hi * x_hi
    depth = _WINDOW + 10.0   # (s - d) spans up to e**10 below the peak of the rest
    lo = min(math.log(y_lo), math.log(nu)) - depth / nu - 2.0
    s = h * np.arange(math.floor(lo / h), math.ceil(math.log(x_hi + 2.0 * nu + depth) / h) + 2)
    keep = np.zeros(s.size, dtype=bool)
    with np.errstate(over="ignore", divide="ignore"):   # far left, e^-s is inf: 1 - exp(...) = 1
        for y in (y_lo, y_hi):
            f = nu * s - np.exp(s) + np.log(-np.expm1(-y * np.exp(-s)))
            keep |= f >= f.max() - depth
        s = s[np.flatnonzero(keep)[0]:np.flatnonzero(keep)[-1] + 1]
        return s, -np.exp(-s), h


def _k_sums(x: np.ndarray, orders, tail: bool = False) -> list:
    """The trapezoidal sums of I_b(x) / Gamma(b), or of (dI_b/db - d I_b) / Gamma(b),
    for each (b, d) in ``orders`` (d None for the first), one array each, at
    1e-150 < x < 2**12.  Orders of one class read one exp table per bucket.
    With ``tail`` the table holds exp(...) - 1 on :func:`_tail_nodes`, one per
    order: the sums are then those of -(integral of (s - d) g(s) (1 - exp(...))),
    which equals the first for d = digamma(b), as the gamma density's own
    (s - d) g(s) integrates to 0."""
    out = [np.empty(x.size) for _ in orders]
    classes: dict = {}
    for k, (b, _) in enumerate(orders):
        classes.setdefault(b if tail else _order_class(b), []).append(k)
    nodes, fn = (_tail_nodes, np.expm1) if tail else (_nodes, np.exp)
    # one workspace for every chunk: arrays made afresh per chunk and bucket
    # fragmented the heap: the predict benchmark's peak RSS read 5 MB (2%) higher
    size = min(x.size, _CHUNK)
    tab = np.empty(size)
    work = np.empty((2, max(map(len, classes.values()), default=0) * size))
    e = np.frexp(x)[1]
    low = int(np.min(e, initial=0))
    for ee in np.flatnonzero(np.bincount(e - low)) + low:
        bucket = np.flatnonzero(e == ee)
        for c, ks in classes.items():
            s, neg_exp, h = nodes(int(ee), c)
            w = np.stack([_weights(s, h, *orders[k]) for k in ks], axis=1)[:, :, None]
            for first in range(0, bucket.size, _CHUNK):
                at = bucket[first:first + _CHUNK]
                xa = x[at]
                y = 0.25 * xa * xa
                table = tab[:y.size]
                acc, term = (a[:len(ks) * y.size].reshape(len(ks), y.size) for a in work)
                for j in range(s.size):
                    fn(np.multiply(y, neg_exp[j], out=table), out=table)
                    if j:
                        acc += np.multiply(w[j], table, out=term)
                    else:
                        np.multiply(w[0], table, out=acc)
                for k, row in zip(ks, acc):
                    out[k][at] = row
    return out


def _gamma_ratio(nu: float, k: int, b: float) -> float:
    """Gamma(b) / Gamma(nu) for b = |nu - k| > 0, 1 / Gamma(nu) for b = 0."""
    if b == 0.0:
        return 1.0 / math.gamma(nu)
    if nu >= k:   # b = nu - k exactly
        return 1.0 / math.prod(nu - i for i in range(1, k + 1))
    # nu < k <= 3: 1 / Gamma(nu) as nu / Gamma(nu + 1), finite down to the least nu
    return math.gamma(b) * nu / math.gamma(nu + 1.0)


@np.errstate(over="ignore")   # a term past the double range is inf
def _matern_terms(x: np.ndarray, terms, fill) -> list:
    """[2**(1-nu)/Gamma(nu) x**(nu-j) K_(nu-k)(x) for (nu, k, j, d) in terms] at
    x >= 0, from one call of :func:`_k_sums`: with b = |nu - k| that is
    2**(b-nu) Gamma(b)/Gamma(nu) x**(nu-j-b) times its sum.  A term with d given
    (k = j = 0) is d psi/d nu instead, for d = digamma(nu).  Each value is
    ``fill`` (one per term) at x <= 1e-150 and 0 from x = 2**12 on, inf among
    them; psi itself is at most 1.  Each sum is scaled in place, and is the
    value itself where every x is live."""
    live = (x > 1e-150) & (x < _X_ZERO)
    every = bool(live.all())
    xs = x.ravel() if every else x[live]
    orders = [(abs(nu - k), d) for nu, k, j, d in terms]
    sums, out = _k_sums(xs, orders), []
    for i, ((nu, k, j, d), (b, _), f) in enumerate(zip(terms, orders, fill)):
        r, sums[i] = sums[i], None   # each sum is let go once its value is made
        if k == j == 0 and d is None:
            np.minimum(r, 1.0, out=r)
        else:
            q = k - j if nu >= k else 2.0 * nu - (k + j)   # nu - j - b, exactly where it can be
            r *= 2.0 ** (b - nu) * _gamma_ratio(nu, k, b)
            r *= xs ** q
        if every:
            out.append(r.reshape(x.shape))
            continue
        v = np.where(x >= _X_ZERO, 0.0, f)
        v[live] = r
        out.append(v)
    return out


def evaluate(family: CorrelationFamily, r):
    """Evaluate psi(r) for scalar or array distances r >= 0.

    Returns a float for scalar input, an ndarray otherwise.  psi(0) is
    exactly 1 for every family, and psi(inf) is 0.
    """
    return _evaluate_all([family], r)[0]


def _evaluate_all(families, r) -> list:
    """[evaluate(family, r) for family in families], each value the bits of its own
    call: Matern members of one scale sum one table."""
    rr, scalar = _as_r(r, allow_zero=True)
    return [_maybe_scalar(v, scalar) for v in _correlations(families, rr)]


@np.errstate(over="ignore")   # a scaled distance past the double range is inf: psi is 0
def _correlations(families, rr: np.ndarray) -> list:
    out, shared = [], {}
    for k, family in enumerate(families):
        p = family.params
        if family.kind in ("Stable", "Cauchy"):
            out.append(_outer(p, (p.scale * rr) ** p.alpha, 0)[0])
        elif family.kind == "Spherical":
            x = p.scale * rr
            xc = np.minimum(x, 1.0)   # the cubic is not formed past the range: it would overflow
            out.append(np.where(x < 1.0, 1.0 - 1.5 * xc + 0.5 * xc ** 3, 0.0))
        else:   # Matern; psi is 1 to double precision below the cut-off
            out.append(None)
            shared.setdefault(p.scale, []).append(k)
    for scale, ks in shared.items():
        terms = [(families[k].params.nu, 0, 0, None) for k in ks]
        for k, v in zip(ks, _matern_terms(scale * rr, terms, [1.0] * len(ks))):
            out[k] = v
    # r = 0 must give exactly 1; every value is an array of this call's own
    zero = rr == 0.0
    for v in out:
        v[zero] = 1.0
    return out


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


@np.errstate(over="ignore", divide="ignore")   # a derivative past the double range is inf
def _matern_deriv(p: MaternParams, rr: np.ndarray, orders) -> list:
    """[s**k phi^(k)(s*r) for k in orders], phi = c x**nu K_nu(x) (DLMF 10.29.4), NaN at
    s*r <= 1e-150, from one table; K_(nu-2) is read directly from nu = 1 on, below as
    K_nu - 2(nu-1)/x K_(nu-1): no cancelling.  t[k, j] is c x**(nu-j) K_(nu-k)."""
    s, nu, x = p.scale, p.nu, p.scale * rr
    need = {1: [(1, 0)], 2: [(2, 0), (1, 1)] if nu >= 1.0 else [(0, 0), (1, 1)],
            3: [(2, 1), (3, 0)] if nu >= 1.0 else [(0, 0), (1, 1), (1, 0)]}
    keys = sorted({key for k in orders for key in need[k]})
    t = dict(zip(keys, _matern_terms(x, [(nu, k, j, None) for k, j in keys],
                                     [np.nan] * len(keys))))
    forms = {1: lambda: -s * t[1, 0],
             2: lambda: s ** 2 * (t[2, 0] - t[1, 1] if nu >= 1.0
                                  else t[0, 0] - (2.0 * nu - 1.0) * t[1, 1]),
             3: lambda: s ** 3 * (3.0 * t[2, 1] - t[3, 0] if nu >= 1.0 else
                                  (2.0 * nu - 1.0) * (t[0, 0] - 2.0 * (nu - 1.0) * t[1, 1])
                                  / x - t[1, 0])}
    return [forms[k]() for k in orders]


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
    if family.kind == "Spherical":
        return [_spherical_deriv(p, rr, k) for k in orders]
    return _matern_deriv(p, rr, orders)


def _param_derivatives(family, r: np.ndarray, free=(True, True, True)):
    """psi(r) and its derivatives in the family's parameters at r >= 0.

    The parameters are (alpha, log scale) for stable members, (alpha, log
    scale, beta) for Cauchy members and (nu, log scale) for Matern members;
    one whose ``free`` flag is false is not computed and comes back as None.
    psi(0) = 1 for every parameter value, so every derivative is 0 at r = 0.
    ``family`` may also be a sequence of Matern members, with one ``free`` per
    member: that gives a list of the members' values, each the bits of its own
    call, those of one scale from one table.
    """
    if not isinstance(family, CorrelationFamily):
        return _matern_param_derivatives(list(family), r, list(free))
    if family.kind == "Matern":
        return _matern_param_derivatives([family], r, [free])[0]
    p = family.params
    x = p.scale * np.asarray(r, dtype=float)
    if family.kind in ("Stable", "Cauchy"):
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


def _matern_param_derivatives(families: list, r, frees: list) -> list:
    """[(psi, [dpsi/dnu, dpsi/dlog s])] of Matern members: dpsi/dnu = (dI_nu/dnu -
    digamma(nu) I_nu) / Gamma(nu), and x dpsi/dx = -c x**(nu+1) K_(nu-1)(x)
    (DLMF 10.29.4), those of one scale from one :func:`_matern_terms` call."""
    rr = np.atleast_1d(np.asarray(r, dtype=float))
    groups: dict = {}
    for k, family in enumerate(families):
        groups.setdefault(family.params.scale, []).append(k)
    out = [None] * len(families)
    for scale, ks in groups.items():
        for k, value in zip(ks, _matern_scale_derivatives(
                [families[k].params.nu for k in ks], scale * rr, [frees[k] for k in ks])):
            out[k] = value
    return out


def _matern_scale_derivatives(nus: list, x: np.ndarray, frees: list) -> list:
    """:func:`_matern_param_derivatives` of members of smoothness nus at x = s r."""
    from scipy.special import digamma
    terms, fill = [], []
    for nu, free in zip(nus, frees):
        wanted = [(nu, 0, 0, None), (nu, 0, 0, float(digamma(nu))), (nu, 1, -1, None)]
        terms += [t for t, f in zip(wanted, (True, *free[:2])) if f]
        fill += [f for f, keep in zip((1.0, 0.0, 0.0), (True, *free[:2])) if keep]
    values = iter(_matern_terms(x, terms, fill))
    out = []
    for nu, free in zip(nus, frees):
        psi = np.where(x == 0.0, 1.0, next(values))
        d_nu = next(values) if free[0] else None
        # where psi is near 1 the sum's terms cancel, the more so the larger nu: the
        # loss measured against mpmath stays below 1e-13 of dpsi/dnu where the tail
        # takes over at 1 - psi = min(0.5, 0.01 sqrt(nu))
        near = (1.0 - psi < min(0.5, 0.01 * math.sqrt(max(nu, 1.0)))) & (x > 1e-150)
        if free[0] and np.any(near):
            d_nu[near] = _k_sums(x[near], [(nu, float(digamma(nu)))], tail=True)[0]
        d_ls = -next(values) if free[1] else None
        out.append((psi, [d_nu, d_ls]))
    return out
