"""Cross-correlation validity bounds for the bivariate models.

The central quantity is the infimum over r > 0 of a positive integrand
assembled from closed-form auxiliary functions (``q_fn`` for the powered
exponential family, ``p_fn`` for the generalized Cauchy family).  The square
root of that infimum bounds the colocated correlation rho: any |rho| at or
below the bound yields a provably positive definite model in R^n, n in
{1, 3}.  A zero infimum is NOT a proof of invalidity, so outcomes carry a
three-way decidability tag:

* ``SufficientBound``     -- positive infimum; |rho| <= bound is certified.
* ``NecessarilyZero``     -- a spectral necessary condition forces rho = 0.
* ``ZeroInfimumInconclusive`` -- the infimum is zero but nothing forces
                                 rho = 0; the bound is simply uninformative.

One table-driven engine serves both families.  Each auxiliary function is
a polynomial in t = (s r)^alpha over a power of (1 + t); one table gives its
coefficients and that power, and ``q_fn``, ``p_fn``, the raw integrands, both
endpoint limits and the log terms all read it.  A member's term,
log k + log t + log|q or p| (- t for a stable member), k = alpha or beta, is
the one function of log r behind the log-domain integrand (the sum of the
terms of psi11, psi12 and psi22, weighted 1, -2, 1) and behind the gradient
of the fit's rho cap.  Any number of same-family members are evaluated as
the rows of one array pass, so an integrand call and a gradient each make
one.  Beyond the table the families differ only in the stable -t and the
case rules.

The engine works on the log of the integrand (the raw integrand overflows
double precision near the endpoints), scanning a log-spaced grid, refining
the best local minima by a zoom, and evaluating the r -> 0+ and r -> infinity
limits exactly from the exponent structure.  Each zoom pass samples every
bracket evenly in one integrand call and keeps the cells around its lowest
point, so four calls take the brackets to 1e-8 in log r.  A flat minimum is
located only to about sqrt(eps) anyway: ``infimum_location`` is good to about
1e-8 in log r, and the bound lies at most 1e-11 relative above the fully
refined value.  A grid minimum on the edge of the window (or of its finite
values) certifies nothing: the report is ``ZeroInfimumInconclusive`` at
``AtWindowEdge``.

``generic_sufficient_check`` recomputes the same bound from raw derivatives
of the correlation functions (a second, independent code path) for any model
whose members are smooth enough; it must agree with the closed forms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bimodels import BivariateModel
from .corrfn import (CorrelationFamily, _as_r, _check_n13, _maybe_scalar, _radial_derivatives,
                     _require, evaluate)
from .spectral import spherical_density_closed_form, tan_roots

__all__ = [
    "ExcludedPoint",
    "NotApplicable",
    "ValidityReport",
    "TrivialityVerdict",
    "q_fn",
    "p_fn",
    "stable_bound_integrand",
    "cauchy_bound_integrand",
    "max_rho_stable",
    "max_rho_cauchy",
    "generic_sufficient_check",
    "spherical_triviality",
    "certify",
]

AT_ZERO = "AtZero"
AT_INFINITY = "AtInfinity"
AT_WINDOW_EDGE = "AtWindowEdge"

SUFFICIENT = "SufficientBound"
NECESSARILY_ZERO = "NecessarilyZero"
INCONCLUSIVE = "ZeroInfimumInconclusive"

_QZERO_TOL = 1e-12   # |q12| below this is an excluded point of the infimum
_EQ_TOL = 1e-12      # relative tolerance for parameter equality in case analysis


class ExcludedPoint(ValueError):
    """The cross auxiliary function vanishes at this r; the point is excluded."""


class NotApplicable(Exception):
    """The generic derivative criterion's preconditions fail for this model."""


@dataclass(frozen=True, kw_only=True)
class ValidityReport:
    """One route's answer in R^n: ``case`` names it, None marks a field it has no value for."""
    rho_bound_raw: float | None = None
    rho_bound: float | None = None
    infimum: float | None = None
    case: str
    infimum_location: object = None   # positive float, or AT_ZERO / AT_INFINITY / AT_WINDOW_EDGE
    decidability: str
    n: int
    note: str = ""
    witness_u: float | None = None    # a frequency where the spectral determinant is negative


@dataclass(frozen=True)
class TrivialityVerdict:
    valid: bool
    witness_u: float | None
    reason: str


# ---------------------------------------------------------------------------
# The per-family table: q and p as polynomials in t over a power of (1 + t).

def _aux_table(n: int, alpha: float, beta: float | None):
    """Coefficients of t^deg, ..., t^0 and the power of (1 + t) dividing them.

    q (stable family, ``beta is None``) and p (Cauchy family) both read
    sum_k c_k t^k / (1 + t)^d with t = (s r)^alpha, deg = 1 for n = 1 and
    deg = 2 for n = 3.  The linear Cauchy coefficient for n = 3 is fixed by
    the identity psi''(r) - r psi'''(r) = beta s^alpha r^(alpha-2) p(r); any
    other value breaks it (cross-checked against raw derivatives in the test
    suite).
    """
    c0 = 1.0 - alpha if n == 1 else (alpha - 1.0) * (alpha - 3.0)
    if beta is None:
        if n == 1:
            return (alpha, c0), 0.0
        return (alpha ** 2, alpha * (4.0 - 3.0 * alpha), c0), 0.0
    if n == 1:
        return (beta + 1.0, c0), beta / alpha + 2.0
    k1 = 4.0 * beta + 6.0 - 4.0 * alpha - 3.0 * alpha * beta - alpha ** 2
    return ((beta + 1.0) * (beta + 3.0), k1, c0), beta / alpha + 3.0


def _aux(n: int, alpha: float, beta: float | None, s: float, rr: np.ndarray):
    coefs, denom = _aux_table(n, alpha, beta)
    t = (s * rr) ** alpha
    deg = len(coefs) - 1
    out = sum(c * t ** (deg - k) for k, c in enumerate(coefs))
    return out / (1.0 + t) ** denom if denom else out


def q_fn(alpha: float, s: float, n: int, r):
    """Powered-exponential auxiliary function for dimension n in {1, 3}."""
    _check_n13(n)
    rr, scalar = _as_r(r, False, "r")
    out = _aux(n, alpha, None, s, rr)
    return _maybe_scalar(out, scalar)


def p_fn(alpha: float, beta: float, s: float, n: int, r):
    """Generalized-Cauchy auxiliary function for dimension n in {1, 3}; the n = 3 linear
    coefficient is fixed by psi''(r) - r psi'''(r) = beta s^alpha r^(alpha-2) p(r)."""
    _check_n13(n)
    rr, scalar = _as_r(r, False, "r")
    out = _aux(n, alpha, beta, s, rr)
    return _maybe_scalar(out, scalar)


# ---------------------------------------------------------------------------
# Parameter extraction and the public integrands.

def _members(model: BivariateModel, kind: str):
    """(alpha, beta, scale) of psi11, psi12, psi22; beta is None for stable."""
    fams = (model.psi11, model.psi12, model.psi22)
    for f in fams:
        if f.kind != kind:
            raise ValueError(f"model members must all be of the {kind} family")
    if model.psi11.params.alpha > 1.0 or model.psi22.params.alpha > 1.0:
        raise ValueError("marginal smoothness must lie in (0, 1]")
    return tuple((f.params.alpha, getattr(f.params, "beta", None), f.params.scale)
                 for f in fams)


def _bound_integrand(model: BivariateModel, kind: str, n: int, r):
    _check_n13(n)
    members = _members(model, kind)
    (a11, b11, s11), (a12, b12, s12), (a22, b22, s22) = members
    rr, scalar = _as_r(r, False, "r")
    v11, v12, v22 = (_aux(n, a, b, s, rr) for a, b, s in members)
    bad = np.abs(v12) < _QZERO_TOL
    if np.any(bad):
        name = "q12" if kind == "Stable" else "p12"
        raise ExcludedPoint(f"{name} vanishes at r = {rr[bad][0]:.17g}")
    k11, k12, k22 = (a11, a12, a22) if kind == "Stable" else (b11, b12, b22)
    pref = (k11 * k22 * s11 ** a11 * s22 ** a22) / (k12 ** 2 * s12 ** (2.0 * a12))
    with np.errstate(over="ignore", under="ignore"):
        out = pref * rr ** (a11 + a22 - 2.0 * a12)
        if kind == "Stable":
            out = out * np.exp(2.0 * (s12 * rr) ** a12 - (s11 * rr) ** a11
                               - (s22 * rr) ** a22)
        out = out * v11 * v22 / v12 ** 2
    return _maybe_scalar(out, scalar)


def stable_bound_integrand(model: BivariateModel, n: int, r):
    """The expression under the infimum for the powered exponential bound.

    Includes the constant prefactor, so an all-equal model gives exactly 1
    for every r.  Raises :class:`ExcludedPoint` where |q12(r)| < 1e-12.
    """
    return _bound_integrand(model, "Stable", n, r)


def cauchy_bound_integrand(model: BivariateModel, n: int, r):
    """The expression under the infimum for the generalized Cauchy bound.

    Includes the constant prefactor; raises :class:`ExcludedPoint` where
    |p12(r)| < 1e-12.
    """
    return _bound_integrand(model, "Cauchy", n, r)


# ---------------------------------------------------------------------------
# Log-domain evaluation of the integrands (engine internals).

def _log_terms(n: int, members):
    """log r -> (terms, signs), each (k, m) for k same-family members at m values of
    log r: row i holds member i's log k + log t + log|q or p| (- t if stable), k = alpha
    or beta, t = (s r)^alpha, and the sign of q or p.  The polynomial is evaluated in
    u = min(t, 1/t), as t^deg times the reversed polynomial for t > 1, and log(1 + t) as
    max(log t, 0) + log1p(u), so neither overflows.  Horner's rule y = y u + c over the
    coefficient columns, from y = 0, is ``np.polyval``'s, so each row is bit-equal to a
    one-member call."""
    stable = members[0][1] is None
    tables = [_aux_table(n, a, b) for a, b, _ in members]
    coefs, denom = np.array([c for c, _ in tables]), np.array([[d] for _, d in tables])
    deg = coefs.shape[1] - 1
    # one column each: row i holds member i's alpha, log s and log k
    a, log_s, log_k = np.array([(a, math.log(s), math.log(a if b is None else b))
                                for a, b, s in members]).T[:, :, None]

    def fn(lr: np.ndarray):
        lt = a * (log_s + lr)
        u, big = np.exp(-np.abs(lt)), np.maximum(lt, 0.0)
        low = high = np.zeros_like(u)
        for j in range(deg + 1):
            low = low * u + coefs[:, j, None]
            high = high * u + coefs[:, deg - j, None]
        poly = np.where(lt <= 0.0, low, high)
        with np.errstate(divide="ignore", over="ignore"):
            term = log_k + lt + np.log(np.abs(poly)) + deg * big
            if stable:
                return term - np.exp(lt), np.sign(poly)
            term = term - denom * (big + np.log1p(u))
        # a Cauchy term is finite wherever its polynomial is not zero, unless it overflowed
        finite = np.isfinite(term)
        if not finite.all():
            for (a_, b_, s_), ok in zip(members, (finite | (poly == 0.0)).all(axis=1)):
                _require(ok, f"the log term of the Cauchy member alpha = {a_:g}, beta = {b_:g}, "
                             f"scale = {s_:g} leaves the double range")
        return term, np.sign(poly)

    return fn


def _log_integrand(members, n: int):
    """log r -> (log of the bound integrand, sign of the cross factor): the
    :func:`_log_terms` sum term11 + term22 - 2 term12, NaN wherever a marginal
    factor is not positive or the cross factor vanishes."""
    terms = _log_terms(n, members)

    def fn(lr: np.ndarray):
        lr = np.atleast_1d(np.asarray(lr, dtype=float))
        (l11, l12, l22), (g11, g12, g22) = terms(lr)
        # a sum past the double range is +-inf, as the integrand's own value: no bound rests on it
        with np.errstate(invalid="ignore", over="ignore"):
            li = l11 + l22 - 2.0 * l12
        return np.where((g11 > 0) & (g22 > 0) & (g12 != 0), li, np.nan), g12

    return fn


# ---------------------------------------------------------------------------
# Exact endpoint limits.

def _near(x: float, y: float) -> bool:
    return abs(x - y) <= _EQ_TOL * max(1.0, abs(x), abs(y))


_WEIGHTS = (1.0, -2.0, 1.0)   # of psi11, psi12, psi22 in the log-integrand


def _endpoint(members, n: int, tag: str) -> tuple[float, float]:
    """(log-limit, constant) of the log-integrand at r -> 0+ or r -> infinity.

    The log-integrand sums, weighted 1, -2, 1 over psi11, psi12, psi22, the
    terms of :func:`_log_terms`, log k + log t + log|q or p| (- t if stable),
    and this returns the limits of that sum.  Beside -t each term behaves
    like kappa log r + c: q or p tends to its constant coefficient at r -> 0+
    (its linear one times t when alpha is 1 within the case tolerance) and to
    its top one over t^d at infinity.  The stable -(s r)^alpha terms decide
    first, then the net kappa; a cancelled kappa leaves the constant as the
    limit.  The constant is returned either way, for a fit to difference; it
    sums c11 + c22 - 2 c12 as the log-integrand sums its terms, so a component
    swap gives the same bits.
    """
    kappas, consts = [], []
    for a, b, s in members:
        coefs, denom = _aux_table(n, a, b)
        if tag == AT_ZERO:
            j = 2 if _near(a, 1.0) else 1   # alpha == 1: the constant vanishes
            kappa, c = j * a, coefs[-j]
        else:
            kappa, c = (len(coefs) - denom) * a, coefs[0]
        kappas.append(kappa)
        consts.append(math.log(a if b is None else b) + kappa * math.log(s) + math.log(abs(c)))
    const = consts[0] + consts[2] - 2.0 * consts[1]
    if tag == AT_INFINITY and members[0][1] is None:
        # -sum w (s r)^alpha: group equal exponents, then the largest
        # exponent with a nonzero net coefficient decides
        groups: dict[float, float] = {}
        for w, (a, _, s) in zip(_WEIGHTS, members):
            key = next((e for e in groups if _near(e, a)), a)
            groups[key] = groups.get(key, 0.0) - w * s ** a
        mag = sum(abs(w) * s ** a for w, (a, _, s) in zip(_WEIGHTS, members))
        for a in sorted(groups, reverse=True):
            if abs(groups[a]) > _EQ_TOL * mag:
                return math.copysign(math.inf, groups[a]), const
    # net kappa times the sign of log r at this end
    net = (-1.0 if tag == AT_ZERO else 1.0) * sum(w * k for w, k in zip(_WEIGHTS, kappas))
    if abs(net) <= _EQ_TOL * max(1.0, *map(abs, kappas)):
        return const, const
    return math.copysign(math.inf, net), const


def _limits(members, n: int):
    """(log-limit, tag) candidates at r -> 0+ and r -> infinity; a -inf limit
    means the integrand tends to 0 there, +inf limits never constrain it."""
    return [(value, tag) for tag in (AT_ZERO, AT_INFINITY)
            for value in (_endpoint(members, n, tag)[0],) if value < math.inf]


# ---------------------------------------------------------------------------
# The infimum engine: grid scan + zoom refinement + exact limits.

_GRID_LO, _GRID_HI = math.log(1e-8), math.log(1e8)
_GRID_POINTS = 512    # scan of log r over [_GRID_LO, _GRID_HI], 32 points a decade
_ZOOM_POINTS = 129    # odd: each zoom pass re-samples the previous best point at its centre
# bracket width in log r at which the zoom stops, four passes from two grid cells:
# the location is good to about 1e-8 in log r, the bound at most 1e-11 relative
# above the fully refined one (2.7e-12 on 2,000 seeded models against a 1e-12 stop)
_ZOOM_TOL = 1e-8


def _zoom(f, a: np.ndarray, b: np.ndarray, tol: float):
    """Minima (x, f(x)) on brackets [a_i, b_i], NaN counting as +inf.  Each
    pass samples every bracket at ``_ZOOM_POINTS`` even steps in one f call
    and keeps the two cells around its lowest point, shrinking the widths by
    (P - 1) / 2, until all are at most ``tol``."""
    half = (_ZOOM_POINTS - 1) // 2
    steps = np.arange(-half, half + 1) / half
    c, h, rows = 0.5 * (a + b), 0.5 * (b - a), np.arange(a.size)
    while True:
        x = c[:, None] + h[:, None] * steps
        fx = f(x.ravel()).reshape(x.shape)
        j = np.argmin(np.where(np.isnan(fx), np.inf, fx), axis=1)
        c, h = x[rows, np.minimum(np.maximum(j, 1), 2 * half - 1)], h / half
        if 2.0 * h.max() <= tol:
            return x[rows, j], fx[rows, j]


def _scan_infimum(log_fn, limits, grid_points: int = _GRID_POINTS, n_brackets: int = 8,
                  grid_values=None):
    """Minimize a log-integrand over log(r) in [log 1e-8, log 1e8].

    Returns (log_infimum, location), location a positive r or a tag.  The
    candidates are the ``n_brackets`` lowest interior local minima of the
    grid, each refined by :func:`_zoom` over its two grid cells (all in the
    same passes), the best grid point unless refined, and the limits; ties
    go to the earlier one.  A winning grid point off the interior minima (on
    the window edge or next to a non-finite value), or no candidate at all,
    bounds nothing, as the integrand may fall further where the grid does
    not see it: (-inf, AT_WINDOW_EDGE).
    ``grid_values`` is ``log_fn`` on the grid, for a caller that has it already.
    """
    x = np.linspace(_GRID_LO, _GRID_HI, grid_points)
    li, sgn = log_fn(x) if grid_values is None else grid_values
    finite = np.isfinite(li)
    interior = np.zeros(li.shape, dtype=bool)
    interior[1:-1] = (finite[1:-1] & finite[:-2] & finite[2:]
                      & (li[1:-1] <= li[:-2]) & (li[1:-1] <= li[2:])
                      & (sgn[1:-1] == sgn[:-2]) & (sgn[1:-1] == sgn[2:]))
    idx = np.flatnonzero(interior)
    idx = idx[np.argsort(li[idx])[:n_brackets]]

    candidates: list[tuple[float, object]] = []
    if idx.size:
        xm, fm = _zoom(lambda t: log_fn(t)[0], x[idx - 1], x[idx + 1], _ZOOM_TOL)
        candidates += [(float(v), math.exp(t)) for t, v in zip(xm, fm) if math.isfinite(v)]
    vals, inner = np.where(finite, li, np.inf), np.where(interior, li, np.inf)
    best = int(np.argmin(inner))
    if vals.min() < inner[best]:   # no interior minimum reaches the grid's lowest value
        candidates.append((float(vals.min()), AT_WINDOW_EDGE))
    elif inner[best] < math.inf and best not in idx:
        candidates.append((float(inner[best]), math.exp(float(x[best]))))
    candidates += limits
    value, where = min(candidates, key=lambda c: (c[0], isinstance(c[1], str)),
                       default=(-math.inf, AT_WINDOW_EDGE))
    return (-math.inf, where) if where == AT_WINDOW_EDGE else (value, where)


# ---------------------------------------------------------------------------
# Case classification by smoothness ordering.  Each rule returns the case
# and what it forces on its own: NECESSARILY_ZERO, INCONCLUSIVE (no positive
# infimum is promised), or None (the case promises a positive infimum).

def _lt(x, y):
    return x < y and not _near(x, y)


def _gt(x, y):
    return x > y and not _near(x, y)


def _stable_case(members, n: int) -> tuple[str, str | None]:
    (a11, _, s11), (a12, _, s12), (a22, _, s22) = members
    if _lt(a12, 0.5 * (a11 + a22)):
        return "alpha12-below-mean", NECESSARILY_ZERO
    if _near(a12, a11) and _near(a12, a22):
        lhs, rhs = s12 ** a11, 0.5 * (s11 ** a11 + s22 ** a11)
        case = "i" if (lhs > rhs or _near(lhs, rhs)) else "no-positive-case"
    elif _near(a12, a11) and _gt(a11, a22):
        case = "ii" if _gt(s12, 2.0 ** (-1.0 / a11) * s11) else "no-positive-case"
    elif _near(a12, a22) and _gt(a22, a11):
        case = "iii" if _gt(s12, 2.0 ** (-1.0 / a22) * s22) else "no-positive-case"
    else:
        case = "iv" if _gt(a12, max(a11, a22)) else "no-positive-case"
    return case, INCONCLUSIVE if case == "no-positive-case" else None


def _cauchy_case(members, n: int) -> tuple[str, str | None]:
    (a11, b11, _), (a12, b12, _), (a22, b22, _) = members
    if _lt(a12, 0.5 * (a11 + a22)):
        return "i", NECESSARILY_ZERO
    if _lt(b12, 0.5 * (b11 + b22)):
        if _lt(b11, n) and _lt(b22, n) and _lt(b12, n):
            return "ii", NECESSARILY_ZERO
        for bii, bjj in ((b11, b22), (b22, b11)):
            if _lt(2.0 * b12, bii + n) and _lt(bii, n) and _gt(bjj, n):
                return "iii", NECESSARILY_ZERO
        return "iv", INCONCLUSIVE
    return "v", None


_EDGE_NOTE = ("infimum vanishes at the origin because a smoothness parameter sits "
              "exactly at 1, where the sufficiency case analysis does not apply")
_WINDOW_NOTE = ("the scanned integrand is lowest on the edge of the r window or of its "
                "finite values, so the scan bounds nothing: it may fall further beyond")


def _resolve_dim(n: int) -> tuple[int, str]:
    """The dimension whose criterion answers n, and a note when it is not n."""
    if n == 2:
        return 3, "n = 2 answered by the n = 3 criterion (validity in R^3 implies R^2)"
    _check_n13(n)
    return n, ""


def _finish_report(log_inf, location, case, decidability, n, note) -> ValidityReport:
    if decidability == NECESSARILY_ZERO:
        log_inf = -math.inf
    infimum, raw = math.exp(log_inf), math.exp(0.5 * log_inf)
    return ValidityReport(rho_bound_raw=raw, rho_bound=min(raw, 1.0), infimum=infimum,
                          case=case, infimum_location=location,
                          decidability=decidability, n=n, note=note)


def _max_rho(model: BivariateModel, kind: str, n: int, grid_points: int,
             refine_brackets: int) -> ValidityReport:
    n_used, note = _resolve_dim(n)
    members = _members(model, kind)
    # the case rules read the asked n: a Cauchy rule's beta-versus-n comparison comes
    # from an R^n density behaving like u^(beta - n) at the origin, true in every n
    case, forced = (_stable_case if kind == "Stable" else _cauchy_case)(members, n)
    log_inf, location = _scan_infimum(_log_integrand(members, n_used),
                                      _limits(members, n_used), grid_points=grid_points,
                                      n_brackets=refine_brackets)
    if forced == NECESSARILY_ZERO:
        decidability = NECESSARILY_ZERO
    elif log_inf > -math.inf:
        decidability = SUFFICIENT
    else:
        decidability = INCONCLUSIVE
        why = _WINDOW_NOTE if location == AT_WINDOW_EDGE else _EDGE_NOTE if forced is None else ""
        note = "; ".join(filter(None, (note, why)))
    return _finish_report(log_inf, location, case, decidability, n_used, note)


def _log_infimum_gradient(model: BivariateModel, report: ValidityReport) -> list[list[float]]:
    """Derivatives of the log infimum in each member's (alpha, log scale[, beta]).

    The candidate that won in ``report`` is held fixed (envelope theorem) and
    differenced centrally in one parameter at a time: the constant of a
    winning limit (see :func:`_endpoint`), or the moved member's term at the
    winning r.  The terms of all moved members (12 stable, 18 Cauchy) are the
    rows of one :func:`_log_terms` call.
    """
    members, n, loc = _members(model, model.psi11.kind), report.n, report.infimum_location
    steps, moved = [], []   # (q, h) of each parameter; (q, member) moved by +h, then by -h
    for q, (a, b, s) in enumerate(members):
        params = [a, math.log(s)] + ([] if b is None else [b])
        for k, v in enumerate(params):
            h = 1e-6 * max(1.0, abs(v))
            steps.append((q, h))
            for end in (v + h, v - h):
                p = params[:k] + [end] + params[k + 1:]
                moved.append((q, (p[0], None if b is None else p[2], math.exp(p[1]))))
    if isinstance(loc, str):
        ends = [_endpoint(members[:q] + (m,) + members[q + 1:], n, loc)[1] for q, m in moved]
    else:
        terms = _log_terms(n, [m for _, m in moved])(np.array([math.log(loc)]))[0][:, 0]
        ends = [_WEIGHTS[q] * float(v) for (q, _), v in zip(moved, terms)]
    out = [[] for _ in members]
    for (q, h), plus, minus in zip(steps, ends[::2], ends[1::2]):
        out[q].append((plus - minus) / (2.0 * h))
    return out


def max_rho_stable(model: BivariateModel, n: int, grid_points: int = _GRID_POINTS,
                   refine_brackets: int = 8) -> ValidityReport:
    """Maximum certifiable |rho| for a bivariate powered exponential model."""
    return _max_rho(model, "Stable", n, grid_points, refine_brackets)


def max_rho_cauchy(model: BivariateModel, n: int, grid_points: int = _GRID_POINTS,
                   refine_brackets: int = 8) -> ValidityReport:
    """Maximum certifiable |rho| for a bivariate generalized Cauchy model."""
    return _max_rho(model, "Cauchy", n, grid_points, refine_brackets)


# ---------------------------------------------------------------------------
# Generic route: the same bound from raw derivatives of arbitrary members.

def _second_form(fam: CorrelationFamily, rr: np.ndarray, n: int) -> np.ndarray:
    """psi'' (n = 1) or psi'' - r psi''' (n = 3) at a 1-d array r > 0 that the caller
    built, so unchecked; a stable or Cauchy member takes both orders from one chain."""
    d = _radial_derivatives(fam, rr, (2,) if n == 1 else (2, 3))
    return d[0] if n == 1 else d[0] - rr * d[1]


def generic_sufficient_check(model: BivariateModel, n: int) -> ValidityReport:
    """Bound |rho| from derivative ratios of any sufficiently smooth members.

    Works directly on psi'' (n = 1) or psi'' - r psi''' (n = 3), with no
    family-specific algebra; for stable and Cauchy members the result must
    coincide with the closed-form routes.  Raises :class:`NotApplicable`
    when the preconditions fail on the probe grid (marginal second-order
    forms must be nonnegative, members must decay, spherical members are
    rejected outright because of their kink) or the ratio has no finite minimum.
    """
    n_used, note = _resolve_dim(n)
    fams = (model.psi11, model.psi12, model.psi22)
    if any(f.kind == "Spherical" for f in fams):
        raise NotApplicable("spherical members are not smooth enough at their kink")

    def forms(r):
        with np.errstate(over="ignore", under="ignore", invalid="ignore", divide="ignore"):
            return tuple(_second_form(f, r, n_used)
                         for f in (model.psi11, model.psi22, model.psi12))

    def log_ratio(a, b, c):
        with np.errstate(over="ignore", under="ignore", invalid="ignore", divide="ignore"):
            li = np.log(a) + np.log(b) - 2.0 * np.log(np.abs(c))
        return np.where(np.isfinite(li), li, np.nan), np.sign(c)

    def log_fn(lx):
        return log_ratio(*forms(np.exp(np.atleast_1d(np.asarray(lx, dtype=float)))))

    x = np.linspace(_GRID_LO, _GRID_HI, _GRID_POINTS)
    d11, d22, d12 = forms(np.exp(x))

    for name, fam, vals in (("psi11", model.psi11, d11), ("psi22", model.psi22, d22)):
        good = np.isfinite(vals)
        if np.min(vals[good]) < -1e-8 * max(1.0, np.max(np.abs(vals[good]))):
            raise NotApplicable(f"{name} violates the marginal second-order sign condition")
        tail = evaluate(fam, np.array([1e4, 1e6, 1e8]))
        if not (tail[2] < 0.999 and tail[2] <= tail[1] <= tail[0]):
            raise NotApplicable(f"{name} does not decay over the probe grid")
    tail12 = evaluate(model.psi12, np.array([1e4, 1e6, 1e8]))
    if not (tail12[2] < 0.999 and tail12[2] <= tail12[1] <= tail12[0]):
        raise NotApplicable("psi12 does not decay over the probe grid")

    log_inf, location = _scan_infimum(log_fn, [], grid_values=log_ratio(d11, d22, d12))
    if location == AT_WINDOW_EDGE:
        raise NotApplicable("the derivative ratio has no interior minimum on the grid: it "
                            "falls to the window edge or until the raw derivatives underflow")
    return _finish_report(log_inf, location, "generic", SUFFICIENT, n_used, note)


# ---------------------------------------------------------------------------
# Bivariate spherical impossibility.

_WITNESS_ROOTS = 200   # marginal density zeros searched for a witness frequency


def _spherical_valid(s11: float, s12: float, s22: float, rho: float) -> str | None:
    """Why the bivariate spherical model is valid in every dimension, or None."""
    if rho == 0.0:
        return "rho is zero"
    if _near(s11, s12) and _near(s12, s22) and _near(s11, s22):
        return "all scales equal"
    return None


def spherical_triviality(s11: float, s12: float, s22: float, rho: float) -> TrivialityVerdict:
    """Decide validity of the bivariate spherical model in R^3.

    The model is valid in R^3 exactly when rho = 0 or all three scales
    coincide.  Otherwise a frequency is produced at which the R^3 spectral
    matrix has a negative determinant: the zeros of one marginal density (at
    twice its scale times the tan-equation roots) are generically not zeros
    of the cross density.  The refutation is an R^3 argument and proves
    nothing in R^1 or R^2: in R^1 every member's density is positive.
    """
    for name, s in (("s11", s11), ("s12", s12), ("s22", s22)):
        if s <= 0.0:
            raise ValueError(f"{name} must be positive")
    if abs(rho) > 1.0:
        raise ValueError("|rho| must not exceed 1")
    reason = _spherical_valid(s11, s12, s22, rho)
    if reason:
        return TrivialityVerdict(True, None, reason)

    base = s11 if not _near(s12, s11) else s22
    roots = tan_roots(_WITNESS_ROOTS)
    us = 2.0 * base * roots
    f11 = spherical_density_closed_form(s11, us)
    f22 = spherical_density_closed_form(s22, us)
    f12 = spherical_density_closed_form(s12, us)
    lhs = f11 * f22
    rhs = rho ** 2 * f12 ** 2
    hit = (rhs > 1e3 * lhs) & (rhs > 1e-300)
    if np.any(hit):
        u_star = float(us[np.argmax(hit)])
        return TrivialityVerdict(False, u_star,
                                 "spectral determinant negative at the witness frequency")
    return TrivialityVerdict(False, None,
                             f"distinct scales make the model invalid, but no witness "
                             f"frequency surfaced within the first {_WITNESS_ROOTS} density zeros")


# ---------------------------------------------------------------------------
# One answer for every model kind.

def certify(model, n: int) -> ValidityReport:
    """The validity of a model of any kind in R^n, n in {1, 2, 3}.

    Stable and Cauchy models take :func:`max_rho_stable` or :func:`max_rho_cauchy` in
    the engine's one mode, looked up at call time so that a wrapper set on this module
    sees every call; :func:`spherical_triviality` refutes in R^3 only; an LMC, or a
    separable (rho = 0) model of another kind, is valid as it stands; any other model
    takes :func:`generic_sufficient_check`, inconclusive where it raises NotApplicable.
    """
    n_used, _ = _resolve_dim(n)
    kind = model.kind
    if kind in ("stable", "cauchy"):
        return (max_rho_stable if kind == "stable" else max_rho_cauchy)(model, n)
    if kind == "lmc":
        return ValidityReport(case="lmc", decidability=SUFFICIENT, n=n_used,
                              note="coregionalization with positive semidefinite coefficient "
                                   "matrices is valid in any dimension")
    if kind == "spherical":
        scales = [f.params.scale for f in (model.psi11, model.psi12, model.psi22)]
        if n != 3 and not _spherical_valid(*scales, model.rho):   # the search is R^3 only
            return ValidityReport(case="no-route", decidability=INCONCLUSIVE, n=n, note=(
                f"distinct spherical scales are refuted in R^3 only; nothing is proved in R^{n}"))
        verdict = spherical_triviality(*scales, model.rho)
        # a valid verdict at rho != 0 means equal scales, valid for every |rho| <= 1
        return ValidityReport(rho_bound=1.0 if verdict.valid and model.rho else 0.0,
                              case="spherical", n=n, note=verdict.reason,
                              decidability=SUFFICIENT if verdict.valid else NECESSARILY_ZERO,
                              witness_u=verdict.witness_u)
    if model.rho == 0.0:
        return ValidityReport(rho_bound=0.0, case="separable", decidability=SUFFICIENT, n=n_used,
                              note="separable model (rho = 0) is valid whenever its marginals are")
    try:
        return generic_sufficient_check(model, n)
    except NotApplicable as exc:
        return ValidityReport(case="no-route", decidability=INCONCLUSIVE, n=n_used, note=str(exc))
