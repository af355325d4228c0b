"""Property tests of the bound engine over random stable and Cauchy models.

The engine is one table-driven code path for both families, so each
property runs on both.  Examples are drawn deterministically (derandomized)
so a failure reproduces from the test alone.
"""

import math

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st
from scipy.special import logsumexp

import bicov as bc
from bicov.validity import (_ZOOM_POINTS, ExcludedPoint, _aux_table, _log_integrand,
                            _log_prefactor, _members, _signed_logsumexp, _zoom)

SETTINGS = settings(max_examples=40, deadline=None, derandomize=True,
                    suppress_health_check=[HealthCheck.too_slow])

marginal_alpha = st.floats(0.05, 1.0)
cross_alpha = st.floats(0.05, 2.0)
scale = st.floats(0.1, 10.0)
beta = st.floats(0.1, 5.0)


@st.composite
def models(draw):
    """(family, members as 11, 12, 22 tuples, n)."""
    family = draw(st.sampled_from(["stable", "cauchy"]))
    alphas = (draw(marginal_alpha), draw(cross_alpha), draw(marginal_alpha))
    betas = tuple(draw(beta) for _ in range(3)) if family == "cauchy" else None
    scales = tuple(draw(scale) for _ in range(3))
    return family, alphas, betas, scales, draw(st.sampled_from([1, 3]))


def build(family, alphas, betas, scales, swap=False):
    if swap:
        alphas, scales = alphas[::-1], scales[::-1]
        betas = betas[::-1] if betas else betas
    if family == "stable":
        return bc.stable_bivariate(1.0, 1.0, 0.0, *alphas, *scales)
    return bc.cauchy_bivariate(1.0, 1.0, 0.0, *alphas, *betas, *scales)


@SETTINGS
@given(models())
def test_component_swap_symmetry(case):
    family, alphas, betas, scales, n = case
    bound_fn = bc.max_rho_stable if family == "stable" else bc.max_rho_cauchy
    rep = bound_fn(build(family, alphas, betas, scales), n)
    swapped = bound_fn(build(family, alphas, betas, scales, swap=True), n)
    assert swapped.decidability == rep.decidability
    assert swapped.rho_bound == pytest.approx(rep.rho_bound, rel=1e-11, abs=0.0)


def _cancellation(n, alpha, beta_, s, r):
    """sum |c_k t^k| / |sum c_k t^k|: how much rounding the aux value carries."""
    coefs, _ = _aux_table(n, alpha, beta_)
    t = (s * r) ** alpha
    terms = [c * t ** (len(coefs) - 1 - k) for k, c in enumerate(coefs)]
    total = abs(sum(terms))
    return math.inf if total == 0.0 else sum(abs(x) for x in terms) / total


@SETTINGS
@given(models())
def test_log_integrand_matches_raw_integrand(case):
    family, alphas, betas, scales, n = case
    model = build(family, alphas, betas, scales)
    kind = "Stable" if family == "stable" else "Cauchy"
    raw_fn = bc.stable_bound_integrand if family == "stable" else bc.cauchy_bound_integrand
    members = _members(model, kind)
    log_fn = _log_integrand(kind, members, n, _log_prefactor(members))
    rs = np.geomspace(1e-3, 1e3, 13)
    logs, _ = log_fn(np.log(rs))
    for r, li in zip(rs, logs):
        try:
            with np.errstate(all="ignore"):
                raw = raw_fn(model, n, r)
        except ExcludedPoint:
            continue
        if not (math.isfinite(li) and math.isfinite(raw) and raw > 0.0):
            continue
        cond = max(_cancellation(n, a, b, s, r) for a, b, s in members)
        assert li == pytest.approx(math.log(raw), rel=0.0,
                                   abs=1e-11 * (1.0 + abs(li) + cond))


# ---------------------------------------------------------------------------
# The engine's numerical kernels against their references.

# a small pool makes ties with the column maximum common, and near-ties of
# opposite sign (s < -1 in the shifted form)
term = st.one_of(st.sampled_from([0.0, -0.25, -0.5, 1.0, 700.0, -745.0, math.inf,
                                  -math.inf, math.nan]),
                 st.floats(-800.0, 800.0))


@SETTINGS
@example(([(0.0, 1.0), (-0.25, 0.0), (-0.25, 0.0)], [1.0, -1.0, -1.0]))
@given(st.integers(2, 3).flatmap(lambda k: st.tuples(
    st.lists(st.lists(term, min_size=1, max_size=6).map(tuple), min_size=k, max_size=k),
    st.lists(st.sampled_from([-1.0, 1.0]), min_size=k, max_size=k))))
def test_signed_logsumexp_matches_scipy(case):
    rows, signs = case
    width = min(len(r) for r in rows)
    a = np.array([r[:width] for r in rows])
    b = np.array(signs)[:, None]
    with np.errstate(all="ignore"):
        want, want_sign = logsumexp(a, axis=0, b=b, return_sign=True)
    got, got_sign = _signed_logsumexp(a, b)
    for x, y in ((got, want), (got_sign, want_sign)):
        assert np.array_equal(x, y, equal_nan=True)
        assert np.array_equal(np.signbit(x), np.signbit(y))


@SETTINGS
@example(1.0, 0.0, 5.0, 15, [(0.0, 1e-2), (1.0, 1.0), (6.0, 1.0)], 1e-2)
@given(st.floats(0.1, 5.0), st.floats(-3.0, 3.0), st.floats(-5.0, 5.0),
       st.sampled_from([0, 1, 15]),
       st.lists(st.tuples(st.floats(-10.0, 10.0), st.floats(0.0, 2.0)), min_size=1, max_size=8),
       st.sampled_from([1e-10, 1e-6, 1e-2]))
def test_zoom_finds_each_bracket_minimum(amp, centre, nan_above, decimals, brackets, tol):
    # a bowl that turns NaN above a cut, so some brackets are partly or all
    # NaN; rounding makes flat steps, where samples tie
    calls = [0]

    def f(x):
        calls[0] += 1
        bowl = np.round(amp * (x - centre) ** 2 + np.cosh(x - centre) - 1.0, decimals)
        return np.where(x > nan_above, np.nan, bowl)

    a = np.array([lo for lo, _ in brackets])
    b = a + np.array([w for _, w in brackets])
    xm, fm = _zoom(f, a, b, tol)
    passes = math.log(max((b - a).max(), tol) / tol) / math.log((_ZOOM_POINTS - 1) / 2)
    assert calls[0] <= 1 + math.ceil(passes)
    for x, v, lo, hi in zip(xm, fm, a, b):
        slack = 4.0 * np.spacing(max(abs(lo), abs(hi)))   # rounding of the sample points
        if lo - slack > nan_above:
            assert math.isnan(v)
            continue
        assert lo - slack <= x <= hi + slack
        # the convex bowl's minimiser over the bracket's finite part; where a
        # flat step ties samples on one side of it, the zoom may keep the
        # step's first sample and end on it, but never more than a step high
        x0 = min(max(centre, lo), min(hi, nan_above))
        assert abs(x - x0) <= tol or v <= f(np.array([x0]))[0] + 10.0 ** -decimals
