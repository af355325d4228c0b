"""Property tests of the bound engine over random stable and Cauchy models.

The engine is one table-driven code path for both families, so each
property runs on both.  Examples are drawn deterministically (derandomized)
so a failure reproduces from the test alone.
"""

import decimal
import math
import sys

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st

import bicov as bc
from bicov.validity import (_GRID_HI, _GRID_LO, _GRID_POINTS, _WEIGHTS, _ZOOM_POINTS,
                            ExcludedPoint, _aux_table, _endpoint, _log_infimum_gradient,
                            _log_integrand, _log_terms, _members, _zoom)

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
# won by the limit at infinity: its constant once read 0.004440970744913089
# and 0.004440970744913094 for the swapped model
@example(("cauchy", (0.5502967408583751, 0.5940079988804554, 0.6377192569025356),
          (4.255190824084309, 4.430164004722415, 4.605137185360521),
          (1.5056704715358977, 0.15380311340941494, 0.19630820608109767), 1))
@given(models())
def test_component_swap_symmetry(case):
    family, alphas, betas, scales, n = case
    bound_fn = bc.max_rho_stable if family == "stable" else bc.max_rho_cauchy
    rep = bound_fn(build(family, alphas, betas, scales), n)
    swapped = bound_fn(build(family, alphas, betas, scales, swap=True), n)
    assert swapped.decidability == rep.decidability
    assert swapped.rho_bound == pytest.approx(rep.rho_bound, rel=1e-11, abs=0.0)
    # term11 + term22 - 2 term12 is symmetric in floating point, so the scan
    # sees the same numbers, and so are the endpoint constants c11 + c22 -
    # 2 c12: an interior minimum and a limit are the same to the bit
    kind = "Stable" if family == "stable" else "Cauchy"
    x = np.linspace(_GRID_LO, _GRID_HI, _GRID_POINTS)
    li, _ = _log_integrand(_members(build(family, alphas, betas, scales), kind), n)(x)
    li_swapped, _ = _log_integrand(
        _members(build(family, alphas, betas, scales, swap=True), kind), n)(x)
    assert np.array_equal(li, li_swapped, equal_nan=True)
    assert swapped.rho_bound_raw == rep.rho_bound_raw


def _cancellation(n, alpha, beta_, s, r):
    """sum |c_k t^k| / |sum c_k t^k|: how much rounding the aux value carries."""
    coefs, _ = _aux_table(n, alpha, beta_)
    t = (s * r) ** alpha
    terms = [c * t ** (len(coefs) - 1 - k) for k, c in enumerate(coefs)]
    total = abs(sum(terms))
    return math.inf if total == 0.0 else sum(abs(x) for x in terms) / total


@SETTINGS
@example(("stable", (0.80859375, 0.25, 0.75), None, (9.0, 1.0, 2.0), 1))
@given(models())
def test_log_integrand_matches_raw_integrand(case):
    family, alphas, betas, scales, n = case
    model = build(family, alphas, betas, scales)
    kind = "Stable" if family == "stable" else "Cauchy"
    raw_fn = bc.stable_bound_integrand if family == "stable" else bc.cauchy_bound_integrand
    members = _members(model, kind)
    rs = np.geomspace(1e-3, 1e3, 13)
    logs, _ = _log_integrand(members, n)(np.log(rs))
    for r, li in zip(rs, logs):
        try:
            with np.errstate(all="ignore"):
                raw = raw_fn(model, n, r)
        except ExcludedPoint:
            continue
        # a subnormal raw value has lost digits to underflow, not to the engine
        if not (math.isfinite(li) and math.isfinite(raw) and raw >= sys.float_info.min):
            continue
        cond = max(_cancellation(n, a, b, s, r) for a, b, s in members)
        assert li == pytest.approx(math.log(raw), rel=0.0,
                                   abs=1e-11 * (1.0 + abs(li) + cond))


# ---------------------------------------------------------------------------
# The engine's numerical kernels against their references.

def _decimal_term(n, member, lt):
    """(log k + log t + ln|sum c_k t^k| - d ln(1 + t) (- t), sign of the sum,
    sum |c_k t^k| / |sum c_k t^k|) in 50 digits at the float log t ``lt``."""
    a, b, _ = member
    coefs, denom = _aux_table(n, a, b)
    with decimal.localcontext(decimal.Context(prec=50)):
        t = decimal.Decimal(lt).exp()
        terms = [decimal.Decimal(c) * t ** (len(coefs) - 1 - k) for k, c in enumerate(coefs)]
        total = sum(terms)
        if total == 0:
            return math.nan, 0.0, math.inf
        value = (decimal.Decimal(a if b is None else b).ln() + decimal.Decimal(lt)
                 + abs(total).ln() - decimal.Decimal(denom) * (1 + t).ln())
        if b is None:
            value -= t
        return float(value), math.copysign(1.0, total), float(sum(map(abs, terms)) / abs(total))


# log t on both branches, just either side of t = 1 and out to t = e^700
log_t = st.one_of(st.floats(-700.0, 700.0), st.floats(-1e-6, 1e-6),
                  st.sampled_from([0.0, 5e-324, -5e-324, 1e-300, -1e-300, 1e-16, -1e-16,
                                   700.0, -700.0]))


@SETTINGS
@example(3, (1.0, None, 1.0), -1e-16)
@example(3, (1.4, 2.5, 1.0), 700.0)
@given(st.sampled_from([1, 3]),
       st.tuples(cross_alpha, st.one_of(st.none(), beta), st.one_of(st.just(1.0), scale)),
       log_t)
def test_log_term_matches_decimal_reference(n, member, lt_target):
    a, b, s = member
    lr = lt_target / a - math.log(s)
    lt = a * (math.log(s) + lr)   # the log t the term is evaluated at
    got, sign = (float(v[0, 0]) for v in _log_terms(n, [member])(np.array([lr])))
    want, want_sign, cond = _decimal_term(n, member, lt)
    assume(cond < 1e12)
    # rounding scales with each summand and with the polynomial's cancellation
    coefs, denom = _aux_table(n, a, b)
    size = (1.0 + abs(math.log(a if b is None else b)) + (len(coefs) + denom) * abs(lt) + cond
            + (math.exp(lt) if b is None else 0.0))
    assert got == pytest.approx(want, rel=0.0, abs=1e-14 * size)
    assert sign == want_sign
    if abs(lr) < 700.0 and cond < 1e6:
        r = math.exp(lr)
        with np.errstate(all="ignore"):
            aux = bc.q_fn(a, s, n, r) if b is None else bc.p_fn(a, b, s, n, r)
        if math.isfinite(aux) and aux != 0.0:
            assert math.copysign(1.0, aux) == sign


# log r inside the scan window, and far beyond it, where t over- or underflows
log_r = st.one_of(st.floats(_GRID_LO, _GRID_HI), st.floats(-800.0, 800.0))


@SETTINGS
@given(models(), st.lists(log_r, min_size=1, max_size=6))
def test_log_terms_rows_equal_one_member_calls(case, lrs):
    family, alphas, betas, scales, n = case
    members = _members(build(family, alphas, betas, scales),
                       "Stable" if family == "stable" else "Cauchy")
    lr = np.array(lrs)
    terms, signs = _log_terms(n, members)(lr)
    assert terms.shape == signs.shape == (3, lr.size)
    for row, member in enumerate(members):
        one_terms, one_signs = _log_terms(n, [member])(lr)
        assert terms[row].tobytes() == one_terms[0].tobytes()
        assert signs[row].tobytes() == one_signs[0].tobytes()


def _gradient_one_member_at_a_time(model, report):
    """:func:`_log_infimum_gradient` as it was written before the moved members
    shared one call: each end is the winning limit's constant, or one moved
    member's term from a call of its own."""
    members, n, loc = _members(model, model.psi11.kind), report.n, report.infimum_location
    if isinstance(loc, str):
        def value(q, m):
            return _endpoint(members[:q] + (m,) + members[q + 1:], n, loc)[1]
    else:
        lr = math.log(loc)

        def value(q, m):
            return _WEIGHTS[q] * float(_log_terms(n, [m])(np.array([lr]))[0][0, 0])
    out = []
    for q, (a, b, s) in enumerate(members):
        params = [a, math.log(s)] + ([] if b is None else [b])
        grads = []
        for k, v in enumerate(params):
            h = 1e-6 * max(1.0, abs(v))
            ends = []
            for moved in (v + h, v - h):
                p = params[:k] + [moved] + params[k + 1:]
                ends.append(value(q, (p[0], None if b is None else p[2], math.exp(p[1]))))
            grads.append((ends[0] - ends[1]) / (2.0 * h))
        out.append(grads)
    return out


@pytest.mark.parametrize("family", ["stable", "cauchy"])
@pytest.mark.parametrize("n", [1, 3])
def test_log_infimum_gradient_equals_one_member_at_a_time(family, n):
    rng = np.random.default_rng(17)
    wins = set()
    for i in range(40):
        a11, a22 = rng.uniform(0.05, 1.0, 2)
        # a free cross smoothness, the larger marginal one, and the marginal mean
        a12 = (rng.uniform(0.05, 2.0), max(a11, a22), 0.5 * (a11 + a22))[i % 3]
        betas = tuple(rng.uniform(0.1, 5.0, 3)) if family == "cauchy" else None
        model = build(family, (a11, a12, a22), betas, tuple(rng.uniform(0.1, 10.0, 3)))
        engine = bc.max_rho_stable if family == "stable" else bc.max_rho_cauchy
        for report in (engine(model, n), engine(model, n, grid_points=512, refine_brackets=0)):
            got = _log_infimum_gradient(model, report)
            want = _gradient_one_member_at_a_time(model, report)
            assert np.array(got).tobytes() == np.array(want).tobytes()
            loc = report.infimum_location
            wins.add(loc if isinstance(loc, str) else "interior")
    assert wins >= {"interior", "AtZero", "AtInfinity"}   # every kind of winner occurs


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
