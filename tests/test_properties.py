"""Property tests of the bound engine over random stable and Cauchy models.

The engine is one table-driven code path for both families, so each
property runs on both.  Examples are drawn deterministically (derandomized)
so a failure reproduces from the test alone.
"""

import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import bicov as bc
from bicov.validity import (ExcludedPoint, _aux_table, _log_integrand,
                            _log_prefactor, _members)

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
