"""Correlation families: values and derivatives against high-precision
oracles, radial derivatives against Richardson-extrapolated finite
differences, parameter derivatives against central differences, and the
parameter boxes.

All frozen constants were produced with 50-digit arithmetic and pasted at
full double precision.
"""

import math

import numpy as np
import pytest

from bicov.corrfn import (ALPHA_MIN, CorrelationFamily, KinkError, StableParams,
                          _param_derivatives, cauchy, derivative, evaluate, matern,
                          spherical, stable)

# (alpha, scale, r) -> psi, 50-digit oracle
STABLE_VALUES = [
    (0.5, 2.0, 1.0, 0.24311673443421421),
    (0.8, 0.5, 3.0, 0.25078435132081595),
    (1.0, 1.0, 2.0, 0.13533528323661269),
    (0.2, 3.0, 0.7, 0.31349801249629291),
]

# (alpha, beta, scale, r) -> psi
CAUCHY_VALUES = [
    (0.5, 2.0, 1.0, 1.0, 0.0625),
    (1.0, 0.5, 2.0, 3.0, 0.37796447300922723),
    (0.7, 3.5, 0.4, 2.5, 0.03124999999999999),
]

# (nu, scale, r) -> psi
MATERN_VALUES = [
    (0.5, 1.0, 2.0, 0.13533528323661269),
    (1.5, 2.0, 1.0, 0.40600584970983808),
    (2.5, 1.0, 0.5, 0.96034021121166959),
    (0.75, 1.3, 2.0, 0.12075951336795036),
]

# (alpha, scale, r, order) -> d^k psi / dr^k
STABLE_DERIVS = [
    (0.5, 2.0, 1.0, 1, -0.17190949153836189),
    (0.5, 2.0, 1.0, 2, 0.20751311298628805),
    (0.5, 2.0, 1.0, 3, -0.39722441524861302),
    (0.8, 0.5, 3.0, 1, -0.092500093771494995),
    (0.8, 0.5, 3.0, 2, 0.040284700229898557),
    (0.8, 0.5, 3.0, 3, -0.021874475792943413),
]

# (alpha, beta, scale, r, order) -> d^k psi / dr^k
CAUCHY_DERIVS = [
    (0.5, 2.0, 1.0, 1.0, 1, -0.0625),
    (0.5, 2.0, 1.0, 1.0, 2, 0.109375),
    (0.5, 2.0, 1.0, 1.0, 3, -0.28125),
    (0.7, 3.5, 0.4, 2.5, 1, -0.021874999999999993),
    (0.7, 3.5, 0.4, 2.5, 2, 0.020999999999999994),
    (0.7, 3.5, 0.4, 2.5, 3, -0.025987499999999994),
]

# (alpha, scale, r) -> d psi / d alpha, d psi / d log scale, 50-digit mpmath.diff
STABLE_PARAM_DERIVS = [
    (0.5, 2.0, 1.0, -0.23831715874261863, -0.17190949153836188),
    (0.8, 0.5, 3.0, -0.1406458519540296, -0.277500281314485),
    (1.7, 1.3, 0.4, 0.15482764054990794, -0.40250242504890127),
    (0.2, 3.0, 0.7, -0.26980244576284956, -0.07272917253174806),
]

# (alpha, beta, scale, r) -> d psi / d alpha, d psi / d log scale, d psi / d beta
CAUCHY_PARAM_DERIVS = [
    (0.5, 2.0, 1.0, 1.0, 0.34657359027997264, -0.0625, -0.08664339756999316),
    (0.7, 3.5, 0.4, 2.5, 0.1547203528035592, -0.054687499999999986, -0.03094407056071184),
    (1.4, 0.8, 2.0, 0.3, 0.20581562489674554, -0.20929409058418286, -0.22653636310280345),
    (1.5, 0.5, 2.0, 100.0, 4.9685758782460024e-05, -0.03533867926461039, -0.37462013339345984),
]


def richardson(f, r, order, h0):
    """Central differences on a 4-level Richardson tableau."""
    def central(h):
        if order == 1:
            return (f(r + h) - f(r - h)) / (2 * h)
        if order == 2:
            return (f(r + h) - 2 * f(r) + f(r - h)) / h ** 2
        return (f(r + 2 * h) - 2 * f(r + h) + 2 * f(r - h) - f(r - 2 * h)) / (2 * h ** 3)

    rows = [[central(h0 / 2 ** k)] for k in range(4)]
    for j in range(1, 4):
        for k in range(j, 4):
            num = 4 ** j * rows[k][j - 1] - rows[k - 1][j - 1]
            rows[k].append(num / (4 ** j - 1))
    return rows[3][3]


class TestEvaluate:
    def test_psi_at_zero_is_exactly_one(self):
        fams = [stable(0.5, 2.0), cauchy(0.7, 1.5, 0.3), spherical(2.0), matern(1.2, 0.5)]
        for fam in fams:
            assert evaluate(fam, 0.0) == 1.0
            assert evaluate(fam, np.array([0.0, 1.0]))[0] == 1.0

    @pytest.mark.parametrize("a,s,r,want", STABLE_VALUES)
    def test_stable_values(self, a, s, r, want):
        assert evaluate(stable(a, s), r) == pytest.approx(want, rel=1e-15)

    @pytest.mark.parametrize("a,b,s,r,want", CAUCHY_VALUES)
    def test_cauchy_values(self, a, b, s, r, want):
        assert evaluate(cauchy(a, b, s), r) == pytest.approx(want, rel=1e-15)

    @pytest.mark.parametrize("nu,s,r,want", MATERN_VALUES)
    def test_matern_values(self, nu, s, r, want):
        assert evaluate(matern(nu, s), r) == pytest.approx(want, rel=1e-13)

    def test_spherical_polynomial_and_support(self):
        fam = spherical(0.5)
        x = 0.5 * 1.2
        assert evaluate(fam, 1.2) == pytest.approx(1 - 1.5 * x + 0.5 * x ** 3, rel=1e-15)
        assert evaluate(fam, 2.0) == 0.0
        assert evaluate(fam, 50.0) == 0.0

    def test_matern_half_is_exponential(self):
        r = np.geomspace(1e-3, 20.0, 40)
        got = evaluate(matern(0.5, 1.7), r)
        np.testing.assert_allclose(got, np.exp(-1.7 * r), rtol=1e-12)

    def test_matern_three_halves_closed_form(self):
        r = np.geomspace(1e-2, 10.0, 30)
        x = 0.8 * r
        got = evaluate(matern(1.5, 0.8), r)
        np.testing.assert_allclose(got, (1 + x) * np.exp(-x), rtol=1e-12)

    def test_matern_extreme_arguments(self):
        fam = matern(1.2, 1.0)
        assert evaluate(fam, 1e-200) == 1.0
        assert evaluate(fam, 1e6) == 0.0

    def test_scalar_vs_array(self):
        fam = cauchy(0.5, 2.0, 1.0)
        arr = evaluate(fam, np.array([0.5, 1.0, 2.0]))
        assert isinstance(evaluate(fam, 1.0), float)
        assert arr[1] == evaluate(fam, 1.0)

    def test_negative_r_rejected(self):
        with pytest.raises(ValueError):
            evaluate(stable(0.5, 1.0), -1.0)


class TestDerivative:
    @pytest.mark.parametrize("a,s,r,k,want", STABLE_DERIVS)
    def test_stable_frozen(self, a, s, r, k, want):
        assert derivative(stable(a, s), r, k) == pytest.approx(want, rel=1e-13)

    @pytest.mark.parametrize("a,b,s,r,k,want", CAUCHY_DERIVS)
    def test_cauchy_frozen(self, a, b, s, r, k, want):
        assert derivative(cauchy(a, b, s), r, k) == pytest.approx(want, rel=1e-13)

    @pytest.mark.parametrize("fam", [stable(0.35, 1.3), stable(1.0, 0.4),
                                     cauchy(0.6, 0.9, 2.0), cauchy(1.0, 4.0, 0.7)])
    @pytest.mark.parametrize("order", [1, 2, 3])
    def test_closed_forms_vs_richardson(self, fam, order):
        # the third-order stencil needs a larger step to stay above the
        # roundoff floor at its deepest tableau level, and even then the
        # oracle is only good to a few parts in 1e7
        h_rel = 1e-2 if order < 3 else 8e-2
        tol = 1e-7 if order < 3 else 1e-6
        for r in (0.4, 1.1, 3.7):
            num = richardson(lambda x: evaluate(fam, x), r, order, h0=r * h_rel)
            assert derivative(fam, r, order) == pytest.approx(num, rel=tol)

    @pytest.mark.parametrize("make,params", [
        (lambda a, ls: stable(a, math.exp(ls)), [0.7, 0.3]),
        (lambda a, ls, b: cauchy(a, b, math.exp(ls)), [0.6, -0.4, 2.2]),
        (lambda nu, ls: matern(nu, math.exp(ls)), [0.7, 0.2]),
        (lambda nu, ls: matern(nu, math.exp(ls)), [2.6, 0.2]),
    ])
    def test_parameter_derivatives_vs_central_differences(self, make, params):
        r = np.array([0.0, 0.01, 0.4, 1.1, 3.7])
        psi, derivs = _param_derivatives(make(*params), r)
        assert np.array_equal(psi, evaluate(make(*params), r))
        assert len(derivs) == len(params)
        for k, d in enumerate(derivs):
            h = 1e-6
            up = params[:k] + [params[k] + h] + params[k + 1:]
            down = params[:k] + [params[k] - h] + params[k + 1:]
            num = (evaluate(make(*up), r) - evaluate(make(*down), r)) / (2.0 * h)
            assert d[0] == 0.0
            assert d == pytest.approx(num, rel=1e-6, abs=1e-8)

    @pytest.mark.parametrize("a,s,r,d_alpha,d_log_s", STABLE_PARAM_DERIVS)
    def test_stable_parameter_derivatives_frozen(self, a, s, r, d_alpha, d_log_s):
        _, (got_alpha, got_log_s) = _param_derivatives(stable(a, s), np.array([r]))
        assert got_alpha[0] == pytest.approx(d_alpha, rel=1e-12)
        assert got_log_s[0] == pytest.approx(d_log_s, rel=1e-12)

    @pytest.mark.parametrize("a,b,s,r,d_alpha,d_log_s,d_beta", CAUCHY_PARAM_DERIVS)
    def test_cauchy_parameter_derivatives_frozen(self, a, b, s, r, d_alpha, d_log_s, d_beta):
        _, (got_alpha, got_log_s, got_beta) = _param_derivatives(cauchy(a, b, s), np.array([r]))
        # d/dalpha = psi c / alpha (log(1 + t) - t log t / (1 + t)), c = beta/alpha,
        # never changes sign but falls to zero as t = (s r)^alpha grows: its
        # two terms, each about log t, cancel to (1 + log t) / t.  At the last
        # point t = 2828 and the cancellation magnifies rounding about 2,500-fold
        tol = 1e-12 if (s * r) ** a < 100.0 else 2e-12
        assert got_alpha[0] == pytest.approx(d_alpha, rel=tol)
        assert got_log_s[0] == pytest.approx(d_log_s, rel=1e-12)
        assert got_beta[0] == pytest.approx(d_beta, rel=1e-12)

    def test_spherical_piecewise(self):
        s = 0.5
        fam = spherical(s)
        assert derivative(fam, 0.8, 1) == pytest.approx(-1.5 * s + 1.5 * s ** 3 * 0.64)
        assert derivative(fam, 0.8, 2) == pytest.approx(3 * s ** 3 * 0.8)
        assert derivative(fam, 0.8, 3) == pytest.approx(3 * s ** 3)
        assert derivative(fam, 5.0, 1) == 0.0
        assert derivative(fam, 5.0, 3) == 0.0

    def test_spherical_kink_guard(self):
        fam = spherical(2.0)
        with pytest.raises(KinkError):
            derivative(fam, 0.5, 2)
        with pytest.raises(KinkError):
            derivative(fam, np.array([0.3, 0.5 + 1e-12]), 1)

    def test_matern_finite_differences(self):
        # nu = 1.5: psi = (1+x) e^{-x}, psi'(r) = -s^2 r e^{-s r}
        s, r = 0.8, 1.3
        want = -s * s * r * math.exp(-s * r)
        assert derivative(matern(1.5, s), r, 1) == pytest.approx(want, rel=1e-8)

    def test_order_validation(self):
        with pytest.raises(ValueError):
            derivative(stable(0.5, 1.0), 1.0, 4)
        with pytest.raises(ValueError):
            derivative(stable(0.5, 1.0), 0.0, 1)


class TestParamBoxes:
    def test_alpha_box(self):
        with pytest.raises(ValueError):
            stable(2.5, 1.0)
        with pytest.raises(ValueError):
            stable(ALPHA_MIN / 10, 1.0)
        with pytest.raises(ValueError):
            cauchy(0.0, 1.0, 1.0)

    def test_positive_scale_beta_nu(self):
        with pytest.raises(ValueError):
            stable(0.5, 0.0)
        with pytest.raises(ValueError):
            cauchy(0.5, -1.0, 1.0)
        with pytest.raises(ValueError):
            spherical(-2.0)
        with pytest.raises(ValueError):
            matern(0.0, 1.0)

    def test_kind_params_mismatch(self):
        with pytest.raises(ValueError):
            CorrelationFamily("Cauchy", StableParams(0.5, 1.0))
        with pytest.raises(ValueError):
            CorrelationFamily("Gaussian", StableParams(0.5, 1.0))

    def test_kink_error_is_value_error(self):
        assert issubclass(KinkError, ValueError)
