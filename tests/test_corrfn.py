"""Correlation families: values and derivatives against high-precision
oracles, stable and Cauchy radial derivatives against Richardson-extrapolated
finite differences, parameter derivatives against central differences, the
parameter boxes, and Matern members against 30-digit mpmath over the
whole supported range.

All frozen constants were produced with 50-digit arithmetic and pasted at
full double precision.
"""

import math
import warnings

import numpy as np
import pytest

from bicov.corrfn import (ALPHA_MIN, NU_MAX, CorrelationFamily, KinkError, StableParams,
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
    (0.8, 3.0, 5.0, 1e6, 2.187765658978056e-24, -2.399950143316311e-20, -1.2339760771144004e-19),
]

# (nu, x) -> phi', phi'', phi''' of phi(x) = 2**(1-nu)/Gamma(nu) x**nu K_nu(x), 50-digit
# mpmath closed forms, agreeing with mpmath.diff to 40 digits
MATERN_DERIVS = [
    (0.1, 1e-06, -12339.857860282906, 9871886289.164625, -1.7769395319570366e+16),
    (0.1, 0.001, -49.12542623901725, 39301.095362140855, -70741266.40635271),
    (0.1, 0.5, -0.272426341754258, 0.6061006145887539, -2.1139516187098897),
    (0.1, 3.0, -0.008553520522791465, 0.009897422683717865, -0.011953146173808804),
    (0.1, 50.0, -9.9710827830537e-24, 1.0051946458027714e-23, -1.013510467287272e-23),
    (0.45, 1e-06, -3.503663954286396, 350367.39542474656, -385403134974.61786),
    (0.45, 0.001, -1.7550839849277036, 176.5064478446456, -193160.79836121981),
    (0.45, 0.5, -0.6040015352594704, 0.6898430765282662, -0.9835707646689117),
    (0.45, 3.0, -0.04427341519506691, 0.045110711101495164, -0.04626903240061749),
    (0.45, 50.0, -1.4795321799457752e-22, 1.4810269454021997e-22, -1.4825534151237773e-22),
    (0.5, 1e-06, -0.9999990000005, 0.9999990000005, -0.9999990000005),
    (0.5, 0.001, -0.999000499833375, 0.999000499833375, -0.999000499833375),
    (0.5, 0.5, -0.6065306597126334, 0.6065306597126334, -0.6065306597126334),
    (0.5, 3.0, -0.049787068367863944, 0.049787068367863944, -0.049787068367863944),
    (0.5, 50.0, -1.9287498479639178e-22, 1.9287498479639178e-22, -1.9287498479639178e-22),
    (0.7, 1e-06, -0.006951678980715916, -2779.6715922913318, 1668802955.362882),
    (0.7, 0.001, -0.10853647418469231, -42.414667557056376, 26448.614114580185),
    (0.7, 0.5, -0.5701058999062214, 0.2669781379433166, 0.5556460502983859),
    (0.7, 3.0, -0.07203011715407312, 0.0667337721348896, -0.05993094232924016),
    (0.7, 50.0, -5.005616532118859e-22, 4.985436995039684e-22, -4.964932137513403e-22),
    (1.0, 1e-06, -1.393144207362642e-05, -12.931442073633635, 999999.9999788529),
    (1.0, 0.001, -0.007023688800562381, -6.023692562406295, 999.989214467285),
    (1.0, 0.5, -0.46220953561383293, -0.09619851122601542, 1.194231584389468),
    (1.0, 3.0, -0.10421851315883775, 0.0857297889983033, -0.06406208203064356),
    (1.0, 50.0, -1.705083874894748e-21, 1.6879494358608829e-21, -1.6706428526275721e-21),
    (1.5, 1e-06, -9.999990000004999e-07, -0.9999980000015, 1.999997000002),
    (1.5, 0.001, -0.000999000499833375, -0.9980014993335417, 1.9970019991669166),
    (1.5, 0.5, -0.3032653298563167, -0.3032653298563167, 0.9097959895689501),
    (1.5, 3.0, -0.14936120510359183, 0.09957413673572789, -0.049787068367863944),
    (1.5, 50.0, -9.643749239819589e-21, 9.450874255023197e-21, -9.257999270226805e-21),
    (2.6, 1e-06, -3.1249999999986974e-07, -0.31249999999960937, 7.812499254293214e-07),
    (2.6, 0.001, -0.00031249986981371486, -0.3124996094675698, 0.0007809539392758582),
    (2.6, 0.5, -0.14358398614531376, -0.24349442715572706, 0.22327379298785022),
    (2.6, 3.0, -0.20153517332899498, 0.07978090493611735, 0.0042078411351003184),
    (2.6, 50.0, -2.1097741165445467e-19, 2.0221191792857479e-19, -1.936371684968749e-19),
    (3.5, 1e-06, -1.9999999999996667e-07, -0.1999999999999, 1.9999999999983334e-07),
    (3.5, 0.001, -0.000199999966666675, -0.19999990000004164, 0.00019999983346660836),
    (3.5, 0.5, -0.09603402112116696, -0.17690477574951807, 0.08592517679262307),
    (3.5, 3.0, -0.20910568714502856, 0.049787068367863944, 0.029872241020718365),
    (3.5, 50.0, -1.7056577822160913e-18, 1.6053242151250082e-18, -1.5089252977237716e-18),
    # large nu: x**nu K_nu - (2 nu - 1) x**(nu-1) K_(nu-1) would cancel here (4.6e-11
    # relative), which is why the second order reads K_(nu-2) from nu = 1 on
    (150.0, 3.0, -0.0099152320384142412, -0.0032045955202482596, 9.9456608604568178e-05),
]

# (nu, x) -> psi, 50-digit mpmath: K_nu(x) leaves the double range at nu = 10, and both
# Gamma(170) and 2**-169 / Gamma(170) leave double range
MATERN_EXTREME_VALUES = [
    (10.0, 1e-50, 1.0),
    (10.0, 1e-30, 1.0),
    (170.0, 0.1, 0.9999852072106574),
    (200.0, 0.1, 0.99998743726524),
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
        assert evaluate(stable(a, s), r) == pytest.approx(want, rel=1e-15, abs=0.0)

    @pytest.mark.parametrize("a,b,s,r,want", CAUCHY_VALUES)
    def test_cauchy_values(self, a, b, s, r, want):
        assert evaluate(cauchy(a, b, s), r) == pytest.approx(want, rel=1e-15, abs=0.0)

    @pytest.mark.parametrize("nu,s,r,want", MATERN_VALUES)
    def test_matern_values(self, nu, s, r, want):
        assert evaluate(matern(nu, s), r) == pytest.approx(want, rel=1e-13, abs=0.0)

    def test_spherical_polynomial_and_support(self):
        fam = spherical(0.5)
        x = 0.5 * 1.2
        assert evaluate(fam, 1.2) == pytest.approx(1 - 1.5 * x + 0.5 * x ** 3, rel=1e-15, abs=0.0)
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

    @pytest.mark.parametrize("nu,x,want", MATERN_EXTREME_VALUES)
    def test_matern_where_gamma_or_kv_overflows(self, nu, x, want):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = evaluate(matern(nu, 2.0), np.array([x / 2.0, 0.0]))
        assert got[0] == pytest.approx(want, rel=1e-13, abs=0.0) and got[1] == 1.0

    def test_matern_extreme_arguments(self):
        fam = matern(1.2, 1.0)
        assert evaluate(fam, 1e-200) == 1.0
        assert evaluate(fam, 1e6) == 0.0

    def test_every_family_is_zero_at_infinity(self):
        fams = [stable(0.5, 2.0), cauchy(0.7, 1.5, 0.3), spherical(2.0), matern(0.7, 1.0),
                matern(3.5, 1e-3)]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for fam in fams:
                assert evaluate(fam, math.inf) == 0.0
                # the scaled distance overflows to inf
                assert np.array_equal(evaluate(fam, np.array([1e308, 0.0])), [0.0, 1.0])

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
        assert derivative(stable(a, s), r, k) == pytest.approx(want, rel=1e-13, abs=0.0)

    @pytest.mark.parametrize("a,b,s,r,k,want", CAUCHY_DERIVS)
    def test_cauchy_frozen(self, a, b, s, r, k, want):
        assert derivative(cauchy(a, b, s), r, k) == pytest.approx(want, rel=1e-13, abs=0.0)

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
            assert derivative(fam, r, order) == pytest.approx(num, rel=tol, abs=0.0)

    @pytest.mark.parametrize("make,params", [
        (lambda a, ls: stable(a, math.exp(ls)), [0.7, 0.3]),
        (lambda a, ls, b: cauchy(a, b, math.exp(ls)), [0.6, -0.4, 2.2]),
        (lambda nu, ls: matern(nu, math.exp(ls)), [0.7, 0.2]),
        (lambda nu, ls: matern(nu, math.exp(ls)), [2.6, 0.2]),
    ])
    def test_parameter_derivatives_vs_central_differences(self, make, params):
        r = np.array([0.0, 0.01, 0.4, 1.1, 3.7])
        (psi, derivs), = _param_derivatives([make(*params)], r, [(True, True, True)])
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
        (_, (got_alpha, got_log_s)), = _param_derivatives([stable(a, s)], np.array([r]),
                                                          [(True, True)])
        assert got_alpha[0] == pytest.approx(d_alpha, rel=1e-12, abs=0.0)
        assert got_log_s[0] == pytest.approx(d_log_s, rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("a,b,s,r,d_alpha,d_log_s,d_beta", CAUCHY_PARAM_DERIVS)
    def test_cauchy_parameter_derivatives_frozen(self, a, b, s, r, d_alpha, d_log_s, d_beta):
        (_, (got_alpha, got_log_s, got_beta)), = _param_derivatives(
            [cauchy(a, b, s)], np.array([r]), [(True, True, True)])
        # d/dalpha = psi c / alpha (log(1 + t) - t log t / (1 + t)), c = beta/alpha,
        # falls to zero as t = (s r)^alpha grows (t = 2828 and 2.2e5 at the last
        # two points), where the bracket's two terms would cancel
        assert got_alpha[0] == pytest.approx(d_alpha, rel=1e-12, abs=0.0)
        assert got_log_s[0] == pytest.approx(d_log_s, rel=1e-12, abs=0.0)
        assert got_beta[0] == pytest.approx(d_beta, rel=1e-12, abs=0.0)

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

    def test_matern_three_halves_elementary(self):
        # nu = 1.5: psi = (1+x) e^{-x}, psi'(r) = -s^2 r e^{-s r}
        s, r = 0.8, 1.3
        want = -s * s * r * math.exp(-s * r)
        assert derivative(matern(1.5, s), r, 1) == pytest.approx(want, rel=1e-13, abs=0.0)

    @pytest.mark.parametrize("nu,x,d1,d2,d3", MATERN_DERIVS)
    def test_matern_frozen(self, nu, x, d1, d2, d3):
        # psi^(k)(r) = s^k phi^(k)(s r); s = 2 keeps s r = x exact.  Both sides of
        # nu = 1, where the third order changes form, and x from 1e-6 to 50
        for k, want in enumerate((d1, d2, d3), start=1):
            assert derivative(matern(nu, 2.0), x / 2.0, k) == pytest.approx(
                2.0 ** k * want, rel=1e-12, abs=0.0)

    def test_matern_below_kv_range_is_nan(self):
        got = derivative(matern(0.7, 1.0), np.array([1e-200, 1.0]), 2)
        assert np.isnan(got[0]) and np.isfinite(got[1])

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

    @pytest.mark.parametrize("value", [math.inf, math.nan])
    def test_scale_and_beta_are_finite(self, value):
        for make in (lambda: stable(0.5, value), lambda: cauchy(0.5, 4.0, value),
                     lambda: cauchy(0.5, value, 1.0), lambda: spherical(value),
                     lambda: matern(0.5, value)):
            with pytest.raises(ValueError, match="must be positive and finite"):
                make()
        # the largest double is finite and kept
        assert cauchy(0.5, 1.797e308, 1.797e308).params.beta == 1.797e308

    def test_matern_nu_cap(self):
        # psi at the cap is finite and a correlation over x = s r in [1e-6, 5e3]; the
        # cap is the largest nu that the comparison with mpmath below covers
        r = np.concatenate([[0.0], np.geomspace(1e-6, 5e3, 20001)])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            psi = evaluate(matern(NU_MAX, 1.0), r)
        assert NU_MAX == 300.0
        assert np.all(np.isfinite(psi)) and np.all((psi >= 0.0) & (psi <= 1.0))
        with pytest.raises(ValueError, match="at most 300"):
            matern(1000.0, 1.0)
        # and so is its derivative in nu there
        (_, (d_nu, _)), = _param_derivatives([matern(NU_MAX, 1.0)], r[::400], [(True, False)])
        assert np.all(np.isfinite(d_nu))

    def test_kind_params_mismatch(self):
        with pytest.raises(ValueError):
            CorrelationFamily("Cauchy", StableParams(0.5, 1.0))
        with pytest.raises(ValueError):
            CorrelationFamily("Gaussian", StableParams(0.5, 1.0))

    def test_kink_error_is_value_error(self):
        assert issubclass(KinkError, ValueError)


def _matern_oracle(nu, x):
    """psi, its radial derivatives of orders 1-3, dpsi/dnu and dpsi/dlog s of
    matern(nu, 1) at x, by mpmath to 30 digits, the working precision raised by the
    digits the closed forms and the nu difference lose at small x."""
    import mpmath as mp
    with mp.workdps(40 + int(3 * max(0.0, -math.log10(x)))):
        nu_m, x_m = mp.mpf(nu), mp.mpf(x)

        def term(n, power, order):   # 2**(1-n)/Gamma(n) x**power K_order(x)
            return 2 ** (1 - n) / mp.gamma(n) * x_m ** power * mp.besselk(order, x_m)
        d1 = -term(nu_m, nu_m, nu_m - 1)
        return [float(v) for v in (
            term(nu_m, nu_m, nu_m), d1,
            term(nu_m, nu_m, nu_m - 2) - term(nu_m, nu_m - 1, nu_m - 1),
            3 * term(nu_m, nu_m - 1, nu_m - 2) - term(nu_m, nu_m, nu_m - 3),
            mp.diff(lambda n: term(n, n, n), nu_m), x_m * d1)]


class TestMaternAgainstMpmath:
    """psi of the trapezoidal rule and every derivative read from its table, on
    seeded nu log-uniform in [0.01, 300] and x log-uniform in [1e-150, 700]."""

    rng = np.random.default_rng(28)
    POINTS = list(zip(np.exp(rng.uniform(math.log(0.01), math.log(NU_MAX), 60)),
                      np.exp(rng.uniform(math.log(1e-150), math.log(700.0), 60))))
    # psi, then its radial derivatives of orders 1-3, dpsi/dnu and dpsi/dlog s
    TOLERANCE = (1e-13, 1e-12, 1e-12, 1e-12, 1e-12, 1e-12)

    @pytest.mark.parametrize("nu,x", POINTS)
    def test_within_tolerance(self, nu, x):
        want = _matern_oracle(nu, x)
        fam = matern(nu, 1.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            (psi, (d_nu, d_log_s)), = _param_derivatives([fam], np.array([x]), [(True, True)])
            got = [evaluate(fam, x), *(derivative(fam, x, k) for k in (1, 2, 3)),
                   d_nu[0], d_log_s[0]]
        assert psi[0] == got[0]
        for g, w, tol in zip(got, want, self.TOLERANCE):
            # relative where the value is a normal double, to 1e-300 below that
            assert g == w or abs(g - w) <= (tol * abs(w) if abs(w) >= 1e-300 else 1e-300), (g, w)

    @pytest.mark.parametrize("nu", [0.01, 0.05, 0.5, 0.75, 1.0, 2.5, 10.0, 150.0, NU_MAX])
    def test_ends_and_range(self, nu):
        fam = matern(nu, 1.0)
        x = np.concatenate([[0.0, 1e-200, 1e-150], np.geomspace(1e-149, 700.0, 400),
                            [1e4, 1e300, math.inf]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            psi = evaluate(fam, x)
            derivs = [derivative(fam, x[1:], k) for k in (1, 2, 3)]
        assert psi[0] == 1.0 and psi[-1] == 0.0
        assert np.all((psi >= 0.0) & (psi <= 1.0))
        assert np.all(np.diff(psi) <= 0.0)
        for d in derivs:   # NaN at s r <= 1e-150, as documented; 0 past the double range
            assert np.all(np.isnan(d[:2])) and not np.any(np.isnan(d[2:]))
            assert np.all(d[-3:] == 0.0)


class TestOneEvaluator:
    """One call of the evaluator on a mixed list gives each member the bits of
    its own call, and a call with nothing free does no derivative work."""

    MEMBERS = [stable(0.7, 1.3), cauchy(0.6, 2.2, 0.8), spherical(0.4),
               matern(0.7, 1.2), matern(2.6, 1.2), matern(1.5, 0.5)]
    FREES = [(True, True), (True, False, True), (True, True),
             (True, True), (True, False), (False, True)]
    R = np.array([0.0, 1e-3, 0.05, 0.4, 1.1, 3.7, 50.0])

    def test_each_member_keeps_its_own_bits(self):
        together = _param_derivatives(self.MEMBERS, self.R, self.FREES)
        for fam, free, (psi, derivs) in zip(self.MEMBERS, self.FREES, together):
            (alone_psi, alone_derivs), = _param_derivatives([fam], self.R, [free])
            assert psi.tobytes() == alone_psi.tobytes() == evaluate(fam, self.R).tobytes()
            params = {"Stable": 2, "Cauchy": 3, "Spherical": 0, "Matern": 2}[fam.kind]
            assert len(derivs) == len(alone_derivs) == params
            for d, alone, f in zip(derivs, alone_derivs, free):
                assert (d is None) == (alone is None) == (not f)
                assert d is None or d.tobytes() == alone.tobytes()

    def test_nothing_free_asks_for_psi_alone(self, monkeypatch):
        import bicov as bc
        from bicov import corrfn
        orders, terms = [], []
        outer, matern_terms = corrfn._outer, corrfn._matern_terms
        monkeypatch.setattr(corrfn, "_outer", lambda p, t, order: (
            orders.append(order) or outer(p, t, order)))
        monkeypatch.setattr(corrfn, "_matern_terms", lambda x, ts, fill: (
            terms.extend(ts) or matern_terms(x, ts, fill)))
        _param_derivatives(self.MEMBERS, self.R, [(False, False, False)] * len(self.MEMBERS))
        # a Gram build evaluates its terms with nothing free
        rng = np.random.default_rng(3)
        sample = bc.FieldSample(rng.uniform(0.0, 5.0, (12, 2)), np.tile([1, 2], 6))
        bc.gram(bc.stable_bivariate(1.0, 1.5, 0.4, 0.8, 0.9, 0.6, 0.9, 1.1, 0.8), sample)
        bc.gram(bc.matern_bivariate(1.0, 1.3, 0.2, 0.5, 1.0, 1.5, 0.7, 0.7, 0.7), sample)
        assert orders == [0] * 5
        assert len(terms) == 6 and all(t[1:] == (0, 0, None) for t in terms)
        # while one free parameter asks for G' and the derivative's own term
        _param_derivatives([stable(0.7, 1.3), matern(0.7, 1.2)], self.R,
                           [(False, True), (False, True)])
        assert orders[-1] == 1 and terms[-1] == (0.7, 1, -1, None)
