"""Cross-correlation validity bounds.

Oracle strategy: the closed-form auxiliary functions and integrands are
checked against raw derivative ratios from the univariate layer (an
independent code path), the infimum engine is checked against a dense
brute-force grid scan built only from those derivative ratios, and a set of
frozen engine outputs pins regressions at ten significant digits.
"""

import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from bicov import validity
from bicov.bimodels import (BivariateModel, LmcBivariate, cauchy_bivariate, matern_bivariate,
                            spherical_bivariate, stable_bivariate)
from bicov.corrfn import cauchy, derivative, matern, spherical, stable
from bicov.field import FieldSample, _ParamSpec, check_pd, gram, simulate
from bicov.spectral import cross_spectral_profile
from bicov.validity import (AT_INFINITY, AT_WINDOW_EDGE, AT_ZERO, INCONCLUSIVE,
                            NECESSARILY_ZERO, SUFFICIENT, ExcludedPoint, NotApplicable,
                            ValidityReport, cauchy_bound_integrand, certify,
                            generic_sufficient_check, max_rho_cauchy, max_rho_stable,
                            p_fn, q_fn, spherical_triviality, stable_bound_integrand)

FIG_STABLE = stable_bivariate(1.0, 1.0, 0.0, 0.2, 0.6, 0.5, 2.0, 1.0, 3.0)
FIG_CAUCHY = cauchy_bivariate(1.0, 1.0, 0.0, 0.5, 0.7, 0.9, 2.0, 2.5, 2.1,
                              2.0, 2.25, 2.5)


def second_form(fam, r, n):
    d2 = derivative(fam, r, 2)
    return d2 if n == 1 else d2 - r * derivative(fam, r, 3)


def brute_force_infimum(model, n, points=200_000):
    """Grid infimum of D11 D22 / D12^2 built from closed-form derivatives.

    Rows where any factor has drifted out of double range are dropped, and
    the ratio is evaluated as (D11/D12)(D22/D12): deep in a heavy tail the
    factors are representable while their pairwise products are not, which
    is the reason the production engine works in logs.
    """
    r = np.geomspace(1e-8, 1e8, points)
    with np.errstate(all="ignore"):
        d11 = second_form(model.psi11, r, n)
        d22 = second_form(model.psi22, r, n)
        d12 = second_form(model.psi12, r, n)
        ok = ((np.abs(d11) > 1e-280) & (np.abs(d22) > 1e-280)
              & (np.abs(d12) > 1e-280) & np.isfinite(d11) & np.isfinite(d22)
              & np.isfinite(d12))
        vals = np.where(ok, (d11 / d12) * (d22 / d12), np.nan)
    vals = np.where(np.isfinite(vals), vals, np.nan)
    return float(np.nanmin(vals))


class TestAuxiliaryFunctions:
    def test_frozen_rational_points(self):
        # alpha = 1 collapses q to t (n = 1) and t^2 + t (n = 3)
        assert q_fn(1.0, 1.0, 1, 2.5) == pytest.approx(2.5, rel=1e-15, abs=0.0)
        assert q_fn(1.0, 1.0, 3, 1.0) == pytest.approx(2.0, rel=1e-15, abs=0.0)
        assert p_fn(1.0, 1.0, 1.0, 3, 1.0) == pytest.approx(10.0 / 16.0, rel=1e-15, abs=0.0)

    @pytest.mark.parametrize("a,s", [(0.7, 1.3), (0.35, 0.6), (1.0, 2.0)])
    def test_q_matches_derivatives(self, a, s):
        # psi'' = alpha t e^{-t} q(t) / r^2 and the n = 3 analog with
        # psi'' - r psi'''
        for r in (0.2, 1.0, 4.0):
            t = (s * r) ** a
            fam = stable(a, s)
            lead = a * t * math.exp(-t) / r ** 2
            assert q_fn(a, s, 1, r) == pytest.approx(
                derivative(fam, r, 2) / lead, rel=1e-12, abs=0.0)
            d = derivative(fam, r, 2) - r * derivative(fam, r, 3)
            assert q_fn(a, s, 3, r) == pytest.approx(d / lead, rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("a,b,s", [(0.7, 1.7, 1.3), (0.4, 0.6, 2.0),
                                       (1.0, 3.0, 0.5)])
    def test_p_matches_derivatives(self, a, b, s):
        # psi'' = beta s^alpha r^{alpha-2} p(r), same n = 3 combination
        for r in (0.2, 1.0, 4.0):
            fam = cauchy(a, b, s)
            lead = b * s ** a * r ** (a - 2.0)
            assert p_fn(a, b, s, 1, r) == pytest.approx(
                derivative(fam, r, 2) / lead, rel=1e-12, abs=0.0)
            d = derivative(fam, r, 2) - r * derivative(fam, r, 3)
            assert p_fn(a, b, s, 3, r) == pytest.approx(d / lead, rel=1e-12, abs=0.0)

    def test_input_validation(self):
        with pytest.raises(ValueError):
            q_fn(0.5, 1.0, 2, 1.0)
        with pytest.raises(ValueError):
            p_fn(0.5, 1.0, 1.0, 4, 1.0)
        with pytest.raises(ValueError):
            q_fn(0.5, 1.0, 1, 0.0)
        with pytest.raises(ValueError):
            q_fn(0.5, 1.0, 1, np.array([1.0, -2.0]))


class TestIntegrands:
    @pytest.mark.parametrize("n", [1, 3])
    def test_stable_equals_derivative_ratio(self, n):
        m = FIG_STABLE
        for r in (0.3, 1.0, 4.7):
            want = (second_form(m.psi11, r, n) * second_form(m.psi22, r, n)
                    / second_form(m.psi12, r, n) ** 2)
            assert stable_bound_integrand(m, n, r) == pytest.approx(want, rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("n", [1, 3])
    def test_cauchy_equals_derivative_ratio(self, n):
        m = FIG_CAUCHY
        for r in (0.3, 1.0, 4.7):
            want = (second_form(m.psi11, r, n) * second_form(m.psi22, r, n)
                    / second_form(m.psi12, r, n) ** 2)
            assert cauchy_bound_integrand(m, n, r) == pytest.approx(want, rel=1e-12, abs=0.0)

    def test_separable_integrand_is_one(self):
        m = stable_bivariate(1, 1, 0, 0.7, 0.7, 0.7, 1.3, 1.3, 1.3)
        r = np.geomspace(1e-6, 1e6, 25)
        np.testing.assert_allclose(stable_bound_integrand(m, 1, r), 1.0, rtol=1e-13)
        np.testing.assert_allclose(stable_bound_integrand(m, 3, r), 1.0, rtol=1e-13)
        mc = cauchy_bivariate(1, 1, 0, 0.7, 0.7, 0.7, 2.0, 2.0, 2.0, 1.3, 1.3, 1.3)
        # far tail excluded: |p12| sinks below the 1e-12 exclusion threshold
        # through sheer decay around r ~ 1e4
        rc = np.geomspace(1e-6, 1e3, 25)
        np.testing.assert_allclose(cauchy_bound_integrand(mc, 1, rc), 1.0, rtol=1e-13)
        with pytest.raises(ExcludedPoint):
            cauchy_bound_integrand(mc, 1, 1e5)

    def test_excluded_point_stable(self):
        # q12(t) = 1.5 t - 0.5 vanishes at t = 1/3, i.e. r = (1/3)^(2/3)
        m = stable_bivariate(1, 1, 0, 0.8, 1.5, 0.6, 1.0, 1.0, 1.0)
        r_star = (1.0 / 3.0) ** (2.0 / 3.0)
        with pytest.raises(ExcludedPoint):
            stable_bound_integrand(m, 1, r_star)
        # a hair away from the zero is fine
        assert math.isfinite(stable_bound_integrand(m, 1, r_star * 1.01))

    def test_excluded_point_cauchy(self):
        # p12 numerator 2t - 0.5 vanishes at t = 1/4, r = (1/4)^(2/3)
        m = cauchy_bivariate(1, 1, 0, 0.8, 1.5, 0.6, 1.0, 1.0, 1.0, 1, 1, 1)
        with pytest.raises(ExcludedPoint):
            cauchy_bound_integrand(m, 1, 0.25 ** (2.0 / 3.0))

    def test_family_mismatch_rejected(self):
        with pytest.raises(ValueError):
            stable_bound_integrand(FIG_CAUCHY, 1, 1.0)
        with pytest.raises(ValueError):
            cauchy_bound_integrand(FIG_STABLE, 1, 1.0)

    def test_marginal_smoothness_above_one_rejected(self):
        m = BivariateModel(1.0, 1.0, 0.0, stable(1.2, 1.0), stable(1.5, 1.0),
                           stable(0.5, 1.0))
        with pytest.raises(ValueError):
            stable_bound_integrand(m, 1, 1.0)
        with pytest.raises(ValueError):
            max_rho_stable(m, 1)


class TestEngineAgainstBruteForce:
    @pytest.mark.parametrize("model,n", [(FIG_STABLE, 1), (FIG_STABLE, 3),
                                         (FIG_CAUCHY, 1), (FIG_CAUCHY, 3)])
    def test_infimum_matches_grid(self, model, n):
        fn = max_rho_stable if model is FIG_STABLE else max_rho_cauchy
        report = fn(model, n)
        brute = brute_force_infimum(model, n)
        assert report.infimum == pytest.approx(brute, rel=1e-6, abs=0.0)
        assert report.infimum <= brute * (1.0 + 1e-9)
        assert report.rho_bound == pytest.approx(math.sqrt(brute), rel=1e-6, abs=0.0)

    def test_tail_cancellation_instance(self):
        # equal exponents with 2 s12^a = s11^a + s22^a: the infimum sits at
        # the finite tail limit, which a grid only approaches at rate r^-0.4
        s12 = (0.5 * (1.0 + 2.0 ** 0.4)) ** 2.5
        m = stable_bivariate(1, 1, 0, 0.4, 0.4, 0.4, 1.0, s12, 2.0)
        report = max_rho_stable(m, 1)
        assert report.infimum_location == AT_INFINITY
        assert report.infimum == pytest.approx(0.96241093099192532, rel=1e-10, abs=0.0)
        brute = brute_force_infimum(m, 1)
        assert report.infimum <= brute * (1.0 + 1e-9)
        assert brute - report.infimum < 5e-3


class TestFrozenReports:
    def test_fig_stable_n1(self):
        r = max_rho_stable(FIG_STABLE, 1)
        assert r.infimum == pytest.approx(0.13944620942559413, rel=1e-9, abs=0.0)
        assert r.rho_bound == pytest.approx(0.37342497161490706, rel=1e-9, abs=0.0)
        assert r.case == "iv" and r.decidability == SUFFICIENT
        assert r.infimum_location == pytest.approx(5.666927607305302, rel=1e-6, abs=0.0)

    def test_fig_stable_n3(self):
        r = max_rho_stable(FIG_STABLE, 3)
        assert r.infimum == pytest.approx(0.13011572922601986, rel=1e-9, abs=0.0)
        assert r.rho_bound == pytest.approx(0.36071557940574156, rel=1e-9, abs=0.0)
        assert r.n == 3

    def test_fig_cauchy_n1(self):
        r = max_rho_cauchy(FIG_CAUCHY, 1)
        assert r.infimum == pytest.approx(0.36078161682684656, rel=1e-9, abs=0.0)
        assert r.rho_bound == pytest.approx(0.60065099419450441, rel=1e-9, abs=0.0)
        assert r.case == "v" and r.decidability == SUFFICIENT
        assert r.infimum_location == pytest.approx(0.002471420962365163, rel=1e-4, abs=0.0)

    def test_separable_bound_is_one(self):
        for n in (1, 3):
            m = stable_bivariate(1, 1, 0, 0.7, 0.7, 0.7, 1.3, 1.3, 1.3)
            assert abs(max_rho_stable(m, n).rho_bound - 1.0) <= 1e-10
            mc = cauchy_bivariate(1, 1, 0, 0.7, 0.7, 0.7, 2, 2, 2, 1.3, 1.3, 1.3)
            assert abs(max_rho_cauchy(mc, n).rho_bound - 1.0) <= 1e-10

    def test_rho_bound_is_sqrt_of_infimum_capped(self):
        r = max_rho_stable(FIG_STABLE, 1)
        assert r.rho_bound_raw == pytest.approx(math.sqrt(r.infimum), rel=1e-12, abs=0.0)
        assert r.rho_bound == min(r.rho_bound_raw, 1.0)


class TestEndpoints:
    """Each finite limit is the log-integrand far beyond the scanned window."""

    @staticmethod
    def draw(rng, family, tie):
        a11, a12, a22 = rng.uniform(0.4, 1.0, 3)
        b11, b12, b22 = rng.uniform(0.5, 5.0, 3)
        if tie == "equal":
            a11 = a22 = a12
        elif tie == "mean-alpha12":
            a12 = 0.5 * (a11 + a22)
        elif tie == "mean-beta12":
            a12, b12 = rng.uniform(0.5 * (a11 + a22), 2.0), 0.5 * (b11 + b22)
        scales = rng.uniform(0.1, 10.0, 3)
        if family == "Stable":
            return stable_bivariate(1, 1, 0, a11, a12, a22, *scales)
        return cauchy_bivariate(1, 1, 0, a11, a12, a22, b11, b12, b22, *scales)

    @pytest.mark.parametrize("n", [1, 3])
    @pytest.mark.parametrize("family,tie,tag", [
        ("Stable", "equal", AT_ZERO),
        ("Stable", "mean-alpha12", AT_ZERO),
        ("Cauchy", "mean-alpha12", AT_ZERO),
        ("Cauchy", "mean-beta12", AT_INFINITY),
    ])
    def test_finite_limit_is_the_far_integrand(self, family, tie, tag, n):
        rng = np.random.default_rng(7)
        for _ in range(20):
            members = validity._members(self.draw(rng, family, tie), family)
            limits = dict((t, v) for v, t in validity._limits(members, n))
            assert math.isfinite(limits[tag])
            log_fn = validity._log_integrand(members, n)
            far, _ = log_fn(np.array([-200.0, 200.0]))
            for t, value in limits.items():
                if math.isfinite(value):
                    want = far[0] if t == AT_ZERO else far[1]
                    assert value == pytest.approx(want, rel=1e-9, abs=0.0)


class TestWindowEdge:
    """A grid minimum on the edge of the scanned window certifies nothing."""

    # the integrand falls all the way to r = 1e8: it is 0.0 already at r = 100
    FALLING = stable_bivariate(1.0, 1.0, 0.9, 0.44106384241154395, 1.00037917225745,
                               0.9266215973600441, 0.524792291980781,
                               1.1969038928944962, 63.643313475110595)

    def test_falling_integrand_is_inconclusive(self):
        assert stable_bound_integrand(self.FALLING, 1, 100.0) == 0.0
        r = max_rho_stable(self.FALLING, 1)
        assert r.decidability == INCONCLUSIVE and r.rho_bound == 0.0
        assert r.infimum_location == AT_WINDOW_EDGE and "window" in r.note
        # and the model is indeed invalid at its rho
        x = np.repeat(np.linspace(0.0, 40.0, 200), 2)[:, None]
        pd = check_pd(gram(self.FALLING, FieldSample(x, np.tile([1, 2], 200))))
        assert not pd.passed and pd.min_eigenvalue < -3.0

    def test_smoothness_just_below_one_matches_one(self):
        # the integrand is 1.8e-6 at r = 1e-8 and falls towards the origin
        near = max_rho_stable(stable_bivariate(1, 1, 0, 1 - 1e-9, 1.2, 1 - 1e-9, 1, 1, 1), 1)
        at = max_rho_stable(stable_bivariate(1, 1, 0, 1.0, 1.2, 1.0, 1, 1, 1), 1)
        for r in (near, at):
            assert r.decidability == INCONCLUSIVE and r.rho_bound == 0.0
        assert near.infimum_location == AT_WINDOW_EDGE

    @pytest.mark.parametrize("n", [1, 3])
    def test_coarse_mode_takes_the_same_rule(self, n):
        r = max_rho_stable(self.FALLING, n, grid_points=512, refine_brackets=0)
        assert r.decidability == INCONCLUSIVE and r.infimum_location == AT_WINDOW_EDGE


class TestStableClassification:
    def test_case_i(self):
        r = max_rho_stable(stable_bivariate(1, 1, 0, 0.7, 0.7, 0.7,
                                            1.0, 1.3, 1.2), 1)
        assert r.case == "i" and r.decidability == SUFFICIENT
        assert r.rho_bound == pytest.approx(0.874495418578353, rel=1e-9, abs=0.0)

    def test_case_i_boundary_equality(self):
        # equal scales sit exactly on the case-i scale condition
        r = max_rho_stable(stable_bivariate(1, 1, 0, 0.5, 0.5, 0.5, 2, 2, 2), 1)
        assert r.case == "i" and r.rho_bound == pytest.approx(1.0, abs=1e-10)

    def test_cases_ii_iii_mirror(self):
        r2 = max_rho_stable(stable_bivariate(1, 1, 0, 0.8, 0.8, 0.5,
                                             1.0, 0.9, 1.0), 1)
        r3 = max_rho_stable(stable_bivariate(1, 1, 0, 0.5, 0.8, 0.8,
                                             1.0, 0.9, 1.0), 1)
        assert r2.case == "ii" and r3.case == "iii"
        assert r2.rho_bound == pytest.approx(0.7274696214063866, rel=1e-9, abs=0.0)
        # swapping the component labels must not move the bound
        assert r3.rho_bound == pytest.approx(r2.rho_bound, rel=1e-9, abs=0.0)

    def test_case_iv(self):
        r = max_rho_stable(stable_bivariate(1, 1, 0, 0.8, 0.9, 0.6,
                                            0.5, 0.7, 0.7), 3)
        assert r.case == "iv" and r.decidability == SUFFICIENT
        assert r.rho_bound == pytest.approx(0.61361730878081888, rel=1e-9, abs=0.0)
        assert r.infimum_location == pytest.approx(3.165703783958171, rel=1e-6, abs=0.0)

    def test_below_mean_is_necessarily_zero(self):
        r = max_rho_stable(stable_bivariate(1, 1, 0, 0.8, 0.5, 0.6, 1, 1, 1), 1)
        assert r.case == "alpha12-below-mean"
        assert r.decidability == NECESSARILY_ZERO
        assert r.rho_bound == 0.0 and r.infimum == 0.0

    def test_no_positive_case_is_inconclusive(self):
        r = max_rho_stable(stable_bivariate(1, 1, 0, 0.5, 0.5, 0.5,
                                            1.0, 0.5, 1.0), 1)
        assert r.case == "no-positive-case"
        assert r.decidability == INCONCLUSIVE
        assert r.rho_bound == 0.0 and r.infimum_location == AT_INFINITY

    def test_smoothness_exactly_one_edge(self):
        r = max_rho_stable(stable_bivariate(1, 1, 0, 1.0, 1.2, 1.0, 1, 1, 1), 1)
        assert r.case == "iv" and r.decidability == INCONCLUSIVE
        assert r.rho_bound == 0.0 and r.infimum_location == AT_ZERO
        assert "exactly at 1" in r.note

    @pytest.mark.parametrize("n", [1, 3])
    @pytest.mark.parametrize("family", ["stable", "cauchy"])
    def test_smoothness_one_within_tolerance_is_the_same_edge(self, family, n):
        # the endpoint rule reads alpha == 1 with the case classifier's
        # tolerance; 1e-11 off lies outside it and keeps the window-edge answer
        def report(a11):
            if family == "stable":
                return max_rho_stable(stable_bivariate(1, 1, 0, a11, 1.2, 0.7, 1, 0.9, 1.1), n)
            return max_rho_cauchy(cauchy_bivariate(1, 1, 0, a11, 1.2, 0.7, 2, 3, 2.5,
                                                   1, 0.9, 1.1), n)
        at_one, near_one, off_one = report(1.0), report(1.0 - 1e-13), report(1.0 - 1e-11)
        assert at_one.infimum_location == near_one.infimum_location == AT_ZERO
        assert near_one.decidability == INCONCLUSIVE and near_one.note == at_one.note
        assert "exactly at 1" in near_one.note
        assert off_one.infimum_location == AT_WINDOW_EDGE

    def test_dim_two_resolves_to_three(self):
        m = stable_bivariate(1, 1, 0, 0.8, 0.9, 0.6, 0.5, 0.7, 0.7)
        r = max_rho_stable(m, 2)
        assert r.n == 3 and "n = 2" in r.note
        assert r.rho_bound == max_rho_stable(m, 3).rho_bound

    def test_bad_dimension(self):
        with pytest.raises(ValueError):
            max_rho_stable(FIG_STABLE, 4)


class TestCauchyClassification:
    def test_case_i_smoothness_below_mean(self):
        r = max_rho_cauchy(cauchy_bivariate(1, 1, 0, 0.5, 0.4, 0.6,
                                            2, 2, 2, 1, 1, 1), 1)
        assert r.case == "i" and r.decidability == NECESSARILY_ZERO
        assert r.rho_bound == 0.0

    def test_case_ii_all_tails_heavy(self):
        r = max_rho_cauchy(cauchy_bivariate(1, 1, 0, 0.5, 0.6, 0.6,
                                            1.0, 0.7, 0.8, 1, 1, 1), 3)
        assert r.case == "ii" and r.decidability == NECESSARILY_ZERO

    def test_case_iii_one_heavy_one_light(self):
        r = max_rho_cauchy(cauchy_bivariate(1, 1, 0, 0.5, 0.6, 0.6,
                                            0.5, 0.6, 3.0, 1, 1, 1), 1)
        assert r.case == "iii" and r.decidability == NECESSARILY_ZERO

    def test_case_iv_inconclusive(self):
        r = max_rho_cauchy(cauchy_bivariate(1, 1, 0, 0.5, 0.6, 0.6,
                                            2.0, 2.2, 3.0, 1, 1, 1), 1)
        assert r.case == "iv" and r.decidability == INCONCLUSIVE
        assert r.rho_bound == 0.0

    def test_case_v_sufficient(self):
        r = max_rho_cauchy(FIG_CAUCHY, 1)
        assert r.case == "v" and r.decidability == SUFFICIENT


class TestGenericRoute:
    @pytest.mark.parametrize("n", [1, 3])
    def test_matches_stable_closed_form(self, n):
        g = generic_sufficient_check(FIG_STABLE, n)
        c = max_rho_stable(FIG_STABLE, n)
        assert g.rho_bound == pytest.approx(c.rho_bound, rel=1e-9, abs=0.0)
        assert g.case == "generic" and g.decidability == SUFFICIENT

    def test_matches_cauchy_closed_form(self):
        g = generic_sufficient_check(FIG_CAUCHY, 1)
        c = max_rho_cauchy(FIG_CAUCHY, 1)
        assert g.rho_bound == pytest.approx(c.rho_bound, rel=1e-9, abs=0.0)

    def test_spherical_member_rejected(self):
        m = BivariateModel(1.0, 1.0, 0.0, spherical(1.0), stable(0.5, 1.0),
                           stable(0.5, 1.0))
        with pytest.raises(NotApplicable):
            generic_sufficient_check(m, 3)

    def test_non_decaying_member_rejected(self):
        m = BivariateModel(1.0, 1.0, 0.0, matern(0.5, 1e-12),
                           stable(0.5, 1.0), stable(0.5, 1.0))
        with pytest.raises(NotApplicable):
            generic_sufficient_check(m, 1)

    def test_matern_sign_condition_fails(self):
        # nu11 = 0.7 > 1/2: psi'' = c (x^nu K_nu - (2 nu - 1) x^(nu-1) K_(nu-1))
        # falls to -inf as x -> 0, and so does psi'' - r psi'''
        m = BivariateModel(1.0, 1.0, 0.0, matern(0.7, 1.0), matern(1.0, 1.0),
                           matern(1.3, 1.0))
        with pytest.raises(NotApplicable, match="psi11 violates the marginal second-order"):
            generic_sufficient_check(m, 3)

    @pytest.mark.parametrize("n,want", [(1, 0.29906084460883636), (3, 0.2468323904409174)])
    def test_matern_bound_from_exact_derivatives(self, n, want):
        # central differences put the n = 3 bound at 0.24683277795404218,
        # 1.6e-6 above its true value
        m = matern_bivariate(1.0, 1.0, 0.0, 0.2729653856654739, 0.4008165909944131,
                             0.13916612038035503, 0.435816560541311, 1.7179540936378843,
                             2.7086787231686267)
        assert generic_sufficient_check(m, n).rho_bound_raw == pytest.approx(
            want, rel=1e-9, abs=0.0)

    @settings(max_examples=30, deadline=None, derandomize=True,
              suppress_health_check=[HealthCheck.too_slow])
    @given(nu11=st.floats(0.05, 0.5), nu12=st.floats(0.05, 1.5), nu22=st.floats(0.05, 0.5),
           scales=st.tuples(*[st.floats(0.1, 10.0)] * 3), n=st.sampled_from([1, 3]))
    def test_rough_matern_marginals_meet_the_sign_condition(self, nu11, nu12, nu22, scales, n):
        # for nu <= 1/2, psi'' and -r psi''' are sums of nonnegative Bessel terms
        m = matern_bivariate(1.0, 1.0, 0.0, nu11, nu12, nu22, *scales)
        try:
            generic_sufficient_check(m, n)
        except NotApplicable as exc:
            assert "sign condition" not in str(exc)

    @pytest.mark.parametrize("fam", [stable(0.3, 2.0), stable(1.0, 0.7), stable(2.0, 1.3),
                                     cauchy(0.5, 2.0, 1.5), cauchy(1.0, 0.3, 0.2),
                                     cauchy(1.9, 4.0, 8.0)])
    @pytest.mark.parametrize("n", [1, 3])
    def test_second_form_takes_both_orders_from_one_chain(self, fam, n):
        r = np.geomspace(1e-8, 1e8, 97)
        want = derivative(fam, r, 2) - (r * derivative(fam, r, 3) if n == 3 else 0.0)
        with np.errstate(all="ignore"):
            got = validity._second_form(fam, r, n)
        assert got.tobytes() == np.asarray(want, dtype=float).tobytes()

    @pytest.mark.parametrize("n", [1, 3])
    def test_underflowing_ratio_not_applicable(self, n):
        # alpha12 below the marginal mean: the ratio keeps falling until the
        # raw derivatives underflow, so no finite minimum exists on the grid
        m = stable_bivariate(1.0, 1.0, 0.0, 0.8635, 0.7372, 0.8656,
                             0.6516, 0.4098, 0.7919)
        with pytest.raises(NotApplicable, match="underflow"):
            generic_sufficient_check(m, n)
        assert max_rho_stable(m, n).decidability == NECESSARILY_ZERO


class TestEngineCost:
    """The zoom refines every bracket in the same few integrand calls."""

    @staticmethod
    def calls(monkeypatch, fn, model, **kw):
        count = [0]
        build = validity._log_integrand

        def counting(*args):
            log_fn = build(*args)

            def wrapped(lr):
                count[0] += 1
                return log_fn(lr)
            return wrapped

        monkeypatch.setattr(validity, "_log_integrand", counting)
        report = fn(model, 3, **kw)
        monkeypatch.undo()
        return count[0], report

    @pytest.mark.parametrize("fn,model", [
        (max_rho_stable, stable_bivariate(1.0, 1.0, 0.0, 0.6, 0.6, 0.6, 1.3, 1.3, 1.3)),
        (max_rho_cauchy, cauchy_bivariate(1.0, 1.0, 0.0, 0.6, 0.6, 0.6, 2.5, 2.5, 2.5,
                                          1.3, 1.3, 1.3)),
    ], ids=["stable", "cauchy"])
    def test_separable_model_costs_one_bracket(self, monkeypatch, fn, model):
        # a constant integrand makes every grid point an interior minimum, so
        # all eight brackets run to tolerance; they share each zoom pass, so
        # the grid call and the pass bound of a single bracket cover them
        eight, report = self.calls(monkeypatch, fn, model)
        one, _ = self.calls(monkeypatch, fn, model, refine_brackets=1)
        width = 2.0 * (validity._GRID_HI - validity._GRID_LO) / (validity._GRID_POINTS - 1)
        passes = math.ceil(math.log(width / validity._ZOOM_TOL)
                           / math.log((validity._ZOOM_POINTS - 1) / 2))
        assert report.rho_bound == pytest.approx(1.0, abs=1e-12)
        assert eight == one <= 1 + passes

    # FIG_STABLE's generic reports and derivative calls since one outer
    # function per family drives the radial derivatives.  Before it, n = 1
    # read infimum 0.13944620942559402 and bound 0.3734249716149069 at
    # 5.66692719310287, and n = 3 the same infimum and bound at
    # 7.788994555031706; the closed-form engine reads 0.3734249716149066 in n = 1.
    # The golden-section search before the zoom read 0.3734249716149069 at
    # 5.666927054300786 and 0.3607155794057417 at 7.788994034532395, with 126
    # and 252 derivative calls.  A stable member's psi'' and psi''' now come from
    # one chain call, so ``calls`` counts the orders those calls compute
    @pytest.mark.parametrize("n,infimum,raw,location,calls", [
        (1, 0.13944620942559377, 0.37342497161490656, 5.666927193767619, 18),
        (3, 0.13011572922601974, 0.3607155794057414, 7.78899455509697, 36),
    ])
    def test_generic_route_evaluates_its_grid_once(self, monkeypatch, n, infimum, raw,
                                                    location, calls):
        chains, orders, chain = [0], [0], validity._chain_deriv

        def counting(params, r, ks):
            chains[0] += 1
            orders[0] += len(ks)
            return chain(params, r, ks)

        monkeypatch.setattr(validity, "_chain_deriv", counting)
        monkeypatch.setattr(validity, "derivative", None)   # stable members never call it
        report = generic_sufficient_check(FIG_STABLE, n)
        assert report == ValidityReport(
            rho_bound_raw=raw, rho_bound=raw, infimum=infimum, case="generic",
            infimum_location=location, decidability=SUFFICIENT, n=n, note="")
        # one chain call per member on the grid and again on each of the five
        # zoom passes, giving psi'' (and psi''' for n = 3)
        assert chains[0] == 18 and orders[0] == calls


class TestSphericalTriviality:
    def test_zero_rho_valid(self):
        v = spherical_triviality(1.0, 1.4, 2.0, 0.0)
        assert v.valid and v.witness_u is None

    def test_equal_scales_valid(self):
        v = spherical_triviality(1.3, 1.3, 1.3, 0.9)
        assert v.valid and v.witness_u is None

    def test_distinct_scales_witness(self):
        v = spherical_triviality(1.0, 1.4, 2.0, 0.3)
        assert not v.valid
        # first zero of the s11 marginal density: 2 s11 x1, tan(x1) = x1
        assert v.witness_u == pytest.approx(8.986818915818128, rel=1e-12, abs=0.0)

    def test_cross_scale_equal_to_first_marginal(self):
        # zeros of f12 coincide with f11's, so the witness scan must switch
        # to the second marginal's zeros
        v = spherical_triviality(1.0, 1.0, 2.0, 0.5)
        assert not v.valid
        assert v.witness_u == pytest.approx(4.0 * 4.493409457909064, rel=1e-12, abs=0.0)

    def test_tiny_rho_still_invalid(self):
        v = spherical_triviality(1.0, 1.4, 2.0, 0.05)
        assert not v.valid and v.witness_u is not None

    def test_validation(self):
        with pytest.raises(ValueError):
            spherical_triviality(0.0, 1.0, 1.0, 0.5)
        with pytest.raises(ValueError):
            spherical_triviality(1.0, 1.0, 1.0, 1.5)


class TestSphericalOutsideR3:
    def test_distinct_scales_meet_cramers_condition_in_r1(self):
        # the R^3 refutation of scales (1, 1.4, 2) at rho = 0.05 proves nothing in
        # R^1: there every member's density is positive (QUADPACK's finite-interval
        # cosine rule), and min f11 f22 / f12^2 over 6,000 log-spaced frequencies is
        # 0.502 at u = 14.7, so |rho| up to about 0.71 meets Cramer's condition on them
        model = spherical_bivariate(1.0, 1.0, 0.05, 1.0, 1.4, 2.0)
        u = np.geomspace(1e-4, 5e3, 6000)
        p = cross_spectral_profile(model, 1, u)
        assert np.all(p.f11 > 0.0) and np.all(p.f22 > 0.0)
        ratio = p.f11 * p.f22 / p.f12 ** 2
        i = int(np.argmin(ratio))
        assert ratio[i] == pytest.approx(0.5021, rel=1e-3, abs=0.0)
        assert u[i] == pytest.approx(14.73, rel=1e-3, abs=0.0)
        assert spherical_triviality(1.0, 1.4, 2.0, 0.05).witness_u is not None
        for n in (1, 2):
            report = certify(model, n)
            assert report.decidability == INCONCLUSIVE and report.witness_u is None
        report = certify(model, 3)
        assert report.decidability == NECESSARILY_ZERO
        assert report.witness_u == pytest.approx(8.986818915818128, rel=1e-12, abs=0.0)


class TestCertify:
    KINDS = {
        "stable": FIG_STABLE,
        "cauchy": FIG_CAUCHY,
        "spherical": spherical_bivariate(1.0, 1.0, 0.3, 1.3, 1.3, 1.3),
        "matern": matern_bivariate(1.0, 1.0, 0.3, 0.6, 1.0, 1.4, 1.0, 1.0, 1.0),
        "lmc": LmcBivariate((1.0, 0.3, 0.2), (0.1, 0.25, 0.9), stable(1.0, 0.5), stable(1.0, 2.0)),
        "mixed": BivariateModel(1.0, 1.0, 0.2, spherical(1.0), stable(0.5, 1.0),
                                stable(0.5, 1.0)),
    }

    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize("kind", list(KINDS))
    def test_every_kind_gets_a_report(self, kind, n):
        report = certify(self.KINDS[kind], n)
        assert isinstance(report, ValidityReport)
        assert report.decidability in (SUFFICIENT, NECESSARILY_ZERO, INCONCLUSIVE)

    @pytest.mark.parametrize("kind", list(KINDS))
    def test_dimension_4_raises_for_every_kind(self, kind):
        with pytest.raises(ValueError, match="dimension"):
            certify(self.KINDS[kind], 4)

    @pytest.mark.parametrize("kind,case,decidability,rho_bound", [
        ("spherical", "spherical", SUFFICIENT, 1.0),
        ("matern", "no-route", INCONCLUSIVE, None),
        ("lmc", "lmc", SUFFICIENT, None),
        ("mixed", "no-route", INCONCLUSIVE, None),
    ])
    def test_short_routes(self, kind, case, decidability, rho_bound):
        report = certify(self.KINDS[kind], 3)
        assert (report.case, report.decidability, report.rho_bound) == (
            case, decidability, rho_bound)
        assert report.rho_bound_raw is None and report.infimum_location is None
        assert report.note

    def test_separable_model_of_another_kind(self):
        report = certify(matern_bivariate(1.0, 1.0, 0.0, 0.6, 1.0, 1.4, 1.0, 1.0, 1.0), 1)
        assert (report.case, report.decidability, report.rho_bound) == (
            "separable", SUFFICIENT, 0.0)

    def test_generic_route_and_engine_options(self):
        m = matern_bivariate(1.0, 1.0, 0.2, 0.2729653856654739, 0.4008165909944131,
                             0.13916612038035503, 0.435816560541311, 1.7179540936378843,
                             2.7086787231686267)
        assert certify(m, 1) == generic_sufficient_check(m, 1)
        coarse = dict(grid_points=512, refine_brackets=0)
        assert certify(FIG_CAUCHY, 1, **coarse) == max_rho_cauchy(FIG_CAUCHY, 1, **coarse)

    def test_a_wrapper_on_the_engine_sees_certify_and_the_fit(self, monkeypatch):
        calls = []
        original = validity.max_rho_stable

        def counting(*args, **kw):
            calls.append(kw.get("refine_brackets", 8))
            return original(*args, **kw)

        monkeypatch.setattr(validity, "max_rho_stable", counting)
        model = stable_bivariate(1.0, 1.0, 0.2, 0.2, 0.6, 0.5, 2.0, 1.0, 3.0)
        assert certify(model, 3) == original(model, 3)
        pts = np.random.default_rng(0).uniform(0.0, 10.0, size=(12, 2))
        data = simulate(model, np.repeat(pts, 2, axis=0), np.tile([1, 2], 12), seed=2)
        spec = _ParamSpec("stable", data, 2, False, 0.0, 0.0)
        fitted, _, _ = spec.decode(spec.starts(1, 0)[0])
        spec.exact_rho_clip(fitted)
        # validate's fine call, the rho cap's coarse call, the final clip's fine call
        assert calls == [8, 0, 8]

