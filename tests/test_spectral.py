import math

import numpy as np
import pytest

from bicov import BivariateModel, cauchy, matern, spherical, stable
from bicov import spectral
from bicov.spectral import (
    NonIntegrable,
    QuadratureError,
    cross_spectral_profile,
    member_spectral_density,
    spectral_pd_inequality,
    spherical_density_closed_form,
    tan_roots,
    tauberian_slope,
)

# mpmath, 40 digits: findroot on cot(x) - 1/x per bracket
TAN_ROOTS = [4.4934094579090641753, 7.7252518369377071642, 10.904121659428899827]

# mpmath oracles for (family, n, u) -> density: quad/quadosc, except the two
# stable(0.5) rows at u > 0, which sum the convergent series of the symmetric
# stable density for alpha < 1 at 50 digits,
#   p(u) = (1/pi) sum_(k>=1) (-1)^(k+1) Gamma(alpha k + 1) / k! sin(k pi alpha / 2)
#          u^-(alpha k + 1)
DENSITY_VALUES = [
    (stable(0.5, 1.0), 1, 0.0, 0.63661977236758134308, 1e-12),
    (stable(0.5, 1.0), 1, 0.5, 0.17076240172520622381, 1e-12),
    (stable(0.5, 1.0), 1, 2.0, 0.039142858049651342948, 1e-12),
    (stable(1.5, 0.8), 3, 1.0, 0.033203240942625437714, 1e-12),
    (cauchy(1.0, 1.5, 1.0), 1, 1.0, 0.12125984445178929915, 1e-10),
    (spherical(1.0), 1, 0.0, 0.11936620731892150183, 1e-12),
    (spherical(1.0), 1, 1.0, 0.11289819116638503867, 1e-12),
    (spherical(0.7), 1, 2.3, 0.091991750503794832133, 1e-12),
]


class TestTanRoots:
    def test_frozen_values(self):
        got = tan_roots(3)
        assert got == pytest.approx(TAN_ROOTS, rel=1e-14)

    def test_bracketing(self):
        roots = tan_roots(25)
        assert np.all(np.diff(roots) > 0)
        k = np.arange(1, 26)
        assert np.all(roots > math.pi * k)
        assert np.all(roots < math.pi * k + math.pi / 2)

    def test_validates_count(self):
        with pytest.raises(ValueError):
            tan_roots(0)

    def test_each_call_returns_its_own_copy(self):
        first = tan_roots(5)
        want = first.copy()
        first[:] = 0.0
        assert tan_roots(5).tobytes() == want.tobytes()
        assert tan_roots(5) is not tan_roots(5)


class TestSphericalClosedForm:
    def test_origin_value(self):
        s = 0.7
        assert spherical_density_closed_form(s, 0.0) == pytest.approx(
            1.0 / (48.0 * math.pi ** 2 * s ** 3), rel=1e-15)

    def test_spot_value(self):
        assert spherical_density_closed_form(0.7, 2.3) == pytest.approx(
            0.0035066633957526133038, rel=1e-14)

    def test_zeros_at_scaled_tan_roots(self):
        # u cos(u/2s) - 2s sin(u/2s) vanishes exactly at u = 2 s x_k
        s = 1.3
        u = 2.0 * s * tan_roots(4)
        f = spherical_density_closed_form(s, u)
        assert np.all(f < 1e-25 * spherical_density_closed_form(s, 0.0))

    def test_series_matches_direct_at_split(self):
        # the series takes over below x = u/2s = 1e-3; both branches agree
        # to roundoff on either side
        s = 2.0
        u_lo = 2.0 * s * 1e-3 * (1.0 - 1e-9)
        u_hi = 2.0 * s * 1e-3 * (1.0 + 1e-9)
        f_lo = spherical_density_closed_form(s, u_lo)
        f_hi = spherical_density_closed_form(s, u_hi)
        assert f_lo == pytest.approx(f_hi, rel=1e-9)

    def test_validation(self):
        with pytest.raises(ValueError):
            spherical_density_closed_form(0.0, 1.0)
        with pytest.raises(ValueError):
            spherical_density_closed_form(1.0, -0.5)


class TestMemberDensity:
    @pytest.mark.parametrize("family,n,u,want,rel", DENSITY_VALUES)
    def test_frozen_points(self, family, n, u, want, rel):
        assert member_spectral_density(family, n, u) == pytest.approx(want, rel=rel, abs=0.0)

    @pytest.mark.parametrize("s", [1.0, 1.3])
    def test_exponential_line_density(self, s):
        u = np.array([0.0, 0.3, 1.0, 4.0, 20.0])
        exact = s / (math.pi * (s * s + u * u))
        got = member_spectral_density(stable(1.0, s), 1, u)
        assert got == pytest.approx(exact, rel=1e-9)

    @pytest.mark.parametrize("s", [1.0, 1.3])
    def test_exponential_space_density(self, s):
        u = np.array([0.0, 0.3, 1.0, 4.0, 20.0])
        exact = s / (math.pi ** 2 * (s * s + u * u) ** 2)
        got = member_spectral_density(stable(1.0, s), 3, u)
        assert got == pytest.approx(exact, rel=1e-9)

    @pytest.mark.parametrize("n", [1, 3])
    @pytest.mark.parametrize("s", [1.0, 3.0])
    def test_exponential_density_at_small_frequency(self, s, n):
        u = np.array([1e-4, 4e-4]) * s
        exact = (s / (math.pi * (s * s + u * u)) if n == 1
                 else s / (math.pi ** 2 * (s * s + u * u) ** 2))
        assert member_spectral_density(stable(1.0, s), n, u) == pytest.approx(exact, rel=1e-9)

    @pytest.mark.parametrize("n", [1, 3])
    @pytest.mark.parametrize("alpha", [1.0, 2.0])
    @pytest.mark.parametrize("s", [0.1, 1.0, 3.0, 10.0])
    def test_closed_form_members_over_twelve_decades(self, s, alpha, n):
        # exponential and Gaussian members from u = 1e-8, far inside the
        # exp-sinh regime, to 1e3, where the densities fall by up to 1e-13
        # (alpha = 1) or underflow (alpha = 2): within 1e-9 relative, or 1e-14
        # of f(0) where the value itself is below that
        u = np.geomspace(1e-8, 1e3, 111)
        if alpha == 1.0:
            exact = (s / (math.pi * (s * s + u * u)) if n == 1
                     else s / (math.pi ** 2 * (s * s + u * u) ** 2))
        else:
            head = 2.0 * math.sqrt(math.pi) * s if n == 1 else 8.0 * math.pi ** 1.5 * s ** 3
            exact = np.exp(-0.25 * (u / s) ** 2) / head
        got = member_spectral_density(stable(alpha, s), n, u)
        tol = np.maximum(1e-9 * exact, 1e-14 * exact[0])
        assert np.all(np.abs(got - exact) <= tol)

    # the stable series above for alpha = 0.05 in R^3, f3(u) = -f1'(u) / (2 pi u), 50 digits
    SMALL_ALPHA_R3 = [(0.5, 0.01169422841914338764609), (2.0, 0.0001829931891083969502119),
                      (20.0, 1.815594292380849982727e-7)]

    @pytest.mark.parametrize("u,want", SMALL_ALPHA_R3)
    def test_small_alpha_in_r3_is_integrated_by_parts(self, u, want):
        # the cosine form (psi + r psi') cos(u r) / u keeps these within 1e-12;
        # the sine form r psi sin(u r), whose amplitude grows to 1e4 before it
        # decays, misses by 1.2e-12 to 7e-12
        assert member_spectral_density(stable(0.05, 1.0), 3, u) == pytest.approx(
            want, rel=1e-12, abs=0.0)

    def test_small_alpha_cauchy_in_r3_keeps_the_sine_form(self):
        # integrated by parts, this member's transform cancels to below its
        # error estimate at small u; the sine form holds it
        u = np.array([1.3e-8, 4.1e-7, 1e-4])
        assert np.all(member_spectral_density(cauchy(0.08, 14.7, 1.0), 3, u) > 0.0)

    def test_step_sizes_agree_on_random_members(self):
        # seeded stable and Cauchy members over u/s in [1e-3, 1e3]: the rule at
        # t-step 0.025 passes its own error test and agrees with the rule at
        # half the step within the same threshold, 1e-5 |J| + 1e-9
        rng = np.random.default_rng(20)
        for i in range(1200):
            n = (1, 3)[i % 2]
            alpha, scale = rng.uniform(0.05, 2.0), 10.0 ** rng.uniform(-1.0, 1.0)
            fam = (stable(alpha, scale) if i % 4 < 2
                   else cauchy(alpha, rng.uniform(n, 20.0) + 1e-9, scale))
            v = 10.0 ** rng.uniform(-3.0, 3.0, 5)
            j, err = spectral._transform(fam.params, n, v)
            finer, _ = spectral._transform(fam.params, n, v, h=0.0125)
            threshold = 1e-5 * np.abs(j) + 1e-9
            assert np.all(err <= threshold), (fam, n, v)
            assert np.all(np.abs(finer - j) <= threshold), (fam, n, v)

    def test_failed_error_test_raises(self, monkeypatch):
        # a rule that changes with its step must raise, never return a value
        real = spectral._transform

        def rough(p, n, v, h=0.025):
            j, _ = real(p, n, v, h)
            return j, 1e-3 * np.abs(j)
        monkeypatch.setattr(spectral, "_transform", rough)
        with pytest.raises(QuadratureError):
            member_spectral_density(stable(0.7, 1.0), 1, [0.0, 0.5])

    def test_spherical_line_density(self):
        # J(x) = 3 (x^2/2 - x sin x + 1 - cos x) / x^4, x = u/s, from its series
        # below x = 1 to the direct form above; J(0) = 3/8
        s = 0.7
        assert member_spectral_density(spherical(s), 1, 0.0) == pytest.approx(
            3.0 / (8.0 * math.pi * s), rel=1e-15, abs=0.0)
        lo, hi = member_spectral_density(spherical(s), 1, [s * (1 - 1e-9), s * (1 + 1e-9)])
        assert lo == pytest.approx(hi, rel=1e-8, abs=0.0)
        # x = 1e-3: 3/8 - x^2/48 + x^4/1920 - ..., where the direct form is 1e-4 off
        x = 1e-3
        want = (3.0 / 8.0 - x ** 2 / 48.0 + x ** 4 / 1920.0) / (math.pi * s)
        assert member_spectral_density(spherical(s), 1, x * s) == pytest.approx(
            want, rel=1e-15, abs=0.0)

    def test_matern_half_matches_exponential(self):
        s = 1.3
        u = np.array([0.0, 0.5, 2.0, 10.0])
        exact = s / (math.pi * (s * s + u * u))
        got = member_spectral_density(matern(0.5, s), 1, u)
        assert got == pytest.approx(exact, rel=1e-9)

    @pytest.mark.parametrize("s", [0.4, 1.3, 3.0])
    def test_matern_closed_form_at_every_frequency(self, s):
        # elementary forms of Gamma(nu + n/2) / (Gamma(nu) pi^(n/2)) s^(2 nu)
        # / (s^2 + u^2)^(nu + n/2), from u far below s to far above it
        u = np.array([0.0, 1e-6, 1e-3, 0.5, 2.0, 10.0, 1e3, 1e60])
        nu_three_halves = 2.0 * s ** 3 / (math.pi * (s * s + u * u) ** 2)
        nu_half_in_3d = s / (math.pi ** 2 * (s * s + u * u) ** 2)
        assert member_spectral_density(matern(1.5, s), 1, u) == pytest.approx(
            nu_three_halves, rel=1e-13)
        assert member_spectral_density(matern(0.5, s), 3, u) == pytest.approx(
            nu_half_in_3d, rel=1e-13)

    def test_heavy_cauchy_is_rejected(self):
        with pytest.raises(NonIntegrable):
            member_spectral_density(cauchy(1.0, 0.5, 1.0), 1, 1.0)
        with pytest.raises(NonIntegrable):
            member_spectral_density(cauchy(1.0, 3.0, 1.0), 3, 1.0)
        member_spectral_density(cauchy(1.0, 3.0, 1.0), 1, 1.0)

    def test_scalar_and_array(self):
        fam = stable(1.0, 1.0)
        one = member_spectral_density(fam, 1, 0.5)
        assert isinstance(one, float)
        arr = member_spectral_density(fam, 1, [0.5, 1.0])
        assert arr.shape == (2,)
        assert arr[0] == one

    def test_validation(self):
        with pytest.raises(ValueError):
            member_spectral_density(stable(1.0, 1.0), 2, 1.0)
        with pytest.raises(ValueError):
            member_spectral_density(stable(1.0, 1.0), 1, -1.0)


class TestCrossProfile:
    def test_profile_and_csv(self, tmp_path):
        m = BivariateModel(1.0, 2.0, 0.3, stable(1.0, 1.0),
                           stable(1.0, 1.2), stable(1.0, 1.5))
        u = np.linspace(0.0, 5.0, 7)
        prof = cross_spectral_profile(m, 1, u)
        assert prof.n == 1
        assert prof.f11.shape == (7,)
        assert prof.f11[0] == pytest.approx(1.0 / math.pi, rel=1e-10)

        out = tmp_path / "profile.csv"
        prof.to_csv(str(out))
        text = out.read_text().splitlines()
        assert text[0] == "u,f11,f12,f22"
        back = np.loadtxt(str(out), delimiter=",", skiprows=1)
        assert back.shape == (7, 4)
        np.testing.assert_allclose(back[:, 1], prof.f11, rtol=1e-15)


class TestPdInequality:
    def test_separable_margin_nonnegative(self):
        m = BivariateModel(1.0, 1.0, 0.8, stable(0.7, 1.1),
                           stable(0.7, 1.1), stable(0.7, 1.1))
        prof = cross_spectral_profile(m, 1, np.linspace(0.0, 8.0, 9))
        chk = spectral_pd_inequality(prof, 0.8)
        assert chk.satisfied
        # identical members: margin is (1 - rho^2) f^2 pointwise
        expect = (1.0 - 0.64) * np.min(prof.f11 ** 2)
        assert chk.min_margin == pytest.approx(expect, rel=1e-8)

    def test_spherical_violation_at_scaled_root(self):
        # f11 vanishes at u = 2 s11 x_1 while f12 does not, so any rho != 0
        # fails the pointwise inequality there
        m = BivariateModel(1.0, 1.0, 0.05, spherical(1.0),
                           spherical(1.4), spherical(2.0))
        ustar = 2.0 * 1.0 * tan_roots(1)[0]
        u = np.array([0.9 * ustar, ustar, 1.1 * ustar])
        chk = spectral_pd_inequality(cross_spectral_profile(m, 3, u), 0.05)
        assert not chk.satisfied
        assert chk.u_at_min == pytest.approx(ustar, rel=1e-12)
        assert chk.min_margin < 0.0

    def test_equal_scale_spherical_passes(self):
        m = BivariateModel(1.0, 1.0, 0.05, spherical(1.0),
                           spherical(1.0), spherical(1.0))
        u = np.linspace(1e-3, 2.0 * tan_roots(5)[-1], 60)
        chk = spectral_pd_inequality(cross_spectral_profile(m, 3, u), 0.05)
        assert chk.satisfied


class TestTauberianSlope:
    def test_stable_tail_exponents(self):
        assert tauberian_slope(stable(0.5, 1.0), 1, (1e2, 1e3)) == pytest.approx(
            -1.5, abs=0.05)
        assert tauberian_slope(stable(1.0, 1.0), 1, (1e2, 1e3)) == pytest.approx(
            -2.0, abs=0.01)

    def test_heavy_cauchy_origin_exponent(self):
        # beta < n: density blows up like u^(beta - n) at the origin; the
        # slope path bypasses the integrability gate on purpose
        fam = cauchy(1.0, 0.5, 1.0)
        assert tauberian_slope(fam, 1, (1e-4, 1e-3)) == pytest.approx(
            -0.5, abs=0.05)

    def test_window_validation(self):
        fam = stable(1.0, 1.0)
        with pytest.raises(ValueError):
            tauberian_slope(fam, 1, (1.0, 1.0))
        with pytest.raises(ValueError):
            tauberian_slope(fam, 1, (0.0, 1.0))
