import math

import numpy as np
import pytest

from bicov import BivariateModel, cauchy, matern, spherical, stable
from bicov.spectral import (
    NonIntegrable,
    cross_spectral_profile,
    member_spectral_density,
    spectral_pd_inequality,
    spherical_density_closed_form,
    tan_roots,
    tauberian_slope,
)

# mpmath, 40 digits: findroot on cot(x) - 1/x per bracket
TAN_ROOTS = [4.4934094579090641753, 7.7252518369377071642, 10.904121659428899827]

# mpmath quad/quadosc oracles for (family, n, u) -> density.  The heavy-tail
# stable transform at u > 0 is the only case limited by the oscillatory
# extrapolation rather than roundoff.
DENSITY_VALUES = [
    (stable(0.5, 1.0), 1, 0.0, 0.63661977236758134308, 1e-12),
    (stable(0.5, 1.0), 1, 0.5, 0.17076239264532643122, 1e-6),
    (stable(0.5, 1.0), 1, 2.0, 0.039142856914661545588, 1e-6),
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
        assert member_spectral_density(family, n, u) == pytest.approx(want, rel=rel)

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
