"""Bivariate covariance models: validity bounds, spectra, simulation, fitting.

The package certifies how much colocated correlation a bivariate powered
exponential or generalized Cauchy covariance model can carry, checks the
spectral necessary conditions, proves the bivariate spherical model trivial,
and provides the applied layer: Gram assembly, Gaussian simulation, maximum
likelihood fitting, and simple cokriging, plus a CLI over all of it.
"""

from .bimodels import (BivariateModel, LmcBivariate, ModelParseError,
                       cauchy_bivariate, eval_lmc, eval_matrix,
                       matern_bivariate, model_from_text, model_to_text,
                       spherical_bivariate, stable_bivariate)
from .corrfn import (ALPHA_MIN, CauchyParams, CorrelationFamily, KinkError,
                     MaternParams, SphericalParams, StableParams, cauchy,
                     derivative, evaluate, matern, spherical, stable)
from .field import (FieldSample, FitResult, PdCheck, check_pd, cokrige, fit_ml,
                    gram, loo_rmse, nll, simulate)
from .spectral import (NonIntegrable, QuadratureError, SpectralCheck,
                       SpectralProfile, cross_spectral_profile,
                       forward_transform, member_spectral_density,
                       spectral_pd_inequality, spherical_density_closed_form,
                       tan_roots, tauberian_slope)
from .validity import (ExcludedPoint, NotApplicable, TrivialityVerdict,
                       ValidityReport, cauchy_bound_integrand,
                       generic_sufficient_check, max_rho_cauchy,
                       max_rho_stable, p_fn, q_fn, spherical_triviality,
                       stable_bound_integrand)

__version__ = "0.1.0"

__all__ = [
    "ALPHA_MIN",
    "BivariateModel",
    "CauchyParams",
    "CorrelationFamily",
    "ExcludedPoint",
    "FieldSample",
    "FitResult",
    "KinkError",
    "LmcBivariate",
    "MaternParams",
    "ModelParseError",
    "NonIntegrable",
    "NotApplicable",
    "PdCheck",
    "QuadratureError",
    "SpectralCheck",
    "SpectralProfile",
    "SphericalParams",
    "StableParams",
    "TrivialityVerdict",
    "ValidityReport",
    "cauchy",
    "cauchy_bivariate",
    "cauchy_bound_integrand",
    "check_pd",
    "cokrige",
    "cross_spectral_profile",
    "derivative",
    "eval_lmc",
    "eval_matrix",
    "evaluate",
    "fit_ml",
    "forward_transform",
    "generic_sufficient_check",
    "gram",
    "loo_rmse",
    "matern",
    "matern_bivariate",
    "max_rho_cauchy",
    "max_rho_stable",
    "member_spectral_density",
    "model_from_text",
    "model_to_text",
    "nll",
    "p_fn",
    "q_fn",
    "simulate",
    "spectral_pd_inequality",
    "spherical",
    "spherical_bivariate",
    "spherical_density_closed_form",
    "spherical_triviality",
    "stable",
    "stable_bivariate",
    "stable_bound_integrand",
    "tan_roots",
    "tauberian_slope",
]
