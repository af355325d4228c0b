"""Bivariate covariance models: validity bounds, spectra, simulation, fitting.

The package certifies how much colocated correlation a bivariate powered
exponential or generalized Cauchy covariance model can carry, checks the
spectral necessary conditions, proves the bivariate spherical model trivial,
and provides the applied layer: Gram assembly, Gaussian simulation, maximum
likelihood fitting, and simple cokriging, plus a CLI over all of it.
"""

from . import bimodels, corrfn, field, spectral, validity
from .bimodels import *
from .corrfn import *
from .field import *
from .spectral import *
from .validity import *

__version__ = "0.1.0"

# each submodule's __all__ is its public surface, and the package re-exports it
__all__ = sorted({name for mod in (bimodels, corrfn, field, spectral, validity)
                  for name in mod.__all__})
