"""Bivariate covariance models: validity bounds, spectra, simulation, fitting.

The package certifies how much colocated correlation a bivariate powered
exponential or generalized Cauchy covariance model can carry, checks the
spectral necessary conditions, proves the bivariate spherical model trivial
in R^3, and provides the applied layer: Gram assembly, Gaussian simulation,
maximum likelihood fitting, and simple cokriging, plus a CLI over all of it.

Each entry point loads only the layers it runs.  ``import bicov`` loads no
submodule and not numpy: a name or submodule is imported on first access
(PEP 562).  A command imports its layers when it runs: ``validity`` for
``validate`` and ``curve``, and with ``spectral`` for ``spectral``; ``field``
for ``simulate``, ``krige`` and ``fit``, and with ``validity`` for a stable or
Cauchy fit's rho cap.  No module imports scipy at its top, and scipy's own
LAPACK and BLAS are called through ctypes, so the likelihood, leave-one-out
and cokriging import no scipy module.
"""

import importlib

__version__ = "0.1.0"

# in dependency order, each importing at its top only those before it; each
# submodule's __all__ is its public surface, re-exported here
_SUBMODULES = ("corrfn", "bimodels", "validity", "spectral", "field")


def __getattr__(name):
    """A submodule, the union of their __all__, or a public name from the first
    submodule whose __all__ holds it, each imported on first access and kept."""
    if name in _SUBMODULES:
        return importlib.import_module(f"{__name__}.{name}")
    if name == "__all__":
        globals()[name] = value = sorted({n for sub in _SUBMODULES
                                          for n in __getattr__(sub).__all__})
        return value
    for mod in map(__getattr__, _SUBMODULES):
        if name in mod.__all__:
            globals()[name] = value = getattr(mod, name)
            return value
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *_SUBMODULES, *__getattr__("__all__")})
