"""Bivariate covariance models built from univariate correlation families.

A :class:`BivariateModel` is the 2x2 matrix-valued function

    C(r) = [[sigma1^2 psi11(r),          rho sigma1 sigma2 psi12(r)],
            [rho sigma1 sigma2 psi12(r), sigma2^2 psi22(r)]]

with one correlation family per entry (psi12 serves both off-diagonal roles).
Constructors are provided for the four concrete members used in the pipeline:
powered exponential, generalized Cauchy, spherical, and Matern, plus a
two-structure linear model of coregionalization for comparisons.

Construction only enforces the parameter boxes.  Whether a given rho is
actually attainable is the job of the validity module; constructing an
invalid model must stay possible so it can be reported as invalid.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from .corrfn import (CauchyParams, CorrelationFamily, MaternParams, SphericalParams,
                     StableParams, cauchy, evaluate, matern, spherical, stable)

__all__ = [
    "BivariateModel",
    "LmcBivariate",
    "ModelParseError",
    "stable_bivariate",
    "cauchy_bivariate",
    "spherical_bivariate",
    "matern_bivariate",
    "eval_matrix",
    "model_to_text",
    "model_from_text",
]


def _require(cond: bool, msg: str) -> None:
    if not cond:
        raise ValueError(msg)


@dataclass(frozen=True)
class BivariateModel:
    sigma1: float
    sigma2: float
    rho: float
    psi11: CorrelationFamily
    psi12: CorrelationFamily
    psi22: CorrelationFamily

    def __post_init__(self):
        _require(self.sigma1 > 0.0, "sigma1 must be positive")
        _require(self.sigma2 > 0.0, "sigma2 must be positive")
        _require(abs(self.rho) <= 1.0, "|rho| must not exceed 1")

    @property
    def kind(self) -> str:
        kinds = {self.psi11.kind, self.psi12.kind, self.psi22.kind}
        return kinds.pop().lower() if len(kinds) == 1 else "mixed"


@dataclass(frozen=True)
class LmcBivariate:
    """Two-structure linear model of coregionalization.

    C(r) = B1 * psi1(r) + B2 * psi2(r) with symmetric PSD 2x2 coefficient
    matrices, each stored as the triple (b11, b12, b22).
    """

    b1: tuple[float, float, float]
    b2: tuple[float, float, float]
    psi1: CorrelationFamily
    psi2: CorrelationFamily

    def __post_init__(self):
        for name, (b11, b12, b22) in (("B1", self.b1), ("B2", self.b2)):
            tr, det = b11 + b22, b11 * b22 - b12 * b12
            _require(b11 >= 0.0 and b22 >= 0.0 and det >= -1e-12 * max(1.0, tr * tr),
                     f"{name} must be positive semidefinite")

    @property
    def kind(self) -> str:
        return "lmc"


def stable_bivariate(sigma1, sigma2, rho, alpha11, alpha12, alpha22,
                     s11, s12, s22) -> BivariateModel:
    """Bivariate powered exponential model.

    Marginal smoothness is capped at 1, cross smoothness at 2.
    """
    _require(0.0 < alpha11 <= 1.0, f"alpha11 must be in (0, 1], got {alpha11}")
    _require(0.0 < alpha22 <= 1.0, f"alpha22 must be in (0, 1], got {alpha22}")
    _require(0.0 < alpha12 <= 2.0, f"alpha12 must be in (0, 2], got {alpha12}")
    return BivariateModel(float(sigma1), float(sigma2), float(rho),
                          stable(alpha11, s11), stable(alpha12, s12), stable(alpha22, s22))


def cauchy_bivariate(sigma1, sigma2, rho, alpha11, alpha12, alpha22,
                     beta11, beta12, beta22, s11, s12, s22) -> BivariateModel:
    """Bivariate generalized Cauchy model (marginal smoothness capped at 1)."""
    _require(0.0 < alpha11 <= 1.0, f"alpha11 must be in (0, 1], got {alpha11}")
    _require(0.0 < alpha22 <= 1.0, f"alpha22 must be in (0, 1], got {alpha22}")
    _require(0.0 < alpha12 <= 2.0, f"alpha12 must be in (0, 2], got {alpha12}")
    return BivariateModel(float(sigma1), float(sigma2), float(rho),
                          cauchy(alpha11, beta11, s11), cauchy(alpha12, beta12, s12),
                          cauchy(alpha22, beta22, s22))


def spherical_bivariate(sigma1, sigma2, rho, s11, s12, s22) -> BivariateModel:
    return BivariateModel(float(sigma1), float(sigma2), float(rho),
                          spherical(s11), spherical(s12), spherical(s22))


def matern_bivariate(sigma1, sigma2, rho, nu1, nu12, nu2, s11, s12, s22) -> BivariateModel:
    """Full bivariate Matern.

    The smoothness/scale inequalities that make an arbitrary (nu, s, rho)
    triple valid are a documented precondition here, not enforced; use the
    empirical positive-definiteness check of the field module.
    """
    return BivariateModel(float(sigma1), float(sigma2), float(rho),
                          matern(nu1, s11), matern(nu12, s12), matern(nu2, s22))


_PAIRS = ("11", "12", "22")


def _terms(model) -> list:
    """C(r) as (pair, amplitude, family) terms: entry ``pair`` of C(r) sums
    amplitude times the family's correlation over its terms, in list order.

    A :class:`BivariateModel` has one term per pair; an :class:`LmcBivariate`
    has B1 psi1 then B2 psi2, three terms each.
    """
    if isinstance(model, LmcBivariate):
        return [(pair, b[k], psi) for b, psi in ((model.b1, model.psi1), (model.b2, model.psi2))
                for k, pair in enumerate(_PAIRS)]
    s1, s2 = model.sigma1, model.sigma2
    return [("11", s1 ** 2, model.psi11), ("12", model.rho * s1 * s2, model.psi12),
            ("22", s2 ** 2, model.psi22)]


def _sum_into(sums: dict, key, value) -> None:
    """sums[key] += value, where the first value is stored as it is."""
    sums[key] = value if key not in sums else sums[key] + value


def _entry(model, pair: str, r) -> np.ndarray:
    """Entry ``pair`` ("11", "12" or "22") of C(r) for either model class."""
    sums: dict = {}
    for p, amp, fam in _terms(model):
        if p == pair:
            _sum_into(sums, p, amp * np.asarray(evaluate(fam, r)))
    return sums[pair]


def eval_matrix(model, r):
    """Evaluate C(r) as a 2x2 array (shape (..., 2, 2) for array input).

    Accepts a :class:`BivariateModel` or an :class:`LmcBivariate`.
    """
    c11, c12, c22 = (_entry(model, pair, r) for pair in _PAIRS)
    return np.stack([np.stack([c11, c12], axis=-1),
                     np.stack([c12, c22], axis=-1)], axis=-2)


# ---------------------------------------------------------------------------
# Flat key-value serialization (one "name = value" per line), used by the CLI.

class ModelParseError(ValueError):
    """Model file did not parse; carries the offending line number."""

    def __init__(self, line_no: int, msg: str):
        super().__init__(f"line {line_no}: {msg}")
        self.line_no = line_no


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def _lmc_stable(b1_11, b1_12, b1_22, b2_11, b2_12, b2_22, alpha1, s1, alpha2, s2):
    return LmcBivariate((b1_11, b1_12, b1_22), (b2_11, b2_12, b2_22),
                        stable(alpha1, s1), stable(alpha2, s2))


# kind -> (keys in file order, constructor taking them in that order)
_FORMATS = {
    "stable": (["sigma1", "sigma2", "rho", "alpha11", "alpha12", "alpha22",
                "s11", "s12", "s22"], stable_bivariate),
    "cauchy": (["sigma1", "sigma2", "rho", "alpha11", "alpha12", "alpha22",
                "beta11", "beta12", "beta22", "s11", "s12", "s22"], cauchy_bivariate),
    "spherical": (["sigma1", "sigma2", "rho", "s11", "s12", "s22"], spherical_bivariate),
    "matern": (["sigma1", "sigma2", "rho", "nu1", "nu12", "nu2", "s11", "s12", "s22"],
               matern_bivariate),
    "lmc": (["b1_11", "b1_12", "b1_22", "b2_11", "b2_12", "b2_22",
             "alpha1", "s1", "alpha2", "s2"], _lmc_stable),
}


def model_to_text(model) -> str:
    """Serialize a model to the flat key-value format."""
    kind = model.kind
    if kind == "lmc":
        fams = (model.psi1, model.psi2)
        if any(fam.kind != "Stable" for fam in fams):
            raise ValueError("only stable structures are serializable in lmc models")
        values = [*model.b1, *model.b2] + [getattr(fam.params, f.name)
                                            for fam in fams for f in fields(fam.params)]
    elif kind in _FORMATS:
        fams = (model.psi11, model.psi12, model.psi22)
        values = [model.sigma1, model.sigma2, model.rho] + [
            getattr(fam.params, f.name) for f in fields(fams[0].params) for fam in fams]
    else:
        raise ValueError(f"model kind {kind!r} is not serializable")
    return f"kind = {kind}\n" + "".join(
        f"{key} = {_fmt(v)}\n" for key, v in zip(_FORMATS[kind][0], values))


def model_from_text(text: str):
    """Parse a model from the flat key-value format.

    Raises :class:`ModelParseError` with a line number on malformed input.
    """
    pairs: dict[str, str] = {}
    line_of: dict[str, int] = {}
    for no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ModelParseError(no, f"expected 'name = value', got {raw.strip()!r}")
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if not key or not value:
            raise ModelParseError(no, f"expected 'name = value', got {raw.strip()!r}")
        if key in pairs:
            raise ModelParseError(no, f"duplicate key {key!r}")
        pairs[key] = value
        line_of[key] = no

    if "kind" not in pairs:
        raise ModelParseError(1, "missing required key 'kind'")
    kind = pairs.pop("kind")
    if kind not in _FORMATS:
        raise ModelParseError(line_of["kind"], f"unknown kind {kind!r}")

    values: dict[str, float] = {}
    for key, sval in pairs.items():
        try:
            values[key] = float(sval)
        except ValueError:
            raise ModelParseError(line_of[key], f"value of {key!r} is not a number: {sval!r}")

    keys, make = _FORMATS[kind]
    missing = [k for k in keys if k not in values]
    if missing:
        raise ModelParseError(max(line_of.values(), default=1),
                              f"kind {kind!r} is missing keys: {', '.join(missing)}")
    extra = [k for k in values if k not in keys]
    if extra:
        raise ModelParseError(line_of[extra[0]],
                              f"key {extra[0]!r} does not belong to kind {kind!r}")

    try:
        return make(*(values[k] for k in keys))
    except ValueError as exc:
        raise ModelParseError(line_of["kind"], str(exc))
