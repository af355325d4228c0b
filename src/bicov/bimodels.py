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

from dataclasses import dataclass

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
    "eval_lmc",
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


def _entry(model, pair: str, r) -> np.ndarray:
    """Entry ``pair`` ("11", "12" or "22") of C(r) for either model class."""
    if isinstance(model, LmcBivariate):
        k = _PAIRS.index(pair)
        return (model.b1[k] * np.asarray(evaluate(model.psi1, r))
                + model.b2[k] * np.asarray(evaluate(model.psi2, r)))
    amp = {"11": model.sigma1 ** 2,
           "12": model.rho * model.sigma1 * model.sigma2,
           "22": model.sigma2 ** 2}[pair]
    fam = {"11": model.psi11, "12": model.psi12, "22": model.psi22}[pair]
    return amp * np.asarray(evaluate(fam, r))


def eval_matrix(model, r):
    """Evaluate C(r) as a 2x2 array (shape (..., 2, 2) for array input).

    Accepts a :class:`BivariateModel` or an :class:`LmcBivariate`.
    """
    c11, c12, c22 = (_entry(model, pair, r) for pair in _PAIRS)
    return np.stack([np.stack([c11, c12], axis=-1),
                     np.stack([c12, c22], axis=-1)], axis=-2)


def eval_lmc(model: LmcBivariate, r):
    """Evaluate B1*psi1(r) + B2*psi2(r) as a 2x2 array (shape (..., 2, 2) for arrays)."""
    return eval_matrix(model, r)


# ---------------------------------------------------------------------------
# Flat key-value serialization (one "name = value" per line), used by the CLI.

class ModelParseError(ValueError):
    """Model file did not parse; carries the offending line number."""

    def __init__(self, line_no: int, msg: str):
        super().__init__(f"line {line_no}: {msg}")
        self.line_no = line_no


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def model_to_text(model) -> str:
    """Serialize a model to the flat key-value format."""
    lines = []
    if isinstance(model, LmcBivariate):
        lines.append("kind = lmc")
        for name, b in (("b1", model.b1), ("b2", model.b2)):
            for suffix, v in zip(("11", "12", "22"), b):
                lines.append(f"{name}_{suffix} = {_fmt(v)}")
        for idx, fam in ((1, model.psi1), (2, model.psi2)):
            if fam.kind != "Stable":
                raise ValueError("only stable structures are serializable in lmc models")
            lines.append(f"alpha{idx} = {_fmt(fam.params.alpha)}")
            lines.append(f"s{idx} = {_fmt(fam.params.scale)}")
        return "\n".join(lines) + "\n"

    kind = model.kind
    if kind not in ("stable", "cauchy", "spherical", "matern"):
        raise ValueError(f"model kind {kind!r} is not serializable")
    lines.append(f"kind = {kind}")
    lines.append(f"sigma1 = {_fmt(model.sigma1)}")
    lines.append(f"sigma2 = {_fmt(model.sigma2)}")
    lines.append(f"rho = {_fmt(model.rho)}")
    p11, p12, p22 = model.psi11.params, model.psi12.params, model.psi22.params
    if kind in ("stable", "cauchy"):
        lines.append(f"alpha11 = {_fmt(p11.alpha)}")
        lines.append(f"alpha12 = {_fmt(p12.alpha)}")
        lines.append(f"alpha22 = {_fmt(p22.alpha)}")
    if kind == "cauchy":
        lines.append(f"beta11 = {_fmt(p11.beta)}")
        lines.append(f"beta12 = {_fmt(p12.beta)}")
        lines.append(f"beta22 = {_fmt(p22.beta)}")
    if kind == "matern":
        lines.append(f"nu1 = {_fmt(p11.nu)}")
        lines.append(f"nu12 = {_fmt(p12.nu)}")
        lines.append(f"nu2 = {_fmt(p22.nu)}")
    lines.append(f"s11 = {_fmt(p11.scale)}")
    lines.append(f"s12 = {_fmt(p12.scale)}")
    lines.append(f"s22 = {_fmt(p22.scale)}")
    return "\n".join(lines) + "\n"


_REQUIRED_KEYS = {
    "stable": ["sigma1", "sigma2", "rho", "alpha11", "alpha12", "alpha22",
               "s11", "s12", "s22"],
    "cauchy": ["sigma1", "sigma2", "rho", "alpha11", "alpha12", "alpha22",
               "beta11", "beta12", "beta22", "s11", "s12", "s22"],
    "spherical": ["sigma1", "sigma2", "rho", "s11", "s12", "s22"],
    "matern": ["sigma1", "sigma2", "rho", "nu1", "nu12", "nu2", "s11", "s12", "s22"],
    "lmc": ["b1_11", "b1_12", "b1_22", "b2_11", "b2_12", "b2_22",
            "alpha1", "s1", "alpha2", "s2"],
}


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
    if kind not in _REQUIRED_KEYS:
        raise ModelParseError(line_of["kind"], f"unknown kind {kind!r}")

    values: dict[str, float] = {}
    for key, sval in pairs.items():
        try:
            values[key] = float(sval)
        except ValueError:
            raise ModelParseError(line_of[key], f"value of {key!r} is not a number: {sval!r}")

    missing = [k for k in _REQUIRED_KEYS[kind] if k not in values]
    if missing:
        raise ModelParseError(max(line_of.values(), default=1),
                              f"kind {kind!r} is missing keys: {', '.join(missing)}")
    extra = [k for k in values if k not in _REQUIRED_KEYS[kind]]
    if extra:
        raise ModelParseError(line_of[extra[0]],
                              f"key {extra[0]!r} does not belong to kind {kind!r}")

    v = values
    try:
        if kind == "stable":
            return stable_bivariate(v["sigma1"], v["sigma2"], v["rho"],
                                    v["alpha11"], v["alpha12"], v["alpha22"],
                                    v["s11"], v["s12"], v["s22"])
        if kind == "cauchy":
            return cauchy_bivariate(v["sigma1"], v["sigma2"], v["rho"],
                                    v["alpha11"], v["alpha12"], v["alpha22"],
                                    v["beta11"], v["beta12"], v["beta22"],
                                    v["s11"], v["s12"], v["s22"])
        if kind == "spherical":
            return spherical_bivariate(v["sigma1"], v["sigma2"], v["rho"],
                                       v["s11"], v["s12"], v["s22"])
        if kind == "matern":
            return matern_bivariate(v["sigma1"], v["sigma2"], v["rho"],
                                    v["nu1"], v["nu12"], v["nu2"],
                                    v["s11"], v["s12"], v["s22"])
        return LmcBivariate((v["b1_11"], v["b1_12"], v["b1_22"]),
                            (v["b2_11"], v["b2_12"], v["b2_22"]),
                            stable(v["alpha1"], v["s1"]), stable(v["alpha2"], v["s2"]))
    except ValueError as exc:
        if isinstance(exc, ModelParseError):
            raise
        raise ModelParseError(line_of.get("kind", 1), str(exc))
