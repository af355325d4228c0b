"""Command-line surface: validate, curve, spectral, simulate, fit, krige.

Exit codes follow a three-way verdict convention: 0 means success (for
``validate``: the model as given is certified valid), 1 means inconclusive
(nothing proves validity, nothing disproves it), 2 means provably invalid.
Operational failures use codes above 2: 64 usage, 65 missing file, 66
malformed model or data file, 70 computation errors.

All outputs are deterministic byte for byte given identical inputs, seeds
and BLAS thread count (the Cholesky factors behind simulate, fit and krige
change in their last bits with it); every float is written repr-exact.
"""

from __future__ import annotations

import argparse
import csv
import math
import os
import sys

import numpy as np

from .bimodels import (BivariateModel, LmcBivariate, ModelParseError,
                       model_from_text, model_to_text)
from .field import FieldSample, _cokrige, fit_ml, loo_rmse, simulate
from .spectral import NonIntegrable, QuadratureError, cross_spectral_profile
from .validity import (INCONCLUSIVE, NECESSARILY_ZERO, SUFFICIENT,
                       NotApplicable, generic_sufficient_check, max_rho_cauchy,
                       max_rho_stable, spherical_triviality)

__all__ = ["main"]

EXIT_VALID = 0
EXIT_INCONCLUSIVE = 1
EXIT_INVALID = 2
EXIT_USAGE = 64
EXIT_NOFILE = 65
EXIT_BADDATA = 66
EXIT_COMPUTE = 70


class SchemaError(ValueError):
    """A CSV file does not match the expected schema."""


def _g(x: float) -> str:
    return format(float(x), ".17g")


def _load_model(path: str):
    if not os.path.exists(path):
        raise FileNotFoundError(path)
    with open(path, encoding="utf-8") as fh:
        return model_from_text(fh.read())


_COLUMN_TYPES = {"component": int, "value": float}


def _read_csv(path: str, tails):
    """Columns x[, y[, z]] followed by one of the column tuples in ``tails``.

    Header mandatory.  Returns the (N, d) locations and a dict holding each
    tail column as an array.
    """
    if not os.path.exists(path):
        raise FileNotFoundError(path)
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = [h.strip() for h in next(reader)]
        except StopIteration:
            raise SchemaError("row 1: empty file") from None
        dim = next((d for d in (3, 2, 1) if header[:d] == ["x", "y", "z"][:d]), 0)
        tail = tuple(header[dim:])
        if not dim or tail not in tails:
            raise SchemaError(f"row 1: unexpected header {','.join(header)}")
        locs, cols = [], {name: [] for name in tail}
        for i, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != len(header):
                raise SchemaError(f"row {i}: expected {len(header)} fields, "
                                  f"got {len(row)}")
            try:
                loc = [float(v) for v in row[:dim]]
                cells = {name: _COLUMN_TYPES[name](v) for name, v in zip(tail, row[dim:])}
            except ValueError as exc:
                raise SchemaError(f"row {i}: {exc}") from None
            bad = [h for h, v in zip(header, [*loc, *cells.values()])
                   if not math.isfinite(v)]
            if bad:
                raise SchemaError(f"row {i}: non-finite {', '.join(bad)}")
            if "component" in cells and cells["component"] not in (1, 2):
                raise SchemaError(f"row {i}: component must be 1 or 2")
            locs.append(loc)
            for name, v in cells.items():
                cols[name].append(v)
    if not locs:
        raise SchemaError("row 2: no data rows")
    return np.array(locs), {name: np.array(v) for name, v in cols.items()}


def _read_sample(path: str) -> FieldSample:
    locations, cols = _read_csv(path, [("component", "value")])
    return FieldSample(locations=locations, components=cols["component"],
                       values=cols["value"])


def _write_sample_csv(path: str, sample: FieldSample) -> None:
    dim = sample.locations.shape[1]
    names = ["x", "y", "z"][:dim]
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(",".join(names + ["component", "value"]) + "\n")
        for loc, comp, val in zip(sample.locations, sample.components,
                                  sample.values):
            cells = [_g(c) for c in loc] + [str(int(comp)), _g(val)]
            fh.write(",".join(cells) + "\n")


# ---------------------------------------------------------------------------
# Subcommand handlers.

def _cmd_validate(args: argparse.Namespace) -> int:
    model = _load_model(args.model)

    if isinstance(model, LmcBivariate):
        print("kind=lmc")
        print("decidability=SufficientBound")
        print("note=coregionalization with positive semidefinite coefficient "
              "matrices is valid in any dimension")
        return EXIT_VALID

    kind = model.kind
    if kind == "spherical":
        verdict = spherical_triviality(model.psi11.params.scale,
                                       model.psi12.params.scale,
                                       model.psi22.params.scale, model.rho)
        print("kind=spherical")
        print(f"valid={str(verdict.valid).lower()}")
        print(f"reason={verdict.reason}")
        if verdict.witness_u is not None:
            print(f"witness_frequency={_g(verdict.witness_u)}")
        return EXIT_VALID if verdict.valid else EXIT_INVALID

    if kind == "stable":
        report = max_rho_stable(model, args.dim)
    elif kind == "cauchy":
        report = max_rho_cauchy(model, args.dim)
    else:
        if model.rho == 0.0:
            print(f"kind={kind}")
            print("decidability=SufficientBound")
            print("rho_bound=0")
            print("note=separable model (rho = 0) is valid whenever its "
                  "marginals are")
            return EXIT_VALID
        try:
            report = generic_sufficient_check(model, args.dim)
        except NotApplicable as exc:
            print(f"kind={kind}")
            print("decidability=ZeroInfimumInconclusive")
            print(f"note={exc}")
            return EXIT_INCONCLUSIVE

    loc = report.infimum_location
    loc_str = loc if isinstance(loc, str) else _g(loc)
    print(f"kind={kind}")
    print(f"rho={_g(model.rho)}")
    print(f"rho_bound_raw={_g(report.rho_bound_raw)}")
    print(f"rho_bound={_g(report.rho_bound)}")
    print(f"case={report.case}")
    print(f"infimum_location={loc_str}")
    print(f"decidability={report.decidability}")
    if report.note:
        print(f"note={report.note}")

    if report.decidability == NECESSARILY_ZERO:
        return EXIT_VALID if model.rho == 0.0 else EXIT_INVALID
    if abs(model.rho) <= report.rho_bound or model.rho == 0.0:
        if report.decidability == SUFFICIENT or model.rho == 0.0:
            return EXIT_VALID
    return EXIT_INCONCLUSIVE


_SWEEPABLE_MISSING = ("rho is the certified output of the bound, "
                      "not a sweepable input")


def _cmd_curve(args: argparse.Namespace) -> int:
    model = _load_model(args.model)
    if isinstance(model, LmcBivariate) or model.kind not in ("stable", "cauchy"):
        raise SchemaError("curve sweeps require a stable or Cauchy model file")
    try:
        param, rng = args.sweep.split("=", 1)
        lo_s, hi_s, steps_s = rng.split(":")
        lo, hi, steps = float(lo_s), float(hi_s), int(steps_s)
        if steps < 2 or not lo < hi:
            raise ValueError
    except ValueError:
        raise SchemaError(f"invalid sweep spec {args.sweep!r}; "
                          "expected param=lo:hi:steps") from None
    param = param.strip()
    if param == "rho":
        print(_SWEEPABLE_MISSING, file=sys.stderr)
        return EXIT_USAGE

    base_lines = model_to_text(model).splitlines()
    keys = {ln.split("=", 1)[0].strip() for ln in base_lines if "=" in ln}
    if param not in keys or param == "kind":
        raise SchemaError(f"unknown sweep parameter {param!r}")

    bound_fn = max_rho_stable if model.kind == "stable" else max_rho_cauchy
    rows = []
    for value in np.linspace(lo, hi, steps):
        lines = [f"{param} = {_g(value)}" if ln.split("=", 1)[0].strip() == param
                 else ln for ln in base_lines]
        swept = model_from_text("\n".join(lines))
        report = bound_fn(swept, args.dim)
        rows.append((value, report.rho_bound, report.decidability))

    with open(args.out, "w", newline="", encoding="utf-8") as fh:
        fh.write(f"{param},rho_bound,decidability\n")
        for value, bound, tag in rows:
            fh.write(f"{_g(value)},{_g(bound)},{tag}\n")
    print(f"wrote {len(rows)} rows to {args.out}")
    return EXIT_VALID


def _cmd_spectral(args: argparse.Namespace) -> int:
    model = _load_model(args.model)
    if isinstance(model, LmcBivariate):
        raise SchemaError("spectral profiles expect a bivariate member model")
    n = 3 if args.dim == 2 else args.dim
    u = np.linspace(0.0, args.umax, args.points)
    profile = cross_spectral_profile(model, n, u)
    profile.to_csv(args.out)
    print(f"wrote {args.points} rows to {args.out}")
    return EXIT_VALID


def _parse_grid(spec: str) -> np.ndarray:
    try:
        shape, extent_s = spec.split(":")
        nx_s, ny_s = shape.lower().split("x")
        nx, ny, extent = int(nx_s), int(ny_s), float(extent_s)
        if nx < 1 or ny < 1 or extent <= 0:
            raise ValueError
    except ValueError:
        raise SchemaError(f"invalid grid spec {spec!r}; expected NxM:extent") from None
    xs = np.linspace(0.0, extent, nx)
    ys = np.linspace(0.0, extent, ny)
    gx, gy = np.meshgrid(xs, ys, indexing="ij")
    return np.column_stack([gx.ravel(), gy.ravel()])


def _cmd_simulate(args: argparse.Namespace) -> int:
    model = _load_model(args.model)
    if args.grid is not None:
        pts = _parse_grid(args.grid)
        comps = None
    else:
        pts, cols = _read_csv(args.points_path, [(), ("component",)])
        comps = cols.get("component")
    if comps is None:
        locations = np.repeat(pts, 2, axis=0)
        components = np.tile([1, 2], pts.shape[0])
    else:
        locations, components = pts, comps
    sample = simulate(model, locations, components, seed=args.seed,
                      mean1=args.mean1, mean2=args.mean2,
                      nugget1=args.nugget1, nugget2=args.nugget2)
    _write_sample_csv(args.out, sample)
    print(f"wrote {locations.shape[0]} rows to {args.out} "
          f"(seed {args.seed}, jitter {_g(sample.info['jitter'])})")
    return EXIT_VALID


def _cmd_fit(args: argparse.Namespace) -> int:
    data = _read_sample(args.data)
    result = fit_ml(data, args.kind, n_starts=args.starts, seed=args.seed,
                    max_evals=args.max_evals, fit_nugget=args.fit_nugget,
                    nugget1=args.nugget1, nugget2=args.nugget2)
    rmse = loo_rmse(result, data)
    with open(args.out, "w", encoding="utf-8") as fh:
        fh.write(model_to_text(result.model))
    print(f"kind={result.kind}")
    print(f"nll={_g(result.nll)}")
    print(f"aic={_g(result.aic)}")
    print(f"loo_rmse={_g(rmse)}")
    print(f"mean1={_g(result.mean1)}")
    print(f"mean2={_g(result.mean2)}")
    print(f"nugget1={_g(result.nugget1)}")
    print(f"nugget2={_g(result.nugget2)}")
    print(f"converged={str(result.converged).lower()}")
    print(f"n_iter={result.n_iter}")
    print(f"model written to {args.out}")
    return EXIT_VALID


def _cmd_krige(args: argparse.Namespace) -> int:
    model = _load_model(args.model)
    data = _read_sample(args.data)
    targets, _ = _read_csv(args.targets, [(), ("component",)])
    # one Gram factor serves both the profiled means and the weights
    pred, var = _cokrige(model, data, targets, args.component,
                         args.nugget1, args.nugget2)
    dim = targets.shape[1]
    names = ["x", "y", "z"][:dim]
    with open(args.out, "w", newline="", encoding="utf-8") as fh:
        fh.write(",".join(names + ["prediction", "variance"]) + "\n")
        for loc, p, v in zip(targets, pred, var):
            fh.write(",".join([_g(c) for c in loc] + [_g(p), _g(v)]) + "\n")
    print(f"wrote {targets.shape[0]} rows to {args.out}")
    return EXIT_VALID


# ---------------------------------------------------------------------------
# Argument parsing.

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bicov",
        description="Bivariate covariance models: validity bounds, spectral "
                    "densities, simulation, fitting, and cokriging.")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("validate", help="certify a model file's correlation")
    p.add_argument("model")
    p.add_argument("--dim", type=int, default=3, choices=(1, 2, 3))

    p = sub.add_parser("curve", help="sweep a parameter, tabulate rho bounds")
    p.add_argument("model")
    p.add_argument("--sweep", required=True, metavar="param=lo:hi:steps")
    p.add_argument("--dim", type=int, default=3, choices=(1, 2, 3))
    p.add_argument("--out", required=True)

    p = sub.add_parser("spectral", help="tabulate member spectral densities")
    p.add_argument("model")
    p.add_argument("--dim", type=int, default=3, choices=(1, 2, 3))
    p.add_argument("--umax", type=float, default=10.0)
    p.add_argument("--points", type=int, default=101)
    p.add_argument("--out", required=True)

    p = sub.add_parser("simulate", help="draw a Gaussian field sample")
    p.add_argument("model")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--grid", metavar="NxM:extent")
    group.add_argument("--points", dest="points_path")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--mean1", type=float, default=0.0)
    p.add_argument("--mean2", type=float, default=0.0)
    p.add_argument("--nugget1", type=float, default=0.0)
    p.add_argument("--nugget2", type=float, default=0.0)
    p.add_argument("--out", required=True)

    p = sub.add_parser("fit", help="maximum likelihood fit from a data CSV")
    p.add_argument("data")
    p.add_argument("--kind", required=True,
                   choices=("stable", "cauchy", "matern", "lmc"))
    p.add_argument("--starts", type=int, default=8)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--max-evals", type=int, default=None,
                   help="cap on likelihood-and-gradient evaluations per start "
                        "(default 400 per fitted parameter)")
    p.add_argument("--fit-nugget", action="store_true")
    p.add_argument("--nugget1", type=float, default=0.0)
    p.add_argument("--nugget2", type=float, default=0.0)
    p.add_argument("--out", required=True)

    p = sub.add_parser("krige", help="simple cokriging at target locations")
    p.add_argument("model")
    p.add_argument("data")
    p.add_argument("targets")
    p.add_argument("--component", type=int, default=1, choices=(1, 2))
    p.add_argument("--nugget1", type=float, default=0.0)
    p.add_argument("--nugget2", type=float, default=0.0)
    p.add_argument("--out", required=True)
    return parser


_HANDLERS = {
    "validate": _cmd_validate,
    "curve": _cmd_curve,
    "spectral": _cmd_spectral,
    "simulate": _cmd_simulate,
    "fit": _cmd_fit,
    "krige": _cmd_krige,
}


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        return EXIT_VALID if exc.code == 0 else EXIT_USAGE
    try:
        return _HANDLERS[args.subcommand](args)
    except FileNotFoundError as exc:
        print(f"file not found: {exc}", file=sys.stderr)
        return EXIT_NOFILE
    except (ModelParseError, SchemaError) as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_BADDATA
    except (NonIntegrable, QuadratureError, np.linalg.LinAlgError,
            ValueError) as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_COMPUTE
    except (OverflowError, RuntimeError) as exc:
        # engine failures; the bare message ("math range error") names no cause
        print(f"computation failed: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_COMPUTE


if __name__ == "__main__":
    sys.exit(main())
