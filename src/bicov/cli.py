"""Command-line surface: validate, curve, spectral, simulate, fit, krige.

Exit codes follow a three-way verdict convention: 0 means success (for
``validate``: the model as given is certified valid), 1 means inconclusive
(nothing proves validity, nothing disproves it), 2 means provably invalid
in the asked dimension.  Operational failures use codes above 2, with one
stderr line: 64 usage, 65 a file that cannot be opened, input or output
(missing, a directory, not permitted), 66 malformed input (non-UTF-8 text or
a parameter value the model constructors refuse), 70 computation errors.

All outputs are deterministic byte for byte given identical inputs, seeds
and BLAS thread count (the Cholesky factors behind simulate, fit and krige
change in their last bits with it), whatever the number of CPUs; every float
is written repr-exact.
"""

from __future__ import annotations

import argparse
import csv
import math
import sys

import numpy as np

from .bimodels import ModelParseError, _fmt, _write_csv, model_from_text, model_to_text
from .corrfn import NonIntegrable, QuadratureError

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


def _load_model(path: str):
    with open(path, encoding="utf-8") as fh:
        return model_from_text(fh.read())


_COLUMN_TYPES = {"component": int, "value": float}


def _read_csv(path: str, tails):
    """Columns x[, y[, z]] followed by one of the column tuples in ``tails``.

    Header mandatory.  Returns the (N, d) locations and a dict holding each
    tail column as an array.
    """
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


def _read_sample(path: str):
    from .field import FieldSample
    locations, cols = _read_csv(path, [("component", "value")])
    return FieldSample(locations=locations, components=cols["component"],
                       values=cols["value"])


# ---------------------------------------------------------------------------
# Subcommand handlers, each importing the layers it runs and no other.

def _print_keys(values: dict, keys) -> None:
    """One key=value line per key whose value is set; numbers repr-exact."""
    for key in keys:
        if values[key] not in (None, ""):
            print(f"{key}={values[key] if isinstance(values[key], str) else _fmt(values[key])}")


# the keys validate prints after kind=, by report.case; every other case is a bound report
_SHAPES = {"lmc": ("decidability", "note"), "no-route": ("decidability", "note"),
           "separable": ("decidability", "rho_bound", "note"),
           "spherical": ("valid", "reason", "witness_frequency")}
_BOUND_SHAPE = ("rho", "rho_bound_raw", "rho_bound", "case", "infimum_location",
                "decidability", "note")


def _cmd_validate(args: argparse.Namespace) -> int:
    from .validity import NECESSARILY_ZERO, SUFFICIENT, certify
    model = _load_model(args.model)
    report = certify(model, args.dim)
    rho = getattr(model, "rho", 0.0)   # an LMC's coefficient matrices carry its correlation
    values = {**vars(report), "kind": model.kind, "rho": rho, "reason": report.note,
              "valid": str(report.decidability == SUFFICIENT).lower(),
              "witness_frequency": report.witness_u}
    _print_keys(values, ("kind", *_SHAPES.get(report.case, _BOUND_SHAPE)))
    return (EXIT_VALID if rho == 0.0 or (report.decidability == SUFFICIENT
                                         and abs(rho) <= report.rho_bound)
            else EXIT_INVALID if report.decidability == NECESSARILY_ZERO else EXIT_INCONCLUSIVE)


_SWEEPABLE_MISSING = ("rho is the certified output of the bound, "
                      "not a sweepable input")


def _cmd_curve(args: argparse.Namespace) -> int:
    from .validity import certify
    model = _load_model(args.model)
    if model.kind not in ("stable", "cauchy"):
        raise SchemaError("curve sweeps require a stable or Cauchy model file")
    try:
        param, rng = args.sweep.split("=", 1)
        lo_s, hi_s, steps_s = rng.split(":")
        lo, hi, steps = float(lo_s), float(hi_s), int(steps_s)
        if steps < 2 or not -math.inf < lo < hi < math.inf:
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

    rows = []
    for value in np.linspace(lo, hi, steps):
        lines = [f"{param} = {_fmt(value)}" if ln.split("=", 1)[0].strip() == param
                 else ln for ln in base_lines]
        swept = model_from_text("\n".join(lines))
        report = certify(swept, args.dim)
        rows.append((value, report.rho_bound, report.decidability))

    _write_csv(args.out, (param, "rho_bound", "decidability"), rows)
    print(f"wrote {len(rows)} rows to {args.out}")
    return EXIT_VALID


def _cmd_spectral(args: argparse.Namespace) -> int:
    from .spectral import cross_spectral_profile
    from .validity import _resolve_dim
    model = _load_model(args.model)
    if model.kind == "lmc":
        raise SchemaError("spectral profiles expect a bivariate member model")
    n, _ = _resolve_dim(args.dim)
    if not 0.0 <= args.umax < math.inf:
        raise SchemaError(f"--umax must be nonnegative and finite, got {args.umax}")
    if args.points < 1:
        raise SchemaError(f"--points must be at least 1, got {args.points}")
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
        if nx < 1 or ny < 1 or not 0 < extent < math.inf:
            raise ValueError
    except ValueError:
        raise SchemaError(f"invalid grid spec {spec!r}; expected NxM:extent") from None
    xs = np.linspace(0.0, extent, nx)
    ys = np.linspace(0.0, extent, ny)
    gx, gy = np.meshgrid(xs, ys, indexing="ij")
    return np.column_stack([gx.ravel(), gy.ravel()])


def _cmd_simulate(args: argparse.Namespace) -> int:
    from .field import simulate
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
    _write_csv(args.out, ["x", "y", "z"][:locations.shape[1]] + ["component", "value"],
               np.column_stack([sample.locations, sample.components, sample.values]))
    print(f"wrote {locations.shape[0]} rows to {args.out} "
          f"(seed {args.seed}, jitter {_fmt(sample.info['jitter'])})")
    return EXIT_VALID


def _cmd_fit(args: argparse.Namespace) -> int:
    from .field import fit_ml, loo_rmse
    data = _read_sample(args.data)
    result = fit_ml(data, args.kind, n_starts=args.starts, seed=args.seed,
                    max_evals=args.max_evals, fit_nugget=args.fit_nugget,
                    nugget1=args.nugget1, nugget2=args.nugget2)
    rmse = loo_rmse(result, data)
    with open(args.out, "w", encoding="utf-8") as fh:
        fh.write(model_to_text(result.model))
    _print_keys({**vars(result), "loo_rmse": rmse, "converged": str(result.converged).lower()},
                ("kind", "nll", "aic", "loo_rmse", "mean1", "mean2", "nugget1", "nugget2",
                 "converged", "n_iter"))
    print(f"model written to {args.out}")
    return EXIT_VALID


def _cmd_krige(args: argparse.Namespace) -> int:
    from .field import _cokrige
    model = _load_model(args.model)
    data = _read_sample(args.data)
    targets, _ = _read_csv(args.targets, [(), ("component",)])
    # one Gram factor serves both the profiled means and the weights
    pred, var = _cokrige(model, data, targets, args.component,
                         args.nugget1, args.nugget2)
    _write_csv(args.out, ["x", "y", "z"][:targets.shape[1]] + ["prediction", "variance"],
               np.column_stack([targets, pred, var]))
    print(f"wrote {targets.shape[0]} rows to {args.out}")
    return EXIT_VALID


# ---------------------------------------------------------------------------
# Argument parsing: one table of subcommands, each with its handler, its help
# line and its arguments in order; a list among them is a required choice of one.

def _arg(*flags, **options):
    return flags, options


_MODEL = _arg("model")
_DIM = _arg("--dim", type=int, default=3, choices=(1, 2, 3))
_OUT = _arg("--out", required=True)
_SEED = _arg("--seed", type=int, default=0)
_NUGGETS = [_arg(f"--nugget{c}", type=float, default=0.0) for c in "12"]

_COMMANDS = {
    "validate": (_cmd_validate, "certify a model file's correlation", [_MODEL, _DIM]),
    "curve": (_cmd_curve, "sweep a parameter, tabulate rho bounds", [
        _MODEL, _arg("--sweep", required=True, metavar="param=lo:hi:steps"), _DIM, _OUT]),
    "spectral": (_cmd_spectral, "tabulate member spectral densities", [
        _MODEL, _DIM, _arg("--umax", type=float, default=10.0),
        _arg("--points", type=int, default=101), _OUT]),
    "simulate": (_cmd_simulate, "draw a Gaussian field sample", [
        _MODEL, [_arg("--grid", metavar="NxM:extent"), _arg("--points", dest="points_path")],
        _SEED, _arg("--mean1", type=float, default=0.0), _arg("--mean2", type=float, default=0.0),
        *_NUGGETS, _OUT]),
    "fit": (_cmd_fit, "maximum likelihood fit from a data CSV", [
        _arg("data"), _arg("--kind", required=True, choices=("stable", "cauchy", "matern", "lmc")),
        _arg("--starts", type=int, default=8,
             help="number of optimizer starts, at least 1 (default 8)"),
        _SEED, _arg("--max-evals", type=int, default=None,
                    help="cap on likelihood-and-gradient evaluations per start "
                         "(default 400 per fitted parameter)"),
        _arg("--fit-nugget", action="store_true"), *_NUGGETS, _OUT]),
    "krige": (_cmd_krige, "simple cokriging at target locations", [
        _MODEL, _arg("data"), _arg("targets"),
        _arg("--component", type=int, default=1, choices=(1, 2)), *_NUGGETS, _OUT]),
}


class _Parser(argparse.ArgumentParser):
    """argparse with its usage errors on one stderr line, the usage screen left out."""

    def error(self, message):
        self.exit(2, f"{self.prog}: error: {message}\n")


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="bicov",
        description="Bivariate covariance models: validity bounds, spectral "
                    "densities, simulation, fitting, and cokriging.")
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name, (handler, help_line, arguments) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_line)
        p.set_defaults(handler=handler)
        for arg in arguments:
            one_of = isinstance(arg, list)
            into = p.add_mutually_exclusive_group(required=True) if one_of else p
            for flags, options in arg if one_of else [arg]:
                into.add_argument(*flags, **options)
    return parser


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        return EXIT_VALID if exc.code == 0 else EXIT_USAGE
    try:
        return args.handler(args)
    except FileNotFoundError as exc:
        print(f"file not found: {exc.filename}", file=sys.stderr)
        return EXIT_NOFILE
    except OSError as exc:   # any other file that cannot be opened, input or --out
        print(f"cannot open {exc.filename}: {exc.strerror}" if exc.filename else str(exc),
              file=sys.stderr)
        return EXIT_NOFILE
    except (ModelParseError, SchemaError, UnicodeDecodeError) as exc:
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
