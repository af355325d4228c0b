"""Every input reaches a documented exit code.

Each model-file key of each kind is set, one at a time, to each of a fixed list
of hostile values and run through ``cli.main`` under validate, spectral,
simulate and curve; so is each numeric option, with the other arguments
valid; directories and non-UTF-8 files are fed where a file is read or
written.  A run must return a documented code, write exactly one stderr line
when it fails, let no exception escape ``main``, and write only finite numbers
when it exits 0; a run that does not fail writes nothing to stderr.  A
RuntimeWarning is an error here: from the command line it would be stderr
lines beside the one message.  Deterministic: the base models are fixed and
simulate's seed is pinned.  The same holds for each coordinate and value
cell of krige's data and targets files, and for each coordinate and
component cell of a ``simulate --points`` file.
"""

import math
import re

import numpy as np
import pytest

import bicov as bc
from bicov.bimodels import LmcBivariate, model_to_text
from bicov.cli import main

pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")

DOCUMENTED = {0, 1, 2, 64, 65, 66, 70}

HOSTILE = ["0", "-1", "1e-300", "5e-324", "1e-12", "0.999999999999", "1", "1e300",
           "1.797e308", "inf", "nan"]

BASES = {
    "stable": bc.stable_bivariate(1.0, 1.0, 0.2, 0.2, 0.6, 0.5, 2.0, 1.0, 3.0),
    "cauchy": bc.cauchy_bivariate(1.0, 1.2, 0.3, 0.8, 0.9, 0.6, 3.5, 4.0, 5.0,
                                  0.9, 1.1, 0.8),
    "matern": bc.matern_bivariate(1.0, 1.3, 0.2, 0.5, 1.0, 1.5, 0.7, 0.7, 0.7),
    "spherical": bc.spherical_bivariate(1.0, 1.0, 0.05, 1.0, 1.4, 2.0),
    "lmc": LmcBivariate((1.0, 0.3, 0.2), (0.1, 0.25, 0.9), bc.stable(1.0, 0.5),
                        bc.stable(1.0, 2.0)),
}

COMMANDS = {
    "validate3": ["validate", "{model}", "--dim", "3"],
    "validate1": ["validate", "{model}", "--dim", "1"],
    "spectral3": ["spectral", "{model}", "--dim", "3", "--points", "11", "--out", "{out}"],
    "spectral1": ["spectral", "{model}", "--dim", "1", "--points", "11", "--out", "{out}"],
    "simulate": ["simulate", "{model}", "--grid", "3x3:5", "--seed", "3", "--out", "{out}"],
    "curve": ["curve", "{model}", "--sweep", "alpha12=0.7:1.1:3", "--dim", "1", "--out", "{out}"],
}


def _numbers(text):
    """Every token of ``text`` that parses as a float."""
    out = []
    for token in re.split(r"[\s,=()]+", text):
        try:
            out.append(float(token))
        except ValueError:
            pass
    return out


def run(argv, out, capsys):
    """A list of the rule breaches of one ``main`` run, empty when it keeps them all."""
    if out.exists() and not out.is_dir():
        out.unlink()
    try:
        code = main(argv)
    except Exception as exc:   # noqa: BLE001 - the test is that nothing escapes
        capsys.readouterr()
        return [f"{type(exc).__name__} escaped main: {exc}"]
    captured = capsys.readouterr()
    lines = captured.err.splitlines()
    if code not in DOCUMENTED:
        return [f"undocumented exit {code}"]
    if code <= 2 and lines:
        return [f"exit {code} wrote stderr {captured.err[:150]!r}"]
    if code > 2 and (len(lines) != 1 or not captured.err.endswith("\n")):
        return [f"exit {code} wrote {len(lines)} stderr lines: {captured.err!r}"]
    if code == 0:
        written = captured.out + (out.read_text() if out.is_file() else "")
        bad = [x for x in _numbers(written) if not math.isfinite(x)]
        if bad:
            return [f"exit 0 wrote non-finite {bad[:3]}"]
    return []


@pytest.mark.parametrize("command", list(COMMANDS))
@pytest.mark.parametrize("kind", list(BASES))
def test_every_model_key_at_every_hostile_value(tmp_path, capsys, kind, command):
    base = model_to_text(BASES[kind]).splitlines()
    model, out = tmp_path / "model.txt", tmp_path / "out.csv"
    findings = []
    for i, line in enumerate(base[1:], start=1):
        key = line.split("=", 1)[0].strip()
        for value in HOSTILE:
            model.write_text("\n".join(base[:i] + [f"{key} = {value}"] + base[i + 1:]) + "\n")
            argv = [a.format(model=model, out=out) for a in COMMANDS[command]]
            findings += [f"{key} = {value}: {f}" for f in run(argv, out, capsys)]
    assert findings == []


_FIT = ["fit", "{data}", "--kind", "stable", "--out", "{out}"]

# option -> a command with one argument holding {v}, the hostile value; every fit is capped
# at a few evaluations
OPTIONS = {
    "--umax": ["spectral", "{model}", "--dim", "1", "--points", "11", "--umax", "{v}",
               "--out", "{out}"],
    "--points": ["spectral", "{model}", "--dim", "1", "--points", "{v}", "--out", "{out}"],
    "--grid count": ["simulate", "{model}", "--grid", "{v}x3:5", "--out", "{out}"],
    "--grid second count": ["simulate", "{model}", "--grid", "3x{v}:5", "--out", "{out}"],
    "--grid extent": ["simulate", "{model}", "--grid", "3x3:{v}", "--out", "{out}"],
    "--sweep lo": ["curve", "{model}", "--sweep", "alpha12={v}:1.1:3", "--out", "{out}"],
    "--sweep hi": ["curve", "{model}", "--sweep", "alpha12=0.7:{v}:3", "--out", "{out}"],
    "--sweep steps": ["curve", "{model}", "--sweep", "alpha12=0.7:1.1:{v}", "--out", "{out}"],
    **{f"simulate --{opt}": ["simulate", "{model}", "--grid", "3x3:5", f"--{opt}", "{v}",
                             "--out", "{out}"]
       for opt in ("mean1", "mean2", "nugget1", "nugget2")},
    **{f"krige --{opt}": ["krige", "{model}", "{data}", "{targets}", f"--{opt}", "{v}",
                          "--out", "{out}"] for opt in ("nugget1", "nugget2")},
    **{f"fit --{opt}": _FIT + ["--starts", "1", "--max-evals", "3", f"--{opt}", "{v}"]
       for opt in ("nugget1", "nugget2")},
    "--starts": _FIT + ["--max-evals", "3", "--starts", "{v}"],
    "--max-evals": _FIT + ["--starts", "1", "--max-evals", "{v}"],
}


@pytest.fixture(scope="module")
def option_files(tmp_path_factory):
    """The stable base model, a sample of it at 12 colocated sites and two targets."""
    work = tmp_path_factory.mktemp("options")
    paths = {name: work / f"{name}.txt" for name in ("model", "data", "targets", "out")}
    paths["model"].write_text(model_to_text(BASES["stable"]))
    pts = np.random.default_rng(0).uniform(0.0, 5.0, size=(12, 2))
    sample = bc.simulate(BASES["stable"], np.repeat(pts, 2, axis=0), np.tile([1, 2], 12), seed=0)
    # plain floats: the repr of a numpy scalar is not a CSV number
    rows = np.column_stack([sample.locations, sample.components, sample.values]).tolist()
    paths["data"].write_text("x,y,component,value\n"
                             + "".join(f"{x!r},{y!r},{int(c)},{v!r}\n" for x, y, c, v in rows))
    paths["targets"].write_text("x,y\n0.5,0.5\n2,3\n")
    return paths


@pytest.mark.parametrize("option", list(OPTIONS))
def test_every_numeric_option_at_every_hostile_value(option_files, capsys, option):
    out, findings = option_files["out"], []
    for value in HOSTILE:
        argv = [a.format(v=value, **option_files) for a in OPTIONS[option]]
        findings += [f"{value}: {f}" for f in run(argv, out, capsys)]
    assert findings == []


KRIGE_MODELS = {"stable": BASES["stable"],
                "matern": bc.matern_bivariate(1.0, 1.0, 0.2, 0.5, 0.75, 1.0, 1.0, 1.0, 1.0)}


@pytest.mark.parametrize("sheet", ["data", "targets"])
@pytest.mark.parametrize("kind", list(KRIGE_MODELS))
def test_every_krige_csv_cell_at_every_hostile_value(option_files, tmp_path, capsys, kind,
                                                     sheet):
    """Each coordinate and value cell of the data file, and each coordinate of the
    targets file, at each hostile value in turn."""
    files = {**option_files, "model": tmp_path / "model.txt", sheet: tmp_path / f"{sheet}.csv",
             "out": tmp_path / "out.csv"}
    files["model"].write_text(model_to_text(KRIGE_MODELS[kind]))
    header, *rows = [line.split(",") for line in option_files[sheet].read_text().splitlines()]
    argv = ["krige", *(str(files[k]) for k in ("model", "data", "targets")),
            "--out", str(files["out"])]
    files[sheet].write_text(option_files[sheet].read_text())
    assert main(argv) == 0, capsys.readouterr().err   # the unswept files krige
    capsys.readouterr()
    assert _sweep_cells(files[sheet], header, rows, argv, files["out"], capsys,
                        skip=("component",)) == []


def _sweep_cells(path, header, rows, argv, out, capsys, skip=()):
    """The rule breaches of ``argv`` with each cell of the CSV file ``path``
    (``header`` and ``rows``, lists of cells), but those of the columns in
    ``skip``, at each hostile value in turn."""
    findings = []
    for r, c in np.ndindex(len(rows), len(header)):
        if header[c] in skip:
            continue
        for value in HOSTILE:
            cells = [list(row) for row in rows]
            cells[r][c] = value
            path.unlink(missing_ok=True)   # a fresh file: truncating one can be slow
            path.write_text("".join(",".join(row) + "\n" for row in [header, *cells]))
            findings += [f"row {r + 2} {header[c]} = {value}: {f}" for f in run(argv, out, capsys)]
    return findings


@pytest.mark.parametrize("kind", list(KRIGE_MODELS))
def test_every_simulate_points_cell_at_every_hostile_value(tmp_path, capsys, kind):
    """Each coordinate and component cell of a ``simulate --points`` file at
    each hostile value in turn: colocated rows, a lone component 1 and two
    lone component 2 rows."""
    model, points, out = (tmp_path / name for name in ("model.txt", "points.csv", "out.csv"))
    model.write_text(model_to_text(KRIGE_MODELS[kind]))
    header = ["x", "y", "component"]
    rows = [["0.5", "0.5", "1"], ["0.5", "0.5", "2"], ["2", "3", "1"], ["4", "1", "2"],
            ["1", "4.5", "2"]]
    argv = ["simulate", str(model), "--points", str(points), "--seed", "3", "--out", str(out)]
    points.write_text("".join(",".join(row) + "\n" for row in [header, *rows]))
    assert main(argv) == 0, capsys.readouterr().err   # the unswept file simulates
    capsys.readouterr()
    assert _sweep_cells(points, header, rows, argv, out, capsys) == []


@pytest.fixture
def files(tmp_path):
    """A good model, sample and target file, a directory, and non-UTF-8 copies."""
    paths = {"model": tmp_path / "model.txt", "data": tmp_path / "data.csv",
             "targets": tmp_path / "targets.csv", "dir": tmp_path / "adir",
             "out": tmp_path / "out.csv"}
    paths["model"].write_text(model_to_text(BASES["stable"]))
    paths["data"].write_text("x,y,component,value\n0,0,1,1.0\n1,0,2,0.5\n"
                             "0,1,1,0.25\n1,1,2,0.75\n")
    paths["targets"].write_text("x,y\n0.5,0.5\n")
    paths["dir"].mkdir()
    latin1 = "# r\xe9sum\xe9\n".encode("latin-1")
    paths["bad_model"] = tmp_path / "bad_model.txt"
    paths["bad_model"].write_bytes(latin1 + paths["model"].read_bytes())
    paths["bad_data"] = tmp_path / "bad_data.csv"
    paths["bad_data"].write_bytes(paths["data"].read_bytes() + "0,2,1,\xe9\n".encode("latin-1"))
    return {k: str(v) for k, v in paths.items()}


# case -> (argv, exit code, what its one stderr line names: a file, or the codec)
FILE_CASES = {
    "directory as model": (["validate", "{dir}"], 65, "dir"),
    "directory as data": (["fit", "{dir}", "--kind", "stable", "--out", "{out}"], 65, "dir"),
    "directory as targets": (["krige", "{model}", "{data}", "{dir}", "--out", "{out}"], 65,
                             "dir"),
    "directory as --out": (["simulate", "{model}", "--grid", "3x3:5", "--out", "{dir}"], 65,
                           "dir"),
    "non-UTF-8 model": (["validate", "{bad_model}"], 66, "codec"),
    "non-UTF-8 data": (["krige", "{model}", "{bad_data}", "{targets}", "--out", "{out}"], 66,
                       "codec"),
    "missing model": (["validate", "{model}.gone"], 65, "model"),
}


@pytest.mark.parametrize("case", list(FILE_CASES))
def test_unreadable_or_unwritable_files(files, capsys, case):
    template, want, named = FILE_CASES[case]
    argv = [a.format(**files) for a in template]
    try:
        code = main(argv)
    except Exception as exc:   # noqa: BLE001 - the test is that nothing escapes
        pytest.fail(f"{type(exc).__name__} escaped main: {exc}")
    err = capsys.readouterr().err
    assert code == want
    assert len(err.splitlines()) == 1 and err.endswith("\n")
    assert files.get(named, "'utf-8' codec") in err
    if case == "missing model":
        assert err == f"file not found: {files['model']}.gone\n"
