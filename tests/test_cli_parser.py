"""The command line's declared surface against ``data/cli_parser.json``.

The record holds each subcommand's argparse actions (flags, dest, type,
default, choices, required, metavar, help and mutually exclusive group) and
the seven ``-h`` screens (``bicov -h`` and each subcommand's) at 80 columns,
so a change to how the parser is declared cannot move what it accepts or
prints.  ``python3 tests/test_cli_parser.py`` writes the record again from
the code in ``src`` (``PYTHONPATH=src``).  The help screens are compared on
the Python version they were recorded on, since argparse's layout differs
between versions.
"""

import argparse
import contextlib
import io
import json
import os
import sys
from pathlib import Path
from unittest import mock

import pytest

from bicov.cli import _build_parser, main

RECORD = Path(__file__).parent / "data" / "cli_parser.json"


def _actions(parser: argparse.ArgumentParser) -> list:
    groups = {id(a): i for i, g in enumerate(parser._mutually_exclusive_groups)
              for a in g._group_actions}
    return [{"flags": a.option_strings, "dest": a.dest,
             "type": getattr(a.type, "__name__", a.type), "default": a.default,
             "choices": list(a.choices) if a.choices is not None else None,
             "required": a.required, "metavar": a.metavar, "help": a.help,
             "action": type(a).__name__, "group": groups.get(id(a))}
            for a in parser._actions if not isinstance(a, argparse._SubParsersAction)]


def describe() -> dict:
    """Every subcommand's actions and exclusive groups, and the seven help screens."""
    parser = _build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    record = {"python": "%d.%d" % sys.version_info[:2], "subcommands": list(sub.choices),
              "actions": {}, "groups": {}, "help": {}}
    for name, p in sub.choices.items():
        record["actions"][name] = _actions(p)
        record["groups"][name] = [g.required for g in p._mutually_exclusive_groups]
    for argv in [["-h"]] + [[name, "-h"] for name in sub.choices]:
        out = io.StringIO()
        with mock.patch.dict(os.environ, COLUMNS="80"), contextlib.redirect_stdout(out):
            assert main(argv) == 0
        record["help"][" ".join(argv)] = out.getvalue()
    return record


EXPECTED = json.loads(RECORD.read_text()) if RECORD.exists() else None


@pytest.fixture(scope="module")
def current():
    return describe()


@pytest.mark.parametrize("part", ["subcommands", "actions", "groups"])
def test_declared_arguments_match_the_record(current, part):
    assert current[part] == EXPECTED[part]


@pytest.mark.parametrize("argv", list(EXPECTED["help"]) if EXPECTED else [])
def test_help_screen_matches_the_record(current, argv):
    if current["python"] != EXPECTED["python"]:
        pytest.skip(f"argparse lays help out per Python version; recorded on {EXPECTED['python']}")
    assert current["help"][argv] == EXPECTED["help"][argv]


if __name__ == "__main__":
    RECORD.write_text(json.dumps(describe(), indent=1) + "\n")
