"""The package's public surface: ``bicov.__all__`` re-exports exactly the
submodules' public names, and every exported name resolves, on first access."""

import importlib
import subprocess
import sys

import pytest

import bicov

SUBMODULES = ("bimodels", "corrfn", "field", "spectral", "validity")


def test_all_is_the_union_of_the_submodules():
    names = set()
    for sub in SUBMODULES:
        names |= set(importlib.import_module(f"bicov.{sub}").__all__)
    assert sorted(bicov.__all__) == sorted(names)


def test_every_exported_name_resolves():
    for sub in SUBMODULES:
        mod = importlib.import_module(f"bicov.{sub}")
        for name in mod.__all__:
            assert getattr(bicov, name) is getattr(mod, name)
    for name in bicov.__all__:
        assert getattr(bicov, name) is not None


def test_star_import_binds_every_name_in_a_fresh_interpreter():
    # the names resolve lazily, so only a fresh interpreter sees the first access
    code = ("from bicov import *\nimport bicov\n"
            "assert all(globals()[n] is getattr(bicov, n) for n in bicov.__all__)")
    res = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert res.returncode == 0, res.stderr


def test_dir_lists_all_and_the_submodules():
    assert set(bicov.__all__) | set(SUBMODULES) <= set(dir(bicov))


def test_submodules_resolve_to_the_modules():
    for sub in SUBMODULES:
        assert getattr(bicov, sub) is importlib.import_module(f"bicov.{sub}")


def test_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match=r"^module 'bicov' has no attribute 'no_such_name'$"):
        bicov.no_such_name
    assert not hasattr(bicov, "no_such_name")
