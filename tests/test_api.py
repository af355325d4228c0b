"""The package's public surface: ``bicov.__all__`` re-exports exactly the
submodules' public names, and every exported name resolves."""

import importlib

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
