"""Every public name a module declares resolves, so a deletion cannot leave a stale export."""

import importlib
import pkgutil

import pytest

import mvstoch

MODULES = sorted(m.name for m in pkgutil.iter_modules(mvstoch.__path__))


def test_seven_modules():
    assert MODULES == ["cli", "dominated", "drivers", "grid", "integrands", "mvintegral",
                       "volterra"]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(f"mvstoch.{name}")
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert missing == []


@pytest.mark.parametrize("name", MODULES)
def test_star_import(name):
    namespace = {}
    exec(f"from mvstoch.{name} import *", namespace)  # a stale __all__ entry raises here
    assert set(getattr(importlib.import_module(f"mvstoch.{name}"), "__all__", ())) <= set(namespace)


def test_test_only_names_live_in_the_tests():
    # the tests read them from tests/helpers.py; src/ calls none of them
    from mvstoch import grid, volterra

    for module, name in ((grid, "weak_star_delta"), (volterra, "variation_condition_check"),
                         (volterra, "diagonal_jump_check")):
        assert name not in module.__all__ and not hasattr(module, name), name
    for cls, name in ((grid.CompactGrid, "resolve"), (grid.SignedMeasureVec, "pair"),
                      (grid.TestFamily, "evaluate_measure")):
        assert not hasattr(cls, name), name
