"""The hand-kept export lists (``htsolve._API`` and each module's
``__all__``) name only things that exist."""

import importlib

import pytest

import htsolve


@pytest.mark.parametrize("module", sorted(htsolve._API))
def test_api_names_resolve_and_are_exported(module):
    mod = importlib.import_module(f"htsolve.{module}")
    for name in htsolve._API[module]:
        assert name in mod.__all__, f"htsolve.{module}.__all__ lacks {name}"
        assert getattr(htsolve, name) is getattr(mod, name)


@pytest.mark.parametrize("module", ("errors",) + htsolve._SUBMODULES)
def test_module_all_entries_resolve(module):
    mod = importlib.import_module(f"htsolve.{module}")
    missing = [name for name in mod.__all__ if not hasattr(mod, name)]
    assert not missing, f"htsolve.{module}.__all__ names missing {missing}"


def test_package_all_entries_resolve():
    missing = [name for name in htsolve.__all__ if not hasattr(htsolve, name)]
    assert not missing
