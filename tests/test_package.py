"""Every public name a module declares resolves, and the package re-exports it."""

import importlib
import pkgutil

import pytest

import ampmech

MODULES = [
    name for _, name, _ in pkgutil.iter_modules(ampmech.__path__)
    if hasattr(importlib.import_module(f"ampmech.{name}"), "__all__")
]


def test_library_modules_declare_public_names():
    assert {"core", "perturb", "classical", "oracle"} <= set(MODULES)


@pytest.mark.parametrize("name", MODULES)
def test_public_names_resolve_and_are_reexported(name):
    module = importlib.import_module(f"ampmech.{name}")
    missing = [attr for attr in module.__all__ if not hasattr(module, attr)]
    assert not missing
    unexported = [attr for attr in module.__all__
                  if getattr(ampmech, attr, None) is not getattr(module, attr)]
    assert not unexported
