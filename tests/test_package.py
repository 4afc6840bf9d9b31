"""Every public name a module declares resolves, the package re-exports it,
and the program, not only the tests, reads it."""

import ast
import importlib
import pathlib
import pkgutil
import re
from collections import Counter

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


ROOT = pathlib.Path(__file__).resolve().parent.parent
# the program: the library modules, the command line, the scripts and the
# benchmark; the package's re-exports and the tests do not count as callers
PROGRAM = [path for path in sorted((ROOT / "src" / "ampmech").glob("*.py"))
           if path.name != "__init__.py"]
PROGRAM += sorted((ROOT / "scripts").glob("*.py")) + sorted((ROOT / "perfbench").glob("*.py"))
# balance_residuals is the classical equation residual that acceptance
# criterion 5 reads; only the tests call it
UNCALLED = {"balance_residuals"}


def program_references() -> Counter:
    """Names the program reads: each bare name, each attribute and each part
    of a dotted name in a string, as the benchmark's tracer keys its hooks
    ("perturb.solve_perturbative"). A definition, a docstring and an entry of
    `__all__` are not references."""
    refs = Counter()
    for path in PROGRAM:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Name):
                refs[node.id] += 1
            elif isinstance(node, ast.Attribute):
                refs[node.attr] += 1
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                if re.fullmatch(r"\w+(\.\w+)+", node.value):
                    refs.update(node.value.split("."))
    return refs


@pytest.mark.parametrize("name", MODULES)
def test_public_names_have_a_caller(name):
    refs = program_references()
    public = importlib.import_module(f"ampmech.{name}").__all__
    assert [attr for attr in public if not refs[attr] and attr not in UNCALLED] == []
