"""Every public name a module declares resolves, the package re-exports it,
and the program, not only the tests, reads it, as it reads every public
method, property and field of a public class, and sets every option they
take."""

import ast
import dataclasses
import importlib
import inspect
import math
import pathlib
import pkgutil
import re
from collections import Counter, defaultdict

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
# defaulted parameters of the library that no call in the program sets, as
# "function(parameter)": none, since an option held at one value is dead code
UNSET: set[str] = set()


def _count_references(nodes, refs: Counter) -> None:
    declared = set()
    for node in nodes:
        if isinstance(node, ast.AnnAssign):
            declared.add(id(node.target))  # a field's declaration
        elif isinstance(node, ast.Name) and id(node) not in declared:
            refs[node.id] += 1
        elif isinstance(node, ast.Attribute):
            refs[node.attr] += 1
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            if re.fullmatch(r"\w+(\.\w+)+", node.value):
                refs.update(node.value.split("."))


def _program_trees():
    """The parsed files of the program."""
    return [ast.parse(path.read_text(), str(path)) for path in PROGRAM]


def program_references() -> Counter:
    """Names the program reads: each bare name, each attribute and each part
    of a dotted name in a string, as the benchmark's tracer keys its hooks
    ("perturb.solve_perturbative"). A definition, a docstring and an entry of
    `__all__` are not references."""
    refs = Counter()
    for tree in _program_trees():
        _count_references(ast.walk(tree), refs)
    return refs


def constructor_references() -> dict:
    """Per class name, the references made inside its own `__init__` and
    `__post_init__`: a constructor that validates or stores a field does
    not read it for the program."""
    own = defaultdict(Counter)
    for tree in _program_trees():
        for cls in ast.walk(tree):
            if isinstance(cls, ast.ClassDef):
                for node in cls.body:
                    if (isinstance(node, ast.FunctionDef)
                            and node.name in ("__init__", "__post_init__")):
                        _count_references(ast.walk(node), own[cls.name])
    return own


@pytest.mark.parametrize("name", MODULES)
def test_public_names_have_a_caller(name):
    refs = program_references()
    public = importlib.import_module(f"ampmech.{name}").__all__
    assert [attr for attr in public if not refs[attr] and attr not in UNCALLED] == []


def public_members(cls) -> list[str]:
    """The public methods, properties and dataclass fields a class defines
    itself; an exception's members are those of its base."""
    members = set(getattr(cls, "__dataclass_fields__", {}))
    members |= {attr for attr, obj in vars(cls).items()
                if inspect.isfunction(obj) or isinstance(obj, property)}
    return sorted(attr for attr in members if not attr.startswith("_"))


@pytest.mark.parametrize("name", MODULES)
def test_public_members_have_a_caller(name):
    # the rule of the public names, one level down: a method, property or
    # field of a public class is read by the program, not only by the tests
    refs, own = program_references(), constructor_references()
    module = importlib.import_module(f"ampmech.{name}")
    classes = [getattr(module, attr) for attr in module.__all__
               if inspect.isclass(getattr(module, attr))]
    assert [f"{cls.__name__}.{attr}" for cls in classes for attr in public_members(cls)
            if refs[attr] <= own[cls.__name__][attr]] == []


def defaulted_parameters(module):
    """(name, callees, parameter, index) of each defaulted parameter of a
    public function, a public method or the constructor of a public
    dataclass of the module: the names a call to it goes by, and its place
    among the positional arguments such a call passes (None for a
    keyword-only parameter). A dataclass field is also set by `replace`."""
    out = []
    for attr in module.__all__:
        obj = getattr(module, attr)
        if inspect.isfunction(obj):
            targets = [(attr, obj, {attr}, 0)]
        elif inspect.isclass(obj):
            targets = [(f"{attr}.{name}", fn, {name}, 1) for name, fn in vars(obj).items()
                       if inspect.isfunction(fn) and not name.startswith("_")]
            if dataclasses.is_dataclass(obj):
                targets.append((attr, obj.__init__, {attr, "replace"}, 1))
        else:
            continue
        for name, fn, callees, skip in targets:
            params = list(inspect.signature(fn).parameters.values())[skip:]
            for i, param in enumerate(params):
                if param.default is not param.empty:
                    positional = param.kind is not param.KEYWORD_ONLY
                    out.append((f"{name}({param.name})", callees, param.name,
                                i if positional else None))
    return out


def program_calls() -> dict:
    """Per name called, the number of positional arguments and the keyword
    names of each call in the program; a * or ** argument may pass any."""
    calls = defaultdict(list)
    for tree in _program_trees():
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            name = getattr(func, "id", None) or getattr(func, "attr", None)
            if any(isinstance(a, ast.Starred) for a in node.args) or any(
                    k.arg is None for k in node.keywords):
                calls[name].append((math.inf, None))
            else:
                calls[name].append((len(node.args), {k.arg for k in node.keywords}))
    return calls


def _sets(call, param: str, index) -> bool:
    positional, keywords = call
    return keywords is None or param in keywords or (index is not None and positional > index)


@pytest.mark.parametrize("name", ["core", "perturb", "classical", "oracle"])
def test_defaulted_parameters_are_set_by_the_program(name):
    # an option that every call leaves at its default is one value in use:
    # some call in the program passes each, by keyword or by position
    calls = program_calls()
    module = importlib.import_module(f"ampmech.{name}")
    unset = [label for label, callees, param, index in defaulted_parameters(module)
             if label not in UNSET and not any(
                 _sets(call, param, None if callee == "replace" else index)
                 for callee in callees for call in calls[callee])]
    assert unset == []
