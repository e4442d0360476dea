"""The runtime is stdlib-only, every module's ``__all__`` names exist, and
every cross-reference role in a docstring names something that exists."""

import ast
import importlib
import pkgutil
import re
import sys
from functools import reduce
from pathlib import Path

import pytest

import conecert

SOURCES = sorted((Path(__file__).resolve().parent.parent / "src" / "conecert").glob("*.py"))
# A Sphinx cross-reference such as :func:`~conecert.metrics.scalarize`.
ROLE = re.compile(r":(?:func|class|meth|attr|exc|mod):`~?([\w.]+)`")


def module_of(path):
    return importlib.import_module(f"conecert.{path.stem}" if path.stem != "__init__" else "conecert")


def imported_roots(tree: ast.Module) -> set:
    """Top-level package of every absolute import; relative ones are skipped."""
    roots = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            roots.update(alias.name.partition(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            roots.add(node.module.partition(".")[0])
    return roots


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_imports_only_the_standard_library(path):
    roots = imported_roots(ast.parse(path.read_text()))
    assert roots - sys.stdlib_module_names - {"conecert"} == set()


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_all_names_exist(path):
    module = module_of(path)
    missing = [name for name in getattr(module, "__all__", ()) if not hasattr(module, name)]
    assert missing == []


def docstring_roles(tree: ast.Module) -> list:
    """The target of every cross-reference role in the module's docstrings."""
    kinds = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)
    docs = [ast.get_docstring(node) for node in ast.walk(tree) if isinstance(node, kinds)]
    return [name for doc in docs if doc for name in ROLE.findall(doc)]


def resolves(name: str, module) -> bool:
    """``name`` is an attribute path from ``module``, from a class defined
    there (a relative ``:meth:``) or from the package, or an importable
    dotted name."""
    classes = [v for v in vars(module).values() if isinstance(v, type) and v.__module__ == module.__name__]
    for root in (module, *classes, conecert):
        try:
            reduce(getattr, name.split("."), root)
            return True
        except AttributeError:
            pass
    try:
        pkgutil.resolve_name(name)
        return True
    except (ImportError, AttributeError, ValueError):
        return False


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_docstring_roles_resolve(path):
    module = module_of(path)
    roles = docstring_roles(ast.parse(path.read_text()))
    assert [name for name in roles if not resolves(name, module)] == []


def unread_imports(tree: ast.Module) -> list:
    """Names bound by a top-level import, ``__future__`` aside, that the
    module never reads: a read is an ``ast.Name`` in load context, which
    covers the base of an attribute and every name in an annotation."""
    bound = []
    for node in tree.body:
        if isinstance(node, ast.Import):
            bound += [alias.asname or alias.name.partition(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [alias.asname or alias.name for alias in node.names]
    read = {
        node.id for node in ast.walk(tree) if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }
    return [name for name in bound if name not in read]


@pytest.mark.parametrize("path", [p for p in SOURCES if p.name != "__init__.py"], ids=lambda p: p.name)
def test_every_import_is_read(path):
    assert unread_imports(ast.parse(path.read_text())) == []


def private_definitions(tree: ast.Module) -> list:
    """Top-level functions and classes, and the methods of those classes,
    whose name starts with a single underscore."""
    kinds = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    names = []
    for node in tree.body:
        if isinstance(node, kinds):
            names.append(node.name)
        if isinstance(node, ast.ClassDef):
            names += [f.name for f in node.body if isinstance(f, (ast.FunctionDef, ast.AsyncFunctionDef))]
    return [name for name in names if name.startswith("_") and not name.startswith("__")]


def names_read(tree: ast.Module) -> set:
    """Every name the module reads: an ``ast.Name`` in load context, the
    name of an attribute, or a name imported from another module."""
    read = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, ast.Attribute):
            read.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            read.update(alias.name for alias in node.names)
    return read


def test_every_private_helper_is_read():
    """A private function, class or method that nothing in ``src/`` reads is
    dead code: no caller outside the package may count on it."""
    trees = {path.name: ast.parse(path.read_text()) for path in SOURCES}
    read = set().union(*map(names_read, trees.values()))
    defined = [(name, helper) for name, tree in trees.items() for helper in private_definitions(tree)]
    assert [f"{name}:{helper}" for name, helper in defined if helper not in read] == []
