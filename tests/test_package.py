"""The runtime is stdlib-only, and every module's ``__all__`` names exist."""

import ast
import importlib
import sys
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).resolve().parent.parent / "src" / "conecert").glob("*.py"))


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
    module = importlib.import_module(f"conecert.{path.stem}" if path.stem != "__init__" else "conecert")
    missing = [name for name in getattr(module, "__all__", ()) if not hasattr(module, name)]
    assert missing == []
