"""Static guard: the package imports nothing outside the standard library.

treemine has no runtime dependencies (`dependencies = []` in pyproject.toml),
so a run needs only Python itself. This test parses every module of the
package and fails on any absolute import whose top-level name is not a
standard library module; relative imports stay inside the package.
"""

import ast
import sys
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "treemine"
MODULES = sorted(PACKAGE.glob("*.py"))


def foreign_imports(source):
    """Top-level names of the absolute imports in `source` that are not
    standard library modules."""
    names = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and not node.level:
            names.append(node.module)
    tops = [name.partition(".")[0] for name in names]
    return [top for top in tops if top not in sys.stdlib_module_names]


def test_guard_sees_plain_from_and_nested_imports():
    source = ("import os, numpy.linalg\nfrom yaml import load\n"
              "from . import cst\nfrom .cst import Tokens\n"
              "def f():\n    import requests\n")
    assert foreign_imports(source) == ["numpy", "yaml", "requests"]


def test_package_modules_are_found():
    assert PACKAGE / "__init__.py" in MODULES
    assert PACKAGE / "pipeline.py" in MODULES


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_package_imports_only_the_standard_library(path):
    assert foreign_imports(path.read_text(encoding="utf-8")) == []
