"""Static guard: the package imports nothing outside the standard library.

treemine has no runtime dependencies (`dependencies = []` in pyproject.toml),
so a run needs only Python itself. This test parses every module of the
package and fails on any absolute import whose top-level name is not a
standard library module; relative imports stay inside the package.

`sys.stdlib_module_names` lists the modules of the running interpreter only.
CPython 3.12 merged its C SHA-256 module `_sha256` into `_sha2`, and the
package imports whichever one the interpreter has. So each name in
`RENAMED_STDLIB` counts as standard library exactly when the running
interpreter lists its counterpart, and no other name is added.
"""

import ast
import sys
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "treemine"
MODULES = sorted(PACKAGE.glob("*.py"))

# a module's name before and after a CPython release renamed it
RENAMED_STDLIB = {"_sha256": "_sha2"}
STDLIB = set(sys.stdlib_module_names)
STDLIB.update(old for old, new in RENAMED_STDLIB.items() if new in STDLIB)
STDLIB.update(new for old, new in RENAMED_STDLIB.items() if old in STDLIB)


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
    return [top for top in tops if top not in STDLIB]


def test_guard_sees_plain_from_and_nested_imports():
    source = ("import os, numpy.linalg\nfrom yaml import load\n"
              "from . import cst\nfrom .cst import Tokens\n"
              "def f():\n    import requests\n")
    assert foreign_imports(source) == ["numpy", "yaml", "requests"]


def test_only_a_renamed_module_gains_a_name():
    assert len(STDLIB - set(sys.stdlib_module_names)) == len(RENAMED_STDLIB)
    for old, new in RENAMED_STDLIB.items():
        # the running interpreter lists the module under one of its names
        assert (old in sys.stdlib_module_names) != (
            new in sys.stdlib_module_names), (old, new)
        assert foreign_imports(f"import {old}\nimport {new}\n") == []


def test_package_modules_are_found():
    assert PACKAGE / "__init__.py" in MODULES
    assert PACKAGE / "pipeline.py" in MODULES


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_package_imports_only_the_standard_library(path):
    assert foreign_imports(path.read_text(encoding="utf-8")) == []
