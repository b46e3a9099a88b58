"""Static guard: no function in the package recurses.

Trees can be thousands of levels deep (a long `+` chain is built in a loop),
so each walk over them is a loop over an explicit stack, and the parser
reads every chain (`else if`, prefix operators, binary operators, `=`) in a
loop too. This test parses the package sources, the parser included, and
fails on any function that calls its own name, bare (`walk(child)`) or as an
attribute (`child.leaves()`). Nesting still goes through mutually recursive
productions, which the parser bounds with its own counter.

Beside it sits a guard on node-type names: a misspelt node type in a string
literal never matches and fails silently, so every all-caps string literal
in the package must name a CST kind or one of the few sentinel tokens.
"""

import ast
import re
from pathlib import Path

import pytest

import treemine
from treemine.cst import CST_KIND_NAMES

PACKAGE = Path(treemine.__file__).parent
MODULES = sorted(PACKAGE.glob("*.py"))
SOURCES = [p for p in MODULES if p.name != "parser.py"]
# the lexer's all-caps literals are regex group names, cst.py defines the kinds
NAMING_SOURCES = [p for p in MODULES if p.name not in ("lexer.py", "cst.py")]
# tokens the pipeline writes in place of a type, a label, a name or a call
SENTINELS = {"NO_TYPE", "NO_LABEL", "METHOD_NAME", "SELF"}


def self_calls(source):
    """Names of the functions in `source` that call their own name."""
    found = []
    for func in ast.walk(ast.parse(source)):
        if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        for node in ast.walk(func):
            if not isinstance(node, ast.Call):
                continue
            callee = node.func
            if ((isinstance(callee, ast.Name) and callee.id == func.name)
                    or (isinstance(callee, ast.Attribute)
                        and callee.attr == func.name
                        and not _is_super_call(callee.value))):
                found.append(func.name)
                break
    return found


def _is_super_call(node):
    # super().__init__(...) hands over to the base class; it does not recurse
    return (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id == "super")


def test_guard_sees_bare_and_attribute_self_calls():
    source = ("def walk(node):\n    for c in node.children:\n        walk(c)\n"
              "class N:\n    def leaves(self):\n"
              "        for c in self.children:\n            yield from c.leaves()\n"
              "class E(Exception):\n    def __init__(self):\n"
              "        super().__init__('e')\n"
              "def flat(node):\n    return list(node.children)\n")
    assert self_calls(source) == ["walk", "leaves"]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_function_below_the_parser_recurses(path):
    assert self_calls(path.read_text(encoding="utf-8")) == []


def test_parser_does_not_recurse():
    source = (PACKAGE / "parser.py").read_text(encoding="utf-8")
    assert self_calls(source) == []


def unknown_caps_literals(source):
    """All-caps string literals in `source` naming no CST kind or sentinel."""
    return [node.value for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Constant) and isinstance(node.value, str)
            and re.fullmatch(r"[A-Z][A-Z0-9_]*", node.value)
            and node.value not in CST_KIND_NAMES | SENTINELS]


def test_guard_sees_a_misspelt_node_type():
    source = ("def f(node):\n"
              "    return node.node_type in ('CODEBLOCK', 'CODE_BLOCK')\n"
              "NAME = 'METHOD_NAME'\nTEXT = 'Override'\n")
    assert unknown_caps_literals(source) == ["CODEBLOCK"]


@pytest.mark.parametrize("path", NAMING_SOURCES, ids=lambda p: p.name)
def test_node_type_literals_name_real_kinds(path):
    assert unknown_caps_literals(path.read_text(encoding="utf-8")) == []
