import pytest

from treemine import split
from treemine.ast_builder import DEFAULT_IGNORE_NAMES, METHOD_NODE_TYPES
from treemine.granularity import GRANULARITY_LEVELS

from conftest import CORPUS_DIR, build, find_one

TWO_CLASSES = """
class First {
    int a;
    First() { a = 1; }
    int get() { return a; }
}

class Second {
    void go() { }
    abstract void stop();
}
"""


def test_file_level_returns_whole_tree():
    tree = build(TWO_CLASSES)
    units = split(tree, "file")
    assert units == [tree]
    assert units[0] is tree


def test_class_level_returns_each_class():
    units = split(build(TWO_CLASSES), "class")
    assert [u.node_type for u in units] == ["CLASS_DECL", "CLASS_DECL"]
    names = [u.children[0].token for u in units]
    assert names == ["First", "Second"]


def test_method_level_includes_constructors():
    units = split(build(TWO_CLASSES), "method")
    kinds = [u.node_type for u in units]
    assert kinds == ["CONSTRUCTOR_DECL", "METHOD_DECL", "METHOD_DECL",
                     "METHOD_DECL"]


def test_method_level_source_order():
    units = split(build(TWO_CLASSES), "method")
    names = []
    for unit in units:
        name = next(l.token for l in unit.leaves()
                    if l.node_type == "IDENTIFIER")
        names.append(name)
    assert names == ["First", "get", "go", "stop"]


def test_bodyless_method_is_still_a_unit():
    units = split(build("abstract class A { abstract int f(); }"), "method")
    assert len(units) == 1


def test_empty_file():
    tree = build("// only a comment\n")
    assert split(tree, "file") == [tree]
    assert split(tree, "class") == []
    assert split(tree, "method") == []


def test_units_share_structure_with_source_tree():
    tree = build(TWO_CLASSES)
    unit = split(tree, "method")[1]
    assert unit is find_one(tree.children[0], "METHOD_DECL")


@pytest.mark.parametrize("ignore", [
    frozenset(DEFAULT_IGNORE_NAMES),
    frozenset({"LINE_COMMENT"}),
    frozenset(DEFAULT_IGNORE_NAMES) | {"CLASS_DECL", "CODE_BLOCK"},
], ids=["default", "keep-tokens", "splice-classes"])
def test_every_unit_has_a_span(ignore):
    # build gives spans to the unit kinds only, and code_lines reads them
    for path in sorted(CORPUS_DIR.glob("*.java")):
        tree = build(path.read_text(encoding="utf-8"), ignore)
        for level in GRANULARITY_LEVELS:
            for unit in split(tree, level):
                assert unit.span is not None, (path.name, level, unit)
                assert 1 <= unit.span.line_start <= unit.span.line_end


@pytest.mark.parametrize("ignore", [
    frozenset(DEFAULT_IGNORE_NAMES),
    frozenset(DEFAULT_IGNORE_NAMES) | {"CLASS_DECL"},
], ids=["default", "splice-classes"])
def test_method_units_are_those_of_a_full_walk(ignore):
    # split does not enter a unit; a walk of every node finds no others
    under_file = 0
    for path in sorted(CORPUS_DIR.glob("*.java")):
        tree = build(path.read_text(encoding="utf-8"), ignore)
        units = split(tree, "method")
        want = [n for n in tree.preorder() if n.node_type in METHOD_NODE_TYPES]
        assert [id(u) for u in units] == [id(n) for n in want], path.name
        under_file += sum(any(u is c for c in tree.children) for u in units)
    if "CLASS_DECL" in ignore:
        assert under_file > 50


def test_unknown_level_rejected():
    with pytest.raises(ValueError):
        split(build("class A { }"), "package")
