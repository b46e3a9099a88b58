import pytest

from treemine import ConfigError, FilterSpec, accept, count_nodes, split
from treemine.ast_builder import DEFAULT_IGNORE_NAMES

from conftest import build


def method_unit(source):
    return split(build(source), "method")[0]


SMALL = "class A { int f() { return 1; } }"


def test_tree_size_max():
    unit = method_unit(SMALL)
    size = count_nodes(unit)
    assert accept(unit, unit.span, FilterSpec("tree_size", max_nodes=size))
    assert not accept(unit, unit.span,
                      FilterSpec("tree_size", max_nodes=size - 1))


def test_tree_size_min():
    unit = method_unit(SMALL)
    size = count_nodes(unit)
    spec = FilterSpec("tree_size", max_nodes=1000, min_nodes=size + 1)
    assert not accept(unit, unit.span, spec)
    spec = FilterSpec("tree_size", max_nodes=1000, min_nodes=size)
    assert accept(unit, unit.span, spec)


def test_code_lines():
    unit = method_unit("class A {\n    int f() {\n        return 1;\n    }\n}")
    # the method spans lines 2 through 4
    assert accept(unit, unit.span, FilterSpec("code_lines", max_lines=3))
    assert not accept(unit, unit.span, FilterSpec("code_lines", max_lines=2))


def test_code_lines_without_span_accepts():
    unit = method_unit(SMALL)
    assert accept(unit, None, FilterSpec("code_lines", max_lines=1))


def test_abstract_method_by_modifier():
    unit = method_unit("abstract class A { abstract int f(); }")
    assert not accept(unit, unit.span, FilterSpec("abstract_method"))


def test_abstract_method_keeps_concrete():
    unit = method_unit(SMALL)
    assert accept(unit, unit.span, FilterSpec("abstract_method"))


def test_empty_body_counts_as_abstract():
    # an empty body is pruned away, leaving the method with no block
    unit = method_unit("class A { void f() { } }")
    assert not accept(unit, unit.span, FilterSpec("abstract_method"))


def test_override_method():
    marked = method_unit("class A { @Override int f() { return 1; } }")
    plain = method_unit(SMALL)
    assert not accept(marked, marked.span, FilterSpec("override_method"))
    assert accept(plain, plain.span, FilterSpec("override_method"))


def test_other_annotations_do_not_trip_override():
    unit = method_unit("class A { @Deprecated int f() { return 1; } }")
    assert accept(unit, unit.span, FilterSpec("override_method"))


def test_constructor_filter():
    units = split(build("class P { P() { x = 1; } void f() { x = 2; } }"),
                  "method")
    ctor, method = units
    assert not accept(ctor, ctor.span, FilterSpec("constructor"))
    assert accept(method, method.span, FilterSpec("constructor"))


def test_unknown_filter_is_config_error():
    unit = method_unit(SMALL)
    with pytest.raises(ConfigError) as info:
        accept(unit, unit.span, FilterSpec("nope"))
    assert str(info.value) == "unknown filter: 'nope'"


def test_tree_size_works_at_any_granularity():
    tree = build(SMALL)
    assert accept(tree, tree.span, FilterSpec("tree_size", max_nodes=1000))


def test_ignored_kinds_defeat_override_and_abstract_filters():
    # why validate_config rejects these filters beside these ignored kinds
    def methods(source, kind):
        ignore = frozenset([*DEFAULT_IGNORE_NAMES, kind])
        return split(build(source, ignore), "method")
    marked, = methods("class A { @Override int f() { return 1; } }",
                      "ANNOTATION")
    assert accept(marked, marked.span, FilterSpec("override_method"))
    units = methods("class A { int f() { return 1; } void g() { h(); } }",
                    "CODE_BLOCK")
    assert len(units) == 2
    assert not any(accept(u, u.span, FilterSpec("abstract_method"))
                   for u in units)
