import pytest

from treemine import (ConfigError, annotate_types, extract_method_name,
                      extract_none, split)
from treemine.ast_builder import DEFAULT_IGNORE_NAMES
from treemine.labels import NO_LABEL

from conftest import build, find_all

FIB = """
class Fib {
    int fib(int n) {
        if (n < 2) {
            return n;
        }
        return fib(n - 1) + fib(n - 2);
    }
}
"""


def method_unit(source, index=0):
    return split(annotate_types(build(source)), "method")[index]


def tokens(tree):
    return [l.token for l in tree.leaves()]


def test_extract_none_is_identity():
    tree = build("class A { }")
    sample = extract_none(tree)
    assert sample.label == NO_LABEL
    assert sample.tree is tree


def test_label_is_method_name():
    sample = extract_method_name(method_unit(FIB))
    assert sample.label == "fib"


def test_declaration_name_is_hidden():
    sample = extract_method_name(method_unit(FIB))
    assert "fib" not in tokens(sample.tree)
    assert tokens(sample.tree).count("METHOD_NAME") == 1


def test_recursive_calls_are_masked():
    sample = extract_method_name(method_unit(FIB))
    assert tokens(sample.tree).count("SELF") == 2


def test_masks_input_tree_in_place():
    unit = method_unit(FIB)
    assert "fib" in tokens(unit)
    sample = extract_method_name(unit)
    assert sample.tree is unit
    assert "fib" not in tokens(unit)
    assert tokens(unit).count("METHOD_NAME") == 1


def test_labeling_one_unit_leaves_its_siblings_alone():
    # half calls twice, which calls half: masking either must not reach
    # into the other unit of the same file tree
    source = ("class M { int half(int n) { if (n < 2) { return n; } "
              "return twice(half(n / 2)); } "
              "int twice(int n) { return half(n) + half(n); } }")
    units = split(annotate_types(build(source)), "method")
    samples = [extract_method_name(unit) for unit in units]
    fresh = [extract_method_name(method_unit(source, i))
             for i in range(len(units))]
    assert [s.label for s in samples] == ["half", "twice"]
    assert samples == fresh
    assert tokens(samples[0].tree).count("twice") == 1
    assert tokens(samples[1].tree).count("half") == 2


def test_masked_nodes_keep_resolved_types():
    sample = extract_method_name(method_unit(FIB))
    masked = [l for l in sample.tree.leaves()
              if l.token in ("METHOD_NAME", "SELF")]
    assert [l.resolved_type for l in masked] == ["int", "int", "int"]


def test_custom_tokens():
    sample = extract_method_name(method_unit(FIB), name_token="NAME?",
                                 recursion_token="LOOP?")
    assert tokens(sample.tree).count("NAME?") == 1
    assert tokens(sample.tree).count("LOOP?") == 2


def test_other_calls_not_masked():
    source = ("class A { void walk(int n) { step(); if (n > 0) "
              "{ walk(n - 1); } } }")
    sample = extract_method_name(method_unit(source))
    toks = tokens(sample.tree)
    assert "step" in toks
    assert toks.count("SELF") == 1


def test_same_named_reference_not_masked():
    # a bare reference to a field that shares the method name stays visible
    source = "class A { int go; void go() { x = go; } }"
    sample = extract_method_name(method_unit(source))
    toks = tokens(sample.tree)
    assert toks.count("SELF") == 0
    assert "go" in toks


def test_qualified_self_call_is_masked():
    source = ("class D { int sum(int n) { if (n < 10) { return n; } "
              "return n % 10 + this.sum(n / 10); } }")
    sample = extract_method_name(method_unit(source))
    assert tokens(sample.tree).count("SELF") == 1
    assert "sum" not in tokens(sample.tree)


def test_constructor_label_is_class_name():
    sample = extract_method_name(method_unit("class P { P() { x = 1; } }"))
    assert sample.label == "P"
    assert "METHOD_NAME" in tokens(sample.tree)


def test_rejects_non_method_tree():
    tree = build("class A { void f() { } }")
    with pytest.raises(ConfigError) as info:
        extract_method_name(tree)
    assert "method" in str(info.value)
    with pytest.raises(ConfigError):
        extract_method_name(tree.children[0])


def test_rejects_method_without_name_leaf():
    ignore = frozenset(DEFAULT_IGNORE_NAMES + ("IDENTIFIER",))
    unit, = split(build("class A { void f() { } }", ignore), "method")
    with pytest.raises(ConfigError) as info:
        extract_method_name(unit)
    assert str(info.value) == "method tree has no declaration name leaf"


def test_masking_is_deep():
    source = ("class A { int f(int n) { while (n > 0) { if (n % 2 == 0) "
              "{ n = f(n - 1); } n = n - 1; } return n; } }")
    sample = extract_method_name(method_unit(source))
    assert tokens(sample.tree).count("SELF") == 1
    calls = find_all(sample.tree, "METHOD_CALL")
    masked = [c for c in calls
              if any(ch.token == "SELF" for ch in c.children)]
    assert len(masked) == 1
