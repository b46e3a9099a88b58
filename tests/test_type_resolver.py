import gc
import time

import pytest

from treemine import NO_TYPE, annotate_types
from treemine.ast_builder import DEFAULT_IGNORE_NAMES, AstNode

from conftest import CORPUS_DIR, build, find_all, find_one


def annotated(source, *ignored):
    """Annotate `source` built with the default ignores plus `ignored`."""
    return annotate_types(build(source, frozenset(DEFAULT_IGNORE_NAMES
                                                  + ignored)))


def typed_leaves(tree):
    return [(leaf.token, leaf.resolved_type) for leaf in tree.leaves()
            if leaf.node_type.split(":")[0] in ("IDENTIFIER", "LITERAL")]


def lookup(tree, token, occurrence=0):
    hits = [leaf for leaf in tree.leaves() if leaf.token == token]
    return hits[occurrence].resolved_type


def test_annotate_sets_types_in_place():
    tree = build("class A { }")
    name = tree.children[0].children[0]
    assert name.resolved_type is None
    result = annotate_types(tree)
    assert result is tree
    assert result.children[0].children[0] is name
    assert name.resolved_type == "A"


@pytest.mark.parametrize("literal,expected", [
    ('"hi"', "String"),
    ("'x'", "char"),
    ("'\\n'", "char"),
    ("true", "boolean"),
    ("false", "boolean"),
    ("null", NO_TYPE),
    ("42", "int"),
    ("10L", "long"),
    ("7l", "long"),
    ("1.5", "double"),
    ("0.25f", "float"),
    ("1.5F", "float"),
    ("1e10f", "float"),
    ("7d", "double"),
    ("1e10", "double"),
])
def test_literal_types(literal, expected):
    tree = annotated(f"class A {{ void f() {{ x = {literal}; }} }}")
    value = find_one(tree, "LITERAL")
    assert value.resolved_type == expected


def test_field_reference_resolves():
    tree = annotated("class A { int count; void f() { count = count + 1; } }")
    body = find_one(tree, "CODE_BLOCK")
    for leaf in body.leaves():
        if leaf.token == "count":
            assert leaf.resolved_type == "int"


def test_parameter_resolves():
    tree = annotated("class A { void f(double rate) { x = rate; } }")
    assert lookup(tree, "rate", occurrence=1) == "double"


def test_local_resolves():
    tree = annotated('class A { void f() { String s = "x"; use(s); } }')
    assert lookup(tree, "s", occurrence=1) == "String"


def test_unbound_identifier_is_no_type():
    tree = annotated("class A { void f() { mystery = 1; } }")
    assert lookup(tree, "mystery") == NO_TYPE


def test_local_shadows_field():
    source = ("class S { String s; void f() { int s = 1; use(s); } "
              "void g() { use(s); } }")
    tree = annotated(source)
    methods = find_all(tree, "METHOD_DECL")
    f_uses = [l for l in methods[0].leaves() if l.token == "s"]
    g_uses = [l for l in methods[1].leaves() if l.token == "s"]
    # inside f the local wins; g sees the field again
    assert [l.resolved_type for l in f_uses] == ["int", "int"]
    assert [l.resolved_type for l in g_uses] == ["String"]


def test_block_scope_expires():
    source = ("class S { int d; void f() { use(d); "
              "{ double d = 0.5; use(d); } use(d); } }")
    tree = annotated(source)
    uses = [l.resolved_type for l in tree.leaves() if l.token == "d"]
    # field decl name, use, local decl name, use, use after the block
    assert uses == ["int", "int", "double", "double", "int"]


def test_declaration_binds_before_initializer():
    tree = annotated("class A { void f() { int x = x + 1; } }")
    uses = [l.resolved_type for l in tree.leaves() if l.token == "x"]
    assert uses == ["int", "int"]


def test_forward_field_reference():
    tree = annotated("class A { int f() { return tail; } int tail = 3; }")
    assert lookup(tree, "tail") == "int"


def test_forward_method_call():
    tree = annotated("class A { int f() { return later(); } int later() "
                     "{ return 5; } }")
    assert lookup(tree, "later") == "int"


def test_unqualified_call_uses_return_type():
    tree = annotated("class A { double half(int v) { return v; } "
                     "void f() { x = half(2); } }")
    assert lookup(tree, "half", occurrence=1) == "double"


def test_unknown_call_is_no_type():
    tree = annotated("class A { void f() { x = mystery(); } }")
    assert lookup(tree, "mystery") == NO_TYPE


def test_qualified_member_is_no_type():
    tree = annotated("class A { A helper; void f() { helper.prepare(); } }")
    assert lookup(tree, "helper", occurrence=1) == "A"
    assert lookup(tree, "prepare") == NO_TYPE


def test_qualified_field_access_is_no_type():
    tree = annotated("class A { A other; void f() { x = other.limit; } }")
    assert lookup(tree, "limit") == NO_TYPE


def test_class_name_resolves_to_itself():
    tree = annotated("class A { void f() { x = Helper.make(); } }\n"
                     "class Helper { }")
    assert lookup(tree, "Helper", occurrence=1) == "Helper"
    assert lookup(tree, "make") == NO_TYPE


def test_sibling_class_field_type():
    tree = annotated("class A { Helper h; void f() { use(h); } }\n"
                     "class Helper { }")
    assert lookup(tree, "h", occurrence=1) == "Helper"


def test_this_is_untyped_identifier():
    tree = annotated("class A { int x; void f() { this.go(); } }")
    assert lookup(tree, "this") == NO_TYPE


def test_qualified_this_member_is_no_type():
    tree = annotated("class A { int x; A(int x) { this.x = x; } }")
    # this.x is a qualified member; the bare x on the right is the parameter
    xs = [l.resolved_type for l in tree.leaves() if l.token == "x"]
    assert xs == ["int", "int", NO_TYPE, "int"]


def test_method_decl_name_gets_return_type():
    tree = annotated("class A { double half() { return 0.5; } }")
    assert lookup(tree, "half") == "double"


def test_constructor_name_gets_class_type():
    tree = annotated("class P { P() { } void f() { x = P(); } }")
    values = [l.resolved_type for l in tree.leaves() if l.token == "P"]
    # class decl name, constructor decl name, unqualified call
    assert values == ["P", "P", "P"]
    # a constructor's first name leaf is typed by its own token: with the
    # annotation spliced in, that is the annotation's name
    tree = annotated("class P { @Deprecated P() { } }", "MODIFIER_LIST",
                     "ANNOTATION")
    assert typed_leaves(tree)[1:] == [("Deprecated", "Deprecated"),
                                      ("P", "P")]


def test_parameter_decl_name_gets_declared_type():
    tree = annotated("class A { void f(int[] data) { } }")
    assert lookup(tree, "data") == "int[]"


def test_generic_local_type_text():
    tree = annotated("class A { void f() { List<String> names = make(); "
                     "use(names); } }")
    assert lookup(tree, "names", occurrence=1) == "List<String>"


def test_for_loop_variable_scoped_to_loop():
    source = ("class A { void f(int i) { "
              "for (int i = 0; i < 3; i = i + 1) { use(i); } use(i); } }")
    tree = annotated(source)
    uses = [l.resolved_type for l in tree.leaves() if l.token == "i"]
    assert all(t == "int" for t in uses)


def test_no_crosstalk_between_methods():
    source = ("class A { void f() { int local = 1; use(local); } "
              "void g() { use(local); } }")
    tree = annotated(source)
    methods = find_all(tree, "METHOD_DECL")
    g_use = [l for l in methods[1].leaves() if l.token == "local"]
    assert g_use[0].resolved_type == NO_TYPE
    # nor between classes: a field binds in its own class only
    tree = annotated("class A { int x; } class B { int f() { return x; } }")
    assert [l.resolved_type for l in tree.leaves() if l.token == "x"] == [
        "int", NO_TYPE]


def test_local_after_closed_block_is_unbound_inside_it():
    tree = annotated("class S { void f() { { use(x); } int x = 1; use(x); } }")
    uses = [l.resolved_type for l in tree.leaves() if l.token == "x"]
    # use inside the earlier block, local decl name, use after it
    assert uses == [NO_TYPE, "int", "int"]


def test_later_field_seen_in_nested_blocks_and_shadowed_by_parameter():
    source = ("class S { void f() { { { use(n); } } } "
              "void g(String n) { { use(n); } } int n; }")
    tree = annotated(source)
    f, g = find_all(tree, "METHOD_DECL")
    assert [l.resolved_type for l in f.leaves() if l.token == "n"] == ["int"]
    # parameter decl name, use in the nested block
    assert [l.resolved_type for l in g.leaves() if l.token == "n"] == [
        "String", "String"]
    assert lookup(tree, "n", occurrence=3) == "int"


def test_parameters_bind_in_the_method_under_a_spliced_list_or_class():
    source = "class A { int n; int f(int p) { return p + n; } }"
    spliced = annotated(source, "PARAMETER_LIST")
    # parameter decl name, use in the body
    assert [l.resolved_type for l in spliced.leaves() if l.token == "p"] == [
        "int", "int"]
    assert lookup(spliced, "n", occurrence=1) == "int"
    classless = annotated(source, "CLASS_DECL")
    assert [l.resolved_type for l in classless.leaves() if l.token == "p"] == [
        "int", "int"]
    # the class's members bind in the file; only the class name is unbound
    assert lookup(classless, "A") == NO_TYPE
    for name in ("n", "f"):
        assert lookup(classless, name) == "int"
    assert lookup(classless, "n", occurrence=1) == "int"


def test_file_children_share_one_scope():
    source = "class A { void g(int a, a b) { use(a); } }"
    spliced = annotated(source, "CLASS_DECL", "METHOD_DECL")
    # parameter decl name, second parameter's type, use in the body
    assert [l.resolved_type for l in spliced.leaves() if l.token == "a"] == [
        "int", "int", "int"]
    # each parameter is its own child of the file
    spliced = annotated(source, "CLASS_DECL", "METHOD_DECL", "PARAMETER_LIST")
    assert lookup(spliced, "a", occurrence=1) == "int"


def test_parameter_visible_from_its_declaration_on():
    tree = annotated("class A { p f(int p) { return p; } }")
    # return type, parameter decl name, use in the body
    assert [l.resolved_type for l in tree.leaves() if l.token == "p"] == [
        NO_TYPE, "int", "int"]
    tree = annotated("class A { void g(a b, int a) { } }")
    # first parameter's type, second parameter's decl name
    assert [l.resolved_type for l in tree.leaves() if l.token == "a"] == [
        NO_TYPE, "int"]
    assert lookup(tree, "b") == "a"


def test_second_annotation_changes_no_type():
    for path in sorted(CORPUS_DIR.glob("*.java")):
        tree = annotate_types(build(path.read_text(encoding="utf-8")))
        first = [leaf.resolved_type for leaf in tree.leaves()]
        assert annotate_types(tree) is tree
        again = [leaf.resolved_type for leaf in tree.leaves()]
        assert again == first, path.name


def test_annotated_members_are_typed_by_their_own_names():
    # with MODIFIER_LIST and ANNOTATION both ignored a typed run is rejected
    # (test_config.py); with either kept, the annotation's name is no member
    for ignored in ((), ("MODIFIER_LIST",), ("ANNOTATION",)):
        tree = annotated("class A { @Deprecated int f() { return f(); } }",
                         *ignored)
        assert [lookup(tree, "f", k) for k in (0, 1)] == ["int", "int"]
        assert lookup(tree, "Deprecated") == NO_TYPE
        tree = annotated("class A { @Deprecated int n; int g() "
                         "{ return n; } }", *ignored)
        assert [lookup(tree, "n", k) for k in (0, 1)] == ["int", "int"]


def test_skipped_units_of_a_deep_tree_are_not_entered():
    # each method holds a `+` chain thousands of levels deep, which a
    # recursive walk could not type
    chain = " + ".join(["x"] * 3000)
    tree = build("class Deep { int a(int x) { return " + chain + "; }"
                 " int b(double x) { return a(1) + " + chain + "; } }")
    a, b = find_all(tree, "METHOD_DECL")
    assert annotate_types(tree, {id(a)}) is tree
    assert {leaf.resolved_type for leaf in b.leaves()
            if leaf.token == "x"} == {"double"}
    assert lookup(tree, "a", 1) == "int"  # the skipped method's return type
    # the parameter and every use of it in the skipped method
    assert [leaf.resolved_type for leaf in a.leaves()
            if leaf.token == "x"] == [None] * 3001


def _renamed(node, names):
    """A new tree of `node`'s shape, each token in `names` replaced."""
    if not node.children:
        return AstNode(node.node_type, names.get(node.token, node.token))
    return AstNode(node.node_type,
                   children=[_renamed(child, names) for child in node.children])


def _typing_time_ratio(source, holder_type, names, per_name):
    """Seconds to type `source` with the subtrees of its first `holder_type`
    node made once for each of `names`, renamed by `per_name(k, name)`, over
    the seconds to type the same tree with every one of `names` the first.

    Both trees have the same nodes, so a walk in linear time types them in
    about the same time (a ratio of 0.7 to 1.7 on CPython 3.10 to 3.13),
    while a walk that copies each scope pays at each scope for every name
    it can see (6 to 30 at these sizes). Copying the subtrees of one parsed
    holder is far faster than parsing the whole source."""
    seconds = []
    gc.disable()  # collecting trees this large costs more than making them
    try:
        for spread in (names, names[:1] * len(names)):
            tree = build(source)
            holder = next(node for node in tree.preorder()
                          if node.node_type == holder_type)
            holder.children = (
                [child for child in holder.children if not child.children]
                + [_renamed(child, per_name(k, name))
                   for child in holder.children if child.children
                   for k, name in enumerate(spread)])
            start = time.process_time()
            annotate_types(tree)
            seconds.append(time.process_time() - start)
    finally:
        gc.enable()
    return seconds[0] / seconds[1]


def test_many_members_are_typed_in_linear_time():
    # a class of 8,000 fields and 8,000 methods, each returning its own field
    names = [f"f{k}" for k in range(8_000)]
    assert _typing_time_ratio("class C { int f; int m() { return f; } }",
                              "CLASS_DECL", names,
                              lambda k, name: {"f": name, "m": f"m{k}"}) < 3


def test_many_locals_are_typed_in_linear_time():
    # one method of 15,000 lines, each declaring a local and opening a block
    names = [f"y{k}" for k in range(15_000)]
    assert _typing_time_ratio(
        "class C { int f(int x) { int y = x + 0; if (y > 3) { y = y * 2; } } }",
        "CODE_BLOCK", names, lambda k, name: {"y": name, "0": str(k)}) < 3
