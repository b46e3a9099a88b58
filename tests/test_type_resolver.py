import pytest

from treemine import NO_TYPE, Scope, annotate_types, resolve_identifier

from conftest import build, find_all, find_one


def annotated(source):
    return annotate_types(build(source))


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
    ("10L", "int"),
    ("1.5", "double"),
    ("0.25f", "double"),
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


def test_resolve_identifier_walks_scope_chain():
    outer = Scope({"a": "int"}, None)
    inner = Scope({"b": "double"}, outer)
    assert resolve_identifier("a", inner) == "int"
    assert resolve_identifier("b", inner) == "double"
    assert resolve_identifier("c", inner) == NO_TYPE


def test_no_crosstalk_between_methods():
    source = ("class A { void f() { int local = 1; use(local); } "
              "void g() { use(local); } }")
    tree = annotated(source)
    methods = find_all(tree, "METHOD_DECL")
    g_use = [l for l in methods[1].leaves() if l.token == "local"]
    assert g_use[0].resolved_type == NO_TYPE
