import re
from functools import cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from treemine import annotate_types, build_ast, count_nodes, parse_file
from treemine.ast_builder import DEFAULT_IGNORE_NAMES
from treemine.ast_builder import build as build_from_markers
from treemine.cst import CST_KIND_NAMES
from treemine.filters import FilterSpec, accept
from treemine.granularity import split
from treemine.lexer import scan
from treemine.parser import parse

from conftest import (CORPUS_DIR, GOLDEN_DIR, RECURSIVE_DIR, build, find_all,
                      find_one, leaf_tokens)
from oracle_ast import (oracle_annotate_types, oracle_build_ast,
                        oracle_has_override_annotation, oracle_is_abstract)
from oracle_parser import parse_file as oracle_parse_file

CORPUS_FILES = sorted(CORPUS_DIR.glob("*.java"))
# every parseable fixture and every golden input, plus locals whose
# initializers name an outer binding of another type
SOURCES = {path.name: path.read_text(encoding="utf-8") for path in (
    CORPUS_FILES + sorted(RECURSIVE_DIR.glob("*.java"))
    + sorted((GOLDEN_DIR / "input").rglob("*.java")))}
SOURCES["Scopes.java"] = """class Scopes {
    String x;
    int f(boolean y) {
        int x = x + 1;
        for (int i = x; i < x; i = i + 1) { double y = y + (i); x = (x); }
        return ((x));
    }
}
"""
# same-named parameters and fields of different types, and one name shared by
# a field, a method and a constructor parameter
SOURCES["Redeclared.java"] = """class Redeclared {
    int size;
    String size;
    double value;
    Redeclared(long value, int count) { count = value; }
    boolean value(int x, String x) { return x + value; }
    int use(char value) { value = value(value, size); return size; }
}
"""
# a constructor's local hoisted into its class by an ignore list: a method
# after it sees the local, one before it does not
SOURCES["Hoisted.java"] = """class Hoisted {
    void before() { use(x); }
    Hoisted(int p) { int x = p; }
    void after(double p) { use(x); use(p); }
}
"""
# scopes that end while the names they bound are still in use: a sibling
# class's members, a block's locals (one of them bound twice) and a loop
# variable; a field, a method and a local named alike; a constructor call
SOURCES["Siblings.java"] = """class One {
    int size;
    long only;
    String size() { return "one"; }
    int pick(int v) { return size + v + only; }
}
class Two {
    double size;
    boolean size() { return size(); }
    Two(long n) { size = n; }
    int use(String s) {
        { String size = s; int size = 2; size = size + s; }
        double after = size + size() + only;
        for (int k = 0; k < 3; k = k + 1) { after = after + k; }
        after = k + pick(k);
        int twice = 1;
        char twice = twice;
        Two made = Two(twice);
        return new Two(twice + made);
    }
}
"""
COMMENTS = ("LINE_COMMENT", "BLOCK_COMMENT")
IGNORE_LISTS = {
    "default": DEFAULT_IGNORE_NAMES,
    "nothing": (),
    "default_and_comments": DEFAULT_IGNORE_NAMES + COMMENTS,
    "class_decl": DEFAULT_IGNORE_NAMES + ("CLASS_DECL",),
    "method_decl": DEFAULT_IGNORE_NAMES + ("METHOD_DECL",),
    "parameter_list": DEFAULT_IGNORE_NAMES + ("PARAMETER_LIST",),
    # methods spliced out: their names and parameters become class children
    "members_hoisted": DEFAULT_IGNORE_NAMES + ("METHOD_DECL", "PARAMETER_LIST"),
    # classes and members spliced out: parameters become file children
    "members_in_file": DEFAULT_IGNORE_NAMES + ("CLASS_DECL", "METHOD_DECL",
                                              "CONSTRUCTOR_DECL",
                                              "PARAMETER_LIST"),
    # constructor bodies spliced out: their locals become class children
    "constructor_bodies_hoisted": DEFAULT_IGNORE_NAMES + ("CONSTRUCTOR_DECL",
                                                         "CODE_BLOCK"),
    "paren_expr": DEFAULT_IGNORE_NAMES + ("PAREN_EXPR",),
    "paren_expr_only": ("PAREN_EXPR",),
    "declarations": ("LOCAL_VAR_DECL", "FIELD_DECL", "PARAMETER") + COMMENTS,
    "blocks_and_references": DEFAULT_IGNORE_NAMES + (
        "CODE_BLOCK", "REFERENCE_EXPR", "METHOD_CALL", "ARGUMENT_LIST"),
    "types_and_modifiers": ("TYPE_REF", "MODIFIER_LIST", "MODIFIER",
                            "ANNOTATION", "KEYWORD"),
    # modifiers and annotations hoisted beside the rest of a declaration
    "modifier_list": DEFAULT_IGNORE_NAMES + ("MODIFIER_LIST",),
}


def test_minimal_class_is_three_nodes():
    tree = build("class A { }")
    assert count_nodes(tree) == 3
    assert tree.node_type == "FILE"
    class_decl = tree.children[0]
    assert class_decl.node_type == "CLASS_DECL"
    name = class_decl.children[0]
    assert name.node_type == "IDENTIFIER"
    assert name.token == "A"
    assert name.is_leaf()


def test_root_must_be_a_file_tree():
    cst = parse_file("class A { }")
    class_cst = next(c for c in cst.children if not c.is_leaf())
    with pytest.raises(ValueError):
        build_ast(class_cst, frozenset(DEFAULT_IGNORE_NAMES))


def test_only_a_tree_from_parse_file_builds():
    # build_ast reads the tokens and markers parse_file keeps on its root;
    # an equal FILE tree built any other way has none
    reference = oracle_parse_file("class A { }")
    assert reference == parse_file("class A { }")
    with pytest.raises(ValueError):
        build_ast(reference, frozenset(DEFAULT_IGNORE_NAMES))


def test_default_ignore_names():
    assert set(DEFAULT_IGNORE_NAMES) == {"KEYWORD", "PUNCTUATION", "OPERATOR"}


def test_ignore_set_drops_only_its_kinds():
    ignore = frozenset({"KEYWORD", "OPERATOR"})
    tree = build_ast(parse_file("class A { }"), ignore)
    kinds = {n.node_type for n in tree.preorder()}
    assert "PUNCTUATION" in kinds
    assert "KEYWORD" not in kinds


def test_whitespace_always_dropped():
    tree = build_ast(parse_file("class A { int x; }"), frozenset())
    assert all(n.node_type != "WHITE_SPACE" for n in tree.preorder())


def test_no_ignored_kinds_survive():
    tree = build("class A { int f(int p) { return p + 1; } }")
    kinds = {n.node_type.split(":")[0] for n in tree.preorder()}
    assert kinds.isdisjoint({"KEYWORD", "PUNCTUATION", "OPERATOR",
                             "WHITE_SPACE"})


@pytest.mark.parametrize("path", CORPUS_FILES, ids=lambda p: p.name)
def test_corpus_hygiene(path):
    tree = build(path.read_text(encoding="utf-8"))
    for node in tree.preorder():
        base = node.node_type.split(":")[0]
        assert base not in {"KEYWORD", "PUNCTUATION", "OPERATOR",
                            "WHITE_SPACE"}
        if node is not tree:
            # no empty internal nodes: a node is a leaf or has children
            assert node.children or node.token is not None
        if node.is_leaf() and node is not tree:
            assert node.token is not None


def test_comments_kept_by_default():
    tree = build("class A { // note\n }")
    comments = find_all(tree, "LINE_COMMENT")
    assert len(comments) == 1
    assert comments[0].token == "// note"


def test_comments_removed_when_ignored():
    ignore = frozenset(
        list(DEFAULT_IGNORE_NAMES) + ["LINE_COMMENT", "BLOCK_COMMENT"])
    tree = build_ast(
        parse_file("class A { /* doc */ int x; // y\n }"), ignore)
    kinds = {n.node_type for n in tree.preorder()}
    assert kinds.isdisjoint({"LINE_COMMENT", "BLOCK_COMMENT"})


def test_type_ref_collapses_to_leaf():
    tree = build("class A { int x; }")
    type_ref = find_one(tree, "TYPE_REF")
    assert type_ref.is_leaf()
    assert type_ref.token == "int"


def test_generic_type_ref_collapse_drops_inner_space():
    tree = build("class A { Map<String, List<Integer>> m; }")
    type_ref = find_one(tree, "TYPE_REF")
    assert type_ref.token == "Map<String,List<Integer>>"


def test_array_type_ref_collapse():
    tree = build("class A { int[][] grid; }")
    assert find_one(tree, "TYPE_REF").token == "int[][]"


def test_modifier_collapses_to_leaf():
    tree = build("public final class A { }")
    words = [m.token for m in find_all(tree, "MODIFIER")]
    assert words == ["public", "final"]
    assert all(m.is_leaf() for m in find_all(tree, "MODIFIER"))


def test_modifier_keeps_children_when_keyword_kept():
    tree = build_ast(parse_file("public class A { }"),
                     frozenset())
    modifier = find_one(tree, "MODIFIER")
    assert not modifier.is_leaf()
    assert modifier.children[0].node_type == "KEYWORD"


def test_empty_modifier_list_pruned():
    tree = build("class A { }")
    assert find_all(tree, "MODIFIER_LIST") == []


def test_empty_code_block_pruned():
    tree = build("class A { void f() { } }")
    method = find_one(tree, "METHOD_DECL")
    assert [c.node_type for c in method.children] == ["TYPE_REF", "IDENTIFIER"]


def test_operator_suffix_on_binary_and_unary():
    tree = build("class A { void f() { r = -a + b * c; } }")
    suffixed = sorted(n.node_type for n in tree.preorder()
                      if ":" in n.node_type)
    assert suffixed == ["BINARY_EXPR:*", "BINARY_EXPR:+", "UNARY_EXPR:-"]


def test_equal_operator_suffixes_share_one_string():
    tree = build("class A { int f(int a) { return -a + a * a + -a * a + a; }"
                 " }")
    plus = find_all(tree, "BINARY_EXPR:+")
    times = find_all(tree, "BINARY_EXPR:*")
    minus = find_all(tree, "UNARY_EXPR:-")
    assert (len(plus), len(times), len(minus)) == (3, 2, 2)
    for nodes in (plus, times, minus):
        assert all(node.node_type is nodes[0].node_type for node in nodes)


def test_assignment_keeps_plain_name():
    tree = build("class A { void f() { r = 1; } }")
    assert len(find_all(tree, "ASSIGNMENT_EXPR")) == 1


def test_no_suffix_when_operators_kept():
    tree = build_ast(parse_file("class A { void f() { r = a + b; } }"),
                     frozenset({"KEYWORD", "PUNCTUATION"}))
    binary = find_one(tree, "BINARY_EXPR")
    assert any(c.node_type == "OPERATOR" and c.token == "+"
               for c in binary.children)
    assert not find_all(tree, "KEYWORD") and not find_all(tree, "PUNCTUATION")


def test_paren_expr_collapses_to_single_child():
    tree = build("class A { void f() { r = (a + b) * c; } }")
    assert find_all(tree, "PAREN_EXPR") == []
    mult = find_one(tree, "BINARY_EXPR:*")
    assert [c.node_type for c in mult.children] == ["BINARY_EXPR:+",
                                                    "REFERENCE_EXPR"]


def test_ignored_internal_kind_is_spliced():
    ignore = frozenset(
        list(DEFAULT_IGNORE_NAMES) + ["EXPR_STMT"])
    tree = build_ast(parse_file("class A { void f() { g(); } }"), ignore)
    assert find_all(tree, "EXPR_STMT") == []
    block = find_one(tree, "CODE_BLOCK")
    # the call moved up one level into the block
    assert [c.node_type for c in block.children] == ["METHOD_CALL"]


def test_file_never_dropped():
    ignore = frozenset(DEFAULT_IGNORE_NAMES)
    tree = build_ast(parse_file("class A { }"), ignore)
    assert tree.node_type == "FILE"


def test_headers_drop_with_keywords_but_identifiers_stay():
    tree = build("package a.b;\nimport c.D;\nclass E { }\n")
    # header identifier tokens survive as FILE-level leaves
    top_tokens = [c.token for c in tree.children if c.is_leaf()]
    assert top_tokens[:4] == ["package", "a", "b", "import"]


def test_spans_preserved():
    source = "class A {\n    void f() {\n        x = 1;\n    }\n}\n"
    tree = build(source)
    method = find_one(tree, "METHOD_DECL")
    assert method.span is not None
    assert method.span.line_start == 2
    assert method.span.line_end == 4
    assert tree.span.line_start == 1


def test_count_nodes():
    tree = build("class A { int x; }")
    # FILE, CLASS_DECL, IDENTIFIER A, FIELD_DECL, TYPE_REF, IDENTIFIER x
    assert count_nodes(tree) == 6


def test_leaf_token_order_matches_source_order():
    tree = build("class A { int add(int p, int q) { return p + q; } }")
    tokens = leaf_tokens(tree)
    assert tokens == ["A", "int", "add", "int", "p", "int", "q", "p", "q"]


@cache
def _cst(name):
    return parse_file(SOURCES[name], name)


@cache
def _markers(name):
    tokens = scan(SOURCES[name])
    return tokens, parse(tokens)


ABSTRACT = FilterSpec("abstract_method")
OVERRIDE = FilterSpec("override_method")


def _parameter_types(tree):
    """(name, type) of each PARAMETER's name leaf, in preorder."""
    leaves = [node.name_leaf() for node in tree.preorder()
              if node.node_type == "PARAMETER"]
    return [(leaf.token, leaf.resolved_type) for leaf in leaves
            if leaf is not None]


def _assert_matches_recursive_reference(names):
    ignore = frozenset(names)
    spliced = ignore | {"PARAMETER_LIST"}
    for name in SOURCES:
        # from the CST, and from tokens and markers as the pipeline builds
        for built in (build_ast(_cst(name), ignore),
                      build_from_markers(*_markers(name), ignore)):
            expected = oracle_build_ast(_cst(name), ignore)
            spans = [n.span for n in expected.preorder()]
            assert built == expected, name
            assert [n.span for n in built.preorder()] == spans, name
            assert annotate_types(built) == oracle_annotate_types(
                expected), name
            for unit in split(built, "method"):
                assert accept(unit, None, ABSTRACT) != oracle_is_abstract(
                    unit), name
                assert accept(unit, None, OVERRIDE) != \
                    oracle_has_override_annotation(unit), name
        # splicing the parameter lists out changes no parameter's type
        assert _parameter_types(built) == _parameter_types(annotate_types(
            build_from_markers(*_markers(name), spliced))), name


@pytest.mark.parametrize("names", IGNORE_LISTS.values(), ids=IGNORE_LISTS)
def test_matches_recursive_reference(names):
    _assert_matches_recursive_reference(names)


@settings(max_examples=50, deadline=None)
@given(st.sets(st.sampled_from(sorted(CST_KIND_NAMES))))
def test_matches_recursive_reference_on_drawn_ignore_lists(names):
    _assert_matches_recursive_reference(sorted(names))


def _assert_kept_units_typed_as_whole(names):
    """With every other unit skipped, starting at the first or the second,
    each leaf of a kept unit gets the type that the whole walk gives it.
    Returns how many units were skipped, and how many of their leaves that
    the whole walk types were left untyped."""
    ignore = frozenset(names)
    skipped = untyped = 0
    for name in SOURCES:
        whole = annotate_types(build_from_markers(*_markers(name), ignore))
        for level in ("file", "class", "method"):
            want = [[leaf.resolved_type for leaf in unit.leaves()]
                    for unit in split(whole, level)]
            for first in (0, 1):
                tree = build_from_markers(*_markers(name), ignore)
                units = split(tree, level)
                skip = {id(unit) for unit in units[first::2]}
                assert annotate_types(tree, skip) is tree
                for unit, types in zip(units, want):
                    got = [leaf.resolved_type for leaf in unit.leaves()]
                    if id(unit) not in skip:
                        assert got == types, (name, level)
                    elif unit is not tree:
                        skipped += 1
                        untyped += sum(g is None and w is not None
                                       for g, w in zip(got, types))
    return skipped, untyped


@pytest.mark.parametrize("names", IGNORE_LISTS.values(), ids=IGNORE_LISTS)
def test_kept_units_are_typed_as_the_whole_walk_types_them(names):
    skipped, untyped = _assert_kept_units_typed_as_whole(names)
    # the walk did not enter the skipped units, or there were none
    assert untyped > 0 or skipped == 0


@settings(max_examples=50, deadline=None)
@given(st.sets(st.sampled_from(sorted(CST_KIND_NAMES))))
def test_kept_units_are_typed_as_whole_on_drawn_ignore_lists(names):
    _assert_kept_units_typed_as_whole(sorted(names))


# one kind name, with an operator suffix on BINARY_EXPR and UNARY_EXPR: no
# comma or whitespace, so code2seq lines join node types as they are
NODE_TYPE = re.compile(r"[A-Z_]+(:[^\s,]+)?")


@pytest.mark.parametrize("names", IGNORE_LISTS.values(), ids=IGNORE_LISTS)
def test_node_types_are_safe_path_labels(names):
    ignore = frozenset(names)
    for name in SOURCES:
        for node in build_ast(_cst(name), ignore).preorder():
            assert NODE_TYPE.fullmatch(node.node_type), (name, node.node_type)
