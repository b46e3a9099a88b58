import io

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from treemine import (CstKind, LexError, ParseError, build_ast, parse_file,
                      run, validate_config)
from treemine.ast_builder import DEFAULT_IGNORE_NAMES, IgnoreList, build
from treemine.cst import TRIVIA_KINDS
from treemine.lexer import scan, tokenize
from treemine.parser import MAX_NESTING, parse
from treemine.pipeline import process_file

from conftest import BAD_DIR, CORPUS_DIR, GOLDEN_DIR, base_config, cst_text
from oracle_ast import oracle_build_ast
from oracle_parser import parse_file as oracle_parse_file

CORPUS_FILES = sorted(CORPUS_DIR.glob("*.java"))


def walk_cst(node):
    yield node
    for child in node.children:
        yield from walk_cst(child)


def significant(node):
    """Node kinds in preorder, trivia leaves removed."""
    out = []

    def walk(n):
        if n.kind in TRIVIA_KINDS:
            return
        out.append(n.kind)
        for child in n.children:
            walk(child)

    walk(node)
    return out


@pytest.mark.parametrize("path", CORPUS_FILES, ids=lambda p: p.name)
def test_corpus_round_trips(path):
    text = path.read_text(encoding="utf-8")
    assert cst_text(parse_file(text, str(path))) == text


@pytest.mark.parametrize("path", CORPUS_FILES, ids=lambda p: p.name)
def test_corpus_span_invariants(path):
    text = path.read_text(encoding="utf-8")
    root = parse_file(text, str(path))
    assert root.span.byte_offset_start == 0
    assert root.span.byte_offset_end == len(text.encode("utf-8"))

    def walk(node):
        if not node.children:
            return
        first, last = node.children[0], node.children[-1]
        assert node.span.byte_offset_start == first.span.byte_offset_start
        assert node.span.byte_offset_end == last.span.byte_offset_end
        assert node.span.line_start == first.span.line_start
        assert node.span.line_end == last.span.line_end
        previous_end = None
        for child in node.children:
            if previous_end is not None:
                # children tile the parent without gaps or overlap
                assert child.span.byte_offset_start == previous_end
            previous_end = child.span.byte_offset_end
            walk(child)

    walk(root)


def test_empty_file():
    root = parse_file("")
    assert root.kind is CstKind.FILE
    assert root.children == []
    assert root.span.byte_offset_start == 0
    assert root.span.byte_offset_end == 0
    assert root.span.line_start == 1


def test_basic_shape():
    root = parse_file("class A { void f() { x = 1; } }")
    shape = significant(root)
    assert shape == [
        CstKind.FILE,
        CstKind.CLASS_DECL,
        CstKind.MODIFIER_LIST,
        CstKind.KEYWORD,        # class
        CstKind.IDENTIFIER,     # A
        CstKind.PUNCTUATION,    # {
        CstKind.METHOD_DECL,
        CstKind.MODIFIER_LIST,
        CstKind.TYPE_REF,
        CstKind.KEYWORD,        # void
        CstKind.IDENTIFIER,     # f
        CstKind.PARAMETER_LIST,
        CstKind.PUNCTUATION,    # (
        CstKind.PUNCTUATION,    # )
        CstKind.CODE_BLOCK,
        CstKind.PUNCTUATION,    # {
        CstKind.EXPR_STMT,
        CstKind.ASSIGNMENT_EXPR,
        CstKind.REFERENCE_EXPR,
        CstKind.IDENTIFIER,     # x
        CstKind.OPERATOR,       # =
        CstKind.LITERAL,        # 1
        CstKind.PUNCTUATION,    # ;
        CstKind.PUNCTUATION,    # }
        CstKind.PUNCTUATION,    # }
    ]


def test_trivia_kept_in_place():
    source = "class A { // note\n}"
    root = parse_file(source)
    kinds = [leaf.kind for leaf in root.leaves()]
    assert CstKind.LINE_COMMENT in kinds
    assert CstKind.WHITE_SPACE in kinds
    assert cst_text(root) == source


def test_modifiers_and_annotations():
    root = parse_file("public final class A { @Override int f() { return 1; } }")
    shape = significant(root)
    assert shape.count(CstKind.MODIFIER) == 2
    assert shape.count(CstKind.ANNOTATION) == 1


def test_extends_and_implements():
    root = parse_file("class A extends B implements C, D { }")
    class_decl = next(c for c in root.children
                      if c.kind is CstKind.CLASS_DECL)
    type_refs = [n for n in significant(class_decl) if n is CstKind.TYPE_REF]
    assert len(type_refs) == 3


def test_constructor_vs_method():
    source = "class P { P() { } P make() { return null; } }"
    shape = significant(parse_file(source))
    assert shape.count(CstKind.CONSTRUCTOR_DECL) == 1
    assert shape.count(CstKind.METHOD_DECL) == 1


def test_field_and_local_declarations():
    source = "class A { int f = 1; void m() { int l = 2; } }"
    shape = significant(parse_file(source))
    assert shape.count(CstKind.FIELD_DECL) == 1
    assert shape.count(CstKind.LOCAL_VAR_DECL) == 1


def test_abstract_method_without_body():
    root = parse_file("abstract class A { abstract int f(); }")
    shape = significant(root)
    assert CstKind.METHOD_DECL in shape
    assert CstKind.CODE_BLOCK not in shape


def test_generic_type_reconstruction():
    source = "class A { Map<String, List<Integer>> m; int[][] grid; }"
    root = parse_file(source)
    type_texts = [cst_text(n) for n in walk_cst(root)
                  if n.kind is CstKind.TYPE_REF]
    assert "Map<String, List<Integer>>" in type_texts
    assert "int[][]" in type_texts


def test_method_call_vs_reference():
    source = "class A { void f() { g(); x = y; a.b(); c.d = e; } }"
    shape = significant(parse_file(source))
    assert shape.count(CstKind.METHOD_CALL) == 2
    # y, c.d target, e, plus receivers a and the masked... direct count:
    assert CstKind.REFERENCE_EXPR in shape


def test_chained_calls_nest():
    root = parse_file("class A { void f() { a.b().c(); } }")
    calls = [n for n in walk_cst(root) if n.kind is CstKind.METHOD_CALL]
    assert len(calls) == 2
    outer = calls[0]
    inner_kinds = [c.kind for c in outer.children
                   if c.kind not in TRIVIA_KINDS]
    assert CstKind.METHOD_CALL in inner_kinds


def test_precedence_binds_multiplication_tighter():
    root = parse_file("class A { void f() { r = a + b * c; } }")
    binaries = [n for n in walk_cst(root) if n.kind is CstKind.BINARY_EXPR]
    assert len(binaries) == 2
    ops = []
    for node in binaries:
        op = next(c.text for c in node.children if c.kind is CstKind.OPERATOR)
        ops.append(op)
    assert ops == ["+", "*"]
    # the * node sits inside the + node
    assert any(child is binaries[1] or binaries[1] in list(walk_cst(child))
               for child in binaries[0].children)


def test_assignment_is_right_associative():
    root = parse_file("class A { void f() { a = b = c; } }")
    assigns = [n for n in walk_cst(root)
               if n.kind is CstKind.ASSIGNMENT_EXPR]
    assert len(assigns) == 2
    assert assigns[1] in list(walk_cst(assigns[0]))


def test_unary_and_paren():
    source = "class A { void f() { r = -(x + y); s = !done; } }"
    shape = significant(parse_file(source))
    assert shape.count(CstKind.UNARY_EXPR) == 2
    assert shape.count(CstKind.PAREN_EXPR) == 1


def test_binary_precedence_and_trivia_placement():
    expr = ("a /*1*/ || b && /*2*/ c == d\n\t< e + f // 3\n"
            "* g - h % /*4*/ i")
    source = "class A { void f() { x = " + expr + "; } }"
    root = parse_file(source)
    assert cst_text(root) == source
    assignment = next(n for n in walk_cst(root)
                      if n.kind is CstKind.ASSIGNMENT_EXPR)

    def render(node):
        # binary nodes in parentheses, whitespace as "_"
        if node.kind is CstKind.WHITE_SPACE:
            return "_"
        if node.kind is CstKind.REFERENCE_EXPR:
            return node.children[0].text
        if not node.children:
            return node.text
        assert node.kind is CstKind.BINARY_EXPR
        return "(" + " ".join(render(c) for c in node.children) + ")"

    assert render(assignment.children[-1]) == (
        "(a _ /*1*/ _ || _ (b _ && _ /*2*/ _ (c _ == _ (d _ < _ "
        "((e _ + _ (f _ // 3 _ * _ g)) _ - _ (h _ % _ /*4*/ _ i))))))")


def test_array_access_nests():
    root = parse_file("class A { void f() { v = grid[i][j]; } }")
    accesses = [n for n in walk_cst(root)
                if n.kind is CstKind.ARRAY_ACCESS_EXPR]
    assert len(accesses) == 2
    assert accesses[1] in list(walk_cst(accesses[0]))


def test_new_expression():
    source = "class A { void f() { p = new Point(1, q); } }"
    root = parse_file(source)
    new_expr = next(n for n in walk_cst(root)
                    if n.kind is CstKind.NEW_EXPR)
    kinds = [c.kind for c in new_expr.children if c.kind not in TRIVIA_KINDS]
    assert kinds == [CstKind.KEYWORD, CstKind.TYPE_REF,
                     CstKind.ARGUMENT_LIST]


def test_if_else_chain_nests_in_else():
    source = ("class A { void f() { if (a) { } else if (b) { } "
              "else { } } }")
    root = parse_file(source)
    ifs = [n for n in walk_cst(root) if n.kind is CstKind.IF_STMT]
    assert len(ifs) == 2
    assert ifs[1] in list(walk_cst(ifs[0]))


def test_for_statement_variants():
    source = ("class A { void f() { "
              "for (int i = 0; i < 9; i = i + 1) { } "
              "for (;;) { return; } } }")
    shape = significant(parse_file(source))
    assert shape.count(CstKind.FOR_STMT) == 2


def test_while_with_single_statement_body():
    source = "class A { void f() { while (busy) step(); } }"
    shape = significant(parse_file(source))
    assert shape.count(CstKind.WHILE_STMT) == 1
    assert shape.count(CstKind.CODE_BLOCK) == 1  # only the method body


def test_package_and_import_headers_kept_as_tokens():
    source = "package a.b;\nimport c.D;\nclass E { }\n"
    root = parse_file(source)
    assert cst_text(root) == source
    # header tokens sit directly under FILE, before the class node
    first_class = next(i for i, c in enumerate(root.children)
                       if c.kind is CstKind.CLASS_DECL)
    assert all(c.is_leaf() for c in root.children[:first_class])


def test_parse_error_missing_field_name():
    with pytest.raises(ParseError) as info:
        parse_file("class A { int }")
    err = info.value
    assert err.line == 1
    assert err.column == 15
    assert err.expected == "identifier"
    assert str(err) == "line 1, column 15: expected identifier, found '}'"


def test_parse_error_top_level_statement():
    with pytest.raises(ParseError) as info:
        parse_file("int x;")
    assert info.value.expected == "class declaration"


def test_parse_error_at_eof():
    with pytest.raises(ParseError) as info:
        parse_file("class A {")
    assert info.value.found == "end of file"


def test_parse_error_method_body():
    with pytest.raises(ParseError) as info:
        parse_file("class A { void f() }")
    assert info.value.expected == "method body or ';'"


def test_parse_error_statement_keyword():
    with pytest.raises(ParseError) as info:
        parse_file("class A { void f() { else; } }")
    assert info.value.expected == "statement"
    assert info.value.found == "'else'"


def test_parse_error_expression():
    with pytest.raises(ParseError) as info:
        parse_file("class A { void f() { x = ; } }")
    assert info.value.expected == "expression"


def test_parse_error_positions_use_character_columns():
    # ü and ß are one character each, so the '}' sits at column 35
    source = 'class A { String s = "grüße"; int }'
    with pytest.raises(ParseError) as info:
        parse_file(source)
    assert info.value.line == 1
    assert info.value.column == 35


def test_parse_error_column_after_tabs_and_block_comment():
    # tabs count as one column; the comment's last line sets the column
    source = ("class A {\n\tvoid f() {\n\t\t/* one\n\t\t   two */ int = 1;"
              "\n\t}\n}\n")
    with pytest.raises(ParseError) as info:
        parse_file(source)
    assert (info.value.line, info.value.column) == (4, 17)
    assert info.value.expected == "variable name"
    assert info.value.found == "'='"


def _deep_method(body):
    return ("class Deep {\n    int deep(int x) {\n        " + body
            + "\n        return y;\n    }\n}\n")


def _assert_deep_method_is_kept(tmp_path, body, filters=()):
    path = tmp_path / "Deep.java"
    path.write_text(_deep_method(body), encoding="utf-8")
    config = validate_config(base_config(
        tmp_path, tmp_path / "out", storage={"format": "code2seq_typed"},
        filters=list(filters)))
    result = process_file(path, "Deep.java", config)
    assert result.error is None
    assert len(result.units) == 1 and result.units[0].rejected_by is None


def test_deeply_nested_parentheses_do_not_escape(tmp_path):
    _assert_deep_method_is_kept(
        tmp_path, "y = " + "(" * 100 + "x" + ")" * 100 + ";")


SUM_2000 = "y = " + " + ".join(["x"] * 2000) + ";"
CALL_CHAIN_500 = "y = x" + ".next()" * 500 + ";"


def _else_if_chain(branches):
    return " else ".join(f"if (x == {i}) {{ y = {i}; }}"
                         for i in range(branches))


@pytest.mark.parametrize("body", [
    _else_if_chain(300),
    _else_if_chain(1000),
    CALL_CHAIN_500,
    SUM_2000,
    "y = x" + "[0]" * 2000 + ";",
    "y = " + "-" * 3000 + "x;",
    "y = " * 2000 + "x;",
], ids=["else_if_chain_300", "else_if_chain_1000", "call_chain_500",
        "binary_chain_2000", "index_chain_2000", "unary_chain_3000",
        "assignment_chain_2000"])
def test_long_chains_do_not_escape(tmp_path, body):
    _assert_deep_method_is_kept(tmp_path, body)


# Each way to nest, 1000 levels deep: far past MAX_NESTING.
DEEP_NESTING = {
    "parentheses_1000": "y = " + "(" * 1000 + "x" + ")" * 1000 + ";",
    "blocks_1000": "{ " * 1000 + "y = 1;" + " }" * 1000,
    "ifs_1000": "if (x > 0) " * 1000 + "y = 1;",
    "calls_1000": "y = " + "f(" * 1000 + "x" + ")" * 1000 + ";",
    "index_1000": "y = " + "x[" * 1000 + "0" + "]" * 1000 + ";",
    "operator_ladder_1000": ("y = " + "a || a && a == a < a + a * (" * 1000
                             + "a" + ")" * 1000 + ";"),
}


@pytest.mark.parametrize("body", DEEP_NESTING.values(), ids=DEEP_NESTING)
def test_nesting_past_the_limit_is_a_parse_failure(tmp_path, body):
    path = tmp_path / "Deep.java"
    path.write_text(_deep_method(body), encoding="utf-8")
    config = validate_config(base_config(tmp_path, tmp_path / "out"))
    result = process_file(path, "Deep.java", config)
    assert result.units == []
    assert result.error.startswith("line 3, column ")
    assert (f"expected at most {MAX_NESTING} levels of nesting"
            in result.error)


@pytest.mark.parametrize("parallelism", [1, 2])
def test_run_counts_too_deep_files_as_parse_failures(tmp_path, parallelism):
    in_dir = tmp_path / "in"
    in_dir.mkdir()
    for name, body in {**DEEP_NESTING, "shallow": "y = (x);"}.items():
        (in_dir / f"{name}.java").write_text(_deep_method(body),
                                             encoding="utf-8")
    config = validate_config(base_config(in_dir, tmp_path / "out",
                                         parallelism=parallelism))
    stats = run(config, io.StringIO())
    assert (stats.files_seen, stats.files_parsed, stats.parse_failures) == (
        len(DEEP_NESTING) + 1, 1, len(DEEP_NESTING))


@pytest.mark.parametrize("nest, innermost", [
    (lambda n: "y = " + "(" * n + "x" + ")" * n + ";", "x"),
    (lambda n: "{ " * n + "y = 1;" + " }" * n, "y"),
], ids=["parentheses", "blocks"])
def test_nesting_limit_is_exact(nest, innermost):
    # the statement around the parentheses, or inside the innermost block,
    # and its expression take two of the levels
    deepest = MAX_NESTING - 2
    parse_file(_deep_method(nest(deepest)))
    source = _deep_method(nest(deepest + 1))
    with pytest.raises(ParseError) as info:
        parse_file(source)
    assert info.value.expected == f"at most {MAX_NESTING} levels of nesting"
    assert info.value.found == repr(innermost)
    line = source.splitlines()[2]
    assert (info.value.line, info.value.column) == (
        3, line.index(innermost) + 1)


@pytest.mark.parametrize("granularity, extractor", [
    ("method", "method_name"), ("file", "none")])
def test_3000_statement_method_is_kept(tmp_path, granularity, extractor):
    path = tmp_path / "Long.java"
    path.write_text(_deep_method("\n        ".join(
        f"y = y + x * {i};" for i in range(3000))), encoding="utf-8")
    config = validate_config(base_config(
        tmp_path, tmp_path / "out", granularity=granularity,
        label_extractor={"name": extractor}))
    result = process_file(path, "Long.java", config)
    assert result.error is None
    assert len(result.units) == 1 and result.units[0].rejected_by is None
    assert result.units[0].n_contexts > 0


def test_long_chain_under_tree_size_filter_does_not_escape(tmp_path):
    _assert_deep_method_is_kept(
        tmp_path, CALL_CHAIN_500,
        filters=[{"name": "tree_size", "parameters": {"max_nodes": 100000}}])


def test_long_chain_reconstructs_losslessly():
    source = _deep_method(SUM_2000)
    assert cst_text(parse_file(source)) == source


@pytest.mark.parametrize("path", sorted(BAD_DIR.glob("*.java")),
                         ids=lambda p: p.name)
def test_bad_fixtures_raise(path):
    with pytest.raises((LexError, ParseError)):
        parse_file(path.read_text(encoding="utf-8"), str(path))


# -- agreement with the reference parser ------------------------------------

# Small enough for the reference parser's recursion.
REFERENCE_INPUTS = {
    path.relative_to(GOLDEN_DIR.parent).as_posix():
        path.read_text(encoding="utf-8")
    for path in [*CORPUS_FILES, *sorted(BAD_DIR.glob("*.java")),
                 *sorted((GOLDEN_DIR / "input").rglob("*.java"))]}


def _token_texts(source):
    try:
        return [tok.text for tok in tokenize(source)]
    except LexError:
        return list(source)  # single characters stand in for tokens


def _outcome(parse, source):
    """Kind, text, span and child count of every node in preorder, or the
    error's type, line, column and message."""
    try:
        root = parse(source)
    except (LexError, ParseError) as exc:
        return type(exc).__name__, exc.line, exc.column, str(exc)
    nodes, stack = [], [root]
    while stack:
        node = stack.pop()
        nodes.append((node.kind, node.text, node.span, len(node.children)))
        stack.extend(reversed(node.children))
    return nodes


def _assert_matches_reference(source):
    assert _outcome(parse_file, source) == _outcome(oracle_parse_file, source)


@pytest.mark.parametrize("name", REFERENCE_INPUTS)
def test_matches_reference_parser(name):
    _assert_matches_reference(REFERENCE_INPUTS[name])


def _draw_mutant(data):
    """A reference input, truncated or with one token deleted."""
    source = data.draw(st.sampled_from(list(REFERENCE_INPUTS.values())))
    if data.draw(st.booleans()):
        return source[:data.draw(st.integers(0, len(source)))]
    tokens = _token_texts(source)
    if tokens:
        del tokens[data.draw(st.integers(0, len(tokens) - 1))]
    return "".join(tokens)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_matches_reference_parser_on_truncations_and_deletions(data):
    _assert_matches_reference(_draw_mutant(data))


AST_IGNORE_LISTS = [IgnoreList.from_names(names) for names in (
    DEFAULT_IGNORE_NAMES, (),
    DEFAULT_IGNORE_NAMES + ("LINE_COMMENT", "BLOCK_COMMENT"),
    ("TYPE_REF", "MODIFIER_LIST", "MODIFIER", "ANNOTATION", "KEYWORD"))]


def _nodes(tree):
    """Every node of an AST in preorder, span included."""
    return [(n.node_type, n.token, n.span, len(n.children))
            for n in tree.preorder()]


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_front_end_builds_the_reference_ast_on_truncations_and_deletions(data):
    # the pipeline's path: token arrays, markers, then the one builder
    source = _draw_mutant(data)
    try:
        reference = oracle_parse_file(source)
    except (LexError, ParseError):
        with pytest.raises((LexError, ParseError)):
            parse(scan(source))
        return
    tokens = scan(source)
    markers = parse(tokens)
    cst = parse_file(source)
    for ignore in AST_IGNORE_LISTS:
        built = _nodes(build(tokens, markers, ignore))
        assert built == _nodes(oracle_build_ast(reference, ignore))
        assert built == _nodes(build_ast(cst, ignore))
