from treemine import ConfigError, CstKind, LexError, ParseError, SourceSpan
from treemine.cst import (COMMENT_KINDS, CST_KIND_NAMES, TOKEN_KINDS,
                          TRIVIA_KINDS)
from treemine.lexer import tokenize
from treemine import parse_file

from conftest import cst_text


def test_lex_error_fields_and_message():
    err = LexError(3, 7, "unexpected character '#'")
    assert (err.line, err.column) == (3, 7)
    assert str(err) == "line 3, column 7: unexpected character '#'"


def test_parse_error_fields_and_message():
    err = ParseError(1, 15, "identifier", "'}'")
    assert (err.line, err.column) == (1, 15)
    assert err.expected == "identifier"
    assert err.found == "'}'"
    assert str(err) == "line 1, column 15: expected identifier, found '}'"


def test_config_error_collects_problems():
    err = ConfigError(["first", "second"])
    assert err.problems == ["first", "second"]
    assert str(err) == "first; second"


def test_config_error_accepts_single_string():
    err = ConfigError("only one")
    assert err.problems == ["only one"]
    assert str(err) == "only one"


def test_kind_name_registry_is_complete():
    assert CST_KIND_NAMES == {k.name for k in CstKind}
    assert len(CST_KIND_NAMES) == 35
    assert "FILE" in CST_KIND_NAMES
    assert "BINARY_EXPR" in CST_KIND_NAMES


def test_kind_set_relationships():
    assert COMMENT_KINDS < TRIVIA_KINDS
    assert TRIVIA_KINDS < TOKEN_KINDS
    assert CstKind.WHITE_SPACE in TRIVIA_KINDS
    assert CstKind.IDENTIFIER in TOKEN_KINDS
    assert CstKind.IDENTIFIER not in TRIVIA_KINDS


def test_source_span_line_count():
    assert SourceSpan(0, 10, 1, 1).line_count() == 1
    assert SourceSpan(0, 10, 2, 5).line_count() == 4


def test_tokens_are_leaves():
    for token in tokenize("int x = 1; // done"):
        assert token.is_leaf()
        assert token.kind in TOKEN_KINDS
        assert token.text is not None


def test_cst_leaves_iterate_in_source_order():
    source = "class A { int x; }"
    root = parse_file(source)
    assert [l.text for l in root.leaves()] == [
        "class", " ", "A", " ", "{", " ", "int", " ", "x", ";", " ", "}"]
    assert cst_text(root) == source


def test_only_token_kinds_are_leaves():
    root = parse_file("class A { void f(int p) { return; } }")

    def walk(node):
        if node.is_leaf():
            assert node.kind in TOKEN_KINDS
        else:
            assert node.text is None
            for child in node.children:
                walk(child)

    walk(root)
