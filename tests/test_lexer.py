import time

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from treemine import CstKind, LexError
from treemine.ast_builder import DEFAULT_IGNORE_NAMES
from treemine.ast_builder import build as build_from_markers
from treemine.lexer import scan, tokenize
from treemine.parser import parse

from oracle_lexer import tokenize as oracle_tokenize


def kinds(tokens):
    return [t.kind for t in tokens]


def texts(tokens):
    return [t.text for t in tokens]


def test_simple_declaration():
    tokens = tokenize("int x;")
    assert kinds(tokens) == [CstKind.KEYWORD, CstKind.WHITE_SPACE,
                             CstKind.IDENTIFIER, CstKind.PUNCTUATION]
    assert texts(tokens) == ["int", " ", "x", ";"]


def test_empty_source():
    assert tokenize("") == []


def test_round_trip_sample():
    source = ('class A { // note\n\tint x = 1 + 2; /* done */\n'
              '\tString s = "a\\"b";\n}\n')
    assert "".join(texts(tokenize(source))) == source


def test_equal_token_texts_share_one_string():
    source = "class A {\n" + "".join(
        f"    int total{i % 3} = total{i % 3} + count;\n"
        for i in range(9)) + "}\n"
    tokens = scan(source)
    assert "".join(tokens.texts) == source
    assert tokens.texts.count("total1") == 6
    assert tokens.texts.count("\n    ") == 9
    assert len(set(map(id, tokens.texts))) == len(set(tokens.texts))
    # the tree's leaves hold the same objects
    shared = {id(text): text for text in tokens.texts}
    tree = build_from_markers(tokens, parse(tokens),
                              frozenset(DEFAULT_IGNORE_NAMES))
    leaves = [leaf.token for leaf in tree.preorder() if not leaf.children]
    assert len(leaves) == 1 + 9 * 4
    assert all(shared.get(id(token)) is token for token in leaves)


def test_keywords_vs_identifiers():
    tokens = [t for t in tokenize("class classy if iffy for fortune")
              if t.kind != CstKind.WHITE_SPACE]
    assert kinds(tokens) == [CstKind.KEYWORD, CstKind.IDENTIFIER] * 3


def test_word_literals_are_literals():
    tokens = [t for t in tokenize("true false null")
              if t.kind != CstKind.WHITE_SPACE]
    assert kinds(tokens) == [CstKind.LITERAL] * 3


def test_identifier_charset():
    tokens = tokenize("_x $y a$1 __init$$")
    words = [t.text for t in tokens if t.kind == CstKind.IDENTIFIER]
    assert words == ["_x", "$y", "a$1", "__init$$"]


@pytest.mark.parametrize("text", [
    "0", "42", "123456789", "10L", "7l", "1.5", "0.25f", "1.5F", "7d", "2D",
    "1e10", "2.5E-3", "1.5e+2",
])
def test_number_literals(text):
    tokens = tokenize(text)
    assert kinds(tokens) == [CstKind.LITERAL]
    assert tokens[0].text == text


@pytest.mark.parametrize("text", [
    '""', '"abc"', '"tab\\there"', '"quote \\" inside"', '"back \\\\ slash"',
    "'a'", "'\\n'", "'\\''", "'\\\\'",
])
def test_quoted_literals(text):
    tokens = tokenize(text)
    assert kinds(tokens) == [CstKind.LITERAL]
    assert tokens[0].text == text


def test_operators_two_char_before_one_char():
    tokens = tokenize("a==b!=c<=d>=e&&f||g")
    ops = [t.text for t in tokens if t.kind == CstKind.OPERATOR]
    assert ops == ["==", "!=", "<=", ">=", "&&", "||"]


def test_operators_one_char():
    tokens = tokenize("a=b<c>d+e-f*g/h%i!j")
    ops = [t.text for t in tokens if t.kind == CstKind.OPERATOR]
    assert ops == ["=", "<", ">", "+", "-", "*", "/", "%", "!"]


def test_punctuation():
    tokens = tokenize("(){}[];,.@")
    assert kinds(tokens) == [CstKind.PUNCTUATION] * 10
    assert "".join(texts(tokens)) == "(){}[];,.@"


def test_line_comment_excludes_newline():
    tokens = tokenize("x // rest of line\ny")
    comment = tokens[2]
    assert comment.kind == CstKind.LINE_COMMENT
    assert comment.text == "// rest of line"
    assert tokens[3].kind == CstKind.WHITE_SPACE
    assert tokens[3].text == "\n"


def test_line_comment_at_eof_without_newline():
    tokens = tokenize("// tail")
    assert kinds(tokens) == [CstKind.LINE_COMMENT]


def test_block_comment_multiline():
    source = "/* one\n   two */x"
    tokens = tokenize(source)
    assert tokens[0].kind == CstKind.BLOCK_COMMENT
    assert tokens[0].text == "/* one\n   two */"
    assert tokens[0].span.line_start == 1
    assert tokens[0].span.line_end == 2
    assert tokens[1].span.line_start == 2


def test_lines_over_non_ascii_text():
    source = 's = "grüße";\n/* 日本\n語 */ t = \'é\';'
    tokens = tokenize(source)
    assert "".join(texts(tokens)) == source
    literals = [t for t in tokens if t.kind == CstKind.LITERAL]
    assert [(t.text, t.span) for t in literals] == [
        ('"grüße"', (1, 1)), ("'é'", (3, 3))]
    comment = next(t for t in tokens if t.kind == CstKind.BLOCK_COMMENT)
    assert comment.span == (2, 3)
    assert tokens[-1].span.line_end == 3


def test_line_numbers():
    tokens = tokenize("a\nb\r\nc")
    lines = {t.text: t.span.line_start for t in tokens
             if t.kind == CstKind.IDENTIFIER}
    assert lines == {"a": 1, "b": 2, "c": 3}


def test_trailing_newline_stays_on_its_line():
    tokens = tokenize("x\n")
    ws = tokens[1]
    assert ws.text == "\n"
    assert ws.span.line_start == 1
    assert ws.span.line_end == 1


def test_unterminated_string():
    with pytest.raises(LexError) as info:
        tokenize('"abc')
    assert info.value.line == 1
    assert "unterminated string literal" in str(info.value)


def test_unterminated_string_position():
    with pytest.raises(LexError) as info:
        tokenize('x = "abc')
    assert info.value.line == 1
    assert info.value.column == 5


def test_string_does_not_span_lines():
    with pytest.raises(LexError):
        tokenize('"abc\ndef"')


def test_unterminated_char():
    with pytest.raises(LexError) as info:
        tokenize("'a")
    assert "unterminated char literal" in str(info.value)


def test_unterminated_block_comment():
    with pytest.raises(LexError) as info:
        tokenize("x\n/* open")
    assert info.value.line == 2
    assert info.value.column == 1


@pytest.mark.parametrize("opener, message", [
    ("/* ", "unterminated block comment"),
    ('"\\', "unterminated string literal"),
    ("'\\", "unterminated char literal"),
])
def test_repeated_unterminated_openers_scan_in_linear_time(opener, message):
    # each later opener is unterminated too; reading each of them to the end
    # of the source again would take minutes
    start = time.perf_counter()
    with pytest.raises(LexError) as info:
        tokenize(opener * 50_000)
    assert time.perf_counter() - start < 1.0
    assert (info.value.line, info.value.column) == (1, 1)
    assert message in str(info.value)


@pytest.mark.parametrize("source, column", [
    ('x = "a\\\\"', None),
    ('x = "a\\"', 5),
    ("x = '\\''", None),
    ("x = '\\'", 5),
    ("x /**/", None),
    ("x /*/", 3),
    ("x /", None),
    ("x //", None),
])
def test_last_token_closed_or_unterminated(source, column):
    # column is that of the unterminated opener, None when all are closed
    if column is None:
        assert "".join(texts(tokenize(source))) == source
    else:
        with pytest.raises(LexError, match="unterminated") as info:
            tokenize(source)
        assert info.value.column == column


def test_unexpected_character():
    with pytest.raises(LexError) as info:
        tokenize("int x = 1 # 2;")
    assert info.value.line == 1
    assert info.value.column == 11
    assert "#" in str(info.value)


@pytest.mark.parametrize("source,column,char", [
    ("int x = \u0663;", 9, "\u0663"),  # ARABIC-INDIC DIGIT THREE
    ("1\u00b2", 2, "\u00b2"),  # SUPERSCRIPT TWO
])
def test_non_ascii_digit_rejected(source, column, char):
    # str.isdigit() accepts these, but no number literal may hold them
    with pytest.raises(LexError) as info:
        tokenize(source)
    assert info.value.line == 1
    assert info.value.column == column
    assert info.value.message == f"unexpected character {char!r}"


def test_lone_ampersand_rejected():
    with pytest.raises(LexError):
        tokenize("a & b")
    with pytest.raises(LexError):
        tokenize("a | b")


_ALPHABET = "abcxyz_$ \t\n\r\f0123456789+-*/%<>=!(){}[];,.@"


@given(st.text(alphabet=_ALPHABET, max_size=80))
@settings(max_examples=200)
def test_round_trip_property(source):
    try:
        tokens = tokenize(source)
    except LexError:
        assume(False)
    assert "".join(t.text for t in tokens) == source


@given(st.text(alphabet=_ALPHABET, max_size=80))
@settings(max_examples=200)
def test_spans_tile_the_source(source):
    try:
        tokens = tokenize(source)
    except LexError:
        assume(False)
    # each token starts on the line the text before it ends on, and a
    # newline belongs to the line it ends
    consumed = ""
    for token in tokens:
        assert token.span.line_start == consumed.count("\n") + 1
        consumed += token.text
        assert token.span.line_end == (consumed.count("\n") + 1
                                       - token.text.endswith("\n"))
    assert consumed == source


@given(st.text(alphabet=_ALPHABET, max_size=80),
       st.lists(st.tuples(st.integers(0, 90), st.integers(0, 90)),
                max_size=8))
@settings(max_examples=200)
def test_spans_of_any_token_ranges(source, pairs):
    try:
        tokens = scan(source)
    except LexError:
        assume(False)
    texts = tokens.texts
    ranges = [tuple(sorted((min(a, len(texts)), min(b, len(texts)))))
              for a, b in pairs]
    spans = tokens.spans(ranges)
    assert len(spans) == len(ranges)
    for (first, end), span in zip(ranges, spans):
        start = "".join(texts[:first]).count("\n") + 1
        if first < end:
            # a newline belongs to the line it ends
            last = ("".join(texts[:end]).count("\n") + 1
                    - texts[end - 1].endswith("\n"))
        elif first == len(texts) and texts:
            # an empty range past the last token is on the line it ends
            start = last = start - texts[-1].endswith("\n")
        else:
            last = start
        assert span == (start, last)


# Fragments that open, close or break every multi-character token, with
# non-ASCII letters and digits, which only literals and comments admit.
_FRAGMENTS = ["//", "/*", "*/", "/", "*", '"', "'", '"\\\n', "'\\\n",
              "\\", "\\\n", "\r\n", "\n", "\t", " ", "x", "if", "null",
              "$_9", "0", "1.5e3f", "+", "&&", "=", "(", ";", "#", "\u00e9",
              "\u00df", "\u65e5", "\u0663"]


def _lex(tokenizer, source):
    try:
        return [(t.kind, t.text, t.span) for t in tokenizer(source)]
    except LexError as exc:
        return ("LexError", exc.line, exc.column, exc.message)


@given(st.lists(st.sampled_from(_FRAGMENTS), max_size=40).map("".join))
@settings(max_examples=500)
def test_matches_reference_tokenizer(source):
    assert _lex(tokenize, source) == _lex(oracle_tokenize, source)
