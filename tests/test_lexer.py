import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from treemine import CstKind, LexError
from treemine.lexer import tokenize

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


def test_keywords_vs_identifiers():
    tokens = [t for t in tokenize("class classy if iffy for fortune")
              if t.kind is not CstKind.WHITE_SPACE]
    assert kinds(tokens) == [CstKind.KEYWORD, CstKind.IDENTIFIER] * 3


def test_word_literals_are_literals():
    tokens = [t for t in tokenize("true false null")
              if t.kind is not CstKind.WHITE_SPACE]
    assert kinds(tokens) == [CstKind.LITERAL] * 3


def test_identifier_charset():
    tokens = tokenize("_x $y a$1 __init$$")
    words = [t.text for t in tokens if t.kind is CstKind.IDENTIFIER]
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
    ops = [t.text for t in tokens if t.kind is CstKind.OPERATOR]
    assert ops == ["==", "!=", "<=", ">=", "&&", "||"]


def test_operators_one_char():
    tokens = tokenize("a=b<c>d+e-f*g/h%i!j")
    ops = [t.text for t in tokens if t.kind is CstKind.OPERATOR]
    assert ops == ["=", "<", ">", "+", "-", "*", "/", "%", "!"]


def test_punctuation():
    tokens = tokenize("(){}[];,.@")
    assert kinds(tokens) == [CstKind.PUNCTUATION] * 10
    assert "".join(texts(tokens)) == "(){}[];,.@"


def test_line_comment_excludes_newline():
    tokens = tokenize("x // rest of line\ny")
    comment = tokens[2]
    assert comment.kind is CstKind.LINE_COMMENT
    assert comment.text == "// rest of line"
    assert tokens[3].kind is CstKind.WHITE_SPACE
    assert tokens[3].text == "\n"


def test_line_comment_at_eof_without_newline():
    tokens = tokenize("// tail")
    assert kinds(tokens) == [CstKind.LINE_COMMENT]


def test_block_comment_multiline():
    source = "/* one\n   two */x"
    tokens = tokenize(source)
    assert tokens[0].kind is CstKind.BLOCK_COMMENT
    assert tokens[0].text == "/* one\n   two */"
    assert tokens[0].span.line_start == 1
    assert tokens[0].span.line_end == 2
    assert tokens[1].span.line_start == 2


def test_byte_offsets_utf8():
    source = 's = "grüße";'
    tokens = tokenize(source)
    assert "".join(texts(tokens)) == source
    literal = next(t for t in tokens if t.kind is CstKind.LITERAL)
    # ü and ß take two bytes each
    assert literal.span.byte_offset_end - literal.span.byte_offset_start == \
        len('"grüße"'.encode("utf-8"))
    assert tokens[-1].span.byte_offset_end == len(source.encode("utf-8"))


def test_line_numbers():
    tokens = tokenize("a\nb\r\nc")
    lines = {t.text: t.span.line_start for t in tokens
             if t.kind is CstKind.IDENTIFIER}
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
    offset = 0
    line = 1
    for token in tokens:
        assert token.span.byte_offset_start == offset
        assert token.span.line_start >= line
        offset = token.span.byte_offset_end
        line = token.span.line_start
    assert offset == len(source.encode("utf-8"))


# Fragments that open, close or break every multi-character token, with
# non-ASCII text that shifts byte offsets away from character offsets.
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
