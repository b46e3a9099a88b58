"""Independent reference tokenizer, used only by tests.

The character-by-character scanner the production lexer replaced: it tries
each token rule in turn at every position and UTF-8-encodes every token to
find its byte offsets. The production lexer matches one alternation regex
and counts bytes and newlines only where they can occur, so agreement
between the two on random sources is meaningful evidence.
"""

import re

from treemine.cst import CstKind, CstNode, SourceSpan
from treemine.errors import LexError
from treemine.lexer import KEYWORDS, WORD_LITERALS

_WS_RE = re.compile(r"[ \t\r\n\f]+")
_WORD_RE = re.compile(r"[A-Za-z_$][A-Za-z0-9_$]*")
_NUMBER_RE = re.compile(r"[0-9]+(?:\.[0-9]+)?(?:[eE][+-]?[0-9]+)?[fFdDlL]?")

_TWO_CHAR_OPS = ("==", "!=", "<=", ">=", "&&", "||")
_ONE_CHAR_OPS = frozenset("=<>+-*/%!")
_PUNCTUATION = frozenset("(){}[];,.@")


def tokenize(source: str) -> list[CstNode]:
    """Split source into a lossless list of leaf nodes.

    Raises LexError on any character admissible in no token, on unterminated
    string/char literals, and on unterminated block comments.
    """
    tokens: list[CstNode] = []
    i = 0
    byte_offset = 0
    line = 1
    line_start = 0  # char index where the current line begins
    n = len(source)

    def error(msg: str, at: int) -> LexError:
        return LexError(line, at - line_start + 1, msg)

    def emit(kind: CstKind, text: str) -> None:
        nonlocal i, byte_offset, line, line_start
        nbytes = len(text.encode("utf-8"))
        newlines = text.count("\n")
        end_line = line + newlines
        if text.endswith("\n"):
            # The newline character belongs to the line it terminates.
            end_line -= 1
        span = SourceSpan(byte_offset, byte_offset + nbytes, line, max(end_line, line))
        tokens.append(CstNode(kind, span, text=text))
        if newlines:
            line += newlines
            line_start = i + text.rfind("\n") + 1
        i += len(text)
        byte_offset += nbytes

    while i < n:
        c = source[i]

        m = _WS_RE.match(source, i)
        if m:
            emit(CstKind.WHITE_SPACE, m.group())
            continue

        if source.startswith("//", i):
            end = source.find("\n", i)
            text = source[i:] if end == -1 else source[i:end]
            emit(CstKind.LINE_COMMENT, text)
            continue

        if source.startswith("/*", i):
            end = source.find("*/", i + 2)
            if end == -1:
                raise error("unterminated block comment", i)
            emit(CstKind.BLOCK_COMMENT, source[i:end + 2])
            continue

        m = _WORD_RE.match(source, i)
        if m:
            word = m.group()
            if word in WORD_LITERALS:
                emit(CstKind.LITERAL, word)
            elif word in KEYWORDS:
                emit(CstKind.KEYWORD, word)
            else:
                emit(CstKind.IDENTIFIER, word)
            continue

        if "0" <= c <= "9":
            m = _NUMBER_RE.match(source, i)
            emit(CstKind.LITERAL, m.group())
            continue

        if c == '"':
            emit(CstKind.LITERAL, _scan_quoted(source, i, '"', error))
            continue

        if c == "'":
            emit(CstKind.LITERAL, _scan_quoted(source, i, "'", error))
            continue

        two = source[i:i + 2]
        if two in _TWO_CHAR_OPS:
            emit(CstKind.OPERATOR, two)
            continue
        if c in _ONE_CHAR_OPS:
            emit(CstKind.OPERATOR, c)
            continue
        if c in _PUNCTUATION:
            emit(CstKind.PUNCTUATION, c)
            continue

        raise error(f"unexpected character {c!r}", i)

    return tokens


def _scan_quoted(source, start, quote, error):
    kind = "string" if quote == '"' else "char"
    j = start + 1
    n = len(source)
    while j < n:
        c = source[j]
        if c == "\n":
            break
        if c == "\\":
            j += 2
            continue
        if c == quote:
            return source[start:j + 1]
        j += 1
    raise error(f"unterminated {kind} literal", start)
