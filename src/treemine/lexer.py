"""Tokenizer for the supported Java-like subset.

The token stream is lossless: concatenating every token's text reproduces
the input string byte-for-byte. Spans carry byte offsets (UTF-8) so later
stages can filter by source location without re-reading files.

One alternation regex, compiled at import, recognises every token; the name
of the alternative that matched gives its kind. Only whitespace, block
comments and quoted literals can contain a newline, and only comments and
quoted literals can contain non-ASCII text, so lines are counted and bytes
measured for those tokens alone.
"""

import re

from .cst import CstKind, CstNode, SourceSpan
from .errors import LexError

KEYWORDS = frozenset({
    "class", "extends", "implements",
    "public", "private", "protected", "static", "final", "abstract",
    "void", "if", "else", "while", "for", "return", "new",
    "int", "long", "short", "byte", "char", "boolean", "float", "double",
})

MODIFIER_KEYWORDS = frozenset({
    "public", "private", "protected", "static", "final", "abstract",
})

PRIMITIVE_TYPE_KEYWORDS = frozenset({
    "int", "long", "short", "byte", "char", "boolean", "float", "double",
})

# true/false/null read like words but are literals, so that literal leaves
# survive keyword dropping during AST simplification.
WORD_LITERALS = frozenset({"true", "false", "null"})

# Alternatives are tried in order; each token kind is decided by its first
# one or two characters, so at most one alternative can match at a position.
# An opening quote or comment marker that its full alternative could not
# close falls through to the *_OPEN alternative and is reported unterminated.
_TOKEN_RE = re.compile(r"""
    (?P<WHITE_SPACE>[ \t\r\n\f]+)
  | (?P<LINE_COMMENT>//[^\n]*)
  | (?P<BLOCK_COMMENT>/\*[\s\S]*?\*/)
  | (?P<BLOCK_COMMENT_OPEN>/\*)
  | (?P<WORD>[A-Za-z_$][A-Za-z0-9_$]*)
  | (?P<NUMBER>[0-9]+(?:\.[0-9]+)?(?:[eE][+-]?[0-9]+)?[fFdDlL]?)
  | (?P<STRING>"[^"\\\n]*(?:\\[\s\S][^"\\\n]*)*")
  | (?P<STRING_OPEN>")
  | (?P<CHAR>'[^'\\\n]*(?:\\[\s\S][^'\\\n]*)*')
  | (?P<CHAR_OPEN>')
  | (?P<OPERATOR>==|!=|<=|>=|&&|\|\||[=<>+\-*/%!])
  | (?P<PUNCTUATION>[(){}\[\];,.@])
""", re.VERBOSE)

_GROUP_KINDS = {
    "WHITE_SPACE": CstKind.WHITE_SPACE,
    "LINE_COMMENT": CstKind.LINE_COMMENT,
    "BLOCK_COMMENT": CstKind.BLOCK_COMMENT,
    "NUMBER": CstKind.LITERAL,
    "STRING": CstKind.LITERAL,
    "CHAR": CstKind.LITERAL,
    "OPERATOR": CstKind.OPERATOR,
    "PUNCTUATION": CstKind.PUNCTUATION,
}

_WORD_KINDS = {word: CstKind.KEYWORD for word in KEYWORDS}
_WORD_KINDS.update((word, CstKind.LITERAL) for word in WORD_LITERALS)

_UNTERMINATED = {
    "BLOCK_COMMENT_OPEN": "unterminated block comment",
    "STRING_OPEN": "unterminated string literal",
    "CHAR_OPEN": "unterminated char literal",
}

# Groups whose text may hold a newline, and those whose text may hold
# characters outside ASCII.
_MULTILINE_GROUPS = frozenset({"WHITE_SPACE", "BLOCK_COMMENT", "STRING", "CHAR"})
_FREE_TEXT_GROUPS = frozenset({"LINE_COMMENT", "BLOCK_COMMENT", "STRING", "CHAR"})


def tokenize(source: str) -> list[CstNode]:
    """Split source into a lossless list of leaf nodes.

    Raises LexError on any character admissible in no token, on unterminated
    string/char literals, and on unterminated block comments.
    """
    tokens: list[CstNode] = []
    measure_bytes = not source.isascii()
    extra_bytes = 0  # UTF-8 bytes beyond one per character, so far
    line = 1
    line_start = 0  # char index where the current line begins
    end = 0
    for match in iter(_TOKEN_RE.scanner(source).match, None):
        group = match.lastgroup
        start, end = match.span()
        text = match.group()
        if group == "WORD":
            kind = _WORD_KINDS.get(text, CstKind.IDENTIFIER)
        else:
            kind = _GROUP_KINDS.get(group)
            if kind is None:
                raise LexError(line, start - line_start + 1,
                               _UNTERMINATED[group])
        byte_start = start + extra_bytes
        if measure_bytes and group in _FREE_TEXT_GROUPS:
            extra_bytes += len(text.encode("utf-8")) - len(text)
        newlines = text.count("\n") if group in _MULTILINE_GROUPS else 0
        if newlines:
            # The newline character belongs to the line it terminates.
            end_line = line + newlines - (text[-1] == "\n")
            span = SourceSpan(byte_start, end + extra_bytes, line,
                              max(end_line, line))
            line += newlines
            line_start = start + text.rfind("\n") + 1
        else:
            span = SourceSpan(byte_start, end + extra_bytes, line, line)
        tokens.append(CstNode(kind, span, text))
    if end < len(source):
        raise LexError(line, end - line_start + 1,
                       f"unexpected character {source[end]!r}")
    return tokens
