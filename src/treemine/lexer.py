"""Tokenizer for the supported Java-like subset.

`scan` splits a file into `Tokens`, parallel lists of kind, text, start
line and UTF-8 byte offset, and creates no object per token. The tokens are
lossless: concatenating their texts reproduces the input string
byte-for-byte. Byte offsets let later stages filter by source location
without re-reading files.

One alternation regex, compiled at import, recognises every token; the name
of the alternative that matched gives its kind. The loop over matches
collects only kinds and texts; start lines and byte offsets are running
sums over the texts, taken afterwards in one pass each.
"""

import re
from itertools import accumulate, repeat

from .cst import CstKind, CstNode, Tokens
from .errors import LexError

MODIFIER_KEYWORDS = frozenset({
    "public", "private", "protected", "static", "final", "abstract",
})

PRIMITIVE_TYPE_KEYWORDS = frozenset({
    "int", "long", "short", "byte", "char", "boolean", "float", "double",
})

KEYWORDS = MODIFIER_KEYWORDS | PRIMITIVE_TYPE_KEYWORDS | {
    "class", "extends", "implements", "void", "if", "else", "while", "for",
    "return", "new",
}

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

# A WORD is an identifier unless it is a keyword or a word literal.
_GROUP_KINDS = {
    "WORD": CstKind.IDENTIFIER,
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


def scan(source: str) -> Tokens:
    """Split source into lossless token arrays.

    Raises LexError on any character admissible in no token, on unterminated
    string/char literals, and on unterminated block comments.
    """
    kinds: list[CstKind] = []
    texts: list[str] = []
    match = None
    for match in iter(_TOKEN_RE.scanner(source).match, None):
        text = match.group()
        kind = _GROUP_KINDS.get(match.lastgroup)
        if kind is CstKind.IDENTIFIER:
            kind = _WORD_KINDS.get(text, kind)
        elif kind is None:
            _fail(source, match.start(), _UNTERMINATED[match.lastgroup])
        kinds.append(kind)
        texts.append(text)
    end = match.end() if match else 0
    if end < len(source):
        _fail(source, end, f"unexpected character {source[end]!r}")
    lines = list(accumulate(map(str.count, texts, repeat("\n")), initial=1))
    sizes = map(len, texts if source.isascii() else map(str.encode, texts))
    return Tokens(kinds, texts, lines, list(accumulate(sizes, initial=0)))


def tokenize(source: str) -> list[CstNode]:
    """The leaves of the file's CST: one node per token, spans included."""
    return scan(source).leaves()


def _fail(source: str, at: int, message: str):
    line_start = source.rfind("\n", 0, at) + 1
    raise LexError(source.count("\n", 0, at) + 1, at - line_start + 1,
                   message)
