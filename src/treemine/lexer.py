"""Tokenizer for the supported Java-like subset.

`scan` splits a string into `Tokens`, parallel lists of kind and text, and
creates no object per token. The tokens are lossless: concatenating their
texts reproduces the input string. `scan` counts no lines: `Tokens.spans`
counts them for the ranges whose span a tree keeps, as the text is read. The
pipeline reads files with universal newlines, so CRLF and CR line ends
arrive as LF.

One alternation regex, compiled at import, recognises every token, and one
`findall` over it collects every token text. An opener that its alternative
cannot close takes the rest of the source as one token, so `findall` reads
each character once, and only the last token can be unterminated. Equal
texts are then made one string, so the tokens and the tree's leaves hold
each distinct text once. Only when the texts show an error, an unterminated
last token or a character that they skip, are they walked along the source
to locate the first one. A token's first one or two characters decide its
kind, so the kind of each distinct text is looked up once, afterwards.
"""

import re
from typing import NoReturn

from .cst import CstKind, CstNode, Tokens
from .errors import LexError, position

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
# A string, char or block comment that is not closed runs to the end of the
# source, so no later opener is read again.
_TOKEN_RE = re.compile(r"""
    [ \t\r\n\f]+
  | //[^\n]*
  | /\*[\s\S]*?(?:\*/|\Z)
  | [A-Za-z_$][A-Za-z0-9_$]*
  | [0-9]+(?:\.[0-9]+)?(?:[eE][+-]?[0-9]+)?[fFdDlL]?
  | "[^"\\\n]*(?:\\[\s\S][^"\\\n]*)*(?:"|[\s\S]*)
  | '[^'\\\n]*(?:\\[\s\S][^'\\\n]*)*(?:'|[\s\S]*)
  | ==|!=|<=|>=|&&|\|\||[=<>+\-*/%!]
  | [(){}\[\];,.@]
""", re.VERBOSE)

# The kind of a token by its first character. "//" and "/*" share one, so a
# comment's second character tells them apart.
_FIRST_KINDS = dict.fromkeys(" \t\r\n\f", CstKind.WHITE_SPACE)
_FIRST_KINDS.update(dict.fromkeys(
    "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ_$",
    CstKind.IDENTIFIER))
_FIRST_KINDS.update(dict.fromkeys("0123456789\"'", CstKind.LITERAL))
_FIRST_KINDS.update(dict.fromkeys("=<>+-*%!&|", CstKind.OPERATOR))
_FIRST_KINDS.update(dict.fromkeys("(){}[];,.@", CstKind.PUNCTUATION))
_FIRST_KINDS["/"] = CstKind.LINE_COMMENT
_COMMENT_KINDS = {"/": CstKind.LINE_COMMENT, "*": CstKind.BLOCK_COMMENT}

# The error of an unterminated token by its first character; a "/" token
# that is not closed is a block comment.
_UNTERMINATED = {
    "/": "unterminated block comment",
    '"': "unterminated string literal",
    "'": "unterminated char literal",
}

# Whole texts whose kind their first character does not decide: keywords,
# word literals and the division operator.
_TEXT_KINDS = {word: CstKind.KEYWORD for word in KEYWORDS}
_TEXT_KINDS.update((word, CstKind.LITERAL) for word in WORD_LITERALS)
_TEXT_KINDS["/"] = CstKind.OPERATOR


def scan(source: str) -> Tokens:
    """Split source into lossless token arrays.

    Raises LexError on any character admissible in no token, on unterminated
    string/char literals, and on unterminated block comments.
    """
    texts = _TOKEN_RE.findall(source)
    # equal texts become the first string made of them
    shared: dict[str, str] = {}
    texts = list(map(shared.setdefault, texts, texts))
    if (sum(map(len, texts)) != len(source)
            or texts and _unterminated(texts[-1])):
        _raise_first_error(source, texts)
    kind_of = {text: _kind(text) for text in shared}
    return Tokens(list(map(kind_of.__getitem__, texts)), texts)


def _kind(text: str) -> str:
    """The kind of a token text that the token regex matched."""
    kind = _TEXT_KINDS.get(text) or _FIRST_KINDS[text[0]]
    if kind == CstKind.LINE_COMMENT:
        return _COMMENT_KINDS[text[1]]
    return kind


def _unterminated(text: str) -> bool:
    """Whether the last token is an opener that the source ended in.

    A closed token ends where its alternative closed it, so a character
    appended to it is not read into it; an unterminated one reads it too.
    """
    return (text[0] in _UNTERMINATED
            and _TOKEN_RE.match(text + "\n").end() > len(text))


def _raise_first_error(source: str, texts: list[str]) -> NoReturn:
    """Raise the LexError of the first untokenizable character, or else of
    the unterminated last token.

    `findall` skips what no token admits, so the texts tile the source up to
    the first such character.
    """
    pos = 0
    for text in texts:
        if not source.startswith(text, pos):
            break
        pos += len(text)
    if pos < len(source):
        raise LexError(*position(source[:pos]),
                       f"unexpected character {source[pos]!r}")
    last = texts[-1]
    raise LexError(*position(source[:pos - len(last)]),
                   _UNTERMINATED[last[0]])


def tokenize(source: str) -> list[CstNode]:
    """The leaves of the file's CST: one node per token, lines included."""
    return scan(source).leaves()

