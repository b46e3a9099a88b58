"""Token arrays and the concrete syntax tree model.

The lexer scans a file into `Tokens`: parallel lists of kind, text, start
line and UTF-8 byte offset, with no object per token. The parser marks node
ranges over those lists, and both trees are built from tokens plus markers.

A CST is lossless: every byte of the source file, including whitespace,
punctuation and comments, lives in exactly one leaf, and concatenating the
leaf texts in order reproduces the file.
"""

from dataclasses import dataclass, field
from enum import Enum
from typing import Iterator, NamedTuple


class CstKind(Enum):
    # Members are singletons compared by identity; hashing by identity too
    # keeps the kind-set lookups in every tree walk out of Enum.__hash__,
    # which is written in Python. No output depends on a set's order.
    __hash__ = object.__hash__

    FILE = "FILE"
    CLASS_DECL = "CLASS_DECL"
    MODIFIER_LIST = "MODIFIER_LIST"
    MODIFIER = "MODIFIER"
    ANNOTATION = "ANNOTATION"
    FIELD_DECL = "FIELD_DECL"
    METHOD_DECL = "METHOD_DECL"
    CONSTRUCTOR_DECL = "CONSTRUCTOR_DECL"
    PARAMETER_LIST = "PARAMETER_LIST"
    PARAMETER = "PARAMETER"
    TYPE_REF = "TYPE_REF"
    CODE_BLOCK = "CODE_BLOCK"
    LOCAL_VAR_DECL = "LOCAL_VAR_DECL"
    IF_STMT = "IF_STMT"
    WHILE_STMT = "WHILE_STMT"
    FOR_STMT = "FOR_STMT"
    RETURN_STMT = "RETURN_STMT"
    EXPR_STMT = "EXPR_STMT"
    ASSIGNMENT_EXPR = "ASSIGNMENT_EXPR"
    BINARY_EXPR = "BINARY_EXPR"
    UNARY_EXPR = "UNARY_EXPR"
    METHOD_CALL = "METHOD_CALL"
    ARGUMENT_LIST = "ARGUMENT_LIST"
    REFERENCE_EXPR = "REFERENCE_EXPR"
    NEW_EXPR = "NEW_EXPR"
    ARRAY_ACCESS_EXPR = "ARRAY_ACCESS_EXPR"
    PAREN_EXPR = "PAREN_EXPR"
    LITERAL = "LITERAL"
    IDENTIFIER = "IDENTIFIER"
    KEYWORD = "KEYWORD"
    OPERATOR = "OPERATOR"
    PUNCTUATION = "PUNCTUATION"
    WHITE_SPACE = "WHITE_SPACE"
    LINE_COMMENT = "LINE_COMMENT"
    BLOCK_COMMENT = "BLOCK_COMMENT"


# Kinds produced by the tokenizer; these are the only leaf kinds.
TOKEN_KINDS = frozenset({
    CstKind.IDENTIFIER,
    CstKind.KEYWORD,
    CstKind.LITERAL,
    CstKind.OPERATOR,
    CstKind.PUNCTUATION,
    CstKind.WHITE_SPACE,
    CstKind.LINE_COMMENT,
    CstKind.BLOCK_COMMENT,
})

COMMENT_KINDS = frozenset({CstKind.LINE_COMMENT, CstKind.BLOCK_COMMENT})

# Token kinds that structure-building skips over (they still become leaves).
TRIVIA_KINDS = frozenset({CstKind.WHITE_SPACE}) | COMMENT_KINDS

# `CstKind.name` is a Python-level property; tree walks look names up here.
KIND_NAME = {kind: kind.name for kind in CstKind}
CST_KIND_NAMES = frozenset(KIND_NAME.values())


class SourceSpan(NamedTuple):
    """Half-open byte range plus the 1-based line range it covers."""

    byte_offset_start: int
    byte_offset_end: int
    line_start: int
    line_end: int

    def line_count(self) -> int:
        return self.line_end - self.line_start + 1


# SourceSpan's own constructor is a Python function; the builders make one
# span per node, so they call tuple's constructor with the class instead.
new_span = tuple.__new__


class Tokens(NamedTuple):
    """One file's tokens, trivia included, as parallel lists.

    `lines` and `offsets` hold one entry more than there are tokens: the
    line and the byte offset just past the last token.
    """

    kinds: list[CstKind]
    texts: list[str]
    lines: list[int]  # 1-based line each token starts on
    offsets: list[int]  # UTF-8 byte offset each token starts at

    def span(self, first: int, end: int) -> SourceSpan:
        """The span of tokens [first, end); an empty range is zero-width at
        token `first`, or just past the last token when there is none."""
        _, texts, lines, offsets = self
        if first < end:
            # a newline belongs to the line it ends
            return new_span(SourceSpan, (
                offsets[first], offsets[end], lines[first],
                lines[end] - (texts[end - 1][-1] == "\n")))
        line = lines[first]
        if first == len(texts) and texts:
            line -= texts[-1][-1] == "\n"
        return SourceSpan(offsets[first], offsets[first], line, line)

    def leaves(self) -> list["CstNode"]:
        """One CST leaf per token."""
        span = self.span
        return [CstNode(kind, span(i, i + 1), text)
                for i, (kind, text) in enumerate(zip(self.kinds, self.texts))]


# A node the parser marked: (kind, first token, end token, child-node count).
# Token indices count trivia and the range is half-open.
Marker = tuple[CstKind, int, int, int]


@dataclass(slots=True)
class CstNode:
    kind: CstKind
    span: SourceSpan
    text: str | None = None
    children: list["CstNode"] = field(default_factory=list)

    def is_leaf(self) -> bool:
        return self.kind in TOKEN_KINDS

    def leaves(self) -> Iterator["CstNode"]:
        """All leaves in source order."""
        stack = [self]
        while stack:
            node = stack.pop()
            if node.is_leaf():
                yield node
            else:
                stack.extend(reversed(node.children))
