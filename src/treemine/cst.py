"""Token arrays and the concrete syntax tree model.

The lexer scans a file into `Tokens`: parallel lists of kind and text, with
no object per token. The parser marks node ranges over those lists, in one
flat list of four items per node, and both trees are built from tokens plus
markers. Lines are counted only for the ranges whose span a tree keeps.

A node kind is the string of its own name, `CstKind.BINARY_EXPR ==
"BINARY_EXPR"`, from the lexer to the AST's `node_type` and the output.
Strings hash by content, which varies between runs, so no output may depend
on the order of a set of kinds.

A CST is lossless: every byte of the source file, including whitespace,
punctuation and comments, lives in exactly one leaf, and concatenating the
leaf texts in order reproduces the file.
"""

from dataclasses import dataclass, field
from typing import Iterator, NamedTuple


class CstKind:
    """Every node kind, each the string of its own name."""

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

CST_KIND_NAMES = frozenset(
    value for name, value in vars(CstKind).items() if not name.startswith("_"))


class SourceSpan(NamedTuple):
    """The 1-based first and last line a node covers.

    A newline belongs to the line it ends. Lines count as the text is read,
    with universal newlines, so a CRLF or CR line end ends one line.
    """

    line_start: int
    line_end: int

    def line_count(self) -> int:
        return self.line_end - self.line_start + 1


# SourceSpan's own constructor is a Python function; a CST has one span per
# node, so `Tokens.spans` calls tuple's constructor with the class instead.
new_span = tuple.__new__


class Tokens(NamedTuple):
    """One file's tokens, trivia included, as parallel lists."""

    kinds: list[str]
    texts: list[str]

    def spans(self, ranges: list[tuple[int, int]]) -> list[SourceSpan]:
        """The lines of each token range [first, end). An empty range is
        zero-width at token `first`, or just past the last token when there
        is none.

        One sweep over the ranges' sorted boundaries counts the newlines of
        the text between each boundary and the next.
        """
        texts = self.texts
        starts = {}  # the line each boundary token starts on
        line = 1
        pos = 0
        for boundary in sorted({bound for pair in ranges for bound in pair}):
            line += "".join(texts[pos:boundary]).count("\n")
            starts[boundary] = line
            pos = boundary
        spans = []
        for first, end in ranges:
            line = starts[first]
            if first < end:
                # a newline belongs to the line it ends
                spans.append(new_span(SourceSpan, (
                    line, starts[end] - (texts[end - 1][-1] == "\n"))))
                continue
            if first == len(texts) and texts:
                line -= texts[-1][-1] == "\n"
            spans.append(new_span(SourceSpan, (line, line)))
        return spans

    def leaves(self) -> list["CstNode"]:
        """One CST leaf per token."""
        spans = self.spans([(i, i + 1) for i in range(len(self.texts))])
        return [CstNode(kind, span, text)
                for kind, text, span in zip(self.kinds, self.texts, spans)]


@dataclass(slots=True)
class CstNode:
    """A CST node. The FILE root that `parser.parse_file` returns keeps, in
    `parsed`, the tokens and markers it was built from; it is None on every
    other node and takes no part in equality."""

    kind: str
    span: SourceSpan
    text: str | None = None
    children: list["CstNode"] = field(default_factory=list)
    parsed: tuple[Tokens, list[str | int]] | None = field(
        default=None, compare=False, repr=False)

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
