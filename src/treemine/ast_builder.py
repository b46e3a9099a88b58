"""AST building: tokens plus parser markers to a simplified tree.

`build` turns a file's token arrays and the parser's markers into its AST in
one bottom-up pass, with no CST in between. It drops whitespace and any
user-configured node kinds: ignored leaves (comments among them) go, and an
ignored internal kind is spliced out node-wise, its children hoisted into
the parent. Every span comes from the token arrays. `build_ast` takes a CST
instead, flattening it back into tokens and markers first.
"""

from dataclasses import dataclass, field
from typing import Iterator, NamedTuple

from .cst import (CST_KIND_NAMES, KIND_NAME, TOKEN_KINDS, CstKind, CstNode,
                  Marker, SourceSpan, Tokens, TRIVIA_KINDS, new_span)
from .errors import ConfigError

# Kinds whose leaves are structural punctuation/keywords; dropped by default
# because their information lives in the parent node_type.
DEFAULT_IGNORE_NAMES = ("PUNCTUATION", "KEYWORD", "OPERATOR")

# When their token children get dropped, these collapse to a single leaf
# carrying the source text, so the modifier word / type name stays available.
_COLLAPSE_TO_LEAF = (CstKind.MODIFIER, CstKind.TYPE_REF)

_OPERATOR_SUFFIXED = (CstKind.BINARY_EXPR, CstKind.UNARY_EXPR)


@dataclass(slots=True)
class AstNode:
    """Simplified tree node. Leaves carry tokens, internal nodes do not.

    span is provenance for line-based filtering and is excluded from
    equality. resolved_type stays None until type_resolver fills it in.
    """

    node_type: str
    token: str | None = None
    resolved_type: str | None = None
    children: list["AstNode"] = field(default_factory=list)
    span: SourceSpan | None = field(default=None, compare=False, repr=False)

    def is_leaf(self) -> bool:
        return not self.children

    def name_leaf(self) -> "AstNode | None":
        """The first IDENTIFIER leaf child: the name of a declaration."""
        for child in self.children:
            if not child.children and child.node_type == "IDENTIFIER":
                return child
        return None

    def leaves(self) -> Iterator["AstNode"]:
        stack = [self]
        while stack:
            node = stack.pop()
            if node.children:
                stack.extend(reversed(node.children))
            else:
                yield node

    def preorder(self) -> Iterator["AstNode"]:
        stack = [self]
        while stack:
            node = stack.pop()
            yield node
            stack.extend(reversed(node.children))


class IgnoreList(NamedTuple):
    node_kinds: frozenset[CstKind]

    @classmethod
    def from_names(cls, names) -> "IgnoreList":
        names = list(names)
        unknown = sorted(set(n for n in names if n not in CST_KIND_NAMES))
        if unknown:
            raise ConfigError(
                "unknown node kinds in ignore list: " + ", ".join(unknown))
        return cls(frozenset(CstKind[n] for n in names))


def build_ast(root: CstNode, ignore: IgnoreList) -> AstNode:
    """Simplify a FILE-rooted CST into an AST.

    Flattens the CST back into tokens and markers, then builds as `build`.
    """
    if root.kind is not CstKind.FILE:
        raise ValueError(f"expected FILE root, got {root.kind.name}")
    kinds: list[CstKind] = []
    texts: list[str] = []
    lines: list[int] = []
    offsets: list[int] = []
    markers: list[Marker] = []
    # nodes to enter, and (kind, first token, child-node count) records of
    # entered nodes, popped once their last token is in
    stack: list = [root]
    while stack:
        node = stack.pop()
        if type(node) is tuple:
            kind, first, count = node
            markers.append((kind, first, len(kinds), count))
        elif node.kind in TOKEN_KINDS:
            kinds.append(node.kind)
            texts.append(node.text)
            lines.append(node.span.line_start)
            offsets.append(node.span.byte_offset_start)
        else:
            stack.append((node.kind, len(kinds), sum(
                child.kind not in TOKEN_KINDS for child in node.children)))
            stack.extend(reversed(node.children))
    # the line just past the last token: the one its final newline ends
    lines.append(root.span.line_end + (texts[-1][-1] == "\n") if texts
                 else root.span.line_start)
    offsets.append(root.span.byte_offset_end)
    return build(Tokens(kinds, texts, lines, offsets), markers, ignore)


def build(tokens: Tokens, markers: list[Marker], ignore: IgnoreList) -> AstNode:
    """Build the AST of a file from its tokens and parser markers.

    One pass over the markers, which come in postorder, so each node meets
    the results of its child nodes and takes its own tokens from the gaps
    between them. The FILE root is never dropped; a file whose content is
    dropped entirely yields a childless FILE node.
    """
    kinds, texts, lines, offsets = tokens
    span = tokens.span
    drop = (ignore.node_kinds | {CstKind.WHITE_SPACE}) - {CstKind.FILE}
    # (first, end, AST nodes) of completed nodes whose parent is still open;
    # a dropped node leaves its children, a removed one nothing
    done: list[tuple[int, int, list[AstNode]]] = []
    for kind, first, end, count in markers:
        kids = done[len(done) - count:]
        del done[len(done) - count:]
        if kind in _COLLAPSE_TO_LEAF and kind not in drop:
            significant = [i for i in range(first, end)
                           if kinds[i] not in TRIVIA_KINDS]
            if any(kinds[i] in drop for i in significant):
                text = "".join(texts[i] for i in significant)
                done.append((first, end, [AstNode(
                    KIND_NAME[kind], text, None, [], span(first, end))]
                    if text else []))
                continue
        # the node's own tokens lie in the gaps around its child nodes
        kids.append((end, end, ()))
        children: list[AstNode] = []
        op = None  # the first dropped operator among the node's own tokens
        pos = first
        for child_first, child_end, nodes in kids:
            for i in range(pos, child_first):
                token_kind = kinds[i]
                if token_kind not in drop:
                    # tokens.span(i, i + 1), inlined: one per leaf
                    children.append(AstNode(
                        KIND_NAME[token_kind], texts[i], None, [],
                        new_span(SourceSpan, (
                            offsets[i], offsets[i + 1], lines[i],
                            lines[i + 1] - (texts[i][-1] == "\n")))))
                elif token_kind is CstKind.OPERATOR and op is None:
                    op = texts[i]
            children += nodes
            pos = child_end
        if kind in drop:
            # node-wise removal: the node goes, its children take its place
            done.append((first, end, children))
        elif kind is CstKind.PAREN_EXPR and len(children) == 1:
            done.append((first, end, children))
        elif children or kind is CstKind.FILE:
            node_type = KIND_NAME[kind]
            if op and kind in _OPERATOR_SUFFIXED:
                node_type = f"{node_type}:{op}"
            done.append((first, end, [AstNode(node_type, None, None, children,
                                              span(first, end))]))
        else:
            done.append((first, end, []))
    return done[0][2][0]


def count_nodes(tree: AstNode) -> int:
    return sum(1 for _ in tree.preorder())
