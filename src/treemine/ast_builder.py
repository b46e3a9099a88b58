"""AST building: tokens plus parser markers to a simplified tree.

`AstNode`'s accessors, as on PSI elements, are the one reader of a
declaration's name, text, type and modifiers in every shape `build` leaves.

`build` turns a file's token arrays and the parser's markers into its AST in
one bottom-up pass, with no CST in between. A kind is the string of its name,
so it becomes the `node_type` as it is, and the nodes of one
operator-suffixed type, such as `BINARY_EXPR:+`, share one string. `build`
drops whitespace and the kinds in the ignore set, a plain set of kind names:
ignored leaves (comments among them) go, and an ignored internal kind is
spliced out node-wise, its children hoisted into the parent. Only a node
that can be a unit gets a span, the lines that the `code_lines` filter
reads; they are counted in one sweep over the tokens once the tree is built.
The parser is the one producer of markers: `build_ast` takes the CST that
`parser.parse_file` returned and builds from the tokens and markers kept on
its root, without walking the CST.
"""

from dataclasses import dataclass, field
from typing import Iterator

from .cst import (COMMENT_KINDS, CstKind, CstNode, SourceSpan, Tokens,
                  TRIVIA_KINDS)

# Kinds whose leaves are structural punctuation/keywords; dropped by default
# because their information lives in the parent node_type.
DEFAULT_IGNORE_NAMES = ("PUNCTUATION", "KEYWORD", "OPERATOR")

# When their token children get dropped, these collapse to a single leaf
# carrying the source text, so the modifier word / type name stays available.
_COLLAPSE_TO_LEAF = (CstKind.MODIFIER, CstKind.TYPE_REF)

_MODIFIER_NAMES = ("MODIFIER", "ANNOTATION")

_OPERATOR_SUFFIXED = (CstKind.BINARY_EXPR, CstKind.UNARY_EXPR)

# the node types of method-level units
METHOD_NODE_TYPES = (CstKind.METHOD_DECL, CstKind.CONSTRUCTOR_DECL)

# the kinds that `granularity.split` returns as units at some level, the only
# ones that `build` gives a span
UNIT_KINDS = (CstKind.FILE, CstKind.CLASS_DECL) + METHOD_NODE_TYPES


@dataclass(slots=True)
class AstNode:
    """Simplified tree node. Leaves carry tokens, internal nodes do not.

    A leaf's children are the shared empty tuple, so it is not equal to a
    leaf built with `children=[]`. span is None except on nodes that can be
    units, and takes no part in equality. resolved_type stays None until
    type_resolver fills it in.
    """

    node_type: str
    token: str | None = None
    resolved_type: str | None = None
    children: "list[AstNode] | tuple[()]" = ()
    span: SourceSpan | None = field(default=None, compare=False, repr=False)

    def is_leaf(self) -> bool:
        return not self.children

    def name_leaf(self) -> "AstNode | None":
        """The first IDENTIFIER leaf child: the name of a declaration."""
        for child in self.children:
            if not child.children and child.node_type == "IDENTIFIER":
                return child
        return None

    def name(self) -> str | None:
        """The token of the name leaf, if there is one."""
        name_leaf = self.name_leaf()
        return name_leaf.token if name_leaf is not None else None

    def text(self) -> str:
        """The leaf tokens without comments; a collapsed leaf's own token."""
        return "".join(leaf.token or "" for leaf in self.leaves()
                       if leaf.node_type not in COMMENT_KINDS)

    def declared_type(self) -> str | None:
        """The text() of the first TYPE_REF child: a declaration's type."""
        return next((child.text() for child in self.children
                     if child.node_type == "TYPE_REF"), None)

    def modifiers(self) -> list["AstNode"]:
        """The MODIFIER and ANNOTATION nodes, in MODIFIER_LIST or beside it."""
        found = []
        for child in self.children:
            group = (child.children if child.node_type == "MODIFIER_LIST"
                     else (child,))
            found += [mod for mod in group if mod.node_type in _MODIFIER_NAMES]
        return found

    def leaves(self) -> Iterator["AstNode"]:
        return (node for node in self.preorder() if not node.children)

    def preorder(self) -> Iterator["AstNode"]:
        stack = [self]
        while stack:
            node = stack.pop()
            yield node
            stack.extend(reversed(node.children))


def build_ast(root: CstNode, ignore: frozenset[str]) -> AstNode:
    """Build the AST of a CST that `parser.parse_file` returned, from the
    tokens and markers it keeps on its root; any other node is a ValueError.
    """
    if root.parsed is None:
        raise ValueError("expected the root that parse_file returned, got "
                         f"a {root.kind} node")
    return build(*root.parsed, ignore)


def build(tokens: Tokens, markers: list[str | int],
          ignore: frozenset[str]) -> AstNode:
    """Build the AST of a file from its tokens and parser markers.

    One pass over the markers, four items per node in postorder, so each
    node meets the results of its child nodes and takes its own tokens from
    the gaps between them. The FILE root is never dropped; a file whose
    content is dropped entirely yields a childless FILE node.
    """
    kinds, texts = tokens
    drop = (ignore | {CstKind.WHITE_SPACE}) - {CstKind.FILE}
    # (first, end, AST nodes) of completed nodes whose parent is still open;
    # a dropped node leaves its children, a removed one nothing
    done: list[tuple[int, int, list[AstNode]]] = []
    # the nodes that get a span, and their token ranges
    units: list[AstNode] = []
    ranges: list[tuple[int, int]] = []
    # each distinct operator-suffixed node type, made once per file
    suffixed: dict[str, str] = {}
    it = iter(markers)
    for kind, first, end, count in zip(it, it, it, it):
        kids = done[len(done) - count:]
        del done[len(done) - count:]
        if kind in _COLLAPSE_TO_LEAF and kind not in drop:
            significant = [i for i in range(first, end)
                           if kinds[i] not in TRIVIA_KINDS]
            if any(kinds[i] in drop for i in significant):
                text = "".join(texts[i] for i in significant)
                done.append((first, end, [AstNode(kind, text)] if text else []))
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
                    children.append(AstNode(token_kind, texts[i]))
                elif token_kind == CstKind.OPERATOR and op is None:
                    op = texts[i]
            children += nodes
            pos = child_end
        if kind in drop:
            # node-wise removal: the node goes, its children take its place
            done.append((first, end, children))
        elif kind == CstKind.PAREN_EXPR and len(children) == 1:
            done.append((first, end, children))
        elif children or kind == CstKind.FILE:
            node_type = kind
            if op and kind in _OPERATOR_SUFFIXED:
                node_type = f"{node_type}:{op}"
                node_type = suffixed.setdefault(node_type, node_type)
            node = AstNode(node_type, None, None, children)
            if kind in UNIT_KINDS:
                units.append(node)
                ranges.append((first, end))
            done.append((first, end, [node]))
        else:
            done.append((first, end, []))
    for node, span in zip(units, tokens.spans(ranges)):
        node.span = span
    return done[0][2][0]


def count_nodes(tree: AstNode) -> int:
    return sum(1 for _ in tree.preorder())
