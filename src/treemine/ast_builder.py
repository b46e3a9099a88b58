"""CST to AST simplification.

Walks the concrete tree depth-first and drops formatting plus any
user-configured node kinds. Whitespace always goes. Comments are removed
subtree-wise when ignored; other ignored internal kinds are spliced out
node-wise with their children hoisted into the parent.
"""

from dataclasses import dataclass, field
from typing import Iterator

from .cst import (COMMENT_KINDS, CST_KIND_NAMES, KIND_NAME, CstKind, CstNode,
                  SourceSpan, TRIVIA_KINDS)
from .errors import ConfigError

# Kinds whose leaves are structural punctuation/keywords; dropped by default
# because their information lives in the parent node_type.
DEFAULT_IGNORE_NAMES = ("PUNCTUATION", "KEYWORD", "OPERATOR")

# When their token children get dropped, these collapse to a single leaf
# carrying the source text, so the modifier word / type name stays available.
_COLLAPSE_TO_LEAF = (CstKind.MODIFIER, CstKind.TYPE_REF)

_OPERATOR_SUFFIXED = (CstKind.BINARY_EXPR, CstKind.UNARY_EXPR)


@dataclass
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


@dataclass(frozen=True)
class IgnoreList:
    node_kinds: frozenset[CstKind]

    @classmethod
    def from_names(cls, names) -> "IgnoreList":
        names = list(names)
        unknown = sorted(set(n for n in names if n not in CST_KIND_NAMES))
        if unknown:
            raise ConfigError(
                "unknown node kinds in ignore list: " + ", ".join(unknown))
        return cls(frozenset(CstKind[n] for n in names))


def default_ignore_list() -> IgnoreList:
    return IgnoreList.from_names(DEFAULT_IGNORE_NAMES)


def build_ast(root: CstNode, ignore: IgnoreList) -> AstNode:
    """Simplify a FILE-rooted CST into an AST.

    The FILE root itself is never dropped; a file whose content is dropped
    entirely yields a childless FILE node.
    """
    if root.kind is not CstKind.FILE:
        raise ValueError(f"expected FILE root, got {root.kind.name}")
    drop = (frozenset(ignore.node_kinds) | {CstKind.WHITE_SPACE}) - {CstKind.FILE}
    children: list[AstNode] = []
    for child in root.children:
        children.extend(_convert(child, drop))
    return AstNode("FILE", children=children, span=root.span)


def count_nodes(tree: AstNode) -> int:
    return 1 + sum(count_nodes(child) for child in tree.children)


def _convert(node: CstNode, drop: frozenset[CstKind]) -> list[AstNode]:
    kind = node.kind
    if kind is CstKind.WHITE_SPACE:
        return []
    if kind in drop and (node.is_leaf() or kind in COMMENT_KINDS):
        return []
    if node.is_leaf():
        return [AstNode(KIND_NAME[kind], token=node.text, span=node.span)]

    if (kind in _COLLAPSE_TO_LEAF and kind not in drop
            and _drops_significant_leaf(node, drop)):
        text = _presentable_text(node)
        if not text:
            return []
        return [AstNode(KIND_NAME[kind], token=text, span=node.span)]

    converted: list[AstNode] = []
    for child in node.children:
        converted.extend(_convert(child, drop))
    if kind in drop:
        # node-wise removal: the node goes, its children take its place
        return converted
    if not converted:
        return []
    if kind is CstKind.PAREN_EXPR and len(converted) == 1:
        return converted

    node_type = KIND_NAME[kind]
    if kind in _OPERATOR_SUFFIXED and CstKind.OPERATOR in drop:
        op = next((c.text for c in node.children if c.kind is CstKind.OPERATOR), None)
        if op:
            node_type = f"{node_type}:{op}"
    return [AstNode(node_type, children=converted, span=node.span)]


def _drops_significant_leaf(node: CstNode, drop: frozenset[CstKind]) -> bool:
    return any(leaf.kind in drop and leaf.kind not in TRIVIA_KINDS
               for leaf in node.leaves())


def _presentable_text(node: CstNode) -> str:
    return "".join(leaf.text or "" for leaf in node.leaves()
                   if leaf.kind not in TRIVIA_KINDS)
