"""CST to AST simplification.

One loop over an explicit stack drops whitespace and any user-configured
node kinds: ignored leaves (comments among them) go, and an ignored
internal kind is spliced out node-wise, its children hoisted into the parent.
"""

from dataclasses import dataclass, field
from itertools import repeat
from typing import Iterator

from .cst import (CST_KIND_NAMES, KIND_NAME, TOKEN_KINDS, CstKind, CstNode,
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


def build_ast(root: CstNode, ignore: IgnoreList) -> AstNode:
    """Simplify a FILE-rooted CST into an AST.

    The FILE root itself is never dropped; a file whose content is dropped
    entirely yields a childless FILE node.
    """
    if root.kind is not CstKind.FILE:
        raise ValueError(f"expected FILE root, got {root.kind.name}")
    drop = (frozenset(ignore.node_kinds) | {CstKind.WHITE_SPACE}) - {CstKind.FILE}
    tree = AstNode("FILE", span=root.span)
    # top down, in preorder: each CST node with the child list it lands in
    stack = list(zip(reversed(root.children), repeat(tree.children)))
    # internal nodes in preorder, with their list and their index there;
    # walked in reverse, a list changes only past a node's index until that
    # node itself is handled
    internal: list[tuple[AstNode, list[AstNode], int]] = []
    while stack:
        node, siblings = stack.pop()
        kind = node.kind
        if kind in TOKEN_KINDS:
            if kind not in drop:
                siblings.append(
                    AstNode(KIND_NAME[kind], token=node.text, span=node.span))
        elif kind in drop:
            # node-wise removal: the node goes, its children take its place
            stack.extend(zip(reversed(node.children), repeat(siblings)))
        elif kind in _COLLAPSE_TO_LEAF and _drops_significant_leaf(node, drop):
            text = _presentable_text(node)
            if text:
                siblings.append(AstNode(KIND_NAME[kind], token=text,
                                        span=node.span))
        else:
            node_type = KIND_NAME[kind]
            if kind in _OPERATOR_SUFFIXED and CstKind.OPERATOR in drop:
                op = next((c.text for c in node.children
                           if c.kind is CstKind.OPERATOR), None)
                if op:
                    node_type = f"{node_type}:{op}"
            ast = AstNode(node_type, span=node.span)
            internal.append((ast, siblings, len(siblings)))
            siblings.append(ast)
            stack.extend(zip(reversed(node.children), repeat(ast.children)))
    # bottom up: an internal node left with no children goes, and a
    # parenthesised expression holding one node is replaced by that node
    for ast, siblings, index in reversed(internal):
        if not ast.children:
            del siblings[index]
        elif len(ast.children) == 1 and ast.node_type == "PAREN_EXPR":
            siblings[index] = ast.children[0]
    return tree


def count_nodes(tree: AstNode) -> int:
    return sum(1 for _ in tree.preorder())


def _drops_significant_leaf(node: CstNode, drop: frozenset[CstKind]) -> bool:
    return any(leaf.kind in drop and leaf.kind not in TRIVIA_KINDS
               for leaf in node.leaves())


def _presentable_text(node: CstNode) -> str:
    return "".join(leaf.text or "" for leaf in node.leaves()
                   if leaf.kind not in TRIVIA_KINDS)
