"""Split file-level ASTs into the configured unit of analysis."""

from .ast_builder import METHOD_NODE_TYPES, AstNode
from .cst import CstKind

GRANULARITY_LEVELS = ("file", "class", "method")


def split(tree: AstNode, level: str) -> list[AstNode]:
    """Return the analysis units of a FILE-rooted AST in source order.

    Constructors count as method-level units; the constructor filter exists
    to drop them when unwanted.
    """
    if level == "file":
        return [tree]
    if level == "class":
        return [c for c in tree.children if c.node_type == CstKind.CLASS_DECL]
    if level == "method":
        return [n for n in tree.preorder() if n.node_type in METHOD_NODE_TYPES]
    raise ValueError(f"unknown granularity level: {level!r}")
