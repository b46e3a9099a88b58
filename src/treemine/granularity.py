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
        # no member lies inside a member, so the walk stops at a unit and
        # never enters a method body
        units = []
        stack = [tree]
        while stack:
            node = stack.pop()
            if node.node_type in METHOD_NODE_TYPES:
                units.append(node)
            else:
                stack.extend(reversed(node.children))
        return units
    raise ValueError(f"unknown granularity level: {level!r}")
