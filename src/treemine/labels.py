"""Label extraction: produce (label, tree) pairs for supervised mining.

The method-name extractor hides the target in the unit it is given, in
place: the declaration name becomes a placeholder token and every same-name
call site is masked, so the label cannot leak through recursive calls.
Units must not overlap; method units of one file AST never do, because the
grammar has no nested classes, anonymous classes or lambdas.
"""

from typing import NamedTuple

from .ast_builder import AstNode
from .errors import ConfigError
from .granularity import METHOD_NODE_TYPES

NO_LABEL = "NO_LABEL"
DEFAULT_NAME_TOKEN = "METHOD_NAME"
DEFAULT_RECURSION_TOKEN = "SELF"


class LabeledTree(NamedTuple):
    label: str
    tree: AstNode


def extract_none(tree: AstNode) -> LabeledTree:
    return LabeledTree(NO_LABEL, tree)


def extract_method_name(tree: AstNode,
                        name_token: str = DEFAULT_NAME_TOKEN,
                        recursion_token: str = DEFAULT_RECURSION_TOKEN) -> LabeledTree:
    """Label a method-rooted tree with its declared name, hiding it in place.

    The name leaf's token becomes name_token and every METHOD_CALL callee
    matching the name becomes recursion_token, in the given tree, which the
    returned sample holds. Constructors are labeled with the class name.
    Tree shape, other tokens and resolved types are untouched. Trees
    labeled one after another must not overlap, or the masking of one
    would show in the other.
    """
    if tree.node_type not in METHOD_NODE_TYPES:
        raise ConfigError(
            "method_name extraction requires method granularity; "
            f"got a {tree.node_type} tree")
    name_leaf = tree.name_leaf()
    if name_leaf is None or not name_leaf.token:
        raise ConfigError("method tree has no declaration name leaf")
    label = name_leaf.token
    name_leaf.token = name_token
    for node in tree.preorder():
        if node.node_type == "METHOD_CALL":
            for child in node.children:
                if (child.is_leaf() and child.node_type == "IDENTIFIER"
                        and child.token == label):
                    child.token = recursion_token
    return LabeledTree(label, tree)
