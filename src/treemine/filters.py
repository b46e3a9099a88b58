"""Tree filters: uniform predicates deciding which units enter the dataset."""

from dataclasses import dataclass

from .ast_builder import AstNode, count_nodes
from .cst import SourceSpan
from .errors import ConfigError

FILTER_NAMES = ("tree_size", "code_lines", "abstract_method",
                "override_method", "constructor")

# these only make sense on method-granularity units
METHOD_ONLY_FILTERS = ("abstract_method", "override_method", "constructor")


@dataclass(frozen=True)
class FilterSpec:
    name: str
    max_nodes: int | None = None
    min_nodes: int | None = None
    max_lines: int | None = None


def accept(tree: AstNode, span: SourceSpan | None, spec: FilterSpec) -> bool:
    """True means keep. Pure.

    Method-only filters expect method units; validate_config enforces that.
    """
    if spec.name == "tree_size":
        size = count_nodes(tree)
        if spec.max_nodes is not None and size > spec.max_nodes:
            return False
        if spec.min_nodes is not None and size < spec.min_nodes:
            return False
        return True
    if spec.name == "code_lines":
        if span is None:
            return True
        return span.line_count() <= (spec.max_lines or 0)
    if spec.name == "abstract_method":
        return not _is_abstract(tree)
    if spec.name == "override_method":
        return not _has_override_annotation(tree)
    if spec.name == "constructor":
        return tree.node_type != "CONSTRUCTOR_DECL"
    raise ConfigError(f"unknown filter: {spec.name!r}")


def _is_abstract(tree: AstNode) -> bool:
    # abstract modifier, or no body at all (interface-style declaration)
    for node in tree.children:
        if node.node_type == "MODIFIER_LIST":
            for mod in node.children:
                if mod.node_type == "MODIFIER" and _modifier_word(mod) == "abstract":
                    return True
        elif node.node_type == "MODIFIER" and _modifier_word(node) == "abstract":
            return True
    has_body = any(c.node_type == "CODE_BLOCK" for c in tree.children)
    return tree.node_type == "METHOD_DECL" and not has_body


def _modifier_word(node: AstNode) -> str | None:
    if node.is_leaf():
        return node.token
    for leaf in node.leaves():
        if leaf.node_type == "KEYWORD":
            return leaf.token
    return None


def _has_override_annotation(tree: AstNode) -> bool:
    for node in tree.preorder():
        if node.node_type == "ANNOTATION":
            for leaf in node.leaves():
                if leaf.node_type == "IDENTIFIER" and leaf.token == "Override":
                    return True
    return False
