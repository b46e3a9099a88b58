"""Tree filters: uniform predicates deciding which units enter the dataset.

Method filters read modifiers through `AstNode.modifiers()`, which also finds
every annotation, because the grammar allows annotations only in a member's
modifier list.
"""

from typing import NamedTuple

from .ast_builder import AstNode, count_nodes
from .cst import SourceSpan
from .errors import ConfigError

FILTER_NAMES = ("tree_size", "code_lines", "abstract_method",
                "override_method", "constructor")

# these only make sense on method-granularity units
METHOD_ONLY_FILTERS = ("abstract_method", "override_method", "constructor")


class FilterSpec(NamedTuple):
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
    return (any(mod.node_type == "MODIFIER" and mod.text() == "abstract"
                for mod in tree.modifiers())
            or (tree.node_type == "METHOD_DECL"
                and all(c.node_type != "CODE_BLOCK" for c in tree.children)))


def _has_override_annotation(tree: AstNode) -> bool:
    return any(mod.node_type == "ANNOTATION" and mod.name() == "Override"
               for mod in tree.modifiers())
