"""Scoped symbol table type enrichment for ASTs.

Sets the resolved_type of IDENTIFIER and LITERAL leaves, in place, to a
resolved type string, or to the NO_TYPE sentinel when resolution fails.
Resolution is single-file: class members are visible order-independently,
locals only at and after their declaration, inner bindings shadow outer
ones. The walk is one loop over an explicit stack whose entries carry
their scope, so tree depth is not bounded by the recursion limit.
"""

from dataclasses import dataclass, field

from .ast_builder import AstNode
from .cst import COMMENT_KINDS

NO_TYPE = "NO_TYPE"

_COMMENT_TYPES = frozenset(kind.name for kind in COMMENT_KINDS)


@dataclass
class Scope:
    bindings: dict[str, str] = field(default_factory=dict)
    parent: "Scope | None" = None

    def lookup(self, name: str) -> str | None:
        scope: Scope | None = self
        while scope is not None:
            if name in scope.bindings:
                return scope.bindings[name]
            scope = scope.parent
        return None


def resolve_identifier(name: str, scope: Scope) -> str:
    found = scope.lookup(name)
    return found if found is not None else NO_TYPE


def annotate_types(tree: AstNode) -> AstNode:
    """Fill in resolved_type across a FILE-rooted AST, in place.

    Returns `tree` itself. The tree is changed, not copied: pass the AST
    that build_ast has just built for this file, which nothing else holds.
    Never fails: anything unresolvable gets NO_TYPE.
    """
    classes = {}
    for child in tree.children:
        if child.node_type == "CLASS_DECL":
            name = _first_identifier_token(child)
            if name:
                classes[name] = name
    for child in tree.children:
        if child.node_type == "CLASS_DECL":
            _annotate_class(child, classes)
        else:
            _annotate(child, Scope(dict(classes)), {})
    return tree


def _annotate_class(node: AstNode, classes: dict[str, str]) -> None:
    class_name = _first_identifier_token(node)
    bindings = dict(classes)
    methods: dict[str, str] = {}
    for member in node.children:
        name = _first_identifier_token(member)
        if not name:
            continue
        if member.node_type == "FIELD_DECL":
            bindings[name] = _declared_type_text(member) or NO_TYPE
        elif member.node_type == "METHOD_DECL":
            methods[name] = _declared_type_text(member) or NO_TYPE
        elif member.node_type == "CONSTRUCTOR_DECL":
            methods[name] = class_name or NO_TYPE
    scope = Scope(bindings)

    named = False
    for child in node.children:
        if not named and child.is_leaf() and child.node_type == "IDENTIFIER":
            child.resolved_type = class_name or NO_TYPE
            named = True
        elif child.node_type == "METHOD_DECL":
            _annotate_callable(child, scope, methods,
                               _declared_type_text(child) or NO_TYPE)
        elif child.node_type == "CONSTRUCTOR_DECL":
            _annotate_callable(child, scope, methods, class_name or NO_TYPE)
        elif child.node_type == "FIELD_DECL":
            _annotate(child, scope, methods,
                      _declared_type_text(child) or NO_TYPE)
        else:
            _annotate(child, scope, methods)


def _annotate_callable(node: AstNode, class_scope: Scope,
                       methods: dict[str, str], decl_type: str) -> None:
    scope = Scope({}, class_scope)
    for child in node.children:
        if child.node_type == "PARAMETER_LIST":
            for param in child.children:
                if param.node_type == "PARAMETER":
                    name = _first_identifier_token(param)
                    if name:
                        scope.bindings[name] = _declared_type_text(param) or NO_TYPE
    named = False
    for child in node.children:
        if not named and child.is_leaf() and child.node_type == "IDENTIFIER":
            child.resolved_type = decl_type
            named = True
        elif child.node_type == "PARAMETER_LIST":
            for param in child.children:
                if param.node_type == "PARAMETER":
                    _annotate(param, scope, methods,
                              _declared_type_text(param) or NO_TYPE)
                else:
                    _annotate(param, scope, methods)
        else:
            _annotate(child, scope, methods)


def _annotate(root: AstNode, scope: Scope, methods: dict[str, str],
              declared: str | None = None) -> None:
    # entries are popped in preorder, so a local is bound before anything
    # after its declaration resolves; `declared` is the type that a field,
    # parameter or local gives its name, its first IDENTIFIER leaf child
    stack = [(root, scope, declared)]
    while stack:
        node, scope, declared = stack.pop()
        node_type = node.node_type
        children = node.children
        if not children:
            if node_type == "IDENTIFIER":
                node.resolved_type = resolve_identifier(node.token or "", scope)
            elif node_type == "LITERAL":
                node.resolved_type = _literal_type(node.token or "")
            continue

        if node_type == "CODE_BLOCK" or node_type == "FOR_STMT":
            # a FOR_STMT's loop variable is scoped to the whole statement
            scope = Scope({}, scope)
        elif node_type == "LOCAL_VAR_DECL":
            declared = _declared_type_text(node) or NO_TYPE
            name = _first_identifier_token(node)
            if name:
                # visible from the declaration itself onward
                scope.bindings[name] = declared
        elif node_type == "REFERENCE_EXPR" or node_type == "METHOD_CALL":
            rest = []
            for i, child in enumerate(children):
                if child.is_leaf() and child.node_type == "IDENTIFIER":
                    if i > 0:
                        # trailing segment of a qualified chain
                        child.resolved_type = NO_TYPE
                    elif node_type == "METHOD_CALL":
                        child.resolved_type = methods.get(child.token or "",
                                                          NO_TYPE)
                    else:
                        child.resolved_type = resolve_identifier(
                            child.token or "", scope)
                else:
                    rest.append(child)
            children = rest
        if declared is not None:
            name_leaf = next((child for child in children if child.is_leaf()
                              and child.node_type == "IDENTIFIER"), None)
            if name_leaf is not None:
                name_leaf.resolved_type = declared
                children = [child for child in children if child is not name_leaf]
        stack.extend([(child, scope, None) for child in reversed(children)])


def _literal_type(text: str) -> str:
    if text.startswith('"'):
        return "String"
    if text.startswith("'"):
        return "char"
    if text in ("true", "false"):
        return "boolean"
    if text == "null":
        return NO_TYPE
    if text and (text[-1] in "fFdD" or any(c in ".eE" for c in text)):
        return "double"
    return "int"


def _first_identifier_token(node: AstNode) -> str | None:
    for child in node.children:
        if child.is_leaf() and child.node_type == "IDENTIFIER":
            return child.token
    return None


def _declared_type_text(node: AstNode) -> str | None:
    for child in node.children:
        if child.node_type == "TYPE_REF":
            return _type_text(child)
    return None


def _type_text(type_ref: AstNode) -> str:
    if type_ref.is_leaf():
        return type_ref.token or ""
    return "".join(leaf.token or "" for leaf in type_ref.leaves()
                   if leaf.node_type not in _COMMENT_TYPES)
