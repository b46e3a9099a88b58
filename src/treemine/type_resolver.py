"""Scoped symbol table type enrichment for ASTs.

Sets the resolved_type of IDENTIFIER and LITERAL leaves, in place, to a
resolved type string, or to the NO_TYPE sentinel when resolution fails.
Resolution is single-file: class members are visible order-independently,
locals only at and after their declaration, inner bindings shadow outer
ones. The walk is one loop over an explicit stack, popped in preorder. Each
entry carries its node's scope, the class's method return types, and the
type its declarer gave its name leaf, so each declaration is read once,
through the `AstNode` accessors `name()` and `declared_type()`.
"""

from dataclasses import dataclass, field

from .ast_builder import AstNode

NO_TYPE = "NO_TYPE"


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
    classes: dict[str, str] = {}
    top = []
    for child in tree.children:
        declared = None
        if child.node_type == "CLASS_DECL":
            name = child.name()
            if name:
                classes[name] = name
            declared = name or NO_TYPE
        top.append((child, declared))
    # (node, scope, method return types, the type of its name leaf)
    stack = [(child, Scope(dict(classes)), {}, declared)
             for child, declared in reversed(top)]
    while stack:
        node, scope, methods, declared = stack.pop()
        node_type = node.node_type
        children = node.children
        if not children:
            if node_type == "IDENTIFIER":
                node.resolved_type = resolve_identifier(node.token or "", scope)
            elif node_type == "LITERAL":
                node.resolved_type = _literal_type(node.token or "")
            continue

        if node_type == "LOCAL_VAR_DECL":
            declared = node.declared_type() or NO_TYPE
        if declared is not None:
            name_leaf = node.name_leaf()
            if name_leaf is not None:
                name_leaf.resolved_type = declared
                children = [child for child in children if child is not name_leaf]
                if node_type == "LOCAL_VAR_DECL" and name_leaf.token:
                    # visible from the declaration itself onward
                    scope.bindings[name_leaf.token] = declared

        if node_type == "CODE_BLOCK" or node_type == "FOR_STMT":
            # a FOR_STMT's loop variable is scoped to the whole statement
            scope = Scope({}, scope)
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
        elif node_type == "CLASS_DECL":
            # a class is only ever a child of the file, which gave it its name
            # as `declared`; its members are bound before any is walked
            methods = {}
            tables = {"FIELD_DECL": scope.bindings, "METHOD_DECL": methods,
                      "CONSTRUCTOR_DECL": methods}
            entries = []
            for member in children:
                member_type = None
                if member.node_type in tables:
                    member_type = (declared
                                   if member.node_type == "CONSTRUCTOR_DECL"
                                   else member.declared_type() or NO_TYPE)
                    name = member.name()
                    if name:
                        tables[member.node_type][name] = member_type
                entries.append((member, scope, methods, member_type))
            stack.extend(reversed(entries))
            continue
        elif declared is not None and (node_type == "METHOD_DECL"
                                       or node_type == "CONSTRUCTOR_DECL"):
            # a class member, given `declared` by its class: its parameters
            # are bound before anything under it is walked, and its
            # PARAMETER_LIST node itself has no effect
            scope = Scope({}, scope)
            entries = []
            for child in children:
                if child.node_type != "PARAMETER_LIST":
                    entries.append((child, scope, methods, None))
                    continue
                for param in child.children:
                    param_type = None
                    if param.node_type == "PARAMETER":
                        param_type = param.declared_type() or NO_TYPE
                        name = param.name()
                        if name:
                            scope.bindings[name] = param_type
                    entries.append((param, scope, methods, param_type))
            stack.extend(reversed(entries))
            continue
        stack.extend([(child, scope, methods, None)
                      for child in reversed(children)])
    return tree


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
