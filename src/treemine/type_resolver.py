"""Scoped symbol table type enrichment for ASTs.

Sets the resolved_type of IDENTIFIER and LITERAL leaves, in place, to a
resolved type string, or to the NO_TYPE sentinel when resolution fails.
Resolution is single-file: class members are visible order-independently,
locals only at and after their declaration, inner bindings shadow outer
ones. The walk is one loop over an explicit stack, popped in preorder; each
entry carries its node's scope and the class's method return types.

A scope is a plain dict from name to type. A block, a `for` statement or a
method or constructor copies the scope it is in when the walk enters it, and
binds its own names into the copy. The copy answers every lookup as a chain
of scopes, each asking its parent, would: preorder walks a node's subtree
whole before its next sibling, and a class binds all its members before any
member is walked, so a scope gains no binding while a scope copied from it is
in use. (A local that an ignore list splices into its class binds in the
class scope when the walk reaches it; the members after it copy that scope
later, and see it, as a chain would.) Each declaration types its own name
leaf when it binds the name, through the `AstNode` accessors `name_leaf()`
and `declared_type()`, and the walk looks up only leaves with no type yet.
"""

from .ast_builder import AstNode

NO_TYPE = "NO_TYPE"


def annotate_types(tree: AstNode) -> AstNode:
    """Fill in resolved_type across a FILE-rooted AST, in place.

    Returns `tree` itself. The tree is changed, not copied, and a leaf that
    already has a type keeps it: pass the AST that build_ast (or
    ast_builder.build) has just built for this file, which nothing else
    holds. Never fails: anything unresolvable gets NO_TYPE.
    """
    classes: dict[str, str] = {}
    for child in tree.children:
        if child.node_type == "CLASS_DECL":
            _declare(child, child.name() or NO_TYPE, classes)
    # the method return types outside any class: always empty
    outside: dict[str, str] = {}
    # (node, scope, method return types)
    stack = [(child, dict(classes), outside)
             for child in reversed(tree.children)]
    while stack:
        node, scope, methods = stack.pop()
        node_type = node.node_type
        children = node.children
        if not children:
            if node.resolved_type is None:
                if node_type == "IDENTIFIER":
                    node.resolved_type = scope.get(node.token or "", NO_TYPE)
                elif node_type == "LITERAL":
                    node.resolved_type = _literal_type(node.token or "")
            continue

        if node_type == "CODE_BLOCK" or node_type == "FOR_STMT":
            # a FOR_STMT's loop variable is scoped to the whole statement
            scope = scope.copy()
        elif node_type == "LOCAL_VAR_DECL":
            # visible from the declaration itself onward
            _declare(node, node.declared_type() or NO_TYPE, scope)
        elif node_type == "REFERENCE_EXPR" or node_type == "METHOD_CALL":
            for i, child in enumerate(children):
                if not child.children and child.node_type == "IDENTIFIER":
                    if i > 0:
                        # trailing segment of a qualified chain
                        child.resolved_type = NO_TYPE
                    elif node_type == "METHOD_CALL":
                        child.resolved_type = methods.get(child.token or "",
                                                          NO_TYPE)
        elif node_type == "CLASS_DECL":
            # a class is only ever a child of the file; its members are bound
            # before any is walked
            methods = {}
            for member in children:
                member_type = member.node_type
                if member_type == "FIELD_DECL":
                    _declare(member, member.declared_type() or NO_TYPE, scope)
                elif member_type == "METHOD_DECL":
                    _declare(member, member.declared_type() or NO_TYPE, methods)
                elif member_type == "CONSTRUCTOR_DECL":
                    _declare(member, node.name() or NO_TYPE, methods)
        elif methods is not outside and (node_type == "METHOD_DECL"
                                         or node_type == "CONSTRUCTOR_DECL"):
            # a class member (with CLASS_DECL ignored, a child of the file,
            # which binds nothing): its parameters are bound before anything
            # under it is walked
            scope = scope.copy()
            for child in children:
                if child.node_type == "PARAMETER_LIST":
                    for param in child.children:
                        if param.node_type == "PARAMETER":
                            _declare(param, param.declared_type() or NO_TYPE,
                                     scope)
        stack.extend([(child, scope, methods) for child in reversed(children)])
    return tree


def _declare(node: AstNode, declared: str, bindings: dict[str, str]) -> None:
    """Give a declaration's name leaf its type, and bind its name to it."""
    name_leaf = node.name_leaf()
    if name_leaf is not None:
        name_leaf.resolved_type = declared
        if name_leaf.token:
            bindings[name_leaf.token] = declared


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
