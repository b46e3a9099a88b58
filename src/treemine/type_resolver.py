"""Scoped symbol table type enrichment for ASTs.

Sets the resolved_type of IDENTIFIER and LITERAL leaves, in place, to a
resolved type string, or to the NO_TYPE sentinel when resolution fails.
Resolution is single-file: class members are visible order-independently,
parameters and locals only at and after their declaration, inner bindings
shadow outer ones. One loop over an explicit stack walks in preorder, each
entry holding its node's scope and the class's method return types.

A scope is a plain dict from name to type. A block, a `for` statement or a
method or constructor copies the scope it is in when the walk enters it, and
a parameter or local binds its name into the scope the walk is in when the
walk reaches it. The copy answers every lookup as a chain of scopes, each
asking its parent, would: preorder walks a node's subtree whole before its
next sibling, and a class binds all its members before any member is walked,
so a scope gains no binding while a scope copied from it is in use. Each
declaration types its own name leaf when it binds the name, through the
`AstNode` accessors `name_leaf()` and `declared_type()`, and the walk looks
up only leaves with no type yet.

Types are read from the tree after `ignore_node_kinds` has spliced it, so
ignoring a kind the walk reads changes them: `TYPE_REF`, the declarations
(`PARAMETER`, `LOCAL_VAR_DECL`, `FIELD_DECL`; only a `CLASS_DECL` binds
fields and method return types), `IDENTIFIER`, and the scope and call kinds.
A spliced method or constructor leaves its parameters and locals to bind in
its class's scope, seen by the members after it.
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
    # (node, scope, method return types); only a class has methods
    stack = [(child, dict(classes), {}) for child in reversed(tree.children)]
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

        # the most common kinds first
        if node_type == "REFERENCE_EXPR" or node_type == "METHOD_CALL":
            for i, child in enumerate(children):
                if not child.children and child.node_type == "IDENTIFIER":
                    if i > 0:
                        # trailing segment of a qualified chain
                        child.resolved_type = NO_TYPE
                    elif node_type == "METHOD_CALL":
                        child.resolved_type = methods.get(child.token or "",
                                                          NO_TYPE)
        elif node_type == "LOCAL_VAR_DECL" or node_type == "PARAMETER":
            # visible from the declaration itself onward
            _declare(node, node.declared_type() or NO_TYPE, scope)
        elif node_type in ("CODE_BLOCK", "FOR_STMT", "METHOD_DECL",
                           "CONSTRUCTOR_DECL"):
            # a FOR_STMT's loop variable is scoped to the whole statement
            scope = scope.copy()
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
    suffix = text[-1:].lower()
    if suffix == "l":
        return "long"
    if suffix == "f":
        return "float"
    if suffix == "d" or any(c in ".eE" for c in text):
        return "double"
    return "int"
