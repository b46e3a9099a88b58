"""Scoped symbol table type enrichment for ASTs.

Sets the resolved_type of IDENTIFIER and LITERAL leaves, in place, to a
resolved type string, or to the NO_TYPE sentinel when resolution fails.
Resolution is single-file: the file's classes and a class's members are
visible order-independently, parameters and locals only at and after their
declaration, inner bindings shadow outer ones. One loop over an explicit stack
walks in preorder, and does not enter the member units it is told to skip.

One dict holds every binding the walk can see, for the whole walk. The
file, a class, a block, a `for` statement, a method and a constructor each
open a scope, which logs each name it binds with what the name was bound to
before (NO_TYPE when it was unbound); once the walk has finished the scope's
subtree, it puts those bindings back, latest first. A parameter or local
binds its name in the innermost scope when the walk reaches it. The file and
a class bind all their members before any is walked: a class or field under
its name, and a method or constructor under its name and "(", which no
identifier holds, so a call looks up return types apart from variables. A
constructor is typed by its own name, which the parser accepts only as its
class's. Entering or leaving a scope costs its own bindings, not the names
visible in it, so typing time grows linearly with the tree's nodes. Each
declaration types its own name leaf as it binds the name, through the
AstNode accessors `name_leaf()` and `declared_type()`; the walk looks up the
rest.

Types are read from the tree after `ignore_node_kinds` has spliced it, so
ignoring a kind the walk reads changes them: `TYPE_REF`, the declarations,
`IDENTIFIER`, and the scope and call kinds. With `CLASS_DECL` ignored a class's
members bind in the file, where no class is left to see them, and only the
class name is unbound. A declaration spliced up to the class or file binds
there, seen by the children after it.
"""

from .ast_builder import AstNode

NO_TYPE = "NO_TYPE"


def annotate_types(tree: AstNode,
                   skip: set[int] | frozenset[int] = frozenset()) -> AstNode:
    """Fill in resolved_type across a FILE-rooted AST, in place.

    Returns `tree` itself. The tree is changed, not copied, and a leaf that
    already has a type keeps it: pass the AST that build_ast (or
    ast_builder.build) has just built for this file, which nothing else
    holds. Never fails: anything unresolvable gets NO_TYPE.

    `skip` holds the `id()` of member units (classes, methods,
    constructors) whose subtrees are left untyped, as no output holds them.
    Their holder still binds them, so every other leaf gets the type that a
    walk of the whole tree gives it.
    """
    # (node, log of the innermost scope it is in); a (None, log) entry below
    # a scope's children puts back what the scope bound once they are walked
    scope = {}
    stack = [(tree, [])]
    while stack:
        node, log = stack.pop()
        if node is None:
            scope.update(reversed(log))
            continue
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
                        child.resolved_type = scope.get(
                            (child.token or "") + "(", NO_TYPE)
        elif node_type == "LOCAL_VAR_DECL" or node_type == "PARAMETER":
            # visible from the declaration itself onward
            _declare(node, node.declared_type(), scope, log)
        elif node_type in ("CODE_BLOCK", "FOR_STMT", "METHOD_DECL",
                           "CONSTRUCTOR_DECL", "CLASS_DECL", "FILE"):
            # a FOR_STMT's loop variable is scoped to the whole statement
            log = []
            stack.append((None, log))
        if node_type == "CLASS_DECL" or node_type == "FILE":
            # a class is only ever a child of the file; the members of either
            # are bound before any is walked
            for member in children:
                member_type = member.node_type
                if member_type == "FIELD_DECL":
                    _declare(member, member.declared_type(), scope, log)
                elif member_type == "METHOD_DECL":
                    _declare(member, member.declared_type(), scope, log, "(")
                elif member_type == "CONSTRUCTOR_DECL":
                    _declare(member, member.name(), scope, log, "(")
                elif member_type == "CLASS_DECL":
                    _declare(member, member.name(), scope, log)
            children = [child for child in children if id(child) not in skip]
        stack.extend([(child, log) for child in reversed(children)])
    return tree


def _declare(node: AstNode, declared, scope, log, suffix="") -> None:
    """Give a declaration's name leaf its type, or NO_TYPE, and bind its name
    plus `suffix` to that type, logging what the key was bound to before."""
    declared = declared or NO_TYPE
    name_leaf = node.name_leaf()
    if name_leaf is not None:
        name_leaf.resolved_type = declared
        if name_leaf.token:
            key = name_leaf.token + suffix
            log.append((key, scope.get(key, NO_TYPE)))
            scope[key] = declared


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
