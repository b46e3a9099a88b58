"""Recursive reference for AST building and type annotation, used only by tests.

This is the earlier, recursive form of `build_ast` (one `_convert` call per
CST node, bottom up) and of `annotate_types` (one `_annotate` call per AST
node). The production code walks the same trees with explicit stacks, so
agreement on the same inputs checks the order of those walks. The leaf-level
helpers (scope lookup, literal types, declared-type text) are shared, not
copied: they contain no tree walk.
"""

from treemine.ast_builder import AstNode
from treemine.cst import COMMENT_KINDS, KIND_NAME, TRIVIA_KINDS, CstKind
from treemine.type_resolver import (NO_TYPE, Scope, _declared_type_text,
                                    _first_identifier_token, _literal_type,
                                    resolve_identifier)

_COLLAPSE_TO_LEAF = (CstKind.MODIFIER, CstKind.TYPE_REF)
_OPERATOR_SUFFIXED = (CstKind.BINARY_EXPR, CstKind.UNARY_EXPR)


# -- build_ast ---------------------------------------------------------------

def oracle_build_ast(root, ignore):
    if root.kind is not CstKind.FILE:
        raise ValueError(f"expected FILE root, got {root.kind.name}")
    drop = (frozenset(ignore.node_kinds) | {CstKind.WHITE_SPACE}) - {CstKind.FILE}
    children = []
    for child in root.children:
        children.extend(_convert(child, drop))
    return AstNode("FILE", children=children, span=root.span)


def _convert(node, drop):
    kind = node.kind
    if kind is CstKind.WHITE_SPACE:
        return []
    if kind in drop and (node.is_leaf() or kind in COMMENT_KINDS):
        return []
    if node.is_leaf():
        return [AstNode(KIND_NAME[kind], token=node.text, span=node.span)]

    if (kind in _COLLAPSE_TO_LEAF and kind not in drop
            and _drops_significant_leaf(node, drop)):
        text = _presentable_text(node)
        if not text:
            return []
        return [AstNode(KIND_NAME[kind], token=text, span=node.span)]

    converted = []
    for child in node.children:
        converted.extend(_convert(child, drop))
    if kind in drop:
        # node-wise removal: the node goes, its children take its place
        return converted
    if not converted:
        return []
    if kind is CstKind.PAREN_EXPR and len(converted) == 1:
        return converted

    node_type = KIND_NAME[kind]
    if kind in _OPERATOR_SUFFIXED and CstKind.OPERATOR in drop:
        op = next((c.text for c in node.children if c.kind is CstKind.OPERATOR), None)
        if op:
            node_type = f"{node_type}:{op}"
    return [AstNode(node_type, children=converted, span=node.span)]


def _cst_leaves(node):
    if node.is_leaf():
        yield node
    else:
        for child in node.children:
            yield from _cst_leaves(child)


def _drops_significant_leaf(node, drop):
    return any(leaf.kind in drop and leaf.kind not in TRIVIA_KINDS
               for leaf in _cst_leaves(node))


def _presentable_text(node):
    return "".join(leaf.text or "" for leaf in _cst_leaves(node)
                   if leaf.kind not in TRIVIA_KINDS)


# -- annotate_types ----------------------------------------------------------

def oracle_annotate_types(tree):
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


def _annotate_class(node, classes):
    class_name = _first_identifier_token(node)
    bindings = dict(classes)
    methods = {}
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
            _annotate_declarator(child, scope, methods,
                                 _declared_type_text(child) or NO_TYPE)
        else:
            _annotate(child, scope, methods)


def _annotate_callable(node, class_scope, methods, decl_type):
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
                    _annotate_declarator(param, scope, methods,
                                         _declared_type_text(param) or NO_TYPE)
                else:
                    _annotate(param, scope, methods)
        else:
            _annotate(child, scope, methods)


def _annotate_declarator(node, scope, methods, decl_type):
    # fields, parameters and locals: the declared-name leaf gets the
    # declared type; the rest of the subtree resolves normally
    named = False
    for child in node.children:
        if not named and child.is_leaf() and child.node_type == "IDENTIFIER":
            child.resolved_type = decl_type
            named = True
        else:
            _annotate(child, scope, methods)


def _annotate(node, scope, methods):
    base = node.node_type.split(":", 1)[0]
    if node.is_leaf():
        if base == "IDENTIFIER":
            node.resolved_type = resolve_identifier(node.token or "", scope)
        elif base == "LITERAL":
            node.resolved_type = _literal_type(node.token or "")
        return

    if base == "CODE_BLOCK" or base == "FOR_STMT":
        # a FOR_STMT's loop variable is scoped to the whole statement
        scope = Scope({}, scope)
    elif base == "LOCAL_VAR_DECL":
        decl_type = _declared_type_text(node) or NO_TYPE
        name = _first_identifier_token(node)
        if name:
            # visible from the declaration itself onward
            scope.bindings[name] = decl_type
        _annotate_declarator(node, scope, methods, decl_type)
        return
    elif base == "REFERENCE_EXPR" or base == "METHOD_CALL":
        for i, child in enumerate(node.children):
            if child.is_leaf() and child.node_type == "IDENTIFIER":
                if i > 0:
                    # trailing segment of a qualified chain
                    child.resolved_type = NO_TYPE
                elif base == "METHOD_CALL":
                    child.resolved_type = methods.get(child.token or "", NO_TYPE)
                else:
                    child.resolved_type = resolve_identifier(child.token or "",
                                                             scope)
            else:
                _annotate(child, scope, methods)
        return

    for child in node.children:
        _annotate(child, scope, methods)
