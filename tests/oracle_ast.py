"""Recursive reference for AST building and type annotation, used only by tests.

This is the earlier, recursive form of `build_ast` (one `_convert` call per
CST node, bottom up) and of `annotate_types` (one `_annotate` call per AST
node). The production code walks the same trees with explicit stacks, so
agreement on the same inputs checks the order of those walks. The reference
keeps scopes as a chain, each asking its parent for a name it does not bind,
where `annotate_types` binds in one dict and puts back on leaving a scope
what the scope bound: agreement also checks that the one dict answers as the
chain does. The file and a class are one kind of holder: each binds its
classes, fields, methods and constructors before any is walked, a
constructor typed by its own name, so with `CLASS_DECL` ignored a class's
members bind in the file and only its name is unbound. A parameter, like a local, binds its name in the scope it is walked
in, from its declaration on, and the file's children share one scope: a
declaration an ignore list splices up to the class or file is seen by the
children after it, and an ignored `PARAMETER_LIST` changes no parameter's type.
The literal types and the `AstNode` declaration accessors (`name()`,
`declared_type()`) are shared, not copied: they read one leaf or one
declaration and walk no tree.

The method filters' earlier readers are kept as well: they find modifiers
in both shapes a modifier list can take and search a whole unit for an
`@Override` annotation, so they check `AstNode.modifiers()`.
"""

from treemine.ast_builder import UNIT_KINDS, AstNode
from treemine.cst import COMMENT_KINDS, TRIVIA_KINDS, CstKind
from treemine.type_resolver import NO_TYPE, _literal_type

_COLLAPSE_TO_LEAF = (CstKind.MODIFIER, CstKind.TYPE_REF)
_OPERATOR_SUFFIXED = (CstKind.BINARY_EXPR, CstKind.UNARY_EXPR)


# -- build_ast ---------------------------------------------------------------

def oracle_build_ast(root, ignore):
    if root.kind != CstKind.FILE:
        raise ValueError(f"expected FILE root, got {root.kind}")
    drop = (frozenset(ignore) | {CstKind.WHITE_SPACE}) - {CstKind.FILE}
    children = []
    for child in root.children:
        children.extend(_convert(child, drop))
    return AstNode("FILE", children=children, span=root.span)


def _convert(node, drop):
    kind = node.kind
    if kind == CstKind.WHITE_SPACE:
        return []
    if kind in drop and (node.is_leaf() or kind in COMMENT_KINDS):
        return []
    if node.is_leaf():
        return [AstNode(kind, token=node.text)]

    if (kind in _COLLAPSE_TO_LEAF and kind not in drop
            and _drops_significant_leaf(node, drop)):
        text = _presentable_text(node)
        if not text:
            return []
        return [AstNode(kind, token=text)]

    converted = []
    for child in node.children:
        converted.extend(_convert(child, drop))
    if kind in drop:
        # node-wise removal: the node goes, its children take its place
        return converted
    if not converted:
        return []
    if kind == CstKind.PAREN_EXPR and len(converted) == 1:
        return converted

    node_type = kind
    if kind in _OPERATOR_SUFFIXED and CstKind.OPERATOR in drop:
        op = next((c.text for c in node.children if c.kind == CstKind.OPERATOR), None)
        if op:
            node_type = f"{node_type}:{op}"
    span = node.span if kind in UNIT_KINDS else None
    return [AstNode(node_type, children=converted, span=span)]


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

class Scope:
    def __init__(self, bindings, parent=None):
        self.bindings = bindings
        self.parent = parent


def resolve_identifier(name, scope):
    while scope is not None:
        if name in scope.bindings:
            return scope.bindings[name]
        scope = scope.parent
    return NO_TYPE


def oracle_annotate_types(tree):
    _annotate_holder(tree, None)
    return tree


def _annotate_holder(node, parent):
    # the file or a class (only ever a child of the file): every member binds
    # before any is walked, and a class's first name leaf is its own name
    bindings = {}
    methods = {}
    for member in node.children:
        name = member.name()
        if not name:
            continue
        if member.node_type == "FIELD_DECL":
            bindings[name] = member.declared_type() or NO_TYPE
        elif member.node_type == "METHOD_DECL":
            methods[name] = member.declared_type() or NO_TYPE
        elif member.node_type == "CONSTRUCTOR_DECL":
            methods[name] = name
        elif member.node_type == "CLASS_DECL":
            bindings[name] = name
    scope = Scope(bindings, parent)

    named = node.node_type != "CLASS_DECL"
    for child in node.children:
        if not named and child.is_leaf() and child.node_type == "IDENTIFIER":
            child.resolved_type = child.token or NO_TYPE
            named = True
        elif child.node_type == "CLASS_DECL":
            _annotate_holder(child, scope)
        elif child.node_type == "METHOD_DECL":
            _annotate_declarator(child, Scope({}, scope), methods,
                                 child.declared_type() or NO_TYPE)
        elif child.node_type == "CONSTRUCTOR_DECL":
            _annotate_declarator(child, Scope({}, scope), methods,
                                 child.name() or NO_TYPE)
        elif child.node_type == "FIELD_DECL":
            _annotate_declarator(child, scope, methods,
                                 child.declared_type() or NO_TYPE)
        else:
            _annotate(child, scope, methods)


def _annotate_declarator(node, scope, methods, decl_type):
    # members, parameters and locals: the declared-name leaf gets the
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
    elif base == "LOCAL_VAR_DECL" or base == "PARAMETER":
        decl_type = node.declared_type() or NO_TYPE
        name = node.name()
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


# -- filters.abstract_method and filters.override_method --------------------

def oracle_is_abstract(tree):
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


def _modifier_word(node):
    if node.is_leaf():
        return node.token
    for leaf in node.leaves():
        if leaf.node_type == "KEYWORD":
            return leaf.token
    return None


def oracle_has_override_annotation(tree):
    for node in tree.preorder():
        if node.node_type == "ANNOTATION":
            for leaf in node.leaves():
                if leaf.node_type == "IDENTIFIER" and leaf.token == "Override":
                    return True
    return False
