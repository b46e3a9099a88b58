"""Reference parser with per-production child lists, used only by tests.

This is the earlier form of the parser: every production builds its own
list of children and hands it to `_node`, `_sub` moves pending trivia into
the list of the enclosing production, and `else if` chains recurse. The
production parser keeps one stack of open nodes instead, so agreement on
the same inputs, trees and errors alike, checks that the stack opens,
wraps and closes nodes, and places trivia, exactly as this one did. It
shares the production lexer.
"""

from typing import Callable

from treemine.cst import CstKind, CstNode, SourceSpan, TRIVIA_KINDS
from treemine.errors import ParseError
from treemine.lexer import MODIFIER_KEYWORDS, PRIMITIVE_TYPE_KEYWORDS, tokenize

_TYPE_START_KEYWORDS = PRIMITIVE_TYPE_KEYWORDS | {"void"}

# Binary operator precedence; a larger number binds tighter. All binary
# operators are left-associative.
_BINARY_PRECEDENCE = {
    "||": 0,
    "&&": 1,
    "==": 2, "!=": 2,
    "<": 3, "<=": 3, ">": 3, ">=": 3,
    "+": 4, "-": 4,
    "*": 5, "/": 5, "%": 5,
}


def parse_file(source: str, path: str = "<memory>") -> CstNode:
    """Parse one source file into a FILE-rooted lossless CST.

    Raises LexError/ParseError; callers batch-processing files should catch
    both, record the failure, and move on.
    """
    return _Parser(tokenize(source), path).parse_file()


class _Parser:
    def __init__(self, tokens: list[CstNode], path: str):
        self.tokens = tokens
        self.path = path
        self.pos = 0  # next unconsumed token, trivia included
        # Significant tokens and their indices in `tokens`; `_sig_pos`
        # indexes both and always points at the next significant token.
        self._sig_index = [i for i, tok in enumerate(tokens)
                           if tok.kind not in TRIVIA_KINDS]
        self._sig = [tokens[i] for i in self._sig_index]
        self._sig_index.append(len(tokens))
        self._sig_pos = 0
        self._end_line = tokens[-1].span.line_end if tokens else 1

    # -- token stream helpers -------------------------------------------------

    def _peek(self, offset: int = 0) -> CstNode | None:
        """The (offset+1)-th significant token ahead, skipping trivia."""
        i = self._sig_pos + offset
        return self._sig[i] if i < len(self._sig) else None

    def _peek_text(self, offset: int = 0) -> str | None:
        tok = self._peek(offset)
        return tok.text if tok is not None else None

    def _at(self, text: str) -> bool:
        return self._peek_text() == text

    def _flush_trivia(self, children: list[CstNode]) -> None:
        end = self._sig_index[self._sig_pos]
        if end > self.pos:
            children.extend(self.tokens[self.pos:end])
            self.pos = end

    def _advance(self, children: list[CstNode]) -> CstNode:
        self._flush_trivia(children)
        if self.pos >= len(self.tokens):
            self._fail("more input")
        tok = self.tokens[self.pos]
        self.pos += 1
        self._sig_pos += 1
        children.append(tok)
        return tok

    def _expect(self, children: list[CstNode], expected: str,
                kind: str | None = None, text: str | None = None) -> CstNode:
        tok = self._peek()
        if tok is None:
            self._fail(expected)
        if kind is not None and tok.kind != kind:
            self._fail(expected)
        if text is not None and tok.text != text:
            self._fail(expected)
        return self._advance(children)

    def _fail(self, expected: str):
        tok = self._peek()
        if tok is None:
            # where the file ends: after its last newline and character
            source = "".join(t.text for t in self.tokens)
            raise ParseError(source.count("\n") + 1,
                             self._column(len(self.tokens)),
                             expected, "end of file")
        raise ParseError(tok.span.line_start,
                         self._column(self._sig_index[self._sig_pos]),
                         expected, repr(tok.text))

    def _column(self, index: int) -> int:
        """1-based character column where token `index` starts."""
        width = 0
        for tok in reversed(self.tokens[:index]):
            text = tok.text or ""
            newline = text.rfind("\n")
            if newline != -1:
                return width + len(text) - newline
            width += len(text)
        return width + 1

    def _sub(self, children: list[CstNode], parse: Callable[[], CstNode]) -> CstNode:
        """Parse a child node, attaching its leading trivia to `children`."""
        self._flush_trivia(children)
        node = parse()
        children.append(node)
        return node

    def _node(self, kind: str, children: list[CstNode]) -> CstNode:
        if not children:
            return self._empty_node(kind)
        span = SourceSpan(children[0].span.line_start,
                          children[-1].span.line_end)
        return CstNode(kind, span, children=children)

    def _empty_node(self, kind: str) -> CstNode:
        # Zero-width node anchored at the next unconsumed position.
        if self.pos < len(self.tokens):
            line = self.tokens[self.pos].span.line_start
        else:
            line = self._end_line
        return CstNode(kind, SourceSpan(line, line))

    # -- declarations ---------------------------------------------------------

    def parse_file(self) -> CstNode:
        children: list[CstNode] = []
        while True:
            tok = self._peek()
            if tok is None:
                break
            if tok.kind == CstKind.KEYWORD and (
                    tok.text == "class" or tok.text in MODIFIER_KEYWORDS):
                self._sub(children, self._class_decl)
            elif tok.kind == CstKind.IDENTIFIER and tok.text in ("package", "import"):
                # header lines are kept as raw leaf tokens, not parsed
                while not self._at(";"):
                    if self._peek() is None:
                        self._fail("';'")
                    self._advance(children)
                self._expect(children, "';'", text=";")
            else:
                self._fail("class declaration")
        self._flush_trivia(children)
        if not children:
            return CstNode(CstKind.FILE, SourceSpan(1, 1))
        return self._node(CstKind.FILE, children)

    def _class_decl(self) -> CstNode:
        children: list[CstNode] = []
        children.append(self._modifier_list(allow_annotations=False))
        self._expect(children, "'class'", kind=CstKind.KEYWORD, text="class")
        name = self._expect(children, "class name", kind=CstKind.IDENTIFIER)
        if self._at("extends"):
            self._expect(children, "'extends'", kind=CstKind.KEYWORD)
            self._sub(children, self._type_ref)
        if self._at("implements"):
            self._expect(children, "'implements'", kind=CstKind.KEYWORD)
            self._sub(children, self._type_ref)
            while self._at(","):
                self._expect(children, "','", text=",")
                self._sub(children, self._type_ref)
        self._expect(children, "'{'", text="{")
        while True:
            tok = self._peek()
            if tok is None:
                self._fail("'}'")
            if tok.text == "}":
                break
            self._sub(children, lambda: self._member(name.text))
        self._expect(children, "'}'", text="}")
        return self._node(CstKind.CLASS_DECL, children)

    def _modifier_list(self, allow_annotations: bool) -> CstNode:
        children: list[CstNode] = []
        while True:
            tok = self._peek()
            if tok is None:
                break
            if tok.kind == CstKind.KEYWORD and tok.text in MODIFIER_KEYWORDS:
                self._flush_trivia(children)
                inner: list[CstNode] = []
                self._advance(inner)
                children.append(self._node(CstKind.MODIFIER, inner))
            elif allow_annotations and tok.text == "@":
                self._flush_trivia(children)
                inner = []
                self._expect(inner, "'@'", text="@")
                self._expect(inner, "annotation name", kind=CstKind.IDENTIFIER)
                children.append(self._node(CstKind.ANNOTATION, inner))
            else:
                break
        return self._node(CstKind.MODIFIER_LIST, children)

    def _member(self, class_name: str | None) -> CstNode:
        children: list[CstNode] = []
        children.append(self._modifier_list(allow_annotations=True))
        first = self._peek()
        second = self._peek(1)
        if (first is not None and first.kind == CstKind.IDENTIFIER
                and first.text == class_name
                and second is not None and second.text == "("):
            self._expect(children, "constructor name", kind=CstKind.IDENTIFIER)
            self._sub(children, self._parameter_list)
            self._sub(children, self._code_block)
            return self._node(CstKind.CONSTRUCTOR_DECL, children)

        self._sub(children, self._type_ref)
        self._expect(children, "identifier", kind=CstKind.IDENTIFIER)
        if self._at("("):
            self._sub(children, self._parameter_list)
            if self._at("{"):
                self._sub(children, self._code_block)
            else:
                self._expect(children, "method body or ';'", text=";")
            return self._node(CstKind.METHOD_DECL, children)
        if self._at("="):
            self._expect(children, "'='", kind=CstKind.OPERATOR, text="=")
            self._sub(children, self._expression)
        self._expect(children, "';'", text=";")
        return self._node(CstKind.FIELD_DECL, children)

    def _type_ref(self) -> CstNode:
        children: list[CstNode] = []
        tok = self._peek()
        if tok is None:
            self._fail("type")
        if tok.kind == CstKind.KEYWORD and tok.text in _TYPE_START_KEYWORDS:
            self._advance(children)
        elif tok.kind == CstKind.IDENTIFIER:
            self._advance(children)
            while self._at(".") and self._is_identifier(self._peek(1)):
                self._expect(children, "'.'", text=".")
                self._expect(children, "type name", kind=CstKind.IDENTIFIER)
        else:
            self._fail("type")
        if self._at("<"):
            self._expect(children, "'<'", kind=CstKind.OPERATOR, text="<")
            depth = 1
            while depth > 0:
                inner = self._peek()
                if inner is None:
                    self._fail("'>'")
                if inner.text == "<":
                    depth += 1
                elif inner.text == ">":
                    depth -= 1
                elif not (inner.kind == CstKind.IDENTIFIER
                          or inner.text in (",", ".", "[", "]")
                          or (inner.kind == CstKind.KEYWORD
                              and inner.text in PRIMITIVE_TYPE_KEYWORDS)):
                    self._fail("'>'")
                self._advance(children)
        while self._at("[") and self._peek_text(1) == "]":
            self._expect(children, "'['", text="[")
            self._expect(children, "']'", text="]")
        return self._node(CstKind.TYPE_REF, children)

    def _parameter_list(self) -> CstNode:
        children: list[CstNode] = []
        self._expect(children, "'('", text="(")
        if not self._at(")"):
            self._sub(children, self._parameter)
            while self._at(","):
                self._expect(children, "','", text=",")
                self._sub(children, self._parameter)
        self._expect(children, "')'", text=")")
        return self._node(CstKind.PARAMETER_LIST, children)

    def _parameter(self) -> CstNode:
        children: list[CstNode] = []
        self._sub(children, self._type_ref)
        self._expect(children, "parameter name", kind=CstKind.IDENTIFIER)
        return self._node(CstKind.PARAMETER, children)

    # -- statements -----------------------------------------------------------

    def _code_block(self) -> CstNode:
        children: list[CstNode] = []
        self._expect(children, "'{'", text="{")
        while True:
            tok = self._peek()
            if tok is None:
                self._fail("'}'")
            if tok.text == "}":
                break
            self._sub(children, self._statement)
        self._expect(children, "'}'", text="}")
        return self._node(CstKind.CODE_BLOCK, children)

    def _statement(self) -> CstNode:
        tok = self._peek()
        if tok is None:
            self._fail("statement")
        if tok.kind == CstKind.KEYWORD:
            if tok.text == "if":
                return self._if_stmt()
            if tok.text == "while":
                return self._while_stmt()
            if tok.text == "for":
                return self._for_stmt()
            if tok.text == "return":
                return self._return_stmt()
            if tok.text in PRIMITIVE_TYPE_KEYWORDS:
                return self._local_var_decl()
            if tok.text == "new":
                return self._expr_stmt()
            self._fail("statement")
        if tok.text == "{":
            return self._code_block()
        if tok.kind == CstKind.IDENTIFIER and self._looks_like_decl():
            return self._local_var_decl()
        return self._expr_stmt()

    def _looks_like_decl(self) -> bool:
        # IDENT ('.' IDENT)* ('<' balanced '>')? ('[' ']')* IDENT marks the
        # statement as a local variable declaration.
        j = 0
        if not self._is_identifier(self._peek(j)):
            return False
        j += 1
        while self._peek_text(j) == "." and self._is_identifier(self._peek(j + 1)):
            j += 2
        if self._peek_text(j) == "<":
            depth = 1
            j += 1
            while depth > 0:
                tok = self._peek(j)
                if tok is None:
                    return False
                if tok.text == "<":
                    depth += 1
                elif tok.text == ">":
                    depth -= 1
                elif not (tok.kind == CstKind.IDENTIFIER
                          or tok.text in (",", ".", "[", "]")
                          or (tok.kind == CstKind.KEYWORD
                              and tok.text in PRIMITIVE_TYPE_KEYWORDS)):
                    return False
                j += 1
        while self._peek_text(j) == "[" and self._peek_text(j + 1) == "]":
            j += 2
        return self._is_identifier(self._peek(j))

    @staticmethod
    def _is_identifier(tok: CstNode | None) -> bool:
        return tok is not None and tok.kind == CstKind.IDENTIFIER

    def _local_var_decl(self) -> CstNode:
        children: list[CstNode] = []
        self._sub(children, self._type_ref)
        self._expect(children, "variable name", kind=CstKind.IDENTIFIER)
        if self._at("="):
            self._expect(children, "'='", kind=CstKind.OPERATOR, text="=")
            self._sub(children, self._expression)
        self._expect(children, "';'", text=";")
        return self._node(CstKind.LOCAL_VAR_DECL, children)

    def _if_stmt(self) -> CstNode:
        children: list[CstNode] = []
        self._expect(children, "'if'", kind=CstKind.KEYWORD, text="if")
        self._expect(children, "'('", text="(")
        self._sub(children, self._expression)
        self._expect(children, "')'", text=")")
        self._sub(children, self._statement)
        if self._at("else"):
            self._expect(children, "'else'", kind=CstKind.KEYWORD)
            self._sub(children, self._statement)
        return self._node(CstKind.IF_STMT, children)

    def _while_stmt(self) -> CstNode:
        children: list[CstNode] = []
        self._expect(children, "'while'", kind=CstKind.KEYWORD, text="while")
        self._expect(children, "'('", text="(")
        self._sub(children, self._expression)
        self._expect(children, "')'", text=")")
        self._sub(children, self._statement)
        return self._node(CstKind.WHILE_STMT, children)

    def _for_stmt(self) -> CstNode:
        children: list[CstNode] = []
        self._expect(children, "'for'", kind=CstKind.KEYWORD, text="for")
        self._expect(children, "'('", text="(")
        tok = self._peek()
        if tok is None:
            self._fail("for initializer")
        if tok.text == ";":
            self._expect(children, "';'", text=";")
        elif ((tok.kind == CstKind.KEYWORD and tok.text in PRIMITIVE_TYPE_KEYWORDS)
              or (tok.kind == CstKind.IDENTIFIER and self._looks_like_decl())):
            self._sub(children, self._local_var_decl)
        else:
            self._sub(children, self._expr_stmt)
        if not self._at(";"):
            self._sub(children, self._expression)
        self._expect(children, "';'", text=";")
        if not self._at(")"):
            self._sub(children, self._expression)
        self._expect(children, "')'", text=")")
        self._sub(children, self._statement)
        return self._node(CstKind.FOR_STMT, children)

    def _return_stmt(self) -> CstNode:
        children: list[CstNode] = []
        self._expect(children, "'return'", kind=CstKind.KEYWORD, text="return")
        if not self._at(";"):
            self._sub(children, self._expression)
        self._expect(children, "';'", text=";")
        return self._node(CstKind.RETURN_STMT, children)

    def _expr_stmt(self) -> CstNode:
        children: list[CstNode] = []
        self._sub(children, self._expression)
        self._expect(children, "';'", text=";")
        return self._node(CstKind.EXPR_STMT, children)

    # -- expressions ----------------------------------------------------------

    def _expression(self) -> CstNode:
        left = self._binary(0)
        if self._at("="):
            children = [left]
            self._expect(children, "'='", kind=CstKind.OPERATOR, text="=")
            self._sub(children, self._expression)
            return self._node(CstKind.ASSIGNMENT_EXPR, children)
        return left

    def _binary(self, min_precedence: int) -> CstNode:
        """An operand and the binary operators that follow it and bind at
        least as tight as `min_precedence`, grouped to the left."""
        left = self._unary()
        while True:
            tok = self._peek()
            if tok is None or tok.kind != CstKind.OPERATOR:
                return left
            precedence = _BINARY_PRECEDENCE.get(tok.text)
            if precedence is None or precedence < min_precedence:
                return left
            children = [left]
            self._advance(children)
            self._flush_trivia(children)
            children.append(self._binary(precedence + 1))
            left = self._node(CstKind.BINARY_EXPR, children)

    def _unary(self) -> CstNode:
        tok = self._peek()
        if tok is not None and tok.kind == CstKind.OPERATOR and tok.text in ("-", "!"):
            children: list[CstNode] = []
            self._advance(children)
            self._sub(children, self._unary)
            return self._node(CstKind.UNARY_EXPR, children)
        return self._postfix()

    def _postfix(self) -> CstNode:
        expr = self._primary()
        while True:
            if self._at(".") and self._is_identifier(self._peek(1)):
                is_call = self._peek_text(2) == "("
                children = [expr]
                self._expect(children, "'.'", text=".")
                self._expect(children, "member name", kind=CstKind.IDENTIFIER)
                if is_call:
                    self._sub(children, self._argument_list)
                    expr = self._node(CstKind.METHOD_CALL, children)
                else:
                    expr = self._node(CstKind.REFERENCE_EXPR, children)
            elif self._at("["):
                children = [expr]
                self._expect(children, "'['", text="[")
                self._sub(children, self._expression)
                self._expect(children, "']'", text="]")
                expr = self._node(CstKind.ARRAY_ACCESS_EXPR, children)
            else:
                return expr

    def _primary(self) -> CstNode:
        tok = self._peek()
        if tok is None:
            self._fail("expression")
        if tok.kind == CstKind.LITERAL:
            # Callers pre-flush trivia, so the literal token is next in the
            # stream and becomes a bare leaf of the enclosing expression.
            leaf = self.tokens[self.pos]
            assert leaf.kind == CstKind.LITERAL
            self.pos += 1
            self._sig_pos += 1
            return leaf
        if tok.kind == CstKind.IDENTIFIER:
            children = []
            self._expect(children, "identifier", kind=CstKind.IDENTIFIER)
            if self._at("("):
                self._sub(children, self._argument_list)
                return self._node(CstKind.METHOD_CALL, children)
            return self._node(CstKind.REFERENCE_EXPR, children)
        if tok.text == "(":
            children = []
            self._expect(children, "'('", text="(")
            self._sub(children, self._expression)
            self._expect(children, "')'", text=")")
            return self._node(CstKind.PAREN_EXPR, children)
        if tok.text == "new":
            children = []
            self._expect(children, "'new'", kind=CstKind.KEYWORD, text="new")
            self._sub(children, self._type_ref)
            self._sub(children, self._argument_list)
            return self._node(CstKind.NEW_EXPR, children)
        self._fail("expression")

    def _argument_list(self) -> CstNode:
        children: list[CstNode] = []
        self._expect(children, "'('", text="(")
        if not self._at(")"):
            self._sub(children, self._expression)
            while self._at(","):
                self._expect(children, "','", text=",")
                self._sub(children, self._expression)
        self._expect(children, "')'", text=")")
        return self._node(CstKind.ARGUMENT_LIST, children)
