"""Recursive descent parser for the Java-like subset.

Builds lossless concrete syntax trees: every token, including whitespace and
comments, becomes a leaf. As with IntelliJ's PsiBuilder, productions pass no
child lists; they drive one stack of open nodes. `_open()` starts a node,
`_wrap()` starts one around the node just completed (a left operand or a
receiver), and `_close(kind)` ends the innermost node and appends it to its
parent. Tokens are consumed only by `_advance`, directly where the caller
has just checked the token, or through `_expect(text)` and `_name(what)`
where it may be missing. Trivia stays with the enclosing node: `_open` and
`_advance` first move pending whitespace and comments into the innermost
open node.

Every chain is a loop that keeps its nodes open until the chain ends: an
`else if` opens its IF_STMT inside the previous one, prefix operators open
UNARY_EXPRs, and binary operators and `=` wrap the operand before them. No
function calls itself; only nesting (a block in a block, an expression in
parentheses, an index or an argument list) deepens Python's stack, and past
MAX_NESTING open statements and expressions the parse fails with a
ParseError instead of reaching the recursion limit.

Parsing is single-pass. The parser keeps an index of the significant
(non-trivia) tokens, so a lookahead of k tokens is one list lookup; it looks
one token ahead, plus a bounded scan to tell constructors from methods and
declarations from expression statements. Token columns, needed only for
error messages, are worked out when an error is raised.
"""

from .cst import CstKind, CstNode, SourceSpan, TRIVIA_KINDS
from .errors import ParseError
from .lexer import MODIFIER_KEYWORDS, PRIMITIVE_TYPE_KEYWORDS, tokenize

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

# How many `_statement` and `_expression` calls may be open at once. Each
# level of nesting costs at most four Python frames (a call argument:
# `_expression`, `_unary`, `_primary`, `_list`), so the limit keeps the parser
# about 800 frames deep, under the default recursion limit of 1000.
MAX_NESTING = 200


def parse_file(source: str, path: str = "<memory>") -> CstNode:
    """Parse one source file into a FILE-rooted lossless CST.

    Raises LexError/ParseError; callers batch-processing files should catch
    both, record the failure, and move on. `path` names the source for the
    caller and does not change the tree.
    """
    return _Parser(tokenize(source))._file()


class _Parser:
    def __init__(self, tokens: list[CstNode]):
        self.tokens = tokens
        self.pos = 0  # next unconsumed token, trivia included
        # Significant tokens and their indices in `tokens`; `_sig_pos`
        # indexes both and always points at the next significant token.
        self._sig_index = [i for i, tok in enumerate(tokens)
                           if tok.kind not in TRIVIA_KINDS]
        self._sig = [tokens[i] for i in self._sig_index]
        self._sig_index.append(len(tokens))
        self._sig_pos = 0
        last = tokens[-1].span if tokens else SourceSpan(0, 0, 1, 1)
        self._end = SourceSpan(last.byte_offset_end, last.byte_offset_end,
                               last.line_end, last.line_end)
        # The children of each open node, innermost last. The bottom list
        # receives the FILE node, which is open from the first token on.
        self._stack: list[list[CstNode]] = [[], []]
        self._depth = 0  # open `_statement` and `_expression` calls

    # -- token stream and node stack ------------------------------------------

    def _peek(self, offset: int = 0) -> CstNode | None:
        """The (offset+1)-th significant token ahead, skipping trivia."""
        i = self._sig_pos + offset
        return self._sig[i] if i < len(self._sig) else None

    def _peek_text(self, offset: int = 0) -> str | None:
        tok = self._peek(offset)
        return tok.text if tok is not None else None

    def _at(self, text: str) -> bool:
        return self._peek_text() == text

    def _flush_trivia(self) -> None:
        end = self._sig_index[self._sig_pos]
        if end > self.pos:
            self._stack[-1].extend(self.tokens[self.pos:end])
            self.pos = end

    def _advance(self) -> CstNode:
        self._flush_trivia()
        tok = self.tokens[self.pos]
        self.pos += 1
        self._sig_pos += 1
        self._stack[-1].append(tok)
        return tok

    def _expect(self, text: str) -> None:
        if not self._at(text):
            self._fail(f"'{text}'")
        self._advance()

    def _name(self, what: str) -> CstNode:
        if not self._is_identifier(self._peek()):
            self._fail(what)
        return self._advance()

    def _nest(self) -> None:
        # the caller lowers `_depth` again when it returns
        self._depth += 1
        if self._depth > MAX_NESTING:
            self._fail(f"at most {MAX_NESTING} levels of nesting")

    def _open(self) -> None:
        self._flush_trivia()
        self._stack.append([])

    def _wrap(self) -> None:
        self._stack.append([self._stack[-1].pop()])

    def _close(self, kind: CstKind) -> None:
        children = self._stack.pop()
        if children:
            first, last = children[0].span, children[-1].span
            span = SourceSpan(first.byte_offset_start, last.byte_offset_end,
                              first.line_start, last.line_end)
        else:  # zero-width, at the next unconsumed token
            at = (self.tokens[self.pos].span if self.pos < len(self.tokens)
                  else self._end)
            span = SourceSpan(at.byte_offset_start, at.byte_offset_start,
                              at.line_start, at.line_start)
        self._stack[-1].append(CstNode(kind, span, children=children))

    def _fail(self, expected: str):
        tok = self._peek()
        if tok is None:
            raise ParseError(self._end.line_start, 1, expected, "end of file")
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

    # -- declarations ---------------------------------------------------------

    def _file(self) -> CstNode:
        while True:
            tok = self._peek()
            if tok is None:
                break
            if tok.kind is CstKind.KEYWORD and (
                    tok.text == "class" or tok.text in MODIFIER_KEYWORDS):
                self._class_decl()
            elif tok.kind is CstKind.IDENTIFIER and tok.text in ("package", "import"):
                # header lines are kept as raw leaf tokens, not parsed
                while not self._at(";"):
                    if self._peek() is None:
                        self._fail("';'")
                    self._advance()
                self._advance()
            else:
                self._fail("class declaration")
        self._flush_trivia()
        self._close(CstKind.FILE)
        return self._stack[0][0]

    def _class_decl(self) -> None:
        self._open()
        self._modifier_list(allow_annotations=False)
        self._expect("class")
        name = self._name("class name").text
        if self._at("extends"):
            self._advance()
            self._type_ref()
        if self._at("implements"):
            self._advance()
            self._type_ref()
            while self._at(","):
                self._advance()
                self._type_ref()
        self._expect("{")
        while True:
            tok = self._peek()
            if tok is None:
                self._fail("'}'")
            if tok.text == "}":
                break
            self._member(name)
        self._advance()
        self._close(CstKind.CLASS_DECL)

    def _modifier_list(self, allow_annotations: bool) -> None:
        self._open()
        while True:
            tok = self._peek()
            if tok is None:
                break
            if tok.kind is CstKind.KEYWORD and tok.text in MODIFIER_KEYWORDS:
                self._open()
                self._advance()
                self._close(CstKind.MODIFIER)
            elif allow_annotations and tok.text == "@":
                self._open()
                self._advance()
                self._name("annotation name")
                self._close(CstKind.ANNOTATION)
            else:
                break
        self._close(CstKind.MODIFIER_LIST)

    def _member(self, class_name: str | None) -> None:
        self._open()
        self._modifier_list(allow_annotations=True)
        first = self._peek()
        second = self._peek(1)
        if (first is not None and first.kind is CstKind.IDENTIFIER
                and first.text == class_name
                and second is not None and second.text == "("):
            self._advance()
            self._list(CstKind.PARAMETER_LIST, self._parameter)
            self._code_block()
            self._close(CstKind.CONSTRUCTOR_DECL)
            return

        self._type_ref()
        self._name("identifier")
        if self._at("("):
            self._list(CstKind.PARAMETER_LIST, self._parameter)
            if self._at("{"):
                self._code_block()
            elif self._at(";"):
                self._advance()
            else:
                self._fail("method body or ';'")
            self._close(CstKind.METHOD_DECL)
            return
        if self._at("="):
            self._advance()
            self._expression()
        self._expect(";")
        self._close(CstKind.FIELD_DECL)

    def _type_ref(self) -> None:
        self._open()
        tok = self._peek()
        if tok is None:
            self._fail("type")
        if tok.kind is CstKind.KEYWORD and tok.text in _TYPE_START_KEYWORDS:
            self._advance()
        elif tok.kind is CstKind.IDENTIFIER:
            self._advance()
            while self._at(".") and self._is_identifier(self._peek(1)):
                self._advance()
                self._advance()
        else:
            self._fail("type")
        if self._at("<"):
            self._advance()
            depth = 1
            while depth > 0:
                inner = self._peek()
                if inner is None or inner.text in (";", "{", "}", "(", ")", "="):
                    self._fail("'>'")
                if inner.text == "<":
                    depth += 1
                elif inner.text == ">":
                    depth -= 1
                self._advance()
        while self._at("[") and self._peek_text(1) == "]":
            self._advance()
            self._advance()
        self._close(CstKind.TYPE_REF)

    def _list(self, kind: CstKind, item) -> None:
        """'(' (item (',' item)*)? ')': a parameter or an argument list."""
        self._open()
        self._expect("(")
        if not self._at(")"):
            item()
            while self._at(","):
                self._advance()
                item()
        self._expect(")")
        self._close(kind)

    def _parameter(self) -> None:
        self._open()
        self._type_ref()
        self._name("parameter name")
        self._close(CstKind.PARAMETER)

    # -- statements -----------------------------------------------------------

    def _code_block(self) -> None:
        self._open()
        self._expect("{")
        while True:
            tok = self._peek()
            if tok is None:
                self._fail("'}'")
            if tok.text == "}":
                break
            self._statement()
        self._advance()
        self._close(CstKind.CODE_BLOCK)

    def _statement(self) -> None:
        self._nest()
        tok = self._peek()
        if tok is None:
            self._fail("statement")
        keyword = tok.text if tok.kind is CstKind.KEYWORD else None
        if keyword == "if":
            self._if_stmt()
        elif keyword == "while":
            self._while_stmt()
        elif keyword == "for":
            self._for_stmt()
        elif keyword == "return":
            self._return_stmt()
        elif self._looks_like_decl():
            self._local_var_decl()
        elif tok.text == "{":
            self._code_block()
        elif keyword is None or keyword == "new":
            self._expr_stmt()
        else:
            self._fail("statement")
        self._depth -= 1

    def _looks_like_decl(self) -> bool:
        # A primitive type keyword, or IDENT ('.' IDENT)* ('<' balanced '>')?
        # ('[' ']')* IDENT, marks a local variable declaration.
        first = self._peek()  # callers have checked that there is one
        if first.kind is CstKind.KEYWORD:
            return first.text in PRIMITIVE_TYPE_KEYWORDS
        if first.kind is not CstKind.IDENTIFIER:
            return False
        j = 1
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
                elif not (tok.kind is CstKind.IDENTIFIER
                          or tok.text in (",", ".", "[", "]")
                          or (tok.kind is CstKind.KEYWORD
                              and tok.text in PRIMITIVE_TYPE_KEYWORDS)):
                    return False
                j += 1
        while self._peek_text(j) == "[" and self._peek_text(j + 1) == "]":
            j += 2
        return self._is_identifier(self._peek(j))

    @staticmethod
    def _is_identifier(tok: CstNode | None) -> bool:
        return tok is not None and tok.kind is CstKind.IDENTIFIER

    def _local_var_decl(self) -> None:
        self._open()
        self._type_ref()
        self._name("variable name")
        if self._at("="):
            self._advance()
            self._expression()
        self._expect(";")
        self._close(CstKind.LOCAL_VAR_DECL)

    def _if_stmt(self) -> None:
        # An `else if` opens its IF_STMT inside the previous one; all of
        # them close when the chain ends.
        depth = 0
        while True:
            self._open()
            depth += 1
            self._advance()
            self._expect("(")
            self._expression()
            self._expect(")")
            self._statement()
            if not self._at("else"):
                break
            self._advance()
            if not self._at("if"):
                self._statement()
                break
        for _ in range(depth):
            self._close(CstKind.IF_STMT)

    def _while_stmt(self) -> None:
        self._open()
        self._advance()
        self._expect("(")
        self._expression()
        self._expect(")")
        self._statement()
        self._close(CstKind.WHILE_STMT)

    def _for_stmt(self) -> None:
        self._open()
        self._advance()
        self._expect("(")
        tok = self._peek()
        if tok is None:
            self._fail("for initializer")
        if tok.text == ";":
            self._advance()
        elif self._looks_like_decl():
            self._local_var_decl()
        else:
            self._expr_stmt()
        if not self._at(";"):
            self._expression()
        self._expect(";")
        if not self._at(")"):
            self._expression()
        self._expect(")")
        self._statement()
        self._close(CstKind.FOR_STMT)

    def _return_stmt(self) -> None:
        self._open()
        self._advance()
        if not self._at(";"):
            self._expression()
        self._expect(";")
        self._close(CstKind.RETURN_STMT)

    def _expr_stmt(self) -> None:
        self._open()
        self._expression()
        self._expect(";")
        self._close(CstKind.EXPR_STMT)

    # -- expressions ----------------------------------------------------------

    def _expression(self) -> None:
        """Operands joined by binary operators, grouped to the left, and by
        `=`, grouped to the right. A binary operator first closes the open
        BINARY_EXPRs that bind at least as tight; `=` closes them all, and
        its ASSIGNMENT_EXPRs close when the whole chain ends."""
        self._nest()
        binaries: list[int] = []
        assignments = 0
        while True:
            self._unary()
            text = self._peek_text()
            precedence = _BINARY_PRECEDENCE.get(text, -1)
            while binaries and binaries[-1] >= precedence:
                binaries.pop()
                self._close(CstKind.BINARY_EXPR)
            if precedence >= 0:
                binaries.append(precedence)
            elif text == "=":
                assignments += 1
            else:
                break
            self._wrap()
            self._advance()
        for _ in range(assignments):
            self._close(CstKind.ASSIGNMENT_EXPR)
        self._depth -= 1

    def _unary(self) -> None:
        """Prefix operators, then a primary with its member, call and index
        suffixes; the suffixes bind tighter than the prefixes."""
        prefixes = 0
        while self._peek_text() in ("-", "!"):
            self._open()
            self._advance()
            prefixes += 1
        self._primary()
        while True:
            if self._at(".") and self._is_identifier(self._peek(1)):
                is_call = self._peek_text(2) == "("
                self._wrap()
                self._advance()
                self._advance()
                if is_call:
                    self._list(CstKind.ARGUMENT_LIST, self._expression)
                    self._close(CstKind.METHOD_CALL)
                else:
                    self._close(CstKind.REFERENCE_EXPR)
            elif self._at("["):
                self._wrap()
                self._advance()
                self._expression()
                self._expect("]")
                self._close(CstKind.ARRAY_ACCESS_EXPR)
            else:
                break
        for _ in range(prefixes):
            self._close(CstKind.UNARY_EXPR)

    def _primary(self) -> None:
        tok = self._peek()
        if tok is None:
            self._fail("expression")
        if tok.kind is CstKind.LITERAL:
            # a bare leaf of the enclosing expression
            self._advance()
        elif tok.kind is CstKind.IDENTIFIER:
            self._open()
            self._advance()
            if self._at("("):
                self._list(CstKind.ARGUMENT_LIST, self._expression)
                self._close(CstKind.METHOD_CALL)
            else:
                self._close(CstKind.REFERENCE_EXPR)
        elif tok.text == "(":
            self._open()
            self._advance()
            self._expression()
            self._expect(")")
            self._close(CstKind.PAREN_EXPR)
        elif tok.text == "new":
            self._open()
            self._advance()
            self._type_ref()
            self._list(CstKind.ARGUMENT_LIST, self._expression)
            self._close(CstKind.NEW_EXPR)
        else:
            self._fail("expression")
