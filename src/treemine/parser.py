"""Recursive descent parser for the Java-like subset.

The parser builds no tree. As with IntelliJ's PsiBuilder, it marks node
ranges over the token arrays of `lexer.scan` and records one marker per
node, `(kind, first token, end token, child-node count)`, in the order the
nodes complete: postorder, the FILE node last. Token indices count trivia.
The FILE node spans every token, and any other node runs from its first
significant token to just past its last one, so whitespace and comments
belong to the innermost node whose range holds them. `parse_file` builds
the lossless CST from the markers; `ast_builder.build` builds the AST from
them directly.

Productions drive one stack of open nodes. `_open()` starts a node at the
next token, `_wrap()` starts one at the start of the element just completed
(a left operand or a receiver, as `Marker.precede()` does), and
`_close(kind)` ends the innermost node. Tokens are consumed only by
`_advance`, directly where the caller has just checked the token, or
through `_expect(text)` and `_name(what)` where it may be missing.

Every chain is a loop that keeps its nodes open until the chain ends: an
`else if` opens its IF_STMT inside the previous one, prefix operators open
UNARY_EXPRs, and binary operators and `=` wrap the operand before them. No
function calls itself; only nesting (a block in a block, an expression in
parentheses, an index or an argument list) deepens Python's stack, and past
MAX_NESTING open statements and expressions the parse fails with a
ParseError instead of reaching the recursion limit.

Parsing is single-pass over the significant (non-trivia) tokens, read as
(kind, text) pairs, so a lookahead of k tokens is one list lookup; it looks
one token ahead, plus a bounded scan to tell constructors from methods and
declarations from expression statements. Token columns, needed only for
error messages, are worked out when an error is raised.
"""

from .cst import CstKind, CstNode, Marker, Tokens, TRIVIA_KINDS
from .errors import ParseError
from .lexer import MODIFIER_KEYWORDS, PRIMITIVE_TYPE_KEYWORDS, scan

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


# Two of these follow the last significant token; no lookahead reaches
# further.
_END_OF_FILE = (None, None)


def parse(tokens: Tokens) -> list[Marker]:
    """The markers of a scanned file, in postorder; raises ParseError."""
    return _Parser(tokens)._file()


def parse_file(source: str, path: str = "<memory>") -> CstNode:
    """Parse one source file into a FILE-rooted lossless CST.

    Raises LexError/ParseError; callers batch-processing files should catch
    both, record the failure, and move on. `path` names the source for the
    caller and does not change the tree.
    """
    tokens = scan(source)
    leaves = tokens.leaves()
    # (first, end, node) of the completed nodes whose parent is still open
    done: list[tuple[int, int, CstNode]] = []
    for kind, first, end, count in parse(tokens):
        children: list[CstNode] = []
        pos = first
        for child_first, child_end, child in done[len(done) - count:]:
            children += leaves[pos:child_first]
            children.append(child)
            pos = child_end
        del done[len(done) - count:]
        children += leaves[pos:end]
        done.append((first, end,
                     CstNode(kind, tokens.span(first, end), None, children)))
    return done[0][2]


class _Parser:
    def __init__(self, tokens: Tokens):
        self.tokens = tokens
        kinds, texts = tokens.kinds, tokens.texts
        # Significant tokens as (kind, text) pairs, and their indices in
        # `tokens`; `_pos` indexes both and points at the next one.
        self._index = [i for i, kind in enumerate(kinds)
                       if kind not in TRIVIA_KINDS]
        self._sig = [(kinds[i], texts[i]) for i in self._index]
        self._sig += (_END_OF_FILE, _END_OF_FILE)
        self._index.append(len(kinds))
        self._pos = 0
        self.markers: list[Marker] = []
        # The first significant token of each open node and how many child
        # nodes it has so far, innermost last; the bottom entry is the FILE
        # node, open from the first token on.
        self._firsts = [0]
        self._counts = [0]
        # where the element completed last starts, and whether it is a node
        self._last = 0
        self._last_is_node = False
        self._depth = 0  # open `_statement` and `_expression` calls

    # -- token stream and node stack ------------------------------------------

    def _peek(self, offset: int = 0) -> tuple[CstKind | None, str | None]:
        """The (offset+1)-th significant token ahead, as (kind, text)."""
        return self._sig[self._pos + offset]

    def _peek_text(self, offset: int = 0) -> str | None:
        return self._sig[self._pos + offset][1]

    def _at(self, text: str) -> bool:
        return self._sig[self._pos][1] == text

    def _advance(self) -> None:
        self._last = self._pos
        self._last_is_node = False
        self._pos += 1

    def _expect(self, text: str) -> None:
        if not self._at(text):
            self._fail(f"'{text}'")
        self._advance()

    def _name(self, what: str) -> str:
        if not self._is_identifier():
            self._fail(what)
        self._advance()
        return self._sig[self._last][1]

    def _nest(self) -> None:
        # the caller lowers `_depth` again when it returns
        self._depth += 1
        if self._depth > MAX_NESTING:
            self._fail(f"at most {MAX_NESTING} levels of nesting")

    def _open(self) -> None:
        self._firsts.append(self._pos)
        self._counts.append(0)

    def _wrap(self) -> None:
        self._firsts.append(self._last)
        if self._last_is_node:
            self._counts[-1] -= 1
            self._counts.append(1)
        else:
            self._counts.append(0)

    def _close(self, kind: CstKind) -> None:
        first = self._firsts.pop()
        start = self._index[first]
        # an empty node is zero-width at the next significant token
        end = self._index[self._pos - 1] + 1 if self._pos > first else start
        self.markers.append((kind, start, end, self._counts.pop()))
        self._counts[-1] += 1
        self._last = first
        self._last_is_node = True

    def _fail(self, expected: str):
        kind, text = self._peek()
        if kind is None:
            end = len(self.tokens.texts)
            raise ParseError(self.tokens.span(end, end).line_start, 1,
                             expected, "end of file")
        index = self._index[self._pos]
        raise ParseError(self.tokens.lines[index], self._column(index),
                         expected, repr(text))

    def _column(self, index: int) -> int:
        """1-based character column where token `index` starts."""
        width = 0
        for text in reversed(self.tokens.texts[:index]):
            newline = text.rfind("\n")
            if newline != -1:
                return width + len(text) - newline
            width += len(text)
        return width + 1

    # -- declarations ---------------------------------------------------------

    def _file(self) -> list[Marker]:
        while True:
            kind, text = self._peek()
            if kind is None:
                break
            if kind is CstKind.KEYWORD and (
                    text == "class" or text in MODIFIER_KEYWORDS):
                self._class_decl()
            elif kind is CstKind.IDENTIFIER and text in ("package", "import"):
                # header lines are kept as raw leaf tokens, not parsed
                while not self._at(";"):
                    if self._peek_text() is None:
                        self._fail("';'")
                    self._advance()
                self._advance()
            else:
                self._fail("class declaration")
        self.markers.append((CstKind.FILE, 0, len(self.tokens.texts),
                             self._counts[0]))
        return self.markers

    def _class_decl(self) -> None:
        self._open()
        self._modifier_list(allow_annotations=False)
        self._expect("class")
        name = self._name("class name")
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
            text = self._peek_text()
            if text is None:
                self._fail("'}'")
            if text == "}":
                break
            self._member(name)
        self._advance()
        self._close(CstKind.CLASS_DECL)

    def _modifier_list(self, allow_annotations: bool) -> None:
        self._open()
        while True:
            kind, text = self._peek()
            if kind is None:
                break
            if kind is CstKind.KEYWORD and text in MODIFIER_KEYWORDS:
                self._open()
                self._advance()
                self._close(CstKind.MODIFIER)
            elif allow_annotations and text == "@":
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
        kind, text = self._peek()
        if (kind is CstKind.IDENTIFIER and text == class_name
                and self._peek_text(1) == "("):
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
        kind, text = self._peek()
        if kind is CstKind.KEYWORD and text in _TYPE_START_KEYWORDS:
            self._advance()
        elif kind is CstKind.IDENTIFIER:
            self._advance()
            while self._at(".") and self._is_identifier(1):
                self._advance()
                self._advance()
        else:
            self._fail("type")
        if self._at("<"):
            self._advance()
            depth = 1
            while depth > 0:
                inner = self._peek_text()
                if inner is None or inner in (";", "{", "}", "(", ")", "="):
                    self._fail("'>'")
                if inner == "<":
                    depth += 1
                elif inner == ">":
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
            text = self._peek_text()
            if text is None:
                self._fail("'}'")
            if text == "}":
                break
            self._statement()
        self._advance()
        self._close(CstKind.CODE_BLOCK)

    def _statement(self) -> None:
        self._nest()
        kind, text = self._peek()
        if kind is None:
            self._fail("statement")
        keyword = text if kind is CstKind.KEYWORD else None
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
        elif text == "{":
            self._code_block()
        elif keyword is None or keyword == "new":
            self._expr_stmt()
        else:
            self._fail("statement")
        self._depth -= 1

    def _looks_like_decl(self) -> bool:
        # A primitive type keyword, or IDENT ('.' IDENT)* ('<' balanced '>')?
        # ('[' ']')* IDENT, marks a local variable declaration.
        kind, text = self._peek()
        if kind is CstKind.KEYWORD:
            return text in PRIMITIVE_TYPE_KEYWORDS
        if kind is not CstKind.IDENTIFIER:
            return False
        j = 1
        while self._peek_text(j) == "." and self._is_identifier(j + 1):
            j += 2
        if self._peek_text(j) == "<":
            depth = 1
            j += 1
            while depth > 0:
                kind, text = self._peek(j)
                if kind is None:
                    return False
                if text == "<":
                    depth += 1
                elif text == ">":
                    depth -= 1
                elif not (kind is CstKind.IDENTIFIER
                          or text in (",", ".", "[", "]")
                          or (kind is CstKind.KEYWORD
                              and text in PRIMITIVE_TYPE_KEYWORDS)):
                    return False
                j += 1
        while self._peek_text(j) == "[" and self._peek_text(j + 1) == "]":
            j += 2
        return self._is_identifier(j)

    def _is_identifier(self, offset: int = 0) -> bool:
        return self._sig[self._pos + offset][0] is CstKind.IDENTIFIER

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
        text = self._peek_text()
        if text is None:
            self._fail("for initializer")
        if text == ";":
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
            if self._at(".") and self._is_identifier(1):
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
        kind, text = self._peek()
        if kind is CstKind.LITERAL:
            # a bare leaf of the enclosing expression
            self._advance()
        elif kind is CstKind.IDENTIFIER:
            self._open()
            self._advance()
            if self._at("("):
                self._list(CstKind.ARGUMENT_LIST, self._expression)
                self._close(CstKind.METHOD_CALL)
            else:
                self._close(CstKind.REFERENCE_EXPR)
        elif text == "(":
            self._open()
            self._advance()
            self._expression()
            self._expect(")")
            self._close(CstKind.PAREN_EXPR)
        elif text == "new":
            self._open()
            self._advance()
            self._type_ref()
            self._list(CstKind.ARGUMENT_LIST, self._expression)
            self._close(CstKind.NEW_EXPR)
        else:
            self._fail("expression")
