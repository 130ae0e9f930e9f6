"""Tokenizer, syntax tree and recursive-descent parser for the qclite language.

The grammar is the closed subset exhibited by small structured quantum
programs: subroutine declarations (procedure, operator, qufunct, and
classical functions declared by their return type), classical and quantum
variable declarations, statements, and expressions over classical values and
quantum registers.  Parsing is permissive where a later static check gives a
better diagnostic (for example, a measure statement parses inside an operator
body and is rejected afterwards).

`tokenize` reads the source with one regular expression, `_SCAN`, into
keywords (`kw`), identifiers (`ident`), `int` and `real` literals and symbols
(`sym`); whitespace and `//` comments are dropped, and any other character is
a `LexError` at its line and column.  The parser appends an `eof` token just
past the last token, so input that ends too early fails at a real position.
Binary operators are parsed by precedence climbing over `_PREC`, the table the
pretty printer also uses to place parentheses.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from functools import partial
from typing import NamedTuple

from .errors import LexError, ParseError

KEYWORDS = frozenset({
    "procedure", "operator", "qufunct", "cond", "const",
    "int", "real", "complex", "boolean",
    "qureg", "quconst", "quvoid", "quscratch",
    "if", "else", "for", "to", "step", "while",
    "measure", "reset", "dump", "print", "return",
    "and", "or", "not", "xor", "mod", "exit",
})

CLASSICAL_TYPES = ("int", "real", "complex", "boolean")
QUANTUM_TYPES = ("qureg", "quconst", "quvoid", "quscratch")

# Unicode classes on purpose, so identifiers may use any letters; tokenize
# rejects a word that starts with a numeric character such as '²'.
_SCAN = re.compile(r"""
    (?P<newline>\n)
  | (?P<skip>[^\S\n]+|//[^\n]*)
  | (?P<word>[^\W\d]\w*)
  | (?P<number>\d+(?P<fraction>\.\d+)?(?P<exponent>[eE][+-]?\d+)?)
  | (?P<sym>[=!<>]=|[()\[\]{};,=!&+\-*/^#:<>])
  | (?P<bad>.)
""", re.VERBOSE)


class Token(NamedTuple):
    kind: str  # kw | ident | int | real | sym | eof
    text: str
    line: int
    column: int


def tokenize(source: str) -> list[Token]:
    """Split source text into tokens, dropping whitespace and // comments."""
    tokens: list[Token] = []
    line, line_start = 1, -1    # line_start: offset of the newline before the line
    for m in _SCAN.finditer(source):
        kind = m.lastgroup
        if kind == "skip":
            continue
        if kind == "newline":
            line += 1
            line_start = m.start()
            continue
        text = m.group()
        column = m.start() - line_start
        if kind == "word":
            if not (text[0].isalpha() or text[0] == "_"):
                raise LexError(f"invalid character {text[0]!r}", line, column)
            kind = "kw" if text in KEYWORDS else "ident"
        elif kind == "number":
            kind = "real" if m["fraction"] or m["exponent"] else "int"
        elif kind == "bad":
            raise LexError(f"invalid character {text!r}", line, column)
        tokens.append(Token(kind, text, line, column))
    return tokens


# --------------------------------------------------------------------------
# Syntax tree
# --------------------------------------------------------------------------

@dataclass
class Node:
    line: int = field(default=0, compare=False, kw_only=True)
    column: int = field(default=0, compare=False, kw_only=True)


# expressions

@dataclass
class IntLit(Node):
    value: int


@dataclass
class RealLit(Node):
    value: float


@dataclass
class Name(Node):
    ident: str


@dataclass
class Unary(Node):
    op: str  # "-" | "not"
    operand: Node


@dataclass
class Length(Node):
    operand: Node


@dataclass
class Binary(Node):
    op: str  # arithmetic, comparison, boolean connective or register concat "&"
    left: Node
    right: Node


@dataclass
class Index(Node):
    base: Node
    index: Node


@dataclass
class RangeIndex(Node):
    base: Node
    lo: Node
    hi: Node


@dataclass
class Call(Node):
    name: str
    args: list


# declarations and statements

@dataclass
class Param(Node):
    type: str
    name: str

    @property
    def is_quantum(self) -> bool:
        return self.type in QUANTUM_TYPES


@dataclass
class Routine(Node):
    kind: str  # procedure | operator | qufunct | function
    cond: bool
    ret_type: str | None
    name: str
    params: list
    body: list


@dataclass
class VarDecl(Node):
    ctype: str
    name: str
    init: Node | None


@dataclass
class ConstDecl(Node):
    name: str
    value: Node


@dataclass
class RegDecl(Node):
    qtype: str
    name: str
    size: Node


@dataclass
class CallStmt(Node):
    name: str
    args: list
    invert: bool


@dataclass
class Assign(Node):
    name: str
    value: Node


@dataclass
class If(Node):
    cond: Node
    then: list
    orelse: list | None
    forking: bool = field(default=False, compare=False)


@dataclass
class For(Node):
    var: str
    start: Node
    stop: Node
    step: Node | None
    body: list


@dataclass
class While(Node):
    cond: Node
    body: list


@dataclass
class Measure(Node):
    target: Node
    var: str | None


@dataclass
class Reset(Node):
    pass


@dataclass
class Dump(Node):
    pass


@dataclass
class Print(Node):
    args: list


@dataclass
class ExitStmt(Node):
    pass


@dataclass
class Return(Node):
    value: Node


@dataclass
class Program(Node):
    items: list


# --------------------------------------------------------------------------
# Parser
# --------------------------------------------------------------------------

# binary operator precedence, loosest first; "^" alone is right associative
_PREC = {
    "or": 1, "xor": 2, "and": 3,
    "==": 4, "!=": 4, "<": 4, "<=": 4, ">": 4, ">=": 4,
    "+": 5, "-": 5,
    "*": 6, "/": 6, "mod": 6, "&": 6,
    "^": 7,
}
_SUBROUTINES = ("procedure", "operator", "qufunct")
_BARE = {Reset: "reset", Dump: "dump", ExitStmt: "exit"}    # one-keyword statements


class Parser:
    def __init__(self, tokens: list[Token]):
        last = tokens[-1] if tokens else Token("eof", "", 1, 1)
        end = Token("eof", "<end of input>", last.line, last.column + len(last.text))
        self.tokens = [*tokens, end]
        self.pos = 0

    # -- token plumbing ----

    def peek(self, offset: int = 0) -> Token:
        return self.tokens[self.pos + offset]

    def at_end(self) -> bool:
        return self.tokens[self.pos].kind == "eof"

    def advance(self) -> Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def check(self, text: str) -> bool:
        tok = self.tokens[self.pos]
        return tok.kind in ("kw", "sym") and tok.text == text

    def accept(self, text: str) -> bool:
        if self.check(text):
            self.pos += 1
            return True
        return False

    def expect(self, text: str) -> Token:
        if not self.check(text):
            self._fail(f"expected {text!r}, found {self.peek().text!r}")
        return self.advance()

    def expect_ident(self) -> Token:
        if self.peek().kind != "ident":
            self._fail(f"expected identifier, found {self.peek().text!r}")
        return self.advance()

    def _fail(self, message: str):
        tok = self.peek()
        raise ParseError(message, tok.line, tok.column)

    def comma_list(self, parse_one, end: str) -> list:
        """Parse `item, ..., item` and the closing `end`; only a ')' list may be empty."""
        items = []
        if end != ")" or not self.check(end):
            items.append(parse_one())
            while self.accept(","):
                items.append(parse_one())
        self.expect(end)
        return items

    # -- items ----

    def parse_items(self) -> list:
        items = []
        while not self.at_end():
            item = self.parse_item()
            if item is not None:
                items.append(item)
        return items

    def parse_item(self):
        tok = self.peek()
        if tok.kind == "kw" and (tok.text == "cond" or tok.text in _SUBROUTINES or (
                tok.text in CLASSICAL_TYPES and self.peek(1).kind == "ident"
                and self.peek(2).text == "(")):
            return self.parse_routine()
        return self.parse_statement()

    def parse_routine(self) -> Routine:
        tok = self.peek()
        cond = self.accept("cond")
        kw = self.advance()
        if kw.text in _SUBROUTINES:
            kind, ret_type = kw.text, None
        elif kw.text in CLASSICAL_TYPES:
            kind, ret_type = "function", kw.text
        else:
            raise ParseError(f"expected subroutine keyword after 'cond', found {kw.text!r}",
                             kw.line, kw.column)
        name = self.expect_ident()
        self.expect("(")
        params = self.comma_list(self.parse_param, ")")
        body = self.parse_block()
        return Routine(kind, cond, ret_type, name.text, params, body,
                       line=tok.line, column=tok.column)

    def parse_param(self) -> Param:
        tok = self.peek()
        if tok.kind != "kw" or tok.text not in CLASSICAL_TYPES + QUANTUM_TYPES:
            self._fail(f"expected parameter type, found {tok.text!r}")
        self.advance()
        name = self.expect_ident()
        return Param(tok.text, name.text, line=tok.line, column=tok.column)

    def parse_var_decl(self) -> VarDecl:
        tok = self.advance()
        name = self.expect_ident()
        init = self.parse_expr() if self.accept("=") else None
        self.expect(";")
        return VarDecl(tok.text, name.text, init, line=tok.line, column=tok.column)

    def parse_const_decl(self) -> ConstDecl:
        tok = self.advance()
        name = self.expect_ident()
        self.expect("=")
        value = self.parse_expr()
        self.expect(";")
        return ConstDecl(name.text, value, line=tok.line, column=tok.column)

    def parse_reg_decl(self) -> RegDecl:
        tok = self.advance()
        name = self.expect_ident()
        self.expect("[")
        size = self.parse_expr()
        self.expect("]")
        self.expect(";")
        return RegDecl(tok.text, name.text, size, line=tok.line, column=tok.column)

    # -- statements ----

    def parse_block(self) -> list:
        self.expect("{")
        stmts = []
        while not self.accept("}"):
            tok = self.peek()
            if tok.kind == "eof":
                self._fail("expected '}'")
            if tok.kind == "kw" and tok.text in _SUBROUTINES:
                raise ParseError("nested subroutine definitions are not allowed",
                                 tok.line, tok.column)
            stmt = self.parse_statement()
            if stmt is not None:
                stmts.append(stmt)
        return stmts

    def parse_statement(self):
        """Parse a declaration or statement; an empty statement gives None."""
        tok = self.peek()
        if tok.kind == "kw":
            parse = _STATEMENTS.get(tok.text)
            if parse is None:
                self._fail(f"unexpected keyword {tok.text!r}")
            return parse(self)
        if self.accept("!"):
            name = self.expect_ident()
            return self.finish_call_stmt(name, invert=True, pos=tok)
        if self.accept(";"):
            return None
        if tok.kind == "ident":
            self.advance()
            if self.accept("="):
                value = self.parse_expr()
                self.expect(";")
                return Assign(tok.text, value, line=tok.line, column=tok.column)
            if self.check("("):
                return self.finish_call_stmt(tok, invert=False, pos=tok)
            self._fail(f"expected '=' or '(' after {tok.text!r}")
        self._fail(f"unexpected token {tok.text!r}")

    def finish_call_stmt(self, name: Token, invert: bool, pos: Token) -> CallStmt:
        self.expect("(")
        args = self.comma_list(self.parse_expr, ")")
        self.expect(";")
        return CallStmt(name.text, args, invert, line=pos.line, column=pos.column)

    def parse_bare(self, node_type: type) -> Node:
        tok = self.advance()
        self.expect(";")
        return node_type(line=tok.line, column=tok.column)

    def parse_if(self) -> If:
        tok = self.advance()
        cond = self.parse_expr()
        then = self.parse_block()
        orelse = self.parse_block() if self.accept("else") else None
        return If(cond, then, orelse, line=tok.line, column=tok.column)

    def parse_for(self) -> For:
        tok = self.advance()
        var = self.expect_ident()
        self.expect("=")
        start = self.parse_expr()
        self.expect("to")
        stop = self.parse_expr()
        step = self.parse_expr() if self.accept("step") else None
        body = self.parse_block()
        return For(var.text, start, stop, step, body, line=tok.line, column=tok.column)

    def parse_while(self) -> While:
        tok = self.advance()
        cond = self.parse_expr()
        body = self.parse_block()
        return While(cond, body, line=tok.line, column=tok.column)

    def parse_measure(self) -> Measure:
        tok = self.advance()
        target = self.parse_expr()
        var = self.expect_ident().text if self.accept(",") else None
        self.expect(";")
        return Measure(target, var, line=tok.line, column=tok.column)

    def parse_print(self) -> Print:
        tok = self.advance()
        args = self.comma_list(self.parse_expr, ";")
        return Print(args, line=tok.line, column=tok.column)

    def parse_return(self) -> Return:
        tok = self.advance()
        value = self.parse_expr()
        self.expect(";")
        return Return(value, line=tok.line, column=tok.column)

    # -- expressions ----

    def parse_expr(self, min_prec: int = 1) -> Node:
        """Parse operands joined by binary operators that bind at least `min_prec`."""
        left = self.parse_unary()
        while True:
            tok = self.peek()
            prec = _PREC.get(tok.text, 0)
            if prec < min_prec:
                return left
            self.advance()
            right = self.parse_expr(prec if tok.text == "^" else prec + 1)
            left = Binary(tok.text, left, right, line=tok.line, column=tok.column)

    def parse_unary(self) -> Node:
        tok = self.peek()
        if tok.text in ("-", "not", "#"):
            self.advance()
            operand = self.parse_unary()
            if tok.text == "#":
                return Length(operand, line=tok.line, column=tok.column)
            return Unary(tok.text, operand, line=tok.line, column=tok.column)
        return self.parse_postfix()

    def parse_postfix(self) -> Node:
        node = self.parse_primary()
        while True:
            tok = self.peek()
            if self.check("("):
                if not isinstance(node, Name):
                    self._fail("only named subroutines can be called")
                self.advance()
                args = self.comma_list(self.parse_expr, ")")
                node = Call(node.ident, args, line=node.line, column=node.column)
            elif self.accept("["):
                first = self.parse_expr()
                second = self.parse_expr() if self.accept(":") else None
                self.expect("]")
                node = (Index(node, first, line=tok.line, column=tok.column) if second is None
                        else RangeIndex(node, first, second, line=tok.line, column=tok.column))
            else:
                return node

    def parse_primary(self) -> Node:
        tok = self.advance()
        if tok.kind == "int":
            try:
                value = int(tok.text)
            except ValueError:      # past Python's str-to-int digit limit
                raise ParseError(f"integer literal of {len(tok.text)} digits is too long",
                                 tok.line, tok.column) from None
            return IntLit(value, line=tok.line, column=tok.column)
        if tok.kind == "real":
            return RealLit(float(tok.text), line=tok.line, column=tok.column)
        if tok.kind == "ident":
            return Name(tok.text, line=tok.line, column=tok.column)
        if tok.kind == "sym" and tok.text == "(":
            inner = self.parse_expr()
            self.expect(")")
            return inner
        raise ParseError(f"expected expression, found {tok.text!r}", tok.line, tok.column)


# the parser of each declaration or statement that starts with a keyword
_STATEMENTS = {
    **dict.fromkeys(CLASSICAL_TYPES, Parser.parse_var_decl),
    "const": Parser.parse_const_decl,
    **dict.fromkeys(QUANTUM_TYPES, Parser.parse_reg_decl),
    "if": Parser.parse_if, "for": Parser.parse_for, "while": Parser.parse_while,
    "measure": Parser.parse_measure, "print": Parser.parse_print,
    "return": Parser.parse_return,
    **{text: partial(Parser.parse_bare, node_type=t) for t, text in _BARE.items()},
}


def parse_program(tokens: list[Token]) -> Program:
    return Program(Parser(tokens).parse_items())


def parse_source(source: str) -> Program:
    return parse_program(tokenize(source))


def parse_interactive(line: str) -> list:
    """Parse one interactive input line into a list of declarations/statements."""
    return Parser(tokenize(line)).parse_items()


# --------------------------------------------------------------------------
# Pretty printer
# --------------------------------------------------------------------------

_UNARY_PREC = 8


def unparse_expr(node: Node, parent_prec: int = 0) -> str:
    if isinstance(node, IntLit):
        return str(node.value)
    if isinstance(node, RealLit):
        return repr(node.value)
    if isinstance(node, Name):
        return node.ident
    if isinstance(node, Length):
        return _wrap(f"#{unparse_expr(node.operand, _UNARY_PREC)}", _UNARY_PREC, parent_prec)
    if isinstance(node, Unary):
        sep = " " if node.op == "not" else ""
        inner = unparse_expr(node.operand, _UNARY_PREC)
        return _wrap(f"{node.op}{sep}{inner}", _UNARY_PREC, parent_prec)
    if isinstance(node, Binary):
        prec = _PREC[node.op]
        left, right = (prec + 1, prec) if node.op == "^" else (prec, prec + 1)
        text = f"{unparse_expr(node.left, left)} {node.op} {unparse_expr(node.right, right)}"
        return _wrap(text, prec, parent_prec)
    if isinstance(node, Index):
        return f"{unparse_expr(node.base, _UNARY_PREC + 1)}[{unparse_expr(node.index)}]"
    if isinstance(node, RangeIndex):
        base = unparse_expr(node.base, _UNARY_PREC + 1)
        return f"{base}[{unparse_expr(node.lo)}:{unparse_expr(node.hi)}]"
    if isinstance(node, Call):
        return f"{node.name}({', '.join(unparse_expr(a) for a in node.args)})"
    raise TypeError(f"cannot unparse {type(node).__name__}")


def _wrap(text: str, prec: int, parent_prec: int) -> str:
    return f"({text})" if prec < parent_prec else text


def unparse_stmt(node: Node, indent: int = 0) -> str:
    pad = "  " * indent
    if isinstance(node, Routine):
        params = ", ".join(f"{p.type} {p.name}" for p in node.params)
        head = node.ret_type if node.kind == "function" else node.kind
        cond = "cond " if node.cond else ""
        body = unparse_block(node.body, indent)
        return f"{pad}{cond}{head} {node.name}({params}) {body}"
    if isinstance(node, VarDecl):
        init = f" = {unparse_expr(node.init)}" if node.init is not None else ""
        return f"{pad}{node.ctype} {node.name}{init};"
    if isinstance(node, ConstDecl):
        return f"{pad}const {node.name} = {unparse_expr(node.value)};"
    if isinstance(node, RegDecl):
        return f"{pad}{node.qtype} {node.name}[{unparse_expr(node.size)}];"
    if isinstance(node, CallStmt):
        bang = "!" if node.invert else ""
        args = ", ".join(unparse_expr(a) for a in node.args)
        return f"{pad}{bang}{node.name}({args});"
    if isinstance(node, Assign):
        return f"{pad}{node.name} = {unparse_expr(node.value)};"
    if isinstance(node, If):
        text = f"{pad}if {unparse_expr(node.cond)} {unparse_block(node.then, indent)}"
        if node.orelse is not None:
            text += f" else {unparse_block(node.orelse, indent)}"
        return text
    if isinstance(node, For):
        step = f" step {unparse_expr(node.step)}" if node.step is not None else ""
        return (f"{pad}for {node.var} = {unparse_expr(node.start)} to "
                f"{unparse_expr(node.stop)}{step} {unparse_block(node.body, indent)}")
    if isinstance(node, While):
        return f"{pad}while {unparse_expr(node.cond)} {unparse_block(node.body, indent)}"
    if isinstance(node, Measure):
        var = f", {node.var}" if node.var else ""
        return f"{pad}measure {unparse_expr(node.target)}{var};"
    if type(node) in _BARE:
        return f"{pad}{_BARE[type(node)]};"
    if isinstance(node, Print):
        return f"{pad}print {', '.join(unparse_expr(a) for a in node.args)};"
    if isinstance(node, Return):
        return f"{pad}return {unparse_expr(node.value)};"
    raise TypeError(f"cannot unparse {type(node).__name__}")


def unparse_block(stmts: list, indent: int) -> str:
    if not stmts:
        return "{ }"
    inner = "\n".join(unparse_stmt(s, indent + 1) for s in stmts)
    return "{\n" + inner + "\n" + "  " * indent + "}"


def unparse(program: Program) -> str:
    return "\n".join(unparse_stmt(item) for item in program.items) + "\n"
