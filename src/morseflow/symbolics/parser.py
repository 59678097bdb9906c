"""Recursive-descent parser for the expression grammar.

Grammar (whitespace insignificant, 1-based positions in errors):

    expr    :=  term  (('+' | '-') term)*
    term    :=  unary (('*' | '/') unary)*
    unary   :=  '-' unary | power
    power   :=  atom ('^' exponent)*          # left-associative
    exponent:=  ['-'] integer-literal
    atom    :=  NUMBER | VARIABLE | NAME '(' expr ')' | '(' expr ')'

VARIABLE is x1..xN; NAME is one of sin, cos, exp, sqrt. NUMBER is a
decimal literal with optional fraction and exponent part whose value is
a finite float (1e999 is rejected, not read as infinity). Binary
operators associate left; unary minus binds tighter than '*' and '/'
but looser than '^'.
"""

import math
import re

from ..errors import ExpressionSyntaxError
from .expr import Binary, Const, Power, Unary, UNARY_FUNCTIONS, Var

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<num>\d+(?:\.\d*)?(?:[eE][+-]?\d+)?)"
    r"|(?P<name>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<op>[-+*/^()]))"
)

_VAR_RE = re.compile(r"^x([1-9]\d*)$")


class _Token:
    __slots__ = ("kind", "text", "pos")

    def __init__(self, kind, text, pos):
        self.kind = kind
        self.text = text
        self.pos = pos  # 1-based offset into the source string


def _tokenize(text):
    tokens = []
    i = 0
    while i < len(text):
        match = _TOKEN_RE.match(text, i)
        if match is None or match.end() == i:
            stripped = text[i:].lstrip()
            if not stripped:
                break
            pos = len(text) - len(stripped) + 1
            raise ExpressionSyntaxError(
                f"unexpected character {stripped[0]!r}", pos
            )
        pos = match.start(match.lastgroup) + 1
        tokens.append(_Token(match.lastgroup, match.group(match.lastgroup), pos))
        i = match.end()
    tokens.append(_Token("end", "", len(text) + 1))
    return tokens


class _Parser:
    def __init__(self, text, ambient_dim):
        self.tokens = _tokenize(text)
        self.i = 0
        self.ambient_dim = ambient_dim

    def peek(self):
        return self.tokens[self.i]

    def advance(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect_op(self, symbol):
        tok = self.advance()
        if tok.kind != "op" or tok.text != symbol:
            found = repr(tok.text) if tok.text else "end of input"
            raise ExpressionSyntaxError(
                f"expected {symbol!r}, found {found}", tok.pos
            )
        return tok

    def parse(self):
        node = self.expr()
        tok = self.peek()
        if tok.kind != "end":
            raise ExpressionSyntaxError(
                f"unexpected trailing input {tok.text!r}", tok.pos
            )
        return node

    def expr(self):
        node = self.term()
        while self.peek().kind == "op" and self.peek().text in "+-":
            op = self.advance().text
            node = Binary(op, node, self.term())
        return node

    def term(self):
        node = self.unary()
        while self.peek().kind == "op" and self.peek().text in "*/":
            op = self.advance().text
            node = Binary(op, node, self.unary())
        return node

    def unary(self):
        tok = self.peek()
        if tok.kind == "op" and tok.text == "-":
            self.advance()
            return Unary("neg", self.unary())
        return self.power()

    def power(self):
        node = self.atom()
        while self.peek().kind == "op" and self.peek().text == "^":
            self.advance()
            node = Power(node, self.exponent())
        return node

    def exponent(self):
        sign = 1
        tok = self.peek()
        if tok.kind == "op" and tok.text == "-":
            self.advance()
            sign = -1
            tok = self.peek()
        if tok.kind != "num":
            raise ExpressionSyntaxError(
                "exponent must be a constant integer", tok.pos
            )
        self.advance()
        value = float(tok.text)
        if not value.is_integer():
            raise ExpressionSyntaxError(
                f"exponent must be a constant integer, got {tok.text}", tok.pos
            )
        return sign * int(value)

    def atom(self):
        tok = self.advance()
        if tok.kind == "num":
            value = float(tok.text)
            if not math.isfinite(value):
                raise ExpressionSyntaxError("number too large for a float",
                                            tok.pos)
            return Const(value)
        if tok.kind == "name":
            var = _VAR_RE.match(tok.text)
            if var:
                index = int(var.group(1))
                if index > self.ambient_dim:
                    raise ExpressionSyntaxError(
                        f"variable x{index} out of range for ambient "
                        f"dimension {self.ambient_dim}",
                        tok.pos,
                    )
                return Var(index)
            if tok.text in UNARY_FUNCTIONS:
                self.expect_op("(")
                arg = self.expr()
                self.expect_op(")")
                return Unary(tok.text, arg)
            raise ExpressionSyntaxError(f"unknown name {tok.text!r}", tok.pos)
        if tok.kind == "op" and tok.text == "(":
            node = self.expr()
            self.expect_op(")")
            return node
        found = repr(tok.text) if tok.text else "end of input"
        raise ExpressionSyntaxError(f"expected a value, found {found}", tok.pos)


def parse(text, ambient_dim):
    """Parse `text` into an Expression over x1..x{ambient_dim}."""
    if ambient_dim < 1:
        raise ValueError("ambient_dim must be at least 1")
    return _Parser(text, ambient_dim).parse()
