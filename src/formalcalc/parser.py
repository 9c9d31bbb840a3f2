"""Expression grammar for the command line.

    expr   := term (("+" | "-") term)*
    term   := unary ("*" unary)*
    unary  := "-" unary | power
    power  := atom ("^" unary)?          (right-associative)
    atom   := NUMBER | NAME | generator | "(" expr ")"

Generators: ``x`` (the tower at index 0), ``log(x)``, ``exp(x)``, and
``l_<k>(x)`` for any integer k (so ``l_1(x)`` is log(x) and ``l_-1(x)`` is
exp(x)).  ``y_<i>`` and ``x_<j>`` name the composite-derivative alphabet
and are only meaningful to ``to_fdb``.  Any other name is a symbolic
parameter, except ``y``, which is reserved for the series variable.
Numbers are nonnegative integers or fraction literals like ``3/2``
(there is no division operator); negative values come from unary minus.

Exponents after ``^`` must be affine in the parameters with integer
parameter coefficients (``r``, ``2*r+s-1``, ``-3/2``); anything else in an
exponent position is rejected at conversion time with the offending
column.  All errors are ParseError with 1-based line/column positions.

Nesting is capped at ``MAX_NESTING`` levels: each parenthesis, unary minus
and exponent opens one level, and an expression that goes deeper is a
ParseError.  Sums and products may have any number of terms; they are
evaluated in a loop, not by recursion.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction

from .algebra import Element, Exponent
from .faadibruno import FdbPoly
from .params import ParamPoly

_TOKEN_RE = re.compile(
    r"(?P<ws>\s+)"
    r"|(?P<number>\d+(?:/\d+)?)"
    r"|(?P<lgen>l_-?\d+)"
    r"|(?P<ysym>y_\d+)"
    r"|(?P<xsym>x_\d+)"
    r"|(?P<name>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<op>[-+*^()])"
)

# The parser and the conversions below recurse once per nesting level, so the
# cap keeps them well inside Python's default recursion limit of 1000.
MAX_NESTING = 100


class ParseError(ValueError):
    """Any lexical, syntactic, or semantic rejection of an input expression."""

    def __init__(self, message: str, column: int, line: int = 1):
        self.message = message
        self.line = line
        self.column = column
        super().__init__(f"line {line}, column {column}: {message}")


@dataclass(frozen=True)
class Token:
    kind: str
    text: str
    column: int


def _tokenize(text: str) -> list[Token]:
    tokens: list[Token] = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise ParseError(f"unexpected character {text[pos]!r}", pos + 1)
        kind = m.lastgroup or ""
        if kind != "ws":
            tokens.append(Token(kind, m.group(), pos + 1))
        pos = m.end()
    tokens.append(Token("end", "", len(text) + 1))
    return tokens


# ---------------------------------------------------------------- syntax tree

@dataclass(frozen=True)
class Num:
    value: Fraction
    column: int = 0


@dataclass(frozen=True)
class Param:
    name: str
    column: int = 0


@dataclass(frozen=True)
class Gen:
    index: int
    column: int = 0


@dataclass(frozen=True)
class OuterSym:
    index: int
    column: int = 0


@dataclass(frozen=True)
class InnerSym:
    index: int
    column: int = 0


@dataclass(frozen=True)
class Neg:
    operand: "Node"
    column: int = 0


@dataclass(frozen=True)
class BinOp:
    op: str  # one of + - * ^
    left: "Node"
    right: "Node"
    column: int = 0


Node = Num | Param | Gen | OuterSym | InnerSym | Neg | BinOp


class _Parser:
    def __init__(self, tokens: list[Token]):
        self.tokens = tokens
        self.pos = 0
        self.depth = 0

    def peek(self) -> Token:
        return self.tokens[self.pos]

    def advance(self) -> Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, text: str) -> Token:
        tok = self.peek()
        if tok.kind == "op" and tok.text == text:
            return self.advance()
        shown = tok.text if tok.kind != "end" else "end of input"
        raise ParseError(f"expected {text!r}, found {shown!r}", tok.column)

    def parse_expr(self) -> Node:
        node = self.parse_term()
        while self.peek().kind == "op" and self.peek().text in "+-":
            op = self.advance()
            node = BinOp(op.text, node, self.parse_term(), op.column)
        return node

    def parse_term(self) -> Node:
        node = self.parse_unary()
        while self.peek().kind == "op" and self.peek().text == "*":
            op = self.advance()
            node = BinOp("*", node, self.parse_unary(), op.column)
        return node

    def parse_unary(self) -> Node:
        # every nesting level (parenthesis, unary minus, exponent) passes here
        tok = self.peek()
        if self.depth > MAX_NESTING:
            raise ParseError(f"expression nested deeper than {MAX_NESTING} levels", tok.column)
        self.depth += 1
        if tok.kind == "op" and tok.text == "-":
            self.advance()
            node: Node = Neg(self.parse_unary(), tok.column)
        else:
            node = self.parse_power()
        self.depth -= 1
        return node

    def parse_power(self) -> Node:
        base = self.parse_atom()
        tok = self.peek()
        if tok.kind == "op" and tok.text == "^":
            self.advance()
            # right-associative; exponent may carry unary minus
            return BinOp("^", base, self.parse_unary(), tok.column)
        return base

    def _generator_call(self, index: int, column: int) -> Node:
        self.expect("(")
        inner = self.peek()
        if inner.kind != "name" or inner.text != "x":
            raise ParseError(
                "generators are functions of x only", inner.column
            )
        self.advance()
        self.expect(")")
        return Gen(index, column)

    def parse_atom(self) -> Node:
        tok = self.advance()
        if tok.kind == "number":
            if "/" in tok.text:
                num, den = tok.text.split("/")
                if int(den) == 0:
                    raise ParseError("zero denominator", tok.column)
                return Num(Fraction(int(num), int(den)), tok.column)
            return Num(Fraction(int(tok.text)), tok.column)
        if tok.kind == "lgen":
            return self._generator_call(int(tok.text[2:]), tok.column)
        if tok.kind == "ysym":
            return OuterSym(int(tok.text[2:]), tok.column)
        if tok.kind == "xsym":
            index = int(tok.text[2:])
            if index < 1:
                raise ParseError("inner symbols are indexed from 1", tok.column)
            return InnerSym(index, tok.column)
        if tok.kind == "name":
            if tok.text == "log":
                return self._generator_call(1, tok.column)
            if tok.text == "exp":
                return self._generator_call(-1, tok.column)
            if tok.text == "x":
                return Gen(0, tok.column)
            if tok.text == "y":
                raise ParseError(
                    "the name 'y' is reserved for the series variable", tok.column
                )
            follow = self.peek()
            if follow.kind == "op" and follow.text == "(":
                raise ParseError(f"unknown function {tok.text!r}", tok.column)
            return Param(tok.text, tok.column)
        if tok.kind == "op" and tok.text == "(":
            node = self.parse_expr()
            self.expect(")")
            return node
        shown = tok.text if tok.kind != "end" else "end of input"
        raise ParseError(f"unexpected {shown!r}", tok.column)


def parse(text: str) -> Node:
    """Parse to a syntax tree; raises ParseError with position on bad input."""
    parser = _Parser(_tokenize(text))
    node = parser.parse_expr()
    tail = parser.peek()
    if tail.kind != "end":
        raise ParseError(f"unexpected {tail.text!r}", tail.column)
    return node


# ------------------------------------------------------------- conversions

def _fold_chain(node: BinOp, convert, combine):
    """Convert a left-deep chain of ``+``, ``-`` and ``*`` links in a loop.

    An n-term sum or product parses to a tree n levels deep; walking it
    here keeps recursion to the nesting depth, which the parser caps.
    ``combine(link, left, right)`` applies one link to converted operands.
    """
    links = []
    while isinstance(node, BinOp) and node.op != "^":
        links.append(node)
        node = node.left
    out = convert(node)
    for link in reversed(links):
        out = combine(link, out, convert(link.right))
    return out


def _arith(node: BinOp, left, right):
    if node.op == "+":
        return left + right
    if node.op == "-":
        return left - right
    return left * right


def to_exponent(node: Node) -> Exponent:
    """Fold a syntax tree into an affine exponent, or reject it."""
    if isinstance(node, Num):
        return Exponent(node.value)
    if isinstance(node, Param):
        return Exponent.param(node.name)
    if isinstance(node, Neg):
        return -to_exponent(node.operand)
    if isinstance(node, BinOp) and node.op == "^":
        raise ParseError("nested powers cannot appear in an exponent", node.column)
    if isinstance(node, BinOp):
        return _fold_chain(node, to_exponent, _exponent_op)
    raise ParseError(
        "exponents must be affine in the parameters", getattr(node, "column", 1)
    )


def _exponent_op(node: BinOp, left: Exponent, right: Exponent) -> Exponent:
    if node.op != "*":
        return _arith(node, left, right)
    for scalar, other in ((left, right), (right, left)):
        if scalar.is_constant:
            if other.linear and scalar.const.denominator != 1:
                raise ParseError(
                    "parameter coefficients in exponents must be integers",
                    node.column,
                )
            return other * scalar.const
    raise ParseError(
        "products of two parameters cannot appear in an exponent", node.column
    )


def to_element(node: Node) -> Element:
    """Evaluate a syntax tree in the generator algebra."""
    if isinstance(node, Num):
        return Element.const(node.value)
    if isinstance(node, Param):
        return Element.const(ParamPoly.param(node.name))
    if isinstance(node, Gen):
        return Element.gen(node.index)
    if isinstance(node, (OuterSym, InnerSym)):
        raise ParseError(
            "the composite-derivative symbols y_i/x_j do not live in the "
            "generator algebra",
            node.column,
        )
    if isinstance(node, Neg):
        return -to_element(node.operand)
    if isinstance(node, BinOp):
        if node.op == "^":
            exponent = to_exponent(node.right)
            if isinstance(node.left, Gen):
                return Element.gen(node.left.index, exponent)
            base = to_element(node.left)
            k = exponent.as_integer()
            if k is None or k < 0:
                raise ParseError(
                    "only generators may carry symbolic, fractional, or "
                    "negative exponents",
                    node.column,
                )
            return base**k
        return _fold_chain(node, to_element, _arith)
    raise ParseError("unsupported expression", getattr(node, "column", 1))


def to_fdb(node: Node) -> FdbPoly:
    """Evaluate a syntax tree in the composite-derivative alphabet."""
    if isinstance(node, Num):
        return FdbPoly.const(node.value)
    if isinstance(node, OuterSym):
        return FdbPoly.outer_symbol(node.index)
    if isinstance(node, InnerSym):
        return FdbPoly.inner_symbol(node.index)
    if isinstance(node, (Gen, Param)):
        raise ParseError(
            "only y_i, x_j, and rationals may appear here", node.column
        )
    if isinstance(node, Neg):
        return -to_fdb(node.operand)
    if isinstance(node, BinOp):
        if node.op == "^":
            right = to_fdb_exponent(node.right)
            return to_fdb(node.left) ** right
        return _fold_chain(node, to_fdb, _arith)
    raise ParseError("unsupported expression", getattr(node, "column", 1))


def to_fdb_exponent(node: Node) -> int:
    e = to_exponent(node)
    k = e.as_integer()
    if k is None or k < 0:
        raise ParseError(
            "exponents here must be nonnegative integers", getattr(node, "column", 1)
        )
    return k


def parse_element(text: str) -> Element:
    return to_element(parse(text))


def parse_fdb(text: str) -> FdbPoly:
    return to_fdb(parse(text))
