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
Numbers are nonnegative integers or fraction literals like ``3/2`` (there
is no division operator); negative values come from unary minus.  Tokens
are the lexicon's (``render.TOKEN``), all ASCII.

Exponents after ``^`` must be affine in the parameters with integer
parameter coefficients (``r``, ``2*r+s-1``, ``-3/2``); anything else in an
exponent position is rejected at conversion time with the offending
column.  All errors are ParseError with 1-based line/column positions.

Nesting is capped at ``MAX_NESTING`` levels: each parenthesis, unary minus
and exponent opens one level, and an expression that goes deeper is a
ParseError.  Sums and products may have any number of terms; they are
evaluated in a loop, not by recursion, and every run of ``+`` and ``-`` is
summed in one pass (an exponent run interns only its sum).  An index of
``l_<k>``, ``y_<i>`` or ``x_<j>`` above ``render.MAX_TOWER_INDEX`` in absolute
value is a ParseError.
"""

from __future__ import annotations

import re
from fractions import Fraction
from typing import TYPE_CHECKING, Callable, NamedTuple

from . import render
from .algebra import Element, Exponent
from .params import ParamPoly, Sparse

if TYPE_CHECKING:
    from .faadibruno import FdbPoly

# The parser and the conversions below recurse once per nesting level, so the
# cap keeps them well inside Python's default recursion limit of 1000.
MAX_NESTING = 100

# the generators written as named functions of x, by tower index
_FUNCTIONS = {"log": 1, "exp": -1}


class ParseError(ValueError):
    """Any lexical, syntactic, or semantic rejection of an input expression."""

    def __init__(self, message: str, column: int, line: int = 1):
        self.message = message
        self.line = line
        self.column = column
        super().__init__(f"line {line}, column {column}: {message}")


class Token(NamedTuple):
    kind: str
    text: str
    column: int


def _tokenize(text: str) -> list[Token]:
    tokens: list[Token] = []
    token = re.compile(render.TOKEN).match
    pos = 0
    while pos < len(text):
        m = token(text, pos)
        if m is None:
            raise ParseError(f"unexpected character {text[pos]!r}", pos + 1)
        kind = m.lastgroup or ""
        if kind != "ws":
            tokens.append(Token(kind, m.group(), pos + 1))
        pos = m.end()
    tokens.append(Token("end", "", len(text) + 1))
    return tokens


# ---------------------------------------------------------------- syntax tree

class Leaf(NamedTuple):
    """A number, parameter, generator or composite-derivative symbol.

    ``kind`` is one of ``number`` (``value`` a Fraction), ``param`` (a
    name), ``gen`` (a tower index), ``ysym`` or ``xsym`` (a symbol index).
    """

    kind: str
    value: Fraction | str | int
    column: int = 0


class Neg(NamedTuple):
    operand: "Node"
    column: int = 0


class BinOp(NamedTuple):
    op: str  # one of + - * ^
    left: "Node"
    right: "Node"
    column: int = 0


Node = Leaf | Neg | BinOp


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

    def parse_atom(self) -> Node:
        tok = self.advance()
        if tok.kind == "number":
            try:
                return Leaf("number", Fraction(render.read_number(tok.text)), tok.column)
            except ZeroDivisionError:
                raise ParseError("zero denominator", tok.column) from None
        if tok.kind == "lgen" or tok.text in _FUNCTIONS:
            index = _FUNCTIONS[tok.text] if tok.kind == "name" else _index(tok)
            self.expect("(")
            inner = self.peek()
            if inner.kind != "name" or inner.text != "x":
                raise ParseError(
                    "generators are functions of x only", inner.column
                )
            self.advance()
            self.expect(")")
            return Leaf("gen", index, tok.column)
        if tok.kind in ("ysym", "xsym"):
            index = _index(tok)
            if index < 1 and tok.kind == "xsym":
                raise ParseError("inner symbols are indexed from 1", tok.column)
            return Leaf(tok.kind, index, tok.column)
        if tok.kind == "name":
            if tok.text == "x":
                return Leaf("gen", 0, tok.column)
            if tok.text == "y":
                raise ParseError(
                    "the name 'y' is reserved for the series variable", tok.column
                )
            follow = self.peek()
            if follow.kind == "op" and follow.text == "(":
                raise ParseError(f"unknown function {tok.text!r}", tok.column)
            return Leaf("param", tok.text, tok.column)
        if tok.kind == "op" and tok.text == "(":
            node = self.parse_expr()
            self.expect(")")
            return node
        shown = tok.text if tok.kind != "end" else "end of input"
        raise ParseError(f"unexpected {shown!r}", tok.column)


def _index(tok: Token) -> int:
    """The index of an ``l_<k>``, ``y_<i>`` or ``x_<j>`` token."""
    try:
        return render.read_index(tok.text[2:])
    except ValueError as exc:
        raise ParseError(str(exc), tok.column) from None


def parse(text: str) -> Node:
    """Parse to a syntax tree; raises ParseError with position on bad input."""
    parser = _Parser(_tokenize(text))
    node = parser.parse_expr()
    tail = parser.peek()
    if tail.kind != "end":
        raise ParseError(f"unexpected {tail.text!r}", tail.column)
    return node


# ------------------------------------------------------------- conversions

def _sparse_total(run: list[tuple[int, Sparse]]) -> Sparse:
    """The sum of a run of elements or Faà di Bruno polynomials, in one ``from_terms`` call."""
    return type(run[0][1]).from_terms((k, sign * c) for sign, v in run for k, c in v.items())


def _fold(
    node: Node,
    leaves: dict,
    refused: str,
    power: Callable,
    times: Callable | None = None,
    total: Callable = _sparse_total,
):
    """Evaluate a syntax tree with the handlers of one target.

    ``leaves`` maps a leaf kind to the function that evaluates its value;
    any other leaf is a ParseError with the message ``refused``.
    ``power(node, fold)`` evaluates a ``^`` node and ``times(node, left,
    right)``, if given, a ``*`` link; ``total(run)`` sums a run of ``+``
    and ``-`` links, given as ``(sign, value)`` pairs.  A left-deep chain
    of ``+``, ``-`` and ``*`` links (an n-term sum parses n levels deep) is
    walked in a loop, so recursion stays within the nesting depth, which the
    parser caps.
    """

    def fold(node: Node):
        if isinstance(node, Leaf):
            make = leaves.get(node.kind)
            if make is None:
                raise ParseError(refused, node.column)
            return make(node.value)
        if isinstance(node, Neg):
            return -fold(node.operand)
        if node.op == "^":
            return power(node, fold)
        links = []
        while isinstance(node, BinOp) and node.op != "^":
            links.append(node)
            node = node.left
        run = [(1, fold(node))]
        for link in reversed(links):
            right = fold(link.right)
            if link.op != "*":
                run.append((1 if link.op == "+" else -1, right))
                continue
            out = total(run) if len(run) > 1 else run[0][1]
            run = [(1, out * right if times is None else times(link, out, right))]
        return total(run) if len(run) > 1 else run[0][1]

    return fold(node)


def _no_power(node: BinOp, fold) -> Exponent:
    raise ParseError("nested powers cannot appear in an exponent", node.column)


def _exponent_times(node: BinOp, left: Exponent, right: Exponent) -> Exponent:
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


def _exponent_total(run: list[tuple[int, Exponent]]) -> Exponent:
    """The sum of a run in one constructor call; only the result is interned."""
    linear = [(name, sign * m) for sign, v in run for name, m in v.linear]
    return Exponent(sum(sign * v.const for sign, v in run), linear)


def to_exponent(node: Node) -> Exponent:
    """Fold a syntax tree into an affine exponent, or reject it."""
    return _fold(
        node,
        {"number": Exponent, "param": Exponent.param},
        "exponents must be affine in the parameters",
        _no_power,
        _exponent_times,
        _exponent_total,
    )


def _element_power(node: BinOp, fold) -> Element:
    exponent = to_exponent(node.right)
    base = node.left
    if isinstance(base, Leaf) and base.kind == "gen":
        return Element.gen(base.value, exponent)
    value = fold(base)
    k = exponent.as_integer()
    if k is None or k < 0:
        raise ParseError(
            "only generators may carry symbolic, fractional, or "
            "negative exponents",
            node.column,
        )
    return value**k


def to_element(node: Node) -> Element:
    """Evaluate a syntax tree in the generator algebra."""
    return _fold(
        node,
        {
            "number": Element.const,
            "param": lambda name: Element.const(ParamPoly.param(name)),
            "gen": Element.gen,
        },
        "the composite-derivative symbols y_i/x_j do not live in the generator algebra",
        _element_power,
    )


def _fdb_power(node: BinOp, fold) -> FdbPoly:
    k = to_exponent(node.right).as_integer()
    if k is None or k < 0:
        raise ParseError("exponents here must be nonnegative integers", node.right.column)
    return fold(node.left) ** k


def to_fdb(node: Node) -> FdbPoly:
    """Evaluate a syntax tree in the composite-derivative alphabet."""
    from .faadibruno import FdbPoly

    return _fold(
        node,
        {"number": FdbPoly.const, "ysym": FdbPoly.outer_symbol, "xsym": FdbPoly.inner_symbol},
        "only y_i, x_j, and rationals may appear here",
        _fdb_power,
    )


def parse_element(text: str) -> Element:
    return to_element(parse(text))


def parse_fdb(text: str) -> FdbPoly:
    return to_fdb(parse(text))
