"""One term walker that prints every value shape, as text or as LaTeX.

A printed value is a signed sum of terms (``join``), and a term is a
rational magnitude times factors (``term``: a unit magnitude is dropped
unless no factor is left).  One walker per shape turns a value into such
terms: parameter polynomials, exponents, monomials, elements and y-series,
composite-derivative polynomials and dense one-variable polynomials, each
distinct factor rendered once per call (a series of ``l_1000`` prints a
million generator powers drawn from about 2,000).  The output formats
differ only in their tokens, held in a ``Style``: ``TEXT`` here and
``latexio.LATEX``.

This module imports nothing from the package; the walkers read the fields
of the values they print.  Every integer that text, LaTeX or JSON prints
goes through ``integer``, which is exact at any size.

It also holds the lexicon: the ASCII patterns that every reader of numbers,
names and indices matches, as strings that ``re`` compiles on first use, and
``read_number`` and ``read_index``, which read what they match.
"""

from __future__ import annotations

from decimal import Decimal
from fractions import Fraction
from functools import cache, partial
from typing import Callable, Iterable, Iterator, NamedTuple, Sequence

Term = tuple[int, str]  # (sign, body)


class Style(NamedTuple):
    """The tokens of one output format."""

    number: Callable[[int | Fraction], str]  # a nonnegative rational
    times: str  # between the factors of a term
    exponent_times: str  # between an integer and a parameter in an exponent
    sup: tuple[str, str]  # around a nonnegative integer or a bare parameter
    sup_group: tuple[str, str]  # around any other exponent
    sub: tuple[str, str]  # around a subscript
    group: tuple[str, str]  # around a coefficient of several terms
    log: tuple[str, str]  # log x alone, and as the base of a power
    exp: tuple[str, str]  # exp x alone, and as the base of a power
    tower: str  # the name of l_n


def integer(n: int) -> str:
    """The decimal digits of ``n``, at any size.

    ``str`` refuses an int past ``sys.get_int_max_str_digits()`` digits
    (4,300 by default); ``Decimal`` converts exactly and has no such limit.
    """
    try:
        return str(n)
    except ValueError:
        return str(Decimal(n))


def rational(q: int | Fraction) -> str:
    """``str(q)``, ``p`` or ``p/q``, at any size (see ``integer``)."""
    try:
        return str(q)
    except ValueError:
        num = integer(q.numerator)
        return num if q.denominator == 1 else f"{num}/{integer(q.denominator)}"


TEXT = Style(
    number=rational,
    times="*",
    exponent_times="*",
    sup=("^", ""),
    sup_group=("^(", ")"),
    sub=("_", ""),
    group=("(", ")"),
    log=("log(x)", "log(x)"),
    exp=("exp(x)", "exp(x)"),
    tower="l",
)


def join(terms: Iterable[Term]) -> str:
    """The signed sum of the terms; ``0`` when there are none."""
    out: list[str] = []
    for sign, body in terms:
        if out:
            out.append((" - " if sign < 0 else " + ") + body)
        else:
            out.append(("-" if sign < 0 else "") + body)
    return "".join(out) or "0"


def term(style: Style, c: int | Fraction, factors: list[str], times: str | None = None) -> Term:
    """The term c times the factors; a unit |c| is dropped unless nothing else is left."""
    sign = -1 if c < 0 else 1
    c = abs(c)
    if c != 1 or not factors:
        factors = [style.number(c), *factors]
    return sign, (style.times if times is None else times).join(factors)


def power(style: Style, base: str, k: int) -> str:
    """``base`` to a positive integer power, bare for k = 1."""
    if k == 1:
        return base
    return f"{base}{style.sup[0]}{k}{style.sup[1]}"


def subscript(style: Style, name: str, index: int) -> str:
    return f"{name}{style.sub[0]}{index}{style.sub[1]}"


def _powers(style: Style, key: Iterable[tuple[str, int]]) -> list[str]:
    return [power(style, name, k) for name, k in key]


def parampoly(style: Style, items: Iterable[tuple[tuple, int | Fraction]]) -> str:
    """The sum of a parameter polynomial's (key, value) items, in the order given."""
    return join(term(style, c, _powers(style, key)) for key, c in items)


def exponent(style: Style, e) -> str:
    terms = [term(style, m, [name], style.exponent_times) for name, m in e.linear]
    if e.const or not terms:
        terms.append(term(style, e.const, []))
    return join(terms)


def generator(style: Style, index: int, powered: bool = False) -> str:
    """The name of generator ``index``; ``powered`` asks for it as the base of a power."""
    if index == 0:
        return "x"
    if index == 1:
        return style.log[powered]
    if index == -1:
        return style.exp[powered]
    return subscript(style, style.tower, index) + "(x)"


def _generator_power(style: Style, index: int, e) -> str:
    if not e.linear and e.const == 1:
        return generator(style, index)
    simple = (not e.linear and e.const.denominator == 1 and e.const >= 0) or (
        not e.const and len(e.linear) == 1 and e.linear[0][1] == 1
    )
    left, right = style.sup if simple else style.sup_group
    return f"{generator(style, index, True)}{left}{exponent(style, e)}{right}"


def monomial(style: Style, m) -> str:
    return style.times.join([_generator_power(style, index, e) for index, e in m]) or "1"


def _element_terms(style: Style, a, ypower: int, factor: Callable[..., str]) -> Iterator[Term]:
    """The terms of an element, each times y^ypower, its generator powers made by ``factor``."""
    y = [power(style, "y", ypower)] if ypower else []
    for mono, coeff in a.sorted_terms():
        if isinstance(coeff, (int, Fraction)):
            c, head = coeff, []
        elif len(items := coeff.sorted_items()) == 1:
            [(key, c)] = items
            head = _powers(style, key)
        else:  # sorted once, for the test above and the print
            c, head = 1, [style.group[0] + parampoly(style, items) + style.group[1]]
        yield term(style, c, head + [factor(*pair) for pair in mono] + y)


def element(style: Style, a) -> str:
    return join(_element_terms(style, a, 0, cache(partial(_generator_power, style))))


def series(style: Style, s) -> str:
    factor = cache(partial(_generator_power, style))  # of a monomial's (index, Exponent) pairs
    return join(
        t for k, a in enumerate(s.coefficients()) for t in _element_terms(style, a, k, factor)
    )


def fdbpoly(style: Style, p) -> str:
    symbol = cache(lambda name, i, e: power(style, subscript(style, name, i), e))
    return join(
        term(style, c, [symbol("y", *pair) for pair in y] + [symbol("x", *pair) for pair in x])
        for (y, x), c in p.sorted_terms()
    )


def qpoly(style: Style, p: Sequence[int | Fraction]) -> str:
    """A dense polynomial [a0, a1, ...] in x, highest power first."""
    return join(
        term(style, p[k], [power(style, "x", k)] if k else [])
        for k in range(len(p) - 1, -1, -1)
        if p[k]
    )


# ---------------------------------------------------------------- the lexicon

SPACE = " \t\n"
TOKEN = (  # the parser's tokens, tried in this order
    f"(?P<ws>[{SPACE}]+)|(?P<number>[0-9]+(?:/[0-9]+)?)"
    "|(?P<lgen>l_-?[0-9]+)|(?P<ysym>y_[0-9]+)|(?P<xsym>x_[0-9]+)"
    "|(?P<name>[A-Za-z_][A-Za-z_0-9]*)|(?P<op>[-+*^()])"
)
RESERVED = ("x", "y", "log", "exp")  # names the parser reads as no parameter
RATIONAL = "-?[0-9]+(?:/[1-9][0-9]*)?"  # the schema's ``rational``
INTEGER = "[+-]?[0-9]+"
DIGITS = "[0-9]+"  # an index key of a Faà di Bruno polynomial's JSON
WEIGHT = (  # p/q with q > 0, or a decimal with an optional exponent, as Fraction reads them
    "[+-]?[0-9]+/[0-9]*[1-9][0-9]*"
    "|[+-]?(?:[0-9]+(?:[.][0-9]*)?|[.][0-9]+)(?:[eE](?P<exp>[+-]?[0-9]+))?"
)
# d/dx's closure check on l_k costs time and memory quadratic in k: expanding
# l_2000(x) took 0.17 s and 30 MB on a 2-CPU Xeon, l_5000(x) 1.0 s and 113 MB.
MAX_TOWER_INDEX = 2000


def read_number(text: str) -> int | Fraction:
    """The value of a lexicon number ``p``, ``p/q`` or decimal, at any length (``int`` reads
    at most 4,300 digits); ZeroDivisionError if ``q`` is 0."""
    num, _, den = text.partition("/")
    value = Fraction(Decimal(num)) / int(Decimal(den or 1))
    return value.numerator if value.denominator == 1 else value


def read_index(value: int | str) -> int:
    """A tower or symbol index, an int or ``-?[0-9]+``, if within ``MAX_TOWER_INDEX``."""
    try:
        value = int(value)
    except ValueError:  # int() refuses more than 4,300 digits
        raise ValueError("index has too many digits") from None
    if abs(value) > MAX_TOWER_INDEX:
        raise ValueError(f"index above the cap {MAX_TOWER_INDEX} in absolute value")
    return value
