"""Expression grammar: parsing, error positions, and print round-trips."""

from fractions import Fraction
import time
from random import Random

import pytest

from formalcalc import algebra
from formalcalc.algebra import Element, Exponent, Monomial
from formalcalc.checks import random_element
from formalcalc.faadibruno import FdbPoly, derivative_tower, taylor_coefficients
from formalcalc.parser import MAX_NESTING, ParseError, parse, parse_element, parse_fdb, to_exponent


def test_parse_generators():
    assert parse_element("x") == Element.gen(0)
    assert parse_element("log(x)") == Element.gen(1)
    assert parse_element("exp(x)") == Element.gen(-1)
    assert parse_element("l_3(x)") == Element.gen(3)
    assert parse_element("l_-2(x)") == Element.gen(-2)


def test_parse_numbers():
    assert parse_element("5") == Element.const(5)
    assert parse_element("3/4") == Element.const(Fraction(3, 4))
    assert parse_element("-2") == -Element.const(2)


def test_parse_powers():
    r = Exponent.param("r")
    assert parse_element("x^r") == Element.gen(0, r)
    assert parse_element("x^2") == Element.gen(0, 2)
    assert parse_element("x^-1") == Element.gen(0, -1)
    assert parse_element("l_2(x)^(r - 1)") == Element.gen(2, r - 1)
    assert parse_element("x^(2*r + 1)") == Element.gen(0, Exponent.param("r", 2, 1))


def test_parse_arithmetic():
    r = Exponent.param("r")
    want = Element.gen(0, r) + Element.const(2) * Element.gen(1)
    assert parse_element("x^r + 2*log(x)") == want
    assert parse_element("(x + 1)*(x - 1)") == Element.gen(0) ** 2 - Element.one()
    assert parse_element("-x^2") == -(Element.gen(0) ** 2)


def test_precedence():
    # ^ binds over *, * over +
    assert parse_element("2*x^2 + 1") == Element.const(2) * Element.gen(0, 2) + Element.one()
    assert parse_element("x^2*log(x)") == Element.gen(0, 2) * Element.gen(1)


def test_malformed_operator_column():
    with pytest.raises(ParseError) as info:
        parse_element("x^^2")
    assert info.value.column == 3


def test_unbalanced_paren():
    with pytest.raises(ParseError):
        parse_element("l_2(x")
    with pytest.raises(ParseError):
        parse_element("(x + 1")


def test_zero_denominator():
    with pytest.raises(ParseError):
        parse_element("1/0")


def test_reserved_and_unknown_names():
    with pytest.raises(ParseError):
        parse_element("y")
    with pytest.raises(ParseError):
        parse_element("sin(x)")


def test_non_affine_exponents_rejected():
    with pytest.raises(ParseError):
        parse_element("x^(r*s)")
    with pytest.raises(ParseError):
        parse_element("x^(r/2)")
    with pytest.raises(ParseError):
        parse_element("x^(x)")


def test_trailing_garbage():
    with pytest.raises(ParseError):
        parse_element("x 5")
    with pytest.raises(ParseError):
        parse_element("x + ")


def test_nesting_is_capped():
    x = Element.gen(0)
    deep = MAX_NESTING
    assert parse_element("(" * deep + "x" + ")" * deep) == x
    assert parse_element("-" * deep + "x") == x
    assert parse_fdb("(" * deep + "y_1" + ")" * deep) == FdbPoly.outer_symbol(1)
    for text in (
        "(" * (deep + 1) + "x" + ")" * (deep + 1),
        "(" * 3000 + "x" + ")" * 3000,  # raised RecursionError before the cap
        "-" * 3000 + "x",
        "x" + "^x" * 3000,
    ):
        with pytest.raises(ParseError, match="nested deeper than"):
            parse_element(text)
    with pytest.raises(ParseError, match="nested deeper than"):
        parse_fdb("(" * 3000 + "y_1" + ")" * 3000)


def test_long_sums_and_products_do_not_recurse():
    # an n-term chain parses to a tree n levels deep; 3000 terms used to
    # raise RecursionError during conversion
    x, r = Element.gen(0), Exponent.param("r")
    assert parse_element(" + ".join(["x"] * 3000)) == 3000 * x
    assert parse_element(" - ".join(["x"] * 3000)) == -2998 * x
    assert parse_element("*".join(["x"] * 3000)) == Element.gen(0, 3000)
    assert parse_element("x^(" + " + ".join(["r"] * 3000) + ")") == Element.gen(0, 3000 * r)
    assert parse_fdb(" + ".join(["y_1*x_1"] * 3000)) == 3000 * parse_fdb("y_1*x_1")
    assert parse_fdb(" - ".join(["y_1*x_1"] * 3000)) == -2998 * parse_fdb("y_1*x_1")


def test_a_long_exponent_is_summed_once():
    """A run of + and - in an exponent is summed in one dict; only the sum is interned."""
    text = "x^(" + "+".join(f"p{i}" for i in range(3000)) + ")"
    before = len(algebra._INTERN)
    start = time.perf_counter()
    element = parse_element(text)
    elapsed = time.perf_counter() - start
    assert len(algebra._INTERN) - before <= 3001  # each name, and the sum
    assert elapsed < 0.2  # pairwise sums interned 5,999 exponents in 1.4 s
    ((monomial, coeff),) = element.items()
    ((index, exponent),) = tuple(monomial)
    assert (index, coeff) == (0, 1)
    assert exponent is Exponent(0, {f"p{i}": 1 for i in range(3000)})


def test_a_long_sum_is_summed_once():
    """A run of + and - is one from_terms call; pairwise sums copied the growing sum
    at every term (10.3 s for the elements and 3.8 s for the polynomials)."""
    text = " + ".join(f"l_{i % 7}(x)^{i}" for i in range(1, 10_001))
    start = time.perf_counter()
    element = parse_element(text)
    elapsed = time.perf_counter() - start
    assert elapsed < 2.0, f"{elapsed:.2f}s over the 2s budget"
    assert dict(element.items()) == {Monomial.gen(i % 7, i): 1 for i in range(1, 10_001)}
    text = " + ".join(f"y_{i % 2000}*x_{i % 50 + 1}" for i in range(10_000))
    start = time.perf_counter()
    poly = parse_fdb(text)
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0, f"{elapsed:.2f}s over the 1s budget"
    assert dict(poly.items()) == {(((i, 1),), ((i % 50 + 1, 1),)): 5 for i in range(2000)}


@pytest.mark.parametrize(
    "text, const, linear",
    [
        ("2*r - (s - 3) + 1/2 - r", Fraction(7, 2), {"r": 1, "s": -1}),
        ("(r + s)*2 - 3*(r - 1/2) + t", Fraction(3, 2), {"r": -1, "s": 2, "t": 1}),
        ("-(r - s) - -r - 1 + (2 - (s + 1))*4", 3, {"r": 0, "s": -3}),
        ("r - r", 0, {}),
    ],
)
def test_mixed_exponent_chains(text, const, linear):
    assert to_exponent(parse(text)) is Exponent(const, linear)
    assert parse_element(f"x^({text})") == Element.gen(0, Exponent(const, linear))


def test_nonconstant_base_needs_plain_power():
    # a sum can be squared, but not raised to a symbolic exponent
    assert parse_element("(x + 1)^2") == (Element.gen(0) + Element.one()) ** 2
    with pytest.raises(ParseError):
        parse_element("(x + 1)^r")


def test_number_literals_of_any_length():
    """A coefficient past int()'s 4,300-digit limit prints in full and parses back."""
    big = Element.const(10**4400) * Element.gen(0)
    assert parse_element(str(big)) == big
    assert parse_element("1" * 4400 + "/" + "2" * 4400) == Element.const(Fraction(1, 2))
    with pytest.raises(ParseError, match="zero denominator"):
        parse_element("1/" + "0" * 4400)


def test_roundtrip_random_elements():
    """print -> parse is the identity on canonical output."""
    rng = Random(40)
    for _ in range(200):
        element = random_element(rng, params=("r", "s"))
        assert parse_element(str(element)) == element


def test_parse_fdb_basics():
    y2 = FdbPoly.outer_symbol(2)
    x1 = FdbPoly.inner_symbol(1)
    assert parse_fdb("y_2*x_1^2") == y2 * x1 * x1
    assert parse_fdb("3*x_2 - 1/2") == 3 * FdbPoly.inner_symbol(2) - Fraction(1, 2)
    with pytest.raises(ParseError):
        parse_fdb("log(x)")


def test_fdb_roundtrip():
    for poly in derivative_tower(5) + taylor_coefficients(4):
        if poly:
            assert parse_fdb(str(poly)) == poly


ENTRY_POINTS = {
    "element": parse_element,
    "fdb": parse_fdb,
    "exponent": lambda text: to_exponent(parse(text)),
}

# (entry point, input, message, column): one row per reachable rejection,
# in the order of the tokenizer, the parser and the three conversions
REJECTIONS = [
    ("element", "x $ 1", "unexpected character '$'", 3),
    ("element", "x^\u0663", "unexpected character '\u0663'", 3),
    ("element", "l_\u0663(x)", "unexpected character '\u0663'", 3),
    ("element", "\u0663*x", "unexpected character '\u0663'", 1),
    ("element", "x\u3000+ 1", "unexpected character '\\u3000'", 2),  # repr escapes it
    ("element", "l_2(x", "expected ')', found 'end of input'", 6),
    ("element", "(" * 101 + "x" + ")" * 101, "expression nested deeper than 100 levels", 102),
    pytest.param("element", "l_" + "1" * 4400 + "(x)", "index has too many digits", 1,
                 id="element-index-past-the-int-digit-limit"),
    ("element", "1 + l_-2001(x)", "index above the cap 2000 in absolute value", 5),
    ("fdb", "x_2001", "index above the cap 2000 in absolute value", 1),
    ("element", "l_2(r)", "generators are functions of x only", 5),
    ("element", "3/0", "zero denominator", 1),
    ("fdb", "x_0", "inner symbols are indexed from 1", 1),
    ("element", "2*y", "the name 'y' is reserved for the series variable", 3),
    ("element", "sin(x)", "unknown function 'sin'", 1),
    ("element", "x + )", "unexpected ')'", 5),
    ("element", "x^^2", "unexpected '^'", 3),
    ("element", "x + ", "unexpected 'end of input'", 5),
    ("element", "x 5", "unexpected '5'", 3),
    ("element", "x^(r^2)", "nested powers cannot appear in an exponent", 5),
    ("element", "x^log(x)", "exponents must be affine in the parameters", 3),
    ("exponent", "y_1", "exponents must be affine in the parameters", 1),
    ("element", "x^(1/2*r)", "parameter coefficients in exponents must be integers", 7),
    ("element", "x^(2*r*s)", "products of two parameters cannot appear in an exponent", 7),
    ("exponent", "r*s", "products of two parameters cannot appear in an exponent", 2),
    ("element", "1 + y_1",
     "the composite-derivative symbols y_i/x_j do not live in the generator algebra", 5),
    ("element", "(x + 1)^r",
     "only generators may carry symbolic, fractional, or negative exponents", 8),
    ("fdb", "y_1 + r", "only y_i, x_j, and rationals may appear here", 7),
    ("fdb", "y_1*log(x)", "only y_i, x_j, and rationals may appear here", 5),
    ("fdb", "y_1^(1/2)", "exponents here must be nonnegative integers", 6),
    ("fdb", "x_1^-1", "exponents here must be nonnegative integers", 5),
]


@pytest.mark.parametrize("entry, text, message, column", REJECTIONS)
def test_every_rejection_is_pinned(entry, text, message, column):
    with pytest.raises(ParseError) as info:
        ENTRY_POINTS[entry](text)
    error = info.value
    assert (error.message, error.line, error.column) == (message, 1, column)
    assert str(error) == f"line 1, column {column}: {message}"
