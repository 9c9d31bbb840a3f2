"""The lexicon: every reader of numbers, names and indices (the parser, the
JSON readers and ``umbral --B``) matches the same ASCII patterns, held in
``render``, so what the package prints it reads back and nothing else
reads as a digit or a space."""

import json
from fractions import Fraction
from random import Random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from formalcalc import cli
from formalcalc.algebra import Element
from formalcalc.checks import random_element
from formalcalc.faadibruno import FdbPoly
from formalcalc.jsonio import (
    dumps,
    element_from_json,
    element_to_json,
    fdbpoly_from_json,
    fraction_from_json,
    integer_from_json,
)
from formalcalc.params import ParamPoly
from formalcalc.parser import ParseError, parse_element

FIVE_THOUSAND = "7" * 5000

# text -> (parser, schema rational, JSON integer, umbral --B): True where the reader takes it
NEAR_MISSES = {
    "3": (True, True, True, True),
    "-3": (True, True, True, True),
    FIVE_THOUSAND: (True, True, True, True),
    FIVE_THOUSAND + "/3": (True, True, False, True),
    "٣": (False, False, False, False),  # Arabic-Indic three
    "３": (False, False, False, False),  # full-width three
    "\u30003": (False, False, False, False),  # ideographic space
    "3\u00a0": (False, False, False, False),  # no-break space
    "1_0": (False, False, False, False),
    "1٣0": (False, False, False, False),
    "+3": (False, False, True, True),
    "1e5": (False, False, False, True),
    "0.5": (False, False, False, True),
    "1/02": (True, False, False, True),
    "1/-2": (False, False, False, False),
    "": (False, False, False, False),
}


def _parser(text: str) -> bool:
    try:
        parse_element(text)
    except ParseError:
        return False
    return True


def _json(read):
    def reads(text: str) -> bool:
        try:
            read(text)
        except ValueError:
            return False
        return True

    return reads


def _weight(text: str, capsys) -> bool:
    code = cli.main(["umbral", "--B", text, "--depth", "1"])
    err = capsys.readouterr().err
    assert code in (0, 2)
    if code == 2 and text:
        assert err == f"formalcalc: could not read weights from {text!r}\n"
    return code == 0


@pytest.mark.parametrize(
    "text", NEAR_MISSES, ids=lambda text: ascii(text) if len(text) < 20 else f"{len(text)} chars"
)
def test_each_reader_takes_only_its_own_grammar(text, capsys):
    readers = (_parser, _json(fraction_from_json), _json(integer_from_json))
    got = tuple(read(text) for read in readers) + (_weight(text, capsys),)
    assert got == NEAR_MISSES[text]


@pytest.mark.parametrize("weights", ["١,٢", "１,2", "1_0,2", "1\u3000,2"])
def test_umbral_refuses_weights_outside_the_lexicon(weights, capsys):
    assert cli.main(["umbral", "--B", weights, "--depth", "2"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"formalcalc: could not read weights from {weights!r}\n"


@pytest.mark.parametrize(
    "expr, column", [("x^٣", 3), ("l_٣(x)", 3), ("٣*x", 1), ("x\u3000+ 1", 2)]
)
def test_expand_refuses_characters_outside_the_lexicon(expr, column, capsys):
    assert cli.main(["expand", "--expr", expr, "--order", "1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"formalcalc: line 1, column {column}: unexpected character")


def _gen_term(index: int) -> dict:
    return {"monomial": [{"gen": index, "exp": {"const": "1", "linear": {}}}],
            "coeff": [{"coeff": "1", "powers": {}}]}


def test_element_reader_caps_the_tower_index():
    for index in (2000, -2000):
        assert element_from_json([_gen_term(index)]) == Element.gen(index)
    for index in (2001, -2001, 5000):
        with pytest.raises(ValueError, match="^index above the cap 2000 in absolute value$"):
            element_from_json([_gen_term(index)])


@pytest.mark.parametrize("side", ["outer", "inner"])
def test_fdbpoly_reader_caps_the_symbol_index(side):
    def term(index: str) -> dict:
        return {"coeff": "1", "outer": {}, "inner": {}, side: {index: 1}}

    symbol = FdbPoly.outer_symbol if side == "outer" else FdbPoly.inner_symbol
    assert fdbpoly_from_json([term("2000")]) == symbol(2000)
    for index in ("2001", "5000"):
        with pytest.raises(ValueError, match="^index above the cap 2000 in absolute value$"):
            fdbpoly_from_json([term(index)])
    with pytest.raises(ValueError, match="^index has too many digits$"):
        fdbpoly_from_json([term("1" * 4400)])


@given(st.integers(0, 2**32), st.sampled_from([1, -1, 3, Fraction(-2, 7), 10**60 + 1]))
def test_printed_elements_read_back(seed, scale):
    """What the package prints, as text or as JSON, reads back to the same element."""
    rng = Random(seed)
    a = random_element(rng, max_terms=3, index_window=(-4, 4), params=("r", "s", "t_1"))
    a = a * Element.const(ParamPoly.param("r") * scale + ParamPoly.param("s") ** 2)
    assert parse_element(str(a)) == a
    assert element_from_json(element_to_json(a)) == a
    wire = json.loads(dumps(element_to_json(a)), parse_int=integer_from_json)
    assert element_from_json(wire) == a
