"""JSON codecs and LaTeX rendering for every value shape the CLI emits."""

import json
from fractions import Fraction
from random import Random

import jsonschema
import pytest

from formalcalc import cli, latexio, qpoly, render
from formalcalc.algebra import Element, Exponent
from formalcalc.checks import random_element, random_qpoly
from formalcalc.derivations import d_dx
from formalcalc.faadibruno import derivative_tower, umbral_shift
from formalcalc.jsonio import (
    dumps,
    element_from_json,
    element_to_json,
    exponent_from_json,
    exponent_to_json,
    fdbpoly_from_json,
    fdbpoly_to_json,
    fraction_from_json,
    fraction_to_json,
    integer_from_json,
    load_schema,
    qpoly_from_json,
    qpoly_to_json,
    series_doc,
    table_doc,
    yseries_from_json,
    yseries_to_json,
)
from formalcalc.parser import parse_element


def test_fraction_codec():
    assert fraction_to_json(Fraction(-3, 4)) == "-3/4"
    assert fraction_to_json(Fraction(5)) == "5"
    assert fraction_from_json("-3/4") == Fraction(-3, 4)
    assert fraction_from_json("7") == Fraction(7)


def test_integers_past_the_str_digit_limit():
    """Exact integers print in full at any size, and JSON reads them back."""
    big = 10**5000 + 7
    digits = "1" + "0" * 4999 + "7"
    assert render.integer(big) == digits and render.integer(-big) == "-" + digits
    q = Fraction(-big, 3)
    assert render.rational(q) == f"-{digits}/3"
    assert fraction_from_json(fraction_to_json(q)) == q
    assert fraction_from_json(digits) == big
    assert integer_from_json(digits) == big and integer_from_json("-12") == -12
    for junk in ("1e5", "12a", "1" * 5000 + "x"):
        with pytest.raises(ValueError):
            integer_from_json(junk)
    assert latexio.latex_fraction(q) == f"-\\tfrac{{{digits}}}{{3}}"
    rows = [[1], [0, big]]
    assert list(cli._text_table(rows))[1] == " " * 5000 + "0 " + digits
    assert latexio.latex_table(rows).splitlines()[2] == f"0 & {digits} \\\\"
    doc = table_doc(1, rows)
    assert json.loads(dumps(doc), parse_int=integer_from_json) == doc


def test_dumps_matches_json_module():
    """``dumps`` writes what ``json.dumps(doc, indent=2)`` writes."""
    doc = {
        "kind": "x", "empty": [], "none": None, "flag": True, "nested": {"a": [1, -2, {}]},
        "text": "caf\u00e9 \"q\"", "rows": [[0, 1], [2]],
    }
    assert dumps(doc) == json.dumps(doc, indent=2)
    doc = series_doc("expand", "e", d_dx().exp_series(parse_element("x^r*log(x)^(1/2)"), 3))
    assert dumps(doc) == json.dumps(doc, indent=2)


def test_exponent_codec():
    e = Exponent.param("r", 2, Fraction(-1, 2))
    assert exponent_from_json(exponent_to_json(e)) == e
    assert exponent_from_json(exponent_to_json(Exponent.of(3))) == Exponent.of(3)


def test_element_codec_random():
    rng = Random(41)
    for _ in range(30):
        element = random_element(rng, params=("r", "s"))
        wire = json.loads(json.dumps(element_to_json(element)))
        assert element_from_json(wire) == element


def test_yseries_codec():
    rng = Random(43)
    series = d_dx().exp_series(random_element(rng, params=("r",)), 4)
    doc = json.loads(dumps({"x": yseries_to_json(series)}))["x"]
    assert yseries_from_json(doc) == series
    with pytest.raises(ValueError, match="order disagrees"):
        yseries_from_json({**doc, "order": doc["order"] + 1})


def test_qpoly_and_fdb_codecs():
    rng = Random(47)
    for _ in range(10):
        p = random_qpoly(rng, 5)
        assert qpoly_from_json(qpoly_to_json(p)) == p
    for poly in derivative_tower(5):
        assert fdbpoly_from_json(fdbpoly_to_json(poly)) == poly


def test_series_doc_validates():
    schema = load_schema()
    series = d_dx().exp_series(Element.gen(1), 3)
    doc = series_doc("expand", "log(x)", series)
    jsonschema.validate(json.loads(dumps(doc)), schema)


def test_schema_rejects_malformed_rationals():
    schema = load_schema()
    series = d_dx().exp_series(Element.gen(0), 1)
    doc = json.loads(dumps(series_doc("expand", "x", series)))
    doc["series"]["coeffs"][0][0]["coeff"][0]["coeff"] = "1.5"
    with pytest.raises(jsonschema.ValidationError):
        jsonschema.validate(doc, schema)


def test_latex_element_forms():
    r = Exponent.param("r")
    assert latexio.latex_element(Element.gen(0, r)) == "x^{r}"
    assert latexio.latex_element(Element.gen(1)) == "\\log x"
    assert latexio.latex_element(Element.gen(-1)) == "e^{x}"
    assert latexio.latex_element(Element.gen(2, -2)) == "\\ell_{2}(x)^{-2}"
    assert latexio.latex_element(Element.zero()) == "0"


def test_latex_powers_wrap_log_and_exp():
    """A powered e^{x} or log x is parenthesized, so no superscript follows another."""
    assert latexio.latex_element(parse_element("exp(x)^2")) == "(e^{x})^{2}"
    assert latexio.latex_element(parse_element("exp(x)^(r-1)")) == "(e^{x})^{r - 1}"
    assert latexio.latex_element(parse_element("log(x)^2")) == "(\\log x)^{2}"
    assert latexio.latex_element(parse_element("exp(x)*log(x)")) == "e^{x} \\log x"


def test_latex_fraction_and_qpoly():
    assert latexio.latex_fraction(Fraction(1, 2)) == "\\tfrac{1}{2}"
    assert latexio.latex_fraction(Fraction(-3)) == "-3"
    text = latexio.latex_qpoly(qpoly.from_coeffs([0, -1, 2, 1]))
    assert "x^{3}" in text


def test_latex_series_and_display():
    series = d_dx().exp_series(Element.gen(1), 2)
    text = latexio.latex_yseries(series)
    assert "y^{2}" in text
    assert latexio.display("z").startswith("\\[")
    assert latexio.display("z").endswith("\\]")


def test_umbral_doc_shape():
    from formalcalc.jsonio import umbral_doc

    doc = json.loads(dumps(umbral_doc(umbral_shift((1, 1), 3))))
    jsonschema.validate(doc, load_schema())
    assert doc["kind"] == "umbral"
    assert len(doc["rows"]) == 3
