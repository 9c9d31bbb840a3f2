"""JSON codecs and LaTeX rendering for every value shape the CLI emits."""

import json
import re
import tracemalloc
from fractions import Fraction
from random import Random

import jsonschema
import pytest

from formalcalc import cli, latexio, qpoly, render
from formalcalc.algebra import Element, Exponent, YSeries
from formalcalc.params import ParamPoly
from formalcalc.checks import random_element, random_qpoly
from formalcalc.derivations import d_dx
from formalcalc.faadibruno import FdbPoly, derivative_tower, umbral_shift
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
    parampoly_from_json,
    qpoly_from_json,
    qpoly_to_json,
    series_doc,
    table_doc,
    yseries_from_json,
    yseries_to_json,
)
from formalcalc.parser import parse_element
from test_algebra import old_sort_key


def test_fraction_codec():
    assert fraction_to_json(Fraction(-3, 4)) == "-3/4"
    assert fraction_to_json(Fraction(5)) == "5"
    assert fraction_from_json("-3/4") == Fraction(-3, 4)
    assert fraction_from_json("7") == Fraction(7)


@pytest.mark.parametrize(
    "text", ["1/0", "1e5", "1e999999", "0.5", " 7 ", "1_0", "+3", "1/-2", "1/02", "7\n", "", 5]
)
def test_fraction_reader_takes_only_the_schema_grammar(text):
    """The schema's ``rational`` is ``^-?[0-9]+(/[1-9][0-9]*)?$``; anything else is refused."""
    if type(text) is str:
        assert not re.fullmatch(load_schema()["$defs"]["rational"]["pattern"][1:-1], text)
    with pytest.raises(ValueError):
        fraction_from_json(text)


def test_every_written_rational_reads_back():
    rng = Random(35)
    values = [Fraction(0), Fraction(-1), Fraction(10**5000 + 7, 3), -Fraction(3, 10**5000 + 1)]
    for _ in range(300):
        digits = rng.choice((1, 3, 20, 4299, 4301, 5000))
        num = rng.randrange(-(10**digits), 10**digits)
        values.append(Fraction(num, rng.choice((1, 2, 7, rng.randrange(1, 10**digits)))))
    pattern = re.compile(load_schema()["$defs"]["rational"]["pattern"])
    for q in values:
        text = render.rational(q)
        assert pattern.match(text), text
        assert fraction_from_json(text) == q


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
    for junk in ("1e5", "12a", "1" * 5000 + "x", " 12 ", "1_2", "\u0661\u0662"):
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
    # objects shared at one level and across levels: each level keeps its own indentation
    shared, row = {"a": [1, {"b": "c"}], "n": None}, [2, [3]]
    doc = {"x": shared, "y": [shared, row, shared, {"z": shared}, row], "w": [[shared, shared]] * 3}
    assert dumps(doc) == json.dumps(doc, indent=2)
    assert dumps(5) == "5" and dumps([]) == "[]" and dumps({}) == "{}" and dumps("q") == '"q"'


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


def _factor(gen=1, linear=1):
    return {"gen": gen, "exp": {"const": "0", "linear": {"r": linear}}}


def _term(gen=1, linear=1, power=1):
    return {"monomial": [_factor(gen, linear)], "coeff": [{"coeff": "1", "powers": {"r": power}}]}


# each reader's integer fields, each given a float or a bool, which int() used to truncate
BAD_INTEGER_FIELDS = [
    *(
        (reader, doc, field)
        for bad in (1.5, 2.7, True)
        for reader, doc, field in (
            (exponent_from_json, {"const": "0", "linear": {"r": bad}}, "linear coefficient"),
            (parampoly_from_json, [{"coeff": "1", "powers": {"r": bad}}], "power"),
            (element_from_json, [_term(linear=bad)], "linear coefficient"),
            (element_from_json, [_term(power=bad)], "power"),
            (element_from_json, [_term(gen=bad)], "gen"),
            (yseries_from_json, {"order": 0, "coeffs": [[_term(gen=bad)]]}, "gen"),
            (fdbpoly_from_json, [{"coeff": "1", "outer": {"1": bad}, "inner": {}}], "outer"),
            (fdbpoly_from_json, [{"coeff": "1", "outer": {}, "inner": {"2": bad}}], "inner"),
        )
    ),
    (yseries_from_json, {"order": 0.9, "coeffs": [[_term()]]}, "order"),
    (yseries_from_json, {"order": True, "coeffs": [[_term()], []]}, "order"),
]


@pytest.mark.parametrize("reader, doc, field", BAD_INTEGER_FIELDS)
def test_integer_fields_refuse_floats_and_bools(reader, doc, field):
    with pytest.raises(ValueError, match=f"^{field} must be a JSON integer"):
        reader(doc)


def test_integer_fields_read_json_integers():
    assert exponent_from_json({"const": "0", "linear": {"r": 2}}) == Exponent.param("r", 2)
    assert str(yseries_from_json({"order": 0, "coeffs": [[_term(gen=0, power=2)]]})) == "r^2*x^r"
    poly = fdbpoly_from_json([{"coeff": "3", "outer": {"1": 2}, "inner": {"2": 1}}])
    assert list(poly.items()) == [((((1, 2),), ((2, 1),)), 3)]


@pytest.mark.parametrize(
    "side, powers, message",
    [
        ("outer", {"-3": 1}, "outer indices must be strings of decimal digits"),
        ("inner", {"0": 2}, "inner symbols are indexed from 1"),
        ("outer", {"1": 0}, "outer powers must be at least 1"),
        ("inner", {"1": -2}, "inner powers must be at least 1"),
        ("outer", {" 1_0 ": 1}, "outer indices must be strings of decimal digits"),
        ("inner", {"+2": 3}, "inner indices must be strings of decimal digits"),
        ("inner", {"1.0": 1}, "inner indices must be strings of decimal digits"),
        ("outer", {"": 1}, "outer indices must be strings of decimal digits"),
        ("outer", {"\u0661": 1}, "outer indices must be strings of decimal digits"),
        ("inner", {"\u00b2": 1}, "inner indices must be strings of decimal digits"),
    ],
)
def test_fdbpoly_reader_refuses_what_the_constructors_refuse(side, powers, message):
    term = {"coeff": "1", "outer": {}, "inner": {}, side: powers}
    with pytest.raises(ValueError, match=f"^{message}"):
        fdbpoly_from_json([term])


def test_fdbpoly_reader_keeps_the_lowest_indices_and_adds_repeats():
    poly = fdbpoly_from_json([{"coeff": "2", "outer": {"0": 1, "00": 2}, "inner": {"1": 1}}])
    assert list(poly.items()) == [((((0, 3),), ((1, 1),)), 2)]
    assert poly == FdbPoly.outer_symbol(0) ** 3 * FdbPoly.inner_symbol(1) * 2
    rows = derivative_tower(12)
    assert len(rows) == 13
    for poly in rows:
        assert fdbpoly_from_json(json.loads(dumps(fdbpoly_to_json(poly)))) == poly


@pytest.mark.parametrize("name", ["x", "y", "log", "exp", "l_3", "y_1", "x_2", "2r", "r s",
                                  "log(x) + r", " r", ""])
def test_param_readers_refuse_names_the_parser_reads_otherwise(name):
    """A loaded name must print as text that parses back to that one parameter."""
    with pytest.raises(ValueError, match=f"^not a parameter name: {re.escape(repr(name))}$"):
        parampoly_from_json([{"coeff": "1", "powers": {name: 1}}])
    with pytest.raises(ValueError, match=f"^not a parameter name: {re.escape(repr(name))}$"):
        exponent_from_json({"const": "0", "linear": {name: 1}})


@pytest.mark.parametrize("name", ["r", "s2", "l_a", "_t", "xs"])
def test_param_readers_take_names_the_parser_reads_back(name):
    poly = parampoly_from_json([{"coeff": "1", "powers": {name: 2}}])
    e = exponent_from_json({"const": "1", "linear": {name: 2}})
    assert poly == ParamPoly.param(name) ** 2 and e is Exponent.param(name, 2, 1)
    a = Element.gen(0, e) * poly
    assert element_from_json(json.loads(dumps(element_to_json(a)))) == a
    assert parse_element(str(a)) == a


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


# --- one render per distinct factor, and streamed JSON -----------------------


def _fresh_element_terms(style, a, ypower):
    """The terms of an element times y^ypower, every factor rendered afresh; it sorts the
    monomials by the old key and each coefficient by (-degree, key) itself."""
    y = [render.power(style, "y", ypower)] if ypower else []

    def powers(key):
        return [render.power(style, name, k) for name, k in key]

    for mono, coeff in sorted(a.items(), key=lambda kv: old_sort_key(kv[0])):
        factors = [render._generator_power(style, index, e) for index, e in mono.powers]
        if isinstance(coeff, (int, Fraction)):
            c, head = coeff, []
        else:
            items = sorted(coeff.items(), key=lambda kv: (-sum(k for _, k in kv[0]), kv[0]))
            if len(items) == 1:
                [(key, c)] = items
                head = powers(key)
            else:
                terms = (render.term(style, v, powers(key)) for key, v in items)
                c, head = 1, [style.group[0] + render.join(terms) + style.group[1]]
        yield render.term(style, c, head + factors + y)


def fresh_series(style, s):
    """``render.series`` without its per-call cache: the slow oracle of the cached walker."""
    return render.join(
        t for k, a in enumerate(s.coefficients()) for t in _fresh_element_terms(style, a, k)
    )


def fresh_fdbpoly(style, p):
    """``render.fdbpoly`` without its per-call cache."""

    def symbols(name, key):
        return [render.power(style, render.subscript(style, name, i), e) for i, e in key]

    return render.join(
        render.term(style, c, symbols("y", ys) + symbols("x", xs))
        for (ys, xs), c in sorted(p.items(), key=lambda kv: kv[0], reverse=True)
    )


def _series_cases():
    from formalcalc.diffrep import lifted_exp
    from formalcalc.expansions import closed_form_series

    rng = Random(2801)
    yield d_dx().exp_series(parse_element("l_3(x)^r*exp(x)^s"), 5)
    yield d_dx().exp_series(parse_element("l_2(x)^(1/2)*x^(-3/2)*l_-2(x)^(r-1)"), 3)
    yield closed_form_series(parse_element("l_4(x)^(2*r+1/3)*x^s"), 4)
    yield lifted_exp(parse_element("l_-1(x)^(-2)*l_2(x)"), 3)
    yield d_dx().exp_series(parse_element("l_40(x)"), 2)
    yield d_dx().exp_series(parse_element("l_120(x)"), 2)
    for _ in range(6):
        element = random_element(rng, max_terms=3, max_factors=3, params=("r", "s"))
        yield d_dx().exp_series(element, 3)


def test_cached_factors_match_a_fresh_render():
    """Text and LaTeX give the bytes of a walker that renders every factor afresh."""
    for series in _series_cases():
        for style in (render.TEXT, latexio.LATEX):
            want = fresh_series(style, series)
            assert render.series(style, series) == want
            for a in series.coefficients():
                assert render.element(style, a) == fresh_series(style, YSeries([a]))
                for mono, _ in a.sorted_terms():
                    fresh = [render._generator_power(style, i, e) for i, e in mono.powers]
                    assert render.monomial(style, mono) == (style.times.join(fresh) or "1")
        assert str(series) == fresh_series(render.TEXT, series)
        assert latexio.latex_yseries(series) == fresh_series(latexio.LATEX, series)
    for poly in derivative_tower(7):
        for style in (render.TEXT, latexio.LATEX):
            assert render.fdbpoly(style, poly) == fresh_fdbpoly(style, poly)


def test_each_distinct_factor_is_rendered_once_per_call(monkeypatch):
    """l_40 prints 1,641 generator powers drawn from 81 distinct ones; each is rendered
    once per call, and the next call renders them afresh (nothing outlives a call)."""
    series = d_dx().exp_series(parse_element("l_40(x)"), 2)
    pairs = [pair for a in series.coefficients() for mono, _ in a.sorted_terms() for pair in mono]
    assert (len(pairs), len(set(pairs))) == (1641, 81)
    calls = []
    real = render._generator_power
    monkeypatch.setattr(render, "_generator_power", lambda *args: calls.append(args) or real(*args))
    for style in (render.TEXT, latexio.LATEX, render.TEXT):
        calls.clear()
        render.series(style, series)
        assert len(calls) == 81
    doc = series_doc("expand", "l_40(x)", series)
    factors = [f for c in doc["series"]["coeffs"] for term in c for f in term["monomial"]]
    assert len(factors) == 1641 and len({id(f) for f in factors}) == 81


def test_shared_factor_text_is_written_once(monkeypatch):
    """The writer serialises a shared factor at most twice per call (streamed the first
    time, kept the second): an unshared copy of the document costs over 5 times the
    ``json.dumps`` calls (1,641 factors against 81 distinct ones)."""
    doc = series_doc("expand", "l_40(x)", d_dx().exp_series(parse_element("l_40(x)"), 2))
    unshared = json.loads(json.dumps(doc))
    assert unshared == doc
    counts = []
    for value in (doc, unshared):
        calls = []
        real = json.dumps
        monkeypatch.setattr(json, "dumps", lambda *a, **k: calls.append(a) or real(*a, **k))
        text = dumps(value)
        monkeypatch.setattr(json, "dumps", real)
        assert text == json.dumps(value, indent=2)
        counts.append(len(calls))
    assert counts[0] * 5 < counts[1], counts


_JSON_COMMANDS = {
    "symbolic": ("expand", "--expr", "l_3(x)^r*exp(x)^s", "--order", "5"),
    "rational": ("expand", "--expr", "l_2(x)^(1/2)*x^(-3/2)", "--order", "4", "--via", "closed-form"),
    "negative-index": ("expand", "--expr", "l_-2(x)^(r-1)*exp(x)^(-2)*l_2(x)", "--order", "3"),
    "lift": ("lift", "--expr", "l_2(x)^r*x", "--order", "4"),
    "fdb": ("faa-di-bruno", "--order", "7"),
    "umbral": ("umbral", "--B=1,-1/2,2", "--depth", "6"),
    "stirling-table": ("stirling-table", "--max", "40"),
    "verify": ("verify", "lubell", "--max", "5"),
}


def _library_doc(argv):
    """The document the CLI streams for ``argv``, built in process."""
    from formalcalc import jsonio
    from formalcalc.combinatorics import stirling_rows, verify_lubell
    from formalcalc.diffrep import lifted_exp
    from formalcalc.expansions import closed_form_series
    from formalcalc.faadibruno import taylor_coefficients

    command = argv[0]
    if command in ("expand", "lift"):
        expr, order = argv[2], int(argv[4])
        if command == "lift":
            expand = lifted_exp
        else:
            expand = closed_form_series if "closed-form" in argv else d_dx().exp_series
        return series_doc(command, expr, expand(parse_element(expr), order))
    if command == "faa-di-bruno":
        return jsonio.fdb_doc(int(argv[2]), taylor_coefficients(int(argv[2])))
    if command == "umbral":
        return jsonio.umbral_doc(umbral_shift([Fraction(1), Fraction(-1, 2), Fraction(2)], 6))
    if command == "stirling-table":
        return table_doc(int(argv[2]), stirling_rows(int(argv[2])))
    return jsonio.report_to_json(verify_lubell(max_n=int(argv[3])))


@pytest.mark.parametrize("argv", list(_JSON_COMMANDS.values()), ids=list(_JSON_COMMANDS))
def test_streamed_cli_json_equals_dumps(argv, capsys):
    """Every JSON command streams ``dumps(doc)`` and ``json.dumps(doc, indent=2)`` byte for byte."""
    doc = _library_doc(argv)
    assert cli.main(["--format", "json", *argv]) in (0, 1)
    out = capsys.readouterr().out
    assert out == dumps(doc) + "\n"
    assert out == json.dumps(doc, indent=2) + "\n"
    jsonschema.validate(json.loads(out), load_schema())


def test_streamed_json_holds_little_beyond_the_document():
    """Streaming the closed-form JSON of l_3(x)^r*x^s to order 8 (about 506 KB) into a
    discarding sink peaks below 4 times its length (10.7 times when it was joined whole)."""
    from formalcalc.expansions import closed_form_series
    from formalcalc.jsonio import dump

    class Discard:
        def write(self, text):
            pass

        def writelines(self, pieces):
            for _ in pieces:
                pass

    series = closed_form_series(parse_element("l_3(x)^r*x^s"), 8)
    size = len(dumps(series_doc("expand", "l_3(x)^r*x^s", series)))
    tracemalloc.start()
    try:
        dump(series_doc("expand", "l_3(x)^r*x^s", series), Discard())
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert size > 500_000
    assert peak < 4 * size, (peak, size)
