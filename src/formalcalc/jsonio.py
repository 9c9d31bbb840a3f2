"""JSON encoding/decoding for the algebra types and CLI payloads.

Rationals are strings like ``"-3/2"`` (exactness survives any JSON
round-trip; floats never appear), read by the schema's ``rational`` grammar
and nothing else.  Integers of any size are written in
full (``render.integer``) and read back by ``integer_from_json``, also past
the interpreter's limit on int-to-str digits.  The readers match the lexicon
in ``render``, as the parser does: a parameter name is read only if the parser
reads it back as that one parameter, and an index only up to its cap.
``dump`` streams a document; a series document shares one dict per distinct
factor, written once.  The document shapes produced by the CLI are described
by ``schema/cli-output.schema.json``, shipped inside the package;
``load_schema`` returns it as a dict.
"""

from __future__ import annotations

import json
import re
from fractions import Fraction
from functools import cache
from typing import TYPE_CHECKING, Any, Callable, Iterator, TextIO

from . import render
from .algebra import Element, Exponent, Monomial, YSeries
from .params import ParamPoly, _sum_into, as_parampoly

if TYPE_CHECKING:
    from .faadibruno import FdbPoly, UmbralShift
    from .qpoly import QPoly
    from .report import VerifyReport


def integer_from_json(s: str) -> int:
    """The integer of a signed string of ASCII digits, at any size (``render.read_number``).
    Serves as ``json.loads(parse_int=...)``."""
    if not re.fullmatch(render.INTEGER, s):
        raise ValueError(f"an integer must be a string of decimal digits, not {s!r}")
    return render.read_number(s)


def _int(value: object, field: str) -> int:
    """The value of an integer field; a float, a bool or a string raises ValueError."""
    if type(value) is not int:
        raise ValueError(f"{field} must be a JSON integer, not {value!r}")
    return value


def fraction_to_json(q: Fraction) -> str:
    return render.rational(q)


def fraction_from_json(s: str) -> Fraction:
    """The value of a schema ``rational``, ``-?[0-9]+(/[1-9][0-9]*)?``, at any size."""
    match = re.fullmatch(render.RATIONAL, s) if type(s) is str else None
    if match is None:
        raise ValueError(f"a rational must be a string like '-3/2', not {s!r}")
    return Fraction(render.read_number(s))


def parampoly_to_json(p: ParamPoly) -> list[dict[str, Any]]:
    return [
        {"coeff": render.rational(c), "powers": {name: power for name, power in key}}
        for key, c in p.sorted_items()
    ]


def _param(name: object) -> str:
    """``name``, if the parser reads it back as that one parameter; else ValueError."""
    match = re.match(render.TOKEN, name) if type(name) is str else None
    if not match or match.lastgroup != "name" or match.end() < len(name) or name in render.RESERVED:
        raise ValueError(f"not a parameter name: {name!r}")
    return name


def parampoly_from_json(data: list[dict[str, Any]]) -> ParamPoly:
    pairs = []
    for term in data:
        key = tuple(sorted((_param(n), _int(p, "power")) for n, p in term["powers"].items()))
        pairs.append((key, fraction_from_json(term["coeff"])))
    return ParamPoly.from_terms(pairs)


def exponent_to_json(e: Exponent) -> dict[str, Any]:
    return {"const": render.rational(e.const), "linear": {n: m for n, m in e.linear}}


def exponent_from_json(data: dict[str, Any]) -> Exponent:
    return Exponent(
        fraction_from_json(data["const"]),
        tuple((_param(n), _int(m, "linear coefficient")) for n, m in data["linear"].items()),
    )


def _factor_to_json(index: int, e: Exponent) -> dict[str, Any]:
    return {"gen": index, "exp": exponent_to_json(e)}


def _element_to_json(a: Element, factor: Callable[..., dict]) -> list[dict[str, Any]]:
    """``element_to_json``, each factor's dict made by ``factor``, once per distinct factor."""
    return [
        {
            "monomial": [factor(*pair) for pair in mono],
            "coeff": parampoly_to_json(as_parampoly(coeff)),
        }
        for mono, coeff in a.sorted_terms()
    ]


def element_to_json(a: Element) -> list[dict[str, Any]]:
    return _element_to_json(a, cache(_factor_to_json))


def element_from_json(data: list[dict[str, Any]]) -> Element:
    pairs = []
    for term in data:
        factors = ((render.read_index(_int(p["gen"], "gen")), exponent_from_json(p["exp"]))
                   for p in term["monomial"])
        pairs.append((Monomial(tuple(factors)), parampoly_from_json(term["coeff"])))
    return Element.from_terms(pairs)


def yseries_to_json(s: YSeries) -> dict[str, Any]:
    factor = cache(_factor_to_json)
    return {
        "order": s.order,
        "coeffs": [_element_to_json(c, factor) for c in s.coefficients()],
    }


def yseries_from_json(data: dict[str, Any]) -> YSeries:
    coeffs = [element_from_json(c) for c in data["coeffs"]]
    if len(coeffs) != _int(data["order"], "order") + 1:
        raise ValueError("series order disagrees with coefficient count")
    return YSeries(coeffs)


def qpoly_to_json(p: QPoly) -> list[str]:
    return [render.rational(c) for c in p]


def qpoly_from_json(data: list[str]) -> QPoly:
    from .qpoly import from_coeffs

    return from_coeffs(fraction_from_json(c) for c in data)


def fdbpoly_to_json(p: FdbPoly) -> list[dict[str, Any]]:
    return [
        {
            "coeff": render.rational(c),
            "outer": {str(i): e for i, e in ys},
            "inner": {str(j): e for j, e in xs},
        }
        for (ys, xs), c in p.sorted_terms()
    ]


def fdbpoly_from_json(data: list[dict[str, Any]]) -> FdbPoly:
    from .faadibruno import FdbPoly

    pairs = []
    for term in data:
        key = (_symbols(term["outer"], "outer", 0), _symbols(term["inner"], "inner", 1))
        pairs.append((key, fraction_from_json(term["coeff"])))
    return FdbPoly.from_terms(pairs)


def _symbols(powers: dict[str, Any], side: str, least: int) -> tuple[tuple[int, int], ...]:
    """The sorted ``(index, power)`` pairs of one side of an fdbPoly term: each key ASCII
    digits for an index from ``least`` to its cap, each power a JSON integer >= 1."""
    pairs = []
    for i, power in powers.items():
        if type(i) is not str or not re.fullmatch(render.DIGITS, i):
            raise ValueError(f"{side} indices must be strings of decimal digits, not {i!r}")
        index, power = render.read_index(i), _int(power, side)
        if index < least:
            raise ValueError(f"{side} symbols are indexed from {least}, not {index}")
        if power < 1:
            raise ValueError(f"{side} powers must be at least 1, not {power}")
        pairs.append((index, power))
    return tuple(sorted(_sum_into({}, pairs).items()))


def report_to_json(r: VerifyReport) -> dict[str, Any]:
    return {"kind": "verify", **r._asdict()}


def series_doc(command: str, expr: str, series: YSeries) -> dict[str, Any]:
    return {
        "kind": "series",
        "command": command,
        "expr": expr,
        "series": yseries_to_json(series),
    }


def table_doc(max_k: int, rows: list[list[int]]) -> dict[str, Any]:
    return {"kind": "stirling-table", "max": max_k, "rows": rows}


def fdb_doc(order: int, coefficients: list[FdbPoly]) -> dict[str, Any]:
    return {
        "kind": "faa-di-bruno",
        "order": order,
        "coefficients": [fdbpoly_to_json(p) for p in coefficients],
    }


def umbral_doc(shift: UmbralShift) -> dict[str, Any]:
    return {
        "kind": "umbral",
        "weights": [render.rational(w) for w in shift.weights],
        "rows": [
            {"power": k, "image": qpoly_to_json(img)}
            for k, img in enumerate(shift.images)
        ],
    }


def dumps(doc: Any) -> str:
    """``json.dumps(doc, indent=2)``, writing integers of any size in full."""
    return "".join(_chunks(doc, "\n", {}))


def dump(doc: Any, out: TextIO) -> None:
    """Write ``dumps(doc)`` to ``out`` piece by piece, never whole."""
    out.writelines(_chunks(doc, "\n", {}))


def _text(doc: Any, indent: str, texts: dict[tuple[int, int], str]) -> str | None:
    """The text of a scalar, or of a container met before at this level (one object that
    the document shares, as ``series_doc`` does each factor's dict: made the second time,
    then kept); None to stream ``doc``."""
    if type(doc) is int:
        return render.integer(doc)
    if not doc or not isinstance(doc, (dict, list, tuple)):
        return json.dumps(doc)
    seen = (id(doc), len(indent))
    if texts.get(seen) == "":  # the second time
        texts[seen] = "".join(_chunks(doc, indent, texts))
    return texts.setdefault(seen, "") or None


def _chunks(doc: Any, indent: str, texts: dict[tuple[int, int], str]) -> Iterator[str]:
    """The pieces of ``doc``, ``indent`` starting each line of its level; texts between
    streamed items are joined into one piece."""
    if not doc or not isinstance(doc, (dict, list, tuple)):
        yield _text(doc, indent, texts)
        return
    inner = indent + "  "
    keyed = isinstance(doc, dict)
    out = ["{" if keyed else "["]
    for n, item in enumerate(doc.items() if keyed else doc):
        out.append(f",{inner}" if n else inner)
        if keyed:
            key, item = item
            out.append(json.dumps(key) + ": ")
        text = _text(item, inner, texts)
        if text is None:
            yield "".join(out)
            out.clear()
            yield from _chunks(item, inner, texts)
        else:
            out.append(text)
    out.append(indent + ("}" if keyed else "]"))
    yield "".join(out)


def load_schema() -> dict[str, Any]:
    from importlib import resources

    text = (
        resources.files("formalcalc") / "schema" / "cli-output.schema.json"
    ).read_text()
    return json.loads(text)
