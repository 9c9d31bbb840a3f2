"""The public names of the package, the modules it imports, the refusals of
its entry points, and the caps that the README documents."""

import ast
import re
import sys
from importlib import import_module
from pathlib import Path

import pytest

import formalcalc
from formalcalc import (
    FdbPoly,
    ParamPoly,
    YSeries,
    closed_form_series,
    compose_series_direct,
    iterated_log_series,
    qpoly,
    signed_esym,
    stirling1_by_recurrence,
    stirling_rows,
    umbral_shift,
)
from formalcalc.algebra import Element, Exponent

README = Path(__file__).resolve().parents[1] / "README.md"


def test_public_names_are_pinned():
    assert sorted(formalcalc.__all__) == [
        "ClosureError", "ConsistencyError", "Derivation", "Element", "Exponent", "FORMS",
        "FdbPoly", "IndexShift", "Monomial", "ParamPoly", "ParseError", "UmbralShift",
        "VerifyReport", "YSeries", "__version__", "binom", "binomial_series",
        "closed_form_series", "compose_expansion", "compose_series_direct",
        "compose_series_from_table", "d_dx", "derivative_tower", "iterated_log_series",
        "lifted_exp", "log_power_series", "log_series", "parse", "parse_element",
        "parse_fdb", "random_element", "random_exponent", "random_qpoly", "signed_esym",
        "stirling1", "stirling1_by_recurrence", "stirling_chain", "stirling_rows",
        "substitute_weights", "taylor_coefficients", "to_element", "to_exponent",
        "umbral_shift", "verify_automorphism", "verify_chain_product", "verify_composition",
        "verify_intertwining", "verify_lubell", "x_d_dx",
    ]
    for name in formalcalc.__all__:
        assert getattr(formalcalc, name) is not None, name


def test_runtime_imports_only_the_standard_library():
    """Every absolute import in the package names a standard-library module."""
    sources = sorted(Path(formalcalc.__file__).parent.glob("*.py"))
    assert len(sources) > 10
    outside = []
    for path in sources:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            outside += [
                f"{path.name}:{node.lineno} {name}"
                for name in names
                if name.split(".")[0] not in sys.stdlib_module_names
            ]
    assert outside == []


def test_no_assert_serves_as_a_runtime_check():
    """``python -O`` strips asserts, so the package checks with raise, never assert."""
    sources = sorted(Path(formalcalc.__file__).parent.glob("*.py"))
    assert len(sources) > 10
    asserts = [
        f"{path.name}:{node.lineno}"
        for path in sources
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert asserts == []


def _public_definitions(tree: ast.Module):
    """``(name, line)`` of each public module-level function, class, constant and method."""
    for node in tree.body:
        body = node.body if isinstance(node, ast.ClassDef) else []
        for item in [node, *body]:
            if isinstance(item, (ast.FunctionDef, ast.ClassDef)):
                names = [item.name]
            elif isinstance(item, ast.Assign) and item is node:
                names = [getattr(target, "id", "_") for target in item.targets]
            else:
                continue
            yield from ((name, item.lineno) for name in names if not name.startswith("_"))


def test_every_public_definition_is_used_or_documented():
    """A public name that no other line of ``src/`` names and the README does not name
    serves only the tests, and belongs there or in the README's library tour."""
    sources = {
        path: path.read_text() for path in sorted(Path(formalcalc.__file__).parent.glob("*.py"))
    }
    lines = [(path, n, line) for path, text in sources.items()
             for n, line in enumerate(text.splitlines(), 1)]
    readme = README.read_text()
    unused = []
    for path, text in sources.items():
        for name, lineno in _public_definitions(ast.parse(text, str(path))):
            word = re.compile(rf"\b{name}\b")
            if word.search(readme) or any(
                word.search(line) for where, n, line in lines if (where, n) != (path, lineno)
            ):
                continue
            unused.append(f"{path.name}:{lineno} {name}")
    assert unused == []


def test_only_the_lexicon_reads_digits():
    """Outside ``render``, the lexicon's home, no pattern uses the Unicode classes ``\\d``,
    ``\\s`` or ``\\w``, and no code reads digits with ``isdigit``, ``isdecimal``,
    ``isnumeric`` or ``Decimal``: every reader matches the lexicon's ASCII patterns."""
    sources = sorted(Path(formalcalc.__file__).parent.glob("*.py"))
    found = []
    for path in sources:
        if path.stem == "render":
            continue
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                if re.search(r"\\[dsw]", node.value):
                    found.append(f"{path.name}:{node.lineno} pattern {node.value!r}")
            elif isinstance(node, ast.Call):
                func = node.func
                name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", "")
                if name in ("isdigit", "isdecimal", "isnumeric", "Decimal"):
                    found.append(f"{path.name}:{node.lineno} {name}()")
    assert found == []


# name -> (a call that must refuse its arguments, the error it raises, the message it gives)
REFUSALS = {
    "iterated_log_series": (
        lambda: iterated_log_series(1, 1, -1), ValueError, "order must be nonnegative"
    ),
    "closed_form_series": (
        lambda: closed_form_series(Element.gen(0), -1), ValueError, "order must be nonnegative"
    ),
    "outer_symbol": (
        lambda: FdbPoly.outer_symbol(-1), ValueError, "outer symbols are indexed from 0"
    ),
    "inner_symbol": (
        lambda: FdbPoly.inner_symbol(0), ValueError, "inner symbols are indexed from 1"
    ),
    "compose_series_direct": (
        lambda: compose_series_direct([1, 1], [0, 1], -1), ValueError, "order must be nonnegative"
    ),
    "image_of_power": (
        lambda: umbral_shift([1], 2).image_of_power(2),
        ValueError,
        "operator solved only for powers below 2",
    ),
    "umbral_shift": (lambda: umbral_shift([1], 0), ValueError, "depth must be at least 1"),
    "stirling_rows": (lambda: stirling_rows(-1), ValueError, "max_k must be nonnegative"),
    "signed_esym": (
        lambda: signed_esym(-1, 0), ValueError, "signed_esym arguments must be nonnegative"
    ),
    "stirling1_by_recurrence": (
        lambda: stirling1_by_recurrence(-1, 0), ValueError, "stirling1 arguments must be nonnegative"
    ),
    "qpoly.power": (lambda: qpoly.power([1], -1), ValueError, "power must be nonnegative"),
    "truncate": (
        lambda: YSeries.of_element(Element.gen(0), 2).truncate(-1),
        ValueError,
        "order must be nonnegative",
    ),
    "constant_value": (
        lambda: ParamPoly.param("r").constant_value(), ValueError, "not a constant: r"
    ),
    "param": (lambda: ParamPoly.param(""), ValueError, "parameter name must be nonempty"),
    # text is read by the parser and the JSON readers, never by Fraction's own grammar
    "canonical_coeff": (
        lambda: Element.const(" \u0661_\u0660/3 "),
        TypeError,
        "a coefficient must be a number, not the string ' \u0661_\u0660/3 '",
    ),
    "exponent_const": (
        lambda: Exponent("\u0663"), TypeError, "a coefficient must be a number, not the string '\u0663'"
    ),
    "exponent_linear": (
        lambda: Exponent(0, {"r": "2"}), TypeError, "a coefficient must be a number, not the string '2'"
    ),
}


@pytest.mark.parametrize("call, error, message", REFUSALS.values(), ids=REFUSALS)
def test_refusals(call, error, message):
    with pytest.raises(error) as info:
        call()
    assert type(info.value) is error
    assert str(info.value) == message


def _caps_in_source() -> dict[str, int]:
    """Every module-level ``MAX_*``, ``*_CAP`` or ``*_SIZE`` constant, as ``module.NAME``."""
    caps = {}
    for path in sorted(Path(formalcalc.__file__).parent.glob("*.py")):
        module = import_module(f"formalcalc.{path.stem}") if path.stem != "__init__" else formalcalc
        for node in ast.parse(path.read_text(), str(path)).body:
            targets = node.targets if isinstance(node, ast.Assign) else []
            for target in targets:
                name = getattr(target, "id", "")
                if re.fullmatch(r"_?(MAX_\w+|\w+_CAP|\w+_SIZE)", name):
                    caps[f"{path.stem}.{name}"] = getattr(module, name)
    return caps


def _integer(cell: str) -> int:
    """The value of a table cell such as ``4,096`` or ``2^63 − 1``."""
    text = cell.replace(",", "").replace("^", "**").replace("\u2212", "-")
    tree = ast.parse(text, mode="eval")
    allowed = (ast.Expression, ast.BinOp, ast.UnaryOp, ast.Constant, ast.Pow, ast.Sub,
               ast.Add, ast.Mult, ast.USub)
    assert all(isinstance(node, allowed) for node in ast.walk(tree)), cell
    value = eval(compile(tree, "<cell>", "eval"))
    assert type(value) is int, cell
    return value


def test_readme_caps_table_matches_the_code():
    """The README's ``## Caps`` table names every cap in the code, with its value."""
    section = README.read_text().split("\n## Caps\n", 1)[1].split("\n## ", 1)[0]
    rows = re.findall(r"^\| `(\w+\.\w+)` \| ([^|]+) \|", section, re.MULTILINE)
    table = {name: _integer(value.strip()) for name, value in rows}
    caps = _caps_in_source()
    assert len(caps) >= 7
    assert table == caps
