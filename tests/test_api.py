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
from formalcalc.algebra import Element

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


# name -> (a call that must refuse its arguments, the message it gives)
REFUSALS = {
    "iterated_log_series": (lambda: iterated_log_series(1, 1, -1), "order must be nonnegative"),
    "closed_form_series": (
        lambda: closed_form_series(Element.gen(0), -1), "order must be nonnegative"
    ),
    "outer_symbol": (lambda: FdbPoly.outer_symbol(-1), "outer symbols are indexed from 0"),
    "inner_symbol": (lambda: FdbPoly.inner_symbol(0), "inner symbols are indexed from 1"),
    "compose_series_direct": (
        lambda: compose_series_direct([1, 1], [0, 1], -1), "order must be nonnegative"
    ),
    "image_of_power": (
        lambda: umbral_shift([1], 2).image_of_power(2), "operator solved only for powers below 2"
    ),
    "umbral_shift": (lambda: umbral_shift([1], 0), "depth must be at least 1"),
    "stirling_rows": (lambda: stirling_rows(-1), "max_k must be nonnegative"),
    "signed_esym": (lambda: signed_esym(-1, 0), "signed_esym arguments must be nonnegative"),
    "stirling1_by_recurrence": (
        lambda: stirling1_by_recurrence(-1, 0), "stirling1 arguments must be nonnegative"
    ),
    "qpoly.power": (lambda: qpoly.power([1], -1), "power must be nonnegative"),
    "truncate": (
        lambda: YSeries.of_element(Element.gen(0), 2).truncate(-1), "order must be nonnegative"
    ),
    "constant_value": (lambda: ParamPoly.param("r").constant_value(), "not a constant: r"),
    "param": (lambda: ParamPoly.param(""), "parameter name must be nonempty"),
}


@pytest.mark.parametrize("call, message", REFUSALS.values(), ids=REFUSALS)
def test_refusals(call, message):
    with pytest.raises(ValueError) as info:
        call()
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
