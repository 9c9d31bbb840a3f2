"""The public names of the package, and the modules it imports."""

import ast
import sys
from pathlib import Path

import formalcalc


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
