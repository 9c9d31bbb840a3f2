"""Exact formal calculus on the iterated-logarithm generator tower.

The package computes with finite sums of generator powers — x, log x,
exp x, and their iterates in both directions — over exact rational
coefficients that may involve symbolic parameters.  Derivations defined on
the generators extend by the Leibniz and power rules, and their truncated
exponentials give formal Taylor expansions that can be cross-checked, term
by term, against closed summation formulas built from Stirling-cycle
combinatorics.  A second alphabet handles composite-function derivatives
and the weight-sequence shift operators they induce.

Everything is exact: no floats, no tolerances — identities either hold
structurally or the verifiers report the first counterexample.

``import formalcalc`` loads no submodule: a public name imports its
submodule on first use (PEP 562), so a command pays only for what it runs.
"""

from importlib import import_module as _import_module

__version__ = "0.1.0"

# each public name, by the submodule that defines it
_SOURCES = {
    "algebra": "Element Exponent Monomial YSeries binom",
    "checks": "random_element random_exponent random_qpoly verify_automorphism verify_composition",
    "combinatorics": "signed_esym stirling1 stirling1_by_recurrence stirling_chain stirling_rows "
    "verify_chain_product verify_lubell",
    "derivations": "ClosureError Derivation d_dx x_d_dx",
    "diffrep": "IndexShift lifted_exp verify_intertwining",
    "expansions": "FORMS binomial_series closed_form_series iterated_log_series "
    "log_power_series log_series",
    "faadibruno": "ConsistencyError FdbPoly UmbralShift compose_expansion compose_series_direct "
    "compose_series_from_table derivative_tower substitute_weights taylor_coefficients "
    "umbral_shift",
    "params": "ParamPoly",
    "parser": "ParseError parse parse_element parse_fdb to_element to_exponent",
    "report": "VerifyReport",
}
_MODULE_OF = {name: module for module, names in _SOURCES.items() for name in names.split()}

__all__ = [*_MODULE_OF, "__version__"]


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(_import_module(f"{__name__}.{module}"), name)


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
