"""Closed-form Taylor expansions against the derivation engine.

The engine is the ground truth here: each closed summation formula must
reproduce exp(y d/dx) applied to the corresponding generator power, exactly
and coefficient by coefficient.
"""

from fractions import Fraction
from math import factorial, prod

import pytest

from formalcalc.algebra import Element, Exponent, Monomial, YSeries, binom
from formalcalc.combinatorics import (
    _compositions,
    _descending_chains,
    signed_esym,
    stirling1,
    stirling_chain,
)
from formalcalc.derivations import d_dx
from formalcalc.expansions import (
    FORMS,
    binomial_series,
    closed_form_series,
    iterated_log_series,
    log_power_series,
    log_series,
)


def test_binomial_series_integer_exponent():
    """(x+y)^3 has the familiar four terms and nothing beyond."""
    s = binomial_series(3, 5)
    x = Element.gen(0)
    assert s.coefficient(0) == x**3
    assert s.coefficient(1) == Element.const(3) * x**2
    assert s.coefficient(2) == Element.const(3) * x
    assert s.coefficient(3) == Element.one()
    assert s.coefficient(4) == Element.zero()
    assert s.coefficient(5) == Element.zero()


def test_binomial_series_negative_exponent():
    """(x+y)^(-1) = x^(-1) - x^(-2) y + x^(-3) y^2 - ..."""
    s = binomial_series(-1, 4)
    for k in range(5):
        want = Element.gen(0, -1 - k) * Fraction((-1) ** k)
        assert s.coefficient(k) == want


def test_binomial_series_matches_engine_symbolic():
    r = Exponent.param("r")
    assert binomial_series(r, 6) == d_dx().exp_series(Element.gen(0, r), 6)


def test_log_series_coefficients():
    s = log_series(5)
    assert s.coefficient(0) == Element.gen(1)
    for k in range(1, 6):
        want = Element.gen(0, -k) * Fraction((-1) ** (k + 1), k)
        assert s.coefficient(k) == want


def test_log_power_series_first_power():
    assert log_power_series(1, 4) == log_series(4)


def test_log_power_series_matches_engine():
    r = Exponent.param("r")
    assert log_power_series(r, 5) == d_dx().exp_series(Element.gen(1, r), 5)
    assert log_power_series(2, 4) == d_dx().exp_series(Element.gen(1, 2), 4)


def test_iterated_log_forms_match_engine():
    """All three summation formulas agree with the engine for n = 1, 2, 3."""
    r = Exponent.param("r")
    for n in (1, 2, 3):
        engine = d_dx().exp_series(Element.gen(n, r), 3)
        for form in FORMS:
            assert iterated_log_series(n, r, 3, form) == engine, (n, form)


def old_iterated_log_series(n, exponent, order, form):
    """The summation formulas as first written: every monomial through the
    normalising ``Monomial`` constructor, every scale from three Fractions."""

    def tower_monomial(e, drops):
        powers = [(n, e - drops[n])]
        powers.extend((i, Exponent.of(-drops[i])) for i in range(n))
        return Monomial(tuple(powers))

    e = Exponent.of(exponent)
    binoms = [binom(e, j) for j in range(order + 1)]
    terms = [[] for _ in range(order + 1)]
    if form == "stirling":
        for j0 in range(order + 1):
            for js in _descending_chains(n, j0, 0):
                tup = (j0,) + js
                weight = prod(stirling1(tup[i], tup[i + 1]) for i in range(n))
                if weight == 0:
                    continue
                jn = tup[n]
                scale = Fraction(factorial(jn), factorial(j0)) * (-1) ** (j0 + jn) * weight
                terms[j0].append((tower_monomial(e, tup), binoms[jn] * scale))
    elif form == "chain":
        terms[0].append((Monomial.gen(n, e), 1))
        for k in range(1, order + 1):
            for js in _descending_chains(n, k, 1):
                tup = (k,) + js
                jn = tup[n]
                s_value = stirling_chain(tuple(reversed(tup)))
                if s_value == 0:
                    continue
                scale = Fraction(factorial(jn), factorial(k)) * (-1) ** (k + jn) * s_value
                terms[k].append((tower_monomial(e, tup), binoms[jn] * scale))
    else:
        for k in range(order + 1):
            for js in _compositions(k, n + 1, 0):
                suffix = [0] * (n + 2)
                for i in range(n, -1, -1):
                    suffix[i] = suffix[i + 1] + js[i]
                weight = prod(signed_esym(js[i], suffix[i + 1]) for i in range(n))
                if weight == 0:
                    continue
                jn = js[n]
                scale = Fraction(factorial(jn), factorial(k)) * weight
                terms[k].append((tower_monomial(e, tuple(suffix[: n + 1])), binoms[jn] * scale))
    return YSeries([Element.from_terms(t) for t in terms])


@pytest.mark.parametrize(
    "exponent",
    [-2, 3, Fraction(1, 2), Fraction(-2, 3), Exponent.param("r"), Exponent.param("r", 2, -1)],
    ids=str,
)
def test_iterated_log_forms_match_engine_and_old_route(exponent):
    """Every form, n <= 3, order 6: equal to the engine and to the normalising route."""
    for n in (1, 2, 3):
        engine = d_dx().exp_series(Element.gen(n, exponent), 6)
        for form in FORMS:
            got = iterated_log_series(n, exponent, 6, form)
            assert got == engine, (n, form)
            assert got == old_iterated_log_series(n, exponent, 6, form), (n, form)
            for c in got.coefficients():
                for mono, coeff in c.items():
                    assert mono == Monomial(mono.powers) and coeff, (n, form)


def test_iterated_log_numeric_exponent():
    engine = d_dx().exp_series(Element.gen(2, -2), 4)
    for form in FORMS:
        assert iterated_log_series(2, -2, 4, form) == engine, form


def test_iterated_log_constant_term():
    r = Exponent.param("r")
    s = iterated_log_series(3, r, 2, "chain")
    assert s.coefficient(0) == Element.gen(3, r)


def test_iterated_log_rejects_bad_input():
    with pytest.raises(ValueError):
        iterated_log_series(-1, 2, 3)
    with pytest.raises(ValueError):
        iterated_log_series(1, 2, 3, form="newton")


def test_closed_form_series_product():
    """A product element expands as the product of its factor expansions."""
    r = Exponent.param("r")
    a = Element.const(3) * Element.gen(0, r) * Element.gen(1, -1)
    engine = d_dx().exp_series(a, 3)
    for form in FORMS:
        assert closed_form_series(a, 3, form) == engine, form


def test_closed_form_series_sum():
    a = Element.gen(0, 2) + Element.const(2) * Element.gen(1)
    assert closed_form_series(a, 4) == d_dx().exp_series(a, 4)


def test_closed_form_rejects_negative_indices():
    with pytest.raises(ValueError):
        closed_form_series(Element.gen(-1), 3)
