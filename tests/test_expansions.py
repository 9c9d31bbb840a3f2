"""Closed-form Taylor expansions against the derivation engine.

The engine is the ground truth here: each closed summation formula must
reproduce exp(y d/dx) applied to the corresponding generator power, exactly
and coefficient by coefficient.
"""

from fractions import Fraction
from itertools import combinations_with_replacement, product
from math import factorial, prod
import time

import pytest

from formalcalc import algebra, expansions
from formalcalc.algebra import Element, Exponent, Monomial, YSeries, binom
from formalcalc.combinatorics import (
    _compositions,
    _descending_chains,
    signed_esym,
    stirling1,
    stirling_chain,
)
from formalcalc.derivations import d_dx
from formalcalc.parser import parse_element
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
    assert log_power_series(1, 4) == ref_log_power_series(1, 4)


def test_log_power_series_matches_engine():
    r = Exponent.param("r")
    assert log_power_series(r, 5) == d_dx().exp_series(Element.gen(1, r), 5)
    assert log_power_series(2, 4) == d_dx().exp_series(Element.gen(1, 2), 4)


def test_iterated_log_forms_match_engine():
    """All three summation formulas agree with the engine for n = 0 (x itself) to 3."""
    r = Exponent.param("r")
    for n in (0, 1, 2, 3):
        engine = d_dx().exp_series(Element.gen(n, r), 3)
        for form in FORMS:
            assert iterated_log_series(n, r, 3, form) == engine, (n, form)


R, S = Exponent.param("r"), Exponent.param("s")
# symbolic, rational, negative and class-changing exponents
EXPONENT_MENU = (R, 2 * R + Fraction(1, 3), Fraction(1, 2), Fraction(-3, 2), R - S)
# the menu and the integer exponents, where falling(e, k) vanishes or alternates
ORACLE_EXPONENTS = (*EXPONENT_MENU, 0, 1, -1, 3)


def test_closed_forms_skip_cleared(monkeypatch):
    """The closed forms build integer numerators, so none needs ``_cleared``."""
    exponents = EXPONENT_MENU
    order = 4
    engine = d_dx()
    log_want = engine.exp_series(Element.gen(1), order)
    want = {
        (n, e): engine.exp_series(Element.gen(n, e), order) for n in (0, 1, 2) for e in exponents
    }

    def refuse(*_args):
        raise AssertionError("a closed form cleared its denominators")

    monkeypatch.setattr(algebra, "_cleared", refuse)
    assert log_series(order) == log_want
    for e in exponents:
        assert binomial_series(e, order) == want[0, e], e
        for n in (0, 1, 2):
            for form in FORMS:
                assert iterated_log_series(n, e, order, form) == want[n, e], (n, e, form)


def ref_log_power_series(exponent, order):
    """(log(x+y))^e by the outer binomial over L = log(1 + y/x), a y-series of valuation 1:
    (log(x+y))^e = sum_{j<=N} binom(e, j) (log x)^(e-j) L^j exactly through y^N.
    The tower formula's independent oracle at n = 1: series products, no chains."""
    e = Exponent.of(exponent)
    inner = YSeries(
        [Element.zero()]
        + [Element.gen(0, -i) * Fraction((-1) ** (i - 1), i) for i in range(1, order + 1)]
    )
    out = YSeries.zero(order)
    lpower = YSeries.of_element(Element.one(), order)
    for j in range(order + 1):
        out = out + lpower * Element({Monomial.gen(1, e - j): binom(e, j)})
        lpower = lpower * inner
    return out


@pytest.mark.parametrize("exponent", ORACLE_EXPONENTS, ids=str)
def test_log_powers_match_the_binomial_loop(exponent):
    """n = 1 of the tower formula, every form, orders 0-8, against the series-product loop."""
    for order in range(9):
        want = ref_log_power_series(exponent, order)
        assert log_power_series(exponent, order) == want, order
        for form in FORMS:
            assert iterated_log_series(1, exponent, order, form) == want, (order, form)


def test_binomial_series_is_the_tower_at_index_zero():
    """n = 0 of the tower formula, every form, orders 0-8: falling(e, k) x^(e-k) over k!."""
    for exponent in ORACLE_EXPONENTS:
        for order in range(9):
            want = YSeries(
                [binom(exponent, k) * Element.gen(0, Exponent.of(exponent) - k) for k in range(order + 1)]
            )
            assert binomial_series(exponent, order) == want, (exponent, order)
            for form in FORMS:
                assert iterated_log_series(0, exponent, order, form) == want, (exponent, order, form)


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


def test_enumerators_match_their_definitions():
    """The enumerators that both routes share, against itertools, in lexicographic order."""
    for length in range(6):
        for top in range(-1, 7):
            for floor in range(3):
                rising = combinations_with_replacement(range(floor, top + 1), length)
                want = sorted(t[::-1] for t in rising)
                assert list(_descending_chains(length, top, floor)) == want, (length, top, floor)
    for total in range(9):
        for parts in range(1, 6):
            for floor in range(3):
                tuples = product(range(floor, total + 1), repeat=parts)
                want = [t for t in tuples if sum(t) == total]
                assert list(_compositions(total, parts, floor)) == want, (total, parts, floor)


def test_enumerators_reach_deep_towers():
    """One part per tower level, well past the interpreter's recursion limit."""
    chains = list(_descending_chains(1201, 1, 0))
    assert len(chains) == 1202 and chains[-1] == (1,) * 1201
    comps = list(_compositions(1, 1201, 0))
    assert len(comps) == 1201 and comps[0] == (0,) * 1200 + (1,)


def empty_table(monkeypatch):
    """Give the test an empty skeleton table; monkeypatch restores the shared one."""
    monkeypatch.setattr(expansions, "_SKELETONS", {})
    monkeypatch.setattr(expansions, "_skeleton_cells", 0)


@pytest.fixture
def cold_table(monkeypatch):
    empty_table(monkeypatch)


@pytest.mark.parametrize("orders", [(8, 4), (4, 8)], ids=str)
def test_skeleton_rows_give_the_same_series_cold_and_warm(monkeypatch, orders):
    """A row built for one order serves another: a prefix, or the start of a longer call."""
    r = Exponent.param("r")
    first, second = orders
    for n in (1, 2, 3):
        for form in FORMS:
            empty_table(monkeypatch)
            want = iterated_log_series(n, r, second, form)
            empty_table(monkeypatch)
            iterated_log_series(n, r, first, form)
            assert iterated_log_series(n, r, second, form) == want, (n, form)


def test_skeleton_rows_serve_every_exponent(cold_table):
    """One warm table, exponents in sequence: each form equals the engine and the old route."""
    r = Exponent.param("r")
    for exponent in (r, Exponent.param("r", 2, -1), Fraction(1, 2), -2, 3):
        for n in (0, 1, 2, 3):
            engine = d_dx().exp_series(Element.gen(n, exponent), 5)
            for form in FORMS:
                got = iterated_log_series(n, exponent, 5, form)
                assert got == engine, (exponent, n, form)
                assert got == old_iterated_log_series(n, exponent, 5, form), (exponent, n, form)
    assert len(expansions._SKELETONS) == 4 * 3 * 6


def test_skeleton_rows_hold_one_entry_per_chain(cold_table):
    """Every form's row of y^k lives on the chains k = a_0 >= ... >= a_n >= 1 (y^0: a = 0),
    one entry per chain and none of weight 0."""
    for n in range(5):
        for k in range(7):
            chains = [(k,) + js for js in _descending_chains(n, k, 1)] if k else [(0,) * (n + 1)]
            for form in FORMS:
                row = expansions._skeleton(n, k, form)
                drops = []
                for lower, jn, weight in row:
                    assert weight, (n, k, form)
                    powers = dict(lower)
                    assert len(powers) == len(lower) and set(powers) <= set(range(n))
                    lowers = (-powers[i].as_integer() if i in powers else 0 for i in range(n))
                    drops.append((*lowers, jn))
                assert sorted(drops) == sorted(chains), (n, k, form)


def test_skeleton_table_holds_no_parameter(cold_table):
    """Rows hold integer drops and weights and constant exponents, whatever e was."""
    for exponent in (Exponent.param("r"), Exponent.param("s", 3, Fraction(1, 2))):
        for form in FORMS:
            iterated_log_series(2, exponent, 5, form)
    for row in expansions._SKELETONS.values():
        for lower, jn, weight in row:
            assert type(jn) is int and type(weight) is int and weight
            assert all(e.is_constant for _, e in lower)


def test_skeleton_table_stays_within_its_cap(cold_table):
    """A row past the cap is used and not kept."""
    r = Exponent.param("r")
    iterated_log_series(200, r, 2)
    cells = sum(len(lower) + 1 for row in expansions._SKELETONS.values() for lower, _, _ in row)
    assert cells == expansions._skeleton_cells <= expansions._SKELETON_CAP
    # the chain row of y^2 has as many cells as the Stirling one: no room for it
    chain = iterated_log_series(200, r, 2, "chain")
    assert (200, 2, "chain") not in expansions._SKELETONS
    assert expansions._skeleton_cells <= expansions._SKELETON_CAP
    assert chain == iterated_log_series(200, r, 2)


def test_rows_past_the_cap_give_the_same_series(cold_table, monkeypatch):
    """With no room at all, nothing is kept and every result is unchanged."""
    monkeypatch.setattr(expansions, "_SKELETON_CAP", 0)
    r = Exponent.param("r")
    for form in FORMS:
        assert iterated_log_series(2, r, 4, form) == old_iterated_log_series(2, r, 4, form), form
    assert expansions._SKELETONS == {} and expansions._skeleton_cells == 0


@pytest.mark.parametrize(
    "exponent",
    [-2, 3, Fraction(1, 2), Fraction(-2, 3), Exponent.param("r"), Exponent.param("r", 2, -1)],
    ids=str,
)
def test_iterated_log_forms_match_engine_and_old_route(exponent):
    """Every form, n <= 3, order 6: equal to the engine and to the normalising route."""
    for n in (0, 1, 2, 3):
        engine = d_dx().exp_series(Element.gen(n, exponent), 6)
        for form in FORMS:
            got = iterated_log_series(n, exponent, 6, form)
            assert got == engine, (n, form)
            assert got == old_iterated_log_series(n, exponent, 6, form), (n, form)
            for c in got.coefficients():
                for mono, coeff in c.items():
                    assert mono == Monomial(mono.powers) and coeff, (n, form)


@pytest.mark.parametrize("n, order", [(200, 2), (12, 4)], ids=str)
def test_iterated_log_forms_match_engine_on_deep_towers(cold_table, n, order):
    """Every form past n = 3: l_200 to y^2 and l_12 to y^4, symbolic exponent."""
    r = Exponent.param("r")
    engine = d_dx().exp_series(Element.gen(n, r), order)
    for form in FORMS:
        assert iterated_log_series(n, r, order, form) == engine, form


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


def test_a_long_element_is_summed_once():
    """The terms' series are added in one pass; adding each to the growing sum
    copied it at every term (7.9 s for these 3,000 terms)."""
    a = parse_element(" + ".join(f"l_{i % 7}(x)^{i}" for i in range(1, 3001)))
    start = time.perf_counter()
    series = closed_form_series(a, 2)
    elapsed = time.perf_counter() - start
    assert elapsed < 2.0, f"{elapsed:.2f}s over the 2s budget"
    assert series == d_dx().exp_series(a, 2)
    assert closed_form_series(Element.zero(), 2) == YSeries.zero(2)
