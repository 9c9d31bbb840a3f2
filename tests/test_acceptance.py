"""Acceptance sweep: one test per published criterion.

Each test is tagged with the ``acceptance`` marker; conftest.py echoes a
PASS/FAIL line per criterion after the run.  Bounds and budgets live in
the asserts, not in configuration, so a regression is loud.  A timed
criterion also records its elapsed time and budget as user properties
just before its budget assert, so the summary line shows the margin even
when the budget is missed.
"""

import json
import os
import subprocess
import sys
import time
from fractions import Fraction
from math import factorial
from pathlib import Path
from random import Random

import pytest

from formalcalc import qpoly
from formalcalc.algebra import Element, Exponent
from formalcalc.checks import random_element, verify_automorphism, verify_composition
from formalcalc.combinatorics import (
    stirling1,
    stirling1_by_compositions,
    stirling1_by_recurrence,
    verify_chain_product,
    verify_lubell,
)
from formalcalc.derivations import d_dx, x_d_dx
from formalcalc.diffrep import lifted_exp, verify_intertwining
from formalcalc.expansions import (
    FORMS,
    binomial_series,
    iterated_log_series,
    log_power_series,
    log_series,
)
from formalcalc.faadibruno import FdbPoly, derivative_tower, umbral_shift
from formalcalc.jsonio import (
    element_from_json,
    element_to_json,
    yseries_from_json,
    yseries_to_json,
)
from formalcalc.parser import parse_element

GOLDEN = Path(__file__).parent / "golden"
SRC = Path(qpoly.__file__).resolve().parents[1]  # the directory that holds the package


@pytest.mark.acceptance(1, "automorphism property")
def test_criterion_1_automorphism(record_property):
    """exp(yD)(ab) = exp(yD)(a)exp(yD)(b): 200 pairs, both derivations, order 6."""
    started = time.perf_counter()
    report = verify_automorphism(trials=200, order=6, max_index=3)
    elapsed = time.perf_counter() - started
    record_property("elapsed_s", elapsed)
    record_property("budget_s", 30.0)
    assert report.passed, report.summary()
    assert report.cases == 400
    assert elapsed < 30.0, f"{elapsed:.1f}s over the 30s budget"


@pytest.mark.acceptance(2, "formal Taylor theorems")
def test_criterion_2_taylor_closed_forms(record_property):
    """Engine output equals each closed formula, coefficient by coefficient."""
    started = time.perf_counter()
    r = Exponent.param("r")
    engine = d_dx()
    assert binomial_series(r, 6) == engine.exp_series(Element.gen(0, r), 6)
    assert log_series(6) == engine.exp_series(Element.gen(1), 6)
    assert log_power_series(r, 5) == engine.exp_series(Element.gen(1, r), 5)
    for n in (1, 2, 3):
        for order in (1, 2, 3, 4):
            truth = engine.exp_series(Element.gen(n, r), order)
            for form in FORMS:
                got = iterated_log_series(n, r, order, form)
                assert got == truth, (n, order, form)
    elapsed = time.perf_counter() - started
    record_property("elapsed_s", elapsed)
    record_property("budget_s", 60.0)
    assert elapsed < 60.0, f"{elapsed:.1f}s over the 60s budget"


@pytest.mark.acceptance(3, "exponent law")
def test_criterion_3_exponent_law():
    r = Exponent.param("r")
    s = Exponent.param("s")
    assert binomial_series(r, 6) * binomial_series(s, 6) == binomial_series(r + s, 6)


@pytest.mark.acceptance(4, "intertwining and lifting")
def test_criterion_4_intertwine_and_lift():
    report = verify_intertwining(max_index=6)
    assert report.passed, report.summary()

    rng = Random(17)
    truth = x_d_dx()
    for _ in range(100):
        a = random_element(rng)
        assert lifted_exp(a, 5) == truth.exp_series(a, 5)

    # exp(y x d/dx) x = x e^y
    series = lifted_exp(Element.gen(0), 5)
    for k in range(6):
        assert series.coefficient(k) == Element.gen(0) * Fraction(1, factorial(k))
    # exp(y x d/dx) log(x) = log(x) + y
    series = lifted_exp(Element.gen(1), 5)
    assert series.coefficient(0) == Element.gen(1)
    assert series.coefficient(1) == Element.one()
    for k in range(2, 6):
        assert series.coefficient(k) == Element.zero()


@pytest.mark.acceptance(5, "chain recursion identity")
def test_criterion_5_chain_identity(record_property):
    started = time.perf_counter()
    report = verify_chain_product(max_k=6, max_n=3)
    assert report.passed, report.summary()
    report = verify_lubell(max_n=8, max_pair_sum=10)
    assert report.passed, report.summary()
    assert report.cases == 101
    elapsed = time.perf_counter() - started
    record_property("elapsed_s", elapsed)
    record_property("budget_s", 30.0)
    assert elapsed < 30.0, f"{elapsed:.1f}s over the 30s budget"


@pytest.mark.acceptance(6, "bracket cross-check")
def test_criterion_6_bracket_cross_check():
    for k in range(13):
        for j in range(13):
            assert stirling1(k, j) == stirling1_by_recurrence(k, j), (k, j)
            # stirling1 and stirling1_by_recurrence share one recurrence; the
            # composition sum is an independent route
            assert stirling1(k, j) == stirling1_by_compositions(k, j), (k, j)
    for k in range(11):
        assert sum(stirling1(k, j) for j in range(k + 1)) == factorial(k)


@pytest.mark.acceptance(7, "composite-derivative dual path")
def test_criterion_7_faa_di_bruno():
    report = verify_composition(trials=100, max_degree=6, order=8)
    assert report.passed, report.summary()

    partitions = [1, 1, 2, 3, 5, 7, 11, 15, 22]
    tower = derivative_tower(8)
    for n in range(9):
        assert len(tower[n].sorted_terms()) == partitions[n], n

    y, x = FdbPoly.outer_symbol, FdbPoly.inner_symbol
    want = y(3) * x(1) ** 3 + 3 * y(2) * x(1) * x(2) + y(1) * x(3)
    assert tower[3] == want


@pytest.mark.acceptance(8, "umbral shift solve")
def test_criterion_8_umbral():
    rng = Random(23)
    for _ in range(20):
        weights = [Fraction(rng.randrange(-4, 5)) for _ in range(rng.randrange(1, 6))]
        weights[0] = Fraction(rng.choice([1, -1, 2, -2, 3, Fraction(1, 2)]))
        shift = umbral_shift(weights, 8)  # construction self-checks the defining law
        assert shift.depth == 8

    shift = umbral_shift((1,), 8)
    for k in range(8):
        assert shift.image_of_power(k) == qpoly.x_power(k + 1)

    with pytest.raises(ValueError):
        umbral_shift((0, 1), 4)


@pytest.mark.acceptance(9, "CLI contract")
def test_criterion_9_cli_contract():
    def run(*args):
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(SRC), env.get("PYTHONPATH"))))
        return subprocess.run(
            [sys.executable, "-m", "formalcalc.cli", *args],
            capture_output=True,
            text=True,
            env=env,
        )

    result = run("expand", "--expr", "log(x)", "--order", "3")
    assert result.returncode == 0
    assert result.stdout == (GOLDEN / "expand_log.txt").read_text()

    result = run("verify", "lubell", "--max", "8")
    assert result.returncode == 0
    assert result.stdout == (GOLDEN / "verify_lubell.txt").read_text()

    result = run("umbral", "--B", "1,0", "--depth", "3")
    assert result.returncode == 0
    assert result.stdout == (GOLDEN / "umbral_b10.txt").read_text()

    rng = Random(29)
    for _ in range(1000):
        element = random_element(rng, max_terms=3, max_factors=3, params=("r", "s"))
        assert parse_element(str(element)) == element

    for _ in range(25):
        element = random_element(rng, params=("r",))
        assert element_from_json(json.loads(json.dumps(element_to_json(element)))) == element
        series = d_dx().exp_series(element, 3)
        assert yseries_from_json(json.loads(json.dumps(yseries_to_json(series)))) == series
