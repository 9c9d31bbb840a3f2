"""Stirling cycle numbers, signed symmetric sums, and the chain recursion."""

import time
from math import factorial

import pytest

from formalcalc import combinatorics, faadibruno
from formalcalc.combinatorics import (
    signed_esym,
    signed_esym_by_combinations,
    stirling1,
    stirling1_by_compositions,
    stirling_chain,
    stirling_rows,
    verify_chain_product,
    verify_lubell,
)
from formalcalc.faadibruno import derivative_tower


def test_stirling_triangle():
    assert stirling_rows(5) == [
        [1],
        [0, 1],
        [0, 1, 1],
        [0, 2, 3, 1],
        [0, 6, 11, 6, 1],
        [0, 24, 50, 35, 10, 1],
    ]


def test_stirling_edges():
    assert stirling1(0, 0) == 1
    assert stirling1(4, 0) == 0
    assert stirling1(3, 5) == 0
    assert stirling1(7, 7) == 1
    with pytest.raises(ValueError):
        stirling1(-1, 0)


def test_composition_sum_equals_recurrence():
    """The harmonic composition sum and the additive recurrence agree."""
    for k in range(13):
        for j in range(13):
            assert stirling1(k, j) == stirling1_by_compositions(k, j), (k, j)


def test_stirling_oracles_reject_negative_arguments():
    with pytest.raises(ValueError):
        stirling1_by_compositions(2, -1)
    with pytest.raises(ValueError):
        signed_esym_by_combinations(-1, 2)


def test_stirling_rows_hand_out_copies():
    rows = stirling_rows(4)
    rows[3][1] = -1
    assert stirling1(3, 1) == 2


def test_row_sums_are_factorials():
    for k in range(8):
        assert sum(stirling1(k, j) for j in range(k + 1)) == factorial(k)


def test_signed_esym_values():
    # (0; n) is the empty product
    assert signed_esym(0, 0) == 1
    assert signed_esym(0, 5) == 1
    # m indices drawn from {0,...,m-1} always include 0
    assert signed_esym(1, 0) == 0
    assert signed_esym(3, 0) == 0
    # small hand values: e_1(0,1) = 1, e_2(0,1,2) = 2, e_1(0,1,2) = 3
    assert signed_esym(1, 1) == -1
    assert signed_esym(2, 1) == 2
    assert signed_esym(1, 2) == -3
    assert signed_esym(2, 2) == 11
    assert signed_esym(3, 1) == -6


def test_signed_esym_equals_subset_sum():
    """The one-pass sum agrees with the sum over every m-subset."""
    for total in range(15):
        for m in range(total + 1):
            n = total - m
            assert signed_esym(m, n) == signed_esym_by_combinations(m, n), (m, n)


def test_stirling_numbers_match_sympy():
    sympy_numbers = pytest.importorskip("sympy.functions.combinatorial.numbers")
    for k in range(41):
        for j in range(k + 1):
            want = int(sympy_numbers.stirling(k, j, kind=1, signed=False))
            assert stirling1(k, j) == want, (k, j)


def test_signed_esym_matches_sympy():
    sympy_numbers = pytest.importorskip("sympy.functions.combinatorial.numbers")
    for total in range(41):
        for m in range(total + 1):
            n = total - m
            want = (-1) ** m * int(sympy_numbers.stirling(total, n, kind=1, signed=False))
            assert signed_esym(m, n) == want, (m, n)


def test_polynomial_paths_fit_budget(monkeypatch):
    """Large tables come from recurrences, not from the defining sums."""
    monkeypatch.setattr(combinatorics, "_STIRLING", [[1]])  # time the rows built from nothing
    monkeypatch.setattr(faadibruno, "_TOWER", [])  # and the tower too
    started = time.perf_counter()
    rows = stirling_rows(200)
    esym = signed_esym(20, 20)
    tower = derivative_tower(20)
    elapsed = time.perf_counter() - started
    assert elapsed < 5.0, f"{elapsed:.1f}s over the 5s budget"
    assert sum(rows[200]) == factorial(200)
    assert esym == stirling1(40, 20)
    assert len(tower[20]) == 627  # partitions of 20
    assert sum(c for _, c in tower[20].items()) == 51724158235372  # Bell number B_20


def test_signed_esym_lubell_identity():
    """(m; n) = (-1)^m [m+n over n] at a few corners."""
    for m in range(6):
        for n in range(6):
            assert signed_esym(m, n) == (-1) ** m * stirling1(m + n, n), (m, n)


def test_chain_hand_values():
    assert stirling_chain((1,)) == 1
    assert stirling_chain((3,)) == 1
    assert stirling_chain((1, 2)) == 1
    assert stirling_chain((2, 2)) == 1
    assert stirling_chain((1, 3)) == 2
    assert stirling_chain((1, 4)) == 6
    assert stirling_chain((2, 3)) == 3
    # non-monotone chains vanish
    assert stirling_chain((2, 1, 2)) == 0
    assert stirling_chain((3, 1)) == 0


def test_chain_edge_inputs():
    with pytest.raises(ValueError):
        stirling_chain(())
    # entries below 1 fall outside the triangle and contribute nothing
    assert stirling_chain((0, 1)) == 0
    assert stirling_chain((2, 0)) == 0


def test_chain_runs_past_the_recursion_limit():
    """The recursion is j_0 deep; a chain with j_0 = 1200 must not exhaust the interpreter."""
    assert stirling_chain((1, 1200)) == factorial(1199)


def test_chain_equals_bracket_products():
    """S(j_n,...,j_0) is a product of Stirling cycle numbers along the chain."""
    report = verify_chain_product(max_k=5, max_n=3)
    assert report.passed, report.summary()
    assert report.cases > 0


def test_chain_two_level_closed_form():
    # S(j_1, j_0) = [j_0 over j_1] directly
    for j0 in range(1, 7):
        for j1 in range(1, j0 + 1):
            assert stirling_chain((j1, j0)) == stirling1(j0, j1), (j1, j0)


def test_verify_lubell_report():
    report = verify_lubell(8)
    assert report.passed, report.summary()
    assert report.cases == 101
