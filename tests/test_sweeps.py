"""Failing identity sweeps: each planted wrong value is caught at a pinned case.

No passing sweep shows that a sweep counts its cases and stops at the first
counterexample.  Each test here plants one wrong value and pins the case
count at the first failure and the counterexample text.  A sweep whose
bounds leave no case raises instead of passing.
"""

import pytest

from formalcalc import checks, cli, combinatorics, diffrep, faadibruno, latexio
from formalcalc.algebra import Element, YSeries
from formalcalc.derivations import Derivation, d_dx, x_d_dx
from formalcalc.faadibruno import ConsistencyError, compose_expansion


class _WrongOnSums:
    """d/dx, except that exp_series adds y to the series of an element of three or more terms."""

    name = "wrong"

    def exp_series(self, a, order):
        s = d_dx().exp_series(a, order)
        return s + YSeries([0, 1] + [0] * (order - 1)) if len(a) > 2 else s


def wrong_x_d_dx():
    """x*d/dx with a wrong image for l_3(x)."""
    good = x_d_dx()
    return Derivation("x*d/dx", rule=lambda i: Element.gen(0) if i == 3 else good.image(i))


def test_automorphism_sweep_stops_at_first_failure():
    report = checks.verify_automorphism(trials=20, order=3, derivations=(d_dx(), _WrongOnSums()))
    assert report.passed is False
    assert report.cases == 12
    assert report.counterexample == (
        "wrong on a=-1/3*l_-3(x)^2*l_2(x)^(-1) + exp(x)^(-1), "
        "b=-2*l_-3(x)^(-2) + 3*l_-2(x)^(-1)"
    )


def test_composition_sweep_stops_at_first_failure(monkeypatch):
    calls = []

    def fourth_call_fails(f, g, order):
        calls.append(f)
        if len(calls) == 4:
            raise ConsistencyError("planted")
        return compose_expansion(f, g, order)

    # checks imports compose_expansion when the sweep runs, from faadibruno
    monkeypatch.setattr(faadibruno, "compose_expansion", fourth_call_fails)
    report = checks.verify_composition(trials=10, max_degree=1, order=3, seed=79)
    assert report.passed is False
    assert report.cases == 4
    # the polynomials print as polynomials, not as lists of Fraction reprs
    assert report.counterexample == "f=-x + 2, g=0: planted"


def test_intertwining_sweep_stops_at_first_failure(monkeypatch):
    monkeypatch.setattr(diffrep, "x_d_dx", wrong_x_d_dx)
    report = diffrep.verify_intertwining(max_index=3, product_trials=1)
    assert report.passed is False
    assert report.cases == 11
    assert report.counterexample == "shift(1) d/dx != (x d/dx) shift(1) on generator l_2"


def test_chain_product_sweep_stops_at_first_failure(monkeypatch):
    real = combinatorics.stirling_chain
    monkeypatch.setattr(
        combinatorics, "stirling_chain", lambda js: real(js) + (tuple(js) == (2, 3, 4))
    )
    report = combinatorics.verify_chain_product(max_k=5, max_n=3)
    assert report.passed is False
    assert report.cases == 45
    assert report.counterexample == "chain (2, 3, 4): recursion 19 != product 18"


def test_lubell_sweep_stops_at_first_failure(monkeypatch):
    real = combinatorics.signed_esym
    monkeypatch.setattr(combinatorics, "signed_esym", lambda m, n: real(m, n) + ((m, n) == (2, 3)))
    report = combinatorics.verify_lubell(max_n=4)
    assert report.passed is False
    assert report.cases == 26
    assert report.counterexample == "(m;n)=(2;3): signed esym 36 != signed stirling 35"



@pytest.mark.parametrize(
    "run",
    [
        lambda: combinatorics.verify_chain_product(max_k=0),
        lambda: combinatorics.verify_lubell(max_n=0, max_pair_sum=0),
        lambda: checks.verify_automorphism(trials=0),
        lambda: checks.verify_composition(trials=0),
    ],
    ids=["chain-product", "lubell", "automorphism", "faa-di-bruno"],
)
def test_sweep_with_no_case_raises(run):
    with pytest.raises(ValueError, match="the bounds leave no case to check"):
        run()


def test_failing_sweep_prints_valid_latex(monkeypatch, capsys):
    monkeypatch.setattr(diffrep, "x_d_dx", wrong_x_d_dx)
    argv = ["--format", "latex", "verify", "intertwine", "--max-index", "3", "--trials", "1"]
    assert cli.main(argv) == 1
    assert capsys.readouterr().out == (
        "\\[\n\\text{intertwine: FAIL after 11 cases "
        "(shift(1) d/dx != (x d/dx) shift(1) on generator l\\_2)}\n\\]\n"
    )


def test_latex_text_escapes_every_special_character():
    assert latexio.text("a_1^2 {x} & 50% $ #3 ~ \\") == (
        "\\text{a\\_1\\textasciicircum{}2 \\{x\\} \\& 50\\% \\$ \\#3 "
        "\\textasciitilde{} \\textbackslash{}}"
    )
    assert latexio.text("lubell: pass (36 cases)") == "\\text{lubell: pass (36 cases)}"
