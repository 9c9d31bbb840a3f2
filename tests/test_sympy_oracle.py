"""The engine against sympy, an oracle from outside the package.

``exp(y D) f`` is the formal Taylor series of the shifted function: for
D = d/dx it is f(x + y), and for D = x*d/dx it is f(x*e^y).  Here sympy
expands both shifted functions in y, from its own calculus, and each
coefficient must equal the engine's, exactly.
"""

from fractions import Fraction

import pytest

from formalcalc.algebra import Element
from formalcalc.derivations import d_dx, x_d_dx
from formalcalc.expansions import FORMS, closed_form_series

sympy = pytest.importorskip("sympy")

ORDER = 6
EXPONENTS = (-2, Fraction(-1, 2), Fraction(1, 3), 3)
X, Y = sympy.symbols("x y", positive=True)


def rational(q) -> "sympy.Rational":
    q = Fraction(q)
    return sympy.Rational(q.numerator, q.denominator)


def tower(index: int, x):
    """The generator l_index at x: x, log x, log log x, exp x."""
    return {0: x, 1: sympy.log(x), 2: sympy.log(sympy.log(x)), -1: sympy.exp(x)}[index]


def to_sympy(a: Element, x=X):
    total = sympy.Integer(0)
    for mono, coeff in a.items():
        term = rational(coeff)
        for index, e in mono.powers:
            term *= tower(index, x) ** rational(e.const)
        total += term
    return total


def cases(r):
    """(engine input, the same function of x for sympy)."""
    return [
        (Element.gen(0, r), X ** rational(r)),
        (Element.gen(1), sympy.log(X)),
        (Element.gen(1, r), sympy.log(X) ** rational(r)),
        (Element.gen(2, r), sympy.log(sympy.log(X)) ** rational(r)),
        (Element.gen(-1, r), sympy.exp(X) ** rational(r)),
    ]


def assert_same_series(series, shifted):
    expansion = sympy.series(shifted, Y, 0, ORDER + 1).removeO()
    for k in range(ORDER + 1):
        got = to_sympy(series.coefficient(k))
        want = expansion.coeff(Y, k)
        assert sympy.expand(got - want) == 0, (k, got, want)


@pytest.mark.parametrize("r", EXPONENTS, ids=str)
def test_exp_d_dx_is_the_shift(r):
    """exp(y d/dx) f(x) = f(x + y), coefficient by coefficient through y^6."""
    for a, f in cases(r):
        assert_same_series(d_dx().exp_series(a, ORDER), f.subs(X, X + Y))


@pytest.mark.parametrize("r", EXPONENTS, ids=str)
def test_exp_x_d_dx_is_the_dilation(r):
    """The formal Taylor theorem for x*d/dx: exp(y x d/dx) f(x) = f(x e^y)."""
    for a, f in cases(r):
        assert_same_series(x_d_dx().exp_series(a, ORDER), f.subs(X, X * sympy.exp(Y)))


@pytest.mark.parametrize("r", EXPONENTS, ids=str)
def test_closed_forms_are_the_shift(r):
    """The closed forms build their numerators without the engine; they too give f(x + y)."""
    for a, f in cases(r):
        if min(a.generator_indices()) >= 0:
            for form in FORMS:
                assert_same_series(closed_form_series(a, ORDER, form), f.subs(X, X + Y))
