"""The index shift and the lifted exponential it induces."""

from fractions import Fraction
from math import factorial
from random import Random

import pytest

from formalcalc.algebra import Element, Exponent, YSeries
from formalcalc.checks import random_element
from formalcalc.derivations import d_dx, x_d_dx
from formalcalc.diffrep import IndexShift, lifted_exp, verify_intertwining


def _mixed_elements(rng, count):
    """Random elements with integer, rational and symbolic exponents, in turn."""
    for k in range(count):
        a = random_element(rng, params=("r",) if k % 3 == 2 else ())
        if k % 3 == 1:
            e = Fraction(rng.choice((1, -1)), rng.choice((2, 3)))
            a = a * Element.gen(rng.randrange(-3, 4), e)
        yield a


def test_shift_on_generators():
    up = IndexShift(1)
    assert up(Element.gen(0)) == Element.gen(1)
    assert up(Element.gen(-1)) == Element.gen(0)
    assert up(Element.gen(2, -3)) == Element.gen(3, -3)


def test_shift_inverse():
    rng = Random(12)
    up = IndexShift(1)
    down = up.inverse()
    for _ in range(10):
        a = random_element(rng, params=("r",))
        assert down(up(a)) == a
        assert up(down(a)) == a


def test_shift_moves_stored_coefficients_unchanged():
    """The shift relabels monomials only: from_terms of the shifted pairs,
    which re-canonicalises and sums, builds the same terms, value types too."""
    rng = Random(15)
    for a in _mixed_elements(rng, 18):
        for k in (-2, -1, 1, 3):
            shifted = IndexShift(k)(a)
            built = Element.from_terms((mono.shift(k), c) for mono, c in a.items())
            assert shifted._terms == built._terms
            assert [type(c) for _, c in shifted.items()] == [type(c) for _, c in built.items()]


def test_shift_is_ring_map():
    rng = Random(13)
    up = IndexShift(1)
    for _ in range(10):
        a = random_element(rng)
        b = random_element(rng)
        assert up(a * b) == up(a) * up(b)
        assert up(a + b) == up(a) + up(b)


def test_intertwining_on_a_generator():
    """shift(d/dx a) = (x d/dx)(shift a), checked by hand on log(x)."""
    up = IndexShift(1)
    a = Element.gen(1)
    assert up(d_dx().apply(a)) == x_d_dx().apply(up(a))


def test_intertwining_inverse_direction():
    down = IndexShift(-1)
    a = Element.gen(2) * Element.gen(0, -1)
    assert down(x_d_dx().apply(a)) == d_dx().apply(down(a))


def test_verify_intertwining_passes():
    report = verify_intertwining()
    assert report.passed, report.summary()
    assert report.cases == 66
    assert report.counterexample is None


def test_lifted_exp_matches_direct_engine():
    rng = Random(14)
    for _ in range(15):
        a = random_element(rng)
        assert lifted_exp(a, 4) == x_d_dx().exp_series(a, 4)
    for a in _mixed_elements(rng, 12):
        lifted = lifted_exp(a, 4)
        assert lifted == x_d_dx().exp_series(a, 4)
        # the shifted numerators are already cleared: divided finds nothing to clear
        cleared = YSeries.divided(lifted._num, lifted._den)
        assert (cleared._num, cleared._den) == (lifted._num, lifted._den)


def test_lifted_exp_of_x():
    """exp(y x d/dx) x = x e^y: every coefficient is x / k!."""
    series = lifted_exp(Element.gen(0), 6)
    for k in range(7):
        assert series.coefficient(k) == Element.gen(0) * Fraction(1, factorial(k))


def test_lifted_exp_of_log():
    """exp(y x d/dx) log(x) = log(x) + y on the nose."""
    series = lifted_exp(Element.gen(1), 6)
    assert series.coefficient(0) == Element.gen(1)
    assert series.coefficient(1) == Element.one()
    for k in range(2, 7):
        assert series.coefficient(k) == Element.zero()


def test_lifted_exp_symbolic_power():
    """exp(y x d/dx) x^r = x^r e^(ry); coefficient k is r^k/k! x^r."""
    from formalcalc.algebra import Monomial
    from formalcalc.params import ParamPoly

    r = Exponent.param("r")
    series = lifted_exp(Element.gen(0, r), 4)
    mono = Monomial.gen(0, r)
    rp = ParamPoly.param("r")
    power = ParamPoly.one()
    for k in range(5):
        assert series.coefficient(k) == Element({mono: power * Fraction(1, factorial(k))})
        power = power * rp


def test_lifted_exp_rejects_negative_order():
    with pytest.raises(ValueError):
        lifted_exp(Element.gen(0), -2)
