"""The derivation engine: generator images, Leibniz, and exp(yD)."""

from fractions import Fraction
from random import Random

import pytest

from formalcalc.algebra import Element, Exponent, Monomial
from formalcalc.checks import random_element
from formalcalc.derivations import ClosureError, Derivation, d_dx, x_d_dx
from formalcalc.params import ParamPoly


def test_ddx_images_up_the_tower():
    D = d_dx()
    assert D.image(0) == Element.one()
    assert D.image(1) == Element.gen(0, -1)
    assert D.image(2) == Element.gen(0, -1) * Element.gen(1, -1)
    assert D.image(3) == Element.gen(0, -1) * Element.gen(1, -1) * Element.gen(2, -1)


def test_ddx_images_down_the_tower():
    """Derivatives of iterated exponentials multiply up the lower tower."""
    D = d_dx()
    assert D.image(-1) == Element.gen(-1)
    assert D.image(-2) == Element.gen(-1) * Element.gen(-2)
    assert D.image(-3) == Element.gen(-1) * Element.gen(-2) * Element.gen(-3)


def test_ddx_image_is_the_generator_product():
    """Each d/dx image is the one monomial that the product of its factors gives."""
    D = d_dx()
    for n in range(-8, 9):
        want = Element.one()
        for i in range(n) if n >= 0 else range(-1, n - 1, -1):
            want = want * Element.gen(i, -1 if n > 0 else 1)
        got = D.image(n)
        assert got == want and len(got) == 1, n


def test_x_ddx_images():
    D = x_d_dx()
    assert D.image(0) == Element.gen(0)
    assert D.apply(Element.gen(1)) == Element.one()
    assert D.image(2) == Element.gen(1, -1)


def test_power_rule_symbolic():
    """D(x^r) = r * x^(r-1) with a symbolic exponent."""
    r = Exponent.param("r")
    got = d_dx().apply(Element.gen(0, r))
    want = Element({Monomial.gen(0, r - 1): ParamPoly.param("r")})
    assert got == want


def test_constant_annihilated():
    assert d_dx().apply(Element.const(5)) == Element.zero()
    assert d_dx().apply(Element.gen(0, 0)) == Element.zero()


def test_leibniz_random():
    rng = Random(31)
    D = d_dx()
    for _ in range(25):
        a = random_element(rng, params=("r",))
        b = random_element(rng)
        assert D.apply(a * b) == D.apply(a) * b + a * D.apply(b)


def test_exp_series_translates_polynomials():
    """exp(y d/dx) x^3 = (x+y)^3, coefficient by coefficient."""
    x = Element.gen(0)
    series = d_dx().exp_series(x**3, 5)
    assert series.coefficient(0) == x**3
    assert series.coefficient(1) == Element.const(3) * x**2
    assert series.coefficient(2) == Element.const(3) * x
    assert series.coefficient(3) == Element.one()
    assert series.coefficient(4) == Element.zero()
    assert series.coefficient(5) == Element.zero()


def test_exp_series_log():
    series = d_dx().exp_series(Element.gen(1), 3)
    assert series.coefficient(0) == Element.gen(1)
    assert series.coefficient(1) == Element.gen(0, -1)
    assert series.coefficient(2) == Element.gen(0, -2) * Fraction(-1, 2)
    assert series.coefficient(3) == Element.gen(0, -3) * Fraction(1, 3)


def test_exp_series_rejects_negative_order():
    with pytest.raises(ValueError):
        d_dx().exp_series(Element.gen(0), -1)


def test_closure_error():
    """A finite image table that does not close raises up front."""
    D = Derivation("partial", images={1: Element.gen(0, -1)})
    with pytest.raises(ClosureError) as info:
        D.exp_series(Element.gen(1), 2)
    assert info.value.index == 0
    assert "x" in str(info.value)


def test_table_derivation_closes():
    """An explicitly closed table works without a rule."""
    D = Derivation("x only", images={0: Element.one()})
    series = D.exp_series(Element.gen(0) ** 2, 3)
    assert series.coefficient(1) == Element.const(2) * Element.gen(0)
    assert series.coefficient(2) == Element.one()
    assert series.coefficient(3) == Element.zero()


def test_apply_is_deterministic():
    rng = Random(8)
    a = random_element(rng, params=("s",))
    D = d_dx()
    assert D.apply(a) == D.apply(a)


def test_derivation_keeps_no_term_state():
    """A long-lived derivation keeps only its generator images: exp_series and
    apply leave no term state behind, and repeating a call repeats its result."""
    rng = Random(7)
    elements = [random_element(rng, max_terms=3, params=("r",)) for _ in range(20)]
    D = d_dx()
    for a in elements:
        first = D.exp_series(a, 6)
        assert set(vars(D)) == {"name", "_images", "_rule"}
        assert all(isinstance(img, Element) for img in D._images.values())
        assert D.exp_series(a, 6) == first
        assert d_dx().exp_series(a, 6) == first
    images = dict(D._images)
    for a in elements:
        once = D.apply(a)
        assert set(vars(D)) == {"name", "_images", "_rule"}
        assert D._images == images
        assert D.apply(a) == once == d_dx().apply(a)
