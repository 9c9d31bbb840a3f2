"""Parameter-polynomial arithmetic: the coefficient ring under everything."""

from fractions import Fraction
from random import Random

import pytest

from formalcalc.params import ParamPoly


def random_parampoly(rng: Random) -> ParamPoly:
    out = ParamPoly.zero()
    for _ in range(rng.randrange(1, 4)):
        term = ParamPoly.const(Fraction(rng.randrange(-3, 4)))
        for name in ("r", "s"):
            for _ in range(rng.randrange(0, 3)):
                term = term * ParamPoly.param(name)
        out = out + term
    return out


def test_zero_and_one():
    assert not ParamPoly.zero()
    assert ParamPoly.one().is_constant()
    assert ParamPoly.one().constant_value() == 1
    assert ParamPoly.zero() + ParamPoly.one() == ParamPoly.one()
    assert ParamPoly.one() * ParamPoly.zero() == ParamPoly.zero()


def test_constant_arithmetic():
    a = ParamPoly.const(Fraction(3, 2))
    b = ParamPoly.const(-2)
    assert (a + b).constant_value() == Fraction(-1, 2)
    assert (a * b).constant_value() == -3
    assert (a - b).constant_value() == Fraction(7, 2)
    assert (-a).constant_value() == Fraction(-3, 2)


def test_parameters_and_substitution():
    r = ParamPoly.param("r")
    s = ParamPoly.param("s")
    p = r * r + 2 * s - 1
    assert p.parameters() == {"r", "s"}
    q = p.substitute("r", 3)
    assert q.parameters() == {"s"}
    assert q.substitute("s", Fraction(1, 2)).constant_value() == 9
    # substituting an absent name is a no-op
    assert p.substitute("t", 5) == p


def test_not_constant():
    r = ParamPoly.param("r")
    assert not r.is_constant()
    assert (r - r).is_constant()
    assert (r - r).constant_value() == 0


def test_scalar_coercion():
    r = ParamPoly.param("r")
    assert r + 1 == r + ParamPoly.one()
    assert 2 * r == ParamPoly.const(2) * r
    assert r * Fraction(1, 2) == ParamPoly.const(Fraction(1, 2)) * r
    assert 1 - r == ParamPoly.one() - r


def test_string_forms():
    r = ParamPoly.param("r")
    s = ParamPoly.param("s")
    assert str(ParamPoly.zero()) == "0"
    assert str(r * s) == "r*s"
    assert str(r * r - r) == "r^2 - r"
    assert str((r + s) * Fraction(1, 2) - 3) == "1/2*r + 1/2*s - 3"
    assert str(r - 2) == "r - 2"


def test_sorted_items_by_degree():
    r = ParamPoly.param("r")
    s = ParamPoly.param("s")
    p = 1 + r + r * r * s
    degrees = [len(key) for key, _ in p.sorted_items()]
    assert degrees == sorted(degrees, reverse=True)


def test_ring_laws_random():
    """Associativity, commutativity, distributivity on random polynomials."""
    rng = Random(2024)
    for _ in range(40):
        a = random_parampoly(rng)
        b = random_parampoly(rng)
        c = random_parampoly(rng)
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * b == b * a
        assert a * (b + c) == a * b + a * c
        assert a - a == ParamPoly.zero()


def mixed_parampoly(rng: Random) -> ParamPoly:
    """Values drawn as ints, proper fractions and integral Fractions alike."""
    values = (1, -2, 3, Fraction(1, 2), Fraction(-2, 3), Fraction(6, 3), Fraction(-5, 4))
    terms = {}
    for _ in range(rng.randrange(1, 5)):
        powers = (("r", rng.randrange(3)), ("s", rng.randrange(2)))
        key = tuple((name, p) for name, p in powers if p)
        terms[key] = rng.choice(values)
    return ParamPoly(terms)


def assert_stored_form(p: ParamPoly) -> None:
    for _, v in p.items():
        assert v and type(v) is (int if v.denominator == 1 else Fraction), p


def test_values_compare_and_hash_alike_in_either_form():
    key = (("r", 1),)
    for v in (1, -3, 12):
        assert Fraction(v) == v and hash(Fraction(v)) == hash(v)
        assert ParamPoly({key: Fraction(v)}) == ParamPoly({key: v})
    # integral values are held as int, whatever form they arrive in
    assert type(ParamPoly.const(Fraction(6, 3)).constant_value()) is int
    half = ParamPoly.const(Fraction(1, 2))
    assert type((half + half).constant_value()) is int
    assert type((half * 2).constant_value()) is int
    assert type((half * half * 4).constant_value()) is int
    assert (half * 2).demoted() == 1 and type((half * 2).demoted()) is int
    assert ParamPoly({key: Fraction(2, 3), (): Fraction(1, 4)}).denominator == 12
    assert ParamPoly({key: 5}).denominator == 1


def test_arithmetic_matches_sympy():
    """+, -, *, scaling and powers against sympy, on values mixing int and Fraction."""
    sympy = pytest.importorskip("sympy")
    symbols = {"r": sympy.Symbol("r"), "s": sympy.Symbol("s")}

    def to_sympy(p):
        return sum(
            (
                sympy.Rational(v.numerator, v.denominator)
                * sympy.Mul(*(symbols[n] ** k for n, k in key))
                for key, v in p.items()
            ),
            sympy.Integer(0),
        )

    rng = Random(2025)
    scalars = (0, 1, -1, 3, Fraction(1, 3), Fraction(-3, 2), Fraction(4, 2))
    for _ in range(200):
        a, b = mixed_parampoly(rng), mixed_parampoly(rng)
        c = rng.choice(scalars)
        sa, sb, sc = to_sympy(a), to_sympy(b), sympy.Rational(str(c))
        for got, want in (
            (a + b, sa + sb),
            (a - b, sa - sb),
            (a * b, sa * sb),
            (a * c, sa * sc),
            (c * a, sa * sc),
            (a + c, sa + sc),
            *((a ** k, sa ** k) for k in range(4)),
        ):
            assert sympy.expand(to_sympy(got) - want) == 0, (a, b, c)
            assert_stored_form(got)
