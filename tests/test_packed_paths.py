"""The closed-form route's packed fast paths against the routes they replaced.

``YSeries.__mul__`` multiplies in one flat Leibniz pass on packed
coefficient keys, and ``falling_row`` builds its row from integer factors
on packed keys; neither runs a ParamPoly ``*`` or ``+`` per term.  The
references here are the older routes, kept as oracles: the product per
numerator pair through ``params._mul_into`` and ``_stored``, with every
coefficient product a ParamPoly one, and the row by ParamPoly arithmetic.  Both sides must agree on ``_den``, on every stored
value and on its type.
"""

from fractions import Fraction
from math import comb
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from formalcalc.algebra import Element, Exponent, Monomial, YSeries, falling_row
from formalcalc.expansions import iterated_log_series
from formalcalc.params import ParamPoly, _mul_into, _stored, canonical_coeff
from test_algebra import assert_stored_coefficients


def ref_product(s: YSeries, t: YSeries) -> YSeries:
    """The Leibniz convolution per numerator pair, each value a ParamPoly product."""
    a, b = s._num, t._num
    out = []
    for k in range(min(len(a), len(b))):
        acc = {}
        for i in range(k + 1):
            scaled = {m: c * comb(k, i) for m, c in a[i]._terms.items()}
            _mul_into(acc, scaled, b[k - i]._terms, Element._key_mul)
        out.append(Element._of(_stored(acc)))
    return YSeries._of(out, s._den * t._den)


def ref_falling_row(exponent, order: int):
    e = Exponent.of(exponent)
    den, p = e.const.denominator**order, e.to_parampoly()
    row = [den]
    for j in range(order):
        row.append(canonical_coeff(row[-1] * (p - j)))
    return den, row


def stored(c):
    """A value with the type of each of its stored parts, so 2 and 2/1 differ."""
    if isinstance(c, ParamPoly):
        return "ParamPoly", sorted((key, type(v).__name__, v) for key, v in c.items())
    return type(c).__name__, c


def assert_same_series(got: YSeries, want: YSeries) -> None:
    assert got._den == want._den
    assert len(got._num) == len(want._num)
    for g, w in zip(got._num, want._num):
        assert {m: stored(c) for m, c in g.items()} == {m: stored(c) for m, c in w.items()}
        assert_stored_coefficients(g)


NAMES = ("r", "s", "t")
# integer, rational and symbolic exponents: the rational ones, and the
# symbolic ones with a rational constant, move a product into another class
EXPONENTS = (
    1, 2, -1, -3, Fraction(1, 2), Fraction(-2, 3), Fraction(5, 4),
    Exponent.param("r"), Exponent.param("s", -1, Fraction(1, 3)),
    Exponent(Fraction(-1, 2), (("r", 2), ("t", -1))), Exponent(3, (("s", 1), ("t", 1))),
)


def random_coeff(rng: Random, names: tuple[str, ...]):
    terms = [((), Fraction(rng.randrange(-4, 5), rng.randrange(1, 4)))]
    for _ in range(rng.randrange(0, 3) if names else 0):
        key = tuple(sorted({(rng.choice(names), rng.randrange(1, 3))}))
        terms.append((key, Fraction(rng.randrange(-3, 4), rng.randrange(1, 3))))
    return ParamPoly.from_terms(terms)


def random_element(rng: Random, names: tuple[str, ...]) -> Element:
    terms = []
    for _ in range(rng.randrange(0, 4)):
        powers = [(rng.randrange(0, 3), rng.choice(EXPONENTS)) for _ in range(rng.randrange(0, 3))]
        terms.append((Monomial(powers), random_coeff(rng, names)))
    return Element.from_terms(terms)


def random_series(rng: Random) -> YSeries:
    names = NAMES[: rng.randrange(0, 4)]
    coeffs = [random_element(rng, names) for _ in range(rng.randrange(1, 6))]
    if not coeffs[0]:
        coeffs[0] = Element.const(rng.randrange(1, 4))
    series = YSeries(coeffs)
    if rng.random() < 0.3:  # numerators with Fraction values
        series = series.map(lambda n: n * Fraction(1, rng.randrange(2, 5)))
    return series


@settings(max_examples=300)
@given(st.integers(0, 2**32))
def test_flat_product_matches_the_reference(seed):
    rng = Random(seed)
    s, t = random_series(rng), random_series(rng)
    for a, b in ((s, t), (t, s), (s, s)):
        assert_same_series(a * b, ref_product(a, b))


def test_flat_product_on_closed_forms():
    r = Exponent.param("r")
    rs = Exponent(Fraction(2, 3), (("r", 1), ("s", -2)))
    for a, b in (
        (iterated_log_series(0, r, 6), iterated_log_series(2, rs, 4)),
        (iterated_log_series(1, Fraction(-3, 2), 5), iterated_log_series(0, rs, 5)),
        (iterated_log_series(3, r, 3), iterated_log_series(1, r, 6).map(lambda n: n * Fraction(1, 2))),
    ):
        assert_same_series(a * b, ref_product(a, b))


def test_falling_row_matches_the_reference():
    rng = Random(2009)
    for _ in range(3000):
        names = rng.sample(NAMES, rng.randrange(0, 4))
        const = Fraction(rng.randrange(-12, 13), rng.randrange(1, 7))
        e = Exponent(const, [(name, rng.choice((-3, -2, -1, 1, 2, 3))) for name in names])
        order = rng.randrange(0, 10)
        den, row = falling_row(e, order)
        want_den, want = ref_falling_row(e, order)
        assert den == want_den
        assert [stored(c) for c in row] == [stored(c) for c in want], (e, order)
        for c in row:
            values = [v for _, v in c.items()] if isinstance(c, ParamPoly) else [c]
            assert all(type(v) is int for v in values), (e, order, c)
            assert not isinstance(c, ParamPoly) or c.parameters()


def test_the_flat_product_keeps_the_power_cap():
    """A key sum past the cap sets a guard bit; without the check its carry
    would spill silently into the next parameter's field."""
    big = YSeries.of_element(Element({Monomial.gen(0): ParamPoly({(("r", 2**62),): 1})}), 1)
    with pytest.raises(OverflowError, match=r"cap 2\^63 - 1"):
        big * big


def test_the_packed_paths_do_no_parampoly_arithmetic(monkeypatch):
    """A count, not a timing: per-term ParamPoly objects must not come back."""
    r, s = Exponent.param("r"), Exponent.param("s", 1, Fraction(1, 2))
    a = iterated_log_series(1, r, 5).map(lambda n: n * Fraction(1, 3))
    b = iterated_log_series(0, s, 5)
    e = Exponent(Fraction(1, 3), (("r", 2), ("s", -1)))
    calls = []
    for name in ("__add__", "__radd__", "__mul__", "__rmul__"):
        method = ParamPoly.__dict__[name]

        def counted(self, other, method=method, name=name):
            calls.append(name)
            return method(self, other)

        monkeypatch.setattr(ParamPoly, name, counted)
    a * b
    falling_row(e, 8)
    iterated_log_series(3, Exponent.param("r"), 7)
    assert calls == []
    ParamPoly.param("r") * 2 + 1
    assert calls == ["__mul__", "__add__"]  # the counters do count
