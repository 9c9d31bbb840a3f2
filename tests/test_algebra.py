"""Exponents, monomials, elements, and truncated y-series."""

import copy
import pickle
import tracemalloc
from fractions import Fraction
from random import Random

import pytest

from formalcalc.algebra import Element, Exponent, Monomial, YSeries, binom, gen_name
from formalcalc import algebra, jsonio
from formalcalc.checks import random_element, random_exponent
from formalcalc.derivations import d_dx
from formalcalc.faadibruno import derivative_tower
from formalcalc.params import ParamPoly
from formalcalc.parser import parse_element


def test_exponent_arithmetic():
    r = Exponent.param("r")
    assert (r + 1) - 1 == r
    assert (r + r).linear == (("r", 2),)
    assert (r - r).is_zero
    two = Exponent.of(2)
    assert two.as_integer() == 2
    assert r.as_integer() is None
    assert Exponent.of(Fraction(1, 2)).as_integer() is None


def test_exponent_interning():
    # small integer exponents are shared instances
    assert Exponent.of(3) is Exponent.of(3)
    assert (Exponent.of(4) - 1) is Exponent.of(3)


def test_every_route_returns_the_interned_exponent():
    assert Exponent(Fraction(4, 2)) is Exponent.of(2)
    assert type(Exponent(Fraction(4, 2)).const) is int
    assert type(Exponent.of(Fraction(1, 2)).const) is Fraction
    r1 = Exponent.param("r", 1, 1)
    r2 = Exponent.param("r", 1, 2)
    assert r1 + 1 is r2
    assert 1 + r1 is r2
    assert r1 + Exponent.of(1) is r2
    assert r2 - 1 is r1
    assert r2 - Exponent.of(1) is r1
    assert Exponent(2, (("r", 1),)) is r2
    assert Exponent(2, {"r": 1, "s": 0}) is r2
    assert Exponent(Fraction(4, 2), [("r", 1)]) is r2
    assert -(-r2) is r2
    assert r1 * 2 - r1 is r1
    assert (r1 * 1) is r1
    assert Exponent.param("r", 2, 1).substitute("s", 5) is Exponent.param("r", 2, 1)
    assert Exponent.param("r", 2, 1).substitute("r", 1) is Exponent.of(3)
    assert (r1 - r1) is Exponent.of(0) is Exponent()
    assert parse_element("x^(r + 2)") == Element.gen(0, r2)
    (mono, _), = parse_element("x^(2 + r)").items()
    assert mono.exponent_of(0) is r2
    assert jsonio.exponent_from_json(jsonio.exponent_to_json(r2)) is r2
    rng = Random(7)
    for _ in range(50):
        e = random_exponent(rng, ("r", "s"))
        assert Exponent(e.const, e.linear) is e
        assert Exponent(Fraction(e.const), tuple(reversed(e.linear))) is e


def test_exponent_hash_and_equality_are_identity():
    assert "__hash__" not in vars(Exponent) and "__eq__" not in vars(Exponent)
    assert Exponent.__hash__ is object.__hash__ and Exponent.__eq__ is object.__eq__
    r = Exponent.param("r")
    assert r == Exponent.param("r") and r != Exponent.param("s")
    assert {Exponent.of(-1): 1}.get(Exponent(Fraction(-2, 2))) == 1
    with pytest.raises(AttributeError):
        r.const = 5


def test_an_empty_linear_part_of_any_type_is_the_empty_tuple():
    # stored as given, an empty dict or list would make an interned exponent that
    # fails to compare with a symbolic one, so that printing raises TypeError
    for k, empty in enumerate(({}, [], {"r": 0})):
        e = Exponent(Fraction(1234567, 7654321 + k), empty)
        assert e.linear == () and type(e.linear) is tuple and e is Exponent.of(e.const)
        a = Element.gen(0, e) + Element.gen(0, Exponent.param("r"))
        assert str(a) == f"x^({e.const}) + x^r"


def test_a_repeated_name_adds_its_coefficients():
    assert Exponent(0, [("r", 1), ("r", 1)]) is Exponent.param("r", 2)
    assert Exponent(0, [("r", 1), ("r", -1)]) is Exponent.of(0)
    assert Exponent(1, [("s", 2), ("r", 1), ("s", -1)]) is Exponent(1, {"r": 1, "s": 1})


def test_a_coefficient_that_is_not_an_integer_is_refused():
    for bad in (Fraction(1, 2), 2.7, Fraction(-7, 3)):
        with pytest.raises(ValueError, match="must be integers"):
            Exponent(1, {"r": bad})
        with pytest.raises(ValueError, match="must be integers"):
            Exponent(1, [("r", 1), ("r", bad)])
    # an integral Fraction is an integer; it used to print 0*r + 1 for 1/2
    assert Exponent(1, {"r": Fraction(4, 2)}) is Exponent.param("r", 2, 1)
    assert type(Exponent(1, {"r": Fraction(4, 2)}).linear[0][1]) is int
    assert str(Element.gen(0, Exponent(1, {"r": 0})) + Element.gen(0, 1)) == "2*x"


def _exponents(value):
    """Every Exponent reachable from an algebra value."""
    if isinstance(value, Exponent):
        return [value]
    if isinstance(value, Monomial):
        return [e for _, e in value.powers]
    if isinstance(value, Element):
        return [e for mono, _ in value.items() for e in _exponents(mono)]
    if isinstance(value, YSeries):
        return [e for c in value.coefficients() for e in _exponents(c)]
    return []


def test_pickle_round_trip_keeps_interned_exponents():
    r = Exponent.param("r", 2, -1)
    a = parse_element("(r + 1/2)*x^(2*r - 1)*log(x)^(-1/3) + s*l_2(x)^(r + s)")
    values = [
        r,
        Exponent.of(Fraction(-5, 3)),
        Monomial(((0, r), (1, Fraction(1, 2)))),
        a,
        ParamPoly.param("r") ** 2 * Fraction(1, 3) - ParamPoly.param("s"),
        d_dx().exp_series(a, 3),
        derivative_tower(4)[4],
        Monomial.one(),
    ]
    copies = [copy.copy, copy.deepcopy]
    copies += [
        lambda v, p=protocol: pickle.loads(pickle.dumps(v, p))
        for protocol in range(pickle.HIGHEST_PROTOCOL + 1)
    ]
    for value in values:
        for how in copies:
            back = how(value)
            assert type(back) is type(value)
            assert back == value
            assert str(back) == str(value)
            mine = _exponents(value)
            theirs = _exponents(back)
            assert len(mine) == len(theirs)
            assert all(x is y for x, y in zip(mine, theirs))


# pickle.dumps, at protocol 4, of the four values of the test below, as
# written before values pickled their stored parts
OLD_PICKLE = (
    "8004952d03000000000000288c11666f726d616c63616c632e706172616d73948c095061"
    "72616d506f6c799493947d94288c0172944b02869485948c096672616374696f6e73948c"
    "084672616374696f6e9493944b014b03869452948c0173944b01869485944afbffffff29"
    "4b0775859452948c12666f726d616c63616c632e616c6765627261948c084d6f6e6f6d69"
    "616c9493944b0068118c084578706f6e656e749493944affffffff68044b028694859486"
    "94529486944b01681568094b014b0286945294298694529486944b0268154b0329869452"
    "94869487948594819468118c07456c656d656e749493942981944e7d948c065f7465726d"
    "73947d942868134b00681986944b01681568094affffffff4b0386945294298694529486"
    "9486948594819468027d942868044b01869485944b012968094b014b0286945294758594"
    "529468134b0268154b008c0172944b0186948c0173944b01869486948694529486948594"
    "8594819468027d94680c4b01869485944b017385945294757386946268118c0759536572"
    "6965739493942981944e7d94288c045f6e756d945d942868272981944e7d94682a7d9468"
    "134b0068154b00683c4b01869485948694529486944b0168154affffffff298694529486"
    "9486948594819468027d94680c4b01869485944b01738594529473738694626827298194"
    "4e7d94682a7d942868134b0068154affffffff68578694529486944b01685c8694869485"
    "94819468027d9468044b018694680c4b01869486944b0173859452946813686c4b016815"
    "4afeffffff2986945294869486948594819468027d94680c4b01869485944affffffff73"
    "85945294757386946268272981944e7d94682a7d942868134b0068154afeffffff685786"
    "9452948694686d86948594819468027d942868044b018694680c4b01869486944affffff"
    "ff68044b028694680c4b01869486944b0175859452946813688868798694859481946802"
    "7d942868044b018694680c4b01869486944afeffffff680c4b01869485944b0175859452"
    "94681368884b0168154afdffffff2986945294869486948594819468027d94680c4b0186"
    "9485944b0273859452947573869462658c045f64656e944b017586946274942e"
)


def test_pickles_written_by_1f68717_still_load():
    """The old reducers' pickles load equal, with interned exponents.

    OLD_PICKLE was printed by the code of commit 1f68717, unpacked by
    ``git archive 1f68717 | tar -x -C DIR``, with::

        PYTHONPATH=DIR/src python3 -c "
        import pickle; from fractions import Fraction
        from formalcalc import ParamPoly, d_dx
        from formalcalc.algebra import Exponent, Monomial
        from formalcalc.parser import parse_element
        r, s = ParamPoly.param('r'), ParamPoly.param('s')
        print(pickle.dumps((
            r**2*Fraction(1, 3) - s*5 + 7,
            Monomial(((0, Exponent.param('r', 2, -1)), (1, Fraction(1, 2)), (2, 3))),
            parse_element('(r + 1/2)*x^(2*r - 1)*log(x)^(-1/3) + s*l_2(x)^(r + s)'),
            d_dx().exp_series(parse_element('s*x^r*log(x)^(-1)'), 2),
        )).hex())"
    """
    r, s = ParamPoly.param("r"), ParamPoly.param("s")
    want = (
        r**2 * Fraction(1, 3) - s * 5 + 7,
        Monomial(((0, Exponent.param("r", 2, -1)), (1, Fraction(1, 2)), (2, 3))),
        parse_element("(r + 1/2)*x^(2*r - 1)*log(x)^(-1/3) + s*l_2(x)^(r + s)"),
        d_dx().exp_series(parse_element("s*x^r*log(x)^(-1)"), 2),
    )
    got = pickle.loads(bytes.fromhex("".join(OLD_PICKLE)))
    assert [type(v) for v in got] == [type(v) for v in want]
    assert got == want
    assert [str(v) for v in got] == [str(v) for v in want]
    for mine, theirs in zip(want, got):
        assert all(x is y for x, y in zip(_exponents(mine), _exponents(theirs), strict=True))


def test_pickle_dump_allocates_little_beyond_its_bytes():
    """Dumping a series passes its stored parts by reference: the tracemalloc
    peak stays under 8 times the pickle's length (about 23 times when every
    coefficient was unpacked to name tuples and every monomial re-sorted)."""
    series = d_dx().exp_series(parse_element("l_3(x)^r*exp(x)^s"), 8)
    size = len(pickle.dumps(series))
    tracemalloc.start()
    try:
        pickle.dumps(series)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * size, (peak, size)


def test_exponent_scaling_guards():
    r = Exponent.param("r")
    assert (r * 2).linear == (("r", 2),)
    with pytest.raises(ValueError):
        r * Fraction(1, 2)
    # constants may scale fractionally
    assert (Exponent.of(3) * Fraction(1, 3)).as_integer() == 1


def test_exponent_substitute():
    e = Exponent.param("r", 2, -1)  # 2r - 1
    assert e.substitute("r", 2).as_integer() == 3
    assert e.substitute("s", 5) == e


def test_exponent_strings():
    assert str(Exponent.param("r", 1, -2)) == "r - 2"
    assert str(Exponent.param("r", 2) + Exponent.param("s") - Fraction(1, 2)) == "2*r + s - 1/2"
    assert str(Exponent.of(0)) == "0"
    assert str(Exponent.param("r", -1)) == "-r"


def test_binom_values():
    r = Exponent.param("r")
    p = ParamPoly.param("r")
    assert binom(r, 0) == ParamPoly.one()
    assert binom(r, 1) == p
    assert binom(r, 2) == (p * p - p) * Fraction(1, 2)
    assert binom(3, 2).constant_value() == 3
    assert binom(-1, 3).constant_value() == -1
    assert binom(Fraction(1, 2), 2).constant_value() == Fraction(-1, 8)
    with pytest.raises(ValueError):
        binom(r, -1)


def test_gen_names():
    assert gen_name(0) == "x"
    assert gen_name(1) == "log(x)"
    assert gen_name(-1) == "exp(x)"
    assert gen_name(3) == "l_3(x)"
    assert gen_name(-2) == "l_-2(x)"


def test_monomial_merge_and_cancel():
    m = Monomial.gen(0, 2) * Monomial.gen(0, -2)
    assert m.is_one
    m = Monomial.gen(1, 3) * Monomial.gen(0, 1)
    assert m.indices() == [0, 1]
    assert m.exponent_of(1).as_integer() == 3
    assert m.exponent_of(7).is_zero


def test_monomial_shift():
    m = Monomial.gen(0) * Monomial.gen(2, -1)
    shifted = m.shift(1)
    assert shifted.indices() == [1, 3]
    assert shifted.shift(-1) == m


def old_sort_key(mono):
    """The monomial sort key the package used to build, kept as the oracle of the print order."""
    return tuple((i, (e.linear, e.const)) for i, e in mono)


def _assert_old_order(a):
    monos = [m for m, _ in a.sorted_terms()]
    assert monos == sorted((m for m, _ in a.items()), key=old_sort_key)


def _rational_monomial(rng):
    pairs = []
    for _ in range(rng.randrange(0, 6)):
        linear = {n: rng.choice([-2, -1, 1, 2]) for n in ("r", "s") if rng.random() < 0.4}
        const = Fraction(rng.randrange(-7, 8), rng.choice([1, 1, 2, 3]))
        pairs.append((rng.randrange(-4, 5), Exponent(const, linear)))
    return Monomial(pairs)


def test_sorted_terms_follow_the_old_key_on_random_elements():
    rng = Random(3101)
    for _ in range(200):
        a = random_element(rng, max_terms=8, max_factors=5, index_window=(-4, 4), params=("r", "s"))
        a = a + Element({_rational_monomial(rng): Fraction(rng.randrange(1, 9), 3) for _ in range(8)})
        _assert_old_order(a)


def test_sorted_terms_follow_the_old_key_on_hand_cases():
    r, s = Exponent.param("r"), Exponent.param("s")
    constants = [Exponent.of(2), Exponent.of(Fraction(5, 2)), Exponent.of(-1)]
    symbolic = [r, r + s, s, r * 2 - 1]
    prefix = [Monomial.gen(0, 2), Monomial.gen(0, 2) * Monomial.gen(3, r)]
    prefix.append(prefix[1] * Monomial.gen(5, Fraction(-1, 3)))
    cases = [
        [Monomial.gen(1, e) for e in constants],
        [Monomial.gen(2, e) for e in symbolic],
        [Monomial.gen(2, e) for e in constants + symbolic],
        prefix,
        [Monomial.one(), Monomial.gen(-3, -1), Monomial.gen(0, r)],
    ]
    for monos in cases:
        for order in (monos, monos[::-1]):
            a = Element({m: k + 1 for k, m in enumerate(order)})
            _assert_old_order(a)
    a = Element({Monomial.gen(2, e): 1 for e in symbolic})
    assert [m.exponent_of(2) for m, _ in a.sorted_terms()] == [r, r + s, r * 2 - 1, s]
    a = Element({Monomial.gen(1, e): 1 for e in constants})
    assert [m.exponent_of(1).const for m, _ in a.sorted_terms()] == [-1, 2, Fraction(5, 2)]
    a = Element({m: 1 for m in prefix[::-1] + [Monomial.one()]})
    assert [m for m, _ in a.sorted_terms()] == [Monomial.one(), *prefix]


def test_exponents_order_only_among_themselves():
    assert Exponent.of(1) < Exponent.of(2) and not Exponent.of(2) < Exponent.of(2)
    assert Exponent.of(5) < Exponent.param("r") < Exponent.param("s")
    for a, b in ((Exponent.of(1), 2), (2, Exponent.of(1)), (Exponent.of(1), Fraction(1, 2))):
        with pytest.raises(TypeError):
            a < b


def test_element_ring():
    x = Element.gen(0)
    one = Element.one()
    assert (x + one) * (x - one) == x * x - one
    assert (x + one) ** 3 == x**3 + 3 * x**2 + 3 * x + one
    assert x - x == Element.zero()
    assert not Element.zero()


def test_element_power_guard():
    with pytest.raises(ValueError):
        Element.gen(0) ** -1


def test_element_substitute_param():
    r = Exponent.param("r")
    a = Element.gen(0, r) * Element.const(ParamPoly.param("r"))
    b = a.substitute_param("r", 3)
    assert b == Element.const(3) * Element.gen(0, 3)


def test_element_strings():
    r = Exponent.param("r")
    assert str(Element.gen(0, r)) == "x^r"
    assert str(Element.gen(2, r - 1)) == "l_2(x)^(r - 1)"
    assert str(Element.gen(0, r) + Element.const(2) * Element.gen(1)) == "x^r + 2*log(x)"
    assert str(Element.zero()) == "0"
    assert str(Element.gen(0, -2)) == "x^(-2)"
    assert str(Element.one() - Element.gen(0)) == "1 - x"


def assert_stored_coefficients(a: Element) -> None:
    """Every raw coefficient is nonzero: an int when integral, a Fraction
    when another rational, and a ParamPoly only when a parameter appears,
    its own values held the same way."""
    for _, c in a.items():
        assert c, a
        if isinstance(c, ParamPoly):
            assert c.parameters(), a
            values = [v for _, v in c.items()]
        else:
            values = [c]
        for v in values:
            assert v and type(v) is (int if v.denominator == 1 else Fraction), a


def test_element_ring_laws_random():
    # an integral sum or product of Fraction coefficients is stored as an int
    x = Element.gen(0)
    for a, want in (
        (parse_element("1/2*x + 1/2*x"), x),
        (parse_element("3/2*x") * parse_element("2/3*x"), x * x),
        (parse_element("(r + 1/2)*x") - parse_element("r*x"), x * Fraction(1, 2)),
        (parse_element("(r + 1)*x") * parse_element("x") - parse_element("r*x^2"), x * x),
        (parse_element("r*x") * ParamPoly.param("r") - parse_element("(r^2 - 2)*x"), x * 2),
    ):
        assert a == want
        assert_stored_coefficients(a)
    rng = Random(7)
    for _ in range(30):
        a = random_element(rng, params=("r",))
        b = random_element(rng, params=("r",))
        c = random_element(rng, params=("r",))
        assert (a * b) * c == a * (b * c)
        assert a * b == b * a
        assert a * (b + c) == a * b + a * c
        assert a ** 3 == a * a * a
        assert a - a == 0
        # scalings that turn values integral, and ParamPoly values that turn constant
        ra = a * (ParamPoly.param("r") + Fraction(1, 2))
        thirds = ((a * Fraction(1, 3)) * 3, (ra * Fraction(1, 3)) * 3)
        assert thirds == (a, ra)
        for value in (a + b, a * b, a ** 2, *thirds, ra - a * ParamPoly.param("r")):
            assert_stored_coefficients(value)


def test_yseries_basics():
    x = Element.gen(0)
    s = YSeries([x, Element.one(), Element.zero()])
    assert s.coefficient(0) == x
    assert s.coefficient(2) == Element.zero()
    with pytest.raises(IndexError):
        s.coefficient(9)
    t = s + s
    assert t.coefficient(1) == Element.const(2)
    assert (s * Fraction(1, 2)).coefficient(0) == x * Fraction(1, 2)
    assert s.truncate(1).order == 1
    # a scalar or an Element on either side of + and -
    one, zero = Element.one(), Element.zero()
    for c in (1, Fraction(1, 2), Element.gen(1)):
        assert (c - s).coefficients() == [c - x, -one, zero]
        assert (s - c).coefficients() == [x - c, one, zero]
        assert (s + c).coefficients() == [x + c, one, zero] == (c + s).coefficients()
    assert not YSeries.zero(2) and s


def test_yseries_product_truncates():
    x = Element.gen(0)
    s = YSeries([x, Element.one()])  # x + y
    p = s * s
    assert p.order == 1
    assert p.coefficient(0) == x * x
    assert p.coefficient(1) == Element.const(2) * x
    q = s * YSeries([x, -Element.one()])  # (x + y)(x - y): the y term cancels
    assert q.coefficient(1) == Element.zero()


def test_yseries_string():
    s = YSeries([Element.gen(1), Element.one(), Element.zero(), -Element.one()])
    assert str(s) == "log(x) + y - y^3"


def test_divided_form_compares_values_across_denominators():
    """Series are held as numerators over one denominator; equal values with
    different denominators compare equal."""
    r = Exponent.param("r")
    half_xr = Element.gen(0, r) * Fraction(1, 2)
    order = 4
    ordinary = YSeries(
        [Element({Monomial.gen(0, r - k): binom(r, k) * Fraction(1, 2)}) for k in range(order + 1)]
    )
    assert ordinary == d_dx().exp_series(half_xr, order)
    # exp(yD)(a*b) over den 1 against exp(yD)(a) * exp(yD)(b) over den 2 * 1
    a, b = Element.gen(0) * Fraction(1, 2), Element.gen(0) * 2
    lhs = d_dx().exp_series(a * b, order)
    rhs = d_dx().exp_series(a, order) * d_dx().exp_series(b, order)
    assert lhs._den != rhs._den
    assert lhs == rhs and rhs == lhs
    # the same value over a larger denominator
    scaled = YSeries.divided([n * 3 for n in ordinary._num], ordinary._den * 3)
    assert scaled == ordinary
    assert scaled.coefficients() == ordinary.coefficients()


def _groupings(series):
    """The sum of the series under every bracketing of the pairwise ``+``, left to right."""
    if len(series) == 1:
        yield series[0]
        return
    for cut in range(1, len(series)):
        for left in _groupings(series[:cut]):
            for right in _groupings(series[cut:]):
                yield left + right


def test_many_series_sum_equals_the_pairwise_sums_in_every_grouping():
    """``_sum_series`` puts the series over one denominator and truncates to the
    smallest order, whatever the dens and orders of its summands."""
    rng = Random(34)
    r = ParamPoly.param("r")
    for _ in range(6):
        series = []
        for den, order in zip((1, 2, 3, 6), rng.sample(range(1, 5), 4)):
            a = random_element(rng, params=("r",)) * Fraction(1, den)
            series.append(d_dx().exp_series(a, order) * rng.choice((1, -1, r)))
        assert len({s._den for s in series}) > 1
        total = algebra._sum_series(series)
        assert total.order == min(s.order for s in series)
        assert all(type(v) in (int, ParamPoly) for n in total._num for _, v in n.items())
        for grouped in _groupings(series):
            assert grouped == total and grouped.coefficients() == total.coefficients()
        for k in range(total.order + 1):
            assert total.coefficient(k) == sum((s.coefficient(k) for s in series), Element.zero())
    assert algebra._sum_series([YSeries.zero(2)]) == YSeries.zero(2)


def test_divided_form_tells_series_apart():
    """One differing coefficient or a differing order makes series unequal,
    whatever their denominators."""
    s = d_dx().exp_series(Element.gen(0, 3) * Fraction(2, 3) + Element.gen(1), 4)
    for k in range(s.order + 1):
        coeffs = s.coefficients()
        coeffs[k] = coeffs[k] + Element.gen(2) * Fraction(1, 7)
        changed = YSeries(coeffs)
        assert changed._den != s._den
        assert changed != s and s != changed
    assert s.truncate(3) != s
    assert s != s * 2
    assert YSeries.zero(2) != YSeries.zero(3)
    assert s - s == YSeries.zero(4)


def test_divided_clears_numerators_and_map_keeps_values():
    """``divided`` takes numerators N_k over den, clearing any rational ones
    into den; ``map`` applies a linear map to every coefficient."""
    half_x, third = Element.gen(0) * Fraction(1, 2), Element.gen(1, -1) * Fraction(2, 3)
    s = YSeries.divided([half_x, third, Element.gen(2) * 6], 5)
    fifth = Fraction(1, 5)
    assert s.coefficients() == [half_x * fifth, third * fifth, Element.gen(2) * Fraction(3, 5)]
    assert all(type(v) is int for n in s._num for _, v in n.items())
    double = s.map(lambda c: c * Fraction(3, 2))
    assert double.coefficients() == [c * Fraction(3, 2) for c in s.coefficients()]
    for empty in (lambda: YSeries([]), lambda: YSeries.divided([])):
        with pytest.raises(ValueError):
            empty()


def test_equality_ignores_coefficient_representation():
    """A rational coefficient held as int/Fraction equals the same value held as ParamPoly.const."""
    m = Monomial.gen(0, 2) * Monomial.gen(1, -1)
    for value in (3, -2, Fraction(4), Fraction(1, 2), Fraction(-5, 3)):
        boxed = ParamPoly.const(value)
        built = [Element({m: value}), Element({m: boxed}), Element({m: Fraction(value)})]
        # bypass construction so the stored forms really differ
        stored = [Element._of({m: value}), Element._of({m: boxed})]
        for a in built + stored:
            for b in built + stored:
                assert a == b
                assert YSeries([a, b]) == YSeries([b, a])
            assert a.coefficient(m) == boxed
            assert a.coefficient(m) == value
            assert a * 2 == Element({m: 2 * boxed})
        assert Element._of({m: boxed}) == Element.const(value) * Element({m: 1})
    # a parameter polynomial whose parameters cancel is a constant coefficient
    r = ParamPoly.param("r")
    e = Element({m: r + 1}) - Element({m: r})
    assert e == Element({m: 1})
    assert e.coefficient(m) == 1
    assert e.coefficient(Monomial.one()) == ParamPoly.zero() == 0
    assert str(e) == "x^2*log(x)^(-1)"
