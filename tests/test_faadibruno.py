"""Composite-derivative polynomials, the dual-path expansion, and umbral shifts."""

from fractions import Fraction
from math import comb, factorial
from random import Random
import tracemalloc

import pytest

from formalcalc import qpoly
from formalcalc.checks import random_qpoly, verify_composition
from formalcalc import faadibruno
from formalcalc.faadibruno import (
    ConsistencyError,
    FdbPoly,
    compose_expansion,
    compose_series_direct,
    compose_series_from_table,
    derivative_tower,
    substitute_weights,
    taylor_coefficients,
    umbral_shift,
)
from formalcalc.jsonio import fdbpoly_from_json, fdbpoly_to_json
from formalcalc.params import canonical_coeff
from formalcalc.parser import parse_fdb


def y(i):
    return FdbPoly.outer_symbol(i)


def x(j):
    return FdbPoly.inner_symbol(j)


def test_first_derivatives():
    tower = derivative_tower(3)
    assert tower[0] == y(0)
    assert tower[1] == y(1) * x(1)
    assert tower[2] == y(2) * x(1) ** 2 + y(1) * x(2)
    assert tower[3] == y(3) * x(1) ** 3 + 3 * y(2) * x(1) * x(2) + y(1) * x(3)


def test_derive_step():
    assert y(0).derive() == y(1) * x(1)
    assert x(2).derive() == x(3)
    assert (y(1) * x(2)).derive() == y(2) * x(1) * x(2) + y(1) * x(3)


def test_monomial_counts_are_partition_numbers():
    partitions = [1, 1, 2, 3, 5, 7, 11]
    tower = derivative_tower(6)
    for n, want in enumerate(partitions):
        assert len(tower[n].sorted_terms()) == want, n


def test_taylor_coefficients_divide_by_factorials():
    coeffs = taylor_coefficients(4)
    tower = derivative_tower(4)
    assert coeffs[3] == tower[3] * Fraction(1, 6)
    assert coeffs[4] == tower[4] * Fraction(1, 24)


def random_fdbpoly(rng: Random) -> FdbPoly:
    """A few terms in y_0..y_2 and x_1..x_3, values mixing int and Fraction."""
    values = (1, -2, 3, Fraction(1, 2), Fraction(-2, 3), Fraction(6, 3), Fraction(-5, 4))

    def powers(first: int) -> tuple:
        drawn = ((i, rng.randrange(3)) for i in range(first, first + 3))
        return tuple((i, e) for i, e in drawn if e)

    return FdbPoly(
        {(powers(0), powers(1)): rng.choice(values) for _ in range(rng.randrange(1, 4))}
    )


def test_fdbpoly_arithmetic():
    p = y(1) * x(1) + 2
    q = p - 2
    assert q == y(1) * x(1)
    assert (p * 0) == FdbPoly.zero()
    assert p ** 2 == p * p
    with pytest.raises(ValueError):
        p ** -1
    # one storage rule (params.canonical_coeff): int when integral, Fraction otherwise
    parsed = parse_fdb("2*y_1*x_1 + y_2")
    decoded = fdbpoly_from_json(fdbpoly_to_json(derivative_tower(4)[4]))
    derived = (x(1) ** 2 * Fraction(1, 2)).derive()  # Fraction(1, 2) * 2 is stored as 1
    for poly in (parsed, decoded, parsed * parsed, p * p, taylor_coefficients(1)[1], derived):
        assert all(type(c) is int for _, c in poly.items()), poly
    half = p * Fraction(1, 2)
    assert {type(c) for _, c in half.items()} == {Fraction, int}
    # +, -, * and squaring against sympy.expand on seeded random values
    sympy = pytest.importorskip("sympy")

    def to_sympy(poly: FdbPoly):
        return sum(
            (
                sympy.Rational(c.numerator, c.denominator)
                * sympy.Mul(*(sympy.Symbol(f"y_{i}") ** e for i, e in ys))
                * sympy.Mul(*(sympy.Symbol(f"x_{j}") ** e for j, e in xs))
                for (ys, xs), c in poly.items()
            ),
            sympy.Integer(0),
        )

    rng = Random(60)
    for _ in range(50):
        a, b = random_fdbpoly(rng), random_fdbpoly(rng)
        sa, sb = to_sympy(a), to_sympy(b)
        for got, want in ((a + b, sa + sb), (a - b, sa - sb), (a * b, sa * sb), (a ** 2, sa ** 2)):
            assert sympy.expand(to_sympy(got) - want) == 0, (a, b)
            for _, c in got.items():
                assert c and type(c) is (int if c.denominator == 1 else Fraction), got


def test_fdbpoly_ring_laws_random():
    """Products of polynomials that share symbols merge their keys' powers."""
    rng = Random(34)
    one = FdbPoly.one()
    for _ in range(40):
        a, b, c = random_fdbpoly(rng), random_fdbpoly(rng), random_fdbpoly(rng)
        assert (a * b) * c == a * (b * c)
        assert a * b == b * a
        assert a * (b + c) == a * b + a * c
        assert (a + b) + c == a + (b + c)
        assert a * one == a and a + FdbPoly.zero() == a
        assert a ** 3 == a * a * a
        assert a - a == 0
        for (ys, xs), _ in (a * b * c).items():
            for side in (ys, xs):
                assert list(side) == sorted(side) and len({i for i, _ in side}) == len(side)
                assert all(p >= 1 for _, p in side)
    # y_1*x_2 times y_1^2*y_0: the powers of a shared symbol add
    assert (y(1) * x(2)) * (y(1) ** 2 * y(0)) == FdbPoly({(((0, 1), (1, 3)), ((2, 1),)): 1})


def test_fdbpoly_string():
    assert str(derivative_tower(2)[2]) == "y_2*x_1^2 + y_1*x_2"
    assert str(FdbPoly.zero()) == "0"


def test_substitute_weights_strict():
    p = y(1) * x(3)
    with pytest.raises(ValueError):
        substitute_weights(p, (1, 2))
    # x_3 carries one inner symbol, so it lands on weight_3 * x
    assert substitute_weights(p, (1, 2, 5)) == qpoly.from_coeffs([0, 5])
    # x_1^2 * x_2 carries three, landing on w1^2 w2 x^3
    assert substitute_weights(x(1) ** 2 * x(2), (2, 3)) == qpoly.from_coeffs([0, 0, 0, 12])


def ref_substitute_weights(poly, weights):
    """The weight substitution with its own loop over the terms: y_j -> 1, x_i -> w_i x."""
    w = [canonical_coeff(v) for v in weights]
    out = []
    for (_ys, xs), c in poly.items():
        total = c
        deg = 0
        for j, e in xs:
            if j > len(w):
                raise ValueError(f"inner symbol x_{j} has no weight; sequence has length {len(w)}")
            total *= w[j - 1] ** e
            deg += e
        while len(out) <= deg:
            out.append(0)
        out[deg] += total
    return qpoly.normalize(out)


def ref_compose_from_table(f, g, order):
    """The table route with its own power table and loop over each row's terms."""
    fq, gq = qpoly.from_coeffs(f), qpoly.from_coeffs(g)
    outer_at_g = []
    d = fq
    for _ in range(order + 1):
        outer_at_g.append(qpoly.compose(d, gq))
        d = qpoly.derivative(d)
    inner = [gq]
    for _ in range(order):
        inner.append(qpoly.derivative(inner[-1]))
    # powers[i][e] = base_i^e, each built once from the power below it
    outer_powers = [[[1], p] for p in outer_at_g]
    inner_powers = [[[1], p] for p in inner]
    out = []
    for n, dpoly in enumerate(derivative_tower(order)):
        acc = []
        for (ys, xs), c in dpoly.items():
            prod = qpoly.const(c)
            for powers, key in ((outer_powers, ys), (inner_powers, xs)):
                for i, e in key:
                    row = powers[i]
                    while len(row) <= e:
                        row.append(qpoly.mul(row[-1], row[1]))
                    prod = qpoly.mul(prod, row[e])
            acc = qpoly.add(acc, prod)
        out.append(qpoly.scale(acc, Fraction(1, factorial(n))))
    return out


def random_wide_fdbpoly(rng: Random) -> FdbPoly:
    """Terms over three y and three x symbols with indices up to 40, powers up to 5.

    Each term draws its symbols from the same small pools, so a symbol repeats
    within a term (its powers add) and across terms (its powers are reused).
    """
    pools = (rng.sample(range(41), 3), rng.sample(range(1, 41), 3))
    out = FdbPoly.zero()
    for _ in range(rng.randrange(1, 6)):
        term = FdbPoly.one() * rng.choice((1, -2, 3, Fraction(1, 2), Fraction(-5, 4)))
        for _ in range(rng.randrange(5)):
            symbol, pool = rng.choice(((y, pools[0]), (x, pools[1])))
            term = term * symbol(rng.choice(pool)) ** rng.randrange(1, 6)
        out = out + term
    return out


def test_substitute_weights_matches_its_own_loop_on_tower_rows():
    for weights in UMBRAL_WEIGHTS + ((0, 1, 0, Fraction(-3, 7)),):
        w = list(weights) + [Fraction(1, 3), 0, 2] * 4
        for row in derivative_tower(12):
            assert substitute_weights(row, w) == ref_substitute_weights(row, w), (weights, row)


def test_substitute_weights_matches_its_own_loop_on_random_polys():
    rng = Random(33)
    values = (0, 0, 1, -1, 2, Fraction(1, 2), Fraction(-2, 3), Fraction(4, 2), Fraction(7, 5))
    for _ in range(300):
        poly = random_wide_fdbpoly(rng)
        weights = [rng.choice(values) for _ in range(rng.randrange(30, 41))]
        try:
            want = ref_substitute_weights(poly, weights)
        except ValueError as refused:
            with pytest.raises(ValueError) as got:
                substitute_weights(poly, weights)
            assert str(got.value) == str(refused)
        else:
            got = substitute_weights(poly, weights)
            assert got == want, (poly, weights)
            assert all(type(v) is int or v.denominator != 1 for v in got)


def test_substitute_weights_reads_only_the_symbols_present():
    poly = FdbPoly.outer_symbol(10**6) * FdbPoly.inner_symbol(1)
    tracemalloc.start()
    try:
        got = substitute_weights(poly, (2,))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got == [0, 2]
    assert peak < 1 << 20  # a list indexed by symbol would take 8 MB here
    missing = r"^inner symbol x_1000000 has no weight; sequence has length 1$"
    with pytest.raises(ValueError, match=missing):
        substitute_weights(FdbPoly.inner_symbol(10**6), (1,))


def test_compose_from_table_matches_its_own_loop():
    rng = Random(34)
    for order in range(9):
        for _ in range(12):
            f, g = random_rational_qpoly(rng, 4), random_rational_qpoly(rng, 4)
            assert compose_series_from_table(f, g, order) == ref_compose_from_table(f, g, order)
    with pytest.raises(ValueError, match="nonnegative"):
        compose_series_from_table([1], [0, 1], -1)


def test_compose_specific_pair():
    """f(z) = z^2, g(x) = x + x^2: coefficients of f(g(x+y)) in y."""
    f = qpoly.from_coeffs([0, 0, 1])
    g = qpoly.from_coeffs([0, 1, 1])
    direct = compose_series_direct(f, g, 3)
    table = compose_series_from_table(f, g, 3)
    assert direct == table
    # order 0: (x + x^2)^2
    assert direct[0] == qpoly.from_coeffs([0, 0, 1, 2, 1])
    # derivative path: coefficient of y is d/dx (x+x^2)^2 = 2(x+x^2)(1+2x)
    assert direct[1] == qpoly.from_coeffs([0, 2, 6, 4])


def test_compose_derivative_consistency():
    """Order-k coefficient equals the k-th derivative over k!."""
    rng = Random(21)
    for _ in range(10):
        f = random_qpoly(rng, 4)
        g = random_qpoly(rng, 4)
        series = compose_expansion(f, g, 5)
        composed = qpoly.compose(f, g)
        expected = composed
        fact = 1
        for k in range(6):
            assert series[k] == qpoly.scale(expected, Fraction(1, fact)), k
            expected = qpoly.derivative(expected)
            fact *= k + 1


def test_verify_composition_report():
    report = verify_composition(trials=20, max_degree=5, order=6, seed=3)
    assert report.passed, report.summary()
    assert report.cases == 20


def test_umbral_multiplication_by_x():
    shift = umbral_shift((1,), 5)
    assert shift.depth == 5
    for k in range(5):
        assert shift.image_of_power(k) == qpoly.x_power(k + 1)


def test_umbral_small_example():
    """Weights (1, 1): the first three images, solved by hand."""
    shift = umbral_shift((1, 1), 3)
    assert shift.image_of_power(0) == qpoly.from_coeffs([0, 1])
    assert shift.image_of_power(1) == qpoly.from_coeffs([0, 1, 1])
    assert shift.image_of_power(2) == qpoly.from_coeffs([0, -1, 2, 1])


def test_umbral_apply_linear():
    shift = umbral_shift((1, 1), 4)
    p = qpoly.from_coeffs([2, 0, 3])  # 3x^2 + 2
    want = qpoly.add(
        qpoly.scale(shift.image_of_power(2), 3),
        qpoly.scale(shift.image_of_power(0), 2),
    )
    assert shift.apply(p) == want


def test_umbral_apply_degree_guard():
    shift = umbral_shift((1, 1), 3)
    with pytest.raises(ValueError):
        shift.apply(qpoly.x_power(3))


def test_umbral_rejects_zero_leading_weight():
    with pytest.raises(ValueError, match="first weight must be nonzero"):
        umbral_shift((0, 1), 3)
    with pytest.raises(ValueError, match="no weight given"):
        umbral_shift([], 3)


def direct_tower(order):
    """D^0 y_0 .. D^order y_0 by repeated ``derive``, with no table."""
    tower = [y(0)]
    for _ in range(order):
        tower.append(tower[-1].derive())
    return tower


@pytest.mark.parametrize("first, second", [(9, 4), (4, 9)])
def test_tower_table_cold_and_warm_agree(monkeypatch, first, second):
    monkeypatch.setattr(faadibruno, "_TOWER", [])
    assert derivative_tower(first) == direct_tower(first)  # cold
    assert derivative_tower(second) == direct_tower(second)  # warm, or grown
    assert derivative_tower(first) == direct_tower(first)
    assert len(faadibruno._TOWER) == max(first, second) + 1


def test_tower_table_hands_out_fresh_lists(monkeypatch):
    monkeypatch.setattr(faadibruno, "_TOWER", [])
    tower = derivative_tower(5)
    tower[3] = FdbPoly.zero()
    tower.append(y(7))
    del tower[0]
    assert derivative_tower(5) == direct_tower(5)
    assert derivative_tower(6) == direct_tower(6)


def test_tower_table_keeps_rows_up_to_its_cap(monkeypatch):
    monkeypatch.setattr(faadibruno, "_TOWER", [])
    monkeypatch.setattr(faadibruno, "_TOWER_CAP", 0)
    for _ in range(2):
        assert derivative_tower(8) == direct_tower(8)
    assert faadibruno._TOWER == []
    # orders 0..3 hold 1 + 1 + 2 + 3 terms; order 4 adds 5 more, past a cap of 10
    monkeypatch.setattr(faadibruno, "_TOWER_CAP", 10)
    for order in (8, 2, 8):
        assert derivative_tower(order) == direct_tower(order)
    assert faadibruno._TOWER == direct_tower(3)


@pytest.mark.parametrize("cap", [None, 0])
def test_taylor_rows_cold_and_warm(monkeypatch, cap):
    monkeypatch.setattr(faadibruno, "_TOWER", [])
    monkeypatch.setattr(faadibruno, "_TAYLOR", [])
    if cap is not None:
        monkeypatch.setattr(faadibruno, "_TOWER_CAP", cap)
    for order in (6, 3, 9, 9):  # cold, warm, grown, warm
        want = [p * Fraction(1, factorial(n)) for n, p in enumerate(direct_tower(order))]
        assert taylor_coefficients(order) == want, order
    assert len(faadibruno._TAYLOR) == len(faadibruno._TOWER) == (10 if cap is None else 0)


def test_taylor_rows_hand_out_fresh_lists(monkeypatch):
    monkeypatch.setattr(faadibruno, "_TAYLOR", [])
    want = taylor_coefficients(5)
    rows = taylor_coefficients(5)
    rows[2] = FdbPoly.zero()
    rows.append(y(7))
    del rows[0]
    assert taylor_coefficients(5) == want
    with pytest.raises(ValueError, match="nonnegative"):
        taylor_coefficients(-1)


def ref_umbral_shift(weights, depth):
    """The tower route: D^n y_0 under the weight substitution, then a
    triangular solve of shift(p_(m-1)) = p_m for the image of x^(m-1)."""
    w = [Fraction(v) for v in weights]
    w += [Fraction(0)] * max(0, depth - len(w))
    targets = [substitute_weights(p, w) for p in derivative_tower(depth)]
    images = []
    for m in range(1, depth + 1):
        prev, residue = targets[m - 1], targets[m]
        for k in range(m - 1):
            residue = qpoly.sub(residue, qpoly.scale(images[k], qpoly.coeff(prev, k)))
        images.append(qpoly.scale(residue, Fraction(1) / qpoly.coeff(prev, m - 1)))
    return tuple(w), images


UMBRAL_WEIGHTS = (
    (1, 2),
    (Fraction(1, 2), 3, Fraction(-2, 7)),
    (2, 0, 5, 1),
    (3, -1, 4, 1, -5, 9),  # integer
    (Fraction(2, 3), Fraction(-1, 4), Fraction(5, 6), Fraction(7, 5)),  # fractional
    (1, 0, 0, 0, 0, 7),  # zero-heavy
    (Fraction(-1, 2), 0, 0, 3, 0, 0, Fraction(1, 9)),
)


@pytest.mark.parametrize("weights", UMBRAL_WEIGHTS)
def test_umbral_closed_form_matches_the_tower_route(weights):
    for depth in range(1, 13):
        want_weights, want_images = ref_umbral_shift(weights, depth)
        shift = umbral_shift(weights, depth)
        assert shift.weights == want_weights
        assert shift.images == want_images, (weights, depth)
        for image in shift.images:
            assert all(type(v) is int or v.denominator != 1 for v in image)


def test_umbral_shift_leaves_the_tower_alone(monkeypatch):
    want = ref_umbral_shift((1, 2), 12)

    def refuse(*_args):
        raise AssertionError("umbral_shift reached the Faa di Bruno tower")

    monkeypatch.setattr(faadibruno, "derivative_tower", refuse)
    monkeypatch.setattr(faadibruno, "substitute_weights", refuse)
    monkeypatch.setattr(FdbPoly, "substitute_weights", refuse)
    monkeypatch.setattr(FdbPoly, "derive", refuse)
    shift = umbral_shift((1, 2), 12)
    assert (shift.weights, shift.images) == want


def test_umbral_self_check_catches_a_wrong_target(monkeypatch):
    partial_bell = faadibruno._partial_bell

    def bent(w, depth):
        rows = partial_bell(w, depth)
        rows[depth][1] += 1  # B(depth, 1) = w_depth is read by the check alone
        return rows

    monkeypatch.setattr(faadibruno, "_partial_bell", bent)
    with pytest.raises(ConsistencyError, match="self-check at depth 5"):
        umbral_shift((1, 2), 5)


def test_umbral_random_weights_solve():
    """The triangular solve self-checks; construction succeeding is the test."""
    rng = Random(77)
    for _ in range(10):
        weights = [Fraction(rng.randrange(-3, 4)) for _ in range(rng.randrange(1, 5))]
        weights[0] = Fraction(rng.choice([1, -1, 2, -2, 3]))
        shift = umbral_shift(weights, 6)
        assert shift.depth == 6


def test_compose_expansion_returns_common_value():
    f = qpoly.from_coeffs([1, 2, 0, 1])
    g = qpoly.from_coeffs([0, 1, 0, -1])
    series = compose_expansion(f, g, 4)
    assert series == compose_series_direct(f, g, 4)
    assert series == compose_series_from_table(f, g, 4)


def test_compose_expansion_catches_a_wrong_table_route(monkeypatch):
    """The two routes run apart: a one-coefficient slip in the table route is caught."""
    table_route = faadibruno.compose_series_from_table

    def shifted(f, g, order):
        series = table_route(f, g, order)
        series[2] = qpoly.add(series[2], qpoly.x_power(1))
        return series

    f = qpoly.from_coeffs([1, 2, 0, 1])
    g = qpoly.from_coeffs([0, 1, Fraction(1, 2)])
    monkeypatch.setattr(faadibruno, "compose_series_from_table", shifted)
    with pytest.raises(ConsistencyError, match=r"composition routes differ at y\^2"):
        compose_expansion(f, g, 4)


def ref_compose_bivariate(f, g, order):
    """y-coefficients of f(g(x+y)) by straight bivariate expansion.

    Expands g(x+y) with the binomial theorem, substitutes into f by Horner's
    scheme over polynomials-in-x per y-power, truncating y-degree at
    ``order`` throughout.
    """
    fq, gq = qpoly.from_coeffs(f), qpoly.from_coeffs(g)
    gxy = [[] for _ in range(order + 1)]  # g(x+y) as a y-coefficient list
    for m, c in enumerate(gq):
        if not c:
            continue
        for i in range(min(m, order) + 1):
            gxy[i] = qpoly.add(gxy[i], qpoly.scale(qpoly.x_power(m - i), c * comb(m, i)))

    def bi_mul(a, b):
        out = [[] for _ in range(order + 1)]
        for i, pa in enumerate(a):
            if not pa:
                continue
            for j in range(order + 1 - i):
                if b[j]:
                    out[i + j] = qpoly.add(out[i + j], qpoly.mul(pa, b[j]))
        return out

    result = [[] for _ in range(order + 1)]
    for c in reversed(fq):
        result = bi_mul(result, gxy)
        result[0] = qpoly.add(result[0], qpoly.const(c))
    return result


def random_rational_qpoly(rng: Random, max_degree: int):
    """Up to ``max_degree``, empty one time in eight, values mixing int and Fraction."""
    if not rng.randrange(8):
        return []
    values = (0, 1, -1, 2, -3, Fraction(1, 2), Fraction(-2, 3), Fraction(6, 3), Fraction(5, 4))
    return [rng.choice(values) for _ in range(rng.randrange(max_degree + 1) + 1)]


def test_direct_route_matches_the_bivariate_expansion():
    rng = Random(20)
    cases = [([], [1, 2], 3), ([1, 2], [], 3), ([], [], 0), ([Fraction(1, 2)], [0, 1], 0)]
    cases += [
        (random_rational_qpoly(rng, 5), random_rational_qpoly(rng, 4), rng.randrange(10))
        for _ in range(600)
    ]
    for f, g, order in cases:
        got = compose_series_direct(f, g, order)
        assert got == ref_compose_bivariate(f, g, order), (f, g, order)
        assert len(got) == order + 1
        for coeff in got:
            assert coeff == qpoly.normalize(coeff), (f, g, order)
            assert all(type(v) is int or v.denominator != 1 for v in coeff), (f, g, order)


def test_direct_route_leaves_the_tower_alone(monkeypatch):
    f, g = [1, Fraction(1, 2), 0, 3], [0, 2, -1]
    want = ref_compose_bivariate(f, g, 6)

    def refuse(*_args):
        raise AssertionError("compose_series_direct reached the Faa di Bruno tower")

    monkeypatch.setattr(faadibruno, "derivative_tower", refuse)
    monkeypatch.setattr(faadibruno, "taylor_coefficients", refuse)
    monkeypatch.setattr(FdbPoly, "derive", refuse)
    assert compose_series_direct(f, g, 6) == want
