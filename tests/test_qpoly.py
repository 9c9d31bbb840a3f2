"""Dense rational polynomials in one variable."""

from fractions import Fraction
from math import comb
from random import Random

from hypothesis import given, settings
from hypothesis import strategies as st

from formalcalc import qpoly
from formalcalc.checks import random_qpoly
from formalcalc.faadibruno import compose_series_direct, compose_series_from_table, umbral_shift
from formalcalc.jsonio import qpoly_from_json, qpoly_to_json


def test_normalize_strips_zeros():
    assert qpoly.normalize([Fraction(1), Fraction(0), Fraction(0)]) == [Fraction(1)]
    assert qpoly.normalize([Fraction(0)]) == []
    assert qpoly.degree([]) == -1
    assert qpoly.degree(qpoly.x_power(3)) == 3


def test_arithmetic():
    p = qpoly.from_coeffs([1, 2])      # 2x + 1
    q = qpoly.from_coeffs([-1, 2])     # 2x - 1
    assert qpoly.mul(p, q) == qpoly.from_coeffs([-1, 0, 4])
    assert qpoly.add(p, qpoly.neg(p)) == []
    assert qpoly.sub(p, q) == qpoly.from_coeffs([2])
    assert qpoly.power(p, 2) == qpoly.mul(p, p)
    assert qpoly.scale(p, Fraction(1, 2)) == qpoly.from_coeffs([Fraction(1, 2), 1])


def test_compose_and_derivative():
    outer = qpoly.from_coeffs([0, 0, 1])   # z^2
    inner = qpoly.from_coeffs([1, 1])      # x + 1
    assert qpoly.compose(outer, inner) == qpoly.from_coeffs([1, 2, 1])
    assert qpoly.derivative(qpoly.from_coeffs([5, 0, 3])) == qpoly.from_coeffs([0, 6])
    assert qpoly.derivative([]) == []


def test_composition_is_associative():
    rng = Random(19)
    for _ in range(15):
        a = random_qpoly(rng, 3)
        b = random_qpoly(rng, 3)
        c = random_qpoly(rng, 3)
        assert qpoly.compose(qpoly.compose(a, b), c) == qpoly.compose(a, qpoly.compose(b, c))


def test_to_string():
    assert qpoly.to_string([]) == "0"
    assert qpoly.to_string(qpoly.from_coeffs([0, -1, 2, 1])) == "x^3 + 2*x^2 - x"
    assert qpoly.to_string(qpoly.from_coeffs([Fraction(1, 2)])) == "1/2"


# ------------------------------------------- oracle: a Fraction-only reference

PROPERTY = settings(max_examples=60)

# integers, non-integral fractions and integral Fractions such as Fraction(4, 2)
COEFFS = st.one_of(
    st.integers(-6, 6),
    st.fractions(min_value=-6, max_value=6, max_denominator=7),
)
POLYS = st.lists(COEFFS, max_size=5)  # may carry trailing zeros


def ref_trim(p):
    out = [Fraction(v) for v in p]
    while out and not out[-1]:
        out.pop()
    return out


def ref_add(a, b):
    n = max(len(a), len(b))
    a, b = ref_trim(a) + [Fraction(0)] * n, ref_trim(b) + [Fraction(0)] * n
    return ref_trim([a[k] + b[k] for k in range(n)])


def ref_scale(a, c):
    return ref_trim([Fraction(v) * Fraction(c) for v in a])


def ref_mul(a, b):
    out = [Fraction(0)] * (len(a) + len(b))
    for i, va in enumerate(a):
        for j, vb in enumerate(b):
            out[i + j] += Fraction(va) * Fraction(vb)
    return ref_trim(out)


def ref_compose(outer, inner):
    out, power = [], [Fraction(1)]
    for c in outer:
        out = ref_add(out, ref_scale(power, c))
        power = ref_mul(power, inner)
    return out


def ref_derivative(a):
    return ref_trim([k * Fraction(v) for k, v in enumerate(a)][1:])


def assert_stored(p):
    """Every coefficient is an int, or a Fraction that is not integral; no float."""
    for c in p:
        assert type(c) is int or (type(c) is Fraction and c.denominator != 1), (p, c)


@PROPERTY
@given(POLYS, POLYS, COEFFS)
def test_arithmetic_matches_fraction_reference(a, b, c):
    cases = [
        (qpoly.add(a, b), ref_add(a, b)),
        (qpoly.sub(a, b), ref_add(a, ref_scale(b, -1))),
        (qpoly.scale(a, c), ref_scale(a, c)),
        (qpoly.mul(a, b), ref_mul(a, b)),
        (qpoly.compose(a, b), ref_compose(a, b)),
        (qpoly.derivative(a), ref_derivative(a)),
    ]
    for got, want in cases:
        assert got == want
        assert_stored(got)


def test_stored_form_of_inputs():
    p = qpoly.from_coeffs([Fraction(4, 2), 0.5, 3, Fraction(0), 0])
    assert p == [2, Fraction(1, 2), 3] and [type(v) for v in p] == [int, Fraction, int]
    assert qpoly.scale([1, 2], 2.0) == [2, 4] and qpoly.scale([1], 0.25) == [Fraction(1, 4)]
    assert_stored(qpoly.scale([1, 2], 2.0))
    assert qpoly.x_power(2) == [0, 0, 1] and type(qpoly.coeff([], 3)) is int


def test_json_round_trip_keeps_stored_form():
    for p in ([0, 2, 1], [Fraction(-1, 3), 0, 5], umbral_shift([Fraction(1, 2), 1], 3).images[2]):
        back = qpoly_from_json(qpoly_to_json(p))
        assert repr(back) == repr(p)
        assert_stored(back)
    assert repr(qpoly_from_json(["4/2", "1/2", "0"])) == "[2, Fraction(1, 2)]"


@PROPERTY
@given(
    st.lists(COEFFS, min_size=1, max_size=4),
    st.lists(COEFFS, min_size=1, max_size=4),
    st.integers(0, 10),
)
def test_composition_routes_agree_on_fractions(f, g, order):
    f, g = [Fraction(v) for v in f], [Fraction(v) for v in g]
    tabled = compose_series_from_table(f, g, order)
    assert tabled == compose_series_direct(f, g, order)
    for p in tabled:
        assert_stored(p)


def bell_targets(weights, depth):
    """p_n(x) = sum_k B(n,k) x^k, by B(n,k) = sum_i binom(n-1,i-1) w_i B(n-i,k-1)."""
    w = [Fraction(v) for v in weights] + [Fraction(0)] * depth
    bell = {(0, 0): Fraction(1)}
    for n in range(1, depth + 1):
        for k in range(1, n + 1):
            bell[n, k] = sum(
                (comb(n - 1, i - 1) * w[i - 1] * bell.get((n - i, k - 1), 0)
                 for i in range(1, n - k + 2)),
                Fraction(0),
            )
    return [ref_trim([bell.get((n, k), 0) for k in range(n + 1)]) for n in range(depth + 1)]


FRACTIONAL = st.fractions(min_value=-3, max_value=3, max_denominator=5).filter(
    lambda q: q.denominator != 1
)


@settings(max_examples=15)
@given(FRACTIONAL, st.lists(st.one_of(FRACTIONAL, st.integers(-2, 2)), max_size=3))
def test_umbral_shift_reproduces_partial_bell_targets(lead, rest):
    weights = [lead] + rest
    shift = umbral_shift(weights, 10)
    targets = bell_targets(weights, 10)
    state = [1]
    for n in range(1, 11):
        state = shift.apply(state)
        assert state == targets[n]
    for image in shift.images:
        assert_stored(image)
