"""The value records the library hands out: equality, hashing, repr,
read-only fields, pickling, and ``VerifyReport.summary``."""

import pickle
from fractions import Fraction

import pytest

from formalcalc import (
    Exponent,
    IndexShift,
    Monomial,
    UmbralShift,
    VerifyReport,
    parse,
    parse_element,
    umbral_shift,
)
from formalcalc.parser import _tokenize


def _round_trip(value):
    return pickle.loads(pickle.dumps(value))


# (a builder of fresh equal records, a different record, the repr, one field)
FROZEN = {
    "VerifyReport-pass": (
        lambda: VerifyReport("lubell", True, 12),
        VerifyReport("lubell", True, 13),
        "VerifyReport(check='lubell', passed=True, cases=12, counterexample=None)",
        "passed",
    ),
    "VerifyReport-fail": (
        lambda: VerifyReport("lubell", False, 3, "n=2"),
        VerifyReport("lubell", False, 3, "n=3"),
        "VerifyReport(check='lubell', passed=False, cases=3, counterexample='n=2')",
        "counterexample",
    ),
    "IndexShift": (lambda: IndexShift(2), IndexShift(-2), "IndexShift(offset=2)", "offset"),
    "Neg": (
        lambda: parse("-x"),
        parse("-a"),
        "Neg(operand=Leaf(kind='gen', value=0, column=2), column=1)",
        "operand",
    ),
    "BinOp": (
        lambda: parse("2*a^3"),
        parse("2*a^4"),
        "BinOp(op='*', left=Leaf(kind='number', value=Fraction(2, 1), column=1), "
        "right=BinOp(op='^', left=Leaf(kind='param', value='a', column=3), "
        "right=Leaf(kind='number', value=Fraction(3, 1), column=5), column=4), column=2)",
        "op",
    ),
    "Leaf": (lambda: parse("l_-1(x)"), parse("l_1(x)"), "Leaf(kind='gen', value=-1, column=1)", "value"),
    "Token": (
        lambda: _tokenize("y_2")[0],
        _tokenize("y_3")[0],
        "Token(kind='ysym', text='y_2', column=1)",
        "text",
    ),
    "Monomial": (
        lambda: Monomial(((1, Exponent.param("r", 2, -1)), (0, Fraction(1, 2)))),
        Monomial(((1, Exponent.param("r", 2, -1)),)),
        "Monomial(powers=((0, Exponent(const=Fraction(1, 2), linear=())), "
        "(1, Exponent(const=-1, linear=(('r', 2),)))))",
        "powers",
    ),
}


@pytest.mark.parametrize("make, other, text, field", FROZEN.values(), ids=FROZEN)
def test_frozen_record(make, other, text, field):
    record, twin = make(), make()
    assert repr(record) == text
    assert record == twin and hash(record) == hash(twin)
    assert record != other
    back = _round_trip(record)
    assert back == record and type(back) is type(record)
    with pytest.raises(AttributeError):
        setattr(record, field, None)
    assert repr(record) == text


def test_monomial_is_a_value_not_a_sequence():
    """The tuple base adds no arithmetic, and the unit monomial is true."""
    m = Monomial.gen(0, Exponent.param("r")) * Monomial.gen(2, -1)
    for op in (lambda: m + m, lambda: m * 2, lambda: 2 * m, lambda: m.powers + m):
        with pytest.raises(TypeError):
            op()
    assert bool(Monomial.one()) and Monomial.one().is_one and not m.is_one
    back = _round_trip(m)
    assert [e for _, e in back.powers] and all(
        b is e for (_, b), (_, e) in zip(back.powers, m.powers)
    )


def test_verify_report_defaults_and_summary():
    assert VerifyReport("s", True, 4).counterexample is None
    assert VerifyReport("s", True, 4).summary() == "s: pass (4 cases)"
    assert VerifyReport("s", False, 2, "at n=1").summary() == "s: FAIL after 2 cases (at n=1)"


def test_index_shift_maps_elements_after_a_round_trip():
    shift, x = IndexShift(1), parse_element("x")
    assert shift.inverse() == IndexShift(-1)
    assert _round_trip(shift)(x) == shift(x) == parse_element("log(x)")


def test_umbral_shift_record():
    shift = umbral_shift([1, 2], 2)
    assert repr(shift) == (
        "UmbralShift(weights=(Fraction(1, 1), Fraction(2, 1)), "
        "images=[[0, 1], [0, 2, 1]])"
    )
    assert shift.images == [
        [Fraction(0), Fraction(1)],
        [Fraction(0), Fraction(2), Fraction(1)],
    ]
    assert shift == UmbralShift((Fraction(1), Fraction(2)), shift.images)
    assert shift != umbral_shift([1, 3], 2)
    assert shift != umbral_shift([1, 2], 3)
    back = _round_trip(shift)
    assert back == shift and type(back) is UmbralShift
    assert back.depth == 2 and back.apply([0, 1]) == shift.apply([0, 1])
