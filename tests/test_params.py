"""Parameter-polynomial arithmetic: the coefficient ring under everything."""

import ast
import json
import os
import pickle
import subprocess
import sys
from fractions import Fraction
from pathlib import Path
from random import Random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from formalcalc import cli, jsonio, params
from formalcalc.derivations import d_dx
from formalcalc.params import POWER_CAP, ParamPoly
from formalcalc.parser import parse_element

SRC = Path(cli.__file__).resolve().parents[1]  # the directory that holds the package


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
            ((a * Fraction(2, 3)) * (b * Fraction(3, 2)), sa * sb),
            (a.substitute("r", c), sa.subs(symbols["r"], sc)),
            (a.substitute("s", c), sa.subs(symbols["s"], sc)),
            *((a ** k, sa ** k) for k in range(4)),
        ):
            assert sympy.expand(to_sympy(got) - want) == 0, (a, b, c)
            assert_stored_form(got)


def run_python(code: str) -> str:
    """Run ``code`` in a fresh interpreter on this package; return its stdout."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(SRC), env.get("PYTHONPATH"))))
    result = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True
    )
    return result.stdout


# str and JSON of the values below, as printed before parameters had slots
ORDER_PROBE = """
from fractions import Fraction
from formalcalc import ParamPoly, d_dx, jsonio, params
from formalcalc.parser import parse_element
ParamPoly.param({first!r}), ParamPoly.param({second!r})
print(params._SHIFTS[{first!r}] == 0)
p = (ParamPoly.param("r") + ParamPoly.param("s")) ** 2 * Fraction(1, 2) - 3
a = parse_element("(2*s - r)*x^(r)*log(x)^(s) + s*r^2*l_2(x)^(-r)")
series = d_dx().exp_series(a, 1)
print(p)
print(series)
print(jsonio.dumps(jsonio.parampoly_to_json(p)))
print(jsonio.dumps(jsonio.element_to_json(series.coefficient(1))))
"""
HEAD_TEXT = [
    "r*s + 1/2*r^2 + 1/2*s^2 - 3",
    "(-r + 2*s)*x^r*log(x)^s + r^2*s*l_2(x)^(-r) - r^3*s*x^(-1)*log(x)^(-1)*l_2(x)^(-r - 1)*y"
    " + (-r*s + 2*s^2)*x^(r - 1)*log(x)^(s - 1)*y + (2*r*s - r^2)*x^(r - 1)*log(x)^s*y",
]
HEAD_JSON = [
    '[{"coeff":"1","powers":{"r":1,"s":1}},{"coeff":"1/2","powers":{"r":2}},'
    '{"coeff":"1/2","powers":{"s":2}},{"coeff":"-3","powers":{}}]',
    '[{"monomial":[{"gen":0,"exp":{"const":"-1","linear":{}}},{"gen":1,"exp":{"const":"-1",'
    '"linear":{}}},{"gen":2,"exp":{"const":"-1","linear":{"r":-1}}}],"coeff":[{"coeff":"-1",'
    '"powers":{"r":3,"s":1}}]},{"monomial":[{"gen":0,"exp":{"const":"-1","linear":{"r":1}}},'
    '{"gen":1,"exp":{"const":"-1","linear":{"s":1}}}],"coeff":[{"coeff":"-1","powers":{"r":1,'
    '"s":1}},{"coeff":"2","powers":{"s":2}}]},{"monomial":[{"gen":0,"exp":{"const":"-1",'
    '"linear":{"r":1}}},{"gen":1,"exp":{"const":"0","linear":{"s":1}}}],"coeff":[{"coeff":"2",'
    '"powers":{"r":1,"s":1}},{"coeff":"-1","powers":{"r":2}}]}]',
]


@pytest.mark.parametrize("first, second", [("s", "r"), ("r", "s")])
def test_output_ignores_parameter_registration_order(first, second):
    """Whichever name takes the first slot, str and JSON keep their bytes."""
    want = "\n".join(
        ["True", *HEAD_TEXT, *(jsonio.dumps(json.loads(doc)) for doc in HEAD_JSON)]
    )
    assert run_python(ORDER_PROBE.format(first=first, second=second)) == want + "\n"


def test_pickles_carry_names_not_slots():
    """A ParamPoly pickled where s has the first slot loads right where r has it."""
    ParamPoly.param("r"), ParamPoly.param("s")
    code = (
        "import pickle, sys\n"
        "from fractions import Fraction\n"
        "from formalcalc import ParamPoly, d_dx\n"
        "from formalcalc.parser import parse_element\n"
        "ParamPoly.param('s')\n"
        "p = ParamPoly.param('r') ** 3 * Fraction(1, 2) - ParamPoly.param('s') * 5\n"
        "a = d_dx().exp_series(parse_element('s*x^(r)*log(x)^(2*s)'), 2)\n"
        "print(pickle.dumps((p, a)).hex())\n"
    )
    p, a = pickle.loads(bytes.fromhex(run_python(code)))
    r, s_ = ParamPoly.param("r"), ParamPoly.param("s")
    assert p == r ** 3 * Fraction(1, 2) - s_ * 5
    assert a == d_dx().exp_series(parse_element("s*x^(r)*log(x)^(2*s)"), 2)


def test_unpickling_registers_only_the_names_used():
    """Loading a pickle from a process with 100 names registers only the 2 it uses."""
    r = ParamPoly.param("r")
    code = (
        "import pickle\n"
        "from formalcalc import ParamPoly, d_dx\n"
        "from formalcalc.parser import parse_element\n"
        "names = [ParamPoly.param(f'many_{i}') for i in range(100)]\n"
        "r = ParamPoly.param('r')\n"
        "p = r ** 2 - names[3] * 4\n"
        "a = d_dx().exp_series(parse_element('many_3*x^(r)*log(x)^(2*many_3)'), 2)\n"
        "print(pickle.dumps((r, p, a)).hex())\n"
    )
    blob = bytes.fromhex(run_python(code))
    before = set(params._SHIFTS)
    got_r, p, a = pickle.loads(blob)
    assert set(params._SHIFTS) - before == {"many_3"}
    assert got_r == r
    assert p == r**2 - ParamPoly.param("many_3") * 4
    assert a == d_dx().exp_series(parse_element("many_3*x^(r)*log(x)^(2*many_3)"), 2)


def test_packed_fields_never_carry():
    """r^(2^k - 1) * r is exact at every power of two up to the field width."""
    lo, mid, hi = (ParamPoly.param(n) for n in ("carry_a", "carry_b", "carry_c"))
    for k in range(1, 63):
        full = 2**k - 1
        p = lo ** full * mid ** full * hi ** full
        got = dict((p * mid).items())
        assert got == {(("carry_a", full), ("carry_b", full + 1), ("carry_c", full)): 1}, k
        assert dict((mid ** full * mid).items()) == {(("carry_b", full + 1),): 1}, k
    assert POWER_CAP == 2**63 - 1
    top = mid ** POWER_CAP * lo ** POWER_CAP * hi ** POWER_CAP
    assert dict(top.items()) == {
        (("carry_a", POWER_CAP), ("carry_b", POWER_CAP), ("carry_c", POWER_CAP)): 1
    }
    for factor in (lo, mid, hi, lo * hi):
        with pytest.raises(OverflowError, match=r"cap 2\^63 - 1"):
            top * factor
    with pytest.raises(OverflowError, match=r"cap 2\^63 - 1"):
        ParamPoly({(("carry_b", POWER_CAP + 1),): 1})
    with pytest.raises(OverflowError, match=r"cap 2\^63 - 1"):
        ParamPoly({(("carry_b", POWER_CAP), ("carry_b", 1)): 1})
    # a repeated name is checked after each power: packed after the loop, this key is carry_b
    twice = (("carry_a", POWER_CAP), ("carry_a", POWER_CAP), ("carry_a", 2))
    for make in (lambda: ParamPoly({twice: 1}), lambda: ParamPoly.from_terms([(twice, 1)])):
        with pytest.raises(OverflowError, match=r"cap 2\^63 - 1"):
            make()
    assert dict(ParamPoly({(("carry_a", POWER_CAP - 2), ("carry_a", 2)): 1}).items()) == {
        (("carry_a", POWER_CAP),): 1
    }
    with pytest.raises(ValueError):
        ParamPoly({(("carry_b", -1),): 1})


# str of the ROADMAP's probe after registering {n} other names, median of 5 runs,
# then the parameters and keys of a polynomial in a name first met after them
MANY_NAMES_PROBE = """
import statistics, time
from formalcalc import ParamPoly, d_dx
from formalcalc.parser import parse_element
for i in range({n}):
    ParamPoly.param(f"many_{{i}}")
series = d_dx().exp_series(parse_element("x^r*l_2(x)^s + l_-1(x)^(r-s)*log(x)"), 6)
times = []
for _ in range(5):
    start = time.perf_counter()
    text = str(series)
    times.append(time.perf_counter() - start)
late = (ParamPoly.param("late") - ParamPoly.param("r")) ** 2
print(repr((statistics.median(times), late.parameters(), sorted(late.items()), text)))
"""


def test_late_names_print_as_fast_as_early_ones():
    """Reading a key walks only the fields it sets, so 1,000 names registered
    first leave printing within a small factor of a process with none."""
    none, many = (
        ast.literal_eval(run_python(MANY_NAMES_PROBE.format(n=n))) for n in (0, 1000)
    )
    assert many[3] == none[3]
    for _, names, items, _ in (none, many):
        assert names == {"late", "r"}
        assert items == [((("late", 1), ("r", 1)), -2), ((("late", 2),), 1), ((("r", 2),), 1)]
    assert many[0] <= 10 * none[0], (many[0], none[0])


# registered in this order, which is not the order of their names
SHUFFLED = ("prop_d", "prop_a", "prop_e", "prop_c", "prop_b")
POWERS = st.one_of(st.integers(0, 3), st.just(POWER_CAP // 4))  # four never pass the cap
KEYS = st.lists(st.tuples(st.sampled_from(SHUFFLED), POWERS), max_size=4)
TERMS = st.lists(st.tuples(KEYS, st.fractions(-3, 3, max_denominator=4)), max_size=5)


@given(TERMS)
def test_keys_read_back_sorted_by_name(terms):
    """Keys read back from slots in any order are ParamKeys that pack to the same terms."""
    for name in SHUFFLED:
        ParamPoly.param(name)
    p = ParamPoly.from_terms((tuple(key), value) for key, value in terms)
    assert ParamPoly.from_terms(p.items()) == p
    names = set()
    for key, _ in p.items():
        assert [name for name, _ in key] == sorted({name for name, _ in key})
        assert all(power >= 1 for _, power in key)
        names.update(name for name, _ in key)
    assert p.parameters() == names
    assert pickle.loads(pickle.dumps(p)) == p


def test_huge_parameter_powers(capsys):
    """r^4294967296 is exact; a power above the cap exits 2 and names the cap,
    whether the parser or the engine meets it."""
    a = parse_element("r^4294967296*x")
    assert str(a) == "r^4294967296*x"
    (_, coeff), = a.items()
    assert dict(coeff.items()) == {(("r", 2**32),): 1}
    top = f"r^{POWER_CAP}"
    assert str(parse_element(f"{top}*s^{POWER_CAP}*x")) == f"{top}*s^{POWER_CAP}*x"
    assert cli.main(["expand", "--expr", f"{top}*x", "--order", "1"]) == 0
    assert capsys.readouterr().out.startswith(f"{top}*x + {top}*y")
    for expr in (f"{top}*r*x", f"r^{POWER_CAP + 1}*x", f"{top}*x^r"):
        code = cli.main(["expand", "--expr", expr, "--order", "1"])
        out, err = capsys.readouterr()
        assert code == 2 and out == "", expr
        assert err == "formalcalc: a parameter power exceeds the cap 2^63 - 1\n", expr
