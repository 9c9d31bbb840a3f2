"""The engine kernels against a slow reference route.

The engine multiplies monomials by merging their sorted power tuples and
holds a coefficient as a plain int/Fraction until a parameter appears; a
derivation runs on class / shift-vector / packed-key terms (see
``derivations``).  The reference here is the per-monomial route: monomial
products through a dict merge and a sort, every coefficient a ParamPoly,
the power rule e * m / l_i * D(l_i) applied factor by factor for any image
table (the d/dx and x*d/dx images written out from the tower formulas),
and D^k(a)/k! taken term by term.  Identity sweeps such as criterion 1 run
the kernel on both sides, so a kernel fault that both sides share passes
them; this comparison does not.
"""

from fractions import Fraction
from math import factorial
from random import Random

from formalcalc.algebra import Element, Exponent, Monomial, YSeries, _cleared
from formalcalc.checks import random_element
from formalcalc.derivations import Derivation, d_dx, x_d_dx
from formalcalc.diffrep import lifted_exp
from formalcalc.expansions import FORMS, binomial_series, iterated_log_series
from formalcalc.params import ParamPoly, as_parampoly

# reference terms: {powers tuple: ParamPoly}, no zero coefficients


def ref_mono_mul(a, b):
    acc = {}
    for index, e in a + b:
        acc[index] = acc[index] + e if index in acc else e
    return tuple(sorted((i, e) for i, e in acc.items() if not e.is_zero))


def ref_add(acc, key, c):
    total = acc.get(key, ParamPoly.zero()) + c
    if total:
        acc[key] = total
    else:
        acc.pop(key, None)


def ref_terms(a: Element):
    return {mono.powers: coeff for mono, coeff in a.items()}


def ref_mul(ta, tb):
    out = {}
    for ka, ca in ta.items():
        for kb, cb in tb.items():
            ref_add(out, ref_mono_mul(ka, kb), ca * cb)
    return out


def ref_image(index, kind):
    """D(l_index) from the tower formulas, as reference terms."""
    if index == 0:
        factors = []
    elif index > 0:
        factors = [(i, Exponent.of(-1)) for i in range(index)]
    else:
        factors = [(i, Exponent.of(1)) for i in range(-1, index - 1, -1)]
    key = ()
    for pair in factors:
        key = ref_mono_mul(key, (pair,))
    if kind == "xddx":
        key = ref_mono_mul(key, ((0, Exponent.of(1)),))
    return {key: ParamPoly.one()}


def tower(kind):
    """The image rule of d/dx ("ddx") or x*d/dx ("xddx"), as reference terms."""
    return lambda index: ref_image(index, kind)


def table(images):
    """The image rule of a table of Element images, as reference terms."""
    return lambda index: ref_terms(images[index])


def ref_derive(terms, image):
    """D(terms) by the power rule, factor by factor; ``image(i)`` gives D(l_i)."""
    out = {}
    for key, c in terms.items():
        for pos, (index, e) in enumerate(key):
            lowered = ref_mono_mul(key[:pos] + key[pos + 1 :], ((index, e - 1),))
            for im_key, im_c in image(index).items():
                ref_add(out, ref_mono_mul(lowered, im_key), c * e.to_parampoly() * as_parampoly(im_c))
    return out


def ref_exp_series(terms, image, order):
    coeffs, current = [terms], terms
    for k in range(1, order + 1):
        current = ref_derive(current, image)
        scale = ParamPoly.const(Fraction(1, factorial(k)))
        coeffs.append({key: c * scale for key, c in current.items()})
    return coeffs


def ref_series_mul(sa, sb):
    n = min(len(sa), len(sb)) - 1
    out = [{} for _ in range(n + 1)]
    for i in range(n + 1):
        for j in range(n + 1 - i):
            for key, c in ref_mul(sa[i], sb[j]).items():
                ref_add(out[i + j], key, c)
    return out


def ref_series(s: YSeries):
    return [ref_terms(c) for c in s.coefficients()]


def random_powers(rng: Random, params=()):
    powers = []
    for index in rng.sample(range(-3, 4), rng.randrange(0, 4)):
        const = rng.choice([-2, -1, 1, 2, 3, Fraction(1, 2)])
        linear = ()
        if params and rng.random() < 0.5:
            linear = ((rng.choice(params), rng.choice([-1, 1, 2])),)
        powers.append((index, Exponent(const, linear)))
    return tuple(sorted(powers))


def test_monomial_product_matches_dict_merge():
    rng = Random(101)
    for _ in range(400):
        params = ("r", "s") if rng.random() < 0.5 else ()
        a, b = random_powers(rng, params), random_powers(rng, params)
        got = Monomial(a) * Monomial(b)
        assert got.powers == ref_mono_mul(ref_mono_mul((), a), b)
        assert got == Monomial(a + b)


def test_monomial_product_cancels_to_one():
    rng = Random(102)
    for _ in range(100):
        a = Monomial(random_powers(rng, ("r",)))
        inverse = Monomial(tuple((i, -e) for i, e in a.powers))
        assert (a * inverse).is_one
        assert (inverse * a) == Monomial.one()
        # the product element is the bare coefficient
        product = Element({a: 3}) * Element({inverse: Fraction(1, 2)})
        assert ref_terms(product) == {(): ParamPoly.const(Fraction(3, 2))}


def test_element_product_matches_reference():
    rng = Random(103)
    for trial in range(150):
        params = ("r",) if trial % 3 == 0 else ()
        a = random_element(rng, max_terms=3, max_factors=3, params=params)
        b = random_element(rng, max_terms=3, max_factors=3, params=params)
        assert ref_terms(a * b) == ref_mul(ref_terms(a), ref_terms(b))


def test_coefficients_cancel_to_zero():
    r = ParamPoly.param("r")
    x, log = Element.gen(0), Element.gen(1)
    for c in (Element.const(1), Element.const(Fraction(1, 3)), Element.const(r)):
        product = (c * x + log) * (x - log)  # the c*x*log and -x*log cross terms
        want = ref_mul(ref_terms(c * x + log), ref_terms(x - log))
        assert ref_terms(product) == want
    # the x*log term cancels outright when c = 1
    assert (x + log) * (x - log) == x * x - log * log
    # a symbolic sum that cancels to a constant, then to zero
    m = Monomial.gen(2, -1)
    assert Element({m: r}) + Element({m: 1 - r}) == Element({m: 1})
    assert Element({m: r}) - Element({m: r}) == Element.zero()
    # every D^k of a polynomial past its degree vanishes
    series = d_dx().exp_series(Element.gen(0, 3) * Fraction(2, 3), 6)
    assert ref_series(series)[4:] == [{}, {}, {}]


def test_exp_series_matches_reference():
    rng = Random(104)
    derivations = {"ddx": d_dx(), "xddx": x_d_dx()}
    for trial in range(24):
        params = ("r",) if trial % 3 == 0 else ()
        order = 6 if trial % 2 else 4  # criterion 1 runs at order 6
        a = random_element(rng, params=params)
        for kind, deriv in derivations.items():
            want = ref_exp_series(ref_terms(a), tower(kind), order)
            assert ref_series(deriv.exp_series(a, order)) == want, (kind, str(a))


def test_series_product_matches_reference():
    rng = Random(105)
    deriv = d_dx()
    for trial in range(12):
        params = ("r",) if trial % 3 == 0 else ()
        order = 6 if trial % 2 else 4
        a = random_element(rng, params=params)
        b = random_element(rng, params=params)
        sa, sb = deriv.exp_series(a, order), deriv.exp_series(b, order)
        assert ref_series(sa * sb) == ref_series_mul(ref_series(sa), ref_series(sb))


def test_lifted_exp_matches_reference():
    rng = Random(106)
    for trial in range(20):
        params = ("r",) if trial % 3 == 0 else ()
        order = 6 if trial % 2 else 4
        a = random_element(rng, params=params)
        want = ref_exp_series(ref_terms(a), tower("xddx"), order)
        assert ref_series(lifted_exp(a, order)) == want, str(a)


def rational_symbolic_element(rng: Random) -> Element:
    """Symbolic exponents with rational constants, e.g. x^(r + 1/2), and
    coefficients such as 2/3 and 2/3*r + 1/2, whose values carry denominators."""
    r = ParamPoly.param("r")
    coeffs = (Fraction(2, 3), Fraction(-1, 2), 3, Fraction(2, 3) * r + Fraction(1, 2), r - 1)
    terms = {}
    for _ in range(rng.randrange(1, 3)):
        powers = []
        for index in rng.sample(range(-2, 3), rng.randrange(1, 3)):
            const = rng.choice([Fraction(1, 2), Fraction(-1, 3), Fraction(3, 2), 1, -1])
            linear = ((rng.choice("rs"), rng.choice([-1, 1, 2])),) if rng.random() < 0.7 else ()
            powers.append((index, Exponent(const, linear)))
        terms[Monomial(powers)] = rng.choice(coeffs)
    return Element(terms)


def test_rational_symbolic_elements_match_reference():
    """Integer numerators where the denominators clear, Fraction values where a
    derivative brings a rational exponent constant down as a factor."""
    r = Exponent.param("r")
    two_thirds_r = ParamPoly.param("r") * Fraction(2, 3)
    fixed = [
        Element.gen(0, r + Fraction(1, 2)) * Fraction(2, 3),  # x^(r + 1/2)
        Element.gen(1, Exponent.param("r", -1, Fraction(-1, 3))) * two_thirds_r,
    ]
    for a in fixed:
        (numerator,), den = _cleared([a], 1)
        assert den > 1
        assert all(c.denominator == 1 for _, c in numerator.items())
    rng = Random(107)
    derivations = {"ddx": d_dx(), "xddx": x_d_dx()}
    elements = fixed + [rational_symbolic_element(rng) for _ in range(10)]
    for trial, a in enumerate(elements):
        order = 6 if trial % 2 else 4
        for kind, deriv in derivations.items():
            series = deriv.exp_series(a, order)
            assert ref_series(series) == ref_exp_series(ref_terms(a), tower(kind), order), (kind, str(a))
        b = elements[trial - 1]
        sa, sb = d_dx().exp_series(a, order), d_dx().exp_series(b, order)
        assert ref_series(sa * sb) == ref_series_mul(ref_series(sa), ref_series(sb))
        assert ref_series(lifted_exp(a, order)) == ref_exp_series(ref_terms(a), tower("xddx"), order)


def test_stored_values_are_int_when_integral():
    """Every coefficient the engine hands back is in stored form: an int when
    integral, a Fraction otherwise, also inside each ParamPoly.  And every
    numerator a series stores (the divided-power form) is an int, inside each
    ParamPoly too, for exp_series, products and the closed forms alike."""
    rng = Random(108)

    def check(value):
        if isinstance(value, ParamPoly):
            for _, v in value.items():
                check(v)
        else:
            assert type(value) is (int if value.denominator == 1 else Fraction), value

    def check_numerators(series):
        for n in series._num:
            for _, coeff in n.items():
                values = [v for _, v in coeff.items()] if isinstance(coeff, ParamPoly) else [coeff]
                assert all(type(v) is int for v in values), coeff

    for _ in range(10):
        a = rational_symbolic_element(rng)
        for deriv in (d_dx(), x_d_dx()):
            sa = deriv.exp_series(a, 4)
            series = sa * sa
            check_numerators(sa)
            check_numerators(series)
            for c in series.coefficients():
                for _, coeff in c.items():
                    check(coeff)
    for e in (Exponent.param("r", 1, Fraction(1, 2)), Exponent.param("s", -2, Fraction(-1, 3)),
              Exponent.of(Fraction(2, 3)), Exponent.param("r")):
        check_numerators(binomial_series(e, 5))
        for n in (1, 2):
            for form in FORMS:
                check_numerators(iterated_log_series(n, e, 5, form))


def class_changing_images():
    """D x = x^(1/2), D log x = r*x^(r-1): each step moves terms between classes."""
    r = Exponent.param("r")
    return {0: Element.gen(0, Fraction(1, 2)), 1: Element({Monomial.gen(0, r - 1): ParamPoly.param("r")})}


def parampoly_images():
    """Images whose coefficients are parameter polynomials with rational values."""
    r, s = ParamPoly.param("r"), ParamPoly.param("s")
    x_log = Monomial(((0, 1), (1, Fraction(1, 3))))
    return {
        0: Element({x_log: 2 * r + Fraction(1, 2), Monomial.one(): 1}),
        1: Element({Monomial.gen(0, -1): s - 1}),
    }


def random_window_element(rng: Random, indices) -> Element:
    """Rational, negative and symbolic exponents on generators from ``indices``."""
    r = ParamPoly.param("r")
    coeffs = (1, -2, Fraction(2, 3), Fraction(2, 3) * r + Fraction(1, 2), r - 1)
    consts = (Fraction(1, 2), Fraction(-3, 2), Fraction(-1, 3), 2, -1, 3)
    terms = {}
    for _ in range(rng.randrange(1, 4)):
        powers = []
        for index in rng.sample(indices, rng.randrange(1, min(3, len(indices)) + 1)):
            linear = ((rng.choice("rs"), rng.choice([-1, 1, 2])),) if rng.random() < 0.4 else ()
            powers.append((index, Exponent(rng.choice(consts), linear)))
        terms[Monomial(powers)] = rng.choice(coeffs)
    return Element(terms)


def test_kernel_matches_reference_on_any_image_table():
    """apply and exp_series (orders 0-6) against the per-monomial route, for the two
    tower rules and for tables whose images change the class or carry ParamPolys."""
    cases = [
        (d_dx, tower("ddx"), list(range(-3, 4))),
        (x_d_dx, tower("xddx"), list(range(-3, 4))),
        (lambda: Derivation("half", class_changing_images()), table(class_changing_images()), [0, 1]),
        (lambda: Derivation("poly", parampoly_images()), table(parampoly_images()), [0, 1]),
    ]
    rng = Random(109)
    for make, image, indices in cases:
        deriv = make()
        for trial in range(8):
            a = random_window_element(rng, indices)
            assert ref_terms(deriv.apply(a)) == ref_derive(ref_terms(a), image), str(a)
            order = trial % 7
            want = ref_exp_series(ref_terms(a), image, order)
            assert ref_series(deriv.exp_series(a, order)) == want, (deriv, order, str(a))
        # order 6 on every case, and apply on a fresh instance agrees with a used one
        a = random_window_element(rng, indices)
        assert ref_series(deriv.exp_series(a, 6)) == ref_exp_series(ref_terms(a), image, 6)
        assert make().apply(a) == deriv.apply(a)


def test_rational_exponents_still_clear(monkeypatch):
    """The series is cleared of denominators only when a Fraction was brought down:
    x^(1/2) and l_2(x)^(-3/2) clear to integer numerators; integer input skips it."""
    import formalcalc.algebra as algebra

    calls = []
    cleared = algebra._cleared
    monkeypatch.setattr(algebra, "_cleared", lambda num, den: calls.append(den) or cleared(num, den))
    for a in (Element.gen(0, Fraction(1, 2)), Element.gen(2, Fraction(-3, 2)) * Fraction(2, 3)):
        calls.clear()
        series = d_dx().exp_series(a, 5)
        assert calls and series._den > 1
        for n in series._num:
            assert all(type(c) is int for _, c in n.items())
        assert ref_series(series) == ref_exp_series(ref_terms(a), tower("ddx"), 5)
    calls.clear()
    series = d_dx().exp_series(Element.gen(0, 3) * Element.gen(1, -2), 5)
    assert not calls and series._den == 1
