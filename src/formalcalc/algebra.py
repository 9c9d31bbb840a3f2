"""The generator algebra: formal powers of x, log x, exp x and their iterates.

Elements live in the commutative algebra generated by a two-sided tower of
symbols indexed by the integers: index 0 is x itself, positive indices are
iterated logarithms (1 = log x, 2 = log log x, ...), negative indices are
iterated exponentials (-1 = exp x, ...).  Generators carry exponents that
may be integers, rationals, or affine expressions in symbolic parameters
such as ``r`` or ``2*r+s-1`` (integer coefficients on the parameters,
rational constant part).

An Element is a finite sum  sum_m  c_m * prod_i  gen(i)^{e_i}  with the
coefficients c_m exact parameter polynomials (see params), stored as plain
rationals when no parameter appears.  A Monomial is the tuple of its
index-sorted ``(index, Exponent)`` pairs, so it compares and hashes in C,
and monomials multiply by merging their pairs.  Exponents are ordered by
``(linear, const)`` and monomials as tuples, pair by pair: that is the
order in which an Element prints its terms.  A YSeries is a polynomial in
a central variable y of bounded degree with Element coefficients; it is
the truncation type for exponential-of-derivation series, and arithmetic
on series truncates to the smaller order.

Exponents are hash-consed, and two module tables serve that:

- the intern table ``_INTERN`` holds one entry per distinct exponent value
  ever built in the process, and is never emptied;
- the sum memo ``_SUMS`` maps a pair of summands to their sum, so a
  monomial product adds two exponents with one dict lookup.  It holds at
  most ``_SUM_MEMO_SIZE`` entries: it is emptied when it reaches that size.

Also here: ``binom(e, n)``, the algebraic binomial coefficient
e*(e-1)*...*(e-n+1)/n!, which is a parameter polynomial when e is.
"""

from __future__ import annotations

import operator
from collections import defaultdict
from fractions import Fraction
from math import comb, factorial, lcm
from typing import Callable, Iterable, Mapping, Sequence

from . import render
from .params import (
    Coeff,
    ParamPoly,
    Scalar,
    Sparse,
    _coeff_of,
    _sum_into,
    as_parampoly,
    canonical_coeff,
)


_new = object.__new__
_set = object.__setattr__
_new_tuple = tuple.__new__
_concat = tuple.__add__

# The intern table: one Exponent per distinct value, keyed by the constant
# alone when there is no parameter and by (const, linear) otherwise.
_INTERN: "dict[object, Exponent]" = {}

# Memo of exponent sums, keyed by the identical summands.  It is emptied
# whenever it reaches _SUM_MEMO_SIZE entries, so it never holds more.
_SUM_MEMO_SIZE = 4096
_SUMS: "dict[tuple[Exponent, Exponent], Exponent]" = {}


class Exponent:
    """An exponent: rational constant plus integer multiples of parameters.

    ``Exponent(2)`` is the plain exponent 2; ``Exponent(-1, {"r": 2})`` is
    2r - 1.  ``const`` is an ``int`` when integral and a ``Fraction``
    otherwise; ``linear`` is sorted by name with zero coefficients dropped.

    Exponents are interned: every route that builds one (the constructor,
    ``of``, ``param``, arithmetic, ``substitute``, unpickling) returns the
    one instance of its value.  So equal exponents are identical, equality
    and hashing are the object defaults, by identity, and ``<`` orders them
    by ``(linear, const)``, the print order.  Instances are immutable.
    """

    __slots__ = ("const", "linear", "_poly")

    const: Scalar
    linear: tuple[tuple[str, int], ...]

    def __new__(cls, const: Scalar = 0, linear: Iterable[tuple[str, int]] = ()) -> Exponent:
        """A repeated name in ``linear`` adds its coefficients, which must be integers."""
        pairs = linear.items() if isinstance(linear, Mapping) else linear
        acc = _sum_into({}, ((name, _integer(m)) for name, m in pairs))
        return _intern(const, tuple(sorted(item for item in acc.items() if item[1])))

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("Exponent is immutable")

    def __reduce__(self) -> tuple:
        # rebuild through the constructor, which returns the interned instance
        return (Exponent, (self.const, self.linear))

    def __repr__(self) -> str:
        return f"Exponent(const={self.const!r}, linear={self.linear!r})"

    @classmethod
    def of(cls, value: "Exponent | Scalar") -> Exponent:
        if isinstance(value, Exponent):
            return value
        return _INTERN.get(value) or _intern(value, ())

    @classmethod
    def param(cls, name: str, coeff: int = 1, const: Scalar = 0) -> Exponent:
        return cls(const, ((name, coeff),))

    @property
    def is_zero(self) -> bool:
        return self is _ZERO

    @property
    def is_constant(self) -> bool:
        return not self.linear

    def as_integer(self) -> int | None:
        """The exponent as a plain int, or None if symbolic or fractional."""
        if self.linear or type(self.const) is not int:
            return None
        return self.const

    def __add__(self, other: object) -> Exponent:
        if not isinstance(other, Exponent):
            if not isinstance(other, (int, Fraction)):
                return NotImplemented
            other = Exponent.of(other)
        return _SUMS.get((self, other)) or _sum(self, other)

    __radd__ = __add__

    def __sub__(self, other: object) -> Exponent:
        if isinstance(other, (int, Fraction)):
            return self + Exponent.of(-other)
        if not isinstance(other, Exponent):
            return NotImplemented
        return self + -other

    def __neg__(self) -> Exponent:
        return _intern(-self.const, tuple((n, -m) for n, m in self.linear))

    def __mul__(self, other: object) -> Exponent:
        """Scale by an integer (rationals allowed only when there is no linear part)."""
        if not isinstance(other, (int, Fraction)):
            return NotImplemented
        c = Fraction(other)
        if self.linear and c.denominator != 1:
            raise ValueError("parameter coefficients in exponents must stay integral")
        scale = int(c) if self.linear else c
        return Exponent(self.const * c, tuple((n, m * int(scale)) for n, m in self.linear))

    __rmul__ = __mul__

    def to_parampoly(self) -> ParamPoly:
        cached = self._poly
        if cached is None:
            terms = [((), self.const), *((((name, 1),), m) for name, m in self.linear)]
            cached = ParamPoly.from_terms(terms)
            _set(self, "_poly", cached)
        return cached

    def substitute(self, name: str, value: Scalar) -> Exponent:
        lin = dict(self.linear)
        m = lin.pop(name, 0)
        if not m:
            return self
        return Exponent(self.const + m * Fraction(value), tuple(lin.items()))

    def __lt__(self, other: object) -> bool:
        if not isinstance(other, Exponent):
            return NotImplemented
        return (self.linear, self.const) < (other.linear, other.const)

    def __str__(self) -> str:
        return render.exponent(render.TEXT, self)


def _intern(const: Scalar, linear: tuple[tuple[str, int], ...]) -> Exponent:
    """The one Exponent of this value; ``linear`` must already be canonical."""
    const = canonical_coeff(const)
    key = (const, linear) if linear else const
    e = _INTERN.get(key)
    if e is None:
        e = _new(Exponent)
        _set(e, "const", const)
        _set(e, "linear", linear)
        _set(e, "_poly", None)
        _INTERN[key] = e
    return e


def _integer(m: object) -> int:
    q = m if type(m) is int else canonical_coeff(m)
    if type(q) is not int:
        raise ValueError(f"parameter coefficients in exponents must be integers, not {m!r}")
    return q


def _sum(a: Exponent, b: Exponent) -> Exponent:
    """a + b, computed and put in the sum memo."""
    if len(_SUMS) >= _SUM_MEMO_SIZE:
        _SUMS.clear()
    e = _SUMS[a, b] = Exponent(a.const + b.const, a.linear + b.linear)
    return e


_ZERO = Exponent()


def falling_row(exponent: "Exponent | Scalar", order: int) -> tuple[int, list[Coeff]]:
    """(den, [den * e*(e-1)*...*(e-j+1) for j <= order]), every entry integer-valued:
    den = q^order for the denominator q of e's constant divides falling factorial j.
    On packed keys: entry j+1 is entry j times the integer factor q*e - q*j, over q."""
    e = Exponent.of(exponent)
    q, a = e.const.denominator, e.const.numerator
    lin = [(key, q * m) for key, m in e.to_parampoly()._terms.items() if key]
    row: list[Coeff] = [q**order]
    terms = {0: row[0]}
    for j in range(order):
        acc: dict[int, int] = {}
        for key, v in terms.items():
            for step, m in ((0, a - q * j), *lin):
                acc[key + step] = acc.get(key + step, 0) + v * m
        row.append(value := _coeff_of({key: v // q for key, v in acc.items()} if q != 1 else acc))
        terms = value._terms if type(value) is ParamPoly else {0: value}
    return row[0], row


def binom(exponent: "Exponent | Scalar", n: int) -> ParamPoly:
    """Algebraic binomial coefficient e*(e-1)*...*(e-n+1) / n!.

    Defined for every exponent (symbolic, rational, negative); the result is
    a parameter polynomial.  binom(e, 0) = 1.
    """
    if n < 0:
        raise ValueError("binom order must be nonnegative")
    den, row = falling_row(exponent, n)
    return as_parampoly(row[n]) * Fraction(1, den * factorial(n))


class Monomial(tuple):
    """A product of generator powers, e.g. x^r * log(x)^-2.

    The tuple of its ``(index, Exponent)`` pairs sorted by index, zero
    exponents dropped, so the empty monomial is 1; ``powers`` copies it out.
    Exponents are interned, so monomials compare and hash as tuples, in C.
    ``+`` and repetition raise TypeError, and every monomial is true.
    """

    __slots__ = ()
    __add__ = __radd__ = __rmul__ = None

    def __new__(cls, powers: Iterable[tuple[int, "Exponent | Scalar"]] = ()) -> Monomial:
        acc: dict[int, Exponent] = {}
        for index, e in powers:
            e = Exponent.of(e)
            acc[index] = acc[index] + e if index in acc else e
        return _new_tuple(cls, sorted((i, e) for i, e in acc.items() if e is not _ZERO))

    # construct from pairs already sorted by index, merged, and nonzero
    _from_canonical = classmethod(tuple.__new__)

    def __reduce__(self) -> tuple:
        # the pairs as they are: loading does not sort them again
        return (_monomial, tuple(self))

    @property
    def powers(self) -> tuple[tuple[int, Exponent], ...]:
        return tuple(self)

    def __bool__(self) -> bool:
        return True

    def __repr__(self) -> str:
        return f"Monomial(powers={self.powers!r})"

    @classmethod
    def one(cls) -> Monomial:
        return _ONE

    @classmethod
    def gen(cls, index: int, exponent: "Exponent | Scalar" = 1) -> Monomial:
        return cls(((index, Exponent.of(exponent)),))

    @property
    def is_one(self) -> bool:
        return not len(self)

    def __mul__(self, other: "Monomial") -> Monomial:
        """The product: one merge of the two index-sorted power tuples."""
        if not isinstance(other, Monomial):
            return NotImplemented
        a, b = self, other
        na, nb = len(a), len(b)
        if not nb:
            return self
        if not na:
            return other
        if a[-1][0] < b[0][0]:
            return _new_tuple(Monomial, _concat(a, b))
        if b[-1][0] < a[0][0]:
            return _new_tuple(Monomial, _concat(b, a))
        out = []
        sums = _SUMS
        i = j = 0
        while i < na and j < nb:
            pa = a[i]
            pb = b[j]
            if pa[0] < pb[0]:
                out.append(pa)
                i += 1
            elif pb[0] < pa[0]:
                out.append(pb)
                j += 1
            else:
                ea, eb = pa[1], pb[1]
                e = sums.get((ea, eb)) or _sum(ea, eb)
                if e is not _ZERO:
                    out.append((pa[0], e))
                i += 1
                j += 1
        out.extend(a[i:])
        out.extend(b[j:])
        return _new_tuple(Monomial, out)

    def exponent_of(self, index: int) -> Exponent:
        for i, e in self:
            if i == index:
                return e
        return _ZERO

    def indices(self) -> list[int]:
        return [i for i, _ in self]

    def shift(self, offset: int) -> Monomial:
        return _new_tuple(Monomial, [(i + offset, e) for i, e in self])

    def substitute(self, name: str, value: Scalar) -> Monomial:
        return Monomial((i, e.substitute(name, value)) for i, e in self)

    def __str__(self) -> str:
        return render.monomial(render.TEXT, self)


def _monomial(*pairs: tuple[int, Exponent]) -> Monomial:
    """Load a pickled Monomial: its pairs are already canonical."""
    return _new_tuple(Monomial, pairs)


_ONE = Monomial()


def gen_name(index: int) -> str:
    """Printable name of a generator: x, log(x), exp(x), or l_<k>(x)."""
    return render.generator(render.TEXT, index)


class Element(Sparse):
    """A finite sum of generator monomials with exact coefficients.

    A coefficient is stored as a plain ``int`` or ``Fraction`` unless a
    parameter appears in it, and as a ParamPoly only then (see
    ``params.canonical_coeff``).  ``items``, ``coefficient`` and
    ``sorted_terms`` (by monomial, as tuples) hand out each coefficient as stored.
    """

    __slots__ = ()
    _UNIT = _ONE
    _SCALARS = (int, Fraction, ParamPoly)
    _key_mul = staticmethod(operator.mul)
    # bound here too: the per-layer tracer (perfbench/spans.py) wraps only the
    # methods in a class's own __dict__, and times this one
    __mul__ = __rmul__ = Sparse.__mul__

    @classmethod
    def gen(cls, index: int, exponent: "Exponent | Scalar" = 1) -> Element:
        return cls._of({Monomial.gen(index, exponent): 1})

    def sorted_terms(self) -> list[tuple[Monomial, Coeff]]:
        return sorted(self._terms.items(), key=operator.itemgetter(0))

    def coefficient(self, mono: Monomial) -> Coeff:
        return self._terms.get(mono, 0)

    def generator_indices(self) -> set[int]:
        return {i for mono in self._terms for i, _ in mono}

    def substitute_param(self, name: str, value: Scalar) -> Element:
        """Specialize a parameter to an exact rational everywhere it occurs."""
        return Element.from_terms(
            (
                mono.substitute(name, value),
                coeff.substitute(name, value) if isinstance(coeff, ParamPoly) else coeff,
            )
            for mono, coeff in self._terms.items()
        )

    def __str__(self) -> str:
        return render.element(render.TEXT, self)

    def __repr__(self) -> str:
        return f"Element({self})"


def _cleared(num: list[Element], den: int) -> tuple[list[Element], int]:
    """(d * num, d * den) for the least d > 0 that makes every numerator integer-valued;
    ``num`` itself when d is 1.

    Integer arithmetic is much cheaper than Fraction arithmetic, so series
    work on numerators (see YSeries).  A ParamPoly coefficient counts the
    denominators of all its values.
    """
    if not num:
        raise ValueError("a series needs at least its order-0 coefficient")
    d = lcm(*(c.denominator for n in num for c in n._terms.values()))
    if d == 1:
        return num, den
    return [
        Element._of({m: c * d if type(c) is ParamPoly else c.numerator * (d // c.denominator)
                     for m, c in n._terms.items()})
        for n in num
    ], den * d


class YSeries:
    """A polynomial of bounded degree in y with Element coefficients.

    The order is fixed at construction; binary operations truncate to the
    smaller order.  The series is held in divided-power form (Hurwitz series;
    W. F. Keigher, Comm. Algebra 25, 1997): an integer ``den >= 1`` and
    integer-valued numerators ``N_k = k! * den * c_k``.  For exp(yD) a,
    N_k = D^k(den * a); a product is the Leibniz convolution
    ``sum_i binom(k, i) A_i B_(k-i)`` over ``den_a * den_b``, in one flat pass
    on packed parameter keys, each output value cleaned once.  ``coefficient``
    divides once, when read.  ``YSeries(coeffs)`` takes ordinary coefficients,
    ``YSeries.divided(numerators, den)`` the divided-power form.
    """

    __slots__ = ("_num", "_den")

    def __init__(self, coeffs: Sequence["Element | Scalar"]):
        num = [c if isinstance(c, Element) else Element.const(c) for c in coeffs]
        self._num, self._den = _cleared([c * factorial(k) for k, c in enumerate(num)], 1)

    @classmethod
    def divided(cls, numerators: list[Element], den: int = 1) -> YSeries:
        """The series whose y^k coefficient is ``numerators[k] / (k! * den)``."""
        return cls._of(*_cleared(numerators, den))

    @classmethod
    def _of(cls, num: list[Element], den: int) -> YSeries:
        """Wrap integer-valued numerators over ``den``; ``_cleared`` makes them so,
        or the caller builds them so (the closed forms in ``expansions``)."""
        out = _new(cls)
        out._num, out._den = num, den
        return out

    def __reduce__(self) -> tuple:
        return (YSeries._of, (self._num, self._den))

    @classmethod
    def zero(cls, order: int) -> YSeries:
        return cls._of([Element.zero()] * (order + 1), 1)

    @classmethod
    def of_element(cls, a: "Element | Scalar", order: int) -> YSeries:
        num, den = _cleared([a if isinstance(a, Element) else Element.const(a)], 1)
        return cls._of(num + [Element.zero()] * order, den)

    @property
    def order(self) -> int:
        return len(self._num) - 1

    def coefficient(self, k: int) -> Element:
        if not 0 <= k <= self.order:
            raise IndexError(f"series has order {self.order}; no y^{k} coefficient")
        return self._num[k] * Fraction(1, factorial(k) * self._den)

    def coefficients(self) -> list[Element]:
        return [self.coefficient(k) for k in range(len(self._num))]

    def map(self, f: Callable[[Element], Element]) -> YSeries:
        """The series with coefficients f(c_k), for a map f linear over the rationals; its
        numerators stay integer-valued if f keeps them so, and its values are right either way."""
        return YSeries._of([f(n) for n in self._num], self._den)

    def truncate(self, order: int) -> YSeries:
        if order < 0:
            raise ValueError("order must be nonnegative")
        return YSeries._of(self._num[: order + 1], self._den)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, YSeries):
            return NotImplemented
        da, db = self._den, other._den
        return len(self._num) == len(other._num) and all(
            a == b if da == db else a * db == b * da for a, b in zip(self._num, other._num)
        )

    def __add__(self, other: object) -> YSeries:
        if not isinstance(other, YSeries):
            o = Element._coerce(other)
            if o is None:
                return NotImplemented
            other = YSeries.of_element(o, self.order)
        return _sum_series((self, other))

    __radd__ = __add__

    def __neg__(self) -> YSeries:
        return YSeries._of([-c for c in self._num], self._den)

    def __sub__(self, other: object) -> YSeries:
        return self + -other

    def __rsub__(self, other: object) -> YSeries:
        return -self + other

    def __mul__(self, other: object) -> YSeries:
        if isinstance(other, YSeries):
            n = min(len(self._num), len(other._num))
            a, b = _packed(self._num[:n]), _packed(other._num[:n])
            out: list[Element] = []
            for k in range(n):
                acc: dict[Monomial, dict[int, Scalar]] = defaultdict(dict)
                for i in range(k + 1):
                    scale = comb(k, i)
                    for ma, ca in a[i]:
                        ca = [(ka, va * scale) for ka, va in ca]
                        for mb, cb in b[k - i]:
                            raw = acc[ma * mb]
                            for ka, va in ca:
                                for kb, vb in cb:
                                    key = ka + kb
                                    raw[key] = raw.get(key, 0) + va * vb
                out.append(Element._of({m: c for m, raw in acc.items() if (c := _coeff_of(raw))}))
            return YSeries._of(out, self._den * other._den)
        o = Element._coerce(other)
        if o is None:
            return NotImplemented
        (o,), d = _cleared([o], 1)
        return YSeries._of([c * o for c in self._num], self._den * d)

    __rmul__ = __mul__

    def __bool__(self) -> bool:
        return any(self._num)

    def __str__(self) -> str:
        return render.series(render.TEXT, self)

    def __repr__(self) -> str:
        return f"YSeries(order={self.order}: {self})"


def _packed(num: list[Element]) -> list[list[tuple[Monomial, Iterable]]]:
    """Each numerator's terms as (monomial, packed ``(key, value)`` pairs of its value)."""
    return [[(m, c._terms.items() if type(c) is ParamPoly else ((0, c),)) for m, c in n.items()]
            for n in num]


def _sum_series(series: Sequence[YSeries]) -> YSeries:
    """The sum of the series, truncated to the smallest order: one common ``den``,
    and one ``from_terms`` call per order over every series' scaled numerator."""
    den = lcm(*(s._den for s in series))
    scaled = [(s._num, den // s._den) for s in series]
    return YSeries._of(
        [
            Element.from_terms((mono, c * m) for num, m in scaled for mono, c in num[k].items())
            for k in range(min(len(num) for num, _ in scaled))
        ],
        den,
    )
