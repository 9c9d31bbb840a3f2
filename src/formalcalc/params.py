"""Exact polynomials in named symbolic parameters over the rationals.

These are the coefficients of everything else in the package.  When a power
like ``x^r`` is expanded, the coefficient of each term is a polynomial in
``r`` with rational coefficients (e.g. ``1/2*r^2 - 1/2*r``); keeping those
polynomials exact is what lets identities be checked by equality instead of
by numerical comparison.

Representation: a dict mapping a parameter monomial to its value.  A
parameter monomial is a tuple of ``(name, power)`` pairs sorted by name with
all powers >= 1; the empty tuple is the constant monomial.  A value is
stored as a plain ``int`` when it is an integer and as a ``Fraction``
otherwise, so integer-valued polynomials multiply and add in integer
arithmetic.  Zero values are never stored, so two polynomials are equal
exactly when their dicts are equal (an ``int`` and a ``Fraction`` of the
same value compare and hash alike).

Where no parameter appears, the rest of the package holds a coefficient as a
plain ``int`` or ``Fraction`` rather than a constant ParamPoly: see
``canonical_coeff``.  The two forms of one value compare equal.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from typing import Iterator, Mapping

from . import render

Scalar = int | Fraction

# ((name, power), ...) sorted by name, powers >= 1; () is the constant term.
ParamKey = tuple[tuple[str, int], ...]


def _merge_keys(a: ParamKey, b: ParamKey) -> ParamKey:
    powers = dict(a)
    for name, p in b:
        powers[name] = powers.get(name, 0) + p
    return tuple(sorted((n, p) for n, p in powers.items() if p))


def _key_degree(key: ParamKey) -> int:
    return sum(p for _, p in key)


def _stored(value: object) -> Scalar:
    """A rational in stored form: ``int`` when integral, else ``Fraction``."""
    if type(value) is int:
        return value
    if type(value) is not Fraction:
        value = Fraction(value)
    return value.numerator if value.denominator == 1 else value


def _scalar_product(v: Scalar, c: Scalar) -> Scalar:
    """v * c in stored form, for stored-form v and c."""
    if type(v) is int:
        if type(c) is int:
            return v * c
        q = Fraction(v * c.numerator, c.denominator)  # cheaper than int * Fraction
    elif type(c) is int:
        q = Fraction(v.numerator * c, v.denominator)
    else:
        q = v * c
    return q.numerator if q.denominator == 1 else q


class ParamPoly:
    """Polynomial in symbolic parameters with exact rational values.

    Each value is held as an ``int`` when it is an integer and as a
    ``Fraction`` otherwise (see ``_stored``).
    """

    __slots__ = ("_terms",)

    def __init__(self, terms: Mapping[ParamKey, Scalar] | None = None):
        self._terms: dict[ParamKey, Scalar] = {}
        if terms:
            for key, value in terms.items():
                value = _stored(value)
                if value:
                    self._terms[key] = value

    @classmethod
    def _of(cls, terms: dict[ParamKey, Scalar]) -> ParamPoly:
        """Wrap a dict that already holds only nonzero stored-form values."""
        out = object.__new__(cls)
        out._terms = terms
        return out

    @classmethod
    def zero(cls) -> ParamPoly:
        return cls()

    @classmethod
    def one(cls) -> ParamPoly:
        return cls.const(1)

    @classmethod
    def const(cls, value: Scalar) -> ParamPoly:
        return cls({(): value})

    @classmethod
    def param(cls, name: str) -> ParamPoly:
        if not name:
            raise ValueError("parameter name must be nonempty")
        return cls._of({((name, 1),): 1})

    @staticmethod
    def _coerce(value: object) -> ParamPoly | None:
        if isinstance(value, ParamPoly):
            return value
        if isinstance(value, (int, Fraction)):
            return ParamPoly.const(value)
        return None

    def items(self) -> Iterator[tuple[ParamKey, Scalar]]:
        return iter(self._terms.items())

    def sorted_items(self) -> list[tuple[ParamKey, Scalar]]:
        return sorted(self._terms.items(), key=lambda kv: (-_key_degree(kv[0]), kv[0]))

    @property
    def denominator(self) -> int:
        """The least d > 0 that makes every value of ``d * self`` an integer."""
        return lcm(*(v.denominator for v in self._terms.values()))

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __len__(self) -> int:
        return len(self._terms)

    def __eq__(self, other: object) -> bool:
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self._terms == o._terms

    def __add__(self, other: object) -> ParamPoly:
        if type(other) is int or type(other) is Fraction:
            out = dict(self._terms)
            s = _stored(out.get((), 0) + other)
            if s:
                out[()] = s
            else:
                out.pop((), None)
            return ParamPoly._of(out)
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        out = dict(self._terms)
        for key, v in o._terms.items():
            s = out.get(key)
            s = v if s is None else _stored(s + v)
            if s:
                out[key] = s
            else:
                del out[key]
        return ParamPoly._of(out)

    __radd__ = __add__

    def __neg__(self) -> ParamPoly:
        return ParamPoly._of({k: -v for k, v in self._terms.items()})

    def __sub__(self, other: object) -> ParamPoly:
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other: object) -> ParamPoly:
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o + (-self)

    def _scaled(self, c: Scalar) -> ParamPoly:
        c = _stored(c)
        if not c:
            return ParamPoly()
        if c == 1:  # values are immutable, so self serves
            return self
        terms = self._terms
        if type(c) is int:  # the common case: integer values stay integers
            return ParamPoly._of(
                {k: v * c if type(v) is int else _scalar_product(v, c) for k, v in terms.items()}
            )
        return ParamPoly._of({k: _scalar_product(v, c) for k, v in terms.items()})

    def __mul__(self, other: object) -> ParamPoly:
        if type(other) is int or type(other) is Fraction:
            return self._scaled(other)
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        # constant factors are by far the common case; skip the key merge
        a, b = self._terms, o._terms
        if len(a) == 1 and () in a:
            return o._scaled(a[()])
        if len(b) == 1 and () in b:
            return self._scaled(b[()])
        out: dict[ParamKey, Scalar] = {}
        for ka, va in a.items():
            for kb, vb in b.items():
                key = _merge_keys(ka, kb)
                out[key] = out.get(key, 0) + va * vb
        return ParamPoly(out)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> ParamPoly:
        if not isinstance(n, int) or n < 0:
            raise ValueError("ParamPoly powers must be nonnegative integers")
        out = ParamPoly.one()
        for _ in range(n):
            out = out * self
        return out

    def parameters(self) -> set[str]:
        return {name for key in self._terms for name, _ in key}

    def is_constant(self) -> bool:
        return all(key == () for key in self._terms)

    def constant_value(self) -> Scalar:
        """The value of a constant polynomial; raises if parameters remain."""
        if not self._terms:
            return 0
        if not self.is_constant():
            raise ValueError(f"not a constant: {self}")
        return self._terms[()]

    def demoted(self) -> Scalar | ParamPoly:
        """The value as a plain rational when no parameter appears, else self."""
        terms = self._terms
        if not terms:
            return 0
        if len(terms) == 1:
            value = terms.get(())
            if value is not None:
                return value
        return self

    def substitute(self, name: str, value: Scalar) -> ParamPoly:
        """Replace a parameter by an exact rational value."""
        v = Fraction(value)
        out: dict[ParamKey, Scalar] = {}
        for key, coeff in self._terms.items():
            power = dict(key).get(name, 0)
            rest = tuple(pair for pair in key if pair[0] != name)
            out[rest] = out.get(rest, 0) + coeff * v**power
        return ParamPoly(out)  # drops the zero sums

    def __str__(self) -> str:
        return render.parampoly(render.TEXT, self)

    def __repr__(self) -> str:
        return f"ParamPoly({self})"


Coeff = int | Fraction | ParamPoly


def canonical_coeff(value: object) -> Coeff:
    """A coefficient in the form the algebra stores it.

    A plain ``int`` when the value is an integer, a ``Fraction`` when it is
    another rational, and a ParamPoly only when a parameter appears.
    ParamPoly constants are demoted; other numbers go through ``Fraction``.
    """
    if isinstance(value, ParamPoly):
        return value.demoted()
    return _stored(value)


def as_parampoly(value: Coeff) -> ParamPoly:
    """The coefficient as a ParamPoly, promoting a plain rational."""
    return value if isinstance(value, ParamPoly) else ParamPoly.const(value)
