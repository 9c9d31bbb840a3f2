"""Exact polynomials in named symbolic parameters, and the sparse core.

Parameter polynomials are the coefficients of everything else in the
package.  When a power like ``x^r`` is expanded, the coefficient of each
term is a polynomial in ``r`` with rational coefficients (e.g.
``1/2*r^2 - 1/2*r``); keeping those polynomials exact is what lets
identities be checked by equality instead of by numerical comparison.  A
ParamPoly maps a parameter monomial to its value.  In public (``__init__``,
``from_terms``, ``items``, ``sorted_items``, printing and JSON) a parameter
monomial is a ``ParamKey``: a tuple of ``(name, power)`` pairs sorted by
name with all powers >= 1, the empty tuple being the constant monomial.

Inside, a parameter monomial is one packed ``int`` (the packed monomials
of Monagan and Pearce, "Sparse polynomial division using a heap", J. Symb.
Comp. 2011).  Each parameter name gets a slot, in the order the names are
first met, and slot i is the bit field ``[64*i, 64*i + 64)`` of the key:
63 bits for the power and a top guard bit.  So the key product is one
integer addition, and the constant monomial is 0.  A product whose power
exceeds ``POWER_CAP`` = 2^63 - 1 sets a guard bit, before any carry can
reach a neighbouring field, and raises OverflowError naming the cap.  The
slot table holds one entry per distinct parameter name and is never
emptied.  Slots never leak out: the public forms read a key through
``_fields``, which walks only the fields it sets, and sort its names, so
printing orders parameters by name whatever order they were met in.  A
pickle names its slots, and ``_unpickle`` maps them to the loader's.

``Sparse`` is the one sparse-polynomial core: a dict from key to value that
ParamPoly, ``algebra.Element`` and ``faadibruno.FdbPoly`` share.  It owns
construction, equality, sums, products and powers; each subclass keeps its
key layout, accessors and printing, and sets three class attributes:

- ``_UNIT``, the key of the constant term;
- ``_SCALARS``, the types that multiply as constants (``int`` and
  ``Fraction``, and for Element also ParamPoly);
- ``_key_mul``, the product of two keys.  ParamPoly sets none and instead
  overrides ``_product``, which adds packed keys and checks guard bits.

Every value is kept in stored form: a plain ``int`` when it is an integer,
a ``Fraction`` when it is another rational, and a ParamPoly (as an Element
coefficient) only when a parameter appears; see ``canonical_coeff``.  So
integer-valued polynomials multiply and add in integer arithmetic.  Zero
values are never stored, so two sums are equal exactly when their dicts are
equal (an ``int`` and a ``Fraction`` of the same value compare and hash
alike, and a coefficient equals the same value held as a constant
ParamPoly).  One rule keeps them so: sum raw, with ``_sum_into`` or
``_mul_into``, then clean once with ``_stored``, which drops zeros, makes
integral Fractions ``int`` and demotes constant ParamPolys.  ``_sum_into``
is the one accumulator of terms (parsed runs, series sums, ``Exponent``
linear parts and Faà di Bruno keys too), except in two passes that add raw
packed coefficients ``{packed key: int|Fraction}``, so no ParamPoly per term:
the flat passes of ``YSeries.__mul__`` and ``falling_row`` (``algebra``),
which clean each with ``_coeff_of``, the one cleaner of such coefficients,
and the derivation kernel's fused pass (``derivations._Kernel``).
"""

from __future__ import annotations

import operator
from fractions import Fraction
from math import lcm
from typing import Any, Callable, ClassVar, Hashable, Iterable, Iterator, Mapping

from . import render

Scalar = int | Fraction

# ((name, power), ...) sorted by name, powers >= 1; () is the constant term.
ParamKey = tuple[tuple[str, int], ...]

_FIELD = 64  # bits per parameter slot: the power, then one guard bit
POWER_CAP = (1 << (_FIELD - 1)) - 1  # the largest power a parameter may carry
_SHIFTS: dict[str, int] = {}  # parameter name -> bit offset of its field
_NAMES: tuple[str, ...] = ()  # the registered names in slot order
_GUARDS = 0  # the guard bit of every registered field


def _shift(name: str) -> int:
    """The bit offset of the field of ``name``, registering the name on first use."""
    global _GUARDS, _NAMES
    offset = _SHIFTS.get(name)
    if offset is None:
        if not name:
            raise ValueError("parameter name must be nonempty")
        offset = _SHIFTS[name] = _FIELD * len(_SHIFTS)
        _NAMES = (*_SHIFTS,)
        _GUARDS |= 1 << (offset + _FIELD - 1)
    return offset


def _pack(key: ParamKey) -> int:
    """The packed key of a ``ParamKey``; repeated names add their powers."""
    packed = 0
    for name, power in key:
        if power < 0:
            raise ValueError(f"parameter powers must be nonnegative, not {power}")
        if power > POWER_CAP:
            raise _cap_error()
        packed += power << _shift(name)
        if packed & _GUARDS:  # checked per power, so no field can carry into the next
            raise _cap_error()
    return packed


def _cap_error() -> OverflowError:
    return OverflowError(f"a parameter power exceeds the cap 2^{_FIELD - 1} - 1")


def _fields(packed: int) -> Iterator[tuple[int, int]]:
    """The offset and power of each nonzero field of a packed key, lowest first."""
    while packed:
        offset = (packed & -packed).bit_length() - 1
        offset -= offset % _FIELD
        yield offset, (packed >> offset) & POWER_CAP
        packed &= -1 << (offset + _FIELD)


def _unpack(packed: int) -> ParamKey:
    """The ``ParamKey`` of a packed key, ordered by name."""
    return tuple(sorted((_NAMES[offset // _FIELD], power) for offset, power in _fields(packed)))


def _packed_terms(pairs: Iterable[tuple[ParamKey, object]]) -> dict[int, Coeff]:
    return _stored(_sum_into({}, ((_pack(key), canonical_coeff(value)) for key, value in pairs)))


def _sum_into(acc: dict, pairs: Iterable[tuple[Hashable, Coeff]]) -> dict:
    """acc[key] += value for each pair, raw; returns acc for ``_stored``."""
    get = acc.get
    for key, value in pairs:
        prior = get(key)
        acc[key] = value if prior is None else prior + value
    return acc


def _mul_into(acc: dict, ta: dict, tb: dict, key_mul: Callable) -> dict:
    """acc += ta * tb, raw, where ``key_mul`` multiplies two keys; returns acc."""
    get = acc.get
    for ka, ca in ta.items():
        for kb, cb in tb.items():
            key = key_mul(ka, kb)
            prior = get(key)
            acc[key] = ca * cb if prior is None else prior + ca * cb
    return acc


def _stored(acc: dict) -> dict:
    """The raw sums of ``acc`` in stored form: zeros dropped, integral
    Fractions made ``int`` and constant ParamPolys demoted."""
    out = {}
    for key, value in acc.items():
        kind = type(value)
        if kind is Fraction:
            if value.denominator == 1:
                value = value.numerator
        elif kind is ParamPoly:
            value = value.demoted()
        if value:
            out[key] = value
    return out


def _coeff_of(raw: dict[int, Scalar]) -> Coeff:
    """A raw packed coefficient in stored form: zeros dropped, integral Fractions
    made ``int``, a lone constant (or 0) as a scalar, else a ParamPoly; a key past
    the power cap, kept or not, raises OverflowError."""
    clean, keys = {}, 0
    for key, value in raw.items():
        keys |= key
        if type(value) is Fraction and value.denominator == 1:
            value = value.numerator
        if value:
            clean[key] = value
    if keys & _GUARDS:
        raise _cap_error()
    value = clean.get(0)
    if value is None or len(clean) > 1:
        return ParamPoly._of(clean) if clean else 0
    return value


def _load(cls: type[Sparse], terms: dict) -> Sparse:
    """Load a pickled Sparse: its terms are already in stored form."""
    return cls._of(terms)


class Sparse:
    """A finite sum of keyed terms whose values are nonzero and in stored form.

    The ring operations of ParamPoly, ``algebra.Element`` and
    ``faadibruno.FdbPoly``.  A subclass sets ``_UNIT``, ``_SCALARS`` and
    ``_key_mul`` (see the module docstring).
    """

    __slots__ = ("_terms",)

    _UNIT: ClassVar[Hashable]
    _SCALARS: ClassVar[tuple[type, ...]]
    _key_mul: ClassVar[Callable[[Any, Any], Hashable]]

    def __init__(self, terms: Mapping[Any, object] | None = None):
        self._terms = _stored({k: canonical_coeff(v) for k, v in (terms or {}).items()})

    @classmethod
    def _of(cls, terms: dict) -> Sparse:
        """Wrap a dict that already holds only nonzero stored-form values."""
        out = object.__new__(cls)
        out._terms = terms
        return out

    def __reduce__(self) -> tuple:
        return (_load, (type(self), self._terms))

    @classmethod
    def from_terms(cls, pairs: Iterable[tuple[Any, object]]) -> Sparse:
        """The sum of the ``(key, value)`` pairs; a key may occur more than once."""
        return cls._of(_stored(_sum_into({}, ((k, canonical_coeff(v)) for k, v in pairs))))

    @classmethod
    def zero(cls) -> Sparse:
        return cls._of({})

    @classmethod
    def one(cls) -> Sparse:
        return cls._of({cls._UNIT: 1})

    @classmethod
    def const(cls, value: object) -> Sparse:
        c = canonical_coeff(value)
        return cls._of({cls._UNIT: c} if c else {})

    @classmethod
    def _coerce(cls, value: object) -> Sparse | None:
        if isinstance(value, cls):
            return value
        if isinstance(value, cls._SCALARS):
            return cls.const(value)
        return None

    def items(self) -> Iterable[tuple[Any, Coeff]]:
        """(key, value) pairs with the values as stored."""
        return self._terms.items()

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __len__(self) -> int:
        return len(self._terms)

    def __eq__(self, other: object) -> bool:
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self._terms == o._terms

    def __add__(self, other: object) -> Sparse:
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self._of(_stored(_sum_into(dict(self._terms), o._terms.items())))

    __radd__ = __add__

    def __neg__(self) -> Sparse:
        return self._of({k: -v for k, v in self._terms.items()})

    def __sub__(self, other: object) -> Sparse:
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other: object) -> Sparse:
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o + (-self)

    def __mul__(self, other: object) -> Sparse:
        if not isinstance(other, self._SCALARS):
            o = self._coerce(other)
            if o is None:
                return NotImplemented
            return self._of(self._product(self._terms, o._terms))
        c = canonical_coeff(other)
        if not c:
            return self._of({})
        if c == 1:  # values are never mutated, so the polynomial serves as it is
            return self
        return self._of(_stored({k: v * c for k, v in self._terms.items()}))

    __rmul__ = __mul__

    @classmethod
    def _product(cls, a: dict, b: dict) -> dict:
        """The terms of the product of two term dicts."""
        return _stored(_mul_into({}, a, b, cls._key_mul))

    def __pow__(self, n: int) -> Sparse:
        if not isinstance(n, int) or n < 0:
            raise ValueError(f"{type(self).__name__} powers must be nonnegative integers")
        out = self.one()
        base = self
        while n:
            if n & 1:
                out = out * base
            n >>= 1
            if n:
                base = base * base
        return out


class ParamPoly(Sparse):
    """Polynomial in symbolic parameters with exact rational values.

    Keys are packed parameter monomials (see the module docstring); the
    public accessors hand them out as ``ParamKey`` tuples.  Each value is
    held as an ``int`` when it is an integer and as a ``Fraction`` otherwise.
    """

    __slots__ = ()
    _UNIT = 0
    _SCALARS = (int, Fraction)
    # bound here too: the per-layer tracer (perfbench/spans.py) wraps only the
    # methods in a class's own __dict__, and counts these two
    __add__ = __radd__ = Sparse.__add__
    __mul__ = __rmul__ = Sparse.__mul__

    def __init__(self, terms: Mapping[ParamKey, object] | None = None):
        self._terms = _packed_terms((terms or {}).items())

    @classmethod
    def from_terms(cls, pairs: Iterable[tuple[ParamKey, object]]) -> ParamPoly:
        """The sum of the ``(ParamKey, value)`` pairs; a key may occur more than once."""
        return cls._of(_packed_terms(pairs))

    def __reduce__(self) -> tuple:
        # the packed terms and the names of their slots: another process may
        # number the names otherwise (pickles of ParamPoly(dict) still load)
        return (_unpickle, (_NAMES, self._terms))

    @classmethod
    def param(cls, name: str) -> ParamPoly:
        return cls._of({1 << _shift(name): 1})

    @staticmethod
    def _product(a: dict, b: dict) -> dict:
        """The product terms: each key product is one addition of packed keys."""
        out = _mul_into({}, a, b, operator.add)
        if _or_keys(out) & _GUARDS:
            raise _cap_error()
        return _stored(out)

    def items(self) -> Iterator[tuple[ParamKey, Scalar]]:
        """(ParamKey, value) pairs with the values as stored."""
        return ((_unpack(k), v) for k, v in self._terms.items())

    def sorted_items(self) -> list[tuple[ParamKey, Scalar]]:
        """Highest degree first, then by key, parameters ordered by name."""
        return sorted(self.items(), key=lambda kv: (-sum(p for _, p in kv[0]), kv[0]))

    @property
    def denominator(self) -> int:
        """The least d > 0 that makes every value of ``d * self`` an integer."""
        return lcm(*(v.denominator for v in self._terms.values()))

    def parameters(self) -> set[str]:
        return {_NAMES[offset // _FIELD] for offset, _ in _fields(_or_keys(self._terms))}

    def is_constant(self) -> bool:
        return all(key == 0 for key in self._terms)

    def constant_value(self) -> Scalar:
        """The value of a constant polynomial; raises if parameters remain."""
        if not self._terms:
            return 0
        if not self.is_constant():
            raise ValueError(f"not a constant: {self}")
        return self._terms[0]

    def demoted(self) -> Scalar | ParamPoly:
        """The value as a plain rational when no parameter appears, else self."""
        terms = self._terms
        if not terms:
            return 0
        if len(terms) == 1:
            value = terms.get(0)
            if value is not None:
                return value
        return self

    def substitute(self, name: str, value: Scalar) -> ParamPoly:
        """Replace a parameter by an exact rational value."""
        offset = _SHIFTS.get(name)
        if offset is None:
            return self
        v, field = Fraction(value), POWER_CAP << offset
        terms = ((k & ~field, c * v ** ((k & field) >> offset)) for k, c in self._terms.items())
        return ParamPoly._of(_stored(_sum_into({}, terms)))

    def __str__(self) -> str:
        return render.parampoly(render.TEXT, self.sorted_items())

    def __repr__(self) -> str:
        return f"ParamPoly({self})"


def _or_keys(terms: dict[int, object]) -> int:
    """The bitwise or of the packed keys: every field that is nonzero in some key."""
    out = 0
    for key in terms:
        out |= key
    return out


def _unpickle(names: tuple[str, ...], terms: dict[int, Scalar]) -> ParamPoly:
    """Load a pickled ParamPoly whose keys use the slots of ``names``.

    Only the names that some key uses are registered here.  The dict is
    wrapped as it is when each of them has the same slot here, and its keys
    are repacked to the slots here otherwise.
    """
    moves = [(there, _shift(names[there // _FIELD])) for there, _ in _fields(_or_keys(terms))]
    if any(there != here for there, here in moves):
        terms = {
            sum(((k >> there) & POWER_CAP) << here for there, here in moves): v
            for k, v in terms.items()
        }
    return ParamPoly._of(terms)


Coeff = int | Fraction | ParamPoly


def canonical_coeff(value: object) -> Coeff:
    """A coefficient in the form the algebra stores it.

    A plain ``int`` when the value is an integer, a ``Fraction`` when it is
    another rational, and a ParamPoly only when a parameter appears.
    ParamPoly constants are demoted; other numbers go through ``Fraction``; text raises.
    """
    if type(value) is int:
        return value
    if type(value) is not Fraction:
        if isinstance(value, ParamPoly):
            return value.demoted()
        if isinstance(value, str):
            raise TypeError(f"a coefficient must be a number, not the string {value!r}")
        value = Fraction(value)
    return value.numerator if value.denominator == 1 else value


def as_parampoly(value: Coeff) -> ParamPoly:
    """The coefficient as a ParamPoly, promoting a plain rational."""
    return value if isinstance(value, ParamPoly) else ParamPoly.const(value)
