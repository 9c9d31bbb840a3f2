"""Derivations on the generator algebra and their exponentials.

A derivation is determined by its images on the generators and extended by
linearity, the Leibniz rule, and the power rule
D(g^e) = e * g^(e-1) * D(g), which holds for symbolic exponents as well.
Images may be supplied as a plain table or generated by a rule; the two
built-in families are d/dx and x*d/dx on the iterated-log tower:

    d/dx x         = 1
    d/dx l_n(x)    = 1 / (x * log(x) * ... * l_{n-1}(x))        (n > 0)
    d/dx l_{-n}(x) = exp(x) * exp(exp(x)) * ... * l_{-n}(x)     (n > 0)

and (x*d/dx) g = x * (d/dx g).

``exp_series(a, order)`` computes sum_k y^k/k! * D^k(a) as a YSeries.
Before any differentiation the engine eagerly checks that every generator
reachable from the argument has an image (closure); a missing image raises
ClosureError up front rather than failing midway through a power.

The kernel works on integer shifts.  For a monomial m = prod_i l_i^(e_i),
D(m) = sum_i e_i * m * R_i with R_i = D(l_i)/l_i, so every term of D^k(m)
is m times a monomial whose exponents differ from m's by whole numbers
whenever the R_i have integer exponents (the formal Taylor theorem
exp(y d/dx) x^r = sum_k binom(r, k) x^(r-k) y^k is the simplest case).  A
kernel term is therefore held as

- a *class*: the non-integer part of each exponent (its fractional
  constant and its parameter part), as ``(position, Exponent)`` pairs,
  empty for an integer monomial;
- a *shift vector*: one ``int`` per generator of the closure, the integer
  part of each exponent scaled by a unit above twice the closure's width
  (see ``_Kernel``);
- a coefficient as its packed ParamPoly terms, ``{packed key: int|Fraction}``
  (see ``params``), so a coefficient product is a packed-key addition.

One step adds a cached delta vector to the shift (``map(add, ...)``, at C
level) for each nonzero exponent, and multiplies the coefficient by the
packed entries of (class exponent + shift) * coefficient of R_i, cached per
(class, position, shift).  A monomial of R_i with a non-integer exponent
moves the term into another class.  Each order's Element is built once, a
Monomial once per (class, shift) for the whole expansion, and a ParamPoly
only where a parameter remains.  ``apply`` is one step of the same kernel.
"""

from __future__ import annotations

from fractions import Fraction
from collections import deque
from itertools import compress, repeat
from math import floor
from operator import add, or_, setitem
from typing import Callable, Mapping

from . import params
from .algebra import Element, Exponent, Monomial, YSeries, _cleared, gen_name
from .params import ParamPoly


class ClosureError(ValueError):
    """A derivation was applied to an element it is not closed over."""

    def __init__(self, index: int, name: str = "derivation"):
        self.index = index
        super().__init__(f"{name} has no image for generator {gen_name(index)}")


class Derivation:
    """A derivation given by generator images, extended by Leibniz + power rule."""

    def __init__(
        self,
        name: str,
        images: Mapping[int, Element] | None = None,
        rule: Callable[[int], Element | None] | None = None,
    ):
        self.name = name
        self._images: dict[int, Element] = dict(images or {})
        self._rule = rule

    def image(self, index: int) -> Element:
        """D applied to the generator with this index."""
        if index in self._images:
            return self._images[index]
        if self._rule is not None:
            img = self._rule(index)
            if img is not None:
                self._images[index] = img
                return img
        raise ClosureError(index, self.name)

    def check_closure(self, a: Element) -> set[int]:
        """Verify every generator reachable from ``a`` has an image; return their indices.

        Walks the set of generator indices appearing in ``a`` and, for each,
        in its image, transitively.  The built-in rule families only ever
        introduce indices between existing ones and 0 (or -1), so this
        terminates; a finite image table either closes up or raises.
        """
        seen: set[int] = set()
        frontier = set(a.generator_indices())
        while frontier:
            index = frontier.pop()
            seen.add(index)
            img = self.image(index)  # raises ClosureError if missing
            frontier.update(img.generator_indices() - seen)
        return seen

    def apply(self, a: Element) -> Element:
        """One application of the derivation: one kernel step, nothing kept."""
        indices = a.generator_indices()
        for index in list(indices):
            indices |= self.image(index).generator_indices()
        kernel = _Kernel(self, indices)
        return kernel.element(kernel.step(kernel.split(a)))

    def exp_series(self, a: Element, order: int) -> YSeries:
        """The truncated exponential sum_{k<=order} y^k/k! D^k(a)."""
        if order < 0:
            raise ValueError("order must be nonnegative")
        kernel = _Kernel(self, self.check_closure(a))
        # differentiate den * a, whose coefficients are integer-valued: the
        # D^k(den * a) are the numerators of the divided-power form
        num, den = _cleared([a], 1)
        terms = kernel.split(num[0])
        for _ in range(order):
            terms = kernel.step(terms)
            num.append(kernel.element(terms))
        # a rational exponent brings a Fraction down; only then clear again
        return YSeries.divided(num, den) if kernel.fractions else YSeries._of(num, den)

    def __repr__(self) -> str:
        return f"Derivation({self.name})"


class _Entries(dict):
    """Exponent -> the shift entry of its floor, filled on first use.

    ``parts`` maps each non-integer exponent met to its class part, the
    exponent minus that floor.
    """

    def __init__(self, unit: int):
        self.unit = unit
        self.parts: dict[Exponent, Exponent] = {}

    def __missing__(self, e: Exponent) -> int:
        n = floor(e.const)
        if e.linear or type(e.const) is not int:
            self.parts[e] = e - n
        t = self[e] = n * self.unit
        return t


class _Pairs(dict):
    """Shift entry + position -> the power pair (index, Exponent) of one class.

    Filled on first use; the exponent is the entry's integer plus the
    class part at that position.  A Monomial's pairs are shared, not built
    per term, which keeps deep towers from making millions of small tuples.
    """

    def __init__(self, indices: tuple[int, ...], unit: int, exps: dict[int, Exponent]):
        self.indices = indices
        self.unit = unit
        self.exps = exps

    def __missing__(self, key: int) -> tuple[int, Exponent]:
        n, p = divmod(key, self.unit)
        part = self.exps.get(p)
        pair = self[key] = (self.indices[p], Exponent.of(n) if part is None else part + n)
        return pair


class _Kernel:
    """The term layout of one expansion (see the module docstring).

    Terms are ``{class: {shift: {packed key: value}}}``.  A kernel lives for
    one ``exp_series`` or ``apply`` call; its caches go with it.
    """

    def __init__(self, deriv: Derivation, indices: set[int]):
        self.deriv = deriv
        self.indices = tuple(sorted(indices))
        self.pos = {index: p for p, index in enumerate(self.indices)}
        self.positions = range(len(self.indices))
        # entry n * unit for exponent n: unit > 2 * position, so entry +
        # position names the pair, and no entry is -1, which CPython hashes
        # like -2 (tower shifts of -1 and -2 would collide in every dict)
        self.unit = unit = 2 * max(len(self.indices), 1)
        self.entries = _Entries(unit)
        self.ratios: dict[int, list] = {}  # position -> terms of D(l_i)/l_i
        self.plans: dict[tuple, tuple] = {}  # class -> see _plan
        self.monos: dict[tuple, dict] = {}  # class -> {shift: Monomial}
        self.fractions = False  # whether some value built so far is a Fraction

    def split(self, a: Element) -> dict:
        """The kernel terms of ``a``."""
        out: dict[tuple, dict] = {}
        for mono, c in a.items():
            cls, shift = self._split_monomial(mono)
            out.setdefault(cls, {})[shift] = c._terms if type(c) is ParamPoly else {0: c}
        return out

    def _split_monomial(self, mono: Monomial, lower: int | None = None) -> tuple:
        """(class, shift) of ``mono``, times l^-1 at position ``lower`` if given.

        The loops run in C over the monomial's own pairs, not the closure.
        """
        shift = [0] * len(self.indices)
        indices, es = zip(*mono) if len(mono) else ((), ())
        ps = list(map(self.pos.__getitem__, indices))
        deque(map(setitem, repeat(shift), ps, map(self.entries.__getitem__, es)), 0)
        if lower is not None:
            shift[lower] -= self.unit
        parts = self.entries.parts
        if parts.keys().isdisjoint(es):
            return (), tuple(shift)
        return tuple((p, parts[e]) for p, e in zip(ps, es) if e in parts), tuple(shift)

    def _ratio(self, p: int) -> list:
        """[(class part, delta, coefficient)] of D(l_i)/l_i for position p."""
        terms = self.ratios.get(p)
        if terms is None:
            terms = self.ratios[p] = [
                (*self._split_monomial(mono, p), c)
                for mono, c in self.deriv.image(self.indices[p]).items()
            ]
        return terms

    def _merge(self, cls: tuple, part: tuple) -> tuple:
        """(class, carry vector) of a class times a class part: integer parts carry."""
        exps = dict(cls)
        carry = [0] * len(self.indices)
        for p, e in part:
            total = exps.pop(p, None)
            total = e if total is None else total + e
            carry[p] = self.entries[total]
            rest = self.entries.parts.get(total)
            if rest is not None:
                exps[p] = rest
        return tuple(sorted(exps.items())), tuple(carry)

    def _plan(self, cls: tuple) -> tuple:
        """(moves by pair key, power pairs by pair key, selector mask) of a class.

        A pair key is shift entry + position.  The mask is 1 at each class
        position, so ``map(or_, shift, mask)`` is nonzero exactly where the
        term's exponent is; None for the integer class.
        """
        plan = self.plans.get(cls)
        if plan is None:
            exps = dict(cls)
            mask = None
            if exps:
                mask = [0] * len(self.indices)
                for p in exps:
                    mask[p] = 1
            plan = self.plans[cls] = ({}, _Pairs(self.indices, self.unit, exps), mask)
        return plan

    def _moves(self, cls: tuple, pairs: _Pairs, key: int) -> list:
        """[(target class, delta, factor items)] for the power pair of this key."""
        factor = pairs[key][1].to_parampoly()
        moves = []
        for part, delta, c in self._ratio(key % self.unit):
            target = None  # the same class
            if part:
                target, carry = self._merge(cls, part)
                delta = tuple(map(add, delta, carry))
            moves.append((target, delta, tuple((factor * c)._terms.items())))
        return moves

    def step(self, terms: dict) -> dict:
        """D applied to kernel terms, as raw kernel terms (see ``element``),
        summed in the loop itself: it is the engine's hottest loop."""
        out: dict[tuple, dict] = {}
        positions = self.positions
        for cls, by_shift in terms.items():
            cache, pairs, mask = self._plan(cls)
            here = out.get(cls)
            if here is None:
                here = out[cls] = {}
            for shift, coeff in by_shift.items():
                items = coeff.items()
                keys = map(add, shift, positions)
                for key in compress(keys, shift if mask is None else map(or_, shift, mask)):
                    moves = cache.get(key)
                    if moves is None:
                        moves = cache[key] = self._moves(cls, pairs, key)
                    for target, delta, factor in moves:
                        if target is None:
                            dest = here
                        else:
                            dest = out.get(target)
                            if dest is None:
                                dest = out[target] = {}
                        moved = (*map(add, shift, delta),)
                        acc = dest.get(moved)
                        if acc is None:
                            acc = dest[moved] = {}
                        for fk, fv in factor:
                            for key, v in items:
                                key += fk
                                prior = acc.get(key)
                                acc[key] = v * fv if prior is None else prior + v * fv
        return out

    def element(self, terms: dict) -> Element:
        """The Element of raw kernel terms, which it puts in stored form in place.

        Zero values and empty terms are dropped and integral Fractions made
        ``int``; a packed key past the power cap raises OverflowError.  Not
        ``params._stored``: the same pass builds each Monomial, collects the
        guard bits and sets ``fractions``.
        """
        acc = {}
        keys = 0
        for cls, by_shift in terms.items():
            monos = self.monos.get(cls)
            if monos is None:
                monos = self.monos[cls] = {}
            for shift, coeff in list(by_shift.items()):
                if len(coeff) == 1 and type(value := coeff.get(0)) is int:
                    if not value:
                        del by_shift[shift]
                        continue
                else:
                    clean = {}
                    for k, v in coeff.items():
                        if type(v) is Fraction:
                            if v.denominator == 1:
                                v = v.numerator
                            else:
                                self.fractions = True
                        if v:
                            clean[k] = v
                            keys |= k
                    if not clean:
                        del by_shift[shift]
                        continue
                    by_shift[shift] = clean
                    value = clean.get(0)
                    if value is None or len(clean) > 1:
                        value = ParamPoly._of(clean)
                mono = monos.get(shift)
                if mono is None:
                    mono = monos[shift] = self._monomial(cls, shift)
                acc[mono] = value
        if keys & params._GUARDS:
            raise params._cap_error()
        return Element._of(acc)

    def _monomial(self, cls: tuple, shift: tuple) -> Monomial:
        """The Monomial of one (class, shift), its pairs looked up, never built, in C."""
        _, pairs, mask = self._plan(cls)
        keys = compress(map(add, shift, self.positions), shift if mask is None else map(or_, shift, mask))
        return Monomial._from_canonical((*map(pairs.__getitem__, keys),))


# The longest runs of tower pairs built so far: (i, -1) for i = 0, 1, ... and
# (i, 1) for i = ..., -2, -1.  Every d/dx image is a slice of one, so its
# pairs are shared, not built per image; a run only grows.
_UP: tuple[tuple[int, Exponent], ...] = ()
_DOWN: tuple[tuple[int, Exponent], ...] = ()


def _ddx_image(index: int) -> Element:
    """prod_{0<=i<n} l_i^-1 for n = index >= 0, and prod_{n<=i<0} l_i for n < 0."""
    global _UP, _DOWN
    if index >= 0:
        if len(_UP) < index:
            _UP = tuple(zip(range(index), repeat(Exponent.of(-1))))
        powers = _UP[:index]
    else:
        if len(_DOWN) < -index:
            _DOWN = tuple(zip(range(index, 0), repeat(Exponent.of(1))))
        powers = _DOWN[len(_DOWN) + index :]
    return Element._of({Monomial._from_canonical(powers): 1})


def d_dx() -> Derivation:
    """The derivation d/dx, defined on the whole generator tower."""
    return Derivation("d/dx", rule=_ddx_image)


def x_d_dx() -> Derivation:
    """The derivation x*d/dx (the image of d/dx under the index shift)."""
    return Derivation("x*d/dx", rule=lambda i: Element.gen(0) * _ddx_image(i))
