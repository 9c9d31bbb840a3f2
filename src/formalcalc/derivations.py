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
"""

from __future__ import annotations

from typing import Callable, Mapping

from .algebra import Element, Exponent, Monomial, YSeries, gen_name
from .params import Coeff, _accumulate


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
        # D(m) for each monomial m met by the running exp_series; emptied when
        # it returns, so no entry outlives one expansion
        self._mono_images: dict[Monomial, Element] = {}
        self._expanding = False

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

    def has_image(self, index: int) -> bool:
        try:
            self.image(index)
        except ClosureError:
            return False
        return True

    def check_closure(self, a: Element) -> None:
        """Verify every generator reachable from ``a`` has an image.

        Walks the set of generator indices appearing in ``a`` and, for each,
        in its image, transitively.  The built-in rule families only ever
        introduce indices between existing ones and 0 (or -1), so this
        terminates; a finite image table either closes up or raises.
        """
        seen: set[int] = set()
        frontier = set(a.generator_indices())
        while frontier:
            index = frontier.pop()
            if index in seen:
                continue
            seen.add(index)
            img = self.image(index)  # raises ClosureError if missing
            frontier.update(img.generator_indices() - seen)

    def apply(self, a: Element) -> Element:
        """One application of the derivation.

        Inside ``exp_series`` each monomial's image is memoized for the rest
        of that expansion.  A bare call keeps nothing: one element never
        holds a monomial twice.
        """
        acc: dict[Monomial, Coeff] = {}
        memo = self._mono_images if self._expanding else {}
        for mono, coeff in a.items():
            img = memo.get(mono)
            if img is None:
                img = self._derive_monomial(mono)
                memo[mono] = img
            for im_mono, im_coeff in img.items():
                _accumulate(acc, im_mono, coeff * im_coeff)
        return Element._of(acc)

    def _derive_monomial(self, mono: Monomial) -> Element:
        acc: dict[Monomial, Coeff] = {}
        powers = mono.powers
        for pos, (index, e) in enumerate(powers):
            # derivative of gen^e -> e * gen^(e-1) * image, times the rest
            scale = e.as_coeff()
            if not scale:
                continue
            dec = e.decremented()
            if dec.is_zero:
                lowered = Monomial._from_canonical(powers[:pos] + powers[pos + 1 :])
            else:
                lowered = Monomial._from_canonical(
                    powers[:pos] + ((index, dec),) + powers[pos + 1 :]
                )
            for im_mono, im_coeff in self.image(index).items():
                _accumulate(acc, lowered * im_mono, scale * im_coeff)
        return Element._of(acc)

    def exp_series(self, a: Element, order: int) -> YSeries:
        """The truncated exponential sum_{k<=order} y^k/k! D^k(a)."""
        if order < 0:
            raise ValueError("order must be nonnegative")
        self.check_closure(a)
        # differentiate den * a, whose coefficients are integer-valued: the
        # D^k(den * a) are the numerators of the divided-power form
        den, current = a._numerators()
        num = [current]
        self._expanding = True
        try:
            for _ in range(order):
                num.append(self.apply(num[-1]))
        finally:
            self._expanding = False
            self._mono_images.clear()
        return YSeries.divided(num, den)

    def __repr__(self) -> str:
        return f"Derivation({self.name})"


def _ddx_image(index: int) -> Element:
    """prod_{0<=i<n} l_i^-1 for n = index >= 0, and prod_{n<=i<0} l_i for n < 0."""
    e = Exponent.of(1 if index < 0 else -1)
    indices = range(index, 0) if index < 0 else range(index)
    return Element._of({Monomial._from_canonical(tuple((i, e) for i in indices)): 1})


def d_dx() -> Derivation:
    """The derivation d/dx, defined on the whole generator tower."""
    return Derivation("d/dx", rule=_ddx_image)


def x_d_dx() -> Derivation:
    """The derivation x*d/dx (the image of d/dx under the index shift)."""
    return Derivation("x*d/dx", rule=lambda i: Element.gen(0) * _ddx_image(i))
