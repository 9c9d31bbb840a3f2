"""Index-shift substitution maps and the transport of Taylor expansions.

The algebra map sending every generator l_n to l_{n+k} intertwines the two
derivations of interest: shifting up by one turns d/dx into x*d/dx.  That
makes the exponential of x*d/dx computable from the exponential of d/dx:

    exp(y x d/dx) a  =  shift(1) exp(y d/dx) shift(-1) a,

which is ``lifted_exp`` below.  ``verify_intertwining`` checks the two
operator identities on a window of generators and on random products from
``checks.random_element``, imported when the sweep runs.
"""

from __future__ import annotations

from random import Random
from typing import Iterator, NamedTuple

from .algebra import Element, YSeries
from .derivations import d_dx, x_d_dx
from .report import VerifyReport, sweep


class IndexShift(NamedTuple):
    """The algebra map l_n -> l_{n+offset}: monomials relabelled, coefficients as stored."""

    offset: int

    def __call__(self, a: Element) -> Element:
        return Element._of({mono.shift(self.offset): c for mono, c in a.items()})

    def inverse(self) -> IndexShift:
        return IndexShift(-self.offset)


def lifted_exp(a: Element, order: int) -> YSeries:
    """exp(y x d/dx) applied to ``a``, computed through the index shift.

    Conjugating by the shift reduces to the plain d/dx exponential:
    shift down, expand, shift back up.  Agrees with running x*d/dx
    directly (that equality is what the tests assert).
    """
    up, down = IndexShift(1), IndexShift(-1)
    return d_dx().exp_series(down(a), order).map(up)


def verify_intertwining(
    max_index: int = 6, product_trials: int = 20, seed: int = 7
) -> VerifyReport:
    """Check shift(1) d/dx = (x d/dx) shift(1) and its inverse twin.

    Both identities are checked on every generator with |index| <=
    max_index and on ``product_trials`` random products of one to three
    generator powers drawn from the same window.
    """
    from .checks import random_element

    up, down = IndexShift(1), IndexShift(-1)
    ddx, xddx = d_dx(), x_d_dx()

    def both_hold(a: Element, label: object) -> Iterator[str | None]:
        yield None if up(ddx.apply(a)) == xddx.apply(up(a)) else (
            f"shift(1) d/dx != (x d/dx) shift(1) on {label}"
        )
        yield None if down(xddx.apply(a)) == ddx.apply(down(a)) else (
            f"shift(-1) (x d/dx) != d/dx shift(-1) on {label}"
        )

    def outcomes() -> Iterator[str | None]:
        for index in range(-max_index, max_index + 1):
            yield from both_hold(Element.gen(index), f"generator l_{index}")
        rng = Random(seed)
        for _ in range(product_trials):
            a = random_element(
                rng, max_terms=1, max_factors=3, index_window=(-max_index, max_index)
            )
            yield from both_hold(a, a)

    return sweep("intertwine", outcomes())
