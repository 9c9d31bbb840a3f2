"""Randomized identity sweeps and the random-value generators they share.

The generators are deliberately small-biased: a couple of terms, generator
indices in a narrow window, exponents a few units either side of zero, and
coefficients from a short menu of nonzero rationals.  Identity failures in
this algebra show up at tiny sizes; what matters is exercising the sign
and index bookkeeping, not bulk.

``qpoly`` and ``faadibruno`` are imported only inside ``random_qpoly`` and
``verify_composition``, so the element sweeps load no Faa di Bruno code.
"""

from __future__ import annotations

from fractions import Fraction
from random import Random
from typing import TYPE_CHECKING, Iterator

from .algebra import Element, Exponent, Monomial
from .derivations import Derivation, d_dx, x_d_dx
from .params import ParamPoly
from .report import VerifyReport, sweep

if TYPE_CHECKING:
    from .qpoly import QPoly

_COEFFS = (
    Fraction(1), Fraction(-1), Fraction(2), Fraction(-2),
    Fraction(1, 2), Fraction(3), Fraction(-1, 3),
)


def random_exponent(rng: Random, params: tuple[str, ...] = ()) -> Exponent:
    """A small exponent, constant part in -2..2, possibly involving the given parameter names."""
    const = Fraction(rng.randrange(-2, 3))
    linear = {}
    for name in params:
        if rng.random() < 0.5:
            linear[name] = rng.choice([-1, 1, 2])
    return Exponent(const, tuple(linear.items()))


def random_element(
    rng: Random,
    max_terms: int = 2,
    max_factors: int = 2,
    index_window: tuple[int, int] = (-3, 3),
    params: tuple[str, ...] = (),
) -> Element:
    """A small random element; never the zero element."""
    lo, hi = index_window
    out = Element.zero()
    for _ in range(rng.randrange(1, max_terms + 1)):
        mono = Monomial.one()
        for _ in range(rng.randrange(1, max_factors + 1)):
            index = rng.randrange(lo, hi + 1)
            e = random_exponent(rng, params)
            if e.is_zero:
                e = Exponent(1)
            mono = mono * Monomial.gen(index, e)
        out = out + Element({mono: ParamPoly.const(rng.choice(_COEFFS))})
    if not out:  # coefficients happened to cancel; retry
        return random_element(rng, max_terms, max_factors, index_window, params)
    return out


def random_qpoly(rng: Random, max_degree: int) -> QPoly:
    """Dense rational polynomial with small integer coefficients; may be zero."""
    from . import qpoly

    degree = rng.randrange(0, max_degree + 1)
    return qpoly.normalize([rng.randrange(-3, 4) for _ in range(degree + 1)])


def verify_automorphism(
    trials: int = 200,
    order: int = 6,
    max_index: int = 3,
    seed: int = 11,
    derivations: "tuple[Derivation, ...] | None" = None,
) -> VerifyReport:
    """exp(yD)(a*b) = exp(yD)(a) * exp(yD)(b) on random element pairs.

    Run for each derivation (default: d/dx and x*d/dx); the product of the
    expanded series is truncated to the same order before comparison.
    """
    if derivations is None:
        derivations = (d_dx(), x_d_dx())
    rng = Random(seed)

    def outcomes() -> Iterator[str | None]:
        for _ in range(trials):
            a = random_element(rng, index_window=(-max_index, max_index))
            b = random_element(rng, index_window=(-max_index, max_index))
            for deriv in derivations:
                lhs = deriv.exp_series(a * b, order)
                rhs = deriv.exp_series(a, order) * deriv.exp_series(b, order)
                yield None if lhs == rhs else f"{deriv.name} on a={a}, b={b}"

    return sweep("automorphism", outcomes())


def verify_composition(
    trials: int = 100, max_degree: int = 6, order: int = 8, seed: int = 13
) -> VerifyReport:
    """Dual-path composite expansion on random polynomial pairs."""
    from . import qpoly
    from .faadibruno import ConsistencyError, compose_expansion

    rng = Random(seed)

    def outcomes() -> Iterator[str | None]:
        for _ in range(trials):
            f = random_qpoly(rng, max_degree)
            g = random_qpoly(rng, max_degree)
            try:
                compose_expansion(f, g, order)
                yield None
            except ConsistencyError as exc:
                yield f"f={qpoly.to_string(f)}, g={qpoly.to_string(g)}: {exc}"

    return sweep("faa-di-bruno", outcomes())
