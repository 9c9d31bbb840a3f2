"""Closed-form formal Taylor expansions, independent of the derivation engine.

Each function here evaluates a known closed formula for a shifted power —
``(x+y)^e``, ``log(x+y)``, ``(log(x+y))^e``, or the iterated-log power
``l_n(x+y)^e`` — directly from its combinatorial description.  The results
are cross-checked in the tests against ``exp_series`` of d/dx applied to
the corresponding generator power; the two routes share no code beyond the
algebra itself.

``iterated_log_series`` offers the three equivalent summation formulas:

* ``"stirling"`` — a sum over all weakly descending tuples
  j_0 >= j_1 >= ... >= j_n >= 0 with Stirling-product weight
  prod stirling1(j_i, j_{i+1}) and sign (-1)^(j_0+j_n); contributes to y^{j_0}.
* ``"chain"`` — a sum over chains 1 <= j_n <= ... <= j_1 <= j_0 = k
  weighted by the chain recursion stirling_chain(j_n, ..., j_0).
* ``"symmetric"`` — a sum over compositions j_0 + ... + j_n = k with
  signed-elementary-symmetric weights signed_esym(j_i, a_{i+1}), where
  a_i is the suffix sum j_i + ... + j_n.

That these agree (and agree with the engine) is the point of the
combinatorial identities; the tests treat any disagreement as an error.
"""

from __future__ import annotations

from math import factorial, prod

from .algebra import Element, Exponent, Monomial, YSeries, binom, falling_row
from .combinatorics import (
    _compositions,
    _descending_chains,
    signed_esym,
    stirling1,
    stirling_chain,
)
from .params import Coeff, Scalar

FORMS = ("stirling", "chain", "symmetric")


def binomial_series(exponent: "Exponent | Scalar", order: int) -> YSeries:
    """(x+y)^e to y-order N: sum_n binom(e,n) x^(e-n) y^n; numerators falling(e,n) x^(e-n)."""
    if order < 0:
        raise ValueError("order must be nonnegative")
    e = Exponent.of(exponent)
    den, row = falling_row(e, order)
    return YSeries.divided([Element({Monomial.gen(0, e - n): f}) for n, f in enumerate(row)], den)


def log_series(order: int) -> YSeries:
    """log(x+y) to order N: log x + sum (-1)^(i-1) x^-i y^i/i; numerators (-1)^(i-1) (i-1)! x^-i."""
    if order < 0:
        raise ValueError("order must be nonnegative")
    num = [Element({Monomial.gen(0, -1 - k): (-1) ** k * factorial(k)}) for k in range(order)]
    return YSeries.divided([Element.gen(1), *num])


def log_power_series(exponent: "Exponent | Scalar", order: int) -> YSeries:
    """(log(x+y))^e via the outer binomial over log(1 + y/x).

    log(x+y) = log x + L with L = log(1+y/x) of y-valuation 1, so
    (log(x+y))^e = sum_{j<=N} binom(e,j) (log x)^(e-j) L^j exactly
    through y-order N.
    """
    if order < 0:
        raise ValueError("order must be nonnegative")
    e = Exponent.of(exponent)
    inner = log_series(order) - Element.gen(1)  # L = log(1+y/x), valuation 1
    out = YSeries.zero(order)
    lpower = YSeries.of_element(Element.one(), order)
    for j in range(order + 1):
        term = lpower * Element({Monomial.gen(1, e - j): binom(e, j)})
        out = out + term
        lpower = lpower * inner
    return out


def _tower_monomial(n: int, e: Exponent, drops: tuple[int, ...]) -> Monomial:
    """l_n^(e - drops[n]) * prod_{i<n} l_i^(-drops[i])."""
    powers = [(i, Exponent.of(-drops[i])) for i in range(n) if drops[i]]
    top = e - drops[n]
    if not top.is_zero:
        powers.append((n, top))
    return Monomial._from_canonical(tuple(powers))  # indices ascending and distinct


def iterated_log_series(
    n: int, exponent: "Exponent | Scalar", order: int, form: str = "stirling"
) -> YSeries:
    """l_n(x+y)^e by one of the three closed summation formulas."""
    if n < 1:
        raise ValueError("tower index must be >= 1 (use binomial_series for x itself)")
    if order < 0:
        raise ValueError("order must be nonnegative")
    if form not in FORMS:
        raise ValueError(f"unknown formula {form!r}; choose from {FORMS}")
    e = Exponent.of(exponent)
    den, falls = falling_row(e, order)
    # terms[k] collects the (monomial, numerator) pairs of y^k: the
    # coefficient binom(e, j_n) * j_n!/k! * weight is falling(e, j_n)/k! * weight
    terms: list[list[tuple[Monomial, Coeff]]] = [[] for _ in range(order + 1)]

    def add(k: int, drops: tuple[int, ...], jn: int, weight: int) -> None:
        """Add den * falling(e, j_n) * weight times the tower monomial to y^k."""
        terms[k].append((_tower_monomial(n, e, drops), falls[jn] * weight))

    if form == "stirling":
        for j0 in range(order + 1):
            # descending tuples (j_0, ..., j_n); a drop to 0 kills the bracket
            # unless everything after it is 0 too, so enumerate with floor 0
            # and skip zero products.
            for js in _descending_chains(n, j0, 0):
                tup = (j0,) + js
                weight = prod(stirling1(tup[i], tup[i + 1]) for i in range(n))
                if weight:
                    jn = tup[n]
                    add(j0, tup, jn, -weight if (j0 + jn) & 1 else weight)

    elif form == "chain":
        terms[0].append((Monomial.gen(n, e), den))
        for k in range(1, order + 1):
            for js in _descending_chains(n, k, 1):
                tup = (k,) + js  # (j_0=k, j_1, ..., j_n), all >= 1
                s_value = stirling_chain(tuple(reversed(tup)))
                if s_value:
                    jn = tup[n]
                    add(k, tup, jn, -s_value if (k + jn) & 1 else s_value)

    else:  # symmetric
        for k in range(order + 1):
            for js in _compositions(k, n + 1, 0):
                suffix = [0] * (n + 2)
                for i in range(n, -1, -1):
                    suffix[i] = suffix[i + 1] + js[i]
                weight = prod(signed_esym(js[i], suffix[i + 1]) for i in range(n))
                if weight:
                    add(k, tuple(suffix[: n + 1]), js[n], weight)

    return YSeries.divided([Element.from_terms(t) for t in terms], den)


def closed_form_series(a: Element, order: int, form: str = "stirling") -> YSeries:
    """Expand a sum of products of nonnegative-index generator powers.

    This is the closed-form route behind the CLI: each generator power is
    replaced by its closed-form series and the results are multiplied out.
    Negative tower indices have no printed closed form and are rejected.
    """
    if order < 0:
        raise ValueError("order must be nonnegative")
    out = YSeries.zero(order)
    for mono, coeff in a.items():
        term = YSeries.of_element(Element.const(coeff), order)
        for index, e in mono.powers:
            if index < 0:
                raise ValueError(
                    f"no closed-form expansion for {Monomial.gen(index, e)}; "
                    "negative tower indices are engine-only"
                )
            factor = (
                binomial_series(e, order)
                if index == 0
                else iterated_log_series(index, e, order, form)
            )
            term = term * factor
        out = out + term
    return out
