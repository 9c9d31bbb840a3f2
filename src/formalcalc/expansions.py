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

Only falling(e, j_n) and the top power l_n^(e - j_n) depend on the
exponent.  So each formula's y^k row, the merged map from drop tuple
(d_0, ..., d_n) to integer weight, is its skeleton: enumerated once per
``(n, k, form)`` and kept in the module table ``_SKELETONS``.  A row holds
the lower powers prod_{i<n} l_i^(-d_i), j_n = d_n and the weight, never
a parameter; another exponent, a lower order or another term of
``closed_form_series`` reuses it.  The forms keep separate rows, so their
agreement stays a real check.  The table keeps rows while it holds at most
``_SKELETON_CAP`` cells (one per entry plus one per lower power); a row
past the cap is built, used and not kept.
"""

from __future__ import annotations

from math import factorial, prod
from typing import Iterator

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


# A skeleton row (see the module docstring) is a tuple of entries
# (lower, j_n, weight): ``lower`` holds prod_{i<n} l_i^(-d_i) as canonical
# (index, Exponent) pairs, j_n = d_n is the drop of the top power, and the
# weight is a nonzero int.  Rows are never evicted.
_Row = tuple[tuple[tuple[tuple[int, Exponent], ...], int, int], ...]
_SKELETON_CAP = 1 << 16  # cells: one per entry plus one per lower power
_SKELETONS: dict[tuple[int, int, str], _Row] = {}
_skeleton_cells = 0  # the cells held in _SKELETONS


def _stirling_drops(n: int, k: int) -> Iterator[tuple[tuple[int, ...], int]]:
    """Descending (k = j_0, ..., j_n); (-1)^(j_0+j_n) prod stirling1(j_i, j_{i+1})."""
    # a drop to 0 kills the bracket unless everything after it is 0 too, so
    # enumerate with floor 0; zero products are skipped by the caller
    for js in _descending_chains(n, k, 0):
        tup = (k,) + js
        weight = prod(stirling1(tup[i], tup[i + 1]) for i in range(n))
        yield tup, -weight if (k + tup[n]) & 1 else weight


def _chain_drops(n: int, k: int) -> Iterator[tuple[tuple[int, ...], int]]:
    """Chains 1 <= j_n <= ... <= j_0 = k, sign (-1)^(j_0+j_n) times stirling_chain."""
    if k == 0:
        yield (0,) * (n + 1), 1
    for js in _descending_chains(n, k, 1):
        tup = (k,) + js
        s_value = stirling_chain(tuple(reversed(tup)))
        yield tup, -s_value if (k + tup[n]) & 1 else s_value


def _symmetric_drops(n: int, k: int) -> Iterator[tuple[tuple[int, ...], int]]:
    """Compositions j_0 + ... + j_n = k; the drops are the suffix sums a_i."""
    for js in _compositions(k, n + 1, 0):
        suffix = [0] * (n + 2)
        for i in range(n, -1, -1):
            suffix[i] = suffix[i + 1] + js[i]
        yield tuple(suffix[: n + 1]), prod(signed_esym(js[i], suffix[i + 1]) for i in range(n))


_DROPS = {"stirling": _stirling_drops, "chain": _chain_drops, "symmetric": _symmetric_drops}


def _skeleton(n: int, k: int, form: str) -> _Row:
    """The skeleton row of y^k, from the table or built by the formula."""
    global _skeleton_cells
    row = _SKELETONS.get((n, k, form))
    if row is not None:
        return row
    merged: dict[tuple[int, ...], int] = {}
    for drops, weight in _DROPS[form](n, k):
        if weight:
            merged[drops] = merged.get(drops, 0) + weight
    pairs: dict[tuple[int, int], tuple[int, Exponent]] = {}  # one pair object per power
    row = tuple(
        (
            tuple(
                pairs.setdefault((i, d), (i, Exponent.of(-d)))
                for i, d in enumerate(drops[:n])
                if d
            ),
            drops[n],
            weight,
        )
        for drops, weight in merged.items()
        if weight
    )
    cells = sum(len(lower) + 1 for lower, _, _ in row)
    if _skeleton_cells + cells <= _SKELETON_CAP:
        _SKELETONS[n, k, form] = row
        _skeleton_cells += cells
    return row


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
    # the y^k numerator of an entry is den * binom(e, j_n) * j_n! * weight,
    # which is falls[j_n] * weight, times l_n^(e - j_n) * lower
    den, falls = falling_row(e, order)
    tops = []
    for j in range(order + 1):
        top = e - j
        tops.append(() if top.is_zero else ((n, top),))
    num = []
    for k in range(order + 1):
        terms: dict[Monomial, Coeff] = {}
        for lower, jn, weight in _skeleton(n, k, form):
            c = falls[jn]
            if c:  # the merged drop tuples are distinct, and so are their monomials
                terms[Monomial._from_canonical(lower + tops[jn])] = c * weight
        num.append(Element._of(terms))
    return YSeries.divided(num, den)


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
