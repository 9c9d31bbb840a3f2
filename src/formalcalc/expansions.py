"""Closed-form formal Taylor expansions, independent of the derivation engine.

With l_0 = x, l_1 = log x and l_n = log l_(n-1), the shift
exp(y d/dx) l_n^e = l_n(x+y)^e has one closed formula for every n >= 0,
``iterated_log_series``: n = 0 gives (x+y)^e (``binomial_series``) and
n = 1 gives (log(x+y))^e (``log_power_series``; ``log_series`` at e = 1).
The tests check it against ``exp_series`` of d/dx on the same power; the
two routes share no code beyond the algebra itself.

The formula sums over the descending chains k = a_0 >= a_1 >= ... >= a_n >= 1
of y^k (for k = 0, the lone term l_n^e; for n = 0, the lone chain (k), of
weight 1 in every form).  The chain a adds binom(e, a_n) (a_n!/k!) weight(a)
l_n^(e - a_n) prod_{i<n} l_i^(-a_i) to y^k, with one of three weights:

* ``"stirling"`` — (-1)^(a_0+a_n) prod stirling1(a_i, a_{i+1});
* ``"chain"`` — (-1)^(a_0+a_n) stirling_chain(a_n, ..., a_0);
* ``"symmetric"`` — prod signed_esym(a_i - a_{i+1}, a_{i+1}).

The Stirling formula sums over all tuples j_0 >= ... >= j_n >= 0, and the
symmetric one over compositions j_0 + ... + j_n = k with parts >= 0 (the
a_i are their suffix sums).  Only the chains give nonzero terms: a tuple
that drops from a positive entry to 0 has a factor stirling1(a, 0) = 0
(Graham, Knuth and Patashnik, section 6.1), or signed_esym(m, 0) = 0 for
m > 0, whose m factors include 0.  That the formulas agree (and agree with
the engine) is the point of the combinatorial identities; the tests treat
any disagreement as an error.

Only falling(e, a_n) and the top power l_n^(e - a_n) depend on the
exponent.  So each formula's y^k row, the map from chain to integer
weight, is its skeleton: enumerated once per ``(n, k, form)`` and kept in
the module table ``_SKELETONS``.  A row holds the lower powers
prod_{i<n} l_i^(-a_i), j_n = a_n and the weight, never a parameter;
another exponent, a lower order or another term of ``closed_form_series``
reuses it.  The forms keep separate rows, so their agreement stays a real
check.  The table keeps rows while it holds at most ``_SKELETON_CAP``
cells (one per entry plus one per lower power); a row past the cap is
built, used and not kept.

The formula builds its numerators with integer coefficients, from
``falling_row`` and integer weights.  So it wraps them with ``YSeries._of``
as they are, and never pays for ``_cleared``'s search for a common
denominator, which would always find 1.  Nor does it multiply a ParamPoly
per chain: a chain's value is the packed terms of its ``falling_row`` entry
times the weight, already in stored form and wrapped once.
"""

from __future__ import annotations

from math import prod

from .algebra import Element, Exponent, Monomial, YSeries, _sum_series, falling_row
from .combinatorics import _descending_chains, signed_esym, stirling1, stirling_chain
from .params import Coeff, ParamPoly, Scalar

FORMS = ("stirling", "chain", "symmetric")


# A skeleton row (see the module docstring) is a tuple of entries
# (lower, j_n, weight) of a chain a: ``lower`` holds prod_{i<n} l_i^(-a_i) as
# canonical (index, Exponent) pairs, j_n = a_n is the drop of the top power,
# and the weight is a nonzero int.  Rows are never evicted.
_Row = tuple[tuple[tuple[tuple[int, Exponent], ...], int, int], ...]
_SKELETON_CAP = 1 << 16  # cells: one per entry plus one per lower power
_SKELETONS: dict[tuple[int, int, str], _Row] = {}
_skeleton_cells = 0  # the cells held in _SKELETONS


# Each form's weight of a chain a = (k = a_0 >= a_1 >= ... >= a_n >= 1); never 0.
_WEIGHTS = {
    "stirling": lambda a: (-1) ** (a[0] + a[-1]) * prod(map(stirling1, a, a[1:])),
    "chain": lambda a: (-1) ** (a[0] + a[-1]) * stirling_chain(a[::-1]),
    "symmetric": lambda a: prod(signed_esym(p - q, q) for p, q in zip(a, a[1:])),
}


def _skeleton(n: int, k: int, form: str) -> _Row:
    """The skeleton row of y^k, from the table or built by the formula."""
    global _skeleton_cells
    row = _SKELETONS.get((n, k, form))
    if row is not None:
        return row
    if k == 0:
        row = (((), 0, 1),)  # the lone term l_n^e
    else:
        weight = _WEIGHTS[form]
        pairs: dict[tuple[int, int], tuple[int, Exponent]] = {}  # one pair object per power
        row = tuple(
            (
                tuple(pairs.setdefault((i, d), (i, Exponent.of(-d))) for i, d in enumerate(a[:n])),
                a[n],
                weight(a),
            )
            for a in ((k, *js) for js in _descending_chains(n, k, 1))
        )
    cells = sum(len(lower) + 1 for lower, _, _ in row)
    if _skeleton_cells + cells <= _SKELETON_CAP:
        _SKELETONS[n, k, form] = row
        _skeleton_cells += cells
    return row


def iterated_log_series(
    n: int, exponent: "Exponent | Scalar", order: int, form: str = "stirling"
) -> YSeries:
    """l_n(x+y)^e for any n >= 0 (l_0 = x), by one of the three summation formulas."""
    if n < 0:
        raise ValueError(
            f"no closed-form expansion for {Monomial.gen(n, exponent)}; "
            "negative tower indices are engine-only"
        )
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
            c = falls[jn]  # an int, or a ParamPoly whose packed terms times an int stay stored
            if type(c) is ParamPoly or c:  # the chains are distinct, and so are their monomials
                terms[Monomial._from_canonical(lower + tops[jn])] = c * weight if type(c) is int else (
                    ParamPoly._of({key: v * weight for key, v in c._terms.items()}))
        num.append(Element._of(terms))
    return YSeries._of(num, den)


def binomial_series(exponent: "Exponent | Scalar", order: int) -> YSeries:
    """(x+y)^e to y-order N: the tower formula at n = 0."""
    return iterated_log_series(0, exponent, order)


def log_series(order: int) -> YSeries:
    """log(x+y) to y-order N: the tower formula at n = 1, e = 1."""
    return iterated_log_series(1, 1, order)


def log_power_series(exponent: "Exponent | Scalar", order: int) -> YSeries:
    """(log(x+y))^e to y-order N: the tower formula at n = 1."""
    return iterated_log_series(1, exponent, order)


def closed_form_series(a: Element, order: int, form: str = "stirling") -> YSeries:
    """Expand a sum of products of nonnegative-index generator powers.

    This is the closed-form route behind the CLI: each generator power is
    replaced by its closed-form series, and the products are summed in one
    pass.  Negative tower indices have no printed closed form and are rejected.
    """
    if order < 0:
        raise ValueError("order must be nonnegative")
    terms = []
    for mono, coeff in a.items():
        term = None  # the coefficient scales the first factor, which has the fewest terms
        for index, e in mono:
            series = iterated_log_series(index, e, order, form)
            term = series * coeff if term is None else term * series
        terms.append(YSeries.of_element(coeff, order) if term is None else term)
    return terms[0] if len(terms) == 1 else _sum_series(terms or [YSeries.zero(order)])
