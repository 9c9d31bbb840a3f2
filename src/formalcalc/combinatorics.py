"""Stirling-cycle numbers, signed symmetric sums, and the chain recursion.

Three interlocking combinatorial families drive the closed-form expansions:

* ``stirling1(k, j)`` — unsigned Stirling numbers of the first kind,
  read from rows built by the recurrence
  c(k, j) = c(k-1, j-1) + (k-1)*c(k-1, j)
  (Graham, Knuth and Patashnik, *Concrete Mathematics*, section 6.1).
  ``stirling1_by_recurrence`` is another name for ``stirling1``.  The
  composition-sum definition
  (k!/j!) * sum 1/(i_1*...*i_j) over positive i_1+...+i_j = k
  is kept as the oracle ``stirling1_by_compositions``.

* ``signed_esym(m, n)`` — (-1)^m times the m-th elementary symmetric
  function of 0, 1, ..., m+n-1, built in one pass over the values;
  equals (-1)^m * stirling1(m+n, n).  ``signed_esym_by_combinations`` is
  the defining sum over m-subsets, kept as the oracle.

* ``stirling_chain(j_n, ..., j_0)`` — the chain-indexed recursion whose
  value factors as the product of stirling1(j_i, j_{i+1}) down the chain
  (and vanishes unless j_n <= ... <= j_0).  Two-entry chains recover
  plain Stirling numbers, which is the Lubell-style triple identity
  checked by ``verify_lubell``.
"""

from __future__ import annotations

from itertools import combinations
from math import factorial, prod
from typing import Iterator, Sequence

from .report import VerifyReport, sweep

# Row k holds stirling1(k, j) for j = 0..k; rows are appended on demand.
_STIRLING: list[list[int]] = [[1]]
_CHAIN: dict[tuple[int, ...], int] = {}


def _compositions(total: int, parts: int, floor: int) -> Iterator[tuple[int, ...]]:
    """All tuples of ``parts`` (>= 1) integers, each >= floor, summing to ``total``.

    In lexicographic order, without recursion (a tower index n asks for n+1
    parts): the next tuple moves one unit from the rightmost entry above
    ``floor``, other than the first, to its left neighbour, and the rest of
    that entry to the last place.
    """
    if total < parts * floor:
        return
    js = [floor] * (parts - 1) + [total - (parts - 1) * floor]
    while True:
        yield tuple(js)  # from a list, so built at its size, never shrunk
        j = parts - 1
        while j and js[j] == floor:
            j -= 1
        if not j:
            return
        js[j - 1] += 1
        js[j], js[-1] = floor, js[j] - 1


def stirling1(k: int, j: int) -> int:
    """Unsigned Stirling number of the first kind, from the row recurrence."""
    if k < 0 or j < 0:
        raise ValueError("stirling1 arguments must be nonnegative")
    if j > k:
        return 0
    rows = _STIRLING
    while len(rows) <= k:
        prev, n = rows[-1], len(rows) - 1
        rows.append([a + n * b for a, b in zip([0] + prev, prev + [0])])
    return rows[k][j]


def stirling1_by_compositions(k: int, j: int) -> int:
    """The same numbers from the composition-sum definition; test oracle.

    (k!/j!) * sum 1/(i_1*...*i_j) over positive i_1+...+i_j = k.  Each
    k!/(i_1*...*i_j) is an integer (the parts' product divides k!), so the
    sum is exact in integers; the division by j! must leave no remainder.
    """
    if k < 0 or j < 0:
        raise ValueError("stirling1 arguments must be nonnegative")
    if j > k:
        return 0
    if j == 0:
        return int(k == 0)
    kf = factorial(k)
    total = sum(kf // prod(c) for c in _compositions(k, j, 1))
    value, remainder = divmod(total, factorial(j))
    if remainder:
        raise ArithmeticError(f"composition sum for ({k}, {j}) is not an integer")
    return value


# a second public name for stirling1, which is the recurrence
stirling1_by_recurrence = stirling1


def stirling_rows(max_k: int) -> list[list[int]]:
    """Rows k = 0..max_k of stirling1(k, j) for j = 0..k."""
    if max_k < 0:
        raise ValueError("max_k must be nonnegative")
    return [[stirling1(k, j) for j in range(k + 1)] for k in range(max_k + 1)]


def signed_esym(m: int, n: int) -> int:
    """(-1)^m times the elementary symmetric sum e_m(0, 1, ..., m+n-1).

    One pass over the values v = 1..m+n-1 (v = 0 adds nothing), updating
    e_j += v * e_{j-1} from the top down: O(m * (m+n)) operations.
    """
    if m < 0 or n < 0:
        raise ValueError("signed_esym arguments must be nonnegative")
    e = [1] + [0] * m
    for v in range(1, m + n):
        for j in range(min(v, m), 0, -1):
            e[j] += v * e[j - 1]
    total = e[m]
    return (-1) ** m * total


def signed_esym_by_combinations(m: int, n: int) -> int:
    """The same sums over every m-subset of {0, ..., m+n-1}; test oracle."""
    if m < 0 or n < 0:
        raise ValueError("signed_esym arguments must be nonnegative")
    return (-1) ** m * sum(prod(c) for c in combinations(range(m + n), m))


def _chain_base(js: tuple[int, ...]) -> int | None:
    """S(js) on the base rows (an entry < 1, or j_0 == 1), else None."""
    if min(js) < 1:
        return 0
    if js[-1] == 1:
        return int(max(js) == 1)
    return None


def stirling_chain(chain: Sequence[int]) -> int:
    """The chain recursion S(j_n, ..., j_0), deepest index first.

    Base row: if j_0 == 1 the value is 1 when every entry is 1 and 0
    otherwise.  Any entry < 1 gives 0.  Otherwise

        S(j_n, .., j_0) = S(j_n - 1, .., j_0 - 1)
                          + sum_p (j_p - 1) * S(.., j_p - 1, .., j_0 - 1)

    where the p-th summand decrements only the last p+1 entries
    (positions p down to 0, counting from the right).  The recursion is
    j_0 calls deep, so it runs on an explicit stack: a tuple stays there
    until every tuple it sums is known.
    """
    js = tuple(chain)
    if not js:
        raise ValueError("chain must be nonempty")
    known = _CHAIN.get
    value = known(js)
    if value is None:
        value = _chain_base(js)
    if value is not None:
        return value
    stack = [js]
    while stack:
        top = stack[-1]
        waiting = len(stack)
        low = tuple(map((-1).__add__, top))  # every entry decremented
        value = 0
        for q in range(len(top)):  # q = n - p; q = 0 is the first summand
            weight = top[q] - 1 if q else 1
            if weight:
                t = top[:q] + low[q:]
                v = known(t)
                if v is None:
                    v = _chain_base(t)
                    if v is None:
                        stack.append(t)
                        continue
                value += weight * v
        if len(stack) == waiting:
            _CHAIN[top] = value
            stack.pop()
    return value


def _descending_chains(length: int, max_top: int, floor: int) -> Iterator[tuple[int, ...]]:
    """All (j_0 >= j_1 >= ... >= j_n >= floor) with j_0 <= max_top, n+1 = length.

    In lexicographic order, without recursion: the next tuple raises the
    last entry below its left neighbour (or below ``max_top``, for j_0) and
    sets every entry after it to ``floor``.
    """
    if length == 0:
        yield ()
        return
    if max_top < floor:
        return
    js = [floor] * length
    while True:
        yield tuple(js)
        i = length - 1
        while i > 0 and js[i] == js[i - 1]:
            i -= 1
        if i == 0 and js[0] == max_top:
            return
        js[i] += 1
        js[i + 1 :] = [floor] * (length - 1 - i)


def verify_chain_product(max_k: int = 6, max_n: int = 3) -> VerifyReport:
    """Check S(j_n..j_0) = prod stirling1(j_i, j_{i+1}) on all chains.

    Covers every descending chain with j_0 <= max_k and 1..max_n links,
    plus a sweep of non-monotone tuples, which must give 0.
    """

    def outcomes() -> Iterator[str | None]:
        for n in range(1, max_n + 1):
            for desc in _descending_chains(n + 1, max_k, 1):
                votes = prod(stirling1(desc[i], desc[i + 1]) for i in range(n))
                got = stirling_chain(tuple(reversed(desc)))
                yield None if got == votes else (
                    f"chain {tuple(reversed(desc))}: recursion {got} != product {votes}"
                )
            # non-chains: any tuple that violates monotonicity must vanish
            for j0 in range(1, max_k + 1):
                for j1 in range(j0 + 1, max_k + 2):
                    bad = (j1,) + (1,) * (n - 1) + (j0,)
                    yield None if stirling_chain(bad) == 0 else (
                        f"non-monotone chain {bad} gave nonzero"
                    )

    return sweep("chain-product", outcomes())


def verify_lubell(max_n: int = 8, max_pair_sum: int | None = None) -> VerifyReport:
    """Check the triple identity S(m,n) = stirling1(n,m) = e-sym sum.

    For 1 <= m <= n <= max_n: the two-entry chain value, the Stirling
    number, and the elementary symmetric sum over n-m indices drawn from
    {0, ..., n-1} must coincide.  Also checks the bracket form of the
    signed symmetric sums, (m;n) = (-1)^m stirling1(m+n, n), for
    m + n <= max_pair_sum (default max_n + 2).

    Each half keeps one side on a definition, so that no check compares
    a recurrence with itself: the subset sum in the first half, and the
    composition sum for the Stirling side of the bracket form.
    """
    if max_pair_sum is None:
        max_pair_sum = max_n + 2

    def outcomes() -> Iterator[str | None]:
        for n in range(1, max_n + 1):
            for m in range(1, n + 1):
                chain = stirling_chain((m, n))
                bracket = stirling1(n, m)
                esym = (-1) ** (n - m) * signed_esym_by_combinations(n - m, m)
                yield None if chain == bracket == esym else (
                    f"(m,n)=({m},{n}): chain {chain}, stirling {bracket}, esym {esym}"
                )
        for m in range(0, max_pair_sum + 1):
            for n in range(0, max_pair_sum - m + 1):
                if m + n == 0:
                    continue
                lhs = signed_esym(m, n)
                rhs = (-1) ** m * stirling1_by_compositions(m + n, n)
                yield None if lhs == rhs else (
                    f"(m;n)=({m};{n}): signed esym {lhs} != signed stirling {rhs}"
                )

    return sweep("lubell", outcomes())
