"""Higher derivatives of composite functions, done with a formal alphabet.

Work in the polynomial algebra on two symbol families: ``y_i`` (i >= 0),
standing for the i-th derivative of an outer function evaluated at an inner
one, and ``x_j`` (j >= 1), standing for the j-th derivative of the inner
function.  The derivation

    D y_i = y_{i+1} * x_1,      D x_j = x_{j+1}

then computes composite-function derivatives symbolically: D^n y_0 is the
n-th Bell/Faa di Bruno polynomial, with one monomial per partition of n.

``compose_expansion`` runs the resulting composition formula against the
formal Taylor theorem and insists they agree.  The direct route composes
h = f(g(x)) and reads the y^k coefficient of h(x+y) = exp(y d/dx) h as
h^(k)(x) / k!; it never reads D^n y_0, so the two routes share no table.

``derivative_tower`` reads D^n y_0 from the module table ``_TOWER``, bounded
by ``_TOWER_CAP`` terms; ``taylor_coefficients`` keeps the rows divided by n!
in ``_TAYLOR``.  One evaluator substitutes values into the rows, for both
``compose_series_from_table`` and ``substitute_weights``.

The same alphabet defines the umbral shift: given a weight sequence B with
B_1 != 0, the substitution ``substitute_weights`` (y_j -> 1, x_i -> B_i * x)
turns D^n y_0 into a polynomial p_n(x) = sum_k B(n, k) x^k, whose
coefficients are the partial Bell polynomials in the weights, and there is
a unique linear operator on polynomials with  shift^n(1) = p_n  for all n.
The p_n are of binomial type, so the operator is x * c(d/dx) for a power
series c (S. Roman, *The Umbral Calculus*, 1984, ch. 3).  ``umbral_shift``
takes the B(n, k) from their recurrence (L. Comtet, *Advanced
Combinatorics*, 1974, section 3.3), solves a triangular system for the
coefficients of c, writes the images of the powers of x in closed form,
and re-verifies the defining property before returning.  It never builds
the tower: the tests keep the tower route (substitute, then solve for each
image) as its oracle.
"""

from __future__ import annotations

from collections import defaultdict
from fractions import Fraction
from math import comb, factorial
from operator import itemgetter
from typing import Mapping, NamedTuple, Sequence

from . import qpoly, render
from .params import Sparse, _stored, _sum_into, canonical_coeff
from .qpoly import QPoly

# A symbol-power table: ((index, exponent), ...) sorted, exponents >= 1.
SymKey = tuple[tuple[int, int], ...]
TermKey = tuple[SymKey, SymKey]  # (outer powers, inner powers)


def _merge_keys(a: SymKey, b: SymKey) -> SymKey:
    """The product of two symbol-power tables."""
    return tuple(sorted(_sum_into(dict(a), b).items()))


class ConsistencyError(RuntimeError):
    """The two composition routes disagreed; indicates an engine bug."""


def _step(key: SymKey, pos: int) -> SymKey:
    """``key`` with one power of the symbol at ``pos`` moved to the next index."""
    i, e = key[pos]
    head = key[:pos] + ((i, e - 1),) if e > 1 else key[:pos]
    rest = key[pos + 1 :]
    if rest and rest[0][0] == i + 1:
        return head + ((i + 1, rest[0][1] + 1),) + rest[1:]
    return head + ((i + 1, 1),) + rest


def _times_x1(xs: SymKey) -> SymKey:
    """``xs`` with one more power of x_1, the lowest inner index."""
    if xs and xs[0][0] == 1:
        return ((1, xs[0][1] + 1),) + xs[1:]
    return ((1, 1),) + xs


class FdbPoly(Sparse):
    """Polynomial in the composite-derivative alphabet y_0, y_1, ..., x_1, x_2, ...

    A key is a ``TermKey``, the outer and the inner powers.  A coefficient
    is held as an ``int`` when it is integral and as a ``Fraction``
    otherwise, so integer arithmetic runs wherever it can.
    """

    __slots__ = ()
    _UNIT = ((), ())
    _SCALARS = (int, Fraction)

    @staticmethod
    def _key_mul(a: TermKey, b: TermKey) -> TermKey:
        return (_merge_keys(a[0], b[0]), _merge_keys(a[1], b[1]))

    @classmethod
    def outer_symbol(cls, i: int) -> FdbPoly:
        """y_i, the i-th outer-derivative symbol."""
        if i < 0:
            raise ValueError("outer symbols are indexed from 0")
        return cls({(((i, 1),), ()): 1})

    @classmethod
    def inner_symbol(cls, j: int) -> FdbPoly:
        """x_j, the j-th inner-derivative symbol."""
        if j < 1:
            raise ValueError("inner symbols are indexed from 1")
        return cls({((), ((j, 1),)): 1})

    def sorted_terms(self) -> list[tuple[TermKey, Fraction | int]]:
        return sorted(self._terms.items(), key=itemgetter(0), reverse=True)

    def derive(self) -> FdbPoly:
        """Apply D (y_i -> y_{i+1} x_1, x_j -> x_{j+1}) by the Leibniz rule."""
        out: dict[TermKey, Fraction | int] = {}
        for (ys, xs), c in self._terms.items():
            xs_x1 = _times_x1(xs)
            _sum_into(out, (((_step(ys, pos), xs_x1), c * e) for pos, (_, e) in enumerate(ys)))
            _sum_into(out, (((ys, _step(xs, pos)), c * e) for pos, (_, e) in enumerate(xs)))
        return FdbPoly._of(_stored(out))

    def substitute_weights(self, weights: Sequence[Fraction | int]) -> QPoly:
        """Send every y_j to 1 and every x_i to weights[i-1] * x.

        The result is a polynomial in x whose degree records how many inner
        symbols each monomial carried.  Referencing x_i beyond the end of
        the sequence is an error (the substitution is undefined there).
        """
        inner = {i: qpoly.normalize([0, v]) for i, v in enumerate(weights, 1)}
        try:
            return _evaluate([self], defaultdict(lambda: [1]), inner)[0]
        except KeyError as missing:
            raise ValueError(
                f"inner symbol x_{missing.args[0]} has no weight; sequence has length {len(inner)}"
            ) from None

    def __str__(self) -> str:
        return render.fdbpoly(render.TEXT, self)

    def __repr__(self) -> str:
        return f"FdbPoly({self})"


# D^n y_0 for n = 0, 1, ..., grown on demand and shared between calls, since an
# FdbPoly is never changed in place.  A row is kept while the table holds at
# most ``_TOWER_CAP`` terms in all (orders 0..27 fit, about 4 MB); a row past
# the cap is built, used and not kept.  Rows are never evicted.
_TOWER_CAP = 1 << 14  # terms, one per partition of each kept order
_TOWER: list[FdbPoly] = []
_TAYLOR: list[FdbPoly] = []  # D^n y_0 / n!, for the orders _TOWER keeps


def derivative_tower(order: int) -> list[FdbPoly]:
    """[D^0 y_0, D^1 y_0, ..., D^order y_0], undivided, as a fresh list."""
    if order < 0:
        raise ValueError("order must be nonnegative")
    tower = _TOWER[: order + 1]
    while len(tower) <= order:
        row = tower[-1].derive() if tower else FdbPoly.outer_symbol(0)
        if len(tower) == len(_TOWER) and sum(map(len, _TOWER)) + len(row) <= _TOWER_CAP:
            _TOWER.append(row)
        tower.append(row)
    return tower


def taylor_coefficients(order: int) -> list[FdbPoly]:
    """Coefficients D^n y_0 / n! of the exponentiated derivation, n = 0..order.

    Returns a fresh list.  The divided rows are kept in ``_TAYLOR`` for the
    orders ``_TOWER`` keeps; a row past those is built, used and not kept.
    """
    rows = _TAYLOR[: order + 1]
    for n, p in enumerate(derivative_tower(order)[len(rows) :], len(rows)):
        rows.append(p * Fraction(1, factorial(n)))
        if n == len(_TAYLOR) < len(_TOWER):
            _TAYLOR.append(rows[-1])
    return rows


substitute_weights = FdbPoly.substitute_weights


def compose_series_direct(
    f: Sequence[Fraction | int], g: Sequence[Fraction | int], order: int
) -> list[QPoly]:
    """y-coefficients of f(g(x+y)) by the formal Taylor theorem.

    h(x+y) = exp(y d/dx) h for the polynomial h = f(g(x)), so the y^k
    coefficient is h^(k)(x) / k! = sum_m binom(m, k) h_m x^(m-k).  Reads no
    table of D^n y_0.
    """
    if order < 0:
        raise ValueError("order must be nonnegative")
    h = qpoly.compose(qpoly.from_coeffs(f), qpoly.from_coeffs(g))
    return [
        qpoly.normalize([comb(m, k) * h[m] for m in range(k, len(h))])
        for k in range(order + 1)
    ]


def _evaluate(
    rows: Sequence[FdbPoly], outer: Mapping[int, QPoly], inner: Mapping[int, QPoly]
) -> list[QPoly]:
    """Each row at y_i -> outer[i] and x_j -> inner[j], as one QPoly per row.

    Reads a value only for a symbol the rows carry, and builds each power of
    it once per call, from the power below it."""
    tables: tuple[dict, dict] = ({}, {})  # outer, inner: powers[i][e] = value_i^e
    out: list[QPoly] = []
    for row in rows:
        acc: QPoly = []
        for key, c in row.items():
            prod = qpoly.const(c)
            for values, powers, symbols in zip((outer, inner), tables, key):
                for i, e in symbols:
                    table = powers.get(i) or powers.setdefault(i, [[1], values[i]])
                    while len(table) <= e:
                        table.append(qpoly.mul(table[-1], table[1]))
                    prod = qpoly.mul(prod, table[e])
            acc = qpoly.add(acc, prod)
        out.append(acc)
    return out


def compose_series_from_table(
    f: Sequence[Fraction | int], g: Sequence[Fraction | int], order: int
) -> list[QPoly]:
    """y-coefficients of f(g(x+y)) through the composite-derivative table.

    Substitutes y_i -> f^(i)(g(x)) and x_j -> g^(j)(x) into D^n y_0 / n!;
    ``derivative_tower`` refuses a negative order.
    """
    d, gq = qpoly.from_coeffs(f), qpoly.from_coeffs(g)
    outer, inner = {0: qpoly.compose(d, gq)}, {0: gq}
    for i in range(1, order + 1):
        d = qpoly.derivative(d)
        outer[i], inner[i] = qpoly.compose(d, gq), qpoly.derivative(inner[i - 1])
    rows = _evaluate(derivative_tower(order), outer, inner)
    return [qpoly.scale(row, Fraction(1, factorial(n))) for n, row in enumerate(rows)]


def compose_expansion(
    f: Sequence[Fraction | int], g: Sequence[Fraction | int], order: int
) -> list[QPoly]:
    """Both composition routes, asserted equal; returns the coefficients.

    Raises ConsistencyError with the first differing y-power if the direct
    expansion and the derivative-table substitution ever disagree.
    """
    direct = compose_series_direct(f, g, order)
    tabled = compose_series_from_table(f, g, order)
    for k, (a, b) in enumerate(zip(direct, tabled)):
        if a != b:
            raise ConsistencyError(
                f"composition routes differ at y^{k}: "
                f"direct {qpoly.to_string(a)} vs table {qpoly.to_string(b)}"
            )
    return direct


class UmbralShift(NamedTuple):
    """The linear operator solved from a weight sequence.

    ``images[k]`` is the image of x^k; every image has degree k+1 with
    leading coefficient weights[0].
    """

    weights: tuple[Fraction, ...]
    images: list[QPoly]

    @property
    def depth(self) -> int:
        return len(self.images)

    def image_of_power(self, k: int) -> QPoly:
        if not 0 <= k < len(self.images):
            raise ValueError(f"operator solved only for powers below {len(self.images)}")
        return list(self.images[k])

    def apply(self, p: Sequence[Fraction | int]) -> QPoly:
        """Apply to a polynomial written in the power basis."""
        pq = qpoly.from_coeffs(p)
        if len(pq) > len(self.images):
            raise ValueError(
                f"operator solved only for degree < {len(self.images)}; "
                f"got degree {len(pq) - 1}"
            )
        out: list[Fraction | int] = [0] * (len(pq) + 1)
        for c, image in zip(pq, self.images):
            if c:
                for i, v in enumerate(image):
                    out[i] += c * v
        return qpoly.normalize(out)


def _partial_bell(w: Sequence[Fraction | int], depth: int) -> list[list[Fraction | int]]:
    """Rows [B(n, 0), ..., B(n, n)] of the partial Bell polynomials at w, n <= depth.

    B(0, 0) = 1 and B(n, k) = sum_i binom(n-1, i-1) w_i B(n-i, k-1)
    (Comtet, section 3.3); ``w`` holds w_1, w_2, ... through w_depth.
    """
    bell: list[list[Fraction | int]] = [[1]]
    for n in range(1, depth + 1):
        row: list[Fraction | int] = [0] * (n + 1)
        for i in range(1, n + 1):
            if w[i - 1]:
                f = comb(n - 1, i - 1) * w[i - 1]
                for k, b in enumerate(bell[n - i], 1):
                    if b:
                        row[k] += f * b
        bell.append(row)
    return bell


def umbral_shift(weights: Sequence[Fraction | int], depth: int) -> UmbralShift:
    """Solve for the operator with shift^n(1) = p_n, n = 1..depth.

    Here p_n is D^n y_0 under the weight substitution, sum_k B(n, k) x^k.
    Weights beyond the given sequence are taken to be zero; the first weight
    must be nonzero (it is the leading coefficient of every image, and the
    solve pivots on its powers).  The images come from the closed form
    shift = x * sum_j (d_j / j!) (d/dx)^j, so x^k goes to
    sum_j d_j binom(k, j) x^(k-j+1), where d_0 = w_1 and the x^1 coefficient
    of shift(p_n) = p_(n+1) gives  w_(n+1) = sum_(1<=j<=n) d_j B(n, j),
    triangular with pivot B(n, n) = w_1^n.  The defining property is
    re-checked for all n <= depth before the operator is returned.
    """
    if depth < 1:
        raise ValueError("depth must be at least 1")
    w = [Fraction(v) for v in weights]
    if not w:
        raise ValueError("no weight given")
    if not w[0]:
        raise ValueError("first weight must be nonzero; the recursion pivots on it")
    w += [Fraction(0)] * max(0, depth - len(w))

    ws = [canonical_coeff(v) for v in w]
    bell = _partial_bell(ws, depth)
    d: list[Fraction | int] = [ws[0]]
    for n in range(1, depth):
        row = bell[n]
        residue = ws[n] - sum(d[j] * row[j] for j in range(1, n))
        d.append(canonical_coeff(Fraction(residue, row[n])))
    images = [
        qpoly.normalize([0] + [d[k - i] * comb(k, i) for i in range(k + 1)])
        for k in range(depth)
    ]

    shift = UmbralShift(tuple(w), images)
    state: QPoly = qpoly.const(1)
    for m in range(1, depth + 1):
        state = shift.apply(state)
        target = qpoly.normalize(bell[m])
        if state != target:
            raise ConsistencyError(
                f"umbral recursion failed self-check at depth {m}: "
                f"{qpoly.to_string(state)} != {qpoly.to_string(target)}"
            )
    return shift
