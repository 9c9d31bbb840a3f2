"""Dense univariate polynomials over the rationals, as coefficient lists.

``[a0, a1, a2]`` stands for a0 + a1*x + a2*x^2.  The zero polynomial is the
empty list, and normalized lists carry no trailing zeros, so equality of
normalized lists is polynomial equality.  Used by the composite-derivative
machinery, where everything is a plain polynomial in one variable.

Coefficients are held in the package's stored form (``params.canonical_coeff``):
an ``int`` when the value is integral and a ``Fraction`` otherwise, never an
integral ``Fraction`` and never a ``float``.  So integer inputs keep the
arithmetic in integers, and a ``Fraction`` appears only where a value has
a denominator.  Every function returns stored form.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Sequence

from . import render
from .params import canonical_coeff

QPoly = list[int | Fraction]


def normalize(p: Sequence[int | Fraction]) -> QPoly:
    """Stored form: each coefficient demoted or made exact, trailing zeros dropped."""
    out = [v if type(v) is int else canonical_coeff(v) for v in p]
    while out and not out[-1]:
        out.pop()
    return out


def from_coeffs(values: Iterable[Fraction | int]) -> QPoly:
    return normalize(values)


def const(c: Fraction | int) -> QPoly:
    return normalize([c])


def x_power(k: int) -> QPoly:
    return [0] * k + [1]


def coeff(p: Sequence[int | Fraction], k: int) -> int | Fraction:
    return p[k] if 0 <= k < len(p) else 0


def degree(p: Sequence[int | Fraction]) -> int:
    return len(normalize(p)) - 1  # -1 for the zero polynomial


def add(a: Sequence[int | Fraction], b: Sequence[int | Fraction]) -> QPoly:
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    for k, v in enumerate(b):
        out[k] += v
    return normalize(out)


def neg(a: Sequence[int | Fraction]) -> QPoly:
    return [-v for v in a]


def sub(a: Sequence[int | Fraction], b: Sequence[int | Fraction]) -> QPoly:
    return add(a, neg(b))


def scale(a: Sequence[int | Fraction], c: Fraction | int) -> QPoly:
    c = canonical_coeff(c)
    return normalize([v * c for v in a])


def mul(a: Sequence[int | Fraction], b: Sequence[int | Fraction]) -> QPoly:
    if not a or not b:
        return []
    out: list[int | Fraction] = [0] * (len(a) + len(b) - 1)
    for i, va in enumerate(a):
        if not va:
            continue
        for j, vb in enumerate(b):
            out[i + j] += va * vb
    return normalize(out)


def power(a: Sequence[int | Fraction], k: int) -> QPoly:
    if k < 0:
        raise ValueError("power must be nonnegative")
    out = const(1)
    for _ in range(k):
        out = mul(out, a)
    return out


def derivative(a: Sequence[int | Fraction]) -> QPoly:
    return normalize([k * v for k, v in enumerate(a)][1:])


def compose(outer: Sequence[int | Fraction], inner: Sequence[int | Fraction]) -> QPoly:
    """outer(inner(x)) by Horner's scheme."""
    out: QPoly = []
    for c in reversed(list(outer)):
        out = add(mul(out, inner), const(c))
    return out


def to_string(p: Sequence[int | Fraction]) -> str:
    return render.qpoly(render.TEXT, p)
