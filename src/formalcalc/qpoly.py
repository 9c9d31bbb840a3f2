"""Dense univariate polynomials over the rationals, as coefficient lists.

``[a0, a1, a2]`` stands for a0 + a1*x + a2*x^2.  The zero polynomial is the
empty list, and normalized lists carry no trailing zeros, so equality of
normalized lists is polynomial equality.  Used by the composite-derivative
machinery, where everything is a plain polynomial in one variable.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Sequence

from . import render

QPoly = list[Fraction]


def normalize(p: Sequence[Fraction]) -> QPoly:
    out = list(p)
    while out and not out[-1]:
        out.pop()
    return out


def from_coeffs(values: Iterable[Fraction | int]) -> QPoly:
    return normalize([Fraction(v) for v in values])


def const(c: Fraction | int) -> QPoly:
    return normalize([Fraction(c)])


def x_power(k: int) -> QPoly:
    return [Fraction(0)] * k + [Fraction(1)]


def coeff(p: Sequence[Fraction], k: int) -> Fraction:
    return p[k] if 0 <= k < len(p) else Fraction(0)


def degree(p: Sequence[Fraction]) -> int:
    return len(normalize(p)) - 1  # -1 for the zero polynomial


def add(a: Sequence[Fraction], b: Sequence[Fraction]) -> QPoly:
    n = max(len(a), len(b))
    return normalize([coeff(a, k) + coeff(b, k) for k in range(n)])


def neg(a: Sequence[Fraction]) -> QPoly:
    return [-v for v in a]


def sub(a: Sequence[Fraction], b: Sequence[Fraction]) -> QPoly:
    return add(a, neg(b))


def scale(a: Sequence[Fraction], c: Fraction | int) -> QPoly:
    c = Fraction(c)
    return normalize([v * c for v in a])


def mul(a: Sequence[Fraction], b: Sequence[Fraction]) -> QPoly:
    if not a or not b:
        return []
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, va in enumerate(a):
        if not va:
            continue
        for j, vb in enumerate(b):
            out[i + j] += va * vb
    return normalize(out)


def power(a: Sequence[Fraction], k: int) -> QPoly:
    if k < 0:
        raise ValueError("power must be nonnegative")
    out = const(1)
    for _ in range(k):
        out = mul(out, a)
    return out


def derivative(a: Sequence[Fraction]) -> QPoly:
    return normalize([k * v for k, v in enumerate(a)][1:])


def compose(outer: Sequence[Fraction], inner: Sequence[Fraction]) -> QPoly:
    """outer(inner(x)) by Horner's scheme."""
    out: QPoly = []
    for c in reversed(list(outer)):
        out = add(mul(out, inner), const(c))
    return out


def eval_at(p: Sequence[Fraction], value: Fraction | int) -> Fraction:
    value = Fraction(value)
    out = Fraction(0)
    for c in reversed(list(p)):
        out = out * value + c
    return out


def to_string(p: Sequence[Fraction], var: str = "x") -> str:
    return render.qpoly(render.TEXT, p, var)
