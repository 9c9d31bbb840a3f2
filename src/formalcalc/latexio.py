"""LaTeX rendering of algebra values as display-math fragments.

The walkers live in ``render``; this module holds the LaTeX token table
``LATEX`` and the public entry points.  A power of ``log x`` or ``e^{x}``
wraps its base, as in ``(\\log x)^{2}`` and ``(e^{x})^{2}``, so that no
superscript follows another.
"""

from __future__ import annotations

from fractions import Fraction

from . import render
from .algebra import Element, Exponent, Monomial, YSeries
from .faadibruno import FdbPoly
from .params import ParamPoly
from .qpoly import QPoly


def latex_fraction(q: Fraction) -> str:
    if q.denominator == 1:
        return str(q.numerator)
    sign = "-" if q < 0 else ""
    return f"{sign}\\tfrac{{{abs(q.numerator)}}}{{{q.denominator}}}"


LATEX = render.Style(
    number=latex_fraction,
    times=" ",
    exponent_times="",
    sup=("^{", "}"),
    sup_group=("^{", "}"),
    sub=("_{", "}"),
    group=("\\left(", "\\right)"),
    log=("\\log x", "(\\log x)"),
    exp=("e^{x}", "(e^{x})"),
    tower="\\ell",
)


def latex_exponent(e: Exponent) -> str:
    return render.exponent(LATEX, e)


def latex_gen(index: int) -> str:
    return render.generator(LATEX, index)


def latex_monomial(m: Monomial) -> str:
    return render.monomial(LATEX, m)


def latex_parampoly(p: ParamPoly) -> str:
    return render.parampoly(LATEX, p)


def latex_element(a: Element) -> str:
    return render.element(LATEX, a)


def latex_yseries(s: YSeries) -> str:
    return render.series(LATEX, s)


def latex_qpoly(p: QPoly, var: str = "x") -> str:
    return render.qpoly(LATEX, p, var)


def latex_fdbpoly(p: FdbPoly) -> str:
    return render.fdbpoly(LATEX, p)


def latex_table(rows: list[list[int]]) -> str:
    width = max(len(row) for row in rows)
    lines = [
        " & ".join(str(v) for v in row) + " \\\\" for row in rows
    ]
    header = "\\begin{array}{" + "r" * width + "}"
    return "\n".join([header, *lines, "\\end{array}"])


def display(body: str) -> str:
    """Wrap a fragment in display-math delimiters."""
    return f"\\[\n{body}\n\\]"
