"""LaTeX rendering of algebra values as display-math fragments.

The walkers live in ``render``; this module holds the LaTeX token table
``LATEX`` and the public entry points.  A power of ``log x`` or ``e^{x}``
wraps its base, as in ``(\\log x)^{2}`` and ``(e^{x})^{2}``, so that no
superscript follows another.
"""

from __future__ import annotations

from fractions import Fraction
from typing import TYPE_CHECKING, Iterable

from . import render

if TYPE_CHECKING:
    from .algebra import Element, YSeries
    from .faadibruno import FdbPoly
    from .qpoly import QPoly


def latex_fraction(q: Fraction) -> str:
    sign = "-" if q < 0 else ""
    num = render.integer(abs(q.numerator))
    if q.denominator == 1:
        return sign + num
    return f"{sign}\\tfrac{{{num}}}{{{render.integer(q.denominator)}}}"


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


def latex_element(a: Element) -> str:
    return render.element(LATEX, a)


def latex_yseries(s: YSeries) -> str:
    return render.series(LATEX, s)


def latex_qpoly(p: QPoly) -> str:
    return render.qpoly(LATEX, p)


def latex_fdbpoly(p: FdbPoly) -> str:
    return render.fdbpoly(LATEX, p)


def _environment(name: str, rows: Iterable[str], spec: str = "") -> str:
    """A LaTeX environment holding one row per line, each ended by ``\\\\``."""
    lines = (f"{row} \\\\" for row in rows)
    return "\n".join([f"\\begin{{{name}}}{spec}", *lines, f"\\end{{{name}}}"])


def latex_table(rows: list[list[int]]) -> str:
    width = max(len(row) for row in rows)
    cells = (" & ".join(render.integer(v) for v in row) for row in rows)
    return _environment("array", cells, "{" + "r" * width + "}")


def aligned(rows: Iterable[str]) -> str:
    """An ``aligned`` block with one row per line."""
    return _environment("aligned", rows)


# LaTeX's special characters, each as it is written inside \text{...}
_TEXT_ESCAPES = str.maketrans({c: "\\" + c for c in "{}_&%$#"} | {
    "\\": r"\textbackslash{}", "^": r"\textasciicircum{}", "~": r"\textasciitilde{}",
})


def text(body: str) -> str:
    """Plain text as a math-mode fragment, its special characters escaped."""
    return f"\\text{{{body.translate(_TEXT_ESCAPES)}}}"


def display(body: str) -> str:
    """Wrap a fragment in display-math delimiters."""
    return f"\\[\n{body}\n\\]"
