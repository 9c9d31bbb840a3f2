"""Command-line front end.

Subcommands::

    expand --expr E --order N [--via engine|closed-form]
    lift --expr E --order N
    stirling-table --max K
    verify {automorphism|intertwine|lubell|s-identity|faa-di-bruno} [bounds]
    faa-di-bruno --order N
    umbral --B b1,b2,... --depth N

with a global ``--format text|json|latex``.  Exit status: 0 on success or
a passing verification, 1 when a verification fails, 2 on usage or parse
errors.  A reader that closes stdout early (``| head``) ends the command
quietly: with its own exit code when the command had finished, else 141.
Diagnostics go to stderr; results to stdout.  The only
environment knobs are NO_COLOR / FORMALCALC_COLOR, which affect coloring
of pass/FAIL words in text output and nothing else.

A command imports the formalcalc modules it runs when it runs, and the
JSON and LaTeX writers only for their format, so start-up compiles no
module a command does not use: ``--help`` and a usage error load none.
"""

from __future__ import annotations

import argparse
import os
import sys
from importlib import import_module
from typing import TYPE_CHECKING, Callable, Iterator, Sequence

if TYPE_CHECKING:
    from .algebra import YSeries
    from .report import VerifyReport

_GREEN, _RED, _RESET = "\x1b[32m", "\x1b[31m", "\x1b[0m"

# The exit code when stdout closes before the command has finished: the
# code a shell reports for a writer stopped by SIGPIPE (128 + 13).
_EPIPE_EXIT = 141


def _color_enabled() -> bool:
    if os.environ.get("NO_COLOR"):
        return False
    pref = os.environ.get("FORMALCALC_COLOR", "").lower()
    if pref in ("1", "always", "yes", "on"):
        return True
    if pref in ("0", "never", "no", "off"):
        return False
    return sys.stdout.isatty()


def _lib(module: str):
    """The formalcalc submodule ``module``, imported on first use."""
    return import_module(f"{__package__}.{module}")


def _bounded(p: argparse.ArgumentParser, flag: str, least: int, **kw) -> None:
    """Add an integer flag; ``main`` rejects a value below ``least`` before any work.

    Below it a command has no valid input, or a sweep no case and would pass vacuously.
    """
    dest = p.add_argument(flag, type=int, **kw).dest
    p.set_defaults(minimums={**(p.get_default("minimums") or {}), dest: least})


def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="formalcalc",
        description="Exact formal calculus on the iterated-log generator tower.",
    )
    top.add_argument(
        "--format",
        choices=("text", "json", "latex"),
        default="text",
        help="output format (default: text)",
    )
    sub = top.add_subparsers(dest="command", required=True)

    p = sub.add_parser("expand", help="expand an expression in powers of y")
    p.add_argument("--expr", required=True, help="expression to expand")
    _bounded(p, "--order", 0, required=True, help="truncation order in y")
    p.add_argument(
        "--via",
        choices=("engine", "closed-form"),
        default="engine",
        help="derivation engine or the closed summation formulas",
    )
    p.set_defaults(run=_run_expand)

    p = sub.add_parser("lift", help="expand under x*d/dx via the index shift")
    p.add_argument("--expr", required=True)
    _bounded(p, "--order", 0, required=True)
    p.set_defaults(run=_run_lift)

    p = sub.add_parser("stirling-table", help="table of Stirling cycle numbers")
    _bounded(p, "--max", 0, required=True, help="largest row index")
    p.set_defaults(run=_run_table)

    v = sub.add_parser("verify", help="run an identity sweep")
    v.set_defaults(run=_run_verify)
    vsub = v.add_subparsers(dest="check", required=True)
    # each sweep imports its verifier's module when it runs: a command loads only
    # the sweep it runs, and a verifier replaced in its module is the one called

    p = vsub.add_parser("automorphism", help="exp(yD) multiplicativity")
    _bounded(p, "--trials", 1, default=50)
    _bounded(p, "--order", 0, default=4)
    _bounded(p, "--max-index", 0, default=3)
    p.add_argument("--seed", type=int, default=11)
    p.set_defaults(sweep=lambda a: _lib("checks").verify_automorphism(
        trials=a.trials, order=a.order, max_index=a.max_index, seed=a.seed))

    p = vsub.add_parser("intertwine", help="index shift vs the two derivations")
    _bounded(p, "--max-index", 0, default=6)
    _bounded(p, "--trials", 1, default=20)
    p.add_argument("--seed", type=int, default=7)
    p.set_defaults(sweep=lambda a: _lib("diffrep").verify_intertwining(
        max_index=a.max_index, product_trials=a.trials, seed=a.seed))

    p = vsub.add_parser("lubell", help="two-index chain/Stirling/symmetric-sum equality")
    _bounded(p, "--max", 1, default=6)
    _bounded(p, "--pair-sum", 1, default=None)
    p.set_defaults(sweep=lambda a: _lib("combinatorics").verify_lubell(
        max_n=a.max, max_pair_sum=a.pair_sum))

    p = vsub.add_parser("s-identity", help="chain recursion vs Stirling products")
    _bounded(p, "--max-k", 1, default=6)
    _bounded(p, "--max-n", 1, default=3)
    p.set_defaults(sweep=lambda a: _lib("combinatorics").verify_chain_product(
        max_k=a.max_k, max_n=a.max_n))

    p = vsub.add_parser("faa-di-bruno", help="dual-path composite expansion")
    _bounded(p, "--trials", 1, default=25)
    _bounded(p, "--degree", 0, default=4)
    _bounded(p, "--order", 0, default=6)
    p.add_argument("--seed", type=int, default=13)
    p.set_defaults(sweep=lambda a: _lib("checks").verify_composition(
        trials=a.trials, max_degree=a.degree, order=a.order, seed=a.seed))

    p = sub.add_parser(
        "faa-di-bruno", help="coefficients of the composite-derivative exponential"
    )
    _bounded(p, "--order", 0, required=True)
    p.set_defaults(run=_run_fdb)

    p = sub.add_parser("umbral", help="solve the weight-sequence shift operator")
    p.add_argument("--B", required=True, help="comma-separated weights, e.g. 1,0")
    _bounded(p, "--depth", 1, required=True)
    p.set_defaults(run=_run_umbral)

    return top


def _emit(fmt: str, text: Callable, json: Callable, latex: Callable) -> int:
    """Print the rendering ``fmt`` names, and build only that one.

    ``json`` and ``latex`` are called with their writer module, which is
    imported only for its format.
    """
    if fmt == "json":
        from . import jsonio

        jsonio.dump(json(jsonio), sys.stdout)  # streamed: its text is never held whole
        print()
    elif fmt == "latex":
        from . import latexio

        print(latexio.display(latex(latexio)))
    else:
        for line in text():  # one at a time, so a large table is never held whole
            print(line)
    return 0


def _emit_series(args: argparse.Namespace, series: YSeries) -> int:
    return _emit(
        args.format,
        lambda: [str(series)],
        lambda jsonio: jsonio.series_doc(args.command, args.expr, series),
        lambda latexio: latexio.latex_yseries(series),
    )


def _run_expand(args: argparse.Namespace) -> int:
    from .parser import parse_element

    if args.via == "closed-form":
        from .expansions import closed_form_series as expand
    else:
        from .derivations import d_dx

        expand = d_dx().exp_series
    return _emit_series(args, expand(parse_element(args.expr), args.order))


def _run_lift(args: argparse.Namespace) -> int:
    from .diffrep import lifted_exp
    from .parser import parse_element

    return _emit_series(args, lifted_exp(parse_element(args.expr), args.order))


def _text_table(rows: list[list[int]]) -> Iterator[str]:
    from . import render

    width = max(len(render.integer(v)) for row in rows for v in row)
    return (" ".join(render.integer(v).rjust(width) for v in row).rstrip() for row in rows)


def _run_table(args: argparse.Namespace) -> int:
    from .combinatorics import stirling_rows

    rows = stirling_rows(args.max)
    return _emit(
        args.format,
        lambda: _text_table(rows),
        lambda jsonio: jsonio.table_doc(args.max, rows),
        lambda latexio: latexio.latex_table(rows),
    )


def _summary_line(report: VerifyReport) -> str:
    if not _color_enabled():
        return report.summary()
    word, color = ("pass", _GREEN) if report.passed else ("FAIL", _RED)
    return report.summary().replace(f": {word}", f": {color}{word}{_RESET}")


def _run_verify(args: argparse.Namespace) -> int:
    report: VerifyReport = args.sweep(args)
    _emit(
        args.format,
        lambda: [_summary_line(report)],
        lambda jsonio: jsonio.report_to_json(report),
        lambda latexio: latexio.text(report.summary()),
    )
    return 0 if report.passed else 1


def _run_fdb(args: argparse.Namespace) -> int:
    from .faadibruno import taylor_coefficients

    coeffs = taylor_coefficients(args.order)
    return _emit(
        args.format,
        lambda: (f"z^{n}: {p}" for n, p in enumerate(coeffs)),
        lambda jsonio: jsonio.fdb_doc(args.order, coeffs),
        lambda latexio: latexio.aligned(
            f"z^{{{n}}} &: {latexio.latex_fdbpoly(p)}" for n, p in enumerate(coeffs)
        ),
    )


# The largest |exponent| a weight in exponent notation may carry: 1e999999
# alone is a million-digit integer, and the solver multiplies its powers.
_WEIGHT_EXPONENT_CAP = 9999


def _run_umbral(args: argparse.Namespace) -> int:
    import re
    from fractions import Fraction

    from . import render
    from .faadibruno import umbral_shift
    from .qpoly import to_string as qpoly_str

    parts = [part.strip(render.SPACE) for part in args.B.split(",")]
    if any(parts) and not all(parts):  # else every later weight moves down a place
        raise ValueError(f"weight {parts.index('') + 1} of {args.B!r} is empty")
    weights = []
    for part in filter(None, parts):
        match = re.fullmatch(render.WEIGHT, part)
        if match is None:
            raise ValueError(f"could not read weights from {args.B!r}")
        digits = match["exp"] and match["exp"].lstrip("+-").lstrip("0")
        if digits and (len(digits) > 9 or render.read_number(digits) > _WEIGHT_EXPONENT_CAP):
            raise ValueError(  # before 10^exponent is built
                f"weight {part!r}: exponent above the cap {_WEIGHT_EXPONENT_CAP} in absolute value"
            )
        weights.append(Fraction(render.read_number(part)))
    shift = umbral_shift(weights, args.depth)
    return _emit(
        args.format,
        lambda: (f"x^{k} -> {qpoly_str(img)}" for k, img in enumerate(shift.images)),
        lambda jsonio: jsonio.umbral_doc(shift),
        lambda latexio: latexio.aligned(
            f"x^{{{k}}} &\\mapsto {latexio.latex_qpoly(img)}"
            for k, img in enumerate(shift.images)
        ),
    )


def main(argv: Sequence[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        for dest, least in args.minimums.items():
            value = getattr(args, dest)
            if value is not None and value < least:
                raise ValueError(f"--{dest.replace('_', '-')} must be at least {least}")
        return args.run(args)
    except (ValueError, ArithmeticError) as exc:
        # bounds, parse errors, refused closed forms, bad weights and the
        # documented power cap (an OverflowError) are all usage errors
        print(f"formalcalc: {exc}", file=sys.stderr)
        return 2


def entry() -> None:
    code = _EPIPE_EXIT
    try:
        code = main()
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed stdout early, as ``| head`` does.  Send the rest
        # to devnull so the interpreter's final flush stays quiet, and keep
        # the command's own exit code: a closed pipe is no counterexample.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    sys.exit(code)


if __name__ == "__main__":
    entry()
