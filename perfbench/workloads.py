"""Job lists and oracles for the three benchmark workloads.

Every input is drawn from the benchmark's own seeded generator as plain
Python data (tuples, ints, Fractions, strings) and only then turned into
formalcalc objects through the public constructors or ``parse_element``.
A change to formalcalc therefore cannot change what a seed asks for.

A job is one library call (or one CLI invocation, see ``cli_cycle``) whose
output is checked afterwards by ``check``, in a separate process that
rebuilds the same jobs from the same seed (``worker.py --mode check``), so
no oracle runs in the measured process.
Workloads are built from short *cycles*: each cycle holds a fixed mix of
job classes with freshly drawn values, so a run of whole cycles always has
the same shape of work whatever the seed.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from math import comb, factorial
from pathlib import Path
from random import Random
from typing import Any, Callable

# Warm-up values come from this fixed seed, so set-up does the same work in every run.
WARMUP_SEED = 1_000_003
# Shapes (sizes, orders, which generators appear) come from a fixed catalog
# seeded with this constant; the run's --seed draws the values that fill
# them (exponents, coefficients, formats).  Every seed thus runs the same
# mix of job sizes, which keeps medians and tails comparable across seeds.
CATALOG_SEED = 2009

# Values shared by the generators: small, exact, never zero.
COEFFS = (Fraction(1), Fraction(-1), Fraction(2), Fraction(1, 2), Fraction(-3), Fraction(2, 3))
INTEGER_EXPONENTS = (-2, -1, 1, 2, 3)
SYMBOLIC_EXPONENTS = tuple(
    (name, coeff, const) for name in "rs" for coeff in (1, -1, 2) for const in (-1, 0, 1)
)


@dataclass
class Job:
    """One checked unit of work.

    ``run`` takes no arguments and returns the output that ``check`` later
    judges; ``check(output, outputs)`` returns None when the output is right
    and a message otherwise.  ``outputs`` maps job keys of the same cycle to
    their outputs, for oracles that compare two jobs (three summation forms,
    two CLI routes).
    """

    cls: str
    key: str
    run: Callable[[], Any]
    check: Callable[[Any, dict], "str | None"]
    props: dict = field(default_factory=dict)


class Deck:
    """Draw values without replacement from a reshuffled deck.

    Each run of ``len(cards)`` draws sees every card once, so short runs
    have the same mix of values whatever the seed (stratified sampling).
    """

    def __init__(self, rng: Random, cards):
        self.rng, self.cards, self.pile = rng, list(cards), []

    def draw(self):
        if not self.pile:
            self.pile = list(self.cards)
            self.rng.shuffle(self.pile)
        return self.pile.pop()


# ---------------------------------------------------------------- independent oracles

def partitions(n: int) -> int:
    """Number of integer partitions of n."""
    ways = [1] + [0] * n
    for part in range(1, n + 1):
        for total in range(part, n + 1):
            ways[total] += ways[total - part]
    return ways[n]


def bell(n: int) -> int:
    """Bell number by the Bell triangle."""
    row = [1]
    for _ in range(n):
        nxt = [row[-1]]
        for v in row:
            nxt.append(nxt[-1] + v)
        row = nxt
    return row[0]


def _pmul(a, b):
    out = [Fraction(0)] * max(0, len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return _ptrim(out)


def _ptrim(p):
    p = list(p)
    while p and not p[-1]:
        p.pop()
    return p


def _padd(a, b):
    n = max(len(a), len(b))
    return _ptrim([(a[i] if i < len(a) else 0) + (b[i] if i < len(b) else 0) for i in range(n)])


def composite_taylor(f, g, order: int):
    """y-coefficients of f(g(x+y)): the k-th is (f o g)^(k)(x) / k!."""
    h = []
    for c in reversed(f):
        h = _padd(_pmul(h, g), [Fraction(c)])
    out = []
    for k in range(order + 1):
        out.append(_ptrim([Fraction(comb(i, k)) * c for i, c in enumerate(h)][k:]))
    return out


def umbral_targets(weights, depth: int):
    """p_n(x) = sum_k B_{n,k}(w) x^k from partial Bell polynomials, n = 0..depth."""
    w = [Fraction(v) for v in weights] + [Fraction(0)] * depth
    bell_nk = {(0, 0): Fraction(1)}
    for n in range(1, depth + 1):
        bell_nk[(n, 0)] = Fraction(0)
        for k in range(1, n + 1):
            bell_nk[(n, k)] = sum(
                comb(n - 1, i - 1) * w[i - 1] * bell_nk.get((n - i, k - 1), 0)
                for i in range(1, n - k + 2)
            )
    return [_ptrim([bell_nk.get((n, k), 0) for k in range(n + 1)]) for n in range(depth + 1)]


def check_umbral_images(weights, depth: int, images) -> "str | None":
    """shift^n(1) must equal p_n for n <= depth, by the benchmark's own arithmetic."""
    targets = umbral_targets(weights, depth)
    if len(images) != depth:
        return f"expected {depth} images, got {len(images)}"
    state = [Fraction(1)]
    for n in range(1, depth + 1):
        nxt: list = []
        for k, c in enumerate(state):
            nxt = _padd(nxt, [c * v for v in images[k]])
        state = nxt
        if state != targets[n]:
            return f"shift^{n}(1) != p_{n}"
    return None


def stirling_rows_by_recurrence(max_k: int):
    rows, row = [], [1]
    for k in range(max_k + 1):
        if k:
            row = [0] + row
            row = [row[j] + (k - 1) * (row[j + 1] if j + 1 < len(row) else 0) for j in range(len(row))]
        rows.append(list(row))
    return rows


def chain_product_cases(max_k: int, max_n: int) -> int:
    """Case count of verify_chain_product: descending chains plus non-chains."""
    return sum(comb(max_k + n, n + 1) + max_k * (max_k + 1) // 2 for n in range(1, max_n + 1))


def lubell_cases(max_n: int, pair_sum: "int | None") -> int:
    pair_sum = max_n + 2 if pair_sum is None else pair_sum
    return max_n * (max_n + 1) // 2 + (pair_sum + 1) * (pair_sum + 2) // 2 - 1


# ---------------------------------------------------------------- value specs

def gen_text(index: int) -> str:
    return {0: "x", 1: "log(x)", -1: "exp(x)"}.get(index, f"l_{index}(x)")


def exponent_text(spec) -> str:
    if isinstance(spec, tuple):
        name, coeff, const = spec
        lead = {1: "", -1: "-"}.get(coeff, f"{coeff}*")
        tail = "" if not const else (f"+{const}" if const > 0 else f"{const}")
        return f"({lead}{name}{tail})"
    return f"({spec})" if spec < 0 or isinstance(spec, Fraction) and spec.denominator != 1 else str(spec)


def _fc():
    import formalcalc
    import formalcalc.jsonio
    import formalcalc.latexio  # noqa: F401  (submodules the CLI oracles render with)

    return formalcalc


@lru_cache(maxsize=None)
def oracle_derivation(name: str):
    """One derivation per kind for all oracles, so its memo serves every check.

    Oracles run only in the checking process, never in the measured one.
    """
    return getattr(_fc(), name)()


def build_exponent(spec):
    fc = _fc()
    if isinstance(spec, tuple):
        name, coeff, const = spec
        return fc.Exponent.param(name, coeff, const)
    return fc.Exponent.of(spec)


def build_element(terms):
    """terms: ((coeff, ((index, exponent spec), ...)), ...)."""
    fc = _fc()
    out = fc.Element.zero()
    for coeff, factors in terms:
        mono = fc.Monomial(tuple((i, build_exponent(e)) for i, e in factors))
        out = out + fc.Element({mono: coeff})
    return out


# ---------------------------------------------------------------- engine-sweep

ENGINE_SHAPES = tuple(
    (deriv, order, slot) for slot in range(3) for order in (5, 6) for deriv in ("ddx", "xddx")
)


class EngineGen:
    """Pairs of small tower elements, indices in -3..3, one element in three symbolic.

    The catalog fixes which generators appear, how many terms and factors
    an element has, the parameter name of each symbolic exponent and the
    sign of each integer one; the seed draws the rest.
    """

    def __init__(self, seed: int, catalog: int = CATALOG_SEED):
        shape = Random(catalog)
        self.index = Deck(shape, range(-3, 4))
        self.factors = Deck(shape, (1, 2))
        self.terms = Deck(shape, (1, 2))
        self.param = Deck(shape, "rs")
        self.sign = Deck(shape, (1, 1, 1, -1, -1))  # the signs of INTEGER_EXPONENTS
        rng = self.rng = Random(seed)
        self.positive = Deck(rng, [e for e in INTEGER_EXPONENTS if e > 0])
        self.negative = Deck(rng, [e for e in INTEGER_EXPONENTS if e < 0])
        self.linear = Deck(rng, sorted({(c, k) for _, c, k in SYMBOLIC_EXPONENTS}))
        self.coeff = Deck(rng, COEFFS)

    def exponent(self, symbolic: bool):
        if symbolic:
            return (self.param.draw(), *self.linear.draw())
        return (self.positive if self.sign.draw() > 0 else self.negative).draw()

    def element(self, symbolic: bool):
        terms, seen = [], set()
        want = self.terms.draw()
        while len(terms) < want:
            indices: set[int] = set()
            for _ in range(self.factors.draw()):
                index = self.index.draw()
                while index in indices:
                    index = self.index.draw()
                indices.add(index)
            key = tuple(sorted(indices))
            if key not in seen:  # distinct generator sets, so terms never merge
                seen.add(key)
                terms.append((self.coeff.draw(), tuple((i, self.exponent(symbolic)) for i in key)))
        return tuple(terms)


def engine_cycle(gen: EngineGen, ctx: dict, cycle: int) -> list[Job]:
    """12 automorphism jobs (both derivations, orders 5 and 6) and 3 lifted_exp jobs."""
    jobs: list[Job] = []
    for n, (deriv, order, slot) in enumerate(ENGINE_SHAPES):
        a_spec, b_spec = gen.element(slot == 0), gen.element(slot == 1)
        jobs.append(_automorphism_job(ctx, f"{cycle}.{n}", deriv, order, a_spec, b_spec, slot))
        if n % 4 == 3:
            c_spec = gen.element(n // 4 == 0)
            jobs.append(_lifted_job(f"{cycle}.{n}L", order, c_spec))
    return jobs


def _automorphism_job(ctx, key, deriv, order, a_spec, b_spec, slot) -> Job:
    a, b = build_element(a_spec), build_element(b_spec)
    product = a * b

    def run():
        d = ctx[deriv]
        return d.exp_series(product, order), d.exp_series(a, order) * d.exp_series(b, order)

    def check(out, _outputs):
        lhs, rhs = out
        if lhs.order != order or lhs.coefficient(0) != product:
            return f"{key}: series does not start at a*b to order {order}"
        if lhs != rhs:
            return f"{key}: exp(yD)(a*b) != exp(yD)(a)*exp(yD)(b) for {deriv} on a={a}, b={b}"
        return None

    cls = "automorphism-ddx" if deriv == "ddx" else "automorphism-xddx"
    return Job(cls, key, run, check, {"order": order, "elements": 2, "symbolic": int(slot < 2)})


def _lifted_job(key, order, spec) -> Job:
    a = build_element(spec)
    symbolic = any(isinstance(e, tuple) for _, fs in spec for _, e in fs)

    def run():
        return _fc().lifted_exp(a, order)

    def check(out, _outputs):
        if out != oracle_derivation("x_d_dx").exp_series(a, order):
            return f"{key}: lifted_exp != direct x*d/dx on {a}"
        return None

    return Job("lifted", key, run, check, {"order": order, "elements": 1, "symbolic": int(symbolic)})


# ---------------------------------------------------------------- tables

class TablesGen:
    def __init__(self, seed: int, top: bool = False):
        rng = self.rng = Random(seed)
        shape = self.shape = Random(CATALOG_SEED)
        self.top = top
        self.decks = {
            "ils_order": Deck(shape, (6, 7, 8)),
            "ils3_order": Deck(shape, (5, 6, 7)),
            "exp_kind": Deck(shape, ("symbolic", "symbolic", "rational")),
            "symbolic": Deck(rng, SYMBOLIC_EXPONENTS),
            "rational": Deck(rng, (Fraction(1, 2), Fraction(-3, 2), Fraction(2, 3), 3, -2)),
            "cf_order": Deck(shape, (6, 7)),
            "cf_index": Deck(shape, (1, 2, 3)),
            "esym_total": Deck(shape, (17, 18, 19, 20)),
            "esym_skew": Deck(shape, (-2, -1, 0, 1, 2)),
            "chain_k": Deck(shape, (5, 6, 7)),
            "chain_n": Deck(shape, (2, 3)),
            "lubell_n": Deck(shape, (6, 7, 8)),
            "tower": Deck(shape, (11, 12, 13, 14)),
            "compose_order": Deck(shape, (6, 7, 8)),
            "umbral_depth": Deck(shape, (8, 9, 10)),
            "engine_n": Deck(shape, (1, 2, 3)),
        }

    def draw(self, name: str):
        if self.top:  # warm-up: the top of every range, so caches cover all timed jobs
            return max(self.decks[name].cards, key=lambda v: (isinstance(v, (int, Fraction)), v))
        return self.decks[name].draw()

    def exponent(self):
        kind = self.decks["exp_kind"].draw()
        return self.decks[kind].draw()

    def poly(self, degree: int):
        coeffs = [self.rng.randrange(-3, 4) for _ in range(degree)] + [self.rng.choice((1, -1, 2, -2))]
        return coeffs


def tables_cycle(gen: TablesGen, ctx: dict, cycle: int) -> list[Job]:
    fc = _fc()
    jobs: list[Job] = []
    engine_n = gen.draw("engine_n")
    for n in (1, 2, 3):
        order = gen.draw("ils3_order" if n == 3 else "ils_order")
        spec = gen.exponent()
        for form in fc.FORMS:
            jobs.append(_ils_job(f"{cycle}.ils{n}.{form}", n, spec, order, form, engine_n == n))
    for k in range(2):
        index = gen.draw("cf_index")
        terms = ((gen.rng.choice(COEFFS), ((0, gen.exponent()), (index, gen.exponent()))),)
        jobs.append(_closed_form_job(f"{cycle}.cf{k}", terms, gen.draw("cf_order")))
    for k in range(3):
        total = gen.draw("esym_total")
        m = total // 2 + gen.draw("esym_skew")
        jobs.append(_esym_job(f"{cycle}.esym{k}", m, total - m))
    jobs.append(_chain_job(f"{cycle}.chain", gen.draw("chain_k"), gen.draw("chain_n")))
    jobs.append(_lubell_job(f"{cycle}.lubell", gen.draw("lubell_n")))
    jobs.append(_tower_job(f"{cycle}.tower", gen.draw("tower"), taylor=False))
    jobs.append(_tower_job(f"{cycle}.taylor", gen.draw("tower"), taylor=True))
    for k in range(2):
        f, g = gen.poly(gen.shape.randrange(2, 5)), gen.poly(gen.shape.randrange(2, 5))
        jobs.append(_compose_job(f"{cycle}.compose{k}", f, g, gen.draw("compose_order")))
    for k in range(2):
        weights = [gen.rng.choice((1, -1, 2, Fraction(1, 2)))] + [
            gen.rng.choice((0, 1, -1, 2, Fraction(-1, 3))) for _ in range(gen.shape.randrange(1, 4))
        ]
        jobs.append(_umbral_job(f"{cycle}.umbral{k}", weights, gen.draw("umbral_depth")))
    return jobs


def _ils_job(key, n, spec, order, form, with_engine) -> Job:
    fc = _fc()
    e = build_exponent(spec)

    def run():
        return _fc().iterated_log_series(n, e, order, form)

    def check(out, outputs):
        group = [outputs.get(key.rsplit(".", 1)[0] + "." + f) for f in fc.FORMS]
        if any(o is not None and o != out for o in group):
            return f"{key}: summation forms disagree for l_{n}(x+y)^({e}) at order {order}"
        if with_engine and form == "stirling":
            if out != oracle_derivation("d_dx").exp_series(fc.Element.gen(n, e), order):
                return f"{key}: closed form != engine for l_{n}(x)^({e})"
        return None

    return Job("iterated-log", key, run, check, {"order": order, "symbolic": int(isinstance(spec, tuple))})


def _closed_form_job(key, terms, order) -> Job:
    a = build_element(terms)

    def run():
        return _fc().closed_form_series(a, order)

    def check(out, _outputs):
        if out != oracle_derivation("d_dx").exp_series(a, order):
            return f"{key}: closed_form_series != engine on {a}"
        return None

    return Job("closed-form", key, run, check, {"order": order})


def _esym_job(key, m, n) -> Job:
    fc = _fc()

    def run():
        return _fc().signed_esym(m, n)

    def check(out, _outputs):
        want = (-1) ** m * fc.stirling1_by_recurrence(m + n, n)
        return None if out == want else f"{key}: signed_esym({m},{n}) = {out}, want {want}"

    return Job("signed-esym", key, run, check, {"table": m + n})


def _report_check(key, name, want_cases):
    def check(out, _outputs):
        if not out.passed or out.cases != want_cases:
            return f"{key}: {name} gave {out.summary()}, want pass with {want_cases} cases"
        return None

    return check


def _chain_job(key, max_k, max_n) -> Job:
    run = lambda: _fc().verify_chain_product(max_k=max_k, max_n=max_n)  # noqa: E731
    return Job("chain-product", key, run, _report_check(key, "verify_chain_product", chain_product_cases(max_k, max_n)), {"table": max_k})


def _lubell_job(key, max_n) -> Job:
    run = lambda: _fc().verify_lubell(max_n=max_n)  # noqa: E731
    return Job("lubell", key, run, _report_check(key, "verify_lubell", lubell_cases(max_n, None)), {"table": max_n + 2})


def _tower_job(key, order, taylor: bool) -> Job:
    def run():
        fc = _fc()
        return fc.taylor_coefficients(order) if taylor else fc.derivative_tower(order)

    def check(out, _outputs):
        if len(out) != order + 1:
            return f"{key}: expected {order + 1} entries"
        for n, poly in enumerate(out):
            scale = factorial(n) if taylor else 1
            total = sum(c for _, c in poly.items()) * scale
            if len(poly) != partitions(n) or total != bell(n):
                return f"{key}: D^{n} y_0 has {len(poly)} terms summing to {total}; want p(n)={partitions(n)}, Bell={bell(n)}"
        return None

    return Job("taylor" if taylor else "tower", key, run, check, {"order": order})


def _compose_job(key, f, g, order) -> Job:
    def run():
        return _fc().compose_expansion(f, g, order)

    def check(out, _outputs):
        want = composite_taylor(f, g, order)
        if [list(c) for c in out] != want:
            return f"{key}: compose_expansion({f}, {g}) differs from direct f(g(x+y))"
        return None

    return Job("compose", key, run, check, {"order": order})


def _umbral_job(key, weights, depth) -> Job:
    def run():
        return _fc().umbral_shift(weights, depth)

    def check(out, _outputs):
        err = check_umbral_images(weights, depth, [list(i) for i in out.images])
        return None if err is None else f"{key}: umbral_shift({weights}, {depth}): {err}"

    return Job("umbral", key, run, check, {"order": depth})


# ---------------------------------------------------------------- cli-cold

GOLDEN = {
    "expand_log.txt": ("expand", "--expr", "log(x)", "--order", "3"),
    "verify_lubell.txt": ("verify", "lubell", "--max", "8"),
    "umbral_b10.txt": ("umbral", "--B", "1,0", "--depth", "3"),
}
FORMATS = ("text", "json", "latex")
MALFORMED = (
    ("expand", "--expr", "l_3(x)^(", "--order", "3"),
    ("expand", "--expr", "x +* 2", "--order", "2"),
    ("lift", "--expr", "foo(x)", "--order", "2"),
    ("expand", "--expr", "x^(x)", "--order", "2"),
    ("expand", "--expr", "y", "--order", "2"),
    ("expand", "--expr", "l_-1(x)", "--order", "3", "--via", "closed-form"),
    ("umbral", "--B", "0,1", "--depth", "3"),
    ("umbral", "--B", "1,a", "--depth", "3"),
    ("stirling-table", "--max", "-1"),
    ("expand", "--expr", "x", "--order", "-1"),
)


@dataclass
class CliJob:
    """One CLI invocation; ``check(stdout, outputs)`` judges a run that exited ``want_rc``."""

    cls: str
    key: str
    argv: tuple
    want_rc: int
    check: Callable[[str, dict], "str | None"]


class CliGen:
    def __init__(self, seed: int):
        rng = self.rng = Random(seed)
        self.fmt = Deck(rng, FORMATS)
        self.index = Deck(rng, (1, 2, 3))
        self.symbolic = Deck(rng, SYMBOLIC_EXPONENTS)
        self.integer = Deck(rng, (1, 2, 3, -1, Fraction(3, 2), Fraction(-1, 2)))
        self.malformed = Deck(rng, MALFORMED)
        self.lift_index = Deck(rng, (-2, -1, 1, 2))

    def exponent(self):
        return self.symbolic.draw() if self.rng.random() < 0.6 else self.integer.draw()


def cli_cycle(gen: CliGen, ctx: dict, cycle: int) -> list[CliJob]:
    """One of every job class; formats and expressions vary with the seed."""
    jobs: list[CliJob] = []

    def add(cls, argv, check, want_rc=0, fmt="text"):
        full = (("--format", fmt) if fmt != "text" else ()) + tuple(argv)
        jobs.append(CliJob(cls, f"{cycle}.{cls}", full, want_rc, check))

    add("startup", ("--help",), lambda out, _o: None if out.startswith("usage: formalcalc") else "no usage text")
    for name, argv in GOLDEN.items():
        add("golden-" + name.split(".")[0], argv, _golden_check(ctx, name))
    # the six ROADMAP baseline cases
    add("roadmap-expand", ("expand", "--expr", "l_3(x)^r*exp(x)^s", "--order", "8"),
        _library_check("d_dx", "l_3(x)^r*exp(x)^s", 8, "expand", "text"))
    add("roadmap-closed-form", ("expand", "--expr", "l_3(x)^r*x^s", "--order", "8", "--via", "closed-form"),
        _library_check("d_dx", "l_3(x)^r*x^s", 8, "expand", "text"))
    add("roadmap-fdb-16", ("faa-di-bruno", "--order", "16"), _fdb_check(16, "text"))
    add("roadmap-stirling-16", ("stirling-table", "--max", "16"), _stirling_check(16, "text"))
    add("roadmap-verify-automorphism", ("verify", "automorphism"), _verify_check("automorphism", 100, "text"))
    # the largest render: about 500 KB of JSON from the closed-form route
    add("large-json", ("expand", "--expr", "l_3(x)^r*x^s", "--order", "8", "--via", "closed-form"),
        _library_check("d_dx", "l_3(x)^r*x^s", 8, "expand", "json"), fmt="json")
    # seeded classes
    fmt = gen.fmt.draw()
    index, e1, e2 = gen.index.draw(), gen.exponent(), gen.exponent()
    expr = f"{gen_text(index)}^{exponent_text(e1)}*x^{exponent_text(e2)}"
    order = 6 if fmt == "json" else gen.rng.choice((6, 7))  # JSON output stays below ~500 KB
    argv = ("expand", "--expr", expr, "--order", str(order))
    add("expand-engine", argv, _library_check("d_dx", expr, order, "expand", fmt), fmt=fmt)
    twin = f"{cycle}.expand-engine"
    add("expand-closed-form", argv + ("--via", "closed-form"),
        lambda out, outputs: None if outputs.get(twin) == out else "closed-form bytes differ from engine bytes", fmt=fmt)
    fmt = gen.fmt.draw()
    lift_expr = f"{gen_text(gen.lift_index.draw())}^{exponent_text(gen.exponent())}*{gen_text(gen.index.draw())}"
    add("lift", ("lift", "--expr", lift_expr, "--order", "5"), _library_check("x_d_dx", lift_expr, 5, "lift", fmt), fmt=fmt)
    fmt = gen.fmt.draw()
    add("stirling-12", ("stirling-table", "--max", "12"), _stirling_check(12, fmt), fmt=fmt)
    fmt = gen.fmt.draw()
    add("fdb-12", ("faa-di-bruno", "--order", "12"), _fdb_check(12, fmt), fmt=fmt)
    weights = [gen.rng.choice((1, -1, 2))] + [gen.rng.choice((0, 1, -1, 2, Fraction(-1, 2))) for _ in range(2)]
    depth = gen.rng.choice((8, 9, 10))
    fmt = gen.rng.choice(("text", "json"))
    # "--B=..." so that a leading minus sign is not read as an option
    add("umbral", ("umbral", "--B=" + ",".join(str(w) for w in weights), "--depth", str(depth)),
        _umbral_cli_check(weights, depth, fmt), fmt=fmt)
    # each sweep at its defaults: (subcommand, name in the report, case count)
    for check, report, cases in (
        ("intertwine", "intertwine", 2 * 13 + 2 * 20),
        ("lubell", "lubell", lubell_cases(6, None)),
        ("s-identity", "chain-product", chain_product_cases(6, 3)),
        ("faa-di-bruno", "faa-di-bruno", 25),
    ):
        fmt = gen.fmt.draw()
        add("verify-" + check, ("verify", check), _verify_check(report, cases, fmt), fmt=fmt)
    add("malformed", gen.malformed.draw(), lambda out, _o: None if out == "" else "wrote to stdout", want_rc=2)
    return jobs


def _golden_check(ctx, name):
    def check(out, _outputs):
        want = (Path(ctx["root"]) / "tests" / "golden" / name).read_text()
        return None if out == want else f"output differs from golden {name}"

    return check


def _json_doc(out: str):
    """Parse CLI JSON output and validate it against the shipped schema."""
    import jsonschema

    doc = json.loads(out)
    jsonschema.validate(doc, _fc().jsonio.load_schema())
    return doc


def render_series(series, command, expr, fmt):
    fc = _fc()
    if fmt == "json":
        return fc.jsonio.dumps(fc.jsonio.series_doc(command, expr, series)) + "\n"
    if fmt == "latex":
        return fc.latexio.display(fc.latexio.latex_yseries(series)) + "\n"
    return f"{series}\n"


@lru_cache(maxsize=None)
def _direct_series(deriv, expr, order):
    fc = _fc()
    return oracle_derivation(deriv).exp_series(fc.parse_element(expr), order)


def _library_check(deriv, expr, order, command, fmt):
    """The CLI output must equal the library's direct-engine series, rendered the same way."""

    def check(out, _outputs):
        fc = _fc()
        series = _direct_series(deriv, expr, order)
        if fmt == "json":
            doc = _json_doc(out)
            if fc.jsonio.yseries_from_json(doc["series"]) != series:
                return "JSON series does not round-trip to the engine result"
        if out != render_series(series, command, expr, fmt):
            return f"{command} {expr} order {order} ({fmt}) differs from the direct {deriv} series"
        return None

    return check


def _stirling_check(max_k, fmt):
    want = stirling_rows_by_recurrence(max_k)

    def check(out, _outputs):
        if fmt == "json":
            rows = _json_doc(out)["rows"]
        else:
            lines = [ln for ln in out.splitlines() if re.match(r"\s*\d", ln)]
            rows = [[int(v) for v in re.findall(r"\d+", ln)] for ln in lines]
        return None if rows == want else f"stirling-table --max {max_k} ({fmt}) rows differ from the recurrence"

    return check


def _fdb_check(order, fmt):
    def check(out, _outputs):
        if fmt == "json":  # decoded through jsonio, so the document round-trips
            polys = [_fc().jsonio.fdbpoly_from_json(c) for c in _json_doc(out)["coefficients"]]
            counts = [len(p) for p in polys]
            sums = [sum(c for _, c in p.items()) for p in polys]
            if sums != [Fraction(bell(n), factorial(n)) for n in range(order + 1)]:
                return "coefficient sums differ from Bell(n)/n!"
        else:
            sep = "&:" if fmt == "latex" else ":"
            lines = [ln for ln in out.splitlines() if ln.startswith("z^")]
            counts = [len(ln.split(sep, 1)[1].split(" + ")) for ln in lines]
        want = [partitions(n) for n in range(order + 1)]
        return None if counts == want else f"faa-di-bruno --order {order} ({fmt}) term counts differ from p(n)"

    return check


def _verify_check(name, cases, fmt):
    summary = f"{name}: pass ({cases} cases)"

    def check(out, _outputs):
        if fmt == "json":
            doc = _json_doc(out)
            ok = doc["passed"] is True and doc["cases"] == cases and doc["check"] == name
        elif fmt == "latex":
            ok = f"\\text{{{summary}}}" in out
        else:
            ok = out == summary + "\n"
        return None if ok else f"verify {name} ({fmt}) did not report {summary!r}"

    return check


_QTERM = re.compile(r"(-?)(\d+(?:/\d+)?)?\*?(x(?:\^(\d+))?)?$")


def parse_qpoly_text(text: str):
    """Read qpoly text like '2*x^3 - 1/2*x + 1' back into a coefficient list."""
    coeffs: dict[int, Fraction] = {}
    for body in text.strip().replace(" - ", " + -").split(" + "):
        m = _QTERM.match(body)
        if m is None or not (m.group(2) or m.group(3)):
            raise ValueError(f"unreadable term {body!r}")
        value = Fraction(m.group(2) or 1) * (-1 if m.group(1) else 1)
        power = int(m.group(4) or 1) if m.group(3) else 0
        coeffs[power] = coeffs.get(power, 0) + value
    return _ptrim([coeffs.get(k, Fraction(0)) for k in range(max(coeffs, default=-1) + 1)])


def _umbral_cli_check(weights, depth, fmt):
    def check(out, _outputs):
        if fmt == "json":
            images = [_fc().jsonio.qpoly_from_json(row["image"]) for row in _json_doc(out)["rows"]]
        else:
            images = [parse_qpoly_text(ln.split(" -> ", 1)[1]) for ln in out.splitlines()]
        err = check_umbral_images(weights, depth, images)
        return None if err is None else f"umbral ({fmt}): {err}"

    return check


WORKLOADS = ("engine-sweep", "tables", "cli-cold")
