"""Span tracing around formalcalc's public callables, installed from outside.

``install(tracer)`` replaces public functions and methods of formalcalc
with thin wrappers that record, while ``tracer.active`` is set, either a
span (name, start, end, parent span, job id) or just a call count.  Hot
coefficient-level calls (ParamPoly and Monomial arithmetic) are counted
only: timing each of them would cost more than the call itself.  Their
time stays in the self time of the span that made them.

A span's self time is its duration minus the durations of its child spans.
Aggregates are kept online; the span records themselves stay in memory
(up to ``SPAN_CAP`` of them) and are written out once, at the end.
"""

from __future__ import annotations

import gc
import importlib
import sys
from collections import Counter
from time import perf_counter

SPAN_CAP = 200_000

# (module, class or None, attribute names, span name, kind); kind is "span" or "count"
TARGETS = (
    ("params", "ParamPoly", ("__mul__", "__rmul__"), "params.mul", "count"),
    ("params", "ParamPoly", ("__add__", "__radd__"), "params.add", "count"),
    ("algebra", "Monomial", ("__mul__",), "algebra.monomial_mul", "count"),
    ("algebra", "Element", ("__mul__", "__rmul__"), "algebra.element_mul", "span"),
    ("algebra", "YSeries", ("__mul__", "__rmul__"), "algebra.yseries_mul", "span"),
    ("algebra", "Element", ("__str__",), "algebra.render_text", "span"),
    ("algebra", "YSeries", ("__str__",), "algebra.render_text", "span"),
    ("derivations", "Derivation", ("exp_series",), "derivations.exp_series", "span"),
    ("derivations", "Derivation", ("apply",), "derivations.apply", "span"),
    ("derivations", None, ("d_dx", "x_d_dx"), "derivations.factory", "span"),
    ("diffrep", None, ("lifted_exp",), "diffrep.lifted_exp", "span"),
    ("diffrep", None, ("verify_intertwining",), "diffrep.verify_intertwining", "span"),
    ("expansions", None, ("iterated_log_series",), "expansions.iterated_log_series", "span"),
    ("expansions", None, ("closed_form_series",), "expansions.closed_form_series", "span"),
    ("expansions", None, ("binomial_series",), "expansions.binomial_series", "span"),
    ("combinatorics", None, ("stirling1",), "combinatorics.stirling1", "span"),
    ("combinatorics", None, ("signed_esym",), "combinatorics.signed_esym", "span"),
    ("combinatorics", None, ("stirling_chain",), "combinatorics.stirling_chain", "count"),
    ("combinatorics", None, ("stirling_rows",), "combinatorics.stirling_rows", "span"),
    ("combinatorics", None, ("verify_lubell",), "combinatorics.verify_lubell", "span"),
    ("combinatorics", None, ("verify_chain_product",), "combinatorics.verify_chain_product", "span"),
    ("faadibruno", "FdbPoly", ("derive",), "faadibruno.derive", "span"),
    ("faadibruno", None, ("derivative_tower", "taylor_coefficients"), "faadibruno.tower", "span"),
    ("faadibruno", None, ("compose_expansion",), "faadibruno.compose", "span"),
    ("faadibruno", None, ("umbral_shift",), "faadibruno.umbral_shift", "span"),
    ("qpoly", None, ("mul",), "qpoly.mul", "span"),
    ("qpoly", None, ("add", "sub", "neg", "scale", "power", "compose", "derivative",
                     "normalize", "const", "x_power", "from_coeffs", "to_string"), "qpoly.other", "span"),
    ("parser", None, ("parse_element",), "parser.parse_element", "span"),
    ("checks", None, ("verify_automorphism", "verify_composition"), "checks.verify", "span"),
    ("cli", None, ("main",), "cli.main", "span"),
)
# Every public function of these modules is one span family, e.g. "jsonio.dumps".
WHOLE_MODULES = ("jsonio", "latexio")


class Tracer:
    def __init__(self) -> None:
        self.active = False
        self.job = -1
        self.stack: list[list] = []  # [name, start, child_total, span id]
        self.spans: list[tuple] = []  # (name, start, end, id, parent id, job)
        self.dropped = 0
        self.next_id = 0
        self.agg: dict[str, list] = {}  # name -> [calls, total_s, self_s]
        self.counts: Counter = Counter()
        self.derivations: list = []
        self.root_s = 0.0
        self.job_s = 0.0
        self.gc_s = 0.0
        self.gc_collections = 0
        self._gc_start = 0.0
        self._job_start = 0.0

    # -- jobs and gc
    def begin_job(self, job_id: int) -> None:
        self.job = job_id
        self.active = True
        self._job_start = perf_counter()

    def end_job(self) -> None:
        self.job_s += perf_counter() - self._job_start
        self.active = False

    def _gc_callback(self, phase: str, _info: dict) -> None:
        if not self.active:
            return
        if phase == "start":
            self._gc_start = perf_counter()
        else:
            self.gc_s += perf_counter() - self._gc_start
            self.gc_collections += 1

    # -- spans
    def push(self, name: str) -> None:
        self.next_id += 1
        self.stack.append([name, perf_counter(), 0.0, self.next_id])

    def pop(self) -> None:
        end = perf_counter()
        name, start, child, span_id = self.stack.pop()
        dur = end - start
        entry = self.agg.get(name)
        if entry is None:
            entry = self.agg[name] = [0, 0.0, 0.0]
        entry[0] += 1
        entry[1] += dur
        entry[2] += dur - child
        if self.stack:
            parent = self.stack[-1]
            parent[2] += dur
            parent_id = parent[3]
        else:
            self.root_s += dur
            parent_id = 0
        if len(self.spans) < SPAN_CAP:
            self.spans.append((name, start, end, span_id, parent_id, self.job))
        else:
            self.dropped += 1

    def summary(self) -> dict:
        return {
            "agg": self.agg,
            "counts": dict(self.counts),
            "root_s": self.root_s,
            "job_s": self.job_s,
            "gc_s": self.gc_s,
            "gc_collections": self.gc_collections,
            "spans_dropped": self.dropped,
        }


def _span_wrapper(tracer: Tracer, name: str, fn, extra=None):
    push, pop = tracer.push, tracer.pop

    def wrapper(*args, **kwargs):
        if not tracer.active:
            return fn(*args, **kwargs)
        state = extra.before(tracer, args) if extra else None
        push(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            pop()
        if extra:
            extra.after(tracer, args, result, state)
        return result

    wrapper.__wrapped__ = fn
    wrapper.__name__ = getattr(fn, "__name__", name)
    return wrapper


def _count_wrapper(tracer: Tracer, name: str, fn):
    counts = tracer.counts

    def wrapper(*args, **kwargs):
        if tracer.active:
            counts[name] += 1
        return fn(*args, **kwargs)

    wrapper.__wrapped__ = fn
    wrapper.__name__ = getattr(fn, "__name__", name)
    return wrapper


class _Extra:
    """Counters read around one call: sizes in and out, memo growth."""

    def __init__(self, before=None, after=None):
        self.before = before or (lambda tracer, args: None)
        self.after = after


def _series_terms(series) -> int:
    return sum(len(c) for c in series.coefficients())


def _apply_before(tracer, args):
    memo = getattr(args[0], "_mono_images", None)
    return None if memo is None else len(memo)


def _apply_after(tracer, args, result, memo_before):
    c = tracer.counts
    c["derivations.apply.terms_in"] += len(args[1])
    c["derivations.apply.terms_out"] += len(result)
    if memo_before is not None:
        c["derivations.memo_lookups"] += len(args[1])
        c["derivations.memo_misses"] += len(args[0]._mono_images) - memo_before


def _factory_after(tracer, args, result, _state):
    tracer.derivations.append(result)


EXTRAS = {
    "algebra.yseries_mul": _Extra(after=lambda t, a, r, s: t.counts.update({"algebra.yseries_mul.terms_out": _series_terms(r)})),
    "derivations.apply": _Extra(_apply_before, _apply_after),
    "derivations.factory": _Extra(after=_factory_after),
    "faadibruno.derive": _Extra(after=lambda t, a, r, s: t.counts.update({"faadibruno.derive.terms_out": len(r)})),
}


def install(tracer: Tracer) -> None:
    """Wrap the targets in every formalcalc module; already wrapped callables are skipped."""
    for mod_name in {t[0] for t in TARGETS} | set(WHOLE_MODULES):
        importlib.import_module(f"formalcalc.{mod_name}")
    modules = [m for name, m in list(sys.modules.items()) if name == "formalcalc" or name.startswith("formalcalc.")]

    def rebind(original, wrapper) -> None:
        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, wrapper)

    for mod_name, cls_name, attrs, span, kind in TARGETS:
        module = importlib.import_module(f"formalcalc.{mod_name}")
        owner = getattr(module, cls_name) if cls_name else module
        done: dict[int, object] = {}
        for attr in attrs:
            original = owner.__dict__.get(attr) if cls_name else getattr(module, attr, None)
            if original is None or hasattr(original, "__wrapped__"):
                continue
            wrapper = done.get(id(original))
            if wrapper is None:
                wrapper = (
                    _count_wrapper(tracer, span, original)
                    if kind == "count"
                    else _span_wrapper(tracer, span, original, EXTRAS.get(span))
                )
                done[id(original)] = wrapper
            if cls_name:
                setattr(owner, attr, wrapper)
            else:
                rebind(original, wrapper)
    for mod_name in WHOLE_MODULES:
        module = importlib.import_module(f"formalcalc.{mod_name}")
        for attr, value in list(vars(module).items()):
            if (
                callable(value)
                and not attr.startswith("_")
                and getattr(value, "__module__", None) == module.__name__
                and not isinstance(value, type)
                and not hasattr(value, "__wrapped__")
            ):
                rebind(value, _span_wrapper(tracer, f"{mod_name}.{attr}", value))
    gc.callbacks.append(tracer._gc_callback)


def table_sizes(tracer: Tracer) -> dict:
    """Sizes of the program's caches, read where the attributes exist."""
    from formalcalc import algebra, combinatorics

    memo = sum(len(getattr(d, "_mono_images", ())) for d in tracer.derivations)
    intern = len(getattr(algebra, "_MONO_CACHE", ()))
    comb_cache = len(getattr(combinatorics, "_STIRLING", ())) + len(getattr(combinatorics, "_CHAIN", ()))
    return {"derivations.memo_size": memo, "algebra.intern_size": intern, "combinatorics.cache_size": comb_cache}


def merge(total: dict, part: dict) -> dict:
    """Add one summary (as from ``Tracer.summary``) into another."""
    for name, (calls, tot, self_s) in part["agg"].items():
        entry = total.setdefault("agg", {}).setdefault(name, [0, 0.0, 0.0])
        entry[0] += calls
        entry[1] += tot
        entry[2] += self_s
    counts = total.setdefault("counts", {})
    for name, value in part["counts"].items():
        counts[name] = counts.get(name, 0) + value
    for key in ("root_s", "job_s", "gc_s", "gc_collections", "spans_dropped"):
        total[key] = total.get(key, 0) + part[key]
    return total
