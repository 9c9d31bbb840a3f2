"""formalcalc benchmark: one workload, checked outputs, one JSON result line.

    python3 perfbench/run.py --workload engine-sweep|tables|cli-cold \
        --seed N --seconds S --trace 0|1

Run from the root of a formalcalc checkout; the package is imported from
``src/``.  Each workload runs in fresh worker processes (``worker.py``),
one at a time, each single-threaded, so the numbers measure formalcalc
rather than the scheduler.

``--trace 0`` prints the end-to-end metrics: jobs_per_s, job_p50_ms,
job_tail_ms, peak_rss_mb and setup_s.  ``--trace 1`` first repeats the
untraced pass at half length, then runs the same jobs again with spans
around formalcalc's public callables (``spans.py``) and prints the
per-layer metrics, including ``trace.overhead_ratio``.  Every job's output
is checked by an oracle outside the timed region; the last stdout line is
``{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import monotonic, perf_counter

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import workloads as wl  # noqa: E402

RUN_LIMIT_S = 170.0
# set-up-only workers, half before and half after the timed one, whose own
# set-up makes one more sample; spread over the run, they see more of the
# host's slow and fast spells than back-to-back samples would
SETUP_PROBES = 4
INTERP_REPEATS = 5

# the cli-cold job classes, in cycle order; every cycle has each class once
CLI_CLASSES = tuple(job.cls for job in wl.cli_cycle(wl.CliGen(0), {}, 0))


class BenchError(RuntimeError):
    pass


class Bench:
    def __init__(self, workload: str, seed: int, seconds: float, scratch: Path):
        self.workload, self.seed, self.seconds, self.scratch = workload, seed, seconds, scratch
        self.deadline = monotonic() + RUN_LIMIT_S

    def worker(self, mode: str, seconds: float, jobs: int = 0, outputs: "Path | None" = None) -> dict:
        remaining = self.deadline - monotonic()
        if remaining <= 0:
            raise BenchError("out of time before the next worker")
        cmd = [sys.executable, str(HERE / "worker.py"), "--workload", self.workload,
               "--seed", str(self.seed), "--seconds", repr(seconds), "--mode", mode, "--jobs", str(jobs)]
        if outputs is not None:
            cmd += ["--outputs", str(outputs)]
        t0 = monotonic()
        try:
            proc = subprocess.run([*cmd, "--t0", repr(t0)], capture_output=True, text=True,
                                  env=dict(os.environ, PYTHONHASHSEED="0"), timeout=remaining)
        except subprocess.TimeoutExpired:
            raise BenchError(f"{mode} worker ran past the {RUN_LIMIT_S:.0f} s limit") from None
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            raise BenchError(f"{mode} worker exited {proc.returncode}:\n{proc.stderr[-2000:]}")
        return json.loads(lines[-1])

    def checked(self, mode: str, seconds: float, jobs: int = 0) -> dict:
        """A timed or traced worker, then a separate process that runs the oracles on its outputs."""
        outputs = self.scratch / f"{mode}.pickle"
        result = self.worker(mode, seconds, jobs, outputs)
        verdict = self.worker("check", seconds, outputs=outputs)
        outputs.unlink()
        if len(verdict["ok"]) != len(result["jobs"]):
            raise BenchError(f"checked {len(verdict['ok'])} of {len(result['jobs'])} {mode} jobs")
        for job, ok in zip(result["jobs"], verdict["ok"]):
            job["ok"] = ok
        result["failures"], result["props"] = verdict["failures"], verdict["props"]
        return result

    def setup_times(self, run_timed) -> tuple[dict, list[float]]:
        """Runs the timed worker between set-up-only workers; returns it and every set-up time."""
        before = [self.worker("setup", self.seconds)["setup_s"] for _ in range(SETUP_PROBES // 2)]
        timed = run_timed()
        after = [self.worker("setup", self.seconds)["setup_s"] for _ in range(SETUP_PROBES - SETUP_PROBES // 2)]
        return timed, [timed["setup_s"], *before, *after]


def tail(walls: list[float]) -> tuple[float, float, int]:
    """(value, percentile, samples): the highest percentile with >= 10 samples beyond it."""
    s, n = sorted(walls), len(walls)
    if n <= 10:
        return s[-1], 100.0, n
    return s[n - 11], 100.0 * (n - 10) / n, n


def input_properties(workload: str, props: list[dict]) -> dict:
    if workload == "cli-cold":
        sizes = [p["bytes"] for p in props]
        return {"output_bytes_max": max(sizes), "output_bytes_total": sum(sizes)}
    out = {"largest_order": max(p.get("order", 0) for p in props)}
    if workload == "engine-sweep":
        elements = sum(p["elements"] for p in props)
        out["symbolic_element_share"] = round(sum(p["symbolic"] for p in props) / elements, 4)
    else:
        out["largest_table"] = max(p.get("table", 0) for p in props)
        series = [p["symbolic"] for p in props if "symbolic" in p]  # the iterated-log jobs
        out["symbolic_exponent_share"] = round(sum(series) / len(series), 4) if series else 0.0
    return out


def end_to_end(timed: dict, setups: list[float]) -> dict:
    walls = [j["wall"] for j in timed["jobs"]]
    tail_s, _, _ = tail(walls)
    return {
        "jobs_per_s": {"value": len(walls) / timed["elapsed"], "unit": "1/s"},
        "job_p50_ms": {"value": 1000 * statistics.median(walls), "unit": "ms"},
        "job_tail_ms": {"value": 1000 * tail_s, "unit": "ms"},
        "peak_rss_mb": {"value": timed["rss_mb"], "unit": "MB"},
        "setup_s": {"value": statistics.median(setups), "unit": "s"},
    }


def interp_start_s() -> float:
    """Median wall time of a bare ``python -c pass``: the floor under every CLI job."""
    walls = []
    for _ in range(INTERP_REPEATS):
        start = perf_counter()
        subprocess.run([sys.executable, "-c", "pass"], check=True, timeout=30)
        walls.append(perf_counter() - start)
    return statistics.median(walls)


def per_layer(workload: str, base: dict, traced: dict, interp_s: float) -> dict:
    tr = traced["trace"]
    agg, counts = tr.get("agg", {}), tr.get("counts", {})

    def calls(name):
        return agg[name][0] if name in agg else counts.get(name, 0)

    def self_s(name):
        return agg[name][2] if name in agg else 0.0

    def module_self(module):
        return sum(v[2] for k, v in agg.items() if k.startswith(module + "."))

    lookups = counts.get("derivations.memo_lookups", 0)
    m = {
        "params.mul.calls": (calls("params.mul"), "count"),
        "params.add.calls": (calls("params.add"), "count"),
        "algebra.monomial_mul.calls": (calls("algebra.monomial_mul"), "count"),
        "algebra.element_mul.calls": (calls("algebra.element_mul"), "count"),
        "algebra.element_mul.self_s": (self_s("algebra.element_mul"), "s"),
        "algebra.yseries_mul.calls": (calls("algebra.yseries_mul"), "count"),
        "algebra.yseries_mul.self_s": (self_s("algebra.yseries_mul"), "s"),
        "algebra.yseries_mul.terms_out": (counts.get("algebra.yseries_mul.terms_out", 0), "count"),
        "algebra.render_text.self_s": (self_s("algebra.render_text"), "s"),
        "algebra.intern_size": (tr.get("algebra.intern_size", 0), "count"),
        "algebra.self_s": (module_self("algebra"), "s"),
        "derivations.memo_size": (tr.get("derivations.memo_size", 0), "count"),
        "derivations.exp_series.calls": (calls("derivations.exp_series"), "count"),
        "derivations.exp_series.self_s": (self_s("derivations.exp_series"), "s"),
        "derivations.apply.calls": (calls("derivations.apply"), "count"),
        "derivations.apply.self_s": (self_s("derivations.apply"), "s"),
        "derivations.apply.terms_in": (counts.get("derivations.apply.terms_in", 0), "count"),
        "derivations.apply.terms_out": (counts.get("derivations.apply.terms_out", 0), "count"),
        "derivations.memo_hit_ratio": (1 - counts.get("derivations.memo_misses", 0) / lookups if lookups else 0.0, "ratio"),
        "derivations.self_s": (module_self("derivations"), "s"),
        "diffrep.lifted_exp.self_s": (self_s("diffrep.lifted_exp"), "s"),
        "expansions.iterated_log_series.self_s": (self_s("expansions.iterated_log_series"), "s"),
        "expansions.closed_form_series.self_s": (self_s("expansions.closed_form_series"), "s"),
        "combinatorics.stirling1.calls": (calls("combinatorics.stirling1"), "count"),
        "combinatorics.stirling1.self_s": (self_s("combinatorics.stirling1"), "s"),
        "combinatorics.cache_size": (tr.get("combinatorics.cache_size", 0), "count"),
        "combinatorics.signed_esym.self_s": (self_s("combinatorics.signed_esym"), "s"),
        "combinatorics.stirling_chain.calls": (calls("combinatorics.stirling_chain"), "count"),
        "faadibruno.derive.calls": (calls("faadibruno.derive"), "count"),
        "faadibruno.derive.self_s": (self_s("faadibruno.derive"), "s"),
        "faadibruno.derive.terms_out": (counts.get("faadibruno.derive.terms_out", 0), "count"),
        "faadibruno.compose.self_s": (self_s("faadibruno.compose"), "s"),
        "faadibruno.umbral_shift.self_s": (self_s("faadibruno.umbral_shift"), "s"),
        "qpoly.mul.calls": (calls("qpoly.mul"), "count"),
        "qpoly.self_s": (module_self("qpoly"), "s"),
        "parser.parse_element.self_s": (self_s("parser.parse_element"), "s"),
        "jsonio.self_s": (module_self("jsonio"), "s"),
        "latexio.self_s": (module_self("latexio"), "s"),
        "cli.output_bytes": (sum(p.get("bytes", 0) for p in traced["props"]), "bytes"),
        "cli.interp_start_s": (interp_s, "s"),
        "cli.import_s": (tr.get("cli.import_s", 0.0), "s"),
        "cli.main.self_s": (self_s("cli.main"), "s"),
        "runtime.gc_s": (tr.get("gc_s", 0.0), "s"),
        "runtime.gc_collections": (tr.get("gc_collections", 0), "count"),
        "trace.overhead_ratio": (traced["elapsed"] / base["elapsed"], "ratio"),
        "trace.job_s": (tr["job_walls"], "s"),
        "trace.uncovered_s": (tr["job_walls"] - tr.get("root_s", 0.0), "s"),
    }
    by_class: dict[str, list[float]] = {}
    for job in base["jobs"] if workload == "cli-cold" else ():
        by_class.setdefault(job["cls"], []).append(job["wall"])
    for cls in CLI_CLASSES:
        walls = by_class.get(cls)
        m[f"cli.class.{cls}.p50_ms"] = (1000 * statistics.median(walls) if walls else 0.0, "ms")
    return {name: {"value": value, "unit": unit} for name, (value, unit) in m.items()}


def report(workload: str, seed: int, runs: list[dict], metrics: dict, extra: dict) -> None:
    attempted = sum(len(r["jobs"]) for r in runs)
    failed = sum(not j["ok"] for r in runs for j in r["jobs"])
    fail_rate = failed / attempted
    print(f"workload {workload}, seed {seed}: {attempted} jobs attempted, "
          f"{attempted - failed} completed, {failed} failed")
    for name, m in metrics.items():
        print(f"  {name:<44} {m['value']:>14.6g} {m['unit']}")
    print(f"  {'fail_rate':<44} {fail_rate:>14.6g} ratio")
    for msg in [f for r in runs for f in r["failures"]][:10]:
        print(f"  FAILED {msg}")
    print(json.dumps({"info": {"fail_rate": fail_rate, **extra}}))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))


def measure(args, scratch: Path) -> int:
    bench = Bench(args.workload, args.seed, args.seconds, scratch)
    if args.trace == 0:
        timed, setups = bench.setup_times(lambda: bench.checked("timed", args.seconds))
        metrics = end_to_end(timed, setups)
        _, pct, samples = tail([j["wall"] for j in timed["jobs"]])
        extra = {"job_tail_percentile": round(pct, 2), "job_samples": samples,
                 "setup_samples": setups, "inputs": input_properties(args.workload, timed["props"])}
        report(args.workload, args.seed, [timed], metrics, extra)
    else:
        base = bench.checked("timed", args.seconds / 2)
        traced = bench.checked("traced", args.seconds / 2, jobs=len(base["jobs"]))
        interp_s = interp_start_s() if args.workload == "cli-cold" else 0.0
        metrics = per_layer(args.workload, base, traced, interp_s)
        extra = {"spans_dropped": traced["trace"].get("spans_dropped", 0),
                 "inputs": input_properties(args.workload, base["props"])}
        report(args.workload, args.seed, [base, traced], metrics, extra)
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=wl.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    root = Path.cwd()
    needed = [root / "src" / "formalcalc" / "__init__.py"]
    if args.workload == "cli-cold":
        needed += [root / "tests" / "golden" / name for name in wl.GOLDEN]
    missing = [str(p.relative_to(root)) for p in needed if not p.is_file()]
    if missing:
        print(f"perfbench: run from a formalcalc checkout; missing {', '.join(missing)}", file=sys.stderr)
        return 2
    try:
        with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=root) as scratch:
            return measure(args, Path(scratch))
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
