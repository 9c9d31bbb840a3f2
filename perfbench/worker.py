"""One workload run in a fresh process; prints one JSON line as its result.

    python3 perfbench/worker.py --workload NAME --seed N --seconds S \
        --mode timed|setup|traced|check [--jobs N] [--t0 MONOTONIC] [--outputs FILE]

``--t0`` is the parent's monotonic clock just before it started this
process, so set-up time covers interpreter start, the formalcalc import
and the warm-up, less the time spent generating inputs.

``setup`` stops after the warm-up.  ``timed`` runs the fixed job list:
``round(S / nominal cycle time)`` whole cycles, at least one, each cycle
a fixed mix of job classes (see ``workloads``).  ``traced`` runs the same
list, cut to the first ``--jobs`` jobs, with spans installed.  After each
cycle, outside the timed region, these modes append the cycle's outputs
to ``--outputs`` (pickled) and drop them, so memory holds at most one
cycle of outputs and the oracles never run in the measured process.

``check`` is that oracle process: it rebuilds the same job list from the
seed, reads ``--outputs`` and judges every job.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import pickle
import resource
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import monotonic, perf_counter

import workloads as wl

HERE = Path(__file__).resolve().parent
JOB_LIMIT_S = 30.0
# Seconds one cycle takes at the seed commit on a 2-CPU machine; sets the
# number of cycles a run of --seconds S performs.
NOMINAL_CYCLE_S = {"engine-sweep": 1.8, "tables": 0.46, "cli-cold": 7.5}
RUNAWAY_FACTOR = 3.0  # a run stops early, at a cycle boundary, past 3x its nominal time


def cycles_for(workload: str, seconds: float) -> int:
    return max(1, round(seconds / NOMINAL_CYCLE_S[workload]))


def cli_env(root: Path) -> dict:
    env = dict(os.environ)
    env.pop("NO_COLOR", None)
    env.pop("FORMALCALC_COLOR", None)
    env["PYTHONHASHSEED"] = "0"  # the same seed makes the same dict and set layouts
    src = str(root / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


class Runner:
    """Builds cycles and runs jobs for one workload in this process."""

    def __init__(self, workload: str, seed: int, root: Path):
        self.workload, self.seed, self.root = workload, seed, root
        self.traced = False  # set once set-up is done, for the traced mode
        self.gen_s = 0.0
        self.tracer = None
        self.trace_parts: list[dict] = []
        self.import_times: list[float] = []
        self.child_spans: list[tuple] = []
        self.env = cli_env(root)

    # -- input generation (excluded from set-up time)
    def make_gen(self, seed: int, warm: bool = False):
        if self.workload == "engine-sweep":  # warm-up shapes differ from the timed ones
            return wl.EngineGen(seed, wl.CATALOG_SEED + warm)
        if self.workload == "tables":
            return wl.TablesGen(seed, top=warm)
        return wl.CliGen(seed)

    def make_ctx(self) -> dict:
        if self.workload == "engine-sweep":
            import formalcalc

            return {"ddx": formalcalc.d_dx(), "xddx": formalcalc.x_d_dx()}
        return {"root": str(self.root)}

    def cycle(self, gen, ctx, index: int) -> list:
        start = monotonic()
        make = {"engine-sweep": wl.engine_cycle, "tables": wl.tables_cycle, "cli-cold": wl.cli_cycle}
        jobs = make[self.workload](gen, ctx, index)
        self.gen_s += monotonic() - start
        return jobs

    # -- set-up
    def setup(self) -> None:
        if self.workload == "cli-cold":
            # one invocation, so byte-code caches exist before the first timed job
            self.run_cli(("stirling-table", "--max", "3"))
            return
        import formalcalc  # noqa: F401  (the import is part of set-up)

        warm = self.cycle(self.make_gen(wl.WARMUP_SEED, warm=True), self.make_ctx(), -1)
        for job in warm[:8] if self.workload == "engine-sweep" else warm:
            job.run()

    # -- one job
    def run_cli(self, argv, job_id: int = -1) -> dict:
        if self.traced:
            fd, out_path = tempfile.mkstemp(prefix="span-", suffix=".json", dir=self.scratch)
            os.close(fd)
            cmd = [sys.executable, str(HERE / "cli_child.py"), out_path, *argv]
        else:
            out_path = None
            cmd = [sys.executable, "-m", "formalcalc.cli", *argv]
        start = perf_counter()
        try:
            proc = subprocess.run(
                cmd, capture_output=True, text=True, env=self.env, cwd=self.root, timeout=JOB_LIMIT_S
            )
            result = {"rc": proc.returncode, "stdout": proc.stdout, "stderr": proc.stderr}
        except subprocess.TimeoutExpired:
            result = {"rc": None, "stdout": "", "stderr": f"timed out after {JOB_LIMIT_S} s"}
        result["wall"] = perf_counter() - start
        if out_path:
            try:
                part = json.loads(Path(out_path).read_text() or "null")
            except (OSError, ValueError):
                part = None
            if part:
                self.import_times.append(part.pop("import_s"))
                self.child_spans.extend((*span[:5], job_id) for span in part.pop("spans"))
                self.trace_parts.append(part)
            Path(out_path).unlink(missing_ok=True)
        return result

    def run_job(self, job, job_id: int):
        """Returns (wall seconds, output, error message or None)."""
        if self.workload == "cli-cold":
            res = self.run_cli(job.argv, job_id)
            return res["wall"], res, None
        tracer = self.tracer
        if tracer:
            tracer.begin_job(job_id)
        start = perf_counter()
        try:
            out, err = job.run(), None
        except Exception as exc:  # a raising job is a failed job, not a crashed run
            out, err = None, f"{job.key}: raised {type(exc).__name__}: {exc}"
        wall = perf_counter() - start
        if tracer:
            tracer.end_job()
        return wall, out, err


def check_job(workload, job, wall, out, err, outputs) -> "str | None":
    if err:
        return err
    if wall > JOB_LIMIT_S:
        return f"{job.key}: took {wall:.1f} s, over the {JOB_LIMIT_S} s limit"
    if workload == "cli-cold":
        if out["rc"] is None:
            return f"{job.key}: {out['stderr']}"
        if "Traceback" in out["stderr"]:
            return f"{job.key}: traceback on stderr"
        if out["rc"] != job.want_rc:
            return f"{job.key}: exit {out['rc']}, want {job.want_rc}: {out['stderr'].strip()[:200]}"
        if job.want_rc == 2 and not out["stderr"].startswith(("formalcalc:", "usage:")):
            return f"{job.key}: usage error without a message"
        out = out["stdout"]
    try:
        return job.check(out, outputs)
    except Exception as exc:  # an oracle that cannot read the output fails the job
        return f"{job.key}: unreadable output ({type(exc).__name__}: {exc})"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=wl.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--mode", choices=("timed", "setup", "traced", "check"), default="timed")
    ap.add_argument("--jobs", type=int, default=0, help="stop after this many jobs (0: whole cycles)")
    ap.add_argument("--t0", type=float, default=None)
    ap.add_argument("--outputs", type=Path, help="the pickled job outputs (written, or read by check)")
    args = ap.parse_args(argv)
    t0 = monotonic() if args.t0 is None else args.t0
    root = Path.cwd()
    sys.path.insert(0, str(root / "src"))
    runner = Runner(args.workload, args.seed, root)
    if args.mode == "check":
        result = check_outputs(runner, args.outputs)
    else:
        with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=root) as scratch:
            runner.scratch = scratch
            result = run(runner, args, t0)
    print(json.dumps(result))
    return 0


def run(runner: Runner, args, t0: float) -> dict:
    workload = args.workload
    runner.setup()  # never traced: spans cover timed jobs only
    if args.mode == "setup":
        return {"setup_s": monotonic() - t0 - runner.gen_s}
    runner.traced = args.mode == "traced"
    if runner.traced and workload != "cli-cold":
        import spans

        runner.tracer = spans.Tracer()
        spans.install(runner.tracer)
    gen, ctx = runner.make_gen(args.seed), runner.make_ctx()
    if runner.tracer and "ddx" in ctx:  # the sweep's own derivations count towards memo_size
        runner.tracer.derivations.extend((ctx["ddx"], ctx["xddx"]))
    n_cycles = cycles_for(workload, args.seconds)
    budget = RUNAWAY_FACTOR * n_cycles * NOMINAL_CYCLE_S[workload]
    usage = resource.RUSAGE_CHILDREN if workload == "cli-cold" else resource.RUSAGE_SELF
    jobs_out: list[dict] = []
    setup_s = None
    elapsed = 0.0
    with open(args.outputs, "wb") as fh:
        for index in range(n_cycles):
            jobs = runner.cycle(gen, ctx, index)
            if setup_s is None:
                setup_s = monotonic() - t0 - runner.gen_s
            if args.jobs:
                jobs = jobs[: args.jobs - len(jobs_out)]
            records = []
            start = perf_counter()
            for job in jobs:
                records.append((job.key, *runner.run_job(job, len(jobs_out) + len(records))))
            elapsed += perf_counter() - start
            rss_kb = resource.getrusage(usage).ru_maxrss  # before the outputs are written out
            jobs_out.extend({"cls": job.cls, "wall": rec[1]} for job, rec in zip(jobs, records))
            pickle.dump((index, records), fh, protocol=pickle.HIGHEST_PROTOCOL)
            del records
            if (args.jobs and len(jobs_out) >= args.jobs) or elapsed > budget:
                break
    result = {
        "workload": workload,
        "seed": args.seed,
        "setup_s": setup_s,
        "elapsed": elapsed,
        "rss_mb": rss_kb / 1024.0,
        "jobs": jobs_out,
    }
    if runner.traced:
        result["trace"] = trace_summary(runner, workload, args.seed, jobs_out)
    return result


def check_outputs(runner: Runner, path: Path) -> dict:
    """Judge the outputs a timed or traced worker wrote, job by job, in job order.

    The job list is rebuilt from the same seed, cycle by cycle, so each
    output meets the job (and oracle) that produced it.
    """
    gen, ctx = runner.make_gen(runner.seed), runner.make_ctx()
    ok, failures, props = [], [], []
    with open(path, "rb") as fh:
        for index in itertools.count():
            try:
                cycle_index, records = pickle.load(fh)
            except EOFError:
                break
            assert cycle_index == index, f"cycle {cycle_index} out of order"
            jobs = {job.key: job for job in runner.cycle(gen, ctx, index)}
            outputs = {
                key: out["stdout"] if runner.workload == "cli-cold" else out
                for key, _wall, out, err in records
                if err is None
            }
            for key, wall, out, err in records:
                job = jobs[key]
                msg = check_job(runner.workload, job, wall, out, err, outputs)
                if msg:
                    failures.append(msg)
                ok.append(msg is None)
                props.append({"bytes": len(out["stdout"].encode())} if runner.workload == "cli-cold" else job.props)
    return {"ok": ok, "failures": failures, "props": props}


def trace_summary(runner: Runner, workload: str, seed: int, jobs_out) -> dict:
    import spans

    if runner.tracer:
        summary = runner.tracer.summary()
        summary.update(spans.table_sizes(runner.tracer))
        raw = runner.tracer.spans
    else:
        summary, raw = {}, runner.child_spans
        sizes = ("derivations.memo_size", "algebra.intern_size", "combinatorics.cache_size")
        for part in runner.trace_parts:
            largest = {k: part.pop(k) for k in sizes}
            spans.merge(summary, part)
            for k, v in largest.items():  # tables live per process: report the largest
                summary[k] = max(summary.get(k, 0), v)
        summary["cli.import_s"] = statistics.median(runner.import_times) if runner.import_times else 0.0
    summary["job_walls"] = sum(j["wall"] for j in jobs_out)
    # the raw spans, written once at the end of the run
    out_dir = runner.root / ".perfbench_out"
    out_dir.mkdir(exist_ok=True)
    (out_dir / f"spans-{workload}-{seed}.json").write_text(json.dumps(raw))
    return summary


if __name__ == "__main__":
    sys.exit(main())
