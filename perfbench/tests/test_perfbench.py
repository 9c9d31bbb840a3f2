"""Tests of the benchmark itself.

Run from the repository root:  python3 -m pytest perfbench/tests -q

The end-to-end tests run ``perfbench/run.py`` at its smallest size (one
cycle per workload), so the whole file takes about a minute.  Planted-fault
tests copy ``src/`` into a temporary checkout, break one function there and
expect the oracles to notice.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import workloads as wl  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
E2E = {m["name"] for m in SPEC["end_to_end"]}
LAYER = {m["name"] for m in SPEC["per_layer"]}


def run_bench(workload: str, seed: int = 1, trace: int = 0, cwd: Path = ROOT, seconds: str = "0.1"):
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", seconds, "--trace", str(trace)],
        capture_output=True, text=True, cwd=cwd, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-1]), lines


def planted_checkout(tmp_path: Path, module: str, old: str, new: str) -> Path:
    """A copy of the checkout with one line of formalcalc changed."""
    shutil.copytree(ROOT / "src", tmp_path / "src", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copytree(ROOT / "tests" / "golden", tmp_path / "tests" / "golden")
    path = tmp_path / "src" / "formalcalc" / module
    text = path.read_text()
    assert old in text
    path.write_text(text.replace(old, new))
    return tmp_path


def assert_counts_add_up(result, lines):
    summary = next(ln for ln in lines if ln.startswith("workload "))
    attempted, completed, failed = (int(w) for w in summary.replace(",", "").split() if w.isdigit())
    assert attempted == result["attempted"] == completed + failed
    assert failed == result["failed"]


@pytest.mark.parametrize("workload", wl.WORKLOADS)
def test_tiny_run_emits_declared_metrics(workload):
    result, lines = run_bench(workload)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert set(result["metrics"]) == E2E
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert all(m["value"] > 0 for m in result["metrics"].values())
    assert_counts_add_up(result, lines)
    traced, lines = run_bench(workload, trace=1)
    assert set(traced["metrics"]) == LAYER
    assert traced["correct"]
    assert_counts_add_up(traced, lines)
    if workload == "engine-sweep":  # the sweep's time is engine and algebra time
        m = {k: v["value"] for k, v in traced["metrics"].items()}
        assert m["derivations.self_s"] + m["algebra.self_s"] > 0.5 * m["trace.job_s"]


def test_tables_trace_leaves_engine_idle():
    traced, _ = run_bench("tables", trace=1)
    assert traced["metrics"]["derivations.apply.calls"]["value"] == 0
    assert traced["metrics"]["faadibruno.derive.calls"]["value"] > 0


def test_oracles_run_outside_the_measured_worker(tmp_path):
    # exp(yD) ends the process: only the tables oracles call it, so the
    # timed worker must get through while the checking process must not
    checkout = planted_checkout(tmp_path, "derivations.py", "    def exp_series(self, a: Element, order: int) -> YSeries:\n",
                                "    def exp_series(self, a: Element, order: int) -> YSeries:\n        import os; os._exit(3)\n")
    outputs = tmp_path / "outputs.pickle"
    common = [sys.executable, str(BENCH / "worker.py"), "--workload", "tables", "--seed", "1",
              "--seconds", "0.1", "--outputs", str(outputs)]
    timed = subprocess.run([*common, "--mode", "timed"], capture_output=True, text=True, cwd=checkout, timeout=120)
    assert timed.returncode == 0, timed.stderr
    assert json.loads(timed.stdout)["jobs"] and outputs.stat().st_size > 0
    check = subprocess.run([*common, "--mode", "check"], capture_output=True, text=True, cwd=checkout, timeout=120)
    assert check.returncode == 3


PLANTS = {
    # exp_series scales D^5 wrongly: the automorphism identity breaks
    "engine-sweep": ("derivations.py", "Fraction(1, factorial(k))", "Fraction(1, factorial(k) + (k == 5))"),
    # large symmetric sums are off by one
    "tables": ("combinatorics.py", "return (-1) ** m * total", "return (-1) ** m * total + (m + n >= 17)"),
    # one Stirling number in the CLI table is off by one
    "cli-cold": ("combinatorics.py", "[[stirling1(k, j) for j in range(k + 1)]",
                 "[[stirling1(k, j) + ((k, j) == (12, 3)) for j in range(k + 1)]"),
}


@pytest.mark.parametrize("workload", wl.WORKLOADS)
def test_planted_wrong_answer_fails_jobs(workload, tmp_path):
    checkout = planted_checkout(tmp_path, *PLANTS[workload])
    result, lines = run_bench(workload, cwd=checkout)
    assert result["failed"] > 0 and not result["correct"]
    assert_counts_add_up(result, lines)
    assert any(ln.startswith("  FAILED") for ln in lines)


def test_missing_program_exits_nonzero(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / BENCH.name, ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", "tables", "--seed", "1", "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, cwd=tmp_path, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


def _inputs(workload: str, seed: int):
    if workload == "cli-cold":
        return [(j.cls, j.argv) for j in wl.cli_cycle(wl.CliGen(seed), {"root": str(ROOT)}, 0)]
    if workload == "engine-sweep":
        gen = wl.EngineGen(seed)
        return [(gen.element(True), gen.element(False)) for _ in range(6)]
    gen = wl.TablesGen(seed)
    return [gen.exponent() for _ in range(6)] + [gen.draw("esym_total") for _ in range(4)]


@pytest.mark.parametrize("workload", wl.WORKLOADS)
def test_seed_changes_inputs_not_shape(workload):
    assert _inputs(workload, 1) == _inputs(workload, 1)
    assert _inputs(workload, 1) != _inputs(workload, 2)
    if workload == "cli-cold":
        assert [c for c, _ in _inputs(workload, 1)] == [c for c, _ in _inputs(workload, 2)]


def test_seed_keeps_metric_names():
    one, _ = run_bench("tables", seed=1)
    two, _ = run_bench("tables", seed=2)
    assert set(one["metrics"]) == set(two["metrics"]) == E2E


def test_cli_oracle_rejects_bad_runs():
    import worker

    job = next(j for j in wl.cli_cycle(wl.CliGen(3), {"root": str(ROOT)}, 0) if j.cls == "golden-verify_lubell")
    good = {"rc": 0, "stdout": (ROOT / "tests/golden/verify_lubell.txt").read_text(), "stderr": ""}
    assert worker.check_job("cli-cold", job, 0.1, good, None, {}) is None
    for bad in (
        dict(good, stdout="lubell: pass (100 cases)\n"),
        dict(good, rc=1),
        dict(good, stderr="Traceback (most recent call last):\n"),
        dict(good, rc=None, stderr="timed out"),
    ):
        assert worker.check_job("cli-cold", job, 0.1, bad, None, {}) is not None
    assert worker.check_job("cli-cold", job, worker.JOB_LIMIT_S + 1, good, None, {}) is not None


def test_independent_oracles():
    assert [wl.partitions(n) for n in range(8)] == [1, 1, 2, 3, 5, 7, 11, 15]
    assert [wl.bell(n) for n in range(7)] == [1, 1, 2, 5, 15, 52, 203]
    assert wl.stirling_rows_by_recurrence(4)[4] == [0, 6, 11, 6, 1]
    assert wl.lubell_cases(8, None) == 101  # the golden verify_lubell.txt count
    assert wl.parse_qpoly_text("2*x^3 - 1/2*x + 1") == [1, wl.Fraction(-1, 2), 0, 2]
    # f(g(x+y)) for f = t^2, g = x: x^2 + 2x y + y^2
    assert wl.composite_taylor([0, 0, 1], [0, 1], 2) == [[0, 0, 1], [0, 2], [1]]


def test_tail_percentile():
    import run

    assert run.tail([1.0] * 5) == (1.0, 100.0, 5)
    value, pct, n = run.tail([float(i) for i in range(100)])
    assert (value, n) == (89.0, 100) and pct == 90.0
