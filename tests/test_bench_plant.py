"""The engine-sweep benchmark notices a wrong exp(yD).

``perfbench/tests`` plants its engine-sweep fault by rewriting the literal
``Fraction(1, factorial(k))`` of ``derivations.py``, which the divided-power
form no longer has, so that planted test fails before it runs the benchmark.
This test plants on the line of ``Derivation.exp_series`` that appends each
order's numerator instead, in a copy of ``src/``, with the benchmark's own
helpers; it can go once the benchmark plants there itself.  The lines the
benchmark does plant on today are checked to occur once each in their
module, so a refactor that breaks one fails here and not only in the
slow ``perfbench/tests`` run.
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "perfbench" / "tests"))

from test_perfbench import PLANTS, assert_counts_add_up, planted_checkout, run_bench  # noqa: E402

NUMERATOR_LOOP = "num.append(kernel.element(terms))"
# the line test_oracles_run_outside_the_measured_worker plants on
EXP_SERIES_DEF = "    def exp_series(self, a: Element, order: int) -> YSeries:\n"


@pytest.mark.parametrize(
    "module, anchor",
    [
        PLANTS["tables"][:2],
        PLANTS["cli-cold"][:2],
        ("derivations.py", EXP_SERIES_DEF),
        ("derivations.py", NUMERATOR_LOOP),
    ],
)
def test_each_plant_anchor_occurs_once(module, anchor):
    """A refactor that moves or repeats a planted line fails here, in tier-1.

    The benchmark plants by replacing every occurrence of a literal source
    line, so each anchor must be in its module exactly once.  The
    engine-sweep anchor is left out: the divided-power form removed its
    line, and mending that belongs to the benchmark.
    """
    text = (ROOT / "src" / "formalcalc" / module).read_text()
    assert text.count(anchor) == 1


def test_engine_sweep_fails_jobs_on_a_wrong_numerator(tmp_path):
    """D^5(den * a) doubled breaks exp(yD)(a*b) = exp(yD)(a) * exp(yD)(b)."""
    checkout = planted_checkout(
        tmp_path, "derivations.py", NUMERATOR_LOOP,
        "num.append(kernel.element(terms) * (1 + (len(num) == 5)))",
    )
    result, lines = run_bench("engine-sweep", cwd=checkout)
    assert result["failed"] > 0 and not result["correct"]
    assert_counts_add_up(result, lines)
    assert any(ln.startswith("  FAILED") for ln in lines)
