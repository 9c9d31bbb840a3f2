"""Result record for the identity-sweep checks, and the one sweep runner."""

from __future__ import annotations

from typing import Iterable, NamedTuple


class VerifyReport(NamedTuple):
    """Outcome of an exhaustive or randomized identity sweep.

    ``cases`` counts the individual equalities checked; on failure
    ``counterexample`` describes the first offending instance.
    """

    check: str
    passed: bool
    cases: int
    counterexample: str | None = None

    def summary(self) -> str:
        if self.passed:
            return f"{self.check}: pass ({self.cases} cases)"
        return f"{self.check}: FAIL after {self.cases} cases ({self.counterexample})"


def sweep(check: str, outcomes: Iterable[str | None]) -> VerifyReport:
    """Run the sweep ``check``: each outcome is one case, None if it holds, else its
    counterexample.  Counts the cases and stops at the first counterexample; a
    sweep whose bounds leave no case raises ValueError rather than pass."""
    cases = 0
    for cases, failure in enumerate(outcomes, 1):
        if failure is not None:
            return VerifyReport(check, False, cases, failure)
    if not cases:
        raise ValueError(f"{check}: the bounds leave no case to check")
    return VerifyReport(check, True, cases)
