"""Shared pytest wiring.

The acceptance tests in test_acceptance.py are tagged with the
``acceptance(num, label)`` marker; outcomes are collected here and echoed
as one line per criterion at the end of the run, so a scan of the tail of
the log answers "which criteria hold" without grepping test names.  A
timed criterion records ``elapsed_s`` and ``budget_s`` user properties;
its line then shows the elapsed time next to the budget.

Every ``hypothesis`` property test runs under one derandomized profile, with
no example database and no deadline, so a run is reproducible; a test sets
only its ``max_examples``, if it needs another count.
"""

import pytest

try:
    from hypothesis import settings
except ImportError:  # only the property tests need it; they fail on their own import
    pass
else:
    settings.register_profile("formalcalc", derandomize=True, database=None, deadline=None)
    settings.load_profile("formalcalc")

_RESULTS: dict[int, tuple[str, bool, str]] = {}


def _timing(item) -> str:
    props = dict(item.user_properties)
    if "elapsed_s" not in props or "budget_s" not in props:
        return ""
    return f" ({props['elapsed_s']:.2f}s of {props['budget_s']:.0f}s budget)"


def pytest_configure(config):
    config.addinivalue_line(
        "markers", "acceptance(num, label): tags a test as an acceptance criterion"
    )


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_makereport(item, call):
    outcome = yield
    report = outcome.get_result()
    marker = item.get_closest_marker("acceptance")
    if marker is None:
        return
    num, label = marker.args
    if report.when == "call":
        _RESULTS[num] = (label, report.passed, _timing(item))
    elif report.when == "setup" and report.failed:
        _RESULTS[num] = (label, False, "")


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _RESULTS:
        return
    terminalreporter.section("acceptance criteria")
    for num in sorted(_RESULTS):
        label, ok, timing = _RESULTS[num]
        verdict = "PASS" if ok else "FAIL"
        terminalreporter.write_line(f"[acceptance] criterion {num} ({label}): {verdict}{timing}")
