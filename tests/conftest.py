"""Shared fixtures: kernel warm-up and the acceptance report table."""

import time

import pytest

import gramspec


_ACCEPTANCE_ROWS = {}


@pytest.fixture(scope="session", autouse=True)
def warm_kernels():
    """Run the hot kernels once so no test pays their first-call cost."""
    gramspec.warm_up()


@pytest.fixture()
def record_acceptance():
    """Collect one pass/fail row per acceptance criterion for the summary."""
    def _record(number: int, label: str, ok: bool, detail: str) -> None:
        _ACCEPTANCE_ROWS[number] = (label, bool(ok), detail)
    return _record


class Stopwatch:
    def __init__(self):
        self.start = time.perf_counter()

    @property
    def elapsed(self) -> float:
        return time.perf_counter() - self.start


@pytest.fixture()
def stopwatch():
    return Stopwatch()


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _ACCEPTANCE_ROWS:
        return
    terminalreporter.section("acceptance criteria")
    for number in sorted(_ACCEPTANCE_ROWS):
        label, ok, detail = _ACCEPTANCE_ROWS[number]
        status = "PASS" if ok else "FAIL"
        terminalreporter.write_line(
            f"criterion {number:2d} [{label}]: {status} — {detail}")
