import pytest

from fracvar import operators, sturm_liouville

_ACCEPTANCE_LINES = []


@pytest.fixture(autouse=True)
def empty_kept_slots():
    """Start every test with no kept Ritz basis and no kept rules, so no
    test's builds turn into reuses of what an earlier test left (work
    counts stay exact)."""
    sturm_liouville._LAST_BASIS.set(None)
    operators._LAST_RULES.set(None)


@pytest.fixture
def acceptance_report():
    """Collect one pass/fail line per acceptance criterion for the summary."""

    def record(line: str) -> None:
        _ACCEPTANCE_LINES.append(line)
        print(line, flush=True)

    return record


def pytest_terminal_summary(terminalreporter):
    if _ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in _ACCEPTANCE_LINES:
            terminalreporter.write_line(line)
