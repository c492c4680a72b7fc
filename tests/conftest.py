import pytest

from fracvar import sturm_liouville

_ACCEPTANCE_LINES = []


@pytest.fixture(autouse=True)
def empty_basis_slot():
    """Start every test with no kept Ritz basis, so no test's builds turn
    into reuses of a basis an earlier test left (work counts stay exact)."""
    sturm_liouville._LAST_BASIS.set(None)


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
