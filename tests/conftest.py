"""Shared fixtures and the acceptance summary hook."""
import pytest

from vdwkit.registry import Registry

_acceptance_results = []


def pytest_runtest_logreport(report):
    if report.when == "call" and "acceptance" in report.keywords:
        _acceptance_results.append((report.nodeid.split("::")[-1], report.passed))


def pytest_terminal_summary(terminalreporter):
    if not _acceptance_results:
        return
    terminalreporter.section("acceptance criteria")
    for name, passed in _acceptance_results:
        terminalreporter.write_line(f"{'PASS' if passed else 'FAIL'}  {name}")


@pytest.fixture
def registry():
    """A fresh seeded registry, isolated from the shared default one."""
    return Registry()


@pytest.fixture(scope="session")
def warm_engine():
    """Compile the search kernel once so timed runs measure search only."""
    from vdwkit._engine import compiled_library

    compiled_library()
