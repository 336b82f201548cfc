import os
import pathlib

import pytest
from hypothesis import settings

# Fixed example generation, and a reproduction blob printed on failure, so a
# failing property fails the same way on every rerun.  Tests keep their own
# max_examples.
settings.register_profile("reproducible", print_blob=True, derandomize=True)
settings.load_profile("reproducible")

CONFIG_DIR = pathlib.Path(__file__).resolve().parent.parent / "configs"

# The test process, to tell it from a forked child.
PARENT = os.getpid()

_acceptance_lines = []


def record_acceptance_line(line):
    _acceptance_lines.append(line)


def pytest_terminal_summary(terminalreporter):
    if _acceptance_lines:
        terminalreporter.section("acceptance criteria")
        for line in sorted(set(_acceptance_lines)):
            terminalreporter.write_line(line)


@pytest.fixture(scope="session")
def config_dir():
    return CONFIG_DIR


def assert_no_child():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.fixture
def two_cpus(monkeypatch):
    """Two CPUs for the one-worker runs of a test, so a fork pays on any
    host."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
