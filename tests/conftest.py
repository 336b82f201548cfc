import os
import pathlib
from unittest import mock

import pytest
from hypothesis import settings

from subgradnet import engine, forked

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


def span_budget(span, shape):
    """The byte budget at which a batch of ``shape``, ``(reps, n_nodes, dim,
    has_zeta)``, walks its horizon in sub-spans of ``span`` steps on
    whichever path runs outside a pool: a batch whose draws are forked holds
    two slots of them and one in line.  Draws that may be forked are forked
    unless the horizon is one two-slot sub-span or less, which is one
    sub-span on either path."""
    slots = 2 if forked.may_fork(1) else 1
    budget = span * engine._step_bytes(*shape, slots)
    with mock.patch.object(engine, "_BUDGET_BYTES", budget):
        assert engine._sub_span(*shape, slots) == span
    return budget
