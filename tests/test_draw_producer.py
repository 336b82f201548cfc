"""Sub-span draws from a forked producer: the same outputs, divergence
reports and warnings as in line, a fallback when the producer dies, hangs or
cannot be forked, no fork where it does not pay, and no process or pipe left
behind."""

import os
import signal
import threading
import time
import warnings

import numpy as np
import pytest

from conftest import PARENT, assert_no_child
from subgradnet import (CommNoiseModel, DivergenceDetected, InitialStates, QuadraticObjective,
                        StepSchedule, engine, forked)
from subgradnet.engine import _run_batch, default_record_ks
from test_sub_spans import (FORCED_SPANS, PER_REP_KEYS, REPS, SHIPPED, SHIPPED_HORIZON,
                            _CountingProcess, _lasso, _lasso_diagonal, _quadratic,
                            counted_slots, force_span, run_shipped)

pytestmark = [pytest.mark.skipif(not forked._FORKS, reason="the draws are forked on Linux only"),
              pytest.mark.usefixtures("two_cpus")]
HORIZON = 601  # a multiple of none of the forced sub-spans but 1
MODEL = CommNoiseModel(sigma=0.3, b=0.2, cap=0.3)


class _Logged:
    """A graph process that appends the process id of each draw to ``log``
    and first calls ``hook(k_start)``."""

    def __init__(self, inner, log, hook=None):
        self.inner, self.n_nodes, self.log, self.hook = inner, inner.n_nodes, log, hook

    def pids(self):
        return [int(v) for v in self.log.read_text().split()] if self.log.exists() else []

    def sample_block(self, stream, k_start, count, state=None, out=None):
        with open(self.log, "a", encoding="utf-8") as fh:
            fh.write(f"{os.getpid()}\n")
        if self.hook is not None:
            self.hook(k_start)
        return self.inner.sample_block(stream, k_start, count, state=state, out=out)


class _JumpSchedule:
    """StepSchedule's gains, but alpha(k) = 1e13 from step ``at`` on."""

    def __init__(self, at):
        self.inner, self.at = StepSchedule(), at

    def alpha(self, k):
        return np.where(np.asarray(k) >= self.at, 1e13, self.inner.alpha(k))

    def c(self, k):
        return self.inner.c(k)


def run(objective, process, schedule=None, pooled=False):
    return _run_batch(objective, process, MODEL, schedule or StepSchedule(), HORIZON, 5,
                      list(range(REPS)), np.zeros(objective.dim), 0.0,
                      InitialStates.uniform(-2.0, 2.0),
                      default_record_ks(HORIZON, dense_until=50, stride=25), 97, pooled=pooled)


def assert_same(out, reference):
    for key in PER_REP_KEYS:
        assert out[key].tobytes() == reference[key].tobytes(), key


@pytest.fixture
def in_line(monkeypatch):
    """Runs ``fn()`` with the draws made in line."""
    def call(fn):
        with monkeypatch.context() as m:
            m.setattr(forked, "_FORKS", False)
            return fn()
    return call


@pytest.fixture
def quadratic(monkeypatch):
    """The objective and process of ``_quadratic`` at 7-step sub-spans."""
    objective, process = _quadratic(np.random.default_rng(11))
    force_span(monkeypatch, 7, objective)
    return objective, process


@pytest.mark.parametrize("span", FORCED_SPANS)
@pytest.mark.parametrize("build", (_quadratic, _lasso, _lasso_diagonal),
                         ids=("quadratic", "lasso", "lasso-diagonal"))
def test_forked_and_in_line_draws_agree(build, span, monkeypatch, tmp_path, in_line):
    objective, process = build(np.random.default_rng(span))
    force_span(monkeypatch, span, objective)
    forked = _Logged(process, tmp_path / "forked")
    out = run(objective, forked)
    assert PARENT not in forked.pids() and len(forked.pids()) == -(-HORIZON // span)
    inline = _Logged(process, tmp_path / "in_line")
    assert_same(out, in_line(lambda: run(objective, inline)))
    assert set(inline.pids()) == {PARENT}
    assert_no_child()


def test_a_divergence_mid_sub_span_is_reported_as_in_line(quadratic, in_line):
    objective, process = quadratic
    errors = []
    for call in (lambda fn: fn(), in_line):
        with pytest.raises(DivergenceDetected) as info:
            call(lambda: run(objective, process, schedule=_JumpSchedule(40)))
        errors.append(info.value)
    forked, inline = errors
    assert 35 < forked.step < 42  # inside the sub-span of steps 35-41
    assert (forked.step, forked.replication, forked.norm_sq) == (
        inline.step, inline.replication, inline.norm_sq)
    assert str(forked) == str(inline)
    assert_no_child()


def _kill_child_at(k):
    def hook(k_start):
        if os.getpid() != PARENT and k_start == k:
            os.kill(os.getpid(), signal.SIGKILL)
    return hook


def _hang_child_at(k):
    def hook(k_start):
        if os.getpid() != PARENT and k_start == k:
            time.sleep(60.0)
    return hook


@pytest.mark.parametrize("lose", (_kill_child_at, _hang_child_at), ids=("killed", "hung"))
def test_a_lost_producer_gives_the_same_outputs(quadratic, tmp_path, monkeypatch, lose):
    objective, process = quadratic
    reference = run(objective, process)
    monkeypatch.setattr(forked, "_MIN_WAIT_S", 0.2)
    logged = _Logged(process, tmp_path / "pids", hook=lose(21))
    start = time.monotonic()
    out = run(objective, logged)
    assert time.monotonic() - start < 10.0
    assert_same(out, reference)
    # The producer drew sub-spans 0 to 3; the parent replayed 0 to 2 and drew
    # the rest.
    pids = logged.pids()
    assert PARENT not in pids[:4] and pids[4:] == [PARENT] * (len(pids) - 4)
    assert len(pids) == 4 + -(-HORIZON // 7)
    assert_no_child()


@SHIPPED
def test_a_forked_batch_holds_two_slots_at_its_sub_spans(build, in_line_span, forked_span,
                                                         monkeypatch, tmp_path):
    objective, process = build(np.random.default_rng(6))
    counting = _CountingProcess(process, tmp_path / "draws")
    slots = counted_slots(monkeypatch)
    run_shipped(objective, counting)
    assert counting.calls == [(k, min(forked_span, SHIPPED_HORIZON - k))
                              for k in range(0, SHIPPED_HORIZON, forked_span)]
    assert slots() == 2
    assert_no_child()


def test_a_lost_producer_is_replayed_into_slot_0(quadratic, tmp_path, monkeypatch):
    # The parent has released every sub-span before the one it waits for, so
    # the draws go on in line in the one slot.
    objective, process = quadratic
    log, fill = tmp_path / "fills", engine._Draws.fill

    def logged_fill(self, slot, k0, s):
        with open(log, "a", encoding="utf-8") as fh:
            fh.write(f"{os.getpid()} {self.slots.index(slot)}\n")
        if os.getpid() != PARENT and k0 == 21:
            os.kill(os.getpid(), signal.SIGKILL)
        return fill(self, slot, k0, s)

    monkeypatch.setattr(engine._Draws, "fill", logged_fill)
    run(objective, process)
    fills = [tuple(int(v) for v in line.split()) for line in log.read_text().splitlines()]
    producer = fills[0][0]
    assert producer != PARENT
    assert fills[:4] == [(producer, 0), (producer, 1), (producer, 0), (producer, 1)]
    # The parent replays sub-spans 0 to 2 and draws 3 to the last.
    assert fills[4:] == [(PARENT, 0)] * -(-HORIZON // 7)
    assert_no_child()


@pytest.mark.parametrize("slow", ("producer", "parent"))
def test_slow_producer_or_parent_gives_the_same_outputs(quadratic, tmp_path, monkeypatch,
                                                        in_line, slow):
    # Random pauses shuffle the handovers: a slot read before it is filled,
    # or refilled while it is read, changes the outputs.
    objective, process = quadratic
    reference = in_line(lambda: run(objective, process))
    pause = np.random.default_rng(3)
    if slow == "producer":
        process = _Logged(process, tmp_path / "pids",
                          hook=lambda k_start: time.sleep(pause.uniform(0.0, 2e-3)))
    else:
        original = QuadraticObjective.subgradient_stack

        def paused(*args, **kwargs):
            if pause.random() < 0.1:
                time.sleep(pause.uniform(0.0, 2e-3))
            return original(*args, **kwargs)
        monkeypatch.setattr(QuadraticObjective, "subgradient_stack", paused)
    assert_same(run(objective, process), reference)
    assert_no_child()


def test_draws_run_in_line_when_no_process_can_be_forked(quadratic, tmp_path, monkeypatch):
    objective, process = quadratic
    reference = run(objective, process)

    def no_fork():
        raise BlockingIOError("no process to be had")

    monkeypatch.setattr(os, "fork", no_fork)
    logged = _Logged(process, tmp_path / "pids")
    assert_same(run(objective, logged), reference)
    assert set(logged.pids()) == {PARENT}


@pytest.mark.parametrize("case", ["one cpu", "one sub-span", "another thread", "pooled"])
def test_no_fork_where_it_does_not_pay(quadratic, tmp_path, monkeypatch, case):
    objective, process = quadratic
    logged = _Logged(process, tmp_path / "pids")
    if case == "one cpu":
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    elif case == "one sub-span":
        force_span(monkeypatch, HORIZON, objective)
    if case == "another thread":
        release = threading.Event()
        other = threading.Thread(target=release.wait)
        other.start()
        try:
            run(objective, logged)
        finally:
            release.set()
            other.join()
    else:
        run(objective, logged, pooled=case == "pooled")
    assert set(logged.pids()) == {PARENT}


def _interrupt_after(calls):
    original = QuadraticObjective.subgradient_stack
    count = [0]

    def interrupted(*args, **kwargs):
        count[0] += 1
        if count[0] > calls:
            raise KeyboardInterrupt
        return original(*args, **kwargs)
    return interrupted


@pytest.mark.parametrize("case", ["completed", "diverged", "interrupted", "producer killed"])
def test_no_child_or_pipe_is_left_behind(quadratic, tmp_path, monkeypatch, case):
    objective, process = quadratic
    schedule = _JumpSchedule(40) if case == "diverged" else None
    if case == "interrupted":
        monkeypatch.setattr(QuadraticObjective, "subgradient_stack", _interrupt_after(100))
    elif case == "producer killed":
        process = _Logged(process, tmp_path / "pids", hook=_kill_child_at(70))
    expected = {"diverged": DivergenceDetected, "interrupted": KeyboardInterrupt}
    fds = len(os.listdir("/proc/self/fd"))
    if case in expected:
        with pytest.raises(expected[case]):
            run(objective, process, schedule=schedule)
    else:
        run(objective, process)
    assert_no_child()
    # Nor is an end of a pipe left open.
    assert len(os.listdir("/proc/self/fd")) == fds


class _WarningSchedule(StepSchedule):
    """StepSchedule, warning when it gives the gains of a sub-span that starts
    at a multiple of 14."""

    def alpha(self, k):
        if np.ndim(k) and k[0] % 14 == 0:
            warnings.warn(f"a warning of the draws from step {k[0]}", RuntimeWarning)
        return super().alpha(k)


def test_a_draw_warning_reaches_the_caller_as_in_line(quadratic, in_line, monkeypatch):
    objective, process = quadratic

    def warned():
        # Each path at 7-step sub-spans, so that both warn on the same ones.
        force_span(monkeypatch, 7, objective)
        return run(objective, process, schedule=_WarningSchedule())

    shown = []
    for call in (lambda fn: fn(), in_line):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            call(warned)
        shown.append([(str(w.message), w.category, w.filename, w.lineno) for w in caught])
    forked, inline = shown
    assert forked == inline
    assert len(forked) == -(-HORIZON // 14)
    assert {filename for _, _, filename, _ in forked} == {__file__}
