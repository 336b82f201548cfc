"""The connectivity report and the C1-C5 checks in a forked child: the same
results as in line, a fallback when the child dies or hangs, no fork where
another thread runs or no CPU is idle, a package error of the stages raised
from the child and taking precedence, no process left behind, and warnings
that reach the parent."""

import os
import pathlib
import pickle
import signal
import subprocess
import sys
import threading
import time
import warnings

import pytest

from conftest import PARENT, assert_no_child, span_budget
from subgradnet import DivergenceDetected, engine, experiment, forked, run_experiment
from subgradnet.config import config_from_dict
from subgradnet.errors import NonConvergenceError

pytestmark = [pytest.mark.skipif(not forked._FORKS,
                                 reason="the setup stages are forked on Linux only"),
              pytest.mark.usefixtures("two_cpus")]


def small_cfg(extra=None):
    data = {
        "problem": {"kind": "quadratic",
                    "targets": [[0.0, 0.0], [2.0, 0.0], [1.0, 2.0]]},
        "graph": {"kind": "independent", "base": "complete", "n_nodes": 3,
                  "activation_prob": 0.8},
        "noise": {"sigma": 0.1, "b": 0.1},
        "run": {"horizon": 200, "reps": 2, "seed": 5, "check_stride": 50},
        "verify": {"horizon": 2000},
        "connectivity": {"h": 1, "windows": 3, "reps": 16},
    }
    data.update(extra or {})
    return config_from_dict(data)


def diverging_cfg():
    return small_cfg({"schedule": {"alpha1": 1e9},
                      "init": {"kind": "explicit",
                               "states": [[1.0, 1.0], [2.0, -1.0], [0.0, 3.0]]}})


def outputs(res):
    return [pathlib.Path(path).read_bytes() for path in (res.trace_path, res.summary_path)]


def setup_results(res):
    return pickle.dumps((res.report, res.constants, res.conditions))


@pytest.fixture
def stage_pids(monkeypatch, tmp_path):
    """Wraps ``verify_conditions`` so that each call appends its process id
    to a file; returns a reader of the ids recorded."""
    log = tmp_path / "stage_pids"
    original = experiment.verify_conditions

    def recorded(*args, **kwargs):
        with open(log, "a", encoding="utf-8") as fh:
            fh.write(f"{os.getpid()}\n")
        return original(*args, **kwargs)

    monkeypatch.setattr(experiment, "verify_conditions", recorded)
    return lambda: [int(v) for v in log.read_text().split()] if log.exists() else []


def test_forked_and_inline_stages_agree(tmp_path, monkeypatch, stage_pids):
    in_child = run_experiment(small_cfg(), out_dir=str(tmp_path / "forked"))
    [pid] = stage_pids()
    assert pid != PARENT
    monkeypatch.setattr(forked, "_FORKS", False)
    inline = run_experiment(small_cfg(), out_dir=str(tmp_path / "inline"))
    assert stage_pids() == [pid, PARENT]
    assert setup_results(in_child) == setup_results(inline)
    assert outputs(in_child) == outputs(inline)


def test_child_killed_mid_stage_gives_the_same_outputs(tmp_path, monkeypatch):
    reference = run_experiment(small_cfg(), out_dir=str(tmp_path / "reference"))
    original = experiment.verify_conditions

    def killed_in_child(*args, **kwargs):
        if os.getpid() != PARENT:
            os.kill(os.getpid(), signal.SIGKILL)
        return original(*args, **kwargs)

    monkeypatch.setattr(experiment, "verify_conditions", killed_in_child)
    res = run_experiment(small_cfg(), out_dir=str(tmp_path / "killed"))
    assert setup_results(res) == setup_results(reference)
    assert outputs(res) == outputs(reference)
    assert_no_child()


def test_a_hung_child_is_killed_and_the_stages_run_in_line(tmp_path, monkeypatch,
                                                           stage_pids):
    reference = run_experiment(small_cfg(), out_dir=str(tmp_path / "reference"))
    original = experiment.verify_conditions

    def hangs_in_child(*args, **kwargs):
        if os.getpid() != PARENT:
            time.sleep(60.0)
        return original(*args, **kwargs)

    monkeypatch.setattr(experiment, "verify_conditions", hangs_in_child)
    monkeypatch.setattr(forked, "_MIN_WAIT_S", 0.2)
    start = time.monotonic()
    res = run_experiment(small_cfg(), out_dir=str(tmp_path / "hung"))
    assert time.monotonic() - start < 10.0
    assert stage_pids()[-1] == PARENT
    assert setup_results(res) == setup_results(reference)
    assert outputs(res) == outputs(reference)
    assert_no_child()


def test_no_fork_while_another_thread_runs(tmp_path, stage_pids):
    release = threading.Event()
    other = threading.Thread(target=release.wait)
    other.start()
    try:
        run_experiment(small_cfg(), out_dir=str(tmp_path / "out"))
    finally:
        release.set()
        other.join()
    assert stage_pids() == [PARENT]


@pytest.mark.parametrize("cpus, workers", [(1, 1), (2, 2)])
def test_no_fork_without_an_idle_cpu(tmp_path, monkeypatch, stage_pids, cpus, workers):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
    run_experiment(small_cfg({"run": {"horizon": 200, "reps": 2, "seed": 5,
                                      "check_stride": 50, "workers": workers}}),
                   out_dir=str(tmp_path / "out"))
    assert stage_pids() == [PARENT]


def test_setup_error_wins_over_a_divergence(tmp_path, monkeypatch):
    def fails(*args, **kwargs):
        raise NonConvergenceError("setup stage failed")

    monkeypatch.setattr(experiment, "estimate_constants", fails)
    with pytest.raises(NonConvergenceError, match="setup stage failed") as info:
        run_experiment(diverging_cfg(), out_dir=str(tmp_path / "out"))
    # The Monte Carlo ran and diverged, and the stages failed in the child,
    # which sent their error.
    assert isinstance(info.value.__context__, DivergenceDetected)
    assert_no_child()


def test_a_failing_stage_runs_only_in_the_child(tmp_path, monkeypatch, stage_pids):
    recorded = experiment.verify_conditions

    def fails(*args, **kwargs):
        recorded(*args, **kwargs)
        raise NonConvergenceError("setup stage failed")

    monkeypatch.setattr(experiment, "verify_conditions", fails)
    with pytest.raises(NonConvergenceError, match="setup stage failed"):
        run_experiment(small_cfg(), out_dir=str(tmp_path / "out"))
    [child] = stage_pids()
    assert child != PARENT
    assert_no_child()


def _interrupted(*args, **kwargs):
    raise KeyboardInterrupt


def _broken(*args, **kwargs):
    raise ValueError("not a package error")


@pytest.mark.parametrize("case", ["completed", "diverged", "setup failed",
                                  "monte carlo failed", "interrupted", "child killed"])
def test_no_child_or_pipe_is_left_behind(tmp_path, monkeypatch, case):
    cfg = diverging_cfg() if case == "diverged" else small_cfg()
    expected = {"diverged": DivergenceDetected, "setup failed": NonConvergenceError,
                "monte carlo failed": ValueError, "interrupted": KeyboardInterrupt}
    if case == "setup failed":
        def fails(*args, **kwargs):
            raise NonConvergenceError("setup stage failed")
        monkeypatch.setattr(experiment, "verify_conditions", fails)
    elif case == "monte carlo failed":
        monkeypatch.setattr(experiment, "monte_carlo", _broken)
    elif case == "interrupted":
        monkeypatch.setattr(experiment, "monte_carlo", _interrupted)
    elif case == "child killed":
        original = experiment.estimate_constants

        def killed_in_child(*args, **kwargs):
            if os.getpid() != PARENT:
                os.kill(os.getpid(), signal.SIGKILL)
            return original(*args, **kwargs)
        monkeypatch.setattr(experiment, "estimate_constants", killed_in_child)
    fds = len(os.listdir("/proc/self/fd"))
    if case in expected:
        with pytest.raises(expected[case]):
            run_experiment(cfg, out_dir=str(tmp_path / "out"))
    else:
        run_experiment(cfg, out_dir=str(tmp_path / "out"))
    assert_no_child()
    # Nor is an end of the pipe left open.
    assert len(os.listdir("/proc/self/fd")) == fds


@pytest.mark.parametrize("case", ["both answer", "producer killed", "setup child hung"])
def test_both_children_at_once_give_the_in_line_outputs(tmp_path, monkeypatch, stage_pids,
                                                        case):
    # small_cfg's batch, 2 replications of 3 nodes in dimension 2, walks its
    # 200 steps in sub-spans of 70, so the Monte Carlo forks a draw producer
    # beside the setup child.
    monkeypatch.setattr(engine, "_BUDGET_BYTES", span_budget(70, (2, 3, 2, False)))
    with monkeypatch.context() as m:
        m.setattr(forked, "_FORKS", False)
        inline = run_experiment(small_cfg(), out_dir=str(tmp_path / "inline"))
    assert stage_pids() == [PARENT]
    log, fill = tmp_path / "fill_pids", engine._Draws.fill

    def logged_fill(self, slot, k0, s):
        with open(log, "a", encoding="utf-8") as fh:
            fh.write(f"{os.getpid()}\n")
        if case == "producer killed" and os.getpid() != PARENT and k0 == 140:
            os.kill(os.getpid(), signal.SIGKILL)
        return fill(self, slot, k0, s)

    monkeypatch.setattr(engine._Draws, "fill", logged_fill)
    if case == "setup child hung":
        original = experiment.verify_conditions

        def hangs_in_child(*args, **kwargs):
            if os.getpid() != PARENT:
                time.sleep(60.0)
            return original(*args, **kwargs)

        monkeypatch.setattr(experiment, "verify_conditions", hangs_in_child)
        monkeypatch.setattr(forked, "_MIN_WAIT_S", 0.2)
    fds = len(os.listdir("/proc/self/fd"))
    start = time.monotonic()
    res = run_experiment(small_cfg(), out_dir=str(tmp_path / "both"))
    assert time.monotonic() - start < 10.0
    assert setup_results(res) == setup_results(inline)
    assert outputs(res) == outputs(inline)
    fill_pids = [int(v) for v in log.read_text().split()]
    [setup_pid] = stage_pids()[1:]
    producer = fill_pids[0]
    assert producer != PARENT
    if case == "both answer":
        assert setup_pid != PARENT and setup_pid != producer
        assert fill_pids == [producer] * 3
    elif case == "producer killed":
        # The producer drew sub-spans 0 to 2; the parent replayed 0 and 1
        # and drew 2.
        assert setup_pid != PARENT and setup_pid != producer
        assert fill_pids == [producer] * 3 + [PARENT] * 3
    else:
        assert setup_pid == PARENT
    assert_no_child()
    # Nor is an end of a pipe left open.
    assert len(os.listdir("/proc/self/fd")) == fds


def test_a_stage_warning_reaches_the_parent(tmp_path, monkeypatch, stage_pids):
    original = experiment.estimate_constants

    def warns(*args, **kwargs):
        warnings.warn("a warning of the setup stages", RuntimeWarning)
        return original(*args, **kwargs)

    monkeypatch.setattr(experiment, "estimate_constants", warns)
    with pytest.warns(RuntimeWarning, match="a warning of the setup stages") as caught:
        run_experiment(small_cfg(), out_dir=str(tmp_path / "out"))
    [pid] = stage_pids()
    assert pid != PARENT
    [record] = [w for w in caught if "setup stages" in str(w.message)]
    assert record.filename == __file__


_WARN_TWICE = """
import sys, warnings
from subgradnet import experiment, forked, run_experiment
from test_setup_fork import small_cfg

forked._FORKS = sys.argv[1] == "1"
original = experiment.estimate_constants

def warns(*args, **kwargs):
    warnings.warn("shown once on stderr", UserWarning)
    return original(*args, **kwargs)

experiment.estimate_constants = warns
for name in ("one", "two"):
    run_experiment(small_cfg(), out_dir=sys.argv[2] + name)
"""


def test_a_stage_warning_is_shown_on_stderr_as_in_line(tmp_path):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [os.path.dirname(experiment.__file__) + "/..", os.path.dirname(__file__)]))
    env.pop("PYTHONWARNINGS", None)
    script = tmp_path / "warn_twice.py"
    script.write_text(_WARN_TWICE, encoding="utf-8")
    errs = [subprocess.run([sys.executable, str(script), fork, str(tmp_path / fork)],
                           env=env, capture_output=True, text=True, check=True).stderr
            for fork in ("1", "0")]
    # The default action shows a warning once per location.
    assert errs[0] == errs[1]
    assert errs[0].count("UserWarning: shown once on stderr") == 1


def test_stages_run_in_line_when_no_process_can_be_forked(tmp_path, monkeypatch):
    reference = run_experiment(small_cfg(), out_dir=str(tmp_path / "reference"))

    def no_fork():
        raise BlockingIOError("no process to be had")

    monkeypatch.setattr(os, "fork", no_fork)
    res = run_experiment(small_cfg(), out_dir=str(tmp_path / "in_line"))
    assert setup_results(res) == setup_results(reference)
    assert outputs(res) == outputs(reference)
