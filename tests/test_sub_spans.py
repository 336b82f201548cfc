"""Sub-spans of the byte budget: walking the horizon in pieces of any length
gives the same per-replication outputs, and the Monte Carlo working set stays
bounded as N grows."""

import itertools
import os
import subprocess
import sys
from types import SimpleNamespace

import numpy as np
import pytest

from conftest import span_budget
from subgradnet import (CommNoiseModel, IndependentEdges, InitialStates,
                        LassoProblem, MarkovSwitching, QuadraticObjective,
                        StepSchedule, engine, forked)
from subgradnet.engine import _run_batch, default_record_ks

PER_REP_KEYS = ("V", "opt_gap", "state_sq", "dist", "stack_dsq", "mean_state",
                "psi_violation", "d_violation", "recursion_max")
FORCED_SPANS = (1, 7, 300)
REPS, N_NODES = 3, 4


def force_span(monkeypatch, span, objective):
    """Sets the budget so that a batch of REPS replications of ``objective``
    walks its horizon in sub-spans of ``span`` steps, on whichever path
    runs."""
    shape = (REPS, objective.n_nodes, objective.dim, objective.has_gradient_noise)
    monkeypatch.setattr(engine, "_BUDGET_BYTES", span_budget(span, shape))


def _quadratic(rng):
    base = np.ones((N_NODES, N_NODES)) - np.eye(N_NODES)
    return (QuadraticObjective(rng.normal(size=(N_NODES, 2))),
            IndependentEdges(base=0.4 * base, prob=0.7, perturb=0.6))


def _lasso(rng, diagonal=False):
    dim = 3
    if diagonal:
        covs = [np.diag(d) for d in rng.random((N_NODES, dim)) + 0.5]
    else:
        covs = [m @ m.T / dim + 0.5 * np.eye(dim) for m in rng.normal(size=(N_NODES, dim, dim))]
    base = np.ones((N_NODES, N_NODES)) - np.eye(N_NODES)
    states = [rng.normal(scale=0.3, size=base.shape) * base + 0.2 * base for _ in range(3)]
    trans = rng.random((3, 3)) + 0.1
    return (LassoProblem(x0=rng.normal(size=dim), covariances=np.stack(covs),
                         sigma_v=0.3, kappa=0.1),
            MarkovSwitching(states, trans / trans.sum(axis=1, keepdims=True)))


def _lasso_diagonal(rng):
    return _lasso(rng, diagonal=True)


def _a1_shaped(rng):
    """Quadratic costs on 5 nodes in dimension 2 with independent edges, as
    in shipped A1; ``_lasso`` has A2's 4 nodes in dimension 3."""
    base = np.ones((5, 5)) - np.eye(5)
    return (QuadraticObjective(rng.normal(size=(5, 2))),
            IndependentEdges(base=0.4 * base, prob=0.7, perturb=0.6))


# Batches of shipped A1 and A2's 20 replications and the sub-spans they walk
# at the shipped byte budget: in line, where they hold one slot of draws,
# and with a forked producer, where they hold two.
SHIPPED = pytest.mark.parametrize("build,in_line_span,forked_span",
                                  ((_a1_shaped, 177, 135), (_lasso, 139, 103)),
                                  ids=("a1", "a2"))
SHIPPED_REPS, SHIPPED_HORIZON = 20, 400


def run_shipped(objective, process, pooled=False):
    horizon = SHIPPED_HORIZON
    return _run_batch(objective, process, CommNoiseModel(sigma=0.3, b=0.2), StepSchedule(),
                      horizon, 5, list(range(SHIPPED_REPS)), np.zeros(objective.dim), 0.0,
                      InitialStates.uniform(-2.0, 2.0), default_record_ks(horizon), 97,
                      pooled=pooled)


def counted_slots(monkeypatch):
    """Counts the slots of draws the engine maps; returns a reader."""
    made = []

    class Counted(engine._DrawSlot):
        def __init__(self, *args):
            made.append(args)
            super().__init__(*args)
    monkeypatch.setattr(engine, "_DrawSlot", Counted)
    return lambda: len(made)


@pytest.mark.parametrize("horizon", (1023, 1025, 2049))
@pytest.mark.parametrize("build", (_quadratic, _lasso, _lasso_diagonal),
                         ids=("quadratic", "lasso", "lasso-diagonal"))
def test_outputs_do_not_depend_on_the_sub_span(build, horizon, monkeypatch):
    objective, process = build(np.random.default_rng(horizon))
    model = CommNoiseModel(sigma=0.3, b=0.2, cap=0.3)

    def run():
        return _run_batch(objective, process, model, StepSchedule(), horizon, 5,
                          list(range(REPS)), np.zeros(objective.dim), 0.0,
                          InitialStates.uniform(-2.0, 2.0),
                          default_record_ks(horizon, dense_until=50, stride=25), 97)

    natural = run()  # sub-spans of the longest length, 1024 steps, at this size
    for span in FORCED_SPANS:
        force_span(monkeypatch, span, objective)
        out = run()
        for key in PER_REP_KEYS:
            assert np.array_equal(out[key], natural[key]), (span, key)


@pytest.mark.parametrize("build", (_quadratic, _lasso), ids=("quadratic", "lasso"))
def test_psi_maxima_of_kept_intensities_equal_the_per_step_ones(build, monkeypatch):
    # Below _PSI_KEPT_BELOW nodes the engine keeps each sub-span's
    # intensities for one maximum; from there on it takes each step's
    # maximum in the step loop.  Both give the same outputs.
    objective, process = build(np.random.default_rng(8))
    model = CommNoiseModel(sigma=0.3, b=0.2)
    outs = []
    for kept_below in (objective.n_nodes + 1, objective.n_nodes):
        monkeypatch.setattr(engine, "_PSI_KEPT_BELOW", kept_below)
        outs.append(_run_batch(objective, process, model, StepSchedule(), 700, 5,
                               list(range(REPS)), np.zeros(objective.dim), 0.0,
                               InitialStates.uniform(-2.0, 2.0),
                               default_record_ks(700, dense_until=50, stride=25), 97))
    for key in PER_REP_KEYS:
        assert np.array_equal(outs[0][key], outs[1][key]), key


def _appender(path):
    """Appends a line to ``path`` per call; the draws may run in a forked
    producer, whose memory the test does not see, so counts go to a file."""
    def append(line):
        with open(path, "a", encoding="utf-8") as fh:
            fh.write(f"{line}\n")
    return append


def _lines(path):
    return path.read_text(encoding="utf-8").splitlines() if path.exists() else []


class _CountingProcess:
    """A graph process that records the (k_start, count) of every draw."""

    def __init__(self, inner, log):
        self.inner, self.n_nodes, self.log = inner, inner.n_nodes, log

    @property
    def calls(self):
        return [tuple(int(v) for v in line.split()) for line in _lines(self.log)]

    def sample_block(self, stream, k_start, count, state=None, out=None):
        _appender(self.log)(f"{k_start} {count}")
        return self.inner.sample_block(stream, k_start, count, state=state, out=out)


@pytest.mark.parametrize("build", (_quadratic, _lasso), ids=("quadratic", "lasso"))
def test_one_graph_draw_per_sub_span_for_all_replications(build, monkeypatch, tmp_path):
    objective, process = build(np.random.default_rng(3))
    counting = _CountingProcess(process, tmp_path / "draws")
    model = CommNoiseModel(sigma=0.3, b=0.2)
    horizon, span = 2100, 300
    force_span(monkeypatch, span, objective)
    outs = [_run_batch(objective, p, model, StepSchedule(), horizon, 5, list(range(REPS)),
                       np.zeros(objective.dim), 0.0, InitialStates.uniform(-2.0, 2.0),
                       default_record_ks(horizon, dense_until=50, stride=25), 97)
            for p in (process, counting)]
    assert counting.calls == [(k, min(span, horizon - k)) for k in range(0, horizon, span)]
    for key in PER_REP_KEYS:
        assert np.array_equal(outs[0][key], outs[1][key]), key


@pytest.mark.parametrize("build", (_quadratic, _lasso), ids=("quadratic", "lasso"))
def test_one_measurement_per_step_and_one_graph_draw_per_sub_span(build, monkeypatch,
                                                                   tmp_path):
    # The benchmark's per-layer metrics wrap these methods by name on the
    # classes and read the draw's start step and length as positional
    # arguments 2 and 3.
    objective, process = build(np.random.default_rng(4))
    log = tmp_path / "calls"
    append = _appender(log)

    def counted(cls, name):
        original = getattr(cls, name)

        def wrapper(*args, **kwargs):
            if name == "sample_block":
                append(f"{name} {int(args[2])} {int(args[3])}")
            else:
                append(name)
            return original(*args, **kwargs)
        monkeypatch.setattr(cls, name, wrapper)

    counted(type(objective), "subgradient_stack")
    counted(type(process), "sample_block")
    counted(CommNoiseModel, "psi_values")
    horizon, span = 700, 300
    force_span(monkeypatch, span, objective)
    _run_batch(objective, process, CommNoiseModel(sigma=0.3, b=0.2),
               StepSchedule(), horizon, 5, list(range(REPS)), np.zeros(objective.dim), 0.0,
               InitialStates.uniform(-2.0, 2.0), default_record_ks(horizon), 97)
    calls = _lines(log)
    assert calls.count("subgradient_stack") == calls.count("psi_values") == horizon
    assert [c for c in calls if c.startswith("sample_block")] == [
        "sample_block 0 300", "sample_block 300 300", "sample_block 600 100"]


@SHIPPED
@pytest.mark.parametrize("how", ("no fork", "pooled"))
def test_an_in_line_batch_is_sized_for_its_one_slot(build, in_line_span, forked_span, how,
                                                   monkeypatch, tmp_path):
    objective, process = build(np.random.default_rng(6))
    counting = _CountingProcess(process, tmp_path / "draws")
    slots = counted_slots(monkeypatch)
    if how == "no fork":
        monkeypatch.setattr(forked, "_FORKS", False)
    run_shipped(objective, counting, pooled=how == "pooled")
    assert counting.calls == [(k, min(in_line_span, SHIPPED_HORIZON - k))
                              for k in range(0, SHIPPED_HORIZON, in_line_span)]
    assert slots() == 1


@pytest.mark.parametrize("reps,n_nodes,dim", ((1, 2, 1), (20, 5, 2), (3, 9, 4)))
@pytest.mark.parametrize("has_zeta", (False, True))
def test_step_bytes_counts_every_per_step_buffer(reps, n_nodes, dim, has_zeta, monkeypatch):
    # A batch holds two slots of draws when it forks a producer and one in
    # line.  No producer is forked here: the draws' owner allocates the slots
    # it is asked for before it forks.
    monkeypatch.setattr(forked, "_FORKS", False)
    objective = SimpleNamespace(dim=dim, has_gradient_noise=has_zeta)
    process = SimpleNamespace(n_nodes=n_nodes)

    def held(span, slots):
        bufs = engine._StepBuffers(span, reps, n_nodes, dim)
        draws = engine._Draws(objective, process, None, (None, [None] * reps, None), span, [],
                              slots == 2)
        assert len(draws.slots) == slots
        arrays = [a for a in vars(bufs).values() if isinstance(a, np.ndarray)]
        assert all(a.base is None for a in arrays)  # no view counted twice
        # The draws' scratch, and its views, each into one array counted.
        scratch = [a for a in vars(draws).values() if isinstance(a, np.ndarray)]
        arrays += [a for a in scratch if a.base is None]
        assert all(sum(np.shares_memory(a, b) for b in arrays) == 1 for a in scratch)
        shared = 0
        for slot in draws.slots:
            # The arrays of a slot are views of its shared memory, which they
            # cover without overlap.
            views = [a for a in vars(slot).values() if isinstance(a, np.ndarray)]
            assert sum(a.nbytes for a in views) == len(slot.mem)
            assert all(np.shares_memory(a, np.frombuffer(slot.mem)) for a in views)
            assert not any(np.shares_memory(a, b) for a, b in itertools.combinations(views, 2))
            shared += len(slot.mem)
        return sum(a.nbytes for a in arrays) + shared

    # observe's copy of the recorded states and up to two temporaries of it.
    observe_bytes = 3 * 8 * reps * n_nodes * dim
    for slots in (1, 2):
        assert held(8, slots) - held(7, slots) + observe_bytes == engine._step_bytes(
            reps, n_nodes, dim, has_zeta, slots)


def test_peak_memory_does_not_grow_with_node_count():
    # Bound from arithmetic: the interpreter with numpy and the package takes
    # about 31 MiB, the step buffers 4 MiB, and one step's kernel temporaries
    # a few arrays of 8 x 40 x 40 x 2 doubles (0.2 MiB each).  Buffers of
    # 1024 steps would hold a 105 MB graph block at this size, and
    # per-channel noise draws another 210 MB.
    bound_mb = 100.0
    inner = ("import resource\n"
             "import numpy as np\n"
             "from subgradnet import (CommNoiseModel, IndependentEdges, QuadraticObjective,\n"
             "                        StepSchedule, monte_carlo)\n"
             "n = 40\n"
             "objective = QuadraticObjective(4.0 * np.random.default_rng(0).random((n, 2)))\n"
             "process = IndependentEdges(0.1 * (np.ones((n, n)) - np.eye(n)), prob=0.8)\n"
             "x_star, f_star = objective.optimum()\n"
             "monte_carlo(objective, process, CommNoiseModel(sigma=0.1, b=0.1),\n"
             "            StepSchedule(), 1024, 42, 8, x_star, f_star, check_stride=512)\n"
             "print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)\n")
    # A process takes over the peak RSS of the one that started it at exec,
    # so the measured interpreter is started by a small intermediate one.
    outer = ("import subprocess, sys\n"
             "sys.exit(subprocess.run([sys.executable, '-c', sys.argv[1]]).returncode)\n")
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    done = subprocess.run([sys.executable, "-c", outer, inner], env=env,
                          capture_output=True, text=True, timeout=300, check=True)
    peak_mb = int(done.stdout.split()[-1]) * 1024 / 1e6  # ru_maxrss is in KiB
    assert peak_mb < bound_mb
