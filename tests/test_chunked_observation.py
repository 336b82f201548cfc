"""Observation at 1024-step chunk edges: recorded metrics, the batched
optimality gap, divergence reports and floating-point warnings."""

import warnings

import numpy as np
import pytest

from oracles import quadratic_record_loop
from subgradnet import (CommNoiseModel, CustomObjective, DeterministicCycle,
                        DivergenceDetected, IndependentEdges, InitialStates,
                        LassoProblem, QuadraticObjective, StepSchedule,
                        apply_step, global_optimum)
from subgradnet.engine import _run_batch, default_record_ks, replication_stream

RECORDED = ("V", "state_sq", "dist", "stack_dsq", "mean_state", "opt_gap")
REPS = 3


def _initial_states(init, seed, n_nodes, dim):
    """The engine's initial states of replications 0..REPS-1."""
    return np.stack([
        init.draw(np.random.default_rng(replication_stream(seed, r).spawn(4)[0]),
                  n_nodes, dim)
        for r in range(REPS)])


def _replay(x, process, schedule, model, objective, horizon):
    """Yields the states x(0), ..., x(horizon) of a noise-free run, one
    apply_step per step."""
    n_nodes, dim = x.shape[1:]
    ks = np.arange(horizon)
    alphas, cs = schedule.alpha(ks).tolist(), schedule.c(ks).tolist()
    yield x
    for k in range(horizon):
        a = process.sample_block(None, k, 1)[0][0]
        x = apply_step(x, a, alphas[k], cs[k], model,
                       np.zeros((n_nodes, n_nodes, dim)),
                       objective.subgradient_stack(x))
        yield x


class TestChunkEdges:
    HORIZONS = (1023, 1024, 1025, 2049)
    EDGE_KS = (0, 1, 1022, 1023, 1024, 1025, 2047, 2048, 2049)
    SEED = 11

    def _setup(self):
        rng = np.random.default_rng(5)
        n_nodes, dim = 4, 2
        base = np.ones((n_nodes, n_nodes)) - np.eye(n_nodes)
        process = DeterministicCycle([base * rng.uniform(0.1, 0.5, base.shape)
                                      for _ in range(3)])
        objective = QuadraticObjective(rng.normal(size=(n_nodes, dim)))
        model = CommNoiseModel(sigma=0.0, b=0.0, noise_dim=dim)
        return objective, process, model, StepSchedule(), InitialStates.uniform(-3.0, 3.0)

    def _run(self, horizon):
        objective, process, model, schedule, init = self._setup()
        x_star, f_star = objective.optimum()
        ks = sorted({k for k in self.EDGE_KS if k <= horizon} | {horizon})
        return _run_batch(objective, process, model, schedule, horizon, self.SEED,
                          list(range(REPS)), x_star, f_star, init, ks, 0)

    @pytest.fixture(scope="class")
    def runs(self):
        return {h: self._run(h) for h in self.HORIZONS}

    def test_recorded_metrics_match_per_step_recomputation(self, runs):
        objective, process, model, schedule, init = self._setup()
        x_star, f_star = objective.optimum()
        x0 = _initial_states(init, self.SEED, objective.n_nodes, objective.dim)
        states = list(_replay(x0, process, schedule, model, objective,
                              max(self.HORIZONS)))
        for out in runs.values():
            for slot, k in enumerate(out["ks"]):
                for r in range(REPS):
                    want = quadratic_record_loop(states[k][r], objective.targets,
                                                 x_star, f_star)
                    for key in RECORDED:
                        assert np.max(np.abs(out[key][r, slot] - want[key])) < 1e-12, (k, r, key)

    def test_runs_of_different_horizons_agree_on_shared_steps(self, runs):
        longest = runs[max(self.HORIZONS)]
        for out in runs.values():
            slots = np.searchsorted(longest["ks"], out["ks"])
            assert np.array_equal(longest["ks"][slots], out["ks"])
            for key in RECORDED:
                assert np.array_equal(out[key], longest[key][:, slots]), key


def test_batched_optimality_gap_equals_single_state_calls():
    rng = np.random.default_rng(8)
    n_nodes, dim = 4, 3
    covs = [m @ m.T / dim + 0.5 * np.eye(dim)
            for m in rng.normal(size=(n_nodes, dim, dim))]
    objective = LassoProblem(x0=rng.normal(size=dim), covariances=np.stack(covs),
                             sigma_v=0.3, kappa=0.1)
    base = np.ones((n_nodes, n_nodes)) - np.eye(n_nodes)
    process = IndependentEdges(base=0.4 * base, prob=0.7, perturb=0.6)
    model = CommNoiseModel(sigma=0.3, b=0.2, noise_dim=dim)
    x_star, f_star = global_optimum(objective)
    out = _run_batch(objective, process, model, StepSchedule(), 1100, 4,
                     list(range(REPS)), x_star, f_star, InitialStates.uniform(-2.0, 2.0),
                     default_record_ks(1100, dense_until=1100), 0)
    for r in range(REPS):
        for slot in range(out["ks"].size):
            single = objective.total_cost(out["mean_state"][r, slot]) - f_star
            assert out["opt_gap"][r, slot] == single, (r, slot)


def _cubic_objective(n_nodes, gain):
    """Pushes every coordinate outward by gain * x^3: runaway growth that
    overflows within a few steps once the states are large."""
    return CustomObjective(
        cost_fns=tuple([lambda x: -0.25 * gain * float(np.sum(x ** 4))] * n_nodes),
        subgradient_fns=tuple([lambda x: -gain * x ** 3] * n_nodes),
        dim=1, sigma_d_values=[0.0] * n_nodes, c_d_values=[0.0] * n_nodes)


def test_mid_chunk_divergence_reports_first_crossing_without_warnings():
    n_nodes, seed, horizon = 3, 0, 2500
    objective = _cubic_objective(n_nodes, 5e-5)
    # Negative weights make node disagreement grow until the cubic term takes over.
    process = DeterministicCycle([-0.4 * (np.ones((n_nodes, n_nodes)) - np.eye(n_nodes))])
    model = CommNoiseModel(sigma=0.0, b=0.0, noise_dim=1)
    schedule, init = StepSchedule(), InitialStates.uniform(-1.0, 1.0)

    for step, x in enumerate(_replay(_initial_states(init, seed, n_nodes, 1),
                                     process, schedule, model, objective, horizon)):
        s_sq = (x * x).sum(axis=(1, 2))
        if not s_sq.max() < 1e24:
            break
    replication = int(np.nanargmax(s_sq))
    assert 1024 < step < 2048 and replication != 0

    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(DivergenceDetected) as info:
            _run_batch(objective, process, model, schedule, horizon, seed,
                       list(range(REPS)), np.zeros(1), 0.0, init,
                       default_record_ks(horizon), 0)
    assert (info.value.replication, info.value.step) == (replication, step)
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]


def test_run_that_does_not_diverge_keeps_its_warnings():
    targets = np.array([[0.0], [2.0], [1.0]])

    def warning_gradient(target):
        # sqrt of a negative number warns and gives nan, which nan_to_num zeroes.
        return lambda x: (x - target) + 0.0 * np.nan_to_num(np.sqrt(-1.0 - np.abs(x)))

    noisy = CustomObjective(
        cost_fns=tuple(lambda x, t=t: 0.5 * float(np.sum((x - t) ** 2)) for t in targets),
        subgradient_fns=tuple(warning_gradient(t) for t in targets),
        dim=1, sigma_d_values=[1.0] * 3, c_d_values=list(np.abs(targets[:, 0])))
    plain = QuadraticObjective(targets)
    process = IndependentEdges(base=np.ones((3, 3)) - np.eye(3), prob=0.8)
    model = CommNoiseModel(sigma=0.1, b=0.1, noise_dim=1)
    args = (process, model, StepSchedule(), 40, 2, [0, 1], np.ones(1), 1.0,
            InitialStates(), default_record_ks(40), 0)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        out = _run_batch(noisy, *args)
    assert any("invalid value" in str(w.message) for w in caught)
    want = _run_batch(plain, *args)
    for key in ("V", "state_sq", "dist", "stack_dsq", "mean_state", "d_violation"):
        assert np.array_equal(out[key], want[key]), key
