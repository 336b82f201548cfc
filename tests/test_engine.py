"""Step equivalence, consensus-error recursion, trajectories, Monte Carlo."""

import inspect
import os
import threading
import time
import tracemalloc
import warnings

import numpy as np
import pytest
import yaml

from conftest import PARENT, assert_no_child
from oracles import (CustomObjective, apply_step, center_by_sum,
                     consensus_projection, delta_recursion_check,
                     draw_channel_noise, kernel, psi, quadratic_monitor_excesses_loop,
                     stacked_noise_matrices, step_compact, step_einsum, step_per_node)
from subgradnet import (CommNoiseModel, DeterministicCycle,
                        DivergenceDetected, IndependentEdges, InitialStates,
                        MarkovSwitching, QuadraticObjective, StepSchedule, cli, config,
                        default_record_ks, engine, forked, laplacian, monte_carlo)
from subgradnet.engine import (_center, _first_divergence, _kernel, _pair_operands,
                               _recursion_gap, replication_stream)


def zero_objective(n_nodes, dim):
    return CustomObjective(
        cost_fns=tuple([lambda x: 0.0] * n_nodes),
        subgradient_fns=tuple([lambda x: np.zeros_like(x)] * n_nodes),
        dim=dim, sigma_d_values=[0.0] * n_nodes, c_d_values=[0.0] * n_nodes)


def schedule_with(c0=None, alpha1=1.0):
    if c0 is None:
        return StepSchedule(alpha1=alpha1)
    alpha2 = c0 * (3.0 ** 0.75) * np.log(3.0)
    return StepSchedule(alpha1=alpha1, alpha2=alpha2)


def random_adjacency(rng, n, allow_negative=True, density=0.7):
    a = rng.normal(size=(n, n)) if allow_negative else rng.random((n, n))
    a = a * (rng.random((n, n)) < density)
    np.fill_diagonal(a, 0.0)
    return a


class TestConsensusProjection:
    def test_consensus_state_maps_to_zero(self):
        x = np.tile([2.0, -3.0], 4)
        assert np.allclose(consensus_projection(x, 4, 2), 0.0)

    def test_two_node_scalar(self):
        out = consensus_projection(np.array([5.0, 1.0]), 2, 1)
        assert np.allclose(out, [2.0, -2.0])

    def test_norm_bounded_by_state_and_idempotent(self):
        rng = np.random.default_rng(0)
        for _ in range(1000):
            x = rng.normal(size=12)
            delta = consensus_projection(x, 4, 3)
            assert np.linalg.norm(delta) <= np.linalg.norm(x) + 1e-12
            assert np.allclose(consensus_projection(delta, 4, 3), delta, atol=1e-12)
            assert abs(delta.reshape(4, 3).sum(axis=0)).max() <= 1e-12


class TestStepEquivalence:
    def test_no_coupling_no_descent_leaves_state(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=(3, 2))
        model = CommNoiseModel(sigma=0.0, b=0.0)
        out = step_per_node(x, np.zeros((3, 3)), StepSchedule(), model,
                            zero_objective(3, 2), rng, k=0)
        assert np.array_equal(out, x)

    def test_exact_averaging_step(self):
        model = CommNoiseModel(sigma=0.0, b=0.0)
        sched = schedule_with(c0=0.5)
        x = np.array([[4.0], [-2.0]])
        a = np.array([[0.0, 1.0], [1.0, 0.0]])
        out = step_per_node(x, a, sched, model, zero_objective(2, 1),
                            np.random.default_rng(0), k=0)
        assert np.allclose(out, [[1.0], [1.0]], atol=1e-12)

    def test_per_node_matches_compact_over_thousand_random_steps(self):
        rng = np.random.default_rng(2024)
        sched = StepSchedule()
        worst = 0.0
        for trial in range(1000):
            n = int(rng.integers(2, 6))
            dim = int(rng.integers(1, 4))
            model = CommNoiseModel(sigma=float(rng.random()), b=float(rng.random()))
            objective = QuadraticObjective(rng.normal(size=(n, dim)))
            x = rng.normal(size=(n, dim)) * 3.0
            a = random_adjacency(rng, n)
            k = int(rng.integers(0, 1000))
            seed = int(rng.integers(2 ** 32))
            via_node = step_per_node(x, a, sched, model, objective,
                                     np.random.default_rng(seed), k)
            rng2 = np.random.default_rng(seed)
            xi = draw_channel_noise(x, a, rng2)
            d_mat, psi_big, xi_stacked = stacked_noise_matrices(model, x, a, rng2, xi=xi)
            zeta = np.zeros((n, dim))
            via_compact = step_compact(x, a, sched, objective, k,
                                       d_mat, psi_big, xi_stacked, zeta)
            worst = max(worst, float(np.max(np.abs(via_node - via_compact))))
        assert worst < 1e-10

    def test_apply_step_matches_per_node_given_same_draws(self):
        rng = np.random.default_rng(7)
        sched = StepSchedule()
        for _ in range(200):
            n, dim = 4, 2
            model = CommNoiseModel(sigma=0.4, b=0.2)
            objective = QuadraticObjective(rng.normal(size=(n, dim)))
            x = rng.normal(size=(n, dim))
            a = random_adjacency(rng, n)
            seed = int(rng.integers(2 ** 32))
            k = int(rng.integers(0, 50))
            via_node = step_per_node(x, a, sched, model, objective,
                                     np.random.default_rng(seed), k)
            xi = draw_channel_noise(x, a, np.random.default_rng(seed))
            d = objective.subgradient_stack(x)
            via_apply = apply_step(x, a, sched.alpha(k), sched.c(k), model, xi, d)
            assert np.max(np.abs(via_node - via_apply)) < 1e-12

    def test_noise_free_reduction_is_linear_consensus_map(self):
        rng = np.random.default_rng(9)
        sched = StepSchedule()
        n, dim = 4, 3
        model = CommNoiseModel(sigma=0.0, b=0.0)
        x = rng.normal(size=(n, dim))
        a = random_adjacency(rng, n)
        k = 5
        out = apply_step(x, a, sched.alpha(k), sched.c(k), model,
                         np.zeros((n, n, dim)), np.zeros((n, dim)))
        lin = (np.eye(n) - sched.c(k) * laplacian(a)) @ x
        assert np.max(np.abs(out - lin)) < 1e-12

    def test_balanced_graph_preserves_average(self):
        rng = np.random.default_rng(10)
        sched = StepSchedule()
        n, dim = 5, 2
        model = CommNoiseModel(sigma=0.0, b=0.0)
        a = rng.random((n, n))
        a = a + a.T  # symmetric, hence balanced
        np.fill_diagonal(a, 0.0)
        x = rng.normal(size=(n, dim))
        for k in range(20):
            x_next = apply_step(x, a, 0.0, sched.c(k), model,
                                np.zeros((n, n, dim)), np.zeros((n, dim)))
            assert np.max(np.abs(x_next.mean(axis=0) - x.mean(axis=0))) < 1e-12
            x = x_next


def kernel_operands(rng, reps, n, dim, cap=None):
    """Operands of one batched kernel call: states, signed adjacency, row
    sums, gains, model, per-receiver channel draws and subgradients."""
    x = rng.normal(size=(reps, n, dim)) * 3.0
    a = rng.normal(size=(reps, n, n)) * (rng.random((reps, n, n)) < 0.7)
    a[:, np.arange(n), np.arange(n)] = 0.0
    model = CommNoiseModel(sigma=float(rng.random()), b=float(rng.random()), cap=cap)
    z = rng.standard_normal((reps, n, dim)) / np.sqrt(dim)
    return (x, a, a.sum(axis=-1)[..., None], 0.3, 0.7, model, z,
            rng.normal(size=(reps, n, dim)))


class TestKernelWorkspace:
    """The in-place kernel against the broadcast-and-einsum form: the pair
    norms sum over d in index order, which is einsum's order up to dim 2."""

    def _both(self, seed, reps, n, dim, cap, given_psi=False):
        ops = kernel_operands(np.random.default_rng(seed), reps, n, dim, cap)
        # The engine passes a slot of its sub-span's intensity buffer.
        psi_buf = np.full((reps, n, n), np.nan) if given_psi else None
        x, a, rs, alpha_k, c_k, model, z, d = ops
        got = _kernel((reps,), n, dim, model)(x, a, rs, alpha_k, c_k, z, d,
                                              np.empty((reps, n, dim)),
                                              _pair_operands(x), psi_buf)
        if given_psi:
            assert got[2] is psi_buf
        return got, step_einsum(*ops)

    @pytest.mark.parametrize("dim", (1, 2))
    @pytest.mark.parametrize("cap", (None, 1.5))
    @pytest.mark.parametrize("given_psi", (False, True))
    def test_bit_identical_to_einsum_form_up_to_dim_two(self, dim, cap, given_psi):
        for seed, (reps, n) in enumerate([(1, 2), (3, 5), (20, 5), (2, 9)]):
            got, ref = self._both(seed, reps, n, dim, cap, given_psi)
            for g, r in zip(got, ref):
                assert np.array_equal(g, r)

    @pytest.mark.parametrize("dim", (3, 4))
    @pytest.mark.parametrize("cap", (None, 1.5))
    def test_last_bits_of_einsum_form_from_dim_three(self, dim, cap):
        for seed, (reps, n) in enumerate([(1, 2), (3, 5), (20, 4), (2, 9)]):
            got, ref = self._both(seed, reps, n, dim, cap)
            for g, r in zip(got, ref):
                assert np.max(np.abs(g - r)) <= 1e-14 * np.max(np.abs(r))

    @pytest.mark.parametrize("dim", (1, 2))
    @pytest.mark.parametrize("lead", ((), (3,), (2, 3)))
    def test_dim_leading_workspace_matches_einsum_form_for_any_stack(self, dim, lead):
        rng = np.random.default_rng(7 * dim + len(lead))
        n = 5
        x = rng.normal(size=lead + (n, dim)) * 3.0
        a = rng.normal(size=lead + (n, n)) * (rng.random(lead + (n, n)) < 0.7)
        model = CommNoiseModel(sigma=0.4, b=0.2)
        z = rng.standard_normal(x.shape) / np.sqrt(dim)
        d = rng.normal(size=x.shape)
        row_sums = a.sum(axis=-1)[..., None]
        ref = step_einsum(x, a, row_sums, 0.3, 0.7, model, z, d)
        # The engine's row sums come expanded to the states' shape.
        for rs in (row_sums, np.broadcast_to(row_sums, x.shape).copy()):
            step, out = _kernel(lead, n, dim, model), np.empty(x.shape)
            got = step(x, a, rs, 0.3, 0.7, z, d, out, _pair_operands(x))
            diff = inspect.getclosurevars(step).nonlocals["diff"]
            assert diff.shape == (dim,) + lead + (n, n)
            assert all(diff_d.flags.c_contiguous for diff_d in diff)
            for g, r in zip(got, ref):
                assert np.array_equal(g, r)

    def test_calls_with_a_workspace_allocate_no_pair_array(self):
        reps, n, dim = 4, 60, 2
        ops = kernel_operands(np.random.default_rng(0), reps, n, dim)
        step, out = _kernel((reps,), n, dim, ops[5]), np.empty((reps, n, dim))
        args = ops[:5] + ops[6:]
        pairs = _pair_operands(args[0])
        tracemalloc.start()
        try:
            step(*args, out, pairs)
            base = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            for _ in range(10):
                step(*args, out, pairs)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak - base < reps * n * n * 8


class TestCenter:
    """Centring by sequential slice adds equals the axis -2 sum bit for bit."""

    @pytest.mark.parametrize("n", (1, 2, 3, 5, 8, 9, 16, 50, 100))
    @pytest.mark.parametrize("dim", (1, 2, 3, 4))
    def test_equals_axis_sum_form(self, n, dim):
        rng = np.random.default_rng(1000 * n + dim)
        for lead in ((7,), (5, 6)):
            shape = lead + (n, dim)
            x = rng.normal(size=shape) * 10.0 ** rng.uniform(-6, 6, size=shape)
            want = center_by_sum(x)
            assert np.array_equal(_center(x), want)
            out, mean = np.empty(shape), np.empty(lead + (1, dim))
            assert _center(x, out=out, mean=mean) is out and np.array_equal(out, want)
            # The node average that observe records, as numpy's mean gives it.
            assert np.array_equal(mean, x.mean(axis=-2, keepdims=True))


class TestDeltaRecursion:
    def test_noise_and_gradient_free_identity(self):
        rng = np.random.default_rng(11)
        model = CommNoiseModel(sigma=0.0, b=0.0)
        sched = StepSchedule()
        x = rng.normal(size=(4, 2))
        a = random_adjacency(rng, 4)
        disc = delta_recursion_check(x, a, sched, model, zero_objective(4, 2),
                                     3, np.zeros((4, 4, 2)), np.zeros((4, 2)))
        assert disc < 1e-12

    def test_full_noise_random_instances(self):
        rng = np.random.default_rng(12)
        sched = StepSchedule()
        worst = 0.0
        for _ in range(300):
            n = int(rng.integers(2, 6))
            dim = int(rng.integers(1, 4))
            model = CommNoiseModel(sigma=float(rng.random()), b=float(rng.random()))
            objective = QuadraticObjective(rng.normal(size=(n, dim)))
            x = rng.normal(size=(n, dim)) * 2.0
            a = random_adjacency(rng, n)
            xi = draw_channel_noise(x, a, rng)
            zeta = rng.normal(size=(n, dim))
            disc = delta_recursion_check(x, a, sched, model, objective,
                                         int(rng.integers(0, 100)), xi, zeta)
            worst = max(worst, disc)
        assert worst < 1e-10

    def test_consensus_start_leaves_only_noise_term(self):
        rng = np.random.default_rng(13)
        model = CommNoiseModel(sigma=0.3, b=0.1)
        sched = StepSchedule()
        x = np.tile(rng.normal(size=2), (4, 1))
        a = random_adjacency(rng, 4, allow_negative=False)
        xi = draw_channel_noise(x, a, rng)
        disc = delta_recursion_check(x, a, sched, model, zero_objective(4, 2),
                                     0, xi, np.zeros((4, 2)))
        assert disc < 1e-12

    def test_a_wrong_next_state_shows_as_its_consensus_error(self):
        rng = np.random.default_rng(14)
        model, sched = CommNoiseModel(sigma=0.3, b=0.1), StepSchedule()
        objective = QuadraticObjective(rng.normal(size=(4, 2)))
        x, a = rng.normal(size=(4, 2)), random_adjacency(rng, 4)
        row_sums, d = a.sum(axis=-1)[:, None], objective.subgradient_stack(x)
        z = rng.normal(size=(4, 2))
        x_new, noise, _ = kernel(x, a, row_sums, sched.alpha(5), sched.c(5), model, z, d)
        error = rng.normal(size=(4, 2))
        gap = _recursion_gap(_center(x), a, row_sums, sched.alpha(5), sched.c(5), noise, None,
                             d, x_new + error)
        assert gap == pytest.approx(np.linalg.norm(center_by_sum(error)), rel=1e-9)


class TestRunTrajectory:
    """One replication's recorded metrics, read from ``monte_carlo`` at one
    replication: ``per_rep[key][0]`` holds replication 0's trajectory."""

    def test_zero_horizon_single_record_of_initial_state(self):
        obj = QuadraticObjective(np.zeros((3, 2)))
        proc = DeterministicCycle([np.ones((3, 3)) - np.eye(3)])
        model = CommNoiseModel(sigma=0.1, b=0.1)
        mc = monte_carlo(obj, proc, model, StepSchedule(), 0, 7, 1,
                         x_star=np.zeros(2), f_star=0.0)
        assert mc.per_rep["V"].shape == (1, 1)
        assert mc.record_ks.tolist() == [0]

    def test_same_seed_bit_identical_records(self):
        obj = QuadraticObjective(np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]]))
        proc = IndependentEdges(base=np.ones((3, 3)) - np.eye(3), prob=0.7)
        model = CommNoiseModel(sigma=0.2, b=0.1)
        x_star, f_star = obj.optimum()
        args = (obj, proc, model, StepSchedule(), 500, 99, 1)
        mc1 = monte_carlo(*args, x_star=x_star, f_star=f_star)
        mc2 = monte_carlo(*args, x_star=x_star, f_star=f_star)
        assert np.array_equal(mc1.record_ks, mc2.record_ks)
        for key in ("V", "opt_gap", "dist", "mean_state"):
            assert np.array_equal(mc1.per_rep[key], mc2.per_rep[key])
        # One replication's aggregates are its own trajectory, with no spread.
        assert np.array_equal(mc1.mean_v, mc1.per_rep["V"][0])
        assert np.array_equal(mc1.mean_dist_to_opt, mc1.per_rep["dist"][0])
        assert np.all(mc1.std_v == 0.0)

    def test_noise_free_quadratic_reaches_optimum(self):
        # identical targets remove gradient heterogeneity; alpha1 = 5 gives
        # enough total descent by 1e4 steps
        target = np.array([1.5, -0.5])
        obj = QuadraticObjective(np.tile(target, (3, 1)))
        path = np.array([[0.0, 1, 0], [1, 0, 1], [0, 1, 0]], dtype=float)
        proc = DeterministicCycle([path])
        model = CommNoiseModel(sigma=0.0, b=0.0)
        x_star, f_star = obj.optimum()
        mc = monte_carlo(obj, proc, model, schedule_with(alpha1=5.0), 10_000, 42, 1,
                         x_star=x_star, f_star=f_star,
                         init=InitialStates.uniform(-5.0, 5.0))
        assert mc.record_ks[-1] == 10_000
        assert mc.per_rep["dist"][0, -1] < 1e-2
        assert mc.per_rep["opt_gap"][0, -1] >= -1e-9

    def test_average_invariance_on_balanced_graph_without_noise(self):
        a = np.array([[0.0, 1, 0], [0, 0, 1], [1, 0, 0]])  # directed cycle
        proc = DeterministicCycle([a])
        model = CommNoiseModel(sigma=0.0, b=0.0)
        obj = zero_objective(3, 2)
        mc = monte_carlo(obj, proc, model, StepSchedule(), 200, 5, 1,
                         x_star=np.zeros(2), f_star=0.0,
                         record_ks=np.arange(201))
        means = mc.per_rep["mean_state"][0]
        assert means.shape == (201, 2)
        for mean in means:
            assert np.max(np.abs(mean - means[0])) < 1e-12

    def test_lyapunov_below_state_norm(self):
        obj = QuadraticObjective(np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]]))
        proc = IndependentEdges(base=np.ones((3, 3)) - np.eye(3), prob=0.8)
        model = CommNoiseModel(sigma=0.2, b=0.1)
        x_star, f_star = obj.optimum()
        mc = monte_carlo(obj, proc, model, StepSchedule(), 300, 11, 1,
                         x_star=x_star, f_star=f_star)
        assert np.all(mc.per_rep["V"][0] <= mc.per_rep["state_sq"][0] + 1e-12)

    def test_divergence_detected_with_runaway_gain(self):
        obj = QuadraticObjective(np.zeros((2, 1)))
        proc = DeterministicCycle([np.array([[0.0, 1.0], [1.0, 0.0]])])
        model = CommNoiseModel(sigma=0.0, b=0.0)
        sched = StepSchedule(alpha1=1e9)
        with pytest.raises(DivergenceDetected) as info:
            monte_carlo(obj, proc, model, sched, 200, 3, 1,
                        x_star=np.zeros(1), f_star=0.0,
                        init=InitialStates.explicit([[1.0], [2.0]]))
        assert info.value.step is not None
        assert info.value.replication == 0

    def test_engine_first_step_matches_apply_step_reconstruction(self):
        n, dim = 4, 2
        obj = QuadraticObjective(np.arange(8.0).reshape(n, dim))
        a = np.ones((n, n)) - np.eye(n)
        proc = DeterministicCycle([a])
        model = CommNoiseModel(sigma=0.3, b=0.2)
        sched = StepSchedule()
        x_star, f_star = obj.optimum()
        seed, rep = 1234, 0
        mc = monte_carlo(obj, proc, model, sched, 1, seed, 1,
                         x_star=x_star, f_star=f_star, record_ks=np.array([0, 1]))
        init_ss, _, comm_ss, _ = replication_stream(seed, rep).spawn(4)
        x0 = InitialStates().draw(np.random.default_rng(init_ss), n, dim)
        # The channel stream's first step: one draw per receiver.
        z = np.random.default_rng(comm_ss).standard_normal(
            (1, n, dim))[0] / np.sqrt(dim)
        d = obj.subgradient_stack(x0)
        x1 = kernel(x0, a, a.sum(axis=-1)[:, None], sched.alpha(0), sched.c(0), model, z, d)[0]
        rec = {key: mc.per_rep[key][rep, 1] for key in ("mean_state", "state_sq", "V")}
        assert np.max(np.abs(rec["mean_state"] - x1.mean(axis=0))) < 1e-12
        assert rec["state_sq"] == pytest.approx(float((x1 ** 2).sum()), rel=1e-12)
        centered = x1 - x1.mean(axis=0)
        assert rec["V"] == pytest.approx(float((centered ** 2).sum()), rel=1e-12)


class TestMonteCarlo:
    def _setup(self):
        obj = QuadraticObjective(np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]]))
        proc = IndependentEdges(base=np.ones((3, 3)) - np.eye(3), prob=0.8)
        model = CommNoiseModel(sigma=0.1, b=0.1)
        x_star, f_star = obj.optimum()
        return obj, proc, model, x_star, f_star

    def test_deterministic_noise_free_runs_have_zero_variance(self):
        obj = QuadraticObjective(np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]]))
        proc = DeterministicCycle([np.ones((3, 3)) - np.eye(3)])
        model = CommNoiseModel(sigma=0.0, b=0.0)
        x_star, f_star = obj.optimum()
        init = InitialStates.explicit([[2.0, 0.0], [0.0, 2.0], [-1.0, 1.0]])
        mc = monte_carlo(obj, proc, model, StepSchedule(), 200, 23, 5,
                         x_star, f_star, init=init)
        for row in mc.per_rep["V"]:
            assert np.array_equal(row, mc.per_rep["V"][0])
        assert np.max(mc.std_v) <= 1e-15

    def test_cycle_runs_as_the_same_chain_built_explicitly(self):
        # The one-hot transition ignores the graph stream's draws, so the two
        # processes give the same graphs and every other stream is shared.
        obj, _, model, x_star, f_star = self._setup()
        rng = np.random.default_rng(8)
        mats = [random_adjacency(rng, 3, allow_negative=False) for _ in range(3)]
        chain = MarkovSwitching(mats, np.roll(np.eye(3), 1, axis=1), initial=[1.0, 0.0, 0.0])
        runs = [monte_carlo(obj, proc, model, StepSchedule(), 1200, 17, 8, x_star, f_star,
                            check_stride=50) for proc in (DeterministicCycle(mats), chain)]
        assert runs[0].per_rep.keys() == runs[1].per_rep.keys()
        for key, value in runs[0].per_rep.items():
            assert np.array_equal(value, runs[1].per_rep[key]), key

    def test_monitors(self):
        obj, proc, model, x_star, f_star = self._setup()
        mc = monte_carlo(obj, proc, model, StepSchedule(), 2000, 31, 4,
                         x_star, f_star, check_stride=100)
        assert mc.psi_violation_max <= 1e-9
        assert mc.d_violation_max <= 1e-9
        assert mc.recursion_max < 1e-10

    def test_a_constant_intensity_reads_minus_b_squared_exactly(self):
        # With sigma = 0 every intensity is b, so the psi monitor reads
        # b^2 - 2 b^2 = -b^2 exactly when both squares are products.  A Python
        # float's b ** 2 is the C library's pow, which can miss the rounded
        # square by one ulp (glibc does at b = 2.759), and with it the exact
        # scaling of the monitors with the problem.
        obj, proc, _, x_star, f_star = self._setup()
        b = 2.759
        mc = monte_carlo(obj, proc, CommNoiseModel(sigma=0.0, b=b), StepSchedule(), 50, 3, 2,
                         x_star, f_star)
        assert np.array_equal(mc.per_rep["psi_violation"], np.full(2, -(b * b)))

    def test_monitors_match_a_node_by_node_recomputation(self):
        targets = np.array([[0.0, 0.0], [2.0, 0.0], [1.0, 2.0], [3.0, 1.0]])
        obj = QuadraticObjective(targets)
        a = np.array([[0.0, 1.0, 0.0, 0.5], [1.0, 0.0, 1.0, 0.0],
                      [0.0, 1.0, 0.0, 1.0], [0.5, 0.0, 1.0, 0.0]])
        model = CommNoiseModel(sigma=0.3, b=0.2)
        sched, seed, horizon = StepSchedule(), 7, 60
        mc = monte_carlo(obj, DeterministicCycle([a]), model, sched, horizon, seed, 2,
                         *obj.optimum())
        for rep in range(2):
            init_ss, _, comm_ss, _ = replication_stream(seed, rep).spawn(4)
            x0 = InitialStates().draw(np.random.default_rng(init_ss), 4, 2)
            psi_excess, d_excess = quadratic_monitor_excesses_loop(
                targets, a, model, sched, x0, np.random.default_rng(comm_ss), horizon)
            assert mc.per_rep["psi_violation"][rep] == pytest.approx(psi_excess, rel=1e-9)
            assert mc.per_rep["d_violation"][rep] == pytest.approx(d_excess, rel=1e-9)

    def test_the_run_check_catches_a_step_off_its_recursion(self, monkeypatch):
        # Each step moves node 0 by 1e-6 per coordinate more than the
        # recursion allows; centred over 3 nodes in dimension 2, that error
        # has norm 1e-6 * sqrt(4/3) on every check step.
        kernel_for = engine._kernel

        def off_kernel(*shape):
            step = kernel_for(*shape)

            def stepped(*args):
                x_new, noise, psi_all = step(*args)
                x_new[..., 0, :] += 1e-6
                return x_new, noise, psi_all
            return stepped

        monkeypatch.setattr(engine, "_kernel", off_kernel)
        obj, proc, model, x_star, f_star = self._setup()
        mc = monte_carlo(obj, proc, model, StepSchedule(), 200, 31, 2, x_star, f_star,
                         check_stride=50)
        assert mc.recursion_max == pytest.approx(1e-6 * np.sqrt(4.0 / 3.0), rel=1e-6)

    def test_worker_pool_matches_single_worker(self):
        obj, proc, model, x_star, f_star = self._setup()
        sched = StepSchedule()
        kw = dict(init=InitialStates.uniform(-2.0, 2.0))
        one = monte_carlo(obj, proc, model, sched, 300, 41, 6, x_star, f_star,
                          workers=1, **kw)
        four = monte_carlo(obj, proc, model, sched, 300, 41, 6, x_star, f_star,
                           workers=4, **kw)
        for name in ("mean_v", "std_v", "mean_opt_gap", "mean_dist_to_opt",
                     "mean_state_sq", "final_dists"):
            a, b = getattr(one, name), getattr(four, name)
            assert np.max(np.abs(a - b)) <= 1e-12

    def test_divergence_report_does_not_depend_on_worker_count(self, config_dir):
        # A1 at sigma 16: the replications diverge at different steps, and
        # the earliest, replication 6 at step 40, is in neither a 3-way nor
        # an 8-way split's first batch.
        raw = yaml.safe_load((config_dir / "a1_quadratic.yaml").read_text())
        raw["noise"]["sigma"] = 16
        raw["run"].update(horizon=2000, reps=8)
        raw["thresholds"]["min_pass_reps"] = 8
        cfg = config.config_from_dict(raw)
        obj, process, model, schedule, init = config.validate_config(cfg)
        x_star, f_star = obj.optimum()
        found = []
        for workers in (1, 3, 8):
            with pytest.raises(DivergenceDetected) as info:
                monte_carlo(obj, process, model, schedule, cfg.run.horizon, cfg.run.seed,
                            cfg.run.reps, x_star, f_star, init=init, workers=workers)
            found.append((info.value.replication, info.value.step))
        assert found == [(6, 40)] * 3

    def test_first_divergence_takes_nan_then_the_largest_norm_then_the_lowest_index(self):
        def exc(rep, step, norm_sq):
            return DivergenceDetected("", replication=rep, step=step, norm_sq=norm_sq)

        def first(*errors):
            got = _first_divergence(errors)
            return got.replication, got.step

        assert first(exc(0, 9, np.inf), exc(5, 8, 2e24)) == (5, 8)
        assert first(exc(0, 8, np.inf), exc(5, 8, np.nan)) == (5, 8)
        assert first(exc(1, 8, np.nan), exc(5, 8, np.nan)) == (1, 8)
        assert first(exc(4, 8, 3e24), exc(2, 8, 3e24), exc(3, 8, 2e24)) == (2, 8)

    def test_record_stride_bookkeeping(self):
        ks = default_record_ks(10, dense_until=1000, stride=100)
        assert ks.tolist() == list(range(11))
        ks = default_record_ks(10 ** 5)
        assert 100 in ks.tolist() and 10 ** 5 in ks.tolist()
        assert len(ks) == 1001 + 990


class TestCappedIntensity:
    def test_capped_model_keeps_bound_monitors(self):
        obj = QuadraticObjective(np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]]))
        proc = IndependentEdges(base=np.ones((3, 3)) - np.eye(3), prob=0.8)
        model = CommNoiseModel(sigma=0.3, b=0.2, cap=0.25)
        x_star, f_star = obj.optimum()
        mc = monte_carlo(obj, proc, model, StepSchedule(), 1000, 13, 3,
                         x_star, f_star, check_stride=100)
        assert mc.psi_violation_max <= 1e-9
        assert mc.recursion_max < 1e-10

    def test_cap_limits_intensity(self):
        model = CommNoiseModel(sigma=1.0, b=0.5, cap=0.75)
        assert psi(model, np.array([100.0, 0.0])) == 0.75
        assert psi(model, np.zeros(2)) == 0.5


TARGETS = np.array([[0.0, 0.0], [2.0, 0.0]])


@pytest.fixture
def measured(monkeypatch, tmp_path):
    """``measured(lose)`` makes every measurement append its process id and
    the batch's replication count to a log, and then, in any process but the
    test's, call ``lose()``; it returns a reader of the log's ``(pid, reps)``
    lines."""
    log, original = tmp_path / "measured", QuadraticObjective.subgradient_stack

    def install(lose=lambda: None):
        def logged(self, states, out=None, ws=None):
            with open(log, "a", encoding="utf-8") as fh:
                fh.write(f"{os.getpid()} {states.shape[0]}\n")
            if os.getpid() != PARENT:
                lose()
            return original(self, states, out, ws)
        monkeypatch.setattr(QuadraticObjective, "subgradient_stack", logged)
        return lambda: [tuple(map(int, line.split())) for line in log.read_text().splitlines()]
    return install


def _run_workers(workers, horizon=20, schedule=None):
    obj = QuadraticObjective(TARGETS)
    proc = IndependentEdges(base=np.ones((2, 2)) - np.eye(2), prob=0.9)
    return monte_carlo(obj, proc, CommNoiseModel(sigma=0.1, b=0.1), schedule or StepSchedule(),
                       horizon, 0, 3, *obj.optimum(), workers=workers)


def _assert_same_per_rep(mc, reference):
    assert mc.per_rep.keys() == reference.per_rep.keys()
    for key, value in reference.per_rep.items():
        assert mc.per_rep[key].tobytes() == value.tobytes(), key


class _WarningSchedule(StepSchedule):
    """StepSchedule, warning each time it gives a sub-span's gains."""

    def alpha(self, k):
        if np.ndim(k):
            warnings.warn("a warning of the draws", RuntimeWarning)
        return super().alpha(k)


@pytest.mark.skipif(not forked._FORKS, reason="workers are forked on Linux only")
class TestLostWorker:
    """Replications 0-1 run in the test's process and replication 2 in a
    forked worker; a part whose worker dies or hangs is rerun in line, and a
    worker's divergence is its answer, not a lost part."""

    def test_a_workers_divergence_is_raised_from_the_worker(self, measured):
        # Replication 2, the worker's, diverges first.
        schedule = StepSchedule(alpha1=1e3)
        with pytest.raises(DivergenceDetected) as one:
            _run_workers(1, schedule=schedule)
        pids = measured()
        with pytest.raises(DivergenceDetected) as two:
            _run_workers(2, schedule=schedule)
        assert (two.value.replication, two.value.step, two.value.norm_sq) == (
            one.value.replication, one.value.step, one.value.norm_sq)
        assert two.value.replication == 2
        log = pids()
        assert (PARENT, 1) not in log
        assert {reps for pid, reps in log if pid != PARENT} == {1}
        assert_no_child()

    @pytest.mark.parametrize("lose", [lambda: os._exit(1), lambda: time.sleep(60.0)],
                             ids=("exited", "hung"))
    def test_a_lost_workers_part_is_rerun_in_line(self, measured, monkeypatch, lose):
        reference = _run_workers(1)
        monkeypatch.setattr(forked, "_MIN_WAIT_S", 0.2)
        pids = measured(lose)
        fds = len(os.listdir("/proc/self/fd"))
        start = time.monotonic()
        mc = _run_workers(2)
        assert time.monotonic() - start < 10.0
        _assert_same_per_rep(mc, reference)
        # The worker measured once before it was lost, then the test's
        # process ran its one replication.
        log = pids()
        worker = [pid for pid, _ in log if pid != PARENT]
        assert len(worker) == 1
        assert [reps for pid, reps in log if pid == PARENT] == [2] * 20 + [1] * 20
        assert_no_child()
        assert len(os.listdir("/proc/self/fd")) == fds

    def test_cli_run_with_a_dying_worker_gives_the_one_worker_bytes(self, tmp_path, measured,
                                                                     capsys):
        measured(lambda: os._exit(1))
        outputs = []
        for workers in (1, 2):
            path = tmp_path / f"cfg{workers}.yaml"
            path.write_text(yaml.safe_dump({
                "problem": {"kind": "quadratic", "targets": TARGETS.tolist()},
                "graph": {"kind": "independent", "base": "complete", "n_nodes": 2,
                          "activation_prob": 0.9},
                "noise": {"sigma": 0.1, "b": 0.1},
                "run": {"horizon": 20, "reps": 2, "seed": 3, "workers": workers},
                "verify": {"horizon": 1000},
                "connectivity": {"windows": 2, "reps": 8},
            }), encoding="utf-8")
            out_dir = tmp_path / f"out{workers}"
            assert cli.main(["run", "--config", str(path), "--out", str(out_dir)]) == 0
            outputs.append([(out_dir / name).read_bytes()
                            for name in ("trace.csv", "summary.txt")])
        assert outputs[0] == outputs[1]
        assert capsys.readouterr().err == ""
        assert_no_child()


@pytest.mark.parametrize("case", ["no fork", "another thread"])
def test_no_worker_is_forked_where_forked_does_not_fork(measured, monkeypatch, case):
    reference = _run_workers(1)
    pids = measured()
    if case == "no fork":
        monkeypatch.setattr(forked, "_FORKS", False)
        mc = _run_workers(2)
    else:
        release = threading.Event()
        other = threading.Thread(target=release.wait)
        other.start()
        try:
            mc = _run_workers(2)
        finally:
            release.set()
            other.join()
    _assert_same_per_rep(mc, reference)
    assert {pid for pid, _ in pids()} == {PARENT}


@pytest.mark.skipif(not forked._FORKS, reason="workers are forked on Linux only")
def test_a_workers_warnings_reach_the_caller_as_with_one_worker():
    shown, counts = [], []
    for workers in (1, 2):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            _run_workers(workers, schedule=_WarningSchedule())
        shown.append({(str(w.message), w.category, w.filename, w.lineno) for w in caught})
        counts.append(len(caught))
    assert shown[1] == shown[0]
    assert len(shown[0]) == 1
    # Each part draws one sub-span: the worker's warning comes beside the
    # one of the part the caller's process ran.
    assert counts == [1, 2]
    assert {filename for _, _, filename, _ in shown[0]} == {__file__}
