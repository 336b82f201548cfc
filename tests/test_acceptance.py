"""Acceptance suite: one test per criterion, one printed PASS/FAIL line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see every line.  The
Config A1 threshold checks (criteria 2a and 2b) measure real behavior against
thresholds that the configured schedule cannot meet; they are implemented
faithfully and currently fail.  The mechanism is quantified in criterion 2's
printed output: with consensus gain c(k) and descent gain alpha(k), the
per-node consensus error settles at the gradient-heterogeneity equilibrium
(alpha(k)/c(k)) * L_mean^+ (grad spread), which for this schedule decays like
(k+3)^(-1/4); both the Lyapunov-decay ratio and the worst-node distance floor
follow that law, matching the measured values below to a few percent.
"""

import time

import numpy as np
import pytest

from conftest import record_acceptance_line
from oracles import (delta_recursion_check, draw_channel_noise, jacobi_eigenvalues,
                     node_zeta_samples, psi_matrix, stacked_noise_matrices,
                     step_compact, step_per_node)
from subgradnet import (CommNoiseModel, DeterministicCycle, LassoProblem,
                        QuadraticObjective, StepSchedule, lambda2, laplacian, load_config,
                        run_experiment, symmetrized_laplacian,
                        verify_conditions, joint_connectivity_report)

SCHED = StepSchedule(alpha1=1.0, tau1=1.0, alpha2=1.0, tau2=0.75, tau3=1.0)


def report_line(cid, ok, detail):
    line = f"ACCEPTANCE {cid}: {'PASS' if ok else 'FAIL'} | {detail}"
    print(line)
    record_acceptance_line(line)
    return ok


@pytest.fixture(scope="session")
def a1_cfg(config_dir):
    return load_config(str(config_dir / "a1_quadratic.yaml"))


@pytest.fixture(scope="session")
def a2_cfg(config_dir):
    return load_config(str(config_dir / "a2_lasso.yaml"))


@pytest.fixture(scope="session")
def a1_result(a1_cfg, tmp_path_factory):
    out = tmp_path_factory.mktemp("a1_run")
    start = time.perf_counter()
    result = run_experiment(a1_cfg, out_dir=str(out))
    result_wall = time.perf_counter() - start
    return result, result_wall


class TestCriterion1AlgebraicIdentity:
    def test_per_node_equals_compact_and_recursion_closes(self):
        rng = np.random.default_rng(20240101)
        start = time.perf_counter()
        worst_step = 0.0
        worst_rec = 0.0
        for _ in range(1000):
            n = int(rng.integers(2, 6))
            dim = int(rng.integers(1, 4))
            model = CommNoiseModel(sigma=float(rng.random()),
                                   b=float(rng.random()), noise_dim=dim)
            objective = QuadraticObjective(rng.normal(size=(n, dim)))
            x = rng.normal(size=(n, dim)) * 3.0
            a = rng.normal(size=(n, n)) * (rng.random((n, n)) < 0.7)
            np.fill_diagonal(a, 0.0)
            k = int(rng.integers(0, 1000))
            seed = int(rng.integers(2 ** 32))
            via_node = step_per_node(x, a, SCHED, model, objective,
                                     np.random.default_rng(seed), k)
            rng2 = np.random.default_rng(seed)
            xi = draw_channel_noise(model, a, rng2)
            factors = stacked_noise_matrices(model, x, a, rng2, xi=xi)
            via_compact = step_compact(x, a, SCHED, objective, k, *factors,
                                       zeta=np.zeros((n, dim)))
            worst_step = max(worst_step, float(np.max(np.abs(via_node - via_compact))))
            zeta = rng.normal(size=(n, dim))
            worst_rec = max(worst_rec, delta_recursion_check(
                x, a, SCHED, model, objective, k, xi, zeta))
        wall = time.perf_counter() - start
        ok = worst_step < 1e-10 and worst_rec < 1e-10 and wall < 10.0
        assert report_line(
            "1", ok,
            f"per-node vs compact max gap {worst_step:.3e}, "
            f"recursion max gap {worst_rec:.3e}, wall {wall:.1f}s")


class TestCriterion2NoisyQuadraticA1:
    def test_a_lyapunov_decay_ratio(self, a1_result):
        result, _ = a1_result
        ks = result.mc.record_ks.tolist()
        v_early = float(result.mc.mean_v[ks.index(100)])
        v_late = float(result.mc.mean_v[ks.index(100_000)])
        ratio = v_late / v_early
        predicted = ((100.0 + 3.0) / (100_000.0 + 3.0)) ** 0.5
        ok = ratio < 0.01
        assert report_line(
            "2a", ok,
            f"mean V(1e5)/mean V(1e2) = {ratio:.4f} (threshold 0.01; "
            f"schedule-bias law predicts {predicted:.4f})")

    def test_b_final_distances(self, a1_result):
        result, wall = a1_result
        count = int(np.sum(result.mc.final_dists < 0.05))
        ok = count >= 18 and wall < 60.0
        assert report_line(
            "2b", ok,
            f"{count}/20 replications below 0.05 (need 18); "
            f"median dist {np.median(result.mc.final_dists):.4f} vs bias floor "
            f"~0.034; wall {wall:.1f}s")


class TestCriterion3LassoA2:
    def test_markov_lasso_converges(self, a2_cfg, tmp_path_factory):
        out = tmp_path_factory.mktemp("a2_run")
        start = time.perf_counter()
        result = run_experiment(a2_cfg, out_dir=str(out))
        wall = time.perf_counter() - start
        # closed-form cross-check of the oracle: componentwise soft threshold
        oracle_x, _ = LassoProblem(
            x0=[1.0, -2.0, 0.0], covariances=np.stack([np.eye(3)] * 4),
            sigma_v=[0.5] * 4, kappa=0.3).optimum()
        assert np.allclose(oracle_x, [0.7, -1.7, 0.0], atol=1e-9)
        count = int(np.sum(result.mc.final_dists < 0.1))
        ok = count >= 18 and wall < 180.0
        assert report_line(
            "3", ok,
            f"{count}/20 replications below 0.1 (need 18), wall {wall:.1f}s, "
            f"x* = (0.7, -1.7, 0.0) confirmed")


class TestCriterion4ScheduleVerifier:
    def test_valid_family_passes_and_counterexamples_fail(self, a1_result):
        constants = a1_result[0].constants
        start = time.perf_counter()
        at_one = verify_conditions(SCHED.alpha, SCHED.c, 1.0, 1_000_000)
        at_c0 = verify_conditions(SCHED.alpha, SCHED.c, constants.C0, 1_000_000)
        slow = lambda k: (np.asarray(k, dtype=float) + 1.0) ** -0.4
        counter = verify_conditions(slow, slow, 1.0, 1_000_000)
        wall = time.perf_counter() - start
        ok = (at_one.all_hold and at_c0.all_hold
              and counter.checks["C1"].verdict == "fails"
              and counter.checks["C2"].verdict == "fails"
              and wall < 5.0)
        assert report_line(
            "4", ok,
            f"defaults 5/5 at C=1 and C=C0={constants.C0:.1f}; "
            f"(k+1)^-0.4 fails C1 ({counter.checks['C1'].verdict}) and "
            f"C2 ({counter.checks['C2'].verdict}); wall {wall:.1f}s")


class TestCriterion5NoiseStatistics:
    def test_stacked_mean_and_scalar_second_moment(self):
        start = time.perf_counter()
        rng = np.random.default_rng(555)
        n, dim, draws = 5, 2, 100_000
        model = CommNoiseModel(sigma=0.1, b=0.1, noise_dim=dim)
        x = rng.normal(size=(n, dim)) * 2.0
        a = (rng.random((n, n)) < 0.8).astype(float)
        np.fill_diagonal(a, 0.0)
        psi_all = psi_matrix(model, x)
        c_k = SCHED.c(0)
        coeff = (a * psi_all.T)[None, :, :, None]
        xi = rng.standard_normal((draws, n, n, dim)) / np.sqrt(dim)
        samples = c_k * (coeff * np.swapaxes(xi, 1, 2)).sum(axis=2).reshape(draws, -1)
        mean = samples.mean(axis=0)
        stderr = samples.std(axis=0, ddof=1) / np.sqrt(draws)
        mean_ok = bool(np.all(np.abs(mean) <= 4.0 * np.maximum(stderr, 1e-15)))

        lasso = LassoProblem(x0=[0.0], covariances=np.ones((1, 1, 1)),
                             sigma_v=[1.0], kappa=0.0)
        zetas = node_zeta_samples(lasso, 0, np.array([1.0]), rng, 1_000_000)
        second = float((zetas ** 2).mean())
        moment_ok = abs(second - 3.0) <= 0.05 * 3.0
        wall = time.perf_counter() - start
        ok = mean_ok and moment_ok and wall < 30.0
        assert report_line(
            "5", ok,
            f"stacked mean within 4 SE: {mean_ok}; scalar second moment "
            f"{second:.4f} vs 3 (within 5%: {moment_ok}); wall {wall:.1f}s")


class TestCriterion6SpectralOracle:
    def test_lambda2_matches_jacobi_and_windowed_union(self):
        rng = np.random.default_rng(66)
        worst = 0.0
        for _ in range(100):
            n = int(rng.integers(2, 11))
            a = rng.random((n, n)) * (rng.random((n, n)) < 0.6)
            a = a + a.T
            np.fill_diagonal(a, 0.0)
            lap = symmetrized_laplacian(laplacian(a))
            gap = abs(lambda2(lap) - jacobi_eigenvalues(lap)[1])
            worst = max(worst, gap)
        e12 = np.zeros((3, 3)); e12[0, 1] = e12[1, 0] = 1.0
        e23 = np.zeros((3, 3)); e23[1, 2] = e23[2, 1] = 1.0
        proc = DeterministicCycle([e12, e23])
        stats = joint_connectivity_report(proc, h=2, windows=4, reps=4, stream=0)
        union_ok = all(abs(lam - 1.0) <= 1e-9 for lam in stats.lambda2_per_window)
        ok = worst <= 1e-9 and union_ok
        assert report_line(
            "6", ok,
            f"max |lambda2 - jacobi| over 100 matrices = {worst:.2e}; "
            f"two-edge window lambda2 = {stats.theta_hat:.12f}")


class TestCriterion7BoundMonitors:
    def test_bounds_hold_along_a1_traces(self, a1_result):
        result, _ = a1_result
        mc = result.mc
        psi_ok = mc.psi_violation_max <= 1e-9
        d_ok = mc.d_violation_max <= 1e-9
        log_ratio = (np.log(np.maximum(mc.mean_state_sq, 1e-300)) - mc.beta_log)
        sup_at = int(mc.record_ks[int(np.argmax(log_ratio))])
        later = log_ratio[mc.record_ks > 1000]
        no_growth = bool(later.size == 0
                         or float(later.max()) <= float(log_ratio.max()) + 1e-12)
        ok = psi_ok and d_ok and np.isfinite(mc.c1_hat) and sup_at <= 1000 and no_growth
        assert report_line(
            "7", ok,
            f"psi-bound margin {mc.psi_violation_max:.3e}, d-bound margin "
            f"{mc.d_violation_max:.3e}, C1_hat {mc.c1_hat:.3e} attained at "
            f"k={sup_at}, no later growth: {no_growth}")


class TestMonotoneErrorDecay:
    def test_mean_squared_stack_error_non_increasing_after_transient(self, a1_result):
        # a.s. convergence of the stacked error restated testably: after the
        # first 1e3 steps the across-replication mean of ||X(k) - 1 (x) x*||^2
        # never grows by more than the 5% Monte Carlo band
        result, _ = a1_result
        mc = result.mc
        sel = mc.record_ks >= 1000
        vals = mc.mean_stack_dsq[sel]
        violations = int(np.sum(vals[1:] > vals[:-1] * 1.05))
        assert violations == 0
        assert vals[-1] < vals[0]


class TestCriterion8Determinism:
    def test_byte_identical_rerun_and_worker_invariance(self, a1_cfg, a1_result,
                                                        tmp_path_factory):
        result, _ = a1_result
        rerun_dir = tmp_path_factory.mktemp("a1_rerun")
        rerun = run_experiment(a1_cfg, out_dir=str(rerun_dir))
        trace_same = (open(result.trace_path, "rb").read()
                      == open(rerun.trace_path, "rb").read())
        summary_same = (open(result.summary_path, "rb").read()
                        == open(rerun.summary_path, "rb").read())

        import copy
        cfg8 = copy.deepcopy(a1_cfg)
        cfg8.run.workers = 8
        par_dir = tmp_path_factory.mktemp("a1_workers8")
        par = run_experiment(cfg8, out_dir=str(par_dir))
        worst = 0.0
        for name in ("mean_v", "std_v", "mean_opt_gap", "mean_dist_to_opt",
                     "mean_state_sq", "final_dists"):
            worst = max(worst, float(np.max(np.abs(
                getattr(result.mc, name) - getattr(par.mc, name)))))
        ok = trace_same and summary_same and worst <= 1e-12
        assert report_line(
            "8", ok,
            f"seed-42 rerun byte-identical: {trace_same and summary_same}; "
            f"1 vs 8 workers max aggregate gap {worst:.2e}")
