"""Objective families: costs, subgradient oracles, noise moments, optima."""

import numpy as np
import pytest

from oracles import CustomObjective, central_difference, node_zeta_samples
from subgradnet import (FactorizationError, LassoProblem, NonConvergenceError,
                        QuadraticObjective, global_optimum, soft_threshold)


def scalar_lasso(x0=2.0, sigma_v=0.0, kappa=0.5):
    return LassoProblem(x0=[x0], covariances=np.ones((1, 1, 1)),
                        sigma_v=[sigma_v], kappa=kappa)


class TestLassoRisk:
    def test_at_truth_with_no_penalty(self):
        p = LassoProblem(x0=[1.0, -2.0], covariances=np.stack([np.eye(2)]),
                        sigma_v=[0.7], kappa=0.0)
        assert p.risk(0, np.array([1.0, -2.0])) == pytest.approx(0.5 * 0.49)

    def test_pure_quadratic_value(self):
        p = LassoProblem(x0=[0.0, 0.0], covariances=np.stack([np.eye(2)]),
                        sigma_v=[0.0], kappa=0.0)
        assert p.risk(0, np.array([3.0, 4.0])) == pytest.approx(12.5)

    def test_with_l1_term_direct_formula(self):
        p = LassoProblem(x0=[0.0, 0.0], covariances=np.stack([np.eye(2)]),
                        sigma_v=[0.0], kappa=1.0)
        # oracle: 0.5*(1+1) + 1*(|1|+|-1|) = 3.0
        assert p.risk(0, np.array([1.0, -1.0])) == pytest.approx(3.0)

    def test_total_cost_sums_nodes(self):
        p = LassoProblem(x0=[1.0, 0.0], covariances=np.stack([np.eye(2), 2 * np.eye(2)]),
                        sigma_v=[0.5, 0.25], kappa=0.3)
        x = np.array([0.5, -1.0])
        assert p.total_cost(x) == pytest.approx(p.risk(0, x) + p.risk(1, x))


class TestLassoSubgradient:
    def test_at_truth_all_nonzero(self):
        x0 = np.array([1.0, -2.0, 0.5])
        p = LassoProblem(x0=x0, covariances=np.stack([np.eye(3)]),
                        sigma_v=[0.0], kappa=0.4)
        d = p.subgradient(0, x0)
        assert np.allclose(d, 0.4 * np.sign(x0))
        assert np.linalg.norm(d) == pytest.approx(0.4 * np.sqrt(3))

    def test_minimum_norm_selection_at_zero(self):
        x0 = np.array([1.0, -2.0])
        p = LassoProblem(x0=x0, covariances=np.stack([np.eye(2)]),
                        sigma_v=[0.0], kappa=0.9)
        assert np.allclose(p.subgradient(0, np.zeros(2)), -x0)

    def test_direct_formula_example(self):
        p = LassoProblem(x0=[1.0, 0.0], covariances=np.stack([np.diag([2.0, 1.0])]),
                        sigma_v=[0.0], kappa=0.5)
        d = p.subgradient(0, np.array([2.0, -1.0]))
        # oracle: (2*(2-1) + 0.5, 1*(-1-0) - 0.5)
        assert np.allclose(d, [2.5, -1.5])

    def test_subgradient_inequality_randomized(self):
        rng = np.random.default_rng(10)
        p = LassoProblem(x0=[1.0, -0.5, 0.0],
                        covariances=np.stack([np.eye(3), np.diag([2.0, 1.0, 0.5])]),
                        sigma_v=[0.2, 0.4], kappa=0.7)
        for _ in range(10_000):
            i = int(rng.integers(2))
            x_bar = rng.normal(size=3) * 3.0
            x = rng.normal(size=3) * 3.0
            lhs = p.risk(i, x_bar) + p.subgradient(i, x_bar) @ (x - x_bar)
            assert lhs <= p.risk(i, x) + 1e-9

    def test_linear_growth_bound(self):
        rng = np.random.default_rng(11)
        p = LassoProblem(x0=[2.0, -1.0], covariances=np.stack([np.diag([3.0, 0.5])]),
                        sigma_v=[0.1], kappa=0.6)
        sig, cd = p.sigma_d[0], p.c_d[0]
        for _ in range(10_000):
            x = rng.normal(size=2) * rng.uniform(0.0, 1000.0)
            assert np.linalg.norm(p.subgradient(0, x)) <= sig * np.linalg.norm(x) + cd + 1e-9

    def test_smooth_part_matches_central_differences(self):
        rng = np.random.default_rng(12)
        cov = np.array([[2.0, 0.3, 0.0], [0.3, 1.0, 0.1], [0.0, 0.1, 0.5]])
        p = LassoProblem(x0=[1.0, -0.5, 0.25], covariances=np.stack([cov]),
                        sigma_v=[0.0], kappa=0.8)
        smooth = lambda x: 0.5 * (x - p.x0) @ cov @ (x - p.x0)
        for _ in range(20):
            x = rng.normal(size=3) * 2.0
            x[np.abs(x) < 0.1] = 0.35  # stay away from kinks
            grad = p.subgradient(0, x) - p.kappa * np.sign(x)
            fd = central_difference(smooth, x)
            assert np.linalg.norm(grad - fd) <= 1e-6 * (1.0 + np.linalg.norm(x))


class TestNoisySubgradient:
    def test_degenerate_distributions_give_zero_noise(self):
        p = LassoProblem(x0=[1.0, -1.0], covariances=np.zeros((1, 2, 2)),
                        sigma_v=[0.0], kappa=0.2)
        rng = np.random.default_rng(0)
        for _ in range(10):
            d_tilde, zeta = p.noisy_subgradient(0, rng.normal(size=2), rng)
            assert np.all(zeta == 0.0)

    def test_mean_at_truth_within_mc_band(self):
        cov = np.diag([1.0, 2.0])
        p = LassoProblem(x0=[1.0, -2.0], covariances=np.stack([cov]),
                        sigma_v=[0.5], kappa=0.3)
        rng = np.random.default_rng(77)
        draws = 100_000
        zetas = node_zeta_samples(p, 0, p.x0, rng, draws)
        band = 3.0 * 0.5 * np.sqrt(np.trace(cov)) / np.sqrt(draws)
        assert np.linalg.norm(zetas.mean(axis=0)) <= band

    def test_scalar_second_moment_is_three(self):
        p = scalar_lasso(x0=0.0, sigma_v=1.0, kappa=0.0)
        rng = np.random.default_rng(99)
        draws = 1_000_000
        zetas = node_zeta_samples(p, 0, np.array([1.0]), rng, draws)
        # Gaussian fourth-moment identity: E(u^2-1)^2 + E u^2 v^2 = 2 + 1
        assert float((zetas ** 2).mean()) == pytest.approx(3.0, rel=0.05)

    def test_conditional_mean_componentwise_four_sigma(self):
        cov = np.array([[1.5, 0.4], [0.4, 0.8]])
        p = LassoProblem(x0=[0.5, -0.25], covariances=np.stack([cov]),
                        sigma_v=[0.3], kappa=0.1)
        rng = np.random.default_rng(123)
        x = np.array([2.0, 1.0])
        draws = 100_000
        zetas = node_zeta_samples(p, 0, x, rng, draws)
        stderr = zetas.std(axis=0, ddof=1) / np.sqrt(draws)
        assert np.all(np.abs(zetas.mean(axis=0)) <= 4.0 * stderr)

    def test_second_moment_bound_from_growth_constants(self):
        cov = np.diag([1.0, 0.5])
        p = LassoProblem(x0=[1.0, 1.0], covariances=np.stack([cov, cov]),
                        sigma_v=[0.5, 0.2], kappa=0.0)
        rng = np.random.default_rng(5)
        states = rng.normal(size=(2, 2)) * 3.0
        draws = 200_000
        total = 0.0
        for i in range(2):
            zetas = node_zeta_samples(p, i, states[i], rng, draws)
            total += float((zetas ** 2).sum(axis=1).mean())
        bound = p.sigma_zeta * float((states ** 2).sum()) + p.c_zeta
        assert total <= bound

    def test_non_psd_covariance_rejected(self):
        with pytest.raises(FactorizationError):
            LassoProblem(x0=[0.0, 0.0], covariances=np.stack([np.diag([1.0, -0.5])]),
                        sigma_v=[0.0], kappa=0.0)

    def test_single_draw_matches_batched_construction(self):
        cov = np.array([[1.2, 0.2], [0.2, 0.9]])
        p = LassoProblem(x0=[0.3, -0.6], covariances=np.stack([cov]),
                        sigma_v=[0.4], kappa=0.2)
        x = np.array([1.0, 2.0])
        d_tilde, zeta = p.noisy_subgradient(0, x, np.random.default_rng(7))
        rng = np.random.default_rng(7)
        z = rng.standard_normal(2)
        v = rng.standard_normal()
        again = p.zeta_from_draws(x[None, :], z[None, :], np.array([v]))
        assert np.allclose(d_tilde - p.subgradient(0, x), zeta)
        assert np.allclose(zeta, again[0], atol=1e-12)


class TestQuadraticObjective:
    def test_two_point_midpoint(self):
        obj = QuadraticObjective(np.asarray([[0.0, 0.0], [2.0, 0.0]]))
        x_star, f_star = global_optimum(obj)
        assert np.allclose(x_star, [1.0, 0.0])
        assert f_star == pytest.approx(1.0)

    def test_single_node(self):
        obj = QuadraticObjective(np.asarray([[3.0, -1.0]]))
        x_star, f_star = global_optimum(obj)
        assert np.allclose(x_star, [3.0, -1.0])
        assert f_star == 0.0

    def test_three_point_centroid(self):
        obj = QuadraticObjective(np.asarray([[1.0, 1.0], [3.0, 1.0], [2.0, 4.0]]))
        x_star, f_star = global_optimum(obj)
        assert np.allclose(x_star, [2.0, 2.0])
        # direct-evaluation oracle: 0.5 * (2 + 2 + 4)
        direct = 0.5 * sum(np.sum((x_star - t) ** 2) for t in obj.targets)
        assert f_star == pytest.approx(direct) == pytest.approx(4.0)

    def test_growth_constants(self):
        obj = QuadraticObjective(np.asarray([[0.0, 3.0], [4.0, 0.0]]))
        assert np.array_equal(obj.sigma_d, [1.0, 1.0])
        assert np.allclose(obj.c_d, [3.0, 4.0])

    def test_subgradient_inequality_randomized(self):
        rng = np.random.default_rng(21)
        obj = QuadraticObjective(rng.normal(size=(4, 3)))
        for _ in range(10_000):
            i = int(rng.integers(4))
            x_bar, x = rng.normal(size=3) * 5, rng.normal(size=3) * 5
            lhs = obj.cost(i, x_bar) + obj.subgradient(i, x_bar) @ (x - x_bar)
            assert lhs <= obj.cost(i, x) + 1e-9

    def test_stacked_gradient_bound(self):
        # ||d||^2 <= 2 sigma_d^2 ||X||^2 + 2 N C_d^2 at stacked level
        rng = np.random.default_rng(22)
        obj = QuadraticObjective(rng.normal(size=(5, 2)) * 3)
        sd = float(np.max(obj.sigma_d)) ** 2
        cd = float(np.max(obj.c_d)) ** 2
        for _ in range(1000):
            states = rng.normal(size=(5, 2)) * rng.uniform(0, 100)
            d = obj.subgradient_stack(states)
            assert (d ** 2).sum() <= 2 * sd * (states ** 2).sum() + 2 * 5 * cd + 1e-9

    @pytest.mark.parametrize("lead", ((), (7,), (2, 3)))
    def test_workspace_gradients_equal_broadcast_ones(self, lead):
        rng = np.random.default_rng(23)
        obj = QuadraticObjective(rng.normal(size=(5, 2)))
        states = rng.normal(size=lead + (5, 2))
        ws, out = obj.workspace(lead), np.empty(states.shape)
        assert ws.targets.shape == states.shape
        assert obj.subgradient_stack(states, out=out, ws=ws) is out
        assert np.array_equal(out, obj.subgradient_stack(states))


class TestGlobalOptimumOracle:
    def test_scalar_soft_threshold_closed_form(self):
        p = scalar_lasso(x0=2.0, sigma_v=0.3, kappa=0.5)
        x_star, f_star = global_optimum(p)
        assert x_star[0] == pytest.approx(1.5, abs=1e-9)
        assert f_star == pytest.approx(0.5 * 0.25 + 0.5 * 1.5 + 0.5 * 0.09, abs=1e-9)

    def test_no_penalty_recovers_truth(self):
        p = LassoProblem(x0=[1.0, -2.0, 3.0], covariances=np.stack([np.eye(3)] * 2),
                        sigma_v=[0.0, 0.0], kappa=0.0)
        x_star, _ = global_optimum(p)
        assert np.allclose(x_star, [1.0, -2.0, 3.0], atol=1e-9)

    def test_identity_covariances_threshold_componentwise(self):
        x0 = np.array([1.0, -2.0, 0.0])
        p = LassoProblem(x0=x0, covariances=np.stack([np.eye(3)] * 4),
                        sigma_v=[0.5] * 4, kappa=0.3)
        x_star, f_star = global_optimum(p)
        expected = soft_threshold(x0, 0.3)
        assert np.allclose(x_star, expected, atol=1e-9)
        assert np.allclose(x_star, [0.7, -1.7, 0.0], atol=1e-9)
        assert f_star == pytest.approx(p.total_cost(expected), abs=1e-9)

    def test_anisotropic_case_against_fine_grid(self):
        cov = np.diag([2.0, 0.5])
        p = LassoProblem(x0=[1.0, -1.0], covariances=np.stack([cov]),
                        sigma_v=[0.0], kappa=0.4)
        x_star, f_star = global_optimum(p)
        # grid-search oracle around the optimum
        grid = np.linspace(-1.5, 1.5, 301)
        best = min((p.total_cost(np.array([a, b])), a, b) for a in grid for b in grid)
        assert abs(best[1] - x_star[0]) <= 0.01
        assert abs(best[2] - x_star[1]) <= 0.01
        assert f_star <= best[0] + 1e-9

    def test_budget_exhaustion_raises(self):
        p = scalar_lasso()
        with pytest.raises(NonConvergenceError):
            p.optimum(max_iter=0)

    def test_singular_summed_covariance_warns(self):
        p = LassoProblem(x0=[1.0, 0.0], covariances=np.stack([np.diag([1.0, 0.0])]),
                        sigma_v=[0.0], kappa=0.1)
        with pytest.warns(UserWarning, match="singular"):
            global_optimum(p)


class TestCustomObjective:
    def test_callback_family(self):
        obj = CustomObjective(
            cost_fns=(lambda x: float(np.abs(x).sum()),),
            subgradient_fns=(lambda x: np.sign(x),),
            dim=2, sigma_d_values=[0.0], c_d_values=[np.sqrt(2.0)])
        assert obj.cost(0, np.array([1.0, -2.0])) == 3.0
        assert np.array_equal(obj.subgradient(0, np.array([1.0, -2.0])), [1.0, -1.0])
        with pytest.raises(NonConvergenceError):
            obj.optimum()


class TestGrowthConstantsInvariant:
    def test_both_families_respect_linear_growth_at_large_norms(self):
        rng = np.random.default_rng(31)
        quad = QuadraticObjective(rng.normal(size=(3, 2)) * 4)
        lasso = LassoProblem(x0=[1.0, -2.0], covariances=np.stack([
            np.diag([2.0, 0.5]), np.eye(2), np.array([[1.0, 0.3], [0.3, 1.0]])]),
            sigma_v=[0.2, 0.1, 0.5], kappa=0.4)
        for obj in (quad, lasso):
            sig, cd = obj.sigma_d, obj.c_d
            for _ in range(10_000):
                i = int(rng.integers(obj.n_nodes))
                x = rng.normal(size=obj.dim)
                x *= rng.uniform(0.0, 1000.0) / max(np.linalg.norm(x), 1e-9)
                d = obj.subgradient(i, x)
                assert np.linalg.norm(d) <= sig[i] * np.linalg.norm(x) + cd[i] + 1e-9
