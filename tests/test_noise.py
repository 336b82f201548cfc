"""Channel-noise model: intensities, measurements, stacked factors."""

import numpy as np
import pytest

from oracles import (draw_channel_noise, draw_xi, kernel, measure_state, psi,
                     psi_matrix, stacked_noise_matrices)
from subgradnet import CommNoiseModel


def model(sigma=0.5, b=0.1, dim=2, cap=None):
    return CommNoiseModel(sigma=sigma, b=b, noise_dim=dim, cap=cap)


class TestPsi:
    def test_zero_relative_state_gives_additive_floor(self):
        assert psi(model(), np.zeros(2)) == pytest.approx(0.1)

    def test_purely_additive_when_sigma_zero(self):
        m = model(sigma=0.0, b=0.3)
        for delta in (np.zeros(2), np.array([5.0, -2.0]), np.array([1e6, 0.0])):
            assert psi(m, delta) == pytest.approx(0.3)

    def test_linear_form_direct_evaluation(self):
        # oracle: 0.5 * ||(3,4)|| + 0.1 = 0.5*5 + 0.1
        assert psi(model(), np.array([3.0, 4.0])) == pytest.approx(2.6)

    def test_growth_bound_holds_for_both_forms(self):
        rng = np.random.default_rng(1)
        capped = model(cap=0.8)
        plain = model()
        for _ in range(200):
            z = rng.normal(size=2) * rng.exponential()
            bound = 0.5 * np.linalg.norm(z) + 0.1
            assert abs(psi(plain, z)) <= bound + 1e-12
            assert abs(psi(capped, z)) <= min(bound, 0.8) + 1e-12

    def test_even_symmetry(self):
        rng = np.random.default_rng(2)
        m = model()
        for _ in range(100):
            z = rng.normal(size=2)
            assert psi(m, z) == psi(m, -z)

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ValueError):
            CommNoiseModel(sigma=-0.1, b=0.0, noise_dim=2)
        with pytest.raises(ValueError):
            CommNoiseModel(sigma=0.0, b=-1.0, noise_dim=2)
        with pytest.raises(ValueError):
            CommNoiseModel(sigma=0.0, b=0.0, noise_dim=0)


class TestMeasureState:
    def test_noiseless_model_returns_sender_state(self):
        m = model(sigma=0.0, b=0.0)
        rng = np.random.default_rng(0)
        x_j, x_i = np.array([1.0, 2.0]), np.array([-3.0, 0.5])
        assert np.array_equal(measure_state(m, x_j, x_i, rng), x_j)

    def test_multiplicative_noise_vanishes_at_consensus(self):
        m = model(sigma=0.7, b=0.0)
        rng = np.random.default_rng(0)
        x = np.array([2.0, -1.0])
        assert np.array_equal(measure_state(m, x, x.copy(), rng), x)

    def test_empirical_mean_within_clt_band(self):
        m = model()
        rng = np.random.default_rng(42)
        x_j, x_i = np.array([1.0, 2.0]), np.array([0.0, 0.0])
        draws = 100_000
        intensity = psi(m, x_j - x_i)
        samples = x_j + intensity * rng.standard_normal((draws, 2)) / np.sqrt(2.0)
        band = 4.0 * intensity * np.sqrt(2.0 / draws)
        assert np.linalg.norm(samples.mean(axis=0) - x_j) <= band


class TestStackedFactors:
    def test_zero_adjacency_gives_zero_factors(self):
        m = model()
        rng = np.random.default_rng(3)
        x = rng.normal(size=(3, 2))
        d_mat, psi_big, xi = stacked_noise_matrices(m, x, np.zeros((3, 3)), rng)
        assert np.all(d_mat == 0.0)
        assert np.all(xi == 0.0)

    def test_consensus_state_kills_psi_when_b_zero(self):
        m = model(sigma=0.5, b=0.0)
        rng = np.random.default_rng(4)
        x = np.tile(np.array([1.5, -2.0]), (4, 1))
        a = np.ones((4, 4)) - np.eye(4)
        _, psi_big, _ = stacked_noise_matrices(m, x, a, rng)
        assert np.all(psi_big == 0.0)

    def test_compact_product_matches_per_node_sums(self):
        rng = np.random.default_rng(5)
        m = model()
        n_nodes, dim = 4, 3
        mdl = CommNoiseModel(sigma=0.3, b=0.2, noise_dim=dim)
        x = rng.normal(size=(n_nodes, dim))
        a = rng.normal(size=(n_nodes, n_nodes)) * (rng.random((n_nodes, n_nodes)) < 0.7)
        np.fill_diagonal(a, 0.0)
        xi = draw_channel_noise(mdl, a, rng)
        d_mat, psi_big, xi_stacked = stacked_noise_matrices(mdl, x, a, rng, xi=xi)
        c_k = 0.37
        compact = c_k * d_mat @ (psi_big @ xi_stacked)
        per_node = np.zeros((n_nodes, dim))
        for i in range(n_nodes):
            for j in range(n_nodes):
                if a[i, j] != 0.0:
                    per_node[i] += a[i, j] * psi(mdl, x[j] - x[i]) * xi[j, i]
        per_node *= c_k
        assert np.max(np.abs(compact - per_node.reshape(-1))) < 1e-12

    def test_inactive_channels_hold_zero_noise(self):
        rng = np.random.default_rng(6)
        m = model()
        a = np.zeros((3, 3))
        a[0, 1] = 2.0  # only channel 2 -> 1 active
        xi = draw_channel_noise(m, a, rng)
        assert np.any(xi[1, 0] != 0.0)
        xi[1, 0] = 0.0
        assert np.all(xi == 0.0)

    def test_psi_bound_on_realized_matrices(self):
        # ||Psi||^2 <= 4 sigma^2 V + 2 b^2 on sampled states and graphs
        rng = np.random.default_rng(7)
        m = model(sigma=0.4, b=0.15, dim=2)
        for _ in range(50):
            x = rng.normal(size=(5, 2)) * rng.exponential()
            v = float(((x - x.mean(axis=0)) ** 2).sum())
            psi_all = psi_matrix(m, x)
            assert psi_all.max() ** 2 <= 4 * m.sigma ** 2 * v + 2 * m.b ** 2 + 1e-9


class TestMartingaleProperty:
    def test_stacked_noise_mean_within_four_standard_errors(self):
        rng = np.random.default_rng(2024)
        n_nodes, dim = 4, 2
        m = CommNoiseModel(sigma=0.3, b=0.2, noise_dim=dim)
        x = rng.normal(size=(n_nodes, dim)) * 2.0
        a = rng.normal(size=(n_nodes, n_nodes)) * (rng.random((n_nodes, n_nodes)) < 0.8)
        np.fill_diagonal(a, 0.0)
        psi_all = psi_matrix(m, x)
        draws = 100_000
        # c * sum_j a_ij psi_ji xi_ji, vectorized over draws
        c_k = 0.21
        coeff = (a * psi_all.T)[None, :, :, None]  # [draw, i, j, 1]
        xi = rng.standard_normal((draws, n_nodes, n_nodes, dim)) / np.sqrt(dim)
        xi_t = np.swapaxes(xi, 1, 2)
        samples = c_k * (coeff * xi_t).sum(axis=2).reshape(draws, -1)
        mean = samples.mean(axis=0)
        stderr = samples.std(axis=0, ddof=1) / np.sqrt(draws)
        assert np.all(np.abs(mean) <= 4.0 * np.maximum(stderr, 1e-12))

    def test_channel_noise_unit_second_moment(self):
        m = CommNoiseModel(sigma=0.0, b=1.0, noise_dim=3)
        rng = np.random.default_rng(11)
        draws = np.stack([draw_xi(m, rng) for _ in range(200_00)])
        assert (draws ** 2).sum(axis=1).mean() == pytest.approx(1.0, rel=0.05)


class TestPerReceiverLaw:
    """The kernel's noise sum ||w_i|| z_i against the per-channel sum
    sum_j w_ij xi_ji, w = a * psi: both are N(0, sum_j w_ij^2 I/dim) per
    receiver and independent across receivers, checked from the closed forms
    at 4 standard errors over M draws."""

    M = 100_000

    def _setup(self):
        dim = 2
        # psi(x_j - x_i) = 0.5 ||x_j - x_i|| + 0.1, capped at 2 on three of
        # the six pairs; receiver 2 has no in-neighbours.
        m = model(sigma=0.5, b=0.1, dim=dim, cap=2.0)
        x = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 3.0], [4.0, 4.0]])
        a = np.array([[0.0, 0.5, 0.3, 0.0],
                      [0.4, 0.0, 0.0, 0.7],
                      [0.0, 0.0, 0.0, 0.0],
                      [0.2, -0.3, 0.6, 0.0]])
        psi_all = psi_matrix(m, x)
        assert 0 < np.sum(psi_all == 2.0) < psi_all.size - 4
        return m, x, a, a * psi_all.T, dim

    def _check_law(self, noise, w, dim):
        var = (w * w).sum(axis=1) / dim  # per receiver, per coordinate
        flat = noise.reshape(self.M, -1)
        sd = np.sqrt(np.repeat(var, dim))
        live = np.flatnonzero(sd > 0.0)
        assert np.all(flat[:, sd == 0.0] == 0.0)
        second = (flat[:, live] ** 2).mean(axis=0)
        assert np.all(np.abs(second - sd[live] ** 2)
                      <= 4.0 * sd[live] ** 2 * np.sqrt(2.0 / self.M))
        for p, q in ((p, q) for p in live for q in live if p < q):
            cross = float((flat[:, p] * flat[:, q]).mean())
            assert abs(cross) <= 4.0 * sd[p] * sd[q] / np.sqrt(self.M), (p, q)

    def test_per_channel_sum_has_the_closed_form_law(self):
        m, x, a, w, dim = self._setup()
        rng = np.random.default_rng(31)
        xi = rng.standard_normal((self.M, 4, 4, dim)) / np.sqrt(dim)  # [.., j, i]
        self._check_law(np.einsum("ij,mjid->mid", w, xi), w, dim)

    def test_kernel_noise_sum_has_the_closed_form_law(self):
        m, x, a, w, dim = self._setup()
        rng = np.random.default_rng(32)
        z = rng.standard_normal((self.M, 4, dim)) / np.sqrt(dim)
        d = np.zeros((4, dim))
        _, noise, _ = kernel(x, a, a.sum(axis=1)[:, None], 0.1, 0.3, m, z, d)
        self._check_law(noise, w, dim)
