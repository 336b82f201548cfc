"""Graph sampling, Laplacian algebra, and connectivity diagnostics."""

import numpy as np
import pytest

from oracles import (advance_from, char_poly_eigenvalues_3x3, connectivity_report_loop,
                     draw_initial, jacobi_eigenvalues, markov_walk_searchsorted,
                     philox_block_draws_loop, reaches_all_brute, sample_block_per_key)
from subgradnet import (DeterministicCycle, IndependentEdges, MarkovSwitching,
                        NonSymmetricError, NoStationaryDistributionError,
                        is_balanced, joint_connectivity_report, lambda2,
                        laplacian, mean_graph_spanning_check,
                        symmetrized_laplacian, validate_adjacency)
from subgradnet.graphs import CHUNK, _counter_uniforms, _stream_key

K3 = np.ones((3, 3)) - np.eye(3)


def cycle3():
    a = np.zeros((3, 3))
    a[1, 0] = a[2, 1] = a[0, 2] = 1.0  # edges 1->2, 2->3, 3->1
    return a


def edge(n, j, i, w=1.0):
    a = np.zeros((n, n))
    a[i, j] = w
    return a


class TestAdjacencyValidation:
    def test_rejects_nonzero_diagonal(self):
        with pytest.raises(ValueError, match="diagonal"):
            validate_adjacency(np.eye(3))

    def test_rejects_single_node(self):
        with pytest.raises(ValueError):
            validate_adjacency(np.zeros((1, 1)))

    def test_rejects_non_square(self):
        with pytest.raises(ValueError, match="square"):
            validate_adjacency(np.zeros((2, 3)))

    def test_accepts_negative_weights(self):
        a = np.array([[0.0, -1.5], [2.0, 0.0]])
        assert np.array_equal(validate_adjacency(a), a)


class TestLaplacian:
    def test_complete_three_nodes_unit_weights(self):
        expected = np.array([[2.0, -1, -1], [-1, 2, -1], [-1, -1, 2]])
        assert np.array_equal(laplacian(K3), expected)

    def test_zero_matrix(self):
        assert np.array_equal(laplacian(np.zeros((4, 4))), np.zeros((4, 4)))

    def test_row_sums_vanish_with_negative_weights(self):
        rng = np.random.default_rng(7)
        a = rng.normal(size=(4, 4))
        np.fill_diagonal(a, 0.0)
        lap = laplacian(a)
        # independent summation oracle: accumulate each row by plain sum
        for i in range(4):
            assert abs(sum(lap[i, j] for j in range(4))) <= 1e-12
        assert np.max(np.abs(lap @ np.ones(4))) <= 1e-12

    def test_annihilates_ones_on_many_samples(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            n = int(rng.integers(2, 9))
            a = rng.normal(size=(n, n)) * (rng.random((n, n)) < 0.6)
            np.fill_diagonal(a, 0.0)
            assert np.max(np.abs(laplacian(a) @ np.ones(n))) <= 1e-12


class TestSymmetrizedLaplacian:
    def test_identity_on_symmetric(self):
        lap = laplacian(K3)
        assert np.array_equal(symmetrized_laplacian(lap), lap)

    def test_two_by_two_example(self):
        lap = np.array([[1.0, -1.0], [0.0, 0.0]])
        expected = np.array([[1.0, -0.5], [-0.5, 0.0]])
        assert np.array_equal(symmetrized_laplacian(lap), expected)

    def test_exactly_symmetric_and_idempotent_and_linear(self):
        rng = np.random.default_rng(3)
        for _ in range(25):
            lap = rng.normal(size=(5, 5))
            sym = symmetrized_laplacian(lap)
            assert np.array_equal(sym, sym.T)
            assert np.array_equal(symmetrized_laplacian(sym), sym)
            other = rng.normal(size=(5, 5))
            lhs = symmetrized_laplacian(2.5 * lap - other)
            rhs = 2.5 * sym - symmetrized_laplacian(other)
            assert np.max(np.abs(lhs - rhs)) < 1e-12


class TestLambda2:
    def test_complete_k3_against_jacobi_oracle(self):
        lap = laplacian(K3)
        expected = jacobi_eigenvalues(lap)[1]
        assert abs(lambda2(lap) - 3.0) <= 1e-9
        assert abs(lambda2(lap) - expected) <= 1e-9

    def test_zero_matrix(self):
        assert lambda2(np.zeros((3, 3))) == 0.0

    def test_path_graph_against_cubic_oracle(self):
        path = np.array([[0.0, 1, 0], [1, 0, 1], [0, 1, 0]])
        lap = laplacian(path)
        roots = char_poly_eigenvalues_3x3(lap)
        assert np.max(np.abs(roots - np.array([0.0, 1.0, 3.0]))) < 1e-9
        assert abs(lambda2(lap) - 1.0) <= 1e-9

    def test_rejects_asymmetric_input(self):
        with pytest.raises(NonSymmetricError):
            lambda2(np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_nonnegative_for_balanced_nonnegative_weights(self):
        # Positive semidefiniteness of the symmetrized Laplacian needs balance;
        # symmetric weights give it, and so does the directed cycle.
        rng = np.random.default_rng(5)
        for _ in range(30):
            n = int(rng.integers(2, 8))
            a = rng.random((n, n)) * (rng.random((n, n)) < 0.5)
            a = a + a.T
            np.fill_diagonal(a, 0.0)
            sym = symmetrized_laplacian(laplacian(a))
            assert lambda2(sym) >= -1e-9
        assert lambda2(symmetrized_laplacian(laplacian(cycle3()))) >= -1e-9


class TestIsBalanced:
    def test_symmetric_is_balanced(self):
        assert is_balanced(K3)

    def test_directed_cycle_is_balanced(self):
        assert is_balanced(cycle3())

    def test_single_edge_is_not(self):
        assert not is_balanced(edge(2, 0, 1))

    def test_invariants_under_transpose_pair_and_scaling(self):
        rng = np.random.default_rng(9)
        for _ in range(20):
            a = rng.normal(size=(4, 4))
            np.fill_diagonal(a, 0.0)
            verdict = is_balanced(a)
            assert is_balanced(a.T.T) == verdict
            assert is_balanced(3.7 * a, tol=3.7 * 1e-9) == verdict


class TestSampleSequence:
    def test_deterministic_cycles(self):
        a, b = edge(2, 0, 1), edge(2, 1, 0)
        proc = DeterministicCycle([a, b])
        mats, _ = proc.sample_block(0, 0, 3)
        assert np.array_equal(mats[0], a)
        assert np.array_equal(mats[1], b)
        assert np.array_equal(mats[2], a)

    def test_independent_zero_probability(self):
        proc = IndependentEdges(base=K3, prob=0.0)
        mats, _ = proc.sample_block(42, 0, 5)
        assert np.all(mats == 0.0)

    @pytest.mark.parametrize("perturb", [0.0, 0.5])
    def test_a_channel_fires_when_its_uniform_is_below_its_probability(self, perturb):
        # The uniforms are multiples of 2**-53 in [0, 1), so u < p fires with
        # probability p, to the grid, from p = 0 (never) to p = 1 (always).  A
        # channel whose uniform equals its probability stays inactive, and one
        # ulp more fires it.
        key = _stream_key(np.random.SeedSequence(5))
        u = _counter_uniforms(key, 7, 1, (3, 3))[0, 0]
        for prob, active in ((u, False), (np.nextafter(u, 2.0), True)):
            proc = IndependentEdges(base=K3, prob=prob, perturb=perturb)
            got, _ = proc.sample_block(key, 7, 1)
            assert np.array_equal(got[0] != 0.0, active & (K3 != 0.0))

    def test_markov_absorbing_identity_chain(self):
        a, b = edge(2, 0, 1), edge(2, 1, 0)
        proc = MarkovSwitching([a, b], np.eye(2), initial=[1.0, 0.0])
        mats, state = proc.sample_block(1, 0, 4)
        assert state == 0
        for m in mats:
            assert np.array_equal(m, a)

    def test_independent_random_access_matches_long_run(self):
        proc = IndependentEdges(base=K3, prob=0.5, perturb=0.3)
        ss = np.random.SeedSequence(123)
        full, _ = proc.sample_block(ss, 0, 2100)
        part, _ = proc.sample_block(ss, 1030, 40)
        assert np.array_equal(full[1030:1070], part)

    def test_markov_block_continuation_matches_full_path(self):
        proc = MarkovSwitching([edge(2, 0, 1), edge(2, 1, 0)],
                               [[0.3, 0.7], [0.6, 0.4]])
        ss = np.random.SeedSequence(99)
        full, _ = proc.sample_block(ss, 0, 300)
        first, state = proc.sample_block(ss, 0, 120)
        rest, _ = proc.sample_block(ss, 120, 180, state=state)
        assert np.array_equal(np.concatenate([first, rest]), full)

    def test_samples_differ_across_streams(self):
        proc = IndependentEdges(base=K3, prob=0.5)
        m1, _ = proc.sample_block(1, 0, 50)
        m2, _ = proc.sample_block(2, 0, 50)
        assert not np.array_equal(m1, m2)

    @pytest.mark.parametrize("k_start", [0, 1, 1023, 1024, 2049])
    def test_zero_steps_give_an_empty_block_and_keep_the_state(self, k_start):
        markov = MarkovSwitching([K3, cycle3()], [[0.3, 0.7], [0.6, 0.4]])
        independent = IndependentEdges(base=K3, prob=0.5, perturb=0.3)
        procs = [DeterministicCycle([K3, cycle3()]), independent, markov]
        ss = np.random.SeedSequence(5)
        states = [None] + ([1] if k_start >= 1 else [])
        for proc in procs:
            for state in states:
                mats, after = proc.sample_block(ss, k_start, 0, state=state)
                assert mats.shape == (0, 3, 3)
                # A cycle is a Markov chain: it hands back the state it was given.
                assert after == (None if proc is independent else state)
        for state in states:
            path = markov.sample_state_path(ss, 0, k_start=k_start, state=state)
            assert path.shape == (0,) and path.dtype == np.int64


class TestMarkovStationary:
    def test_uniform_chain_visit_frequencies_match_pi(self):
        states = [edge(3, 0, 1), edge(3, 1, 2), edge(3, 2, 0)]
        proc = MarkovSwitching(states, np.full((3, 3), 1.0 / 3.0))
        pi = proc.stationary_distribution()
        assert np.max(np.abs(pi - 1.0 / 3.0)) < 1e-10
        path = proc.sample_state_path(np.random.SeedSequence(2024), 100_000)
        freqs = np.bincount(path, minlength=3) / path.size
        assert np.max(np.abs(freqs - pi)) < 0.02

    def test_reducible_chain_raises(self):
        proc = MarkovSwitching([edge(2, 0, 1), edge(2, 1, 0)], np.eye(2))
        with pytest.raises(NoStationaryDistributionError):
            proc.stationary_distribution()

    def test_two_state_asymmetric_chain(self):
        proc = MarkovSwitching([edge(2, 0, 1), edge(2, 1, 0)],
                               [[0.9, 0.1], [0.3, 0.7]])
        pi = proc.stationary_distribution()
        assert np.allclose(pi, [0.75, 0.25], atol=1e-10)


class TestMarkovChainWalk:
    """The tabulated chain walk reproduces the searchsorted-per-step path."""

    def _proc(self):
        states = [edge(3, 0, 1), edge(3, 1, 2), edge(3, 2, 0), K3]
        trans = np.random.default_rng(5).random((4, 4)) + 0.05
        return MarkovSwitching(states, trans / trans.sum(axis=1, keepdims=True),
                               initial=[0.1, 0.2, 0.3, 0.4])

    def test_replayed_path_matches_searchsorted_loop(self):
        proc = self._proc()
        ss = np.random.SeedSequence(31)
        u = _counter_uniforms(_stream_key(ss), 0, 5000, (1,)).ravel()
        s0 = int(np.searchsorted(proc._cum_rows[-1], u[0], side="right"))
        expected = np.concatenate([[s0], markov_walk_searchsorted(proc._cum_rows, s0, u[1:])])
        assert np.array_equal(proc.sample_state_path(ss, 5000), expected)
        for k_start, count in ((0, 1), (1, 7), (1023, 3), (1500, 2000)):
            got = proc.sample_state_path(ss, count, k_start=k_start)
            assert np.array_equal(got, expected[k_start:k_start + count])

    @pytest.mark.parametrize("k_start", [1, 700, 1023, 1024, 2049])
    def test_explicit_state_matches_searchsorted_loop(self, k_start):
        proc = self._proc()
        ss = np.random.SeedSequence(32)
        u = _counter_uniforms(_stream_key(ss), k_start, 900, (1,)).ravel()
        for state in range(4):
            got = proc.sample_state_path(ss, 900, k_start=k_start, state=state)
            assert np.array_equal(got, markov_walk_searchsorted(proc._cum_rows, state, u))

    def test_explicit_state_out_of_range_raises(self):
        # State m (= len(states)) is the replay path's start row, not a chain state.
        proc = self._proc()
        keys = np.stack([_stream_key(np.random.SeedSequence(i)) for i in range(3)])
        with pytest.raises(IndexError):
            proc.sample_state_path(np.random.SeedSequence(33), 5, k_start=1, state=4)
        with pytest.raises(IndexError):
            proc.sample_block(keys, 1, 5, state=np.array([0, 4, 1]))

    def test_advance_from_matches_searchsorted_loop(self):
        proc = self._proc()
        got = advance_from(proc, np.random.default_rng(9), 2, 3000)
        u = np.random.default_rng(9).random(3000)
        assert np.array_equal(got, markov_walk_searchsorted(proc._cum_rows, 2, u))
        assert advance_from(proc, np.random.default_rng(9), 2, 0).shape == (0,)


class TestStackedLaplacians:
    def test_stacks_equal_the_2d_calls_on_each_slice(self):
        rng = np.random.default_rng(5)
        stack = rng.normal(size=(3, 2, 6, 6))
        stack[..., np.arange(6), np.arange(6)] = 0.0
        laps = laplacian(stack)
        syms = symmetrized_laplacian(laps)
        for idx in np.ndindex(stack.shape[:2]):
            assert np.array_equal(laps[idx], laplacian(stack[idx]))
            assert np.array_equal(syms[idx], symmetrized_laplacian(laplacian(stack[idx])))

    def test_does_not_modify_its_input(self):
        a = cycle3()
        before = a.copy()
        laplacian(a)
        assert np.array_equal(a, before)


class TestCounterUniforms:
    """Counter-addressed draws equal the rows of whole generated blocks."""

    @pytest.mark.parametrize("slabs", [1, 2])
    @pytest.mark.parametrize("k_start,count", [
        (0, 1), (1, 5), (1023, 1), (1023, 3), (1025, 40), (0, CHUNK),
        (1, 2 * CHUNK + 7), (CHUNK - 2, CHUNK + 4)])
    @pytest.mark.parametrize("size", [1, 9])
    def test_matches_full_block_loop(self, slabs, k_start, count, size):
        key = _stream_key(np.random.SeedSequence(2718))
        got = _counter_uniforms(key, k_start, count, (size,), slabs=slabs)
        expected = philox_block_draws_loop(key, k_start, count, size, slabs=slabs)
        assert np.array_equal(got, expected)

    @pytest.mark.parametrize("slabs", [1, 2])
    @pytest.mark.parametrize("k_start,count", [(0, 3), (CHUNK - 2, 5), (1, 2 * CHUNK + 7)])
    @pytest.mark.parametrize("lead", [(1,), (4,), (2, 3)])
    def test_stacked_keys_match_each_key_alone(self, slabs, k_start, count, lead):
        keys = np.stack([_stream_key(c) for c in
                         np.random.SeedSequence(99).spawn(int(np.prod(lead)))])
        keys = keys.reshape(lead + (2,))
        got = _counter_uniforms(keys, k_start, count, (4,), slabs=slabs)
        assert got.shape == (slabs, *lead, count, 4)
        for idx in np.ndindex(lead):
            expected = philox_block_draws_loop(keys[idx], k_start, count, 4, slabs=slabs)
            assert np.array_equal(got[(slice(None),) + idx], expected)

    @pytest.mark.parametrize("perturb", [0.0, 0.5])
    def test_independent_block_of_stacked_keys(self, perturb):
        proc = IndependentEdges(base=K3, prob=0.6, perturb=perturb)
        keys = np.stack([_stream_key(c) for c in np.random.SeedSequence(4).spawn(5)])
        got, _ = proc.sample_block(keys, CHUNK - 1, 3)
        assert got.shape == (5, 3, 3, 3)
        for j, key in enumerate(keys):
            assert np.array_equal(got[j], proc.sample_block(key, CHUNK - 1, 3)[0])


class TestSignedWeights:
    """A negative base, a -0.0 entry and perturbations keep the selection's
    bits: inactive channels +0.0, active ones their weight's sign."""

    BASE = np.array([[0.0, -0.0, 0.7], [-1.2, 0.0, 0.4], [0.3, -0.5, 0.0]])

    @pytest.mark.parametrize("perturb", [0.0, 0.9])
    def test_stacked_block_equals_per_key_draws(self, perturb):
        proc = IndependentEdges(base=self.BASE, prob=0.5, perturb=perturb)
        keys = np.stack([_stream_key(c) for c in np.random.SeedSequence(8).spawn(3)])
        buf = np.full((3, 40, 3, 3), np.nan)
        got, _ = proc.sample_block(keys, CHUNK - 20, 37, out=buf[:, 2:39])
        assert got.base is buf
        want = np.stack([sample_block_per_key(proc, key, CHUNK - 20, 37)[0] for key in keys])
        assert got.tobytes() == want.tobytes()
        if perturb == 0.0:
            # The -0.0 channel reads -0.0 when active and +0.0 when not.
            signs = np.signbit(got[..., 0, 1])
            assert signs.any() and not signs.all()


class _FixedUniforms:
    """Stands in for a generator and hands out the given uniforms in order."""

    def __init__(self, values):
        self.values = list(values)

    def random(self, size=None):
        if size is None:
            return self.values.pop(0)
        out, self.values = np.array(self.values[:size]), self.values[size:]
        return out


class TestMarkovRowShortfall:
    """Rows may sum to 1 only within tolerance; a uniform past a row's total
    still selects a state the row can reach."""

    U = 0.9999999999

    def test_uniform_past_row_total_picks_last_state(self):
        proc = MarkovSwitching([edge(2, 0, 1), edge(2, 1, 0)],
                               [[0.5, 0.5 - 4e-10], [0.5, 0.5]])
        path = advance_from(proc, _FixedUniforms([self.U, self.U]), 0, 2)
        assert path.tolist() == [1, 1]
        assert proc.states[path].shape == (2, 2, 2)

    def test_trailing_zero_probability_state_is_never_selected(self):
        proc = MarkovSwitching([edge(3, 0, 1), edge(3, 1, 2), edge(3, 2, 0)],
                               [[0.5, 0.5 - 4e-10, 0.0], [0.0, 1.0, 0.0],
                                [0.2, 0.3, 0.5]])
        assert advance_from(proc, _FixedUniforms([self.U]), 0, 1).tolist() == [1]
        assert advance_from(proc, _FixedUniforms([self.U]), 1, 1).tolist() == [1]
        assert advance_from(proc, _FixedUniforms([0.0]), 1, 1).tolist() == [1]

    def test_initial_distribution_shortfall(self):
        proc = MarkovSwitching([edge(3, 0, 1), edge(3, 1, 2), edge(3, 2, 0)],
                               np.full((3, 3), 1.0 / 3.0),
                               initial=[0.5, 0.5 - 4e-10, 0.0])
        assert draw_initial(proc, _FixedUniforms([self.U])) == 1
        assert draw_initial(proc, _FixedUniforms([0.25])) == 0


class TestJointConnectivityReport:
    def test_complete_graph_every_window_is_three(self):
        proc = DeterministicCycle([K3])
        stats = joint_connectivity_report(proc, h=1, windows=5, reps=3, stream=0)
        oracle = jacobi_eigenvalues(laplacian(K3))[1]
        for lam in stats.lambda2_per_window:
            assert abs(lam - oracle) <= 1e-9
        assert abs(stats.theta_hat - 3.0) <= 1e-9

    def test_alternating_edges_union_is_path_graph(self):
        e12 = edge(3, 0, 1) + edge(3, 1, 0)  # undirected 1-2
        e23 = edge(3, 1, 2) + edge(3, 2, 1)  # undirected 2-3
        proc = DeterministicCycle([e12, e23])
        stats = joint_connectivity_report(proc, h=2, windows=4, reps=2, stream=0)
        path_lap = laplacian(edge(3, 0, 1) + edge(3, 1, 0)
                             + edge(3, 1, 2) + edge(3, 2, 1))
        oracle = char_poly_eigenvalues_3x3(path_lap)[1]
        for lam in stats.lambda2_per_window:
            assert abs(lam - oracle) <= 1e-9
            assert abs(lam - 1.0) <= 1e-9

    def test_empty_independent_graph_has_zero_theta(self):
        proc = IndependentEdges(base=K3, prob=0.0)
        stats = joint_connectivity_report(proc, h=1, windows=3, reps=8, stream=1)
        assert stats.theta_hat == 0.0
        assert stats.rho0_hat == 0.0

    def test_single_balanced_graph_theta_equals_lambda2(self):
        a = cycle3() * 2.0
        proc = DeterministicCycle([a])
        stats = joint_connectivity_report(proc, h=1, windows=6, reps=5, stream=3)
        direct = lambda2(symmetrized_laplacian(laplacian(a)))
        assert stats.theta_hat == pytest.approx(direct, abs=1e-12)
        spread = max(stats.lambda2_per_window) - min(stats.lambda2_per_window)
        assert spread == 0.0

    def test_moment_estimates_positive_for_active_graph(self):
        proc = IndependentEdges(base=K3, prob=0.8)
        stats = joint_connectivity_report(proc, h=2, windows=4, reps=16, stream=5)
        assert stats.rho0_hat > 0.0
        assert stats.rho1_hat > 0.0
        assert stats.moment_estimate == pytest.approx(stats.rho0_hat ** (2 * max(2, 2)))


def _report_processes():
    rng = np.random.default_rng(17)
    base = rng.random((4, 4)) * (rng.random((4, 4)) < 0.8)
    np.fill_diagonal(base, 0.0)
    states = [edge(4, 0, 1) + edge(4, 2, 3), np.ones((4, 4)) - np.eye(4), 0.7 * base]
    return {
        "independent": IndependentEdges(base=base, prob=rng.random((4, 4))),
        "independent-perturbed": IndependentEdges(base=base, prob=0.6, perturb=0.9),
        "markov": MarkovSwitching(states, [[0.6, 0.3, 0.1], [0.2, 0.5, 0.3],
                                           [0.3, 0.3, 0.4]]),
        "cycle": DeterministicCycle(states),
        # Zero entries and lambda2 = 0: every zero's sign must match the loop's.
        "disconnected": DeterministicCycle([states[0]]),
        "empty": IndependentEdges(base=base, prob=0.0),
    }


class TestStackedReportMatchesLoop:
    """The stacked report equals the per-sample loop bit for bit; h = 3
    (moment order 6) catches a vectorised power of the norms."""

    @pytest.mark.parametrize("kind", ["independent", "independent-perturbed", "markov",
                                      "cycle", "disconnected", "empty"])
    @pytest.mark.parametrize("h", [1, 2, 3])
    @pytest.mark.parametrize("reps", [1, 9, 64])
    def test_equals_per_sample_loop(self, kind, h, reps):
        proc = _report_processes()[kind]
        # A SeedSequence counts its spawned children, so each call gets its own.
        stream = lambda: np.random.SeedSequence(entropy=31, spawn_key=(7,))  # noqa: E731
        got = joint_connectivity_report(proc, h=h, windows=5, reps=reps, stream=stream())
        want = connectivity_report_loop(proc, h=h, windows=5, reps=reps, stream=stream())
        assert got == want
        assert repr(got) == repr(want)


@pytest.mark.parametrize("kind", ["independent", "markov"])
def test_report_leaves_its_seed_sequence_unchanged(kind):
    proc = _report_processes()[kind]
    stream = np.random.SeedSequence(entropy=31, spawn_key=(7,))
    first = joint_connectivity_report(proc, h=2, windows=3, reps=5, stream=stream)
    second = joint_connectivity_report(proc, h=2, windows=3, reps=5, stream=stream)
    assert first == second
    assert stream.n_children_spawned == 0
    fresh = np.random.SeedSequence(entropy=31, spawn_key=(7,))
    assert first == connectivity_report_loop(proc, h=2, windows=3, reps=5, stream=fresh)


class TestMeanGraphSpanningCheck:
    def test_two_state_mutual_edges(self):
        proc = MarkovSwitching([edge(2, 0, 1), edge(2, 1, 0)],
                               [[0.5, 0.5], [0.5, 0.5]])
        assert mean_graph_spanning_check(proc)

    def test_single_zero_state_has_no_tree(self):
        proc = MarkovSwitching([np.zeros((2, 2))], [[1.0]])
        assert not mean_graph_spanning_check(proc)

    def test_cycle_split_across_states(self):
        states = [edge(3, 0, 1), edge(3, 1, 2), edge(3, 2, 0)]
        proc = MarkovSwitching(states, np.full((3, 3), 1.0 / 3.0))
        assert mean_graph_spanning_check(proc)
        assert reaches_all_brute(proc.mean_adjacency())

    def test_independent_uses_mean_matrix(self):
        directed_chain = edge(3, 0, 1) + edge(3, 1, 2)
        proc = IndependentEdges(base=directed_chain, prob=0.4)
        assert mean_graph_spanning_check(proc)
        assert mean_graph_spanning_check(proc) == reaches_all_brute(proc.mean_adjacency())

    def test_disconnected_independent_graph(self):
        base = edge(4, 0, 1) + edge(4, 1, 0)  # nodes 2, 3 isolated
        proc = IndependentEdges(base=base, prob=1.0)
        assert not mean_graph_spanning_check(proc)

    def test_cycle_whose_union_spans(self):
        # 0 -> 1 in one step and 1 -> 2 in the next: node 0 reaches every node.
        proc = DeterministicCycle([edge(3, 0, 1), edge(3, 1, 2)])
        assert mean_graph_spanning_check(proc)
        assert reaches_all_brute(proc.mean_adjacency())

    def test_cycle_whose_union_does_not_span(self):
        # Nodes 0 and 1 talk in both steps; nothing ever reaches node 2.
        proc = DeterministicCycle([edge(3, 0, 1), edge(3, 1, 0)])
        assert not mean_graph_spanning_check(proc)
        assert not reaches_all_brute(proc.mean_adjacency())


class TestProcessBookkeeping:
    def test_expected_active_channels(self):
        assert DeterministicCycle([K3]).expected_active_channels() == 6.0
        ind = IndependentEdges(base=K3, prob=0.8)
        assert ind.expected_active_channels() == pytest.approx(4.8)
        mk = MarkovSwitching([edge(2, 0, 1), edge(2, 1, 0) * 0.0 + edge(2, 1, 0)],
                             [[0.5, 0.5], [0.5, 0.5]])
        assert mk.expected_active_channels() == pytest.approx(1.0)

    def test_markov_conditional_mean(self):
        a, b = edge(2, 0, 1), edge(2, 1, 0)
        proc = MarkovSwitching([a, b], [[0.25, 0.75], [1.0, 0.0]])
        cond = proc.conditional_mean_adjacency(0)
        assert np.allclose(cond, 0.25 * a + 0.75 * b)


class TestMarkovConditionedReport:
    def test_windows_match_exact_conditional_means(self):
        # each window's estimate must track the conditional mean given the
        # realized chain state at the window start, not the stationary mean
        strong = K3 * 1.0
        weak = edge(3, 0, 1) + edge(3, 1, 0)
        proc = MarkovSwitching([strong, weak], [[0.9, 0.1], [0.1, 0.9]])
        windows, reps = 12, 256
        stats = joint_connectivity_report(proc, h=1, windows=windows, reps=reps,
                                          stream=11)
        # reconstruct the internal anchor path (first spawned child drives it)
        anchor_ss = np.random.SeedSequence(11).spawn(windows * reps + 1)[0]
        base_path = proc.sample_state_path(anchor_ss, windows)
        anchors = [None] + [int(s) for s in base_path[:-1]]
        exact = []
        for anchor in anchors:
            if anchor is None:
                mean = proc.initial @ proc.states.reshape(2, -1)
                mean = mean.reshape(3, 3)
            else:
                mean = proc.conditional_mean_adjacency(anchor)
            exact.append(lambda2(symmetrized_laplacian(laplacian(mean))))
        gaps = np.abs(np.array(stats.lambda2_per_window) - np.array(exact))
        assert np.max(gaps) < 0.35  # Monte Carlo tolerance at 256 reps
        # the two anchor classes must be clearly separated
        assert len({round(v, 1) for v in exact}) >= 2

    def test_report_deterministic_per_stream(self):
        states = [edge(3, 0, 1), edge(3, 1, 2), edge(3, 2, 0)]
        proc = MarkovSwitching(states, np.full((3, 3), 1.0 / 3.0))
        one = joint_connectivity_report(proc, h=2, windows=4, reps=16, stream=77)
        two = joint_connectivity_report(proc, h=2, windows=4, reps=16, stream=77)
        assert one.lambda2_per_window == two.lambda2_per_window
        assert one.rho0_hat == two.rho0_hat


class TestPerEdgeActivation:
    def test_matrix_probabilities_respected(self):
        base = K3.copy()
        prob = np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
        proc = IndependentEdges(base=base, prob=prob)
        mats, _ = proc.sample_block(5, 0, 400)
        # channels with probability one always fire, all others never do
        assert np.all(mats[:, 0, 1] == 1.0)
        assert np.all(mats[:, 1, 0] == 1.0)
        mats[:, 0, 1] = 0.0
        mats[:, 1, 0] = 0.0
        assert np.all(mats == 0.0)

    def test_mean_adjacency_uses_per_edge_probabilities(self):
        prob = np.array([[0.0, 0.25, 0.5], [0.25, 0.0, 0.75], [0.5, 0.75, 0.0]])
        proc = IndependentEdges(base=2.0 * K3, prob=prob)
        assert np.allclose(proc.mean_adjacency(), 2.0 * prob)
        assert proc.expected_active_channels() == pytest.approx(prob.sum())

    def test_perturbation_preserves_mean_and_can_go_negative(self):
        proc = IndependentEdges(base=0.5 * K3, prob=1.0, perturb=1.0)
        mats, _ = proc.sample_block(9, 0, 4000)
        offdiag = ~np.eye(3, dtype=bool)
        vals = mats[:, offdiag]
        assert vals.min() < 0.0  # half-width exceeds the base weight
        assert abs(vals.mean() - 0.5) < 0.02
        assert np.allclose(proc.mean_adjacency()[offdiag], 0.5)


class TestLambda2Tolerance:
    def test_small_asymmetry_is_symmetrized(self):
        lap = laplacian(K3).astype(float)
        lap[0, 1] += 5e-11
        assert abs(lambda2(lap, tol=1e-10) - 3.0) <= 1e-9
        with pytest.raises(NonSymmetricError):
            lambda2(lap, tol=1e-12)
