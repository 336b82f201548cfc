"""Property tests of the batched step kernel, the engine around it, the lasso
measurement, the counter-addressed graph draws and the connectivity report.

Criterion 8 compares 1-worker and 8-worker aggregates exactly, which holds
only if a replication's arithmetic is the same in every batch it lands in.
"""

from unittest import mock

import numpy as np
from hypothesis import given, settings, strategies as st

from oracles import (apply_step, connectivity_report_loop, draw_channel_noise, kernel,
                     lasso_measurement_loop, receiver_draws, sample_block_per_key,
                     step_per_node)
from subgradnet import (CommNoiseModel, DeterministicCycle, IndependentEdges,
                        InitialStates, LassoProblem, MarkovSwitching,
                        QuadraticObjective, StepSchedule, joint_connectivity_report)
from subgradnet import engine
from subgradnet.engine import _run_batch, default_record_ks
from subgradnet.graphs import _stream_key

PER_REP_KEYS = ("V", "opt_gap", "state_sq", "dist", "stack_dsq", "mean_state",
                "psi_violation", "d_violation", "recursion_max")


def _objective(kind, n_nodes, dim, rng):
    if kind == "quadratic":
        return QuadraticObjective(rng.normal(size=(n_nodes, dim)))
    covs = []
    for _ in range(n_nodes):
        m = rng.normal(size=(dim, dim))
        covs.append(m @ m.T / dim + 0.5 * np.eye(dim))
    return LassoProblem(x0=rng.normal(size=dim), covariances=np.stack(covs),
                        sigma_v=0.3, kappa=0.1)


def _process(kind, n_nodes, rng):
    # Perturbations wider than the base weights give negative realized weights.
    base = np.ones((n_nodes, n_nodes)) - np.eye(n_nodes)
    if kind == "independent":
        return IndependentEdges(base=0.4 * base, prob=0.7, perturb=0.6)
    if kind == "independent-unperturbed":
        return IndependentEdges(base=0.4 * base, prob=0.7)
    states = [rng.normal(scale=0.3, size=(n_nodes, n_nodes)) * base + 0.2 * base
              for _ in range(3)]
    if kind == "cycle":
        return DeterministicCycle(states)
    trans = rng.random((3, 3)) + 0.1
    return MarkovSwitching(states, trans / trans.sum(axis=1, keepdims=True))


@st.composite
def cases(draw):
    n_reps = draw(st.integers(1, 6))
    groups = draw(st.lists(st.integers(0, n_reps - 1), min_size=n_reps,
                           max_size=n_reps))
    return dict(
        n_reps=n_reps,
        batches=[[r for r in range(n_reps) if groups[r] == g]
                 for g in sorted(set(groups))],
        objective=draw(st.sampled_from(["quadratic", "lasso"])),
        process=draw(st.sampled_from(["independent", "markov"])),
        cap=draw(st.sampled_from([None, 0.3])),
        n_nodes=draw(st.integers(2, 5)),
        dim=draw(st.integers(1, 4)),
        horizon=draw(st.integers(1, 300)),
        seed=draw(st.integers(0, 2 ** 32 - 1)),
        # Step-buffer budget: batches of different sizes walk their chunks in
        # sub-spans of different lengths, from 1 step to a whole chunk.
        budget=draw(st.integers(0, 1 << 21)),
    )


@settings(max_examples=30, deadline=None)
@given(cases())
def test_per_rep_outputs_do_not_depend_on_batch_grouping(case):
    rng = np.random.default_rng(case["seed"])
    n_nodes, dim, horizon = case["n_nodes"], case["dim"], case["horizon"]
    objective = _objective(case["objective"], n_nodes, dim, rng)
    process = _process(case["process"], n_nodes, rng)
    model = CommNoiseModel(sigma=0.3, b=0.2, noise_dim=dim, cap=case["cap"])
    args = (objective, process, model, StepSchedule(), horizon, case["seed"])
    tail = (np.zeros(dim), 0.0, InitialStates.uniform(-2.0, 2.0),
            default_record_ks(horizon, dense_until=50, stride=25), 7)

    with mock.patch.object(engine, "_BUDGET_BYTES", case["budget"]):
        full = _run_batch(*args, list(range(case["n_reps"])), *tail)
        for batch in case["batches"]:
            part = _run_batch(*args, batch, *tail)
            for key in PER_REP_KEYS:
                assert np.array_equal(part[key], full[key][batch]), key


@settings(max_examples=4, deadline=None)
@given(cases(), st.integers(1025, 2100))
def test_batch_grouping_invariance_holds_across_chunk_edges(case, horizon):
    # Observation runs once per 1024-step chunk, so horizons past the first
    # chunk edge exercise it on more than one chunk.
    test_per_rep_outputs_do_not_depend_on_batch_grouping.hypothesis.inner_test(
        dict(case, horizon=horizon))


def _budget(span, reps, objective):
    """A byte budget that walks a batch of ``reps`` replications of
    ``objective`` in sub-spans of ``span`` steps."""
    shape = (reps, objective.n_nodes, objective.dim, objective.has_gradient_noise)
    budget = span * engine._step_bytes(*shape)
    with mock.patch.object(engine, "_BUDGET_BYTES", budget):
        assert engine._sub_span(*shape) == span
    return budget


@settings(max_examples=25, deadline=None)
@given(n_nodes=st.integers(2, 9), dim=st.integers(1, 4), reps=st.integers(2, 4),
       span=st.sampled_from([1, 7, 300]), objective=st.sampled_from(["quadratic", "lasso"]),
       process=st.sampled_from(["independent", "markov", "cycle"]),
       horizon=st.integers(1, 320), seed=st.integers(0, 2 ** 32 - 1))
def test_each_replication_of_a_batch_equals_its_run_alone(n_nodes, dim, reps, span, objective,
                                                          process, horizon, seed):
    # The batch walks its steps in forced sub-spans of its step-major buffers;
    # each replication alone walks one step per sub-span, where no step or
    # replication of a buffer can stand in for another.
    rng = np.random.default_rng(seed)
    objective = _objective(objective, n_nodes, dim, rng)
    model = CommNoiseModel(sigma=0.3, b=0.2, noise_dim=dim)
    args = (objective, _process(process, n_nodes, rng), model, StepSchedule(), horizon, seed)
    tail = (np.zeros(dim), 0.0, InitialStates.uniform(-2.0, 2.0),
            default_record_ks(horizon, dense_until=50, stride=25), 13)
    with mock.patch.object(engine, "_BUDGET_BYTES", _budget(span, reps, objective)):
        batch = _run_batch(*args, list(range(reps)), *tail)
    with mock.patch.object(engine, "_BUDGET_BYTES", _budget(1, 1, objective)):
        for r in range(reps):
            alone = _run_batch(*args, [r], *tail)
            for key in PER_REP_KEYS:
                assert np.array_equal(batch[key][r], alone[key][0]), (r, key)


@st.composite
def step_cases(draw):
    return dict(
        n_nodes=draw(st.integers(2, 5)),
        dim=draw(st.integers(1, 4)),
        stack=draw(st.integers(1, 4)),
        cap=draw(st.sampled_from([None, 0.05, 0.5])),
        k=draw(st.integers(0, 10_000)),
        seed=draw(st.integers(0, 2 ** 32 - 1)),
    )


@settings(max_examples=60, deadline=None)
@given(step_cases())
def test_kernel_matches_per_node_oracle_and_is_stack_independent(case):
    rng = np.random.default_rng(case["seed"])
    n, dim, k = case["n_nodes"], case["dim"], case["k"]
    sched = StepSchedule()
    model = CommNoiseModel(sigma=float(rng.random()), b=float(rng.random()),
                           noise_dim=dim, cap=case["cap"])
    objective = QuadraticObjective(rng.normal(size=(n, dim)))
    xs, adjs, xis, singles = [], [], [], []
    for _ in range(case["stack"]):
        x = rng.normal(size=(n, dim)) * 3.0
        # Signed weights on a random support.
        a = rng.normal(size=(n, n)) * (rng.random((n, n)) < 0.7)
        np.fill_diagonal(a, 0.0)
        seed = int(rng.integers(2 ** 32))
        via_node = step_per_node(x, a, sched, model, objective,
                                 np.random.default_rng(seed), k)
        xi = draw_channel_noise(model, a, np.random.default_rng(seed))
        single = apply_step(x, a, sched.alpha(k), sched.c(k), model, xi,
                            objective.subgradient_stack(x))
        assert np.max(np.abs(single - via_node)) < 1e-12 * max(1.0, np.max(np.abs(via_node)))
        xs.append(x)
        adjs.append(a)
        xis.append(xi)
        singles.append(single)
    x, a = np.stack(xs), np.stack(adjs)
    stacked = apply_step(x, a, sched.alpha(k), sched.c(k), model, np.stack(xis),
                         objective.subgradient_stack(x))
    assert np.array_equal(stacked, np.stack(singles))


@settings(max_examples=60, deadline=None)
@given(n_nodes=st.integers(1, 6), dim=st.integers(1, 4),
       cap=st.sampled_from([None, 0.05, 0.5]),
       zero_rows=st.integers(0, 2 ** 6 - 1), seed=st.integers(0, 2 ** 32 - 1))
def test_kernel_on_mapped_receiver_draws_matches_per_node_oracle(n_nodes, dim, cap,
                                                                 zero_rows, seed):
    """Per-channel noises mapped to one draw per receiver give the per-node
    step on the same noises; receivers with no in-neighbours get zero."""
    rng = np.random.default_rng(seed)
    sched, k = StepSchedule(), int(rng.integers(0, 10_000))
    model = CommNoiseModel(sigma=float(rng.random()), b=float(rng.random()),
                           noise_dim=dim, cap=cap)
    objective = QuadraticObjective(rng.normal(size=(n_nodes, dim)))
    x = rng.normal(size=(n_nodes, dim)) * 3.0
    a = rng.normal(size=(n_nodes, n_nodes)) * (rng.random((n_nodes, n_nodes)) < 0.7)
    np.fill_diagonal(a, 0.0)
    a[[(zero_rows >> i) & 1 == 1 for i in range(n_nodes)]] = 0.0
    draw_seed = int(rng.integers(2 ** 32))
    via_node = step_per_node(x, a, sched, model, objective,
                             np.random.default_rng(draw_seed), k)
    xi = draw_channel_noise(model, a, np.random.default_rng(draw_seed))
    z = receiver_draws(model, x, a, xi)
    assert np.all(z[~a.any(axis=1)] == 0.0)
    got = kernel(x, a, a.sum(axis=1)[:, None], sched.alpha(k), sched.c(k), model, z,
                 objective.subgradient_stack(x))[0]
    assert np.max(np.abs(got - via_node)) < 1e-12 * max(1.0, np.max(np.abs(via_node)))


@settings(max_examples=40, deadline=None)
@given(kind=st.sampled_from(["cycle", "independent", "independent-unperturbed",
                             "markov"]),
       n_nodes=st.integers(2, 4), k0=st.integers(0, 2100),
       count=st.integers(1, 1100), seed=st.integers(0, 2 ** 32 - 1))
def test_sample_block_from_any_start_matches_replay_from_zero(kind, n_nodes, k0,
                                                              count, seed):
    process = _process(kind, n_nodes, np.random.default_rng(seed))
    stream = np.random.SeedSequence(seed)
    part, part_state = process.sample_block(stream, k0, count)
    full, full_state = process.sample_block(stream, 0, k0 + count)
    assert np.array_equal(part, full[k0:])
    assert part_state == full_state


@settings(max_examples=60, deadline=None)
@given(kind=st.sampled_from(["cycle", "independent", "independent-unperturbed",
                             "markov"]),
       n_nodes=st.integers(2, 4), reps=st.sampled_from([1, 3, 20]),
       # Starts a little before the first 1024-step block edge.
       k0=st.integers(1000, 1030),
       count=st.one_of(st.just(0), st.just(1), st.integers(2, 40)),
       with_state=st.booleans(), with_out=st.booleans(),
       seed=st.integers(0, 2 ** 32 - 1))
def test_stacked_sample_block_equals_per_key_draws(kind, n_nodes, reps, k0, count,
                                                   with_state, with_out, seed):
    rng = np.random.default_rng(seed)
    process = _process(kind, n_nodes, rng)
    keys = np.stack([_stream_key(c) for c in np.random.SeedSequence(seed).spawn(reps)])
    state = rng.integers(0, 3, reps) if with_state else None
    # A strided view into a wider buffer, as the engine passes its graphs.
    buf = np.full((reps, count + 3, n_nodes, n_nodes), np.nan)
    out = buf[:, 1:count + 1] if with_out else None
    got, last = process.sample_block(keys, k0, count, state=state, out=out)
    per_key = [sample_block_per_key(process, key, k0, count,
                                    None if state is None else int(state[r]))
               for r, key in enumerate(keys)]
    want = np.stack([block for block, _ in per_key])
    if with_out:
        assert got.base is buf
    if kind == "cycle" and not with_out:
        # The cycle ignores its stream and returns its one block for any K.
        got = np.broadcast_to(got, want.shape)
    assert got.shape == want.shape and got.tobytes() == want.tobytes()
    if kind == "markov":
        want_last = [s for _, s in per_key]
        assert (last is None) == (want_last[0] is None)
        if last is not None:
            assert np.array_equal(last, want_last)
    else:
        assert last is None


@settings(max_examples=40, deadline=None)
@given(kind=st.sampled_from(["cycle", "independent", "independent-unperturbed",
                             "markov"]),
       n_nodes=st.integers(2, 5), h=st.integers(1, 3), windows=st.integers(1, 3),
       reps=st.integers(1, 12), seed=st.integers(0, 2 ** 32 - 1))
def test_stacked_connectivity_report_equals_per_sample_loop(kind, n_nodes, h, windows,
                                                            reps, seed):
    process = _process(kind, n_nodes, np.random.default_rng(seed))
    got = joint_connectivity_report(process, h, windows, reps, seed)
    want = connectivity_report_loop(process, h, windows, reps, seed)
    assert repr(got) == repr(want)


@st.composite
def lasso_cases(draw):
    dim = draw(st.integers(1, 4))
    n_nodes = draw(st.integers(1, 4))
    return dict(
        dim=dim,
        n_nodes=n_nodes,
        # Rank below dim gives a singular covariance.
        ranks=draw(st.lists(st.integers(0, dim), min_size=n_nodes, max_size=n_nodes)),
        lead=draw(st.sampled_from([(), (3,), (2, 3)])),
        seed=draw(st.integers(0, 2 ** 32 - 1)),
    )


@settings(max_examples=60, deadline=None)
@given(lasso_cases())
def test_fused_lasso_measurement_matches_separate_calls_and_slices(case):
    rng = np.random.default_rng(case["seed"])
    dim, n, lead = case["dim"], case["n_nodes"], case["lead"]
    covs = []
    for rank in case["ranks"]:
        m = rng.normal(size=(dim, rank))
        covs.append(m @ m.T)
    problem = LassoProblem(x0=rng.normal(size=dim), covariances=np.stack(covs),
                           sigma_v=rng.random(n), kappa=float(rng.random()))
    x = rng.normal(size=lead + (n, dim)) * 3.0
    x[..., 0] = 0.0  # a kink of the L1 term
    z = rng.normal(size=lead + (n, dim))
    v = rng.normal(size=lead + (n,))

    factors = problem.noise_factors(z, v)
    d, zeta = problem.subgradient_stack(x, factors)
    assert np.array_equal(d, problem.subgradient_stack(x))
    assert np.array_equal(zeta, problem.zeta_from_draws(x, z, v))
    # The engine's per-batch workspace: x0 tiled, every temporary in place.
    ws = problem.workspace(lead)
    d_ws, zeta_ws = problem.subgradient_stack(x, factors, out=np.empty_like(x), ws=ws)
    assert zeta_ws is ws.zeta
    assert np.array_equal(d_ws, d) and np.array_equal(zeta_ws, zeta)
    assert np.array_equal(problem.subgradient_stack(x, ws=ws), d)

    d_ref, zeta_ref = lasso_measurement_loop(problem, x, z, v)
    scale = 1.0 + np.abs(x).max() * (1.0 + np.abs(z).max()) ** 2
    assert np.max(np.abs(d - d_ref)) <= 1e-12 * scale
    assert np.max(np.abs(zeta - zeta_ref)) <= 1e-12 * scale

    # The engine takes factors once per chunk and slices them per step.
    for axis in range(len(lead)):
        for t in range(lead[axis]):
            at = (slice(None),) * axis + (t,)
            u_t, uv_t = problem.noise_factors(z[at], v[at])
            assert np.array_equal(u_t, factors[0][at])
            assert np.array_equal(uv_t, factors[1][at])
            d_t, zeta_t = problem.subgradient_stack(x[at], (u_t, uv_t))
            assert np.array_equal(d_t, d[at])
            assert np.array_equal(zeta_t, zeta[at])
