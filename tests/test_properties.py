"""Property tests of the batched step kernel, the engine around it and its
exact scaling with the problem, the lasso measurement, a node's one-node
problem, the counter-addressed graph draws, the connectivity report and the
numpy summation orders the engine's cheaper sums repeat.

Criterion 8 compares 1-worker and 8-worker aggregates exactly, which holds
only if a replication's arithmetic is the same in every batch it lands in.
"""

from unittest import mock

import numpy as np
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from conftest import span_budget
from oracles import (apply_step, connectivity_report_loop, draw_channel_noise, kernel,
                     lasso_measurement_loop, lasso_measurement_matmul,
                     lasso_noise_factors_matmul, one_node, receiver_draws,
                     sample_block_per_key, step_per_node)
from subgradnet import (CommNoiseModel, DeterministicCycle, IndependentEdges,
                        InitialStates, LassoProblem, MarkovSwitching,
                        QuadraticObjective, StepSchedule, joint_connectivity_report)
from subgradnet import engine
from subgradnet.config import build_objective, load_config
from subgradnet.engine import _center, _row_sums, _run_batch, default_record_ks
from subgradnet.graphs import _stream_key

PER_REP_KEYS = ("V", "opt_gap", "state_sq", "dist", "stack_dsq", "mean_state",
                "psi_violation", "d_violation", "recursion_max")


def _objective(kind, n_nodes, dim, rng):
    if kind == "quadratic":
        return QuadraticObjective(rng.normal(size=(n_nodes, dim)))
    if kind == "lasso-diagonal":
        # Diagonal covariances, one entry zero: the elementwise products.
        diags = rng.random((n_nodes, dim)) + 0.5
        diags[0, 0] = 0.0
        covs = [np.diag(d) for d in diags]
    else:
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
        objective=draw(st.sampled_from(["quadratic", "lasso", "lasso-diagonal"])),
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
    model = CommNoiseModel(sigma=0.3, b=0.2, cap=case["cap"])
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
    return span_budget(span, (reps, objective.n_nodes, objective.dim,
                              objective.has_gradient_noise))


@settings(max_examples=25, deadline=None)
@given(n_nodes=st.integers(2, 9), dim=st.integers(1, 4), reps=st.integers(2, 4),
       span=st.sampled_from([1, 7, 300]),
       objective=st.sampled_from(["quadratic", "lasso", "lasso-diagonal"]),
       process=st.sampled_from(["independent", "markov", "cycle"]),
       horizon=st.integers(1, 320), seed=st.integers(0, 2 ** 32 - 1))
def test_each_replication_of_a_batch_equals_its_run_alone(n_nodes, dim, reps, span, objective,
                                                          process, horizon, seed):
    # The batch walks its steps in forced sub-spans of its step-major buffers;
    # each replication alone walks one step per sub-span, where no step or
    # replication of a buffer can stand in for another.
    rng = np.random.default_rng(seed)
    objective = _objective(objective, n_nodes, dim, rng)
    model = CommNoiseModel(sigma=0.3, b=0.2)
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


# The degree in the scale of the problem of each per_rep key.
_SCALE_DEGREE = dict.fromkeys(PER_REP_KEYS, 2) | dict.fromkeys(
    ("mean_state", "dist", "recursion_max"), 1)


@settings(max_examples=100, deadline=None)
@given(objective=st.sampled_from(["quadratic", "lasso"]),
       process=st.sampled_from(["independent", "markov", "cycle"]),
       n_nodes=st.sampled_from([2, 3, engine._PSI_KEPT_BELOW, engine._PSI_KEPT_BELOW + 1]),
       dim=st.integers(1, 3), cap=st.sampled_from([None, 0.3]),
       scale=st.sampled_from([2.0 ** -3, 2.0 ** -1, 2.0, 2.0 ** 3]),
       horizon=st.integers(1, 300), seed=st.integers(0, 2 ** 32 - 1))
def test_per_rep_outputs_scale_exactly_with_the_problem(objective, process, n_nodes, dim,
                                                        cap, scale, horizon, seed):
    # Every term of the update is homogeneous of degree 1 in the states, the
    # targets (or x0, kappa and sigma_v), b and cap, and a power of two
    # commutes with each rounded operation; so scaling the problem, the
    # initial box and the optimum by s scales each output by s or s^2 bit for
    # bit.  A state-independent constant in the step breaks the relation.
    rng = np.random.default_rng(seed)
    process = _process(process, n_nodes, rng)
    targets, x0 = rng.normal(size=(n_nodes, dim)), rng.normal(size=dim)
    covs = _objective("lasso", n_nodes, dim, rng).covariances

    def problem(s):
        if objective == "quadratic":
            return QuadraticObjective(s * targets)
        return LassoProblem(x0=s * x0, covariances=covs, sigma_v=0.3 * s, kappa=0.1 * s)

    x_star, f_star = problem(1.0).optimum()
    record_ks = default_record_ks(horizon, dense_until=50, stride=25)
    out = {}
    for s in (1.0, scale):
        model = CommNoiseModel(sigma=0.3, b=0.2 * s, cap=None if cap is None else cap * s)
        out[s] = _run_batch(problem(s), process, model, StepSchedule(), horizon, seed,
                            [0, 1], s * x_star, s * s * f_star,
                            InitialStates.uniform(-2.0 * s, 2.0 * s), record_ks, 7)
    assert set(out[1.0]) - {"ks"} == set(_SCALE_DEGREE)
    for key, p in _SCALE_DEGREE.items():
        assert np.array_equal(out[scale][key], scale ** p * out[1.0][key]), key


@settings(max_examples=12, deadline=None)
@given(process=st.sampled_from(["independent", "markov", "cycle"]),
       n_nodes=st.sampled_from([2, 4, engine._PSI_KEPT_BELOW + 1]), dim=st.integers(1, 3),
       sigma=st.sampled_from([0.1, 1.0]), shift=st.floats(-4.0, 4.0),
       seed=st.integers(0, 2 ** 32 - 1))
def test_quadratic_outputs_translate_with_the_problem(process, n_nodes, dim, sigma, shift,
                                                      seed):
    # Quadratic subgradients x - t and the channel noise depend on states
    # only through x - t and x_j - x_i, so shifting the targets and the
    # initial box by v shifts every state by v and leaves V unchanged, up
    # to rounding.  The tolerance is set from rounding, before any run: a
    # step forms each coordinate with at most m = 4 N + 6 rounded operations
    # on values of magnitude at most 2 M, M the largest state or target, each off
    # by at most u = 2^-53 of it, and the mean moves by (1 - alpha) times
    # itself plus the consensus terms, so to first order the errors add:
    # at most H m u 2 M on mean_state after H steps.  Each centred
    # deviation is then off by at most d = 2 that + u M, and V, a sum of
    # N dim squared deviations, by at most 2 sqrt(N dim V) d + N dim d^2.
    horizon, u = 1000, 2.0 ** -53
    rng = np.random.default_rng(seed)
    process = _process(process, n_nodes, rng)
    targets = rng.normal(size=(n_nodes, dim))
    v = shift * np.linspace(1.0, -0.5, dim)
    model = CommNoiseModel(sigma=sigma, b=0.2)
    out = []
    for offset in (np.zeros(dim), v):
        objective = QuadraticObjective(targets + offset)
        out.append(_run_batch(objective, process, model, StepSchedule(), horizon, seed, [0, 1],
                              *objective.optimum(), InitialStates.uniform(offset - 2.0,
                                                                          offset + 2.0),
                              np.arange(horizon + 1), 0))
    base, shifted = out
    big = max(np.sqrt(np.maximum(base["state_sq"], shifted["state_sq"]).max()),
              np.abs(targets + v).max(), np.abs(targets).max())
    tol_state = horizon * (4 * n_nodes + 6) * u * 2.0 * big
    assert np.max(np.abs(shifted["mean_state"] - base["mean_state"] - v)) <= tol_state
    d = 2.0 * tol_state + u * big
    nd = n_nodes * dim
    assert np.all(np.abs(shifted["V"] - base["V"])
                  <= 2.0 * np.sqrt(nd * base["V"]) * d + nd * d * d)


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
    model = CommNoiseModel(sigma=float(rng.random()), b=float(rng.random()), cap=case["cap"])
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
        xi = draw_channel_noise(x, a, np.random.default_rng(seed))
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
    model = CommNoiseModel(sigma=float(rng.random()), b=float(rng.random()), cap=cap)
    objective = QuadraticObjective(rng.normal(size=(n_nodes, dim)))
    x = rng.normal(size=(n_nodes, dim)) * 3.0
    a = rng.normal(size=(n_nodes, n_nodes)) * (rng.random((n_nodes, n_nodes)) < 0.7)
    np.fill_diagonal(a, 0.0)
    a[[(zero_rows >> i) & 1 == 1 for i in range(n_nodes)]] = 0.0
    draw_seed = int(rng.integers(2 ** 32))
    via_node = step_per_node(x, a, sched, model, objective,
                             np.random.default_rng(draw_seed), k)
    xi = draw_channel_noise(x, a, np.random.default_rng(draw_seed))
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


@settings(max_examples=40, deadline=None)
@given(n_nodes=st.integers(2, 4), m=st.integers(1, 4), k0=st.integers(0, 2100),
       count=st.integers(0, 1100), reps=st.sampled_from([None, 1, 3]),
       with_state=st.booleans(), seed=st.integers(0, 2 ** 32 - 1))
def test_cycle_block_holds_the_matrix_of_each_step_modulo_the_cycle(n_nodes, m, k0, count,
                                                                    reps, with_state, seed):
    rng = np.random.default_rng(seed)
    mats = np.stack([rng.normal(size=(n_nodes, n_nodes)) * (1.0 - np.eye(n_nodes))
                     for _ in range(m)])
    stream = (seed if reps is None else
              np.stack([_stream_key(c) for c in np.random.SeedSequence(seed).spawn(reps)]))
    # The state before step k0 is the cycle's own, (k0 - 1) % m.
    state = None
    if with_state and k0 >= 1:
        state = (k0 - 1) % m if reps is None else np.full(reps, (k0 - 1) % m)
    got, _ = DeterministicCycle(mats).sample_block(stream, k0, count, state=state)
    want = mats[np.arange(k0, k0 + count) % m]
    lead = () if reps is None else (reps,)
    assert got.shape == lead + want.shape
    assert np.array_equal(got, np.broadcast_to(want, got.shape))


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
    assert got.shape == want.shape and got.tobytes() == want.tobytes()
    if not kind.startswith("independent"):
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


@st.composite
def diagonal_lasso_cases(draw):
    dim = draw(st.integers(1, 4))
    n_nodes = draw(st.integers(1, 4))
    return dict(
        dim=dim,
        n_nodes=n_nodes,
        identity=draw(st.booleans()),
        # Diagonal entries set to zero: a singular covariance and root.
        zeros=draw(st.lists(st.booleans(), min_size=n_nodes * dim,
                            max_size=n_nodes * dim)),
        lead=draw(st.sampled_from([(), (3,), (2, 3)])),
        seed=draw(st.integers(0, 2 ** 32 - 1)),
    )


def _same_bits(a, b):
    return np.array_equal(a, b) and np.array_equal(np.signbit(a), np.signbit(b))


@settings(max_examples=60, deadline=None)
@given(diagonal_lasso_cases())
def test_diagonal_lasso_products_have_the_block_products_bits(case):
    rng = np.random.default_rng(case["seed"])
    dim, n, lead = case["dim"], case["n_nodes"], case["lead"]
    if case["identity"]:
        diags = np.ones((n, dim))
    else:
        diags = 10.0 ** rng.uniform(-5.0, 5.0, size=(n, dim))
        diags[np.reshape(case["zeros"], (n, dim))] = 0.0
    problem = LassoProblem(x0=rng.normal(size=dim),
                           covariances=np.stack([np.diag(d) for d in diags]),
                           sigma_v=rng.random(n), kappa=float(rng.random()))
    assert problem._cov_diag is not None and problem._root_diag is not None
    x = rng.normal(size=lead + (n, dim)) * 3.0
    # Zeros of both signs: w = +0 on the first coordinate, z = -0 on the last.
    x[..., 0] = problem.x0[0]
    z = rng.normal(size=lead + (n, dim))
    z[..., -1] = -0.0
    v = rng.normal(size=lead + (n,))

    u_ref, uv_ref = lasso_noise_factors_matmul(problem, z, v)
    d_ref, zeta_ref = lasso_measurement_matmul(problem, x, (u_ref, uv_ref))
    u, uv = problem.noise_factors(z, v)
    assert _same_bits(u, u_ref) and _same_bits(uv, uv_ref)
    d, zeta = problem.subgradient_stack(x, (u, uv))
    assert _same_bits(d, d_ref) and _same_bits(zeta, zeta_ref)
    # The engine's path: the diagonals tiled in the workspace, every
    # product written in place.
    ws = problem.workspace(lead)
    out = (np.empty_like(z), np.empty_like(z))
    u_ws, uv_ws = problem.noise_factors(z, v, out=out)
    d_ws, zeta_ws = problem.subgradient_stack(x, (u_ws, uv_ws), out=np.empty_like(x), ws=ws)
    assert _same_bits(u_ws, u_ref) and _same_bits(uv_ws, uv_ref)
    assert _same_bits(d_ws, d_ref) and _same_bits(zeta_ws, zeta_ref)


@st.composite
def node_slice_cases(draw):
    dim = draw(st.integers(1, 4))
    n_nodes = draw(st.integers(1, 4))
    return dict(
        dim=dim,
        n_nodes=n_nodes,
        quadratic=draw(st.booleans()),
        # A dense node makes the whole stack dense; the others' one-node
        # problems stay identity or diagonal and take the elementwise path.
        kinds=draw(st.lists(st.sampled_from(["identity", "diagonal", "dense"]),
                            min_size=n_nodes, max_size=n_nodes)),
        lead=draw(st.sampled_from([(), (3,), (2, 3)])),
        seed=draw(st.integers(0, 2 ** 32 - 1)),
    )


def _measure(objective, x, z, v, ws=None):
    """``(d,)`` of a quadratic or ``(d, zeta)`` of a lasso for the states
    ``x`` and draws ``z``, ``v``; with a workspace, as the engine calls it."""
    out = np.empty_like(x)
    if isinstance(objective, QuadraticObjective):
        return (objective.subgradient_stack(x, out=out, ws=ws),)
    into = None if ws is None else (np.empty_like(z), np.empty_like(z))
    factors = objective.noise_factors(z, v, out=into)
    return objective.subgradient_stack(x, factors, out=out, ws=ws)


@settings(max_examples=100, deadline=None)
@given(node_slice_cases())
def test_one_node_problem_measures_its_row_of_the_stacked_call(case):
    rng = np.random.default_rng(case["seed"])
    dim, n, lead = case["dim"], case["n_nodes"], case["lead"]
    if case["quadratic"]:
        objective = QuadraticObjective(rng.normal(size=(n, dim)))
    else:
        covs = []
        for kind in case["kinds"]:
            if kind == "identity":
                covs.append(np.eye(dim))
            elif kind == "diagonal":
                diag = rng.random(dim) + 0.5
                diag[rng.random(dim) < 0.3] = 0.0
                covs.append(np.diag(diag))
            else:
                m = rng.normal(size=(dim, dim))
                covs.append(m @ m.T)
        x0 = rng.normal(size=dim)
        x0[0] = 0.0
        objective = LassoProblem(x0=x0, covariances=np.stack(covs),
                                 sigma_v=rng.random(n), kappa=float(rng.random()))
    x = rng.normal(size=lead + (n, dim)) * 3.0
    # Kinks of the L1 term at zeros of both signs; with x0[0] = 0 they are
    # zeros of both signs of x - x0 too.  The draws hold -0 as well.
    x[..., 0] = rng.choice(np.array([0.0, -0.0]), size=lead + (n,))
    z = rng.normal(size=lead + (n, dim))
    z[..., -1] = -0.0
    v = rng.normal(size=lead + (n,))

    full = _measure(objective, x, z, v)
    for got, want in zip(_measure(objective, x, z, v, objective.workspace(lead)), full):
        assert _same_bits(got, want)
    for i in range(n):
        node, row = one_node(objective, i), (Ellipsis, slice(i, i + 1), slice(None))
        x_i, z_i, v_i = x[row], z[row], v[..., i:i + 1]
        for ws in (None, node.workspace(lead)):
            for got, want in zip(_measure(node, x_i, z_i, v_i, ws), full):
                assert _same_bits(got, want[row])

    # The nodes' costs add up to the total cost, node averages shaped lead + (n,).
    avg = rng.normal(size=lead + (dim,)) * 3.0
    avg[..., 0] = 0.0
    total = objective.total_cost(avg)
    parts = sum(one_node(objective, i).total_cost(avg) for i in range(n))
    assert np.all(np.abs(parts - total) <= 1e-12 * np.abs(total))


def test_shipped_a2_takes_the_elementwise_path_and_a_dense_stack_does_not(config_dir):
    a2 = build_objective(load_config(str(config_dir / "a2_lasso.yaml")))
    assert a2._cov_diag is not None and a2._root_diag is not None
    assert np.array_equal(a2._cov_diag, np.ones((a2.n_nodes, a2.dim)))
    dense = _objective("lasso", 3, 2, np.random.default_rng(0))
    assert dense._cov_diag is None and dense._root_diag is None
    # One nonzero off-diagonal entry, however small, keeps the block product.
    cov = np.eye(2)
    cov[0, 1] = cov[1, 0] = 1e-300
    assert LassoProblem(x0=np.zeros(2), covariances=cov, sigma_v=0.1,
                        kappa=0.0)._cov_diag is None


# Finite doubles of either sign and any magnitude, -0.0 included: sums may
# overflow, and a row of -0.0 tells numpy's start from 0.0 apart.  Arrays
# are often mostly zeros of one sign, as sparse graphs are.
FINITE = st.floats(allow_nan=False, allow_infinity=False)
FILL = st.sampled_from([0.0, -0.0]) | FINITE


def finite_arrays(shape):
    return hnp.arrays(np.float64, shape, elements=FINITE, fill=FILL)


def same_bits(a, b):
    return a.shape == b.shape and np.array_equal(a.view(np.uint64), b.view(np.uint64))


@settings(max_examples=200, deadline=None)
@given(data=st.data(), n=st.integers(1, 7),
       lead=st.lists(st.integers(1, 4), max_size=3))
def test_row_sums_repeat_numpys_index_order_below_eight_values(data, n, lead):
    # Pins numpy's sum over a last axis of fewer than 8 values: 0.0 plus the
    # values in index order.  From 8 values numpy sums pairwise, and the
    # helper calls ``sum`` itself.
    a = data.draw(finite_arrays(tuple(lead) + (n,)))
    with np.errstate(over="ignore", invalid="ignore"):
        want = a.sum(axis=-1)
        got = _row_sums(a, np.empty(want.shape))
    assert same_bits(got, want)


@settings(max_examples=200, deadline=None)
@given(data=st.data(), n=st.integers(1, 60), dim=st.integers(2, 8),
       lead=st.lists(st.integers(1, 4), max_size=2))
def test_center_mean_repeats_numpys_axis_sum_from_two_values_per_node(data, n, dim, lead):
    # Pins numpy's sum over axis -2 with more than one value per node, which
    # adds the nodes in index order from 0.0 as the einsum ``...nd->...d``
    # does.  With one value per node numpy sums pairwise, and _center calls
    # ``sum`` itself.
    shape = tuple(lead) + (n, dim)
    x = data.draw(finite_arrays(shape))
    mean = np.empty(tuple(lead) + (1, dim))
    with np.errstate(over="ignore", invalid="ignore"):
        want = x.sum(axis=-2, keepdims=True) / n
        _center(x, mean=mean)
    assert same_bits(mean, want)


# Non-negative doubles, infinity included, zeros of both signs and NaN: the
# kernel's intensities are non-negative, and NaN where a state is not finite.
NON_NEGATIVE = st.floats(min_value=0.0) | st.sampled_from([0.0, -0.0, np.nan])


@settings(max_examples=200, deadline=None)
@given(data=st.data(), m=st.integers(1, 30), k=st.integers(1, 64))
def test_column_maxima_repeat_numpys_row_maximum(data, m, k):
    # Pins the per-sub-span psi maxima below _PSI_KEPT_BELOW nodes: one
    # elementwise maximum per column gives each row's ``max`` bit for bit,
    # the sign of a zero and NaN included.
    a = data.draw(hnp.arrays(np.float64, (m, k), elements=NON_NEGATIVE,
                             fill=st.sampled_from([0.0, -0.0])))
    assert same_bits(engine._row_max(a, np.empty(m)), a.max(axis=1))
