"""Core iteration of the distributed noisy subgradient algorithm.

One step updates every node by a consensus term built from noisy neighbour
measurements plus a noisy subgradient step:

    x_i(k+1) = x_i(k) + c(k) * sum_j a_ij(k) (y_ji(k) - x_i(k))
                       - alpha(k) * (d_i(x_i(k)) + zeta_i(k))

with y_ji = x_j + psi(x_j - x_i) xi_ji.  One batched step kernel computes it
for a whole stack of replications; the Monte Carlo loop, ``apply_step`` and
the consensus-error recursion check all call it.  The tests keep a per-node
loop and the stacked compact matrix form as its independent references.
The Monte Carlo loop runs in 1024-step chunks: per step it makes only the
measurement, the kernel call and, on check steps, the recursion check; once
per chunk it checks the states for divergence, records them and evaluates
the psi and d bound monitors.

Randomness is organized as one stream per replication, split into disjoint
sub-streams for initial states, graph draws, channel noise and gradient noise,
so the noises are independent of the graph realization by construction and
every replication is reproducible in isolation, regardless of batching or
worker count.
"""

import multiprocessing
from dataclasses import dataclass, field

import numpy as np

from .errors import DivergenceDetected, WorkerLost

# Steps per internal draw block; fixed, part of the determinism contract.
_CHUNK = 1024

_DIVERGENCE_NORM_SQ = 1e24


def _center(states):
    """Deviation of each node from the node average, over axis -2."""
    return states - states.sum(axis=-2, keepdims=True) / states.shape[-2]


def _check_divergence(hist, k0, rep_indices):
    """Squared norms of the states ``hist`` before steps k0, k0+1, ...; raises
    at the first step whose largest one is not below the limit."""
    s_sq = np.einsum("trnd,trnd->tr", hist, hist)
    over = ~(s_sq.max(axis=1) < _DIVERGENCE_NORM_SQ)
    if over.any():
        t = int(over.argmax())
        bad = int(np.nanargmax(s_sq[t]))
        raise DivergenceDetected(f"state norm blew up at step {k0 + t}",
                                 replication=int(rep_indices[bad]), step=k0 + t)
    return s_sq


def _step(x, a, row_sums, alpha_k, c_k, model, xi_in, d_plus_zeta):
    """The step kernel: next state, channel-noise sum and intensities.

    Works on one state ``(N, dim)`` or a stack ``(..., N, dim)``.
    ``xi_in[..., i, j, :]`` is the noise on channel (j -> i), receiver-major.
    The consensus term is ``a @ x - row_sums * x`` and the noise sum
    ``sum_j a_ij psi_ji xi_ji`` is one ``(1, N) @ (N, dim)`` product per
    receiver; ``psi`` is symmetric, so ``a * psi`` pairs each weight with its
    channel's intensity.  Every contraction is a per-slice matmul, so the
    arithmetic of one replication does not depend on how many replications
    share the stack.
    """
    diff = x[..., :, None, :] - x[..., None, :, :]
    psi = model.psi_values(np.sqrt(np.einsum("...ijd,...ijd->...ij", diff, diff)))
    noise = ((a * psi)[..., None, :] @ xi_in)[..., 0, :]
    consensus = a @ x - row_sums[..., None] * x
    return x + c_k * (consensus + noise) - alpha_k * d_plus_zeta, noise, psi


def _recursion_gap(delta, a, row_sums, alpha_k, c_k, noise, zeta, d_stack, x_new):
    """Norm of the gap between the recursive and the direct consensus error.

    ``delta`` is the centred state before the step, ``noise`` the kernel's
    channel-noise sum and ``x_new`` the kernel's next state.
    """
    lap_delta = row_sums[..., None] * delta - a @ delta
    noise_in = c_k * noise
    if zeta is not None:
        noise_in = noise_in - alpha_k * zeta
    gap = (delta - c_k * _center(lap_delta) + _center(noise_in)
           - alpha_k * _center(d_stack) - _center(x_new))
    return np.sqrt((gap * gap).sum(axis=(-2, -1)))


def apply_step(states, adjacency, alpha_k, c_k, model, xi, d_plus_zeta):
    """One update from pre-drawn noises; broadcasts over leading batch axes.

    ``xi[..., j, i, :]`` is the channel noise on (j -> i); inactive channels
    are multiplied by zero weights, so their entries never matter.
    """
    x = np.asarray(states, dtype=float)
    a = np.asarray(adjacency, dtype=float)
    return _step(x, a, a.sum(axis=-1), alpha_k, c_k, model,
                 np.swapaxes(np.asarray(xi, dtype=float), -3, -2), d_plus_zeta)[0]


def delta_recursion_check(states, adjacency, schedule, model, objective, k,
                          xi, zeta):
    """Discrepancy between the direct and recursive consensus-error updates.

    Computes the next consensus error once by projecting the stepped state and
    once through the error recursion

        delta(k+1) = ((I - c P L) (x) I) delta(k)
                     + (P (x) I)(c D Psi xi - alpha zeta)
                     - alpha (P (x) I) d(k)

    and returns the norm of the difference.  Both sides share the given
    draws and the kernel's noise term; the discrepancy is pure floating-point
    error.
    """
    x = np.asarray(states, dtype=float)
    a = np.asarray(adjacency, dtype=float)
    alpha_k = schedule.alpha(k)
    c_k = schedule.c(k)
    row_sums = a.sum(axis=-1)
    d_stack = objective.subgradient_stack(x)
    zeta = np.asarray(zeta, dtype=float)
    x_new, noise, _ = _step(x, a, row_sums, alpha_k, c_k, model,
                            np.swapaxes(np.asarray(xi, dtype=float), -3, -2),
                            d_stack + zeta)
    return float(_recursion_gap(_center(x), a, row_sums, alpha_k, c_k, noise,
                                zeta, d_stack, x_new))


@dataclass(frozen=True)
class StepRecord:
    """Metrics of one recorded step of a single replication."""

    k: int
    lyapunov: float
    mean_state: np.ndarray
    opt_gap: float
    state_sq_norm: float
    dist_to_opt: float
    stack_sq_dist: float


@dataclass(frozen=True)
class InitialStates:
    """Initial-state specification: i.i.d. uniform box or explicit values."""

    kind: str = "uniform"
    low: np.ndarray = None
    high: np.ndarray = None
    states: np.ndarray = None

    @staticmethod
    def uniform(low, high):
        return InitialStates(kind="uniform", low=np.asarray(low, dtype=float),
                             high=np.asarray(high, dtype=float))

    @staticmethod
    def explicit(states):
        return InitialStates(kind="explicit",
                             states=np.asarray(states, dtype=float))

    def draw(self, rng, n_nodes, dim):
        if self.kind == "explicit":
            states = np.asarray(self.states, dtype=float)
            if states.shape != (n_nodes, dim):
                raise ValueError(f"explicit initial states must be ({n_nodes}, {dim})")
            return states.copy()
        low = np.broadcast_to(self.low if self.low is not None else -5.0, (dim,))
        high = np.broadcast_to(self.high if self.high is not None else 5.0, (dim,))
        return low + (high - low) * rng.random((n_nodes, dim))


def default_record_ks(horizon, dense_until=1000, stride=100):
    """Recorded step indices: every step early on, strided afterwards."""
    ks = set(range(0, min(int(dense_until), horizon) + 1))
    if stride:
        ks.update(range(0, horizon + 1, int(stride)))
    ks.add(horizon)
    return np.array(sorted(ks), dtype=np.int64)


def replication_stream(seed, rep_index):
    """Root stream of one replication; independent across indices."""
    return np.random.SeedSequence(entropy=seed, spawn_key=(int(rep_index),))


def _run_batch(objective, process, model, schedule, horizon, seed, rep_indices,
               x_star, f_star, init, record_ks, check_stride):
    """Simulate a batch of replications; per-replication results do not
    depend on how replications are grouped into batches."""
    n_nodes, dim = objective.n_nodes, objective.dim
    if process.n_nodes != n_nodes:
        raise ValueError("objective and graph process disagree on node count")
    reps = len(rep_indices)
    record_ks = np.asarray(record_ks, dtype=np.int64)
    if record_ks.size and (record_ks.min() < 0 or record_ks.max() > horizon):
        raise ValueError("record_ks must lie within [0, horizon]")
    n_rec = record_ks.shape[0]
    record_mask = np.zeros(horizon + 1, dtype=bool)
    record_mask[record_ks] = True
    rec_slot = np.cumsum(record_mask) - 1

    graph_ss, comm_gen, grad_gen, states = [], [], [], []
    for rep in rep_indices:
        init_ss, g_ss, c_ss, z_ss = replication_stream(seed, rep).spawn(4)
        graph_ss.append(g_ss)
        comm_gen.append(np.random.default_rng(c_ss))
        grad_gen.append(np.random.default_rng(z_ss))
        states.append(init.draw(np.random.default_rng(init_ss), n_nodes, dim))
    x = np.stack(states)
    graph_state = [None] * reps

    out = {
        "ks": record_ks,
        "V": np.empty((reps, n_rec)),
        "opt_gap": np.empty((reps, n_rec)),
        "state_sq": np.empty((reps, n_rec)),
        "dist": np.empty((reps, n_rec)),
        "stack_dsq": np.empty((reps, n_rec)),
        "mean_state": np.empty((reps, n_rec, dim)),
        "psi_violation": np.full(reps, -np.inf),
        "d_violation": np.full(reps, -np.inf),
        "recursion_max": np.zeros(reps),
    }

    sd_sq = float(np.max(objective.sigma_d)) ** 2
    cd_sq = float(np.max(objective.c_d)) ** 2
    has_zeta = objective.has_gradient_noise

    def observe(k0, hist, d_hist=None, psi_max=None):
        """Check and record the states ``hist`` before steps k0, k0+1, ...
        and monitor the bounds on the same steps' subgradients ``d_hist`` and
        largest intensities ``psi_max``."""
        s_sq = _check_divergence(hist, k0, rep_indices)
        xc = _center(hist)
        v = np.einsum("trnd,trnd->tr", xc, xc)
        rows = np.flatnonzero(record_mask[k0:k0 + hist.shape[0]])
        slots = rec_slot[k0 + rows]
        x_rec = hist[rows]
        xbar = x_rec.mean(axis=2)
        dist_sq = np.square(x_rec - np.asarray(x_star, dtype=float)).sum(axis=3)
        out["V"][:, slots] = v[rows].T
        out["state_sq"][:, slots] = s_sq[rows].T
        out["mean_state"][:, slots] = xbar.swapaxes(0, 1)
        out["opt_gap"][:, slots] = (objective.total_cost(xbar) - f_star).T
        out["dist"][:, slots] = np.sqrt(dist_sq.max(axis=2)).T
        out["stack_dsq"][:, slots] = dist_sq.sum(axis=2).T
        if d_hist is not None:
            psi_bound = 4.0 * model.sigma ** 2 * v + 2.0 * model.b ** 2
            d_bound = 2.0 * sd_sq * s_sq + 2.0 * n_nodes * cd_sq
            d_sq = np.einsum("trnd,trnd->tr", d_hist, d_hist)
            out["psi_violation"] = np.maximum(out["psi_violation"],
                                              (psi_max ** 2 - psi_bound).max(axis=0))
            out["d_violation"] = np.maximum(out["d_violation"],
                                            (d_sq - d_bound).max(axis=0))

    # A floating-point error interrupts a step; unless a state has diverged by
    # then, the step is redone under the caller's error handling and warns.
    fp_modes = np.geterr()
    xi_buf = np.empty((reps, min(_CHUNK, horizon), n_nodes, n_nodes, dim))
    hist = np.empty((xi_buf.shape[1], reps, n_nodes, dim))
    d_hist = np.empty_like(hist)
    psi_max = np.empty(hist.shape[:2])
    k = 0
    while k < horizon:
        span = min(_CHUNK, horizon - k)
        graphs = np.empty((reps, span, n_nodes, n_nodes))
        for r in range(reps):
            graphs[r], graph_state[r] = process.sample_block(
                graph_ss[r], k, span, state=graph_state[r])
        row_sums_chunk = graphs.sum(axis=3)
        # Channel noise stored receiver-major: xi_in[r, t, i, j] = xi_ji.
        xi_in = xi_buf[:, :span]
        for r, g in enumerate(comm_gen):
            np.multiply(g.standard_normal((span, n_nodes, n_nodes, dim)),
                        1.0 / np.sqrt(dim), out=np.swapaxes(xi_in[r], 1, 2))
        if has_zeta:
            # Gradient-noise factors for the whole chunk, step-major so the
            # slice of step t is contiguous; the raw draws are dropped here.
            u_chunk, uv_chunk = objective.noise_factors(
                np.stack([g.standard_normal((span, n_nodes, dim))
                          for g in grad_gen], axis=1),
                np.stack([g.standard_normal((span, n_nodes))
                          for g in grad_gen], axis=1))
        chunk_ks = np.arange(k, k + span)
        alphas = schedule.alpha(chunk_ks).tolist()
        cs = schedule.c(chunk_ks).tolist()

        def advance(t, x):
            a = graphs[:, t]
            row_sums = row_sums_chunk[:, t]
            if has_zeta:
                d_stack, zeta = objective.subgradient_stack(
                    x, (u_chunk[t], uv_chunk[t]))
                step_src = d_stack + zeta
            else:
                zeta = None
                d_stack = step_src = objective.subgradient_stack(x)
            x_new, noise, psi = _step(x, a, row_sums, alphas[t], cs[t], model,
                                      xi_in[:, t], step_src)
            d_hist[t] = d_stack
            psi.max(axis=(1, 2), out=psi_max[t])
            if check_stride and (k + t) % check_stride == 0:
                disc = _recursion_gap(_center(x), a, row_sums, alphas[t], cs[t],
                                      noise, zeta, d_stack, x_new)
                np.maximum(out["recursion_max"], disc, out=out["recursion_max"])
            return x_new

        with np.errstate(divide="raise", over="raise", invalid="raise"):
            for t in range(span):
                hist[t] = x
                try:
                    x = advance(t, x)
                except FloatingPointError:
                    _check_divergence(hist[:t + 1], k, rep_indices)
                    with np.errstate(**fp_modes):
                        x = advance(t, x)
        observe(k, hist[:span], d_hist[:span], psi_max[:span])
        k += span

    observe(horizon, x[None])
    return out


def run_trajectory(objective, process, model, schedule, horizon, seed,
                   x_star, f_star, init=None, record_ks=None, check_stride=0,
                   rep_index=0):
    """Simulate one replication and return its recorded step metrics.

    Deterministic per (seed, rep_index); the optimum pair (x_star, f_star)
    must come from the objective's oracle, never from a simulation.
    """
    if horizon < 0:
        raise ValueError("horizon must be nonnegative")
    if init is None:
        init = InitialStates()
    if record_ks is None:
        record_ks = default_record_ks(horizon)
    res = _run_batch(objective, process, model, schedule, horizon, seed,
                     [rep_index], x_star, f_star, init, record_ks, check_stride)
    records = []
    for slot, k in enumerate(res["ks"]):
        records.append(StepRecord(
            k=int(k),
            lyapunov=float(res["V"][0, slot]),
            mean_state=res["mean_state"][0, slot].copy(),
            opt_gap=float(res["opt_gap"][0, slot]),
            state_sq_norm=float(res["state_sq"][0, slot]),
            dist_to_opt=float(res["dist"][0, slot]),
            stack_sq_dist=float(res["stack_dsq"][0, slot]),
        ))
    return records


@dataclass(frozen=True)
class MonteCarloResult:
    """Across-replication aggregates of the recorded per-step metrics."""

    record_ks: np.ndarray
    reps: int
    mean_v: np.ndarray
    std_v: np.ndarray
    mean_opt_gap: np.ndarray
    mean_dist_to_opt: np.ndarray
    mean_state_sq: np.ndarray
    mean_stack_dsq: np.ndarray
    final_dists: np.ndarray
    psi_violation_max: float
    d_violation_max: float
    recursion_max: float
    beta_log: np.ndarray = None
    c1_hat: float = None
    c1_hat_at: int = None
    per_rep: dict = field(default=None, repr=False)


def monte_carlo(objective, process, model, schedule, horizon, seed, reps,
                x_star, f_star, init=None, record_ks=None, check_stride=0,
                workers=1, C0=None):
    """Aggregate recorded metrics over independent replications.

    Replications are deterministic per (seed, index) and may be fanned out to
    a process pool; per-replication trajectories are identical for any worker
    count, and the reduction runs over the replication axis in index order, so
    aggregates match across worker counts.  With ``C0`` given, also reports
    the supremum of mean squared state norm over the growth envelope
    exp(C0 * sum alpha) in log space.
    """
    if reps < 1:
        raise ValueError("reps must be at least 1")
    if init is None:
        init = InitialStates()
    if record_ks is None:
        record_ks = default_record_ks(horizon)
    record_ks = np.asarray(record_ks, dtype=np.int64)

    jobs = [(objective, process, model, schedule, horizon, seed, part.tolist(),
             x_star, f_star, init, record_ks, check_stride)
            for part in np.array_split(np.arange(reps), max(1, min(workers, reps)))]
    if len(jobs) == 1:
        parts = [_run_batch(*jobs[0])]
    else:
        # Imported here: at module level it adds 1.3 MB to every run's RSS.
        from concurrent.futures import ProcessPoolExecutor
        from concurrent.futures.process import BrokenProcessPool
        try:
            with ProcessPoolExecutor(len(jobs),
                                     mp_context=multiprocessing.get_context()) as pool:
                futures = [pool.submit(_run_batch, *job) for job in jobs]
                parts = [f.result() for f in futures]
        except BrokenProcessPool as exc:
            raise WorkerLost("a Monte Carlo worker process ended abruptly") from exc

    per_rep = {key: np.concatenate([p[key] for p in parts], axis=0)
               for key in ("V", "opt_gap", "state_sq", "dist", "stack_dsq",
                           "psi_violation", "d_violation", "recursion_max")}

    std_v = (per_rep["V"].std(axis=0, ddof=1) if reps > 1
             else np.zeros(record_ks.shape[0]))
    mean_state_sq = per_rep["state_sq"].mean(axis=0)

    beta_log = c1_hat = c1_at = None
    if C0 is not None:
        beta_log = np.asarray(schedule.log_beta(record_ks, C0), dtype=float)
        log_ratio = np.log(np.maximum(mean_state_sq, 1e-300)) - beta_log
        best = int(np.argmax(log_ratio))
        c1_hat = float(np.exp(log_ratio[best]))
        c1_at = int(record_ks[best])

    return MonteCarloResult(
        record_ks=record_ks,
        reps=reps,
        mean_v=per_rep["V"].mean(axis=0),
        std_v=std_v,
        mean_opt_gap=per_rep["opt_gap"].mean(axis=0),
        mean_dist_to_opt=per_rep["dist"].mean(axis=0),
        mean_state_sq=mean_state_sq,
        mean_stack_dsq=per_rep["stack_dsq"].mean(axis=0),
        final_dists=per_rep["dist"][:, -1].copy(),
        psi_violation_max=float(per_rep["psi_violation"].max()),
        d_violation_max=float(per_rep["d_violation"].max()),
        recursion_max=float(per_rep["recursion_max"].max()),
        beta_log=beta_log,
        c1_hat=c1_hat,
        c1_hat_at=c1_at,
        per_rep=per_rep,
    )
