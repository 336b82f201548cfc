"""Core iteration of the distributed noisy subgradient algorithm.

One step updates every node by a consensus term built from noisy neighbour
measurements plus a noisy subgradient step:

    x_i(k+1) = x_i(k) + c(k) * sum_j a_ij(k) (y_ji(k) - x_i(k))
                       - alpha(k) * (d_i(x_i(k)) + zeta_i(k))

with y_ji = x_j + psi(x_j - x_i) xi_ji.  The channel noises enter only
through each receiver's sum ``sum_j w_ij xi_ji`` with ``w = a * psi``.  They
are i.i.d. N(0, I/dim) and drawn independently of x(k) and A(k), so given
both that sum is N(0, ||w_i||^2 I/dim), and the receivers' sums are
independent because their channels are disjoint.  The kernel therefore takes
one N(0, I/dim) vector ``z_i`` per receiver and forms the sum as
``||w_i|| z_i``: N * dim draws per step instead of N^2 * dim, with the same
law.  A non-Gaussian or correlated channel model has no such closed form and
would need per-channel draws again.

One batched step kernel computes the step for a whole stack of
replications; the Monte Carlo loop and the consensus-error recursion check
call it.  It writes its temporaries into a workspace allocated once per
batch, with the pair differences dim-leading so that each coordinate's block
is contiguous, and sums their squares over ``d`` in index order, an einsum's
order up to dim 2.  The tests keep a per-node loop, the stacked compact
matrix form and the einsum form as its references, and map per-channel
draws onto the kernel's per-receiver input.
The Monte Carlo loop walks each 1024-step chunk in sub-spans sized by a byte
budget for the step buffers, which are allocated once per batch and hold one
sub-span (at least one step), not a whole chunk; every stream is read in
step order, so the draws of a sub-span are the same numbers whatever its
length.  The buffers are step-major: each operand of a step (states, graphs,
row sums, channel draws, noise factors) is one contiguous block over the
replications, because numpy takes three to six times longer on a strided or
broadcast operand of a few hundred values than on a contiguous one.
Constant operands are broadcast once, the row sums once per sub-span and the
objective's constants once per batch in its workspace.  Per step the loop
makes only the measurement, the kernel call, the psi maximum and, on check
steps, the recursion check; once per sub-span it draws all replications'
graphs in one in-place call and each replication's channel and gradient
noise in one call per stream, checks the states for divergence, records
them and evaluates the psi and d monitors.

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
from .graphs import _stream_key

# Steps per chunk, the unit the schedule's gains are evaluated in.  Every
# stream is read in step order, so outputs do not depend on it.
_CHUNK = 1024

# Bytes one batch holds for a sub-span: its step buffers, the draws of every
# stream included, and the temporaries of ``observe``; sets the sub-span a
# chunk is walked in.  Outputs do not depend on it.  Each sub-span pays a
# fixed cost per replication for its graph and noise draws: at 2 MiB that
# cost took 5-7% of the shipped configs' Monte Carlo time, at 4 MiB about
# half that.
_BUDGET_BYTES = 4 << 20

_DIVERGENCE_NORM_SQ = 1e24

# The C routine behind ``np.einsum``, which calls it unchanged when it does
# not optimize; called directly it saves half of a small einsum's 4 us.
try:
    from numpy._core.multiarray import c_einsum as _einsum
except ImportError:  # pragma: no cover - numpy without this private module
    _einsum = np.einsum


def _step_bytes(reps, n_nodes, dim, has_zeta):
    """Bytes one batch holds per step of a sub-span: the buffers of
    ``_StepBuffers`` and the copy of the recorded states that ``observe``
    makes with up to two temporaries of its size."""
    per_rep = n_nodes * n_nodes + n_nodes + 8 * n_nodes * dim + dim + 1
    if has_zeta:
        per_rep += 4 * n_nodes * dim + 2 * n_nodes
    return 8 * (reps * per_rep + n_nodes * dim)


def _sub_span(reps, n_nodes, dim, has_zeta):
    """Steps per sub-span: as many as the byte budget holds, 1 to _CHUNK."""
    return max(1, min(_CHUNK, _BUDGET_BYTES // _step_bytes(reps, n_nodes, dim,
                                                           has_zeta)))


def _center(states, out=None, mean=None):
    """Deviation of each node from the node average, over axis -2; the
    average goes to ``mean``, shaped like ``states[..., :1, :]``, when given.

    The nodes are summed by sequential adds of ``[..., i:i+1, :]`` slices, the
    order of numpy's axis -2 sum when the last axis holds more than one value,
    at half the cost of that strided reduction.  With one value per node numpy
    sums the nodes pairwise, so that case keeps its ``sum``.
    """
    n = states.shape[-2]
    total = np.empty(states[..., :1, :].shape) if mean is None else mean
    if states.shape[-1] == 1:
        states.sum(axis=-2, keepdims=True, out=total)
    else:
        np.copyto(total, states[..., :1, :])
        for i in range(1, n):
            np.add(total, states[..., i:i + 1, :], out=total)
    total /= n
    return np.subtract(states, total, out=out)


def _check_divergence(hist, k0, rep_indices):
    """Squared norms of the states ``hist`` before steps k0, k0+1, ...; raises
    at the first step where one is not below the limit, naming the
    replication with the largest, NaN counting as largest."""
    s_sq = np.einsum("trnd,trnd->tr", hist, hist)
    over = ~(s_sq.max(axis=1) < _DIVERGENCE_NORM_SQ)
    if over.any():
        t = int(over.argmax())
        nan = np.isnan(s_sq[t])
        bad = int(nan.argmax() if nan.any() else s_sq[t].argmax())
        raise DivergenceDetected(f"state norm blew up at step {k0 + t}",
                                 replication=int(rep_indices[bad]), step=k0 + t)
    return s_sq


class _Workspace:
    """Buffers and views for every temporary of ``_step`` on states shaped
    ``lead + (N, dim)``; allocated once, reused by every call.  The pair
    differences are dim-leading, so each ``diff[d]`` is one contiguous block,
    and ``axes`` transposes a state stack to ``(dim,) + lead + (N,)``."""

    def __init__(self, lead, n_nodes, dim):
        self.axes = (len(lead) + 1,) + tuple(range(len(lead) + 1))
        self.diff = np.empty((dim,) + lead + (n_nodes, n_nodes))
        self.diff_d = list(self.diff)
        self.psi = np.empty(lead + (n_nodes, n_nodes))
        self.a_psi = np.empty_like(self.psi)
        self.row_norm = np.empty(lead + (n_nodes,))
        self.row_norm_col = self.row_norm[..., None]
        self.noise = np.empty(lead + (n_nodes, dim))
        self.consensus = np.empty(lead + (n_nodes, dim))
        self.term = np.empty_like(self.consensus)


def _step(x, a, row_sums, alpha_k, c_k, model, z, d_plus_zeta, ws, out):
    """The step kernel: writes the next state into ``out`` and returns it
    with the channel-noise sum and the intensities, both views of ``ws``.

    Works on one state ``(N, dim)`` or a stack ``(..., N, dim)``, with the
    ``_Workspace`` of its leading shape and ``out`` of its shape.  ``row_sums``
    holds each node's row sum broadcastable against ``x``: ``(..., N, 1)``,
    or ``x``'s own shape, which spares the multiply a broadcast.
    ``z[..., i, :]`` is receiver i's N(0, I/dim) channel draw.  The pair
    norms come from the dim-leading differences ``x_i - x_j``, squared in
    place and summed over ``d`` in index order.
    The consensus term is ``a @ x - row_sums * x`` and the noise sum is
    ``||w_i|| z_i`` with ``w = a * psi``, which has the law of
    ``sum_j w_ij xi_ji``; ``psi`` is symmetric, so ``w`` pairs each weight
    with its channel's intensity.  Every contraction is per slice, so the
    arithmetic of one replication does not depend on how many replications
    share the stack.
    """
    xt = x.transpose(ws.axes)
    # x_j[d] into row i, then x_i[d] minus it: numpy buffers each broadcast
    # operand of a call, so one per call keeps that buffer to one operand's.
    sq = ws.diff
    np.copyto(sq, xt[..., None, :])
    np.subtract(xt[..., :, None], sq, out=sq)
    np.multiply(sq, sq, out=sq)
    norm_sq = ws.diff_d[0]
    for sq_d in ws.diff_d[1:]:
        norm_sq = np.add(norm_sq, sq_d, out=ws.psi)
    psi = model.psi_values(np.sqrt(norm_sq, out=ws.psi), out=ws.psi)
    w = np.multiply(a, psi, out=ws.a_psi)
    np.sqrt(_einsum("...ij,...ij->...i", w, w, out=ws.row_norm), out=ws.row_norm)
    np.multiply(ws.row_norm_col, z, out=ws.noise)
    consensus = np.matmul(a, x, out=ws.consensus)
    np.subtract(consensus, np.multiply(row_sums, x, out=ws.term), out=consensus)
    np.add(consensus, ws.noise, out=consensus)
    np.add(x, np.multiply(consensus, c_k, out=consensus), out=out)
    np.subtract(out, np.multiply(d_plus_zeta, alpha_k, out=ws.term), out=out)
    return out, ws.noise, psi


def _recursion_gap(delta, a, row_sums, alpha_k, c_k, noise, zeta, d_stack, x_new):
    """Norm of the gap between the recursive and the direct consensus error.

    ``delta`` is the centred state before the step, ``row_sums`` the
    kernel's, ``noise`` its channel-noise sum and ``x_new`` its next state.
    """
    lap_delta = row_sums * delta - a @ delta
    noise_in = c_k * noise
    if zeta is not None:
        noise_in = noise_in - alpha_k * zeta
    gap = (delta - c_k * _center(lap_delta) + _center(noise_in)
           - alpha_k * _center(d_stack) - _center(x_new))
    return np.sqrt((gap * gap).sum(axis=(-2, -1)))


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


class _StepBuffers:
    """The step buffers of one batch, ``span`` steps long and step-major:
    every operand of step t is the contiguous ``(reps, ...)`` block at
    index t.  ``hist`` holds a sub-span's states and the state after it."""

    def __init__(self, span, reps, n_nodes, dim, has_zeta):
        node_steps = (span, reps, n_nodes, dim)
        self.graphs = np.empty((span, reps, n_nodes, n_nodes))
        self.row_sums = np.empty((span, reps, n_nodes))
        # The row sums broadcast to the states' shape once per sub-span, so
        # that the kernel's multiply takes same-shape operands.
        self.row_sums_x = np.empty(node_steps)
        # Receiver i's channel draw of step t: z_chan[t, r, i], N(0, I/dim).
        self.z_chan = np.empty(node_steps)
        # One replication's channel draws: standard_normal fills only a
        # contiguous ``out``.
        self.z_rep = np.empty((span, n_nodes, dim))
        self.hist = np.empty((span + 1, reps, n_nodes, dim))
        self.centred = np.empty(node_steps)
        self.means = np.empty((span, reps, 1, dim))
        self.d_hist = np.empty(node_steps)
        self.psi_max = np.empty((span, reps))
        if has_zeta:
            # Raw gradient-noise draws, each step's z_t then v_t, and the
            # noise factors formed from their step-major copies.
            self.zv_draws = np.empty((reps, span, n_nodes * dim + n_nodes))
            self.z_steps, self.u, self.uv = (np.empty(node_steps) for _ in range(3))
            self.v_steps = np.empty((span, reps, n_nodes))


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

    graph_keys, comm_gen, grad_gen, states = [], [], [], []
    for rep in rep_indices:
        init_ss, g_ss, c_ss, z_ss = replication_stream(seed, rep).spawn(4)
        graph_keys.append(_stream_key(g_ss))
        comm_gen.append(np.random.default_rng(c_ss))
        grad_gen.append(np.random.default_rng(z_ss))
        states.append(init.draw(np.random.default_rng(init_ss), n_nodes, dim))
    graph_keys, graph_state = np.stack(graph_keys), None

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

    # Each 1024-step chunk is walked in sub-spans of at most ``span`` steps;
    # the kernel writes each next state into ``hist`` and its temporaries
    # into ``ws``, and the objective writes its measurement into the
    # workspace that its ``workspace(lead)`` returns.
    span = min(_sub_span(reps, n_nodes, dim, has_zeta), max(horizon, 1))
    bufs = _StepBuffers(span, reps, n_nodes, dim, has_zeta)
    graphs, row_sums, row_sums_x = bufs.graphs, bufs.row_sums, bufs.row_sums_x
    z_chan, z_rep, hist, d_hist = bufs.z_chan, bufs.z_rep, bufs.hist, bufs.d_hist
    centred, means, psi_max = bufs.centred, bufs.means, bufs.psi_max
    hist[0] = np.stack(states)
    ws = _Workspace((reps,), n_nodes, dim)
    obj_ws = objective.workspace((reps,))
    z_scale = 1.0 / np.sqrt(dim)
    if has_zeta:
        u, uv = bufs.u, bufs.uv
        z_draws = bufs.zv_draws[..., :n_nodes * dim].reshape(reps, span, n_nodes, dim)
        v_draws = bufs.zv_draws[..., n_nodes * dim:]
        d_plus_zeta = np.empty((reps, n_nodes, dim))

    def observe(k0, hist, d_hist=None, psi_max=None):
        """Check and record the states ``hist`` before steps k0, k0+1, ...
        and monitor the bounds on the same steps' subgradients ``d_hist`` and
        largest intensities ``psi_max``."""
        count = hist.shape[0]
        s_sq = _check_divergence(hist, k0, rep_indices)
        xc = _center(hist, out=centred[:count], mean=means[:count])
        v = np.einsum("trnd,trnd->tr", xc, xc)
        rows = np.flatnonzero(record_mask[k0:k0 + count])
        slots = rec_slot[k0 + rows]
        x_rec = hist[rows]
        xbar = means[rows][:, :, 0]
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

    def advance(t, k, alpha_k, c_k):
        """Step k, the t-th of its sub-span: the measurement, the kernel, the
        psi maximum and, on check steps, the recursion check."""
        x = hist[t]
        if has_zeta:
            d_stack, zeta = objective.subgradient_stack(x, (u[t], uv[t]), out=d_hist[t],
                                                        ws=obj_ws)
            step_src = np.add(d_stack, zeta, out=d_plus_zeta)
        else:
            zeta = None
            d_stack = step_src = objective.subgradient_stack(x, out=d_hist[t], ws=obj_ws)
        x_new, noise, psi = _step(x, graphs[t], row_sums_x[t], alpha_k, c_k, model,
                                  z_chan[t], step_src, ws, hist[t + 1])
        np.maximum.reduce(psi, axis=(1, 2), out=psi_max[t])
        if check_stride and k % check_stride == 0:
            disc = _recursion_gap(_center(x), graphs[t], row_sums_x[t], alpha_k, c_k,
                                  noise, zeta, d_stack, x_new)
            np.maximum(out["recursion_max"], disc, out=out["recursion_max"])

    # A floating-point error interrupts a step; unless a state has diverged by
    # then, the step is redone under the caller's error handling and warns.
    fp_modes = np.geterr()
    k = 0
    while k < horizon:
        chunk = min(_CHUNK, horizon - k)
        chunk_ks = np.arange(k, k + chunk)
        alphas = schedule.alpha(chunk_ks).tolist()
        cs = schedule.c(chunk_ks).tolist()
        for t0 in range(0, chunk, span):
            k0, s = k + t0, min(span, chunk - t0)
            _, graph_state = process.sample_block(graph_keys, k0, s, state=graph_state,
                                                  out=graphs[:s].swapaxes(0, 1))
            graphs[:s].sum(axis=3, out=row_sums[:s])
            np.copyto(row_sums_x[:s], row_sums[:s, ..., None])
            for r, g in enumerate(comm_gen):
                g.standard_normal(out=z_rep[:s])
                np.multiply(z_rep[:s], z_scale, out=z_chan[:s, r])
            if has_zeta:
                for r, g in enumerate(grad_gen):
                    g.standard_normal(out=bufs.zv_draws[r, :s])
                np.copyto(bufs.z_steps[:s], z_draws[:, :s].swapaxes(0, 1))
                np.copyto(bufs.v_steps[:s], v_draws[:, :s].swapaxes(0, 1))
                objective.noise_factors(bufs.z_steps[:s], bufs.v_steps[:s],
                                        out=(u[:s], uv[:s]))
            with np.errstate(divide="raise", over="raise", invalid="raise"):
                for t in range(s):
                    try:
                        advance(t, k0 + t, alphas[t0 + t], cs[t0 + t])
                    except FloatingPointError:
                        _check_divergence(hist[:t + 1], k0, rep_indices)
                        with np.errstate(**fp_modes):
                            advance(t, k0 + t, alphas[t0 + t], cs[t0 + t])
            observe(k0, hist[:s], d_hist[:s], psi_max[:s])
            hist[0] = hist[s]
        k += chunk

    observe(horizon, hist[:1])
    return out


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
               for key in parts[0] if key != "ks"}

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
