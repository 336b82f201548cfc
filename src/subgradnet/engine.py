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
call it, and the tests keep a per-node loop, the stacked compact matrix form
and the einsum form as its references.  A step's numpy calls each take a few
hundred values, where the fixed price of a call and the interpreter's lookups
cost more than the arithmetic, so the kernel and the objective's measurement
are bound once per batch: closures over buffers allocated once, views,
ufuncs and constants, with every ``out`` positional where numpy allows.
The Monte Carlo loop walks the horizon in sub-spans sized by a byte budget
for the step buffers (1 to 1024 steps); every stream is read in step order,
so the draws of a sub-span are the same numbers whatever its length.  The
buffers are step-major: each operand of a step is one contiguous block over
the replications, because numpy takes three to six times longer on a
strided or broadcast operand of a few hundred values than on a contiguous
one.  Per step the loop makes only the measurement, the kernel call, from 8
nodes the psi maximum and, on check steps, the recursion check.  Once per
sub-span it takes a slot of the sub-span's draws, below 8 nodes takes each
step's psi maximum from the kernel's kept intensities, checks the states for
divergence, records them and evaluates the psi and d monitors.  No reduction
over an axis of a few values runs per step: numpy pays such a reduction per
output row, not per value.

The draws do not depend on the states: per sub-span the gains, all
replications' graphs in one call, each replication's channel and gradient
noise in one call per stream, the graphs' row sums, the scaled channel draws
and the noise factors.  One object, ``_Draws``, owns a batch's draws: their
streams, the scratch they are made in and the slots that hold them, which a
forked producer may fill one sub-span ahead of the parent; the outputs do not
depend on which process draws them.

Randomness is organized as one stream per replication, split into disjoint
sub-streams for initial states, graph draws, channel noise and gradient noise,
so the noises are independent of the graph realization by construction and
every replication is reproducible in isolation, regardless of batching or
worker count.
"""

import contextlib
import functools
import math
import mmap
import time
import warnings
from dataclasses import dataclass, field

import numpy as np

from . import forked
from .errors import DivergenceDetected
from .graphs import _stream_key

# Most steps per sub-span.  Every stream is read in step order, so outputs
# do not depend on it.
_CHUNK = 1024

# Bytes one batch holds for a sub-span: its slots of draws (two while a
# producer runs, else one), the scratch of the draws, its step buffers and
# the temporaries of ``observe``; sets the sub-span the horizon is walked in.
# Outputs do not depend on it.  Each sub-span pays a fixed cost per
# replication for its graph and noise draws: at 2 MiB that cost took 5-7% of
# the shipped configs' Monte Carlo time, at 4 MiB about half that.
_BUDGET_BYTES = 4 << 20

_DIVERGENCE_NORM_SQ = 1e24

# Below this many nodes the kernel's intensities are kept for one maximum
# per sub-span: a per-step maximum over fewer than 64 values per replication
# costs mostly numpy's fixed price per row.  From about 10 nodes the
# per-step maximum costs less than streaming the intensities through a
# sub-span buffer that also halves the sub-span (at 50 nodes, 4 reps: 126
# against 131 us per step); at 8 nodes the two cost about the same.
_PSI_KEPT_BELOW = 8

# The C routine behind ``np.einsum``, which calls it unchanged when it does
# not optimize; called directly it saves half of a small einsum's 4 us.
try:
    from numpy._core.multiarray import c_einsum as _einsum
except ImportError:  # pragma: no cover - numpy without this private module
    _einsum = np.einsum


def _step_bytes(reps, n_nodes, dim, has_zeta, slots):
    """Bytes one batch holds per step of a sub-span: ``slots`` slots of
    ``_DrawSlot`` and the scratch of ``_Draws``, the buffers of
    ``_StepBuffers``, and the copy of the recorded states that ``observe``
    makes with up to two temporaries of its size."""
    # Per replication: a slot's graphs, broadcast row sums and channel draws
    # (and noise factors); the scratch's row sums and normals (and gradient
    # draws); the states, centred states, subgradients, observe's three,
    # node means, psi maximum and kept intensities.
    slot = n_nodes * n_nodes + 2 * n_nodes * dim
    scratch = n_nodes + n_nodes * dim
    own = 6 * n_nodes * dim + dim + 1
    if n_nodes < _PSI_KEPT_BELOW:
        own += n_nodes * n_nodes
    if has_zeta:
        slot += 2 * n_nodes * dim
        scratch += n_nodes * dim + n_nodes
    # and the two gains of each slot.
    return 8 * (reps * (slots * slot + scratch + own) + 2 * slots)


def _sub_span(reps, n_nodes, dim, has_zeta, slots):
    """Steps per sub-span of a batch that holds ``slots`` slots of draws: as
    many as the byte budget holds, 1 to _CHUNK."""
    return max(1, min(_CHUNK, _BUDGET_BYTES // _step_bytes(reps, n_nodes, dim,
                                                           has_zeta, slots)))


def _center(states, out=None, mean=None):
    """Deviation of each node from the node average, over axis -2; the
    average goes to ``mean``, shaped like ``states[..., :1, :]``, when given.

    With more than one value per node, numpy's axis -2 sum and the einsum
    ``...nd->...d`` both start from 0.0 and add the nodes in index order, so
    they agree bit for bit, and the einsum costs one call where the strided
    reduction pays per output row.  With one value per node numpy sums the
    nodes pairwise, so that case keeps its ``sum``.
    """
    n = states.shape[-2]
    total = np.empty(states[..., :1, :].shape) if mean is None else mean
    if states.shape[-1] == 1:
        states.sum(axis=-2, keepdims=True, out=total)
    else:
        _einsum("...nd->...d", states, out=total[..., 0, :])
    total /= n
    return np.subtract(states, total, out=out)


def _row_sums(a, out):
    """``a.sum(axis=-1, out=out)``, bit for bit.

    Below 8 values numpy sums a last axis in index order from 0.0 (so a row
    of -0.0 sums to +0.0), which N - 1 column adds after ``0.0 + a[..., 0]``
    repeat at a quarter or less of the cost of the reduction, whose price is
    per row.  From 8 values numpy sums pairwise, so those keep the ``sum``.
    """
    n = a.shape[-1]
    if n >= 8:
        return a.sum(axis=-1, out=out)
    np.add(a[..., 0], 0.0, out=out)
    for j in range(1, n):
        np.add(out, a[..., j], out=out)
    return out


def _row_max(a, out):
    """``a.max(axis=1, out=out)`` of a 2-D ``a``, bit for bit, by one
    elementwise maximum per column: the reduction's price is per row."""
    cols = a.T
    np.copyto(out, cols[0])
    for col in cols[1:]:
        np.maximum(out, col, out=out)
    return out


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
                                 replication=int(rep_indices[bad]), step=k0 + t,
                                 norm_sq=float(s_sq[t, bad]))
    return s_sq


def _pair_operands(x):
    """The views of states ``x`` that the kernel broadcasts into the pair
    differences, dim-leading: ``x_j[d]`` along each row and ``x_i[d]`` along
    each column."""
    xt = x.transpose((x.ndim - 1,) + tuple(range(x.ndim - 1)))
    return xt[..., None, :], xt[..., :, None]


def _kernel(lead, n_nodes, dim, model):
    """The step kernel for states shaped ``lead + (N, dim)``, with its
    workspace: ``step(x, a, row_sums, alpha_k, c_k, z, d_plus_zeta, out,
    pairs, psi=None)`` writes the next state into ``out`` and the
    intensities of ``model`` into ``psi`` (its own buffer when not given),
    and returns the next state, the channel-noise sum (overwritten by the
    next call) and the intensities.  ``pairs`` is ``_pair_operands(x)``,
    which a caller that steps from the same buffers makes once.

    ``row_sums`` is broadcastable against ``x``: ``(..., N, 1)``, or ``x``'s
    shape, which spares the multiply a broadcast.  ``z[..., i, :]`` is
    receiver i's N(0, I/dim) channel draw.  The pair differences
    ``x_i - x_j`` are dim-leading, so each coordinate's block is contiguous,
    and their squares are summed over ``d`` in index order.  The consensus
    term is ``a @ x - row_sums * x`` and the noise sum is ``||w_i|| z_i``
    with ``w = a * psi``, which has the law of ``sum_j w_ij xi_ji``: ``psi``
    is symmetric, so ``w`` pairs each weight with its channel's intensity.
    Every contraction is per slice, so one replication's arithmetic does not
    depend on how many share the stack.
    """
    diff = np.empty((dim,) + lead + (n_nodes, n_nodes))
    diff_0, diff_rest = diff[0], list(diff[1:])
    own_psi = np.empty(lead + (n_nodes, n_nodes))
    a_psi = np.empty_like(own_psi)
    row_norm = np.empty(lead + (n_nodes,))
    row_norm_col = row_norm[..., None]
    noise = np.empty(lead + (n_nodes, dim))
    consensus = np.empty(lead + (n_nodes, dim))
    term = np.empty_like(consensus)
    psi_values = model.psi_values
    add, subtract, multiply, sqrt = np.add, np.subtract, np.multiply, np.sqrt
    copyto, matmul, einsum = np.copyto, np.matmul, _einsum

    def step(x, a, row_sums, alpha_k, c_k, z, d_plus_zeta, out, pairs, psi=None):
        x_rows, x_cols = pairs
        # x_j[d] into row i, then x_i[d] minus it: numpy buffers each
        # broadcast operand of a call, so one per call keeps that buffer to
        # one operand's.
        copyto(diff, x_rows)
        subtract(x_cols, diff, diff)
        multiply(diff, diff, diff)
        if psi is None:
            psi = own_psi
        norm_sq = diff_0
        for sq_d in diff_rest:
            norm_sq = add(norm_sq, sq_d, psi)
        psi = psi_values(sqrt(norm_sq, psi), psi)
        multiply(a, psi, a_psi)
        sqrt(einsum("...ij,...ij->...i", a_psi, a_psi, out=row_norm), row_norm)
        multiply(row_norm_col, z, noise)
        matmul(a, x, consensus)
        subtract(consensus, multiply(row_sums, x, term), consensus)
        add(consensus, noise, consensus)
        add(x, multiply(consensus, c_k, consensus), out)
        subtract(out, multiply(d_plus_zeta, alpha_k, term), out)
        return out, noise, psi

    return step


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


class _DrawSlot:
    """One sub-span's draws, step-major like the step buffers, in memory that
    a forked producer shares: the gains alpha(k) and c(k), the graphs, their
    row sums broadcast to the states' shape, so that the kernel's multiply
    takes same-shape operands, receiver i's channel draw of step t,
    ``z_chan[t, r, i]``, N(0, I/dim), and with gradient noise the noise
    factors ``u`` and ``uv``.  ``steps`` holds each step's views of them, made
    once: indexing an array would make a new view per step.  The gains go to
    the kernel as 0-d views: numpy converts a Python float operand anew on
    every call, and iterating a row would make copies."""

    def __init__(self, span, reps, n_nodes, dim, has_zeta):
        node_steps = (span, reps, n_nodes, dim)
        shapes = {"gains": (2, span), "graphs": (span, reps, n_nodes, n_nodes),
                  "row_sums_x": node_steps, "z_chan": node_steps}
        if has_zeta:
            shapes.update(u=node_steps, uv=node_steps)
        sizes = [math.prod(shape) for shape in shapes.values()]
        self.mem = mmap.mmap(-1, 8 * sum(sizes))
        offset = 0
        for (name, shape), size in zip(shapes.items(), sizes):
            setattr(self, name, np.frombuffer(self.mem, np.float64, size, offset)
                    .reshape(shape))
            offset += 8 * size
        self.steps = (list(self.graphs), list(self.row_sums_x), list(self.z_chan),
                      [self.gains[0, t, ...] for t in range(span)],
                      [self.gains[1, t, ...] for t in range(span)],
                      list(zip(self.u, self.uv)) if has_zeta else None)


class _StepBuffers:
    """The buffers of one batch's steps, ``span`` steps long and step-major:
    every operand of step t is the contiguous ``(reps, ...)`` block at index
    t.  ``hist`` holds a sub-span's states and the state after it."""

    def __init__(self, span, reps, n_nodes, dim):
        node_steps = (span, reps, n_nodes, dim)
        self.hist = np.empty((span + 1, reps, n_nodes, dim))
        self.centred = np.empty(node_steps)
        self.means = np.empty((span, reps, 1, dim))
        self.d_hist = np.empty(node_steps)
        # Each step's largest intensity per replication and, below
        # _PSI_KEPT_BELOW nodes, the intensities it is taken from.
        self.psi_max = np.empty((span, reps))
        if n_nodes < _PSI_KEPT_BELOW:
            self.psi = np.empty((span, reps, n_nodes, n_nodes))


class _Draws:
    """The draws of a batch's sub-spans ``spans``, ``(k0, s)`` pairs of at
    most ``span`` steps, and all they need: the streams, graph keys, Markov
    state and the channel and gradient generators, each read in step order,
    so a process fills the sub-spans in order, each once; the scratch the
    draws are made in; and the slots that hold them.

    With ``fork`` the batch holds two slots, and a producer forked under the
    protocol of ``forked`` fills sub-span j into slot j % 2, then sends a
    message with the warnings it recorded; from sub-span 2 on it first waits
    for the parent's token that slot j % 2 is free.  Without ``fork`` the
    batch holds one slot; the parent fills slot 0 in line then, and also
    where no process can be had."""

    def __init__(self, objective, process, schedule, streams, span, spans, fork):
        self.objective, self.process, self.schedule = objective, process, schedule
        self.graph_keys, self.comm_gen, self.grad_gen = streams
        self.graph_state, self.spans = None, spans
        reps, n_nodes, dim = len(self.comm_gen), process.n_nodes, objective.dim
        self.slots = [_DrawSlot(span, reps, n_nodes, dim, objective.has_gradient_noise)
                      for _ in range(1 + fork)]
        self.row_sums = np.empty((span, reps, n_nodes))
        # The standard normals, rep-major: standard_normal fills only a
        # contiguous ``out``, and a replication's leading steps are one.
        self.z_rep = np.empty((reps, span, n_nodes, dim))
        self.z_scale = 1.0 / np.sqrt(dim)
        if objective.has_gradient_noise:
            # Raw gradient-noise draws, rep-major, each step's z_t then v_t,
            # and their step-major views, which noise_factors reads in place.
            self.zv_draws = np.empty((reps, span, n_nodes * dim + n_nodes))
            self.z_draws = self.zv_draws[..., :n_nodes * dim].reshape(
                reps, span, n_nodes, dim).swapaxes(0, 1)
            self.v_draws = self.zv_draws[..., n_nodes * dim:].swapaxes(0, 1)
        self._child = forked.start(self._produce, 1) if fork else None
        # When each slot was last handed to the producer.
        self._asked = [time.monotonic()] * 2

    def fill(self, slot, k0, s):
        """Slot ``slot`` with the draws of steps k0 to k0 + s - 1."""
        schedule, step_ks = self.schedule, np.arange(k0, k0 + s)
        slot.gains[0, :s], slot.gains[1, :s] = schedule.alpha(step_ks), schedule.c(step_ks)
        _, self.graph_state = self.process.sample_block(
            self.graph_keys, k0, s, state=self.graph_state, out=slot.graphs[:s].swapaxes(0, 1))
        _row_sums(slot.graphs[:s], self.row_sums[:s])
        np.copyto(slot.row_sums_x[:s], self.row_sums[:s, ..., None])
        for r, g in enumerate(self.comm_gen):
            g.standard_normal(out=self.z_rep[r, :s])
        np.multiply(self.z_rep[:, :s].swapaxes(0, 1), self.z_scale, out=slot.z_chan[:s])
        if self.objective.has_gradient_noise:
            for r, g in enumerate(self.grad_gen):
                g.standard_normal(out=self.zv_draws[r, :s])
            self.objective.noise_factors(self.z_draws[:s], self.v_draws[:s],
                                         out=(slot.u[:s], slot.uv[:s]))

    def _produce(self, child):
        for j, (k0, s) in enumerate(self.spans):
            if j >= 2 and not child.wait():
                return  # the parent is gone
            child.reply(self.fill, self.slots[j % 2], k0, s)

    def take(self, j):
        """Each step's views of the slot that holds sub-span j's draws.  A
        producer lost on the way is killed and reaped; sub-spans 0 to j - 1
        are then replayed into slot 0, which the parent has released by then,
        their warnings ignored, since they were issued, and the draws go on
        in line."""
        if self._child is not None:
            if self._child.receive(self._asked[j % 2])[0]:
                return self.slots[j % 2].steps
            self.close()
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                for k0, s in self.spans[:j]:
                    self.fill(self.slots[0], k0, s)
        self.fill(self.slots[0], *self.spans[j])
        return self.slots[0].steps

    def release(self, j):
        """Hands sub-span j's slot back to the producer for sub-span j + 2."""
        if self._child is not None and j + 2 < len(self.spans):
            self._asked[j % 2] = time.monotonic()
            self._child.token()

    def close(self):
        """Kills and reaps the producer, if one runs."""
        if self._child is not None:
            child, self._child = self._child, None
            child.close()


def _run_batch(objective, process, model, schedule, horizon, seed, rep_indices,
               x_star, f_star, init, record_ks, check_stride, pooled=False):
    """Simulate a batch of replications; per-replication results do not
    depend on how replications are grouped into batches.  ``record_ks`` must
    be strictly increasing (``monte_carlo`` checks it).  ``pooled`` says that
    the batch is one of several, each run by its own process, so it forks no
    draw producer."""
    n_nodes, dim = objective.n_nodes, objective.dim
    if process.n_nodes != n_nodes:
        raise ValueError("objective and graph process disagree on node count")
    reps = len(rep_indices)
    record_ks = np.asarray(record_ks, dtype=np.int64)
    n_rec = record_ks.shape[0]

    graph_keys, comm_gen, grad_gen, states = [], [], [], []
    for rep in rep_indices:
        init_ss, g_ss, c_ss, z_ss = replication_stream(seed, rep).spawn(4)
        graph_keys.append(_stream_key(g_ss))
        comm_gen.append(np.random.default_rng(c_ss))
        grad_gen.append(np.random.default_rng(z_ss))
        states.append(init.draw(np.random.default_rng(init_ss), n_nodes, dim))

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

    sd, cd = float(np.max(objective.sigma_d)), float(np.max(objective.c_d))
    sd_sq, cd_sq = sd * sd, cd * cd
    has_zeta = objective.has_gradient_noise

    # The draws are forked when the batch is not pooled, a CPU is left idle and
    # the horizon is longer than one two-slot sub-span.  Sub-spans of at most
    # ``span`` steps are sized for the slots held; steps write into ``hist``.
    shape = (reps, n_nodes, dim, has_zeta)
    fork = not pooled and forked.may_fork(1) and horizon > _sub_span(*shape, 2)
    span = min(_sub_span(*shape, 1 + fork), max(horizon, 1))
    spans = [(k0, min(span, horizon - k0)) for k0 in range(0, horizon, span)]
    bufs = _StepBuffers(span, reps, n_nodes, dim)
    hist, d_hist = bufs.hist, bufs.d_hist
    centred, means, psi_max = bufs.centred, bufs.means, bufs.psi_max
    keep_psi = n_nodes < _PSI_KEPT_BELOW
    hist[0] = np.stack(states)
    step = _kernel((reps,), n_nodes, dim, model)
    measure, obj_ws = objective.subgradient_stack, objective.workspace((reps,))
    # Each step's slot of every step buffer, as a view made once: indexing
    # the buffer would make a new view per step.
    hist_t, d_t, psi_max_t = list(hist), list(d_hist), list(psi_max)
    psi_t = list(bufs.psi) if keep_psi else [None] * span
    pairs_t = [_pair_operands(x) for x in hist_t[:span]]
    if has_zeta:
        d_plus_zeta = np.empty((reps, n_nodes, dim))

    def observe(k0, hist, d_hist=None, psi_max=None):
        """Check and record the states ``hist`` before steps k0, k0+1, ...
        and monitor the bounds on the same steps' subgradients ``d_hist`` and
        largest intensities ``psi_max``."""
        count = hist.shape[0]
        s_sq = _check_divergence(hist, k0, rep_indices)
        xc = _center(hist, out=centred[:count], mean=means[:count])
        v = np.einsum("trnd,trnd->tr", xc, xc)
        slots = slice(*np.searchsorted(record_ks, (k0, k0 + count)))
        rows = record_ks[slots] - k0
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
            psi_bound = 4.0 * model.sigma * model.sigma * v + 2.0 * model.b * model.b
            d_bound = 2.0 * sd_sq * s_sq + 2.0 * n_nodes * cd_sq
            d_sq = np.einsum("trnd,trnd->tr", d_hist, d_hist)
            out["psi_violation"] = np.maximum(out["psi_violation"],
                                              (psi_max ** 2 - psi_bound).max(axis=0))
            out["d_violation"] = np.maximum(out["d_violation"],
                                            (d_sq - d_bound).max(axis=0))

    def advance(t, k, alpha_k, c_k):
        """Step k, the t-th of its sub-span: the measurement, the kernel, from
        _PSI_KEPT_BELOW nodes the psi maximum and, on check steps, the
        recursion check."""
        x = hist_t[t]
        if has_zeta:
            d_stack, zeta = measure(x, factors_t[t], d_t[t], obj_ws)
            step_src = np.add(d_stack, zeta, d_plus_zeta)
        else:
            zeta = None
            d_stack = step_src = measure(x, d_t[t], obj_ws)
        x_new, noise, psi = step(x, graphs_t[t], rows_t[t], alpha_k, c_k, z_t[t], step_src,
                                 hist_t[t + 1], pairs_t[t], psi_t[t])
        if not keep_psi:
            np.maximum.reduce(psi, axis=(1, 2), out=psi_max_t[t])
        if check_stride and k % check_stride == 0:
            disc = _recursion_gap(_center(x), graphs_t[t], rows_t[t], alpha_k, c_k,
                                  noise, zeta, d_stack, x_new)
            np.maximum(out["recursion_max"], disc, out=out["recursion_max"])

    draws = _Draws(objective, process, schedule, (np.stack(graph_keys), comm_gen, grad_gen),
                   span, spans, fork)
    # A floating-point error interrupts a step; unless a state has diverged by
    # then, the step is redone under the caller's error handling and warns.
    fp_modes = np.geterr()
    try:
        for j, (k0, s) in enumerate(spans):
            graphs_t, rows_t, z_t, alpha_t, c_t, factors_t = draws.take(j)
            with np.errstate(divide="raise", over="raise", invalid="raise"):
                for t in range(s):
                    try:
                        advance(t, k0 + t, alpha_t[t], c_t[t])
                    except FloatingPointError:
                        _check_divergence(hist[:t + 1], k0, rep_indices)
                        with np.errstate(**fp_modes):
                            advance(t, k0 + t, alpha_t[t], c_t[t])
            draws.release(j)
            if keep_psi:
                _row_max(bufs.psi[:s].reshape(s * reps, -1), psi_max[:s].reshape(-1))
            observe(k0, hist[:s], d_hist[:s], psi_max[:s])
            hist[0] = hist[s]
    finally:
        draws.close()

    observe(horizon, hist[:1])
    return out


def _first_divergence(errors):
    """Of the batches' divergences, the one a single batch of all their
    replications raises: the earliest step and, at that step, the
    replication ``_check_divergence`` names, NaN first, then the largest
    squared norm, then the lowest index."""
    def rank(exc):
        nan = np.isnan(exc.norm_sq)
        return exc.step, not nan, 0.0 if nan else -exc.norm_sq, exc.replication
    return min(errors, key=rank)


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
    per_rep: dict = field(default=None, repr=False)


def monte_carlo(objective, process, model, schedule, horizon, seed, reps,
                x_star, f_star, init=None, record_ks=None, check_stride=0,
                workers=1):
    """Aggregate recorded metrics over independent replications.

    Replications are deterministic per (seed, index).  With ``workers`` > 1
    the parent runs the first of that many parts and ``forked.call`` runs each
    other one in a child, whatever the CPU count, which answers with its result
    or divergence; a part left without an answer runs in line, to the same bytes.
    Per-replication trajectories are identical for any worker count, and the
    reduction runs over the replication axis in index order, so aggregates
    and the divergence reported match across worker counts.
    """
    if reps < 1:
        raise ValueError("reps must be at least 1")
    if init is None:
        init = InitialStates()
    record_ks = np.asarray(default_record_ks(horizon) if record_ks is None else record_ks)
    if not (record_ks.ndim == 1 and record_ks.size and record_ks.dtype.kind in "iu"
            and record_ks[0] >= 0 and record_ks[-1] <= horizon
            and np.all(record_ks[1:] > record_ks[:-1])):
        raise ValueError("record_ks must be a nonempty, strictly increasing array of "
                         f"integer steps within [0, horizon={horizon}]")
    record_ks = record_ks.astype(np.int64, copy=False)

    parts = np.array_split(np.arange(reps), max(1, min(workers, reps)))
    batch = functools.partial(_run_batch, objective, process, model, schedule, horizon, seed,
                              x_star=x_star, f_star=f_star, init=init, record_ks=record_ks,
                              check_stride=check_stride, pooled=len(parts) > 1)
    results, diverged = [], []
    with contextlib.ExitStack() as stack:
        others = [stack.enter_context(forked.call(batch, p, workers=0)) for p in parts[1:]]
        for answer in [functools.partial(batch, parts[0])] + [c.result for c in others]:
            try:
                results.append(answer())
            except DivergenceDetected as exc:
                diverged.append(exc)
    if diverged:
        raise _first_divergence(diverged)

    per_rep = {key: np.concatenate([p[key] for p in results], axis=0)
               for key in results[0] if key != "ks"}

    std_v = per_rep["V"].std(axis=0, ddof=1) if reps > 1 else np.zeros(record_ks.shape[0])

    return MonteCarloResult(
        record_ks=record_ks, reps=reps,
        mean_v=per_rep["V"].mean(axis=0),
        std_v=std_v,
        mean_opt_gap=per_rep["opt_gap"].mean(axis=0),
        mean_dist_to_opt=per_rep["dist"].mean(axis=0),
        mean_state_sq=per_rep["state_sq"].mean(axis=0),
        mean_stack_dsq=per_rep["stack_dsq"].mean(axis=0),
        final_dists=per_rep["dist"][:, -1].copy(),
        psi_violation_max=float(per_rep["psi_violation"].max()),
        d_violation_max=float(per_rep["d_violation"].max()),
        recursion_max=float(per_rep["recursion_max"].max()),
        per_rep=per_rep,
    )
