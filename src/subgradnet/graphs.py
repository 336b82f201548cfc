"""Random digraph sequences and their spectral/connectivity diagnostics.

Adjacency matrices follow the receiver-row convention: entry ``A[i, j]`` is
the weight a node ``i`` places on what it hears from node ``j`` (the channel
``j -> i``).  Weights may be negative; diagonals are always zero.  Two
process families generate adjacency sequences: an independent per-step
edge-activation model and a finite-state Markov switching model.  A
deterministic cycle is the Markov chain that starts at its first matrix and
moves one matrix on at every step, so it samples, reports and is checked
along the Markov path.

Sampling is counter-addressed: the matrix drawn at step ``k`` depends only on
the process, the stream seed and ``k``, so blocks can be regenerated from any
starting index and replications can run concurrently.  For a ``(K, 2)`` key
stack one ``sample_block`` call fills a ``(K, count, N, N)`` ``out`` as K calls would.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import NonSymmetricError, NoStationaryDistributionError

# Steps per counter-addressed draw block.  Each block of step indices owns one
# value of the Philox counter's block word, so step k's draw is independent of
# how sampling calls are batched.
CHUNK = 1024

_BALANCE_TOL = 1e-9


def validate_adjacency(weights):
    """Validate and return a generalized weighted adjacency matrix.

    Requires a square matrix with at least two nodes, finite entries and an
    exactly zero diagonal.  Negative off-diagonal weights are allowed.
    """
    a = np.asarray(weights, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"adjacency matrix must be square, got shape {a.shape}")
    if a.shape[0] < 2:
        raise ValueError("adjacency matrix needs at least 2 nodes")
    if not np.all(np.isfinite(a)):
        raise ValueError("adjacency matrix entries must be finite")
    if np.any(np.diag(a) != 0.0):
        raise ValueError("adjacency diagonal entries must be exactly zero")
    return a


def laplacian(adjacency):
    """Generalized Laplacian: off-diagonal -a_ij, diagonal sum_{j!=i} a_ij.

    Every row sums to zero, so L @ 1 = 0 regardless of weight signs.  Leading
    axes index a stack of matrices.
    """
    a = np.asarray(adjacency, dtype=float)
    lap = -a
    idx = np.arange(a.shape[-1])
    lap[..., idx, idx] = a.sum(axis=-1) - np.diagonal(a, axis1=-2, axis2=-1)
    return lap


def symmetrized_laplacian(lap):
    """Symmetric part (L + L^T) / 2 of each matrix; exact on symmetric input."""
    lap = np.asarray(lap, dtype=float)
    return (lap + np.swapaxes(lap, -1, -2)) / 2.0


def lambda2(matrix, tol=1e-10):
    """Second smallest eigenvalue of a real symmetric matrix.

    Asymmetry up to ``tol`` (max absolute entry of M - M^T) is repaired by
    symmetrizing; anything larger raises :class:`NonSymmetricError`.
    """
    m = np.asarray(matrix, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1] or m.shape[0] < 2:
        raise ValueError(f"lambda2 needs a square matrix with N >= 2, got {m.shape}")
    asym = float(np.max(np.abs(m - m.T)))
    if asym > tol:
        raise NonSymmetricError(f"asymmetry {asym:.3e} exceeds tolerance {tol:.3e}")
    eigvals = np.linalg.eigvalsh((m + m.T) / 2.0)
    return float(eigvals[1])


def is_balanced(adjacency, tol=_BALANCE_TOL):
    """True when every node's in-weight sum matches its out-weight sum.

    Balance makes the node average invariant under the consensus map
    (the all-ones row vector annihilates the Laplacian).
    """
    if tol <= 0:
        raise ValueError("balance tolerance must be positive")
    a = np.asarray(adjacency, dtype=float)
    gap = np.abs(a.sum(axis=1) - a.sum(axis=0))
    return bool(np.max(gap) <= tol)


def _as_seed_sequence(seed):
    if isinstance(seed, np.random.SeedSequence):
        return seed
    return np.random.SeedSequence(seed)


def _stream_key(stream):
    """Philox key of a stream: a seed or ``SeedSequence``, or a key this
    function returned, which passes through, so repeated draws of one stream
    can derive it once."""
    if isinstance(stream, np.ndarray) and stream.dtype == np.uint64:
        return stream
    return _as_seed_sequence(stream).generate_state(2, np.uint64)


def _counter_uniforms(key, k_start, count, shape, slabs=1, out=None):
    """Uniforms of steps [k_start, k_start + count) of a keyed Philox stream.

    Step k lives in block ``k // CHUNK``, the third word of the Philox
    counter.  Each block holds ``slabs`` consecutive slabs of ``CHUNK * size``
    words, ``size`` the product of the step ``shape`` tuple, and step k owns
    ``size`` words of every slab, at offset ``(k % CHUNK) * size``.  Each draw
    starts at the counter of its first needed word, so only the requested
    rows are generated; a word w becomes the double ``(w >> 11) * 2**-53``, as
    ``Generator.random`` makes it.  One generator serves every draw,
    re-pointed by assigning its state.  ``key`` may be a stack, ``(..., 2)``.
    Fills and returns ``out``, by default a new array with ``slabs`` rows; a
    given ``out`` holds one ``(K, count, *shape)`` array of any strides per
    slab for a ``(K, 2)`` stack, or one ``(count, *shape)`` array for one key.
    """
    keys, size = key.reshape(-1, 2), math.prod(shape)
    out = np.empty((slabs, *key.shape[:-1], count, *shape)) if out is None else out
    rows = [o.reshape(len(keys), count, *shape) for o in out]  # views of ``out``
    bits, pos = None, 0
    while pos < count:
        block, lo = divmod(k_start + pos, CHUNK)
        take = min(CHUNK - lo, count - pos)
        for s in range(len(rows)):
            first = (s * CHUNK + lo) * size
            counter = [first // 4, 0, block, 0]
            for j, kj in enumerate(keys):
                if bits is None:
                    bits = np.random.Philox(counter=counter, key=kj)
                else:  # a seventh of the cost of a new generator
                    bits.state = {"bit_generator": "Philox", "buffer": [0] * 4,
                                  "state": {"counter": counter, "key": kj},
                                  "buffer_pos": 4, "has_uint32": 0, "uinteger": 0}
                # Philox emits four words per counter value.
                words = bits.random_raw(first % 4 + take * size)[first % 4:]
                np.multiply(np.right_shift(words, 11, out=words).reshape((take, *shape)),
                            2.0 ** -53, out=rows[s][j, pos:pos + take])
        pos += take
    return out


class IndependentEdges:
    """Independent per-step graph: Bernoulli edge activation on a base matrix.

    Each step, channel (j -> i) is active with probability ``prob[i, j]`` and
    carries weight ``base[i, j]`` plus an optional zero-mean uniform
    perturbation of half-width ``perturb[i, j]``.  The per-step mean adjacency
    is ``prob * base`` exactly, so a nonnegative balanced base with symmetric
    activation probabilities keeps the conditional mean graph balanced.
    Perturbation half-widths larger than the base weight produce occasional
    negative realized weights while leaving the mean untouched.
    """

    def __init__(self, base, prob, perturb=0.0):
        self.base = validate_adjacency(base)
        n = self.base.shape[0]
        self.n_nodes = n
        self.prob = np.broadcast_to(np.asarray(prob, dtype=float), (n, n)).copy()
        np.fill_diagonal(self.prob, 0.0)
        if not np.all((self.prob >= 0) & (self.prob <= 1)):
            raise ValueError("activation probabilities must lie in [0, 1]")
        self.perturb = np.broadcast_to(np.asarray(perturb, dtype=float), (n, n)).copy()
        np.fill_diagonal(self.perturb, 0.0)
        if not np.all((self.perturb >= 0) & np.isfinite(self.perturb)):
            raise ValueError("perturbation half-widths must be finite and nonnegative")
        self._has_perturb = bool(np.any(self.perturb > 0))
        # No sign bit or perturbation: active * base gives np.where's bits, no temporary.
        self._mask_product = not (self._has_perturb or np.signbit(self.base).any())

    def sample_block(self, stream, k_start, count, state=None, out=None):
        """A ``(K, 2)`` stack of keys as ``stream`` gives K blocks, ``(K, count, N, N)``."""
        key = _stream_key(stream)
        if out is None:
            out = np.empty(key.shape[:-1] + (count,) + self.prob.shape)
        # The activation uniforms are drawn into ``out``; the weights overwrite them.
        draws = _counter_uniforms(key, k_start, count, self.prob.shape, out=(
            (out, np.empty_like(out)) if self._has_perturb else (out,)))
        # The diagonal never fires: its probability and half-width are zero.
        if self._mask_product:  # 1.0 or 0.0, times the weight
            return np.multiply(np.less(out, self.prob, out=out), self.base, out=out), None
        active = np.less(out, self.prob)
        out[...] = np.where(active, self.base, 0.0)
        if self._has_perturb:
            out += np.where(active, (2.0 * draws[1] - 1.0) * self.perturb, 0.0)
        return out, None

    def mean_adjacency(self):
        return self.prob * self.base

    def expected_active_channels(self):
        can_fire = (self.base != 0) | (self.perturb > 0)
        return float(self.prob[can_fire].sum())


def _cumulative(probs):
    """Cumulative probabilities along the last axis, +inf from each row's
    last positive entry on.

    Rows sum to 1 only within tolerance, so a uniform can reach a row's last
    finite total; the +inf sends it to the last state the row can select
    instead of one past the end.  Uniforms below that total are unaffected.
    """
    cum = np.cumsum(probs, axis=-1)
    m = probs.shape[-1]
    last = m - 1 - np.argmax(probs[..., ::-1] > 0, axis=-1)
    cum[np.arange(m) >= np.expand_dims(last, -1)] = np.inf
    return cum


def _walk_chain(cum_rows, state, uniforms):
    """Markov chain states driven by one uniform per step, from ``state``.

    Step k moves to the number of entries of the current cumulative
    transition row that are ``<= u[k]``, the index ``np.searchsorted(row, u,
    side="right")`` gives, tabulated for every (step, chain, state) at once.
    Chains stack, ``uniforms`` ``(..., T)`` from states ``(...)``, and walk
    together, one fancy index per step.
    """
    lead, chains = uniforms.shape[:-1], math.prod(uniforms.shape[:-1])
    u = uniforms.reshape(chains, uniforms.shape[-1]).T
    table = np.stack([np.searchsorted(row, u, side="right") for row in cum_rows], axis=-1)
    s, which = np.broadcast_to(state, lead).reshape(-1), np.arange(chains)
    path = np.empty(u.shape, dtype=np.int64)
    for t, next_state in enumerate(table):
        s = path[t] = next_state[which, s]
    return path.T.reshape(lead + (len(path),))


class MarkovSwitching:
    """Finite-state Markov chain over a list of adjacency matrices.

    The state path is counter-addressed: uniform draw 0 selects the initial
    state and draw k (k >= 1) drives the transition into step k, so the path
    is a pure function of (seed, step index).
    """

    def __init__(self, states, transition, initial=None):
        mats = [validate_adjacency(m) for m in states]
        if not mats:
            raise ValueError("need at least one state")
        n = mats[0].shape[0]
        if any(m.shape[0] != n for m in mats):
            raise ValueError("all Markov states must have the same node count")
        self.states = np.stack(mats)
        self.n_nodes = n
        t = np.asarray(transition, dtype=float)
        m = len(mats)
        if t.shape != (m, m):
            raise ValueError(f"transition matrix must be {m}x{m}, got {t.shape}")
        if not (np.all(t >= 0) and np.max(np.abs(t.sum(axis=1) - 1.0)) <= _BALANCE_TOL):
            raise ValueError("transition matrix rows must be nonnegative and sum to 1")
        self.transition = t
        if initial is None:
            initial = np.full(m, 1.0 / m)
        self.initial = np.asarray(initial, dtype=float)
        if self.initial.shape != (m,) or not (np.all(self.initial >= 0) and
                                                abs(self.initial.sum() - 1.0) <= _BALANCE_TOL):
            raise ValueError("initial distribution must be a probability vector")
        # Row m is the initial distribution: a walk from state m draws the start.
        self._cum_rows = _cumulative(np.vstack([t, self.initial]))

    def sample_state_path(self, stream, count, k_start=0, state=None):
        """State indices for steps [k_start, k_start + count).

        ``state`` is the chain state at step ``k_start - 1``; when omitted the
        path is replayed from step 0 (drawing the initial state first).  Key
        stacks ``(K, 2)`` give ``(K, count)`` paths from ``(K,)`` states.
        """
        key = _stream_key(stream)
        if state is None:
            u = _counter_uniforms(key, 0, k_start + count, (1,))[0, ..., 0]
            return _walk_chain(self._cum_rows, len(self.states), u)[..., k_start:]
        if k_start < 1:
            raise ValueError("an explicit chain state requires k_start >= 1")
        u = _counter_uniforms(key, k_start, count, (1,))[0, ..., 0]
        return _walk_chain(self._cum_rows[:-1], state, u)  # no start state m here

    def sample_block(self, stream, k_start, count, state=None, out=None):
        """The block and its last state, ``(K,)`` for a key stack (``state`` if no steps)."""
        path = self.sample_state_path(stream, count, k_start=k_start, state=state)
        return np.take(self.states, path, axis=0, out=out), path[..., -1] if count else state

    def stationary_distribution(self, tol=1e-9):
        """Solve pi T = pi, sum pi = 1; requires a unique solution.

        Raises :class:`NoStationaryDistributionError` when T^T - I has more
        than one vanishing singular value (reducible chain) relative to tol.
        """
        m = self.transition.shape[0]
        a = self.transition.T - np.eye(m)
        svals = np.linalg.svd(a, compute_uv=False)
        scale = max(svals[0], 1.0)
        if m > 1 and svals[-2] <= tol * scale:
            raise NoStationaryDistributionError(
                "stationary distribution is not unique (chain is reducible)")
        sys = np.vstack([a, np.ones((1, m))])
        rhs = np.zeros(m + 1)
        rhs[-1] = 1.0
        pi, *_ = np.linalg.lstsq(sys, rhs, rcond=None)
        residual = float(np.max(np.abs(a @ pi)))
        if residual > max(tol, 1e-10):
            raise NoStationaryDistributionError(
                f"stationary solve residual {residual:.3e} exceeds tolerance")
        return np.clip(pi, 0.0, None) / np.clip(pi, 0.0, None).sum()

    def mean_adjacency(self):
        pi = self.stationary_distribution()
        return np.tensordot(pi, self.states, axes=1)

    def conditional_mean_adjacency(self, state):
        """Mean of the next adjacency matrix given the current chain state."""
        return np.tensordot(self.transition[int(state)], self.states, axes=1)

    def expected_active_channels(self):
        offdiag = ~np.eye(self.n_nodes, dtype=bool)
        counts = np.array([(m != 0)[offdiag].sum() for m in self.states], dtype=float)
        return float(np.max(self.transition @ counts))


class DeterministicCycle(MarkovSwitching):
    """Adjacency sequence that cycles through a fixed list of matrices: the
    Markov chain that starts at the first matrix and moves one on each step.

    Its one-hot transition rows ignore the uniforms drawn from the stream, so
    every stream gives step k the matrix ``k % len(matrices)``.
    """

    def __init__(self, matrices):
        m = len(matrices)
        super().__init__(matrices, np.roll(np.eye(m), 1, axis=1), initial=np.eye(1, m)[0])

    # Its own attribute, not an inherited one: code that patches both classes'
    # ``sample_block`` and then restores them (perfbench's tracer) would
    # otherwise leave MarkovSwitching's wrapper stored on this class.
    sample_block = MarkovSwitching.sample_block


@dataclass(frozen=True)
class LaplacianStats:
    """Windowed joint-connectivity estimates for a graph process.

    ``lambda2_per_window`` holds the algebraic connectivity of each window's
    estimated mean symmetrized-Laplacian sum; ``rho0_hat`` and ``rho1_hat``
    are Monte Carlo moment estimates, not almost-sure certificates.
    """

    h: int
    lambda2_per_window: list
    moment_estimate: float
    rho0_hat: float
    rho1_hat: float

    @property
    def theta_hat(self):
        return float(min(self.lambda2_per_window))


def _window_samples(process, stream, h, windows, reps):
    """Yield per-window stacks of sampled adjacency matrices, shape (reps, h, N, N)."""
    ss = _as_seed_sequence(stream)
    # The children ss.spawn gives while ss has spawned none; ss stays unchanged.
    children = [np.random.SeedSequence(ss.entropy, spawn_key=ss.spawn_key + (i,),
                                       pool_size=ss.pool_size) for i in range(windows * reps + 1)]
    if isinstance(process, IndependentEdges):
        for m in range(windows):
            keys = np.stack([_stream_key(c) for c in children[m * reps:(m + 1) * reps]])
            yield process.sample_block(keys, m * h, h)[0]
        return
    if isinstance(process, MarkovSwitching):
        anchor_ss, *children = children
        base_path = process.sample_state_path(anchor_ss, windows * h)
        for m in range(windows):
            # Each child's generator drives its chain, from the anchor after window 0.
            u = np.stack([np.random.default_rng(c).random(h)
                          for c in children[m * reps:(m + 1) * reps]])
            start = len(process.states) if m == 0 else base_path[m * h - 1]
            yield process.states[_walk_chain(process._cum_rows, start, u)]
        return
    raise TypeError(f"unsupported graph process type {type(process)!r}")


def joint_connectivity_report(process, h, windows, reps, stream):
    """Estimate the windowed joint-connectivity level and Laplacian moments.

    For each window of ``h`` consecutive steps the mean of the summed
    symmetrized Laplacians is estimated by averaging ``reps`` replicated
    window samples (conditioning on the realized chain state at the window
    start for Markov processes), and its second smallest eigenvalue is
    recorded.  Also estimates the conditional Laplacian norm moment of order
    2*max(h, 2) and the edge-count-weighted squared-weight moment.  Each
    window takes one stacked call per quantity, with a per-sample loop's bits.
    """
    if h < 1 or windows < 1 or reps < 1:
        raise ValueError("h, windows and reps must all be at least 1")
    q = 2 * max(h, 2)
    lam2 = []
    norm_moment = edge_moment = 0.0
    for block in _window_samples(process, stream, h, windows, reps):
        laps = laplacian(block)
        # Step-major rows over the replications, contiguous so that each mean
        # sums in the pairwise order of a 1-D array; each power is a Python
        # float's, since a vectorised power can differ in the last bit.
        norms = np.linalg.norm(laps, 2, axis=(-2, -1)).T.tolist()
        powered = np.array([[v ** q for v in row] for row in norms])
        # Diagonals are zero, so every nonzero entry is an edge.
        edges = np.count_nonzero(block, axis=(-2, -1)) * np.max(block * block, axis=(-2, -1))
        norm_moment = max(norm_moment, float(powered.mean(axis=1).max()))
        edge_moment = max(edge_moment, float(np.ascontiguousarray(edges.T).mean(axis=1).max()))
        # The Laplacian sum in (step, rep) order, from +0.0 as a loop would.
        steps = np.swapaxes(symmetrized_laplacian(laps), 0, 1).reshape((-1,) + laps.shape[-2:])
        lam2.append(lambda2(steps.sum(axis=0, initial=0.0) / block.shape[0], tol=1e-8))
    return LaplacianStats(
        h=h,
        lambda2_per_window=lam2,
        moment_estimate=norm_moment,
        rho0_hat=norm_moment ** (1.0 / q),
        rho1_hat=edge_moment,
    )


def mean_graph_spanning_check(process, tol=1e-12):
    """True when the mean digraph lets some node reach every other node.

    Uses the exact stationary distribution for Markov processes (uniform for
    a cycle, whose mean is the average of its matrices) and the exact
    per-step mean matrix for independent processes; edges count when their
    mean weight is positive.
    """
    if not isinstance(process, (MarkovSwitching, IndependentEdges)):
        raise TypeError("spanning check needs a Markov or Independent process")
    mean_adj = process.mean_adjacency()
    n = process.n_nodes
    # successors[j] = nodes that hear j: mean_adj[i, j] > tol
    succ = [np.nonzero(mean_adj[:, j] > tol)[0] for j in range(n)]
    for root in range(n):
        seen = np.zeros(n, dtype=bool)
        seen[root] = True
        frontier = [root]
        while frontier:
            nxt = []
            for j in frontier:
                for i in succ[j]:
                    if not seen[i]:
                        seen[i] = True
                        nxt.append(int(i))
            frontier = nxt
        if seen.all():
            return True
    return False
