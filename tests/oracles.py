"""Independent oracles used by the tests.

Deliberately separate from the library implementations: eigenvalues by cyclic
Jacobi rotations, cubic characteristic-polynomial roots in closed form, plain
finite differences, a callback objective, the scalar channel-noise model, the
per-node and stacked compact forms of the step, the broadcast-and-einsum form
of the batched step kernel, an entry point to the kernel that makes its
workspace, the per-channel entry points to the kernel and to the
consensus-error recursion check, a node's one-node problem, its
subgradient and its gradient-noise draws, the
consensus projection, the sequential loops
that the library's vectorised routines replaced, the per-key graph draws that
its stacked ``sample_block`` replaced, the per-sample connectivity report
that the library's stacked one replaced, the
whole-array step-size condition check that the library's block-streamed one
replaced, the expression forms of the step-size gains that the library now
forms in place, and the node-axis sum that the library's centring replaced.
These provide the second route of every dual-route check.
"""

import math
from dataclasses import dataclass

import numpy as np

from subgradnet import (DivergenceDetected, IndependentEdges, LaplacianStats, LassoProblem,
                        MarkovSwitching, NonConvergenceError, QuadraticObjective, lambda2,
                        laplacian)
from subgradnet import engine
from subgradnet import stepsize as ss
from subgradnet.graphs import CHUNK, _walk_chain


def jacobi_eigenvalues(matrix, tol=1e-12, max_sweeps=200):
    """All eigenvalues of a symmetric matrix by cyclic Jacobi rotations.

    Sweeps until the off-diagonal Frobenius norm falls below ``tol``.
    """
    a = np.array(matrix, dtype=float)
    n = a.shape[0]
    assert a.shape == (n, n)
    assert np.max(np.abs(a - a.T)) < 1e-12, "Jacobi oracle needs symmetric input"
    for _ in range(max_sweeps):
        off = math.sqrt(2.0 * sum(a[p, q] ** 2
                                  for p in range(n) for q in range(p + 1, n)))
        if off < tol:
            break
        for p in range(n - 1):
            for q in range(p + 1, n):
                if a[p, q] == 0.0:
                    continue
                theta = (a[q, q] - a[p, p]) / (2.0 * a[p, q])
                t = math.copysign(1.0, theta) / (abs(theta) + math.sqrt(theta * theta + 1.0))
                cos = 1.0 / math.sqrt(t * t + 1.0)
                sin = t * cos
                rot = np.eye(n)
                rot[p, p] = cos
                rot[q, q] = cos
                rot[p, q] = sin
                rot[q, p] = -sin
                a = rot.T @ a @ rot
    return np.sort(np.diag(a))


def cubic_roots(c2, c1, c0):
    """Real roots of x^3 + c2 x^2 + c1 x + c0 = 0 (all-real case, trig form)."""
    p = c1 - c2 * c2 / 3.0
    q = 2.0 * c2 ** 3 / 27.0 - c2 * c1 / 3.0 + c0
    shift = -c2 / 3.0
    if abs(p) < 1e-14:
        root = -math.copysign(abs(q) ** (1.0 / 3.0), q)
        return np.sort(np.array([root + shift] * 3))
    m = 2.0 * math.sqrt(-p / 3.0)
    arg = 3.0 * q / (p * m)
    arg = min(1.0, max(-1.0, arg))
    phi = math.acos(arg) / 3.0
    roots = [m * math.cos(phi - 2.0 * math.pi * k / 3.0) + shift for k in range(3)]
    return np.sort(np.array(roots))


def char_poly_eigenvalues_3x3(matrix):
    """Eigenvalues of a symmetric 3x3 matrix via its characteristic cubic."""
    m = np.asarray(matrix, dtype=float)
    assert m.shape == (3, 3)
    tr = m[0, 0] + m[1, 1] + m[2, 2]
    minors = (m[1, 1] * m[2, 2] - m[1, 2] * m[2, 1]
              + m[0, 0] * m[2, 2] - m[0, 2] * m[2, 0]
              + m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0])
    det = (m[0, 0] * (m[1, 1] * m[2, 2] - m[1, 2] * m[2, 1])
           - m[0, 1] * (m[1, 0] * m[2, 2] - m[1, 2] * m[2, 0])
           + m[0, 2] * (m[1, 0] * m[2, 1] - m[1, 1] * m[2, 0]))
    # det(xI - M) = x^3 - tr x^2 + (sum minors) x - det
    return cubic_roots(-tr, minors, -det)


def central_difference(fn, x, h=1e-6):
    """Central-difference gradient of a scalar function at x."""
    x = np.asarray(x, dtype=float)
    grad = np.zeros_like(x)
    for j in range(x.size):
        step = np.zeros_like(x)
        step[j] = h
        grad[j] = (fn(x + step) - fn(x - step)) / (2.0 * h)
    return grad


def reaches_all_brute(adjacency, tol=1e-12):
    """Reachability oracle: does some node reach all others (edge j->i when
    adjacency[i, j] > tol)?  Uses repeated boolean matrix powers."""
    a = np.asarray(adjacency, dtype=float)
    n = a.shape[0]
    reach = (a.T > tol) | np.eye(n, dtype=bool)
    for _ in range(n):
        reach = reach | (reach @ reach)
    return bool(np.any(reach.all(axis=1)))


def neumaier_cumsum_loop(values):
    """Sequential Neumaier running sums, one value at a time."""
    out = np.empty(len(values))
    s = comp = 0.0
    for i, v in enumerate(np.asarray(values, dtype=float).tolist()):
        t = s + v
        if abs(s) >= abs(v):
            comp += (s - t) + v
        else:
            comp += (v - t) + s
        s = t
        out[i] = s + comp
    return out


def markov_walk_searchsorted(cum_rows, state, uniforms):
    """Markov chain states from ``state``, one ``searchsorted`` per uniform."""
    s = int(state)
    path = np.empty(len(uniforms), dtype=np.int64)
    for k, u in enumerate(uniforms):
        s = int(np.searchsorted(cum_rows[s], u, side="right"))
        path[k] = s
    return path


def philox_block_draws_loop(key, k_start, count, size, slabs=1):
    """Per-step uniforms of a keyed Philox stream, one full block at a time.

    Every block a request touches is generated whole from counter
    ``[0, 0, block, 0]``, slab after slab of ``(CHUNK, size)`` draws, and the
    requested rows are sliced out.  Returns shape ``(slabs, count, size)``.
    """
    out = np.empty((slabs, count, size))
    pos = 0
    k = k_start
    while pos < count:
        block = k // CHUNK
        lo = k - block * CHUNK
        take = min(CHUNK - lo, count - pos)
        gen = np.random.Generator(np.random.Philox(counter=[0, 0, block, 0], key=key))
        for s in range(slabs):
            out[s, pos:pos + take] = gen.random((CHUNK, size))[lo:lo + take]
        pos += take
        k += take
    return out


def sample_block_per_key(process, key, k_start, count, state=None):
    """One replication's ``sample_block``, as the library drew it one key at
    a time: whole-block Philox draws, a ``np.where`` weight selection and a
    ``searchsorted`` chain walk.  Returns the block and the last state."""
    n = process.n_nodes
    if isinstance(process, IndependentEdges):
        slabs = 2 if np.any(process.perturb > 0) else 1
        draws = philox_block_draws_loop(key, k_start, count, n * n, slabs=slabs)
        draws = draws.reshape(slabs, count, n, n)
        active = draws[0] < process.prob
        out = np.where(active, process.base, 0.0)
        if slabs == 2:
            out = out + np.where(active, (2.0 * draws[1] - 1.0) * process.perturb, 0.0)
        return out, None
    if state is None:
        if count == 0:
            return np.empty((0, n, n)), None
        u = philox_block_draws_loop(key, 0, k_start + count, 1).ravel()
        s0 = int(np.searchsorted(process._cum_rows[-1], u[0], side="right"))
        path = np.concatenate([[s0], markov_walk_searchsorted(process._cum_rows, s0, u[1:])])
        path = path[k_start:]
    else:
        u = philox_block_draws_loop(key, k_start, count, 1).ravel()
        path = markov_walk_searchsorted(process._cum_rows, state, u)
    return process.states[path], int(path[-1]) if path.size else state


def advance_from(process, rng, state, count):
    """Continue a Markov chain for ``count`` steps with fresh draws from
    ``rng``: the conditional (frozen-anchor) resampling of the per-sample
    connectivity report."""
    return _walk_chain(process._cum_rows, state, rng.random(count))


def draw_initial(process, rng):
    """A Markov chain's initial state from one draw of ``rng``."""
    return int(np.searchsorted(process._cum_rows[-1], rng.random(), side="right"))


def _window_samples_loop(process, stream, h, windows, reps):
    """Per-window (reps, h, N, N) samples, one replication at a time."""
    ss_root = (stream if isinstance(stream, np.random.SeedSequence)
               else np.random.SeedSequence(stream))
    if isinstance(process, IndependentEdges):
        children = ss_root.spawn(windows * reps)
        for m in range(windows):
            yield np.stack([process.sample_block(children[m * reps + r], m * h, h)[0]
                            for r in range(reps)])
    elif isinstance(process, MarkovSwitching):
        anchor_ss, *children = ss_root.spawn(windows * reps + 1)
        base_path = process.sample_state_path(anchor_ss, windows * h)
        for m in range(windows):
            anchor = None if m == 0 else int(base_path[m * h - 1])
            block = []
            for r in range(reps):
                rng = np.random.default_rng(children[m * reps + r])
                if anchor is None:
                    s0 = draw_initial(process, rng)
                    rest = advance_from(process, rng, s0, h - 1) if h > 1 else []
                    path = np.concatenate([[s0], rest]).astype(np.int64)
                else:
                    path = advance_from(process, rng, anchor, h)
                block.append(process.states[path])
            yield np.stack(block)
    else:
        raise TypeError(f"unsupported graph process type {type(process)!r}")


def connectivity_report_loop(process, h, windows, reps, stream):
    """The windowed connectivity report, one sampled matrix at a time.

    The reference for the library's stacked ``joint_connectivity_report``:
    each sample's 2-D Laplacian, spectral norm and edge count, the norm's
    power taken on its own, and the Laplacian sum accumulated step by step,
    replication by replication.
    """
    q = 2 * max(h, 2)
    lam2 = []
    norm_moment = edge_moment = 0.0
    for block in _window_samples_loop(process, stream, h, windows, reps):
        n_reps, n = block.shape[0], block.shape[-1]
        lap_sum = np.zeros((n, n))
        for i in range(h):
            norms = np.empty(n_reps)
            edges = np.empty(n_reps)
            for r in range(n_reps):
                a = block[r, i]
                lap = -a.copy()
                lap[np.arange(n), np.arange(n)] = a.sum(axis=1) - np.diag(a)
                norms[r] = np.linalg.norm(lap, 2) ** q
                n_edges = int(np.count_nonzero(a) - np.count_nonzero(np.diag(a)))
                edges[r] = n_edges * float(np.max(a * a))
                lap_sum += (lap + lap.T) / 2.0
            norm_moment = max(norm_moment, float(norms.mean()))
            edge_moment = max(edge_moment, float(edges.mean()))
        lam2.append(lambda2(lap_sum / n_reps, tol=1e-8))
    return LaplacianStats(h=h, lambda2_per_window=lam2, moment_estimate=norm_moment,
                          rho0_hat=norm_moment ** (1.0 / q), rho1_hat=edge_moment,
                          windows=windows, reps=reps)


@dataclass(frozen=True)
class CustomObjective:
    """Per-node costs and subgradients from callbacks; no optimum oracle."""

    cost_fns: tuple
    subgradient_fns: tuple
    dim: int
    sigma_d_values: np.ndarray
    c_d_values: np.ndarray

    @property
    def n_nodes(self):
        return len(self.cost_fns)

    @property
    def has_gradient_noise(self):
        return False

    @property
    def sigma_d(self):
        return np.asarray(self.sigma_d_values, dtype=float)

    @property
    def c_d(self):
        return np.asarray(self.c_d_values, dtype=float)

    @property
    def sigma_zeta(self):
        return 0.0

    def cost(self, i, x):
        return float(self.cost_fns[i](np.asarray(x, dtype=float)))

    def total_cost(self, x):
        x = np.asarray(x, dtype=float)
        if x.ndim == 1:
            return float(sum(fn(x) for fn in self.cost_fns))
        flat = x.reshape(-1, x.shape[-1])
        vals = np.array([sum(fn(row) for fn in self.cost_fns) for row in flat])
        return vals.reshape(x.shape[:-1])

    def subgradient(self, i, x):
        return np.asarray(self.subgradient_fns[i](np.asarray(x, dtype=float)), dtype=float)

    def workspace(self, lead):
        return None

    def subgradient_stack(self, states, out=None, ws=None):
        x = np.asarray(states, dtype=float)
        d = np.empty(x.shape) if out is None else out
        for idx in np.ndindex(x.shape[:-1]):
            d[idx] = self.subgradient(idx[-1], x[idx])
        return d

    def optimum(self):
        raise NonConvergenceError("custom objectives carry no optimum oracle")


def psi(model, delta):
    """Noise intensity for one relative state; |psi| <= sigma*||delta|| + b."""
    val = model.sigma * float(np.linalg.norm(delta)) + model.b
    if model.cap is not None:
        val = min(val, model.cap)
    return val


def draw_xi(model, rng):
    """One channel-noise vector with unit second moment."""
    return rng.standard_normal(model.noise_dim) / np.sqrt(model.noise_dim)


def measure_state(model, x_j, x_i, rng):
    """Noisy measurement of x_j as heard by node i."""
    x_j = np.asarray(x_j, dtype=float)
    x_i = np.asarray(x_i, dtype=float)
    if x_j.shape != x_i.shape:
        raise ValueError("state vectors must share a shape")
    return x_j + psi(model, x_j - x_i) * draw_xi(model, rng)


def draw_channel_noise(model, adjacency, rng):
    """Channel noises for every active channel of one realized graph.

    Returns an (N, N, dim) array with entry [j, i] holding xi_ji; inactive
    channels stay zero.  Draws happen in lexicographic (j, i) order so that
    different consumers of the same stream see identical values.
    """
    a = np.asarray(adjacency, dtype=float)
    n_nodes = a.shape[0]
    xi = np.zeros((n_nodes, n_nodes, model.noise_dim))
    for j in range(n_nodes):
        for i in range(n_nodes):
            if a[i, j] != 0.0:
                xi[j, i] = draw_xi(model, rng)
    return xi


def psi_matrix(model, states):
    """Intensities psi(x_j - x_i) for all ordered pairs; entry [..., j, i]."""
    x = np.asarray(states, dtype=float)
    diff = x[..., :, None, :] - x[..., None, :, :]
    return model.psi_values(np.sqrt((diff * diff).sum(axis=-1)))


def receiver_draws(model, states, adjacency, xi):
    """The kernel's per-receiver channel input that per-channel noises map
    onto: z_i = sum_j w_ij xi_ji / ||w_i|| with w_ij = a_ij psi_ji, and
    z_i = 0 where ||w_i|| = 0, so that ||w_i|| z_i is the noise sum.

    ``xi[..., j, i, :]`` is the noise on channel (j -> i); broadcasts over
    leading batch axes.
    """
    w = np.asarray(adjacency, dtype=float) * np.swapaxes(psi_matrix(model, states), -1, -2)
    sums = (w[..., None, :] @ np.swapaxes(np.asarray(xi, dtype=float), -3, -2))[..., 0, :]
    norms = np.sqrt((w * w).sum(axis=-1))[..., None]
    return np.divide(sums, norms, out=np.zeros_like(sums), where=norms > 0.0)


def kernel(x, a, row_sums, alpha_k, c_k, model, z, d_plus_zeta):
    """The library's step kernel on operands whose leading shapes broadcast:
    the states are broadcast to the common leading shape, for which a fresh
    kernel and ``out`` are made.  Returns the kernel's next state,
    channel-noise sum and intensities."""
    lead = np.broadcast_shapes(x.shape[:-2], a.shape[:-2], z.shape[:-2],
                               d_plus_zeta.shape[:-2])
    x = np.broadcast_to(x, lead + x.shape[-2:])
    return engine._kernel(lead, *x.shape[-2:], model)(x, a, row_sums, alpha_k, c_k, z,
                                                      d_plus_zeta, np.empty(x.shape),
                                                      engine._pair_operands(x))


def apply_step(states, adjacency, alpha_k, c_k, model, xi, d_plus_zeta):
    """One kernel step from per-channel noises ``xi[..., j, i, :]`` mapped by
    :func:`receiver_draws`; broadcasts over leading batch axes."""
    x = np.asarray(states, dtype=float)
    a = np.asarray(adjacency, dtype=float)
    return kernel(x, a, a.sum(axis=-1)[..., None], alpha_k, c_k, model,
                  receiver_draws(model, x, a, xi),
                  np.asarray(d_plus_zeta, dtype=float))[0]


def delta_recursion_check(states, adjacency, schedule, model, objective, k,
                          xi, zeta):
    """Discrepancy between the direct and recursive consensus-error updates.

    Computes the next consensus error once by projecting the kernel's stepped
    state and once through the library's error recursion

        delta(k+1) = ((I - c P L) (x) I) delta(k)
                     + (P (x) I)(c D Psi xi - alpha zeta)
                     - alpha (P (x) I) d(k)

    and returns the norm of the difference.  Both sides share the kernel's
    noise sum of the per-channel draws ``xi``; the discrepancy is pure
    floating-point error.
    """
    x = np.asarray(states, dtype=float)
    a = np.asarray(adjacency, dtype=float)
    alpha_k, c_k = schedule.alpha(k), schedule.c(k)
    row_sums = a.sum(axis=-1)[..., None]
    d_stack = objective.subgradient_stack(x)
    zeta = np.asarray(zeta, dtype=float)
    x_new, noise, _ = kernel(x, a, row_sums, alpha_k, c_k, model,
                             receiver_draws(model, x, a, xi), d_stack + zeta)
    return float(engine._recursion_gap(engine._center(x), a, row_sums, alpha_k, c_k,
                                       noise, zeta, d_stack, x_new))


def stacked_noise_matrices(model, states, adjacency, rng, xi=None):
    """Compact-form noise factors (D, Psi, xi_stacked) for one step.

    ``D`` stacks the receiver rows of the adjacency matrix, ``Psi`` is the
    block-diagonal intensity matrix over all ordered channels, and the stacked
    noise vector is zero on inactive channels.  Channel blocks are ordered by
    receiver then sender, matching the compact-form product
    ``c * D @ Psi @ xi`` with the per-node sums ``c * sum_j a_ij psi_ji xi_ji``.
    Pass a pre-drawn ``xi`` (from :func:`draw_channel_noise`) to reuse draws.
    """
    x = np.asarray(states, dtype=float)
    a = np.asarray(adjacency, dtype=float)
    n_nodes, dim = x.shape
    if xi is None:
        xi = draw_channel_noise(model, a, rng)
    psi_all = psi_matrix(model, x)
    eye = np.eye(dim)
    big = n_nodes * n_nodes * dim
    d_mat = np.zeros((n_nodes * dim, big))
    psi_big = np.zeros((big, big))
    xi_stacked = np.zeros(big)
    for i in range(n_nodes):
        for j in range(n_nodes):
            blk = (i * n_nodes + j) * dim
            d_mat[i * dim:(i + 1) * dim, blk:blk + dim] = a[i, j] * eye
            psi_big[blk:blk + dim, blk:blk + dim] = psi_all[j, i] * eye
            xi_stacked[blk:blk + dim] = xi[j, i]
    return d_mat, psi_big, xi_stacked


def consensus_projection(stacked, n_nodes, dim):
    """Deviation-from-average part of a stacked state vector.

    Applying it twice equals applying it once, and the node blocks of the
    result sum to zero.
    """
    x = np.asarray(stacked, dtype=float).reshape(n_nodes, dim)
    return (x - x.mean(axis=0)).reshape(n_nodes * dim)


def step_per_node(states, adjacency, schedule, model, objective, rng, k):
    """Reference per-node update drawing its own noises from ``rng``.

    Channel noises are drawn in lexicographic (j, i) order over active
    channels, so any consumer seeding an identical generator reproduces the
    same randomness.  The objective carries no gradient noise: node i
    descends along row i of its ``subgradient_stack``.
    """
    assert not objective.has_gradient_noise
    x = np.asarray(states, dtype=float)
    n_nodes, dim = x.shape
    xi = draw_channel_noise(model, adjacency, rng)
    alpha_k = schedule.alpha(k)
    c_k = schedule.c(k)
    new = np.empty_like(x)
    for i in range(n_nodes):
        coupling = np.zeros(dim)
        for j in range(n_nodes):
            a_ij = adjacency[i, j]
            if a_ij != 0.0:
                y_ji = x[j] + psi(model, x[j] - x[i]) * xi[j, i]
                coupling += a_ij * (y_ji - x[i])
        new[i] = x[i] + c_k * coupling
    d_stack = objective.subgradient_stack(x)
    for i in range(n_nodes):
        new[i] -= alpha_k * d_stack[i]
    if not np.all(np.isfinite(new)):
        raise DivergenceDetected("non-finite state after per-node step", step=k)
    return new


def step_compact(states, adjacency, schedule, objective, k,
                 d_mat, psi_big, xi_stacked, zeta):
    """Stacked-form update from explicit compact factors.

    X(k+1) = ((I - c L) (x) I) X + c D Psi xi - alpha (d + zeta), with the
    noise factors produced by :func:`stacked_noise_matrices` and ``zeta`` the
    stacked gradient noise (one row per node).  This is the independent
    algebraic route checked against ``step_per_node``.
    """
    x = np.asarray(states, dtype=float)
    n_nodes, dim = x.shape
    lap = laplacian(adjacency)
    alpha_k = schedule.alpha(k)
    c_k = schedule.c(k)
    lin = np.kron(np.eye(n_nodes) - c_k * lap, np.eye(dim)) @ x.reshape(-1)
    noise_term = c_k * (d_mat @ (psi_big @ xi_stacked))
    d_stack = objective.subgradient_stack(x)
    grad_term = alpha_k * (d_stack + np.asarray(zeta, dtype=float)).reshape(-1)
    new = lin + noise_term - grad_term
    if not np.all(np.isfinite(new)):
        raise DivergenceDetected("non-finite state after compact step", step=k)
    return new.reshape(n_nodes, dim)


def step_einsum(x, a, row_sums, alpha_k, c_k, model, z, d_plus_zeta):
    """The batched step kernel with allocated temporaries: node-major
    broadcast differences and pair norms by ``einsum``.

    Takes the library kernel's operands (``z`` one channel draw per
    receiver) and returns its next state, channel-noise sum and intensities.
    """
    diff = x[..., :, None, :] - x[..., None, :, :]
    psi_all = model.psi_values(np.sqrt(np.einsum("...ijd,...ijd->...ij", diff, diff)))
    w = a * psi_all
    noise = np.sqrt(np.einsum("...ij,...ij->...i", w, w))[..., None] * z
    consensus = a @ x - row_sums * x
    return x + c_k * (consensus + noise) - alpha_k * d_plus_zeta, noise, psi_all


def one_node(objective, i):
    """Node i's one-node problem: its cost is node i's, and its stacked
    measurement is row i of the objective's."""
    if isinstance(objective, QuadraticObjective):
        return QuadraticObjective(objective.targets[i:i + 1])
    return LassoProblem(x0=objective.x0, covariances=objective.covariances[i:i + 1],
                        sigma_v=objective.sigma_v[i:i + 1], kappa=objective.kappa)


def node_subgradient(objective, i, x):
    """Node i's subgradient at the one state ``x`` (n,), from its one-node problem."""
    return one_node(objective, i).subgradient_stack(np.asarray(x, dtype=float)[None, :])[0]


def node_zeta_samples(problem, i, x, rng, count):
    """``count`` draws of node i's lasso gradient noise at the frozen state
    ``x``: z drawn as ``(count, dim)``, then v as ``(count,)``, through the
    library's ``zeta_from_draws`` on node i's one-node problem."""
    z = rng.standard_normal((count, problem.dim))
    v = rng.standard_normal(count)
    x = np.asarray(x, dtype=float)[None, :]
    return one_node(problem, i).zeta_from_draws(x, z[:, None, :], v[:, None])[:, 0]


def lasso_measurement_loop(problem, states, z, v):
    """Lasso subgradient and gradient noise, one node of one state at a time.

    d_i = R_i (x_i - x0) + kappa sign(x_i) and
    zeta_i = (u u^T - R_i)(x_i - x0) - u sigma_v_i v_i with u = R_i^{1/2} z_i,
    built from an explicit outer product.
    """
    x = np.asarray(states, dtype=float)
    z = np.asarray(z, dtype=float)
    v = np.asarray(v, dtype=float)
    d, zeta = np.empty_like(x), np.empty_like(x)
    for idx in np.ndindex(x.shape[:-1]):
        i = idx[-1]
        cov = problem.covariances[i]
        w = x[idx] - problem.x0
        u = problem._sqrt_cov[i] @ z[idx]
        d[idx] = cov @ w + problem.kappa * np.sign(x[idx])
        zeta[idx] = (np.outer(u, u) - cov) @ w - u * problem.sigma_v[i] * v[idx]
    return d, zeta


def lasso_noise_factors_matmul(problem, z, v):
    """The lasso's noise factors ``u = R_i^{1/2} z`` and ``u sigma_v v``, with
    ``u`` by a per-block ``matmul`` over every node's root, dense or not."""
    u = np.matmul(problem._sqrt_cov, np.asarray(z, dtype=float)[..., None])[..., 0]
    return u, u * (problem.sigma_v * np.asarray(v, dtype=float))[..., None]


def lasso_measurement_matmul(problem, states, factors):
    """The lasso measurement ``(d, zeta)`` in the library's operation order,
    with ``R_i (x - x0)`` by a per-block ``matmul`` over every node's
    covariance, dense or not."""
    x = np.asarray(states, dtype=float)
    w = x - problem.x0
    rw = np.matmul(problem.covariances, w[..., None])[..., 0]
    d = rw + np.sign(x) * problem.kappa
    u, uv = factors
    s = (u * w).sum(axis=-1)
    return d, (u * s[..., None] - rw) - uv


def quadratic_record_loop(state, targets, x_star, f_star):
    """Recorded metrics of one ``(N, dim)`` state of the quadratic objective
    sum_i 0.5 ||x - target_i||^2, node by node in plain Python floats.

    Returns V (squared distance from the node average), ||X||^2, the largest
    node distance to x*, the stacked squared distance to x*, the node average
    and the optimality gap of the node average.
    """
    rows = [[float(e) for e in node] for node in np.asarray(state)]
    n, dim = len(rows), len(rows[0])
    mean = [sum(row[j] for row in rows) / n for j in range(dim)]

    def sq_dist(u, w):
        return sum((u[j] - w[j]) ** 2 for j in range(dim))

    dists = [sq_dist(row, x_star) for row in rows]
    return {
        "V": sum(sq_dist(row, mean) for row in rows),
        "state_sq": sum(sq_dist(row, [0.0] * dim) for row in rows),
        "dist": math.sqrt(max(dists)),
        "stack_dsq": sum(dists),
        "mean_state": mean,
        "opt_gap": sum(0.5 * sq_dist(mean, t) for t in targets) - f_star,
    }


def schedule_alpha_expr(schedule, k):
    """alpha(k) of a ``StepSchedule`` as one expression on new arrays."""
    k = np.asarray(k, dtype=float)
    val = schedule.alpha1 / ((k + 3.0) * np.log(k + 3.0) ** schedule.tau1)
    return float(val) if val.ndim == 0 else val


def schedule_c_expr(schedule, k):
    """c(k) of a ``StepSchedule`` as one expression on new arrays."""
    k = np.asarray(k, dtype=float)
    val = schedule.alpha2 / ((k + 3.0) ** schedule.tau2 * np.log(k + 3.0) ** schedule.tau3)
    return float(val) if val.ndim == 0 else val


def center_by_sum(states):
    """Deviation of each node from the node average by numpy's axis -2 sum."""
    return states - states.sum(axis=-2, keepdims=True) / states.shape[-2]


def verify_conditions_full(alpha_fn, c_fn, C, horizon):
    """The C1-C5 step-size check on whole length-(horizon + 1) arrays.

    The reference for the library's block-streamed ``verify_conditions``: the
    same verdict code, fed by full arrays of alpha, c and their partial sums.
    """
    horizon = int(horizon)
    if horizon < 1000:
        raise ValueError("condition verification needs horizon >= 1000")
    if C <= 0:
        raise ValueError("C must be positive")
    ks = np.arange(horizon + 1)
    a = np.asarray(alpha_fn(ks), dtype=float)
    c = np.asarray(c_fn(ks), dtype=float)
    if np.any(~np.isfinite(a)) or np.any(a <= 0):
        raise ValueError("alpha(k) must be positive and finite on [0, horizon]")
    if np.any(~np.isfinite(c)) or np.any(c <= 0):
        raise ValueError("c(k) must be positive and finite on [0, horizon]")
    S = ss.kahan_cumsum(a)

    h10 = horizon // 10
    last_decade = np.unique(np.geomspace(max(h10, 1), horizon, 65).astype(int))
    decades = ss._decade_checkpoints(horizon)
    log_dec = np.log(decades)

    checks = {}

    # C1: monotone decay, divergent alpha sum, summable squares, bounded ratio.
    a_sq, c_sq = a * a, c * c
    a_sq_head, a_sq_tail = float(a_sq[: h10 + 1].sum()), float(a_sq[h10 + 1:].sum())
    c_sq_head, c_sq_tail = float(c_sq[: h10 + 1].sum()), float(c_sq[h10 + 1:].sum())
    ratio_max = float(np.max(c[:-1] / c[1:]))
    c1_parts = {
        "alpha_decreasing": bool(np.all(np.diff(a) < 0)),
        "c_decreasing": bool(np.all(np.diff(c) < 0)),
        "alpha_sum_growing": bool(S[-1] - S[horizon // 2] > 1e-12 * max(S[-1], 1.0)),
        "alpha_sq_tail_rel": a_sq_tail / a_sq_head,
        "c_sq_tail_rel": c_sq_tail / c_sq_head,
        "c_ratio_max": ratio_max,
    }
    c1_ok = (c1_parts["alpha_decreasing"] and c1_parts["c_decreasing"]
             and c1_parts["alpha_sum_growing"]
             and c1_parts["alpha_sq_tail_rel"] < ss._C1_TAIL_REL
             and c1_parts["c_sq_tail_rel"] < ss._C1_TAIL_REL
             and ratio_max <= ss._C1_RATIO_BOUND)
    checks["C1"] = ss.ConditionCheck(ss.HOLDS if c1_ok else ss.FAILS, c1_parts)

    # C2: c^2/alpha must vanish; require a 1e-3 drop from k=10 to the horizon
    # and a monotone tail.
    r = c_sq / a
    r_drop = float(r[-1] / r[10])
    c2_parts = {"ratio_drop": r_drop,
                "tail_monotone": ss._nonincreasing(r[last_decade])}
    c2_ok = r_drop < ss._C2_DECAY_FACTOR and c2_parts["tail_monotone"]
    checks["C2"] = ss.ConditionCheck(ss.HOLDS if c2_ok else ss.FAILS, c2_parts)

    # C3: sum of alpha(k) exp(-C S(k)).  The tail past K is certified below
    # exp(C alpha(K)) exp(-C S(K)) / C, so a strictly shrinking log tail bound
    # across the last decades witnesses convergence.
    log_tail = C * a[decades] - C * S[decades] - math.log(C)
    terms = a * np.exp(np.clip(-C * S, -745.0, 0.0))
    c3_parts = {
        "partial_sum": float(terms.sum()),
        "log_tail_bound_final": float(log_tail[-1]),
        "log_tail_decreasing": ss._strictly_decreasing(
            log_tail[-(ss._TREND_INTERVALS + 1):], rel_margin=0.0),
    }
    if c3_parts["log_tail_decreasing"]:
        verdict = ss.HOLDS
    elif np.any(np.diff(log_tail[-(ss._TREND_INTERVALS + 1):]) > 0):
        verdict = ss.FAILS
    else:
        verdict = ss.INCONCLUSIVE
    checks["C3"] = ss.ConditionCheck(verdict, c3_parts)

    # Per-decade exponents: eta measures the exponential envelope's local
    # log-log slope, p the polynomial decay of alpha/c, adecay that of alpha.
    dS = np.diff(S[decades])
    dlog = np.diff(log_dec)
    eta = C * dS / dlog
    log_ac = np.log(a[decades]) - np.log(c[decades])
    p_hat = -np.diff(log_ac) / dlog
    adecay = -np.diff(np.log(a[decades])) / dlog

    # C4: alpha exp(C S)/c -> 0.  Needs a genuine polynomial gap between c and
    # alpha plus a sub-logarithmic envelope (eta shrinking decade over decade);
    # a directly observed decreasing tail with eta below the gap also counts.
    ln_q = np.log(a) - np.log(c) + C * S
    eta_tail = eta[-ss._TREND_INTERVALS:]
    observed_q = ss._nonincreasing(ln_q[last_decade]) and eta[-1] < p_hat[-1]
    c4_parts = {
        "poly_exponent": float(p_hat[-1]),
        "eta_last": float(eta[-1]),
        "eta_decreasing": ss._strictly_decreasing(eta_tail),
        "observed_decreasing": bool(observed_q),
    }
    if p_hat[-1] <= ss._C4_MIN_POLY_EXPONENT:
        verdict = ss.FAILS
    elif c4_parts["eta_decreasing"] or observed_q:
        verdict = ss.HOLDS
    elif np.all(np.diff(eta_tail) >= 0):
        verdict = ss.FAILS
    else:
        verdict = ss.INCONCLUSIVE
    checks["C4"] = ss.ConditionCheck(verdict, c4_parts)

    # C5: g = alpha exp(C S) eventually decreases and its forward differences
    # stay O(alpha^2 exp(2 C S)).  eta/adecay falling decade over decade
    # certifies eventual decrease even when the peak lies past the horizon.
    ln_g = np.log(a) + C * S
    nu = eta / adecay
    grid = last_decade[last_decade < horizon]
    diff_factor = 1.0 - (a[grid + 1] / a[grid]) * np.exp(np.clip(C * a[grid + 1], None, 700.0))
    log_scale = np.clip(-C * S[grid] - np.log(a[grid]), -745.0, 700.0)
    r5 = diff_factor * np.exp(log_scale)
    g_grid = ln_g[last_decade]
    peak_grid = np.unique(np.geomspace(1, horizon, 200).astype(int))
    last_peak = int(peak_grid[int(np.argmax(ln_g[peak_grid]))])
    c5_parts = {
        "nu_decreasing": ss._strictly_decreasing(nu[-ss._TREND_INTERVALS:]),
        "observed_decreasing": ss._nonincreasing(g_grid),
        "diff_ratio_max": float(np.max(np.abs(r5))) if r5.size else 0.0,
        "last_peak_index": last_peak,
    }
    bounded = c5_parts["diff_ratio_max"] < ss._C5_RATIO_BOUND
    if bounded and (c5_parts["nu_decreasing"] or c5_parts["observed_decreasing"]):
        verdict = ss.HOLDS
    elif not bounded or (np.all(np.diff(nu[-ss._TREND_INTERVALS:]) >= 0)
                         and not c5_parts["observed_decreasing"]):
        verdict = ss.FAILS
    else:
        verdict = ss.INCONCLUSIVE
    checks["C5"] = ss.ConditionCheck(verdict, c5_parts)

    return ss.ConditionReport(C=float(C), horizon=horizon, checks=checks)
