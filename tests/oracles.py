"""Independent oracles used by the tests.

Deliberately separate from the library implementations: eigenvalues by cyclic
Jacobi rotations, cubic characteristic-polynomial roots in closed form, plain
finite differences, the per-node and stacked compact forms of the step, the
consensus projection, and the sequential loops that the library's vectorised
routines replaced.  These provide the second route of every dual-route check.
"""

import math

import numpy as np

from subgradnet import DivergenceDetected, laplacian
from subgradnet.graphs import CHUNK


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
                xi[j, i] = model.draw_xi(rng)
    return xi


def psi_matrix(model, states):
    """Intensities psi(x_j - x_i) for all ordered pairs; entry [j, i]."""
    x = np.asarray(states, dtype=float)
    diff = x[:, None, :] - x[None, :, :]
    return model.psi_values(np.sqrt((diff * diff).sum(axis=2)))


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

    Draw order is fixed: channel noises in lexicographic (j, i) order over
    active channels, then gradient noises node by node, so any consumer
    seeding an identical generator reproduces the same randomness.
    """
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
                y_ji = x[j] + model.psi(x[j] - x[i]) * xi[j, i]
                coupling += a_ij * (y_ji - x[i])
        new[i] = x[i] + c_k * coupling
    for i in range(n_nodes):
        d_tilde, _ = objective.noisy_subgradient(i, x[i], rng)
        new[i] -= alpha_k * d_tilde
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
    d_stack = np.stack([objective.subgradient(i, x[i]) for i in range(n_nodes)])
    grad_term = alpha_k * (d_stack + np.asarray(zeta, dtype=float)).reshape(-1)
    new = lin + noise_term - grad_term
    if not np.all(np.isfinite(new)):
        raise DivergenceDetected("non-finite state after compact step", step=k)
    return new.reshape(n_nodes, dim)


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
