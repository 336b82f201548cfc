"""Communication-channel noise: additive plus relative-state multiplicative.

A node ``i`` measuring neighbour ``j`` receives ``x_j`` corrupted by a
zero-mean vector noise scaled by an intensity psi(x_j - x_i).  The shipped
intensity is the norm form ``sigma * ||x_j - x_i|| + b`` (optionally capped),
which attains the admissible growth bound with equality: ``sigma`` scales the
multiplicative part and ``b`` the additive floor.  Channel noises are drawn
from their own RNG stream so they are independent of the graph draw by
construction.
"""

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class CommNoiseModel:
    """Channel-noise intensity model shared by all channels.

    Per-channel noise vectors are i.i.d. normal scaled by 1/sqrt(dim), so each
    active channel contributes unit second moment and the stacked-noise second
    moment equals the number of active channels.
    """

    sigma: float
    b: float
    noise_dim: int
    cap: float = None

    def __post_init__(self):
        if self.sigma < 0 or self.b < 0:
            raise ValueError("noise intensity coefficients must be nonnegative")
        if self.noise_dim < 1:
            raise ValueError("noise_dim must be at least 1")
        if self.cap is not None and self.cap < 0:
            raise ValueError("cap must be nonnegative")

    def psi(self, delta):
        """Noise intensity for one relative state; |psi| <= sigma*||delta|| + b."""
        val = self.sigma * float(np.linalg.norm(delta)) + self.b
        if self.cap is not None:
            val = min(val, self.cap)
        return val

    def psi_values(self, delta_norms):
        """Vectorized intensity from precomputed relative-state norms."""
        val = self.sigma * np.asarray(delta_norms, dtype=float) + self.b
        if self.cap is not None:
            val = np.minimum(val, self.cap)
        return val

    def draw_xi(self, rng):
        """One channel-noise vector with unit second moment."""
        return rng.standard_normal(self.noise_dim) / np.sqrt(self.noise_dim)

    def measure_state(self, x_j, x_i, rng):
        """Noisy measurement of x_j as heard by node i."""
        x_j = np.asarray(x_j, dtype=float)
        x_i = np.asarray(x_i, dtype=float)
        if x_j.shape != x_i.shape:
            raise ValueError("state vectors must share a shape")
        return x_j + self.psi(x_j - x_i) * self.draw_xi(rng)


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
