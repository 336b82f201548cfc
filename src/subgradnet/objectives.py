"""Convex costs of N nodes, measured for all nodes in one stacked call.

A node's cost, subgradient and noisy measurement are those of its one-node
problem, built from ``targets[i:i+1]`` or from ``covariances[i:i+1]`` with
``sigma_v[i:i+1]``: row i of the stacked call, bit for bit.

Two built-in families: separable quadratics (closed-form optimum, exact
gradients) and the population-risk L1-regularized regression problem, whose
noisy subgradient reproduces the statistical structure of streaming
regression data: the noise is a martingale difference whose conditional
second moment grows with the squared state.  Its state-free factors are
computed once per block of draws, read in whatever layout the draws have, and
each step's subgradient and noise share one covariance product.  A diagonal
covariance or root stack makes its product one elementwise call, with the
bits of the per-block product that a dense stack keeps.  A deterministic
proximal-gradient oracle computes the global optimum independently of any
simulation.
"""

import warnings
from dataclasses import dataclass, field
from types import SimpleNamespace

import numpy as np

from .errors import FactorizationError, NonConvergenceError


def soft_threshold(x, t):
    return np.sign(x) * np.maximum(np.abs(x) - t, 0.0)


@dataclass(frozen=True)
class QuadraticObjective:
    """f_i(x) = 0.5 ||x - target_i||^2 with exact gradients.

    Satisfies the linear-growth condition with slope 1 and offset
    ||target_i|| per node; the global optimum is the target centroid.
    """

    targets: np.ndarray

    def __post_init__(self):
        t = np.atleast_2d(np.asarray(self.targets, dtype=float))
        if t.ndim != 2:
            raise ValueError("targets must be an (N, n) array")
        if not np.all(np.isfinite(t)):
            raise ValueError("targets entries must be finite")
        object.__setattr__(self, "targets", t)

    @property
    def n_nodes(self):
        return self.targets.shape[0]

    @property
    def dim(self):
        return self.targets.shape[1]

    @property
    def has_gradient_noise(self):
        return False

    @property
    def sigma_d(self):
        return np.ones(self.n_nodes)

    @property
    def c_d(self):
        return np.linalg.norm(self.targets, axis=1)

    @property
    def sigma_zeta(self):
        return 0.0

    def total_cost(self, x):
        diff = np.asarray(x, dtype=float)[..., None, :] - self.targets
        return 0.5 * (diff * diff).sum(axis=(-2, -1))

    def workspace(self, lead):
        """Per-batch operands of ``subgradient_stack`` for states shaped
        ``lead + (N, n)``: the targets tiled to that shape."""
        return SimpleNamespace(targets=np.broadcast_to(
            self.targets, tuple(lead) + self.targets.shape).copy())

    def subgradient_stack(self, states, out=None, ws=None):
        """Per-node gradients for stacked states of shape (..., N, n),
        written into ``out`` when given; with the ``workspace`` of the
        states' leading shape, the targets are not broadcast."""
        return np.subtract(states, self.targets if ws is None else ws.targets, out)

    def optimum(self):
        x_star = self.targets.mean(axis=0)
        return x_star, float(self.total_cost(x_star))


def _check_psd(matrix, tol=1e-10):
    m = np.asarray(matrix, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError("covariance must be square")
    if np.max(np.abs(m - m.T)) > tol:
        raise FactorizationError("covariance matrix is not symmetric")
    w, v = np.linalg.eigh((m + m.T) / 2.0)
    if w.min() < -tol:
        raise FactorizationError(
            f"covariance has negative eigenvalue {w.min():.3e}")
    return (m + m.T) / 2.0, v @ np.diag(np.sqrt(np.clip(w, 0.0, None))) @ v.T


def _diagonals(stack):
    """The diagonals ``(K, n)`` of a ``(K, n, n)`` stack whose off-diagonal
    entries are all exactly zero, or None when one is not."""
    off = ~np.eye(stack.shape[-1], dtype=bool)
    return None if np.any(stack[:, off]) else np.diagonal(stack, axis1=1, axis2=2).copy()


# Added to an elementwise product, turns each -0 into the +0 that the sum of
# a block product gives, and leaves every other value as it is.
_PLUS_ZERO = np.zeros(())


def _node_product(stack, diag, vec, out=None):
    """``stack[i] @ vec[..., i, :]`` for each node i, into ``out`` when given.

    With the stack's diagonals ``diag`` (from ``_diagonals``, or tiled to
    ``vec``'s shape) it is an elementwise product: every other term of the
    block product is an exact zero, so the bits, the sign of a zero included,
    are the block product's.  Without, it is a per-slice matmul, so the
    arithmetic of one state does not depend on how many share the stack.
    """
    if diag is not None:
        prod = np.multiply(diag, vec, out=out)
        return np.add(prod, _PLUS_ZERO, out=prod)
    return np.matmul(stack, vec[..., None],
                     out=None if out is None else out[..., None])[..., 0]


def _measurement(cov, cov_diag, x0, kappa, shape, zeta):
    """``measure(x, factors=None, out=None)`` of float states of shape
    ``shape``: the subgradient ``d = R w + kappa sign(x)`` with
    ``w = x - x0``, into ``out`` when given, and with noise factors
    ``(u, u sigma_v v)`` also the noise ``u (u.w) - R w - u sigma_v v``, into
    ``zeta`` (shaped as the states and factors broadcast).  ``R w`` is the
    ``_node_product`` of ``cov`` and its diagonals ``cov_diag`` (None for a
    dense stack).  As the engine's kernel, it binds its buffers once."""
    w, rw, sign_x = np.empty(shape), np.empty(shape), np.empty(shape)
    w_col, rw_col = w[..., None], rw[..., None]
    s = np.empty(zeta.shape[:-1])
    s_col = s[..., None]
    kappa = np.array(float(kappa))
    add, subtract, multiply, sign = np.add, np.subtract, np.multiply, np.sign
    add_reduce, matmul = np.add.reduce, np.matmul

    def measure(x, factors=None, out=None):
        subtract(x, x0, w)
        if cov_diag is None:
            matmul(cov, w_col, rw_col)
        else:
            add(multiply(cov_diag, w, rw), _PLUS_ZERO, rw)
        d = add(rw, multiply(sign(x, sign_x), kappa, sign_x), out)
        if factors is None:
            return d
        u, uv = factors
        add_reduce(multiply(u, w, zeta), -1, None, s)
        multiply(u, s_col, zeta)
        return d, subtract(subtract(zeta, rw, zeta), uv, zeta)

    return measure


@dataclass(frozen=True)
class LassoProblem:
    """Population-risk regression with an L1 penalty, one cost per node.

    f_i(x) = 0.5 [(x - x0)^T R_i (x - x0) + sigma_v_i^2] + kappa ||x||_1

    The noisy subgradient mimics a single-sample regression measurement:
    with u ~ N(0, R_i) and v ~ N(0, sigma_v_i^2), the noise is
    (u u^T - R_i)(x - x0) - u v, which has zero conditional mean and a second
    moment bounded by sigma_zeta ||x||^2-type growth.
    """

    x0: np.ndarray
    covariances: np.ndarray
    sigma_v: np.ndarray
    kappa: float
    _sqrt_cov: np.ndarray = field(default=None, repr=False, compare=False)
    # The diagonals of the covariance and root stacks when each is diagonal,
    # else None: the per-step products then take one elementwise call.
    _cov_diag: np.ndarray = field(default=None, repr=False, compare=False)
    _root_diag: np.ndarray = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        x0 = np.asarray(self.x0, dtype=float).ravel()
        covs = np.asarray(self.covariances, dtype=float)
        if covs.ndim == 2:
            covs = covs[None, :, :]
        sig = np.atleast_1d(np.asarray(self.sigma_v, dtype=float))
        if sig.size == 1:
            sig = np.full(covs.shape[0], float(sig[0]))
        if not 0 <= self.kappa < np.inf:
            raise ValueError(f"kappa must be nonnegative and finite, got {self.kappa}")
        if not np.all((sig >= 0) & (sig < np.inf)):
            raise ValueError(f"sigma_v entries must be nonnegative and finite, got {self.sigma_v}")
        if not np.all(np.isfinite(x0)):
            raise ValueError(f"x0 entries must be finite, got {x0.tolist()}")
        if not np.all(np.isfinite(covs)):
            raise ValueError("covariances entries must be finite")
        if covs.shape[0] != sig.size:
            raise ValueError("one covariance and one sigma_v per node")
        if covs.shape[1] != x0.size or covs.shape[2] != x0.size:
            raise ValueError("covariance dimensions must match x0")
        fixed, roots = [], []
        for r in covs:
            sym, root = _check_psd(r)
            fixed.append(sym)
            roots.append(root)
        object.__setattr__(self, "x0", x0)
        object.__setattr__(self, "covariances", np.stack(fixed))
        object.__setattr__(self, "sigma_v", sig)
        object.__setattr__(self, "kappa", float(self.kappa))
        object.__setattr__(self, "_sqrt_cov", np.stack(roots))
        object.__setattr__(self, "_cov_diag", _diagonals(self.covariances))
        object.__setattr__(self, "_root_diag", _diagonals(self._sqrt_cov))

    @property
    def n_nodes(self):
        return self.covariances.shape[0]

    @property
    def dim(self):
        return self.x0.size

    @property
    def has_gradient_noise(self):
        return True

    @property
    def sigma_d(self):
        return np.array([np.linalg.norm(r, 2) for r in self.covariances])

    @property
    def c_d(self):
        norms = self.sigma_d
        return norms * np.linalg.norm(self.x0) + self.kappa * np.sqrt(self.dim)

    @property
    def sigma_zeta(self):
        # Frobenius bound on 2 E||u u^T - R||^2 for Gaussian u; exact for n=1.
        tr = np.trace(self.covariances, axis1=1, axis2=2)
        fro = (self.covariances ** 2).sum(axis=(1, 2))
        return float(np.max(2.0 * (tr ** 2 + fro)))

    def total_cost(self, x):
        x = np.asarray(x, dtype=float)
        diff = x[..., None, :] - self.x0
        quad = np.einsum("...ni,nij,...nj->...", diff, self.covariances, diff)
        l1 = np.abs(x).sum(axis=-1)
        return 0.5 * (quad + (self.sigma_v ** 2).sum()) + self.n_nodes * self.kappa * l1

    def workspace(self, lead):
        """Per-batch binding of ``subgradient_stack`` for states shaped
        ``lead + (N, n)``: ``measure``, the measurement bound to x0 and the
        covariance diagonals (None for a dense stack) tiled to that shape and
        to its buffers, and ``zeta``, the buffer of its noise."""
        shape = tuple(lead) + (self.n_nodes, self.dim)
        diag, zeta = self._cov_diag, np.empty(shape)
        tiled_diag = None if diag is None else np.broadcast_to(diag, shape).copy()
        return SimpleNamespace(zeta=zeta, measure=_measurement(
            self.covariances, tiled_diag, np.broadcast_to(self.x0, shape).copy(),
            self.kappa, shape, zeta))

    def subgradient_stack(self, states, factors=None, out=None, ws=None):
        """Per-node subgradients d for stacked states (..., N, n), written
        into ``out`` when given.

        Given the noise factors of the same step (``noise_factors``, sliced
        to the states' leading shape), returns the measurement ``(d, zeta)``
        instead; both share one ``R_i (x - x0)`` product.  With the
        ``workspace`` of the states' leading shape, its bound measurement
        takes float states and writes zeta and the temporaries into its
        buffers, overwritten by the next call.
        """
        if ws is not None:
            return ws.measure(states, factors, out)
        x = np.asarray(states, dtype=float)
        zeta = np.empty(x.shape if factors is None
                        else np.broadcast_shapes(x.shape, np.shape(factors[0])))
        return _measurement(self.covariances, self._cov_diag, self.x0, self.kappa,
                            x.shape, zeta)(x, factors, out)

    def noise_factors(self, z, v, out=None):
        """State-free noise factors ``(u, u sigma_v v)`` with ``u = R_i^{1/2} z``
        from standard-normal draws z (..., N, n) and v (..., N); written to
        the pair ``out`` when given."""
        u_out, uv_out = (None, None) if out is None else out
        u = _node_product(self._sqrt_cov, self._root_diag, np.asarray(z, dtype=float),
                          out=u_out)
        return u, np.multiply(u, (self.sigma_v * np.asarray(v, dtype=float))[..., None],
                              out=uv_out)

    def zeta_from_draws(self, states, z, v):
        """Gradient noise from standard-normal draws z (..., N, n), v (..., N)."""
        return self.subgradient_stack(states, self.noise_factors(z, v))[1]

    def optimum(self, tol=1e-10, max_iter=1_000_000):
        """Deterministic proximal-gradient solve of the exact summed risk.

        Independent of the simulated algorithm; stops when the gradient-map
        norm falls below ``tol``.
        """
        r_tot = self.covariances.sum(axis=0)
        lam_max = float(np.linalg.norm(r_tot, 2))
        const = 0.5 * float((self.sigma_v ** 2).sum())
        if lam_max == 0.0:
            x_star = np.zeros_like(self.x0) if self.kappa > 0 else self.x0.copy()
            return x_star, float(self.total_cost(x_star))
        step = 1.0 / lam_max
        thresh = step * self.n_nodes * self.kappa
        x = self.x0.copy()
        for _ in range(max_iter):
            grad = r_tot @ (x - self.x0)
            x_next = soft_threshold(x - step * grad, thresh)
            gap = float(np.linalg.norm(x - x_next)) / step
            x = x_next
            if gap < tol:
                quad = 0.5 * float((x - self.x0) @ r_tot @ (x - self.x0))
                f_star = quad + const + self.n_nodes * self.kappa * float(np.abs(x).sum())
                return x, f_star
        raise NonConvergenceError(
            f"proximal-gradient oracle did not reach {tol:g} in {max_iter} iterations")

    def summed_covariance_is_singular(self, tol=1e-10):
        w = np.linalg.eigvalsh(self.covariances.sum(axis=0))
        return bool(w.min() <= tol * max(float(w.max()), 1.0))


def global_optimum(objective):
    """Global minimizer and value from the objective's independent oracle."""
    x_star, f_star = objective.optimum()
    if isinstance(objective, LassoProblem) and objective.summed_covariance_is_singular():
        warnings.warn(
            "summed regressor covariance is singular; the optimum may be non-unique",
            stacklevel=2)
    return np.asarray(x_star, dtype=float), float(f_star)
