"""Per-node convex costs with exact and noisy subgradient oracles.

Two built-in families: separable quadratics (closed-form optimum, exact
gradients) and the population-risk L1-regularized regression problem, whose
noisy subgradient reproduces the statistical structure of streaming
regression data: the noise is a martingale difference whose conditional
second moment grows with the squared state.  Its state-free factors are
computed once per block of draws and each step's subgradient and noise share
one covariance product.  A deterministic proximal-gradient oracle computes the
global optimum independently of any simulation.
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

    def cost(self, i, x):
        diff = np.asarray(x, dtype=float) - self.targets[i]
        return 0.5 * float(diff @ diff)

    def total_cost(self, x):
        diff = np.asarray(x, dtype=float)[..., None, :] - self.targets
        return 0.5 * (diff * diff).sum(axis=(-2, -1))

    def subgradient(self, i, x):
        return np.asarray(x, dtype=float) - self.targets[i]

    def workspace(self, lead):
        """Per-batch operands of ``subgradient_stack`` for states shaped
        ``lead + (N, n)``: the targets tiled to that shape."""
        return SimpleNamespace(targets=np.broadcast_to(
            self.targets, tuple(lead) + self.targets.shape).copy())

    def subgradient_stack(self, states, out=None, ws=None):
        """Per-node gradients for stacked states of shape (..., N, n),
        written into ``out`` when given; with the ``workspace`` of the
        states' leading shape, the targets are not broadcast."""
        return np.subtract(states, self.targets if ws is None else ws.targets, out=out)

    def noisy_subgradient(self, i, x, rng):
        d = self.subgradient(i, x)
        return d, np.zeros_like(d)

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


def _noise_factors(sqrt_cov, sigma_v, z, v, out=None):
    """Noise factors ``u = sqrt_cov @ z`` and ``u * sigma_v * v``.

    With stacked per-node factors, z is (..., N, n) and v (..., N); with one
    node's, z is (..., n) and v (...).  Neither factor depends on the state.
    ``out``, a pair of arrays shaped like z, receives the two factors.
    """
    u_out, uv_out = (None, None) if out is None else out
    u = np.matmul(sqrt_cov, np.asarray(z, dtype=float)[..., None],
                  out=None if u_out is None else u_out[..., None])[..., 0]
    return u, np.multiply(u, (sigma_v * np.asarray(v, dtype=float))[..., None],
                          out=uv_out)


# A measurement workspace whose buffers are all fresh allocations.
_ALLOCATE = SimpleNamespace(w=None, rw=None, sign=None, s=None, zeta=None)


def _measure(cov, x0, kappa, states, factors=None, out=None, ws=_ALLOCATE):
    """Subgradient ``d = R w + kappa sign(x)`` with ``w = x - x0``, written
    into ``out`` when given, and with noise factors ``(u, u sigma_v v)`` also
    the noise ``u (u.w) - R w - u sigma_v v``.

    The temporaries go to the buffers of ``ws`` (``rw`` shaped
    ``(..., n, 1)``); ``zeta`` is one of them.  Every product is a per-slice
    matmul, so the arithmetic of one state does not depend on how many
    states share the stack.
    """
    x = np.asarray(states, dtype=float)
    w = np.subtract(x, x0, out=ws.w)
    rw = np.matmul(cov, w[..., None], out=ws.rw)[..., 0]
    d = np.add(rw, np.multiply(np.sign(x, out=ws.sign), kappa, out=ws.sign), out=out)
    if factors is None:
        return d
    u, uv = factors
    s = np.multiply(u, w, out=ws.zeta).sum(axis=-1, out=ws.s)
    zeta = np.multiply(u, s[..., None], out=ws.zeta)
    return d, np.subtract(np.subtract(zeta, rw, out=zeta), uv, out=zeta)


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

    def __post_init__(self):
        x0 = np.asarray(self.x0, dtype=float).ravel()
        covs = np.asarray(self.covariances, dtype=float)
        if covs.ndim == 2:
            covs = covs[None, :, :]
        sig = np.atleast_1d(np.asarray(self.sigma_v, dtype=float))
        if sig.size == 1:
            sig = np.full(covs.shape[0], float(sig[0]))
        if self.kappa < 0:
            raise ValueError("kappa must be nonnegative")
        if np.any(sig < 0):
            raise ValueError("sigma_v entries must be nonnegative")
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

    @property
    def c_zeta(self):
        tr = np.trace(self.covariances, axis1=1, axis2=2)
        fro = (self.covariances ** 2).sum(axis=(1, 2))
        x0_sq = float(self.x0 @ self.x0)
        per_node = 2.0 * (tr ** 2 + fro) * x0_sq + self.sigma_v ** 2 * np.abs(tr)
        return float(self.n_nodes * np.max(per_node))

    def risk(self, i, x):
        diff = np.asarray(x, dtype=float) - self.x0
        quad = float(diff @ self.covariances[i] @ diff)
        return 0.5 * (quad + self.sigma_v[i] ** 2) + self.kappa * float(np.abs(x).sum())

    def total_cost(self, x):
        x = np.asarray(x, dtype=float)
        diff = x[..., None, :] - self.x0
        quad = np.einsum("...ni,nij,...nj->...", diff, self.covariances, diff)
        l1 = np.abs(x).sum(axis=-1)
        return 0.5 * (quad + (self.sigma_v ** 2).sum()) + self.n_nodes * self.kappa * l1

    def subgradient(self, i, x):
        """Exact subgradient; the L1 part selects 0 at kinks (minimum norm)."""
        return _measure(self.covariances[i], self.x0, self.kappa, x)

    def workspace(self, lead):
        """Per-batch buffers of ``subgradient_stack`` for states shaped
        ``lead + (N, n)``: x0 tiled to that shape, and one buffer for each
        of w = x - x0, R w, kappa sign(x), the projections u.w and zeta."""
        shape = tuple(lead) + (self.n_nodes, self.dim)
        return SimpleNamespace(x0=np.broadcast_to(self.x0, shape).copy(),
                               w=np.empty(shape), rw=np.empty(shape + (1,)),
                               sign=np.empty(shape), s=np.empty(shape[:-1]),
                               zeta=np.empty(shape))

    def subgradient_stack(self, states, factors=None, out=None, ws=None):
        """Per-node subgradients d for stacked states (..., N, n), written
        into ``out`` when given.

        Given the noise factors of the same step (``noise_factors``, sliced
        to the states' leading shape), returns the measurement ``(d, zeta)``
        instead; both share one ``R_i (x - x0)`` product.  With the
        ``workspace`` of the states' leading shape, the temporaries and zeta
        are its buffers, overwritten by the next call.
        """
        return _measure(self.covariances, self.x0 if ws is None else ws.x0, self.kappa,
                        states, factors, out, ws or _ALLOCATE)

    def noise_factors(self, z, v, out=None):
        """State-free noise factors ``(u, u sigma_v v)`` with ``u = R_i^{1/2} z``
        from standard-normal draws z (..., N, n) and v (..., N); written to
        the pair ``out`` when given."""
        return _noise_factors(self._sqrt_cov, self.sigma_v, z, v, out)

    def zeta_from_draws(self, states, z, v):
        """Gradient noise from standard-normal draws z (..., N, n), v (..., N)."""
        return self.subgradient_stack(states, self.noise_factors(z, v))[1]

    def noisy_subgradient(self, i, x, rng):
        """Subgradient measurement (d + zeta, zeta) from one fresh sample."""
        factors = _noise_factors(self._sqrt_cov[i], self.sigma_v[i],
                                 rng.standard_normal(self.dim), rng.standard_normal())
        d, zeta = _measure(self.covariances[i], self.x0, self.kappa, x, factors)
        return d + zeta, zeta

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
