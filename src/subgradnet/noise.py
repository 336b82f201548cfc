"""Communication-channel noise: additive plus relative-state multiplicative.

A node ``i`` measuring neighbour ``j`` receives ``x_j`` corrupted by a
zero-mean vector noise scaled by an intensity psi(x_j - x_i).  The shipped
intensity is the norm form ``sigma * ||x_j - x_i|| + b`` (optionally capped),
which attains the admissible growth bound with equality: ``sigma`` scales the
multiplicative part and ``b`` the additive floor.  Channel noises are drawn
from their own RNG stream so they are independent of the graph draw by
construction.  Being Gaussian, they enter the update only through each
receiver's weighted sum, N(0, ||w_i||^2 I/dim), which the engine draws
directly as ``||w_i|| z_i`` with one N(0, I/dim) vector per receiver.
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
    cap: float = None

    def __post_init__(self):
        if not 0 <= self.sigma < np.inf:
            raise ValueError(f"sigma must be nonnegative and finite, got {self.sigma}")
        if not 0 <= self.b < np.inf:
            raise ValueError(f"b must be nonnegative and finite, got {self.b}")
        if self.cap is not None and not self.cap >= 0:
            raise ValueError(f"cap must be nonnegative, got {self.cap}")
        # 0-d arrays: a ufunc converts a Python float operand on every call,
        # which costs a third of the psi_values call at the shipped shapes.
        object.__setattr__(self, "_sigma", np.array(float(self.sigma)))
        object.__setattr__(self, "_b", np.array(float(self.b)))

    def psi_values(self, delta_norms, out=None):
        """Vectorized intensity from precomputed relative-state norms, written
        into ``out`` when given (which may be ``delta_norms`` itself)."""
        if out is None:
            out = np.empty(np.shape(delta_norms))
        np.multiply(delta_norms, self._sigma, out)
        np.add(out, self._b, out)
        if self.cap is not None:
            np.minimum(out, self.cap, out=out)
        return out
