"""Exception types shared across the package."""


class SubgradNetError(Exception):
    """Base class for all package-specific errors."""


class NonSymmetricError(SubgradNetError):
    """A matrix expected to be symmetric exceeds the asymmetry tolerance."""


class NoStationaryDistributionError(SubgradNetError):
    """The stationary-distribution linear system is singular beyond tolerance."""


class FactorizationError(SubgradNetError):
    """A covariance matrix is not positive semidefinite within tolerance."""


class NonConvergenceError(SubgradNetError):
    """An iterative oracle failed to reach its tolerance within its budget."""


class DivergenceDetected(SubgradNetError):
    """A simulated trajectory produced non-finite or runaway states.

    ``norm_sq`` is the squared state norm that crossed the limit (NaN for a
    NaN state); it decides which of several replications is named."""

    def __init__(self, message, replication=None, step=None, norm_sq=None):
        super().__init__(message)
        self.replication = replication
        self.step = step
        self.norm_sq = norm_sq


class WorkerLost(SubgradNetError):
    """A worker process ended before returning its share of the replications."""


class ConfigError(SubgradNetError):
    """Base class for configuration problems."""


class ParseError(ConfigError):
    """The configuration file could not be read or parsed."""


class ValidationError(ConfigError):
    """A configuration value violates a documented constraint."""
