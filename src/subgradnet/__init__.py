"""Distributed stochastic subgradient consensus over random noisy networks.

Simulation library and CLI for the distributed subgradient algorithm in which
nodes exchange states over a randomly switching digraph through channels with
additive and relative-state multiplicative noise, using diminishing consensus
and descent step sizes.
"""

from .config import (ExperimentConfig, config_from_dict, load_config, save_config,
                     validate_config)
from .engine import (InitialStates, MonteCarloResult, default_record_ks,
                     monte_carlo)
from .errors import (ConfigError, DivergenceDetected, FactorizationError,
                     NoStationaryDistributionError, NonConvergenceError,
                     NonSymmetricError, ParseError, SubgradNetError,
                     ValidationError)
from .experiment import (ExperimentConstants, ExperimentResult,
                         estimate_constants, run_experiment)
from .graphs import (DeterministicCycle, IndependentEdges, LaplacianStats,
                     MarkovSwitching, is_balanced, joint_connectivity_report,
                     lambda2, laplacian, mean_graph_spanning_check,
                     symmetrized_laplacian, validate_adjacency)
from .noise import CommNoiseModel
from .objectives import (LassoProblem, QuadraticObjective, global_optimum,
                         soft_threshold)
from .stepsize import (FAILS, HOLDS, INCONCLUSIVE, ConditionCheck,
                       ConditionReport, StepSchedule, kahan_cumsum,
                       verify_conditions)

__version__ = "0.1.0"
