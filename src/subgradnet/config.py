"""Experiment configuration: YAML load/save, validation, object builders.

The config file is a nested key/value document (YAML).  Top-level sections:
``problem``, ``graph``, ``noise``, ``schedule``, ``run``, ``init``,
``connectivity``, ``verify``, ``output``, ``thresholds``.  Loading validates
every range constraint and names the violated field and bound in the error.
Configs round-trip losslessly through :func:`save_config` / :func:`load_config`.
"""

from dataclasses import dataclass, field, asdict

import numpy as np
import yaml

from .errors import FactorizationError, ParseError, ValidationError
from .graphs import DeterministicCycle, IndependentEdges, MarkovSwitching
from .noise import CommNoiseModel
from .objectives import LassoProblem, QuadraticObjective
from .stepsize import StepSchedule
from .engine import InitialStates

# libyaml's safe loader where PyYAML was built with it: the same dicts as the
# pure-Python SafeLoader, which parses A2's config in 8 ms against about 1 ms.
_Loader = getattr(yaml, "CSafeLoader", yaml.SafeLoader)


@dataclass
class ProblemConfig:
    kind: str = "quadratic"
    targets: list = None
    x0: list = None
    covariances: object = None  # "identity", one matrix, or one per node
    sigma_v: object = None
    kappa: float = None
    n_nodes: int = None


@dataclass
class GraphConfig:
    kind: str = "independent"
    n_nodes: int = None
    base: object = "complete"  # "complete" or an explicit matrix
    weight: float = 1.0
    activation_prob: object = 1.0
    perturb: object = 0.0
    matrices: list = None
    states: list = None
    transition: list = None
    initial: list = None


@dataclass
class NoiseConfig:
    sigma: float = 0.0
    b: float = 0.0
    cap: float = None


@dataclass
class ScheduleConfig:
    alpha1: float = 1.0
    tau1: float = 1.0
    alpha2: float = 1.0
    tau2: float = 0.75
    tau3: float = 1.0


@dataclass
class RunConfig:
    horizon: int = 1000
    reps: int = 1
    seed: int = 0
    workers: int = 1
    dense_until: int = 1000
    record_stride: int = 100
    check_stride: int = 0


@dataclass
class InitConfig:
    kind: str = "uniform"
    low: object = -5.0
    high: object = 5.0
    states: list = None


@dataclass
class ConnectivityConfig:
    h: int = 1
    windows: int = 8
    reps: int = 64


@dataclass
class OutputConfig:
    directory: str = "out"
    trace: str = "trace.csv"
    summary: str = "summary.txt"


@dataclass
class ThresholdsConfig:
    v_ratio_k_early: int = None
    v_ratio_k_late: int = None
    v_ratio_max: float = None
    final_dist_max: float = None
    min_pass_reps: int = None


@dataclass
class ExperimentConfig:
    problem: ProblemConfig = field(default_factory=ProblemConfig)
    graph: GraphConfig = field(default_factory=GraphConfig)
    noise: NoiseConfig = field(default_factory=NoiseConfig)
    schedule: ScheduleConfig = field(default_factory=ScheduleConfig)
    run: RunConfig = field(default_factory=RunConfig)
    init: InitConfig = field(default_factory=InitConfig)
    connectivity: ConnectivityConfig = field(default_factory=ConnectivityConfig)
    output: OutputConfig = field(default_factory=OutputConfig)
    thresholds: ThresholdsConfig = field(default_factory=ThresholdsConfig)
    verify_horizon: int = None


_SECTIONS = {
    "problem": ProblemConfig,
    "graph": GraphConfig,
    "noise": NoiseConfig,
    "schedule": ScheduleConfig,
    "run": RunConfig,
    "init": InitConfig,
    "connectivity": ConnectivityConfig,
    "output": OutputConfig,
    "thresholds": ThresholdsConfig,
}


def _build_section(name, cls, data):
    if data is None:
        return cls()
    if not isinstance(data, dict):
        raise ValidationError(f"section '{name}' must be a mapping")
    known = {f.name for f in cls.__dataclass_fields__.values()}
    unknown = set(data) - known
    if unknown:
        raise ValidationError(
            f"unknown keys in section '{name}': {sorted(unknown)}")
    return cls(**data)


def config_from_dict(data):
    """Build and validate an experiment configuration from a nested dict."""
    return validate_config(_build_config(data))


def _build_config(data):
    if not isinstance(data, dict):
        raise ValidationError("top-level config must be a mapping")
    unknown = set(data) - set(_SECTIONS) - {"verify"}
    if unknown:
        raise ValidationError(f"unknown top-level sections: {sorted(unknown)}")
    sections = {name: _build_section(name, cls, data.get(name))
                for name, cls in _SECTIONS.items()}
    verify = data.get("verify") or {}
    if not isinstance(verify, dict) or set(verify) - {"horizon"}:
        raise ValidationError("section 'verify' supports only the key 'horizon'")
    return ExperimentConfig(verify_horizon=verify.get("horizon"), **sections)


def load_config(path, *, _validate=True):
    """Load and validate an experiment configuration from a YAML file.

    ``_validate=False`` leaves the validation to the caller, for ``run`` and
    ``graph-report``, whose overrides must be applied before it.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = yaml.load(fh, Loader=_Loader)
    except OSError as exc:
        raise ParseError(f"cannot read config file {path}: {exc}") from exc
    except yaml.YAMLError as exc:
        raise ParseError(f"cannot parse config file {path}: {exc}") from exc
    cfg = _build_config(data if data is not None else {})
    return validate_config(cfg) if _validate else cfg


def save_config(cfg, path):
    """Write a configuration back to YAML; load_config inverts this exactly."""
    data = asdict(cfg)
    verify = {"horizon": data.pop("verify_horizon")}
    if verify["horizon"] is not None:
        data["verify"] = verify
    with open(path, "w", encoding="utf-8") as fh:
        yaml.safe_dump(data, fh, sort_keys=True)


def _require(cond, message):
    if not cond:
        raise ValidationError(message)


def _is_pos_int(v):
    return isinstance(v, (int, np.integer)) and not isinstance(v, bool) and v >= 1


def validate_config(cfg):
    """Check every documented constraint; names the field and bound on failure."""
    sch = cfg.schedule
    _require(sch.alpha1 > 0, f"schedule.alpha1 must be positive, got {sch.alpha1}")
    _require(0 < sch.tau1 <= 1, f"schedule.tau1 must lie in (0, 1], got {sch.tau1}")
    _require(sch.alpha2 > 0, f"schedule.alpha2 must be positive, got {sch.alpha2}")
    _require(0.5 < sch.tau2 < 1, f"schedule.tau2 must lie in (0.5, 1), got {sch.tau2}")
    _require(sch.tau3 <= 1, f"schedule.tau3 must be at most 1, got {sch.tau3}")

    run = cfg.run
    _require(_is_pos_int(run.horizon), f"run.horizon must be a positive integer, got {run.horizon}")
    _require(_is_pos_int(run.reps), f"run.reps must be a positive integer, got {run.reps}")
    _require(_is_pos_int(run.workers), f"run.workers must be a positive integer, got {run.workers}")
    _require(isinstance(run.seed, (int, np.integer)) and run.seed >= 0,
             f"run.seed must be a nonnegative integer, got {run.seed}")
    _require(run.dense_until >= 0, "run.dense_until must be nonnegative")
    _require(run.record_stride >= 1, "run.record_stride must be at least 1")
    _require(run.check_stride >= 0, "run.check_stride must be nonnegative")

    noi = cfg.noise
    _require(noi.sigma >= 0, f"noise.sigma must be nonnegative, got {noi.sigma}")
    _require(noi.b >= 0, f"noise.b must be nonnegative, got {noi.b}")
    _require(noi.cap is None or noi.cap >= 0, "noise.cap must be nonnegative when set")

    conn = cfg.connectivity
    _require(_is_pos_int(conn.h), f"connectivity.h must be a positive integer, got {conn.h}")
    _require(_is_pos_int(conn.windows), "connectivity.windows must be a positive integer")
    _require(_is_pos_int(conn.reps), "connectivity.reps must be a positive integer")
    if cfg.verify_horizon is not None:
        _require(cfg.verify_horizon >= 1000,
                 f"verify.horizon must be at least 1000, got {cfg.verify_horizon}")

    prob = cfg.problem
    _require(prob.kind in ("quadratic", "lasso"),
             f"problem.kind must be 'quadratic' or 'lasso', got {prob.kind!r}")
    if prob.kind == "quadratic":
        _require(prob.targets, "problem.targets is required for quadratic problems")
        lens = {len(t) for t in prob.targets}
        _require(len(lens) == 1, "problem.targets rows must share one dimension")
    else:
        _require(prob.x0 is not None, "problem.x0 is required for lasso problems")
        _require(prob.kappa is not None and prob.kappa >= 0,
                 f"problem.kappa must be nonnegative, got {prob.kappa}")
        _require(prob.sigma_v is not None, "problem.sigma_v is required for lasso problems")
        sig = np.atleast_1d(np.asarray(prob.sigma_v, dtype=float))
        _require(bool(np.all(sig >= 0)), "problem.sigma_v entries must be nonnegative")
        if prob.covariances in (None, "identity"):
            _require(_is_pos_int(prob.n_nodes),
                     "problem.n_nodes is required when covariances is 'identity'")

    # Build the heavyweight objects once; their constructors enforce the rest.
    try:
        objective = build_objective(cfg)
    except (ValueError, FactorizationError) as exc:
        raise ValidationError(f"problem: {exc}") from exc
    try:
        process = build_process(cfg)
    except ValueError as exc:
        raise ValidationError(f"graph: {exc}") from exc
    _require(process.n_nodes == objective.n_nodes,
             f"graph.n_nodes {process.n_nodes} must match the problem's "
             f"{objective.n_nodes} nodes")

    ini = cfg.init
    _require(ini.kind in ("uniform", "explicit"),
             f"init.kind must be 'uniform' or 'explicit', got {ini.kind!r}")
    if ini.kind == "uniform":
        low = np.broadcast_to(np.asarray(ini.low, dtype=float), (objective.dim,))
        high = np.broadcast_to(np.asarray(ini.high, dtype=float), (objective.dim,))
        _require(bool(np.all(low <= high)), "init.low must not exceed init.high")
    else:
        _require(ini.states is not None, "init.states is required for explicit init")
        st = np.asarray(ini.states, dtype=float)
        _require(st.shape == (objective.n_nodes, objective.dim),
                 f"init.states must have shape ({objective.n_nodes}, {objective.dim})")

    # The schedule pair must decay monotonically over the simulated horizon.
    try:
        schedule = build_schedule(cfg)
    except ValueError as exc:
        raise ValidationError(f"schedule: {exc}") from exc
    ks = np.arange(min(run.horizon, 1_000_000) + 1)
    c_vals = schedule.c(ks)
    if not np.all(np.diff(c_vals) < 0):
        bad = int(np.argmax(np.diff(c_vals) >= 0))
        raise ValidationError(
            f"schedule.tau3={sch.tau3} makes c(k) non-decreasing at k={bad}; "
            "c must decrease over the simulated horizon")
    thr = cfg.thresholds
    if thr.min_pass_reps is not None:
        _require(0 <= thr.min_pass_reps <= run.reps,
                 "thresholds.min_pass_reps must lie in [0, run.reps]")
    return cfg


def build_objective(cfg):
    prob = cfg.problem
    if prob.kind == "quadratic":
        return QuadraticObjective(np.asarray(prob.targets, dtype=float))
    x0 = np.asarray(prob.x0, dtype=float)
    dim = x0.size
    cov = prob.covariances
    if cov in (None, "identity"):
        covs = np.stack([np.eye(dim)] * int(prob.n_nodes))
    else:
        arr = np.asarray(cov, dtype=float)
        if arr.ndim == 2:
            _require(_is_pos_int(prob.n_nodes),
                     "problem.n_nodes is required with a single shared covariance")
            covs = np.stack([arr] * int(prob.n_nodes))
        else:
            covs = arr
    return LassoProblem(x0=x0, covariances=covs, sigma_v=prob.sigma_v,
                        kappa=float(prob.kappa))


def build_process(cfg):
    g = cfg.graph
    if g.kind == "independent":
        if isinstance(g.base, str):
            _require(g.base == "complete",
                     f"graph.base must be 'complete' or a matrix, got {g.base!r}")
            _require(_is_pos_int(g.n_nodes),
                     "graph.n_nodes is required with base 'complete'")
            n = int(g.n_nodes)
            base = g.weight * (np.ones((n, n)) - np.eye(n))
        else:
            base = np.asarray(g.base, dtype=float)
        return IndependentEdges(base=base, prob=g.activation_prob, perturb=g.perturb)
    if g.kind == "markov":
        _require(g.states, "graph.states is required for markov graphs")
        _require(g.transition is not None, "graph.transition is required for markov graphs")
        return MarkovSwitching(states=[np.asarray(s, dtype=float) for s in g.states],
                               transition=np.asarray(g.transition, dtype=float),
                               initial=None if g.initial is None
                               else np.asarray(g.initial, dtype=float))
    if g.kind == "deterministic":
        _require(g.matrices, "graph.matrices is required for deterministic graphs")
        return DeterministicCycle([np.asarray(m, dtype=float) for m in g.matrices])
    raise ValidationError(
        f"graph.kind must be 'deterministic', 'independent' or 'markov', got {g.kind!r}")


def build_noise(cfg, dim):
    return CommNoiseModel(sigma=float(cfg.noise.sigma), b=float(cfg.noise.b),
                          noise_dim=int(dim), cap=cfg.noise.cap)


def build_schedule(cfg):
    s = cfg.schedule
    return StepSchedule(alpha1=float(s.alpha1), tau1=float(s.tau1),
                        alpha2=float(s.alpha2), tau2=float(s.tau2),
                        tau3=float(s.tau3))


def build_init(cfg):
    ini = cfg.init
    if ini.kind == "explicit":
        return InitialStates.explicit(np.asarray(ini.states, dtype=float))
    return InitialStates.uniform(ini.low, ini.high)
