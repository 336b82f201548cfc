"""Experiment configuration: YAML load/save, validation, object builders.

The config file is a nested key/value document (YAML).  Top-level sections:
``problem``, ``graph``, ``noise``, ``schedule``, ``run``, ``init``,
``connectivity``, ``verify``, ``output``, ``thresholds``.  Configs round-trip
losslessly through :func:`save_config` / :func:`load_config`.

Each rule has one home.  A constructor owns the ranges of what it builds:
``StepSchedule`` the step-size family, ``CommNoiseModel`` the nonnegative
sigma, b and cap, ``QuadraticObjective`` its finite targets, ``LassoProblem``
its finite data with nonnegative kappa and sigma_v, the graph processes their
matrices.  :func:`validate_config` builds each of them once, reports a
rejection as a ``ValidationError`` prefixed with the section, and returns
what it built as a :class:`RunObjects`, from which every caller takes the
objects of its run.  It checks
itself only what no constructor sees: that the schedule, noise and lasso
kappa fields are numbers, the graph weight and thresholds finite numbers and
the count fields integers, that the output names are nonempty strings and
name two files, the problem's required fields, the node counts across
sections, that the initial states are finite numbers of the problem's shape,
that alpha(k) and c(k) and their squares stay positive normal floats up to
the longer of the run and verification horizons, and that c(k) decreases
at step 0, hence at every step.
"""

import contextlib
import math
import os
from dataclasses import asdict, dataclass, field, fields
from typing import NamedTuple

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
class VerifyConfig:
    horizon: int = 1_000_000


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
    verify: VerifyConfig = field(default_factory=VerifyConfig)
    output: OutputConfig = field(default_factory=OutputConfig)
    thresholds: ThresholdsConfig = field(default_factory=ThresholdsConfig)


_SECTIONS = {f.name: f.default_factory for f in fields(ExperimentConfig)}


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
    cfg = _build_config(data)
    validate_config(cfg)
    return cfg


def _build_config(data):
    if not isinstance(data, dict):
        raise ValidationError("top-level config must be a mapping")
    unknown = set(data) - set(_SECTIONS)
    if unknown:
        raise ValidationError(f"unknown top-level sections: {sorted(unknown)}")
    return ExperimentConfig(**{name: _build_section(name, cls, data.get(name))
                               for name, cls in _SECTIONS.items()})


def load_config(path, *, _validate=True):
    """Load and validate an experiment configuration from a YAML file.

    ``_validate=False`` leaves the validation to the caller, which applies
    its overrides first and keeps the objects :func:`validate_config` builds.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = yaml.load(fh, Loader=_Loader)
    except OSError as exc:
        raise ParseError(f"cannot read config file {path}: {exc}") from exc
    except yaml.YAMLError as exc:
        raise ParseError(f"cannot parse config file {path}: {exc}") from exc
    cfg = _build_config(data if data is not None else {})
    if _validate:
        validate_config(cfg)
    return cfg


def save_config(cfg, path):
    """Write a configuration back to YAML; load_config inverts this exactly."""
    data = asdict(cfg)
    with open(path, "w", encoding="utf-8") as fh:
        yaml.safe_dump(data, fh, sort_keys=True)


def _require(cond, message):
    if not cond:
        raise ValidationError(message)


def _int_at_least(section, name, value, low):
    """Reject a value that is not an integer (a bool included) or is below ``low``."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < low:
        kind = {0: "a nonnegative integer", 1: "a positive integer"}.get(
            low, f"an integer of at least {low}")
        raise ValidationError(f"{section}.{name} must be {kind}, got {value!r}")


def _number(section, name, value, finite=False):
    """``value`` as a float; with ``finite``, an infinite or NaN one is rejected too."""
    try:
        number = float(value)
    except (TypeError, ValueError):
        number = None
    if number is None or finite and not math.isfinite(number):
        kind = "a finite number" if finite else "a number"
        raise ValidationError(f"{section}.{name} must be {kind}, got {value!r}")
    return number


def _finite_array(section, name, value, shape, broadcast=False):
    """``value`` as finite floats of ``shape``, or broadcast to it with
    ``broadcast``; anything else is reported with the shape it must have."""
    try:
        array = np.asarray(value, dtype=float)
        if broadcast:
            array = np.broadcast_to(array, shape)
    except (TypeError, ValueError):
        array = None
    if array is None or array.shape != shape or not np.all(np.isfinite(array)):
        must = "broadcast to" if broadcast else "be"
        raise ValidationError(
            f"{section}.{name} must {must} finite numbers of shape {shape}, got {value!r}")
    return array


@contextlib.contextmanager
def _section(name):
    """Report a constructor's rejection as a ValidationError naming the section."""
    try:
        yield
    except (ValueError, TypeError, FactorizationError) as exc:
        raise ValidationError(f"{name}: {exc}") from exc


class RunObjects(NamedTuple):
    """The objects :func:`validate_config` built from a config and checked."""

    objective: object
    process: object
    noise: CommNoiseModel
    schedule: StepSchedule
    init: InitialStates


def validate_config(cfg):
    """Check the rules only the config can state, then build the objects whose
    constructors check the rest; every failure names its section.  Returns
    the objects built, so that no caller builds them again."""
    run = cfg.run
    for name, low in (("horizon", 1), ("reps", 1), ("workers", 1), ("seed", 0),
                      ("dense_until", 0), ("record_stride", 1), ("check_stride", 0)):
        _int_at_least("run", name, getattr(run, name), low)
    for name in ("h", "windows", "reps"):
        _int_at_least("connectivity", name, getattr(cfg.connectivity, name), 1)
    _int_at_least("verify", "horizon", cfg.verify.horizon, 1000)
    thr = cfg.thresholds
    for name in ("v_ratio_k_early", "v_ratio_k_late", "min_pass_reps"):
        if getattr(thr, name) is not None:
            _int_at_least("thresholds", name, getattr(thr, name), 0)
    for name in ("v_ratio_max", "final_dist_max"):
        if getattr(thr, name) is not None:
            _number("thresholds", name, getattr(thr, name), finite=True)
    if thr.min_pass_reps is not None:
        _require(thr.min_pass_reps <= run.reps,
                 f"thresholds.min_pass_reps must not exceed run.reps = {run.reps}, "
                 f"got {thr.min_pass_reps}")
    out = cfg.output
    for name in ("directory", "trace", "summary"):
        value = getattr(out, name)
        _require(isinstance(value, str) and value,
                 f"output.{name} must be a nonempty string, got {value!r}")
    _require(os.path.normpath(out.trace) != os.path.normpath(out.summary),
             "output.trace and output.summary must name different files, "
             f"got {out.trace!r} and {out.summary!r}")

    # A missing target or lasso field would reach the constructors as NaN.
    prob = cfg.problem
    _require(prob.kind in ("quadratic", "lasso"),
             f"problem.kind must be 'quadratic' or 'lasso', got {prob.kind!r}")
    if prob.kind == "quadratic":
        rows = prob.targets
        _require(isinstance(rows, list) and rows and all(isinstance(r, list) for r in rows)
                 and len({len(r) for r in rows}) == 1,
                 f"problem.targets must be a nonempty list of equal-length rows, got {rows!r}")
    else:
        for name in ("x0", "kappa", "sigma_v"):
            _require(getattr(prob, name) is not None,
                     f"problem.{name} is required for lasso problems")
    with _section("problem"):
        objective = build_objective(cfg)
    with _section("graph"):
        process = build_process(cfg)
    _require(process.n_nodes == objective.n_nodes,
             f"graph.n_nodes {process.n_nodes} must match the problem's "
             f"{objective.n_nodes} nodes")
    with _section("noise"):
        noise = build_noise(cfg)

    ini = cfg.init
    _require(ini.kind in ("uniform", "explicit"),
             f"init.kind must be 'uniform' or 'explicit', got {ini.kind!r}")
    if ini.kind == "uniform":
        low = _finite_array("init", "low", ini.low, (objective.dim,), broadcast=True)
        high = _finite_array("init", "high", ini.high, (objective.dim,), broadcast=True)
        _require(bool(np.all(low <= high)), "init.low must not exceed init.high")
    else:
        _require(ini.states is not None, "init.states is required for explicit init")
        _finite_array("init", "states", ini.states, (objective.n_nodes, objective.dim))
    init = build_init(cfg)

    # The gains and their squares, which the condition checks sum, must stay
    # positive normal floats on every step the run and the checks read: a
    # subnormal gain loses the precision that makes c(k) decrease, and then
    # rounds to 0; an infinite one, or one whose square is, makes the sums
    # infinite.  alpha decreases, and c decreases for good once it decreases
    # at k=0: c(k+1) < c(k) iff tau2 ln((k+4)/(k+3)) + tau3 ln(ln(k+4)/ln(k+3))
    # > 0, always so for tau3 >= 0 and, for tau3 < 0, iff -tau3/tau2 < r(k) =
    # ln((k+4)/(k+3)) / ln(ln(k+4)/ln(k+3)), which by Cauchy's mean value
    # theorem is ln(xi) for some xi in (k+3, k+4): r increases with k, so k=0
    # binds (r(0) = 1.2367).  So each gain is largest at k=0 and least at the
    # last step.  The gains are formed with numpy's warnings off: an overflow
    # is reported here, in one line.
    with _section("schedule"):
        schedule = build_schedule(cfg)
    sch = cfg.schedule
    last = max(run.horizon, cfg.verify.horizon)
    least, most = math.sqrt(np.finfo(float).tiny), math.sqrt(np.finfo(float).max)
    with np.errstate(all="ignore"):
        for gain, cause in (("alpha", f"schedule.alpha1={sch.alpha1} makes"),
                            ("c", f"schedule.alpha2={sch.alpha2} and tau3={sch.tau3} make")):
            for k, value in zip((0, last), getattr(schedule, gain)(np.array([0, last]))):
                if not least <= value <= most:
                    raise ValidationError(
                        f"{cause} {gain}({k}) = {value}; {gain}(k) must stay in "
                        f"[{least}, {most}], where its square is a normal float, "
                        "up to max(run.horizon, verify.horizon)")
        c0, c1 = schedule.c(np.array([0, 1]))
    if not c1 < c0:
        raise ValidationError(
            f"schedule.tau3={sch.tau3} makes c(k) non-decreasing at k=0; "
            "c must decrease over the simulated horizon")
    return RunObjects(objective, process, noise, schedule, init)


def build_objective(cfg):
    prob = cfg.problem
    if prob.kind == "quadratic":
        return QuadraticObjective(np.asarray(prob.targets, dtype=float))
    x0 = np.asarray(prob.x0, dtype=float)
    cov = prob.covariances
    cov = np.eye(x0.size) if cov in (None, "identity") else np.asarray(cov, dtype=float)
    if cov.ndim == 2:
        _int_at_least("problem", "n_nodes", prob.n_nodes, 1)
        cov = np.stack([cov] * prob.n_nodes)
    else:
        _require(prob.n_nodes is None or cov.ndim != 3 or prob.n_nodes == cov.shape[0],
                 f"problem.n_nodes {prob.n_nodes} must match the {cov.shape[0]} "
                 "per-node covariances")
    return LassoProblem(x0=x0, covariances=cov, sigma_v=prob.sigma_v,
                        kappa=_number("problem", "kappa", prob.kappa))


def build_process(cfg):
    g = cfg.graph
    if g.kind == "independent":
        if isinstance(g.base, str):
            _require(g.base == "complete",
                     f"graph.base must be 'complete' or a matrix, got {g.base!r}")
            _int_at_least("graph", "n_nodes", g.n_nodes, 1)
            weight = _number("graph", "weight", g.weight, finite=True)
            base = weight * (np.ones((g.n_nodes, g.n_nodes)) - np.eye(g.n_nodes))
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


def build_noise(cfg):
    noi = cfg.noise
    cap = None if noi.cap is None else _number("noise", "cap", noi.cap)
    return CommNoiseModel(sigma=_number("noise", "sigma", noi.sigma),
                          b=_number("noise", "b", noi.b), cap=cap)


def build_schedule(cfg):
    return StepSchedule(**{name: _number("schedule", name, value)
                           for name, value in asdict(cfg.schedule).items()})


def build_init(cfg):
    ini = cfg.init
    if ini.kind == "explicit":
        return InitialStates.explicit(np.asarray(ini.states, dtype=float))
    return InitialStates.uniform(ini.low, ini.high)
