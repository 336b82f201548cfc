"""Experiment orchestration: connectivity report, condition checks, Monte
Carlo runs, and persistence of the aggregate trace and summary.

Outputs are byte-deterministic for a fixed config and seed: floats are
formatted with shortest round-trip ``repr`` and every random quantity hangs
off the experiment seed through named sub-streams.

The run's verdicts are one sorted list of ``(key, value, graded)`` rows that
summary.txt and the CLI print alike.  ``all_pass`` is the conjunction of the
graded ``pass.*`` rows; ``measured.*`` rows are informational.  The pass rows
catch: code identities (``psi_bound``, ``d_bound``, ``recursion_identity``),
numeric verdicts on the paper's step-size conditions (``condition_C1``-``C5``),
Monte Carlo statistics (``v_ratio``, ``final_dist``) and the envelope check
(``c1_sup_early``).

The Monte Carlo reads neither the connectivity report nor the condition
verdicts, so both run in a child forked under the protocol of ``forked``
while it runs, and the parent collects them afterwards.  A child that gives
no result in time costs only its head start and a bounded wait: the parent
then runs the stages itself.  An error of the stages takes precedence over a
package error of the Monte Carlo, a divergence in any worker's part
included, as when they ran first; any other exception kills the child.
"""

import contextlib
import functools
import os
from dataclasses import dataclass

import numpy as np

from . import config as cfgmod
from . import forked
from .engine import default_record_ks, monte_carlo
from .errors import SubgradNetError
from .graphs import joint_connectivity_report
from .objectives import global_optimum
from .stepsize import verify_conditions

TRACE_HEADER = "k,mean_V,std_V,mean_opt_gap,mean_dist_to_opt,mean_state_sq,beta_log"

# Sub-stream tag for the connectivity report; replication streams use
# length-1 spawn keys, auxiliary streams length-2, so they never collide.
_REPORT_TAG = (0x5EED, 1)


def report_stream(seed):
    return np.random.SeedSequence(entropy=seed, spawn_key=_REPORT_TAG)


@dataclass(frozen=True)
class ExperimentConstants:
    """Growth-envelope constants estimated for one experiment."""

    theta_hat: float
    rho0_hat: float
    rho1_hat: float
    c_xi: float
    sigma_zeta: float
    sigma_d: float
    C0: float


def estimate_constants(cfg, objective, process, model):
    """Connectivity report plus the envelope constant

        C0 = 1 + 2 rho0^2 + 16 sigma^2 C_xi rho1 + 8 sigma_zeta + 16 sigma_d^2

    built from the report's moment estimates and the objective/noise bounds.
    """
    report = joint_connectivity_report(
        process, h=cfg.connectivity.h, windows=cfg.connectivity.windows,
        reps=cfg.connectivity.reps, stream=report_stream(cfg.run.seed))
    c_xi = process.expected_active_channels()
    sigma_d = float(np.max(objective.sigma_d))
    c0 = (1.0 + 2.0 * report.rho0_hat ** 2
          + 16.0 * model.sigma ** 2 * c_xi * report.rho1_hat
          + 8.0 * objective.sigma_zeta + 16.0 * sigma_d ** 2)
    constants = ExperimentConstants(
        theta_hat=report.theta_hat, rho0_hat=report.rho0_hat,
        rho1_hat=report.rho1_hat, c_xi=c_xi,
        sigma_zeta=float(objective.sigma_zeta), sigma_d=sigma_d, C0=c0)
    return report, constants


@dataclass(frozen=True)
class ExperimentResult:
    constants: ExperimentConstants
    report: object
    conditions: object
    mc: object
    beta_log: np.ndarray
    verdicts: list
    all_pass: bool
    trace_path: str
    summary_path: str


def _fmt(x):
    return repr(float(x))


def _write_trace(path, mc, beta_log):
    lines = [TRACE_HEADER]
    for slot, k in enumerate(mc.record_ks):
        lines.append(",".join([
            str(int(k)), _fmt(mc.mean_v[slot]), _fmt(mc.std_v[slot]),
            _fmt(mc.mean_opt_gap[slot]), _fmt(mc.mean_dist_to_opt[slot]),
            _fmt(mc.mean_state_sq[slot]), _fmt(beta_log[slot]),
        ]))
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def verdict_rows(cfg, mc, c1_at, conditions):
    """The run's verdict rows ``(key, value, graded)`` sorted by key, their print
    order; ``c1_at`` is the recorded step where mean||X||^2 / beta peaks."""
    thr = cfg.thresholds
    rows = [("pass.psi_bound", bool(mc.psi_violation_max <= 1e-9), True),
            ("pass.d_bound", bool(mc.d_violation_max <= 1e-9), True),
            ("pass.c1_sup_early", c1_at <= 1000, True)]
    rows += [(f"pass.condition_{name}", chk.holds, True)
             for name, chk in conditions.checks.items()]
    if cfg.run.check_stride:
        rows.append(("pass.recursion_identity", bool(mc.recursion_max < 1e-10), True))
    if thr.v_ratio_max is not None:
        ks = mc.record_ks.tolist()
        k_early = thr.v_ratio_k_early if thr.v_ratio_k_early is not None else 100
        k_late = thr.v_ratio_k_late if thr.v_ratio_k_late is not None else cfg.run.horizon
        holds, ratio = False, float("nan")
        if k_early in ks and k_late in ks:
            v_early = float(mc.mean_v[ks.index(k_early)])
            v_late = float(mc.mean_v[ks.index(k_late)])
            holds = v_late < float(thr.v_ratio_max) * v_early
            ratio = v_late / v_early if v_early else float("inf")
        rows += [("pass.v_ratio", holds, True), ("measured.v_ratio_value", ratio, False)]
    if thr.final_dist_max is not None:
        count = int(np.sum(mc.final_dists < float(thr.final_dist_max)))
        need = thr.min_pass_reps if thr.min_pass_reps is not None else mc.reps
        rows += [("pass.final_dist", count >= need, True),
                 ("measured.final_dist_pass_count", count, False)]
    return sorted(rows)


def verdict_line(key, value, graded):
    """A verdict row, or ``all_pass``, as summary.txt and the CLI print it."""
    return f"{key} = {str(value).lower() if graded else value}"


def _write_summary(path, cfg, constants, report, conditions, mc, c1_hat, c1_at,
                   verdicts, all_pass, x_star, f_star):
    lines = []
    add = lines.append
    add("subgradnet experiment summary")
    add(f"cfg.problem.kind = {cfg.problem.kind}")
    add(f"cfg.graph.kind = {cfg.graph.kind}")
    add(f"cfg.run.seed = {cfg.run.seed}")
    add(f"cfg.run.horizon = {cfg.run.horizon}")
    add(f"cfg.run.reps = {cfg.run.reps}")
    add(f"cfg.noise.sigma = {_fmt(cfg.noise.sigma)}")
    add(f"cfg.noise.b = {_fmt(cfg.noise.b)}")
    add(f"x_star = [{', '.join(_fmt(v) for v in np.atleast_1d(x_star))}]")
    add(f"f_star = {_fmt(f_star)}")
    add(f"theta_hat = {_fmt(constants.theta_hat)} (estimate, window h={report.h})")
    add(f"rho0_hat = {_fmt(constants.rho0_hat)} (estimate)")
    add(f"rho1_hat = {_fmt(constants.rho1_hat)} (estimate)")
    add(f"c_xi = {_fmt(constants.c_xi)}")
    add(f"sigma_zeta = {_fmt(constants.sigma_zeta)} (analytic bound)")
    add(f"sigma_d = {_fmt(constants.sigma_d)}")
    add(f"C0 = {_fmt(constants.C0)}")
    for line in conditions.lines():
        add(f"conditions.{line}")
    add(f"C1_hat = {_fmt(c1_hat)} (sup mean||X||^2 / beta, estimate)")
    add(f"C1_hat_at_k = {c1_at}")
    add(f"final.mean_dist_to_opt = {_fmt(mc.mean_dist_to_opt[-1])}")
    add(f"final.mean_V = {_fmt(mc.mean_v[-1])}")
    add(f"final.dists = [{', '.join(_fmt(v) for v in mc.final_dists)}]")
    add(f"monitor.psi_violation_max = {_fmt(mc.psi_violation_max)}")
    add(f"monitor.d_violation_max = {_fmt(mc.d_violation_max)}")
    add(f"monitor.recursion_max = {_fmt(mc.recursion_max)}")
    lines += [verdict_line(*row) for row in verdicts]
    add(verdict_line("all_pass", all_pass, True))
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


@contextlib.contextmanager
def _staged_outputs(paths):
    """Temp files next to ``paths``, to be written in place of them.

    The temp files are created on entry, so an unwritable output location
    fails before any work.  On a clean exit each one replaces its target;
    on an error all are removed and the targets keep their old contents.
    """
    temps = []
    try:
        for path in paths:
            if os.path.isdir(path):
                raise IsADirectoryError(f"output path is a directory: {path}")
            temp = f"{path}.{os.getpid()}.tmp"
            with open(temp, "w", encoding="utf-8"):
                pass
            temps.append(temp)
        yield temps
        for temp, path in zip(temps, paths):
            os.replace(temp, path)
    finally:
        for temp in temps:
            with contextlib.suppress(FileNotFoundError):
                os.remove(temp)


def _setup_stages(cfg, objective, process, model, schedule):
    """The stages the summary needs and the Monte Carlo does not: the
    connectivity report, the constants and the C1-C5 verdicts at C0."""
    report, constants = estimate_constants(cfg, objective, process, model)
    # The condition thresholds are calibrated at horizon 1e6 (notably C2's
    # required drop); shorter horizons can flag a valid schedule.
    conditions = verify_conditions(schedule.alpha, schedule.c, constants.C0,
                                   cfg.verify.horizon)
    return report, constants, conditions


def _collected(child, stages):
    """The stages' results from ``child``, which is then killed and reaped,
    or from ``stages()`` run here if it gave none in time."""
    try:
        done, result = child.receive(child.started)
    finally:
        child.close()
    return result if done else stages()


def run_experiment(cfg, out_dir=None):
    """Full pipeline: constants, condition verdicts, Monte Carlo, files.

    Writes the per-step aggregate trace CSV and a key/value summary into the
    output directory and returns the in-memory results.  Output temp files
    are created before any simulation starts, so path problems fail fast,
    and they replace the outputs only when the run completes, so a failed
    run leaves an earlier run's files intact.
    """
    objective, process, model, schedule, init = cfgmod.validate_config(cfg)
    directory = out_dir if out_dir is not None else cfg.output.directory
    os.makedirs(directory, exist_ok=True)
    trace_path = os.path.join(directory, cfg.output.trace)
    summary_path = os.path.join(directory, cfg.output.summary)
    with _staged_outputs((trace_path, summary_path)) as (trace_tmp, summary_tmp):
        x_star, f_star = global_optimum(objective)

        # numpy.random loads on first use; loaded before the fork, it loads
        # once, not in both processes.
        report_stream(cfg.run.seed)
        stages = functools.partial(_setup_stages, cfg, objective, process, model,
                                   schedule)
        child = forked.start(lambda c: c.reply(stages), cfg.run.workers)
        setup = stages() if child is None else None
        record_ks = default_record_ks(cfg.run.horizon, cfg.run.dense_until,
                                      cfg.run.record_stride)
        try:
            mc = monte_carlo(objective, process, model, schedule, cfg.run.horizon,
                             cfg.run.seed, cfg.run.reps, x_star, f_star, init=init,
                             record_ks=record_ks, check_stride=cfg.run.check_stride,
                             workers=cfg.run.workers)
        except SubgradNetError:
            # A setup error comes first, as if the stages had run before.
            if child is not None:
                _collected(child, stages)
            raise
        except BaseException:
            if child is not None:
                child.close()
            raise
        report, constants, conditions = setup if child is None else _collected(child, stages)

        # The growth envelope beta = exp(C0 * sum alpha) judges the run's
        # mean squared state norm; C1_hat is their largest ratio.
        beta_log = schedule.log_beta(mc.record_ks, constants.C0)
        log_ratio = np.log(np.maximum(mc.mean_state_sq, 1e-300)) - beta_log
        sup = int(np.argmax(log_ratio))
        c1_hat, c1_at = float(np.exp(log_ratio[sup])), int(mc.record_ks[sup])

        verdicts = verdict_rows(cfg, mc, c1_at, conditions)
        all_pass = all(value for _, value, graded in verdicts if graded)

        _write_trace(trace_tmp, mc, beta_log)
        _write_summary(summary_tmp, cfg, constants, report, conditions, mc, c1_hat,
                       c1_at, verdicts, all_pass, x_star, f_star)
    return ExperimentResult(constants=constants, report=report,
                            conditions=conditions, mc=mc, beta_log=beta_log,
                            verdicts=verdicts, all_pass=all_pass, trace_path=trace_path,
                            summary_path=summary_path)
