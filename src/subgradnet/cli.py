"""Command-line interface.

Subcommands:
  run              full experiment (trace CSV + summary)
  verify-schedule  numeric step-size condition report
  graph-report     joint-connectivity and Laplacian-moment estimates
  optimum          global optimum from the objective oracle

Exit codes: 0 success, 1 usage/validation failure, 2 divergence.
The output directory resolves as: --out flag, then SUBGRADNET_OUT, then the
config's output.directory.
"""

import argparse
import os
import shlex
import sys

import numpy as np

from . import config as cfgmod
from .errors import DivergenceDetected, SubgradNetError
from .experiment import estimate_constants, run_experiment, verdict_line
from .objectives import global_optimum
from .stepsize import verify_conditions

ENV_OUT = "SUBGRADNET_OUT"


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _build_parser():
    parser = _Parser(prog="subgradnet",
                     description="distributed noisy subgradient consensus simulator")
    sub = parser.add_subparsers(dest="command", metavar="COMMAND")

    p_run = sub.add_parser("run", help="run a full experiment")
    p_run.add_argument("--config", required=True)
    p_run.add_argument("--seed", type=int, default=None)
    p_run.add_argument("--reps", type=int, default=None)
    p_run.add_argument("--out", default=None)
    p_run.add_argument("--workers", type=int, default=None)

    p_ver = sub.add_parser("verify-schedule", help="check step-size conditions")
    p_ver.add_argument("--config", required=True)
    p_ver.add_argument("--C", dest="C", type=float, default=1.0)
    p_ver.add_argument("--horizon", type=int, default=None)

    p_gr = sub.add_parser("graph-report", help="joint-connectivity report")
    p_gr.add_argument("--config", required=True)
    p_gr.add_argument("--h", dest="h", type=int, default=None)
    p_gr.add_argument("--windows", type=int, default=None)
    p_gr.add_argument("--reps", type=int, default=None)

    p_opt = sub.add_parser("optimum", help="print the oracle optimum")
    p_opt.add_argument("--config", required=True)
    return parser


def _load_with_overrides(args, section=None, names=()):
    """The unvalidated ``--config``, with each given flag of ``names`` set in
    ``cfg.<section>``; the caller validates it and keeps what that builds."""
    cfg = cfgmod.load_config(args.config, _validate=False)
    for name in names:
        if getattr(args, name) is not None:
            setattr(getattr(cfg, section), name, getattr(args, name))
    return cfg


def _cmd_run(args):
    cfg = _load_with_overrides(args, "run", ("seed", "reps", "workers"))
    out_dir = args.out or os.environ.get(ENV_OUT) or cfg.output.directory
    try:
        result = run_experiment(cfg, out_dir=out_dir)
    except DivergenceDetected as exc:
        # Any run that includes replication r reproduces its divergence;
        # validation asks for at least min_pass_reps replications.
        reps = max(exc.replication + 1, cfg.thresholds.min_pass_reps or 1)
        print(f"divergence: {exc} (replication={exc.replication}, step={exc.step})\n"
              f"rerun: subgradnet run --config {shlex.quote(args.config)} "
              f"--seed {cfg.run.seed} --reps {reps}", file=sys.stderr)
        return 2
    print(f"trace: {result.trace_path}")
    print(f"summary: {result.summary_path}")
    for key, value, graded in result.verdicts:
        if graded:
            print(verdict_line(key, value, graded))
    print(verdict_line("all_pass", result.all_pass, True))
    return 0


def _cmd_verify_schedule(args):
    cfg = _load_with_overrides(args, "verify", ("horizon",))
    schedule = cfgmod.validate_config(cfg).schedule
    try:
        report = verify_conditions(schedule.alpha, schedule.c, args.C, cfg.verify.horizon)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for line in report.lines():
        print(line)
    return 0


def _cmd_graph_report(args):
    cfg = _load_with_overrides(args, "connectivity", ("h", "windows", "reps"))
    objective, process, model, _, _ = cfgmod.validate_config(cfg)
    report, constants = estimate_constants(cfg, objective, process, model)
    print(f"h = {report.h}")
    print("lambda2_per_window = ["
          + ", ".join(repr(float(v)) for v in report.lambda2_per_window) + "]")
    print(f"theta_hat = {report.theta_hat!r}")
    print(f"rho0_hat = {report.rho0_hat!r}")
    print(f"rho1_hat = {report.rho1_hat!r}")
    print(f"C0 = {constants.C0!r}")
    return 0


def _cmd_optimum(args):
    objective = cfgmod.validate_config(_load_with_overrides(args)).objective
    x_star, f_star = global_optimum(objective)
    print("x_star = [" + ", ".join(repr(float(v)) for v in np.atleast_1d(x_star)) + "]")
    print(f"f_star = {f_star!r}")
    return 0


_COMMANDS = {
    "run": _cmd_run,
    "verify-schedule": _cmd_verify_schedule,
    "graph-report": _cmd_graph_report,
    "optimum": _cmd_optimum,
}


def main(argv=None):
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command is None:
            raise _UsageError("a subcommand is required")
        return _COMMANDS[args.command](args)
    except _UsageError as exc:
        print(parser.format_usage(), file=sys.stderr, end="")
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (SubgradNetError, OSError) as exc:  # OSError: an output path that cannot be written
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
