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
import sys

import numpy as np

from . import config as cfgmod
from .errors import ConfigError, DivergenceDetected, SubgradNetError
from .experiment import estimate_constants, run_experiment
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
    p_ver.add_argument("--horizon", type=int, default=1_000_000)

    p_gr = sub.add_parser("graph-report", help="joint-connectivity report")
    p_gr.add_argument("--config", required=True)
    p_gr.add_argument("--h", dest="h", type=int, default=None)
    p_gr.add_argument("--windows", type=int, default=None)
    p_gr.add_argument("--reps", type=int, default=None)

    p_opt = sub.add_parser("optimum", help="print the oracle optimum")
    p_opt.add_argument("--config", required=True)
    return parser


def _cmd_run(args):
    # run_experiment validates the config once, with the overrides applied.
    cfg = cfgmod.load_config(args.config, _validate=False)
    if args.seed is not None:
        cfg.run.seed = args.seed
    if args.reps is not None:
        cfg.run.reps = args.reps
    if args.workers is not None:
        cfg.run.workers = args.workers
    out_dir = args.out or os.environ.get(ENV_OUT) or cfg.output.directory
    result = run_experiment(cfg, out_dir=out_dir)
    print(f"trace: {result.trace_path}")
    print(f"summary: {result.summary_path}")
    for name, value in sorted(result.passes.items()):
        if not name.startswith("_"):
            print(f"pass.{name} = {str(bool(value)).lower()}")
    print(f"all_pass = {str(result.all_pass).lower()}")
    return 0


def _cmd_verify_schedule(args):
    cfg = cfgmod.load_config(args.config)
    schedule = cfgmod.build_schedule(cfg)
    try:
        report = verify_conditions(schedule.alpha, schedule.c, args.C, args.horizon)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for line in report.lines():
        print(line)
    return 0


def _cmd_graph_report(args):
    # Validated once, with the overrides applied.
    cfg = cfgmod.load_config(args.config, _validate=False)
    if args.h is not None:
        cfg.connectivity.h = args.h
    if args.windows is not None:
        cfg.connectivity.windows = args.windows
    if args.reps is not None:
        cfg.connectivity.reps = args.reps
    cfgmod.validate_config(cfg)
    objective = cfgmod.build_objective(cfg)
    process = cfgmod.build_process(cfg)
    model = cfgmod.build_noise(cfg, objective.dim)
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
    cfg = cfgmod.load_config(args.config)
    objective = cfgmod.build_objective(cfg)
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
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except DivergenceDetected as exc:
        print(f"divergence: {exc} (replication={exc.replication}, step={exc.step})",
              file=sys.stderr)
        return 2
    except SubgradNetError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
