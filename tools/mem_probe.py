"""Peak RSS and page faults of one Monte Carlo call.

Usage (from the repository root):

    python3 tools/mem_probe.py a1-indep-quadratic [--horizon H] [--seed S]
    python3 tools/mem_probe.py --nodes 100 --reps 20 --horizon 1024 [--lasso]

With a workload name of perfbench/workloads.py the call is that workload's
Monte Carlo (its config, reps and horizon; --horizon overrides the horizon).
With --nodes it is the wide-n50-indep workload resized to that node count
and --reps replications, with node targets drawn from the seed; --lasso
puts a2-markov-lasso's problem (dim 3, gradient noise) and initial box on
those nodes in place of the quadratic targets.  Only the
objects the call needs are built: no connectivity report, condition check or
output file.  Run this script as its own process, started from a small one
such as a shell, since a process takes over the peak RSS of the one that
starts it.  Prints one JSON line: the process's peak RSS (`ru_maxrss`, in
10^6 bytes), the peak RSS of its largest forked child (`ru_maxrss` of
`RUSAGE_CHILDREN`: the Monte Carlo's draw producer and, with --run, the
setup child; 0 when none was forked), the minor page faults and seconds
inside the call, and the sizes used.  With --run the whole `subgradnet run` of the config is made
into a temporary directory instead (its report goes to stderr), and the
faults and seconds are those of its Monte Carlo call; its peak RSS is then
the one perfbench reports.  The line then also holds the minor faults and
seconds of setup (from the start of the `subgradnet run` call to Monte Carlo
entry, as perfbench's `setup_s`) and, when the setup stages run in line (one
CPU, as under `taskset -c 0`), of the C1-C5 check (`verify_conditions`)
alone; a forked setup child's figures stay in the child.
"""

import argparse
import contextlib
import json
import os
import resource
import sys
import tempfile
import time

import numpy as np
import yaml

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, os.path.join(ROOT, "perfbench"))

import workloads  # noqa: E402
from subgradnet import cli, experiment  # noqa: E402
from subgradnet import config as cfgmod  # noqa: E402
from subgradnet.engine import default_record_ks, monte_carlo  # noqa: E402
from subgradnet.objectives import global_optimum  # noqa: E402
from subgradnet.stepsize import verify_conditions  # noqa: E402


def make_config(args):
    if args.workload is not None:
        return workloads.make_config(args.workload, args.seed, ROOT, args.horizon)
    cfg = workloads.make_config("wide-n50-indep", args.seed, ROOT, args.horizon)
    if args.lasso:
        a2 = workloads.make_config("a2-markov-lasso", args.seed, ROOT)
        cfg["problem"] = dict(a2["problem"], n_nodes=args.nodes)
        cfg["init"] = a2["init"]
    else:
        rng = np.random.default_rng(args.seed)
        cfg["problem"]["targets"] = (4.0 * rng.random((args.nodes, 2))).tolist()
    cfg["graph"]["n_nodes"] = args.nodes
    cfg["run"]["reps"] = args.reps
    return cfg


def main(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workload", nargs="?", choices=workloads.NAMES)
    parser.add_argument("--nodes", type=int)
    parser.add_argument("--reps", type=int, default=workloads.WIDE_REPS)
    parser.add_argument("--horizon", type=int)
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--lasso", action="store_true",
                        help="with --nodes, the lasso problem in place of the quadratic one")
    parser.add_argument("--run", action="store_true",
                        help="make the whole run, not only its Monte Carlo call")
    args = parser.parse_args(argv)
    if (args.workload is None) == (args.nodes is None):
        parser.error("give either a workload name or --nodes")
    if args.lasso and args.nodes is None:
        parser.error("--lasso goes with --nodes")

    data = make_config(args)
    cfg = cfgmod.config_from_dict(data)
    measured = {}

    def stamp():
        return time.perf_counter(), resource.getrusage(resource.RUSAGE_SELF).ru_minflt

    def record(name, start):
        now, faults = stamp()
        measured[f"{name}_s"] = round(now - start[0], 4)
        measured[f"{name}_minor_faults"] = faults - start[1]

    def probed(*call_args, **kwargs):
        if args.run:
            record("setup", run_start)
        start = stamp()
        result = monte_carlo(*call_args, **kwargs)
        measured["monte_carlo_s"] = round(time.perf_counter() - start[0], 3)
        measured["minor_faults"] = stamp()[1] - start[1]
        return result

    def probed_verify(*call_args, **kwargs):
        start = stamp()
        result = verify_conditions(*call_args, **kwargs)
        record("verify", start)
        return result

    if args.run:
        experiment.monte_carlo = probed
        experiment.verify_conditions = probed_verify
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "config.yaml")
            with open(path, "w", encoding="utf-8") as fh:
                yaml.safe_dump(data, fh)
            with contextlib.redirect_stdout(sys.stderr):
                run_start = stamp()
                if cli.main(["run", "--config", path, "--out", tmp]) != 0:
                    return 1
    else:
        objective, process, model, schedule, init = cfgmod.validate_config(cfg)
        x_star, f_star = global_optimum(objective)
        probed(objective, process, model, schedule, cfg.run.horizon, cfg.run.seed,
               cfg.run.reps, x_star, f_star, init=init,
               record_ks=default_record_ks(cfg.run.horizon, cfg.run.dense_until,
                                           cfg.run.record_stride),
               check_stride=cfg.run.check_stride, workers=1)
    peak, children = (resource.getrusage(who).ru_maxrss * 1024 / 1e6  # KiB
                      for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN))
    print(json.dumps({"workload": args.workload, "nodes": args.nodes, "lasso": args.lasso,
                      "reps": cfg.run.reps, "horizon": cfg.run.horizon, "run": args.run,
                      "peak_rss_mb": round(peak, 2),
                      "children_peak_rss_mb": round(children, 2), **measured}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
