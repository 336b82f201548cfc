"""sha256 of the outputs of a fixed set of runs, to back a claim that a
change leaves every output byte as it was.

Usage (from the repository root):

    python3 tools/output_hashes.py [--against FILE]

The runs are shipped A1, shipped A2, A2 with 8 workers and the three
perfbench workloads at seed 42 (configs from perfbench/workloads.py).  One
line is printed per hashed output, ``<run> <output> <sha256>``: each run's
trace.csv and summary.txt, its C1-C5 report (the constant, the horizon, and
each condition's verdict and every detail value by ``repr``) and its
``beta_log`` array, and each ``per_rep`` array of the Monte Carlo result of
the three workloads at seed 42 and horizon 5000.  An array is hashed by its
dtype, shape and bytes.  Save the lines at one commit and pass the file as
--against at another: the script then also prints every saved line whose
hash differs or that has no counterpart, and exits 1 if there is one.  The
runs take about a minute on a 2-vCPU host; the 8-worker run starts 8
processes.
"""

import argparse
import contextlib
import hashlib
import os
import sys
import tempfile

import yaml

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, os.path.join(ROOT, "perfbench"))

import workloads  # noqa: E402
from subgradnet import config as cfgmod  # noqa: E402
from subgradnet.experiment import run_experiment  # noqa: E402

SEED = 42
PER_REP_HORIZON = 5000


def _shipped(name, workers=None):
    with open(os.path.join(ROOT, "configs", name), "r", encoding="utf-8") as fh:
        data = yaml.safe_load(fh)
    if workers is not None:
        data["run"]["workers"] = workers
    return data


def runs():
    """(run name, config dict, whether its per_rep arrays are hashed)."""
    yield "A1", _shipped("a1_quadratic.yaml"), False
    yield "A2", _shipped("a2_lasso.yaml"), False
    yield "A2-workers-8", _shipped("a2_lasso.yaml", workers=8), False
    for name in workloads.NAMES:
        data = workloads.make_config(name, SEED, ROOT)
        per_rep = data["run"]["horizon"] == PER_REP_HORIZON
        yield name, data, per_rep
        if not per_rep:
            yield (f"{name}-h{PER_REP_HORIZON}",
                   workloads.make_config(name, SEED, ROOT, PER_REP_HORIZON), True)


def _sha(data):
    return hashlib.sha256(data).hexdigest()


def _array_sha(arr):
    return _sha(f"{arr.dtype.str}{arr.shape}".encode() + arr.tobytes())


def _conditions_sha(report):
    checks = [(name, chk.verdict, sorted(chk.details.items()))
              for name, chk in sorted(report.checks.items())]
    return _sha(repr((report.C, report.horizon, checks)).encode())


def hashes():
    """Yield one ``(run, output, sha256)`` triple per hashed output."""
    with tempfile.TemporaryDirectory() as tmp:
        for run, data, per_rep in runs():
            out_dir = os.path.join(tmp, run)
            with contextlib.redirect_stdout(sys.stderr):
                result = run_experiment(cfgmod.config_from_dict(data), out_dir=out_dir)
            for path in (result.trace_path, result.summary_path):
                with open(path, "rb") as fh:
                    yield run, os.path.basename(path), _sha(fh.read())
            yield run, "conditions", _conditions_sha(result.conditions)
            yield run, "beta_log", _array_sha(result.beta_log)
            if per_rep:
                for key, arr in sorted(result.mc.per_rep.items()):
                    yield run, f"per_rep.{key}", _array_sha(arr)


def main(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--against", metavar="FILE",
                        help="saved output of this script to compare with")
    args = parser.parse_args(argv)
    saved = None
    if args.against is not None:
        with open(args.against, "r", encoding="utf-8") as fh:
            saved = {tuple(line.split()[:2]): line.split()[2]
                     for line in fh if line.strip()}
    got = {}
    for run, output, digest in hashes():
        got[run, output] = digest
        print(run, output, digest, flush=True)
    if saved is None:
        return 0
    bad = [key for key in saved if got.get(key) != saved[key]]
    bad += [key for key in got if key not in saved]
    for key in bad:
        print(f"MISMATCH {key[0]} {key[1]}: saved {saved.get(key)}, now {got.get(key)}")
    print(f"{len(bad)} mismatches" if bad else f"all {len(got)} hashes match")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
