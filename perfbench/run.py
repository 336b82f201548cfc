"""subgradnet benchmark: `subgradnet run` on generated configs, timed and checked.

Usage (from the repository root):

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Workloads: a1-indep-quadratic, a2-markov-lasso, wide-n50-indep (see README.md).

Each run of the workload is one `subgradnet run` call in a fresh child
process (perfbench/sample.py), so every run pays what a user of the command
pays and reports its own peak RSS.  Runs repeat until the next one would end
after ``--seconds``; at least one run is made.  Every run passes through the
correctness gate, and all runs of one invocation must write byte-identical
outputs.  With ``--trace 0`` the last line of standard output is a JSON object
with the end-to-end medians, timings in reference-speed seconds (see REF_S);
with ``--trace 1`` each round is an untraced run followed by a traced one, and
the JSON object holds the per-layer medians.
"""

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

import numpy as np
import yaml

import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = os.path.join(HERE, ".work")

# name: (unit, power of the host speed factor REF_S / ref_s it is scaled by).
END_TO_END = {"wall_s": ("s", 1), "setup_s": ("s", 1), "rep_steps_per_s": ("1/s", -1),
              "peak_rss_mb": ("MB", 0)}
# On a shared host the speed of the whole machine drifts by up to 2x over
# stretches of a minute or more, longer than one invocation.  A fixed reference
# kernel timed just before each run tracks that drift for interpreter-bound,
# small-array work like a1's and a2's, so each run's timings are scaled to a
# host on which the kernel takes REF_S seconds.  REF_S is a round figure near
# the kernel's time on a 2-vCPU Xeon host, so the scaled figures read close to
# seconds there.  README.md, "How steady it is", has the spreads with and
# without the scaling, and why it does not suit wide-n50-indep.
REF_S = 0.050
# Runs are single-process by design; BLAS or OpenMP threads would make them
# compete for the cores with the machine's other load.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS")
CHILD_TIMEOUT_S = 170
# Gate: the final mean distance to the optimum must fall below this share of
# its step-0 value.  Every workload reaches less than 0.45 of it by step 100.
DIST_DROP = 0.5
CONDITIONS = ("C1", "C2", "C3", "C4", "C5")
# A traced run's top-level spans must cover this share of its wall time, or
# the per-layer breakdown has lost part of the run.
MIN_TOP_LEVEL_SHARE = 0.95


def environment():
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", "r", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    nproc = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
             else os.cpu_count())
    return {"python": platform.python_version(), "numpy": np.__version__,
            "nproc": nproc, "cpu": cpu, "threads_per_run": 1}


def _reference_kernel():
    # The runs' mix: pure-Python arithmetic, small-array numpy steps and a
    # bulk random draw.
    total = 0.0
    for v in range(60_000):
        total += v * 0.5
    x, a = np.ones((20, 5, 2)), np.full((20, 5, 5), 0.2)
    for _ in range(800):
        x = x - 0.001 * (a.sum(-1)[..., None] * x - (a[..., None] * x[..., None, :, :]).sum(-2))
    np.random.Generator(np.random.Philox(0)).random((256, 2500))


def reference_s():
    """Seconds the reference kernel takes now, fastest of three."""
    times = []
    for _ in range(3):
        start = time.perf_counter()
        _reference_kernel()
        times.append(time.perf_counter() - start)
    return min(times)


def run_child(config_path, out_dir, traced):
    """One run in a fresh process; returns its result dict."""
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    env.update({var: "1" for var in THREAD_VARS})
    cmd = [sys.executable, os.path.join(HERE, "sample.py"), config_path, out_dir,
           "1" if traced else "0"]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True,
                              text=True, timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return {"rc": None, "error": f"run exceeded {CHILD_TIMEOUT_S} s"}
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        return {"rc": None, "error": f"child exited {proc.returncode}: {proc.stderr[-2000:]}"}
    if proc.returncode != 0:
        result["rc"] = None
    if result["rc"] != 0 and not result.get("error"):
        result["error"] = proc.stderr[-2000:]
    return result


def _parse_summary(path):
    out = {}
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.rstrip("\n")
            # "key = value", except "conditions.C1: verdict"
            key, sep, value = line.partition(" = " if " = " in line else ": ")
            if sep:
                out[key] = value
    return out


def _floats(text):
    return np.array([float(v) for v in text.strip("[]").split(",")], dtype=float)


def check_run(result, out_dir, cfg, x_closed):
    """Correctness gate of one run; returns the list of problems found."""
    if result.get("rc") != 0:
        return [f"exit code {result.get('rc')}: {result.get('error')}"]
    summary = _parse_summary(os.path.join(out_dir, cfg["output"]["summary"]))
    trace = np.loadtxt(os.path.join(out_dir, cfg["output"]["trace"]),
                       delimiter=",", skiprows=1, ndmin=2)
    problems = []
    numbers = {key: _floats(value) for key, value in summary.items()
               if key in ("x_star", "f_star") or key.startswith(("final.", "monitor."))}
    if not np.all(np.isfinite(trace)) or not all(np.all(np.isfinite(v)) for v in numbers.values()):
        problems.append("non-finite state in trace or summary")
    recursion_max = float(numbers["monitor.recursion_max"][0])
    if not recursion_max < 1e-10:
        problems.append(f"monitor.recursion_max {recursion_max!r}")
    for name in ("monitor.psi_violation_max", "monitor.d_violation_max"):
        if not float(numbers[name][0]) <= 1e-9:
            problems.append(f"{name} {float(numbers[name][0])!r}")
    for cond in CONDITIONS:
        verdict = summary.get(f"conditions.{cond}", "missing")
        if verdict != "holds-numerically":
            problems.append(f"condition {cond}: {verdict}")
    if not np.allclose(numbers["x_star"], x_closed, rtol=0.0, atol=1e-9):
        problems.append(f"x_star {numbers['x_star'].tolist()} != closed form {x_closed.tolist()}")
    dist = trace[:, 4]  # mean_dist_to_opt
    if not dist[-1] < DIST_DROP * dist[0]:
        problems.append(f"mean_dist_to_opt {float(dist[-1])!r} not below "
                        f"{DIST_DROP} x {float(dist[0])!r}")
    if "layers" in result:
        share = result["layers"]["trace.top_level_share"][0]
        if not share >= MIN_TOP_LEVEL_SHARE:
            problems.append(f"top-level spans cover {share!r} of wall_s, "
                            f"below {MIN_TOP_LEVEL_SHARE}")
    return problems


def output_hash(out_dir, cfg):
    digest = hashlib.sha256()
    for key in ("trace", "summary"):
        with open(os.path.join(out_dir, cfg["output"][key]), "rb") as fh:
            digest.update(fh.read())
    return digest.hexdigest()


def measure(args, cfg, config_path, run_dir, x_closed):
    """Rounds of runs until the next round would end after ``args.seconds``.

    Returns a list of rounds; each round is a list of run records (one run,
    or an untraced and a traced run with ``--trace 1``).
    """
    rounds, durations = [], []
    start = time.perf_counter()
    while True:
        began = time.perf_counter()
        runs = []
        for traced in ([False, True] if args.trace else [False]):
            out_dir = os.path.join(run_dir, f"run{len(rounds)}{'t' if traced else ''}")
            ref_s = reference_s()
            result = run_child(config_path, out_dir, traced)
            result["ref_s"] = ref_s
            try:
                problems = check_run(result, out_dir, cfg, x_closed)
            except (OSError, ValueError, KeyError, IndexError) as exc:
                problems = [f"unreadable outputs: {exc!r}"]
            result.update(traced=traced, problems=problems,
                          hash=None if problems else output_hash(out_dir, cfg))
            if traced and not problems:
                shutil.copyfile(os.path.join(out_dir, "spans.csv"),
                                os.path.join(WORK, f"{args.workload}-spans.csv"))
            runs.append(result)
        rounds.append(runs)
        durations.append(time.perf_counter() - began)
        if time.perf_counter() - start + statistics.median(durations) > args.seconds:
            return rounds


def summarize(args, rounds):
    """Apply rerun identity, count failures, and take the metric medians.

    Returns (runs, failed, reference hash, {name: (median, unit, samples)}).
    """
    runs = [r for rnd in rounds for r in rnd]
    ref = next((r["hash"] for r in runs if r["hash"]), None)
    for r in runs:
        if r["hash"] and r["hash"] != ref:
            r["problems"].append("outputs differ from the first run of this invocation")
    failed = sum(1 for r in runs if r["problems"])
    ok = [r for r in runs if not r["problems"]]
    metrics = {}
    if not args.trace:
        for name, (unit, power) in END_TO_END.items():
            values = [r[name] * (REF_S / r["ref_s"]) ** power for r in ok]
            if values:
                metrics[name] = (statistics.median(values), unit, len(values))
    else:
        layers = [r["layers"] for r in ok if r["traced"]]
        for name in (layers[0] if layers else {}):
            metrics[name] = (statistics.median(m[name][0] for m in layers),
                             layers[0][name][1], len(layers))
        overhead = [rnd[1]["wall_s"] - rnd[0]["wall_s"] for rnd in rounds
                    if not rnd[0]["problems"] and not rnd[1]["problems"]]
        if overhead:
            metrics["trace.overhead_s"] = (statistics.median(overhead), "s", len(overhead))
    return runs, failed, ref, metrics


def main(argv=None, horizon=None):
    """Run the benchmark; ``horizon`` overrides the workload horizon (self-test)."""
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=50.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "subgradnet", "cli.py")):
        print(f"error: no subgradnet sources under {os.path.join(ROOT, 'src')}",
              file=sys.stderr)
        return 1
    try:
        cfg = workloads.make_config(args.workload, args.seed, ROOT, horizon)
    except OSError as exc:
        print(f"error: cannot read the shipped config: {exc}", file=sys.stderr)
        return 1
    x_closed = workloads.closed_form_optimum(cfg)

    os.makedirs(WORK, exist_ok=True)
    run_dir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK)
    try:
        config_path = os.path.join(run_dir, "config.yaml")
        with open(config_path, "w", encoding="utf-8") as fh:
            yaml.safe_dump(cfg, fh, sort_keys=True)
        rounds = measure(args, cfg, config_path, run_dir, x_closed)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    runs, failed, ref, metrics = summarize(args, rounds)
    env = environment()
    print("env " + " ".join(f"{k}={v}" for k, v in env.items()))
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{len(runs)} runs, {failed} failed, fail_frac {failed / len(runs)!r}, "
          f"outputs sha256 {ref}")
    for i, r in enumerate(runs):
        print(f"run {i}{' traced' if r['traced'] else ''}: ref_s={r['ref_s']:.6g} "
              + " ".join(f"{name}={r[name]:.6g}" for name in END_TO_END if name in r))
        for problem in r["problems"]:
            print(f"run {i} failed: {problem}")
    for name, (value, unit, n) in metrics.items():
        scaled = f", scaled to REF_S = {REF_S} s" if END_TO_END.get(name, (0, 0))[1] else ""
        print(f"{name} = {value!r} {unit} (median of {n}{scaled})")
    print(json.dumps({"correct": failed == 0, "attempted": len(runs), "failed": failed,
                      "metrics": {name: {"value": value, "unit": unit}
                                  for name, (value, unit, _) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
