"""Compare a BENCH_<n>.json file with the newest earlier one.

Usage (from the repository root):

    python3 tools/bench_diff.py [BENCH_<n>.json]

Each file holds the final JSON lines of `perfbench/run.py` invocations under
"runs", each tagged with its "workload", its "seed" and its "side", "parent"
or "change".  For every workload and end-to-end metric of BENCHMARK.json the
script prints each side's q1/median/q3, the ratio of the median change value
to the median parent value, how many seed-matched parent/change pairs the
change won (in the direction BENCHMARK.json calls better), and the ratio of
the median change value to the median change value in the newest earlier
file.  Without an argument it reads the newest file.
"""

import glob
import json
import os
import re
import statistics
import sys


def better_directions(path="BENCHMARK.json"):
    with open(path, encoding="utf-8") as fh:
        return {m["name"]: m["better"] for m in json.load(fh)["end_to_end"]}


def values(path, side):
    """{(workload, metric): {seed: [values]}} of one side's runs."""
    out = {}
    with open(path, encoding="utf-8") as fh:
        runs = json.load(fh)["runs"]
    for run in runs:
        if run["side"] == side:
            for name, m in run["result"]["metrics"].items():
                out.setdefault((run["workload"], name), {}).setdefault(
                    run.get("seed"), []).append(m["value"])
    return out


def flat(by_seed):
    return [v for vals in by_seed.values() for v in vals]


def quartiles(vals):
    if len(vals) < 2:
        return vals[0], vals[0], vals[0]
    return tuple(statistics.quantiles(vals, n=4, method="inclusive"))


def number(path):
    """The PR number in a BENCH file's name, or None."""
    digits = re.findall(r"\d+", os.path.basename(path))
    return int(digits[-1]) if digits else None


def main(argv):
    files = sorted((p for p in glob.glob("BENCH_*.json") if number(p) is not None),
                   key=number)
    if not argv and not files:
        print("no BENCH_*.json file")
        return 1
    path = argv[0] if argv else files[-1]
    if number(path) is None:
        print(f"error: {path} carries no PR number; name it BENCH_<n>.json")
        return 1
    better = better_directions()
    earlier = [p for p in files if number(p) < number(path)]
    change, parent = values(path, "change"), values(path, "parent")
    before = values(earlier[-1], "change") if earlier else {}
    print(f"{path} against " + (earlier[-1] if earlier else "no earlier BENCH file"))
    for key in sorted(k for k in change if k[1] in better):
        line = f"{key[0]:20s} {key[1]:16s}"
        sides = [("parent", parent[key])] if key in parent else []
        for side, by_seed in sides + [("change", change[key])]:
            line += f" {side} " + "/".join(f"{v:.6g}" for v in quartiles(flat(by_seed)))
        if key in parent:
            ratio = statistics.median(flat(change[key])) / statistics.median(flat(parent[key]))
            seeds = sorted(set(change[key]) & set(parent[key]), key=str)
            sign = -1.0 if better[key[1]] == "lower" else 1.0
            won = sum(sign * (statistics.median(change[key][s])
                              - statistics.median(parent[key][s])) > 0 for s in seeds)
            line += f"  change/parent {ratio:.3f}  won {won}/{len(seeds)}"
        if key in before:
            ratio = statistics.median(flat(change[key])) / statistics.median(flat(before[key]))
            line += f"  vs earlier {ratio:.3f}"
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
