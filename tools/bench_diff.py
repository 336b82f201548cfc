"""Compare a BENCH_<n>.json file with the newest earlier one.

Usage (from the repository root):

    python3 tools/bench_diff.py [BENCH_<n>.json]

Each file holds the final JSON lines of `perfbench/run.py` invocations under
"runs", each tagged with its "workload" and its "side", "parent" or "change".
For every workload and metric the script prints the ratio of the median change
value to the median parent value in the file, then the ratio of that median
change value to the median change value in the newest earlier file.  Without
an argument it reads the newest file.
"""

import glob
import json
import re
import statistics
import sys


def medians(path, side):
    out = {}
    for run in json.load(open(path, encoding="utf-8"))["runs"]:
        if run["side"] == side:
            for name, m in run["result"]["metrics"].items():
                out.setdefault((run["workload"], name), []).append(m["value"])
    return {key: statistics.median(values) for key, values in out.items()}


def number(path):
    return int(re.findall(r"\d+", path)[-1])


def main(argv):
    files = sorted(glob.glob("BENCH_*.json"), key=number)
    if not argv and not files:
        print("no BENCH_*.json file")
        return 1
    path = argv[0] if argv else files[-1]
    earlier = [p for p in files if number(p) < number(path)]
    change, parent = medians(path, "change"), medians(path, "parent")
    before = medians(earlier[-1], "change") if earlier else {}
    print(f"{path} against " + (earlier[-1] if earlier else "no earlier BENCH file"))
    for key in sorted(change):
        line = f"{key[0]:20s} {key[1]:16s} {change[key]:12.6g}"
        if key in parent:
            line += f"  change/parent {change[key] / parent[key]:.3f}"
        if key in before:
            line += f"  vs earlier {change[key] / before[key]:.3f}"
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
