"""One `subgradnet run` in a fresh process, timed from outside the library.

Usage: python3 perfbench/sample.py CONFIG OUT_DIR TRACE

Runs ``cli.main(["run", ...])`` once.  With TRACE 0 the only wrapper is the
stamp on the Monte Carlo call; with TRACE 1 every layer boundary records
spans, which are written to OUT_DIR/spans.csv after the run.  The last line of
standard output is one JSON object with the timings, the exit code and, when
traced, the per-layer metrics.  Nothing else runs in this process, so its peak
RSS is that of one workload run.
"""

import json
import os
import resource
import sys
import time
import traceback

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import yaml  # noqa: E402

import spans  # noqa: E402
import workloads  # noqa: E402


def main(argv):
    config_path, out_dir, traced = argv[0], argv[1], argv[2] == "1"
    from subgradnet import cli, engine, graphs
    with open(config_path, "r", encoding="utf-8") as fh:
        cfg = yaml.safe_load(fh)

    tracer = spans.Tracer()
    if traced:
        spans.trace_layers(tracer)
    else:
        spans.stamp_monte_carlo(tracer)
    error = None
    start = time.perf_counter()
    try:
        rc = cli.main(["run", "--config", config_path, "--out", out_dir])
    except Exception:  # a crash is a failed run, reported to the caller
        rc, error = None, traceback.format_exc()
    wall_s = time.perf_counter() - start
    tracer.uninstall()

    result = {"rc": rc, "error": error, "wall_s": wall_s,
              "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6}
    mc = [s for s in tracer.spans if s[spans.NAME] == "engine.monte_carlo"]
    if len(mc) == 1:
        reps, horizon = workloads.work_size(cfg)[:2]
        result.update(setup_s=mc[0][spans.START] - start,
                      rep_steps_per_s=reps * horizon / (mc[0][spans.END] - mc[0][spans.START]))
    if traced and rc == 0:
        spans.write_spans(tracer.spans, os.path.join(out_dir, "spans.csv"))
        output_bytes = sum(os.path.getsize(os.path.join(out_dir, cfg["output"][key]))
                           for key in ("trace", "summary"))
        result["layers"] = spans.layer_metrics(
            tracer.spans, wall_s, workloads.work_size(cfg), graphs.CHUNK, engine._CHUNK,
            output_bytes)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
