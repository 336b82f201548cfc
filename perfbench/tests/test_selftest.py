"""Self-test of the benchmark.

Short runs of every workload, untraced and traced, must emit exactly the
metrics BENCHMARK.json names, with their units, and no run may fail.  Run from
the repository root:

    python3 -m pytest perfbench/tests -q
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

# Long enough for every workload to pass the distance gate (see run.DIST_DROP).
SHORT_HORIZON = 128

with open(os.path.join(ROOT, "BENCHMARK.json"), "r", encoding="utf-8") as fh:
    SPEC = json.load(fh)


def _last_json(text):
    return json.loads(text.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", workloads.NAMES)
def test_short_run_emits_every_metric(workload, trace, capsys):
    rc = run.main(["--workload", workload, "--seconds", "0", "--trace", str(trace)],
                  horizon=SHORT_HORIZON)
    result = _last_json(capsys.readouterr().out)
    assert rc == 0
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] == 1 + trace
    names = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == names
    for metric in result["metrics"].values():
        assert set(metric) == {"value", "unit"}
    if trace:
        assert result["metrics"]["trace.top_level_share"]["value"] >= 0.95
    else:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_traced_run_fails_when_spans_miss_wall_time(monkeypatch, capsys):
    # No run can cover more than all of its wall time, so the gate must fire.
    monkeypatch.setattr(run, "MIN_TOP_LEVEL_SHARE", 1.01)
    run.main(["--workload", workloads.NAMES[0], "--seconds", "0", "--trace", "1"],
             horizon=SHORT_HORIZON)
    out = capsys.readouterr().out
    result = _last_json(out)
    assert not result["correct"] and result["failed"] == 1
    assert "top-level spans cover" in out


def test_timings_are_scaled_to_reference_speed():
    # A run made while the reference kernel took twice REF_S ran on a host at
    # half speed: its times halve and its rate doubles; its memory stays.
    record = {"wall_s": 4.0, "setup_s": 1.0, "rep_steps_per_s": 100.0, "peak_rss_mb": 50.0,
              "ref_s": 2 * run.REF_S, "traced": False, "problems": [], "hash": "h"}
    args = argparse.Namespace(trace=0)
    metrics = run.summarize(args, [[record]])[3]
    assert {k: v[0] for k, v in metrics.items()} == {
        "wall_s": 2.0, "setup_s": 0.5, "rep_steps_per_s": 200.0, "peak_rss_mb": 50.0}


def test_workload_inputs_follow_the_seed():
    wide = [workloads.make_config("wide-n50-indep", seed, ROOT) for seed in (1, 1, 2)]
    assert wide[0] == wide[1] and wide[0] != wide[2]
    a2 = workloads.make_config("a2-markov-lasso", 7, ROOT)
    assert a2["run"]["seed"] == 7 and a2["run"]["workers"] == 1
    assert workloads.closed_form_optimum(a2).tolist() == pytest.approx([0.7, -1.7, 0.0])


def test_layer_metrics_from_synthetic_spans():
    # run_experiment [0, 10] > monte_carlo [2, 10] > two sample_block calls
    # of 1 s each: one aligned full chunk, one chunk-straddling call.
    chunk = 8
    trace = [
        ["experiment.run_experiment", 0.0, 10.0, -1, None],
        ["graphs.sample_block", 0.5, 1.5, 0, (3, 1)],
        ["engine.monte_carlo", 2.0, 10.0, 0, None],
        ["graphs.sample_block", 2.0, 3.0, 2, (0, 8)],
        ["graphs.sample_block", 3.0, 4.0, 2, (6, 4)],
    ]
    m = spans.layer_metrics(trace, 10.0, (2, 12, 3, 2, 5), chunk, 4, 100)
    assert m["engine.monte_carlo_s"] == (8.0, "s")
    assert m["engine.self_us_per_step_rep"] == (1e6 * 6.0 / 24, "us")
    assert m["experiment.self_s"] == (1.0, "s")
    assert m["graphs.sample_block_setup_s"] == (1.0, "s")
    assert m["graphs.report_draw_use_ratio"] == (1 / 8, "ratio")
    assert m["graphs.draw_use_ratio"] == (13 / 32, "ratio")
    assert m["engine.recursion_checks"] == (6, "count")
    assert m["engine.xi_chunk_mb"] == (2 * 4 * 3 ** 2 * 2 * 8 / 1e6, "MB")
    assert m["trace.top_level_share"] == (1.0, "ratio")


def test_fails_without_the_library(tmp_path):
    """In a directory with only the benchmark, it exits nonzero and prints no result."""
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns(".work", "__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", workloads.NAMES[0]],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
