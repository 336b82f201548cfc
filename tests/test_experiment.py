"""Experiment pipeline: trace/summary files, determinism, thresholds."""

import os

import numpy as np
import pytest

from subgradnet import DivergenceDetected, run_experiment
from subgradnet.config import config_from_dict
from subgradnet.experiment import TRACE_HEADER, estimate_constants
from subgradnet import config as cfgmod


def small_cfg(extra=None, horizon=300, reps=3):
    data = {
        "problem": {"kind": "quadratic",
                    "targets": [[0.0, 0.0], [2.0, 0.0], [1.0, 2.0]]},
        "graph": {"kind": "independent", "base": "complete", "n_nodes": 3,
                  "activation_prob": 0.8},
        "noise": {"sigma": 0.1, "b": 0.1},
        "run": {"horizon": horizon, "reps": reps, "seed": 11,
                "check_stride": 50},
        "verify": {"horizon": 2000},
        "connectivity": {"h": 1, "windows": 3, "reps": 16},
    }
    if extra:
        for key, val in extra.items():
            data.setdefault(key, {}).update(val)
    return config_from_dict(data)


def verdicts(res):
    return {key: value for key, value, _ in res.verdicts}


class TestRunExperiment:
    def test_writes_trace_and_summary(self, tmp_path):
        cfg = small_cfg()
        res = run_experiment(cfg, out_dir=str(tmp_path / "out"))
        assert os.path.exists(res.trace_path)
        assert os.path.exists(res.summary_path)
        lines = open(res.trace_path).read().splitlines()
        assert lines[0] == TRACE_HEADER
        assert len(lines) - 1 == len(res.mc.record_ks)
        first = lines[1].split(",")
        assert int(first[0]) == 0
        assert all(np.isfinite(float(v)) for v in first[1:])

    def test_short_horizon_row_count(self, tmp_path):
        cfg = small_cfg(horizon=10, reps=1)
        res = run_experiment(cfg, out_dir=str(tmp_path / "out"))
        lines = open(res.trace_path).read().splitlines()
        assert len(lines) - 1 <= 11

    def test_byte_identical_reruns(self, tmp_path):
        cfg = small_cfg()
        res1 = run_experiment(cfg, out_dir=str(tmp_path / "one"))
        res2 = run_experiment(cfg, out_dir=str(tmp_path / "two"))
        assert open(res1.trace_path, "rb").read() == open(res2.trace_path, "rb").read()
        assert open(res1.summary_path, "rb").read() == open(res2.summary_path, "rb").read()

    def test_invalid_output_path_fails_fast(self, tmp_path):
        blocker = tmp_path / "blocker"
        blocker.write_text("a file, not a directory")
        cfg = small_cfg(horizon=100_000, reps=20)  # would take seconds if run
        import time
        start = time.perf_counter()
        with pytest.raises(OSError):
            run_experiment(cfg, out_dir=str(blocker / "sub"))
        assert time.perf_counter() - start < 2.0

    def test_diverged_run_leaves_earlier_outputs_intact(self, tmp_path):
        out = tmp_path / "out"
        good = run_experiment(small_cfg(horizon=50, reps=2), out_dir=str(out))
        paths = (good.trace_path, good.summary_path)
        before = [open(p, "rb").read() for p in paths]
        diverging = small_cfg({"schedule": {"alpha1": 1e9},
                               "init": {"kind": "explicit",
                                        "states": [[1.0, 1.0], [2.0, -1.0], [0.0, 3.0]]}},
                              horizon=50, reps=2)
        with pytest.raises(DivergenceDetected):
            run_experiment(diverging, out_dir=str(out))
        assert [open(p, "rb").read() for p in paths] == before
        assert sorted(os.listdir(out)) == sorted(os.path.basename(p) for p in paths)

    def test_output_path_that_is_a_directory_fails_fast(self, tmp_path):
        out = tmp_path / "out"
        (out / "summary.txt").mkdir(parents=True)
        with pytest.raises(IsADirectoryError):
            run_experiment(small_cfg(horizon=100_000, reps=20), out_dir=str(out))
        assert sorted(os.listdir(out)) == ["summary.txt"]

    def test_summary_contains_required_fields(self, tmp_path):
        cfg = small_cfg()
        res = run_experiment(cfg, out_dir=str(tmp_path / "out"))
        text = open(res.summary_path).read()
        for token in ("cfg.run.seed", "theta_hat", "rho0_hat", "C1_hat",
                      "conditions.C1", "conditions.C5", "pass.psi_bound",
                      "monitor.recursion_max", "all_pass"):
            assert token in text, token
        # estimates are labeled, config echoes carry the cfg. prefix
        assert "(estimate" in text
        assert "cfg.run.horizon = 300" in text

    def test_monitors_hold_on_small_run(self, tmp_path):
        cfg = small_cfg()
        res = run_experiment(cfg, out_dir=str(tmp_path / "out"))
        assert verdicts(res)["pass.psi_bound"]
        assert verdicts(res)["pass.d_bound"]
        assert verdicts(res)["pass.recursion_identity"]
        assert verdicts(res)["pass.c1_sup_early"]
        assert res.mc.recursion_max < 1e-10

    def test_threshold_verdicts_appear(self, tmp_path):
        cfg = small_cfg(extra={"thresholds": {
            "v_ratio_k_early": 100, "v_ratio_k_late": 300, "v_ratio_max": 1.0,
            "final_dist_max": 100.0, "min_pass_reps": 3}})
        res = run_experiment(cfg, out_dir=str(tmp_path / "out"))
        assert verdicts(res)["pass.v_ratio"]
        assert verdicts(res)["pass.final_dist"]
        assert verdicts(res)["measured.final_dist_pass_count"] == 3

    def test_all_pass_is_the_conjunction_of_the_graded_rows(self, tmp_path):
        # V cannot drop by a factor of 1e-300, so pass.v_ratio fails.
        cfg = small_cfg(extra={"thresholds": {"v_ratio_max": 1e-300, "final_dist_max": 100.0}})
        res = run_experiment(cfg, out_dir=str(tmp_path / "out"))
        keys = [key for key, _, _ in res.verdicts]
        assert keys == sorted(keys)
        assert all(graded == key.startswith("pass.") for key, _, graded in res.verdicts)
        assert {key for key, _, graded in res.verdicts if not graded} == {
            "measured.final_dist_pass_count", "measured.v_ratio_value"}
        assert verdicts(res)["pass.v_ratio"] is False
        assert res.all_pass is False
        assert res.all_pass is all(value for _, value, graded in res.verdicts if graded)

    def test_numeric_strings_count_as_threshold_numbers(self, tmp_path):
        # YAML reads a float written without a dot, such as 1e-2, as a string.
        as_text = small_cfg(extra={"thresholds": {"v_ratio_max": "1e0",
                                                  "final_dist_max": "1e2"}})
        as_float = small_cfg(extra={"thresholds": {"v_ratio_max": 1.0,
                                                   "final_dist_max": 100.0}})
        text = run_experiment(as_text, out_dir=str(tmp_path / "text"))
        assert text.verdicts == run_experiment(as_float, out_dir=str(tmp_path / "float")).verdicts
        assert verdicts(text)["pass.v_ratio"] and verdicts(text)["pass.final_dist"]

    def test_envelope_and_c1_come_from_one_log_ratio(self, tmp_path):
        # Zero initial states put the sup of mean||X||^2 / beta after k = 0,
        # and the horizon reaches past the k = 1000 of pass.c1_sup_early.
        cfg = small_cfg({"init": {"kind": "explicit", "states": [[0.0, 0.0]] * 3}},
                        horizon=1500, reps=2)
        res = run_experiment(cfg, out_dir=str(tmp_path / "out"))
        rows = [line.split(",") for line in open(res.trace_path).read().splitlines()[1:]]
        ks = np.array([int(row[0]) for row in rows])
        state_sq, beta_log = (np.array([float(row[col]) for row in rows]) for col in (5, 6))
        schedule = cfgmod.validate_config(cfg).schedule
        expected = schedule.log_beta(res.mc.record_ks, res.constants.C0)
        assert np.array_equal(ks, res.mc.record_ks)
        assert np.array_equal(beta_log, expected)
        assert np.array_equal(res.beta_log, expected)

        log_ratio = np.log(np.maximum(state_sq, 1e-300)) - beta_log
        best = int(np.argmax(log_ratio))
        summary = dict(line.split(" = ", 1) for line in open(res.summary_path)
                       if " = " in line)
        assert ks[best] > 0
        assert summary["C1_hat_at_k"].strip() == str(ks[best])
        assert summary["C1_hat"].split()[0] == repr(float(np.exp(log_ratio[best])))
        assert summary["pass.c1_sup_early"].strip() == str(bool(ks[best] <= 1000)).lower()
        assert verdicts(res)["pass.c1_sup_early"] == (ks[best] <= 1000)

    def test_worker_pool_aggregates_match(self, tmp_path):
        cfg1 = small_cfg(reps=6)
        res1 = run_experiment(cfg1, out_dir=str(tmp_path / "w1"))
        cfg8 = small_cfg(reps=6, extra={"run": {"workers": 8}})
        res8 = run_experiment(cfg8, out_dir=str(tmp_path / "w8"))
        for name in ("mean_v", "std_v", "mean_opt_gap", "mean_dist_to_opt",
                     "mean_state_sq"):
            gap = np.max(np.abs(getattr(res1.mc, name) - getattr(res8.mc, name)))
            assert gap <= 1e-12, name


class TestConstants:
    def test_c0_formula_assembled_from_estimates(self):
        cfg = small_cfg()
        objective, process, model, _, _ = cfgmod.validate_config(cfg)
        report, constants = estimate_constants(cfg, objective, process, model)
        expected = (1.0 + 2.0 * constants.rho0_hat ** 2
                    + 16.0 * 0.01 * constants.c_xi * constants.rho1_hat
                    + 8.0 * 0.0 + 16.0 * 1.0)
        assert constants.C0 == pytest.approx(expected)
        assert constants.theta_hat == pytest.approx(report.theta_hat)
        assert constants.c_xi == pytest.approx(0.8 * 6)


class TestRunTrajectoryFromConfig:
    """A one-replication run's trajectory, read from the result's
    ``mc.per_rep``."""

    def test_records_cover_horizon(self, tmp_path):
        mc = run_experiment(small_cfg(horizon=120, reps=1), out_dir=tmp_path).mc
        assert mc.record_ks[0] == 0
        assert mc.record_ks[-1] == 120
        assert np.all(mc.per_rep["V"][0] >= 0)
        assert np.all(mc.per_rep["opt_gap"][0] >= -1e-9)


class TestThresholdEdgeCases:
    def test_v_ratio_with_unrecorded_k_marks_failure(self, tmp_path):
        cfg = small_cfg(extra={"thresholds": {
            "v_ratio_k_early": 7, "v_ratio_k_late": 299, "v_ratio_max": 1.0}})
        cfg.run.dense_until = 5
        cfg.run.record_stride = 100
        res = run_experiment(cfg, out_dir=str(tmp_path / "out"))
        assert verdicts(res)["pass.v_ratio"] is False


class TestDeterministicGraphExperiment:
    def test_cycle_graph_config_runs(self, tmp_path):
        cfg = config_from_dict({
            "problem": {"kind": "quadratic",
                        "targets": [[1.0, 1.0], [1.0, 1.0], [1.0, 1.0]]},
            "graph": {"kind": "deterministic", "matrices": [
                [[0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [1.0, 0.0, 0.0]],
                [[0.0, 0.0, 1.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]],
            ]},
            "noise": {"sigma": 0.05, "b": 0.05},
            "run": {"horizon": 400, "reps": 2, "seed": 21},
            "verify": {"horizon": 1000},
            "connectivity": {"h": 2, "windows": 3, "reps": 4},
        })
        res = run_experiment(cfg, out_dir=str(tmp_path / "out"))
        # union of the two cycle steps is strongly connected
        assert res.constants.theta_hat > 0.0
        assert verdicts(res)["pass.psi_bound"] and verdicts(res)["pass.d_bound"]
