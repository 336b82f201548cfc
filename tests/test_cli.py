"""Command-line interface: subcommands, exit codes, output overrides."""

import os
import shlex
import subprocess
import sys
import warnings

import pytest
import yaml

from subgradnet.cli import main

SMALL = {
    "problem": {"kind": "quadratic", "targets": [[0.0, 0.0], [2.0, 0.0]]},
    "graph": {"kind": "independent", "base": "complete", "n_nodes": 2,
              "activation_prob": 0.9},
    "noise": {"sigma": 0.05, "b": 0.05},
    "run": {"horizon": 200, "reps": 2, "seed": 3},
    "verify": {"horizon": 1000},
    "connectivity": {"windows": 2, "reps": 8},
}


def write_cfg(tmp_path, data=None, name="cfg.yaml"):
    path = tmp_path / name
    path.write_text(yaml.safe_dump(data or SMALL), encoding="utf-8")
    return str(path)


def test_single_worker_run_imports_no_process_pool(tmp_path):
    # multiprocessing and concurrent.futures add about 1.6 MB to a run's RSS,
    # and every child of a run is forked by subgradnet.forked without them.
    # A fresh interpreter, so no earlier test has imported them.
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    code = ("import sys\n"
            "from subgradnet.cli import main\n"
            "assert main(['run', '--config', sys.argv[1], '--out', sys.argv[2]]) == 0\n"
            "print([name in sys.modules for name in "
            "('multiprocessing', 'concurrent.futures')])\n")
    done = subprocess.run([sys.executable, "-c", code, write_cfg(tmp_path), str(tmp_path / "o")],
                          env=env, capture_output=True, text=True, timeout=120, check=True)
    assert done.stdout.splitlines()[-1] == "[False, False]"


class TestUsageAndErrors:
    def test_no_subcommand_exits_one(self, capsys):
        assert main([]) == 1
        assert "usage" in capsys.readouterr().err

    def test_unknown_flag_exits_one_with_synopsis(self, capsys):
        code = main(["verify-schedule", "--config", "x.yaml", "--bogus"])
        assert code == 1
        err = capsys.readouterr().err
        assert "usage" in err

    def test_validation_error_exits_one(self, tmp_path, capsys):
        bad = dict(SMALL)
        bad["schedule"] = {"tau2": 0.4}
        path = write_cfg(tmp_path, bad)
        assert main(["optimum", "--config", path]) == 1
        assert "tau2" in capsys.readouterr().err

    @pytest.mark.parametrize("flag,value,needle", [("--horizon", "500", "horizon"),
                                                   ("--C", "0", "C must be positive"),
                                                   ("--C", "nan", "C must be positive"),
                                                   ("--C", "inf", "C must be positive")])
    def test_bad_verify_argument_exits_one_with_one_line(self, tmp_path, capsys,
                                                         flag, value, needle):
        path = write_cfg(tmp_path)
        assert main(["verify-schedule", "--config", path, flag, value]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ")
        assert needle in captured.err
        assert len(captured.err.splitlines()) == 1

    @pytest.mark.parametrize("section,values", [
        ("schedule", {"alpha1": "abc"}), ("schedule", {"tau2": None}),
        ("noise", {"sigma": "abc"}), ("noise", {"cap": "x"}),
        ("run", {"dense_until": "x"}), ("verify", {"horizon": "x"}),
        ("thresholds", {"min_pass_reps": "x"}), ("thresholds", {"v_ratio_max": "abc"}),
        ("thresholds", {"final_dist_max": [0.05]}), ("thresholds", {"v_ratio_k_early": 1.5}),
        ("thresholds", {"v_ratio_k_late": -1}),
        ("output", {"trace": 3}), ("output", {"summary": ""}), ("output", {"directory": None}),
        ("output", {"trace": "same.txt", "summary": "same.txt"}),
        ("output", {"trace": "same.txt", "summary": "./same.txt"}),
        ("problem", {"kind": "quadratic", "targets": 3}),
        ("problem", {"kind": "lasso", "x0": [1.0, 0.0], "covariances": "identity",
                     "sigma_v": 0.5, "kappa": "x", "n_nodes": 2}),
        ("init", {"low": [1.0, 2.0, 3.0]}),
        ("init", {"kind": "explicit", "states": [[0.0, 0.0], [1.0]]}),
        ("run", {"seed": True}), ("run", {"check_stride": 2.5}),
        ("run", {"record_stride": 7.9}), ("run", {"dense_until": 10.7}),
        ("schedule", {"alpha1": float("inf")}), ("schedule", {"alpha2": float("inf")}),
        ("graph", {"perturb": float("inf")}), ("graph", {"activation_prob": float("nan")}),
        ("graph", {"kind": "markov", "states": [[[0.0, 1.0], [1.0, 0.0]]],
                   "transition": [[float("nan")]]}),
        ("noise", {"sigma": float("inf")}), ("noise", {"b": float("inf")}),
        ("problem", {"kind": "quadratic", "targets": [[float("inf"), 0.0], [2.0, 0.0]]}),
        ("problem", {"kind": "quadratic", "targets": [[float("nan"), 0.0], [2.0, 0.0]]}),
        ("problem", {"kind": "lasso", "x0": [1.0, 0.0], "covariances": "identity",
                     "sigma_v": float("inf"), "kappa": 0.5, "n_nodes": 2}),
        ("problem", {"kind": "lasso", "x0": [1.0, 0.0], "covariances": "identity",
                     "sigma_v": 0.5, "kappa": float("inf"), "n_nodes": 2}),
        ("problem", {"kind": "lasso", "x0": [float("inf"), 0.0], "covariances": "identity",
                     "sigma_v": 0.5, "kappa": 0.5, "n_nodes": 2}),
        ("problem", {"kind": "lasso", "x0": [1.0, 0.0],
                     "covariances": [[float("inf"), 0.0], [0.0, 1.0]],
                     "sigma_v": 0.5, "kappa": 0.5, "n_nodes": 2}),
        ("schedule", {"tau3": float("-inf")}),
        # Subnormal gains: alpha(k) reaches 0 inside verification's horizon,
        # and c(k) stops decreasing once its values are too few to order.
        # Gains of 1e-300 are normal, but their squares are 0.
        ("schedule", {"alpha1": 1e-320}), ("schedule", {"alpha2": 1e-320}),
        ("schedule", {"alpha1": 1e-300}), ("schedule", {"alpha2": 1e-300}),
        # Gains whose squares overflow, and a c(0) that is infinite because
        # ln(3) ** tau3 underflows to 0.
        ("schedule", {"alpha1": 1e200}), ("schedule", {"alpha2": 1e200}),
        ("schedule", {"tau3": -100000.0}),
        ("graph", {"weight": float("inf")}), ("graph", {"weight": "abc"}),
        ("thresholds", {"v_ratio_max": float("nan")}),
        ("thresholds", {"final_dist_max": float("nan")}),
    ])
    def test_malformed_value_exits_one_with_one_error_line(self, tmp_path, capsys,
                                                           section, values):
        data = dict(SMALL)
        data[section] = values if section == "problem" else {**SMALL.get(section, {}),
                                                             **values}
        path = write_cfg(tmp_path, data)
        # A warning would print a line of its own before the error line.
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(["run", "--config", path, "--out", str(tmp_path / "o")]) == 1
        assert [str(w.message) for w in caught] == []
        captured = capsys.readouterr()
        assert captured.out == ""
        assert len(captured.err.splitlines()) == 1
        assert captured.err.startswith(f"error: {section}")
        # The line names a rejected field, or the section whose constructor rejected it.
        assert any(name in captured.err for name in values) or f"error: {section}: " in captured.err
        if section == "init":
            # A malformed init field is named as such.
            assert any(captured.err.startswith(f"error: init.{name} must") for name in values)
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("section,values,needle", [
        ("init", {"low": [1.0, 2.0, 3.0]},
         "init.low must broadcast to finite numbers of shape (2,)"),
        ("init", {"high": [[1.0], [2.0]]},
         "init.high must broadcast to finite numbers of shape (2,)"),
        ("init", {"low": "abc"}, "init.low must broadcast to finite numbers of shape (2,)"),
        ("init", {"kind": "explicit", "states": [[0.0, 0.0], [1.0]]},
         "init.states must be finite numbers of shape (2, 2)"),
        ("init", {"kind": "explicit", "states": [[0.0, 0.0]]},
         "init.states must be finite numbers of shape (2, 2)"),
        ("init", {"kind": "explicit", "states": [[0.0, 0.0], [1.0, float("inf")]]},
         "init.states must be finite numbers of shape (2, 2)"),
        # A weight that is not a number is named, not reported in numpy's words.
        ("graph", {"weight": "abc"}, "graph.weight must be a finite number"),
    ])
    def test_field_the_config_checks_is_named(self, tmp_path, capsys, section, values, needle):
        path = write_cfg(tmp_path, {**SMALL, section: {**SMALL.get(section, {}), **values}})
        assert main(["run", "--config", path, "--out", str(tmp_path / "o")]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {needle}, got ")
        assert len(err.splitlines()) == 1

    def test_unwritable_output_exits_one_with_one_error_line(self, tmp_path, capsys):
        # The trace names a subdirectory of the output directory that does not exist.
        data = {**SMALL, "output": {"trace": "nodir/trace.csv"}}
        path = write_cfg(tmp_path, data)
        out = tmp_path / "o"
        assert main(["run", "--config", path, "--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert len(captured.err.splitlines()) == 1
        assert captured.err.startswith("error: ")
        assert "Traceback" not in captured.err
        assert [p for p in out.rglob("*") if p.is_file()] == []

    def test_package_error_exits_one_with_one_error_line(self, tmp_path, monkeypatch, capsys):
        from subgradnet import cli
        from subgradnet.errors import NonConvergenceError

        def fail_to_converge(cfg, out_dir):
            raise NonConvergenceError("the optimum oracle did not converge in 1000 iterations")

        monkeypatch.setattr(cli, "run_experiment", fail_to_converge)
        assert main(["run", "--config", write_cfg(tmp_path), "--out", str(tmp_path / "o")]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: the optimum oracle did not converge in 1000 iterations\n"

    def test_divergence_exits_two(self, tmp_path, capsys):
        diverging = dict(SMALL)
        diverging["schedule"] = {"alpha1": 1e9}
        diverging["init"] = {"kind": "explicit", "states": [[1.0, 1.0], [2.0, -1.0]]}
        path = write_cfg(tmp_path, diverging)
        code = main(["run", "--config", path, "--out", str(tmp_path / "out")])
        assert code == 2
        assert "divergence" in capsys.readouterr().err

    @staticmethod
    def _a1_at_sigma_16(config_dir, tmp_path, min_pass_reps):
        # Of 8 replications, replication 6 diverges first, at step 40.
        raw = yaml.safe_load((config_dir / "a1_quadratic.yaml").read_text())
        raw["noise"]["sigma"] = 16
        raw["run"].update(horizon=2000, reps=8)
        raw["thresholds"]["min_pass_reps"] = min_pass_reps
        return write_cfg(tmp_path, raw, name="a1 sigma16.yaml")

    def test_divergence_prints_a_rerun_that_reproduces_it(self, config_dir, tmp_path, capsys):
        path = self._a1_at_sigma_16(config_dir, tmp_path, 4)
        assert main(["run", "--config", path, "--out", str(tmp_path / "a")]) == 2
        divergence, rerun = capsys.readouterr().err.splitlines()
        assert divergence.endswith("(replication=6, step=40)")
        assert rerun == f"rerun: subgradnet run --config {shlex.quote(path)} --seed 42 --reps 7"
        argv = shlex.split(rerun.split(": ", 1)[1])[1:]
        assert main(argv + ["--out", str(tmp_path / "b")]) == 2
        assert capsys.readouterr().err.splitlines()[0] == divergence

    def test_rerun_asks_for_at_least_min_pass_reps(self, config_dir, tmp_path, capsys):
        path = self._a1_at_sigma_16(config_dir, tmp_path, 8)
        assert main(["run", "--config", path, "--out", str(tmp_path / "a")]) == 2
        assert capsys.readouterr().err.splitlines()[1].endswith(" --seed 42 --reps 8")


class TestOptimum:
    def test_prints_midpoint(self, tmp_path, capsys):
        path = write_cfg(tmp_path)
        assert main(["optimum", "--config", path]) == 0
        out = capsys.readouterr().out
        assert "x_star = [1.0, 0.0]" in out
        assert "f_star = 1.0" in out


class TestVerifySchedule:
    def test_defaults_print_five_holds_lines(self, tmp_path, capsys):
        path = write_cfg(tmp_path)
        code = main(["verify-schedule", "--config", path, "--C", "1.0",
                     "--horizon", "1000000"])
        assert code == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 5
        assert all(line.endswith("holds-numerically") for line in lines)
        assert [line.split(":")[0] for line in lines] == ["C1", "C2", "C3", "C4", "C5"]

    def test_horizon_defaults_to_the_configs(self, tmp_path, monkeypatch):
        from subgradnet import cli
        horizons = []
        original = cli.verify_conditions
        monkeypatch.setattr(cli, "verify_conditions", lambda alpha, c, C, horizon: (
            horizons.append(horizon) or original(alpha, c, C, horizon)))
        path = write_cfg(tmp_path, dict(SMALL, verify={"horizon": 2000}))
        assert main(["verify-schedule", "--config", path]) == 0
        assert main(["verify-schedule", "--config", path, "--horizon", "3000"]) == 0
        assert horizons == [2000, 3000]

    def test_infinite_gain_exits_one_with_one_line(self, tmp_path, capsys):
        path = write_cfg(tmp_path, dict(SMALL, schedule={"tau3": -100000.0}))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(["verify-schedule", "--config", path]) == 1
        assert [str(w.message) for w in caught] == []
        err = capsys.readouterr().err
        assert err.startswith("error: schedule.") and "tau3" in err
        assert len(err.splitlines()) == 1


class TestGraphReport:
    def test_prints_estimates(self, tmp_path, capsys):
        path = write_cfg(tmp_path)
        assert main(["graph-report", "--config", path, "--h", "2",
                     "--windows", "3", "--reps", "16"]) == 0
        out = capsys.readouterr().out
        assert "theta_hat" in out
        assert "rho0_hat" in out
        assert "lambda2_per_window" in out

    def test_config_is_validated_once_with_the_overrides_applied(self, tmp_path,
                                                                 monkeypatch):
        from subgradnet import config
        checked = []
        original = config.validate_config
        monkeypatch.setattr(config, "validate_config", lambda cfg: checked.append(
            (cfg.connectivity.h, cfg.connectivity.windows, cfg.connectivity.reps))
            or original(cfg))
        path = write_cfg(tmp_path)
        assert main(["graph-report", "--config", path, "--h", "2",
                     "--windows", "3", "--reps", "16"]) == 0
        assert checked == [(2, 3, 16)]

    def test_zero_window_override_exits_one(self, tmp_path, capsys):
        path = write_cfg(tmp_path)
        assert main(["graph-report", "--config", path, "--h", "0"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "connectivity.h must be a positive integer" in captured.err


class TestRun:
    def test_run_writes_outputs_and_reports_passes(self, tmp_path, capsys):
        path = write_cfg(tmp_path)
        out_dir = tmp_path / "results"
        assert main(["run", "--config", path, "--out", str(out_dir)]) == 0
        out = capsys.readouterr().out
        assert (out_dir / "trace.csv").exists()
        assert (out_dir / "summary.txt").exists()
        assert "pass.psi_bound = true" in out

    def test_printed_verdicts_equal_the_summary_lines(self, tmp_path, capsys):
        # No replication ends within 1e-300 of the optimum, and none need to:
        # the measured count is 0 while every graded row holds.
        thresholds = {"v_ratio_max": 1.0, "final_dist_max": 1e-300, "min_pass_reps": 0}
        path = write_cfg(tmp_path, dict(SMALL, verify={"horizon": 1_000_000},
                                        thresholds=thresholds))
        assert main(["run", "--config", path, "--out", str(tmp_path / "o")]) == 0
        printed = capsys.readouterr().out.splitlines()[2:]
        summary = (tmp_path / "o" / "summary.txt").read_text().splitlines()
        assert printed == [line for line in summary
                           if line.startswith(("pass.", "all_pass = "))]
        assert "measured.final_dist_pass_count = 0" in summary
        assert len(printed) == 11
        assert all(line.endswith(" = true") for line in printed)

    def test_seed_and_reps_overrides(self, tmp_path):
        path = write_cfg(tmp_path)
        assert main(["run", "--config", path, "--seed", "7", "--reps", "1",
                     "--out", str(tmp_path / "o")]) == 0
        summary = (tmp_path / "o" / "summary.txt").read_text()
        assert "cfg.run.seed = 7" in summary
        assert "cfg.run.reps = 1" in summary

    def test_config_is_validated_once_with_the_overrides_applied(self, tmp_path, monkeypatch,
                                                                 capsys):
        from subgradnet import config
        checked = []
        original = config.validate_config
        monkeypatch.setattr(config, "validate_config",
                            lambda cfg: checked.append(cfg.run.reps) or original(cfg))
        # Three passing replications cannot be asked of the file's two.
        path = write_cfg(tmp_path, dict(SMALL, thresholds={"min_pass_reps": 3}))
        assert main(["run", "--config", path, "--reps", "3",
                     "--out", str(tmp_path / "o")]) == 0
        assert checked == [3]
        assert main(["run", "--config", path, "--out", str(tmp_path / "p")]) == 1
        assert "min_pass_reps" in capsys.readouterr().err
        assert not (tmp_path / "p").exists()

    def test_env_var_output_override(self, tmp_path, monkeypatch):
        path = write_cfg(tmp_path)
        env_dir = tmp_path / "env_out"
        monkeypatch.setenv("SUBGRADNET_OUT", str(env_dir))
        assert main(["run", "--config", path]) == 0
        assert (env_dir / "trace.csv").exists()

    def test_flag_beats_env_var(self, tmp_path, monkeypatch):
        path = write_cfg(tmp_path)
        monkeypatch.setenv("SUBGRADNET_OUT", str(tmp_path / "env_out2"))
        flag_dir = tmp_path / "flag_out"
        assert main(["run", "--config", path, "--out", str(flag_dir)]) == 0
        assert (flag_dir / "trace.csv").exists()
        assert not (tmp_path / "env_out2").exists()


@pytest.mark.parametrize("command", ["run", "graph-report", "verify-schedule", "optimum"])
def test_each_command_builds_each_object_once(tmp_path, monkeypatch, command):
    from subgradnet import config
    calls = {}

    def counted(name, build):
        return lambda cfg: calls.update({name: calls.get(name, 0) + 1}) or build(cfg)

    for name in ("objective", "process", "noise", "schedule", "init"):
        monkeypatch.setattr(config, f"build_{name}",
                            counted(name, getattr(config, f"build_{name}")))
    out = ["--out", str(tmp_path / "o")] if command == "run" else []
    assert main([command, "--config", write_cfg(tmp_path)] + out) == 0
    assert calls and max(calls.values()) == 1, calls


class TestModuleEntryPoint:
    def test_python_dash_m_invocation(self, tmp_path):
        import subprocess
        import sys
        path = write_cfg(tmp_path)
        proc = subprocess.run(
            [sys.executable, "-m", "subgradnet", "optimum", "--config", path],
            capture_output=True, text=True)
        assert proc.returncode == 0
        assert "x_star" in proc.stdout

    def test_unknown_subcommand_fails(self):
        import subprocess
        import sys
        proc = subprocess.run([sys.executable, "-m", "subgradnet", "frobnicate"],
                              capture_output=True, text=True)
        assert proc.returncode == 1
        assert "usage" in proc.stderr
