"""Command-line interface: subcommands, exit codes, output overrides."""

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
                                                   ("--C", "0", "C must be positive")])
    def test_bad_verify_argument_exits_one_with_one_line(self, tmp_path, capsys,
                                                         flag, value, needle):
        path = write_cfg(tmp_path)
        assert main(["verify-schedule", "--config", path, flag, value]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ")
        assert needle in captured.err
        assert len(captured.err.splitlines()) == 1

    def test_divergence_exits_two(self, tmp_path, capsys):
        diverging = dict(SMALL)
        diverging["schedule"] = {"alpha1": 1e9}
        diverging["init"] = {"kind": "explicit", "states": [[1.0, 1.0], [2.0, -1.0]]}
        path = write_cfg(tmp_path, diverging)
        code = main(["run", "--config", path, "--out", str(tmp_path / "out")])
        assert code == 2
        assert "divergence" in capsys.readouterr().err


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
