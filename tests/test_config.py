"""Configuration loading, validation messages, and round-tripping."""

import numpy as np
import pytest
import yaml

from subgradnet import (IndependentEdges, MarkovSwitching, ParseError,
                        QuadraticObjective, ValidationError, load_config,
                        save_config)
from subgradnet.config import (_Loader, build_init, build_objective, build_process,
                               build_schedule, config_from_dict)

MINIMAL_QUADRATIC = {
    "problem": {"kind": "quadratic", "targets": [[0.0, 0.0], [2.0, 0.0]]},
    "graph": {"kind": "independent", "base": "complete", "n_nodes": 2,
              "activation_prob": 0.9},
}
LASSO = {"kind": "lasso", "x0": [1.0, 0.0], "covariances": "identity", "sigma_v": 0.5,
         "kappa": 0.2, "n_nodes": 2}


def write_yaml(tmp_path, text, name="cfg.yaml"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


class TestLoadAndValidate:
    def test_minimal_config_fills_defaults(self, tmp_path):
        path = write_yaml(tmp_path, """
problem:
  kind: quadratic
  targets: [[0.0, 0.0], [2.0, 0.0]]
graph:
  kind: independent
  base: complete
  n_nodes: 2
""")
        cfg = load_config(path)
        assert cfg.run.horizon == 1000
        assert cfg.noise.sigma == 0.0
        assert cfg.schedule.tau2 == 0.75
        assert cfg.init.kind == "uniform"
        assert cfg.verify.horizon == 1_000_000

    def test_tau2_out_of_range_names_field_and_bound(self):
        data = dict(MINIMAL_QUADRATIC)
        data["schedule"] = {"tau2": 0.4}
        with pytest.raises(ValidationError, match=r"tau2 must lie in \(0.5, 1\)"):
            config_from_dict(data)

    @pytest.mark.parametrize("section,values,name", [
        ("schedule", {"tau1": 0.0}, "tau1"), ("schedule", {"tau1": 1.5}, "tau1"),
        ("schedule", {"tau2": 0.5}, "tau2"), ("schedule", {"tau2": 1.0}, "tau2"),
        ("schedule", {"tau3": 1.5}, "tau3"), ("schedule", {"alpha1": 0.0}, "alpha1"),
        ("schedule", {"alpha2": -1.0}, "alpha2"),
        ("noise", {"sigma": -1.0}, "sigma"), ("noise", {"sigma": float("nan")}, "sigma"),
        ("noise", {"b": -0.1}, "b"), ("noise", {"cap": -1.0}, "cap"),
        ("problem", dict(LASSO, kappa=-0.1), "kappa"),
        ("problem", dict(LASSO, kappa=float("nan")), "kappa"),
        ("problem", dict(LASSO, sigma_v=-0.5), "sigma_v"),
        ("problem", dict(LASSO, n_nodes=None), "n_nodes"),
    ])
    def test_rule_owned_by_a_constructor_still_rejected(self, section, values, name):
        data = dict(MINIMAL_QUADRATIC, **{section: values})
        with pytest.raises(ValidationError, match=rf"^{section}(\.|: ){name} "):
            config_from_dict(data)

    def test_round_trip_is_identity(self, tmp_path):
        data = dict(MINIMAL_QUADRATIC)
        data["run"] = {"horizon": 5000, "reps": 3, "seed": 9}
        data["noise"] = {"sigma": 0.25, "b": 0.1}
        cfg = config_from_dict(data)
        path = tmp_path / "roundtrip.yaml"
        save_config(cfg, str(path))
        again = load_config(str(path))
        assert again == cfg

    def test_acceptance_configs_round_trip(self, tmp_path, config_dir):
        for name in ("a1_quadratic.yaml", "a2_lasso.yaml"):
            cfg = load_config(str(config_dir / name))
            save_config(cfg, str(tmp_path / name))
            assert load_config(str(tmp_path / name)) == cfg

    def test_unknown_section_rejected(self):
        data = dict(MINIMAL_QUADRATIC)
        data["grpah"] = {}
        with pytest.raises(ValidationError, match="grpah"):
            config_from_dict(data)

    def test_unknown_key_rejected(self):
        data = dict(MINIMAL_QUADRATIC)
        data["noise"] = {"sgima": 0.1}
        with pytest.raises(ValidationError, match="sgima"):
            config_from_dict(data)

    def test_unknown_verify_key_gets_the_generic_message(self):
        data = dict(MINIMAL_QUADRATIC, verify={"horizon": 1000, "horzion": 2000})
        with pytest.raises(ValidationError,
                           match=r"^unknown keys in section 'verify': \['horzion'\]$"):
            config_from_dict(data)

    def test_parse_error_on_bad_yaml(self, tmp_path):
        path = write_yaml(tmp_path, "problem: [unclosed")
        with pytest.raises(ParseError):
            load_config(path)

    @pytest.mark.parametrize("text", [
        "problem: {kind: 'quadratic", "a: 1\n\tb: 2",
        "graph:\n  n_nodes: 2\n n_nodes: 3", "- a\nb: 1", "key: @value"])
    def test_parse_error_on_malformed_yaml(self, tmp_path, text):
        path = write_yaml(tmp_path, text)
        with pytest.raises(ParseError):
            load_config(path)

    def test_loader_in_use_parses_like_safe_loader(self, tmp_path, config_dir):
        data = dict(MINIMAL_QUADRATIC)
        data["run"] = {"horizon": 5000, "reps": 3, "seed": 9}
        data["noise"] = {"sigma": 0.25, "b": 0.1}
        save_config(config_from_dict(data), str(tmp_path / "saved.yaml"))
        paths = [config_dir / "a1_quadratic.yaml", config_dir / "a2_lasso.yaml",
                 tmp_path / "saved.yaml"]
        for path in paths:
            text = path.read_text(encoding="utf-8")
            want = yaml.load(text, Loader=yaml.SafeLoader)
            got = yaml.load(text, Loader=_Loader)
            assert got == want and repr(got) == repr(want)

    def test_parse_error_on_missing_file(self, tmp_path):
        with pytest.raises(ParseError):
            load_config(str(tmp_path / "nope.yaml"))

    def test_node_count_mismatch_rejected(self):
        data = {
            "problem": {"kind": "quadratic", "targets": [[0.0], [1.0], [2.0]]},
            "graph": {"kind": "independent", "base": "complete", "n_nodes": 2},
        }
        with pytest.raises(ValidationError, match="match"):
            config_from_dict(data)

    def test_per_node_covariance_count_must_match_problem_n_nodes(self):
        data = {
            "problem": {"kind": "lasso", "x0": [1.0, 0.0], "sigma_v": 0.5, "kappa": 0.2,
                        "covariances": [np.eye(2).tolist()] * 4, "n_nodes": 7},
            "graph": {"kind": "independent", "base": "complete", "n_nodes": 4},
        }
        with pytest.raises(ValidationError, match=r"n_nodes 7 .* 4 per-node"):
            config_from_dict(data)
        data["problem"]["n_nodes"] = 4
        assert build_objective(config_from_dict(data)).n_nodes == 4
        del data["problem"]["n_nodes"]
        assert build_objective(config_from_dict(data)).n_nodes == 4

    def test_non_monotone_consensus_gain_rejected(self):
        data = dict(MINIMAL_QUADRATIC)
        data["schedule"] = {"tau3": -3.0}
        data["run"] = {"horizon": 1000, "reps": 1, "seed": 0}
        with pytest.raises(ValidationError, match="tau3"):
            config_from_dict(data)

    def test_explicit_init_shape_checked(self):
        data = dict(MINIMAL_QUADRATIC)
        data["init"] = {"kind": "explicit", "states": [[0.0, 0.0]]}
        with pytest.raises(ValidationError, match="init.states"):
            config_from_dict(data)

    def test_negative_horizon_rejected(self):
        data = dict(MINIMAL_QUADRATIC)
        data["run"] = {"horizon": 0}
        with pytest.raises(ValidationError, match="horizon"):
            config_from_dict(data)


class TestBuilders:
    def test_quadratic_objective_built(self):
        cfg = config_from_dict(dict(MINIMAL_QUADRATIC))
        obj = build_objective(cfg)
        assert isinstance(obj, QuadraticObjective)
        assert obj.n_nodes == 2 and obj.dim == 2

    def test_lasso_identity_covariances(self):
        cfg = config_from_dict({
            "problem": {"kind": "lasso", "x0": [1.0, 0.0], "covariances": "identity",
                        "sigma_v": 0.5, "kappa": 0.2, "n_nodes": 3},
            "graph": {"kind": "independent", "base": "complete", "n_nodes": 3},
        })
        obj = build_objective(cfg)
        assert obj.n_nodes == 3
        assert np.array_equal(obj.covariances[1], np.eye(2))
        assert np.array_equal(obj.sigma_v, [0.5, 0.5, 0.5])

    def test_complete_base_graph(self):
        cfg = config_from_dict(dict(MINIMAL_QUADRATIC))
        proc = build_process(cfg)
        assert isinstance(proc, IndependentEdges)
        assert np.array_equal(proc.base, np.ones((2, 2)) - np.eye(2))

    def test_markov_graph_built(self, config_dir):
        cfg = load_config(str(config_dir / "a2_lasso.yaml"))
        proc = build_process(cfg)
        assert isinstance(proc, MarkovSwitching)
        assert proc.states.shape == (3, 4, 4)
        pi = proc.stationary_distribution()
        assert np.allclose(pi, 1.0 / 3.0)

    def test_schedule_and_init_built(self):
        data = dict(MINIMAL_QUADRATIC)
        data["init"] = {"kind": "uniform", "low": [-1.0, 0.0], "high": [1.0, 2.0]}
        cfg = config_from_dict(data)
        sched = build_schedule(cfg)
        assert sched.alpha(0) > 0
        init = build_init(cfg)
        rng = np.random.default_rng(0)
        draw = init.draw(rng, 2, 2)
        assert np.all(draw[:, 0] >= -1.0) and np.all(draw[:, 0] <= 1.0)
        assert np.all(draw[:, 1] >= 0.0) and np.all(draw[:, 1] <= 2.0)
