"""Workloads of the subgradnet benchmark and the closed forms that check them.

Each workload is a `subgradnet run` config built from the workload seed.  The
seed sets ``run.seed``; for the N=50 workload it also draws the node targets.
All workloads run with ``workers: 1``: on a small shared machine, process-pool
scaling would measure the scheduler, and the test suite already checks that
pool results equal the single-worker ones.  README.md records why each
workload exists and which layer it stresses.
"""

import os

import numpy as np
import yaml

# Horizons are sized so that one run takes about two seconds (a1, a2) or three
# (wide), and stay fixed across commits.  On a shared host the machine's speed
# switches between states that last seconds; many short runs per invocation
# sample that mix far more evenly than a few long ones, which keeps the
# figures steady.
A1_HORIZON = 5_000
A2_HORIZON = 5_000
# One engine noise block: xi_chunk, and so peak RSS, is as large as at any
# longer horizon.
WIDE_HORIZON = 1024
WIDE_NODES = 50
WIDE_REPS = 4
# An eighth of the default 64 connectivity reps: the report still draws a
# 1024-step block per step it uses and is still most of setup, but one
# invocation holds several runs and setups instead of one or two.
WIDE_CONNECTIVITY_REPS = 8

NAMES = ("a1-indep-quadratic", "a2-markov-lasso", "wide-n50-indep")


def _shipped(root, name):
    with open(os.path.join(root, "configs", name), "r", encoding="utf-8") as fh:
        return yaml.safe_load(fh)


def _wide(seed):
    rng = np.random.default_rng(seed)
    targets = 4.0 * rng.random((WIDE_NODES, 2))
    return {
        "problem": {"kind": "quadratic", "targets": targets.tolist()},
        "graph": {"kind": "independent", "base": "complete",
                  "n_nodes": WIDE_NODES, "weight": 0.1, "activation_prob": 0.8},
        "noise": {"sigma": 0.1, "b": 0.1},
        "schedule": {"alpha1": 1.0, "tau1": 1.0, "alpha2": 1.0, "tau2": 0.75,
                     "tau3": 1.0},
        "run": {"horizon": WIDE_HORIZON, "reps": WIDE_REPS, "seed": seed,
                "workers": 1, "dense_until": 1000, "record_stride": 100,
                "check_stride": 512},
        "init": {"kind": "uniform", "low": [0.0, 0.0], "high": [4.0, 4.0]},
        "connectivity": {"h": 1, "windows": 8, "reps": WIDE_CONNECTIVITY_REPS},
        "verify": {"horizon": 1_000_000},
        "output": {"directory": "out/wide", "trace": "trace.csv",
                   "summary": "summary.txt"},
    }


def make_config(name, seed, root, horizon=None):
    """Config dict of workload ``name`` for ``seed``; ``horizon`` overrides
    the workload's own (the self-test uses it to keep runs short)."""
    if name == "a1-indep-quadratic":
        cfg = _shipped(root, "a1_quadratic.yaml")
        cfg["run"]["horizon"] = A1_HORIZON
    elif name == "a2-markov-lasso":
        cfg = _shipped(root, "a2_lasso.yaml")
        cfg["run"]["horizon"] = A2_HORIZON
    elif name == "wide-n50-indep":
        cfg = _wide(seed)
    else:
        raise KeyError(f"unknown workload {name!r}; choose from {', '.join(NAMES)}")
    cfg["run"]["seed"] = seed
    cfg["run"]["workers"] = 1
    if horizon is not None:
        cfg["run"]["horizon"] = horizon
    return cfg


def closed_form_optimum(cfg):
    """Optimum known without the library: the target centroid for quadratic
    costs, the soft threshold of x0 at kappa for identity-covariance lasso."""
    prob = cfg["problem"]
    if prob["kind"] == "quadratic":
        return np.mean(np.asarray(prob["targets"], dtype=float), axis=0)
    if prob.get("covariances") != "identity":
        raise ValueError("the lasso closed form needs identity covariances")
    x0 = np.asarray(prob["x0"], dtype=float)
    return np.sign(x0) * np.maximum(np.abs(x0) - prob["kappa"], 0.0)


def work_size(cfg):
    """(reps, horizon, n_nodes, dim, check_stride) of a config dict."""
    run = cfg["run"]
    prob = cfg["problem"]
    if prob["kind"] == "quadratic":
        n_nodes, dim = np.shape(prob["targets"])
    else:
        n_nodes, dim = prob["n_nodes"], len(prob["x0"])
    return run["reps"], run["horizon"], int(n_nodes), int(dim), run["check_stride"]
