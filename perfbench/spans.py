"""Spans recorded around calls into the subgradnet layers.

The benchmark does not change the library: for the length of one run it
replaces public functions and methods at each layer boundary with wrappers
that record a span (name, start, end, parent) and put the originals back
afterwards.  Spans stay in memory until the run ends.  A span's self time is
its duration minus the durations of its direct children; calls are
synchronous and single-threaded, so children never overlap.
"""

import time

import numpy as np

NAME, START, END, PARENT, ARGS = range(5)


class Tracer:
    """Records spans for the wrapped callables while installed."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self._undo = []

    def wrap(self, owner, attr, name, keep_args=None):
        """Replace ``owner.attr`` with a recording wrapper.

        ``keep_args(args)`` picks the call arguments a metric needs; its
        result is stored with the span.
        """
        original = getattr(owner, attr)
        spans, stack = self.spans, self._stack

        def wrapper(*args, **kwargs):
            span = [name, time.perf_counter(), None,
                    stack[-1] if stack else -1,
                    keep_args(args) if keep_args else None]
            stack.append(len(spans))
            spans.append(span)
            try:
                return original(*args, **kwargs)
            finally:
                span[END] = time.perf_counter()
                stack.pop()

        setattr(owner, attr, wrapper)
        self._undo.append((owner, attr, original))

    def uninstall(self):
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()


def stamp_monte_carlo(tracer):
    """The only wrapper in a timed run: the entry and exit of the single Monte
    Carlo call, which split setup from simulation."""
    from subgradnet import experiment
    tracer.wrap(experiment, "monte_carlo", "engine.monte_carlo")


def trace_layers(tracer):
    """Wrap every layer boundary the per-layer metrics need."""
    from subgradnet import cli, config, experiment, graphs, noise, objectives, stepsize
    tracer.wrap(config, "load_config", "config.load_config")
    tracer.wrap(config, "validate_config", "config.validate_config")
    tracer.wrap(cli, "run_experiment", "experiment.run_experiment")
    tracer.wrap(experiment, "estimate_constants", "experiment.estimate_constants")
    tracer.wrap(experiment, "joint_connectivity_report", "graphs.connectivity_report")
    tracer.wrap(experiment, "global_optimum", "objectives.global_optimum")
    tracer.wrap(experiment, "verify_conditions", "stepsize.verify_conditions")
    stamp_monte_carlo(tracer)
    for cls in (graphs.IndependentEdges, graphs.MarkovSwitching, graphs.DeterministicCycle):
        # (self, stream, k_start, count, ...)
        tracer.wrap(cls, "sample_block", "graphs.sample_block",
                    keep_args=lambda a: (int(a[2]), int(a[3])))
    for cls in (objectives.QuadraticObjective, objectives.LassoProblem):
        tracer.wrap(cls, "subgradient_stack", "objectives.subgradient_stack")
        tracer.wrap(cls, "total_cost", "objectives.total_cost")
    tracer.wrap(objectives.LassoProblem, "zeta_from_draws", "objectives.zeta_from_draws")
    tracer.wrap(noise.CommNoiseModel, "psi_values", "noise.psi_values")
    scalar = lambda a: np.ndim(a[1]) == 0  # (self, k)
    tracer.wrap(stepsize.StepSchedule, "alpha", "stepsize.alpha", keep_args=scalar)
    tracer.wrap(stepsize.StepSchedule, "c", "stepsize.c", keep_args=scalar)
    tracer.wrap(stepsize.StepSchedule, "log_beta", "stepsize.log_beta")


def write_spans(spans, path):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("id,name,start,end,parent\n")
        for i, s in enumerate(spans):
            fh.write(f"{i},{s[NAME]},{s[START]!r},{s[END]!r},{s[PARENT]}\n")


def layer_metrics(spans, wall_s, size, chunk, engine_chunk, output_bytes):
    """Per-layer metrics of one traced run.

    ``size`` is (reps, horizon, n_nodes, dim, check_stride); ``chunk`` is the
    graph draw block length and ``engine_chunk`` the steps per engine noise
    block.  Counts marked computed follow from the config alone and repeat
    exactly.
    """
    reps, horizon, n_nodes, dim, check_stride = size
    steps, rep_steps = max(horizon, 1), max(reps * horizon, 1)
    dur = [s[END] - s[START] for s in spans]
    by_name = {}
    child_time = [0.0] * len(spans)
    in_mc = [False] * len(spans)
    for i, s in enumerate(spans):
        by_name.setdefault(s[NAME], []).append(i)
        p = s[PARENT]
        if p >= 0:
            child_time[p] += dur[i]
            in_mc[i] = in_mc[p] or spans[p][NAME] == "engine.monte_carlo"

    def pick(name, where=None):
        return [i for i in by_name.get(name, ()) if where is None or in_mc[i] == where]

    def total(name, where=None):
        return sum((dur[i] for i in pick(name, where)), 0.0)

    def self_time(name):
        return sum(dur[i] - child_time[i] for i in pick(name))

    def use_ratio(where):
        used = drawn = 0
        for i in pick("graphs.sample_block", where):
            k0, count = spans[i][ARGS]
            used += count
            if count:
                drawn += ((k0 + count - 1) // chunk - k0 // chunk + 1) * chunk
        return used / drawn if drawn else 1.0  # nothing drawn, nothing wasted

    gains = [i for name in ("stepsize.alpha", "stepsize.c") for i in pick(name)
             if spans[i][ARGS]]
    top = sum(dur[i] for i, s in enumerate(spans) if s[PARENT] < 0)
    validate_outside_load = sum(
        dur[i] for i in pick("config.validate_config")
        if spans[i][PARENT] < 0 or spans[spans[i][PARENT]][NAME] != "config.load_config")
    us = 1e6
    return {
        "config.load_s": (total("config.load_config"), "s"),
        "config.validate_s": (validate_outside_load, "s"),
        "objectives.optimum_s": (total("objectives.global_optimum"), "s"),
        "objectives.subgradient_us_per_step":
            (us * total("objectives.subgradient_stack", True) / steps, "us"),
        "objectives.zeta_us_per_step":
            (us * total("objectives.zeta_from_draws", True) / steps, "us"),
        "objectives.total_cost_us_per_record":
            (us * total("objectives.total_cost", True)
             / max(len(pick("objectives.total_cost", True)), 1), "us"),
        "graphs.connectivity_report_s": (total("graphs.connectivity_report"), "s"),
        "graphs.sample_block_setup_s": (total("graphs.sample_block", False), "s"),
        "graphs.sample_block_us_per_step_rep":
            (us * total("graphs.sample_block", True) / rep_steps, "us"),
        "graphs.sample_block_calls": (len(pick("graphs.sample_block")), "count"),
        "graphs.draw_use_ratio": (use_ratio(None), "ratio"),
        "graphs.report_draw_use_ratio": (use_ratio(False), "ratio"),
        "noise.psi_us_per_step": (us * total("noise.psi_values", True) / steps, "us"),
        "noise.channel_doubles": (reps * horizon * n_nodes ** 2 * dim, "count"),
        "stepsize.verify_s": (total("stepsize.verify_conditions"), "s"),
        "stepsize.gain_calls": (len(gains), "count"),
        "stepsize.gain_us_per_step": (us * sum(dur[i] for i in gains) / steps, "us"),
        "stepsize.log_beta_s": (total("stepsize.log_beta"), "s"),
        "engine.monte_carlo_s": (total("engine.monte_carlo"), "s"),
        "engine.self_us_per_step_rep":
            (us * self_time("engine.monte_carlo") / rep_steps, "us"),
        "engine.xi_chunk_mb": (reps * min(engine_chunk, horizon) * n_nodes ** 2 * dim * 8 / 1e6, "MB"),
        "engine.recursion_checks":
            (reps * (-(-horizon // check_stride) if check_stride else 0), "count"),
        "experiment.estimate_constants_s": (total("experiment.estimate_constants"), "s"),
        "experiment.self_s": (self_time("experiment.run_experiment"), "s"),
        "experiment.output_bytes": (output_bytes, "bytes"),
        "trace.top_level_share": (top / wall_s, "ratio"),
    }
