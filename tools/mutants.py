"""Mutation checks: whether the tests catch a named fault in the library.

Usage (from the repository root):

    python3 tools/mutants.py [--clean] [NAME ...]

Each mutant below is a set of exact-text replacements in one file under
``src/subgradnet/`` and a pytest selection.  For each mutant named on the
command line (all of them by default) the script copies ``src/``,
``tests/`` and ``configs/`` to a temporary directory, applies the
replacements there, runs the selection with ``python3 -m pytest`` and prints
one line: ``killed`` with the tests that failed, ``killed (timed out)`` when
the selection ran past ``TIMEOUT_S``, or ``survived``.  The working tree is
never edited.  An old text that does not occur exactly once in its file is
an error, reported before anything runs, so the list stays current as the
code moves; so is a mutated file that does not compile, which every test
would fail for the wrong reason.  The script exits 1 if a mutant survived.
With ``--clean`` it runs each selection on the unmutated file instead, where
every one must survive, in under a minute; the whole list takes a few
minutes.
"""

import argparse
import os
import shutil
import signal
import subprocess
import sys
import tempfile
from collections import namedtuple

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TIMEOUT_S = 60.0

Mutant = namedtuple("Mutant", "name path edits selection")

SETUP = "tests/test_setup_fork.py"
DRAWS = "tests/test_draw_producer.py"

MUTANTS = [
    # The fork protocol (forked.py) and its callers.
    Mutant("no-kill", "forked.py",
           [("        os.kill(self._pid, signal.SIGKILL)\n", "")],
           [SETUP, DRAWS, "-k", "hung"]),
    Mutant("no-setup-first", "experiment.py",
           [("                setup.result()\n                raise\n",
             "                raise\n")],
           [SETUP, "-k", "setup_error_wins"]),
    Mutant("no-warning-reissue", "forked.py",
           [("        _reissue(shown)\n", "")],
           [SETUP, DRAWS, "-k", "warning"]),
    Mutant("no-in-line-fallback", "forked.py",
           [("        return self._fn(*self._args)\n", "        return None\n")],
           [SETUP]),
    Mutant("no-fallback-when-fork-fails", "forked.py",
           [("        with contextlib.suppress(OSError):  # no process to be had\n"
             "            return Child(work)\n",
             "        return Child(work)\n")],
           [SETUP, DRAWS, "-k", "no_process_can_be_forked"]),
    Mutant("fixed-20-s-wait", "forked.py",
           [("deadline = now + max(now - since, _MIN_WAIT_S)",
             "deadline = now + 20.0")],
           [SETUP, "-k", "a_hung_child"]),
    Mutant("cut-message-counts", "forked.py",
           [("            if left <= 0 or not self._poller.poll(left * 1000):\n"
             "                return None\n",
             "            if left <= 0 or not self._poller.poll(left * 1000):\n"
             "                return data\n")],
           ["tests/test_forked.py"]),
    Mutant("package-error-rerun", "forked.py",
           [("        if error is not None:\n            raise error\n"
             "        return True, result\n",
             "        if error is not None:\n            return False, None\n"
             "        return True, result\n")],
           [SETUP, "tests/test_engine.py", "tests/test_forked.py",
            "-k", "only_in_the_child or raised_from_the_worker or package_error"]),
    Mutant("every-error-travels", "forked.py",
           [("            except SubgradNetError as exc:\n",
             "            except Exception as exc:\n")],
           ["tests/test_forked.py"]),
    Mutant("no-thread-check", "forked.py",
           [("    return (_FORKS and threading.active_count() == 1\n",
             "    return (_FORKS\n")],
           [SETUP, DRAWS, "-k", "thread"]),
    Mutant("no-cpu-check", "forked.py",
           [("    return (_FORKS and threading.active_count() == 1\n"
             "            and len(os.sched_getaffinity(0)) > workers)\n",
             "    return _FORKS and threading.active_count() == 1\n")],
           [SETUP, DRAWS, "-k", "cpu"]),
    # The draw producer's slots (engine.py).
    Mutant("no-replay", "engine.py",
           [("                for k0, s in self.spans[:j]:\n"
             "                    self.fill(self.slots[0], k0, s)\n",
             "                pass\n")],
           [SETUP, DRAWS, "-k", "lost_producer or both_children"]),
    Mutant("slot-freed-before-stepped", "engine.py",
           [("= draws.take(j)\n", "= draws.take(j)\n            draws.release(j)\n"),
            ("            draws.release(j)\n            if keep_psi:\n",
             "            if keep_psi:\n")],
           [DRAWS, "-k", "slow"]),
    Mutant("in-line-sized-for-two-slots", "engine.py",
           [("_sub_span(*shape, 1 + fork)", "_sub_span(*shape, 2)")],
           ["tests/test_sub_spans.py", "-k", "in_line_batch"]),
    # The laws of the draws.
    Mutant("z-scale-one", "engine.py",
           [("self.z_scale = 1.0 / np.sqrt(dim)", "self.z_scale = 1.0")],
           ["tests/test_engine.py"]),
    Mutant("first-graph-key-for-all", "engine.py",
           [("(np.stack(graph_keys), comm_gen, grad_gen)",
             "(np.stack(graph_keys[:1] * reps), comm_gen, grad_gen)")],
           ["tests/test_engine.py"]),
    Mutant("less-equal-activation", "graphs.py",
           [("np.less(out, self.prob, out=out)", "np.less_equal(out, self.prob, out=out)"),
            ("active = np.less(out, self.prob)", "active = np.less_equal(out, self.prob)")],
           ["tests/test_graphs.py"]),
    Mutant("gains-one-step-late", "engine.py",
           [("schedule.alpha(step_ks), schedule.c(step_ks)",
             "schedule.alpha(step_ks + 1), schedule.c(step_ks + 1)")],
           ["tests/test_engine.py"]),
    # The Monte Carlo workers (engine.monte_carlo and forked.call).
    Mutant("lost-batch-dropped", "forked.py",
           [("            if done:\n                return result\n",
             "            return result\n")],
           ["tests/test_engine.py", "-k", "Lost"]),
    Mutant("worker-warnings-dropped", "engine.py",
           [("forked.call(batch, p, workers=0)", "forked.call(_quiet, batch, p, workers=0)"),
            ("def _first_divergence(errors):\n",
             "def _quiet(fn, *args):\n"
             "    with warnings.catch_warnings():\n"
             "        warnings.simplefilter('ignore')\n"
             "        return fn(*args)\n\n\n"
             "def _first_divergence(errors):\n")],
           ["tests/test_engine.py", "-k", "warnings"]),
    # The recursion check and the bound monitors (engine.py).
    Mutant("recursion-gap-drops-noise", "engine.py",
           [("    noise_in = c_k * noise\n", "    noise_in = 0.0 * noise\n")],
           ["tests/test_engine.py", "-k", "Recursion or monitors"]),
    Mutant("recursion-gap-vacuous", "engine.py",
           [("    return np.sqrt((gap * gap).sum(axis=(-2, -1)))\n",
             "    return 0.0 * np.sqrt((gap * gap).sum(axis=(-2, -1)))\n")],
           ["tests/test_engine.py", "-k", "Recursion or monitors"]),
    Mutant("recursion-check-never-runs", "engine.py",
           [("        if check_stride and k % check_stride == 0:\n", "        if False:\n")],
           ["tests/test_engine.py", "tests/test_experiment.py", "-k", "Recursion or monitors"]),
    Mutant("psi-bound-doubled", "engine.py",
           [("psi_bound = 4.0 * model.sigma", "psi_bound = 8.0 * model.sigma")],
           ["tests/test_engine.py", "-k", "monitors"]),
    Mutant("psi-bound-squares-b-by-pow", "engine.py",
           [("2.0 * model.b * model.b", "2.0 * model.b ** 2")],
           ["tests/test_engine.py", "-k", "minus_b_squared"]),
    Mutant("d-bound-doubled", "engine.py",
           [("d_bound = 2.0 * sd_sq * s_sq", "d_bound = 4.0 * sd_sq * s_sq")],
           ["tests/test_engine.py", "-k", "monitors"]),
    Mutant("monitors-skip-a-sub-span-end", "engine.py",
           [("(psi_max ** 2 - psi_bound).max(axis=0)",
             "(psi_max ** 2 - psi_bound)[:-1].max(axis=0)")],
           ["tests/test_engine.py", "-k", "monitors"]),
    # The connectivity report (graphs.py) and the C1-C5 verifier (stepsize.py).
    Mutant("norm-moment-of-order-2h", "graphs.py",
           [("    q = 2 * max(h, 2)\n", "    q = 2 * h\n")],
           ["tests/test_graphs.py"]),
    Mutant("lambda2-of-the-unsymmetrized-sum", "graphs.py",
           [("np.swapaxes(symmetrized_laplacian(laps), 0, 1)", "np.swapaxes(laps, 0, 1)")],
           ["tests/test_graphs.py"]),
    Mutant("window-mean-over-steps-too", "graphs.py",
           [("/ block.shape[0], tol=1e-8)", "/ steps.shape[0], tol=1e-8)")],
           ["tests/test_graphs.py"]),
    Mutant("edge-moment-by-mean-weight", "graphs.py",
           [("np.max(block * block, axis=(-2, -1))", "np.mean(block * block, axis=(-2, -1))")],
           ["tests/test_graphs.py"]),
    Mutant("c1-ratio-unbounded", "stepsize.py",
           [("             and ratio_max <= _C1_RATIO_BOUND)\n", "             )\n")],
           ["tests/test_stepsize.py"]),
    Mutant("c2-no-drop-required", "stepsize.py",
           [("c2_ok = r_drop < _C2_DECAY_FACTOR and", "c2_ok =")],
           ["tests/test_stepsize.py"]),
    Mutant("block-edge-not-compared", "stepsize.py",
           [("            a_decreasing = a_decreasing and bool(a_last > a[0])\n", "")],
           ["tests/test_stepsize.py"]),
    Mutant("c3-tail-bound-without-1/C", "stepsize.py",
           [("- C * S_at[dec] - math.log(C)", "- C * S_at[dec]")],
           ["tests/test_stepsize.py"]),
    # The compensated prefix sum that C1-C5 and log_beta read (stepsize.py).
    Mutant("prefix-sum-drops-carried-compensation", "stepsize.py",
           [("        err[0] += comp\n", "")],
           ["tests/test_stepsize.py"]),
    Mutant("two-sum-other-branch", "stepsize.py",
           [("np.abs(prev) >= np.abs(v)", "np.abs(prev) < np.abs(v)")],
           ["tests/test_stepsize.py"]),
    Mutant("log-beta-pick-off-by-one", "stepsize.py",
           [("block[steps[i0:i1] - ks[0]]", "block[steps[i0:i1] - ks[0] - 1]")],
           ["tests/test_stepsize.py"]),
    # The record search (engine.py) and the checks of what a run is given.
    Mutant("record-search-misses-sub-span-end", "engine.py",
           [("np.searchsorted(record_ks, (k0, k0 + count))",
             "np.searchsorted(record_ks, (k0, k0 + count - 1))")],
           ["tests/test_chunked_observation.py", "tests/test_sub_spans.py"]),
    Mutant("record-steps-may-repeat", "engine.py",
           [("np.all(record_ks[1:] > record_ks[:-1])", "np.all(record_ks[1:] >= record_ks[:-1])")],
           ["tests/test_engine.py", "-k", "record"]),
    Mutant("c-decrease-read-at-steps-1-and-2", "config.py",
           [("schedule.c(np.array([0, 1]))", "schedule.c(np.array([1, 2]))")],
           ["tests/test_config.py"]),
    # The Markov chain advance (graphs.py) and the lasso oracle (objectives.py).
    Mutant("chain-stays-at-its-start", "graphs.py",
           [("        s = path[t] = next_state[which, s]\n",
             "        path[t] = next_state[which, s]\n")],
           ["tests/test_graphs.py"]),
    Mutant("lasso-oracle-one-node-penalty", "objectives.py",
           [("thresh = step * self.n_nodes * self.kappa", "thresh = step * self.kappa")],
           ["tests/test_objectives.py"]),
    # The step arithmetic and the exact forms that keep numpy's bits.
    Mutant("kernel-mixes-the-batch-mean", "engine.py",
           [("        subtract(out, multiply(d_plus_zeta, alpha_k, term), out)\n",
             "        subtract(out, multiply(d_plus_zeta, alpha_k, term), out)\n"
             "        out += 1e-12 * out.mean(axis=0)\n")],
           ["tests/test_properties.py", "-k", "per_rep_outputs_do_not_depend_on_batch_grouping"]),
    Mutant("row-sums-copy-the-first-column", "engine.py",
           [("np.add(a[..., 0], 0.0, out=out)", "np.copyto(out, a[..., 0])")],
           ["tests/test_properties.py", "-k", "row_sums"]),
    Mutant("psi-maxima-by-fmax", "engine.py",
           [("np.maximum(out, col, out=out)", "np.fmax(out, col, out=out)")],
           ["tests/test_properties.py", "-k", "column_maxima"]),
    Mutant("lasso-minus-zero", "objectives.py",
           [("_PLUS_ZERO = np.zeros(())", "_PLUS_ZERO = np.array(-0.0)")],
           ["tests/test_properties.py", "-k", "lasso"]),
    Mutant("cycle-starts-uniform", "graphs.py",
           [("initial=np.eye(1, m)[0]", "initial=np.full(m, 1.0 / m)")],
           ["tests/test_properties.py", "tests/test_engine.py", "-k", "cycle"]),
]


def mutated(mutant):
    """The text of the mutant's file with its replacements applied; raises
    ValueError when an old text does not occur exactly once or the result
    does not compile."""
    with open(os.path.join(ROOT, "src", "subgradnet", mutant.path), encoding="utf-8") as fh:
        text = fh.read()
    for old, new in mutant.edits:
        count = text.count(old)
        if count != 1:
            raise ValueError(f"{mutant.name}: old text occurs {count} times in "
                             f"{mutant.path}: {old!r}")
        text = text.replace(old, new)
    try:
        compile(text, mutant.path, "exec")
    except SyntaxError as exc:
        raise ValueError(f"{mutant.name}: the mutated {mutant.path} does not compile: "
                         f"{exc}") from None
    return text


def run(mutant, text):
    """``killed ...`` or ``survived``: the selection's verdict on ``text`` in
    a copy of the tree."""
    with tempfile.TemporaryDirectory(prefix="mutant-") as tree:
        for name in ("src", "tests", "configs"):
            shutil.copytree(os.path.join(ROOT, name), os.path.join(tree, name),
                            ignore=shutil.ignore_patterns("__pycache__"))
        with open(os.path.join(tree, "src", "subgradnet", mutant.path), "w",
                  encoding="utf-8") as fh:
            fh.write(text)
        env = dict(os.environ, PYTHONPATH=os.path.join(tree, "src"), PYTHONDONTWRITEBYTECODE="1")
        # A session of its own, so that every process the tests fork is
        # killed with it.
        proc = subprocess.Popen(
            [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "-rf",
             *mutant.selection], cwd=tree, env=env, stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT, text=True, start_new_session=True)
        try:
            out = proc.communicate(timeout=TIMEOUT_S)[0]
        except subprocess.TimeoutExpired:
            out = None
        finally:
            try:
                os.killpg(proc.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
            proc.wait()
    if out is None:
        return "killed (timed out)"
    if proc.returncode == 0:
        return "survived"
    failed = [line[len("FAILED "):].split(" - ")[0] for line in out.splitlines()
              if line.startswith("FAILED ")]
    if not failed:
        return f"killed (pytest exit {proc.returncode})"
    return f"killed by {len(failed)}: " + ", ".join(name.split("::", 1)[1] for name in failed)


def main(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("names", nargs="*", metavar="NAME",
                        help="mutants to run (default: all): "
                             + ", ".join(m.name for m in MUTANTS))
    parser.add_argument("--clean", action="store_true",
                        help="run each selection on the unmutated tree")
    args = parser.parse_args(argv)
    by_name = {m.name: m for m in MUTANTS}
    unknown = [name for name in args.names if name not in by_name]
    if unknown:
        parser.error(f"unknown mutant(s): {', '.join(unknown)}")
    chosen = [by_name[name] for name in args.names] or MUTANTS
    try:
        texts = [mutated(m) for m in chosen]
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.clean:
        texts = [mutated(m._replace(edits=[])) for m in chosen]
    survived = 0
    for mutant, text in zip(chosen, texts):
        verdict = run(mutant, text)
        survived += verdict == "survived"
        print(f"{mutant.name}: {verdict}", flush=True)
    if args.clean:
        return 0 if survived == len(chosen) else 1
    return 1 if survived else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
