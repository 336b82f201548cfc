"""Step-size schedule values, compensated sums, and condition verdicts."""

import math
import os
import subprocess
import sys
import warnings

import mpmath
import numpy as np
import pytest

from oracles import (neumaier_cumsum_loop, neumaier_cumsum_whole, schedule_alpha_expr,
                     schedule_c_expr, verify_conditions_full)
from subgradnet import FAILS, HOLDS, StepSchedule, verify_conditions
from subgradnet.stepsize import _PREFIX_BLOCK, _prefix_blocks, _sorted_distinct


def _src_env():
    """The environment with the package source first on PYTHONPATH."""
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))


def walked(values):
    """Running sums of ``values`` from the library's block walk over the
    horizon, which reads them through a lookup."""
    values = np.asarray(values, dtype=float)
    sums = [S for _, _, S in _prefix_blocks(lambda ks: values[ks], values.size - 1)]
    return np.concatenate(sums) if sums else np.empty(0)


def mp_alpha(k, alpha1=1.0, tau1=1.0):
    with mpmath.workdps(50):
        k = mpmath.mpf(k)
        return alpha1 / ((k + 3) * mpmath.log(k + 3) ** tau1)


def mp_c(k, alpha2=1.0, tau2=0.75, tau3=1.0):
    with mpmath.workdps(50):
        k = mpmath.mpf(k)
        return alpha2 / ((k + 3) ** tau2 * mpmath.log(k + 3) ** tau3)


class TestScheduleValues:
    def test_alpha_at_zero_matches_50_digit_oracle(self):
        sched = StepSchedule()
        assert sched.alpha(0) == pytest.approx(float(mp_alpha(0)), rel=1e-12)
        assert sched.alpha(0) == pytest.approx(0.30341308, abs=1e-8)

    def test_alpha_tends_to_zero(self):
        sched = StepSchedule()
        assert sched.alpha(10 ** 9) < 1e-8

    def test_alpha_scales_linearly_in_alpha1(self):
        one = StepSchedule(alpha1=1.0)
        two = StepSchedule(alpha1=2.0)
        ks = np.arange(0, 1000)
        assert np.array_equal(two.alpha(ks), 2.0 * one.alpha(ks))

    def test_c_at_zero_matches_50_digit_oracle(self):
        sched = StepSchedule()
        assert sched.c(0) == pytest.approx(float(mp_c(0)), rel=1e-12)
        assert sched.c(0) == pytest.approx(0.399314, abs=1e-6)

    def test_c_scales_linearly_in_alpha2(self):
        one = StepSchedule(alpha2=1.0)
        three = StepSchedule(alpha2=3.0)
        ks = np.arange(0, 1000)
        assert np.allclose(three.c(ks), 3.0 * one.c(ks), rtol=1e-15)

    def test_c_ratio_tends_to_one(self):
        sched = StepSchedule()
        ratio = sched.c(10 ** 6) / sched.c(10 ** 6 + 1)
        assert 1.0 < ratio < 1.0 + 1e-5

    def test_monotone_decrease_exhaustive(self):
        sched = StepSchedule()
        ks = np.arange(0, 100_001)
        assert np.all(np.diff(sched.alpha(ks)) < 0)
        assert np.all(np.diff(sched.c(ks)) < 0)

    @pytest.mark.parametrize("kwargs,name", [
        ({"alpha1": 0.0}, "alpha1"),
        ({"tau1": 0.0}, "tau1"),
        ({"tau1": 1.2}, "tau1"),
        ({"alpha2": -1.0}, "alpha2"),
        ({"tau2": 0.4}, "tau2"),
        ({"tau2": 1.0}, "tau2"),
        ({"tau3": 1.5}, "tau3"),
    ])
    def test_parameter_domains_enforced(self, kwargs, name):
        with pytest.raises(ValueError, match=name):
            StepSchedule(**kwargs)


# The shipped schedule, tau1 on and off numpy's fast scalar-power paths, and
# tau3 at and below zero.
_GAIN_SCHEDULES = [
    StepSchedule(),
    StepSchedule(alpha1=0.7, tau1=0.5, alpha2=1.3, tau2=0.6, tau3=0.0),
    StepSchedule(alpha1=2.0, tau1=0.3, alpha2=0.9, tau2=0.99, tau3=-1.0),
    StepSchedule(alpha1=1.0, tau1=0.999, alpha2=1.0, tau2=0.51, tau3=-0.5),
]


class TestGainsInPlace:
    """alpha and c equal their expression forms on new arrays bit for bit."""

    @pytest.mark.parametrize("sched", _GAIN_SCHEDULES, ids=range(len(_GAIN_SCHEDULES)))
    def test_arrays_equal_expression(self, sched):
        for ks in (np.arange(3_000_001), np.arange(16_384, 40_000, 7),
                   np.array([[0, 1], [10 ** 6, 10 ** 9]])):
            for fn, oracle in ((sched.alpha, schedule_alpha_expr),
                               (sched.c, schedule_c_expr)):
                got, want = fn(ks), oracle(sched, ks)
                assert got.dtype == want.dtype and got.shape == want.shape
                assert np.array_equal(got, want)

    @pytest.mark.parametrize("sched", _GAIN_SCHEDULES, ids=range(len(_GAIN_SCHEDULES)))
    def test_scalars_equal_expression(self, sched):
        for k in (0, 5, 999_999, np.int64(7), np.int64(3_000_000), 12.0):
            for fn, oracle in ((sched.alpha, schedule_alpha_expr),
                               (sched.c, schedule_c_expr)):
                got, want = fn(k), oracle(sched, k)
                assert type(got) is float and got == want, (k, got, want)

    def test_float_input_is_not_modified(self):
        ks = np.arange(100, dtype=float)
        StepSchedule().alpha(ks)
        StepSchedule().c(ks)
        assert np.array_equal(ks, np.arange(100, dtype=float))


class TestPartialSumsAndBeta:
    def test_kahan_matches_fsum(self):
        rng = np.random.default_rng(0)
        vals = rng.random(20_000) * 1e-3
        prefix = walked(vals)
        for idx in (0, 17, 4095, 4096, 19_999):
            exact = math.fsum(vals[: idx + 1])
            assert prefix[idx] == pytest.approx(exact, rel=1e-15)

    def test_exp_log_beta_single_term_and_degenerate_constant(self):
        sched = StepSchedule()
        assert math.exp(sched.log_beta(0, 2.5)) == pytest.approx(
            math.exp(2.5 * sched.alpha(0)), rel=1e-15)
        assert math.exp(sched.log_beta(10, 1e-12)) == pytest.approx(1.0, abs=1e-9)

    def test_exp_log_beta_at_100_matches_50_digit_summation(self):
        sched = StepSchedule()
        with mpmath.workdps(50):
            exact = mpmath.exp(mpmath.fsum(mp_alpha(t) for t in range(101)))
        assert math.exp(sched.log_beta(100, 1.0)) == pytest.approx(float(exact), rel=1e-10)

    @pytest.mark.parametrize("k", [
        np.array([0, 5, 50, 500]),
        np.array([2 * _PREFIX_BLOCK + 1, 0, _PREFIX_BLOCK, _PREFIX_BLOCK - 1, 7]),
        np.array([_PREFIX_BLOCK, 3, _PREFIX_BLOCK, 3, 2 * _PREFIX_BLOCK, _PREFIX_BLOCK]),
        np.array(_PREFIX_BLOCK), np.array(2 * _PREFIX_BLOCK + 1), 0,
        np.array([[2 * _PREFIX_BLOCK + 1, 5, _PREFIX_BLOCK],
                  [_PREFIX_BLOCK - 1, 5, 2 * _PREFIX_BLOCK]]),
        np.arange(2 * _PREFIX_BLOCK + 2)[::-1].reshape(2, -1),
    ], ids=["sorted", "unsorted", "repeated", "0-d", "0-d-third-block", "int",
            "2-d", "2-d-reversed"])
    def test_log_beta_is_exactly_c0_times_prefix(self, k):
        # log_beta picks S at its steps block by block as the walk passes them;
        # the sums must be the sequential loop's, in the shape and order of k.
        sched = StepSchedule(tau1=0.8, tau3=-0.4)
        prefix = neumaier_cumsum_loop(sched.alpha(np.arange(2 * _PREFIX_BLOCK + 2)))
        got, want = sched.log_beta(k, 7.0), 7.0 * prefix[np.asarray(k)]
        assert np.shape(got) == np.shape(want) and np.array_equal(got, want)
        assert isinstance(got, float) == (np.ndim(k) == 0)

    def test_log_beta_of_no_steps_is_empty(self):
        assert StepSchedule().log_beta(np.zeros((0, 3), dtype=int), 2.0).shape == (0, 3)

    @pytest.mark.parametrize("C0", [0.0, -1.0, math.nan, math.inf, -math.inf])
    def test_log_beta_rejects_a_constant_outside_zero_to_infinity(self, C0):
        # As verify_conditions rejects it: nan and inf used to come back as
        # nan and inf envelopes.
        with pytest.raises(ValueError, match=r"^C0 must be positive and finite"):
            StepSchedule().log_beta(np.array([0, 5]), C0)

    @pytest.mark.parametrize("k, named", [(np.array([-1, 5]), "-1"), (-3, "-3"),
                                          (2.5, "2.5"), (np.array([0.0, 4.0]), "0.0")],
                             ids=["negative-in-array", "negative", "float", "float-array"])
    def test_log_beta_rejects_negative_and_non_integer_steps(self, k, named):
        # A negative step used to wrap to the end of the prefix sums, and a
        # float one to raise numpy's bare IndexError.
        with pytest.raises(ValueError, match=rf"non-negative integer steps, got {named}$"):
            StepSchedule().log_beta(k, 2.0)

    def test_beta_monotone_in_k_and_c0(self):
        sched = StepSchedule()
        ks = np.arange(0, 2000)
        lb = sched.log_beta(ks, 3.0)
        assert np.all(np.diff(lb) > 0)
        assert np.all(sched.log_beta(ks, 4.0) > lb)


class TestVerifyConditions:
    def test_shipped_family_passes_all_five(self):
        # The C2 drop threshold is calibrated at horizon 1e6.
        sched = StepSchedule()
        report = verify_conditions(sched.alpha, sched.c, 1.0, 1_000_000)
        assert report.all_hold
        assert [line.split(":")[1].strip() for line in report.lines()] == [HOLDS] * 5

    def test_divergent_squares_fail_c1_and_c2(self):
        slow = lambda k: (np.asarray(k, dtype=float) + 1.0) ** -0.4
        report = verify_conditions(slow, slow, 1.0, 100_000)
        assert report.checks["C1"].verdict == FAILS
        assert report.checks["C2"].verdict == FAILS

    def test_a_twentyfold_drop_in_c_fails_only_c1s_ratio_bound(self):
        sched = StepSchedule()

        def dropping(k):
            k = np.asarray(k)
            return sched.c(k) / np.where(k < 500, 1.0, 20.0)

        report = verify_conditions(sched.alpha, dropping, 1.0, 100_000)
        c1 = report.checks["C1"]
        assert c1.verdict == FAILS
        assert c1.details["c_ratio_max"] == pytest.approx(20.0, rel=0.01)
        assert c1.details["c_decreasing"] and c1.details["alpha_decreasing"]
        assert verify_conditions(sched.alpha, sched.c, 1.0, 100_000).checks["C1"].verdict == HOLDS

    def test_consensus_gain_equal_to_descent_gain_fails_c4(self):
        sched = StepSchedule()
        report = verify_conditions(sched.alpha, sched.alpha, 1.0, 100_000)
        assert report.checks["C4"].verdict == FAILS
        assert report.checks["C4"].details["poly_exponent"] <= 0.02

    def test_increasing_schedule_rejected(self):
        growing = lambda k: np.asarray(k, dtype=float) + 1.0
        report = verify_conditions(growing, growing, 1.0, 10_000)
        assert report.checks["C1"].verdict == FAILS

    def test_nonpositive_values_raise(self):
        bad = lambda k: np.zeros_like(np.asarray(k, dtype=float))
        with pytest.raises(ValueError):
            verify_conditions(bad, bad, 1.0, 10_000)

    def test_short_horizon_rejected(self):
        sched = StepSchedule()
        with pytest.raises(ValueError):
            verify_conditions(sched.alpha, sched.c, 1.0, 500)


class TestKahanEdgeCases:
    def test_empty_and_singleton(self):
        assert walked([]).shape == (0,)
        assert walked([2.5]).tolist() == [2.5]

    def test_pathological_cancellation(self):
        vals = [1e16, 1.0, -1e16, 1.0]
        prefix = walked(vals)
        assert prefix[-1] == pytest.approx(math.fsum(vals), abs=0.0)


def _block_edges(size):
    """Lengths on either side of one and two ``size``-step blocks."""
    return [size - 1, size, size + 1, 2 * size + 3]


class TestVectorisedNeumaierPrefix:
    """The blockwise prefix sum is bit-identical to the sequential loop."""

    @pytest.mark.parametrize("n", [0, 1, 2, *_block_edges(_PREFIX_BLOCK),
                                   *_block_edges(4 * _PREFIX_BLOCK)])
    def test_matches_loop_across_block_boundaries(self, n):
        rng = np.random.default_rng(n)
        vals = rng.normal(size=n) * 10.0 ** rng.uniform(-10, 10, size=n)
        want = neumaier_cumsum_loop(vals)
        assert np.array_equal(walked(vals), want)
        # The whole-array reference that verify_conditions_full sums with.
        assert np.array_equal(neumaier_cumsum_whole(vals), want)

    def test_matches_loop_on_alpha_at_one_million(self):
        sched = StepSchedule()
        ks = np.arange(1_000_000)
        expected = neumaier_cumsum_loop(sched.alpha(ks))
        assert np.array_equal(sched.log_beta(ks, 1.0), expected)

    def test_cancellation_matches_loop(self):
        vals = [1e16, 1.0, -1e16, 1.0]
        assert np.array_equal(walked(vals), neumaier_cumsum_loop(vals))
        assert walked(vals)[-1] == 2.0

    def test_walk_starts_at_step_zero_and_ends_at_the_horizon(self):
        blocks = [ks for ks, _, _ in _prefix_blocks(StepSchedule().alpha, 2 * _PREFIX_BLOCK)]
        assert [(int(ks[0]), int(ks[-1])) for ks in blocks] == [
            (0, _PREFIX_BLOCK - 1), (_PREFIX_BLOCK, 2 * _PREFIX_BLOCK - 1),
            (2 * _PREFIX_BLOCK, 2 * _PREFIX_BLOCK)]


def _slow(k):
    return (np.asarray(k, dtype=float) + 1.0) ** -0.4


def _growing(k):
    return np.asarray(k, dtype=float) + 1.0


_SHIPPED = StepSchedule()


def _alpha_up_at_block_edge(k):
    return _SHIPPED.alpha(k) * np.where(np.asarray(k) >= _PREFIX_BLOCK, 2.0, 1.0)


def _c_down_at_block_edge(k):
    return _SHIPPED.c(k) * np.where(np.asarray(k) >= _PREFIX_BLOCK, 0.05, 1.0)


# C0 that the connectivity report estimates for the shipped A1 config.
_A1_C0 = 109.82
_SCHEDULES = {
    "shipped-C1": (_SHIPPED.alpha, _SHIPPED.c, 1.0),
    "shipped-A1-C0": (_SHIPPED.alpha, _SHIPPED.c, _A1_C0),
    "divergent-squares": (_slow, _slow, 1.0),
    "c-equals-alpha": (_SHIPPED.alpha, _SHIPPED.alpha, 1.0),
    "increasing": (_growing, _growing, 1.0),
    # Monotone within each block; only the edge breaks C1's decrease and ratio.
    "jump-at-block-edge": (_alpha_up_at_block_edge, _c_down_at_block_edge, 1.0),
}
# Details that are sums over the whole horizon; the streamed check adds them
# block by block, so they differ from one whole-array sum in the last bits.
_SUMMED = {("C1", "alpha_sq_tail_rel"), ("C1", "c_sq_tail_rel"), ("C3", "partial_sum")}


class TestStreamedVerifier:
    """The block-streamed check agrees with the whole-array reference."""

    @pytest.mark.parametrize("horizon", [1000, *_block_edges(_PREFIX_BLOCK),
                                         *_block_edges(4 * _PREFIX_BLOCK), 1_000_000])
    @pytest.mark.parametrize("name", sorted(_SCHEDULES))
    def test_matches_whole_array_reference(self, name, horizon):
        alpha_fn, c_fn, C = _SCHEDULES[name]
        streamed = verify_conditions(alpha_fn, c_fn, C, horizon)
        reference = verify_conditions_full(alpha_fn, c_fn, C, horizon)
        assert streamed.lines() == reference.lines()
        for cond, chk in reference.checks.items():
            got = streamed.checks[cond].details
            assert got.keys() == chk.details.keys()
            for key, want in chk.details.items():
                if (cond, key) in _SUMMED:
                    assert got[key] == pytest.approx(want, rel=1e-12, abs=0.0)
                else:
                    assert got[key] == want and type(got[key]) is type(want), (cond, key)

    @pytest.mark.parametrize("which,bad_value,message", [
        ("alpha", 0.0, "alpha"), ("c", -1.0, "c"), ("c", np.nan, "c")])
    def test_bad_value_inside_second_block_raises(self, which, bad_value, message):
        bad_k = _PREFIX_BLOCK + 7

        def spoil(fn):
            return lambda k: np.where(np.asarray(k) == bad_k, bad_value, fn(k))

        alpha_fn = spoil(_SHIPPED.alpha) if which == "alpha" else _SHIPPED.alpha
        c_fn = spoil(_SHIPPED.c) if which == "c" else _SHIPPED.c
        with pytest.raises(ValueError, match=rf"^{message}\(k\) must be positive"):
            verify_conditions(alpha_fn, c_fn, 1.0, 3 * _PREFIX_BLOCK)

    @pytest.mark.parametrize("bad_value", [np.inf, np.nan])
    def test_non_finite_alpha_in_a_later_block_raises_without_a_warning(self, bad_value):
        # alpha is checked before it is summed: an infinite value in the
        # compensated sum would first warn of inf - inf.
        bad_k = 2 * _PREFIX_BLOCK + 7
        alpha_fn = lambda k: np.where(np.asarray(k) == bad_k, bad_value, _SHIPPED.alpha(k))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(ValueError, match=r"^alpha\(k\) must be positive and finite"):
                verify_conditions(alpha_fn, _SHIPPED.c, 1.0, 3 * _PREFIX_BLOCK)
        assert [str(w.message) for w in caught] == []

    def test_peak_memory_does_not_grow_with_horizon(self):
        # Bound from arithmetic: the interpreter with numpy and the package takes
        # about 31 MiB, and one block's temporaries and buffers are about a
        # dozen arrays of 16,384 doubles (128 KiB each).  Whole-array checking
        # at this horizon holds about eleven arrays of 80 MB each.
        bound_mb = 100.0
        inner = ("import resource\n"
                 "from subgradnet import StepSchedule, verify_conditions\n"
                 "s = StepSchedule()\n"
                 "verify_conditions(s.alpha, s.c, 1.0, 10_000_000)\n"
                 "print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)\n")
        # A process takes over the peak RSS of the one that started it at exec,
        # so the measured interpreter is started by a small intermediate one.
        outer = ("import subprocess, sys\n"
                 "sys.exit(subprocess.run([sys.executable, '-c', sys.argv[1]]).returncode)\n")
        done = subprocess.run([sys.executable, "-c", outer, inner], env=_src_env(),
                              capture_output=True, text=True, timeout=300, check=True)
        peak_mb = int(done.stdout.split()[-1]) * 1024 / 1e6  # ru_maxrss is in KiB
        assert peak_mb < bound_mb

    def test_envelope_and_validation_memory_does_not_grow_with_horizon(self):
        # Bound from arithmetic, before running: the interpreter with numpy,
        # yaml and the package takes about 35 MB; default_record_ks(1e7)
        # builds a set of about 101,000 ints (a 4 MiB table and 3 MB of int
        # objects) and 0.8 MB arrays; log_beta holds its steps, their order
        # and the picked sums (0.8 MB each) and one block's temporaries
        # (about 2 MB); validation reads c at four steps.  Well under 60 MB.
        # Whole-horizon arrays would take 32 bytes per step for log_beta
        # (320 MB) and 40 bytes per step up to 1e6 for validation (40 MB).
        bound_mb = 60.0
        inner = ("import resource, yaml\n"
                 "from subgradnet import StepSchedule, config_from_dict, default_record_ks\n"
                 "data = yaml.safe_load(open('configs/a1_quadratic.yaml'))\n"
                 "data['run']['horizon'] = 10_000_000\n"
                 "config_from_dict(data)\n"
                 "StepSchedule().log_beta(default_record_ks(10_000_000), 109.82)\n"
                 "print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)\n")
        outer = ("import subprocess, sys\n"
                 "sys.exit(subprocess.run([sys.executable, '-c', sys.argv[1]]).returncode)\n")
        root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        done = subprocess.run([sys.executable, "-c", outer, inner], env=_src_env(), cwd=root,
                              capture_output=True, text=True, timeout=300, check=True)
        peak_mb = int(done.stdout.split()[-1]) * 1024 / 1e6  # ru_maxrss is in KiB
        assert peak_mb < bound_mb

    def test_check_at_one_million_takes_few_page_faults(self):
        # With 512 KiB temporaries made anew in every block, the check at 1e6
        # took about 9,500 minor faults; with 128 KiB temporaries, made anew
        # too, it takes a few hundred.  A fresh interpreter, so that no
        # earlier test has shaped the allocator's heap.
        code = ("import resource\n"
                "from subgradnet import StepSchedule, verify_conditions\n"
                "s = StepSchedule()\n"
                "before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt\n"
                "verify_conditions(s.alpha, s.c, 109.82, 1_000_000)\n"
                "print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)\n")
        done = subprocess.run([sys.executable, "-c", code], env=_src_env(),
                              capture_output=True, text=True, timeout=120, check=True)
        assert int(done.stdout.split()[-1]) < 3000

    @pytest.mark.parametrize("horizon", [1000, 12_345, 1_000_000])
    def test_sorted_distinct_equals_unique(self, horizon):
        for grid in (np.geomspace(1, horizon, 200).astype(int),
                     np.array([horizon, 10, horizon // 2, 10, 3])):
            got, want = _sorted_distinct(grid), np.unique(grid)
            assert got.dtype == want.dtype and np.array_equal(got, want)

    def test_setup_checks_do_not_import_numpy_ma(self):
        # np.unique imports numpy.ma on first use, about 15 ms of every run's
        # setup.  A fresh interpreter, so no earlier test has imported it; it
        # does not import the test oracles, which still call np.unique.  A
        # Monte Carlo run does not load multiprocessing either, with two
        # workers included: its children are forked without it.
        code = ("import sys\n"
                "import numpy as np\n"
                "from subgradnet import (CommNoiseModel, IndependentEdges,\n"
                "                        QuadraticObjective, StepSchedule,\n"
                "                        joint_connectivity_report, monte_carlo,\n"
                "                        verify_conditions)\n"
                "s = StepSchedule()\n"
                "verify_conditions(s.alpha, s.c, 1.0, 1000)\n"
                "k3 = np.ones((3, 3)) - np.eye(3)\n"
                "joint_connectivity_report(IndependentEdges(k3, 0.5), 2, 2, 3, 0)\n"
                "print('numpy.ma' in sys.modules)\n"
                "obj = QuadraticObjective(np.eye(3)[:, :2])\n"
                "monte_carlo(obj, IndependentEdges(k3, 0.8),\n"
                "            CommNoiseModel(sigma=0.1, b=0.1), s, 50, 1, 2,\n"
                "            *obj.optimum(), workers=2)\n"
                "print('multiprocessing' in sys.modules)\n")
        done = subprocess.run([sys.executable, "-c", code], env=_src_env(),
                              capture_output=True, text=True, timeout=120, check=True)
        assert done.stdout.split() == ["False", "False"]
