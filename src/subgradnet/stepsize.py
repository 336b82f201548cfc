"""Diminishing step-size schedules and numeric verification of their conditions.

The shipped family is

    alpha(k) = alpha1 / ((k + 3) * ln(k + 3)^tau1)      tau1 in (0, 1]
    c(k)     = alpha2 / ((k + 3)^tau2 * ln(k + 3)^tau3)  tau2 in (0.5, 1), tau3 <= 1

where ``alpha`` gains the subgradient term and ``c`` gains the consensus term.
Five conditions (C1)-(C5) on the pair are checked numerically over a finite
horizon; they are asymptotic statements, so each check is a falsifiable
finite-horizon rendering with frozen thresholds chosen to separate this family
(which satisfies all five analytically) from canonical counterexamples such as
polynomial schedules with divergent squared sums.  Partial sums of ``alpha``
come from one walk over ``[0, horizon]`` in blocks of ``_PREFIX_BLOCK``
(16,384) steps that carries a compensated (Neumaier) sum across blocks; both
:func:`verify_conditions` and :meth:`StepSchedule.log_beta` read it and keep
only per-block reductions and values at the steps they need, so their memory
does not depend on the horizon.  The block is sized to the cache: each
temporary holds 128 KiB.  At 65,536 steps (512 KiB each) the temporaries came
back from the allocator as fresh pages in every block, and one check at
horizon 1e6 took about 9,500 minor page faults, a third of its time.  At
16,384 steps, with every temporary a new array, it takes about 400 faults and
40 ms (a fresh process on a 2-vCPU host).  A sort replaces ``np.unique``,
whose first call imports ``numpy.ma``, about 15 ms of a run's setup.
"""

import math
from dataclasses import dataclass

import numpy as np

HOLDS = "holds-numerically"
FAILS = "fails"
INCONCLUSIVE = "inconclusive"

# Thresholds for the numeric condition checks.  A divergent-squared-sum
# schedule keeps a constant fraction of its partial sum in the last decade
# (0.37 for exponent 0.8), while the shipped family's tail fraction is below
# 1e-4 at horizon 1e6; 1e-2 separates them with two orders of margin either way.
_C1_TAIL_REL = 1e-2
_C1_RATIO_BOUND = 10.0
_C2_DECAY_FACTOR = 1e-3
_C4_MIN_POLY_EXPONENT = 0.02
_C5_RATIO_BOUND = 1e6
_TREND_INTERVALS = 3

# Steps per block of the walk over the horizon: 128 KiB per float temporary,
# which stays in cache.
_PREFIX_BLOCK = 16384


def _prefix_blocks(fn, horizon):
    """Walk [0, horizon] in blocks of ``_PREFIX_BLOCK`` steps from step 0 and
    yield each block's steps ``ks``, its values ``v = fn(ks)`` (a float array)
    and their compensated (Neumaier) running sums, carried across blocks: the
    running sum and the elementwise TwoSum errors are each one sequential
    ``cumsum``, so the sums match the sequential Neumaier loop bit for bit."""
    s = comp = 0.0
    for lo in range(0, horizon + 1, _PREFIX_BLOCK):
        ks = np.arange(lo, min(lo + _PREFIX_BLOCK, horizon + 1))
        v = fn(ks)
        run = np.cumsum(np.concatenate(([s], v)))
        prev, t = run[:-1], run[1:]
        err = np.where(np.abs(prev) >= np.abs(v), (prev - t) + v, (v - t) + prev)
        err[0] += comp
        err = np.cumsum(err)
        s, comp = float(t[-1]), float(err[-1])
        yield ks, v, t + err


@dataclass
class StepSchedule:
    """Step-size pair (alpha(k), c(k)) and the growth envelope of alpha's sums."""

    alpha1: float = 1.0
    tau1: float = 1.0
    alpha2: float = 1.0
    tau2: float = 0.75
    tau3: float = 1.0

    def __post_init__(self):
        if not 0 < self.alpha1 < math.inf:
            raise ValueError(f"alpha1 must be positive and finite, got {self.alpha1}")
        if not 0 < self.tau1 <= 1:
            raise ValueError(f"tau1 must lie in (0, 1], got {self.tau1}")
        if not 0 < self.alpha2 < math.inf:
            raise ValueError(f"alpha2 must be positive and finite, got {self.alpha2}")
        if not 0.5 < self.tau2 < 1:
            raise ValueError(f"tau2 must lie in (0.5, 1), got {self.tau2}")
        if not -math.inf < self.tau3 <= 1:
            raise ValueError(f"tau3 must be finite and at most 1, got {self.tau3}")

    # For a scalar step ``t`` is a numpy scalar, not a 0-d array, so the powers
    # take numpy's scalar power: its array loop can differ in the last bit.
    def alpha(self, k):
        t = np.add(k, 3.0, dtype=float)
        val = self.alpha1 / (t * np.log(t) ** self.tau1)
        return float(val) if np.ndim(val) == 0 else val

    def c(self, k):
        t = np.add(k, 3.0, dtype=float)
        val = self.alpha2 / (t ** self.tau2 * np.log(t) ** self.tau3)
        return float(val) if np.ndim(val) == 0 else val

    def log_beta(self, k, C0):
        """log of the growth envelope exp(C0 * S(k)), S(k) = sum_{t<=k} alpha(t),
        at one step or at an array of steps in any shape, order and repeats."""
        if not 0 < C0 < math.inf:
            raise ValueError(f"C0 must be positive and finite, got {C0}")
        k = np.asarray(k)
        bad = k if k.dtype.kind not in "iu" else k[k < 0]
        if bad.size:
            raise ValueError(f"log_beta needs non-negative integer steps, got {bad.flat[0]}")
        order = np.argsort(k, axis=None)
        steps, S = k.ravel()[order], np.empty(k.size)
        for ks, _, block in _prefix_blocks(self.alpha, int(steps[-1]) if steps.size else -1):
            i0, i1 = np.searchsorted(steps, (ks[0], ks[-1] + 1))
            S[order[i0:i1]] = block[steps[i0:i1] - ks[0]]
        val = C0 * S.reshape(k.shape)
        return float(val) if val.ndim == 0 else val


@dataclass(frozen=True)
class ConditionCheck:
    verdict: str
    details: dict

    @property
    def holds(self):
        return self.verdict == HOLDS


@dataclass(frozen=True)
class ConditionReport:
    """Per-condition verdicts from a finite-horizon schedule check."""

    C: float
    horizon: int
    checks: dict

    @property
    def all_hold(self):
        return all(chk.holds for chk in self.checks.values())

    def lines(self):
        return [f"{name}: {chk.verdict}" for name, chk in sorted(self.checks.items())]


def _decade_checkpoints(horizon):
    points = []
    d = 10
    while d < horizon:
        points.append(d)
        d *= 10
    points.append(horizon)
    return points


def _strictly_decreasing(seq, rel_margin=1e-9):
    arr = np.asarray(seq, dtype=float)
    scale = np.maximum(np.abs(arr[:-1]), 1e-300)
    return bool(np.all(np.diff(arr) < -rel_margin * scale))


def _nonincreasing(seq, rel_slack=1e-12):
    arr = np.asarray(seq, dtype=float)
    scale = np.maximum(np.abs(arr[:-1]), 1e-300)
    return bool(np.all(np.diff(arr) <= rel_slack * scale))


def _sorted_distinct(values):
    """Sorted distinct values: ``np.unique``'s, without its ``numpy.ma`` import."""
    v = np.sort(values)
    return v[np.concatenate(([True], v[1:] != v[:-1]))]


def _checked(values, name):
    """``values`` as floats, checked positive and finite before anything sums them."""
    v = np.asarray(values, dtype=float)
    if not (v.min() > 0 and v.max() < np.inf):
        raise ValueError(f"{name}(k) must be positive and finite on [0, horizon]")
    return v


def verify_conditions(alpha_fn, c_fn, C, horizon):
    """Numerically check the five step-size conditions over [0, horizon].

    ``alpha_fn`` and ``c_fn`` must accept an integer ndarray of step indices.
    ``C`` is the free positive constant entering the exponential-envelope
    conditions; callers verify at the constant their experiment actually uses.
    Verdict per condition is one of holds-numerically / fails / inconclusive;
    checks on the exponential quantities run in log space, so large ``C``
    values do not overflow.  The functions are called on one block of at most
    ``_PREFIX_BLOCK`` steps at a time, and no array is longer than a block
    plus the one value carried in from the previous block.
    """
    horizon = int(horizon)
    if horizon < 1000:
        raise ValueError("condition verification needs horizon >= 1000")
    if not 0 < C < math.inf:
        raise ValueError(f"C must be positive and finite, got {C}")

    h10 = horizon // 10
    last_decade = _sorted_distinct(np.geomspace(max(h10, 1), horizon, 65).astype(int))
    decades = np.array(_decade_checkpoints(horizon))
    log_dec = np.log(decades)
    grid = last_decade[last_decade < horizon]
    peak_grid = _sorted_distinct(np.geomspace(1, horizon, 200).astype(int))

    # One pass over [0, horizon] in blocks: alpha, c and their partial sums S
    # are kept only at the steps the checks read (idx); the rest of the checks
    # are reductions folded block by block, with each block's last alpha and c
    # carried across the edge.
    idx = _sorted_distinct(np.concatenate(
        (decades, last_decade, grid + 1, peak_grid, [10, horizon // 2, horizon])))
    a_at, c_at, S_at = np.empty(idx.size), np.empty(idx.size), np.empty(idx.size)
    a_sq_head = a_sq_tail = c_sq_head = c_sq_tail = partial_sum = 0.0
    a_decreasing = c_decreasing = True
    ratio_max = -np.inf
    for ks, a, S in _prefix_blocks(lambda ks: _checked(alpha_fn(ks), "alpha"), horizon):
        lo, n = int(ks[0]), ks.size
        c = _checked(c_fn(ks), "c")

        head = max(h10 + 1 - lo, 0)
        a_sq, c_sq = a * a, c * c
        a_sq_head += float(a_sq[:head].sum())
        a_sq_tail += float(a_sq[head:].sum())
        c_sq_head += float(c_sq[:head].sum())
        c_sq_tail += float(c_sq[head:].sum())
        # For finite values, a[1:] < a[:-1] is the same test as diff(a) < 0;
        # the edge compares against the previous block's last value.
        if lo:
            a_decreasing = a_decreasing and bool(a_last > a[0])
            c_decreasing = c_decreasing and bool(c_last > c[0])
            ratio_max = max(ratio_max, float(c_last / c[0]))
        a_decreasing = a_decreasing and bool(np.all(a[1:] < a[:-1]))
        c_decreasing = c_decreasing and bool(np.all(c[1:] < c[:-1]))
        if n > 1:
            ratio_max = max(ratio_max, float((c[:-1] / c[1:]).max()))
        a_last, c_last = a[-1], c[-1]
        partial_sum += float((a * np.exp(np.clip(-C * S, -745.0, 0.0))).sum())

        i0, i1 = np.searchsorted(idx, [lo, lo + n])
        picked = idx[i0:i1] - lo
        a_at[i0:i1], c_at[i0:i1], S_at[i0:i1] = a[picked], c[picked], S[picked]

    dec, last, grid_at, grid_next, peak = (
        np.searchsorted(idx, k) for k in (decades, last_decade, grid, grid + 1, peak_grid))
    i10, i_half, i_end = np.searchsorted(idx, [10, horizon // 2, horizon])

    checks = {}

    # C1: monotone decay, divergent alpha sum, summable squares, bounded ratio.
    c1_parts = {
        "alpha_decreasing": a_decreasing,
        "c_decreasing": c_decreasing,
        "alpha_sum_growing": bool(S_at[i_end] - S_at[i_half] > 1e-12 * max(S_at[i_end], 1.0)),
        "alpha_sq_tail_rel": a_sq_tail / a_sq_head,
        "c_sq_tail_rel": c_sq_tail / c_sq_head,
        "c_ratio_max": ratio_max,
    }
    c1_ok = (c1_parts["alpha_decreasing"] and c1_parts["c_decreasing"]
             and c1_parts["alpha_sum_growing"]
             and c1_parts["alpha_sq_tail_rel"] < _C1_TAIL_REL
             and c1_parts["c_sq_tail_rel"] < _C1_TAIL_REL
             and ratio_max <= _C1_RATIO_BOUND)
    checks["C1"] = ConditionCheck(HOLDS if c1_ok else FAILS, c1_parts)

    # C2: c^2/alpha must vanish; require a 1e-3 drop from k=10 to the horizon
    # and a monotone tail.
    r = c_at * c_at / a_at
    r_drop = float(r[i_end] / r[i10])
    c2_parts = {"ratio_drop": r_drop,
                "tail_monotone": _nonincreasing(r[last])}
    c2_ok = r_drop < _C2_DECAY_FACTOR and c2_parts["tail_monotone"]
    checks["C2"] = ConditionCheck(HOLDS if c2_ok else FAILS, c2_parts)

    # C3: sum of alpha(k) exp(-C S(k)).  The tail past K is certified below
    # exp(C alpha(K)) exp(-C S(K)) / C, so a strictly shrinking log tail bound
    # across the last decades witnesses convergence.
    log_tail = C * a_at[dec] - C * S_at[dec] - math.log(C)
    c3_parts = {
        "partial_sum": partial_sum,
        "log_tail_bound_final": float(log_tail[-1]),
        "log_tail_decreasing": _strictly_decreasing(
            log_tail[-(_TREND_INTERVALS + 1):], rel_margin=0.0),
    }
    if c3_parts["log_tail_decreasing"]:
        verdict = HOLDS
    elif np.any(np.diff(log_tail[-(_TREND_INTERVALS + 1):]) > 0):
        verdict = FAILS
    else:
        verdict = INCONCLUSIVE
    checks["C3"] = ConditionCheck(verdict, c3_parts)

    # Per-decade exponents: eta measures the exponential envelope's local
    # log-log slope, p the polynomial decay of alpha/c, adecay that of alpha.
    dS = np.diff(S_at[dec])
    dlog = np.diff(log_dec)
    eta = C * dS / dlog
    log_ac = np.log(a_at[dec]) - np.log(c_at[dec])
    p_hat = -np.diff(log_ac) / dlog
    adecay = -np.diff(np.log(a_at[dec])) / dlog

    # C4: alpha exp(C S)/c -> 0.  Needs a genuine polynomial gap between c and
    # alpha plus a sub-logarithmic envelope (eta shrinking decade over decade);
    # a directly observed decreasing tail with eta below the gap also counts.
    ln_q = np.log(a_at) - np.log(c_at) + C * S_at
    eta_tail = eta[-_TREND_INTERVALS:]
    observed_q = _nonincreasing(ln_q[last]) and eta[-1] < p_hat[-1]
    c4_parts = {
        "poly_exponent": float(p_hat[-1]),
        "eta_last": float(eta[-1]),
        "eta_decreasing": _strictly_decreasing(eta_tail),
        "observed_decreasing": bool(observed_q),
    }
    if p_hat[-1] <= _C4_MIN_POLY_EXPONENT:
        verdict = FAILS
    elif c4_parts["eta_decreasing"] or observed_q:
        verdict = HOLDS
    elif np.all(np.diff(eta_tail) >= 0):
        verdict = FAILS
    else:
        verdict = INCONCLUSIVE
    checks["C4"] = ConditionCheck(verdict, c4_parts)

    # C5: g = alpha exp(C S) eventually decreases and its forward differences
    # stay O(alpha^2 exp(2 C S)).  eta/adecay falling decade over decade
    # certifies eventual decrease even when the peak lies past the horizon.
    ln_g = np.log(a_at) + C * S_at
    nu = eta / adecay
    diff_factor = 1.0 - ((a_at[grid_next] / a_at[grid_at])
                         * np.exp(np.clip(C * a_at[grid_next], None, 700.0)))
    log_scale = np.clip(-C * S_at[grid_at] - np.log(a_at[grid_at]), -745.0, 700.0)
    r5 = diff_factor * np.exp(log_scale)
    g_grid = ln_g[last]
    last_peak = int(peak_grid[int(np.argmax(ln_g[peak]))])
    c5_parts = {
        "nu_decreasing": _strictly_decreasing(nu[-_TREND_INTERVALS:]),
        "observed_decreasing": _nonincreasing(g_grid),
        "diff_ratio_max": float(np.max(np.abs(r5))) if r5.size else 0.0,
        "last_peak_index": last_peak,
    }
    bounded = c5_parts["diff_ratio_max"] < _C5_RATIO_BOUND
    if bounded and (c5_parts["nu_decreasing"] or c5_parts["observed_decreasing"]):
        verdict = HOLDS
    elif not bounded or (np.all(np.diff(nu[-_TREND_INTERVALS:]) >= 0)
                         and not c5_parts["observed_decreasing"]):
        verdict = FAILS
    else:
        verdict = INCONCLUSIVE
    checks["C5"] = ConditionCheck(verdict, c5_parts)

    return ConditionReport(C=float(C), horizon=horizon, checks=checks)
