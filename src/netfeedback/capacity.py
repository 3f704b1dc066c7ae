"""Critical-gain machinery: the scalar squeeze recursion, the coupled
per-node recursion whose summability threshold defines the dagger capacity
metric, and sweep drivers locating empirical stability transitions.

Both recursions come from inequalities; simulating them with equality is the
informative worst case. For the scalar recursion the maximizing schedule
saturates one sequence and leaves the other at zero (saturating both lets the
subtracted history grow twice as fast and moves the apparent transition to
the wrong place). For the coupled recursion both sequences saturate
literally; they start at zero and obey the same equation, so q equals p at
every step and is computed once. Summability verdicts are finite-horizon and
therefore heuristic: a tail-decile test plus a float-resolution guard (once
the running sum stops absorbing the increment, the tail is constant forever
and the sum has converged to machine precision).

In both recursions, in every mode, zero is absorbing: once the bound is 0
every later update is 0 and the running sums and peaks stop moving, so the
loops stop there and leave a zero suffix in their arrays as the
continuation.
"""

import math
from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from .adversary import _B_SHARP, hull_growth, slope_budget
from .graphs import WeightedDigraph, inf_norm
from .runner import run_experiment

TAIL_TOL = 1e-9
DAGGER_OMEGAS = (0.1, 1.0, 10.0)
DAGGER_TOL = 1e-3
# Steps per refill of the uniforms drawn by simulate_scalar_recursion.
SLACK_BLOCK = 4096


def xie_guo_constant() -> tuple:
    """Minimize (x^2 - x/2)/(x - 1) over x > 1; returns (value, minimizer).

    The minimum is 3/2 + sqrt(2), attained at 1 + sqrt(2)/2. A golden-section
    search over [1 + 1e-9, 64] narrows the bracket until it is at most 1e-12
    wide (67 steps) and returns the better of its two inner points.
    """
    def obj(x):
        return (x * x - 0.5 * x) / (x - 1.0)

    shrink = (math.sqrt(5.0) - 1.0) / 2.0   # 1/golden ratio
    a, b = 1.0 + 1e-9, 64.0
    c, d = b - shrink * (b - a), a + shrink * (b - a)
    fc, fd = obj(c), obj(d)
    while b - a > 1e-12:
        if fc < fd:   # the minimum lies in [a, d]
            b, d, fd = d, c, fc
            c = b - shrink * (b - a)
            fc = obj(c)
        else:         # the minimum lies in [c, b]
            a, c, fc = c, d, fd
            d = a + shrink * (b - a)
            fd = obj(d)
    return (fc, c) if fc < fd else (fd, d)


@dataclass
class RecursionResult:
    """p and q hold one row per step: a value (scalar recursion) or one value
    per node (coupled recursion)."""

    p: np.ndarray
    q: np.ndarray
    verdict: str               # "summable" | "diverging"
    frozen: bool               # stopped because increments fell below sum resolution

    @property
    def steps(self) -> int:
        return len(self.p)

    @property
    def partial_sums(self) -> np.ndarray:
        """Cumulative sum of p + q over the steps."""
        return np.cumsum(self.p + self.q, axis=0)

    @property
    def r(self) -> np.ndarray:
        return np.maximum(self.p, self.q)

    def to_dict(self) -> dict:
        return {
            "verdict": self.verdict,
            "steps": self.steps,
            "frozen": self.frozen,
            "final_sum": self.partial_sums[-1].tolist(),
            "tail_increment": float(self.r[-1].max()),
        }


def _tail_verdict(r: np.ndarray) -> str:
    """Summable iff the last-decile increments all sit below TAIL_TOL; r
    holds one row per step, with at least one row."""
    dec = max(1, r.shape[0] // 10)
    return "summable" if float(np.max(r[-dec:])) < TAIL_TOL else "diverging"


def _uniforms(rng):
    """rng's stream of uniforms as Python floats, drawn 2 * SLACK_BLOCK at a
    time (rng.random(k) continues the stream of k rng.random() calls)."""
    while True:
        yield from rng.random(2 * SLACK_BLOCK).tolist()


def simulate_scalar_recursion(M: float, omega: float = 1.0, rho: float = 1.0,
                              mode: str = "equality", T: int = 100_000,
                              seed: int = 0, cap: float = 1e12) -> RecursionResult:
    """Run p_{t+1} = (M max(peak, rho) - rho/2 - (sum of p_s + q_s)/2 + omega)^+.

    mode "equality" saturates p and keeps q at zero (the worst case);
    "seeded_slack" draws both updates uniformly below the bound. The verdict
    flips from summable to diverging as M crosses 3/2 + sqrt(2).

    In both modes a zero bound is absorbing, so the loop stops there: the
    zero suffix of p and q is the continuation, steps stays T, and no
    uniform past the current refill is drawn. Equality mode calls that stop
    summable; slack mode still reads the verdict off its last decile.
    """
    if not (math.isfinite(M) and math.isfinite(omega) and math.isfinite(rho)):
        raise ValueError("M, omega and rho must be finite")
    if M <= 0 or T < 1:
        raise ValueError("need M > 0 and T >= 1")
    if mode not in ("equality", "seeded_slack"):
        raise ValueError(f"unknown mode {mode!r}")
    slack = mode == "seeded_slack"
    uniforms = _uniforms(np.random.default_rng(seed))
    # allocated before the first step, so a horizon too large to hold fails
    # at once; each step is stored through a memoryview as a Python float
    p = np.zeros(T)
    q = np.zeros(T)
    pm, qm = memoryview(p), memoryview(q)
    S = peak = 0.0
    for t in range(T):
        bound = max(M * max(peak, rho) - 0.5 * rho - 0.5 * S + omega, 0.0)
        if bound == 0.0:
            # never -0.0: M * max(peak, rho) is not -0.0 for M > 0, and a
            # round-to-nearest sum is -0.0 only if both terms are
            break
        if slack:
            pv, qv = bound * next(uniforms), bound * next(uniforms)
        elif S + bound == S:
            # increment below the sum's float resolution: converged
            pm[t] = bound
            return RecursionResult(p[:t + 1], q[:t + 1], "summable", True)
        else:
            pv, qv = bound, 0.0
        pm[t] = pv
        qm[t] = qv
        S += pv + qv
        peak = max(peak, pv, qv)
        if peak > cap:
            return RecursionResult(p[:t + 1], q[:t + 1], "diverging", False)
    # the last bound is 0.0 only if the loop stopped at the absorbing zero
    verdict = ("summable" if bound == 0.0 and not slack
               else _tail_verdict(np.maximum(p, q)))
    return RecursionResult(p, q, verdict, False)


def simulate_dagger_recursion(g: WeightedDigraph, M: float, omega: float,
                              T: int = 400, cap: float = 1e12) -> RecursionResult:
    """Coupled per-node recursion behind the dagger capacity metric.

    p^i_{t+1} = (M sum_j |a_ij| peak_j + omega - sum_s p^i_s)^+, with peak_j
    the running max of both sequences at node j. Equality mode saturates
    both; q starts at zero and obeys the same equation as p, so q equals p
    bit for bit and is returned as a copy of it. A zero step is absorbing and
    ends the run with the zero suffix as its continuation. frozen is always
    False: where pv_i > 0, Sp_i + pv_i is the drive itself or above 2 Sp_i,
    never Sp_i. Rows of the returned arrays are time steps, columns nodes.

    Each step makes one numpy call, absA @ peak, whose BLAS summation order
    sets the bits of the drive (a sequential Python sum differs from it in
    the last bit for many graphs). The rest runs on Python floats, which
    round as numpy's float64 elementwise operations do. pv is never -0.0:
    the drive is positive before Sp is taken off. Under a finite cap no NaN
    arises before the stop, since Sp_i never exceeds a past drive and an
    infinite drive lifts a peak above the cap. Under a cap of inf or NaN the
    clamp and the peak update pass a NaN on as np.maximum does.
    """
    if not (math.isfinite(M) and math.isfinite(omega)):
        raise ValueError("M and omega must be finite")
    if M <= 0 or omega <= 0 or T < 1:
        raise ValueError("need M > 0, omega > 0 and T >= 1")
    absA = np.abs(g.weights)
    rows = []
    Sp = [0.0] * g.n
    peak = [0.0] * g.n
    verdict = None
    n_steps = T
    for t in range(T):
        drive = (absA @ peak).tolist()
        pv = [0.0 if (v := M * y + omega - s) <= 0.0 else v
              for y, s in zip(drive, Sp)]
        rows.append(pv)
        if not any(pv):
            verdict = "summable"     # zero state is absorbing
            break
        Sp = [s + v for s, v in zip(Sp, pv)]
        peak = [m if m >= v else v for m, v in zip(peak, pv)]
        if max(peak) > cap:
            verdict = "diverging"
            n_steps = t + 1
            break
    p = np.zeros((n_steps, g.n))
    p[:len(rows)] = rows
    return RecursionResult(p, p.copy(), verdict or _tail_verdict(p), False)


@dataclass
class DaggerEstimate:
    m_low: float
    m_high: float
    horizon: int
    iterations: int
    at_bracket_high: bool
    omega_grid: ClassVar[tuple] = DAGGER_OMEGAS
    label: ClassVar[str] = (
        "heuristic finite-horizon estimate; summability tested on a "
        "finite omega grid and cannot certify the supremum")

    @property
    def estimate(self) -> float:
        """The largest gain found summable: the low end of the bracket."""
        return self.m_low

    def to_dict(self) -> dict:
        return {
            "estimate": self.estimate,
            "bracket": [self.m_low, self.m_high],
            "horizon": self.horizon,
            "omega_grid": list(self.omega_grid),
            "iterations": self.iterations,
            "at_bracket_high": self.at_bracket_high,
            "label": self.label,
        }


def estimate_dagger(g: WeightedDigraph, bracket: tuple | None = None,
                    T: int = 400) -> DaggerEstimate:
    """Bisect the summability transition of the coupled recursion over M.

    M counts as summable when the recursion is, for every omega in
    DAGGER_OMEGAS = (0.1, 1.0, 10.0). Bisection stops when the bracket is
    narrower than DAGGER_TOL = 1e-3 times max(1, 1/inf_norm), or after 60
    halvings.

    The lower bracket edge defaults to 1/inf_norm, which is always summable,
    so the returned estimate never falls below that floor. A graph with no
    arcs decouples the recursion (summable for every M); the estimate then
    sits at the top of the bracket.
    """
    nrm = inf_norm(g)
    floor = (1.0 / nrm) if nrm > 0 else 1.0
    if bracket is None:
        bracket = (floor, 10.0 * floor)
    lo, hi = float(bracket[0]), float(bracket[1])
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise ValueError("bracket ends must be finite")
    if T < 1:
        raise ValueError("need T >= 1")
    if lo >= hi:
        raise ValueError("bracket must satisfy low < high")
    if nrm > 0 and lo < floor - 1e-12:
        raise ValueError(f"bracket.low must be >= 1/inf_norm = {floor:.6g}")

    def summable(M):
        return all(simulate_dagger_recursion(g, M, w, T).verdict == "summable"
                   for w in DAGGER_OMEGAS)

    if summable(hi):
        return DaggerEstimate(hi, hi, T, 0, True)
    iters = 0
    while hi - lo > DAGGER_TOL * max(1.0, floor) and iters < 60:
        mid = 0.5 * (lo + hi)
        if summable(mid):
            lo = mid
        else:
            hi = mid
        iters += 1
    return DaggerEstimate(lo, hi, T, iters, False)


def threshold_sweep(base_config, L_values, trials: int = 1) -> dict:
    """Re-run base_config across a gain grid and tabulate the verdicts.

    For adversary-attached sweeps the constructed slope is pinned at
    slope_budget(graph), so grid points strictly below that budget cannot be
    realized and are reported as not applicable. A point's bound, hull growth
    (over the finite states) and explore steps are trial 0's; the bound reads
    no seed, so it is every trial's.
    """
    if trials < 1:
        raise ValueError(f"need trials >= 1, got {trials}")
    L_values = [float(L) for L in L_values]
    if not L_values:
        raise ValueError("need at least one gain")
    if not all(map(math.isfinite, L_values)):
        raise ValueError("gains must be finite")
    B = slope_budget(base_config.graph) if base_config.adversary else -math.inf
    points = []
    for L in L_values:
        if L < B * (1.0 - 1e-12):
            points.append({"L": L, "stabilized": None, "sup_state": None,
                           "bound": None, "verdict": "not_applicable",
                           "note": (f"adversary slope is {_B_SHARP:g}/sharp"
                                    f" = {B:.6g} > L")})
            continue
        runs = (run_experiment(base_config.with_gain(L, seed_offset=trial))
                for trial in range(trials))
        first = next(runs)
        summaries = [first.summary] + [run.summary for run in runs]
        verdicts = [s["verdict"] for s in summaries]
        points.append({"L": L, "stabilized": all(v == "stabilized" for v in verdicts),
                       "sup_state": max(s["sup_state"] for s in summaries),
                       "bound": first.summary["bound"],
                       "verdict": verdicts[0] if trials == 1 else verdicts,
                       "hull_growth": hull_growth(first.x_hist),
                       "explore_steps": first.summary["explore_steps"]})
    stabilized_L = [pt["L"] for pt in points if pt.get("stabilized") is True]
    diverged_L = [pt["L"] for pt in points if pt.get("stabilized") is False]
    return {
        "points": points,
        "transition": {
            "last_stabilized": max(stabilized_L, default=None),
            "first_not_stabilized": min(diverged_L, default=None),
        },
        "note": "finite-horizon verdicts; the transition region is empirical",
    }
