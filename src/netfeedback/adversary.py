"""Online adversarial plant construction and the doubling certificate.

The adversary reveals the nonlinearity one interval at a time. It maintains a
piecewise-linear function with slopes exactly +/-B pinned at the running state
extremes; each step it extends the pins in two opposite ways (push up or push
down on the newly explored regions), probes how the attacked node would move
under the push-up branch, and commits whichever branch lands that node at
least a threshold away from the midpoint of the explored interval. The hull
then grows geometrically no matter what the feedback law does, which the
certificate witnesses as a doubling of E_t = |I_0|/2 + sum of hull growths.

B = 4 / (smallest nonzero weight magnitude); the construction needs a
strongly connected graph whose weights carry a uniform sign. Disturbances are
fixed up front (zero by default) and the attacked node's estimate channel is
the committed function itself, so every branch decision is reproducible.
"""

import math

import numpy as np

from .functions import PlantFunction, _end_slopes, _piecewise_linear
from .graphs import (WeightedDigraph, is_strongly_connected, sharp_metric,
                     sign_pattern)


class InvariantError(RuntimeError):
    """A construction-time invariant failed; indicates a bug, not bad input."""


def _check_segments(bound: float, pts, full_slope: bool):
    """Pins (x, v) need finite coordinates, consecutive ones distinct
    abscissae and |dv| <= bound*dx; with full_slope also |dv| = bound*dx up
    to rounding."""
    if not all(math.isfinite(x) and math.isfinite(v) for x, v in pts):
        raise ValueError("pins must be finite")
    seg = [(xb - xa, vb - va) for (xa, va), (xb, vb) in zip(pts, pts[1:])]
    if any(dx <= 0 for dx, _ in seg):
        raise ValueError("pin abscissae must be distinct")
    if any(abs(dv) > bound * dx * (1 + 1e-9) + 1e-12 for dx, dv in seg):
        raise ValueError("pins violate the slope bound")
    if full_slope and any(abs(abs(dv) - bound * dx) > 1e-9 * max(1.0, bound * dx)
                          for dx, dv in seg):
        raise InvariantError("committed pins drifted off the +/-B slopes")


class PinnedPiecewiseLinear(PlantFunction):
    """Piecewise-linear function through pins, bounded slope, linear tails.

    Adjacent pins must satisfy |dv| <= slope_bound * dx. Between pins the
    function interpolates; beyond the outermost pins it continues the end
    segments, and around a single pin it is the V of slopes -/+slope_bound.
    With full_slope every segment must run at +/-slope_bound, not merely
    within it (InvariantError otherwise).
    """

    def __init__(self, slope_bound: float, pins, full_slope: bool = False):
        if not 0 < slope_bound < math.inf:
            raise ValueError("slope_bound must be positive and finite")
        pts = sorted((float(x), float(v)) for x, v in pins)
        if not pts:
            raise ValueError("need at least one pin")
        _check_segments(slope_bound, pts, full_slope)
        self._set_pins(float(slope_bound), np.array([p[0] for p in pts]),
                       np.array([p[1] for p in pts]))

    def _set_pins(self, slope_bound: float, xs, vs):
        """Hold the checked pins (xs, vs) and the tails they imply."""
        self.slope_bound = slope_bound
        self._xs, self._vs = xs, vs
        if xs.size == 1:
            self._lslope, self._rslope = -slope_bound, slope_bound
        else:
            self._lslope, self._rslope = _end_slopes(xs, vs)
        if max(abs(self._lslope), abs(self._rslope)) > slope_bound * (1 + 1e-9):
            raise ValueError("tail slopes violate the slope bound")

    def extended(self, pins, full_slope: bool = False) -> "PinnedPiecewiseLinear":
        """This function with pins added beyond its outermost pins.

        Every new pin must lie strictly outside the current pins
        (InvariantError otherwise); a non-finite pin is a ValueError, as in
        __init__. Only the new end segments are checked, as __init__ checks
        every segment (full_slope included), and the tails follow the new end
        segments, as in __init__.
        """
        new = sorted((float(x), float(v)) for x, v in pins)
        if not all(math.isfinite(x) and math.isfinite(v) for x, v in new):
            raise ValueError("pins must be finite")
        xs, vs = self._xs, self._vs
        first, last = (float(xs[0]), float(vs[0])), (float(xs[-1]), float(vs[-1]))
        left, right = [], []
        for pin in new:
            if pin[0] < first[0]:
                left.append(pin)
            elif pin[0] > last[0]:
                right.append(pin)
            else:
                raise InvariantError("new pins must lie strictly outside the current pins")
        _check_segments(self.slope_bound, left + [first], full_slope)
        _check_segments(self.slope_bound, [last] + right, full_slope)
        fn = object.__new__(PinnedPiecewiseLinear)
        fn._set_pins(self.slope_bound,
                     np.concatenate(([p[0] for p in left], xs, [p[0] for p in right])),
                     np.concatenate(([p[1] for p in left], vs, [p[1] for p in right])))
        return fn

    @property
    def pins(self) -> tuple:
        return tuple(zip(self._xs.tolist(), self._vs.tolist()))

    def __call__(self, x):
        return _piecewise_linear(x, self._xs, self._vs, self._lslope, self._rslope)

    def quasi_norm(self) -> float:
        """Sup slope: the steepest segment, which the tails continue, or
        slope_bound around a single pin."""
        if self._xs.size == 1:
            return self.slope_bound
        return float(np.abs(np.diff(self._vs) / np.diff(self._xs)).max())

    def __repr__(self):
        return (f"PinnedPiecewiseLinear(slope_bound={self.slope_bound}, "
                f"{self._xs.size} pins on "
                f"[{self._xs[0]:.6g}, {self._xs[-1]:.6g}])")


class IntervalLedger:
    """Running hull of visited states and its per-step growth.

    After push t: interval I_t = [y_low[t], y_high[t]], growths
    R[t-1] = y_high[t] - y_high[t-1] and L[t-1] = y_low[t-1] - y_low[t],
    chi[t-1] = max(R, L). The adversary's online ledger, and the oracle of
    hull_growth, the closed form of R and L that sweeps read.
    """

    def __init__(self, x0):
        x0 = np.asarray(x0, dtype=float)
        self.y_high = [float(x0.max())]
        self.y_low = [float(x0.min())]
        self.i0_width = self.y_high[0] - self.y_low[0]
        self.R, self.L, self.chi = [], [], []

    def interval(self, t: int):
        return self.y_low[t], self.y_high[t]

    def push(self, x_max: float, x_min: float) -> float:
        """Grow the hull by a state with max x_max and min x_min; its chi."""
        hi = max(self.y_high[-1], x_max)
        lo = min(self.y_low[-1], x_min)
        r = hi - self.y_high[-1]
        l = self.y_low[-1] - lo
        self.y_high.append(hi)
        self.y_low.append(lo)
        self.R.append(r)
        self.L.append(l)
        self.chi.append(max(r, l))
        return self.chi[-1]


def hull_growth(x_hist) -> dict:
    """R and L of an IntervalLedger fed each row's finite max and min, bit for
    bit (+ 0.0 makes a signed-zero tie +0.0); a row with no finite state adds 0."""
    finite = np.isfinite(x_hist)
    hi = np.maximum.accumulate(np.where(finite, x_hist, -np.inf).max(axis=1))
    lo = np.minimum.accumulate(np.where(finite, x_hist, np.inf).min(axis=1))
    return {"R": (hi[1:] - hi[:-1] + 0.0).tolist(),
            "L": (lo[:-1] - lo[1:] + 0.0).tolist()}


class DivergenceCertificate:
    """E_t = |I_0|/2 + sum_{s<=t} chi(s); passes iff E doubles every step."""

    def __init__(self, i0_width: float, chi):
        self.i0_width = float(i0_width)
        self.chi = tuple(float(c) for c in chi)
        # cumsum adds in order from 0.0, as a running sum does
        e = self.i0_width / 2.0 + np.cumsum((0.0, *self.chi))
        self.E = tuple(e.tolist())
        self.verdict = len(self.chi) >= 2 and bool(np.all(e[2:] > 2.0 * e[1:-1]))

    def to_dict(self) -> dict:
        return {
            "I0_width": self.i0_width,
            "chi": list(self.chi),
            "E": list(self.E),
            "verdict": "pass" if self.verdict else "fail",
        }


def slope_budget(graph: WeightedDigraph) -> float:
    """The adversary's slope B = 4 / sharp_metric(graph)."""
    return 4.0 / sharp_metric(graph)


def check_adversary_graph(graph: WeightedDigraph) -> float:
    """The sharp metric of graph if the construction can run on it: an arc,
    weights of one sign, strong connectivity (ValueError otherwise)."""
    sharp = sharp_metric(graph)
    if sharp <= 0.0:
        raise ValueError("adversary needs at least one arc (sharp metric > 0)")
    if sign_pattern(graph) == "mixed":
        raise ValueError("adversary needs a uniform sign pattern")
    if not is_strongly_connected(graph):
        raise ValueError("adversary needs a strongly connected graph")
    return sharp


class OnlineAdversary:
    """Implements the branch-probe-commit protocol against any feedback law.

    Usage per step t (after the law fixed U(t) and with W(t) known):
        fvals = adv.step(t, X(t), U(t), W(t))
        X(t+1) = A @ fvals + U(t) + W(t)
    or, as one plant step, X(t+1), Z(t) = adv.advance(t, X(t), U(t), W(t)).
    The committed function only ever gains pins outside the previous hull, so
    values already revealed never change, and each step extends it at its
    ends (PinnedPiecewiseLinear.extended) instead of rebuilding it. Its tails
    follow the end segments and are never read: the pins span the hull, and
    every point evaluated (X(t), and the previous hull ends) lies in it.
    """

    def __init__(self, graph: WeightedDigraph, x0):
        self.sharp = check_adversary_graph(graph)
        x0 = np.asarray(x0, dtype=float)
        if x0.shape != (graph.n,):
            raise ValueError(f"x0 must have shape ({graph.n},)")
        self.graph = graph
        self.B = slope_budget(graph)
        self.ledger = IntervalLedger(x0)
        self.branches = []
        self.theta = []    # extreme holder attacked from, per step
        self.attacked = []  # node d_t whose update the probe targets
        self._t = 0
        self._fn: PinnedPiecewiseLinear | None = None

    @property
    def function(self) -> PinnedPiecewiseLinear:
        if self._fn is None:
            raise ValueError("no branch committed yet; run step(0, ...) first")
        return self._fn

    def certificate(self) -> DivergenceCertificate:
        return DivergenceCertificate(self.ledger.i0_width, self.ledger.chi)

    def _pick_target(self, x, prefer_max: bool):
        theta = int(np.argmax(x) if prefer_max else np.argmin(x))
        outs = self.graph.out_neighbors(theta)
        if not outs:
            raise InvariantError("strongly connected graph lost out-neighbors")
        return theta, outs[0]

    def _candidate(self, new_pins, commit: bool = False) -> PinnedPiecewiseLinear:
        """The committed function grown by new_pins; before the first commit,
        the function through new_pins alone."""
        if self._fn is not None:
            return self._fn.extended(new_pins, full_slope=commit)
        return PinnedPiecewiseLinear(self.B, new_pins, full_slope=commit)

    def step(self, t: int, x_t, u_t, w_t) -> np.ndarray:
        """Commit a branch for time t and return f(X(t)) under it."""
        if t != self._t:
            raise ValueError(f"steps must be sequential; expected t={self._t}")
        x_t = np.asarray(x_t, dtype=float)
        u_t = np.asarray(u_t, dtype=float)
        w_t = np.asarray(w_t, dtype=float)
        n = self.graph.n
        if x_t.shape != (n,) or u_t.shape != (n,) or w_t.shape != (n,):
            raise ValueError(f"step arrays must have shape ({n},)")

        i0 = self.ledger.i0_width
        if t == 0:
            lo, hi = self.ledger.interval(0)
            theta, d = self._pick_target(x_t, prefer_max=True)
            p_pins = [(lo, 1.0), (hi, 1.0 + self.B * i0)] if i0 > 0.0 else [(hi, 1.0)]
            n_pins = [(x, -v) for x, v in p_pins]
            threshold = self.sharp + 4.0 * i0
        else:
            prev_lo, prev_hi = self.ledger.interval(t - 1)
            chi_t = self.ledger.push(float(x_t.max()), float(x_t.min()))
            if chi_t <= 0.0:
                raise InvariantError(f"hull did not grow at step {t}")
            d_prev = self.attacked[-1]
            esc = max(x_t[d_prev] - prev_hi, prev_lo - x_t[d_prev])
            if esc <= 0.0:
                raise InvariantError(
                    f"attacked node {d_prev} failed to escape the hull at step {t}")
            r_t, l_t = self.ledger.R[-1], self.ledger.L[-1]
            lo, hi = self.ledger.interval(t)
            theta, d = self._pick_target(x_t, prefer_max=(r_t >= l_t))
            p_pins, n_pins = [], []
            if r_t > 0.0:
                base = self._fn(prev_hi)
                p_pins.append((hi, base + self.B * r_t))
                n_pins.append((hi, base - self.B * r_t))
            if l_t > 0.0:
                base = self._fn(prev_lo)
                p_pins.append((lo, base + self.B * l_t))
                n_pins.append((lo, base - self.B * l_t))
            threshold = 4.0 * chi_t

        mid = 0.5 * (lo + hi)
        probe = self._candidate(p_pins)
        row = self.graph.weights[d]
        v_p = float(row @ np.asarray(probe(x_t), dtype=float) + u_t[d] + w_t[d])
        take_p = abs(v_p - mid) >= threshold
        self._fn = self._candidate(p_pins if take_p else n_pins, commit=True)
        self.branches.append("p" if take_p else "n")
        self.theta.append(theta)
        self.attacked.append(d)
        self._t += 1
        return np.asarray(self._fn(x_t), dtype=float)

    def advance(self, t: int, x_t, u_t, w_t):
        """(X(t+1), Z(t)) under the branch committed for time t; the committed
        values f(X(t)) are the exact estimates. Overflow is not silenced
        here: run_experiment enters one np.errstate for its whole loop, and
        a direct caller that may overflow enters its own."""
        fvals = self.step(t, x_t, u_t, w_t)
        return self.graph.weights @ fvals + u_t + w_t, fvals
