"""Online adversarial plant construction and the doubling certificate.

The adversary reveals the nonlinearity one interval at a time. It maintains a
piecewise-linear function with slopes exactly +/-B pinned at the running state
extremes; each step it extends the pins in two opposite ways (push up or push
down on the newly explored regions), probes how the attacked node would move
under the push-up branch, and commits whichever branch lands that node at
least a threshold away from the midpoint of the explored interval. The hull
then grows geometrically no matter what the feedback law does, which the
certificate witnesses as a doubling of E_t = |I_0|/2 + sum of hull growths.
It keeps only the running hull, |I_0| and those growths (hull_growth recovers
them from a trajectory), and builds each candidate once, at full slope.

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


def hull_growth(x_hist) -> dict:
    """Growth of the running hull [lo_t, hi_t] of rows 0..t's finite states:
    R[t-1] = hi_t - hi_{t-1} and L[t-1] = lo_{t-1} - lo_t, +0.0 on a tie of
    zeros of either sign; a row with no finite state grows nothing."""
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


# B * sharp: slope_budget, the branch thresholds and the sweep's note read it
_B_SHARP = 4.0


def slope_budget(graph: WeightedDigraph) -> float:
    """The adversary's slope B = 4 / sharp_metric(graph)."""
    return _B_SHARP / sharp_metric(graph)


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
    It keeps the running hull [lo, hi], i0_width and each step's growth
    chi, all the certificate reads. The committed function only gains pins
    outside the previous hull, so revealed values never change; each step
    extends it at its ends (PinnedPiecewiseLinear.extended). A candidate is
    built once, at full slope, which a probe meets as its mirror does (both
    add +/-B * growth to the same values), so a taken probe is committed as
    it is. Its tails are never read: the pins span X(t) and the old hull.

    The outermost pins sit at the running hull's ends: step 0 pins lo and hi
    (one pin when |I_0| = 0), and each later step pins the new hi and/or the
    new lo. So f(prev_hi) and f(prev_lo) are read off the end pins, not
    evaluated, and a taken probe returns the f(X(t)) its probe value used.
    """

    def __init__(self, graph: WeightedDigraph, x0):
        self.sharp = check_adversary_graph(graph)
        x0 = np.asarray(x0, dtype=float)
        if x0.shape != (graph.n,):
            raise ValueError(f"x0 must have shape ({graph.n},)")
        self.graph = graph
        self.B = slope_budget(graph)
        self.lo, self.hi = float(x0.min()), float(x0.max())
        self.i0_width = self.hi - self.lo
        self.chi = []       # hull growth max(R_t, L_t) of each step t >= 1
        self.branches = []
        self.attacked = []  # node d_t whose update the probe targets
        self._t = 0
        self._fn: PinnedPiecewiseLinear | None = None

    @property
    def function(self) -> PinnedPiecewiseLinear:
        if self._fn is None:
            raise ValueError("no branch committed yet; run step(0, ...) first")
        return self._fn

    def certificate(self) -> DivergenceCertificate:
        return DivergenceCertificate(self.i0_width, self.chi)

    def _pick_target(self, x, prefer_max: bool) -> int:
        outs = self.graph.out_neighbors(int(np.argmax(x) if prefer_max else np.argmin(x)))
        if not outs:
            raise InvariantError("strongly connected graph lost out-neighbors")
        return outs[0]

    def _candidate(self, new_pins) -> PinnedPiecewiseLinear:
        """The committed function grown by new_pins at full slope; before the
        first commit, the function through new_pins alone."""
        if self._fn is not None:
            return self._fn.extended(new_pins, full_slope=True)
        return PinnedPiecewiseLinear(self.B, new_pins, full_slope=True)

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

        if t == 0:
            lo, hi, i0 = self.lo, self.hi, self.i0_width
            d = self._pick_target(x_t, prefer_max=True)
            p_pins = [(lo, 1.0), (hi, 1.0 + self.B * i0)] if i0 > 0.0 else [(hi, 1.0)]
            n_pins = [(x, -v) for x, v in p_pins]
            threshold = self.sharp + _B_SHARP * i0
        else:
            prev_lo, prev_hi = self.lo, self.hi
            self.hi = hi = max(prev_hi, float(x_t.max()))
            self.lo = lo = min(prev_lo, float(x_t.min()))
            r_t, l_t = hi - prev_hi, prev_lo - lo
            chi_t = max(r_t, l_t)
            self.chi.append(chi_t)
            if chi_t <= 0.0:
                raise InvariantError(f"hull did not grow at step {t}")
            d_prev = self.attacked[-1]
            esc = max(x_t[d_prev] - prev_hi, prev_lo - x_t[d_prev])
            if esc <= 0.0:
                raise InvariantError(
                    f"attacked node {d_prev} failed to escape the hull at step {t}")
            d = self._pick_target(x_t, prefer_max=(r_t >= l_t))
            # the end pins sit at prev_hi and prev_lo (see the class docstring)
            p_pins, n_pins = [], []
            if r_t > 0.0:
                base = float(self._fn._vs[-1])
                p_pins.append((hi, base + self.B * r_t))
                n_pins.append((hi, base - self.B * r_t))
            if l_t > 0.0:
                base = float(self._fn._vs[0])
                p_pins.append((lo, base + self.B * l_t))
                n_pins.append((lo, base - self.B * l_t))
            threshold = _B_SHARP * chi_t

        mid = 0.5 * (lo + hi)
        probe = self._candidate(p_pins)
        fvals = np.asarray(probe(x_t), dtype=float)
        row = self.graph.weights[d]
        v_p = float(row @ fvals + u_t[d] + w_t[d])
        take_p = abs(v_p - mid) >= threshold
        if take_p:
            self._fn = probe
        else:
            self._fn = self._candidate(n_pins)
            fvals = np.asarray(self._fn(x_t), dtype=float)
        self.branches.append("p" if take_p else "n")
        self.attacked.append(d)
        self._t += 1
        return fvals

    def advance(self, t: int, x_t, u_t, w_t):
        """(X(t+1), Z(t)) under the branch committed for time t; the committed
        values f(X(t)) are the exact estimates. Overflow is not silenced
        here: run_experiment enters one np.errstate for its whole loop, and
        a direct caller that may overflow enters its own."""
        fvals = self.step(t, x_t, u_t, w_t)
        return self.graph.weights @ fvals + u_t + w_t, fvals
