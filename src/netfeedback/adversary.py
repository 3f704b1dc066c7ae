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
them from a trajectory). The committed pins live in two buffers with free
slots at both ends: a candidate writes its one or two new end pins into the
slots next to the committed ones, checks only the new end segments, and is
evaluated by interpolation over a view, so no function is built per step.

B = 4 / (smallest nonzero weight magnitude); the construction needs a
strongly connected graph whose weights carry a uniform sign. Disturbances are
fixed up front (zero by default) and the attacked node's estimate channel is
the committed function itself, so every branch decision is reproducible.
"""

import math
import sys

import numpy as np

from .dynamics import _next_state
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


def _check_end_pin(bound: float, xe: float, ve: float, x: float, v: float,
                   side: float):
    """The checks that __init__ and _set_pins make of a segment and its tail,
    on the new end segment from the outermost pin (xe, ve) to a new pin
    (x, v) on side +1 (right) or -1 (left), at full slope. The new pin must
    be finite (ValueError) and strictly outside the current pins
    (InvariantError), which for the one new pin per end is also the
    distinct-abscissa check; |dv| <= bound * dx (ValueError) and |dv| =
    bound * dx up to rounding (InvariantError); the tail the segment sets
    within the bound (ValueError)."""
    if not (math.isfinite(x) and math.isfinite(v)):
        raise ValueError("pins must be finite")
    dx = side * (x - xe)
    if not dx > 0.0:
        raise InvariantError("new pins must lie strictly outside the current pins")
    dv = abs(v - ve)
    if dv > bound * dx * (1 + 1e-9) + 1e-12:
        raise ValueError("pins violate the slope bound")
    if abs(dv - bound * dx) > 1e-9 * max(1.0, bound * dx):
        raise InvariantError("committed pins drifted off the +/-B slopes")
    if dv / dx > bound * (1 + 1e-9):
        raise ValueError("tail slopes violate the slope bound")


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


def guard_cap_bound(graph: WeightedDigraph) -> float:
    """The largest guard cap of an adversary run on graph: float max / (4 B).
    The run stops once a state leaves +-cap, so the hull is at most 2 cap
    wide and the pins, at most 1 + B times that width, stay below half the
    float range."""
    return sys.float_info.max / (4.0 * slope_budget(graph))


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


# initial pin slots of an adversary's buffers; each regrow doubles them
_PIN_BUFFER = 256


class OnlineAdversary:
    """Implements the branch-probe-commit protocol against any feedback law.

    Usage per step t (after the law fixed U(t) and with W(t) known):
        fvals = adv.step(t, X(t), U(t), W(t))
        X(t+1) = A @ fvals + U(t) + W(t)
    or, as one plant step, X(t+1), Z(t) = adv.advance(t, X(t), U(t), W(t)),
    which can also write both into given rows.
    It keeps the running hull [lo, hi], i0_width and each step's growth
    chi, all the certificate reads. The committed function only gains pins
    outside the previous hull, so revealed values never change.

    Step 0 builds its candidates with PinnedPiecewiseLinear and seeds two
    pin buffers, abscissae and values, from the committed one; the committed
    pins are buf[l:r], with free slots at both ends. Each later step writes
    the probe's one or two new end pins into slots l-1 and r, checks the new
    end segments at full slope (_check_end_pin) and evaluates f(X(t)) with
    np.interp over the view of the grown pins. If the probe is not taken it
    overwrites the same slots with the mirror values (both add +/-B * growth
    to the same end values) and evaluates again. Committing moves only l and
    r; a side out of slots copies the pins, centred, into buffers twice as
    large. np.interp reads only the pins that bracket each state, and the
    tails are never read (the pins span X(t) and the old hull), so the
    values are those of the whole function. The function property builds a
    PinnedPiecewiseLinear over buf[l:r] when read.

    The outermost pins sit at the running hull's ends: step 0 pins lo and hi
    (one pin when |I_0| = 0), and each later step pins the new hi and/or the
    new lo. So f(prev_hi) and f(prev_lo) are read off the end pins, not
    evaluated, and a taken probe returns the f(X(t)) its probe value used.
    A NaN state never exceeds the hull, so it grows nothing; a NaN at the
    attacked node fails its escape check.
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
        # the probe targets the first out-neighbour of the extreme node; a
        # strongly connected graph gives every node one
        self._target = [graph.out_neighbors(j)[0] for j in range(graph.n)]
        self._rows = list(graph.weights)
        self._xs = self._vs = None   # the pin buffers, from step 0 on
        self._l = self._r = 0        # the committed pins are buf[l:r]
        self._bound = self.B         # the slope bound the pins are checked at
        self._fn: PinnedPiecewiseLinear | None = None

    @property
    def function(self) -> PinnedPiecewiseLinear:
        """The committed function over buf[l:r], built on the first read
        after a step and held until the next step."""
        if self._fn is None:
            if self._xs is None:
                raise ValueError("no branch committed yet; run step(0, ...) first")
            fn = object.__new__(PinnedPiecewiseLinear)
            fn._set_pins(self._bound, self._xs[self._l:self._r],
                         self._vs[self._l:self._r])
            self._fn = fn
        return self._fn

    def certificate(self) -> DivergenceCertificate:
        return DivergenceCertificate(self.i0_width, self.chi)

    def _place(self, xs, vs, size: int):
        """Hold the pins (xs, vs) centred in new buffers of at least size
        slots, with at least one free slot at each end."""
        m = xs.size
        size = max(size, m + 2)
        l = (size - m) // 2
        self._xs, self._vs = np.empty(size), np.empty(size)
        self._xs[l:l + m], self._vs[l:l + m] = xs, vs
        self._l, self._r = l, l + m

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
        fvals, branch, d = (self._first(x_t, u_t, w_t) if t == 0
                            else self._grow(t, x_t, u_t, w_t))
        self.branches.append(branch)
        self.attacked.append(d)
        self._t += 1
        return fvals

    def _first(self, x_t, u_t, w_t):
        """Step 0: the candidates through the pins at lo and hi, built and
        checked by PinnedPiecewiseLinear; seeds the buffers."""
        lo, hi, i0 = self.lo, self.hi, self.i0_width
        d = self._target[int(np.argmax(x_t))]
        p_pins = [(lo, 1.0), (hi, 1.0 + self.B * i0)] if i0 > 0.0 else [(hi, 1.0)]
        fn = PinnedPiecewiseLinear(self.B, p_pins, full_slope=True)
        fvals = np.asarray(fn(x_t), dtype=float)
        v_p = float(self._rows[d] @ fvals + u_t[d] + w_t[d])
        branch = "p" if abs(v_p - 0.5 * (lo + hi)) >= self.sharp + _B_SHARP * i0 else "n"
        if branch == "n":
            fn = PinnedPiecewiseLinear(self.B, [(x, -v) for x, v in p_pins],
                                       full_slope=True)
            fvals = np.asarray(fn(x_t), dtype=float)
        self._fn = fn
        self._place(fn._xs, fn._vs, _PIN_BUFFER)
        return fvals, branch, d

    def _grow(self, t: int, x_t, u_t, w_t):
        """Step t >= 1: the new end pins at hi and/or lo, written into the
        buffers' free end slots."""
        xl = x_t.tolist()
        prev_lo, prev_hi = self.lo, self.hi
        self.hi = hi = max(prev_hi, *xl)
        self.lo = lo = min(prev_lo, *xl)
        r_t, l_t = hi - prev_hi, prev_lo - lo
        chi_t = max(r_t, l_t)
        self.chi.append(chi_t)
        if chi_t <= 0.0:
            raise InvariantError(f"hull did not grow at step {t}")
        d_prev = self.attacked[-1]
        xd = xl[d_prev]
        if not max(xd - prev_hi, prev_lo - xd) > 0.0:
            raise InvariantError(
                f"attacked node {d_prev} failed to escape the hull at step {t}")
        # the target is the out-neighbour of the node at the end that grew more
        d = self._target[xl.index(hi if r_t >= l_t else lo)]
        self._fn = None

        if (l_t > 0.0 and self._l == 0) or (r_t > 0.0 and self._r == self._xs.size):
            self._place(self._xs[self._l:self._r], self._vs[self._l:self._r],
                        2 * self._xs.size)
        xs, vs, l, r = self._xs, self._vs, self._l, self._r
        bound = self._bound
        # the end pins sit at prev_hi and prev_lo (see the class docstring)
        if r_t > 0.0:
            xs[r] = hi
            top, push_r, xe_r = float(vs[r - 1]), self.B * r_t, float(xs[r - 1])
        if l_t > 0.0:
            xs[l - 1] = lo
            bot, push_l, xe_l = float(vs[l]), self.B * l_t, float(xs[l])
        nl, nr = l - (l_t > 0.0), r + (r_t > 0.0)
        row, mid, threshold = self._rows[d], 0.5 * (lo + hi), _B_SHARP * chi_t
        for branch in "pn":   # the probe, then its mirror if it is not taken
            if r_t > 0.0:
                vs[r] = v = top + push_r if branch == "p" else top - push_r
                _check_end_pin(bound, xe_r, top, hi, v, 1.0)
            if l_t > 0.0:
                vs[l - 1] = v = bot + push_l if branch == "p" else bot - push_l
                _check_end_pin(bound, xe_l, bot, lo, v, -1.0)
            fvals = np.interp(x_t, xs[nl:nr], vs[nl:nr])
            if (branch == "n" or abs(float(row @ fvals + u_t[d] + w_t[d]) - mid)
                    >= threshold):
                break
        self._l, self._r = nl, nr
        return fvals, branch, d

    def advance(self, t: int, x_t, u_t, w_t, x_next=None, z=None):
        """(X(t+1), Z(t)) under the branch committed for time t; the committed
        values f(X(t)) are the exact estimates. x_next and z, float64 rows of
        shape (n,) when given, take the two results in place, as in
        PlantModel.advance. Overflow is not silenced here: run_experiment
        enters one np.errstate for its whole loop, and a direct caller that
        may overflow enters its own."""
        fvals = self.step(t, x_t, u_t, w_t)
        return (_next_state(self.graph.weights, fvals, u_t, w_t, x_next),
                np.positive(fvals, z))
