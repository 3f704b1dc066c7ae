"""Online adversarial plant construction and divergence certificates."""

import math

import numpy as np
import pytest

from netfeedback import (
    DivergenceCertificate,
    ExperimentConfig,
    InvariantError,
    OnlineAdversary,
    PinnedPiecewiseLinear,
    WeightedDigraph,
    build_canonical,
    run_experiment,
)
import netfeedback.adversary
import netfeedback.runner
from netfeedback.adversary import _B_SHARP, _check_end_pin, hull_growth
from netfeedback.graphs import sharp_metric


# ---- pinned piecewise-linear functions ----

def test_pinned_validation():
    with pytest.raises(ValueError):
        PinnedPiecewiseLinear(4.0, [])
    with pytest.raises(ValueError):
        PinnedPiecewiseLinear(4.0, [(0.0, 0.0), (0.0, 1.0)])  # duplicate x
    with pytest.raises(ValueError):
        PinnedPiecewiseLinear(1.0, [(0.0, 0.0), (1.0, 5.0)])  # slope 5 > 1
    # a slope bound must be positive and finite, every pin coordinate finite
    for bound in (0.0, -1.0, math.nan, math.inf):
        with pytest.raises(ValueError, match="slope_bound"):
            PinnedPiecewiseLinear(bound, [(0.0, 0.0)])
    for pins in ([(0.0, math.nan)], [(math.nan, 0.0)], [(math.inf, 0.0)],
                 [(0.0, 0.0), (1.0, -math.inf)]):
        with pytest.raises(ValueError, match="finite"):
            PinnedPiecewiseLinear(4.0, pins)


def test_pinned_interp_and_tails():
    f = PinnedPiecewiseLinear(4.0, [(0.0, 1.0), (1.0, 5.0)])
    assert f(0.5) == 3.0
    # tails default to the adjacent segment slope
    assert f(-1.0) == -3.0
    assert f(2.0) == 9.0
    assert f.quasi_norm() == 4.0
    assert f.pins == ((0.0, 1.0), (1.0, 5.0))


def test_pinned_single_pin_tails():
    # around a single pin the tails form the -/+slope_bound V
    f = PinnedPiecewiseLinear(4.0, [(0.0, 2.0)])
    assert f(-1.0) == 6.0
    assert f(1.0) == 6.0
    assert f.quasi_norm() == 4.0


def test_pinned_vector_evaluation():
    f = PinnedPiecewiseLinear(2.0, [(0.0, 0.0), (2.0, 4.0)])
    np.testing.assert_allclose(f(np.array([-1.0, 1.0, 3.0])), [-2.0, 2.0, 6.0])


def test_extension_rejects_what_a_rebuild_rejects():
    # the adversary checks each new end pin with _check_end_pin, against the
    # outermost committed pin on its side: here those of f, (0, 1) on the
    # left and (1, 5) on the right
    f = PinnedPiecewiseLinear(4.0, [(0.0, 1.0), (1.0, 5.0)])
    left, right = (0.0, 1.0, -1.0), (1.0, 5.0, 1.0)

    def check(end, pin):
        (xe, ve, side), (x, v) = end, pin
        _check_end_pin(4.0, xe, ve, x, v, side)

    # a pin on or inside the current pins, on either side (a pin on an end's
    # abscissa is the one way a one-pin end segment can lose distinctness)
    for end in (left, right):
        for inside in ((0.5, 3.0), (0.0, 1.0), (1.0, 5.0), (1.0, 4.0)):
            with pytest.raises(InvariantError, match="strictly outside"):
                check(end, inside)
    with pytest.raises(ValueError, match="pins violate"):
        check(right, (2.0, 9.5))           # new segment at slope 4.5
    with pytest.raises(ValueError, match="pins violate"):
        check(left, (-1.0, -4.0))          # slope 5 next to the old pins
    with pytest.raises(ValueError, match="pins violate"):
        check((3.0, 9.0, 1.0), (3.5, 11.5))   # slope 5 at a later end
    # a non-finite pin is refused as the constructor refuses it, wherever it
    # would sort: a NaN abscissa is neither left nor right of the old pins
    for bad in (math.nan, math.inf, -math.inf):
        for pin in ((bad, 3.0), (-1.0, bad), (0.5, bad), (2.0, bad), (bad, bad)):
            with pytest.raises(ValueError) as built:
                PinnedPiecewiseLinear(4.0, [(0.0, 1.0), (1.0, 5.0), pin])
            for end in (left, right):
                with pytest.raises(ValueError) as ext:
                    check(end, pin)
                assert type(ext.value) is type(built.value)
                assert str(ext.value) == str(built.value) == "pins must be finite"
    # within the segment slack (1e-12 absolute) but a tail of slope ~10,
    # which _set_pins refuses with the same message
    with pytest.raises(ValueError, match="tail") as ext:
        check(right, (1.0 + 1e-13, 5.0 + 1e-12))
    with pytest.raises(ValueError, match="tail") as built:
        PinnedPiecewiseLinear(4.0, [(0.0, 1.0), (1.0, 5.0), (1.0 + 1e-13, 5.0 + 1e-12)])
    assert str(ext.value) == str(built.value)
    # every new segment must run at full slope, not merely within it
    with pytest.raises(InvariantError, match="drifted"):
        check(right, (2.0, 8.0))
    check(right, (2.0, 9.0))
    check(left, (-1.0, -3.0))
    check(left, (-1.0, 5.0))               # slope -4


def test_extension_matches_a_rebuild():
    # the function over the buffers is bit for bit the constructor's over
    # the same pins, from the single pin of an |I_0| = 0 start (whose V gives
    # way to the first segment) on; its tails follow the end segments
    for g, x0 in ((build_canonical("single_selfloop", 1, a11=1.0), [0.3]),
                  (build_canonical("cycle", 3), [0.3, 0.3, 0.3]),
                  (build_canonical("cycle", 3), [0.2, -0.4, 0.9])):
        adv = OnlineAdversary(g, x0)
        x, zeros = np.asarray(x0, dtype=float), np.zeros(g.n)
        for t in range(8):
            x = g.weights @ adv.step(t, x, zeros, zeros)
            fn = adv.function
            ref = PinnedPiecewiseLinear(adv.B, fn.pins)
            _check_feasible(ref, adv.B)
            assert _bits(fn) == _bits(ref), (x0, t)
            beyond = np.array([adv.lo - 1.0, adv.hi + 1.0])
            assert fn(beyond).tobytes() == ref(beyond).tobytes(), (x0, t)
        assert len(fn.pins) > 2


def test_commit_checks_full_slope(monkeypatch):
    g = build_canonical("cycle", 3)
    x0 = np.array([0.0, 0.5, 1.0])
    adv = OnlineAdversary(g, x0)
    zeros = np.zeros(3)
    x1 = g.weights @ adv.step(0, x0, zeros, zeros)
    pins = adv.function.pins
    # checked at B / 0.9, the new pins sit inside the slope budget, not on it
    check = netfeedback.adversary._check_end_pin
    monkeypatch.setattr(netfeedback.adversary, "_check_end_pin",
                        lambda bound, *pin: check(bound / 0.9, *pin))
    with pytest.raises(InvariantError, match="drifted"):
        adv.step(1, x1, zeros, zeros)
    assert adv.function.pins == pins       # the committed pins are unchanged


# ---- interval ledger ----

class IntervalLedger:
    """Running hull of visited states and its per-step growth, every step
    kept: the oracle of hull_growth and of the adversary's running hull.

    After push t: interval I_t = [y_low[t], y_high[t]], growths
    R[t-1] = y_high[t] - y_high[t-1] and L[t-1] = y_low[t-1] - y_low[t],
    chi[t-1] = max(R, L).
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


def test_interval_ledger_growth_accounting():
    led = IntervalLedger([0.0, 0.5, 1.0])
    assert led.i0_width == 1.0
    assert led.interval(0) == (0.0, 1.0)
    chi = led.push(-1.0, -5.0)   # the state [-5.0, -1.0, -3.0]
    assert chi == 5.0
    assert led.R[-1] == 0.0 and led.L[-1] == 5.0
    assert led.interval(1) == (-5.0, 1.0)
    chi = led.push(19.0, 3.0)    # the state [11.0, 19.0, 3.0]
    assert chi == 18.0
    assert led.interval(2) == (-5.0, 19.0)


def test_interval_width_is_initial_plus_growth():
    rng = np.random.default_rng(8)
    led = IntervalLedger(rng.normal(size=4))
    for _ in range(30):
        x = rng.normal(scale=3.0, size=4)
        led.push(float(x.max()), float(x.min()))
    lo, hi = led.interval(len(led.chi))
    assert hi - lo == pytest.approx(led.i0_width + sum(led.R) + sum(led.L))


def _hull_by_push(x_hist) -> IntervalLedger:
    """The ledger fed each row's finite max and min (-inf and +inf, which
    grow nothing, for a row with no finite state)."""
    rows = [[v for v in row if math.isfinite(v)] for row in np.asarray(x_hist).tolist()]
    led = IntervalLedger(rows[0])
    for row in rows[1:]:
        led.push(max(row, default=-math.inf), min(row, default=math.inf))
    return led


def test_hull_growth_matches_the_push_oracle():
    # seeded rows over signed zeros, ties and the smallest subnormal, with
    # n = 1 and single steps among them; the last row may hold NaN or +-inf
    rng = np.random.default_rng(16)
    values = np.array([0.0, -0.0, 1.0, -1.0, 0.5, 5e-324])
    cases = []
    for _ in range(400):
        x = rng.choice(values, size=(int(rng.integers(2, 7)), int(rng.integers(1, 4))))
        cases.append(x)
        for bad in (math.nan, math.inf, -math.inf):
            one, whole = x.copy(), x.copy()
            one[-1, rng.integers(x.shape[1])] = bad
            whole[-1] = bad
            cases += [one, whole]
    assert any(x.shape == (2, 1) for x in cases)
    # one step from x0 = [0.4, -0.2, 0.1] to rows of NaN, infinities, the cap
    # 1e3, the next float beyond it and signed zeros (the runner's guard
    # cases): the hull's top grows to the largest finite state
    cap = 1e3
    beyond = np.nextafter(cap, math.inf)
    picks = [math.nan, math.inf, -math.inf, cap, -cap, beyond, -beyond,
             0.0, -0.0, 1.0, np.nextafter(cap, 0.0)]
    rows = [[a, b, c] for a in picks for b in (0.0, -0.0, -cap, cap)
            for c in (1.0, math.nan, -beyond, 0.0)]
    rows += [[v, v, v] for v in picks]
    for row in rows:
        x = np.array([[0.4, -0.2, 0.1], row])
        top = max([0.4] + [v for v in row if math.isfinite(v)])
        assert hull_growth(x)["R"] == [top - 0.4], row
        cases.append(x)
    for x in cases:
        led = _hull_by_push(x)
        assert repr(hull_growth(x)) == repr({"R": led.R, "L": led.L}), x


# ---- certificates ----

def test_certificate_energy_series():
    cert = DivergenceCertificate(1.0, (4.0, 11.5))
    np.testing.assert_allclose(cert.E, [0.5, 4.5, 16.0])
    assert cert.verdict  # 16 > 2 * 4.5


def test_certificate_needs_two_growth_steps():
    assert not DivergenceCertificate(1.0, (4.0,)).verdict
    assert not DivergenceCertificate(1.0, ()).verdict


def _certificate_by_running_sum(i0_width, chi):
    """The certificate's former loop, kept as the oracle of its cumsum."""
    i0_width = float(i0_width)
    chi = tuple(float(c) for c in chi)
    acc = i0_width / 2.0
    e = [acc]
    run = 0.0
    for c in chi:
        run += c
        e.append(acc + run)
    verdict = (len(chi) >= 2 and
               all(e[t + 1] > 2.0 * e[t] for t in range(1, len(e) - 1)))
    return {"I0_width": i0_width, "chi": list(chi), "E": e,
            "verdict": "pass" if verdict else "fail"}


def test_certificate_cumsum_matches_the_running_sum():
    # widths are >= +0.0 (a difference of equal floats is +0.0); chi may
    # hold zeros of either sign, and sums that round differently when
    # regrouped, so the order of the additions shows in the bits
    rng = np.random.default_rng(13)
    cases = [(0.0, ()), (1.0, (4.0,)), (1.0, (4.0, 11.5)), (0.0, (0.0, 0.0)),
             (0.0, (-0.0, 0.0, -0.0)), (0.3, (0.1, 0.2, 0.3, 1e16, 1.0, 1.0))]
    for k in range(200):
        steps = int(rng.integers(0, 12))
        chi = rng.exponential(size=steps) * 10.0 ** rng.integers(-3, 4, size=steps)
        chi[rng.random(steps) < 0.3] = 0.0
        if k % 2:                          # a doubling series
            chi = np.cumsum(np.full(steps, 3.0)) * chi.max(initial=1.0) + chi
        cases.append((float(rng.exponential()) * (k % 3 != 0), chi.tolist()))
    verdicts = set()
    for i0_width, chi in cases:
        got = DivergenceCertificate(i0_width, chi).to_dict()
        want = _certificate_by_running_sum(i0_width, chi)
        assert repr(got) == repr(want), (i0_width, chi)
        verdicts.add(got["verdict"])
    assert verdicts == {"pass", "fail"}


def test_certificate_fails_without_doubling():
    cert = DivergenceCertificate(1.0, (4.0, 3.0))
    np.testing.assert_allclose(cert.E, [0.5, 4.5, 7.5])
    assert not cert.verdict
    d = cert.to_dict()
    assert d["verdict"] == "fail"
    assert d["chi"] == [4.0, 3.0]


# ---- the online protocol, frozen three-node trace ----

def _drive(adv, g, x0, steps):
    """Zero-control closed loop; returns the state history."""
    x = np.asarray(x0, dtype=float)
    hist = [x.copy()]
    zeros = np.zeros(g.n)
    for t in range(steps):
        fvals = adv.step(t, x, zeros, zeros)
        x = g.weights @ fvals
        hist.append(x.copy())
    return np.asarray(hist)


def test_three_cycle_trace():
    g = build_canonical("cycle", 3)
    x0 = [0.0, 0.5, 1.0]
    adv = OnlineAdversary(g, x0)
    assert adv.B == 4.0

    hist = _drive(adv, g, x0, 3)
    np.testing.assert_allclose(hist[1], [-5.0, -1.0, -3.0])
    np.testing.assert_allclose(hist[2], [11.0, 19.0, 3.0])

    assert adv.branches[:2] == ["n", "p"]
    assert adv.attacked[:2] == [0, 1]

    cert = adv.certificate()
    assert cert.chi[:2] == (5.0, 18.0)
    np.testing.assert_allclose(cert.E[:3], [0.5, 5.5, 23.5])
    assert cert.verdict


def test_committed_values_never_change():
    g = build_canonical("cycle", 3)
    x0 = [0.0, 0.5, 1.0]
    adv = OnlineAdversary(g, x0)
    hist = _drive(adv, g, x0, 2)
    f = adv.function
    probe = np.array([0.0, 0.5, 1.0, -5.0, -3.0])
    before = f(probe)
    np.testing.assert_allclose(before, [-1.0, -3.0, -5.0, 19.0, 11.0])

    # keep driving; the function may gain pins but agrees on old points
    x = hist[-1]
    zeros = np.zeros(3)
    for t in range(2, 8):
        fvals = adv.step(t, x, zeros, zeros)
        x = g.weights @ fvals
    np.testing.assert_array_equal(adv.function(probe), before)


def test_committed_slopes_within_budget():
    g = build_canonical("cycle", 3)
    adv = OnlineAdversary(g, [0.0, 0.5, 1.0])
    _drive(adv, g, [0.0, 0.5, 1.0], 8)
    pins = np.asarray(adv.function.pins)
    slopes = np.diff(pins[:, 1]) / np.diff(pins[:, 0])
    assert np.all(np.abs(slopes) <= adv.B * (1 + 1e-9))
    assert adv.function.quasi_norm() <= adv.B * (1 + 1e-9)


def test_attacked_node_escapes_every_step():
    g = build_canonical("cycle", 3)
    x0 = [0.2, -0.4, 0.9]
    adv = OnlineAdversary(g, x0)
    hist = _drive(adv, g, x0, 10)
    led = IntervalLedger(hist[0])
    for t in range(1, 10):
        lo, hi = led.interval(t - 1)
        led.push(float(hist[t].max()), float(hist[t].min()))
        xd = hist[t][adv.attacked[t - 1]]
        assert xd > hi or xd < lo
    # step 9 saw X(9): the adversary's running hull is the oracle's last
    assert (adv.lo, adv.hi) == led.interval(9) and adv.chi == led.chi


def test_certified_doubling_on_longer_run():
    g = build_canonical("cycle", 4)
    x0 = [0.0, 0.25, -0.3, 0.1]
    adv = OnlineAdversary(g, x0)
    _drive(adv, g, x0, 12)
    cert = adv.certificate()
    assert len(cert.chi) >= 2
    assert cert.verdict
    # energies at least double each recorded step
    E = cert.E
    assert all(E[t + 1] > 2.0 * E[t] for t in range(1, len(E) - 1))


def test_degenerate_start_single_pin():
    g = build_canonical("single_selfloop", 1, a11=1.0)
    adv = OnlineAdversary(g, [0.3])
    hist = _drive(adv, g, [0.3], 6)
    assert adv.i0_width == 0.0
    assert np.isfinite(hist).all()
    assert adv.certificate().chi[0] > 0.0


def test_nan_state_grows_no_hull():
    # X(1) = [-5, -1, -3] on the three-cycle trace; node 0 is attacked
    g = build_canonical("cycle", 3)
    zeros = np.zeros(3)
    for bad, grows in ((1, True), (0, False)):
        adv = OnlineAdversary(g, [0.0, 0.5, 1.0])
        x1 = g.weights @ adv.step(0, np.array([0.0, 0.5, 1.0]), zeros, zeros)
        assert adv.attacked == [0]
        x1[bad] = math.nan
        if not grows:
            with pytest.raises(InvariantError, match="escape"):
                adv.step(1, x1, zeros, zeros)
            continue
        fvals = adv.step(1, x1, zeros, zeros)
        assert (adv.lo, adv.hi) == (-5.0, 1.0) and adv.chi == [5.0]
        assert math.isnan(fvals[1]) and np.isfinite(fvals[[0, 2]]).all()


def test_adversary_preconditions():
    with pytest.raises(ValueError):
        OnlineAdversary(WeightedDigraph(np.zeros((2, 2))), [0.0, 0.0])
    mixed = WeightedDigraph([[0.0, -1.0], [2.0, 0.0]])
    with pytest.raises(ValueError):
        OnlineAdversary(mixed, [0.0, 0.0])
    path = build_canonical("path_root_selfloop", 3)
    with pytest.raises(ValueError):
        OnlineAdversary(path, [0.0, 0.0, 0.0])
    g = build_canonical("cycle", 3)
    with pytest.raises(ValueError):
        OnlineAdversary(g, [0.0, 0.0])


def test_non_finite_start_is_refused():
    # X(0) must be finite; a NaN would otherwise sort nowhere in the hull
    g = build_canonical("cycle", 3)
    zeros = np.zeros(3)
    for x0 in ([math.nan, 0.0, 1.0], [math.nan] * 3, [math.inf, 0.0, 1.0]):
        with pytest.raises(ValueError):
            adv = OnlineAdversary(g, x0)
            adv.step(0, np.array(x0), zeros, zeros)


def test_steps_must_be_sequential():
    g = build_canonical("cycle", 3)
    x0 = np.array([0.0, 0.5, 1.0])
    adv = OnlineAdversary(g, x0)
    zeros = np.zeros(3)
    with pytest.raises(ValueError):
        adv.step(1, x0, zeros, zeros)
    adv.step(0, x0, zeros, zeros)
    with pytest.raises(ValueError):
        adv.step(0, x0, zeros, zeros)


def test_step_shape_validation():
    g = build_canonical("cycle", 3)
    adv = OnlineAdversary(g, [0.0, 0.5, 1.0])
    with pytest.raises(ValueError):
        adv.step(0, np.zeros(2), np.zeros(3), np.zeros(3))


def test_function_unavailable_before_first_step():
    g = build_canonical("cycle", 3)
    adv = OnlineAdversary(g, [0.0, 0.5, 1.0])
    with pytest.raises(ValueError):
        adv.function


# ---- end-extension against the full rebuild it replaced ----

def _check_feasible(fn, B):
    """Every committed segment must run at +/-B, checked over all pins."""
    xs = np.array([p[0] for p in fn.pins])
    vs = np.array([p[1] for p in fn.pins])
    if xs.size < 2:
        return
    dx = np.diff(xs)
    dv = np.diff(vs)
    if np.any(np.abs(np.abs(dv) - B * dx) > 1e-9 * np.maximum(1.0, B * dx)):
        raise InvariantError("committed pins drifted off the +/-B slopes")


class _EvalAdversary:
    """The evaluating reference adversary, standalone: each candidate is a
    new function whose pin arrays are the committed ones with the new pins
    concatenated at the ends; the hull comes from numpy's max and min of
    X(t); f(prev_hi), f(prev_lo) and the returned f(X(t)) are calls of the
    committed function, so a taken probe is evaluated at X(t) a second time.
    It records the first candidate of each step, the probe."""

    def __init__(self, graph, x0):
        x0 = np.asarray(x0, dtype=float)
        self.graph = graph
        self.sharp = sharp_metric(graph)
        self.B = _B_SHARP / self.sharp
        self.lo, self.hi = float(x0.min()), float(x0.max())
        self.i0_width = self.hi - self.lo
        self.chi, self.branches, self.attacked, self.probes = [], [], [], []
        self.function = None

    def certificate(self):
        return DivergenceCertificate(self.i0_width, self.chi)

    def _candidate(self, new_pins):
        if self.function is None:
            fn = PinnedPiecewiseLinear(self.B, new_pins)
            _check_feasible(fn, self.B)
            return fn
        xs, vs = self.function._xs, self.function._vs
        left = sorted(p for p in new_pins if p[0] < xs[0])
        right = sorted(p for p in new_pins if p[0] > xs[-1])
        assert len(left) + len(right) == len(new_pins)
        fn = object.__new__(PinnedPiecewiseLinear)
        fn._set_pins(self.B,
                     np.concatenate(([p[0] for p in left], xs, [p[0] for p in right])),
                     np.concatenate(([p[1] for p in left], vs, [p[1] for p in right])))
        return fn

    def _pick_target(self, x, prefer_max):
        return self.graph.out_neighbors(int(np.argmax(x) if prefer_max else np.argmin(x)))[0]

    def step(self, t, x_t, u_t, w_t):
        x_t = np.asarray(x_t, dtype=float)
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
            self.chi.append(max(r_t, l_t))
            d = self._pick_target(x_t, prefer_max=(r_t >= l_t))
            p_pins, n_pins = [], []
            for end, prev, growth in ((hi, prev_hi, r_t), (lo, prev_lo, l_t)):
                if growth > 0.0:
                    base = self.function(prev)
                    p_pins.append((end, base + self.B * growth))
                    n_pins.append((end, base - self.B * growth))
            threshold = _B_SHARP * self.chi[-1]
        mid = 0.5 * (lo + hi)
        probe = self._candidate(p_pins)
        self.probes.append(probe)
        row = self.graph.weights[d]
        v_p = float(row @ np.asarray(probe(x_t), dtype=float) + u_t[d] + w_t[d])
        take_p = abs(v_p - mid) >= threshold
        self.function = probe if take_p else self._candidate(n_pins)
        self.branches.append("p" if take_p else "n")
        self.attacked.append(d)
        return np.asarray(self.function(x_t), dtype=float)

    def advance(self, t, x_t, u_t, w_t, x_next, z):
        fvals = self.step(t, x_t, u_t, w_t)
        x_next[:], z[:] = self.graph.weights @ fvals + u_t + w_t, fvals
        return x_next, z


class _RebuildAdversary(_EvalAdversary):
    """The reference: as _EvalAdversary, but every candidate is rebuilt from
    all pins by the constructor and checked segment by segment, at full
    slope by _check_feasible."""

    def _candidate(self, new_pins):
        pins = list(new_pins)
        if self.function is not None:
            pins.extend(self.function.pins)
        fn = PinnedPiecewiseLinear(self.B, pins)
        _check_feasible(fn, self.B)
        return fn


def _bits(fn):
    return (fn._xs.tobytes(), fn._vs.tobytes(),
            np.float64(fn._lslope).tobytes(), np.float64(fn._rslope).tobytes())


def _probe_value(adv, probe, d, x, u, w):
    return float(adv.graph.weights[d] @ np.asarray(probe(x), dtype=float) + u[d] + w[d])


def _spy_end_pins(monkeypatch) -> list:
    """Record each new end pin (x, v) that OnlineAdversary.step checks, in
    the order it writes them: a step's probe pins, then, if the probe is
    not taken, the mirror pins in the same slots."""
    pins = []
    check = netfeedback.adversary._check_end_pin

    def spy(bound, xe, ve, x, v, side):
        pins.append((x, v))
        return check(bound, xe, ve, x, v, side)

    monkeypatch.setattr(netfeedback.adversary, "_check_end_pin", spy)
    return pins


def _probe_from_pins(adv, committed, new_pins):
    """The probe as a function: the committed pins before the step plus the
    probe's new end pins, with the tails _set_pins derives."""
    pts = sorted(committed + tuple(new_pins))
    fn = object.__new__(PinnedPiecewiseLinear)
    fn._set_pins(adv.B, np.array([p[0] for p in pts]), np.array([p[1] for p in pts]))
    return fn


def test_extension_replays_full_rebuild_bit_for_bit(monkeypatch):
    # the step writes no probe object: its probe is read off the end pins it
    # checks (the first of them in a step are the probe's); step 0's probe
    # grows the seed pin, +1 at lo, to hi
    written = _spy_end_pins(monkeypatch)
    both_sides = single_pin = 0
    branches = set()
    starts = [(kind, {"seed": 3, "scale": 1.0})
              for kind in ("zero", "network_flow", "local_flow")]
    starts.append(("network_flow", [0.3, 0.3, 0.3]))   # |I_0| = 0
    for kind, x0 in starts:
        cfg = ExperimentConfig({"graph": {"kind": "cycle", "n": 3}, "adversary": True,
                                "controller": {"kind": kind}, "horizon": 2000,
                                "x0": x0})
        res = run_experiment(cfg)
        x, u, z, w = res.x_hist, res.u_hist, res.z_hist, res.w_hist
        new = OnlineAdversary(cfg.graph, x[0])
        ref = _RebuildAdversary(cfg.graph, x[0])
        led = IntervalLedger(x[0])
        lo = hi = float(x[0].min())
        committed = ((lo, 1.0),)
        for t in range(res.summary["steps_run"]):
            written.clear()
            fv_new = new.step(t, x[t], u[t], w[t])
            fv_ref = ref.step(t, x[t], u[t], w[t])
            assert fv_new.tobytes() == fv_ref.tobytes() == z[t].tobytes(), (kind, t)
            assert _bits(new.function) == _bits(ref.function), (kind, t)
            assert new.branches[-1] == ref.branches[-1], (kind, t)
            assert new.attacked[-1] == ref.attacked[-1], (kind, t)
            # one new pin per hull end that moved; before step 0 the hull is
            # the seed pin's
            grown = len(ref.probes[-1].pins) - len(committed)
            prev_lo, prev_hi = lo, hi
            lo, hi = min(lo, float(x[t].min())), max(hi, float(x[t].max()))
            assert grown == (hi > prev_hi) + (lo < prev_lo), (kind, t)
            assert len(written) == grown * (1 if new.branches[-1] == "p" else 2)
            probe = _probe_from_pins(new, committed, written[:grown])
            assert _bits(probe) == _bits(ref.probes[-1]), (kind, t)
            d = new.attacked[-1]
            assert _probe_value(new, probe, d, x[t], u[t], w[t]) == \
                _probe_value(ref, ref.probes[-1], d, x[t], u[t], w[t])
            # X(t) lies between the outermost pins of the probe and of the
            # committed function, so neither reads its tails
            for fn in (ref.probes[-1], new.function):
                assert fn._xs[0] <= x[t].min() and x[t].max() <= fn._xs[-1], (kind, t)
            branches.add(new.branches[-1])
            if t > 0:
                led.push(float(x[t].max()), float(x[t].min()))
                both_sides += led.R[-1] > 0.0 and led.L[-1] > 0.0
            single_pin += t == 0 and len(new.function.pins) == 1
            committed = new.function.pins
        assert new.function.pins == ref.function.pins
        assert new.certificate().to_dict() == res.certificate.to_dict()
    assert both_sides > 0          # new pins at both ends in one step
    assert branches == {"p", "n"}
    assert single_pin == 1         # the |I_0| = 0 start


def test_a_run_builds_no_function(monkeypatch):
    # every step, step 0 included, commits into the pin buffers: a run calls
    # the constructor of PinnedPiecewiseLinear not once
    calls = []
    init = PinnedPiecewiseLinear.__init__

    def spy(self, *args, **kwargs):
        calls.append(args)
        return init(self, *args, **kwargs)

    monkeypatch.setattr(PinnedPiecewiseLinear, "__init__", spy)
    for x0 in ({"seed": 3, "scale": 1.0}, [0.3] * 3):
        res = run_experiment(ExperimentConfig({
            "graph": {"kind": "cycle", "n": 3}, "adversary": True,
            "controller": {"kind": "network_flow"}, "horizon": 2000, "x0": x0}))
        assert res.summary["steps_run"] > 1
    assert calls == []


def _adversary_configs():
    """Adversary runs to the 1e300 guard: every flow law on cycle:3 and
    cycle:5, from a seeded x0 and from an x0 with |I_0| = 0."""
    for n in (3, 5):
        for kind in ("zero", "network_flow", "local_flow", "max_enhanced"):
            for x0 in ({"seed": 3, "scale": 1.0}, [0.3] * n):
                yield ExperimentConfig({"graph": {"kind": "cycle", "n": n},
                                        "adversary": True,
                                        "controller": {"kind": kind},
                                        "horizon": 2000, "x0": x0})


def test_end_pins_are_the_hull_ends(monkeypatch):
    # step reads f(prev_hi) and f(prev_lo) off the end pins, so those pins
    # must sit at the running hull's ends after every step
    for cfg in _adversary_configs():
        res = run_experiment(cfg)
        x, u, z, w = res.x_hist, res.u_hist, res.z_hist, res.w_hist
        adv = OnlineAdversary(cfg.graph, x[0])
        for t in range(res.summary["steps_run"]):
            assert adv.step(t, x[t], u[t], w[t]).tobytes() == z[t].tobytes()
            fn = adv.function
            assert fn._xs[0] == adv.lo and fn._xs[-1] == adv.hi, (cfg.graph.n, t)
            assert float(fn._vs[0]) == fn(adv.lo) and float(fn._vs[-1]) == fn(adv.hi)
        # the evaluating step gives the same run, bit for bit
        with monkeypatch.context() as m:
            m.setattr(netfeedback.runner, "OnlineAdversary", _EvalAdversary)
            ref = run_experiment(cfg)
        for name in ("x_hist", "z_hist", "u_hist"):
            assert getattr(res, name).tobytes() == getattr(ref, name).tobytes(), name
        assert res.branches == ref.branches
        assert res.certificate.to_dict() == ref.certificate.to_dict()


def test_advance_into_rows_matches_step_and_the_plant_equation():
    # two adversaries fed the same steps of a run: one writes X(t+1) and
    # Z(t) into rows of a table and returns those rows, the other takes
    # f(X(t)) from step and X(t+1) = A f(X(t)) + U(t) + W(t) as written, with
    # the same bits; the last step overflows to inf and NaN
    cfg = next(_adversary_configs())
    res = run_experiment(cfg)
    assert res.summary["guard_tripped"]
    x, u, w = res.x_hist, res.u_hist, res.w_hist
    plant, twin = (OnlineAdversary(cfg.graph, x[0]) for _ in range(2))
    steps = res.summary["steps_run"] - 1   # the guard stopped the last one
    table = np.full((2 * steps + 2, x.shape[1]), 7.0)
    for t in range(steps + 1):
        last = t == steps
        u_t = np.array([np.inf, np.inf, 0.0]) if last else u[t]
        w_t = np.array([-np.inf, 0.0, 0.0]) if last else w[t]
        with np.errstate(over="ignore", invalid="ignore"):
            rows = table[2 * t], table[2 * t + 1]
            got = plant.advance(t, x[t], u_t, w_t, *rows)
            fvals = twin.step(t, x[t], u_t, w_t)
            want = cfg.graph.weights @ fvals + u_t + w_t, fvals
        assert got[0] is rows[0] and got[1] is rows[1], t
        assert [a.tobytes() for a in got] == [a.tobytes() for a in want], t
        if not last:
            assert got[0].tobytes() == x[t + 1].tobytes(), t
    assert np.isnan(got[0][0]) and np.isinf(got[0][1])
    assert plant.branches == twin.branches
    assert plant.branches[:steps] == list(res.branches[:steps])


def test_pin_buffers_regrow_at_both_ends(monkeypatch):
    # from one-slot buffers the pins are copied into larger ones again and
    # again, at either end, the |I_0| = 0 starts included; the run, the
    # committed function and the certificate keep every bit
    grown = []
    place = OnlineAdversary._place

    def spy(self, xs, vs, size):
        if hasattr(self, "_xs"):      # a regrow, not the seeding in __init__
            grown.append((self._l == 0, self._r == self._xs.size))
        return place(self, xs, vs, size)

    def replay(res):
        x, u, w = res.x_hist, res.u_hist, res.w_hist
        adv = OnlineAdversary(res.config.graph, x[0])
        for t in range(res.summary["steps_run"]):
            adv.step(t, x[t], u[t], w[t])
        return _bits(adv.function)

    runs = [(cfg, res, replay(res))
            for cfg, res in ((c, run_experiment(c)) for c in _adversary_configs())]
    monkeypatch.setattr(netfeedback.adversary, "_PIN_BUFFER", 1)
    monkeypatch.setattr(OnlineAdversary, "_place", spy)
    ends, flat_starts = set(), 0
    for cfg, res, bits in runs:
        grown.clear()
        small = run_experiment(cfg)
        for name in ("x_hist", "z_hist", "u_hist"):
            assert getattr(small, name).tobytes() == getattr(res, name).tobytes(), name
        assert small.branches == res.branches
        assert small.certificate.to_dict() == res.certificate.to_dict()
        assert replay(small) == bits
        assert grown, (cfg.graph.n, cfg.controller.kind, cfg.x0)
        ends |= {side for left, right in grown
                 for side, full in (("left", left), ("right", right)) if full}
        flat_starts += cfg.x0.min() == cfg.x0.max()
    assert ends == {"left", "right"}
    assert flat_starts == 8


def test_adversary_growth_is_the_sweeps_hull_growth():
    # runs that trip the 1e300 guard: X(steps_run), the row past the guard
    # that the adversary never saw, is left out; [0.3] * 3 has |I_0| = 0
    for kind in ("zero", "network_flow", "local_flow", "max_enhanced"):
        for x0 in ({"seed": 3, "scale": 1.0}, {"seed": 5, "scale": 1.0},
                   [0.3, 0.3, 0.3]):
            cfg = ExperimentConfig({"graph": {"kind": "cycle", "n": 3},
                                    "adversary": True, "controller": {"kind": kind},
                                    "horizon": 2000, "x0": x0})
            res = run_experiment(cfg)
            steps = res.summary["steps_run"]
            assert res.summary["guard_tripped"] and steps < 2000, (kind, x0)
            growth = hull_growth(res.x_hist[:steps])
            want = [max(r, l) for r, l in zip(growth["R"], growth["L"])]
            assert repr(list(res.certificate.chi)) == repr(want), (kind, x0)
            assert len(want) == steps - 1
