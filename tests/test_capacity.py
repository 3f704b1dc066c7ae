"""Critical-constant machinery: scalar and coupled recursions, the dagger
estimate, and gain sweeps."""

import json
import math

import numpy as np
import pytest

import netfeedback as nf
from netfeedback import (
    estimate_dagger,
    random_strongly_connected,
    simulate_dagger_recursion,
    simulate_scalar_recursion,
    threshold_sweep,
    xie_guo_constant,
)
from netfeedback.cli import main as cli_main

CRIT = 1.5 + math.sqrt(2.0)
XI_STAR = 1.0 + math.sqrt(2.0) / 2.0


# ---- the critical constant ----

def test_constant_closed_form():
    val, xi = xie_guo_constant()
    assert val == pytest.approx(CRIT, abs=1e-9)
    assert xi == pytest.approx(XI_STAR, abs=1e-6)


def test_constant_against_grid_search():
    xi = np.linspace(1.01, 3.0, 40_000)
    obj = (xi**2 - xi / 2.0) / (xi - 1.0)
    k = int(obj.argmin())
    val, minimizer = xie_guo_constant()
    assert obj[k] >= val - 1e-9           # a grid never beats the infimum
    assert obj[k] <= val + 1e-6
    assert abs(xi[k] - minimizer) < 1e-3
    # spot value away from the minimum
    assert (2.0**2 - 1.0) / 1.0 == 3.0


# ---- scalar worst-case recursion ----

def test_scalar_recursion_transition():
    below = simulate_scalar_recursion(2.85, T=100_000)
    above = simulate_scalar_recursion(2.97, T=100_000)
    assert below.verdict == "summable"
    assert above.verdict == "diverging"
    assert above.steps < 100_000  # the growth guard cuts it off early


def test_scalar_recursion_invariants():
    r = simulate_scalar_recursion(2.91, T=5_000)
    assert np.all(r.p >= 0.0) and np.all(r.q >= 0.0)
    np.testing.assert_allclose(r.r, np.maximum(r.p, r.q))
    sums = r.partial_sums
    assert np.all(np.diff(sums) >= -1e-12)
    d = r.to_dict()
    assert d["verdict"] == r.verdict
    assert d["steps"] == r.steps
    assert d["final_sum"] == pytest.approx(float(r.partial_sums[-1]))


def test_zero_absorption_is_permanent():
    r = simulate_scalar_recursion(0.5, omega=0.05, T=2_000)
    assert r.verdict == "summable"
    zeros = np.flatnonzero(r.p == 0.0)
    assert zeros.size > 0
    k = int(zeros[0])
    assert np.all(r.p[k:] == 0.0)
    assert np.all(r.q[k:] == 0.0)


def test_float_resolution_freeze():
    r = simulate_scalar_recursion(2.85, T=100_000)
    # increments shrink below the partial sum's float resolution and the run
    # is cut off as summable rather than spinning for the full horizon
    assert r.frozen
    assert r.steps < 1_000


def test_seeded_slack_mode():
    a = simulate_scalar_recursion(2.85, mode="seeded_slack", seed=4, T=20_000)
    b = simulate_scalar_recursion(2.85, mode="seeded_slack", seed=4, T=20_000)
    c = simulate_scalar_recursion(2.85, mode="seeded_slack", seed=5, T=20_000)
    np.testing.assert_array_equal(a.p, b.p)
    assert not np.array_equal(a.p, c.p)
    assert a.verdict == "summable"  # slack only slows the equality case
    assert np.all(a.p >= 0.0)


def _reference_scalar_recursion(M, mode, T, seed, cap=1e12, omega=1.0, rho=1.0):
    """The per-draw loop: one rng.random() per update, written per step."""
    rng = np.random.default_rng(seed)
    p = np.zeros(T)
    q = np.zeros(T)
    S = 0.0
    peak = 0.0
    frozen = False
    verdict = None
    n_steps = T
    for t in range(T):
        bound = max(M * max(peak, rho) - 0.5 * rho - 0.5 * S + omega, 0.0)
        if mode == "equality":
            pv, qv = bound, 0.0
            if bound == 0.0:
                verdict = "summable"
                break
            if S + bound == S:
                p[t] = bound
                frozen = True
                verdict = "summable"
                n_steps = t + 1
                break
        else:
            pv, qv = bound * rng.random(), bound * rng.random()
        p[t], q[t] = pv, qv
        S += pv + qv
        peak = max(peak, pv, qv)
        if peak > cap:
            verdict = "diverging"
            n_steps = t + 1
            break
    p, q = p[:n_steps], q[:n_steps]
    sums = np.cumsum(p + q)
    if verdict is None:
        verdict = nf.capacity._tail_verdict(np.maximum(p, q))
    res = nf.RecursionResult(p, q, verdict, frozen)
    assert res.partial_sums.tobytes() == sums.tobytes()
    assert res.steps == n_steps
    return res


def _to_dict_by_shape(res):
    """RecursionResult.to_dict with one formula per array shape: the oracle
    for the shape-free formulas."""
    return {
        "verdict": res.verdict,
        "steps": res.steps,
        "frozen": res.frozen,
        "final_sum": (float(res.partial_sums[-1]) if res.partial_sums.ndim == 1
                      else [float(v) for v in res.partial_sums[-1]]),
        "tail_increment": float(res.r[-1] if res.r.ndim == 1 else res.r[-1].max())
        if res.steps else 0.0,
    }


def _assert_same_recursion(got, want):
    for name in ("p", "q", "partial_sums"):
        assert getattr(got, name).tobytes() == getattr(want, name).tobytes(), name
    assert (got.verdict, got.steps, got.frozen) == (want.verdict, want.steps,
                                                    want.frozen)
    # NaN and inf print as NaN and Infinity, so the bytes compare them too
    assert json.dumps(got.to_dict(), sort_keys=True) == json.dumps(
        _to_dict_by_shape(want), sort_keys=True)


class _CountingRng:
    """A Generator stand-in that counts the uniforms drawn through it."""

    def __init__(self, rng):
        self._rng = rng
        self.drawn = 0

    def random(self, size=None):
        self.drawn += 1 if size is None else int(np.prod(size))
        return self._rng.random(size)


def test_block_drawn_recursion_matches_per_draw_loop(monkeypatch):
    block = nf.capacity.SLACK_BLOCK
    outcomes = set()
    for mode in ("equality", "seeded_slack"):
        for M in (2.85, 2.97, 3.5, 10.0):
            for T in (60, block - 1, block, block + 1, 5000, 100_000):
                got = simulate_scalar_recursion(M, mode=mode, T=T, seed=7)
                want = _reference_scalar_recursion(M, mode, T, seed=7)
                _assert_same_recursion(got, want)
                outcomes.add((mode, got.verdict, got.frozen, got.steps == T))
    # absorbed at a zero bound, so steps stays T
    assert ("seeded_slack", "summable", False, True) in outcomes
    assert ("seeded_slack", "diverging", False, False) in outcomes
    assert ("equality", "summable", True, False) in outcomes
    assert ("equality", "diverging", False, False) in outcomes
    # under a cap of inf or NaN the sums overflow to inf and then NaN, which
    # the JSON bytes compare as well
    for mode in ("equality", "seeded_slack"):
        for cap in (math.inf, math.nan):
            got = simulate_scalar_recursion(10.0, mode=mode, T=2000, seed=7, cap=cap)
            _assert_same_recursion(got, _reference_scalar_recursion(
                10.0, mode, 2000, seed=7, cap=cap))
            assert math.isnan(got.to_dict()["final_sum"]), (mode, cap)
    # small blocks put the stops (divergence, freeze) past block boundaries
    late_stops = set()
    for size in (1, 2, 7):
        monkeypatch.setattr(nf.capacity, "SLACK_BLOCK", size)
        for mode, M, T, cap in (("seeded_slack", 10.0, 100, 1e12),
                                ("seeded_slack", 2.85, 50, 1e12),
                                ("seeded_slack", 3.5, 30, 50.0),
                                ("equality", 2.85, 100, 1e12),
                                ("equality", 2.97, 100, 1e12)):
            got = simulate_scalar_recursion(M, mode=mode, T=T, seed=7, cap=cap)
            want = _reference_scalar_recursion(M, mode, T, seed=7, cap=cap)
            _assert_same_recursion(got, want)
            if size == 7 and got.steps < T and got.steps > size and got.steps % size:
                late_stops.add((got.verdict, got.frozen))
    assert late_stops == {("diverging", False), ("summable", True)}
    monkeypatch.setattr(nf.capacity, "SLACK_BLOCK", block)
    # the zero-bound stop in both modes, signed zeros included: the bound is
    # never -0.0, so the +0.0 suffix matches the reference's products
    for mode in ("equality", "seeded_slack"):
        for omega, rho in ((0.0, 1.0), (-0.0, -0.0), (-0.0, 0.0), (0.0, 2.0)):
            zero = simulate_scalar_recursion(0.1, omega=omega, rho=rho, mode=mode,
                                             T=20)
            assert zero.verdict == "summable" and zero.steps == 20
            _assert_same_recursion(zero, _reference_scalar_recursion(
                0.1, mode, 20, 0, omega=omega, rho=rho))
    # a slack run stops at its absorbing zero: one block of uniforms drawn
    # where running to the horizon would draw 2 T
    want = _reference_scalar_recursion(2.85, "seeded_slack", 100_000, seed=12345)
    rngs = []
    default_rng = np.random.default_rng

    def counting_rng(seed):
        rngs.append(_CountingRng(default_rng(seed)))
        return rngs[-1]

    monkeypatch.setattr(nf.capacity.np.random, "default_rng", counting_rng)
    got = simulate_scalar_recursion(2.85, mode="seeded_slack", T=100_000,
                                    seed=12345)
    _assert_same_recursion(got, want)
    assert got.steps == 100_000 and not got.p[-1000:].any()
    assert [r.drawn for r in rngs] == [2 * block]


def test_unknown_mode_rejected():
    with pytest.raises(ValueError):
        simulate_scalar_recursion(2.0, mode="pessimistic")


def test_non_finite_parameters_and_empty_horizons_rejected():
    for bad in ({"M": math.nan}, {"M": math.inf}, {"omega": math.nan},
                {"omega": -math.inf}, {"rho": math.nan}, {"rho": math.inf},
                {"T": 0}):
        with pytest.raises(ValueError):
            simulate_scalar_recursion(**{"M": 2.85, "T": 100, **bad})
    g = nf.build_canonical("cycle", 3)
    for bad in ({"M": math.nan}, {"M": math.inf}, {"omega": math.nan},
                {"omega": math.inf}, {"T": 0}):
        with pytest.raises(ValueError):
            simulate_dagger_recursion(g, **{"M": 2.0, "omega": 1.0, "T": 50, **bad})
    for bad in ({"bracket": (1.0, math.inf)}, {"bracket": (math.nan, 2.0)},
                {"bracket": (1.0, math.nan)}, {"T": 0}):
        with pytest.raises(ValueError):
            estimate_dagger(g, **bad)


def test_burst_ratios_track_the_minimizer_near_criticality():
    r = simulate_scalar_recursion(2.91, T=100_000)
    R = np.cumsum(r.r[r.r > 0.0])   # partial sums over the nonzero bursts
    xi = R[1:] / R[:-1]
    assert np.all(np.diff(R) >= 0.0)
    assert abs(xi[-1] - XI_STAR) < 0.05


# ---- coupled per-node recursion ----

def test_dagger_recursion_floor_gain_summable():
    for seed in range(5):
        g = random_strongly_connected(4, seed=seed)
        M = 1.0 / nf.inf_norm(g)
        for omega in (0.1, 1.0, 10.0):
            res = simulate_dagger_recursion(g, M, omega, T=400)
            assert res.verdict == "summable", (seed, omega)


def test_dagger_recursion_selfloop_below_crit():
    g = nf.build_canonical("single_selfloop", 1, a11=1.0)
    assert simulate_dagger_recursion(g, 2.8, 1.0, T=400).verdict == "summable"


def test_dagger_recursion_large_gain_diverges():
    g = nf.build_canonical("cycle", 4)
    res = simulate_dagger_recursion(g, 10.0, 1.0, T=400)
    assert res.verdict == "diverging"


def test_dagger_recursion_first_step_is_omega():
    g = nf.build_canonical("cycle", 3)
    res = simulate_dagger_recursion(g, 1.0, 0.7, T=50)
    np.testing.assert_allclose(res.p[0], 0.7 * np.ones(3))


def _reference_dagger_recursion(g, M, omega, T, cap=1e12):
    """The two-sequence loop: q iterated beside p with its own history."""
    absA = np.abs(g.weights)
    n = g.n
    p = np.zeros((T, n))
    q = np.zeros((T, n))
    Sp = np.zeros(n)
    Sq = np.zeros(n)
    peak = np.zeros(n)
    frozen = False
    verdict = None
    n_steps = T
    for t in range(T):
        drive = M * (absA @ peak) + omega
        pv = np.maximum(drive - Sp, 0.0)
        qv = np.maximum(drive - Sq, 0.0)
        p[t] = pv
        q[t] = qv
        if not pv.any() and not qv.any():
            verdict = "summable"
            break
        if np.all(Sp + pv == Sp) and np.all(Sq + qv == Sq):
            frozen = True
            verdict = "summable"
            n_steps = t + 1
            break
        Sp += pv
        Sq += qv
        np.maximum(peak, np.maximum(pv, qv), out=peak)
        if peak.max() > cap:
            verdict = "diverging"
            n_steps = t + 1
            break
    p, q = p[:n_steps], q[:n_steps]
    sums = np.cumsum(p + q, axis=0)
    if verdict is None:
        verdict = nf.capacity._tail_verdict(np.maximum(p, q).max(axis=1))
    res = nf.RecursionResult(p, q, verdict, frozen)
    assert res.partial_sums.tobytes() == sums.tobytes()
    assert res.steps == n_steps
    return res


def _dagger_stop(res, T):
    if res.frozen:
        return "frozen"
    if res.steps < T:
        return "cap"
    return "horizon" if res.p[-1].any() else "zero"


def test_single_sequence_dagger_matches_two_sequence_loop():
    graphs = [random_strongly_connected(n, seed=seed)
              for n in (3, 4, 5, 6) for seed in range(5)]
    graphs += [nf.build_canonical("single_selfloop", 1, a11=1.0),
               nf.WeightedDigraph(np.zeros((3, 3)))]
    stops = set()
    for g in graphs:
        nrm = nf.inf_norm(g)
        floor = 1.0 / nrm if nrm > 0 else 1.0
        near = estimate_dagger(g, T=50).estimate
        for M in (floor, near, 10.0):
            for omega in (0.1, 1.0, 10.0):
                for T, cap in ((1, 1e12), (50, 1e12), (400, 1e12), (400, 50.0)):
                    got = simulate_dagger_recursion(g, M, omega, T, cap=cap)
                    want = _reference_dagger_recursion(g, M, omega, T, cap=cap)
                    _assert_same_recursion(got, want)
                    assert got.q is not got.p
                    stops.add(_dagger_stop(want, T))
    # the freeze test never fires: where pv > 0, Sp + pv is the drive itself
    # (Sp <= drive <= 2 Sp makes drive - Sp exact) or above 2 Sp, never Sp
    assert stops == {"zero", "cap", "horizon"}


def test_dagger_recursion_matches_two_sequence_loop_through_overflow():
    # drives that overflow: a cap near the float range stops the run there,
    # while under a cap of inf or NaN the run goes on and NaN spreads, which
    # the float steps must pass on as the numpy loop's elementwise ops do
    nan_seen = False
    for n in (3, 5):
        for seed in range(3):
            g = random_strongly_connected(n, seed=seed)
            for M, omega in ((1e300, 1.0), (1.0, 1e300)):
                for cap in (1.7e308, math.inf, math.nan):
                    with np.errstate(all="ignore"):
                        got = simulate_dagger_recursion(g, M, omega, 300, cap=cap)
                        want = _reference_dagger_recursion(g, M, omega, 300, cap=cap)
                    _assert_same_recursion(got, want)
                    nan_seen |= bool(np.isnan(got.p).any())
    assert nan_seen


# ---- dagger estimate ----

def _assert_estimate_dict(est):
    """to_dict as it read when estimate and omega_grid were stored fields."""
    want = {"estimate": est.m_low, "bracket": [est.m_low, est.m_high],
            "horizon": est.horizon, "omega_grid": [0.1, 1.0, 10.0],
            "iterations": est.iterations,
            "at_bracket_high": est.at_bracket_high, "label": est.label}
    assert json.dumps(est.to_dict(), sort_keys=True) == json.dumps(
        want, sort_keys=True)


def test_estimate_floor_and_reproducibility():
    for seed in range(5):
        g = random_strongly_connected(4, seed=seed)
        est = estimate_dagger(g)
        assert est.estimate >= 1.0 / nf.inf_norm(g) - 1e-6
        _assert_estimate_dict(est)
    g = random_strongly_connected(5, seed=11)
    e1 = estimate_dagger(g)
    e2 = estimate_dagger(g)
    assert e1.estimate == e2.estimate
    assert "heuristic" in e1.label


def test_estimate_unit_selfloop_near_four():
    g = nf.build_canonical("single_selfloop", 1, a11=1.0)
    est = estimate_dagger(g)
    assert 3.5 < est.estimate < 4.5
    assert not est.at_bracket_high


def test_estimate_zero_arc_graph_hits_bracket_top():
    g = nf.WeightedDigraph(np.zeros((3, 3)))
    est = estimate_dagger(g)
    assert est.at_bracket_high
    assert est.estimate == est.m_high
    _assert_estimate_dict(est)


def test_estimate_bracket_validation():
    g = nf.build_canonical("cycle", 3)
    with pytest.raises(ValueError):
        estimate_dagger(g, bracket=(3.0, 2.0))
    with pytest.raises(ValueError):
        estimate_dagger(g, bracket=(0.5, 2.0))  # below the 1/inf_norm floor


# ---- gain sweeps ----

def _selfloop_base():
    return nf.ExperimentConfig({
        "graph": {"kind": "single_selfloop", "n": 1, "a11": 1.0},
        "function": {"kind": "linear", "a": 0.5, "b": 0.0},
        "controller": {"kind": "network_flow", "epsilon": 2e-4},
        "observation": {"mode": "direct", "d0": 0.01, "noise_seed": 2},
        "disturbance": {"w_star": 0.02, "generator": "seeded_uniform", "seed": 5},
        "horizon": 6000,
        "x0": [0.05],
    })


def test_sweep_below_critical_all_stabilized():
    rep = threshold_sweep(_selfloop_base(), [0.5, 1.5, 2.5, 2.85])
    assert all(p["stabilized"] for p in rep["points"])
    assert rep["transition"]["last_stabilized"] == 2.85
    assert rep["transition"]["first_not_stabilized"] is None
    pt = rep["points"][0]
    assert set(pt) >= {"L", "stabilized", "sup_state", "bound", "verdict",
                       "hull_growth", "explore_steps"}
    assert pt["explore_steps"] > 0
    assert len(pt["hull_growth"]["R"]) == 6000


def test_sweep_empty_grid(monkeypatch):
    # an empty grid, or a non-finite gain, is refused before any run, not
    # reported as a sweep; an adversary config has no slope for with_gain to
    # check, so the sweep checks its gains itself
    def refuse(cfg):
        raise AssertionError("the sweep ran before checking its grid")

    monkeypatch.setattr(nf.capacity, "run_experiment", refuse)
    with pytest.raises(ValueError, match="gain"):
        threshold_sweep(_selfloop_base(), [])
    adversary = nf.ExperimentConfig({
        "graph": {"kind": "cycle", "n": 3}, "adversary": True, "horizon": 20,
        "x0": [0.1, 0.2, 0.3]})
    for base in (adversary, _selfloop_base()):
        for gains in ([math.nan], [math.inf], [5.0, -math.inf], [5.0, math.nan]):
            with pytest.raises(ValueError, match="finite"):
                threshold_sweep(base, gains)


def test_sweep_needs_a_trial(monkeypatch):
    def refuse(cfg):
        raise AssertionError("the sweep ran before checking trials")

    monkeypatch.setattr(nf.capacity, "run_experiment", refuse)
    for trials in (0, -1):
        with pytest.raises(ValueError, match="trials"):
            threshold_sweep(_selfloop_base(), [1.0], trials=trials)


def test_sweep_with_adversary_attached():
    # the adversary's slope budget 4/sharp is the cut-off: 4 at a11 = 1, 8 at 0.5
    for a11 in (1.0, 0.5):
        base = nf.ExperimentConfig({
            "graph": {"kind": "single_selfloop", "n": 1, "a11": a11},
            "controller": {"kind": "network_flow", "epsilon": 1e-3},
            "observation": {"mode": "direct", "d0": 0.0, "noise_seed": 2},
            "disturbance": {"w_star": 0.0, "generator": "zero"},
            "adversary": True,
            "horizon": 40,
            "x0": [0.3],
        })
        budget = 4.0 / a11
        assert nf.OnlineAdversary(base.graph, base.x0).B == budget
        rep = threshold_sweep(base, [0.5 * budget, budget])
        below, at = rep["points"]
        assert below["verdict"] == "not_applicable", a11
        assert below["stabilized"] is None
        assert at["verdict"] == "diverged", a11
        assert at["stabilized"] is False


def test_sweep_note_reads_the_adversary_slope_constant(tmp_path, capsys):
    # the not_applicable note is formatted from the adversary's B * sharp;
    # at 4 it prints the text it always printed
    cfg = tmp_path / "adversary.json"
    cfg.write_text(json.dumps({"graph": {"kind": "cycle", "n": 3}, "adversary": True,
                               "horizon": 20, "x0": [0.1, 0.2, 0.3]}))
    assert cli_main(["sweep", "--config", str(cfg), "--L", "1,3.5"]) == 0
    points = json.loads(capsys.readouterr().out)["points"]
    assert [pt["note"] for pt in points] == ["adversary slope is 4/sharp = 4 > L"] * 2
    assert [pt["verdict"] for pt in points] == ["not_applicable"] * 2


def test_sweep_output_is_strict_json_when_the_last_state_overflows():
    # trial 0's last row overflows to inf; the hull takes finite states only,
    # so that row adds no growth and the report holds no Infinity
    base = nf.ExperimentConfig({
        "graph": {"kind": "single_selfloop", "n": 1},
        "function": {"kind": "linear", "a": 1.0}, "horizon": 60,
        "x0": [0.3], "guard_cap": 1e308})
    rep = threshold_sweep(base, [1e10])
    pt = rep["points"][0]
    assert pt["verdict"] == "diverged"
    assert pt["hull_growth"]["R"][-1] == 0.0
    json.dumps(rep, allow_nan=False)
