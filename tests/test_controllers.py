"""Feedback laws: witness selection, branch logic, and small frozen cases."""

import gc
import weakref
from fractions import Fraction

import numpy as np
import pytest

from netfeedback import (
    Controller,
    ControllerSpec,
    EnhancedFlowView,
    ExperimentConfig,
    ExtremeLedger,
    FlowLog,
    LocalFlowView,
    WeightedDigraph,
    build_canonical,
    control_cycle,
    control_local_flow,
    control_max_enhanced,
    control_network_flow,
    control_path_root,
    enhanced_witness,
    global_witnesses,
    WitnessIndex,
    local_witness,
    random_strongly_connected,
    run_experiment,
    run_extreme_consensus,
    wrap_index,
)
from netfeedback import controllers


def _log(rows_x, rows_z=None, rows_u=None):
    rows_x = [np.asarray(r, dtype=float) for r in rows_x]
    n = rows_x[0].size
    log = FlowLog(n)
    log.append(rows_x[0])
    for k, x in enumerate(rows_x[1:]):
        z = rows_z[k] if rows_z else np.zeros(n)
        u = rows_u[k] if rows_u else np.zeros(n)
        log.append(x, z=z, u=u)
    return log


def test_controller_spec_validation():
    assert ControllerSpec("network_flow_local_decision").kind == "network_flow"
    with pytest.raises(ValueError):
        ControllerSpec("pid")
    with pytest.raises(ValueError):
        ControllerSpec("network_flow", epsilon=0.0)


def test_wrap_index():
    assert wrap_index(4, 3) == 1
    assert wrap_index(0, 3) == 3
    assert wrap_index(-1, 3) == 2
    assert wrap_index(3, 3) == 3
    assert wrap_index(1, 5) == 1
    with pytest.raises(ValueError):
        wrap_index(1, 0)


def test_extreme_ledger():
    led = ExtremeLedger()
    led.update([1.0, -2.0])
    led.update([0.5, 3.0])
    assert led.high == 3.0 and led.low == -2.0
    assert led.midpoint == 0.5


# ---- witness selection ----

def test_global_witness_earliest_time_tie():
    log = _log([[1.0, 3.0], [3.0, 1.0], [3.0, 3.0]],
               rows_z=[[10.0, 20.0], [30.0, 40.0]])
    w = global_witnesses(log, 2)
    # node 0's query 3.0 is matched exactly at (t=0, node 1) and (t=1, node 0);
    # the earlier time wins
    assert (w.time[0], w.node[0]) == (0, 1)
    assert w.fhat[0] == 20.0
    assert w.dist[0] == 0.0


def test_global_witness_lowest_node_tie():
    log = _log([[1.0, 3.0], [2.0, 2.0]], rows_z=[[11.0, 22.0]])
    w = global_witnesses(log, 1).record(0)
    # query 2.0 is equidistant from both time-0 states; lowest node wins
    assert (w.node, w.time) == (0, 0)
    assert w.fhat == 11.0 and w.dist == 1.0


def test_global_witness_needs_history():
    log = _log([[0.0, 0.0]])
    with pytest.raises(ValueError):
        global_witnesses(log, 0)


def test_local_witness_cannot_see_non_neighbors():
    g = build_canonical("cycle", 3)  # node 0 sees {0, 2}
    log = _log([[0.0, 0.9, 10.0], [1.0, 0.9, 10.0]],
               rows_z=[[100.0, 5.0, 7.0]])
    w = local_witness(LocalFlowView(log, g, 0), 0, 1)
    # node 1's state 0.9 is the globally nearest value but is invisible here
    assert w.node == 0
    assert w.dist == 1.0
    assert w.fhat == 100.0


def test_enhanced_witness_prefers_neighborhood_on_ties():
    g = build_canonical("cycle", 3)
    log = _log([[3.0, 0.0, 50.0], [3.0, 0.0, 50.0]],
               rows_z=[[6.0, 0.0, 9.0]])
    view = EnhancedFlowView(LocalFlowView(log, g, 0),
                            x_max=[3.0, 3.0], x_min=[-70.0, -70.0],
                            z_at_max=[123.0], z_at_min=[0.0])
    w = enhanced_witness(view, 0, 1)
    # the time-0 extreme record matches exactly too, but own state comes first
    assert w.node == 0 and w.fhat == 6.0


def test_enhanced_witness_uses_extreme_when_closer():
    g = build_canonical("cycle", 3)
    log = _log([[3.0, 0.0, 50.0], [90.0, 0.0, 50.0]],
               rows_z=[[6.0, 0.0, 9.0]])
    view = EnhancedFlowView(LocalFlowView(log, g, 0),
                            x_max=[89.0, 89.0], x_min=[-70.0, -70.0],
                            z_at_max=[123.0], z_at_min=[0.0])
    w = enhanced_witness(view, 0, 1)
    assert w.node is None
    assert w.fhat == 123.0
    assert w.dist == 1.0


# ---- control laws, small frozen cases ----

def test_network_flow_accurate_branch_cancels():
    g = build_canonical("cycle", 2)
    log = _log([[1.0, 2.0], [1.0, 2.0]], rows_z=[[10.0, 20.0]])
    led = ExtremeLedger()
    led.update([1.0, 2.0])
    led.update([1.0, 2.0])
    branches = []
    u = control_network_flow(log, g, led, 0.1, 1, branches)
    np.testing.assert_array_equal(u, [-20.0, -10.0])
    assert branches == [False]


def test_network_flow_explore_branch_recentres():
    g = build_canonical("cycle", 2)
    log = _log([[1.0, 2.0], [1.5, 2.0]], rows_z=[[10.0, 20.0]])
    led = ExtremeLedger()
    led.update([1.0, 2.0])
    led.update([1.5, 2.0])
    branches = []
    u = control_network_flow(log, g, led, 1e-3, 1, branches)
    # node 0's witness is 0.5 away, so the midpoint 1.5 is added everywhere
    np.testing.assert_allclose(u, [-20.0 + 1.5, -10.0 + 1.5])
    assert branches == [True]


def test_network_flow_time_zero_is_silent():
    g = build_canonical("cycle", 2)
    log = _log([[1.0, 2.0]])
    u = control_network_flow(log, g, ExtremeLedger(), 0.1, 0)
    np.testing.assert_array_equal(u, [0.0, 0.0])


def test_path_root_only_root_acts():
    log = _log([[1.0, 9.0], [3.0, 9.0]], rows_z=[[5.0, 0.0]])
    u = control_path_root(log, 1)
    np.testing.assert_array_equal(u, [-5.0 + 2.0, 0.0])
    np.testing.assert_array_equal(control_path_root(log, 0), [0.0, 0.0])


def test_cycle_law_rotating_diagonal():
    log = _log([[1.0, 2.0], [3.0, 4.0]], rows_z=[[7.0, 8.0]])
    u = control_cycle(log, 1)
    # node 0 works on the diagonal (x_0(0), x_1(1)) = (1, 4), witness time 0;
    # node 1 on (x_1(0), x_0(1)) = (2, 3)
    np.testing.assert_allclose(u, [-7.0 + 2.5, -8.0 + 2.5])


def test_local_flow_anchors_on_own_start():
    g = build_canonical("cycle", 3)
    log = _log([[0.0, 0.9, 10.0], [1.0, 0.9, 10.0]],
               rows_z=[[100.0, 5.0, 7.0]])
    view = LocalFlowView(log, g, 0)
    # neighbor 2's witness value is 7.0, anchor is x_0(0) = 0
    assert control_local_flow(view, g, 0, 1) == -7.0 + 0.0
    assert control_local_flow(view, g, 0, 0) == 0.0


def test_max_enhanced_folds_extremes():
    g = build_canonical("cycle", 3)
    log = _log([[3.0, 0.0, 3.0], [3.0, 0.0, 49.0]],
               rows_z=[[6.0, 0.0, 9.0]])
    view = EnhancedFlowView(LocalFlowView(log, g, 0),
                            x_max=[50.0, 50.0], x_min=[0.0, 0.0],
                            z_at_max=[9.5], z_at_min=[0.25])
    # neighbor 2's query 49.0 sits closest to the time-0 max record (dist 1),
    # so its estimate is taken from the consensus series
    u0 = control_max_enhanced(view, g, 0, 1)
    assert u0 == -9.5 + 0.5 * (50.0 + 0.0)


# ---- dispatcher ----

def test_dispatcher_zero_and_time_zero():
    g = build_canonical("cycle", 2)
    log = _log([[1.0, 2.0], [1.0, 2.0]], rows_z=[[10.0, 20.0]])
    zero = Controller(ControllerSpec("zero"), g)
    np.testing.assert_array_equal(zero.controls(log, 1), [0.0, 0.0])
    nf = Controller(ControllerSpec("network_flow"), g)
    np.testing.assert_array_equal(nf.controls(log, 0), [0.0, 0.0])


def test_dispatcher_matches_direct_call():
    g = build_canonical("cycle", 2)
    log = _log([[1.0, 2.0], [1.0, 2.0]], rows_z=[[10.0, 20.0]])
    ctl = Controller(ControllerSpec("network_flow", epsilon=0.1), g)
    u = ctl.controls(log, 1)
    np.testing.assert_array_equal(u, [-20.0, -10.0])
    assert ctl.branch_log == [False]
    # the network_flow law fed its own ledger from the rows X(0), X(1) of
    # the log; the other laws keep none
    assert (ctl._law.ledger.low, ctl._law.ledger.high) == (1.0, 2.0)
    assert not hasattr(Controller(ControllerSpec("local_flow"), g)._law, "ledger")




# ---- the witness index and the Controller's fast path vs the references ----

# distinct a < q < b whose distances to q round to the same double
_A, _Q, _B = -0.8232634401228889, -0.40057621892523043, 0.02211100227242802
# exact ties, signed zeros and the rounding-tie triple
_POOL = np.array([-1.0, -0.5, -0.0, 0.0, 0.5, 1.0, _A, _Q, _B])


def _bits(values) -> bytes:
    return np.asarray(values, dtype=float).tobytes()


def test_rounding_tie_triple():
    assert _A < _Q < _B
    assert _Q - _A == _B - _Q
    assert Fraction(_Q) - Fraction(_A) != Fraction(_B) - Fraction(_Q)


def test_witness_index_matches_brute_force_argmin():
    # After every insert, each query gives the distance, key (insertion rank)
    # and estimate of argmin over |value - q| with the records in insertion
    # order, bit for bit. Without _Q stored, the query _Q ties _A and
    # _B; far from the queries +-1, the tiny values round to the same
    # distance on one side of the query.
    pools = (_POOL, _POOL[_POOL != _Q],
             np.array([-0.0, 0.0, 1e-17, 3e-17, -2e-17]))
    queries = np.concatenate([_POOL, [-7.0, 7.0]])
    seen = dict.fromkeys(("exact", "rounding", "one_side_rounding",
                          "signed_zero", "stored", "below_all", "above_all"), 0)
    for seed in range(9):
        rng = np.random.default_rng(seed)
        pool = pools[seed % 3]
        index = WitnessIndex()
        values, ests = [], []
        for value in rng.choice(pool, size=40).tolist():
            est = float(rng.normal())
            index.insert(value, est)
            values.append(value)
            ests.append(est)
            assert len(index) == len(values)
            vals = np.array(values)
            for q in np.concatenate([queries, rng.normal(size=3)]).tolist():
                d = np.abs(vals - q)
                f = int(d.argmin())
                dist, key, est_f = index.nearest(q)
                assert _bits(dist) == _bits(d[f])
                assert key == f and _bits(est_f) == _bits(ests[f])
                tied = vals[d == d[f]]
                distinct = set(tied.tolist())
                seen["exact"] += len(tied) > len(distinct)
                seen["rounding"] += {_A, _B} <= distinct
                seen["one_side_rounding"] += (len(distinct) > 1 and (
                    tied.min() >= q or tied.max() < q))
                seen["signed_zero"] += len(set(np.signbit(tied[tied == 0]))) == 2
                seen["stored"] += q in values
                seen["below_all"] += q < vals.min()
                seen["above_all"] += q > vals.max()
    assert all(seen.values()), seen


def test_witness_index_rejects_what_it_cannot_order():
    index = WitnessIndex()
    with pytest.raises(ValueError):
        index.nearest(0.0)              # no records
    index.insert(1.0, 2.0)
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError):
            index.insert(bad, 0.0)
        with pytest.raises(ValueError):
            index.nearest(bad)
    assert len(index) == 1 and index.nearest(3.0) == (2.0, 0, 2.0)


def _decide_all(kind, g, log):
    """A fresh Controller's decisions at t = 1..log.t, one call per step."""
    ctl = Controller(ControllerSpec(kind), g)
    return [ctl.controls(log, t) for t in range(1, log.t + 1)]


def _extreme_series(log):
    """The extreme series of control_max_enhanced on the whole log: each
    row's first argmax/argmin value, and its estimate where Z is known."""
    x, z = log.x_hist, log.z_hist
    t = log.t
    rows = np.arange(t + 1)
    hi, lo = x.argmax(axis=1), x.argmin(axis=1)
    return x[rows, hi], x[rows, lo], z[rows[:t], hi[:t]], z[rows[:t], lo[:t]]


def _reference_u(kind, g, log, t, series=None):
    """The reference law's U(t); series defaults to the log's own extremes."""
    if kind == "path_root":
        return control_path_root(log, t)
    if kind == "cycle_global":
        return control_cycle(log, t)
    u = np.zeros(g.n)
    for i in range(g.n):
        view = LocalFlowView(log, g, i)
        if kind == "local_flow":
            u[i] = control_local_flow(view, g, i, t)
        else:
            enh = EnhancedFlowView(view, *(series or _extreme_series(log)))
            u[i] = control_max_enhanced(enh, g, i, t)
    return u


def test_controller_matches_per_neighbour_reference():
    # States drawn from a small pool give exact value ties, rounding ties and
    # signed zeros; a row's extreme record ties the states of its holder's
    # neighbourhood; node 0 has no in-neighbours.
    n, T = 5, 12
    seen = dict.fromkeys(("exact", "rounding", "hood_vs_extreme", "no_nbrs"), 0)
    for seed in range(6):
        rng = np.random.default_rng(seed)
        w = random_strongly_connected(n, seed=seed).weights.copy()
        w[0] = 0.0
        g = WeightedDigraph(w)
        log = _log(rng.choice(_POOL, size=(T + 1, n)),
                   rows_z=list(rng.normal(size=(T, n))))
        x_max, x_min = _extreme_series(log)[:2]
        for kind in ("local_flow", "max_enhanced"):
            for t, u in enumerate(_decide_all(kind, g, log), start=1):
                ref = _reference_u(kind, g, log, t)
                assert _bits(u) == _bits(ref), (seed, kind, t)
        for i in range(n):
            view = LocalFlowView(log, g, i)
            nbrs = g.neighbors(i)
            seen["no_nbrs"] += not nbrs
            for t in range(1, T + 1):
                hood = view.x[:t].reshape(-1)
                ext = np.concatenate([x_max[:t], x_min[:t]])
                for j in nbrs:
                    q = view.x[t, view.col_of(j)]
                    d = np.abs(hood - q)
                    tied = hood[d == d.min()]
                    seen["exact"] += len(tied) > len(set(tied.tolist()))
                    seen["rounding"] += {_A, _B} <= set(tied.tolist())
                    seen["hood_vs_extreme"] += d.min() == np.abs(ext - q).min()
    assert all(seen.values()), seen


def test_enhanced_extreme_record_comes_from_the_first_holder():
    # Nodes 2 and 3 tie for the maximum (then the minimum) of X(0) with
    # different estimates, both outside node 1's neighbourhood {0, 1} on the
    # 4-cycle. Node 0's state at t = 1 sits next to that extreme, so node
    # 1's witness for it is the extreme record, whose estimate must be the
    # lowest holder's, as in the flooding protocol's limit.
    g = build_canonical("cycle", 4)
    for sign in (1.0, -1.0):
        log = _log([[1.0, 1.0, 5.0 * sign, 5.0 * sign],
                    [4.9 * sign, 1.0, 1.0, 1.0]], rows_z=[[1.0, 1.0, 7.0, 9.0]])
        cons = run_extreme_consensus(g, log.x_hist[0], log.z_hist[0])
        got = ((cons.holder_max, cons.z_at_max) if sign > 0
               else (cons.holder_min, cons.z_at_min))
        assert got == (2, 7.0)
        u = Controller(ControllerSpec("max_enhanced"), g).controls(log, 1)
        assert _bits(u) == _bits(_reference_u("max_enhanced", g, log, 1))
        assert u[1] == -7.0 + 0.5 * (5.0 * sign + 1.0)


def test_running_extremes_keep_numpy_signed_zero():
    # On an all-zero history with both signs, ndarray.max/min pick a zero by
    # a rule that depends on the array length, and the sign reaches u when
    # the estimates are zeros too. No running rule (first or last zero)
    # reproduces it; the Controller must still match the reference bits.
    seen = dict.fromkeys(("first_rule_fails", "last_rule_fails"), 0)
    T = 40
    for seed in range(4):
        rng = np.random.default_rng(seed)
        signs = rng.integers(0, 2, size=(2, T + 1, 5)).astype(bool)
        x, z = np.where(signs, -0.0, 0.0)
        log = _log(x, rows_z=list(z[:T]))
        graphs = {"path_root": build_canonical("path_root_selfloop", 5),
                  "cycle_global": build_canonical("cycle", 5),
                  "max_enhanced": build_canonical("cycle", 5)}
        for kind, g in graphs.items():
            for t, u in enumerate(_decide_all(kind, g, log), start=1):
                ref = _reference_u(kind, g, log, t)
                assert _bits(u) == _bits(ref), (seed, kind, t)
        for t in range(1, T + 1):
            times = np.arange(t + 1)
            diag = x[times, times % 5]   # a diagonal class of control_cycle
            got = np.signbit(diag.max())
            seen["first_rule_fails"] += got != np.signbit(diag[0])
            seen["last_rule_fails"] += got != np.signbit(diag[-1])
    assert all(seen.values()), seen


def _replay_config(kind: str) -> ExperimentConfig:
    graph = {"network_flow": {"kind": "random_strongly_connected", "n": 6,
                              "seed": 2, "weight_range": [0.1, 0.3]},
             "cycle_global": {"kind": "cycle", "n": 6},
             "path_root": {"kind": "path_root_selfloop", "n": 6}}
    return ExperimentConfig({
        "graph": graph.get(kind, graph["network_flow"]),
        "function": {"kind": "bounded_perturbed_linear", "a": 0.8,
                     "b": 0.0, "amplitude": 0.5},
        "controller": {"kind": kind, "epsilon": 0.05},
        "observation": {"mode": "direct", "d0": 0.02, "noise_seed": 1},
        "disturbance": {"w_star": 0.05, "generator": "seeded_uniform",
                        "seed": 3},
        "horizon": 50,
        "x0": {"seed": 4},
    })


_KINDS = ("network_flow", "path_root", "cycle_global", "local_flow",
          "max_enhanced")


def test_runs_replay_through_fresh_views_and_reference_witnesses():
    # The runner's Controller answers every witness query from its sorted
    # indices; replaying every decision through the reference laws, with
    # views copied afresh and one reference witness per query, gives the
    # same bits.
    for kind in _KINDS:
        cfg = _replay_config(kind)
        res = run_experiment(cfg)
        assert not res.summary["guard_tripped"]
        g = cfg.graph
        x, z, u = res.x_hist, res.z_hist, res.u_hist
        log = FlowLog(g.n)
        log.append(x[0])
        ledger = ExtremeLedger()
        ledger.update(x[0])
        branches = []
        for t in range(1, cfg.horizon):
            log.append(x[t], z=z[t - 1], u=u[t - 1])
            ledger.update(x[t])
            if kind == "network_flow":
                ref = control_network_flow(log, g, ledger, cfg.controller.epsilon,
                                           t, branches)
            else:
                e = res.enhanced
                series = e and (e["x_max"][:t + 1], e["x_min"][:t + 1],
                                e["z_at_max"][:t], e["z_at_min"][:t])
                ref = _reference_u(kind, g, log, t, series)
            assert _bits(u[t]) == _bits(ref), (kind, t)
        if kind == "network_flow":
            assert tuple(branches) == res.explore_log[:cfg.horizon - 1]
            assert len(set(branches)) == 2   # both branches replayed


def test_runner_never_calls_the_reference_laws(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the fast path called a reference law")

    for name in ("global_witnesses", "local_witness", "enhanced_witness",
                 "control_network_flow", "control_path_root", "control_cycle",
                 "control_local_flow", "control_max_enhanced"):
        monkeypatch.setattr(controllers, name, refuse)
    for kind in _KINDS:
        res = run_experiment(_replay_config(kind))
        assert res.summary["steps_run"] == 50


def test_controller_is_freed_without_cyclic_gc():
    # A run's witness indices must go with its Controller, not linger until
    # a cyclic collection: reference cycles held back every run's indices
    # and raised the peak memory of long batches of runs.
    g = build_canonical("cycle", 3)
    log = _log([[0.1, 0.2, 0.3], [0.3, 0.1, 0.2]], rows_z=[[1.0, 2.0, 3.0]])
    gc.disable()
    try:
        for kind in _KINDS:
            ctl = Controller(ControllerSpec(kind), g)
            ctl.controls(log, 1)
            ref = weakref.ref(ctl)
            del ctl
            assert ref() is None, kind
    finally:
        gc.enable()


def test_enhanced_witness_nan_distance_order():
    # The reference returns argmin's first NaN over the concatenated
    # candidates (neighbourhood first). The Controller's index cannot order
    # NaN, so it refuses non-finite states, past or current, rather than
    # answer differently.
    g = build_canonical("cycle", 2)
    for hood_x, ext_x, fhat in (([np.nan, 0.0], [0.0, 0.0], 1.0),
                                ([0.0, 0.0], [np.nan, 0.0], 3.0),
                                ([np.nan, 0.0], [np.nan, 0.0], 1.0)):
        log = _log([hood_x, [0.0, 0.0]], rows_z=[[1.0, 2.0]])
        series = (ext_x, ext_x, [3.0], [4.0])
        view = EnhancedFlowView(LocalFlowView(log, g, 0), *series)
        assert enhanced_witness(view, 1, 1).fhat == fhat
    for rows in (([np.nan, 0.0], [0.0, 0.0]), ([0.0, 0.0], [0.0, np.nan])):
        ctl = Controller(ControllerSpec("max_enhanced"), g)
        with pytest.raises(ValueError):
            ctl.controls(_log(rows, rows_z=[[1.0, 2.0]]), 1)
