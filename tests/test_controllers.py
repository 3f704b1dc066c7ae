"""Feedback laws: witness selection, branch logic, and small frozen cases."""

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
    local_witness,
    nn_estimate_global,
    random_strongly_connected,
    run_experiment,
    wrap_index,
)
from netfeedback.controllers import _enhanced_fhats, _local_fhats


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
    fhat, (node, time) = nn_estimate_global(log, 0, 1)
    # query 2.0 is equidistant from both time-0 states; lowest node wins
    assert (node, time) == (0, 0)
    assert fhat == 11.0


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
    ctl.ledger.update([1.0, 2.0])
    ctl.ledger.update([1.0, 2.0])
    u = ctl.controls(log, 1)
    np.testing.assert_array_equal(u, [-20.0, -10.0])
    assert ctl.branch_log == [False]


# ---- batched neighbour witnesses vs the per-neighbour reference ----

# distinct a < q < b whose distances to q round to the same double
_A, _Q, _B = -0.8232634401228889, -0.40057621892523043, 0.02211100227242802


def _bits(values) -> bytes:
    return np.asarray(values, dtype=float).tobytes()


def _reference_local(view, g, i, t):
    """control_local_flow with one local_witness query per neighbour."""
    acc = 0.0
    for j in g.neighbors(i):
        acc -= g.weights[i, j] * local_witness(view, j, t).fhat
    return acc + float(view.x[0, view.col_of(i)])


def _reference_enhanced(view, g, i, t):
    """control_max_enhanced with one enhanced_witness query per neighbour."""
    acc = 0.0
    for j in g.neighbors(i):
        acc -= g.weights[i, j] * enhanced_witness(view, j, t).fhat
    return acc + 0.5 * (float(view.x_max[:t + 1].max())
                        + float(view.x_min[:t + 1].min()))


def test_rounding_tie_triple():
    assert _A < _Q < _B
    assert _Q - _A == _B - _Q
    assert Fraction(_Q) - Fraction(_A) != Fraction(_B) - Fraction(_Q)


def test_batched_witnesses_match_per_neighbour_reference():
    # States drawn from a small pool give exact value ties; the triple gives
    # rounding ties; extreme records drawn from the same pool tie
    # neighbourhood states; node 0 has no in-neighbours.
    pool = np.array([-1.0, -0.5, 0.0, 0.5, 1.0, _A, _Q, _B])
    n, T = 5, 12
    seen = dict.fromkeys(("exact", "rounding", "hood_vs_extreme", "no_nbrs"), 0)
    for seed in range(6):
        rng = np.random.default_rng(seed)
        w = random_strongly_connected(n, seed=seed).weights.copy()
        w[0] = 0.0
        g = WeightedDigraph(w)
        log = _log(rng.choice(pool, size=(T + 1, n)),
                   rows_z=list(rng.normal(size=(T, n))))
        x_max, x_min = rng.choice(pool, size=(2, T + 1))
        z_max, z_min = rng.normal(size=(2, T))
        for i in range(n):
            local = LocalFlowView(log, g, i)
            enh = EnhancedFlowView(local, x_max, x_min, z_max, z_min)
            nbrs = g.neighbors(i)
            for t in range(1, T + 1):
                assert (_bits(control_local_flow(local, g, i, t))
                        == _bits(_reference_local(local, g, i, t)))
                assert (_bits(control_max_enhanced(enh, g, i, t))
                        == _bits(_reference_enhanced(enh, g, i, t)))
                if not nbrs:
                    seen["no_nbrs"] += 1
                    continue
                assert (_bits(_local_fhats(local, nbrs, t))
                        == _bits([local_witness(local, j, t).fhat for j in nbrs]))
                assert (_bits(_enhanced_fhats(enh, nbrs, t))
                        == _bits([enhanced_witness(enh, j, t).fhat for j in nbrs]))
                for j in nbrs:
                    q = local.x[t, local.col_of(j)]
                    hood = local.x[:t].reshape(-1)
                    d = np.abs(hood - q)
                    tied = hood[d == d.min()]
                    seen["exact"] += len(tied) > len(set(tied.tolist()))
                    seen["rounding"] += {_A, _B} <= set(tied.tolist())
                    ext = np.concatenate([x_max[:t], x_min[:t]])
                    seen["hood_vs_extreme"] += d.min() == np.abs(ext - q).min()
    assert all(seen.values()), seen


def test_runs_replay_through_fresh_views_and_reference_witnesses():
    # The runner's Controller keeps one extended view per node and batches
    # the witness queries; replaying every decision through a view copied
    # afresh and one reference witness per neighbour gives the same bits.
    for kind, reference in (("local_flow", _reference_local),
                            ("max_enhanced", _reference_enhanced)):
        cfg = ExperimentConfig({
            "graph": {"kind": "random_strongly_connected", "n": 6, "seed": 2,
                      "weight_range": [0.1, 0.3]},
            "function": {"kind": "bounded_perturbed_linear", "a": 0.8,
                         "b": 0.0, "amplitude": 0.5},
            "controller": {"kind": kind},
            "observation": {"mode": "direct", "d0": 0.02, "noise_seed": 1},
            "disturbance": {"w_star": 0.05, "generator": "seeded_uniform",
                            "seed": 3},
            "horizon": 50,
            "x0": {"seed": 4},
        })
        res = run_experiment(cfg)
        assert not res.summary["guard_tripped"]
        g = cfg.graph
        x, z, u = res.x_hist, res.z_hist, res.u_hist
        log = FlowLog(g.n)
        log.append(x[0])
        for t in range(1, cfg.horizon):
            log.append(x[t], z=z[t - 1], u=u[t - 1])
            for i in range(g.n):
                view = LocalFlowView(log, g, i)
                if kind == "max_enhanced":
                    e = res.enhanced
                    view = EnhancedFlowView(view, e["x_max"][:t + 1],
                                            e["x_min"][:t + 1],
                                            e["z_at_max"][:t], e["z_at_min"][:t])
                assert _bits(u[t, i]) == _bits(reference(view, g, i, t)), (kind, t, i)


def test_enhanced_witness_nan_distance_order():
    # argmin over the concatenated candidates returns the first NaN; the
    # batched scan keeps that order on both sides of the neighbourhood /
    # extreme split
    g = build_canonical("cycle", 2)
    for hood_x, ext_x in (([np.nan, 0.0], [0.0, 0.0]),
                          ([0.0, 0.0], [np.nan, 0.0]),
                          ([np.nan, 0.0], [np.nan, 0.0])):
        log = _log([hood_x, [0.0, 0.0]], rows_z=[[1.0, 2.0]])
        view = EnhancedFlowView(LocalFlowView(log, g, 0),
                                x_max=ext_x, x_min=ext_x,
                                z_at_max=[3.0], z_at_min=[4.0])
        assert (_bits(_enhanced_fhats(view, (1,), 1))
                == _bits([enhanced_witness(view, 1, 1).fhat]))
