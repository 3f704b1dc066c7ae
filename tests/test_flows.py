"""Trajectory logging, neighborhood views, and extreme-record consensus."""

import numpy as np
import pytest

from netfeedback import (
    ConsensusState,
    Controller,
    ControllerSpec,
    EnhancedFlowView,
    FlowLog,
    LocalFlowView,
    WeightedDigraph,
    build_canonical,
    consensus_round,
    control_local_flow,
    random_strongly_connected,
    run_extreme_consensus,
)


def _filled_log(n=3, steps=4, seed=0):
    rng = np.random.default_rng(seed)
    log = FlowLog(n)
    log.append(rng.normal(size=n))
    for _ in range(steps):
        log.append(rng.normal(size=n), z=rng.normal(size=n), u=rng.normal(size=n))
    return log


# ---- FlowLog ----

def test_append_protocol():
    log = FlowLog(2)
    with pytest.raises(ValueError):
        log.append([0.0, 0.0], z=[1.0, 1.0], u=[0.0, 0.0])  # first row is state only
    log.append([0.0, 0.0])
    assert log.t == 0
    with pytest.raises(ValueError):
        log.append([1.0, 1.0])  # later rows need z and u
    log.append([1.0, 1.0], z=[0.5, 0.5], u=[0.1, 0.1])
    assert log.t == 1


def test_history_shapes():
    log = _filled_log(n=3, steps=5)
    assert log.x_hist.shape == (6, 3)
    assert log.z_hist.shape == (5, 3)
    assert log.u_hist.shape == (5, 3)


def test_histories_are_read_only():
    log = _filled_log()
    for arr in (log.x_hist, log.z_hist, log.u_hist):
        with pytest.raises(ValueError):
            arr[0, 0] = 99.0


def test_log_grows_past_initial_capacity():
    log = FlowLog(2, capacity=2)
    rng = np.random.default_rng(1)
    log.append(rng.normal(size=2))
    for _ in range(10):
        log.append(rng.normal(size=2), z=rng.normal(size=2), u=rng.normal(size=2))
    assert log.t == 10
    assert log.x_hist.shape == (11, 2)


def test_shape_mismatch_rejected():
    log = FlowLog(3)
    with pytest.raises(ValueError):
        log.append([1.0, 2.0])


# ---- local and enhanced views ----

def test_local_view_confinement():
    g = build_canonical("cycle", 4)  # node 1 sees {0, 1}
    log = _filled_log(n=4, steps=3)
    view = LocalFlowView(log, g, 1)
    assert view.nodes == (0, 1)
    assert view.x.shape == (4, 2)
    np.testing.assert_array_equal(view.x, log.x_hist[:, [0, 1]])
    assert view.col_of(0) == 0
    assert view.col_of(1) == 1
    with pytest.raises(ValueError):
        view.col_of(2)  # not a member, cannot even be addressed
    with pytest.raises(ValueError):
        LocalFlowView(log, g, 7)


def test_local_view_is_a_snapshot():
    g = build_canonical("cycle", 3)
    log = _filled_log(n=3, steps=2)
    view = LocalFlowView(log, g, 0)
    log.append([9.0, 9.0, 9.0], z=[0.0] * 3, u=[0.0] * 3)
    assert view.t == 2  # unchanged by later appends


def test_neighbourhood_indices_match_fresh_views():
    # A Controller grown one row per step decides, at every t, what the
    # reference law decides on a view copied afresh from the log; a second
    # Controller fed a log whose columns outside N_i u {i} are scrambled
    # gives node i the same bits, since node i's index never holds them.
    g = random_strongly_connected(5, seed=4)
    rng = np.random.default_rng(4)
    log = FlowLog(5, capacity=2)
    log.append(rng.normal(size=5))
    for _ in range(40):
        log.append(rng.normal(size=5), z=rng.normal(size=5), u=rng.normal(size=5))
    for i in range(5):
        outside = [j for j in range(5) if j not in g.neighbors(i) and j != i]
        x, z = log.x_hist.copy(), log.z_hist.copy()
        x[:, outside] = rng.normal(size=(41, len(outside)))
        z[:, outside] = 1e6
        fake = FlowLog(5)
        fake.append(x[0])
        for t in range(40):
            fake.append(x[t + 1], z=z[t], u=log.u_hist[t])
        ctl = Controller(ControllerSpec("local_flow"), g)
        ctl_fake = Controller(ControllerSpec("local_flow"), g)
        for t in range(1, 41):
            ref = control_local_flow(LocalFlowView(log, g, i), g, i, t)
            assert ctl.controls(log, t)[i].tobytes() == np.float64(ref).tobytes()
            assert ctl_fake.controls(fake, t)[i].tobytes() == np.float64(ref).tobytes()
    with pytest.raises(ValueError):
        ctl.controls(log, 3)   # a Controller serves one run, forward in time


def test_enhanced_view_series_lengths():
    g = build_canonical("cycle", 3)
    log = _filled_log(n=3, steps=2)
    local = LocalFlowView(log, g, 0)
    t = local.t
    ok = EnhancedFlowView(local, np.zeros(t + 1), np.zeros(t + 1),
                          np.zeros(t), np.zeros(t))
    assert ok.i == 0 and ok.t == t
    with pytest.raises(ValueError):
        EnhancedFlowView(local, np.zeros(t), np.zeros(t + 1),
                         np.zeros(t), np.zeros(t))
    with pytest.raises(ValueError):
        EnhancedFlowView(local, np.zeros(t + 1), np.zeros(t + 1),
                         np.zeros(t + 1), np.zeros(t))


# ---- consensus ----

def test_consensus_state_init_validation():
    with pytest.raises(ValueError):
        ConsensusState.init([1.0, 2.0], [1.0])
    st = ConsensusState.init([1.0, 2.0], [3.0, 4.0])
    np.testing.assert_array_equal(st.origin, [0, 1])


def test_single_round_adoption():
    g = build_canonical("cycle", 3)  # node i hears node i-1
    st = ConsensusState.init([5.0, 0.0, 1.0], [50.0, 0.0, 10.0])
    nxt = consensus_round(g, st, "max")
    # node 1 adopts node 0's record; node 0 keeps its own
    np.testing.assert_array_equal(nxt.x, [5.0, 5.0, 1.0])
    np.testing.assert_array_equal(nxt.origin, [0, 0, 2])
    assert nxt.k == 1
    low = consensus_round(g, st, "min")
    np.testing.assert_array_equal(low.x, [1.0, 0.0, 0.0])
    np.testing.assert_array_equal(low.z, [10.0, 0.0, 0.0])
    with pytest.raises(ValueError):
        consensus_round(g, st, "median")


def test_duplicate_extreme_resolved_by_origin():
    # cycle 0 -> 2 -> 1 -> 0 with the max value 5.0 held at nodes 0 and 2.
    # A value-only rule would let node 1 settle on node 2's record; carrying
    # the origin id forces everyone to agree on the lowest holder.
    w = np.zeros((3, 3))
    w[2, 0] = 1.0
    w[1, 2] = 1.0
    w[0, 1] = 1.0
    g = WeightedDigraph(w)
    res = run_extreme_consensus(g, [5.0, 0.0, 5.0], [50.0, 0.0, 52.0])
    assert res.x_max == 5.0
    assert res.holder_max == 0
    assert res.z_at_max == 50.0
    assert res.rounds <= 3


def test_consensus_matches_brute_force_on_random_graphs():
    # duplicate-heavy values stress the tie handling
    for seed in range(15):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 6))
        g = random_strongly_connected(n, seed=seed)
        x = rng.choice([-1.0, 0.0, 1.0], size=n)
        z = rng.normal(size=n)
        res = run_extreme_consensus(g, x, z)
        hi = int(np.flatnonzero(x == x.max())[0])
        lo = int(np.flatnonzero(x == x.min())[0])
        assert res.x_max == x.max() and res.holder_max == hi
        assert res.x_min == x.min() and res.holder_min == lo
        assert res.z_at_max == z[hi]
        assert res.z_at_min == z[lo]
        assert res.rounds <= n


def test_consensus_requires_strong_connectivity():
    g = build_canonical("path_root_selfloop", 3)
    with pytest.raises(ValueError):
        run_extreme_consensus(g, [1.0, 2.0, 3.0], [0.0, 0.0, 0.0])
