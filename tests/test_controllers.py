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
)
from netfeedback import controllers


def _log(rows_x, rows_z=None, rows_u=None):
    rows_x = [np.asarray(r, dtype=float) for r in rows_x]
    n = rows_x[0].size
    log = FlowLog(rows_x[0], len(rows_x) - 1)
    for k, x in enumerate(rows_x[1:]):
        z = rows_z[k] if rows_z else np.zeros(n)
        u = rows_u[k] if rows_u else np.zeros(n)
        log.append(x, z=z, u=u)
    return log


def test_controller_spec_validation():
    with pytest.raises(ValueError):
        ControllerSpec("pid")
    with pytest.raises(ValueError):
        ControllerSpec("network_flow", epsilon=0.0)
    for eps in (float("nan"), float("inf")):
        with pytest.raises(ValueError):
            ControllerSpec("network_flow", epsilon=eps)


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
    w = global_witnesses(log, 1)
    # query 2.0 is equidistant from both time-0 states; lowest node wins
    assert (w.node[0], w.time[0]) == (0, 0)
    assert w.fhat[0] == 11.0 and w.dist[0] == 1.0


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
    branches = []
    u = control_network_flow(log, g, 0.1, 1, branches)
    np.testing.assert_array_equal(u, [-20.0, -10.0])
    assert branches == [False]


def test_network_flow_explore_branch_recentres():
    g = build_canonical("cycle", 2)
    log = _log([[1.0, 2.0], [1.5, 2.0]], rows_z=[[10.0, 20.0]])
    branches = []
    u = control_network_flow(log, g, 1e-3, 1, branches)
    # node 0's witness is 0.5 away, so the midpoint 1.5 is added everywhere
    np.testing.assert_allclose(u, [-20.0 + 1.5, -10.0 + 1.5])
    assert branches == [True]


def test_network_flow_time_zero_is_silent():
    g = build_canonical("cycle", 2)
    log = _log([[1.0, 2.0]])
    u = control_network_flow(log, g, 0.1, 0)
    np.testing.assert_array_equal(u, [0.0, 0.0])


def test_path_root_only_root_acts():
    log = _log([[1.0, 9.0], [3.0, 9.0]], rows_z=[[5.0, 0.0]])
    g = build_canonical("path_root_selfloop", 2)
    u = control_path_root(log, 1, g)
    np.testing.assert_array_equal(u, [-5.0 + 2.0, 0.0])
    np.testing.assert_array_equal(control_path_root(log, 0, g), [0.0, 0.0])
    # the root cancels its self-arc a_00 times the estimate
    g = build_canonical("path_root_selfloop", 2, weight=3.0, root_weight=-2.0)
    np.testing.assert_array_equal(control_path_root(log, 1, g),
                                  [2.0 * 5.0 + 2.0, 0.0])


def test_cycle_law_rotating_diagonal():
    log = _log([[1.0, 2.0], [3.0, 4.0]], rows_z=[[7.0, 8.0]])
    u = control_cycle(log, 1, build_canonical("cycle", 2))
    # node 0 works on the diagonal (x_0(0), x_1(1)) = (1, 4), witness time 0;
    # node 1 on (x_1(0), x_0(1)) = (2, 3)
    np.testing.assert_allclose(u, [-7.0 + 2.5, -8.0 + 2.5])
    # node i cancels its in-arc a_{i, i-1} times the estimate
    u = control_cycle(log, 1, WeightedDigraph([[0.0, 0.5], [-3.0, 0.0]]))
    np.testing.assert_allclose(u, [-0.5 * 7.0 + 2.5, 3.0 * 8.0 + 2.5])


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
    # a time the log has not reached is refused before any row is taken in
    with pytest.raises(IndexError):
        nf.controls(log, 2)
    assert nf.controls(log, 1).tobytes() == control_network_flow(
        log, g, nf.spec.epsilon, 1).tobytes()
    # every law, the zero law too, refuses a time the log has not reached
    # and a time it has already decided
    cycle = build_canonical("cycle", 3)
    for kind in ("zero", "network_flow"):
        ctl = Controller(ControllerSpec(kind), cycle)
        with pytest.raises(IndexError):
            ctl.controls(FlowLog([0.1, 0.2, 0.3], 5), 4)
        ctl = Controller(ControllerSpec(kind), cycle)
        np.testing.assert_array_equal(
            ctl.controls(FlowLog([0.1, 0.2, 0.3], 5), 0), np.zeros(3))
        with pytest.raises(ValueError, match="time cannot go back"):
            ctl.controls(FlowLog([0.1, 0.2, 0.3], 5), 0)


def test_dispatcher_matches_direct_call():
    # On the recentre step X(1) = (1.5, 2.5) tops the indexed X(0), so the
    # hull's upper end comes from the current row: midpoint 0.5 * (2.5 + 1).
    g = build_canonical("cycle", 2)
    for x1, eps, want in (([1.0, 2.0], 0.1, [-20.0, -10.0]),
                          ([1.5, 2.5], 1e-3, [-20.0 + 1.75, -10.0 + 1.75])):
        log = _log([[1.0, 2.0], x1], rows_z=[[10.0, 20.0]])
        ctl = Controller(ControllerSpec("network_flow", epsilon=eps), g)
        branches = []
        ref = control_network_flow(log, g, eps, 1, branches)
        u = ctl.controls(log, 1)
        np.testing.assert_array_equal(u, want)
        assert u.tobytes() == ref.tobytes()
        assert ctl.branch_log == branches == [eps < 0.1]




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


def _hits(groups, n) -> list:
    """hits[i*n + j]: (dist, key, est) of the group that served asker i of
    qs[j], None where no group served i for j. The groups must come in
    ascending j, in walk order within one j (distance, then key), and serve
    each node at most once per j."""
    hits = [None] * (n * n)
    last = None
    for j, served, dist, key, est in groups:
        assert served > 0
        if last is not None and last[0] == j:
            assert (last[1], last[2]) < (dist, key)
        else:
            assert last is None or last[0] < j
        last = (j, dist, key)
        for i in range(n):
            if served >> i & 1:
                assert hits[i * n + j] is None, (i, j)   # one group per asker
                hits[i * n + j] = (dist, key, est)
        assert served < 1 << n
    return hits


def test_witness_index_matches_brute_force_argmin():
    # After every insert, each query gives the distance, key (insertion rank)
    # and estimate of argmin over |value - q| with the records in insertion
    # order, bit for bit. Without _Q stored, the query _Q ties _A and
    # _B; far from the queries +-1, the tiny values round to the same
    # distance on one side of the query. nearest_among must give the same
    # over the records of a node's columns (key % n) alone, for random
    # column masks: members nearer than, or at the distance of, a
    # non-member, and members on one side of the query only.
    pools = (_POOL, _POOL[_POOL != _Q],
             np.array([-0.0, 0.0, 1e-17, 3e-17, -2e-17]))
    queries = np.concatenate([_POOL, [-7.0, 7.0]])
    seen = dict.fromkeys(("exact", "rounding", "one_side_rounding",
                          "signed_zero", "stored", "below_all", "above_all",
                          "tie_below_all", "tie_above_all",
                          "nonmember_nearer", "nonmember_tie_lower_key",
                          "members_one_side", "not_asked"), 0)
    n = 4
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
                # the ends are the extremes; + 0.0 makes the midpoint
                # independent of the zero sign each end carries
                mid = 0.5 * (max(max(values), q) + min(min(values), q)) + 0.0
                assert _bits(index.midpoint(q, q)) == _bits(mid)
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
                # beyond an end, with the end value stored more than once
                seen["tie_below_all"] += q < vals.min() and (
                    vals == vals.min()).sum() > 1
                seen["tie_above_all"] += q > vals.max() and (
                    vals == vals.max()).sum() > 1
            if len(values) < n:
                continue   # a column without records
            for _ in range(3):
                # node i reads column c when bit i of readers[c] is set, its
                # own column always; it asks for qs[j] by bit i of askers[j]
                readers = [int(r) | 1 << c for c, r in
                           enumerate(rng.integers(0, 1 << n, size=n))]
                askers = [int(a) for a in rng.integers(0, 1 << n, size=n)]
                qs = rng.choice(np.concatenate([queries, rng.normal(size=2)]),
                                size=n).tolist()
                hits = _hits(index.nearest_among(qs, askers, readers), n)
                for i in range(n):
                    member = np.array([readers[key % n] >> i & 1
                                       for key in range(len(values))], bool)
                    keys = np.flatnonzero(member)
                    for j, q in enumerate(qs):
                        if not askers[j] >> i & 1:
                            assert hits[i * n + j] is None
                            seen["not_asked"] += 1
                            continue
                        dm = np.abs(vals[keys] - q)
                        f = int(keys[dm.argmin()])
                        assert hits[i * n + j] is not None, (seed, i, j)
                        dist, key, est_f = hits[i * n + j]
                        assert _bits(dist) == _bits(dm.min()), (seed, i, j)
                        assert key == f and _bits(est_f) == _bits(ests[f])
                        d_out = np.abs(vals[~member] - q)
                        seen["nonmember_nearer"] += bool(
                            (d_out < dm.min()).any())
                        seen["nonmember_tie_lower_key"] += bool(
                            (np.flatnonzero(~member)[d_out == dm.min()]
                             < f).any())
                        seen["members_one_side"] += bool(
                            (vals[keys] > q).all() or (vals[keys] < q).all())
    assert all(seen.values()), seen


def test_witness_index_rejects_what_it_cannot_order():
    index = WitnessIndex()
    with pytest.raises(ValueError, match="holds no records"):
        index.nearest(0.0)
    index.insert(1.0, 2.0)
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError):
            index.insert(bad, 0.0)
        with pytest.raises(ValueError):
            index.nearest(bad)
    assert len(index) == 1 and index.nearest(3.0) == (2.0, 0, 2.0)
    # two columns: node 1 asks, but its column 1 holds no record yet
    with pytest.raises(ValueError):
        index.nearest_among([1.0, 1.0], [0b10, 0], [0b01, 0b10])
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError):
            index.nearest_among([bad], [0b1], [0b1])
    assert index.nearest_among([3.0], [0b1], [0b1]) == [(0, 0b1, 2.0, 0, 2.0)]
    # a query nobody asks for is not walked, and serves no group
    assert index.nearest_among([3.0, 1.0], [0, 0], [0b11, 0]) == []
    # both nodes read the one record: a single group serves them
    assert index.nearest_among([0.5, 1.0], [0b11, 0], [0b11, 0]) == [
        (0, 0b11, 0.5, 0, 2.0)]


# Stored values and queries for the fast paths of nearest/nearest_among:
# the bisection point at 0, 1, m-1 and m; runs of equal values at and just
# past the nearest record, on each side, and beyond either end; a rounding
# tie at the second record of a side, across sides (_A, _Q, _B) and within
# one (tiny values far from the query, inside the records or beyond either
# end); a stored -0.0 queried with +0.0 and the reverse; distances that
# overflow to inf, which are records still, not the end of a side, and tie
# there.
_EDGE_CASES = (
    ([1.0, 2.0, 4.0, 8.0], [0.0, 1.0, 1.25, 1.5, 1.75, 5.0, 7.0, 8.0, 9.0]),
    ([0.0, 1.0, 3.0, 3.0, 3.0, 6.0], [2.9, 3.0, 3.1, 4.4]),
    ([0.0, 2.0, 2.0, 2.0, 5.0], [1.9, 2.1, 3.0]),
    ([0.0, 0.0, 1.0, 3.0, 4.0, 4.0], [-0.5, 0.5, 1.2, 2.9, 3.2, 4.5]),
    ([2.0, 2.0], [1.0, 2.0, 3.0]),
    ([_A, 0.0, _B], [_Q]),
    ([_A, -0.5, _B], [_Q]),
    ([_A, _B], [_Q]),
    ([-5.0, 1e-17, 3e-17, 5.0], [1.0, -1.0]),
    ([1e-17, 3e-17], [1.0, -1.0]),
    ([-1.0, -0.0, 1.0], [0.0, -0.0]),
    ([-1.0, 0.0, 1.0], [-0.0, 0.0]),
    ([-0.0, 0.0, 2.0], [0.0, -0.0]),
    ([-2.0, 0.0, -0.0], [0.0, -0.0]),
    ([-1.7e308, 1.7e308], [1e308]),
    ([1.5e308, 1.7e308], [-1.6e308]),
    ([1.7e308, 1.7e308], [-1.7e308]),
)


def _argmin(values, q, keys) -> tuple:
    """(distance, key) of argmin over |value - q| of the records of keys,
    taken in key order; Python floats, so an overflow reads inf silently."""
    d = [abs(values[key] - q) for key in keys]
    f = min(range(len(d)), key=d.__getitem__)
    return d[f], keys[f]


def test_witness_fast_paths_match_brute_force_argmin_on_edge_cases():
    # Each case runs with its values inserted in both orders, so that a
    # tied record visited first holds the higher key in one of them. Over
    # two columns (key % 2), five reader masks are tried, each node reading
    # one column or both: a node that skips the nearest record's column
    # walks on to the next record, or to a tie there.
    n = 2
    checked = 0
    for values, queries in _EDGE_CASES:
        for order in (values, values[::-1]):
            index = WitnessIndex()
            for key, value in enumerate(order):
                index.insert(value, key + 0.5)
            for q in queries:
                want = _argmin(order, q, range(len(order)))
                dist, key, est = index.nearest(q)
                assert (_bits(dist), key, est) == (
                    _bits(want[0]), want[1], want[1] + 0.5), (order, q)
                for readers in ([1, 2], [3, 2], [1, 3], [3, 3], [2, 1]):
                    hits = _hits(index.nearest_among(
                        [q, 0.0], [0b11, 0], readers), n)
                    assert hits[1] is None and hits[3] is None   # not asked
                    for i in range(n):
                        want = _argmin(order, q, [
                            key for key in range(len(order))
                            if readers[key % n] >> i & 1])
                        dist, key, est = hits[i * n]
                        assert (_bits(dist), key, est) == (
                            _bits(want[0]), want[1], want[1] + 0.5), (
                                order, q, readers, i)
                        checked += 1
    assert checked == 2 * 5 * 2 * sum(len(q) for _, q in _EDGE_CASES)


def _mixed_twelve() -> np.ndarray:
    """Weights on n = 12: a cycle, whose nodes are sparse (|N_i u {i}|^2 =
    4 < 12) and keep their own indices, with two dense in-neighbourhoods
    (6^2 >= 12), rows 3 and 8, that read the shared one."""
    w = np.zeros((12, 12))
    w[np.arange(12), np.arange(12) - 1] = 0.3
    w[3, [0, 6, 9, 11]] = 0.1
    w[8, [1, 2, 4, 5]] = 0.2
    return w


def _dense_nodes(ctl) -> list:
    """Whether each node of a neighbourhood law's Controller reads the
    shared index (True) or its own (False), as the Controller chose: the
    law lists only the nodes with their own index."""
    own = {i for i, *_ in ctl._law.own}
    return [i not in own for i in range(ctl.graph.n)]


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


def _reference_u(kind, g, log, t, series=None, branches=None):
    """The reference law's U(t); series defaults to the log's own extremes.
    network_flow runs at the default epsilon and appends to branches."""
    if kind == "network_flow":
        return control_network_flow(log, g, ControllerSpec(kind).epsilon, t,
                                    branches)
    if kind == "path_root":
        return control_path_root(log, t, g)
    if kind == "cycle_global":
        return control_cycle(log, t, g)
    u = np.zeros(g.n)
    for i in range(g.n):
        view = LocalFlowView(log, g, i)
        if kind == "local_flow":
            u[i] = control_local_flow(view, g, i, t)
        else:
            enh = EnhancedFlowView(view, *(series or _extreme_series(log)))
            u[i] = control_max_enhanced(enh, g, i, t)
    return u


def _both_zeros(values) -> bool:
    return len(set(np.signbit(values[values == 0]))) == 2


def test_controller_matches_per_neighbour_reference():
    # States drawn from a small pool give exact value ties, rounding ties and
    # signed zeros; a row's extreme record ties the states of its holder's
    # neighbourhood; node 0 has no in-neighbours. The zero-heavy, one-signed
    # pools of the last two seeds put both zeros at an end of the hull: a
    # recentre step then reads a zero end from the index, and a scalar
    # sequence has one zero end or is zero throughout. The neighbourhood
    # laws also run on _mixed_twelve, whose sparse and dense nodes must both
    # decide as the reference does; the Controller's own choice of index is
    # counted. The scalar laws also run on weighted cycles and paths, where
    # each cancels its in-arc weight times the estimate, and on their
    # smallest graphs, n = 1 and n = 2, with logs of their own.
    n, T = 5, 12
    seen = dict.fromkeys(("exact", "rounding", "hood_vs_extreme", "no_nbrs",
                          "accurate", "recentre", "recentre_zero_end",
                          "scalar_one_zero_end", "scalar_all_zero",
                          "sparse_decided", "dense_decided"), 0)
    mixed = WeightedDigraph(_mixed_twelve())
    pools = [_POOL] * 6 + [np.array([-0.5, -0.0, 0.0]),
                           np.array([-0.0, 0.0, 0.5])]
    for seed, pool in enumerate(pools):
        rng = np.random.default_rng(seed)
        w = random_strongly_connected(n, seed=seed).weights.copy()
        w[0] = 0.0
        g = WeightedDigraph(w)
        log = _log(rng.choice(pool, size=(T + 1, n)),
                   rows_z=list(rng.normal(size=(T, n))))
        x_max, x_min = _extreme_series(log)[:2]
        graphs = [("local_flow", g), ("max_enhanced", g), ("network_flow", g),
                  ("path_root", build_canonical("path_root_selfloop", n)),
                  ("cycle_global", build_canonical("cycle", n))]
        graphs += [("path_root", build_canonical("path_root_selfloop", n, weight=w,
                                                 root_weight=a))
                   for w, a in ((1.0, 2.0), (0.3, -1.0), (-1.5, 0.37))]
        graphs += [("cycle_global", build_canonical("cycle", n, weight=a))
                   for a in (2.0, -1.0, 0.37)]
        graphs.append(("cycle_global", WeightedDigraph(
            np.roll(np.diag(np.random.default_rng([seed, 1]).uniform(-2.0, 2.0, n)),
                    1, axis=0))))
        branches = []
        for kind, kg in graphs:
            for t, u in enumerate(_decide_all(kind, kg, log), start=1):
                ref = _reference_u(kind, kg, log, t, branches=branches)
                assert _bits(u) == _bits(ref), (seed, kind, t)
        log12 = _log(rng.choice(pool, size=(T + 1, 12)),
                     rows_z=list(rng.normal(size=(T, 12))))
        for kind in ("local_flow", "max_enhanced"):
            ctl = Controller(ControllerSpec(kind), mixed)
            for t in range(1, T + 1):
                ref = _reference_u(kind, mixed, log12, t)
                assert _bits(ctl.controls(log12, t)) == _bits(ref), (
                    seed, kind, t, "n = 12")
            for i, dense in enumerate(_dense_nodes(ctl)):
                # nodes that cancel through a witness
                seen["dense_decided" if dense else "sparse_decided"] += bool(
                    mixed.neighbors(i))
        for m in (1, 2):
            # at m = 1 the in-arc is the node's own self-loop: the two
            # scalar laws become one
            log_m = _log(rng.choice(pool, size=(T + 1, m)),
                         rows_z=list(rng.normal(size=(T, m))))
            for a in (1.0, 2.0, -1.0):
                for kind, kg in (
                        ("cycle_global", build_canonical("cycle", m, weight=a)),
                        ("path_root", build_canonical(
                            "path_root_selfloop", m, root_weight=a))):
                    for t, u in enumerate(_decide_all(kind, kg, log_m), start=1):
                        ref = _reference_u(kind, kg, log_m, t)
                        assert _bits(u) == _bits(ref), (seed, kind, m, a, t)
        x = log.x_hist
        for t, recentre in enumerate(branches, start=1):
            hull = x[:t + 1]
            seen["accurate"] += not recentre
            seen["recentre"] += recentre
            seen["recentre_zero_end"] += recentre and _both_zeros(hull) and (
                hull.max() == 0 or hull.min() == 0)
            times = np.arange(t + 1)
            # path_root's column 0, then the diagonals of control_cycle
            for seq in [x[times, 0]] + [x[times, (times - c) % n]
                                        for c in range(n)]:
                if _both_zeros(seq):
                    seen["scalar_all_zero"] += not seq.any()
                    seen["scalar_one_zero_end"] += seq.any() and (
                        seq.max() == 0 or seq.min() == 0)
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


def test_zero_midpoint_is_positive_zero():
    # On an all-zero history with both signs, ndarray.max/min pick a zero by
    # a rule that depends on the array length and the CPU's SIMD level. The
    # midpoint 0.5 * (hi + lo) + 0.0 is +0.0 whichever zeros they pick, so
    # with zero estimates of either sign no control carries a sign bit, and
    # the Controller still matches the reference bits.
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
                assert not np.signbit(u).any(), (seed, kind, t)


def test_zero_rule_leaves_the_flow_midpoints_unchanged():
    # network_flow recentres only when a witness lies beyond epsilon > 0, so
    # its hull holds a nonzero state and its midpoint is never -0.0; the
    # max_enhanced sum acc + mid starts from acc = +0.0 and acc is never
    # -0.0, so either zero mid gives the same bits. The + 0.0 on these two
    # midpoints moves no output: without it, the laws decide alike on
    # histories whose hull ends are zeros of both signs.
    n, T = 5, 16
    eps = ControllerSpec("network_flow").epsilon
    seen = dict.fromkeys(("recentre_zero_end", "negative_zero_mid"), 0)
    pools = [np.array([-0.5, -0.0, 0.0]), np.array([-0.0, 0.0, 0.5]),
             np.array([-0.0, 0.0])]
    for seed, pool in enumerate(pools):
        rng = np.random.default_rng(seed)
        g = random_strongly_connected(n, seed=seed)
        x = rng.choice(pool, size=(T + 1, n))
        x[0] = rng.choice([-0.0, 0.0], size=n)   # the first nonzero recentres
        log = _log(x, rows_z=list(rng.choice(pool, size=(T, n))))
        series = _extreme_series(log)
        x_max, x_min = series[:2]
        for t in range(1, T + 1):
            w = global_witnesses(log, t)
            if not np.all(w.dist <= eps):
                hull = log.x_hist[:t + 1]
                old = -(g.weights @ w.fhat) + 0.5 * (hull.max() + hull.min())
                new = control_network_flow(log, g, eps, t)
                assert _bits(old) == _bits(new), (seed, t)
                seen["recentre_zero_end"] += hull.max() == 0 or hull.min() == 0
            mid = 0.5 * (float(x_max[:t + 1].max()) + float(x_min[:t + 1].min()))
            seen["negative_zero_mid"] += mid == 0 and np.signbit(mid)
            for i in range(n):
                enh = EnhancedFlowView(LocalFlowView(log, g, i), *series)
                acc = 0.0
                for j in g.neighbors(i):
                    acc -= g.weights[i, j] * enhanced_witness(enh, j, t).fhat
                new = control_max_enhanced(enh, g, i, t)
                assert _bits(acc + mid) == _bits(new), (seed, i, t)
    assert all(seen.values()), seen


class _RowsOnlyLog(FlowLog):
    """A flow log that serves its rows and states but no history array."""

    @property
    def x_hist(self):
        raise AssertionError("a law read the state history")

    @property
    def z_hist(self):
        raise AssertionError("a law read the estimate history")


def test_laws_read_only_rows():
    # Driven as the runner drives it, one decision per step and then the
    # next row, each law's Controller reads only the log's state and row
    # lists (FlowLog.state and row), on random histories and on all-zero
    # ones with mixed signs, and decides as the reference does on an
    # ordinary log.
    n, T = 5, 30
    graphs = {"network_flow": random_strongly_connected(n, seed=1),
              "local_flow": random_strongly_connected(n, seed=2),
              "max_enhanced": random_strongly_connected(n, seed=3),
              "path_root": build_canonical("path_root_selfloop", n),
              "cycle_global": build_canonical("cycle", n)}
    for seed in range(2):
        rng = np.random.default_rng(seed)
        signs = rng.integers(0, 2, size=(2, T + 1, n)).astype(bool)
        histories = (rng.normal(size=(2, T + 1, n)),
                     np.where(signs, -0.0, 0.0))
        for x, z in histories:
            plain = _log(x, rows_z=list(z[:T]))
            for kind, g in graphs.items():
                log = _RowsOnlyLog(x[0], T)
                ctl = Controller(ControllerSpec(kind), g)
                for t in range(T + 1):
                    u = ctl.controls(log, t)
                    if t > 0:
                        ref = _reference_u(kind, g, plain, t)
                        assert _bits(u) == _bits(ref), (seed, kind, t)
                    if t < T:
                        log.append(x[t + 1], z=z[t], u=u)


def test_controls_that_skip_times_take_in_the_skipped_rows():
    # A call may skip times, at the start of a run or between two calls: it
    # takes in every row it skipped and decides as the reference does at the
    # times it is called for.
    n, T = 5, 9
    graphs = {"network_flow": random_strongly_connected(n, seed=1),
              "local_flow": random_strongly_connected(n, seed=2),
              "max_enhanced": random_strongly_connected(n, seed=3),
              "path_root": build_canonical("path_root_selfloop", n),
              "cycle_global": build_canonical("cycle", n)}
    rng = np.random.default_rng(4)
    log = _log(rng.choice(_POOL, size=(T + 1, n)),
               rows_z=list(rng.normal(size=(T, n))))
    for times in ((0, 3), (0, 3, 4, 7, 9), (3, 8), (1, 2, 6)):
        for kind, g in graphs.items():
            ctl = Controller(ControllerSpec(kind), g)
            for t in times:
                u = ctl.controls(log, t)
                ref = _reference_u(kind, g, log, t) if t else np.zeros(n)
                assert _bits(u) == _bits(ref), (times, kind, t)


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
        log = FlowLog(x[0], cfg.horizon)
        branches = []
        for t in range(1, cfg.horizon):
            log.append(x[t], z=z[t - 1], u=u[t - 1])
            if kind == "network_flow":
                ref = control_network_flow(log, g, cfg.controller.epsilon, t,
                                           branches)
            else:
                series = None
                if kind == "max_enhanced":
                    # the first argmax/argmin of each row, as the law takes them
                    rows = np.arange(t + 1)
                    hi, lo = x[:t + 1].argmax(axis=1), x[:t + 1].argmin(axis=1)
                    series = (x[rows, hi], x[rows, lo],
                              z[rows[:t], hi[:t]], z[rows[:t], lo[:t]])
                ref = _reference_u(kind, g, log, t, series)
            assert _bits(u[t]) == _bits(ref), (kind, t)
        if kind == "network_flow":
            assert tuple(branches) == res.explore_log[:cfg.horizon - 1]
            assert len(set(branches)) == 2   # both branches replayed


def test_weighted_cycle_and_path_laws_stay_within_the_guard():
    # cycle_global and path_root cancel a * estimate, with a the arc into the
    # controlled node; a law that cancelled the bare estimate tripped the
    # guard within 35 to 169 steps in each of these cases, all at
    # |a| * slope <= 2.4 < 3/2 + sqrt(2). The verdict may flip on noise, so
    # only the guard is asserted.
    cases = [("cycle_global", {"kind": "cycle", "weight": 2.0}, 0.6),
             ("cycle_global", {"kind": "cycle", "weight": 2.0}, 1.2),
             ("cycle_global", {"kind": "cycle", "weight": 0.5}, 4.8),
             ("cycle_global", {"kind": "cycle", "weight": -1.0}, 2.4),
             ("path_root", {"kind": "path_root_selfloop", "root_weight": 2.0}, 0.6),
             ("path_root", {"kind": "path_root_selfloop", "root_weight": 2.0}, 1.2),
             ("path_root", {"kind": "path_root_selfloop", "root_weight": -1.0}, 2.4)]
    for noise, dist, start in ((2, 5, 1), (3, 6, 2), (4, 7, 3)):
        for kind, graph, slope in cases:
            res = run_experiment(ExperimentConfig({
                "graph": {**graph, "n": 5},
                "function": {"kind": "linear", "a": slope},
                "controller": {"kind": kind},
                "observation": {"mode": "direct", "d0": 0.01,
                                "noise_seed": noise},
                "disturbance": {"w_star": 0.02, "generator": "seeded_uniform",
                                "seed": dist},
                "horizon": 3000,
                "x0": {"seed": start, "scale": 0.05},
            }))
            assert not res.summary["guard_tripped"], (noise, kind, graph, slope)
            assert res.summary["steps_run"] == 3000


def test_runner_local_flow_reads_only_its_neighbourhood():
    # The dense nodes read a shared index that holds every column, so their
    # confinement rests on the column mask. Overwriting every column outside
    # N_i u {i}, states and estimates, with states that lure the search
    # (nearer than any member) must leave u_i unchanged, bit for bit, for
    # sparse and dense nodes alike.
    cfg = ExperimentConfig({
        "graph": {"kind": "custom", "weights": _mixed_twelve().tolist()},
        "function": {"kind": "bounded_perturbed_linear", "a": 0.8,
                     "amplitude": 0.5},
        "controller": {"kind": "local_flow"},
        "observation": {"mode": "direct", "d0": 0.02, "noise_seed": 1},
        "disturbance": {"w_star": 0.05, "generator": "seeded_uniform",
                        "seed": 3},
        "horizon": 30,
        "x0": {"seed": 4},
    })
    res = run_experiment(cfg)
    g, T = cfg.graph, cfg.horizon
    x, z, u = res.x_hist, res.z_hist, res.u_hist
    assert not res.summary["guard_tripped"]
    dense = []
    later = np.minimum(np.arange(T + 1) + 1, T)
    for i in range(12):
        hood = g.closed_neighbors(i)
        outside = [c for c in range(12) if c not in hood]
        x2, z2 = x.copy(), z.copy()
        # row s of each outside column holds x_j(s + 1) of a neighbour j,
        # so the query x_j(t) sits at distance 0 from row t - 1
        x2[:, outside] = x[later, g.neighbors(i)[-1]][:, None]
        z2[:, outside] = -3e6
        fake = FlowLog(x2[0], T)
        for t in range(T):
            fake.append(x2[t + 1], z=z2[t], u=u[t])
        ctl = Controller(cfg.controller, g)
        for t in range(1, T):
            assert _bits(ctl.controls(fake, t)[i]) == _bits(u[t, i]), (i, t)
        dense.append(_dense_nodes(ctl)[i])
    assert set(dense) == {False, True}   # sparse and dense nodes both checked


def test_large_sparse_graph_keeps_every_node_on_its_own_index():
    # On cycle:40 every closed neighbourhood has 2 members, 2^2 < 40, so the
    # density rule keeps each node on its own index and builds no shared
    # one. The shared walk would serve these nodes too, but slower: it walks
    # past the records of the 38 columns a node may not read.
    g = build_canonical("cycle", 40)
    for kind in ("local_flow", "max_enhanced"):
        ctl = Controller(ControllerSpec(kind), g)
        assert _dense_nodes(ctl) == [False] * 40
        assert ctl._law.shared is None


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
