"""Trajectory logging, neighborhood views, and extreme-record consensus."""

import itertools
from dataclasses import dataclass

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
    control_local_flow,
    is_strongly_connected,
    random_strongly_connected,
    run_experiment,
    run_extreme_consensus,
)
from netfeedback.flows import ExtremeConsensus


def _filled_log(n=3, steps=4, seed=0):
    rng = np.random.default_rng(seed)
    log = FlowLog(rng.normal(size=n), steps + 1)   # room for one more row
    for _ in range(steps):
        log.append(rng.normal(size=n), z=rng.normal(size=n), u=rng.normal(size=n))
    return log


# ---- FlowLog ----

def test_append_protocol():
    log = FlowLog([0.0, 0.0], 3)
    assert log.t == 0            # X(0) is held from construction
    assert log.x_hist.tolist() == [[0.0, 0.0]]
    assert log.z_hist.shape == log.u_hist.shape == (0, 2)
    for missing in ((), ([0.5, 0.5],)):
        with pytest.raises(TypeError):
            log.append([1.0, 1.0], *missing)   # every append needs z and u
    assert log.t == 0
    log.append([1.0, 1.0], z=[0.5, 0.5], u=[0.1, 0.1])
    assert log.t == 1
    assert log.z_hist.tolist() == [[0.5, 0.5]]
    assert log.u_hist.tolist() == [[0.1, 0.1]]


def _check_lists(log):
    # state(s) and row(s) read what x_hist and z_hist hold, as lists, and
    # refuse a time the log has not reached (the arrays behind them are
    # allocated to the horizon, so an unchecked read would return garbage)
    for s in range(log.t + 1):
        assert log.state(s) == log.x_hist[s].tolist()
    for s in range(log.t):
        assert log.row(s) == (log.x_hist[s].tolist(), log.z_hist[s].tolist())
    for s in (-1, log.t + 1):
        with pytest.raises(IndexError):
            log.state(s)
    for s in (-1, log.t):
        with pytest.raises(IndexError):
            log.row(s)


def test_rows_read_as_lists():
    # after every append, and after every commit of rows written in place
    # as the runner writes them; the list commit returns is the one the log
    # keeps for X(t), and it is X(t-1)'s list after the next commit
    rng = np.random.default_rng(0)
    rows = rng.normal(size=(5, 3, 3))
    log = FlowLog(rows[0, 0], 4)
    _check_lists(log)
    for x, z, u in rows[1:]:
        log.append(x, z=z, u=u)
        _check_lists(log)
    direct = FlowLog(rows[0, 0], 4)
    last = None
    for (x, z, u), (x_next, z_next) in zip(rows[1:], direct.open_rows()):
        x_next[:], z_next[:] = x, z
        kept = direct.commit(u)
        assert kept is direct.state(direct.t)
        assert last is None or last is direct.state(direct.t - 1)
        assert last is None or last is direct.row(direct.t - 1)[0]
        last = kept
        _check_lists(direct)
    for name in ("x_hist", "z_hist", "u_hist"):
        assert getattr(direct, name).tobytes() == getattr(log, name).tobytes()
    with pytest.raises(IndexError):   # a full log has no row for U(horizon)
        direct.commit(rows[0, 2])
    assert direct.t == 4


def test_run_experiment_decides_once_per_step(monkeypatch):
    # one controls call per step, the guard-stopped step included, so the
    # count of decisions is the count of steps
    calls = []
    controls = Controller.controls

    def count(self, log, t):
        calls.append(t)
        return controls(self, log, t)

    monkeypatch.setattr(Controller, "controls", count)
    base = {"graph": {"kind": "cycle", "n": 3}, "horizon": 40,
            "x0": [0.4, -0.2, 0.1]}
    for kind, slope in (("zero", 0.8), ("network_flow", 0.8),
                        ("local_flow", 0.8), ("zero", 3.0)):
        calls.clear()
        res = run_experiment(ExperimentConfig(
            {**base, "controller": {"kind": kind}, "guard_cap": 100.0,
             "function": {"kind": "linear", "a": slope}}))
        assert calls == list(range(res.summary["steps_run"])), kind
    assert res.summary["guard_tripped"]


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


def test_full_log_refuses_another_row():
    rng = np.random.default_rng(1)
    log = FlowLog(rng.normal(size=2), 10)
    for _ in range(10):
        log.append(rng.normal(size=2), z=rng.normal(size=2), u=rng.normal(size=2))
    assert log.t == 10
    assert log.x_hist.shape == (11, 2)
    before = log.x_hist.copy()
    with pytest.raises(ValueError, match="full"):
        log.append(np.zeros(2), z=np.zeros(2), u=np.zeros(2))
    assert log.t == 10
    np.testing.assert_array_equal(log.x_hist, before)
    empty = FlowLog([1.0], 0)    # a zero horizon holds X(0) alone
    with pytest.raises(ValueError, match="full"):
        empty.append([2.0], [0.0], [0.0])
    assert empty.x_hist.tolist() == [[1.0]]


def test_shape_mismatch_rejected():
    log = FlowLog([0.0, 0.0, 0.0], 5)
    good = [1.0, 2.0, 3.0]
    row = np.array(good)
    # a (1, n) array, which a numpy row assignment would broadcast, and 0-d
    # scalars, in every position and alongside ndarray rows
    bad = [np.array([good]), np.float64(2.0), np.array(2.0), 2.0]
    cases = [([1.0, 2.0], good, good), (good, [1.0, 2.0], good),
             (good, good, [[1.0, 2.0, 3.0]])]
    cases += [(b, row, row) for b in bad] + [(row, b, row) for b in bad]
    cases += [(row, row, b) for b in bad]
    for x, z, u in cases:
        with pytest.raises(ValueError):
            log.append(x, z, u)
    assert log.t == 0
    # int and float32 n-vectors are stored as exact float64
    ints = np.array([1, -2, 3])
    singles = np.array([0.1, -1e-3, 3e38], dtype=np.float32)
    for x, z, u in ((ints, singles, row), (singles, row, ints),
                    (list(ints), list(singles), row)):
        log.append(x, z, u)
        t = log.t - 1
        for got, sent in ((log.x_hist[t + 1], x), (log.z_hist[t], z),
                          (log.u_hist[t], u)):
            assert got.dtype == np.float64
            assert got.tolist() == [float(v) for v in sent]
    assert log.t == 3
    for x0, horizon in (([], 5), ([[0.0, 1.0]], 5), ([0.0], -1)):
        with pytest.raises(ValueError):
            FlowLog(x0, horizon)


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
    log = FlowLog(rng.normal(size=5), 40)
    for _ in range(40):
        log.append(rng.normal(size=5), z=rng.normal(size=5), u=rng.normal(size=5))
    for i in range(5):
        outside = [j for j in range(5) if j not in g.neighbors(i) and j != i]
        x, z = log.x_hist.copy(), log.z_hist.copy()
        x[:, outside] = rng.normal(size=(41, len(outside)))
        z[:, outside] = 1e6
        fake = FlowLog(x[0], 40)
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


def test_a_decided_time_is_refused_and_logged_once():
    # At epsilon = 1e-9 every network_flow step recentres, so each decision
    # appends to branch_log; deciding t = 1 again appended a second entry
    # for the same step, and explore_log overcounted.
    log = _filled_log(n=3, steps=2)
    ctl = Controller(ControllerSpec("network_flow", epsilon=1e-9),
                     build_canonical("cycle", 3))
    ctl.controls(log, 0)
    ctl.controls(log, 1)
    for t in (1, 1, 0):
        with pytest.raises(ValueError, match="time cannot go back"):
            ctl.controls(log, t)
    ctl.controls(log, 2)
    assert ctl.branch_log == [True, True]   # one entry per decided step


def test_enhanced_view_series_lengths():
    g = build_canonical("cycle", 3)
    log = _filled_log(n=3, steps=2)
    local = LocalFlowView(log, g, 0)
    t = local.t
    ok = EnhancedFlowView(local, np.zeros(t + 1), np.zeros(t + 1),
                          np.zeros(t), np.zeros(t))
    assert ok.local is local
    with pytest.raises(ValueError):
        EnhancedFlowView(local, np.zeros(t), np.zeros(t + 1),
                         np.zeros(t), np.zeros(t))
    with pytest.raises(ValueError):
        EnhancedFlowView(local, np.zeros(t + 1), np.zeros(t + 1),
                         np.zeros(t + 1), np.zeros(t))


# ---- consensus ----

@dataclass
class _ConsensusState:
    """Per-node records (x, z, origin) for one consensus sweep.

    origin is the node id the record originated from; ties on x prefer the
    lowest origin, which makes the limit independent of where duplicates sit.
    """

    x: np.ndarray
    z: np.ndarray
    origin: np.ndarray

    @classmethod
    def init(cls, x, z):
        x = np.asarray(x, dtype=float)
        z = np.asarray(z, dtype=float)
        if x.shape != z.shape or x.ndim != 1:
            raise ValueError("x and z must be matching 1-d arrays")
        return cls(x.copy(), z.copy(), np.arange(x.size))


def _consensus_round(g, state, mode):
    """One synchronous round: each node adopts the best record over N_i u {i},
    the largest x for mode "max", the smallest for "min"."""
    if mode not in ("max", "min"):
        raise ValueError(f"mode must be 'max' or 'min', got {mode!r}")
    sign = 1.0 if mode == "max" else -1.0
    x_new = state.x.copy()
    z_new = state.z.copy()
    o_new = state.origin.copy()
    for i in range(g.n):
        best = None
        for j in g.closed_neighbors(i):
            key = (sign * state.x[j], -state.origin[j])
            if best is None or key > best[0]:
                best = (key, j)
        j = best[1]
        x_new[i] = state.x[j]
        z_new[i] = state.z[j]
        o_new[i] = state.origin[j]
    return _ConsensusState(x_new, z_new, o_new)


def _reference_extreme_consensus(g, x, z):
    """The record-copying protocol run_extreme_consensus replaced: every node
    carries a whole (x, z, origin) record, compared by the key
    (+-x, -origin). Kept as the oracle for the rank flood."""
    if not is_strongly_connected(g):
        raise ValueError("extreme consensus needs a strongly connected graph")
    hi = _ConsensusState.init(x, z)
    lo = _ConsensusState.init(x, z)
    rounds = 0
    for _ in range(g.n):
        hi_next = _consensus_round(g, hi, "max")
        lo_next = _consensus_round(g, lo, "min")
        rounds += 1
        settled = (np.array_equal(hi_next.x, hi.x)
                   and np.array_equal(hi_next.origin, hi.origin)
                   and np.array_equal(lo_next.x, lo.x)
                   and np.array_equal(lo_next.origin, lo.origin))
        hi, lo = hi_next, lo_next
        if settled:
            break
    return ExtremeConsensus(
        x_max=float(hi.x[0]), z_at_max=float(hi.z[0]),
        x_min=float(lo.x[0]), z_at_min=float(lo.z[0]),
        holder_max=int(hi.origin[0]), holder_min=int(lo.origin[0]),
        rounds=rounds)


# signed zeros and infinities stress the ranking's ties and ends
_EDGE_VALUES = np.array([-1.0, -0.0, 0.0, 0.5, 1.0, np.inf, -np.inf])


def _mismatches(cases):
    """Cases (g, x, z) whose seven fields differ from the oracle's by repr."""
    bad = []
    for g, x, z in cases:
        got = run_extreme_consensus(g, x, z)
        want = _reference_extreme_consensus(g, x, z)
        if [repr(v) for v in got] != [repr(v) for v in want]:
            bad.append((g.weights.tolist(), x.tolist(), z.tolist(), got, want))
    return bad


def _every_small_digraph_case():
    """Every strongly connected digraph on 1..4 nodes, each self-arc subset
    included, with one draw of edge values per graph."""
    for n in range(1, 5):
        off = [(i, j) for i in range(n) for j in range(n) if i != j]
        graphs = []
        for mask in range(1 << len(off)):
            w = np.zeros((n, n))
            for b, (i, j) in enumerate(off):
                w[i, j] = mask >> b & 1
            if is_strongly_connected(WeightedDigraph(w)):
                for loops in itertools.product((0.0, 1.0), repeat=n):
                    np.fill_diagonal(w, loops)
                    graphs.append(WeightedDigraph(w))
        values = np.random.default_rng(n).choice(_EDGE_VALUES,
                                                 size=(len(graphs), 2, n))
        for g, (x, z) in zip(graphs, values):
            yield g, x, z


def test_consensus_matches_reference_on_every_small_digraph():
    cases = list(_every_small_digraph_case())
    assert len(cases) == 2 + 4 * 1 + 8 * 18 + 16 * 1606
    assert _mismatches(cases) == []


def test_consensus_matches_reference_on_random_graphs():
    cases = []
    for n in range(5, 13):
        for seed in range(100):
            rng = np.random.default_rng([n, seed])
            cases.append((random_strongly_connected(n, seed=seed),
                          rng.choice(_EDGE_VALUES, size=n),
                          rng.choice(_EDGE_VALUES, size=n)))
    assert _mismatches(cases) == []


def test_consensus_floods_one_arc_per_round():
    # node i hears only node i-1, so the max at node 0 needs n-1 rounds to
    # reach node n-1 and one more to settle; a flood that read beyond
    # N_i u {i} would settle sooner
    for n in range(2, 9):
        x = np.zeros(n)
        x[0], x[1] = 1.0, -1.0
        for consensus in (run_extreme_consensus, _reference_extreme_consensus):
            res = consensus(build_canonical("cycle", n), x, -x)
            assert (res.holder_max, res.holder_min, res.rounds) == (0, 1, n)
            assert (res.z_at_max, res.z_at_min) == (-1.0, 1.0)


def test_consensus_refuses_nan_and_misshapen_records():
    g = build_canonical("cycle", 3)
    # a NaN has no rank; the record-copying loop let it win wherever it was
    # a node's first neighbour
    with pytest.raises(ValueError, match="NaN"):
        run_extreme_consensus(g, [1.0, np.nan, 0.0], [0.0, 0.0, 0.0])
    # a NaN payload is carried, not ranked
    res = run_extreme_consensus(g, [1.0, 2.0, 0.0], [0.0, np.nan, 0.0])
    assert res.holder_max == 1 and np.isnan(res.z_at_max)
    for x, z in (([1.0, 2.0], [0.0, 0.0, 0.0]),         # short x
                 ([1.0, 2.0, 3.0, 4.0], [0.0] * 4),     # long x and z
                 ([1.0, 2.0, 3.0], [0.0, 0.0]),         # short z
                 ([[1.0, 2.0, 3.0]], [[0.0, 0.0, 0.0]])):
        with pytest.raises(ValueError, match=r"shape \(3,\)"):
            run_extreme_consensus(g, x, z)


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
