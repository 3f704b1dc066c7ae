"""The feedback laws built on nearest-neighbour reuse of past estimates.

All laws share one idea: to cancel f(x_j(t)) without knowing f, reuse the
recorded estimate z taken at whichever past state sits closest to x_j(t).
They differ in which history they may search (global flow, one node's own
history, the cycle diagonal, the local neighbourhood, or the neighbourhood
plus consensus extremes) and in the anchor added after cancellation (running
midpoint, own initial state, ...). Controls at time 0 are identically zero.
The rooted-path law is the cycle law on the root's self-loop, a cycle of
one node: both run the Xie-Guo scalar law along one in-arc per node.

Witness ties break deterministically: earliest time first, then lowest node
index; the enhanced witness prefers neighbourhood states over extreme records.

The witness and control_* functions are the reference laws: each decision
scans the history it may search. The runner's Controller makes the same
decisions, bit for bit, from the flow log alone: it grows sorted WitnessIndex
records by one flow row per step, so a nearest-record query costs O(log t),
and the ends of those indices are the running extremes that the laws
recentre on. A law reads only its indices and the rows it is handed. The
max_enhanced law takes each row's network extremes in closed form. Every
recentring midpoint is 0.5 * (hi + lo) + 0.0, so a zero midpoint is +0.0
whatever the zero signs of its ends: they mean nothing to the law, and
ndarray.max/min pick among tied zeros by a rule that varies with the CPU.
The fast laws take it from WitnessIndex.midpoint; the reference laws keep
their own copies, as the oracle.

The neighbourhood laws split the nodes by a property of the graph. A node
whose closed neighbourhood is sparse, |N_i u {i}|^2 < n, keeps its own index
of its columns. The dense nodes read one shared index of whole rows through
column masks, one walk per queried state serving every dense node that asks
for it; the law adds up the served groups in query order, so each dense
node sums its terms in the order of N_i, as the reference laws do. The
shared index holds columns a dense node may not read, so its confinement
rests on the mask; the reference laws read a LocalFlowView, which holds
nothing else, and stay the structural oracle for both kinds.
"""

import math
from collections import namedtuple
from dataclasses import dataclass

import numpy as np

from .flows import EnhancedFlowView, FlowLog, LocalFlowView, WitnessIndex
from .graphs import WeightedDigraph


@dataclass(frozen=True)
class ControllerSpec:
    """kind is "zero" or a law of _LAWS; epsilon only matters for
    network_flow."""

    kind: str
    epsilon: float = 1e-3

    def __post_init__(self):
        if self.kind not in ("zero", *_LAWS):
            raise ValueError(f"unknown controller kind {self.kind!r}")
        if not math.isfinite(self.epsilon) or self.epsilon <= 0:
            raise ValueError("epsilon must be finite and positive")


@dataclass(frozen=True)
class WitnessRecord:
    """One nearest-neighbour lookup: distance, witness (time, node), value.

    node is None when the witness is a consensus extreme record.
    """

    dist: float
    time: int
    node: int | None
    fhat: float


# Global witnesses for every target node at one decision time: one array
# entry per target node for each field.
WitnessSet = namedtuple("WitnessSet", ["dist", "time", "node", "fhat"])


def global_witnesses(log: FlowLog, t: int) -> WitnessSet:
    """Nearest past state over all nodes and times <= t-1, per target node.

    The scan runs over the time-major state table, so argmin's first-match
    rule is exactly the earliest-time-then-lowest-node tie break.
    """
    if t < 1:
        raise ValueError("witnesses need at least one past snapshot")
    hist = log.x_hist[:t].reshape(-1)
    q = log.x_hist[t]
    d = np.abs(hist[None, :] - q[:, None])
    flat = d.argmin(axis=1)
    s, v = np.divmod(flat, log.n)
    return WitnessSet(dist=d[np.arange(q.size), flat], time=s, node=v,
                      fhat=log.z_hist[s, v])


def control_network_flow(log: FlowLog, graph: WeightedDigraph, epsilon: float,
                         t: int, branch_log: list | None = None) -> np.ndarray:
    """Cancel via global witnesses; recentre on the midpoint of the running
    hull of X(0..t) whenever any node's witness sits farther than epsilon.
    branch_log, when given, records True for recentre (explore) steps."""
    if t == 0:
        return np.zeros(log.n)
    w = global_witnesses(log, t)
    u = -(graph.weights @ w.fhat)
    accurate = bool(np.all(w.dist <= epsilon))
    if branch_log is not None:
        branch_log.append(not accurate)
    if accurate:
        return u
    hull = log.x_hist[:t + 1]
    return u + (0.5 * (hull.max() + hull.min()) + 0.0)


def control_path_root(log: FlowLog, t: int, graph: WeightedDigraph) -> np.ndarray:
    """Root node cancels a_00 times the estimate from its own history and
    recentres on its own running extremes; every other node applies no
    control."""
    u = np.zeros(log.n)
    if t == 0:
        return u
    own = log.x_hist[:t + 1, 0]
    s = int(np.abs(own[t] - own[:t]).argmin())
    u[0] = (-graph.weights[0, 0] * log.z_hist[s, 0]
            + (0.5 * (own.max() + own.min()) + 0.0))
    return u


def control_cycle(log: FlowLog, t: int, graph: WeightedDigraph) -> np.ndarray:
    """Cycle law: each node works on the rotating diagonal of the flow so
    that, in rotated coordinates, every node runs the scalar law, cancelling
    its in-arc weight a_{i0, i0-1} times the estimate."""
    n = log.n
    u = np.zeros(n)
    if t == 0:
        return u
    x, z = log.x_hist, log.z_hist
    times = np.arange(t + 1)
    for i0 in range(n):
        cols = (times - t + i0 - 1) % n
        diag = x[times, cols]
        s = int(np.abs(diag[t] - diag[:t]).argmin())
        u[i0] = (-graph.weights[i0, (i0 - 1) % n] * z[s, cols[s]]
                 + (0.5 * (diag.max() + diag.min()) + 0.0))
    return u


def local_witness(view: LocalFlowView, target_node: int, t: int) -> WitnessRecord:
    """Nearest past state of x_target(t) within the view's own columns."""
    if t < 1:
        raise ValueError("witnesses need at least one past snapshot")
    hist = view.x[:t]
    q = view.x[t, view.col_of(target_node)]
    d = np.abs(hist - q).reshape(-1)
    flat = int(d.argmin())
    s, c = divmod(flat, len(view.nodes))
    return WitnessRecord(float(d[flat]), s, view.nodes[c], float(view.z[s, c]))


def control_local_flow(view: LocalFlowView, graph: WeightedDigraph,
                       i: int, t: int) -> float:
    """Cancel neighbours via the local witnesses and anchor on x_i(0)."""
    if t == 0:
        return 0.0
    acc = 0.0
    for j in graph.neighbors(i):
        acc -= graph.weights[i, j] * local_witness(view, j, t).fhat
    return acc + float(view.x[0, view.col_of(i)])


def enhanced_witness(view: EnhancedFlowView, target_node: int,
                     t: int) -> WitnessRecord:
    """Nearest record among neighbourhood states and consensus extremes.

    Candidate order: all neighbourhood states (time-major), then per past
    time the max record before the min record; argmin's first match realizes
    the neighbour-preferred, earliest-time tie rule.
    """
    if t < 1:
        raise ValueError("witnesses need at least one past snapshot")
    loc = view.local
    k = len(loc.nodes)
    hood = loc.x[:t].reshape(-1)
    ext = np.empty(2 * t)
    ext[0::2] = view.x_max[:t]
    ext[1::2] = view.x_min[:t]
    cand = np.concatenate([hood, ext])
    q = loc.x[t, loc.col_of(target_node)]
    d = np.abs(cand - q)
    flat = int(d.argmin())
    if flat < hood.size:
        s, c = divmod(flat, k)
        return WitnessRecord(float(d[flat]), s, loc.nodes[c], float(loc.z[s, c]))
    s, which = divmod(flat - hood.size, 2)
    fhat = view.z_at_max[s] if which == 0 else view.z_at_min[s]
    return WitnessRecord(float(d[flat]), s, None, float(fhat))


def control_max_enhanced(view: EnhancedFlowView, graph: WeightedDigraph,
                         i: int, t: int) -> float:
    """Cancel via enhanced witnesses and recentre on the midpoint of the
    folded consensus extremes."""
    if t == 0:
        return 0.0
    acc = 0.0
    for j in graph.neighbors(i):
        acc -= graph.weights[i, j] * enhanced_witness(view, j, t).fhat
    y_hi = float(view.x_max[:t + 1].max())
    y_lo = float(view.x_min[:t + 1].min())
    return acc + (0.5 * (y_hi + y_lo) + 0.0)


# Per-kind fast paths. ingest(s, xs, zs) takes the completed flow row s
# once; decide(t, q) returns U(t) for q = X(t). xs, zs and q are lists
# of floats. Each index is fed in the order of the reference's candidate
# scan, so a record's insertion rank is its position in that scan and the
# tie rules agree.

class _NetworkFlow:
    """One global index, key s*n + v: control_network_flow. The index's
    ends and X(t) span the running hull of all states. It keeps no reference
    to the Controller: without a cycle, a finished run's indices are freed
    at once, not at the next cyclic garbage collection."""

    def __init__(self, ctl):
        self.weights = ctl.graph.weights
        self.epsilon = ctl.spec.epsilon
        self.branch_log = ctl.branch_log
        self.index = WitnessIndex()

    def ingest(self, s, xs, zs):
        for x, z in zip(xs, zs):
            self.index.insert(x, z)

    def decide(self, t, q):
        index = self.index
        hits = [index.nearest(qj) for qj in q]
        u = -(self.weights @ np.array([h[2] for h in hits]))
        accurate = max(h[0] for h in hits) <= self.epsilon
        self.branch_log.append(not accurate)
        if accurate:
            return u
        return u + index.midpoint(max(q), min(q))


class _ScalarCycle:
    """control_cycle over the m nodes of a cycle, and control_path_root as
    the same law on the root's self-loop, a cycle of one node (m = 1).
    Diagonal class c = (s - v) mod m is the sequence x[s, (s - c) mod m],
    one record per time (key = time). Node i0 works on the class of its
    in-neighbour j = (i0 - 1) mod m's current state q = x[t, j], class
    (t - j) mod m = (t - i0 + 1) mod m, fed through the arc a_{i0, j}: it
    cancels a times the nearest record's estimate and recentres on the
    midpoint of the sequence's extremes, the index's ends and q. Nodes off
    the cycle get +0.0."""

    def __init__(self, ctl, m):
        self.n = ctl.graph.n
        self.m = m
        self.indices = [WitnessIndex() for _ in range(m)]
        weights = ctl.graph.weights.tolist()
        self.arcs = [(i0, (i0 - 1) % m, weights[i0][(i0 - 1) % m])
                     for i0 in range(m)]

    def ingest(self, s, xs, zs):
        indices, m = self.indices, self.m
        for v in range(m):
            indices[(s - v) % m].insert(xs[v], zs[v])

    def decide(self, t, q):
        indices, m = self.indices, self.m
        u = np.zeros(self.n)
        for i0, j, a in self.arcs:
            index = indices[(t - j) % m]
            x = q[j]
            u[i0] = -a * index.nearest(x)[2] + index.midpoint(x, x)
        return u


class _Neighbourhood:
    """control_local_flow, and with the extreme records control_max_enhanced.
    Node i searches the columns N_i u {i} of the flow. A sparse node, with
    |N_i u {i}|^2 < n, keeps its own index of those columns, key s*k + c;
    confinement is structural there. The list own holds the sparse nodes
    alone, each with its own index, and ingest and decide both walk it. The
    dense nodes, known only by the askers and readers masks, share one index
    of the whole rows, key s*n + v as in _NetworkFlow, and are confined by
    column masks (WitnessIndex.nearest_among): each row goes in once, not
    once per out-neighbour, and one walk outward from each x_j(t) serves
    every dense node that asks for it. The walk returns served groups in
    ascending j, and the dense nodes add them up in that order, so each sums
    its terms in the order of N_i. A node's first readable record lies about
    n/|N_i u {i}| <= sqrt(n) records out, which the rule keeps short: at
    T = 1000, with both walks on their tie-free fast paths, the shared walk
    broke even with own indices near |N_i u {i}|^2 = 0.5 n (n = 20 and 40)
    and was 2.6x slower on a 40-cycle, so the rule errs toward own indices.
    Columns ascend, so both keys order a node's records as the reference's
    time-major scan does. max_enhanced adds one index of the extreme
    records, key 2s (max) or 2s + 1 (min); its ends are the folded extremes.
    Row s's extremes are taken in closed form, the first argmax/argmin of
    X(s) with its estimate; that is the limit of flows.run_extreme_consensus
    on a strongly connected graph."""

    def __init__(self, ctl):
        g = ctl.graph
        n = g.n
        self.weights = weights = g.weights.tolist()
        self.own = []   # (i, N_i u {i}, N_i, row i of A, own index): sparse
        self.askers = [0] * n    # bit i of askers[j]: dense i has j in N_i
        self.readers = [0] * n   # bit i of readers[c]: dense i reads column c
        for i in range(n):
            hood = g.closed_neighbors(i)
            if len(hood) ** 2 < n:
                self.own.append((i, hood, g.neighbors(i), weights[i],
                                 WitnessIndex()))
                continue
            for j in g.neighbors(i):
                self.askers[j] |= 1 << i
            for c in hood:
                self.readers[c] |= 1 << i
        self.shared = WitnessIndex() if any(self.readers) else None
        self.x0 = None   # X(0), local_flow's anchors, from the first ingest
        self.extremes = (WitnessIndex() if ctl.spec.kind == "max_enhanced"
                         else None)

    def ingest(self, s, xs, zs):
        if s == 0:
            self.x0 = xs
        for _, hood, _, _, index in self.own:
            for v in hood:
                index.insert(xs[v], zs[v])
        if self.shared is not None:
            for x, z in zip(xs, zs):
                self.shared.insert(x, z)
        if self.extremes is not None:
            # max() and index() both stop at the first extreme element
            hi, lo = xs.index(max(xs)), xs.index(min(xs))
            self.extremes.insert(xs[hi], zs[hi])
            self.extremes.insert(xs[lo], zs[lo])

    def decide(self, t, q):
        n = len(q)
        if self.extremes is None:
            ext = None
            anchors = self.x0
        else:
            extremes = self.extremes
            ext = [extremes.nearest(qj) for qj in q]
            mid = extremes.midpoint(max(q), min(q))
            anchors = [mid] * n
        acc = [0.0] * n
        if self.shared is not None:
            # served groups in ascending j: each dense node adds up its
            # neighbours' terms in the order of N_i, as the reference does
            weights = self.weights
            for j, served, d, _, fhat in self.shared.nearest_among(
                    q, self.askers, self.readers):
                if ext is not None and ext[j][0] < d:   # ties: neighbourhood
                    fhat = ext[j][2]
                while served:
                    low = served & -served
                    i = low.bit_length() - 1
                    acc[i] -= weights[i][j] * fhat
                    served ^= low
        for i, _, nbrs, w, index in self.own:
            a = 0.0
            for j in nbrs:
                d, _, fhat = index.nearest(q[j])
                if ext is not None and ext[j][0] < d:
                    fhat = ext[j][2]
                a -= w[j] * fhat
            acc[i] = a
        return np.array([a + anchor for a, anchor in zip(acc, anchors)])


_LAWS = {"network_flow": _NetworkFlow,
         "path_root": lambda ctl: _ScalarCycle(ctl, 1),
         "cycle_global": lambda ctl: _ScalarCycle(ctl, ctl.graph.n),
         "local_flow": _Neighbourhood, "max_enhanced": _Neighbourhood}


class Controller:
    """The feedback law of one run; it reads nothing but the flow log.

    Each call controls(log, t) first takes in the log rows it has not seen:
    once X(s+1) has arrived, the completed row (X(s), Z(s)) goes into the
    law's sorted witness indices. In a run each call has one new row, t - 1,
    and a call that skips times takes in every row it skipped. The rows are
    read as lists of floats, with no history view built per step; X(t) and
    X(t-1) are the lists the log kept when it took them (FlowLog.state and
    row), shared with the runner's guard and read, never mutated. A time t
    the log has not reached is refused (IndexError) before any row is taken
    in. Each time is decided once: a time already decided is refused
    (ValueError), so branch_log holds one entry per decided step of
    network_flow. The zero law, which takes in no row, makes both checks
    too. Each nearest-record query is then a bisection; the decisions equal
    the control_* reference laws bit for bit.
    States must be finite, as the runner's divergence guard ensures.
    """

    def __init__(self, spec: ControllerSpec, graph: WeightedDigraph):
        self.spec = spec
        self.graph = graph
        self.branch_log = []   # network_flow: True when the recentre branch fired
        law = _LAWS.get(spec.kind)
        self._law = law(self) if law is not None else None   # None: zero
        self._seen = 0         # state rows X(0..seen-1) taken in

    def controls(self, log: FlowLog, t: int) -> np.ndarray:
        seen = self._seen
        if t < seen:
            raise ValueError("a Controller serves one run; time cannot go back")
        q = log.state(t)
        law = self._law
        if law is not None:
            for s in range(max(seen, 1) - 1, t):
                law.ingest(s, *log.row(s))
        self._seen = t + 1
        if t == 0 or law is None:
            return np.zeros(self.graph.n)
        return law.decide(t, q)
