"""The feedback laws built on nearest-neighbour reuse of past estimates.

All laws share one idea: to cancel f(x_j(t)) without knowing f, reuse the
recorded estimate z taken at whichever past state sits closest to x_j(t).
They differ in which history they may search (global flow, one node's own
history, the cycle diagonal, the local neighbourhood, or the neighbourhood
plus consensus extremes) and in the anchor added after cancellation (running
midpoint, own initial state, ...). Controls at time 0 are identically zero.

Witness ties break deterministically: earliest time first, then lowest node
index; the enhanced witness prefers neighbourhood states over extreme records.

The witness and control_* functions are the reference laws: each decision
scans the history it may search. The runner's Controller makes the same
decisions, bit for bit, from sorted WitnessIndex records that it grows by
one flow row per step, so a nearest-record query costs O(log t).
"""

import math
from dataclasses import dataclass

import numpy as np

from .flows import EnhancedFlowView, FlowLog, LocalFlowView, WitnessIndex
from .graphs import WeightedDigraph


@dataclass(frozen=True)
class ControllerSpec:
    """kind in {zero, network_flow, path_root, cycle_global, local_flow,
    max_enhanced}; epsilon only matters for network_flow."""

    kind: str
    epsilon: float = 1e-3

    _KINDS = ("zero", "network_flow", "path_root", "cycle_global",
              "local_flow", "max_enhanced")

    def __post_init__(self):
        kind = self.kind
        if kind == "network_flow_local_decision":  # long-form alias
            object.__setattr__(self, "kind", "network_flow")
            kind = "network_flow"
        if kind not in self._KINDS:
            raise ValueError(f"unknown controller kind {self.kind!r}")
        if self.epsilon <= 0:
            raise ValueError("epsilon must be positive")


class ExtremeLedger:
    """Running network-wide state extremes over all nodes and times."""

    def __init__(self):
        self.high = -np.inf
        self.low = np.inf

    def update(self, x):
        x = np.asarray(x, dtype=float)
        self.high = max(self.high, float(x.max()))
        self.low = min(self.low, float(x.min()))

    @property
    def midpoint(self) -> float:
        return 0.5 * (self.high + self.low)


@dataclass(frozen=True)
class WitnessRecord:
    """One nearest-neighbour lookup: distance, witness (time, node), value.

    node is None when the witness is a consensus extreme record.
    """

    dist: float
    time: int
    node: int | None
    fhat: float


class WitnessSet:
    """Global witnesses for every target node at one decision time."""

    def __init__(self, dist, time, node, fhat):
        self.dist = dist
        self.time = time
        self.node = node
        self.fhat = fhat

    def record(self, j: int) -> WitnessRecord:
        return WitnessRecord(float(self.dist[j]), int(self.time[j]),
                             int(self.node[j]), float(self.fhat[j]))


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


def control_network_flow(log: FlowLog, graph: WeightedDigraph,
                         ledger: ExtremeLedger, epsilon: float,
                         t: int, branch_log: list | None = None) -> np.ndarray:
    """Cancel via global witnesses; recentre on the running midpoint whenever
    any node's witness sits farther than epsilon. branch_log, when given,
    records True for recentre (explore) steps."""
    if t == 0:
        return np.zeros(log.n)
    w = global_witnesses(log, t)
    u = -(graph.weights @ w.fhat)
    accurate = bool(np.all(w.dist <= epsilon))
    if branch_log is not None:
        branch_log.append(not accurate)
    if accurate:
        return u
    return u + ledger.midpoint


def control_path_root(log: FlowLog, t: int) -> np.ndarray:
    """Root node cancels from its own history and recentres on its own
    running extremes; every other node applies no control."""
    u = np.zeros(log.n)
    if t == 0:
        return u
    own = log.x_hist[:, 0]
    s = int(np.abs(own[t] - own[:t]).argmin())
    u[0] = -log.z_hist[s, 0] + 0.5 * (own[:t + 1].max() + own[:t + 1].min())
    return u


def wrap_index(b: int, n: int) -> int:
    """1-based wrap of an arbitrary integer onto {1, ..., n}."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return (b - 1) % n + 1


def control_cycle(log: FlowLog, t: int) -> np.ndarray:
    """Unit-cycle law: each node works on the rotating diagonal of the flow
    so that, in rotated coordinates, every node runs the scalar law."""
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
        u[i0] = -z[s, cols[s]] + 0.5 * (diag.max() + diag.min())
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
    return acc + 0.5 * (y_hi + y_lo)


def _midpoint(hi: float, lo: float, highs, lows) -> float:
    """0.5 * (highs().max() + lows().min()) from the running extremes hi and
    lo. ndarray.max/min may return either zero on a +0.0/-0.0 tie, depending
    on the array length, so a zero extreme is taken from the series itself."""
    if hi == 0.0:
        hi = float(highs().max())
    if lo == 0.0:
        lo = float(lows().min())
    return 0.5 * (hi + lo)


class _Track:
    """One scalar sequence of the flow, one record per time (key = time):
    its witness index and running extremes over the ingested values."""

    def __init__(self):
        self.index = WitnessIndex()
        self.hi = -math.inf
        self.lo = math.inf

    def add(self, value: float, estimate: float):
        self.index.insert(value, estimate)
        self.hi = max(self.hi, value)
        self.lo = min(self.lo, value)

    def control(self, q: float, seq) -> float:
        """The scalar law at the current value q: cancel through the nearest
        record and recentre on the extremes of the sequence seq() through q."""
        return (-self.index.nearest(q)[2]
                + _midpoint(max(self.hi, q), min(self.lo, q), seq, seq))


# Per-kind fast paths. ingest(s, xs, zs, series) takes the completed flow
# row s once; decide(log, t, q, series) returns U(t) for q = X(t). xs, zs
# and q are lists of floats, series the runner's enhanced series. Each index
# is fed in the order of the reference's candidate scan, so a record's
# insertion rank is its position in that scan and the tie rules agree.

class _NetworkFlow:
    """One global index, key s*n + v: control_network_flow. It keeps no
    reference to the Controller: without a cycle, a finished run's indices
    are freed at once, not at the next cyclic garbage collection."""

    def __init__(self, ctl):
        self.weights = ctl.graph.weights
        self.epsilon = ctl.spec.epsilon
        self.ledger = ctl.ledger
        self.branch_log = ctl.branch_log
        self.index = WitnessIndex()

    def ingest(self, s, xs, zs, series):
        for x, z in zip(xs, zs):
            self.index.insert(x, z)

    def decide(self, log, t, q, series):
        hits = [self.index.nearest(qj) for qj in q]
        u = -(self.weights @ np.array([h[2] for h in hits]))
        accurate = max(h[0] for h in hits) <= self.epsilon
        self.branch_log.append(not accurate)
        return u if accurate else u + self.ledger.midpoint


class _PathRoot:
    """Node 0's own sequence: control_path_root."""

    def __init__(self, ctl):
        self.n = ctl.graph.n
        self.track = _Track()

    def ingest(self, s, xs, zs, series):
        self.track.add(xs[0], zs[0])

    def decide(self, log, t, q, series):
        u = np.zeros(self.n)
        u[0] = self.track.control(q[0], lambda: log.x_hist[:, 0][:t + 1])
        return u


class _Cycle:
    """control_cycle: diagonal class c = (s - col) mod n is the sequence
    x[s, (s - c) mod n], and node i0 at time t works on class (t - i0 + 1)
    mod n, whose current value is x[t, (i0 - 1) mod n]."""

    def __init__(self, ctl):
        self.n = ctl.graph.n
        self.tracks = [_Track() for _ in range(self.n)]

    def ingest(self, s, xs, zs, series):
        for v, (x, z) in enumerate(zip(xs, zs)):
            self.tracks[(s - v) % self.n].add(x, z)

    def decide(self, log, t, q, series):
        n = self.n
        u = np.zeros(n)
        for i0 in range(n):
            c = (t - i0 + 1) % n

            def diagonal(c=c):
                times = np.arange(t + 1)
                return log.x_hist[times, (times - c) % n]

            u[i0] = self.tracks[c].control(q[(i0 - 1) % n], diagonal)
        return u


class _Neighbourhood:
    """One index per node over its columns N_i u {i}, key s*k + c:
    control_local_flow. For max_enhanced also one shared index of the
    extreme records, key 2s (max) or 2s + 1 (min), and the running folded
    extremes: control_max_enhanced. A node's index is fed only its own
    columns, so confinement stays structural."""

    def __init__(self, ctl):
        g = ctl.graph
        self.weights = g.weights.tolist()
        self.nbrs = [g.neighbors(i) for i in range(g.n)]
        self.hoods = [tuple(sorted(set(nb) | {i}))
                      for i, nb in enumerate(self.nbrs)]
        self.indices = [WitnessIndex() for _ in range(g.n)]
        self.extremes = WitnessIndex() if ctl.needs_enhanced else None
        self.hi = -math.inf
        self.lo = math.inf

    def ingest(self, s, xs, zs, series):
        for nodes, index in zip(self.hoods, self.indices):
            for v in nodes:
                index.insert(xs[v], zs[v])
        if self.extremes is not None:
            x_max, x_min, z_at_max, z_at_min = series
            hi, lo = float(x_max[s]), float(x_min[s])
            self.extremes.insert(hi, float(z_at_max[s]))
            self.extremes.insert(lo, float(z_at_min[s]))
            self.hi = max(self.hi, hi)
            self.lo = min(self.lo, lo)

    def decide(self, log, t, q, series):
        n = len(q)
        if self.extremes is None:
            ext = None
            anchors = log.x_hist[0].tolist()
        else:
            ext = [self.extremes.nearest(qj) for qj in q]
            x_max, x_min = series[0], series[1]
            mid = _midpoint(max(self.hi, float(x_max[t])),
                            min(self.lo, float(x_min[t])),
                            lambda: x_max[:t + 1], lambda: x_min[:t + 1])
            anchors = [mid] * n
        u = np.zeros(n)
        for i, (index, nbrs, w) in enumerate(zip(self.indices, self.nbrs,
                                                 self.weights)):
            acc = 0.0
            for j in nbrs:
                d, _, fhat = index.nearest(q[j])
                if ext is not None and ext[j][0] < d:   # ties: neighbourhood
                    fhat = ext[j][2]
                acc -= w[j] * fhat
            u[i] = acc + anchors[i]
        return u


_LAWS = {"network_flow": _NetworkFlow, "path_root": _PathRoot,
         "cycle_global": _Cycle, "local_flow": _Neighbourhood,
         "max_enhanced": _Neighbourhood}


class Controller:
    """Dispatcher used by the runner; holds the pieces a kind needs.

    A Controller serves one run. It ingests each completed flow row
    (X(s), Z(s)) once into sorted witness indices and answers each
    nearest-record query by bisection; its decisions equal the control_*
    reference laws bit for bit. States must be finite, as the runner's
    divergence guard ensures.
    """

    def __init__(self, spec: ControllerSpec, graph: WeightedDigraph):
        self.spec = spec
        self.graph = graph
        self.ledger = ExtremeLedger()
        self.needs_enhanced = spec.kind == "max_enhanced"
        self.branch_log = []   # network_flow: True when the recentre branch fired
        law = _LAWS.get(spec.kind)
        self._law = law(self) if law is not None else None   # None: zero
        self._rows = 0         # flow rows ingested

    def controls(self, log: FlowLog, t: int, enhanced_series=None) -> np.ndarray:
        if t == 0 or self._law is None:
            return np.zeros(self.graph.n)
        if t < self._rows:
            raise ValueError("a Controller serves one run; time cannot go back")
        x, z = log.x_hist, log.z_hist
        for s in range(self._rows, t):
            self._law.ingest(s, x[s].tolist(), z[s].tolist(), enhanced_series)
        self._rows = t
        return self._law.decide(log, t, x[t].tolist(), enhanced_series)
