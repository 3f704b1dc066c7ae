"""The feedback laws built on nearest-neighbour reuse of past estimates.

All laws share one idea: to cancel f(x_j(t)) without knowing f, reuse the
recorded estimate z taken at whichever past state sits closest to x_j(t).
They differ in which history they may search (global flow, one node's own
history, the cycle diagonal, the local neighbourhood, or the neighbourhood
plus consensus extremes) and in the anchor added after cancellation (running
midpoint, own initial state, ...). Controls at time 0 are identically zero.

Witness ties break deterministically: earliest time first, then lowest node
index; the enhanced witness prefers neighbourhood states over extreme records.
"""

from dataclasses import dataclass

import numpy as np

from .flows import EnhancedFlowView, FlowLog, LocalFlowView
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


def nn_estimate_global(log: FlowLog, i: int, t: int):
    """(estimate of f(x_i(t)), witness (node, time)) from the global flow."""
    w = global_witnesses(log, t)
    return float(w.fhat[i]), (int(w.node[i]), int(w.time[i]))


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


def nn_estimate_local(view: LocalFlowView, target_node: int, t: int):
    w = local_witness(view, target_node, t)
    return w.fhat, (w.node, w.time)


def _nearest(cand: np.ndarray, q: np.ndarray):
    """One broadcast scan of the 1-d candidates for all queries in q.

    Returns the distance table, shape (len(q), len(cand)), and per query the
    flat index of the nearest candidate (argmin's first match on ties). Each
    distance is the same float operation a per-query scan performs.
    """
    d = np.abs(cand - q[:, None])
    return d, d.argmin(axis=1)


def _local_fhats(view: LocalFlowView, targets: tuple, t: int) -> np.ndarray:
    """local_witness(view, j, t).fhat for every j in targets, in one scan."""
    if t < 1:
        raise ValueError("witnesses need at least one past snapshot")
    x = view.x
    q = x[t, [view.col_of(j) for j in targets]]
    _, flat = _nearest(x[:t].reshape(-1), q)
    return view.z.reshape(-1)[flat]   # z rows are as wide as x rows


def control_local_flow(view: LocalFlowView, graph: WeightedDigraph,
                       i: int, t: int) -> float:
    """Cancel neighbours via the local witnesses and anchor on x_i(0)."""
    if t == 0:
        return 0.0
    acc = 0.0
    nbrs = graph.neighbors(i)
    for j, fhat in zip(nbrs, _local_fhats(view, nbrs, t)):
        acc -= graph.weights[i, j] * fhat
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


def _enhanced_fhats(view: EnhancedFlowView, targets: tuple,
                    t: int) -> np.ndarray:
    """enhanced_witness(view, j, t).fhat for every j in targets, in one scan
    of the neighbourhood and one of the extreme records. The neighbourhood
    wins ties (<=); a NaN distance wins on either side, as in argmin over
    the concatenated candidates."""
    if t < 1:
        raise ValueError("witnesses need at least one past snapshot")
    loc = view.local
    x = loc.x
    q = x[t, [loc.col_of(j) for j in targets]]
    rows = np.arange(q.size)
    hood_d, hood_flat = _nearest(x[:t].reshape(-1), q)
    ext = np.empty(2 * t)   # per past time the max record, then the min
    ext[0::2] = view.x_max[:t]
    ext[1::2] = view.x_min[:t]
    ext_z = np.empty(2 * t)
    ext_z[0::2] = view.z_at_max[:t]
    ext_z[1::2] = view.z_at_min[:t]
    ext_d, ext_flat = _nearest(ext, q)
    hood_best = hood_d[rows, hood_flat]
    hood_wins = (hood_best <= ext_d[rows, ext_flat]) | np.isnan(hood_best)
    return np.where(hood_wins, loc.z.reshape(-1)[hood_flat], ext_z[ext_flat])


def control_max_enhanced(view: EnhancedFlowView, graph: WeightedDigraph,
                         i: int, t: int) -> float:
    """Cancel via enhanced witnesses and recentre on the midpoint of the
    folded consensus extremes."""
    if t == 0:
        return 0.0
    acc = 0.0
    nbrs = graph.neighbors(i)
    for j, fhat in zip(nbrs, _enhanced_fhats(view, nbrs, t)):
        acc -= graph.weights[i, j] * fhat
    y_hi = float(view.x_max[:t + 1].max())
    y_lo = float(view.x_min[:t + 1].min())
    return acc + 0.5 * (y_hi + y_lo)


class Controller:
    """Dispatcher used by the runner; holds the pieces a kind needs.

    A Controller serves one run. The neighbourhood laws keep one
    LocalFlowView per node for the whole run and extend it by the rows the
    log gained since the previous decision.
    """

    def __init__(self, spec: ControllerSpec, graph: WeightedDigraph):
        self.spec = spec
        self.graph = graph
        self.ledger = ExtremeLedger()
        self.needs_enhanced = spec.kind == "max_enhanced"
        self.branch_log = []   # network_flow: True when the recentre branch fired
        self._views = None     # local_flow / max_enhanced: one view per node

    def _local_views(self, log: FlowLog) -> list:
        if self._views is None:
            self._views = [LocalFlowView(log, self.graph, i)
                           for i in range(self.graph.n)]
        else:
            for view in self._views:
                view.extend(log)
        return self._views

    def controls(self, log: FlowLog, t: int, enhanced_series=None) -> np.ndarray:
        kind = self.spec.kind
        n = self.graph.n
        if t == 0 or kind == "zero":
            return np.zeros(n)
        if kind == "network_flow":
            return control_network_flow(log, self.graph, self.ledger,
                                        self.spec.epsilon, t, self.branch_log)
        if kind == "path_root":
            return control_path_root(log, t)
        if kind == "cycle_global":
            return control_cycle(log, t)
        if kind == "local_flow":
            u = np.zeros(n)
            for i, view in enumerate(self._local_views(log)):
                u[i] = control_local_flow(view, self.graph, i, t)
            return u
        if kind == "max_enhanced":
            x_max, x_min, z_at_max, z_at_min = enhanced_series
            u = np.zeros(n)
            for i, view in enumerate(self._local_views(log)):
                enh = EnhancedFlowView(view, x_max, x_min, z_at_max, z_at_min)
                u[i] = control_max_enhanced(enh, self.graph, i, t)
            return u
        raise AssertionError(f"unreachable kind {kind!r}")
