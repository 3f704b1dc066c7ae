"""Flow histories, the restricted per-node views, the witness index, and
extreme consensus.

The full flow at time t is (X(0..t), Z(0..t-1), U(0..t-1)): one more state
snapshot than estimate/control snapshots. A node's local view copies only the
columns in N_i union {i}; the enhanced view adds the network-wide extreme
series. Confinement is structural: a view physically holds nothing outside
its columns. A WitnessIndex keeps past (value, estimate) records sorted by
value, so a nearest-record query is a bisection instead of a scan of the
history.

run_extreme_consensus is the flooding protocol by which nodes learn the
extremes from their neighbours alone. The max_enhanced law takes the same
extremes in closed form from each flow row (the first argmax/argmin, i.e. the
lowest-index holder on ties); the tests prove that this equals the
protocol's limit on every strongly connected graph.
"""

from array import array
from bisect import bisect_left, bisect_right
from collections import namedtuple
from dataclasses import dataclass

import numpy as np

from .graphs import WeightedDigraph, is_strongly_connected

_INF = float("inf")


class FlowLog:
    """Append-only flow record.

    The first append carries X(0) alone; every later append carries the new
    state snapshot together with the estimate and control snapshots of the
    step that produced it.
    """

    def __init__(self, n: int, capacity: int = 64):
        if n < 1:
            raise ValueError("n must be >= 1")
        self.n = n
        self._x = np.empty((max(capacity, 1), n))
        self._z = np.empty((max(capacity, 1), n))
        self._u = np.empty((max(capacity, 1), n))
        self._len = 0  # number of state snapshots

    @property
    def t(self) -> int:
        """Current flow time: snapshots 0..t are stored."""
        if self._len == 0:
            raise ValueError("log is empty")
        return self._len - 1

    def _grow(self):
        cap = self._x.shape[0]
        if self._len == cap:
            for name in ("_x", "_z", "_u"):
                old = getattr(self, name)
                new = np.empty((2 * cap, self.n))
                new[:cap] = old
                setattr(self, name, new)

    def append(self, x, z=None, u=None):
        x = np.asarray(x, dtype=float)
        if x.shape != (self.n,):
            raise ValueError(f"state snapshot must have shape ({self.n},)")
        if self._len == 0:
            if z is not None or u is not None:
                raise ValueError("first append carries the initial state only")
        else:
            if z is None or u is None:
                raise ValueError("appends after the first need z and u snapshots")
        self._grow()
        self._x[self._len] = x
        if self._len > 0:
            z = np.asarray(z, dtype=float)
            u = np.asarray(u, dtype=float)
            if z.shape != (self.n,) or u.shape != (self.n,):
                raise ValueError(f"z/u snapshots must have shape ({self.n},)")
            self._z[self._len - 1] = z
            self._u[self._len - 1] = u
        self._len += 1

    @property
    def x_hist(self) -> np.ndarray:
        """States X(0..t), shape (t+1, n). Read-only view, no copy."""
        v = self._x[:self._len]
        v.flags.writeable = False
        return v

    @property
    def z_hist(self) -> np.ndarray:
        """Estimates Z(0..t-1), shape (t, n)."""
        v = self._z[:max(self._len - 1, 0)]
        v.flags.writeable = False
        return v

    @property
    def u_hist(self) -> np.ndarray:
        """Controls U(0..t-1), shape (t, n)."""
        v = self._u[:max(self._len - 1, 0)]
        v.flags.writeable = False
        return v


class LocalFlowView:
    """The flow restricted to the columns N_i union {i}.

    Copies the permitted columns out of the log; anything else is absent by
    construction, so reads outside the neighbourhood cannot be expressed.
    The view is a snapshot: later appends to the log do not reach it.
    """

    def __init__(self, log: FlowLog, graph: WeightedDigraph, i: int):
        if not (0 <= i < graph.n):
            raise ValueError(f"node index {i} out of range")
        self.i = i
        self.nodes = tuple(sorted(set(graph.neighbors(i)) | {i}))
        cols = list(self.nodes)
        self.x = log.x_hist[:, cols]   # fancy indexing copies
        self.z = log.z_hist[:, cols]

    @property
    def t(self) -> int:
        return self.x.shape[0] - 1

    def col_of(self, node: int) -> int:
        """Column index of a member node; KeyError-style failure otherwise."""
        try:
            return self.nodes.index(node)
        except ValueError:
            raise ValueError(f"node {node} is outside this view") from None


class EnhancedFlowView:
    """Local view plus the consensus extreme series.

    x_max/x_min run through time t (known at decision time); their paired
    estimates z_at_max/z_at_min run through t-1 only.
    """

    def __init__(self, local: LocalFlowView, x_max, x_min, z_at_max, z_at_min):
        t = local.t
        x_max = np.asarray(x_max, dtype=float)
        x_min = np.asarray(x_min, dtype=float)
        z_at_max = np.asarray(z_at_max, dtype=float)
        z_at_min = np.asarray(z_at_min, dtype=float)
        if x_max.shape != (t + 1,) or x_min.shape != (t + 1,):
            raise ValueError("extreme series must cover times 0..t")
        if z_at_max.shape != (t,) or z_at_min.shape != (t,):
            raise ValueError("extreme estimate series must cover times 0..t-1")
        self.local = local
        self.x_max = x_max
        self.x_min = x_min
        self.z_at_max = z_at_max
        self.z_at_min = z_at_min

    @property
    def i(self) -> int:
        return self.local.i

    @property
    def t(self) -> int:
        return self.local.t


class WitnessIndex:
    """Past records (value, estimate), kept sorted by value.

    A record's key is its insertion rank 0, 1, 2, ... nearest(q) answers
    what argmin over |value - q| with the records in key order answers: the
    smallest rounded distance, and the lowest key among the records at that
    distance. Values and queries must be finite. Three flat arrays hold 24
    bytes per record; an insert is one bisection plus two memmoves, a query
    one bisection plus a walk over the records tied at the smallest distance.
    """

    def __init__(self):
        self._v = array("d")   # values, ascending
        self._k = array("q")   # their keys
        self._e = array("d")   # estimates by key

    def __len__(self) -> int:
        return len(self._e)

    def insert(self, value: float, estimate: float):
        if not -_INF < value < _INF:
            raise ValueError("index values must be finite")
        p = bisect_right(self._v, value)
        self._v.insert(p, value)
        self._k.insert(p, len(self._e))
        self._e.append(estimate)

    def nearest(self, q: float) -> tuple:
        """(distance, key, estimate) of the nearest record to q."""
        v, k = self._v, self._k
        m = len(v)
        if not m:
            raise ValueError("the index holds no records")
        if not -_INF < q < _INF:
            raise ValueError("queries must be finite")
        # v[:p] < q <= v[p:]. Rounding is monotone, so the distances grow
        # outward from p on both sides; distinct values may round to the
        # same distance, so walk each side while the distance stays minimal.
        p = bisect_left(v, q)
        if p == m:
            d = q - v[p - 1]
        else:
            d = v[p] - q
            if p and q - v[p - 1] < d:
                d = q - v[p - 1]
        best = m   # position of the lowest key at distance d
        j = p
        while j < m and v[j] - q == d:
            if best == m or k[j] < k[best]:
                best = j
            j += 1
        j = p - 1
        while j >= 0 and q - v[j] == d:
            if best == m or k[j] < k[best]:
                best = j
            j -= 1
        key = k[best]
        return abs(d), key, self._e[key]


@dataclass
class ConsensusState:
    """Per-node records (x, z, origin) for one consensus sweep.

    origin is the node id the record originated from; ties on x prefer the
    lowest origin, which makes the limit independent of where duplicates sit.
    """

    x: np.ndarray
    z: np.ndarray
    origin: np.ndarray
    k: int = 0

    @classmethod
    def init(cls, x, z):
        x = np.asarray(x, dtype=float)
        z = np.asarray(z, dtype=float)
        if x.shape != z.shape or x.ndim != 1:
            raise ValueError("x and z must be matching 1-d arrays")
        return cls(x.copy(), z.copy(), np.arange(x.size), 0)


def consensus_round(g: WeightedDigraph, state: ConsensusState,
                    mode: str) -> ConsensusState:
    """One synchronous round: each node adopts the best record over N_i u {i},
    the largest x for mode "max", the smallest for "min"."""
    if mode not in ("max", "min"):
        raise ValueError(f"mode must be 'max' or 'min', got {mode!r}")
    sign = 1.0 if mode == "max" else -1.0
    n = g.n
    x_new = state.x.copy()
    z_new = state.z.copy()
    o_new = state.origin.copy()
    for i in range(n):
        members = sorted(set(g.neighbors(i)) | {i})
        best = None
        for j in members:
            key = (sign * state.x[j], -state.origin[j])
            if best is None or key > best[0]:
                best = (key, j)
        j = best[1]
        x_new[i] = state.x[j]
        z_new[i] = state.z[j]
        o_new[i] = state.origin[j]
    return ConsensusState(x_new, z_new, o_new, state.k + 1)


ExtremeConsensus = namedtuple(
    "ExtremeConsensus",
    ["x_max", "z_at_max", "x_min", "z_at_min", "holder_max", "holder_min", "rounds"])


def run_extreme_consensus(g: WeightedDigraph, x, z) -> ExtremeConsensus:
    """Propagate the global extremes of (x, z) pairs; at most n rounds.

    Requires strong connectivity; n rounds always suffice since the winning
    record travels one arc per round and is never displaced.
    """
    if not is_strongly_connected(g):
        raise ValueError("extreme consensus needs a strongly connected graph")
    hi = ConsensusState.init(x, z)
    lo = ConsensusState.init(x, z)
    rounds = 0
    for _ in range(g.n):
        hi_next = consensus_round(g, hi, "max")
        lo_next = consensus_round(g, lo, "min")
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
