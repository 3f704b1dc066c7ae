"""Flow histories, the restricted per-node views, the witness index, and
extreme consensus.

The full flow at time t is (X(0..t), Z(0..t-1), U(0..t-1)): one more state
snapshot than estimate/control snapshots. A FlowLog starts from X(0) and is
sized for its run, one row per step up to the horizon. It has two write
paths: append, which checks and copies the three rows, and the runner's,
where the plant writes X(t+1) and Z(t) into the log's own rows and commit
stores U(t). Either way the log builds X(t+1) as a list once and keeps it
with the list before it. The runner's guard and the Controller read those
kept lists as they are; state and row return copies, so a caller that edits
what it gets cannot change what a law reads. A node's local view
copies only the columns in N_i union {i}; the enhanced view adds the
network-wide extreme series. Confinement is structural: a view physically
holds nothing outside its columns. A WitnessIndex keeps past (value,
estimate) records sorted by value, so a nearest-record query is a bisection
instead of a scan of the history, and its two ends are the running extremes
of the values it holds. nearest answers at once when the record next to
the bisection is strictly nearer than the other side and not tied by the
next record on its own side; every tie goes to the one walk, in
nearest_among, which gathers the tied records and takes them by key. Fed
whole flow rows, one index serves many nodes: nearest_among answers each
node over its own columns alone, by a column mask (key % n), so there
confinement rests on the mask, with the views as the structural oracle. It
returns served groups, one per record that served an asker, in ascending
query order, not a node-by-query table.

run_extreme_consensus is the flooding protocol by which nodes learn the
extremes from their neighbours alone. The records are ranked once, and each
node holds only the rank of its best record; a NaN in x has no rank and is
refused. The max_enhanced law takes the same extremes in closed form from
each flow row (the first argmax/argmin, i.e. the lowest-index holder on
ties); the tests prove that this equals the protocol's limit on every
strongly connected graph.
"""

from array import array
from bisect import bisect_left, bisect_right
from collections import namedtuple

import numpy as np

from .graphs import WeightedDigraph, is_strongly_connected

_INF = float("inf")


class FlowLog:
    """Append-only flow record of one run, sized for its horizon.

    It holds X(0) from construction; each step adds the new state snapshot
    together with the estimate and control snapshots of the step that
    produced it, up to X(horizon). There are two write paths. append(x, z,
    u) checks and converts its arguments, writes X(t+1) and Z(t) and ends
    in commit(u). The runner's plant writes X(t+1) and Z(t) in place into
    the rows that open_rows() hands out, and the runner calls commit(u)
    itself, which checks nothing. commit stores U(t), advances the flow
    time and builds X(t+1) as a list of floats once; the log keeps that list
    and the one of X(t) before it. commit returns the new list to the
    runner's guard, and _shared_state and _shared_row return the two kept
    lists to the Controller instead of building them again; both only read
    them. state and row return copies.
    """

    def __init__(self, x0, horizon: int):
        x0 = np.asarray(x0, dtype=float)
        if x0.ndim != 1 or x0.size < 1:
            raise ValueError("x0 must be a non-empty 1-d state snapshot")
        if horizon < 0:
            raise ValueError(f"horizon must be >= 0, got {horizon}")
        self.n = n = x0.size
        self._row = (n,)
        self._x = np.empty((horizon + 1, n))
        self._z = np.empty((horizon, n))
        self._u = np.empty((horizon, n))
        self._x[0] = x0
        self._len = 1  # number of state snapshots
        self._prev = None            # X(t-1) as a list, None at t = 0
        self._last = x0.tolist()     # X(t) as a list

    @property
    def t(self) -> int:
        """Current flow time: snapshots 0..t are stored."""
        return self._len - 1

    def append(self, x, z, u):
        """Store X(t+1) with the Z(t) and U(t) of the step that produced it.

        Each must be an n-vector, stored as float64. An array of shape (n,),
        what the runner passes, is written as it is, cast to float64 as
        np.asarray would cast it; anything else goes through np.asarray
        first, so that a (1, n) array, a scalar or a ragged list is refused,
        never broadcast. It does no arithmetic, so it has no overflow to
        silence, and values are not checked: non-finite states are the
        runner's guard to see."""
        t = self._len - 1
        if t == self._z.shape[0]:
            raise ValueError(f"the log is full at its horizon {t}")
        row = self._row
        try:
            fits = x.shape == row == z.shape == u.shape
        except AttributeError:   # not an array: np.asarray decides
            fits = False
        if not fits:
            x, z, u = (np.asarray(a, dtype=float) for a in (x, z, u))
            if x.shape != row or z.shape != row or u.shape != row:
                raise ValueError(f"x/z/u snapshots must have shape ({self.n},)")
        self._x[t + 1] = x
        self._z[t] = z
        self.commit(u)

    def open_rows(self):
        """The writable rows (X(s+1), Z(s)) of the steps s = t, t+1, ...,
        horizon - 1, as an iterator of pairs of views: a writer takes the
        next pair, fills both rows and calls commit before it takes
        another."""
        t = self._len - 1
        return zip(self._x[t + 1:], self._z[t:])

    def commit(self, u) -> list:
        """Close the step whose X(t+1) and Z(t) rows are written: store U(t)
        and advance the flow time. u is written as it is, with no check. It
        returns X(t+1) as a list of floats, which the log keeps."""
        t = self._len
        self._u[t - 1] = u
        self._len = t + 1
        self._prev = self._last
        self._last = last = self._x[t].tolist()
        return last

    def state(self, s: int) -> list:
        """X(s) as a new list of floats, for 0 <= s <= t."""
        return self._shared_state(s)[:]

    def row(self, s: int) -> tuple:
        """(X(s), Z(s)) as new lists of floats, for a completed step
        0 <= s < t."""
        x, z = self._shared_row(s)
        return x[:], z

    def _shared_state(self, s: int) -> list:
        """state(s) without the copy: for s = t and t - 1 the log's kept
        list, which the caller must not mutate."""
        t = self._len - 1
        if s == t:
            return self._last
        if not 0 <= s < t:
            raise IndexError(f"no state X({s}) at flow time {t}")
        return self._prev if s == t - 1 else self._x[s].tolist()

    def _shared_row(self, s: int) -> tuple:
        """row(s) without the copy of X(s): for s = t - 1 it is the log's
        kept list, which the caller must not mutate."""
        t = self._len - 1
        if not 0 <= s < t:
            raise IndexError(f"no completed step {s} at flow time {t}")
        return (self._prev if s == t - 1 else self._x[s].tolist(),
                self._z[s].tolist())

    @property
    def x_hist(self) -> np.ndarray:
        """States X(0..t), shape (t+1, n). Read-only view, no copy."""
        v = self._x[:self._len]
        v.flags.writeable = False
        return v

    @property
    def z_hist(self) -> np.ndarray:
        """Estimates Z(0..t-1), shape (t, n)."""
        v = self._z[:self._len - 1]
        v.flags.writeable = False
        return v

    @property
    def u_hist(self) -> np.ndarray:
        """Controls U(0..t-1), shape (t, n)."""
        v = self._u[:self._len - 1]
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
        self.nodes = graph.closed_neighbors(i)
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


class WitnessIndex:
    """Past records (value, estimate), kept sorted by value.

    A record's key is its insertion rank 0, 1, 2, ... nearest(q) answers
    what argmin over |value - q| with the records in key order answers: the
    smallest rounded distance, and the lowest key among the records at that
    distance. Values and queries must be finite. Three flat arrays hold 24
    bytes per record; an insert is one bisection plus two memmoves, and a
    query without a tie one bisection. A tie is walked by nearest_among.
    The first and last values are the extremes, up to a zero's sign.
    """

    def __init__(self):
        self._v = array("d")   # values, ascending
        self._k = array("q")   # their keys
        self._e = array("d")   # estimates by key

    def __len__(self) -> int:
        return len(self._e)

    def midpoint(self, hi: float, lo: float) -> float:
        """The recentring midpoint of the records and a current span
        [lo, hi]: 0.5 * (max(last, hi) + min(first, lo)) + 0.0, with first
        and last the first and last values held, which is +0.0 when it is
        zero, whatever the zero signs of its ends."""
        return 0.5 * (max(self._v[-1], hi) + min(self._v[0], lo)) + 0.0

    def insert(self, value: float, estimate: float):
        if not -_INF < value < _INF:
            raise ValueError("index values must be finite")
        p = bisect_right(self._v, value)
        self._v.insert(p, value)
        self._k.insert(p, len(self._e))
        self._e.append(estimate)

    def nearest(self, q: float) -> tuple:
        """(distance, key, estimate) of the nearest record to q.

        The tie-free fast path answers when one record is nearest alone;
        any tie at the smallest distance goes to nearest_among, as the one
        asker of a single column, whose walk takes the tied records by key."""
        v, k = self._v, self._k
        m = len(v)
        if not m:
            raise ValueError("the index holds no records")
        if not -_INF < q < _INF:
            raise ValueError("queries must be finite")
        # v[:p] < q <= v[p:]. Rounding is monotone, so the distances grow
        # outward from p on both sides; distinct values may round to the
        # same distance, so a record is nearest alone only when it is
        # strictly nearer than the other side and its next record on its
        # own side is farther. The distances are inf past an end.
        p = bisect_left(v, q)
        dr = v[p] - q if p < m else _INF
        dl = q - v[p - 1] if p else _INF
        if dr < dl:
            if p + 1 == m or v[p + 1] - q != dr:
                # abs: v[p] - q is -0.0 when v[p] is -0.0 and q is +0.0
                key = k[p]
                return abs(dr), key, self._e[key]
        elif dl < dr and (p == 1 or q - v[p - 2] != dl):
            key = k[p - 1]
            return dl, key, self._e[key]
        # a tie, or two distances that overflow to inf: one asker who
        # reads every record is served by nearest's rule
        return self.nearest_among((q,), (1,), (1,))[0][2:]

    def nearest_among(self, qs, askers, readers) -> list:
        """Masked nearest-record queries for n nodes over an index fed whole
        flow rows, record v of row s under key s*n + v (column v = key % n,
        n = len(readers)). Node i asks for qs[j] when bit i of askers[j] is
        set, and reads the records of column c when bit i of readers[c] is.
        Each asker i of qs[j] is served nearest(qs[j]) over the records it
        reads, by nearest's rule (the smallest rounded distance, then the
        lowest key), which is argmin over node i's columns of the rows in
        time-major order. One walk outward from the bisection of qs[j]
        serves all its askers: it takes the records in order of distance,
        ties by key, and hands each to the askers that read it and are not
        yet served. A record strictly nearer than the other side's next one,
        and not tied by the next record on its own side, is taken alone;
        otherwise every record at that distance, on both sides, is gathered
        and taken in key order. The answer is the list of served groups
        (j, served, dist, key, est), in ascending j and, within one j, in
        walk order: one per record that served an asker, with served the
        bitmask of the askers it served. Each asker of j is in exactly one
        group of j; a node that did not ask is in none."""
        v, k, e = self._v, self._k, self._e
        m, n = len(v), len(readers)
        groups = []
        for j, pending in enumerate(askers):
            if not pending:
                continue
            q = qs[j]
            if not -_INF < q < _INF:
                raise ValueError("queries must be finite")
            r = bisect_left(v, q)   # v[:r] < q <= v[r:]
            lo = r - 1
            # the distances of the next record on each side, inf past an end
            dr = v[r] - q if r < m else _INF
            dl = q - v[lo] if lo >= 0 else _INF
            while pending:
                if dr < dl and (r + 1 == m or v[r + 1] - q != dr):
                    key, d = k[r], dr   # the right record alone is nearest
                    r += 1
                    dr = v[r] - q if r < m else _INF
                elif dl < dr and (lo == 0 or q - v[lo - 1] != dl):
                    key, d = k[lo], dl
                    lo -= 1
                    dl = q - v[lo] if lo >= 0 else _INF
                else:
                    # records tie at the next distance: take them all, by
                    # key. A distance may overflow to inf, so the ends are
                    # told by position.
                    if r == m and lo < 0:
                        raise ValueError("an asker reads no record")
                    d = min(dr, dl)
                    keys = []
                    while r < m and v[r] - q == d:
                        keys.append(k[r])
                        r += 1
                    while lo >= 0 and q - v[lo] == d:
                        keys.append(k[lo])
                        lo -= 1
                    keys.sort()
                    for key in keys:
                        served = pending & readers[key % n]
                        if served:
                            pending ^= served
                            groups.append((j, served, abs(d), key, e[key]))
                    dr = v[r] - q if r < m else _INF
                    dl = q - v[lo] if lo >= 0 else _INF
                    continue
                served = pending & readers[key % n]
                if served:   # abs: v[r] - q is -0.0 for -0.0 - +0.0
                    pending ^= served
                    groups.append((j, served, abs(d), key, e[key]))
        return groups


ExtremeConsensus = namedtuple(
    "ExtremeConsensus",
    ["x_max", "z_at_max", "x_min", "z_at_min", "holder_max", "holder_min", "rounds"])


def run_extreme_consensus(g: WeightedDigraph, x, z) -> ExtremeConsensus:
    """Flood the global extremes of the (x, z) records; at most n rounds.

    The records are ranked once per extreme, x descending for the max and
    ascending for the min, the lowest origin first on ties. Each node holds
    only the rank of its best record, starting from its own, and a
    synchronous round sets it to the best rank over N_i union {i}. rounds is
    the first round in which neither flood changes; n always suffice on the
    strongly connected graph this requires, since the winning record travels
    one arc per round and is never displaced. x and z must have shape (n,),
    and a NaN in x, which has no rank, is refused.
    """
    if not is_strongly_connected(g):
        raise ValueError("extreme consensus needs a strongly connected graph")
    n = g.n
    x = np.asarray(x, dtype=float)
    z = np.asarray(z, dtype=float)
    if x.shape != (n,) or z.shape != (n,):
        raise ValueError(f"x and z must have shape ({n},)")
    if np.isnan(x).any():
        raise ValueError("x must not hold NaN")
    xs, zs = x.tolist(), z.tolist()
    closed = [g.closed_neighbors(i) for i in range(n)]
    ends = []
    # stable sorts keep the lowest origin first among equal x (-0.0 == 0.0)
    for order in (sorted(range(n), key=xs.__getitem__, reverse=True),
                  sorted(range(n), key=xs.__getitem__)):
        held = [0] * n
        for r, h in enumerate(order):
            held[h] = r
        for rounds in range(1, n + 1):
            nxt = [min([held[j] for j in c]) for c in closed]
            if nxt == held:
                break
            held = nxt
        ends.append((order[held[0]], rounds))
    (hi, hi_rounds), (lo, lo_rounds) = ends
    return ExtremeConsensus(
        x_max=xs[hi], z_at_max=zs[hi], x_min=xs[lo], z_at_min=zs[lo],
        holder_max=hi, holder_min=lo, rounds=max(hi_rounds, lo_rounds))
