"""Weighted digraphs and the capacity-related matrix metrics.

The arc convention follows the plant dynamics: a nonzero weight a_ij means
there is an arc (j, i), i.e. node j's state enters node i's update. Row i of
the weight matrix therefore lists the in-neighbourhood N_i.

Indexing is 0-based throughout the library; serialized output (CSV node
column, JSON certificates) converts to 1-based ids.
"""

import numpy as np


class WeightedDigraph:
    """Immutable dense weighted digraph.

    weights[i, j] is the gain a_ij applied by node i to f(x_j); it is nonzero
    exactly when (j, i) is an arc. Self-arcs (diagonal entries) are allowed.
    """

    def __init__(self, weights):
        w = np.array(weights, dtype=float)
        if w.ndim != 2 or w.shape[0] != w.shape[1]:
            raise ValueError(f"weights must be a square matrix, got shape {w.shape}")
        if w.shape[0] < 1:
            raise ValueError("graph needs at least one node")
        if not np.all(np.isfinite(w)):
            raise ValueError("weights must be finite")
        w.flags.writeable = False
        self._w = w
        arcs = w != 0.0
        # rows of arcs, of arcs plus the diagonal, and columns of arcs
        self._neighbors, self._closed, self._out = (
            tuple(tuple(np.flatnonzero(r).tolist()) for r in m)
            for m in (arcs, arcs | np.eye(len(w), dtype=bool), arcs.T))
        self._strongly_connected = None  # filled by is_strongly_connected

    @property
    def n(self) -> int:
        return self._w.shape[0]

    @property
    def weights(self) -> np.ndarray:
        return self._w

    @property
    def arcs(self) -> frozenset:
        """Arc set {(j, i) : a_ij != 0}, 0-based."""
        ii, jj = np.nonzero(self._w)
        return frozenset((int(j), int(i)) for i, j in zip(ii, jj))

    def neighbors(self, i: int) -> tuple:
        """In-neighbourhood N_i: nodes j whose state enters node i's update."""
        return self._neighbors[i]

    def closed_neighbors(self, i: int) -> tuple:
        """N_i union {i}, ascending: the columns a local law may read."""
        return self._closed[i]

    def out_neighbors(self, j: int) -> tuple:
        """Nodes i with an arc (j, i), ascending."""
        return self._out[j]

    def __repr__(self):
        return f"WeightedDigraph(n={self.n}, arcs={len(self.arcs)})"


def inf_norm(g: WeightedDigraph) -> float:
    """Max absolute row sum of the weight matrix (0 for the zero matrix)."""
    return float(np.abs(g.weights).sum(axis=1).max())


def sharp_metric(g: WeightedDigraph) -> float:
    """Smallest nonzero |a_ij|; 0 when the graph has no arcs."""
    mags = np.abs(g.weights[g.weights != 0.0])
    return float(mags.min()) if mags.size else 0.0


def sign_pattern(g: WeightedDigraph) -> str:
    """'all_nonnegative' | 'all_nonpositive' | 'mixed' over the entries.

    The zero matrix is classified all_nonnegative.
    """
    w = g.weights
    has_pos = bool(np.any(w > 0.0))
    has_neg = bool(np.any(w < 0.0))
    if has_pos and has_neg:
        return "mixed"
    if has_neg:
        return "all_nonpositive"
    return "all_nonnegative"


def is_strongly_connected(g: WeightedDigraph) -> bool:
    """True iff every node reaches every other along arcs.

    Two reachability sweeps from node 0 over the boolean arc matrix decide
    it: one forward along the arcs (j, i), one backward along their
    reverses. The graph is strongly connected iff both sweeps reach every
    node. Self-arcs are irrelevant to reachability; a single-node graph is
    strongly connected with or without one. The graph is immutable, so the
    answer is computed on the first call and cached on it.
    """
    if g._strongly_connected is None:
        g._strongly_connected = _reaches_all_both_ways(g.weights != 0.0)
    return g._strongly_connected


def _reaches_all_both_ways(arcs: np.ndarray) -> bool:
    """Whether node 0 reaches every node along arcs[i, j] (an arc j -> i)
    and every node reaches node 0, by two frontier sweeps."""
    for m in (arcs, arcs.T):
        seen = np.zeros(len(m), dtype=bool)
        seen[0] = True
        frontier = seen.copy()
        while frontier.any():
            frontier = m[:, frontier].any(axis=1) & ~seen
            seen |= frontier
        if not seen.all():
            return False
    return True


# kind -> arcs(n, **params): the (j, i, a_ij) of one canonical family
_CANONICAL = {
    "cycle": lambda n, weight=1.0: [((i - 1) % n, i, weight) for i in range(n)],
    "path_root_selfloop": lambda n, weight=1.0, root_weight=1.0: [
        (0, 0, root_weight), *((i - 1, i, weight) for i in range(1, n))],
    "single_selfloop": lambda n, a11=1.0: [(0, 0, a11)],
}


def build_canonical(kind: str, n: int, **params) -> WeightedDigraph:
    """Construct one of the canonical graph families on n nodes.

    kind (params, each 1.0 by default; any other param is a TypeError):
      * "cycle" (weight): directed cycle, node i fed by node i-1.
      * "path_root_selfloop" (weight, root_weight): directed path rooted at
        node 0 with a self-arc at the root; node i>=1 fed by node i-1.
      * "single_selfloop" (a11): a_00 = a11 is the only arc.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if kind not in _CANONICAL:
        raise ValueError(f"unknown canonical graph kind: {kind!r}")
    w = np.zeros((n, n))
    for j, i, a in _CANONICAL[kind](n, **params):
        w[i, j] = a
    return WeightedDigraph(w)


def random_strongly_connected(n: int, seed: int, extra_arc_prob: float = 0.35,
                              weight_range=(0.4, 2.0), allow_negative: bool = True,
                              self_arc_prob: float = 0.25) -> WeightedDigraph:
    """Seeded random strongly connected digraph.

    A random Hamiltonian cycle guarantees strong connectivity; extra arcs and
    self-arcs are sprinkled on top. Weight magnitudes are uniform in
    weight_range = (lo, hi) with random signs when allow_negative. The range
    needs 0 < lo <= hi < inf: a zero magnitude would drop an arc of the cycle.
    """
    lo, hi = weight_range
    if not 0 < lo <= hi < np.inf:
        raise ValueError(f"weight_range needs 0 < lo <= hi < inf, got {weight_range}")
    rng = np.random.default_rng(seed)
    w = np.zeros((n, n))
    order = rng.permutation(n)

    def draw():
        mag = rng.uniform(lo, hi)
        if allow_negative and rng.random() < 0.5:
            return -mag
        return mag

    for k in range(n):
        j, i = order[k], order[(k + 1) % n]
        w[i, j] = draw()
    for i in range(n):
        for j in range(n):
            if i == j:
                if rng.random() < self_arc_prob:
                    w[i, j] = draw()
            elif w[i, j] == 0.0 and rng.random() < extra_arc_prob:
                w[i, j] = draw()
    return WeightedDigraph(w)
