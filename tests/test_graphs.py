"""Weighted digraph container and the three capacity-related metrics."""

import numpy as np
import pytest

from netfeedback import (
    ExperimentConfig,
    WeightedDigraph,
    build_canonical,
    inf_norm,
    is_strongly_connected,
    random_strongly_connected,
    sharp_metric,
    sign_pattern,
)


def test_cached_neighbourhoods_match_the_weights():
    graphs = [random_strongly_connected(n, seed=s) for n in (1, 2, 5, 9)
              for s in range(6)]
    graphs.append(build_canonical("path_root_selfloop", 4))
    graphs.append(WeightedDigraph([[2.0, 0.0], [0.0, -1.0]]))   # self-loops only
    # a custom graph whose node 0 has no in-neighbour
    graphs.append(ExperimentConfig({
        "graph": {"kind": "custom", "weights": [[0, 0, 0], [1, 0, 0], [0, 2, 3]]},
        "function": {"kind": "linear", "a": 1.0}, "controller": {"kind": "zero"},
        "horizon": 1, "x0": [0.0, 0.0, 0.0]}).graph)
    for g in graphs:
        for i in range(g.n):
            assert g.closed_neighbors(i) == tuple(sorted(set(g.neighbors(i)) | {i}))
            assert g.out_neighbors(i) == tuple(
                j for j in range(g.n) if g.weights[j, i] != 0.0)
    assert graphs[-1].neighbors(0) == () and graphs[-1].closed_neighbors(0) == (0,)


def test_inf_norm_is_max_abs_row_sum():
    g = WeightedDigraph([[1.0, -2.0], [0.5, 0.0]])
    assert inf_norm(g) == 3.0


def test_unit_cycle_metrics():
    g = build_canonical("cycle", 5)
    assert inf_norm(g) == 1.0
    assert sharp_metric(g) == 1.0


def test_sharp_metric_smallest_nonzero_magnitude():
    g = WeightedDigraph([[0.0, -0.25], [4.0, 0.0]])
    assert sharp_metric(g) == 0.25


def test_zero_matrix_degenerate():
    g = WeightedDigraph(np.zeros((3, 3)))
    assert inf_norm(g) == 0.0
    assert sharp_metric(g) == 0.0
    assert not is_strongly_connected(g)


def test_sign_patterns():
    assert sign_pattern(WeightedDigraph([[0.0, 1.0], [2.0, 0.0]])) == "all_nonnegative"
    assert sign_pattern(WeightedDigraph([[0.0, -1.0], [-2.0, 0.0]])) == "all_nonpositive"
    assert sign_pattern(WeightedDigraph([[0.0, -1.0], [2.0, 0.0]])) == "mixed"
    # a zero matrix counts as nonnegative, not mixed
    assert sign_pattern(WeightedDigraph(np.zeros((2, 2)))) == "all_nonnegative"


def test_cycle_orientation_and_neighbor_sets():
    # node i is fed by node i-1 (mod n); arcs are stored as (source, sink)
    g = build_canonical("cycle", 3)
    assert g.neighbors(0) == (2,)
    assert g.neighbors(1) == (0,)
    assert g.out_neighbors(2) == (0,)
    assert (2, 0) in g.arcs
    assert (0, 2) not in g.arcs


def test_self_arc_is_a_neighbor():
    g = build_canonical("single_selfloop", 1, a11=0.7)
    assert g.neighbors(0) == (0,)
    assert inf_norm(g) == 0.7
    assert is_strongly_connected(g)


def test_weights_read_only():
    g = build_canonical("cycle", 3)
    with pytest.raises(ValueError):
        g.weights[0, 0] = 5.0


def test_strong_connectivity():
    assert is_strongly_connected(build_canonical("cycle", 4))
    assert not is_strongly_connected(build_canonical("path_root_selfloop", 3))
    # single node with no arcs is trivially strongly connected
    assert is_strongly_connected(WeightedDigraph([[0.0]]))


def test_strong_connectivity_is_computed_once(monkeypatch):
    import netfeedback.graphs as graphs
    calls = []
    real = graphs._reaches_all_both_ways

    def counting(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(graphs, "_reaches_all_both_ways", counting)
    g = build_canonical("cycle", 4)
    h = build_canonical("path_root_selfloop", 3)
    assert [is_strongly_connected(g) for _ in range(3)] == [True] * 3
    assert [is_strongly_connected(h) for _ in range(3)] == [False] * 3
    assert len(calls) == 2  # one per graph; repeats read the cached answer


def _scipy_strongly_connected(w):
    from scipy.sparse import csr_matrix
    from scipy.sparse.csgraph import connected_components
    ncomp, _ = connected_components(csr_matrix((w != 0.0).astype(np.int8)),
                                    directed=True, connection="strong")
    return ncomp == 1


def test_strong_connectivity_matches_scipy_on_random_digraphs():
    rng = np.random.default_rng(20171)
    verdicts = []
    for trial in range(4000):
        n = int(rng.integers(1, 10))
        # the first 40 graphs are empty or complete, the rest of any density
        density = float(trial % 4 >= 2) if trial < 40 else rng.uniform()
        arcs = rng.random((n, n)) < density        # the diagonal gives self-arcs
        w = rng.normal(size=(n, n))                 # signs of both kinds
        # half the graphs write their missing arcs as -0.0, which is no arc
        w = np.where(arcs, w, -0.0 if trial % 2 else 0.0)
        want = _scipy_strongly_connected(w)
        assert is_strongly_connected(WeightedDigraph(w)) == want, w
        verdicts.append(want)
    # both answers are common, so neither sweep can pass by always agreeing
    assert 1000 < sum(verdicts) < 3000


def test_strong_connectivity_counts_every_four_node_digraph():
    pairs = [(i, j) for i in range(4) for j in range(4) if i != j]
    count = 0
    for mask in range(1 << len(pairs)):
        w = np.zeros((4, 4))
        for b, (i, j) in enumerate(pairs):
            if mask >> b & 1:
                w[j, i] = 1.0
        got = is_strongly_connected(WeightedDigraph(w))
        assert got == _scipy_strongly_connected(w), mask
        count += got
    assert count == 1606   # the count criterion 5 enumerates


def test_self_arcs_do_not_create_connectivity():
    w = np.zeros((2, 2))
    w[0, 0] = 1.0
    w[1, 1] = 1.0
    assert not is_strongly_connected(WeightedDigraph(w))


def test_path_root_selfloop_shape():
    g = build_canonical("path_root_selfloop", 4)
    # root feeds itself, each later node is fed by its predecessor
    assert g.neighbors(0) == (0,)
    assert g.neighbors(1) == (0,)
    assert g.neighbors(3) == (2,)
    assert not is_strongly_connected(g)


def test_bad_canonical_kind():
    with pytest.raises(ValueError):
        build_canonical("torus", 3)


def test_non_square_rejected():
    with pytest.raises(ValueError):
        WeightedDigraph(np.ones((2, 3)))


def test_random_strongly_connected_seeded():
    for seed in range(25):
        g = random_strongly_connected(4, seed=seed)
        assert is_strongly_connected(g)
    g1 = random_strongly_connected(5, seed=7)
    g2 = random_strongly_connected(5, seed=7)
    assert np.array_equal(g1.weights, g2.weights)
    g3 = random_strongly_connected(5, seed=8)
    assert not np.array_equal(g1.weights, g3.weights)


def test_random_graph_weight_range():
    g = random_strongly_connected(6, seed=3, weight_range=(0.4, 2.0))
    mags = np.abs(g.weights[g.weights != 0.0])
    assert mags.min() >= 0.4 - 1e-12
    assert mags.max() <= 2.0 + 1e-12
    assert sharp_metric(g) >= 0.4 - 1e-12


def test_random_graph_refuses_a_range_that_can_draw_no_arc():
    # a zero magnitude would drop the Hamiltonian cycle's arcs, and with them
    # strong connectivity
    for weight_range in ((0.0, 0.0), (0.0, 1.0), (-1.0, 1.0), (2.0, 1.0),
                         (float("nan"), 1.0), (0.4, float("nan")),
                         (0.4, float("inf"))):
        with pytest.raises(ValueError):
            random_strongly_connected(4, 0, weight_range=weight_range)
    g = random_strongly_connected(4, 0, weight_range=(0.5, 0.5))
    assert is_strongly_connected(g)
    assert set(np.abs(g.weights[g.weights != 0.0]).tolist()) == {0.5}
