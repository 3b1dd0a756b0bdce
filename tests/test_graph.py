import csv
import re
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import event, example, given, settings
from hypothesis import strategies as hst

import oracles
import stresstune.core as core_module
import stresstune.embed as embed_module
import stresstune.graph as graph_module
import stresstune.stitch as stitch_module
import stresstune.tune as tune_module
from stresstune import (
    Configuration,
    DenseSymmetricMatrix,
    DisconnectedGraphError,
    DissimilarityGraph,
    StressTuneError,
    all_pairs_shortest_paths,
    connected_components,
    find_trilaterative_ordering,
    hop_balls,
    is_connected,
    knn_graph,
    knn_graph_from_matrix,
    mds_d,
    mds_map_p,
    min_connectivity_radius,
    radius_graph,
    read_edge_csv,
    smacof_refine,
    sweep_hops,
    write_edge_csv,
)
from scipy.sparse.csgraph import dijkstra as scipy_dijkstra

from stresstune.embed import _classical_scaling_array
from stresstune.graph import (
    _FLOYD_WARSHALL_MAX_ORDER,
    _check_embeddable,
    _dijkstra_csr,
    _row_positions,
    _shortest_path_rows,
    induced_subgraph_csr,
    shortest_paths_csr,
)
from conftest import (
    agrees_with_old_reader,
    block_budget,
    malformed_csv,
    patch_graph,
    rows_fit_header,
    small_graphs,
)


def line_config(*xs):
    return Configuration(np.array([[float(x), 0.0] for x in xs]))


def edge_triples(g):
    return list(zip(g.ei.tolist(), g.ej.tolist(), g.weights.tolist()))


def random_graph(rng, n, avg_degree=4.0):
    """Seeded sparse random graph, connected not guaranteed."""
    pairs = set()
    m = int(avg_degree * n / 2)
    while len(pairs) < m:
        i, j = rng.integers(0, n, size=2)
        if i != j:
            pairs.add((min(i, j), max(i, j)))
    edges = [(i, j, float(rng.uniform(0.1, 2.0))) for i, j in sorted(pairs)]
    return DissimilarityGraph(n, edges)


class TestDissimilarityGraph:
    def test_rejects_self_loops_duplicates_negatives(self):
        with pytest.raises(ValueError):
            DissimilarityGraph(3, [(0, 0, 1.0)])
        with pytest.raises(ValueError):
            DissimilarityGraph(3, [(0, 1, 1.0), (1, 0, 2.0)])
        with pytest.raises(ValueError):
            DissimilarityGraph(3, [(0, 1, -0.5)])
        with pytest.raises(ValueError):
            DissimilarityGraph(3, [(0, 1, np.inf)])
        with pytest.raises(ValueError):
            DissimilarityGraph(3, [(0, 3, 1.0)])

    @pytest.mark.parametrize("edges, named", [
        ([(0, 1, 1.0), (2, 2, 1.0), (1, 1, 1.0)], "self loops are not allowed: edge (2, 2)"),
        ([(0, 2, 1.0), (1, 2, 1.0), (2, 1, 2.0), (2, 0, 1.0)],
         "duplicate edges are not allowed: edge (0, 2)"),
        ([(0, 1, 1.0), (2, 1, -0.5), (0, 2, np.nan)], "edge (2, 1) has weight -0.5"),
        ([(0, 1, 1.0), (0, 2, np.nan), (2, 1, -0.5)], "edge (0, 2) has weight nan"),
        ([(0, 1, np.inf)], "edge (0, 1) has weight inf"),
    ])
    def test_refusal_names_the_first_offending_edge(self, edges, named):
        # Self loops and weights in input order; repeated pairs in canonical order.
        with pytest.raises(ValueError) as err:
            DissimilarityGraph(3, edges)
        assert named in str(err.value)

    def test_canonical_edge_order(self):
        g = DissimilarityGraph(4, [(3, 1, 2.0), (2, 0, 1.0), (1, 0, 5.0)])
        assert edge_triples(g) == [(0, 1, 5.0), (0, 2, 1.0), (1, 3, 2.0)]

    def test_neighbors_and_edge_weight(self):
        g = DissimilarityGraph(4, [(0, 1, 1.0), (0, 2, 2.0), (2, 3, 3.0)])
        idx, w = g.neighbors(0)
        np.testing.assert_array_equal(idx, [1, 2])
        np.testing.assert_array_equal(w, [1.0, 2.0])
        assert g.edge_weight(3, 2) == 3.0
        with pytest.raises(KeyError):
            g.edge_weight(0, 3)
        np.testing.assert_array_equal(g.degrees(), [2, 1, 2, 1])

    def test_zero_weight_edges_survive_shortest_paths(self):
        g = DissimilarityGraph(3, [(0, 1, 0.0), (1, 2, 1.0)])
        D = all_pairs_shortest_paths(g)
        assert D.values[0, 1] == 0.0
        assert D.values[0, 2] == 1.0
        chain = DissimilarityGraph(5, [(0, 1, 0.0), (1, 2, 0.0), (2, 3, 1.5), (3, 4, 0.0)])
        want = oracles.dijkstra_all_pairs(5, edge_triples(chain))
        np.testing.assert_array_equal(shortest_paths_csr(chain._adj_csr()), want)

    def test_zero_weight_bridge_is_an_edge_in_every_traversal(self, monkeypatch):
        # Two triangles whose only link is a 0.0-weight edge between 2 and 3.
        r = float(np.sqrt(2.0))
        g = DissimilarityGraph(6, [(0, 1, 2.0), (0, 2, r), (1, 2, r),
                                   (2, 3, 0.0), (3, 4, r), (3, 5, r), (4, 5, 2.0)])
        assert is_connected(g)
        assert connected_components(g) == [[0, 1, 2, 3, 4, 5]]
        balls = hop_balls(g, 1)
        assert 3 in balls[2].indices and 2 in balls[3].indices

        completed = []

        def recording(sub):
            D = shortest_paths_csr(sub)
            completed.append(D)
            return D

        members_of = []

        def recording_members(graph, members):
            members_of.append(members.tolist())
            return graph_module.induced_subgraph_csr(graph, members)

        monkeypatch.setattr(stitch_module, "shortest_paths_csr", recording)
        monkeypatch.setattr(stitch_module, "induced_subgraph_csr", recording_members)
        mds_map_p(g, 2, 2)
        for members, D in zip(members_of, completed):
            assert np.isfinite(D).all()
            if 2 in members and 3 in members:
                assert D[members.index(2), members.index(3)] == 0.0
        assert any(2 in m and 3 in m for m in members_of)


class TestKnnGraph:
    def test_two_points(self):
        g = knn_graph(line_config(0, 3), 1)
        assert edge_triples(g) == [(0, 1, 3.0)]

    def test_union_symmetrization_keeps_far_point(self):
        # Nearest neighbors: 0->1, 1->0 or 2, 2->1, 3->2; the union keeps 2-10
        # even though 2's nearest is 1.
        g = knn_graph(line_config(0, 1, 2, 10), 1)
        assert [(i, j) for i, j, _ in edge_triples(g)] == [(0, 1), (1, 2), (2, 3)]

    def test_matches_brute_force_and_min_degree(self, rng):
        pts = rng.uniform(size=(100, 2))
        g = knn_graph(Configuration(pts), 15)
        assert g.degrees().min() >= 15
        got = {(i, j) for i, j, _ in edge_triples(g)}
        assert got == oracles.knn_union_edges(pts, 15)
        for i, j, w in edge_triples(g):
            assert w == pytest.approx(np.linalg.norm(pts[i] - pts[j]), rel=1e-12)

    def test_squares_beyond_float64_raise(self):
        # The tree then reports infinite distances and the missing neighbour n.
        points = Configuration(np.random.default_rng(0).uniform(size=(20, 2)) * 1e200)
        want = (f"the squared distances between points overflow float64 (largest coordinate "
                f"{points.points.max():g}); rescale the points")
        with pytest.raises(StressTuneError, match=f"^{re.escape(want)}$"):
            knn_graph(points, 4)

    def test_rejects_bad_k(self):
        with pytest.raises(ValueError):
            knn_graph(line_config(0, 1), 0)
        with pytest.raises(ValueError):
            knn_graph(line_config(0, 1), 2)

    @pytest.mark.parametrize("k, message", [(0, "k must be >= 1"), (3, "need n > k, got n=3, k=3")])
    def test_both_builders_refuse_k_alike(self, k, message):
        points = line_config(0, 1, 5)
        D = DenseSymmetricMatrix(np.sqrt(oracles.sq_dist_double_loop(points.points)))
        for build, source in ((knn_graph, points), (knn_graph_from_matrix, D)):
            with pytest.raises(ValueError) as exc:
                build(source, k)
            assert str(exc.value) == message


class TestKnnGraphFromMatrix:
    def test_agrees_with_point_based_version(self, rng):
        pts = rng.uniform(size=(40, 2))
        g1 = knn_graph(Configuration(pts), 5)
        D = DenseSymmetricMatrix(np.sqrt(oracles.sq_dist_double_loop(pts)))
        g2 = knn_graph_from_matrix(D, 5)
        assert [(i, j) for i, j, _ in edge_triples(g1)] == [(i, j) for i, j, _ in edge_triples(g2)]


@hst.composite
def tied_point_sets(draw):
    """Points on a 4x4 integer grid, so distances tie and points coincide."""
    k = draw(hst.integers(1, 6))
    n = draw(hst.integers(k + 1, 30))
    cells = draw(hst.lists(hst.tuples(hst.integers(0, 3), hst.integers(0, 3)), min_size=n, max_size=n))
    return np.array(cells, dtype=np.float64), k


class TestKnnAgainstLoopOracle:
    @settings(max_examples=150, deadline=None)
    @given(case=tied_point_sets())
    def test_point_builder_matches_set_loop(self, case):
        pts, k = case
        g = knn_graph(Configuration(pts), k)
        ei, ej = oracles.knn_pairs_loop(pts, k)
        assert np.array_equal(g.ei, ei) and np.array_equal(g.ej, ej)
        assert np.array_equal(g.weights, np.linalg.norm(pts[ei] - pts[ej], axis=1))

    @settings(max_examples=150, deadline=None)
    @given(case=tied_point_sets())
    def test_matrix_builder_matches_set_loop(self, case):
        pts, k = case
        D = np.sqrt(((pts[:, None, :] - pts[None, :, :]) ** 2).sum(axis=2))
        g = knn_graph_from_matrix(DenseSymmetricMatrix(D), k)
        ei, ej = oracles.knn_matrix_pairs_loop(D, k)
        assert np.array_equal(g.ei, ei) and np.array_equal(g.ej, ej)
        assert np.array_equal(g.weights, D[ei, ej])


class TestRadiusGraph:
    def test_below_min_distance_empty(self):
        g = radius_graph(line_config(0, 1, 2), 0.5)
        assert g.edge_count == 0

    def test_above_diameter_complete(self):
        g = radius_graph(line_config(0, 1, 2), 2.0)
        assert g.edge_count == 3

    def test_matches_brute_force(self, rng):
        pts = rng.uniform(size=(60, 2))
        g = radius_graph(Configuration(pts), 0.3)
        got = {(i, j) for i, j, _ in edge_triples(g)}
        want = set()
        for i in range(60):
            for j in range(i + 1, 60):
                if np.linalg.norm(pts[i] - pts[j]) <= 0.3:
                    want.add((i, j))
        assert got == want

    def test_monotone_in_r(self, rng):
        pts = Configuration(rng.uniform(size=(30, 2)))
        small = {(i, j) for i, j, _ in edge_triples(radius_graph(pts, 0.2))}
        large = {(i, j) for i, j, _ in edge_triples(radius_graph(pts, 0.35))}
        assert small <= large


class TestMinConnectivityRadius:
    def test_line_points(self):
        assert min_connectivity_radius(line_config(0, 1, 5)) == pytest.approx(4.0)

    def test_two_clusters_gap(self):
        cfg = line_config(0.0, 0.1, 0.2, 3.2, 3.3)
        assert min_connectivity_radius(cfg) == pytest.approx(3.0)

    def test_connectivity_threshold(self, rng):
        cfg = Configuration(rng.uniform(size=(200, 2)))
        r = min_connectivity_radius(cfg)
        assert is_connected(radius_graph(cfg, r))
        g_below = radius_graph(cfg, 0.999 * r)
        comps = connected_components(g_below) if g_below.edge_count else []
        assert g_below.edge_count == 0 or len(comps) > 1

    def test_squares_beyond_float64_raise(self):
        # Squares of about 1e400: a RuntimeWarning would fail the test.
        cfg = Configuration(np.array([[0.0, 0.0], [1e200, 0.0], [0.0, 2e200]]))
        with pytest.raises(StressTuneError, match=r"squared distances between points overflow float64 "
                                                  r"\(largest coordinate 2e\+200\); rescale the points"):
            min_connectivity_radius(cfg)


class TestHopNeighborhood:
    """Rows of ``hop_balls`` are the BFS hop neighborhoods."""

    def path4(self):
        return DissimilarityGraph(4, [(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0)])

    @staticmethod
    def members(g, v, h):
        return hop_balls(g, h)[v].indices.tolist()

    def test_path_two_hops(self):
        assert self.members(self.path4(), 0, 2) == [0, 1, 2]

    def test_saturation(self):
        assert self.members(self.path4(), 0, 10) == [0, 1, 2, 3]

    def test_matches_reference_bfs(self, rng):
        g = random_graph(rng, 40)
        triples = edge_triples(g)
        for v in [0, 7, 23]:
            hops = oracles.bfs_hops(40, triples, v)
            for h in (1, 2, 3):
                want = [u for u in range(40) if hops[u] <= h]
                assert self.members(g, v, h) == want

    def test_monotone_in_h(self, rng):
        g = random_graph(rng, 30)
        for h in (1, 2, 3):
            a = set(self.members(g, 5, h))
            b = set(self.members(g, 5, h + 1))
            assert a <= b


class TestIsConnected:
    @settings(max_examples=150, deadline=None)
    @given(g=small_graphs())
    @example(g=DissimilarityGraph(1, []))
    @example(g=DissimilarityGraph(5, [(0, 1, 1.0), (1, 2, 1.0)]))
    def test_agrees_with_component_count(self, g):
        assert is_connected(g) == (len(connected_components(g)) == 1)

    def test_too_few_edges_refused_before_o_n_work(self):
        # Three edges cannot connect 10^7 nodes, so the adjacency of the
        # trailing isolated nodes (tens of MB) is never built.
        g = DissimilarityGraph(10**7, [(0, 1, 1.0), (1, 2, 1.0), (0, 2, 1.0)])
        tracemalloc.start()
        try:
            with pytest.raises(DisconnectedGraphError):
                mds_map_p(g, 2, 2)
            assert find_trilaterative_ordering(g, 2) is None
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2**20


def refusal(call):
    """``(type, message)`` of the exception ``call()`` raises, or None if it returns."""
    try:
        call()
    except Exception as exc:  # the property compares whatever is raised
        return type(exc), str(exc)
    return None


class TestCheckEmbeddable:
    def test_order_and_messages(self):
        split = DissimilarityGraph(4, [(0, 1, 1.0), (2, 3, 1.0)])
        path = DissimilarityGraph(3, [(0, 1, 1.0), (1, 2, 1.0)])
        # Hop values first, then p, then connectivity: each refusal hides the later ones.
        assert refusal(lambda: _check_embeddable(split, 0, (2, 0))) == (
            ValueError, "hop values must be >= 1")
        assert refusal(lambda: _check_embeddable(split, 0, (2,))) == (
            ValueError, "p must be >= 1 and at most n=4")
        assert refusal(lambda: _check_embeddable(split, 5)) == (
            ValueError, "p must be >= 1 and at most n=4")
        assert refusal(lambda: _check_embeddable(split, 2, (1, 3))) == (
            DisconnectedGraphError, "embedding requires a connected graph")
        assert refusal(lambda: _check_embeddable(path, 3, (1,))) is None
        assert refusal(lambda: _check_embeddable(path, 1)) is None

    @settings(max_examples=150, deadline=None)
    @given(g=small_graphs(), data=hst.data())
    def test_every_embedder_refuses_as_the_check_does(self, g, data):
        # Each entry point raises what the check raises, before any worker pool
        # or dense-memory guard is reached.
        p = data.draw(hst.integers(-1, g.n + 2), label="p")
        hs = data.draw(hst.lists(hst.integers(-1, 3), min_size=1, max_size=3), label="hops")
        calls = [
            ((hs[0],), lambda: mds_map_p(g, hs[0], p)),
            (hs, lambda: sweep_hops(g, p, hs)),
            ((), lambda: mds_d(g, p)),
        ]
        if p >= 1:
            calls.append(((), lambda: smacof_refine(g, Configuration(np.zeros((g.n, p))))))

        def unreachable(*args):
            raise AssertionError("reached past the entry check")

        with mock.patch.object(tune_module, "_sweep_in_processes", unreachable), \
                mock.patch.object(embed_module, "_check_dense_fits", unreachable):
            for hops, call in calls:
                want = refusal(lambda: _check_embeddable(g, p, hops))
                if want is not None:
                    assert refusal(call) == want


class TestHopBalls:
    @settings(max_examples=150, deadline=None)
    @given(g=small_graphs(), h=hst.integers(1, 32), block=hst.integers(1, 8))
    def test_matches_thresholded_hop_distances(self, g, h, block):
        # h up to 32 >= n - 1 covers h at or beyond every diameter; budgets of
        # 1-8 sources make most graphs span several blocks, the last partial.
        with block_budget(g.n, block):
            balls = hop_balls(g, h)
        assert balls.shape == (g.n, g.n)
        assert balls.has_sorted_indices
        hops = oracles.bfs_hop_matrix(g.n, edge_triples(g))
        np.testing.assert_array_equal(balls.toarray(), hops <= h)

    @settings(max_examples=150, deadline=None)
    @given(g=small_graphs(), h=hst.integers(1, 6), seed=hst.integers(0, 2**32 - 1))
    def test_relabelling_is_equivariant(self, g, h, seed):
        # Node v of g is node perm[v] of the relabelled graph.
        perm = np.random.default_rng(seed).permutation(g.n)
        moved = DissimilarityGraph(g.n, (perm[g.ei], perm[g.ej], g.weights))
        want = np.zeros((g.n, g.n), dtype=bool)
        want[np.ix_(perm, perm)] = hop_balls(g, h).toarray()
        got = hop_balls(moved, h)
        assert got.has_sorted_indices
        assert got.toarray().tobytes() == want.tobytes()

    def test_default_block_size_partial_last_block(self, rng):
        # At 549 nodes the default budget holds 477 sources per block, so the
        # second block is partial; a budget of 256 sources gives three blocks.
        n = 549
        step = core_module._DENSE_BLOCK_BYTES // (8 * n)
        assert 1 < step < n and n % step
        g = random_graph(rng, n, avg_degree=3.0)
        H = oracles.bfs_hop_matrix(n, edge_triples(g))
        for h in (1, 3):
            np.testing.assert_array_equal(hop_balls(g, h).toarray(), H <= h)
            with block_budget(n, 256):
                np.testing.assert_array_equal(hop_balls(g, h).toarray(), H <= h)

    def test_memory_is_one_block_plus_the_output(self, rng):
        # One block's distance rows and their finiteness mask (1.25 budgets)
        # plus a few times the output: the sources' rows and columns, the
        # per-block int32 columns and their concatenation. Whole blocks of
        # 256 sources, two alive at once, took about 22 MB here against 4 MB.
        g = knn_graph(Configuration(rng.uniform(size=(5000, 2))), 10)
        g._adj_csr()
        tracemalloc.start()
        try:
            balls = hop_balls(g, 2)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        out = balls.indices.nbytes + balls.data.nbytes + balls.indptr.nbytes
        assert peak <= 1.25 * core_module._DENSE_BLOCK_BYTES + 4 * out

    def test_trailing_isolated_nodes_are_their_own_balls(self):
        g = DissimilarityGraph(5, [(0, 1, 1.0), (1, 2, 1.0)])
        balls = hop_balls(g, 2)
        assert balls[3].indices.tolist() == [3]
        assert balls[4].indices.tolist() == [4]
        assert balls[0].indices.tolist() == [0, 1, 2]

    def test_h_must_be_positive(self):
        with pytest.raises(ValueError):
            hop_balls(DissimilarityGraph(2, [(0, 1, 1.0)]), 0)

    def test_h_beyond_float_range_reaches_what_n_reaches(self):
        g = DissimilarityGraph(5, [(0, 1, 1.0), (1, 2, 1.0), (3, 4, 1.0)])
        assert (hop_balls(g, 10**400) != hop_balls(g, g.n)).nnz == 0


class TestAllPairsShortestPaths:
    def test_two_hop_completion(self):
        g = DissimilarityGraph(3, [(0, 1, 1.0), (1, 2, 1.0)])
        D = all_pairs_shortest_paths(g)
        assert D.values[0, 2] == 2.0

    def test_complete_metric_graph_unchanged(self, rng):
        pts = rng.uniform(size=(10, 2))
        d = np.sqrt(oracles.sq_dist_double_loop(pts))
        edges = [(i, j, d[i, j]) for i in range(10) for j in range(i + 1, 10)]
        D = all_pairs_shortest_paths(DissimilarityGraph(10, edges))
        np.testing.assert_array_equal(D.values, d)

    def test_matches_dijkstra_oracle_exactly(self, rng):
        g = random_graph(rng, 50)
        D = all_pairs_shortest_paths(g)
        want = oracles.dijkstra_all_pairs(50, edge_triples(g))
        # The contract symmetrizes by taking the smaller of the two per-source
        # values, so apply the same reduction to the oracle before comparing.
        np.testing.assert_array_equal(D.values, np.minimum(want, want.T))

    def test_floyd_warshall_matches_dijkstra_on_integer_weights(self, rng):
        # Integer weights make every path sum exact in floating point, so the
        # two algorithms must agree bitwise despite different sum orders.
        for seed in range(5):
            r = np.random.default_rng(seed)
            g = random_graph(r, 30)
            g = DissimilarityGraph(
                30, [(i, j, float(int(w * 10) + 1)) for i, j, w in edge_triples(g)]
            )
            a = all_pairs_shortest_paths(g).values
            b = oracles.floyd_warshall_dense(g.n, g.ei, g.ej, g.weights)
            np.testing.assert_array_equal(a, b)

    def test_floyd_warshall_close_on_float_weights(self, rng):
        g = random_graph(rng, 40)
        a = all_pairs_shortest_paths(g).values
        b = oracles.floyd_warshall_dense(g.n, g.ei, g.ej, g.weights)
        finite = np.isfinite(a)
        np.testing.assert_allclose(b[finite], a[finite], rtol=1e-12, atol=0)
        np.testing.assert_array_equal(np.isfinite(b), finite)

    def test_disconnected_pairs_are_inf(self):
        g = DissimilarityGraph(4, [(0, 1, 1.0), (2, 3, 1.0)])
        D = all_pairs_shortest_paths(g)
        assert np.isinf(D.values[0, 2])
        assert D.values[2, 3] == 1.0

    def test_never_exceeds_direct_edge_and_triangle_inequality(self, rng):
        g = random_graph(rng, 30)
        D = all_pairs_shortest_paths(g).values
        for i, j, w in edge_triples(g):
            assert D[i, j] <= w
        finite = np.isfinite(D)
        for k in range(30):
            lhs = D
            rhs = D[:, [k]] + D[[k], :]
            mask = finite & np.isfinite(rhs)
            assert (lhs[mask] <= rhs[mask] * (1 + 1e-9) + 1e-15).all()


class TestShortestPathsDispatch:
    """``shortest_paths_csr`` against the undirected-Dijkstra oracle on both sides of its order switch."""

    T = _FLOYD_WARSHALL_MAX_ORDER

    @settings(max_examples=30, deadline=None)
    @given(
        seed=hst.integers(0, 2**32 - 1),
        m=hst.sampled_from([T - 1, T, T + 1]),
        integer=hst.booleans(),
        split=hst.booleans(),
    )
    def test_matches_completion_oracle(self, seed, m, integer, split):
        g = patch_graph(seed, m, integer, split)
        sub = g._adj_csr()
        D = shortest_paths_csr(sub)
        want = oracles.completion_dijkstra(sub)
        np.testing.assert_array_equal(np.isinf(D), np.isinf(want))
        if m > self.T or integer:
            np.testing.assert_array_equal(D, want)
        else:
            finite = np.isfinite(want)
            np.testing.assert_allclose(D[finite], want[finite], rtol=1e-12, atol=0)
        np.testing.assert_array_equal(D, D.T)
        # Stored zero weights are edges: their endpoints are at distance 0.
        zero = g.weights == 0.0
        assert (D[g.ei[zero], g.ej[zero]] == 0.0).all()
        assert (D[g.ei, g.ej] <= g.weights).all()
        if split:
            half = m // 2
            assert np.isinf(D[:half, half:]).all()

    @settings(max_examples=60, deadline=None)
    @given(seed=hst.integers(0, 2**32 - 1), m=hst.integers(4, 40), rows=hst.integers(1, 8),
           split=hst.booleans())
    def test_dijkstra_symmetrizes_in_place_bit_for_bit(self, seed, m, rows, split):
        # Float weights make the two directions differ in the last bits, and
        # split graphs add inf entries.
        sub = patch_graph(seed, m, integer=False, split=split)._adj_csr()
        want = oracles.symmetrize_min(scipy_dijkstra(sub, directed=True))
        with block_budget(sub.shape[0], rows):
            got = _dijkstra_csr(sub)
        assert got.tobytes() == want.tobytes()

    def test_completion_and_scaling_hold_two_dense_arrays(self, rng):
        # The completion and classical scaling's one work array, plus row
        # blocks of scratch; the out-of-place expressions held four m x m arrays.
        m = 1200
        g = knn_graph(Configuration(rng.uniform(size=(m, 2))), 10)
        sub = g._adj_csr()
        tracemalloc.start()
        try:
            _classical_scaling_array(shortest_paths_csr(sub), 2)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 2.5 * 8 * m * m

    def test_floyd_warshall_branch_on_small_orders(self):
        sub = patch_graph(0, 20, integer=True, split=False)._adj_csr()
        with mock.patch.object(graph_module, "_dijkstra_csr", side_effect=AssertionError):
            D = shortest_paths_csr(sub)
        np.testing.assert_array_equal(D, oracles.completion_dijkstra(sub))


@hst.composite
def weighted_graphs(draw):
    """Connected graphs of 12-90 nodes: a k-NN graph of random points joined by a path in x order.

    Weights are the Euclidean lengths, integers 1-3 (many tied paths) or
    the lengths with a fifth of them 0, all scaled by 2**e for e in [-30, 30].
    """
    r = np.random.default_rng(draw(hst.integers(0, 2**32 - 1)))
    n = draw(hst.integers(12, 90))
    points = r.uniform(size=(n, 2))
    knn = knn_graph(Configuration(points), draw(hst.integers(2, 6)))
    order = np.argsort(points[:, 0])
    i = np.concatenate([knn.ei, np.minimum(order[:-1], order[1:])])
    j = np.concatenate([knn.ej, np.maximum(order[:-1], order[1:])])
    key = np.unique(i * n + j)
    i, j = key // n, key % n
    kind = draw(hst.sampled_from(["length", "tied", "zeros"]))
    if kind == "tied":
        w = r.integers(1, 4, size=key.size).astype(np.float64)
    else:
        w = np.linalg.norm(points[i] - points[j], axis=1)
        if kind == "zeros":
            w[r.uniform(size=key.size) < 0.2] = 0.0
    return DissimilarityGraph(n, (i, j, np.ldexp(w, draw(hst.integers(-30, 30)))))


class TestCompleteFromRows:
    """Patches completed from the whole graph's rows against per-patch Dijkstra, bit for bit."""

    @staticmethod
    def complete(g, h, rows):
        """Each ball's completion from ``rows`` and by ``_dijkstra_csr``, and whether a path escaped it."""
        balls = hop_balls(g, h)
        # Order 0: every patch takes the Dijkstra side of the switch.
        with mock.patch.object(graph_module, "_FLOYD_WARSHALL_MAX_ORDER", 0):
            for v in range(g.n):
                members = balls[v].indices.astype(np.int64)
                sub, _ = induced_subgraph_csr(g, members)
                pred = rows[1][np.ix_(members, members)]
                escapes = ((pred >= 0) & ~np.isin(pred, members)).any()
                yield shortest_paths_csr(sub, rows, members), _dijkstra_csr(sub), escapes

    @settings(max_examples=150, deadline=None)
    @given(g=weighted_graphs(), h=hst.integers(1, 4))
    def test_matches_per_patch_dijkstra(self, g, h):
        escapes = False
        for got, want, escaped in self.complete(g, h, _shortest_path_rows(g)):
            assert got.tobytes() == want.tobytes()
            escapes |= escaped
        event(f"a shortest path escapes a ball: {escapes}")

    def test_escaping_paths_on_a_noisy_knn_graph(self):
        # Multiplicative noise makes detours outside a ball common.
        points = Configuration(np.random.default_rng(1).uniform(size=(300, 2)))
        knn = knn_graph(points, 8)
        w = knn.weights * np.random.default_rng(2).uniform(0.5, 1.5, size=knn.edge_count)
        g = DissimilarityGraph(knn.n, (knn.ei, knn.ej, w))
        escapes = 0
        for got, want, escaped in self.complete(g, 3, _shortest_path_rows(g)):
            assert got.tobytes() == want.tobytes()
            escapes += escaped
        assert escapes > 100

    def test_rows_are_the_unsymmetrized_dijkstra_rows_in_twelve_bytes_a_pair(self):
        g = patch_graph(0, 60, integer=False, split=False)
        dist, pred = _shortest_path_rows(g)
        assert dist.tobytes() == scipy_dijkstra(g._adj_csr(), directed=True).tobytes()
        assert dist.nbytes + pred.nbytes == 12 * g.n**2


def same_array(a: np.ndarray, b: np.ndarray) -> bool:
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def patch_members(g: DissimilarityGraph, kind: str, seed: int) -> np.ndarray:
    """Ascending int64 members: a random subset, one node, an independent set, or every node."""
    r = np.random.default_rng(seed)
    if kind == "all":
        return np.arange(g.n)
    if kind == "single":
        return np.array([r.integers(g.n)])
    if kind == "independent":
        taken = np.zeros(g.n, dtype=bool)
        for v in r.permutation(g.n):
            taken[v] = not taken[g.neighbors(v)[0]].any()
        return np.flatnonzero(taken)
    return np.sort(r.choice(g.n, size=r.integers(1, g.n + 1), replace=False))


class TestInducedSubgraph:
    """Patches gathered from the CSR arrays against scipy's indexing chain, bit for bit."""

    @settings(max_examples=150, deadline=None)
    @given(
        seed=hst.integers(0, 2**32 - 1),
        n=hst.integers(2, 60),
        kind=hst.sampled_from(["subset", "single", "independent", "all"]),
        split=hst.booleans(),
    )
    def test_matches_scipy_chain(self, seed, n, kind, split):
        # About a sixth of the weights are zero: stored zeros stay edges.
        g = patch_graph(seed, n, integer=False, split=split)
        members = patch_members(g, kind, seed)
        sub, edges = induced_subgraph_csr(g, members)
        want, want_edges = oracles.induced_subgraph_scipy(g._adj_csr(), members)
        assert sub.shape == want.shape == (members.size, members.size)
        for got, expected in [(sub.indptr, want.indptr), (sub.indices, want.indices), (sub.data, want.data),
                              *zip(edges, want_edges)]:
            assert same_array(got, expected)
        if kind == "independent":
            assert edges[0].size == 0

    @settings(max_examples=100, deadline=None)
    @given(g=small_graphs(), h=hst.integers(1, 4), seed=hst.integers(0, 2**32 - 1))
    def test_row_gather_matches_fancy_indexing(self, g, h, seed):
        balls = hop_balls(g, h)
        r = np.random.default_rng(seed)
        rows = r.permutation(g.n)[: r.integers(1, g.n + 1)].astype(balls.indices.dtype)
        pos, lengths = _row_positions(balls.indptr, rows)
        want = balls[rows]
        assert same_array(balls.indices[pos], want.indices)
        assert np.array_equal(lengths, np.diff(want.indptr))


class TestConnectedComponents:
    def test_empty_edge_set(self):
        assert connected_components(DissimilarityGraph(3, [])) == [[0], [1], [2]]

    def test_path_graph(self):
        g = DissimilarityGraph(4, [(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0)])
        assert connected_components(g) == [[0, 1, 2, 3]]
        assert is_connected(g)

    def test_matches_union_find(self, rng):
        g = random_graph(rng, 35, avg_degree=1.5)
        assert connected_components(g) == oracles.union_find_components(35, edge_triples(g))


# Well-formed edge-list fields for the fuzzing of read_edge_csv.
_INDEX = hst.integers(0, 20).map(str)
_WEIGHT = hst.floats(0, 10).map(repr)


class TestEdgeCsv:
    def test_round_trip_exact_and_byte_stable(self, tmp_path, rng):
        g = random_graph(rng, 12)
        path = tmp_path / "graph.csv"
        write_edge_csv(g, path)
        back = read_edge_csv(path)
        assert back.n == g.n
        np.testing.assert_array_equal(back.weights, g.weights)
        first = path.read_bytes()
        write_edge_csv(back, path)
        assert path.read_bytes() == first

    def test_header_and_inferred_n(self, tmp_path):
        path = tmp_path / "graph.csv"
        write_edge_csv(DissimilarityGraph(5, [(0, 1, 1.5)]), path)
        assert path.read_text().splitlines()[0] == "i,j,d"
        assert read_edge_csv(path).n == 2  # inferred from max index

    def test_index_outside_int64_names_the_row(self, tmp_path):
        path = tmp_path / "graph.csv"
        for index in ("99999999999999999999", str(2**63 - 1), "-1"):
            path.write_text(f"i,j,d\n0,1,1.0\n0,{index},1.0\n")
            with pytest.raises(ValueError, match="row 3"):
                read_edge_csv(path)

    def test_oversized_field_names_the_row(self, tmp_path):
        path = tmp_path / "graph.csv"
        big = "1" * (csv.field_size_limit() + 1)
        for text, row in ((f"i,j,d\n0,1,1.0\n0,2,{big}\n", 3), (f"i,j,{big}\n0,1,1.0\n", 1)):
            path.write_text(text)
            with pytest.raises(ValueError, match=f"row {row}: field larger than field limit"):
                read_edge_csv(path)

    def test_header_beyond_i_j_d_is_refused(self, tmp_path):
        path = tmp_path / "graph.csv"
        path.write_text("i,j,d,note\n0,1,1.0\n")
        with pytest.raises(ValueError, match="row 1: expected header i,j,d"):
            read_edge_csv(path)

    @settings(max_examples=300, deadline=None)
    @given(text=hst.sampled_from(["i,j,d", " i , j,d ", "i,j,d,x"]).flatmap(
        lambda header: malformed_csv(header, [_INDEX, _INDEX, _WEIGHT])))
    def test_agrees_with_the_old_reader(self, tmp_path_factory, text):
        path = tmp_path_factory.getbasetemp() / "diff_graph.csv"
        path.write_text(text, encoding="utf-8", newline="")
        agrees_with_old_reader(
            read_edge_csv, oracles.read_edge_csv, path,
            lambda new, old: (new.n == old.n and edge_triples(new) == edge_triples(old)
                              and new.weights.tobytes() == old.weights.tobytes()),
            fits=rows_fit_header(text, exact=["i", "j", "d"]),
        )

    @settings(max_examples=300, deadline=None)
    @given(text=malformed_csv("i,j,d", [_INDEX, _INDEX, _WEIGHT]))
    def test_malformed_rows_return_a_graph_or_raise_value_error(self, tmp_path_factory, text):
        path = tmp_path_factory.getbasetemp() / "fuzz_graph.csv"
        path.write_text(text, newline="")
        try:
            g = read_edge_csv(path)
        except ValueError:
            return
        assert isinstance(g, DissimilarityGraph) and g.edge_count >= 1
