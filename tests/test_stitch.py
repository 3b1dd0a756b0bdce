import contextlib
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, event, example, given, settings
from hypothesis import strategies as hst

import oracles
import stresstune.core as core_module
import stresstune.graph as graph_module
import stresstune.stitch as stitch_module
import stresstune.tune as tune_module
from conftest import patch_graph, rotation, small_graphs, weighted_graphs
from stresstune import (
    Configuration,
    DisconnectedGraphError,
    DissimilarityGraph,
    EigenSolverError,
    GlobalMap,
    MergeError,
    PatchError,
    RigidMap,
    StressTuneError,
    aligned_error,
    apply_multiplicative_noise,
    diameter,
    generate_shape,
    hop_balls,
    knn_graph,
    mds_d,
    mds_map_p,
    procrustes,
    stress,
    sweep_hops,
)
from stresstune.data import DomainShape
from stresstune.graph import _FLOYD_WARSHALL_MAX_ORDER, induced_subgraph_csr, shortest_paths_csr
from stresstune.stitch import _embed_members, _merge_plan, merge
from stresstune.tune import stress as raw_stress


def complete_graph(points: np.ndarray) -> DissimilarityGraph:
    n = len(points)
    edges = [
        (i, j, float(np.linalg.norm(points[i] - points[j])))
        for i in range(n)
        for j in range(i + 1, n)
    ]
    return DissimilarityGraph(n, edges)


def knn_instance(n_target, k, sigma, seed, shape="rectangle"):
    cfg = generate_shape(DomainShape.named(shape), n_target, seed=seed)
    g = knn_graph(cfg, k)
    return cfg, apply_multiplicative_noise(g, sigma, seed=seed + 1)


def ball(g, v, h):
    """Members of the patch at ``v``: row ``v`` of the ``h``-hop balls."""
    return hop_balls(g, h)[v].indices.astype(np.int64)


class TestBuildPatch:
    def test_saturated_patch_equals_whole_graph_embedding(self, rng):
        pts = rng.uniform(size=(12, 2))
        g = knn_graph(Configuration(pts), 3)
        members = ball(g, 0, 50)
        assert members.tolist() == list(range(12))
        whole = mds_d(g, 2)
        np.testing.assert_array_equal(_embed_members(g, members, 2, refine=False), whole.points)

    def test_star_graph_local_fit(self):
        # Star around node 0, realizable in the plane.
        pts = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [-1.0, 0.0], [0.0, -1.0]])
        g = complete_graph(pts)
        Y = _embed_members(g, ball(g, 0, 1), 2, refine=True)
        local = DissimilarityGraph(
            5, list(zip(g.ei.tolist(), g.ej.tolist(), g.weights.tolist()))
        )
        assert raw_stress(local, Configuration(Y)) < 1e-12

    def test_small_patches_fit_better_per_edge_than_whole_domain(self):
        # On a noisy non-convex instance the 2-hop patch around some center
        # should achieve lower stress per local edge than the whole-domain
        # patch (large h), which has to reconcile the hole's detours.
        cfg, g = knn_instance(300, 10, 0.15, seed=5, shape="hollow_rectangle")
        center = cfg.n // 2

        def per_edge_stress(h):
            members = ball(g, center, h)
            Y = _embed_members(g, members, 2, refine=True)
            index = {v: i for i, v in enumerate(members.tolist())}
            inside = [
                (index[i], index[j], w)
                for i, j, w in zip(g.ei.tolist(), g.ej.tolist(), g.weights.tolist())
                if i in index and j in index
            ]
            sub = DissimilarityGraph(len(members), inside)
            return raw_stress(sub, Configuration(Y)) / sub.edge_count

        assert per_edge_stress(2) < per_edge_stress(15)

    @settings(max_examples=150, deadline=None)
    @given(
        g=hst.one_of(
            small_graphs(),
            hst.builds(patch_graph, hst.integers(0, 2**32 - 1), hst.integers(2, 40), hst.booleans(), hst.just(True)),
        ),
        h=hst.integers(1, 4),
    )
    @example(g=DissimilarityGraph(5, [(0, 1, 1.0), (0, 2, 1.0), (2, 3, 1.0), (3, 4, 1.0)]), h=2)
    def test_disconnected_patch_impossible_by_construction(self, g, h):
        # A hop ball holds a shortest hop path from its center to each member,
        # and a stored zero is an edge, so every ball's completion is finite,
        # on disconnected and split graphs too: _embed_members checks neither.
        balls = hop_balls(g, h)
        for v in range(g.n):
            sub, _ = induced_subgraph_csr(g, balls.indices[balls.indptr[v] : balls.indptr[v + 1]])
            assert np.isfinite(shortest_paths_csr(sub)).all()


class TestMerge:
    def test_fully_placed_patch_changes_only_log(self, rng):
        pts = rng.uniform(size=(6, 2))
        g = complete_graph(pts)
        coords = pts.copy()
        members = ball(g, 1, 1)
        new = np.zeros(members.size, dtype=bool)
        merge(coords, members, new, _embed_members(g, members, 2, refine=False), 1)
        np.testing.assert_array_equal(coords, pts)
        # On a 7-node path the plan logs node 0's ball, already placed by the
        # seed {0, 1, 2}, without a new node: mds_map_p only checks its overlap.
        path = DissimilarityGraph(7, [(i, i + 1, 1.0) for i in range(6)])
        plan = [(v, m.tolist(), new.tolist(), o) for v, m, new, o in _merge_plan(hop_balls(path, 1), 1)]
        assert plan[:3] == [
            (1, [0, 1, 2], [True, True, True], 0),
            (0, [0, 1], [False, False], 2),
            (2, [1, 2, 3], [False, False, True], 2),
        ]
        _, gm = mds_map_p(path, 1, 1, return_global_map=True)
        assert gm.merge_log == tuple((v, o) for v, _, _, o in plan)

    def test_rotated_patch_places_new_node_exactly(self, rng):
        pts = rng.uniform(size=(5, 2))
        extra = np.array([2.0, 2.0])
        full = np.vstack([pts, extra])
        Q = rotation(np.pi / 2)
        # Patch coordinates live in a rotated frame; the merge must undo it.
        coords = np.vstack([pts, [np.nan, np.nan]])
        merge(coords, np.arange(6), np.array([False] * 5 + [True]), full @ Q.T, 0)
        np.testing.assert_allclose(coords[5], extra, atol=1e-9)
        np.testing.assert_array_equal(coords[:5], pts)

    def test_two_square_patches_realize_all_distances(self):
        # Two overlapping 2x3 blocks of the unit grid share a 2x2 column pair.
        grid = np.array([[x, y] for x in range(4) for y in range(2)], dtype=float)
        g = complete_graph(grid)
        members = ball(g, 0, 3)
        coords = np.full((8, 2), np.nan)
        coords[members] = _embed_members(g, members, 2, refine=False)
        assert np.isfinite(coords).all()  # complete graph saturates in one patch
        got = np.sqrt(((coords[:, None] - coords[None]) ** 2).sum(-1))
        want = np.sqrt(((grid[:, None] - grid[None]) ** 2).sum(-1))
        np.testing.assert_allclose(got, want, atol=1e-8)

    def test_small_overlap_refused(self, rng):
        pts = rng.uniform(size=(6, 2))
        g = complete_graph(pts)
        coords = np.vstack([pts[:2], np.full((4, 2), np.nan)])
        members = ball(g, 0, 1)
        local = _embed_members(g, members, 2, refine=False)
        with pytest.raises(MergeError, match="larger neighborhood"):
            merge(coords, members, members >= 2, local, 0)

    def test_matches_public_procrustes_path(self, monkeypatch):
        # Every merge of a stitch, replayed through procrustes on validated
        # Configurations and RigidMap.apply, places the same bits.
        _, g = knn_instance(300, 8, 0.1, seed=3)
        _, got = mds_map_p(g, 2, 2, final_refine=False, return_global_map=True)
        merged = []

        def public_merge(coords, members, new, local, center):
            merged.append(center)
            oracles.merge_public(coords, members, new, local)

        monkeypatch.setattr(stitch_module, "merge", public_merge)
        _, want = mds_map_p(g, 2, 2, final_refine=False, return_global_map=True)
        assert len(merged) > 10
        np.testing.assert_array_equal(got.coords, want.coords)
        assert got.merge_log == want.merge_log

    def test_degenerate_overlap_refused(self):
        pts = np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0], [1.0, 1.0]])
        g = complete_graph(pts)
        coords = np.vstack([pts[:3], [[np.nan, np.nan]]])
        members = ball(g, 0, 1)
        local = _embed_members(g, members, 2, refine=False)
        with pytest.raises(MergeError, match="degenerate"):
            merge(coords, members, members == 3, local, 0)


class TestMdsMapP:
    def test_complete_realizable_graph_any_h(self, rng):
        pts = rng.uniform(size=(15, 2))
        truth = Configuration(pts)
        g = complete_graph(pts)
        for h in (1, 2):
            out = mds_map_p(g, h, 2)
            assert aligned_error(out, truth) <= 1e-6 * diameter(truth)

    def test_sparse_realizable_recovery(self, rng):
        # Sparse noiseless graphs are not exactly recoverable (shortest-path
        # completion overestimates non-edge distances), but the stitched and
        # refined embedding should land within a percent or two of truth.
        pts = rng.uniform(size=(80, 2)) * [2.0, 1.0]
        truth = Configuration(pts)
        g = knn_graph(truth, 8)
        out = mds_map_p(g, 4, 2)
        rmse = np.sqrt(aligned_error(out, truth) / truth.n)
        assert rmse <= 0.02 * diameter(truth)

    def test_merge_log_deterministic(self, rng):
        cfg, g = knn_instance(150, 8, 0.1, seed=9)
        _, gm1 = mds_map_p(g, 2, 2, return_global_map=True)
        _, gm2 = mds_map_p(g, 2, 2, return_global_map=True)
        assert gm1.merge_log == gm2.merge_log

    def test_merge_log_pinned(self):
        # The merge log is combinatorial (hop balls and overlap counts only),
        # so these logs are independent of the BLAS build.
        cfg = generate_shape(DomainShape.named("hollow_rectangle"), 40, seed=21)
        g = apply_multiplicative_noise(knn_graph(cfg, 6), 0.1, seed=22)
        want = {
            1: ((29, 0), (24, 7), (23, 7), (19, 7), (20, 7), (28, 7), (33, 7), (34, 6),
                (30, 6), (31, 8), (25, 8), (35, 8), (26, 7), (27, 8), (32, 8), (36, 7),
                (37, 7), (15, 5), (16, 6), (11, 5), (6, 7), (0, 7), (1, 7), (2, 7),
                (7, 8), (12, 8), (5, 7), (8, 7), (13, 8)),
            2: ((12, 0), (7, 18), (13, 18), (2, 17), (8, 17), (11, 17), (16, 17), (1, 16),
                (6, 16), (15, 16), (17, 16), (25, 17)),
            3: ((16, 0), (20, 31)),
        }
        assert g.n == 38
        for h, log in want.items():
            _, gm = mds_map_p(g, h, 2, return_global_map=True)
            assert gm.merge_log == log

    def test_permutation_equivariance(self, rng):
        pts = rng.uniform(size=(40, 2))
        truth = Configuration(pts)
        g = knn_graph(truth, 6)
        base = mds_map_p(g, 2, 2, refine_patches=False, final_refine=False)
        perm = rng.permutation(40)
        inv = np.argsort(perm)
        remapped = [(int(min(perm[i], perm[j])), int(max(perm[i], perm[j])), w)
                    for i, j, w in zip(g.ei.tolist(), g.ej.tolist(), g.weights.tolist())]
        g2 = DissimilarityGraph(40, remapped)
        out2 = mds_map_p(g2, 2, 2, refine_patches=False, final_refine=False)
        back = Configuration(out2.points[perm])
        assert aligned_error(back, base) <= 1e-7 * diameter(base)

    def test_saturated_h_equals_mds_d(self, rng):
        pts = rng.uniform(size=(25, 2))
        g = knn_graph(Configuration(pts), 5)
        stitched = mds_map_p(g, 100, 2, refine_patches=False, final_refine=False)
        direct = mds_d(g, 2)
        assert aligned_error(stitched, direct) <= 1e-9 * diameter(direct)

    @pytest.mark.parametrize("shape, n", [("hollow_rectangle", 300), ("rectangle", 500), ("rectangle", 150)])
    def test_mds_d_is_the_one_patch_stitch(self, shape, n, monkeypatch):
        # At h = n the seed ball is the whole graph and every later patch adds
        # nothing, so the stitch completes and scales what mds_d does. Above
        # _FLOYD_WARSHALL_MAX_ORDER both complete by Dijkstra, bit for bit; at
        # or below it the patch completes by Floyd-Warshall, which rounds differently.
        # The one patch's Dijkstra work equals one whole-graph pass, so whatever
        # the budget, the stitch takes no shared rows.
        truth = generate_shape(DomainShape.named(shape), n, seed=0)
        g = apply_multiplicative_noise(knn_graph(truth, 10), 0.15, seed=1)
        direct = mds_d(g, 2)
        passes = counted_passes(monkeypatch)
        monkeypatch.setattr(graph_module, "_SHARED_ROWS_MAX_BYTES", 2**40)
        stitched = mds_map_p(g, g.n, 2, refine_patches=False, final_refine=False)
        if g.n > _FLOYD_WARSHALL_MAX_ORDER:
            assert np.array_equal(stitched.points, direct.points)
        else:
            assert np.abs(stitched.points - direct.points).max() <= 1e-14 * diameter(direct)
        assert passes == []

    def test_hop_beyond_float_range_stitches_as_h_n(self):
        _, g = knn_instance(60, 5, 0.1, seed=2)
        far = mds_map_p(g, 10**400, 2, refine_patches=False, final_refine=False)
        whole = mds_map_p(g, g.n, 2, refine_patches=False, final_refine=False)
        assert far.points.tobytes() == whole.points.tobytes()

    def test_uncoverable_centers_error_lists_nodes(self):
        # Every 1-hop ball of an 8-cycle has 3 nodes; after the seed ball
        # {7, 0, 1} none holds p+1 = 3 placed nodes, so 2..6 stay unplaced.
        g = DissimilarityGraph(8, [(i, (i + 1) % 8, 1.0) for i in range(8)])
        want = r"^5 node\(s\) never reachable .*\(e\.g\. 2, 3, 4, 5, 6\); increase h$"
        with pytest.raises(MergeError, match=want):
            mds_map_p(g, 1, 2)

    def test_disconnected_graph_rejected(self):
        g = DissimilarityGraph(6, [(0, 1, 1.0), (1, 2, 1.0), (3, 4, 1.0), (4, 5, 1.0)])
        with pytest.raises(DisconnectedGraphError):
            mds_map_p(g, 2, 2)

    def test_undersized_patches_rejected_with_centers_named(self):
        g = DissimilarityGraph(4, [(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0)])
        with pytest.raises(PatchError, match="p\\+1=3"):
            mds_map_p(g, 1, 2)

    def test_final_refine_does_not_hurt_stress(self, rng):
        cfg, g = knn_instance(150, 8, 0.15, seed=4)
        rough = mds_map_p(g, 2, 2, final_refine=False)
        polished = mds_map_p(g, 2, 2, final_refine=True)
        assert stress(g, polished) <= stress(g, rough) * (1 + 1e-9)


def counted_passes(monkeypatch) -> list:
    """The whole-graph shortest-path passes of the stitches that follow, one entry each."""
    passes, rows = [], graph_module._shortest_path_rows

    def counting(g):
        passes.append(g.n)
        return rows(g)

    monkeypatch.setattr(graph_module, "_shortest_path_rows", counting)
    return passes


class TestSharedRows:
    """Stitches that complete their patches from the whole graph's shortest-path rows."""

    @pytest.mark.parametrize("h", [5, 10])
    def test_same_bytes_with_and_without_the_rows(self, h, monkeypatch):
        _, g = knn_instance(1200, 15, 0.15, seed=0, shape="hollow_rectangle")
        passes = counted_passes(monkeypatch)
        stitched = {}
        for budget in (0, 2**40):
            monkeypatch.setattr(graph_module, "_SHARED_ROWS_MAX_BYTES", budget)
            stitched[budget] = mds_map_p(g, h, 2, refine_patches=False, final_refine=False)
            assert len(passes) == (budget > 0)
        assert stitched[0].points.tobytes() == stitched[2**40].points.tobytes()

    def test_patches_above_floyd_warshall_order_that_do_not_pay_take_no_rows(self, monkeypatch):
        # The 1,250-node 8-NN rectangle at h=6: 15 of its 217 embedded patches
        # are above the Floyd-Warshall order, at 0.40 of a whole-graph pass.
        _, g = knn_instance(1200, 8, 0.15, seed=0)
        monkeypatch.setattr(graph_module, "_SHARED_ROWS_MAX_BYTES", 2**40)
        embedded = [members for _, members, new, _ in _merge_plan(hop_balls(g, 6), 2) if new.any()]
        assert max(members.size for members in embedded) > _FLOYD_WARSHALL_MAX_ORDER
        assert graph_module._shared_rows(g, embedded) is None

    def test_embedding_error_comes_before_a_planning_error(self, monkeypatch):
        # After the seed {7, 0, 1} of an 8-cycle no 1-hop ball holds 3 placed
        # nodes, so the plan fails; the seed's embedding failed before that.
        def failing(D, p):
            raise EigenSolverError("seed patch")

        monkeypatch.setattr(stitch_module, "_classical_scaling_array", failing)
        g = DissimilarityGraph(8, [(i, (i + 1) % 8, 1.0) for i in range(8)])
        with pytest.raises(EigenSolverError, match="seed patch"):
            mds_map_p(g, 1, 2)


class TestSweepRows:
    """A sweep's stitches share one pass of the whole graph's rows; the rows go with the sweep."""

    def test_inline_sweep_takes_one_pass_and_a_lone_stitch_keeps_none(self, monkeypatch):
        # Alone, h=5 and h=10 each take the rows and the one patch of h=15 runs
        # the same whole-graph Dijkstra: three passes.
        _, g = knn_instance(1200, 15, 0.15, seed=0, shape="hollow_rectangle")
        fields = set(vars(g))
        passes = counted_passes(monkeypatch)
        whole, dijkstra = [], graph_module._dijkstra_csr

        def counted(adj):
            if adj.shape[0] == g.n:
                whole.append(g.n)
            return dijkstra(adj)

        monkeypatch.setattr(graph_module, "_dijkstra_csr", counted)
        monkeypatch.setattr(tune_module, "_usable_cores", lambda: 1)
        embeddings = {}
        sweep_hops(g, 2, [5, 10, 15], refine_patches=False, final_refine=False, embeddings=embeddings)
        assert passes == [g.n] and whole == []
        assert graph_module._sweep_rows.get() is None and set(vars(g)) == fields
        lone = mds_map_p(g, 15, 2, refine_patches=False, final_refine=False)
        assert passes == [g.n] and whole == [g.n]
        assert graph_module._sweep_rows.get() is None and set(vars(g)) == fields
        assert lone.points.tobytes() == embeddings[15].points.tobytes()

    def test_rows_held_for_another_graph_are_not_used(self, monkeypatch):
        monkeypatch.setattr(graph_module, "_SHARED_ROWS_MAX_BYTES", 2**40)
        monkeypatch.setattr(graph_module, "_FLOYD_WARSHALL_MAX_ORDER", 0)
        held, other = noisy_knn(60, 6, 1), noisy_knn(60, 6, 2)
        lone = mds_map_p(other, 3, 2, refine_patches=False, final_refine=False)
        with graph_module._sweep_holding_rows(held):
            mds_map_p(held, held.n, 2, refine_patches=False, final_refine=False)
            assert graph_module._sweep_rows.get()[1] is not None
            got = mds_map_p(other, 3, 2, refine_patches=False, final_refine=False)
        assert got.points.tobytes() == lone.points.tobytes()


def noisy_knn(n: int, k: int, seed: int) -> DissimilarityGraph:
    """A k-NN graph whose weights are the lengths times uniform noise in [0.5, 1.5]: paths often leave a ball."""
    points = Configuration(np.random.default_rng(seed).uniform(size=(n, 2)))
    knn = knn_graph(points, k)
    w = knn.weights * np.random.default_rng(seed + 1).uniform(0.5, 1.5, size=knn.edge_count)
    return DissimilarityGraph(knn.n, (knn.ei, knn.ej, w))


def cycle(n: int, weight: float) -> DissimilarityGraph:
    return DissimilarityGraph(n, [(i, (i + 1) % n, weight) for i in range(n)])


def stitched_or_error(stitch):
    """The bytes of ``stitch()``'s coordinates, or the type and message of its domain error."""
    try:
        return np.ascontiguousarray(stitch()).tobytes()
    except StressTuneError as exc:
        return type(exc), str(exc)


class TestStitchOracle:
    """A stitch without refinement against ``oracles.mds_map_p_loop``, bit for bit, on every completion path.

    The Floyd-Warshall order, the dense eigensolver order and the rows budget
    are patched so that small graphs reach Floyd-Warshall, per-patch
    Dijkstra, completion from the stitch's own rows and from rows a sweep
    already holds from another hop value, and both eigensolvers. Lanczos
    runs from order 21 on, where its 20 basis vectors span less than the
    whole space, as above the real order 80: on a whole space ARPACK may
    restart a rank-deficient matrix (zero weights) from its own random
    vector, whose state depends on earlier calls in the process.
    """

    @settings(max_examples=100, deadline=None)
    @given(
        g=weighted_graphs(max_n=150),
        h=hst.integers(1, 6),
        p=hst.integers(1, 3),
        floyd_warshall_order=hst.sampled_from([0, 16, 200]),
        dense_eigh_order=hst.sampled_from([20, 80]),
        rows=hst.sampled_from(["held", "own", "none"]),
    )
    # Paths that leave their ball, completed from the stitch's own rows and from held ones.
    @example(g=noisy_knn(150, 6, 1), h=3, p=2, floyd_warshall_order=0, dense_eigh_order=80, rows="own")
    @example(g=noisy_knn(150, 6, 1), h=3, p=2, floyd_warshall_order=0, dense_eigh_order=20, rows="held")
    # After the seed {7, 0, 1} of an 8-cycle no 1-hop ball holds 3 placed nodes:
    # the plan fails after the seed embeds, or after the seed's embedding has
    # failed (subnormal weights, whose squares underflow).
    @example(g=cycle(8, 1.0), h=1, p=2, floyd_warshall_order=200, dense_eigh_order=80, rows="none")
    @example(g=cycle(8, 1e-320), h=1, p=2, floyd_warshall_order=0, dense_eigh_order=80, rows="own")
    def test_matches_the_plain_loop(self, g, h, p, floyd_warshall_order, dense_eigh_order, rows):
        held = graph_module._sweep_holding_rows(g) if rows == "held" else contextlib.nullcontext()
        with mock.patch.object(graph_module, "_FLOYD_WARSHALL_MAX_ORDER", floyd_warshall_order), \
                mock.patch.object(core_module, "_DENSE_EIGH_MAX_ORDER", dense_eigh_order), \
                mock.patch.object(graph_module, "_SHARED_ROWS_MAX_BYTES", 0 if rows == "none" else 2**40), \
                mock.patch.object(graph_module, "_complete_from_rows", wraps=graph_module._complete_from_rows) as completed, \
                held:
            if rows == "held":
                # Another hop value, one patch of every node: within a sweep it
                # takes the rows whenever that patch is above the order.
                with contextlib.suppress(StressTuneError):
                    mds_map_p(g, g.n, p, refine_patches=False, final_refine=False)
                event(f"rows held: {graph_module._sweep_rows.get()[1] is not None}")
            completed.reset_mock()
            got = stitched_or_error(lambda: mds_map_p(g, h, p, refine_patches=False, final_refine=False).points)
            want = stitched_or_error(lambda: oracles.mds_map_p_loop(g, h, p))
        assert got == want
        event("stitched" if isinstance(want, bytes) else want[0].__name__)
        event(f"patches completed from {rows} rows: {completed.call_count > 0}")


class TestTraceContract:
    # The stitch-namespace names the benchmark tracer wraps; stitch must look
    # each one up at call time for ``bench/run.py --trace 1`` to count it.
    TRACED = ("induced_subgraph_csr", "shortest_paths_csr", "_classical_scaling_array",
              "_smacof", "merge", "_check_overlap", "smacof_refine")

    def test_counted_calls_match_merge_log(self, monkeypatch):
        self.check_counts(monkeypatch, 2)

    def test_counts_hold_when_patches_complete_from_shared_rows(self, monkeypatch):
        # With no Floyd-Warshall order every patch is Dijkstra-sized, and at
        # h=3 the patches' Dijkstra work outweighs one whole-graph pass.
        passes = counted_passes(monkeypatch)
        monkeypatch.setattr(graph_module, "_FLOYD_WARSHALL_MAX_ORDER", 0)
        self.check_counts(monkeypatch, 3)
        assert len(passes) == 1

    def check_counts(self, monkeypatch, h):
        # Mirrors the benchmark's check of traced counts against a replay of
        # the merge log: one embedding per merge plus the seed, and one
        # overlap check outside ``merge`` per patch that adds no node.
        calls, stack = [], []

        def counted(name, original):
            def call(*args, **kwargs):
                calls.append((name, stack[-1] if stack else None))
                stack.append(name)
                try:
                    return original(*args, **kwargs)
                finally:
                    stack.pop()

            return call

        for name in self.TRACED:
            monkeypatch.setattr(stitch_module, name, counted(name, getattr(stitch_module, name)))
        _, g = knn_instance(300, 8, 0.1, seed=3)
        _, gm = mds_map_p(g, h, 2, return_global_map=True)
        count = {name: sum(1 for called, _ in calls if called == name) for name in self.TRACED}
        merges = count["merge"]
        skipped = sum(1 for called, parent in calls if called == "_check_overlap" and parent != "merge")
        assert merges > 10 and skipped > 10
        for name in ("induced_subgraph_csr", "shortest_paths_csr", "_classical_scaling_array", "_smacof"):
            assert count[name] == merges + 1, name
        assert count["_check_overlap"] == merges + skipped
        assert count["smacof_refine"] == 1
        assert len(gm.merge_log) == merges + skipped + 1
        # The replay: an entry after the seed merges when its ball adds a node.
        balls, placed, adds = hop_balls(g, h), np.zeros(g.n, dtype=bool), []
        for v, _ in gm.merge_log:
            adds.append(not placed[balls[v].indices].all())
            placed[balls[v].indices] = True
        assert adds[0] and adds[1:].count(True) == merges and adds.count(False) == skipped


@hst.composite
def connected_graphs(draw):
    """Connected graphs of 3-24 nodes: a random spanning tree or a ring, plus
    random extra edges, weighted by the distances between random points in
    the unit square. Sparse rings at h=1, p=2 leave nodes no patch can reach."""
    n = draw(hst.integers(3, 24))
    if draw(hst.booleans()):
        base = {(i, i + 1) for i in range(n - 1)} | {(0, n - 1)}
    else:
        base = {(draw(hst.integers(0, i - 1)), i) for i in range(1, n)}
    extra = draw(
        hst.sets(
            hst.tuples(hst.integers(0, n - 1), hst.integers(0, n - 1))
            .filter(lambda t: t[0] != t[1])
            .map(lambda t: (min(t), max(t))),
            max_size=2 * n,
        )
    )
    pairs = sorted(base | extra)
    pts = np.random.default_rng(draw(hst.integers(0, 2**32 - 1))).uniform(size=(n, 2))
    ei = np.array([a for a, _ in pairs], dtype=np.int64)
    ej = np.array([b for _, b in pairs], dtype=np.int64)
    return DissimilarityGraph(n, (ei, ej, np.linalg.norm(pts[ei] - pts[ej], axis=1)))


class TestMergePlan:
    @settings(max_examples=200, deadline=None)
    @given(g=connected_graphs(), h=hst.integers(1, 3), p=hst.integers(1, 2))
    def test_merge_log_matches_set_loop(self, g, h, p):
        self.check_merge_log(g, h, p)

    @settings(max_examples=100, deadline=None)
    @given(g=connected_graphs(), h=hst.integers(1, 3), p=hst.integers(1, 2), seed=hst.integers(0, 2**32 - 1))
    def test_relabelled_merge_log_matches_set_loop(self, g, h, p, seed):
        # The plan is equivariant only up to its lowest-index tie-break, so the
        # relabelled graph's log is checked against the loop on that graph.
        perm = np.random.default_rng(seed).permutation(g.n)
        self.check_merge_log(DissimilarityGraph(g.n, (perm[g.ei], perm[g.ej], g.weights)), h, p)

    @staticmethod
    def check_merge_log(g, h, p):
        triples = list(zip(g.ei.tolist(), g.ej.tolist(), g.weights.tolist()))
        want = oracles.merge_plan_loop(g.n, triples, h, p)
        balls = hop_balls(g, h)
        placed = np.zeros(g.n, dtype=bool)
        plan = []
        try:
            for v, members, new, overlap in _merge_plan(balls, p):
                # Each step yields the center's ball, and its unplaced members as ``new``.
                assert members.tolist() == balls[v].indices.tolist()
                assert new.tolist() == (~placed[members]).tolist()
                placed[members] = True
                plan.append((v, overlap))
        except MergeError:
            plan = None
        assert plan == want
        if np.diff(balls.indptr).min() < p + 1:
            event("patch too small")
            with pytest.raises(PatchError, match="fewer than p\\+1"):
                mds_map_p(g, h, p)
            return
        try:
            _, gm = mds_map_p(
                g, h, p, refine_patches=False, final_refine=False, return_global_map=True
            )
        except MergeError as exc:
            # Whether a placed overlap is affinely degenerate depends on the
            # embeddings, which the membership-only plan does not see.
            assume("degenerate" not in str(exc))
            event("both raise MergeError")
            assert want is None and "never reachable" in str(exc)
        else:
            event("merge logs compared")
            assert gm.merge_log == tuple(want)


class TestGlobalMap:
    def test_placed_coords_must_be_finite(self):
        with pytest.raises(ValueError):
            GlobalMap(coords=np.array([[0.0, 0.0], [np.nan, np.nan]]))
