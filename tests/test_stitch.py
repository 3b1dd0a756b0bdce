import numpy as np
import pytest

from conftest import rotation
from stresstune import (
    Configuration,
    DisconnectedGraphError,
    DissimilarityGraph,
    GlobalMap,
    MergeError,
    PatchError,
    RigidMap,
    aligned_error,
    apply_multiplicative_noise,
    build_patch,
    diameter,
    generate_shape,
    knn_graph,
    mds_d,
    mds_map_p,
    merge,
    procrustes,
    stress,
)
from stresstune.data import DomainShape
from stresstune.graph import induced_subgraph_csr, shortest_paths_csr
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


class TestBuildPatch:
    def test_saturated_patch_equals_whole_graph_embedding(self, rng):
        pts = rng.uniform(size=(12, 2))
        g = knn_graph(Configuration(pts), 3)
        patch = build_patch(g, 0, h=50, p=2, refine=False)
        assert patch.members == tuple(range(12))
        whole = mds_d(g, 2)
        np.testing.assert_array_equal(patch.local_embedding.points, whole.points)

    def test_star_graph_local_fit(self):
        # Star around node 0, realizable in the plane.
        pts = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [-1.0, 0.0], [0.0, -1.0]])
        g = complete_graph(pts)
        patch = build_patch(g, 0, h=1, p=2, refine=True)
        local = DissimilarityGraph(
            5, list(zip(g.ei.tolist(), g.ej.tolist(), g.weights.tolist()))
        )
        emb = Configuration(patch.local_embedding.points)
        assert raw_stress(local, emb) < 1e-12

    def test_small_patches_fit_better_per_edge_than_whole_domain(self):
        # On a noisy non-convex instance the 2-hop patch around some center
        # should achieve lower stress per local edge than the whole-domain
        # patch (large h), which has to reconcile the hole's detours.
        cfg, g = knn_instance(300, 10, 0.15, seed=5, shape="hollow_rectangle")
        center = cfg.n // 2

        def per_edge_stress(h):
            patch = build_patch(g, center, h=h, p=2, refine=True)
            members = list(patch.members)
            index = {v: i for i, v in enumerate(members)}
            inside = [
                (index[i], index[j], w)
                for i, j, w in zip(g.ei.tolist(), g.ej.tolist(), g.weights.tolist())
                if i in index and j in index
            ]
            sub = DissimilarityGraph(len(members), inside)
            return raw_stress(sub, patch.local_embedding) / sub.edge_count

        assert per_edge_stress(2) < per_edge_stress(15)

    def test_undersized_patch_rejected(self):
        g = DissimilarityGraph(4, [(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0)])
        with pytest.raises(PatchError, match="node 0"):
            build_patch(g, 0, h=1, p=2)

    def test_disconnected_patch_impossible_by_construction(self):
        # Hop neighborhoods are BFS balls, so the induced subgraph always
        # contains a spanning tree of paths back to the center.
        g = DissimilarityGraph(5, [(0, 1, 1.0), (0, 2, 1.0), (2, 3, 1.0), (3, 4, 1.0)])
        patch = build_patch(g, 0, h=2, p=1, refine=False)
        members = np.array(patch.members)
        assert np.isfinite(shortest_paths_csr(induced_subgraph_csr(g, members))).all()


class TestMerge:
    def seeded_map(self, pts):
        n = len(pts)
        return GlobalMap(coords=pts, placed=np.ones(n, dtype=bool), merge_log=((0, 0),))

    def test_fully_placed_patch_changes_only_log(self, rng):
        pts = rng.uniform(size=(6, 2))
        gm = self.seeded_map(pts)
        patch = build_patch(complete_graph(pts), 1, h=1, p=2, refine=False)
        merged = merge(gm, patch)
        np.testing.assert_array_equal(merged.coords, gm.coords)
        assert merged.merge_log == ((0, 0), (1, 6))

    def test_rotated_patch_places_new_node_exactly(self, rng):
        pts = rng.uniform(size=(5, 2))
        extra = np.array([2.0, 2.0])
        full = np.vstack([pts, extra])
        Q = rotation(np.pi / 2)
        # Patch coordinates live in a rotated frame; the merge must undo it.
        patch_pts = full @ Q.T
        gm = GlobalMap(
            coords=np.vstack([pts, [np.nan, np.nan]]),
            placed=np.array([True] * 5 + [False]),
        )
        nbhd_patch = build_patch(complete_graph(full), 0, h=1, p=2, refine=False)
        patch = type(nbhd_patch)(
            neighborhood=nbhd_patch.neighborhood,
            local_embedding=Configuration(patch_pts),
        )
        merged = merge(gm, patch)
        np.testing.assert_allclose(merged.coords[5], extra, atol=1e-9)

    def test_two_square_patches_realize_all_distances(self):
        # Two overlapping 2x3 blocks of the unit grid share a 2x2 column pair.
        grid = np.array([[x, y] for x in range(4) for y in range(2)], dtype=float)
        g = complete_graph(grid)
        left = build_patch(g, 0, h=3, p=2, refine=False)
        gm = GlobalMap.empty(8, 2)
        members = np.array(left.members)
        coords = np.array(gm.coords)
        coords[members] = left.local_embedding.points
        placed = np.zeros(8, dtype=bool)
        placed[members] = True
        gm = GlobalMap(coords=coords, placed=placed, merge_log=((0, 0),))
        assert gm.placed.all()  # complete graph saturates in one patch
        got = np.sqrt(((gm.coords[:, None] - gm.coords[None]) ** 2).sum(-1))
        want = np.sqrt(((grid[:, None] - grid[None]) ** 2).sum(-1))
        np.testing.assert_allclose(got, want, atol=1e-8)

    def test_small_overlap_refused(self, rng):
        pts = rng.uniform(size=(6, 2))
        gm = GlobalMap(
            coords=np.vstack([pts[:2], np.full((4, 2), np.nan)]),
            placed=np.array([True, True, False, False, False, False]),
        )
        patch = build_patch(complete_graph(pts), 0, h=1, p=2, refine=False)
        with pytest.raises(MergeError, match="larger neighborhood"):
            merge(gm, patch)

    def test_degenerate_overlap_refused(self):
        pts = np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0], [1.0, 1.0]])
        gm = GlobalMap(
            coords=np.vstack([pts[:3], [[np.nan, np.nan]]]),
            placed=np.array([True, True, True, False]),
        )
        patch = build_patch(complete_graph(pts), 0, h=1, p=2, refine=False)
        with pytest.raises(MergeError, match="degenerate"):
            merge(gm, patch)


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

    def test_centers_covering_all_nodes_match_default(self, rng):
        pts = rng.uniform(size=(30, 2))
        g = knn_graph(Configuration(pts), 6)
        a = mds_map_p(g, 2, 2)
        b = mds_map_p(g, 2, 2, centers=list(range(30)))
        np.testing.assert_array_equal(a.points, b.points)

    def test_subsampled_centers_still_cover(self, rng):
        cfg, g = knn_instance(120, 8, 0.0, seed=3)
        out = mds_map_p(g, 3, 2, centers=list(range(0, cfg.n, 4)))
        assert out.n == cfg.n
        assert aligned_error(out, cfg) <= 1e-6 * diameter(cfg)

    def test_uncoverable_centers_error_lists_nodes(self, rng):
        cfg, g = knn_instance(120, 8, 0.0, seed=3)
        with pytest.raises(MergeError, match="increase h"):
            mds_map_p(g, 1, 2, centers=[0])

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


class TestGlobalMap:
    def test_incomplete_map_refuses_configuration(self):
        gm = GlobalMap.empty(3, 2)
        with pytest.raises(Exception):
            gm.as_configuration()

    def test_placed_coords_must_be_finite(self):
        with pytest.raises(ValueError):
            GlobalMap(coords=np.full((2, 2), np.nan), placed=np.array([True, False]))
