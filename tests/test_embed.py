import numpy as np
import pytest
from scipy.optimize import least_squares

import oracles
from stresstune import (
    Configuration,
    DegenerateGeometryError,
    DenseSymmetricMatrix,
    DisconnectedGraphError,
    DissimilarityGraph,
    RigidMap,
    StressTuneError,
    aligned_error,
    all_pairs_shortest_paths,
    apply_multiplicative_noise,
    classical_scaling,
    diameter,
    knn_graph,
    mds_d,
    smacof_refine,
    strain,
    trilaterate,
)
from conftest import rotation
import stresstune.embed as embed_module
from stresstune.embed import _smacof


def complete_graph(points: np.ndarray) -> DissimilarityGraph:
    n = len(points)
    edges = [
        (i, j, float(np.linalg.norm(points[i] - points[j])))
        for i in range(n)
        for j in range(i + 1, n)
    ]
    return DissimilarityGraph(n, edges)


def distance_matrix(points: np.ndarray) -> DenseSymmetricMatrix:
    return DenseSymmetricMatrix(np.sqrt(oracles.sq_dist_double_loop(points)))


class TestClassicalScaling:
    def test_two_points_one_dim(self):
        D = DenseSymmetricMatrix([[0.0, 1.0], [1.0, 0.0]])
        out = classical_scaling(D, 1)
        assert abs(out.points[0, 0] - out.points[1, 0]) == pytest.approx(1.0, abs=1e-12)

    def test_unit_square_reproduces_distances(self, unit_square_corners):
        D = distance_matrix(unit_square_corners.points)
        out = classical_scaling(D, 2)
        got = np.sqrt(oracles.sq_dist_double_loop(out.points))
        np.testing.assert_allclose(got, D.values, atol=1e-9)

    def test_all_zero_distances(self):
        out = classical_scaling(DenseSymmetricMatrix(np.zeros((3, 3))), 2)
        np.testing.assert_allclose(out.points, 0.0, atol=1e-12)

    def test_realizable_recovery(self, rng):
        pts = rng.uniform(size=(50, 2))
        out = classical_scaling(distance_matrix(pts), 2)
        truth = Configuration(pts)
        assert aligned_error(out, truth) <= 1e-8 * diameter(truth) ** 2

    def test_output_is_centered(self, rng):
        out = classical_scaling(distance_matrix(rng.uniform(size=(9, 2))), 2)
        np.testing.assert_allclose(out.points.mean(axis=0), 0.0, atol=1e-9)

    def test_rejects_incomplete_input(self):
        D = DenseSymmetricMatrix(
            np.array([[0.0, np.inf], [np.inf, 0.0]]), allow_infinite=True
        )
        with pytest.raises(StressTuneError):
            classical_scaling(D, 1)

    def test_rejects_negative_entries(self):
        with pytest.raises(ValueError):
            classical_scaling(DenseSymmetricMatrix([[0.0, -1.0], [-1.0, 0.0]]), 1)


class TestStrain:
    def test_exact_embedding_near_zero(self, rng):
        pts = rng.uniform(size=(10, 2))
        B = DenseSymmetricMatrix(oracles.double_center_out_of_place(-0.5 * oracles.sq_dist_double_loop(pts)))
        out = classical_scaling(distance_matrix(pts), 2)
        norm = np.linalg.norm(B.values) ** 2
        assert strain(out, B) <= 1e-12 * norm

    def test_origin_configuration(self):
        B = DenseSymmetricMatrix([[1.0, 0.5, 0.0], [0.5, 1.0, -0.25], [0.0, -0.25, 1.0]])
        Y = Configuration(np.zeros((3, 2)))
        want = 0.5**2 + 0.0**2 + 0.25**2
        assert strain(Y, B) == pytest.approx(want, rel=1e-12)

    def test_matches_double_loop(self, rng):
        pts = rng.standard_normal((6, 2))
        m = rng.standard_normal((6, 6))
        B = DenseSymmetricMatrix((m + m.T) / 2)
        want = 0.0
        for i in range(6):
            for j in range(i + 1, 6):
                want += (pts[i] @ pts[j] - B.values[i, j]) ** 2
        assert strain(Configuration(pts), B) == pytest.approx(want, rel=1e-12)


class TestMdsD:
    def test_complete_graph_equals_classical_scaling(self, rng):
        pts = rng.uniform(size=(10, 2))
        g = complete_graph(pts)
        via_graph = mds_d(g, 2)
        D = np.zeros((10, 10))
        D[g.ei, g.ej] = g.weights
        direct = classical_scaling(DenseSymmetricMatrix(D + D.T), 2)
        np.testing.assert_array_equal(via_graph.points, direct.points)

    def test_matches_classical_scaling_of_the_completion(self, rng):
        pts = rng.uniform(size=(200, 2))
        g = apply_multiplicative_noise(knn_graph(Configuration(pts), 6), 0.1, seed=4)
        want = classical_scaling(all_pairs_shortest_paths(g), 2)
        np.testing.assert_array_equal(mds_d(g, 2).points, want.points)

    def test_path_graph_completion(self):
        g = DissimilarityGraph(3, [(0, 1, 1.0), (1, 2, 1.0)])
        out = mds_d(g, 1).points[:, 0]
        gaps = np.abs(np.diff(out))
        np.testing.assert_allclose(gaps, [1.0, 1.0], atol=1e-9)
        assert abs(out[2] - out[0]) == pytest.approx(2.0, abs=1e-9)

    def test_disconnected_graph_rejected(self):
        g = DissimilarityGraph(4, [(0, 1, 1.0), (2, 3, 1.0)])
        with pytest.raises(DisconnectedGraphError):
            mds_d(g, 1)


class TestSmacofRefine:
    def test_exact_realization_is_fixed_point(self, rng):
        pts = rng.uniform(size=(8, 2))
        g = complete_graph(pts)
        cfg = Configuration(pts)
        out = smacof_refine(g, cfg)
        np.testing.assert_array_equal(out.points, pts)

    def test_stress_decreases_from_random_start(self, rng):
        pts = rng.uniform(size=(10, 2))
        g = complete_graph(pts)
        y0 = rng.standard_normal((10, 2))
        before = oracles.unsquared_stress(y0, g.ei, g.ej, g.weights)
        out = smacof_refine(g, Configuration(y0))
        after = oracles.unsquared_stress(out.points, g.ei, g.ej, g.weights)
        assert after < before

    def test_single_step_matches_hand_computation(self, monkeypatch):
        # Path 0-1-2 with unit target distances from Y0 = (0, 0.5, 2) on a
        # line. Hand Guttman update: dist = (0.5, 1.5), ratios (2, 2/3);
        # B rows sum against Y0 give B@Y0 = (-1, 0, 1) and the solve against
        # the path Laplacian yields the centered optimum (-1, 0, 1) exactly.
        g = DissimilarityGraph(3, [(0, 1, 1.0), (1, 2, 1.0)])
        y0 = np.array([[0.0, 0.0], [0.5, 0.0], [2.0, 0.0]])
        monkeypatch.setattr(embed_module, "SMACOF_MAX_ITER", 1)
        out, history = _smacof(3, g.ei, g.ej, g.weights, y0)
        np.testing.assert_allclose(out[:, 0], [-1.0, 0.0, 1.0], atol=1e-12)
        np.testing.assert_allclose(out[:, 1], 0.0, atol=1e-12)
        assert history[-1] == pytest.approx(0.0, abs=1e-24)

    def test_single_step_matches_pinv_oracle(self, rng, monkeypatch):
        pts = rng.uniform(size=(9, 2))
        g = complete_graph(pts)
        y0 = rng.standard_normal((9, 2))
        monkeypatch.setattr(embed_module, "SMACOF_MAX_ITER", 1)
        monkeypatch.setattr(embed_module, "SMACOF_TOL", 0.0)
        out, _ = _smacof(9, g.ei, g.ej, g.weights, y0)
        want = oracles.guttman_step_full(y0, g.ei, g.ej, g.weights)
        # The update is translation-free only up to centering; compare after
        # removing the mean from both.
        np.testing.assert_allclose(
            out - out.mean(axis=0),
            want - want.mean(axis=0),
            atol=1e-9,
        )

    def test_history_monotone_nonincreasing(self, rng):
        for seed in range(20):
            r = np.random.default_rng(seed)
            pts = r.uniform(size=(12, 2))
            g = complete_graph(pts)
            noisy = [
                (i, j, w * (1 + r.uniform(-0.1, 0.1)))
                for i, j, w in zip(g.ei, g.ej, g.weights)
            ]
            g = DissimilarityGraph(12, noisy)
            _, history = smacof_refine(
                g, Configuration(r.standard_normal((12, 2))), return_history=True
            )
            for a, b in zip(history, history[1:]):
                assert b <= a * (1 + 1e-12)

    def test_zero_distance_guard(self, monkeypatch):
        # Two coincident starting points with a positive target distance used
        # to be a divide-by-zero; the guard must leave the step finite.
        g = DissimilarityGraph(2, [(0, 1, 1.0)])
        y0 = np.zeros((2, 2))
        monkeypatch.setattr(embed_module, "SMACOF_MAX_ITER", 5)
        out, _ = _smacof(2, g.ei, g.ej, g.weights, y0)
        assert np.isfinite(out).all()

    def test_coverage_mismatch(self, rng):
        g = DissimilarityGraph(3, [(0, 1, 1.0), (1, 2, 1.0)])
        with pytest.raises(ValueError):
            smacof_refine(g, Configuration(rng.uniform(size=(2, 2))))


def random_connected_edges(r, n):
    """Random spanning tree plus extra chords; edge weights near unit scale."""
    pairs = {(int(r.integers(0, v)), v) for v in range(1, n)}
    for _ in range(n):
        i, j = sorted(int(x) for x in r.choice(n, size=2, replace=False))
        pairs.add((i, j))
    pairs = sorted(pairs)
    ei = np.array([a for a, _ in pairs], dtype=np.int64)
    ej = np.array([b for _, b in pairs], dtype=np.int64)
    return ei, ej, r.uniform(0.5, 2.0, size=ei.size)


class TestSparseSmacofAgainstDenseOracle:
    def test_matches_dense_cholesky(self):
        for seed in range(30):
            r = np.random.default_rng(seed)
            n = int(r.integers(8, 40))
            ei, ej, d = random_connected_edges(r, n)
            d[0] = 0.0  # a zero-weight edge
            y0 = r.standard_normal((n, 2))
            y0[ej[1]] = y0[ei[1]]  # coincident endpoints: the distance-floor branch
            got, hist = _smacof(n, ei, ej, d, y0)
            want, want_hist = oracles.smacof_dense_cholesky(n, ei, ej, d, y0, 300, 1e-6)
            assert len(hist) == len(want_hist) > 1
            np.testing.assert_allclose(hist, want_hist, rtol=1e-9, atol=1e-12 * hist[0])
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-9)
            np.testing.assert_allclose(got.mean(axis=0), 0.0, atol=1e-12)

    def test_tiny_graphs_agree_at_the_fixed_point(self):
        # Three or four nodes are often realizable, so stress runs down toward
        # zero and the stopping tests (stress_new > stress, the relative
        # decrease) compare numbers at rounding level; the step counts may then
        # differ, so only the final iterates are compared.
        for seed in range(40):
            r = np.random.default_rng(seed)
            n = int(r.integers(3, 5))
            ei, ej, d = random_connected_edges(r, n)
            y0 = r.standard_normal((n, 2))
            got, hist = _smacof(n, ei, ej, d, y0)
            want, want_hist = oracles.smacof_dense_cholesky(n, ei, ej, d, y0, 300, 1e-6)
            assert hist[-1] == pytest.approx(want_hist[-1], rel=1e-6, abs=1e-12 * hist[0])
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-9)

    def test_all_points_coincident(self, monkeypatch):
        # Every distance is under the floor: the first step maps to the origin.
        ei, ej, d = random_connected_edges(np.random.default_rng(1), 6)
        y0 = np.ones((6, 2))
        monkeypatch.setattr(embed_module, "SMACOF_MAX_ITER", 5)
        got, hist = _smacof(6, ei, ej, d, y0)
        want, want_hist = oracles.smacof_dense_cholesky(6, ei, ej, d, y0, 5, 1e-6)
        assert len(hist) == len(want_hist)
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)


class TestTrilaterate:
    def test_right_triangle_hand_case(self):
        landmarks = Configuration([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        out = trilaterate(landmarks, [np.sqrt(2.0), 1.0, 1.0])
        np.testing.assert_allclose(out, [1.0, 1.0], atol=1e-12)

    def test_simplex_centroid(self):
        landmarks = np.array([[0.0, 0.0], [1.0, 0.0], [0.5, np.sqrt(3) / 2]])
        centroid = landmarks.mean(axis=0)
        d = np.linalg.norm(landmarks - centroid, axis=1)
        out = trilaterate(Configuration(landmarks), d)
        np.testing.assert_allclose(out, centroid, atol=1e-12)

    def test_exact_random_cases(self, rng):
        for _ in range(20):
            landmarks = rng.uniform(size=(5, 2))
            x = rng.uniform(size=2)
            d = np.linalg.norm(landmarks - x, axis=1)
            out = trilaterate(Configuration(landmarks), d)
            np.testing.assert_allclose(out, x, atol=1e-9)

    def test_noisy_case_against_least_squares_oracle(self, rng):
        landmarks = rng.uniform(size=(6, 2))
        x = rng.uniform(size=2)
        d = np.linalg.norm(landmarks - x, axis=1) * (1 + rng.uniform(-0.01, 0.01, size=6))
        got = trilaterate(Configuration(landmarks), d)

        def resid(y):
            return np.linalg.norm(landmarks - y, axis=1) - d

        ls = least_squares(resid, x0=landmarks.mean(axis=0)).x
        oracle_err = np.linalg.norm(ls - x)
        assert np.linalg.norm(got - x) <= 10 * max(oracle_err, 1e-6)

    def test_equivariance(self, rng):
        landmarks = rng.uniform(size=(5, 2))
        x = rng.uniform(size=2)
        d = np.linalg.norm(landmarks - x, axis=1)
        move = RigidMap(rotation(0.9), np.array([2.0, -1.0]))
        base = trilaterate(Configuration(landmarks), d)
        moved = trilaterate(move.apply_configuration(Configuration(landmarks)), d)
        np.testing.assert_allclose(moved, move.apply(base[None, :])[0], atol=1e-9)

    def test_degenerate_landmarks_rejected(self):
        collinear = Configuration([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]])
        with pytest.raises(DegenerateGeometryError):
            trilaterate(collinear, [1.0, 1.0, 1.0])

    def test_too_few_landmarks_rejected(self):
        two = Configuration([[0.0, 0.0], [1.0, 0.0]])
        with pytest.raises(ValueError):
            trilaterate(two, [1.0, 1.0])
