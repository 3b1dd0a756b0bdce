import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst
from hypothesis.extra import numpy as hnp

import oracles
from conftest import block_budget, rotation
from stresstune import (
    Configuration,
    DegenerateGeometryError,
    RigidMap,
    StressTuneError,
    aligned_error,
    alignment_report,
    diameter,
    procrustes,
    scale_ratio,
)


def residual(fit, source, target):
    return float(((fit.apply(source.points) - target.points) ** 2).sum())


class TestProcrustes:
    def test_identity(self, rng):
        cfg = Configuration(rng.standard_normal((6, 2)))
        fit = procrustes(cfg, cfg)
        np.testing.assert_allclose(fit.Q, np.eye(2), atol=1e-12)
        np.testing.assert_allclose(fit.t, 0.0, atol=1e-12)
        assert residual(fit, cfg, cfg) < 1e-20

    def test_recovers_rotation_and_shift(self, rng):
        src = Configuration(rng.standard_normal((7, 2)))
        Q = rotation(np.pi / 2)
        t = np.array([3.0, -1.0])
        dst = Configuration(src.points @ Q.T + t)
        fit = procrustes(src, dst)
        np.testing.assert_allclose(fit.Q, Q, atol=1e-10)
        np.testing.assert_allclose(fit.t, t, atol=1e-10)
        assert residual(fit, src, dst) <= 1e-10

    def test_reflection_handling(self, rng):
        src = Configuration(rng.standard_normal((8, 2)))
        mirrored = Configuration(src.points * np.array([1.0, -1.0]))
        free = procrustes(src, mirrored)
        assert residual(free, src, mirrored) <= 1e-10
        assert np.linalg.det(free.Q) < 0

    def test_shape_mismatch(self, rng):
        a = Configuration(rng.standard_normal((5, 2)))
        b = Configuration(rng.standard_normal((6, 2)))
        with pytest.raises(ValueError):
            procrustes(a, b)

    def test_overflowing_cross_covariance_is_refused(self):
        # The cross-covariance of two copies at 1e160 is about 1e321. A
        # RuntimeWarning fails the test, so the refusal is all it may raise.
        X = np.random.default_rng(0).standard_normal((20, 2))
        with pytest.raises(StressTuneError, match=r"overflow float64 \(largest coordinate [0-9.]+e\+160\)"):
            procrustes(Configuration(X * 1e160), Configuration(X * 1e160))


class TestAlignedError:
    def test_congruent_copies(self, rng):
        cfg = Configuration(rng.uniform(size=(10, 2)))
        moved = RigidMap(rotation(0.7), np.array([0.3, -2.0])).apply_configuration(cfg)
        assert aligned_error(moved, cfg) <= 1e-18

    def test_single_displacement_approximates_delta_squared(self, rng):
        # With n >= 100 the optimal map barely moves, so the error is close to
        # the raw squared displacement of the one perturbed point.
        pts = rng.uniform(size=(150, 2))
        delta = 0.05
        moved = pts.copy()
        moved[0, 0] += delta
        err = aligned_error(Configuration(moved), Configuration(pts))
        assert err == pytest.approx(delta**2, rel=0.1)

    def test_shrunken_copy_positive(self, rng):
        cfg = Configuration(rng.uniform(size=(20, 2)))
        shrunk = Configuration(0.9 * cfg.points)
        assert aligned_error(shrunk, cfg) > 0
        assert scale_ratio(shrunk, cfg) == pytest.approx(0.9, rel=1e-12)

    def test_symmetry(self, rng):
        a = Configuration(rng.standard_normal((9, 2)))
        b = Configuration(rng.standard_normal((9, 2)))
        x, y = aligned_error(a, b), aligned_error(b, a)
        assert x == pytest.approx(y, rel=1e-9)

    def test_rigid_invariance(self, rng):
        a = Configuration(rng.standard_normal((9, 2)))
        b = Configuration(rng.standard_normal((9, 2)))
        base = aligned_error(a, b)
        move = RigidMap(rotation(1.1), np.array([5.0, 6.0]))
        assert aligned_error(move.apply_configuration(a), b) == pytest.approx(base, rel=1e-9)
        assert aligned_error(a, move.apply_configuration(b)) == pytest.approx(base, rel=1e-9)


class TestScaleRatio:
    def test_identity_is_one(self, rng):
        cfg = Configuration(rng.uniform(size=(8, 2)))
        assert scale_ratio(cfg, cfg) == pytest.approx(1.0)

    def test_half_scale(self, rng):
        cfg = Configuration(rng.uniform(size=(8, 2)))
        assert scale_ratio(Configuration(0.5 * cfg.points), cfg) == pytest.approx(0.5)

    def test_degenerate_truth_rejected(self):
        flat = Configuration(np.zeros((4, 2)))
        other = Configuration(np.ones((4, 2)))
        with pytest.raises(DegenerateGeometryError):
            scale_ratio(other, flat)

    @settings(max_examples=50, deadline=None)
    @given(seed=hst.integers(0, 2**32 - 1), n=hst.integers(2, 30), p=hst.integers(1, 3),
           exponents=hst.tuples(hst.integers(-90, 90), hst.integers(-90, 90)))
    def test_old_bits_where_no_square_leaves_the_normal_range(self, seed, n, p, exponents):
        def spread(X):
            X = X - X.mean(axis=0)
            return np.sqrt((X**2).sum() / n)

        r = np.random.default_rng(seed)
        estimate, truth = (r.standard_normal((n, p)) * 10.0**e for e in exponents)
        assert scale_ratio(Configuration(estimate), Configuration(truth)) == spread(estimate) / spread(truth)

    @pytest.mark.parametrize("factor", [1e-200, 1e200, 1e-300])
    def test_ratio_within_float_range_at_any_scale(self, factor):
        # The squares of an estimate at 1e-200 underflow to zero and those at
        # 1e200 overflow; each spread is taken at its own power of two instead.
        X = np.random.default_rng(0).standard_normal((20, 2))
        assert scale_ratio(Configuration(X * factor), Configuration(X)) == pytest.approx(factor, rel=1e-12)

    def test_ratio_beyond_float_range_is_refused(self):
        X = np.random.default_rng(0).standard_normal((20, 2))
        with pytest.raises(StressTuneError, match="overflow float64"):
            scale_ratio(Configuration(X * 1e300), Configuration(X * 1e-300))


class TestDiameterAndReport:
    def test_diameter_hand_case(self):
        cfg = Configuration([[0.0, 0.0], [3.0, 4.0], [1.0, 1.0]])
        assert diameter(cfg) == pytest.approx(5.0)

    @settings(max_examples=60, deadline=None)
    @given(
        points=hst.integers(1, 3).flatmap(lambda p: hnp.arrays(
            np.float64, hst.tuples(hst.integers(1, 25), hst.just(p)),
            elements=hst.sampled_from([-1.5, 0.0, 0.25, 1.0, 3.0]) | hst.floats(-1e3, 1e3),
        )),
        rows=hst.integers(1, 8),
    )
    def test_diameter_matches_all_pairs_loop_in_any_blocks(self, points, rows):
        # Duplicate and collinear points included; blocks of 1-8 rows. Each
        # pair's squared distance is einsum's sum over the p coordinates, whose
        # order a Python sum need not share, so the loop sums the same way.
        n = points.shape[0]
        diffs = [points[i : i + 1, None] - points[None, j : j + 1] for i in range(n) for j in range(n)]
        want = math.sqrt(max(float(np.einsum("ijk,ijk->ij", d, d)[0, 0]) for d in diffs))
        with block_budget(n, rows):
            assert diameter(Configuration(points)) == want
        assert want == pytest.approx(math.sqrt(oracles.sq_dist_double_loop(points).max()), rel=1e-15)

    def test_normalized_rmse_definition(self, rng):
        est = Configuration(rng.uniform(size=(12, 2)))
        truth = Configuration(rng.uniform(size=(12, 2)))
        rep = alignment_report(est, truth)
        assert rep.error == pytest.approx(aligned_error(est, truth), rel=1e-12)
        want = np.sqrt(rep.error / truth.n) / diameter(truth)
        assert rep.normalized_rmse == pytest.approx(want, rel=1e-12)
