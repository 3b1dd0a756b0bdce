"""Rigid alignment of point configurations and alignment-based error metrics."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import Configuration, DegenerateGeometryError, RigidMap, _Value


def _procrustes(S: np.ndarray, T: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(Q, t)`` minimizing ``sum_i ||Q s_i + t - t_i||^2`` over orthogonal Q.

    SVD of the centered cross-covariance; Q may reflect. Rows of the
    ``(k, p)`` arrays ``S`` and ``T`` correspond.
    """
    cs = S.mean(axis=0)
    ct = T.mean(axis=0)
    H = (T - ct).T @ (S - cs)
    U, _, Vt = np.linalg.svd(H)
    Q = U @ Vt
    return Q, ct - Q @ cs


def procrustes(source: Configuration, target: Configuration) -> RigidMap:
    """Best rigid map (orthogonal + translation) taking ``source`` onto ``target``.

    Solves ``min_Q,t sum_i ||Q s_i + t - t_i||^2`` via SVD of the centered
    cross-covariance. Reflections are allowed, since distances cannot tell
    a configuration from its mirror image.
    """
    if source.n != target.n or source.p != target.p:
        raise ValueError("source and target must have matching shapes")
    Q, t = _procrustes(source.points, target.points)
    return RigidMap(Q=Q, t=t)


def aligned_error(estimate: Configuration, truth: Configuration) -> float:
    """Minimum over rigid-plus-reflection maps of the summed squared discrepancy.

    ``min_T sum_i ||y_i - T x_i||^2`` with ``y`` the estimate and ``x`` the
    ground truth; reflections are allowed, so the metric is blind to the
    mirror ambiguity of distance-only reconstruction.
    """
    fit = procrustes(truth, estimate)
    resid = fit.apply(truth.points) - estimate.points
    return float(np.einsum("ij,ij->", resid, resid))


def diameter(config: Configuration) -> float:
    """Largest pairwise Euclidean distance, computed exactly (O(n^2))."""
    X = config.points
    n, p = X.shape
    best = 0.0
    block = max(1, int(4_000_000 // max(1, n * p)))
    for s in range(0, n, block):
        d = X[s : s + block, None, :] - X[None, :, :]
        sq = np.einsum("ijk,ijk->ij", d, d)
        best = max(best, float(sq.max(initial=0.0)))
    return float(np.sqrt(best))


@dataclass(frozen=True)
class AlignmentReport(_Value):
    """Aligned error together with its scale-free normalization."""

    error: float
    normalized_rmse: float


def alignment_report(estimate: Configuration, truth: Configuration) -> AlignmentReport:
    """Aligned error plus ``sqrt(error / n) / diameter(truth)``."""
    err = aligned_error(estimate, truth)
    diam = diameter(truth)
    if diam == 0.0:
        raise DegenerateGeometryError("truth configuration has zero diameter")
    return AlignmentReport(error=err, normalized_rmse=float(np.sqrt(err / truth.n) / diam))


def scale_ratio(estimate: Configuration, truth: Configuration) -> float:
    """RMS spread of the estimate about its centroid over that of the truth.

    Values below 1 diagnose global shrinkage of the reconstruction.
    """
    if estimate.n != truth.n:
        raise ValueError("configurations must have the same number of points")
    Y = estimate.points - estimate.points.mean(axis=0)
    X = truth.points - truth.points.mean(axis=0)
    denom = np.sqrt((X**2).sum() / truth.n)
    if denom == 0.0:
        raise DegenerateGeometryError("truth configuration is a single repeated point")
    return float(np.sqrt((Y**2).sum() / estimate.n) / denom)
