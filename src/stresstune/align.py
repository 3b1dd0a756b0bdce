"""Rigid alignment of point configurations and alignment-based error metrics."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import Configuration, DegenerateGeometryError, RigidMap, _overflow_checked, _row_blocks, _Value


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
    Q = t = None

    def fit():  # the cross-covariance sums products of coordinates, as squared distances do
        nonlocal Q, t
        Q, t = _procrustes(source.points, target.points)
        return np.abs(t).max()

    _overflow_checked(fit, source, target)
    return RigidMap(Q=Q, t=t)


def aligned_error(estimate: Configuration, truth: Configuration) -> float:
    """Minimum over rigid-plus-reflection maps of the summed squared discrepancy.

    ``min_T sum_i ||y_i - T x_i||^2`` with ``y`` the estimate and ``x`` the
    ground truth; reflections are allowed, so the metric is blind to the
    mirror ambiguity of distance-only reconstruction.
    """

    def total():
        fit = procrustes(truth, estimate)
        resid = fit.apply(truth.points) - estimate.points
        return np.einsum("ij,ij->", resid, resid)

    return _overflow_checked(total, estimate, truth)


def diameter(config: Configuration) -> float:
    """Largest pairwise Euclidean distance, computed exactly (O(n^2))."""
    X = config.points

    def largest_square():
        best = 0.0
        for rows in _row_blocks(X.shape[0]):
            d = X[rows, None, :] - X[None, :, :]
            best = max(best, float(np.einsum("ijk,ijk->ij", d, d).max(initial=0.0)))
        return best

    return float(np.sqrt(_overflow_checked(largest_square, config)))


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
    rmse = _overflow_checked(lambda: np.sqrt(err / truth.n) / diam, estimate, truth)
    return AlignmentReport(error=err, normalized_rmse=rmse)


def _rms_spread(X: np.ndarray) -> tuple[float, int]:
    """``(s, e)``, where ``s * 2**e`` is the RMS spread of the rows of ``X`` about their centroid.

    ``X`` is first divided by the power of two of its largest magnitude, an
    exact scaling, so that no square overflows or underflows to zero; at a
    scale where none would, ``np.ldexp(s, e)`` has the bits of the spread of ``X``.
    """
    e = int(np.frexp(np.abs(X).max())[1])
    Y = np.ldexp(X, -e)
    Y -= Y.mean(axis=0)
    return np.sqrt((Y**2).sum() / X.shape[0]), e


def scale_ratio(estimate: Configuration, truth: Configuration) -> float:
    """RMS spread of the estimate about its centroid over that of the truth.

    Values below 1 diagnose global shrinkage of the reconstruction. Each
    spread is taken at its own power-of-two scale (:func:`_rms_spread`), so
    any ratio within float64's range is returned; one beyond it raises
    ``StressTuneError``.
    """
    if estimate.n != truth.n:
        raise ValueError("configurations must have the same number of points")
    denom, e_truth = _rms_spread(truth.points)
    if denom == 0.0:
        raise DegenerateGeometryError("truth configuration is a single repeated point")
    spread, e = _rms_spread(estimate.points)
    return _overflow_checked(lambda: np.ldexp(spread / denom, e - e_truth), estimate, truth)
