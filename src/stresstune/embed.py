"""Embedding routines: classical scaling, shortest-path MDS, stress
majorization, and least-squares trilateration against fixed landmarks.
"""

from __future__ import annotations

import numpy as np
from scipy.sparse import coo_matrix, csc_matrix
from scipy.sparse.linalg import splu

from .core import (
    PINV_RCOND,
    Configuration,
    DegenerateGeometryError,
    DenseSymmetricMatrix,
    StressTuneError,
    _check_dense_fits,
    _double_center_array,
    _top_eigenpairs_array,
    affine_rank,
)
from .graph import DissimilarityGraph, _check_embeddable, _dijkstra_csr

# Distances below this are treated as zero inside the majorization update.
_SMACOF_DIST_FLOOR = 1e-12

SMACOF_MAX_ITER = 300
SMACOF_TOL = 1e-6


def _classical_scaling_array(D: np.ndarray, p: int) -> np.ndarray:
    try:
        with np.errstate(over="raise", invalid="raise"):
            # One work array, the same products as -0.5 * D * D; D itself is never written.
            W = np.multiply(D, -0.5)
            W *= D
            B = _double_center_array(W)
    except FloatingPointError as exc:
        raise StressTuneError(
            f"the squared dissimilarities overflow float64 (largest dissimilarity {D.max():g}); "
            "rescale the graph"
        ) from exc
    vals, vecs = _top_eigenpairs_array(B, p)
    # Canonical signs: each eigenvector's largest-magnitude entry (the first
    # on ties) is positive, whichever solver ran.
    peak = vecs[np.argmax(np.abs(vecs), axis=0), np.arange(p)]
    Y = vecs * np.where(peak < 0, -1.0, 1.0) * np.sqrt(np.clip(vals, 0.0, None))
    return Y - Y.mean(axis=0)


def classical_scaling(D: DenseSymmetricMatrix, p: int) -> Configuration:
    """Classical (Torgerson) scaling of a complete dissimilarity matrix.

    Squares the entries, double-centers, takes the top ``p`` eigenpairs and
    scales eigenvectors by the square roots of the eigenvalues, clamping
    negative eigenvalues to zero. Each eigenvector's sign is fixed so that its
    largest-magnitude entry (the first on ties) is positive. The output is
    centered at the origin.
    """
    V = D.values
    if np.isinf(V).any():
        raise StressTuneError("dissimilarity matrix is incomplete (infinite entries)")
    if (V < 0).any():
        raise ValueError("dissimilarities must be nonnegative")
    diag = np.abs(np.diag(V))
    if diag.max(initial=0.0) > 1e-12 * (1.0 + V.max(initial=0.0)):
        raise ValueError("dissimilarity matrix must have a zero diagonal")
    if not 1 <= p <= D.order:
        raise ValueError(f"p must be in [1, {D.order}]")
    _check_dense_fits("classical_scaling", D.order, 1)
    return Configuration(_classical_scaling_array(V, p))


def strain(config: Configuration, B: DenseSymmetricMatrix) -> float:
    """Sum over unordered pairs of ``(<y_i, y_j> - b_ij)^2``.

    ``B`` is the double-centered Gram target; classical scaling minimizes
    this objective over rank-``p`` Gram factorizations.
    """
    if config.n != B.order:
        raise ValueError("configuration and matrix sizes disagree")
    # The Gram matrix and the squared residuals: traced at 2.00 x 8n^2 bytes beyond the inputs.
    _check_dense_fits("strain", config.n, 2)
    G = config.points @ config.points.T
    M = (G - B.values) ** 2
    return float((M.sum() - np.trace(M)) / 2.0)


def mds_d(g: DissimilarityGraph, p: int) -> Configuration:
    """Classical scaling after shortest-path completion of the missing pairs."""
    _check_embeddable(g, p)
    # The completion and classical scaling's work array.
    _check_dense_fits("mds_d", g.n, 2)
    # The completion of a connected graph is finite, nonnegative, exactly
    # symmetric and zero on the diagonal, so classical_scaling's checks are moot.
    return Configuration(_classical_scaling_array(_dijkstra_csr(g._adj_csr()), p))


def _grounded_laplacian(n: int, ei: np.ndarray, ej: np.ndarray) -> csc_matrix:
    """Unit-weight graph Laplacian with node 0's row and column removed.

    Nonsingular exactly when the graph is connected.
    """
    deg = np.bincount(ei, minlength=n) + np.bincount(ej, minlength=n)
    off = (ei > 0) & (ej > 0)
    a, b = ei[off] - 1, ej[off] - 1
    diag = np.arange(n - 1)
    rows = np.concatenate([a, b, diag])
    cols = np.concatenate([b, a, diag])
    vals = np.concatenate([np.full(2 * a.size, -1.0), deg[1:].astype(np.float64)])
    return coo_matrix((vals, (rows, cols)), shape=(n - 1, n - 1)).tocsc()


def _smacof(
    n: int, ei: np.ndarray, ej: np.ndarray, d: np.ndarray, Y0: np.ndarray
) -> tuple[np.ndarray, list[float]]:
    """Guttman majorization of ``sum_E (||y_i - y_j|| - d_ij)^2`` (unit weights).

    Returns the final iterate and the stress value at every accepted iterate;
    the sequence is nonincreasing (a step that fails to decrease is dropped).
    It stops when the relative stress decrease falls below ``SMACOF_TOL`` or
    after ``SMACOF_MAX_ITER`` steps.
    The graph must be connected. Each step solves with a sparse LU of the
    Laplacian grounded at node 0 (Gansner, Koren & North, GD 2004), so memory
    is O(n + edges + fill-in) rather than O(n^2); iterates after the first
    are centred.
    """

    def edge_diffs(Y):
        # np.take gathers the same rows as Y[ei] at a fraction of the cost.
        diff = np.take(Y, ei, axis=0) - np.take(Y, ej, axis=0)
        return diff, np.sqrt(np.einsum("ij,ij->i", diff, diff))

    Y = np.array(Y0, dtype=np.float64)
    diff, dist = edge_diffs(Y)
    stress = float(((dist - d) ** 2).sum())
    history = [stress]
    if stress == 0.0 or ei.size == 0:
        return Y, history

    # B(Y)Y sums to zero over nodes and the graph is connected, so L X = B(Y)Y
    # is solvable; grounding fixes x_0 = 0 and re-centring then yields the
    # minimum-norm solution L^+ B(Y)Y. The grounded Laplacian is symmetric
    # positive definite, so elimination needs no pivoting.
    lu = splu(
        _grounded_laplacian(n, ei, ej),
        permc_spec="MMD_AT_PLUS_A",
        diag_pivot_thresh=0.0,
        options={"SymmetricMode": True},
    )
    p = Y.shape[1]
    BY = np.empty((n, p))
    ratio = np.empty_like(dist)
    for _ in range(SMACOF_MAX_ITER):
        ratio.fill(0.0)
        np.divide(d, dist, out=ratio, where=dist >= _SMACOF_DIST_FLOOR)
        for dim in range(p):
            contrib = ratio * diff[:, dim]
            BY[:, dim] = np.bincount(ei, weights=contrib, minlength=n) - np.bincount(
                ej, weights=contrib, minlength=n
            )
        Y_new = np.empty((n, p))
        Y_new[0] = 0.0
        Y_new[1:] = lu.solve(BY[1:])
        Y_new -= Y_new.sum(axis=0) / n
        diff_new, dist_new = edge_diffs(Y_new)
        stress_new = float(((dist_new - d) ** 2).sum())
        if stress_new > stress:
            break
        Y, diff, dist = Y_new, diff_new, dist_new
        decrease = stress - stress_new
        stress = stress_new
        history.append(stress)
        if stress == 0.0 or decrease < SMACOF_TOL * (stress + decrease):
            break
    return Y, history


def smacof_refine(g: DissimilarityGraph, start: Configuration, return_history: bool = False):
    """Refine a configuration by majorizing the edge-restricted stress.

    Only observed edges enter the objective (unit weights). Stops when the
    relative stress decrease falls below ``SMACOF_TOL`` or after
    ``SMACOF_MAX_ITER`` steps. With ``return_history`` the per-iterate stress
    values are returned too.
    """
    if start.n != g.n:
        raise ValueError("start configuration must cover every node")
    _check_embeddable(g, start.p)
    Y, history = _smacof(g.n, g.ei, g.ej, g.weights, start.points)
    result = Configuration(Y)
    if return_history:
        return result, history
    return result


def _trilaterate(Y: np.ndarray, d: np.ndarray) -> np.ndarray:
    """Least-squares position from distances ``d`` to the ``(m, p)`` landmark rows ``Y``."""
    m, p = Y.shape
    if affine_rank(Y) < p:
        raise DegenerateGeometryError("landmarks are affinely degenerate")
    c = Y.mean(axis=0)
    Yc = Y - c
    sq = np.einsum("ij,ij->i", Yc, Yc)
    a = (sq.sum() + m * sq) / m - 2.0 * (Yc @ Yc.sum(axis=0)) / m
    # a_j = mean_i ||y_i - y_j||^2, expanded to avoid an m x m intermediate
    return 0.5 * (np.linalg.pinv(Yc, rcond=PINV_RCOND) @ (a - d * d)) + c


def trilaterate(landmarks: Configuration, dissimilarities) -> np.ndarray:
    """Place one point from squared distances to ``m >= p+1`` fixed landmarks.

    Landmarks are centered internally (the closed-form solve presumes a zero
    centroid) and the centroid is added back. Exact when the inputs are
    realizable; least-squares otherwise.
    """
    d = np.asarray(dissimilarities, dtype=np.float64).reshape(-1)
    m, p = landmarks.points.shape
    if d.shape[0] != m:
        raise ValueError("need one dissimilarity per landmark")
    if m < p + 1:
        raise ValueError(f"need at least p+1={p + 1} landmarks, got {m}")
    if not np.isfinite(d).all() or (d < 0).any():
        raise ValueError("dissimilarities must be finite and nonnegative")
    return _trilaterate(landmarks.points, d)
