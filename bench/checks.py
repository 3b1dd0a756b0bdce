"""Correctness checks and reference figures computed apart from the program.

Everything here uses numpy and scipy only, never stresstune. Checks raise
:class:`CheckError` on the first violation. ``selftest.py`` feeds each check
corrupted outputs to show that it rejects them.
"""

from __future__ import annotations

import numpy as np
from scipy.sparse import coo_matrix, identity
from scipy.sparse.csgraph import laplacian, minimum_spanning_tree
from scipy.sparse.linalg import splu
from scipy.spatial import ConvexHull
from scipy.spatial.distance import cdist

STRESS_RTOL = 1e-9
RADIUS_RTOL = 1e-12
NRMSE_RTOL = 1e-6


class CheckError(Exception):
    """An output of the program failed an independent check."""


def raw_stress(Y: np.ndarray, ei: np.ndarray, ej: np.ndarray, d: np.ndarray) -> float:
    """``sum over edges of (||y_i - y_j||^2 - d_ij^2)^2``."""
    diff = Y[ei] - Y[ej]
    sq = (diff * diff).sum(axis=1)
    return float(((sq - d * d) ** 2).sum())


def smacof_objective(Y: np.ndarray, ei: np.ndarray, ej: np.ndarray, d: np.ndarray) -> float:
    """``sum over edges of (||y_i - y_j|| - d_ij)^2``, the objective SMACOF lowers."""
    diff = Y[ei] - Y[ej]
    return float(((np.sqrt((diff * diff).sum(axis=1)) - d) ** 2).sum())


def nrmse(Y: np.ndarray, X: np.ndarray) -> float:
    """RMS residual after the best rigid map (reflections allowed), over the diameter of ``X``.

    The residual of the orthogonal Procrustes problem is
    ``||Yc||^2 + ||Xc||^2 - 2 * (sum of singular values of Yc^T Xc)``; the
    diameter is the largest distance between vertices of the convex hull.
    """
    Xc = X - X.mean(axis=0)
    Yc = Y - Y.mean(axis=0)
    nuclear = np.linalg.svd(Yc.T @ Xc, compute_uv=False).sum()
    err = max(float((Yc * Yc).sum() + (Xc * Xc).sum() - 2.0 * nuclear), 0.0)
    hull = X[ConvexHull(X).vertices]
    diam = float(cdist(hull, hull).max())
    return float(np.sqrt(err / X.shape[0]) / diam)


def smacof(Y0: np.ndarray, ei, ej, d, max_iter: int = 300, tol: float = 1e-6) -> np.ndarray:
    """Guttman majorization of :func:`smacof_objective` from ``Y0``.

    Each step solves with a sparse LU of the unit-weight graph Laplacian
    grounded at node 0 (Gansner, Koren & North, GD 2004). Stops when a step
    fails to decrease the objective or decreases it by less than ``tol``
    relative.
    """
    n = Y0.shape[0]
    A = coo_matrix((np.ones(ei.size), (ei, ej)), shape=(n, n))
    lu = splu(laplacian((A + A.T).tocsr()).tocsc()[1:, 1:])
    Y = Y0 - Y0[0]
    stress = smacof_objective(Y, ei, ej, d)
    for _ in range(max_iter):
        diff = Y[ei] - Y[ej]
        dist = np.sqrt((diff * diff).sum(axis=1))
        ratio = np.where(dist > 1e-12, d / np.maximum(dist, 1e-12), 0.0)[:, None] * diff
        BY = np.zeros_like(Y)
        np.add.at(BY, ei, ratio)
        np.add.at(BY, ej, -ratio)
        Y_new = np.zeros_like(Y)
        Y_new[1:] = lu.solve(BY[1:])
        stress_new = smacof_objective(Y_new, ei, ej, d)
        if stress_new > stress:
            break
        Y, decrease, stress = Y_new, stress - stress_new, stress_new
        if decrease < tol * (stress + decrease):
            break
    return Y


def check_embedding(Y, n: int, p: int, label: str) -> np.ndarray:
    Y = np.asarray(Y)
    if Y.shape != (n, p):
        raise CheckError(f"{label}: embedding has shape {Y.shape}, expected {(n, p)}")
    if not np.isfinite(Y).all():
        raise CheckError(f"{label}: embedding has non-finite coordinates")
    return Y


def check_sweep(ei, ej, d, n: int, p: int, rows, embeddings: dict, selected_h: int) -> None:
    """Check a hop sweep against stress recomputed from the graph's edges.

    ``rows`` holds ``(h, stress, failed)`` triples in the report's order and
    ``embeddings`` maps each successful ``h`` to its ``(n, p)`` coordinates.
    """
    recomputed = {}
    for h, stress, failed in rows:
        if failed:
            if h in embeddings:
                raise CheckError(f"h={h}: failed row returned an embedding")
            continue
        if h not in embeddings:
            raise CheckError(f"h={h}: successful row returned no embedding")
        Y = check_embedding(embeddings[h], n, p, f"h={h}")
        s = raw_stress(Y, ei, ej, d)
        if abs(s - stress) > STRESS_RTOL * max(abs(s), abs(stress)):
            raise CheckError(f"h={h}: reported stress {stress!r} but the embedding has {s!r}")
        recomputed[h] = s
    if not recomputed:
        raise CheckError("no successful hop value")
    best = min(recomputed, key=lambda h: (recomputed[h], h))
    if selected_h != best:
        raise CheckError(f"selected h={selected_h} but the least recomputed stress is at h={best}")


def check_nrmse(ours: float, reported: float, bound: float) -> None:
    """The independently computed error lies under a sanity bound and matches the program's."""
    if not ours < bound:
        raise CheckError(f"normalized RMSE {ours:.4g} is not under the sanity bound {bound}")
    if abs(ours - reported) > NRMSE_RTOL * ours:
        raise CheckError(f"program reports normalized RMSE {reported!r}, recomputed {ours!r}")


def hop_balls(ei, ej, n: int, h: int):
    """Boolean CSR matrix whose row ``v`` marks the nodes within ``h`` hops of ``v``."""
    ones = np.ones(ei.size, dtype=np.int32)
    A = coo_matrix((ones, (ei, ej)), shape=(n, n))
    A = ((A + A.T) > 0).astype(np.int32).tocsr()
    B = identity(n, dtype=np.int32, format="csr")
    for _ in range(h):
        B = ((B + B @ A) > 0).astype(np.int32)
    return B.astype(bool).tocsr()


def replay_merge_log(log, balls, n: int, p: int) -> tuple[int, int]:
    """Check a stitch's merge log by replaying it over independent hop balls.

    The seed entry has overlap 0, no centre repeats, every other entry's
    logged overlap is at least ``p + 1`` and equals the number of its ball's
    nodes placed before it, and the replay places every node. Returns
    ``(merges, skipped)``: the entries that place new nodes and those that
    add none.
    """
    if not log:
        raise CheckError("empty merge log")
    centres = [int(c) for c, _ in log]
    if len(set(centres)) != len(centres):
        raise CheckError("a patch centre repeats in the merge log")
    if min(centres) < 0 or max(centres) >= n:
        raise CheckError("a merge-log centre is not a node")
    if int(log[0][1]) != 0:
        raise CheckError(f"seed entry has overlap {log[0][1]}, expected 0")
    placed = np.zeros(n, dtype=bool)
    placed[balls.indices[balls.indptr[centres[0]] : balls.indptr[centres[0] + 1]]] = True
    merges = skipped = 0
    for c, overlap in log[1:]:
        overlap = int(overlap)
        if overlap < p + 1:
            raise CheckError(f"patch {c} merged on overlap {overlap} < p+1={p + 1}")
        members = balls.indices[balls.indptr[c] : balls.indptr[c + 1]]
        seen = int(placed[members].sum())
        if seen != overlap:
            raise CheckError(f"patch {c} logs overlap {overlap}, but {seen} of its nodes were placed")
        if seen < members.size:
            merges += 1
            placed[members] = True
        else:
            skipped += 1
    if not placed.all():
        raise CheckError(f"merge log leaves {int((~placed).sum())} node(s) unplaced")
    return merges, skipped


def check_refinement(refined, stitched, ei, ej, d) -> None:
    """The refined result's SMACOF objective is no higher than the stitched map's."""
    after = smacof_objective(refined, ei, ej, d)
    before = smacof_objective(stitched, ei, ej, d)
    if not after <= before:
        raise CheckError(f"refinement raised the SMACOF objective from {before!r} to {after!r}")


def check_trace_counts(counts: dict, merges: int, skipped: int, log_len: int) -> None:
    """Traced call counts of a stitch with patch refinement agree with the replay of its merge log."""
    embedded = counts["graph.shortest_paths_csr.calls"]
    if embedded != merges + 1:
        raise CheckError(f"{embedded} patches embedded, the merge log implies {merges + 1}")
    if counts["embed.smacof.calls"] != embedded:
        raise CheckError(f"{counts['embed.smacof.calls']} patch refinements for {embedded} patches")
    if counts["stitch.merge.calls"] != merges or counts["stitch.patches_skipped"] != skipped:
        raise CheckError(
            f"traced {counts['stitch.merge.calls']} merges and {counts['stitch.patches_skipped']} "
            f"skipped patches, the merge log implies {merges} and {skipped}"
        )
    if log_len != merges + skipped + 1:
        raise CheckError(f"merge log has {log_len} entries, expected {merges + skipped + 1}")


def check_radius(points: np.ndarray, radius: float, multiple: float) -> None:
    """``radius`` equals ``multiple`` times the longest Euclidean MST edge."""
    tree = minimum_spanning_tree(cdist(points, points))
    expected = multiple * float(tree.data.max())
    if abs(radius - expected) > RADIUS_RTOL * expected:
        raise CheckError(f"radius {radius!r} is not {multiple} x the longest MST edge ({expected!r})")
