"""Patch-based embedding (MDS-MAP(P)): embed hop neighborhoods locally, then
stitch them into one global configuration by rigid alignment on their overlaps.

Stitching runs in three phases: a merge plan computed from hop-ball
memberships alone, the only record of which nodes are placed
(:func:`_merge_plan`), run to completion first; one embedding per patch that
adds nodes, a function of the graph and the members only
(:func:`_embed_members`); and Procrustes placement into coordinates updated
in place (:func:`merge`). The largest
ball seeds the map; nodes keep the coordinates of their first placement. All
ties break toward the lowest center index, which makes runs on identical
inputs bit-identical.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.sparse import csr_matrix

from .align import _procrustes
from .core import (
    Configuration,
    StressTuneError,
    _Value,
    affine_rank,
)
from .embed import _classical_scaling_array, _smacof, smacof_refine
from .graph import (
    DissimilarityGraph,
    _check_embeddable,
    _row_positions,
    _shared_rows,
    hop_balls,
    induced_subgraph_csr,
    shortest_paths_csr,
)


class PatchError(StressTuneError):
    """A hop ball is too small to embed: fewer than ``p + 1`` nodes."""


class MergeError(StressTuneError):
    """A patch could not be merged into the global map."""


@dataclass(frozen=True)
class GlobalMap(_Value):
    """A stitched placement: the coordinates of every node and the merge log.

    ``merge_log`` holds ``(patch_center, overlap_size)`` pairs in merge order;
    the seed patch is logged with overlap 0.
    """

    coords: np.ndarray
    merge_log: tuple[tuple[int, int], ...] = field(default_factory=tuple)

    def __post_init__(self):
        object.__setattr__(self, "coords", Configuration(self.coords).points)
        object.__setattr__(self, "merge_log", tuple(self.merge_log))


def _embed_members(
    g: DissimilarityGraph, members: np.ndarray, p: int, refine: bool = True, rows: tuple | None = None
) -> np.ndarray:
    """Local embedding of the patch ``members`` (ascending), one row per member.

    The patch's missing dissimilarities are completed with shortest paths
    inside the induced subgraph (from the whole graph's ``rows`` of
    :func:`~stresstune.graph._shared_rows` when given, with the same bits),
    classical scaling embeds the completed matrix, and (optionally) stress
    majorization against the observed edges refines the result. A hop ball
    holds a shortest hop path from its center to each member, so its induced
    subgraph is connected and the completion finite; :func:`mds_map_p`
    refuses balls of fewer than ``p + 1`` nodes.
    """
    sub, (ei, ej, w) = induced_subgraph_csr(g, members)
    Y = _classical_scaling_array(shortest_paths_csr(sub, rows, members), p)
    if refine:
        Y, _ = _smacof(members.size, ei, ej, w, Y)
    return Y


def _check_overlap(coords: np.ndarray, overlap: np.ndarray, center: int) -> None:
    """Raise unless a patch's placed ``overlap`` pins down a ``p``-dimensional fit."""
    # Fewer than p + 1 points have affine rank below p, so this also refuses
    # an overlap too small to fit.
    if affine_rank(coords[overlap]) < coords.shape[1]:
        raise MergeError(
            f"placed overlap of patch at node {center} ({overlap.size} nodes) is affinely "
            f"degenerate (try a larger neighborhood h)"
        )


def merge(
    coords: np.ndarray, members: np.ndarray, new: np.ndarray, local: np.ndarray, center: int
) -> None:
    """Place a patch's new nodes, in place, by Procrustes on its placed overlap.

    ``local`` holds the patch coordinates and ``new`` marks the members not yet
    placed, one entry per entry of ``members``. Already-placed nodes keep their
    coordinates; new nodes adopt the patch coordinates mapped through the
    fitted rigid-plus-reflection transform.
    """
    overlap = members[~new]
    _check_overlap(coords, overlap, center)
    Q, t = _procrustes(local[~new], coords[overlap])
    coords[members[new]] = local[new] @ Q.T + t


def _merge_plan(balls: csr_matrix, p: int):
    """Greedy merge order of the patches, from hop-ball memberships alone.

    Yields ``(center, members, new, overlap)``: the center's ball, the mask
    of its members not yet placed, and the count of those placed. First the
    seed, the largest ball, with overlap 0; then, until every node is placed,
    the unmerged center whose ball holds the most placed nodes (ties toward
    the lowest index), each merge placing its whole ball. Lazily: a planning
    error is raised after the patches planned before it have been yielded.
    """
    n = balls.shape[0]
    placed = np.zeros(n, dtype=bool)
    # counts[u] = placed members of u's ball, or below zero once u has merged
    # (it is reset to -n - 1 and can rise by at most n). Balls are symmetric,
    # so placing w raises the count of exactly the nodes in w's ball.
    counts = np.zeros(n, dtype=np.int64)
    v = int(np.argmax(np.diff(balls.indptr)))
    overlap = 0
    while True:
        members = balls.indices[balls.indptr[v] : balls.indptr[v + 1]]
        new = ~placed[members]
        yield v, members, new, overlap
        newly = members[new]
        placed[newly] = True
        if newly.size:
            counts += np.bincount(balls.indices[_row_positions(balls.indptr, newly)[0]], minlength=n)
        counts[v] = -n - 1
        if placed.all():
            return
        v = int(np.argmax(counts))
        overlap = int(counts[v])
        if overlap < p + 1:
            missing = np.flatnonzero(~placed)
            listed = ", ".join(str(u) for u in missing[:8])
            raise MergeError(
                f"{missing.size} node(s) never reachable by a mergeable patch "
                f"(e.g. {listed}); increase h"
            )


def mds_map_p(
    g: DissimilarityGraph,
    h: int,
    p: int,
    refine_patches: bool = True,
    final_refine: bool = True,
    return_global_map: bool = False,
):
    """Embed a connected graph by stitching per-node ``h``-hop patches (MDS-MAP(P)).

    Three phases. A merge plan, from the hop balls alone: the largest ball
    seeds the map, and the remaining patches follow in decreasing order of
    overlap with the placed set (ties toward the lowest center index). Each
    patch that adds nodes is embedded on its own (shortest-path completion,
    classical scaling, optionally ``refine_patches`` stress majorization), and
    its new nodes are placed by Procrustes on the overlap into coordinates
    updated in place; nodes keep the coordinates of their first placement. A
    patch that adds no nodes is only checked for a valid overlap. ``final_refine``
    runs stress majorization on the stitched configuration against all
    observed edges. With ``return_global_map`` the stitched :class:`GlobalMap`,
    whose ``merge_log`` lists ``(center, overlap)`` in merge order, is
    returned too.

    Memberships are kept as sparse hop balls (:func:`~stresstune.graph.hop_balls`)
    and both refinements factor a sparse grounded Laplacian, so memory is
    O(sum of ball sizes + edges) rather than O(n^2), plus two dense m x m
    arrays for the one patch being embedded (its completion and the
    double-centred work array of classical scaling), plus the whole graph's
    shortest-path rows when :func:`~stresstune.graph._shared_rows` takes
    them. The balls and the rows are released before the final refinement.
    """
    _check_embeddable(g, p, (h,))
    n = g.n
    balls = hop_balls(g, h)
    too_small = np.flatnonzero(np.diff(balls.indptr) < p + 1)
    if too_small.size:
        listed = ", ".join(str(v) for v in too_small[:8])
        raise PatchError(
            f"{too_small.size} patch(es) have fewer than p+1={p + 1} nodes "
            f"(centers {listed}{', ...' if too_small.size > 8 else ''})"
        )

    # The whole plan first, so that the stitch knows its patches before it
    # embeds any; a planning error waits for the patches planned before it.
    plan, plan_error = [], None
    try:
        plan.extend(_merge_plan(balls, p))
    except MergeError as exc:
        plan_error = exc
    rows = _shared_rows(g, [members for _, members, new, _ in plan if new.any()])

    coords = np.full((n, p), np.nan)
    log = []
    for v, members, new, overlap in plan:
        if not new.any():
            # First placement wins, so the transform is moot: only the overlap,
            # here the whole ball, is checked.
            _check_overlap(coords, members, v)
        else:
            local = _embed_members(g, members, p, refine_patches, rows)
            if log:
                merge(coords, members, new, local, v)
            else:  # the seed sets the frame of the global map
                coords[members] = local
        log.append((v, overlap))
    if plan_error is not None:
        raise plan_error
    # The balls are O(sum of ball sizes) and the rows 12 n^2 bytes; the final
    # refinement needs only the graph. The plan's members are views into the balls.
    del balls, plan, members, rows

    result = Configuration(coords)
    if final_refine:
        result = smacof_refine(g, result)
    if return_global_map:
        return result, GlobalMap(coords=coords, merge_log=log)
    return result
