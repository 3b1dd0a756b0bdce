"""Patch-based embedding: embed hop neighborhoods locally, then stitch them
into one global configuration by rigid alignment on their overlaps.

The patch whose neighborhood is largest seeds the global map; remaining
patches are merged greedily by overlap with the already-placed node set.
Nodes keep the coordinates from their first placement. All ties break toward
the lowest center index, which makes runs on identical inputs bit-identical.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .align import procrustes
from .core import (
    PINV_RCOND,
    Configuration,
    DisconnectedGraphError,
    StressTuneError,
    affine_rank,
)
from .embed import (
    SMACOF_MAX_ITER,
    SMACOF_TOL,
    _classical_scaling_array,
    _smacof,
    smacof_refine,
)
from .graph import (
    DissimilarityGraph,
    HopNeighborhood,
    hop_balls,
    hop_neighborhood,
    induced_subgraph_csr,
    is_connected,
    shortest_paths_csr,
    subgraph_edges,
)


class PatchError(StressTuneError):
    """A patch could not be embedded (too small or internally disconnected)."""


class MergeError(StressTuneError):
    """A patch could not be merged into the global map."""


@dataclass(frozen=True)
class Patch:
    """A locally embedded hop neighborhood.

    ``local_embedding`` is indexed by ``neighborhood.members`` (ascending
    node order).
    """

    neighborhood: HopNeighborhood
    local_embedding: Configuration

    def __post_init__(self):
        if self.local_embedding.n != self.neighborhood.size:
            raise ValueError("patch fields must agree with the neighborhood size")

    @property
    def members(self) -> tuple[int, ...]:
        return self.neighborhood.members

    @property
    def center(self) -> int:
        return self.neighborhood.center


@dataclass(frozen=True)
class GlobalMap:
    """Partial global placement: coordinates for placed nodes plus a merge log.

    ``merge_log`` holds ``(patch_center, overlap_size)`` pairs in merge order;
    the seed patch is logged with overlap 0.
    """

    coords: np.ndarray
    placed: np.ndarray
    merge_log: tuple[tuple[int, int], ...] = field(default_factory=tuple)

    def __post_init__(self):
        coords = np.array(self.coords, dtype=np.float64, copy=True)
        placed = np.array(self.placed, dtype=bool, copy=True)
        if coords.ndim != 2 or placed.shape != (coords.shape[0],):
            raise ValueError("coords must be (n, p) with one placed flag per node")
        if not np.isfinite(coords[placed]).all():
            raise ValueError("placed coordinates must be finite")
        coords.setflags(write=False)
        placed.setflags(write=False)
        object.__setattr__(self, "coords", coords)
        object.__setattr__(self, "placed", placed)
        object.__setattr__(self, "merge_log", tuple(self.merge_log))

    def __reduce__(self):
        return (GlobalMap, (self.coords, self.placed, self.merge_log))

    @classmethod
    def empty(cls, n: int, p: int) -> "GlobalMap":
        return cls(coords=np.full((n, p), np.nan), placed=np.zeros(n, dtype=bool))

    @property
    def n(self) -> int:
        return self.coords.shape[0]

    @property
    def p(self) -> int:
        return self.coords.shape[1]

    def placed_count(self) -> int:
        return int(self.placed.sum())

    def as_configuration(self) -> Configuration:
        if not self.placed.all():
            raise StressTuneError("global map is incomplete")
        return Configuration(self.coords)


def _embed_members(
    g: DissimilarityGraph,
    members: np.ndarray,
    center: int,
    p: int,
    refine: bool,
    max_iter: int,
    tol: float,
) -> np.ndarray:
    """Local embedding of one membership set, from its shortest-path-completed submatrix."""
    m = members.size
    if m < p + 1:
        raise PatchError(f"patch at node {center} has {m} nodes; need at least {p + 1}")
    sub = induced_subgraph_csr(g, members)
    local_D = shortest_paths_csr(sub)
    if np.isinf(local_D).any():
        raise PatchError(f"patch at node {center} is internally disconnected")
    Y = _classical_scaling_array(local_D, p)
    if refine:
        ei, ej, w = subgraph_edges(sub)
        Y, _ = _smacof(m, ei, ej, w, Y, max_iter, tol)
    return Y


def build_patch(
    g: DissimilarityGraph,
    v: int,
    h: int,
    p: int,
    refine: bool = True,
    max_iter: int = SMACOF_MAX_ITER,
    tol: float = SMACOF_TOL,
) -> Patch:
    """Embed the ``h``-hop neighborhood of ``v``.

    The neighborhood's missing dissimilarities are completed with shortest
    paths inside the induced subgraph, classical scaling embeds the completed
    matrix, and (optionally) stress majorization against the observed edges
    refines the result.
    """
    nbhd = hop_neighborhood(g, v, h)
    members = np.array(nbhd.members, dtype=np.int64)
    Y = _embed_members(g, members, v, p, refine, max_iter, tol)
    return Patch(neighborhood=nbhd, local_embedding=Configuration(Y))


def _check_overlap(gm: GlobalMap, members: np.ndarray, center: int, p: int) -> np.ndarray:
    overlap = members[gm.placed[members]]
    if overlap.size < p + 1:
        raise MergeError(
            f"patch at node {center} overlaps only {overlap.size} placed nodes; "
            f"need at least {p + 1} (try a larger neighborhood h)"
        )
    if affine_rank(gm.coords[overlap], rcond=PINV_RCOND) < p:
        raise MergeError(
            f"placed overlap of patch at node {center} is affinely degenerate "
            f"(try a larger neighborhood h)"
        )
    return overlap


def merge(gm: GlobalMap, patch: Patch) -> GlobalMap:
    """Merge a patch into the global map by Procrustes on the placed overlap.

    Already-placed nodes keep their coordinates; new nodes adopt the patch
    coordinates mapped through the fitted rigid-plus-reflection transform.
    """
    members = np.array(patch.members, dtype=np.int64)
    if members.max(initial=0) >= gm.n:
        raise ValueError("patch members exceed the global map size")
    if patch.local_embedding.p != gm.p:
        raise ValueError("patch and global dimensions disagree")
    overlap = _check_overlap(gm, members, patch.center, gm.p)
    new = members[~gm.placed[members]]
    log = gm.merge_log + ((patch.center, int(overlap.size)),)
    if new.size == 0:
        return GlobalMap(coords=gm.coords, placed=gm.placed, merge_log=log)
    local = patch.local_embedding.points
    pos = {node: k for k, node in enumerate(patch.members)}
    ov_rows = np.array([pos[node] for node in overlap], dtype=np.int64)
    new_rows = np.array([pos[node] for node in new], dtype=np.int64)
    fit = procrustes(
        Configuration(local[ov_rows]),
        Configuration(gm.coords[overlap]),
        allow_reflection=True,
    )
    coords = np.array(gm.coords, copy=True)
    placed = np.array(gm.placed, copy=True)
    coords[new] = fit.apply(local[new_rows])
    placed[new] = True
    return GlobalMap(coords=coords, placed=placed, merge_log=log)


def mds_map_p(
    g: DissimilarityGraph,
    h: int,
    p: int,
    refine_patches: bool = True,
    final_refine: bool = True,
    max_iter: int = SMACOF_MAX_ITER,
    tol: float = SMACOF_TOL,
    centers: "list[int] | None" = None,
    return_global_map: bool = False,
):
    """Embed a connected graph by stitching per-node ``h``-hop patches.

    One patch is defined per node (or per entry of ``centers`` when patch
    centers are subsampled). The largest neighborhood seeds the global map,
    and the remaining patches merge in decreasing order of overlap with the
    placed set (ties toward the lowest center index). Local embeddings are
    computed only when a patch is actually merged; the merge order depends
    on memberships alone, so the result is identical to embedding every
    patch up front. ``final_refine`` runs stress majorization on the
    stitched configuration against all observed edges.

    Memberships are kept as sparse hop balls (:func:`~stresstune.graph.hop_balls`)
    and both refinements factor a sparse grounded Laplacian, so memory is
    O(sum of ball sizes + edges) rather than O(n^2), plus the dense
    completion of the one patch being embedded (O(m^2) for m members).
    """
    if h < 1:
        raise ValueError("h must be >= 1")
    if p < 1:
        raise ValueError("p must be >= 1")
    if not is_connected(g):
        raise DisconnectedGraphError("patch stitching requires a connected graph")
    n = g.n
    if centers is None:
        eligible = np.ones(n, dtype=bool)
    else:
        idx = np.unique(np.asarray(list(centers), dtype=np.int64))
        if idx.size == 0:
            raise ValueError("centers must be nonempty")
        if idx[0] < 0 or idx[-1] >= n:
            raise ValueError("centers must be node indices in [0, n)")
        eligible = np.zeros(n, dtype=bool)
        eligible[idx] = True
    balls = hop_balls(g, h)
    sizes = np.diff(balls.indptr)
    too_small = np.flatnonzero(eligible & (sizes < p + 1))
    if too_small.size:
        listed = ", ".join(str(v) for v in too_small[:8])
        raise PatchError(
            f"{too_small.size} patch(es) have fewer than p+1={p + 1} nodes "
            f"(centers {listed}{', ...' if too_small.size > 8 else ''})"
        )

    def ball(v: int) -> np.ndarray:
        return balls.indices[balls.indptr[v] : balls.indptr[v + 1]].astype(np.int64)

    def embed_center(v: int) -> Patch:
        members = ball(v)
        Y = _embed_members(g, members, v, p, refine_patches, max_iter, tol)
        nbhd = HopNeighborhood(center=v, h=h, members=tuple(members.tolist()))
        return Patch(neighborhood=nbhd, local_embedding=Configuration(Y))

    seed = int(np.argmax(np.where(eligible, sizes, -1)))
    seed_patch = embed_center(seed)
    members = ball(seed)
    coords = np.full((n, p), np.nan)
    placed = np.zeros(n, dtype=bool)
    coords[members] = seed_patch.local_embedding.points
    placed[members] = True
    gm = GlobalMap(coords=coords, placed=placed, merge_log=((seed, 0),))

    processed = np.zeros(n, dtype=bool)
    processed[seed] = True
    # counts[u] = placed members of u's ball. Balls are symmetric, so placing
    # w raises the count of exactly the nodes in w's ball.
    counts = np.bincount(balls[members].indices, minlength=n)
    while not gm.placed.all():
        cand = np.where(processed | ~eligible, -1, counts)
        v = int(np.argmax(cand))
        if cand[v] < p + 1:
            missing = np.flatnonzero(~gm.placed)
            listed = ", ".join(str(u) for u in missing[:8])
            raise MergeError(
                f"{missing.size} node(s) never reachable by a mergeable patch "
                f"(e.g. {listed}); increase h"
            )
        was_placed = gm.placed
        mem = ball(v)
        if bool(gm.placed[mem].all()):
            # No new nodes: first-placement-wins makes the transform moot,
            # so only the overlap validity check runs.
            _check_overlap(gm, mem, v, p)
            gm = GlobalMap(
                coords=gm.coords,
                placed=gm.placed,
                merge_log=gm.merge_log + ((v, int(mem.size)),),
            )
        else:
            gm = merge(gm, embed_center(v))
        processed[v] = True
        newly = np.flatnonzero(gm.placed & ~was_placed)
        if newly.size:
            counts += np.bincount(balls[newly].indices, minlength=n)

    result = gm.as_configuration()
    if final_refine:
        result = smacof_refine(g, result, max_iter=max_iter, tol=tol)
    if return_global_map:
        return result, gm
    return result
