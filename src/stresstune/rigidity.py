"""Trilateration orderings and incremental embedding along them.

A graph admits a trilaterative ordering for dimension ``p`` when some
``p+1``-clique can seed a vertex order in which every later vertex is
adjacent to at least ``p+1`` of its predecessors. Such graphs are uniquely
localizable from exact dissimilarities: embed the seed clique by classical
scaling, then trilaterate each next vertex from its placed neighbors.
"""

from __future__ import annotations

import heapq
import warnings
from dataclasses import dataclass

import numpy as np
from scipy.sparse import csr_matrix

from .core import (
    Configuration,
    DegenerateGeometryError,
    StressTuneError,
    affine_rank,
)
from .embed import _classical_scaling_array, _trilaterate
from .graph import DissimilarityGraph, is_connected

DEFAULT_SEED_CLIQUE_CAP = 10_000


@dataclass(frozen=True)
class TrilaterativeOrdering:
    """A full vertex ordering whose first ``p+1`` nodes form the seed clique."""

    p: int
    order: tuple[int, ...]

    def __post_init__(self):
        if self.p < 1:
            raise ValueError("p must be >= 1")
        order = tuple(int(v) for v in self.order)
        if len(order) < self.p + 1:
            raise ValueError("ordering must contain at least p+1 vertices")
        if sorted(order) != list(range(len(order))):
            raise ValueError("ordering must be a permutation of 0..n-1")
        object.__setattr__(self, "order", order)

    @property
    def seed_clique(self) -> tuple[int, ...]:
        return self.order[: self.p + 1]


def verify_trilaterative_ordering(g: DissimilarityGraph, ordering: TrilaterativeOrdering) -> bool:
    """Direct predecessor-count check of the ordering property.

    Independent of how the ordering was found: counts each vertex's
    neighbours placed before it. The seed is a clique exactly when its
    ``r``-th vertex has ``r`` of them, and every later vertex needs ``p+1``.
    """
    n = g.n
    if len(ordering.order) != n:
        return False
    adj = g._adj_csr()
    rank = np.empty(n, dtype=np.int64)
    rank[list(ordering.order)] = np.arange(n)
    # One entry per stored (v, u), so each undirected edge counts once, at its later end.
    row_rank = np.repeat(rank, np.diff(adj.indptr))
    earlier = np.bincount(row_rank[rank[adj.indices] < row_rank], minlength=n)
    return bool((earlier >= np.minimum(np.arange(n), ordering.p + 1)).all())


def _row(adj: csr_matrix, v: int) -> np.ndarray:
    return adj.indices[adj.indptr[v] : adj.indptr[v + 1]]


def _cliques(adj: csr_matrix, size: int):
    """Yield cliques of the given size as ascending tuples, lexicographically."""

    def extend(clique, common):
        if len(clique) == size:
            yield tuple(clique)
            return
        # common ascends, so the candidates above u are the entries after it.
        for a, u in enumerate(common.tolist()):
            narrowed = np.intersect1d(common[a + 1 :], _row(adj, u), assume_unique=True)
            yield from extend(clique + [u], narrowed)

    for v in range(adj.shape[0]):
        nbrs = _row(adj, v)
        yield from extend([v], nbrs[nbrs > v])


def _greedy_closure(adj: csr_matrix, seed: tuple[int, ...], p: int) -> list[int] | None:
    """Grow the seed by repeatedly appending the lowest-index eligible vertex."""
    n = adj.shape[0]
    placed = np.zeros(n, dtype=bool)
    placed[list(seed)] = True
    counts = np.zeros(n, dtype=np.int64)
    for v in seed:
        counts[_row(adj, v)] += 1
    # Each vertex enters the heap once, when its placed-neighbour count reaches p+1.
    heap = np.flatnonzero((counts > p) & ~placed).tolist()
    order = list(seed)
    while heap:
        u = heapq.heappop(heap)
        placed[u] = True
        order.append(u)
        nbrs = _row(adj, u)
        nbrs = nbrs[~placed[nbrs]]
        counts[nbrs] += 1
        for w in nbrs[counts[nbrs] == p + 1].tolist():
            heapq.heappush(heap, w)
    return order if len(order) == n else None


def _seed_dissimilarities(g: DissimilarityGraph, seed: tuple[int, ...]) -> np.ndarray:
    """Dissimilarity matrix of a seed clique; KeyError if an edge is missing."""
    k = len(seed)
    D = np.zeros((k, k))
    for a in range(k):
        for b in range(a + 1, k):
            D[a, b] = D[b, a] = g.edge_weight(seed[a], seed[b])
    return D


def find_trilaterative_ordering(g: DissimilarityGraph, p: int) -> TrilaterativeOrdering | None:
    """Search for a trilaterative ordering by greedy closure over seed cliques.

    Seed ``p+1``-cliques are enumerated lexicographically. A seed whose own
    dissimilarities embed at affine rank below ``p`` (e.g. noisy distances
    that violate the triangle inequality, which classical scaling puts on a
    line) is skipped, since nothing can be trilaterated from it. Each other
    seed is grown by the monotone closure rule until it either covers the
    graph (success) or stalls. Returns None for a disconnected graph and
    when no enumerated seed closes; hitting the enumeration cap
    ``DEFAULT_SEED_CLIQUE_CAP`` additionally emits a warning, since a valid
    ordering may exist beyond it.
    """
    if p < 1:
        raise ValueError("p must be >= 1")
    # A closure grows along edges, so no seed closes a disconnected graph:
    # stop before enumerating seeds, up to the cap, that cannot succeed.
    if not is_connected(g):
        return None
    adj = g._adj_csr()
    tried = 0
    for seed in _cliques(adj, p + 1):
        if tried >= DEFAULT_SEED_CLIQUE_CAP:
            warnings.warn(
                f"seed-clique cap {DEFAULT_SEED_CLIQUE_CAP} reached without a closing seed; "
                "an ordering may still exist",
                stacklevel=2,
            )
            return None
        tried += 1
        if affine_rank(_classical_scaling_array(_seed_dissimilarities(g, seed), p)) < p:
            continue
        order = _greedy_closure(adj, seed, p)
        if order is not None:
            return TrilaterativeOrdering(p=p, order=tuple(order))
    return None


def sequential_trilateration(
    g: DissimilarityGraph, ordering: TrilaterativeOrdering, p: int
) -> Configuration:
    """Embed along a trilaterative ordering.

    The seed clique is embedded by classical scaling of its (complete)
    dissimilarity submatrix; every later vertex is trilaterated from all of
    its already-placed neighbors. Exact distances give exact recovery up to
    a rigid map. Noisy distances do not: each placement error feeds every
    later trilateration, so the error compounds along the ordering. On the
    README's hollow rectangle with 15% edge noise the normalized RMSE is
    84.5; use :func:`~stresstune.stitch.mds_map_p` for noisy data.
    """
    if ordering.p != p:
        raise ValueError("ordering was built for a different dimension")
    if len(ordering.order) != g.n:
        raise ValueError("ordering must cover every node")
    seed = ordering.seed_clique
    k = len(seed)
    try:
        D = _seed_dissimilarities(g, seed)
    except KeyError as exc:
        raise StressTuneError(f"seed clique is missing a dissimilarity: {exc.args[0]}") from exc
    coords = np.zeros((g.n, p))
    placed = np.zeros(g.n, dtype=bool)
    seed_idx = np.array(seed, dtype=np.int64)
    coords[seed_idx] = _classical_scaling_array(D, p)
    placed[seed_idx] = True
    for v in ordering.order[k:]:
        nbrs, w = g.neighbors(v)
        mask = placed[nbrs]
        landmarks = nbrs[mask]
        if landmarks.size < p + 1:
            raise StressTuneError(
                f"node {v} has only {landmarks.size} placed neighbors; ordering is invalid"
            )
        try:
            coords[v] = _trilaterate(coords[landmarks], w[mask])
        except DegenerateGeometryError as exc:
            raise DegenerateGeometryError(f"degenerate landmarks at node {v}: {exc}") from exc
        placed[v] = True
    return Configuration(coords)
