"""Dissimilarity graphs: construction from point sets, traversal, completion.

The central type is :class:`DissimilarityGraph`, an undirected weighted graph
over nodes ``0..n-1`` with a canonical edge order (sorted pairs ``i < j``),
which makes downstream seeded pipelines reproducible byte for byte.

Every traversal runs on the one weighted CSR adjacency the graph caches.
A zero weight is stored explicitly, and scipy's csgraph routines treat a
stored zero as an edge, so zero-weight edges connect nodes, count as one hop
and add nothing to a path length.
"""

from __future__ import annotations

import csv
import os
from contextlib import contextmanager
from contextvars import ContextVar

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components as _csgraph_components
from scipy.sparse.csgraph import dijkstra as _csgraph_dijkstra
from scipy.sparse.csgraph import floyd_warshall as _csgraph_floyd_warshall
from scipy.spatial import cKDTree

from .core import (
    Configuration,
    DenseSymmetricMatrix,
    DisconnectedGraphError,
    _check_dense_fits,
    _csv_rows,
    _overflow_checked,
    _row_blocks,
    _symmetrize_in_place,
)

# Order up to which shortest_paths_csr runs scipy's Floyd-Warshall instead of
# per-source Dijkstra. Measured on the benchmark's patches (2-vCPU host, one
# BLAS thread), ms per patch, Dijkstra vs Floyd-Warshall: 15-NN patches
# m~120 2.4 vs 1.2, m~250 13.1 vs 10.6, m~350 22.3 vs 23.6; radius-graph
# patches m~190 4.8 vs 3.9, m~210 9.0 vs 9.6, m~900+ 216 vs 746.
_FLOYD_WARSHALL_MAX_ORDER = 200

# Budget of the whole graph's shortest-path rows that a stitch may hold to
# complete its large patches from (12 n^2 bytes): it admits n up to
# 6,688 (5,222 nodes take 327 MB) and refuses n = 20,000 (4.8 GB).
_SHARED_ROWS_MAX_BYTES = 512 * 2**20

# While a sweep runs in this context: its graph, and the rows of that graph
# once a stitch has taken them (None before). None outside a sweep.
_sweep_rows: ContextVar[tuple | None] = ContextVar("_sweep_rows", default=None)


class DissimilarityGraph:
    """Undirected graph with nonnegative edge weights (observed dissimilarities).

    Edges are canonicalized to ``i < j`` and sorted lexicographically. A self loop, a
    duplicate pair or a negative or non-finite weight is refused by its first edge. Immutable.
    """

    def __init__(self, n: int, edges):
        if not isinstance(n, (int, np.integer)) or n < 1:
            raise ValueError("n must be a positive integer")
        if (
            isinstance(edges, tuple)
            and len(edges) == 3
            and all(isinstance(a, np.ndarray) for a in edges)
        ):
            ei, ej, w = edges
        else:
            triples = [(int(a), int(b), float(d)) for a, b, d in edges]
            ei, ej, w = ([t[c] for t in triples] for c in range(3))
        ei = np.asarray(ei, dtype=np.int64)
        ej = np.asarray(ej, dtype=np.int64)
        w = np.asarray(w, dtype=np.float64)
        if not (ei.shape == ej.shape == w.shape) or ei.ndim != 1:
            raise ValueError("edge arrays must be one-dimensional and equal length")
        if ei.size:
            if ei.min(initial=0) < 0 or ej.min(initial=0) < 0 or max(ei.max(), ej.max()) >= n:
                raise ValueError("edge endpoints must lie in [0, n)")
            if (ei == ej).any():
                k = np.argmax(ei == ej)
                raise ValueError(f"self loops are not allowed: edge ({ei[k]}, {ej[k]})")
            if not np.isfinite(w).all() or (w < 0).any():
                k = np.flatnonzero(~np.isfinite(w) | (w < 0))[0]
                raise ValueError(f"weights must be finite and nonnegative: edge ({ei[k]}, {ej[k]}) "
                                 f"has weight {w[k]}")
        lo = np.minimum(ei, ej)
        hi = np.maximum(ei, ej)
        order = np.lexsort((hi, lo))
        lo, hi, w = lo[order], hi[order], w[order]
        repeat = (lo[1:] == lo[:-1]) & (hi[1:] == hi[:-1])
        if repeat.any():
            k = np.argmax(repeat)
            raise ValueError(f"duplicate edges are not allowed: edge ({lo[k]}, {hi[k]}) is repeated")
        for a in (lo, hi, w):
            a.setflags(write=False)
        self._n = int(n)
        self.ei = lo
        self.ej = hi
        self.weights = w
        self._adj = None

    def __reduce__(self):
        # Through the constructor: the edge arrays come back read-only and the
        # lazily built CSR adjacency is not shipped.
        return (DissimilarityGraph, (self._n, (self.ei, self.ej, self.weights)))

    @property
    def n(self) -> int:
        return self._n

    @property
    def edge_count(self) -> int:
        return int(self.ei.size)

    def _adj_csr(self) -> csr_matrix:
        """CSR adjacency with true weights; zero weights are stored explicitly."""
        if self._adj is None:
            rows = np.concatenate([self.ei, self.ej])
            cols = np.concatenate([self.ej, self.ei])
            data = np.concatenate([self.weights, self.weights])
            m = csr_matrix((data, (rows, cols)), shape=(self._n, self._n))
            m.sort_indices()
            self._adj = m
        return self._adj

    def neighbors(self, v: int) -> tuple[np.ndarray, np.ndarray]:
        """Neighbor indices (ascending) and matching weights for node ``v``."""
        adj = self._adj_csr()
        lo, hi = adj.indptr[v], adj.indptr[v + 1]
        return adj.indices[lo:hi], adj.data[lo:hi]

    def edge_weight(self, i: int, j: int) -> float:
        """Weight of edge ``{i, j}``; raises KeyError if absent."""
        nbrs, w = self.neighbors(i)
        pos = np.searchsorted(nbrs, j)
        if pos >= nbrs.size or nbrs[pos] != j:
            raise KeyError(f"no edge between {i} and {j}")
        return float(w[pos])

    def degrees(self) -> np.ndarray:
        return np.diff(self._adj_csr().indptr)


def _union_knn_pairs(nearest: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Sorted unique pairs ``i < j`` of the union-symmetrized k-NN relation.

    Row ``i`` of ``nearest`` lists candidate neighbours of ``i`` by rank; the
    first ``k`` entries other than ``i`` itself are kept.
    """
    n = nearest.shape[0]
    rows = np.arange(n)[:, None]
    other = nearest != rows
    keep = other & (np.cumsum(other, axis=1) <= k)
    i = np.broadcast_to(rows, nearest.shape)[keep]
    j = nearest[keep]
    key = np.unique(np.minimum(i, j) * n + np.maximum(i, j))
    return key // n, key % n


def _check_k(n: int, k: int) -> None:
    """Refuse a neighbour count ``k`` that ``n`` points cannot supply."""
    if k < 1:
        raise ValueError("k must be >= 1")
    if n <= k:
        raise ValueError(f"need n > k, got n={n}, k={k}")


def knn_graph(config: Configuration, k: int) -> DissimilarityGraph:
    """Symmetrized k-nearest-neighbor graph with Euclidean edge weights.

    An edge is kept when either endpoint lists the other among its k nearest
    (union symmetrization), so every node ends with degree >= k. Points whose
    squared distances overflow float64 raise ``StressTuneError``.
    """
    n = config.n
    _check_k(n, k)
    X = config.points
    dist, idx = cKDTree(X).query(X, k=k + 1)
    _overflow_checked(dist.max, config)  # an infinite distance comes with the missing neighbour n
    ei, ej = _union_knn_pairs(np.atleast_2d(idx).astype(np.int64), k)
    w = np.linalg.norm(X[ei] - X[ej], axis=1)
    return DissimilarityGraph(n, (ei, ej, w))


def knn_graph_from_matrix(matrix: DenseSymmetricMatrix, k: int) -> DissimilarityGraph:
    """Union-symmetrized k-NN graph over a precomputed dissimilarity matrix."""
    n = matrix.order
    _check_k(n, k)
    D = matrix.values
    # The first k entries of a row other than its own node lie in its first k + 1.
    order = np.argsort(D, axis=1, kind="stable")[:, : k + 1]
    ei, ej = _union_knn_pairs(order, k)
    w = D[ei, ej]
    return DissimilarityGraph(n, (ei, ej, w))


def radius_graph(config: Configuration, r: float) -> DissimilarityGraph:
    """Graph with an edge wherever ``||x_i - x_j|| <= r``."""
    if not (r > 0):
        raise ValueError("r must be positive")
    X = config.points
    # Pairs i < j in the tree's order; the graph sorts its edges itself.
    ei, ej = cKDTree(X).query_pairs(r, output_type="ndarray").astype(np.int64).T
    return DissimilarityGraph(config.n, (ei, ej, np.linalg.norm(X[ei] - X[ej], axis=1)))


def min_connectivity_radius(config: Configuration) -> float:
    """Longest edge of a Euclidean minimum spanning tree.

    The radius graph is connected at this value and disconnected at any
    strictly smaller one. Prim's algorithm over implicit dense distances;
    points whose squared distances overflow float64 raise ``StressTuneError``.
    """
    X = config.points
    n = X.shape[0]
    if n < 2:
        raise ValueError("need at least two points")

    def prim():
        in_tree = np.zeros(n, dtype=bool)
        in_tree[0] = True
        best = np.linalg.norm(X - X[0], axis=1)
        best[0] = np.inf
        bottleneck = 0.0
        for _ in range(n - 1):
            d = np.where(in_tree, np.inf, best)
            v = int(np.argmin(d))
            bottleneck = max(bottleneck, float(d[v]))
            in_tree[v] = True
            best = np.minimum(best, np.linalg.norm(X - X[v], axis=1))
        return bottleneck

    return _overflow_checked(prim, config)


def hop_balls(g: DissimilarityGraph, h: int) -> csr_matrix:
    """Boolean CSR matrix whose row ``v`` marks the nodes within ``h`` hops of ``v``.

    Row indices are sorted ascending. The balls come from ``h``-truncated
    breadth-first searches run from blocks of sources, each block sized so
    that its dense distance rows fill ``core._DENSE_BLOCK_BYTES`` (at least
    one source per block). One block is alive at a time, so memory is the
    output, O(sum of ball sizes), plus that fixed block, whatever n is.
    Balls are symmetric: ``u`` is in the ball of ``v`` iff ``v`` is in that of ``u``.
    """
    if h < 1:
        raise ValueError("h must be >= 1")
    n = g.n
    adj = g._adj_csr()
    counts = np.zeros(n, dtype=np.int64)
    cols = []
    for rows in _row_blocks(n):
        # Every edge is stored in both directions, so a directed search sees
        # the undirected graph without scipy transposing it for each block.
        # A radius of n reaches as far as any larger one, and stays in float range.
        reach = _csgraph_dijkstra(
            adj, directed=True, unweighted=True, limit=min(h, n), indices=np.arange(rows.start, rows.stop)
        )
        block_rows, block_cols = np.nonzero(np.isfinite(reach))
        counts[rows] = np.bincount(block_rows, minlength=reach.shape[0])
        cols.append(block_cols.astype(np.int32))
        # One block of distance rows alive at a time: drop it before the next search.
        del reach, block_rows, block_cols
    indptr = np.concatenate([[0], np.cumsum(counts)])
    indices = np.concatenate(cols)
    return csr_matrix((np.ones(indices.size, dtype=bool), indices, indptr), shape=(n, n))


def all_pairs_shortest_paths(g: DissimilarityGraph) -> DenseSymmetricMatrix:
    """Complete the observed dissimilarities with weighted shortest-path lengths.

    Per-source Dijkstra on the cached adjacency, symmetrized by the smaller of
    the two values; unreachable pairs get a ``+inf`` sentinel.
    """
    # The completion and the validated copy the returned matrix holds.
    _check_dense_fits("all_pairs_shortest_paths", g.n, 2)
    return DenseSymmetricMatrix(_dijkstra_csr(g._adj_csr()), allow_infinite=True)


def connected_components(g: DissimilarityGraph) -> list[list[int]]:
    """Partition of the nodes into connected components.

    Components are ordered by their smallest member; members are ascending.
    """
    _, labels = _csgraph_components(g._adj_csr(), directed=False)
    # Nodes grouped by label, ascending within each group.
    groups = np.split(np.argsort(labels, kind="stable"), np.cumsum(np.bincount(labels))[:-1])
    return sorted((c.tolist() for c in groups), key=lambda c: c[0])


def is_connected(g: DissimilarityGraph) -> bool:
    # A connected graph has at least n - 1 edges. Testing that first refuses
    # one with many isolated nodes before its O(n) adjacency is built.
    return g.edge_count >= g.n - 1 and _csgraph_components(g._adj_csr(), directed=False)[0] == 1


def _check_embeddable(g: DissimilarityGraph, p: int, hops=()) -> None:
    """Refuse a hop value below 1, then ``p`` outside [1, n], then a disconnected graph, before other work."""
    if any(h < 1 for h in hops):
        raise ValueError("hop values must be >= 1")
    if not 1 <= p <= g.n:
        raise ValueError(f"p must be >= 1 and at most n={g.n}")
    if not is_connected(g):
        raise DisconnectedGraphError("embedding requires a connected graph")


def _row_positions(indptr: np.ndarray, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Positions in a CSR's ``indices``/``data`` of the rows ``rows``, concatenated, and each row's length."""
    starts = indptr[rows]
    lengths = indptr[rows + 1] - starts
    # Row r's entries begin at starts[r] of the CSR and at offsets[r] of the output.
    offsets = np.cumsum(lengths) - lengths
    return np.arange(lengths.sum()) + np.repeat(starts - offsets, lengths), lengths


def induced_subgraph_csr(g: DissimilarityGraph, members: np.ndarray) -> tuple[csr_matrix, tuple]:
    """CSR adjacency of the subgraph induced by ascending ``members``, and its edge list.

    Row and column ``a`` is node ``members[a]``. The edge list ``(ei, ej, w)``
    holds each edge once, ``ei < ej``, in lexicographic order. Both come
    straight from the members' rows of the cached adjacency.
    """
    adj, m = g._adj_csr(), members.size
    pos, lengths = _row_positions(adj.indptr, members)
    nbrs = adj.indices[pos]
    cols = np.searchsorted(members, nbrs)
    inside = members[np.minimum(cols, m - 1)] == nbrs
    rows = np.repeat(np.arange(m), lengths)[inside]
    cols, w = cols[inside], adj.data[pos[inside]]
    indptr = np.concatenate([[0], np.cumsum(np.bincount(rows, minlength=m))])
    # Rows ascend, and columns within each row, so the upper triangle is in lexicographic order.
    upper = rows < cols
    return csr_matrix((w, cols, indptr), shape=(m, m)), (rows[upper], cols[upper], w[upper])


def _dijkstra_csr(adj: csr_matrix) -> np.ndarray:
    """Per-source Dijkstra on a symmetric CSR adjacency, symmetrized by the smaller of the two values.

    Every edge is stored in both directions, so a directed traversal sees the
    undirected graph without scipy building the transpose. The minimum is
    taken in place, one row block at a time, bit for bit ``np.minimum(D, D.T)``.
    """
    return _symmetrize_in_place(_csgraph_dijkstra(adj, directed=True), np.minimum)


def _shortest_path_rows(g: DissimilarityGraph) -> tuple[np.ndarray, np.ndarray]:
    """Unsymmetrized per-source Dijkstra rows of the whole graph and scipy's predecessors.

    ``12 n^2`` bytes: float64 distances and int32 predecessors, ``-9999`` at
    each source itself.
    """
    return _csgraph_dijkstra(g._adj_csr(), directed=True, return_predecessors=True)


def _shared_rows(g: DissimilarityGraph, patches) -> tuple[np.ndarray, np.ndarray] | None:
    """The rows (:func:`_shortest_path_rows`) to complete a stitch's patches from, or None.

    ``patches`` are the member arrays of the patches the stitch embeds. The
    rows are taken when their ``12 n^2`` bytes fit ``_SHARED_ROWS_MAX_BYTES``
    and the per-patch Dijkstra work they replace, the sum of m times the
    members' degree sum over the patches above ``_FLOYD_WARSHALL_MAX_ORDER``,
    exceeds the work of the one whole-graph pass, n times twice the edge count.

    Within a sweep of ``g`` (:func:`_sweep_holding_rows`) a tie goes to the
    rows, so a one-patch stitch takes them too, and the rows, once taken,
    serve every later stitch of the sweep whatever its own work: exact rows
    complete any patch with the same bits (:func:`_complete_from_rows`).
    """
    n = g.n
    if 12 * n * n > _SHARED_ROWS_MAX_BYTES:
        return None
    held = _sweep_rows.get()
    in_sweep = held is not None and held[0] is g
    if in_sweep and held[1] is not None:
        return held[1]
    degrees = g.degrees()
    work = sum(m.size * int(degrees[m].sum()) for m in patches if m.size > _FLOYD_WARSHALL_MAX_ORDER)
    whole_pass = n * 2 * g.edge_count
    if work < whole_pass or (work == whole_pass and not in_sweep):
        return None
    rows = _shortest_path_rows(g)
    if in_sweep:
        _sweep_rows.set((g, rows))
    return rows


@contextmanager
def _sweep_holding_rows(g: DissimilarityGraph):
    """Within the block, the stitches of ``g`` share one rows pass (:func:`_shared_rows`); the rows go with it."""
    token = _sweep_rows.set((g, None))
    try:
        yield
    finally:
        _sweep_rows.reset(token)


def _complete_from_rows(sub: csr_matrix, members: np.ndarray, dist: np.ndarray, pred: np.ndarray) -> np.ndarray:
    """``_dijkstra_csr(sub)`` of the patch ``members`` (ascending), bit for bit, from the whole graph's rows.

    Rounded addition of a nonnegative weight is monotone and isotone, so
    Dijkstra returns, to the last bit, the least left-to-right rounded sum
    over all paths (Sobrinho, IEEE/ACM Trans. Networking 2002). A whole-graph
    value whose predecessor chain stays inside the patch is reached by a
    patch path, and no patch path is shorter, so it is the patch's value.
    The other targets of a source, those whose chain leaves the patch (the
    *escaped* ones, descendants in the in-patch forest of a target whose
    predecessor lies outside), are recomputed by one Dijkstra over a block
    graph: a copy of each escaped (source, target) pair, copies of one
    source linked by the patch's edges, and a virtual node per source that
    seeds each copy ``x`` with the least ``dist[s, c] + w(c, x)`` over its
    non-escaped patch neighbours ``c``. A patch path to ``x`` split at its
    last non-escaped node shows that the seeded least value is the patch's.
    ``dist`` and ``pred`` are :func:`_shortest_path_rows`.
    """
    # Index arrays are int32 (as scipy's predecessors): m * m stays below
    # 2**31 for any n whose 12 n^2 bytes of rows fit in memory.
    n, m = dist.shape[0], members.size
    block = np.ix_(members, members)
    D, P = dist[block], pred[block]
    P[P < 0] = n  # the source itself, or a target it cannot reach
    local = np.full(n + 1, -1, dtype=np.int32)
    local[members] = np.arange(m)
    parent = local[P]  # local index of each target's predecessor, -1 outside the patch
    # Each m x m index array goes once used: the largest patch sets a stitch's peak memory.
    del P
    np.fill_diagonal(parent, np.arange(m))  # each source is the root of its own tree
    dirty = np.flatnonzero((parent < 0).any(axis=1))
    k = dirty.size
    if k:
        # Pointer doubling over every dirty row's in-patch forest at once, in
        # one flat array: a target whose predecessor lies outside points to the
        # sentinel k * m, each source to itself, so a target escaped iff its
        # root is the sentinel.
        root = parent[dirty]
        del parent
        outside = root < 0
        root += (np.arange(k, dtype=np.int32) * m)[:, None]
        root[outside] = k * m
        root = np.append(root, np.int32(k * m))
        while True:
            up = root[root]
            if np.array_equal(up, root):
                break
            root = up
        escaped = (root[:-1] == k * m).reshape(k, m)
        del root, up, outside
        # One copy per escaped pair, numbered in row-major order of ``escaped``.
        copy = np.flatnonzero(escaped)
        source, target = np.divmod(copy, m)  # source is a row of ``dirty``
        copies = copy.size
        pos, degree = _row_positions(sub.indptr, target)
        owner = np.repeat(np.arange(copies), degree)
        nbr, w = sub.indices[pos], sub.data[pos]
        linked = escaped[source[owner], nbr]
        # A copy's seed: its least sum over non-escaped neighbours, whose values are exact.
        reach = np.where(linked, np.inf, D[dirty[source[owner]], nbr] + w)
        seed = np.minimum.reduceat(reach, np.cumsum(degree) - degree)
        seeded = np.flatnonzero(np.isfinite(seed))
        counts = np.concatenate(
            [np.bincount(owner[linked], minlength=copies), np.bincount(source[seeded], minlength=k)]
        )
        copy_graph = csr_matrix(
            (
                np.concatenate([w[linked], seed[seeded]]),
                np.concatenate([np.searchsorted(copy, source[owner[linked]] * m + nbr[linked]), seeded]),
                np.concatenate([[0], np.cumsum(counts)]),
            ),
            shape=(copies + k, copies + k),
        )
        # The virtual nodes follow the copies; those of one source are reachable only from its own.
        found = _csgraph_dijkstra(copy_graph, directed=True, indices=copies + np.arange(k), min_only=True)
        D[dirty[source], target] = found[:copies]
    return _symmetrize_in_place(D, np.minimum)


def shortest_paths_csr(sub: csr_matrix, rows: tuple | None = None, members: np.ndarray | None = None) -> np.ndarray:
    """All-pairs shortest paths of a symmetric CSR adjacency, the solver picked by order.

    Up to ``_FLOYD_WARSHALL_MAX_ORDER`` nodes scipy's Floyd-Warshall, whose
    output is exactly symmetric; above it per-source Dijkstra. Both treat a
    stored zero as an edge and mark unreachable pairs ``+inf``; on additively
    exact weights (e.g. integers) they agree bit for bit. Given the whole
    graph's ``rows`` (:func:`_shortest_path_rows`) and the ascending
    ``members`` that induce ``sub``, a patch above that order is completed
    from the rows instead (:func:`_complete_from_rows`), with Dijkstra's bits.
    """
    if sub.shape[0] <= _FLOYD_WARSHALL_MAX_ORDER:
        return _csgraph_floyd_warshall(sub, directed=False)
    if rows is not None:
        return _complete_from_rows(sub, members, *rows)
    return _dijkstra_csr(sub)


def write_edge_csv(g: DissimilarityGraph, path: str | os.PathLike) -> None:
    """Write edges as ``i,j,d`` rows in canonical order (csv writes floats as their repr)."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["i", "j", "d"])
        writer.writerows(zip(g.ei.tolist(), g.ej.tolist(), g.weights.tolist()))


def _edge_columns(header: list[str]):
    if [h.strip() for h in header] != ["i", "j", "d"]:
        raise ValueError("expected header i,j,d")
    return [(0, int), (1, int), (2, float)]


def read_edge_csv(path: str | os.PathLike) -> DissimilarityGraph:
    """Read an edge list written by :func:`write_edge_csv`; ``n`` is ``max(index) + 1``."""
    ei, ej, w = zip(*_csv_rows(path, _edge_columns))
    n = max(max(ei), max(ej)) + 1
    try:
        return DissimilarityGraph(n, (np.array(ei, dtype=np.int64), np.array(ej, dtype=np.int64), np.array(w)))
    except ValueError as exc:  # a self loop, a repeated pair or a negative weight
        raise ValueError(f"{path}: {exc}") from exc
