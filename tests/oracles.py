"""Independent reference implementations used to cross-check the package.

Everything here is deliberately written the slow, obvious way (double loops,
heapq Dijkstra, union-find, quadrature) with no imports from ``stresstune``'s
internals beyond plain data, so a bug in the package cannot hide in its own
oracle. The exceptions replay an inner loop through the validated public
API that the loop bypasses (``procrustes`` with ``RigidMap.apply``, one
``trilaterate`` per node, ``classical_scaling`` of each seed clique), so the
array kernels can be compared bit for bit. The stress functions and the CSV
readers at the end are the package's earlier versions, kept unchanged.
"""

from __future__ import annotations

import csv
import heapq
import math
import os

import numpy as np
from scipy.linalg import cho_factor, cho_solve
from scipy.sparse import triu
from scipy.sparse.csgraph import shortest_path

from stresstune import (
    CityTable,
    Configuration,
    DenseSymmetricMatrix,
    DissimilarityGraph,
    StressTuneError,
    affine_rank,
    classical_scaling,
    procrustes,
    trilaterate,
)
from stresstune.core import _check_dense_fits


def sq_dist_double_loop(points: np.ndarray) -> np.ndarray:
    n = len(points)
    out = np.zeros((n, n))
    for i in range(n):
        for j in range(n):
            out[i, j] = sum((points[i, k] - points[j, k]) ** 2 for k in range(points.shape[1]))
    return out


def dijkstra_all_pairs(n: int, edges) -> np.ndarray:
    """Per-source binary-heap Dijkstra over an undirected edge list."""
    adj: list[list[tuple[int, float]]] = [[] for _ in range(n)]
    for i, j, w in edges:
        adj[i].append((j, w))
        adj[j].append((i, w))
    D = np.full((n, n), np.inf)
    for s in range(n):
        dist = [math.inf] * n
        dist[s] = 0.0
        heap = [(0.0, s)]
        while heap:
            d, u = heapq.heappop(heap)
            if d > dist[u]:
                continue
            for v, w in adj[u]:
                nd = d + w
                if nd < dist[v]:
                    dist[v] = nd
                    heapq.heappush(heap, (nd, v))
        D[s] = dist
    return D


def floyd_warshall_dense(n: int, ei, ej, w) -> np.ndarray:
    """Dense Floyd-Warshall over an undirected edge list; ``inf`` where unreachable."""
    D = np.full((n, n), np.inf)
    np.fill_diagonal(D, 0.0)
    D[ei, ej] = w
    D[ej, ei] = w
    # (i, j) and (j, i) add the same two terms in each pass, so D stays exactly symmetric.
    for k in range(n):
        np.minimum(D, D[:, k, None] + D[None, k, :], out=D)
    return D


def completion_dijkstra(sub) -> np.ndarray:
    """Undirected per-source Dijkstra on a CSR adjacency, symmetrized by the smaller value.

    The completion every patch got before the solver was picked by order.
    """
    D = shortest_path(sub, method="D", directed=False)
    return np.minimum(D, D.T)


def induced_subgraph_scipy(adj, members: np.ndarray):
    """A patch's CSR and ``i < j`` edge list through scipy's indexing and format conversions.

    The chain every patch went through before its rows were gathered from
    the CSR arrays: a double fancy index, then ``triu``, ``tocoo``, a
    lexicographic sort and the casts.
    """
    sub = adj[members][:, members].tocsr()
    upper = triu(sub, k=1).tocoo()
    order = np.lexsort((upper.col, upper.row))
    return sub, (
        upper.row[order].astype(np.int64),
        upper.col[order].astype(np.int64),
        upper.data[order].astype(np.float64),
    )


def symmetric_matrix_error(values: np.ndarray, allow_infinite: bool) -> str | None:
    """The message ``DenseSymmetricMatrix`` rejects a square array with, or None, checked whole-matrix.

    The symmetry tolerance is the contract's ``SYMMETRY_ATOL``, 1e-12.
    """
    v = np.asarray(values, dtype=np.float64)
    if np.isnan(v).any():
        return "matrix entries must not be NaN"
    if np.isneginf(v).any():
        return "matrix entries must not be -inf"
    if not allow_infinite and np.isinf(v).any():
        return "infinite entries are not permitted here"
    both_inf = np.isinf(v) & np.isinf(v.T)
    masked = np.where(both_inf, 0.0, v)
    gap = np.abs(masked - masked.T)
    if gap.max(initial=0.0) > 1e-12:
        return f"matrix is not symmetric within {1e-12:g} (max gap {gap.max():g})"
    return None


def symmetrize_min(D: np.ndarray) -> np.ndarray:
    """The smaller of each entry and its mirror, out of place: completion's symmetrization."""
    return np.minimum(D, D.T)


def double_center_out_of_place(A: np.ndarray) -> np.ndarray:
    """Row and column means removed, grand mean added, then ``(B + B.T) / 2.0``, each a new array."""
    r = A.mean(axis=1)
    B = A - r[:, None] - r[None, :] + A.mean()
    return (B + B.T) / 2.0


def classical_scaling_gram(D: np.ndarray) -> np.ndarray:
    """The double-centred ``-0.5 * D * D`` that classical scaling eigensolves."""
    return double_center_out_of_place(-0.5 * D * D)


def top_eigenpairs_dense(B: np.ndarray, p: int) -> tuple[np.ndarray, np.ndarray]:
    """Largest ``p`` eigenpairs (descending) from a full dense ``eigh``."""
    vals, vecs = np.linalg.eigh(B)
    order = np.argsort(vals)[::-1][:p]
    return vals[order], vecs[:, order]


def bfs_hops(n: int, edges, source: int) -> list[float]:
    adj: list[list[int]] = [[] for _ in range(n)]
    for i, j, _ in edges:
        adj[i].append(j)
        adj[j].append(i)
    hops = [math.inf] * n
    hops[source] = 0
    frontier = [source]
    level = 0
    while frontier:
        level += 1
        nxt = []
        for u in frontier:
            for v in adj[u]:
                if hops[v] == math.inf:
                    hops[v] = level
                    nxt.append(v)
        frontier = nxt
    return hops


def bfs_hop_matrix(n: int, edges) -> np.ndarray:
    """All-pairs hop counts, one :func:`bfs_hops` row per source (``inf`` if unreachable)."""
    return np.array([bfs_hops(n, edges, s) for s in range(n)], dtype=np.float64)


def merge_plan_loop(n: int, edges, h: int, p: int):
    """Greedy MDS-MAP(P) merge order over Python sets of BFS balls.

    The seed is the largest ``h``-hop ball (lowest index on ties), logged
    with overlap 0. Then, until every node is placed, the unmerged center
    whose ball holds the most placed nodes (lowest index on ties) is logged
    with that count and places its whole ball. Returns the list of
    ``(center, overlap)`` pairs, or None when the best overlap left is
    below ``p + 1`` before every node is placed.
    """
    balls = []
    for v in range(n):
        hops = bfs_hops(n, edges, v)
        balls.append({u for u in range(n) if hops[u] <= h})
    seed = min(range(n), key=lambda v: (-len(balls[v]), v))
    log = [(seed, 0)]
    placed = set(balls[seed])
    merged = {seed}
    while len(placed) < n:
        rest = [v for v in range(n) if v not in merged]
        best = min(rest, key=lambda v: (-len(balls[v] & placed), v))
        overlap = len(balls[best] & placed)
        if overlap < p + 1:
            return None
        log.append((best, overlap))
        placed |= balls[best]
        merged.add(best)
    return log


def merge_public(coords: np.ndarray, members: np.ndarray, new: np.ndarray, local: np.ndarray):
    """``stitch.merge``'s placement, in place, via ``procrustes`` and ``RigidMap.apply``.

    The fit runs on two validated Configurations; the overlap is not checked.
    """
    fit = procrustes(Configuration(local[~new]), Configuration(coords[members[~new]]))
    coords[members[new]] = fit.apply(local[new])


def seed_dissimilarities(g, seed) -> np.ndarray:
    """The complete dissimilarity matrix of a seed clique, one ``edge_weight`` per pair."""
    return np.array([[0.0 if a == b else g.edge_weight(a, b) for b in seed] for a in seed])


def sequential_trilateration_loop(g, order, p: int) -> np.ndarray:
    """Classical scaling of the seed clique, then one public ``trilaterate`` per later node."""
    seed = list(order[: p + 1])
    D = seed_dissimilarities(g, seed)
    coords = np.zeros((g.n, p))
    placed = np.zeros(g.n, dtype=bool)
    coords[seed] = classical_scaling(DenseSymmetricMatrix(D), p).points
    placed[seed] = True
    for v in order[p + 1 :]:
        nbrs, w = g.neighbors(v)
        mask = placed[nbrs]
        coords[v] = trilaterate(Configuration(coords[nbrs[mask]]), w[mask])
        placed[v] = True
    return coords


def adjacency_sets(g) -> list[set[int]]:
    """One Python set of neighbours per node."""
    adj = [set() for _ in range(g.n)]
    for a, b in zip(g.ei, g.ej):
        adj[int(a)].add(int(b))
        adj[int(b)].add(int(a))
    return adj


def cliques_sets(adj: list[set[int]], size: int):
    """Yield cliques of the given size as ascending tuples, lexicographically."""

    def extend(clique, common):
        if len(clique) == size:
            yield tuple(clique)
            return
        for u in sorted(common):
            narrowed = {x for x in common & adj[u] if x > u}
            yield from extend(clique + [u], narrowed)

    for v in range(len(adj)):
        above = {u for u in adj[v] if u > v}
        yield from extend([v], above)


def greedy_closure_loop(g, seed: tuple[int, ...], p: int) -> list[int] | None:
    """Grow the seed by repeatedly appending the lowest-index eligible vertex."""
    n = g.n
    placed = np.zeros(n, dtype=bool)
    counts = np.zeros(n, dtype=np.int64)
    order = list(seed)
    for v in seed:
        placed[v] = True
    heap: list[int] = []
    for v in seed:
        nbrs, _ = g.neighbors(v)
        for u in nbrs:
            u = int(u)
            if not placed[u]:
                counts[u] += 1
                if counts[u] == p + 1:
                    heapq.heappush(heap, u)
    while heap:
        u = heapq.heappop(heap)
        if placed[u]:
            continue
        placed[u] = True
        order.append(u)
        nbrs, _ = g.neighbors(u)
        for w in nbrs:
            w = int(w)
            if not placed[w]:
                counts[w] += 1
                if counts[w] == p + 1:
                    heapq.heappush(heap, w)
    return order if len(order) == n else None


def verify_ordering_loop(g, order, p: int) -> bool:
    """Every seed pair is an edge, and each later vertex has ``p+1`` placed neighbours, by a Python set."""
    if len(order) != g.n:
        return False
    seed = order[: p + 1]
    for a in range(len(seed)):
        for b in range(a + 1, len(seed)):
            try:
                g.edge_weight(seed[a], seed[b])
            except KeyError:
                return False
    placed = set(seed)
    for v in order[p + 1 :]:
        nbrs, _ = g.neighbors(v)
        if sum(1 for u in nbrs if int(u) in placed) < p + 1:
            return False
        placed.add(v)
    return True


def find_ordering_loop(g, p: int, cap: int):
    """The seed-clique search over Python sets: ``(order or None, whether the cap was hit)``.

    A disconnected graph has no ordering. Seeds come in lexicographic order;
    one whose classical scaling has affine rank below ``p`` is skipped, and
    the first whose greedy closure covers the graph wins.
    """
    if len(union_find_components(g.n, zip(g.ei.tolist(), g.ej.tolist(), g.weights.tolist()))) > 1:
        return None, False
    tried = 0
    for seed in cliques_sets(adjacency_sets(g), p + 1):
        if tried >= cap:
            return None, True
        tried += 1
        D = seed_dissimilarities(g, seed)
        if affine_rank(classical_scaling(DenseSymmetricMatrix(D), p).points) < p:
            continue
        order = greedy_closure_loop(g, seed, p)
        if order is not None:
            return tuple(order), False
    return None, False


def union_find_components(n: int, edges) -> list[list[int]]:
    parent = list(range(n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for i, j, _ in edges:
        ri, rj = find(i), find(j)
        if ri != rj:
            parent[max(ri, rj)] = min(ri, rj)
    groups: dict[int, list[int]] = {}
    for v in range(n):
        groups.setdefault(find(v), []).append(v)
    return sorted(groups.values(), key=min)


def knn_union_edges(points: np.ndarray, k: int) -> set[tuple[int, int]]:
    """Brute-force union-symmetrized k-nearest-neighbor edge set."""
    n = len(points)
    d = np.sqrt(sq_dist_double_loop(points))
    edges: set[tuple[int, int]] = set()
    for i in range(n):
        order = sorted(range(n), key=lambda j: (d[i, j], j))
        for j in order[1 : k + 1]:
            edges.add((min(i, j), max(i, j)))
    return edges


def _union_pairs_loop(ranked, k: int) -> tuple[np.ndarray, np.ndarray]:
    pairs = set()
    for i, candidates in enumerate(ranked):
        row = [int(j) for j in candidates if int(j) != i][:k]
        for j in row:
            pairs.add((i, j) if i < j else (j, i))
    ei = np.array([a for a, _ in sorted(pairs)], dtype=np.int64)
    ej = np.array([b for _, b in sorted(pairs)], dtype=np.int64)
    return ei, ej


def knn_pairs_loop(points: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Union k-NN pairs from a k-d tree query, built with a Python set.

    The loop ``knn_graph`` used before it was vectorised; ties keep the
    tree's order, so this must match it exactly, duplicates included.
    """
    from scipy.spatial import cKDTree

    _, idx = cKDTree(points).query(points, k=k + 1)
    return _union_pairs_loop(np.atleast_2d(idx), k)


def knn_matrix_pairs_loop(D: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Union k-NN pairs from per-row stable sorts of a dissimilarity matrix."""
    return _union_pairs_loop((np.argsort(row, kind="stable") for row in D), k)


def stress_double_loop(points: np.ndarray, edges) -> float:
    total = 0.0
    for i, j, w in edges:
        diff = points[i] - points[j]
        total += (float(diff @ diff) - w * w) ** 2
    return total


def guttman_step_full(Y: np.ndarray, ei, ej, d) -> np.ndarray:
    """One majorization step written with explicit dense matrices and pinv."""
    n = len(Y)
    V = np.zeros((n, n))
    B = np.zeros((n, n))
    for i, j, dij in zip(ei, ej, d):
        V[i, i] += 1
        V[j, j] += 1
        V[i, j] -= 1
        V[j, i] -= 1
        dist = np.linalg.norm(Y[i] - Y[j])
        ratio = 0.0 if dist < 1e-12 else dij / dist
        B[i, i] += ratio
        B[j, j] += ratio
        B[i, j] -= ratio
        B[j, i] -= ratio
    return np.linalg.pinv(V) @ B @ Y


def unsquared_stress(Y: np.ndarray, ei, ej, d) -> float:
    total = 0.0
    for i, j, dij in zip(ei, ej, d):
        total += (np.linalg.norm(Y[i] - Y[j]) - dij) ** 2
    return float(total)


def law_of_cosines_km(lat1, lon1, lat2, lon2, radius_km: float) -> float:
    """Great-circle distance via the spherical law of cosines."""
    p1, p2 = math.radians(lat1), math.radians(lat2)
    dlon = math.radians(lon2 - lon1)
    c = math.sin(p1) * math.sin(p2) + math.cos(p1) * math.cos(p2) * math.cos(dlon)
    return radius_km * math.acos(min(1.0, max(-1.0, c)))


def polyline_arc_length(points: np.ndarray) -> float:
    return float(np.linalg.norm(np.diff(points, axis=0), axis=1).sum())


def smacof_dense_cholesky(n: int, ei, ej, d, Y0: np.ndarray, max_iter: int, tol: float):
    """Guttman majorization with a dense Cholesky factor of ``L + J/n``.

    The reference for the package's sparse grounded-Laplacian SMACOF: same
    update, same 1e-12 distance floor, same stopping rule. Returns the final
    iterate and the stress at every accepted iterate.
    """
    def edge_dists(Y):
        diff = Y[ei] - Y[ej]
        return np.sqrt(np.einsum("ij,ij->i", diff, diff))

    Y = np.array(Y0, dtype=np.float64)
    dist = edge_dists(Y)
    stress = float(((dist - d) ** 2).sum())
    history = [stress]
    if stress == 0.0 or max_iter < 1 or len(ei) == 0:
        return Y, history
    # Adding J/n shifts the Laplacian's null space, so the Cholesky solve
    # applies L^+ exactly to vectors orthogonal to 1.
    L = np.zeros((n, n))
    np.add.at(L, (ei, ei), 1.0)
    np.add.at(L, (ej, ej), 1.0)
    np.add.at(L, (ei, ej), -1.0)
    np.add.at(L, (ej, ei), -1.0)
    factor = cho_factor(L + 1.0 / n, lower=True)
    for _ in range(max_iter):
        safe = np.where(dist < 1e-12, 1.0, dist)
        ratio = np.where(dist < 1e-12, 0.0, d / safe)
        BY = np.empty_like(Y)
        for dim in range(Y.shape[1]):
            contrib = ratio * (Y[ei, dim] - Y[ej, dim])
            BY[:, dim] = np.bincount(ei, weights=contrib, minlength=n) - np.bincount(
                ej, weights=contrib, minlength=n
            )
        Y_new = cho_solve(factor, BY)
        dist_new = edge_dists(Y_new)
        stress_new = float(((dist_new - d) ** 2).sum())
        if stress_new > stress:
            break
        Y, dist = Y_new, dist_new
        decrease = stress - stress_new
        stress = stress_new
        history.append(stress)
        if stress == 0.0 or decrease < tol * (stress + decrease):
            break
    return Y, history


# The three stress functions as they were before they shared one sum, kept
# verbatim (only ``stress`` guarded float64, and only against overflow), so
# the shared sum can be held to them bit for bit.


def _edge_sq_dists(Y: np.ndarray, ei, ej) -> np.ndarray:
    diff = Y[ei] - Y[ej]
    return np.einsum("ij,ij->i", diff, diff)


def stress(g: DissimilarityGraph, config: Configuration) -> float:
    """Raw stress of a configuration against the observed dissimilarities.

    ``sum over edges of (||y_i - y_j||^2 - d_ij^2)^2``. A sum beyond float64
    raises :class:`StressTuneError`: it is quartic in the dissimilarities.
    """
    if config.n != g.n:
        raise ValueError("configuration must cover every node")
    try:
        with np.errstate(over="raise", invalid="raise"):
            sq = _edge_sq_dists(config.points, g.ei, g.ej)
            return float(((sq - g.weights**2) ** 2).sum())
    except FloatingPointError:
        raise StressTuneError(
            f"the stress overflows float64 (largest dissimilarity {g.weights.max():g}); rescale the graph"
        ) from None


def noiseless_stress(g: DissimilarityGraph, config: Configuration, truth: Configuration) -> float:
    """Stress with observed dissimilarities replaced by true edge distances."""
    if config.n != g.n or truth.n != g.n:
        raise ValueError("configurations must cover every node")
    sq = _edge_sq_dists(config.points, g.ei, g.ej)
    true_sq = _edge_sq_dists(truth.points, g.ei, g.ej)
    return float(((sq - true_sq) ** 2).sum())


def complete_noiseless_stress(config: Configuration, truth: Configuration) -> float:
    """Noiseless stress summed over all unordered pairs, not just edges."""
    if config.n != truth.n:
        raise ValueError("configurations must have the same size")
    # The pair indices and the squared distances: traced at 3.50 x 8n^2 bytes
    # for n = 1,000-3,000.
    _check_dense_fits("complete_noiseless_stress", config.n, 4)
    iu, ju = np.triu_indices(config.n, k=1)
    sq = _edge_sq_dists(config.points, iu, ju)
    true_sq = _edge_sq_dists(truth.points, iu, ju)
    return float(((sq - true_sq) ** 2).sum())


# The CSV readers as they were before they shared one row loop, kept verbatim
# (three loops, each with its own header, width and csv.Error handling), so
# the shared loop can be held to them file by file.


def read_configuration_csv(path: str | os.PathLike) -> Configuration:
    """Read a configuration written by :func:`write_configuration_csv`."""
    try:
        with open(path, newline="") as fh:
            reader = csv.reader(fh)
            header = next(reader, None)
            if header is None or len(header) < 2 or header[0] != "id":
                raise ValueError(f"{path}: expected header id,x1,...,xp")
            p = len(header) - 1
            rows = []
            for lineno, rec in enumerate(reader, start=2):
                if not rec:
                    continue
                if len(rec) != p + 1:
                    raise ValueError(f"{path}: row {lineno} has {len(rec)} fields, expected {p + 1}")
                try:
                    idx = int(rec[0])
                    coords = [float(x) for x in rec[1:]]
                except ValueError as exc:
                    raise ValueError(f"{path}: row {lineno}: {exc}") from exc
                rows.append((idx, coords))
    except csv.Error as exc:  # such as a field over csv.field_size_limit()
        raise ValueError(f"{path}: row {reader.line_num}: {exc}") from exc
    if not rows:
        raise ValueError(f"{path}: no data rows")
    rows.sort(key=lambda r: r[0])
    ids = [r[0] for r in rows]
    if ids != list(range(len(rows))):
        raise ValueError(f"{path}: ids must be 0..n-1 without gaps")
    return Configuration(np.array([r[1] for r in rows]))


def read_edge_csv(path: str | os.PathLike) -> DissimilarityGraph:
    """Read an edge list written by :func:`write_edge_csv`; ``n`` is ``max(index) + 1``."""
    ei, ej, w = [], [], []
    # The node count max(index) + 1 must fit in int64 too.
    limit = np.iinfo(np.int64).max
    try:
        with open(path, newline="") as fh:
            reader = csv.reader(fh)
            header = next(reader, None)
            if header is None or [h.strip() for h in header[:3]] != ["i", "j", "d"]:
                raise ValueError(f"{path}: expected header i,j,d")
            for lineno, rec in enumerate(reader, start=2):
                if not rec:
                    continue
                if len(rec) != 3:
                    raise ValueError(f"{path}: row {lineno} has {len(rec)} fields, expected 3")
                try:
                    ei.append(int(rec[0]))
                    ej.append(int(rec[1]))
                    w.append(float(rec[2]))
                except ValueError as exc:
                    raise ValueError(f"{path}: row {lineno}: {exc}") from exc
                if not (0 <= ei[-1] < limit and 0 <= ej[-1] < limit):
                    raise ValueError(f"{path}: row {lineno}: node index outside [0, {limit})")
    except csv.Error as exc:  # such as a field over csv.field_size_limit()
        raise ValueError(f"{path}: row {reader.line_num}: {exc}") from exc
    if not ei:
        raise ValueError(f"{path}: no edges")
    n = max(max(ei), max(ej)) + 1
    return DissimilarityGraph(
        n, (np.array(ei, dtype=np.int64), np.array(ej, dtype=np.int64), np.array(w))
    )


def load_cities(path: str | os.PathLike) -> CityTable:
    """Load a ``city,lat,lng`` CSV (extra columns are ignored).

    Errors name the offending column or 1-based row so bad exports are easy
    to locate.
    """
    names, lat, lon = [], [], []
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            reader = csv.DictReader(fh)
            fields = reader.fieldnames or []
            for col in ("city", "lat", "lng"):
                if col not in fields:
                    raise ValueError(f"{path}: missing required column {col!r}")
            for rowno, rec in enumerate(reader, start=2):
                try:
                    la = float(rec["lat"])
                    lo = float(rec["lng"])
                except (TypeError, ValueError):
                    raise ValueError(f"{path}: row {rowno}: lat/lng must be numeric") from None
                if abs(la) > 90.0:
                    raise ValueError(f"{path}: row {rowno}: latitude {la} outside [-90, 90]")
                if abs(lo) > 180.0:
                    raise ValueError(f"{path}: row {rowno}: longitude {lo} outside [-180, 180]")
                names.append(rec["city"])
                lat.append(la)
                lon.append(lo)
    except csv.Error as exc:  # such as a field over csv.field_size_limit()
        # DictReader's own line_num counts only the rows it returned.
        raise ValueError(f"{path}: row {reader.reader.line_num}: {exc}") from exc
    if not names:
        raise ValueError(f"{path}: no data rows")
    return CityTable(names=tuple(names), lat=np.array(lat), lon=np.array(lon))
