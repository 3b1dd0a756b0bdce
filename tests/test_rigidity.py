import warnings
from itertools import islice
from unittest import mock

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as hst

import oracles
import stresstune.rigidity as rigidity_module
from conftest import rotation
from stresstune import (
    Configuration,
    DegenerateGeometryError,
    DissimilarityGraph,
    RigidMap,
    StressTuneError,
    TrilaterativeOrdering,
    aligned_error,
    apply_multiplicative_noise,
    diameter,
    find_trilaterative_ordering,
    knn_graph,
    radius_graph,
    sequential_trilateration,
    verify_trilaterative_ordering,
)


def complete_graph(points: np.ndarray) -> DissimilarityGraph:
    n = len(points)
    edges = [
        (i, j, float(np.linalg.norm(points[i] - points[j])))
        for i in range(n)
        for j in range(i + 1, n)
    ]
    return DissimilarityGraph(n, edges)


def path_graph(n: int) -> DissimilarityGraph:
    return DissimilarityGraph(n, [(i, i + 1, 1.0) for i in range(n - 1)])


class TestTrilaterativeOrdering:
    def test_invariants_enforced(self):
        with pytest.raises(ValueError):
            TrilaterativeOrdering(p=2, order=(0, 1, 1, 2))
        with pytest.raises(ValueError):
            TrilaterativeOrdering(p=2, order=(0, 1))  # shorter than p+1
        ordering = TrilaterativeOrdering(p=2, order=(2, 0, 1, 3))
        assert ordering.seed_clique == (2, 0, 1)


class TestFindOrdering:
    def test_complete_graph(self, rng):
        g = complete_graph(rng.uniform(size=(5, 2)))
        ordering = find_trilaterative_ordering(g, 2)
        assert ordering is not None
        assert verify_trilaterative_ordering(g, ordering)

    def test_path_graph_has_none(self):
        assert find_trilaterative_ordering(path_graph(6), 2) is None

    def test_random_geometric_graphs(self):
        found = 0
        for seed in range(5):
            r = np.random.default_rng(seed)
            cfg = Configuration(r.uniform(size=(300, 2)))
            g = radius_graph(cfg, 0.14)
            ordering = find_trilaterative_ordering(g, 2)
            if ordering is not None:
                assert verify_trilaterative_ordering(g, ordering)
                found += 1
        assert found >= 4

    def test_monotone_under_edge_addition(self):
        rng = np.random.default_rng(1)
        cfg = Configuration(rng.uniform(size=(60, 2)))
        g = radius_graph(cfg, 0.3)
        assert find_trilaterative_ordering(g, 2) is not None
        extra = list(zip(g.ei.tolist(), g.ej.tolist(), g.weights.tolist()))
        existing = {(i, j) for i, j, _ in extra}
        added = 0
        while added < 10:
            i, j = sorted(rng.integers(0, 60, size=2).tolist())
            if i != j and (i, j) not in existing:
                extra.append((i, j, float(rng.uniform(0.1, 1.0))))
                existing.add((i, j))
                added += 1
        g2 = DissimilarityGraph(60, extra)
        assert find_trilaterative_ordering(g2, 2) is not None

    def test_seed_cap_warns_and_returns_none(self, monkeypatch):
        # Two components: a triangle on low indices that cannot close over
        # the K5, and a K5 that could. A cap of 1 exhausts enumeration at the
        # triangle, so the search gives up with a warning.
        tri = [(0, 1, 1.0), (1, 2, 1.0), (0, 2, 1.0)]
        k5 = [
            (i, j, 1.0) for i in range(3, 8) for j in range(i + 1, 8)
        ]
        bridge = [(2, 3, 1.0)]
        g = DissimilarityGraph(8, tri + k5 + bridge)
        with monkeypatch.context() as m:
            m.setattr(rigidity_module, "DEFAULT_SEED_CLIQUE_CAP", 1)
            with pytest.warns(UserWarning, match="cap"):
                assert find_trilaterative_ordering(g, 2) is None
        found = find_trilaterative_ordering(g, 2)
        assert found is None or verify_trilaterative_ordering(g, found)

    def test_disconnected_graph_has_none_without_a_cap_warning(self, monkeypatch):
        # Two disjoint K4s: no closure crosses components, so the search
        # stops before enumerating seeds, even under a cap of 1.
        k4 = [(i, j, 1.0) for i in range(4) for j in range(i + 1, 4)]
        g = DissimilarityGraph(8, k4 + [(i + 4, j + 4, w) for i, j, w in k4])
        monkeypatch.setattr(rigidity_module, "DEFAULT_SEED_CLIQUE_CAP", 1)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert find_trilaterative_ordering(g, 2) is None

    def test_skips_seed_that_violates_triangle_inequality(self, rng):
        # Exact distances on six points, except that d(1, 2) exceeds
        # d(0, 1) + d(0, 2): classical scaling puts the first seed clique
        # (0, 1, 2) on a line, from which node 3 cannot be trilaterated.
        pts = rng.uniform(size=(6, 2))
        D = np.linalg.norm(pts[:, None] - pts[None], axis=2)
        D[1, 2] = D[2, 1] = 1.5 * (D[0, 1] + D[0, 2])
        g = DissimilarityGraph(6, [(i, j, D[i, j]) for i in range(6) for j in range(i + 1, 6)])
        with pytest.raises(DegenerateGeometryError):
            sequential_trilateration(g, TrilaterativeOrdering(p=2, order=(0, 1, 2, 3, 4, 5)), 2)
        ordering = find_trilaterative_ordering(g, 2)
        assert ordering.seed_clique == (0, 1, 3)
        assert verify_trilaterative_ordering(g, ordering)
        assert np.isfinite(sequential_trilateration(g, ordering, 2).points).all()

    def test_verifier_rejects_bogus_ordering(self):
        g = path_graph(4)
        bogus = TrilaterativeOrdering(p=1, order=(0, 2, 1, 3))
        assert not verify_trilaterative_ordering(g, bogus)


@hst.composite
def rigidity_cases(draw):
    """``(graph, p)``: a radius or k-NN graph on 3-40 random points in p dimensions.

    Some graphs have zero weights (which can make a seed clique rank-deficient),
    and some are split into two halves with no edge between them.
    """
    p = draw(hst.integers(1, 3))
    n = draw(hst.integers(p + 2, 40))
    r = np.random.default_rng(draw(hst.integers(0, 2**32 - 1)))
    cfg = Configuration(r.uniform(size=(n, p)))
    if draw(hst.booleans()):
        g = radius_graph(cfg, draw(hst.sampled_from([0.4, 0.6, 0.8, 1.2])))
    else:
        g = knn_graph(cfg, draw(hst.integers(min(p + 1, n - 1), min(12, n - 1))))
    w = g.weights.copy()
    w[r.uniform(size=w.size) < draw(hst.sampled_from([0.0, 0.0, 0.05, 0.3]))] = 0.0
    keep = np.ones(w.size, dtype=bool)
    if draw(hst.sampled_from([False, False, False, True])):
        keep = (g.ei < n // 2) == (g.ej < n // 2)
    return DissimilarityGraph(n, (g.ei[keep], g.ej[keep], w[keep])), p


class TestAgainstSetOracles:
    """The CSR traversals against the set-based loops they replaced."""

    @settings(max_examples=100, deadline=None)
    @given(case=rigidity_cases(), seed=hst.integers(0, 2**32 - 1))
    def test_clique_prefixes_and_closures(self, case, seed):
        g, p = case
        adj, sets = g._adj_csr(), oracles.adjacency_sets(g)
        for size in (2, 3, 4):
            got = list(islice(rigidity_module._cliques(adj, size), 40))
            assert got == list(islice(oracles.cliques_sets(sets, size), 40))
        seeds = list(islice(rigidity_module._cliques(adj, p + 1), 10))
        seeds.append(tuple(np.random.default_rng(seed).permutation(g.n)[: p + 1].tolist()))
        for s in seeds:
            assert rigidity_module._greedy_closure(adj, s, p) == oracles.greedy_closure_loop(g, s, p)

    @settings(max_examples=100, deadline=None)
    @given(case=rigidity_cases(), cap=hst.sampled_from([1, 2, 5, rigidity_module.DEFAULT_SEED_CLIQUE_CAP]))
    def test_search_matches_oracle_under_the_cap(self, case, cap):
        g, p = case
        want, capped = oracles.find_ordering_loop(g, p, cap)
        with mock.patch.object(rigidity_module, "DEFAULT_SEED_CLIQUE_CAP", cap):
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                found = find_trilaterative_ordering(g, p)
        assert (None if found is None else found.order) == want
        assert [str(w.message) for w in caught] == (
            [f"seed-clique cap {cap} reached without a closing seed; an ordering may still exist"]
            if capped
            else []
        )
        event("capped" if capped else "found" if want else "none")

    @settings(max_examples=100, deadline=None)
    @given(case=rigidity_cases(), seed=hst.integers(0, 2**32 - 1))
    def test_verdicts_match_oracle(self, case, seed):
        g, p = case
        r = np.random.default_rng(seed)
        orders = [tuple(r.permutation(g.n).tolist()) for _ in range(3)]
        found = find_trilaterative_ordering(g, p)
        if found is not None:
            order = list(found.order)
            orders.append(tuple(order))
            # A later vertex moved ahead of its support, right after the seed.
            orders.append(tuple(order[: p + 1] + order[-1:] + order[p + 1 : -1]))
            # A seed missing an edge: its last vertex swapped with a later one
            # that misses some other seed vertex.
            seed_nbrs = [set(g.neighbors(v)[0].tolist()) for v in order[:p]]
            for k in range(p + 1, g.n):
                if any(order[k] not in nbrs for nbrs in seed_nbrs):
                    order[p], order[k] = order[k], order[p]
                    orders.append(tuple(order))
                    break
        verdicts = [verify_trilaterative_ordering(g, TrilaterativeOrdering(p=p, order=o)) for o in orders]
        assert verdicts == [oracles.verify_ordering_loop(g, o, p) for o in orders]
        event("ordering found" if found is not None else "no ordering")
        if found is not None:
            assert verdicts[3]
            if len(orders) == 6:
                assert not verdicts[5]


class TestSequentialTrilateration:
    def rgg(self, seed, n=120, r=0.25):
        rng = np.random.default_rng(seed)
        cfg = Configuration(rng.uniform(size=(n, 2)))
        g = radius_graph(cfg, r)
        return cfg, g

    def test_exact_recovery(self):
        cfg, g = self.rgg(seed=7)
        ordering = find_trilaterative_ordering(g, 2)
        assert ordering is not None
        out = sequential_trilateration(g, ordering, 2)
        assert aligned_error(out, cfg) <= 1e-6 * diameter(cfg)

    def test_error_grows_with_noise_but_constant_is_bounded(self):
        rng = np.random.default_rng(7)
        cfg = Configuration(rng.uniform(size=(120, 2)))
        g = radius_graph(cfg, 0.22)
        ordering = find_trilaterative_ordering(g, 2)
        assert ordering is not None
        ratios = {}
        errors = {}
        for delta in (0.01, 0.04):
            per_seed = []
            for seed in range(10):
                noisy = apply_multiplicative_noise(g, delta, seed=seed)
                out = sequential_trilateration(noisy, ordering, 2)
                err = aligned_error(out, cfg)
                eps_sq = ((2 * delta + delta**2) * g.weights**2) ** 2
                per_seed.append(err / eps_sq.sum())
            ratios[delta] = float(np.median(per_seed))
            errors[delta] = float(np.median(per_seed) * (((2 * delta + delta**2) * g.weights**2) ** 2).sum())
        assert errors[0.04] > errors[0.01]
        assert ratios[0.04] < 3 * ratios[0.01] and ratios[0.01] < 3 * ratios[0.04]

    def test_matches_per_node_public_trilaterate(self):
        cfg, g = self.rgg(seed=7)
        noisy = apply_multiplicative_noise(g, 0.05, seed=3)
        ordering = find_trilaterative_ordering(noisy, 2)
        assert ordering is not None
        out = sequential_trilateration(noisy, ordering, 2)
        want = oracles.sequential_trilateration_loop(noisy, ordering.order, 2)
        np.testing.assert_array_equal(out.points, want)

    def test_seed_clique_only_reduces_to_classical_scaling(self, rng):
        pts = rng.uniform(size=(3, 2))
        g = complete_graph(pts)
        ordering = TrilaterativeOrdering(p=2, order=(0, 1, 2))
        out = sequential_trilateration(g, ordering, 2)
        assert aligned_error(out, Configuration(pts)) <= 1e-9

    def test_missing_seed_edge_rejected(self):
        g = path_graph(3)
        ordering = TrilaterativeOrdering(p=1, order=(0, 2, 1))
        with pytest.raises(StressTuneError, match="seed"):
            sequential_trilateration(g, ordering, 1)

    def test_equivariance(self):
        cfg, g = self.rgg(seed=1, n=80, r=0.3)
        ordering = find_trilaterative_ordering(g, 2)
        assert ordering is not None
        move = RigidMap(rotation(0.4), np.array([1.0, -2.0]))
        moved_cfg = move.apply_configuration(cfg)
        g2 = radius_graph(moved_cfg, 0.3)
        # Same geometry, same graph: distances are rigid-invariant.
        np.testing.assert_allclose(g2.weights, g.weights, rtol=1e-9)
        out = sequential_trilateration(g, ordering, 2)
        out2 = sequential_trilateration(g2, ordering, 2)
        assert aligned_error(out2, out) <= 1e-7 * diameter(out)
