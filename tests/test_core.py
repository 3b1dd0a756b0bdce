import csv
import os
import pickle
import pkgutil
import tracemalloc
from dataclasses import fields, is_dataclass
from importlib import import_module
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst
from scipy.sparse.linalg import ArpackNoConvergence

import oracles
import stresstune
import stresstune.core as core_module
import stresstune.embed as embed_module
from stresstune import (
    AlignmentReport,
    CityTable,
    Configuration,
    DenseSymmetricMatrix,
    DissimilarityGraph,
    GlobalMap,
    RigidMap,
    StressTuneError,
    SweepReport,
    SweepRow,
    TrilaterativeOrdering,
    affine_rank,
    all_pairs_shortest_paths,
    classical_scaling,
    complete_noiseless_stress,
    haversine_matrix,
    knn_graph,
    mds_d,
    read_configuration_csv,
    strain,
    write_configuration_csv,
)
from stresstune.core import (
    EigenSolverError,
    _DENSE_EIGH_MAX_ORDER,
    _double_center_array,
    _physical_memory_bytes,
    _symmetrize_in_place,
    _top_eigenpairs_array,
    _Value,
)
from stresstune.data import DomainShape
from stresstune.embed import _classical_scaling_array
from stresstune.tune import _edge_sq_dists
from conftest import block_budget, malformed_csv


class TestConfiguration:
    def test_shape_and_read_only(self):
        cfg = Configuration([[1.0, 2.0], [3.0, 4.0]])
        assert (cfg.n, cfg.p) == (2, 2)
        with pytest.raises(ValueError):
            cfg.points[0, 0] = 9.0

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            Configuration(np.zeros((0, 2)))
        with pytest.raises(ValueError):
            Configuration(np.zeros(3))
        with pytest.raises(ValueError):
            Configuration([[np.nan, 0.0]])


_ROW = SweepRow(h=2, stress=1.5, stress_per_edge=0.5, embedding_error=None,
               scale_ratio=None, wall_time_s=None, failed=False)

# One instance of each frozen value type of the package.
FROZEN_VALUES = [
    Configuration(np.ones((3, 2))),
    DenseSymmetricMatrix(np.eye(3), allow_infinite=True),
    RigidMap(np.eye(2), np.ones(2)),
    GlobalMap(np.ones((3, 2)), ((0, 0),)),
    CityTable(("a", "b"), np.zeros(2), np.ones(2)),
    DomainShape("square", ((0.0, 1.0, 0.0, 1.0),), ((0.25, 0.5, 0.25, 0.5),)),
    TrilaterativeOrdering(2, (2, 0, 1, 3)),
    _ROW,
    SweepReport((_ROW,)),
    AlignmentReport(error=0.25, normalized_rmse=0.125),
]


def _same(a, b) -> bool:
    return np.array_equal(a, b) if isinstance(a, np.ndarray) else a == b


class TestPickling:
    def test_every_frozen_dataclass_is_a_value_type(self):
        found = set()
        for info in pkgutil.iter_modules(stresstune.__path__, "stresstune."):
            for obj in vars(import_module(info.name)).values():
                if isinstance(obj, type) and is_dataclass(obj) and obj.__dataclass_params__.frozen:
                    found.add(obj)
        assert found == {type(v) for v in FROZEN_VALUES}
        assert all(issubclass(cls, _Value) for cls in found)

    @pytest.mark.parametrize("value", FROZEN_VALUES, ids=lambda v: type(v).__name__)
    def test_reduce_names_the_type_and_its_field_values(self, value):
        cls, args = value.__reduce__()
        assert cls is type(value)
        assert len(args) == len(fields(value))
        assert all(arg is getattr(value, f.name) for arg, f in zip(args, fields(value)))
        copy = pickle.loads(pickle.dumps(value))
        assert type(copy) is type(value)
        for f in fields(value):
            assert _same(getattr(copy, f.name), getattr(value, f.name))
            if isinstance(getattr(value, f.name), np.ndarray):
                assert not getattr(copy, f.name).flags.writeable

    def test_a_sweep_row_is_validated_when_unpickled(self):
        # A worker's rows cross back by pickle; one that breaks the row's
        # contract is refused on arrival, not trusted.
        row = SweepRow(h=1, stress=None, stress_per_edge=None, embedding_error=None,
                       scale_ratio=None, wall_time_s=None, failed=True)
        object.__setattr__(row, "stress", 2.0)
        with pytest.raises(ValueError, match="failed rows"):
            pickle.loads(pickle.dumps(row))

    def test_value_types_come_back_validated_and_read_only(self):
        g = DissimilarityGraph(3, [(1, 0, 1.0), (1, 2, 2.0)])
        assert g._adj_csr() is g._adj
        cases = [
            (Configuration(np.ones((3, 2))), ["points"]),
            (DenseSymmetricMatrix(np.eye(3)), ["values"]),
            (RigidMap(np.eye(2), np.ones(2)), ["Q", "t"]),
            (g, ["ei", "ej", "weights"]),
            (GlobalMap(np.ones((3, 2)), ((0, 0),)), ["coords"]),
            (CityTable(("a", "b"), np.zeros(2), np.ones(2)), ["lat", "lon"]),
        ]
        for value, arrays in cases:
            copy = pickle.loads(pickle.dumps(value))
            assert type(copy) is type(value)
            for name in arrays:
                assert np.array_equal(getattr(copy, name), getattr(value, name))
                assert not getattr(copy, name).flags.writeable
        # The graph's lazily built CSR adjacency stays behind.
        assert pickle.loads(pickle.dumps(g))._adj is None


class TestDenseSymmetricMatrix:
    def test_rejects_asymmetry_beyond_tolerance(self):
        m = np.array([[0.0, 1.0], [1.0 + 1e-11, 0.0]])
        with pytest.raises(ValueError):
            DenseSymmetricMatrix(m)

    def test_accepts_tiny_asymmetry(self):
        m = np.array([[0.0, 1.0], [1.0 + 1e-13, 0.0]])
        assert DenseSymmetricMatrix(m).order == 2

    def test_infinite_entries_gated_by_flag(self):
        m = np.array([[0.0, np.inf], [np.inf, 0.0]])
        with pytest.raises(ValueError):
            DenseSymmetricMatrix(m)
        assert DenseSymmetricMatrix(m, allow_infinite=True).order == 2

    def test_rejects_nan_always(self):
        m = np.array([[0.0, np.nan], [np.nan, 0.0]])
        with pytest.raises(ValueError):
            DenseSymmetricMatrix(m, allow_infinite=True)

    @settings(max_examples=150, deadline=None)
    @given(
        seed=hst.integers(0, 2**32 - 1),
        n=hst.integers(1, 24),
        rows=hst.integers(1, 8),
        allow_infinite=hst.booleans(),
        flaws=hst.lists(hst.sampled_from(["nan", "-inf", "inf", "inf pair", "gap", "tiny gap"]), max_size=3),
    )
    def test_row_blocks_match_whole_matrix_checks(self, seed, n, rows, allow_infinite, flaws):
        # Blocks of 1-8 rows put the flaws in different blocks, so the first
        # block met must not decide which error is raised, and the max gap
        # is taken over every block.
        r = np.random.default_rng(seed)
        m = r.standard_normal((n, n))
        A = (m + m.T) / 2
        for flaw in flaws:
            i, j = r.integers(n, size=2)
            if flaw == "nan":
                A[i, j] = np.nan
            elif flaw == "-inf":
                A[i, j] = -np.inf
            elif flaw == "inf":
                A[i, j] = np.inf
            elif flaw == "inf pair":
                A[i, j] = A[j, i] = np.inf
            elif flaw == "gap":
                A[i, j] += 10.0 ** r.integers(-11, 1)
            else:
                A[i, j] += 1e-13
        want = oracles.symmetric_matrix_error(A, allow_infinite)
        with block_budget(n, rows):
            if want is None:
                assert bits(DenseSymmetricMatrix(A, allow_infinite).values) == bits(A)
            else:
                with pytest.raises(ValueError) as exc:
                    DenseSymmetricMatrix(A, allow_infinite)
                assert str(exc.value) == want


class TestRigidMap:
    def test_apply_rotation_and_shift(self):
        Q = np.array([[0.0, -1.0], [1.0, 0.0]])
        t = np.array([3.0, -1.0])
        out = RigidMap(Q, t).apply(np.array([[1.0, 0.0]]))
        np.testing.assert_allclose(out, [[3.0, 0.0]])

    def test_orthogonality_enforced(self):
        with pytest.raises(ValueError):
            RigidMap(np.array([[1.0, 0.5], [0.0, 1.0]]), np.zeros(2))

    def test_reflection_flag_enforced(self):
        mirror = np.array([[1.0, 0.0], [0.0, -1.0]])
        assert RigidMap(mirror, np.zeros(2)).p == 2


def all_pair_sq_dists(points) -> np.ndarray:
    """Squared distances of every pair ``i < j``, from the kernel that stress sums."""
    X = np.asarray(points, dtype=np.float64)
    iu, ju = np.triu_indices(X.shape[0], k=1)
    return _edge_sq_dists(X, iu, ju)


class TestPairwiseSqDistances:
    def test_three_four_five_triangle(self):
        np.testing.assert_array_equal(all_pair_sq_dists([[0.0, 0.0], [3.0, 4.0]]), [25.0])

    def test_single_point(self):
        assert all_pair_sq_dists([[2.0, 7.0]]).size == 0

    def test_matches_double_loop(self, rng):
        pts = rng.standard_normal((5, 2))
        want = oracles.sq_dist_double_loop(pts)[np.triu_indices(5, k=1)]
        np.testing.assert_allclose(all_pair_sq_dists(pts), want, atol=1e-12)

    def test_rigid_invariance(self, rng):
        pts = rng.standard_normal((8, 3))
        Q, _ = np.linalg.qr(rng.standard_normal((3, 3)))
        moved = pts @ Q.T + rng.standard_normal(3)
        np.testing.assert_allclose(all_pair_sq_dists(moved), all_pair_sq_dists(pts), rtol=1e-9, atol=1e-12)


class TestDoubleCenter:
    def test_constant_matrix_goes_to_zero(self):
        out = _double_center_array(np.full((4, 4), 3.7))
        np.testing.assert_allclose(out, 0.0, atol=1e-12)

    def test_idempotent(self, rng):
        m = rng.standard_normal((6, 6))
        once = _double_center_array((m + m.T) / 2)
        twice = _double_center_array(once.copy())
        np.testing.assert_allclose(twice, once, atol=1e-12)

    def test_hand_three_by_three(self):
        # Hand evaluation of b_ij = a_ij - rowmean_i - rowmean_j + grand mean
        # on [[0,1,4],[1,0,1],[4,1,0]]: row means (5/3, 2/3, 5/3), grand 4/3.
        out = _double_center_array(np.array([[0.0, 1.0, 4.0], [1.0, 0.0, 1.0], [4.0, 1.0, 0.0]]))
        np.testing.assert_allclose(out, [[-2.0, 0.0, 2.0], [0.0, 0.0, 0.0], [2.0, 0.0, -2.0]], atol=1e-12)
        assert np.abs(out.sum(axis=0)).max() < 1e-12

    def test_gram_from_realizable_distances_is_psd(self, rng):
        pts = rng.standard_normal((12, 3))
        B = _double_center_array(-0.5 * oracles.sq_dist_double_loop(pts))
        evals = np.linalg.eigvalsh(B)
        norm = np.abs(evals).max()
        assert evals.min() >= -1e-8 * norm


def bits(a: np.ndarray) -> bytes:
    return np.ascontiguousarray(a).tobytes()


def draw_matrix(seed: int, n: int, inf_share: float = 0.0) -> np.ndarray:
    """An asymmetric n x n float matrix, a share of whose entries is ``+inf``."""
    r = np.random.default_rng(seed)
    W = r.standard_normal((n, n)) * 10.0 ** r.integers(-3, 4, size=(n, n))
    W[r.uniform(size=(n, n)) < inf_share] = np.inf
    return W


class TestInPlaceKernels:
    """The in-place row-block kernels against their out-of-place oracles, bit for bit.

    Blocks of 1-8 rows make most orders span several blocks, the last one
    partial.
    """

    @settings(max_examples=100, deadline=None)
    @given(seed=hst.integers(0, 2**32 - 1), n=hst.integers(1, 40), rows=hst.integers(1, 8),
           inf_share=hst.sampled_from([0.0, 0.1, 0.5, 1.0]))
    def test_min_symmetrization_matches_oracle(self, seed, n, rows, inf_share):
        W = draw_matrix(seed, n, inf_share)
        with block_budget(n, rows):
            got = _symmetrize_in_place(W.copy(), np.minimum)
        assert bits(got) == bits(oracles.symmetrize_min(W))

    @settings(max_examples=100, deadline=None)
    @given(seed=hst.integers(0, 2**32 - 1), n=hst.integers(1, 40), rows=hst.integers(1, 8))
    def test_double_centring_matches_oracle(self, seed, n, rows):
        A = draw_matrix(seed, n)
        with block_budget(n, rows):
            got = _double_center_array(A.copy())
        assert bits(got) == bits(oracles.double_center_out_of_place(A))

    @settings(max_examples=100, deadline=None)
    @given(seed=hst.integers(0, 2**32 - 1), n=hst.integers(2, 40), rows=hst.integers(1, 8))
    def test_classical_scaling_gram_matches_oracle_and_spares_input(self, seed, n, rows):
        r = np.random.default_rng(seed)
        X = r.standard_normal((n, 2))
        D = np.linalg.norm(X[:, None] - X[None], axis=2) * r.uniform(0.8, 1.2, size=(n, n))
        D = np.minimum(D, D.T)
        np.fill_diagonal(D, 0.0)
        D.setflags(write=False)
        before = bits(D)
        seen = []

        def spy(B, p):
            seen.append(B.copy())
            return _top_eigenpairs_array(B, p)

        with block_budget(n, rows), mock.patch.object(embed_module, "_top_eigenpairs_array", spy):
            _classical_scaling_array(D, 1)
        assert bits(D) == before
        assert bits(seen[0]) == bits(oracles.classical_scaling_gram(D))

    def test_default_budget_partial_last_block(self, rng):
        # 600 columns: the 2 MiB default holds 436 rows, so two blocks, the last partial.
        n = 600
        assert n % (core_module._DENSE_BLOCK_BYTES // (8 * n)) != 0
        W = rng.standard_normal((n, n))
        assert bits(_symmetrize_in_place(W.copy(), np.minimum)) == bits(oracles.symmetrize_min(W))
        assert bits(_double_center_array(W.copy())) == bits(oracles.double_center_out_of_place(W))


class TestDenseMemoryGuard:
    """Dense n x n steps refuse up front when they cannot fit in physical memory."""

    def test_probe_reads_physical_memory(self, monkeypatch):
        total = _physical_memory_bytes()
        assert total is None or total > 0
        monkeypatch.delattr(os, "sysconf")
        assert _physical_memory_bytes() is None

    def test_each_dense_step_refuses(self, monkeypatch):
        g = DissimilarityGraph(4, [(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0), (0, 3, 1.0)])
        D = all_pairs_shortest_paths(g)
        config = Configuration(np.arange(8.0).reshape(4, 2))
        cities = CityTable(names=("a", "b", "c", "d"), lat=[0.0, 1.0, 2.0, 3.0], lon=[0.0] * 4)
        steps = {
            "mds_d": lambda: mds_d(g, 2),
            "all_pairs_shortest_paths": lambda: all_pairs_shortest_paths(g),
            "classical_scaling": lambda: classical_scaling(D, 2),
            "complete_noiseless_stress": lambda: complete_noiseless_stress(config, config),
            "haversine_matrix": lambda: haversine_matrix(cities),
            "strain": lambda: strain(config, D),
        }
        # One dense 4 x 4 array is 128 bytes, more than the 100 installed.
        monkeypatch.setattr(core_module, "_physical_memory_bytes", lambda: 100)
        for step, call in steps.items():
            with pytest.raises(StressTuneError, match=rf"^{step} at n=4 needs at least .* GiB"):
                call()
        # Where the probe cannot tell, nothing is refused.
        monkeypatch.setattr(core_module, "_physical_memory_bytes", lambda: None)
        for call in steps.values():
            call()

    def test_shortest_paths_hold_the_two_arrays_the_guard_counts(self, rng):
        # The completion and the matrix's validated copy, plus row blocks of
        # checks; whole-matrix masks and gaps took 5.15 x 8n^2 here.
        g = knn_graph(Configuration(rng.uniform(size=(1260, 2))), 15)
        g._adj_csr()
        tracemalloc.start()
        try:
            all_pairs_shortest_paths(g)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 2.5 * 8 * g.n**2


class TestTopEigenpairs:
    def test_identity_spectrum(self):
        vals, vecs = _top_eigenpairs_array(np.eye(3), 2)
        np.testing.assert_allclose(vals, [1.0, 1.0])
        np.testing.assert_allclose(vecs.T @ vecs, np.eye(2), atol=1e-12)

    def test_diagonal_matrix(self):
        vals, vecs = _top_eigenpairs_array(np.diag([5.0, 2.0, 1.0]), 1)
        np.testing.assert_allclose(vals, [5.0])
        np.testing.assert_allclose(np.abs(vecs[:, 0]), [1.0, 0.0, 0.0], atol=1e-12)

    def test_residual_and_full_solver_agreement(self, rng):
        m = rng.standard_normal((6, 6))
        B = (m + m.T) / 2
        vals, vecs = _top_eigenpairs_array(B, 3)
        for k in range(3):
            assert np.linalg.norm(B @ vecs[:, k] - vals[k] * vecs[:, k]) < 1e-8
        full = np.sort(np.linalg.eigvalsh(B))[::-1]
        np.testing.assert_allclose(vals, full[:3], atol=1e-10)
        assert vals[0] >= vals[1] >= vals[2]

    def test_large_order_path_matches_full_solver(self, rng):
        n = _DENSE_EIGH_MAX_ORDER + 8
        m = rng.standard_normal((n, n))
        B = (m + m.T) / 2
        vals, vecs = _top_eigenpairs_array(B, 2)
        full = np.sort(np.linalg.eigvalsh(B))[::-1]
        np.testing.assert_allclose(vals, full[:2], atol=1e-8)
        for k in range(2):
            assert np.linalg.norm(B @ vecs[:, k] - vals[k] * vecs[:, k]) < 1e-8 * n


def canonical_signs(vecs: np.ndarray) -> np.ndarray:
    """Flip each column so its largest-magnitude entry (the first on ties) is positive."""
    out = vecs.copy()
    for c in range(out.shape[1]):
        col = out[:, c]
        peak = max(range(col.size), key=lambda i: (abs(col[i]), -i))
        if col[peak] < 0:
            out[:, c] = -col
    return out


class TestEigenpairDispatch:
    """Dense and Lanczos eigenpairs against a full dense ``eigh`` on both sides of the order switch."""

    T = _DENSE_EIGH_MAX_ORDER

    @staticmethod
    def noisy_distances(seed: int, k: int, p: int) -> np.ndarray:
        # Anisotropic points (axis scales 1, 1/2, 1/4) keep the top p
        # eigenvalues apart; 1% multiplicative noise keeps the rest small.
        r = np.random.default_rng(seed)
        X = r.standard_normal((k, p)) * 0.5 ** np.arange(p)
        D = np.linalg.norm(X[:, None] - X[None], axis=2)
        noise = 1.0 + 0.01 * r.standard_normal((k, k))
        D = D * (noise + noise.T) / 2
        np.fill_diagonal(D, 0.0)
        return D

    @settings(max_examples=30, deadline=None)
    @given(seed=hst.integers(0, 2**32 - 1), k=hst.sampled_from([T - 1, T, T + 1]), p=hst.integers(1, 3))
    def test_matches_dense_oracle(self, seed, k, p):
        D = self.noisy_distances(seed, k, p)
        B = oracles.classical_scaling_gram(D)
        vals, vecs = _top_eigenpairs_array(B, p)
        want_vals, want_vecs = oracles.top_eigenpairs_dense(B, p)
        np.testing.assert_allclose(vals, want_vals, rtol=1e-10)
        for c in range(p):
            np.testing.assert_allclose(
                np.outer(vecs[:, c], vecs[:, c]), np.outer(want_vecs[:, c], want_vecs[:, c]), atol=1e-8
            )
        # Classical scaling fixes the signs, so its output matches the oracle's
        # canonically signed eigenvectors whichever solver ran.
        Y = _classical_scaling_array(D, p)
        want = canonical_signs(want_vecs) * np.sqrt(want_vals)
        np.testing.assert_allclose(Y, want - want.mean(axis=0), atol=1e-8 * np.abs(want).max())

    def test_lanczos_start_is_fixed(self):
        # ARPACK's default random start advances with every call in the
        # process, which would make the last bits depend on earlier solves.
        D = self.noisy_distances(3, self.T + 40, 2)
        B = oracles.classical_scaling_gram(D)
        first = _top_eigenpairs_array(B, 2)
        _top_eigenpairs_array(B[:-5, :-5], 2)
        second = _top_eigenpairs_array(B, 2)
        np.testing.assert_array_equal(first[0], second[0])
        np.testing.assert_array_equal(first[1], second[1])

    def test_lanczos_no_convergence_is_eigensolver_error(self, monkeypatch):
        def stalled(*args, **kwargs):
            raise ArpackNoConvergence("ARPACK error -1: No convergence", np.zeros(0), np.zeros((0, 0)))

        monkeypatch.setattr(core_module, "eigsh", stalled)
        D = self.noisy_distances(0, self.T + 1, 2)
        with pytest.raises(EigenSolverError):
            _top_eigenpairs_array(-0.5 * D * D, 2)

    def test_dense_failure_is_eigensolver_error(self, monkeypatch):
        def failed(*args, **kwargs):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(np.linalg, "eigh", failed)
        with pytest.raises(EigenSolverError):
            _top_eigenpairs_array(np.eye(self.T), 2)


class TestAffineRank:
    def test_collinear_points(self):
        pts = np.array([[0.0, 0.0], [1.0, 1.0], [2.0, 2.0]])
        assert affine_rank(pts) == 1

    def test_generic_points(self, rng):
        assert affine_rank(rng.standard_normal((5, 2))) == 2

    def test_single_point(self):
        assert affine_rank(np.array([[3.0, 4.0]])) == 0


# Well-formed configuration fields for the fuzzing of read_configuration_csv.
_ID = hst.integers(0, 2).map(str)
_COORD = hst.floats(-10, 10).map(repr)


class TestConfigurationCsv:
    def test_round_trip_is_exact_and_byte_stable(self, tmp_path, rng):
        cfg = Configuration(rng.standard_normal((7, 3)))
        path = tmp_path / "config.csv"
        write_configuration_csv(cfg, path)
        back = read_configuration_csv(path)
        np.testing.assert_array_equal(back.points, cfg.points)
        first = path.read_bytes()
        write_configuration_csv(back, path)
        assert path.read_bytes() == first

    def test_header(self, tmp_path):
        path = tmp_path / "config.csv"
        write_configuration_csv(Configuration([[1.0, 2.0]]), path)
        assert path.read_text().splitlines()[0] == "id,x1,x2"

    def test_bad_ids_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("id,x1\n0,1.0\n2,2.0\n")
        with pytest.raises(ValueError):
            read_configuration_csv(path)

    def test_oversized_field_names_the_row(self, tmp_path):
        path = tmp_path / "config.csv"
        big = "1" * (csv.field_size_limit() + 1)
        for text, row in ((f"id,x1\n0,1.0\n1,{big}\n", 3), (f"id,{big}\n0,1.0\n", 1)):
            path.write_text(text)
            with pytest.raises(ValueError, match=f"row {row}: field larger than field limit"):
                read_configuration_csv(path)

    @settings(max_examples=300, deadline=None)
    @given(text=malformed_csv("id,x1,x2", [_ID, _COORD, _COORD]))
    def test_malformed_rows_return_a_configuration_or_raise_value_error(self, tmp_path_factory, text):
        path = tmp_path_factory.getbasetemp() / "fuzz_config.csv"
        path.write_text(text, newline="")
        try:
            config = read_configuration_csv(path)
        except ValueError:
            return
        assert isinstance(config, Configuration) and np.isfinite(config.points).all()


class TestPublicApi:
    def test_every_exported_name_resolves_once(self):
        import stresstune

        names = stresstune.__all__
        assert len(names) == len(set(names))
        missing = [name for name in names if not hasattr(stresstune, name)]
        assert missing == []
        namespace = {}
        exec("from stresstune import *", namespace)
        assert set(names) <= set(namespace)
