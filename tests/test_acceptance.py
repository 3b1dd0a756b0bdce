"""Release acceptance gate.

Each test here exercises one release criterion end to end at desk scale,
with pinned tolerances and asserted runtime caps, and finishes by printing
one PASS line with the measured margins (visible under ``pytest -s``).
Statistical criteria run a fixed battery of seeds and require a minimum
pass count, so a single unlucky draw cannot flip the gate.

The hop sweeps below run the stitching pipeline with both refinement stages
turned off: the hop radius modulates the *raw* stitched geometry, while a
convergent global refinement pulls every hop value into the same local
optimum and erases the signal the sweep is supposed to expose. The sweep's
stress ranking is computed on exactly what each hop value produced.
"""

import hashlib
import time

import numpy as np
import pytest
from scipy.optimize import minimize

from oracles import floyd_warshall_dense, law_of_cosines_km
from stresstune import (
    CityTable,
    Configuration,
    DenseSymmetricMatrix,
    DissimilarityGraph,
    EARTH_RADIUS_KM,
    add_gaussian_noise,
    aligned_error,
    all_pairs_shortest_paths,
    apply_multiplicative_noise,
    classical_scaling,
    default_radius,
    diameter,
    find_trilaterative_ordering,
    generate_shape,
    haversine_matrix,
    knn_graph,
    lift_s_surface,
    lift_swiss_roll,
    mds_d,
    radius_graph,
    rescale_to_unit,
    smacof_refine,
    sweep_hops,
    trilaterate,
    verify_trilaterative_ordering,
)
from stresstune.cli import main as cli_main
from stresstune.data import DomainShape

pytestmark = pytest.mark.gate


def _complete_graph(points: np.ndarray) -> DissimilarityGraph:
    n = len(points)
    d = np.sqrt(((points[:, None, :] - points[None, :, :]) ** 2).sum(axis=-1))
    triples = [(i, j, float(d[i, j])) for i in range(n) for j in range(i + 1, n)]
    return DissimilarityGraph(n, triples)


def test_c01_classical_scaling_exact_on_complete_distances():
    rng = np.random.default_rng(101)
    truth = Configuration(rng.uniform(0.0, 1.0, size=(50, 2)))
    pts = truth.points
    dist = np.sqrt(((pts[:, None, :] - pts[None, :, :]) ** 2).sum(axis=-1))
    t0 = time.perf_counter()
    embedding = classical_scaling(DenseSymmetricMatrix(dist), 2)
    elapsed = time.perf_counter() - t0
    err = aligned_error(embedding, truth)
    cap = 1e-8 * diameter(truth) ** 2
    assert err <= cap
    assert elapsed < 1.0
    print(f"PASS criterion 1: aligned error {err:.3e} <= {cap:.3e} ({elapsed * 1e3:.1f} ms)")


def test_c02_trilateration_exact_recovery():
    landmarks = Configuration(np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]))
    target = np.array([1.0, 1.0])
    d = np.linalg.norm(landmarks.points - target, axis=1)
    worst = float(np.linalg.norm(trilaterate(landmarks, d) - target))
    rng = np.random.default_rng(202)
    for case in range(100):
        p = 2 if case % 2 == 0 else 3
        m = p + 1 + int(rng.integers(0, 4))
        lm = Configuration(rng.normal(size=(m, p)))
        x = rng.normal(size=p)
        d = np.linalg.norm(lm.points - x, axis=1)
        worst = max(worst, float(np.linalg.norm(trilaterate(lm, d) - x)))
    assert worst <= 1e-8
    print(f"PASS criterion 2: worst per-point error {worst:.3e} <= 1e-8 over 101 cases")


def test_c03_smacof_stress_sequence_is_nonincreasing():
    t0 = time.perf_counter()
    worst_rise = -np.inf
    for seed in range(20):
        rng = np.random.default_rng(3000 + seed)
        pts = rng.uniform(0.0, 1.0, size=(100, 2))
        g = apply_multiplicative_noise(_complete_graph(pts), 0.1, seed=seed)
        start = Configuration(rng.normal(size=(100, 2)))
        _, history = smacof_refine(g, start, return_history=True)
        h = np.asarray(history)
        assert (h[1:] <= h[:-1] * (1.0 + 1e-12)).all()
        rises = (h[1:] - h[:-1]) / np.maximum(h[:-1], 1e-300)
        if rises.size:
            worst_rise = max(worst_rise, float(rises.max()))
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0
    print(
        f"PASS criterion 3: 20 seeded descents monotone, worst relative step "
        f"{worst_rise:.2e} <= 1e-12 ({elapsed:.1f} s)"
    )


def test_c04_floyd_warshall_matches_per_source_dijkstra():
    # Integer weights make every path length an exact float sum, so the dense
    # Floyd-Warshall reference (tests/oracles.py) and the library's per-source
    # Dijkstra must agree bit for bit, including the +inf placements on
    # disconnected pairs.
    finite = 0
    total = 0
    for seed in range(20):
        rng = np.random.default_rng(4000 + seed)
        pairs = [(i, j) for i in range(50) for j in range(i + 1, 50)]
        keep = rng.permutation(len(pairs))[:120]
        triples = [(*pairs[k], float(rng.integers(1, 10))) for k in keep]
        g = DissimilarityGraph(50, triples)
        fw = floyd_warshall_dense(g.n, g.ei, g.ej, g.weights)
        dj = all_pairs_shortest_paths(g).values
        assert np.array_equal(fw, dj)
        finite += int(np.isfinite(fw).sum())
        total += fw.size
    print(
        f"PASS criterion 4: 20 sparse graphs identical under both solvers "
        f"({finite}/{total} finite entries compared exactly)"
    )


def test_c05_trilaterative_ordering_detection_rate():
    t0 = time.perf_counter()
    found = 0
    for seed in range(20):
        rng = np.random.default_rng(seed)
        pts = Configuration(rng.uniform(0.0, 1.0, size=(2000, 2)))
        g = radius_graph(pts, 0.1)
        ordering = find_trilaterative_ordering(g, 2)
        if ordering is not None:
            assert verify_trilaterative_ordering(g, ordering)
            found += 1
    elapsed = time.perf_counter() - t0
    assert found >= 18
    assert elapsed < 60.0
    print(
        f"PASS criterion 5: ordering found and verified on {found}/20 seeds "
        f"({elapsed:.1f} s)"
    )


def _raw_stress_minimizer(g: DissimilarityGraph, start: Configuration) -> Configuration:
    """Locally minimize the squared-difference stress with analytic gradients."""
    ei, ej, d2 = g.ei, g.ej, g.weights**2
    n = g.n

    def objective(flat):
        y = flat.reshape(n, 2)
        diff = y[ei] - y[ej]
        resid = np.einsum("ij,ij->i", diff, diff) - d2
        grad = np.zeros_like(y)
        np.add.at(grad, ei, (4.0 * resid)[:, None] * diff)
        np.add.at(grad, ej, (-4.0 * resid)[:, None] * diff)
        return float(np.sum(resid**2)), grad.ravel()

    result = minimize(
        objective,
        start.points.ravel(),
        jac=True,
        method="L-BFGS-B",
        options={"maxiter": 2000, "gtol": 1e-12, "ftol": 1e-16},
    )
    return Configuration(result.x.reshape(n, 2))


def test_c06_stress_minimizer_error_scales_with_noise_energy():
    # The stability claim under test: on a graph that admits a trilaterative
    # ordering, a stress minimizer's aligned error stays within a constant
    # multiple of the noise energy sum((d_ij^2 - w_ij^2)^2), so the ratio of
    # the two should not drift as the noise rate changes.
    t0 = time.perf_counter()
    rng = np.random.default_rng(42)
    pts = Configuration(rng.uniform(0.0, 1.0, size=(500, 2)))
    g = radius_graph(pts, 0.12)
    ordering = find_trilaterative_ordering(g, 2)
    assert ordering is not None and verify_trilaterative_ordering(g, ordering)
    medians = {}
    for delta in (0.01, 0.02, 0.04):
        ratios = []
        for noise_seed in range(10):
            gn = apply_multiplicative_noise(g, delta, seed=noise_seed)
            minimizer = _raw_stress_minimizer(gn, mds_d(gn, 2))
            noise_energy = float(np.sum((gn.weights**2 - g.weights**2) ** 2))
            ratios.append(aligned_error(minimizer, pts) / noise_energy)
        medians[delta] = float(np.median(ratios))
    elapsed = time.perf_counter() - t0
    spread = max(medians.values()) / min(medians.values())
    assert spread < 3.0
    assert elapsed < 60.0
    shown = {d: round(v, 3) for d, v in medians.items()}
    print(
        f"PASS criterion 6: median error/noise-energy {shown}, spread factor "
        f"{spread:.3f} < 3 ({elapsed:.1f} s)"
    )


def test_c07_hollow_rectangle_hop_sweep_bias_variance():
    t0 = time.perf_counter()
    hs = [1, 2, 3, 5, 10, 15]
    interior = 0
    selected_ok = 0
    for seed in range(10):
        cfg = generate_shape(DomainShape.named("hollow_rectangle"), 1200, seed=seed)
        g = apply_multiplicative_noise(knn_graph(cfg, 15), 0.15, seed=seed + 1000)
        report = sweep_hops(
            g, 2, hs, truth=cfg, refine_patches=False, final_refine=False
        )
        rows = [r for r in report.rows if not r.failed]
        best = min(rows, key=lambda r: r.embedding_error)
        if best.h not in (1, 15):
            interior += 1
        if report.selected_row.embedding_error <= 1.5 * best.embedding_error:
            selected_ok += 1
    elapsed = time.perf_counter() - t0
    assert interior >= 7
    assert selected_ok >= 8
    assert elapsed < 600.0
    print(
        f"PASS criterion 7: interior error minimum {interior}/10, stress pick "
        f"within 1.5x of best {selected_ok}/10 ({elapsed:.0f} s)"
    )


def test_c08_convex_rectangle_large_hops_beat_single_hop():
    t0 = time.perf_counter()
    hs = [1, 2, 3, 5, 10]
    wins = 0
    for seed in range(10):
        cfg = generate_shape(DomainShape.named("rectangle"), 1200, seed=seed)
        g = apply_multiplicative_noise(knn_graph(cfg, 15), 0.15, seed=seed + 1000)
        report = sweep_hops(
            g, 2, hs, truth=cfg, refine_patches=False, final_refine=False
        )
        top = report.row(10)
        base = report.row(1)
        if not top.failed and (base.failed or top.embedding_error <= base.embedding_error):
            wins += 1
    elapsed = time.perf_counter() - t0
    assert wins >= 8
    assert elapsed < 600.0
    print(f"PASS criterion 8: error(h=10) <= error(h=1) on {wins}/10 seeds ({elapsed:.0f} s)")


def test_c09_heavy_noise_shrinks_selected_embedding():
    t0 = time.perf_counter()
    hs = [1, 2, 3, 5, 10, 15]
    shrunk = 0
    for seed in range(10):
        cfg = generate_shape(DomainShape.named("h_shape"), 1200, seed=seed)
        g = apply_multiplicative_noise(knn_graph(cfg, 15), 0.4, seed=seed + 1000)
        report = sweep_hops(
            g, 2, hs, truth=cfg, refine_patches=False, final_refine=False
        )
        if report.selected_row.scale_ratio < 1.0:
            shrunk += 1
    elapsed = time.perf_counter() - t0
    assert shrunk >= 8
    assert elapsed < 600.0
    print(f"PASS criterion 9: scale ratio < 1 at selected hop on {shrunk}/10 seeds ({elapsed:.0f} s)")


def _lifted_sweep_ratio(kind: str, hs, seed: int) -> float:
    cfg2d = generate_shape(DomainShape.named("hollow_rectangle"), 1200, seed=seed)
    if kind == "s":
        planar = rescale_to_unit(cfg2d, center=True)
        lifted = lift_s_surface(planar, alpha=10.0)
    else:
        planar = rescale_to_unit(cfg2d, center=False)
        lifted = lift_swiss_roll(planar, alpha=50.0)
    points3d = add_gaussian_noise(lifted, 0.005, seed=seed + 2000)
    g = radius_graph(points3d, default_radius(points3d))
    report = sweep_hops(
        g, 2, hs, truth=planar, refine_patches=False, final_refine=False
    )
    rows = [r for r in report.rows if not r.failed]
    best = min(r.embedding_error for r in rows)
    return report.selected_row.embedding_error / best


def test_c10a_s_surface_unroll_stress_selection():
    t0 = time.perf_counter()
    ok = sum(_lifted_sweep_ratio("s", [1, 2, 5, 10, 15], seed) <= 1.5 for seed in range(10))
    elapsed = time.perf_counter() - t0
    assert ok >= 8
    assert elapsed < 600.0
    print(f"PASS criterion 10a: S-surface stress pick within 1.5x of best on {ok}/10 seeds ({elapsed:.0f} s)")


def test_c10b_swiss_roll_unroll_stress_selection():
    t0 = time.perf_counter()
    ok = sum(_lifted_sweep_ratio("swiss", [2, 5, 10, 15, 20], seed) <= 1.5 for seed in range(10))
    elapsed = time.perf_counter() - t0
    assert ok >= 8
    assert elapsed < 600.0
    print(f"PASS criterion 10b: Swiss-roll stress pick within 1.5x of best on {ok}/10 seeds ({elapsed:.0f} s)")


def test_c11_haversine_against_great_circle_oracle():
    antipodal = CityTable(("a", "b"), np.array([0.0, 0.0]), np.array([0.0, 180.0]))
    half = np.pi * EARTH_RADIUS_KM
    got = haversine_matrix(antipodal).values[0, 1]
    assert abs(got - half) <= 1e-6 * half
    rng = np.random.default_rng(11)
    worst = 0.0
    for _ in range(20):
        lat = rng.uniform(-80.0, 80.0, size=2)
        lon = rng.uniform(-180.0, 180.0, size=2)
        ours = haversine_matrix(CityTable(("p", "q"), lat, lon)).values[0, 1]
        ref = law_of_cosines_km(lat[0], lon[0], lat[1], lon[1], EARTH_RADIUS_KM)
        worst = max(worst, abs(ours - ref) / ref)
    assert worst <= 1e-3
    print(
        f"PASS criterion 11: antipodal exact to {abs(got - half):.2e} km, worst "
        f"pair deviation {worst:.2e} <= 1e-3"
    )


def test_c12_seeded_cli_pipelines_rerun_byte_identical(tmp_path):
    cities_csv = tmp_path / "cities.csv"
    cities_csv.write_text(
        "city,lat,lng\n"
        "alpha,37.7749,-122.4194\n"
        "bravo,34.0522,-118.2437\n"
        "charlie,36.1699,-115.1398\n"
        "delta,32.7157,-117.1611\n",
        encoding="utf-8",
    )
    commands = [
        ["generate", "--shape", "hollow", "--n", "150", "--k", "8", "--sigma", "0.1",
         "--seed", "3", "--out", str(tmp_path / "gen")],
        ["generate", "--manifold", "swiss", "--n", "120", "--noise3d", "0.005",
         "--seed", "5", "--out", str(tmp_path / "gen3d")],
        ["sweep", "--graph", str(tmp_path / "gen" / "graph.csv"),
         "--truth", str(tmp_path / "gen" / "config.csv"), "--p", "2", "--hops", "1,2,3",
         "--no-patch-refine", "--no-final-refine", "--out", str(tmp_path / "sweep")],
        ["embed", "--method", "mdsd", "--graph", str(tmp_path / "gen" / "graph.csv"),
         "--out", str(tmp_path / "emb")],
        ["align", "--embedding", str(tmp_path / "emb" / "embedding.csv"),
         "--truth", str(tmp_path / "gen" / "config.csv"), "--out", str(tmp_path / "ali")],
        ["cities", "--csv", str(cities_csv), "--k", "2", "--out", str(tmp_path / "city")],
    ]

    def run_all() -> dict:
        for cmd in commands:
            assert cli_main(cmd) == 0
        return {
            str(p.relative_to(tmp_path)): hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(tmp_path.rglob("*"))
            if p.is_file() and p.suffix in {".csv", ".json", ".svg"}
        }

    first = run_all()
    second = run_all()
    assert first == second
    assert len(first) >= 15
    print(f"PASS criterion 12: {len(first)} artifacts byte-identical across reruns")
