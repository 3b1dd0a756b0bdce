import hashlib
import json
import os
import re
import signal
import subprocess
import sys
import time
import tracemalloc
import warnings
from dataclasses import replace
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst

import oracles
import stresstune.core as core_module
from conftest import child_env, rotation
from stresstune import (
    Configuration,
    DisconnectedGraphError,
    DissimilarityGraph,
    RigidMap,
    StressTuneError,
    SweepReport,
    SweepRow,
    apply_multiplicative_noise,
    complete_noiseless_stress,
    generate_shape,
    knn_graph,
    noiseless_stress,
    stress,
    sweep_hops,
    tune,
    write_configuration_csv,
    write_edge_csv,
)
from stresstune.data import DomainShape
from stresstune.svgplot import sweep_chart


def complete_graph(points: np.ndarray) -> DissimilarityGraph:
    n = len(points)
    edges = [
        (i, j, float(np.linalg.norm(points[i] - points[j])))
        for i in range(n)
        for j in range(i + 1, n)
    ]
    return DissimilarityGraph(n, edges)


def scaled(g: DissimilarityGraph, factor: float) -> DissimilarityGraph:
    return DissimilarityGraph(g.n, (g.ei, g.ej, g.weights * factor))


class TestStress:
    def test_exact_realization_is_zero(self, rng):
        # Weights store sqrt(sum of squares), so squaring them back can be an
        # ulp from the direct squared distance; "zero" means machine-zero.
        pts = rng.uniform(size=(8, 2))
        assert stress(complete_graph(pts), Configuration(pts)) <= 1e-30
        g345 = DissimilarityGraph(2, [(0, 1, 5.0)])
        y345 = Configuration([[0.0, 0.0], [3.0, 4.0]])
        assert stress(g345, y345) == 0.0

    def test_single_edge_hand_value(self):
        g = DissimilarityGraph(2, [(0, 1, 1.0)])
        y = Configuration([[0.0, 0.0], [2.0, 0.0]])
        assert stress(g, y) == pytest.approx(9.0)  # (4 - 1)^2

    def test_matches_double_loop(self, rng):
        pts = rng.uniform(size=(10, 2))
        g = complete_graph(rng.uniform(size=(10, 2)))
        want = oracles.stress_double_loop(
            pts, zip(g.ei.tolist(), g.ej.tolist(), g.weights.tolist())
        )
        assert stress(g, Configuration(pts)) == pytest.approx(want, rel=1e-12)

    def test_rigid_invariance(self, rng):
        pts = rng.uniform(size=(9, 2))
        g = complete_graph(rng.uniform(size=(9, 2)))
        base = stress(g, Configuration(pts))
        move = RigidMap(rotation(2.2), np.array([4.0, 5.0]))
        moved = stress(g, move.apply_configuration(Configuration(pts)))
        assert moved == pytest.approx(base, rel=1e-9)

    def test_coverage_mismatch(self, rng):
        g = complete_graph(rng.uniform(size=(5, 2)))
        with pytest.raises(ValueError):
            stress(g, Configuration(rng.uniform(size=(4, 2))))

    def test_overflow_raises_naming_the_largest_dissimilarity(self, rng):
        # The stress is quartic in the dissimilarities: at 1e100 its terms
        # pass float64, and the sum would be inf (not valid JSON).
        pts = rng.uniform(size=(6, 2))
        g = scaled(complete_graph(pts), 1e100)
        largest = re.escape(f"(largest dissimilarity {g.weights.max():g})")
        with pytest.raises(StressTuneError, match=f"overflows float64 {largest}; rescale"):
            stress(g, Configuration(pts))


class TestNoiselessStress:
    def test_congruent_is_zero(self, rng):
        pts = rng.uniform(size=(7, 2))
        g = complete_graph(pts)
        moved = RigidMap(rotation(0.3), np.zeros(2)).apply_configuration(Configuration(pts))
        assert noiseless_stress(g, moved, Configuration(pts)) <= 1e-22

    def test_equals_stress_without_noise(self, rng):
        pts = rng.uniform(size=(8, 2))
        g = complete_graph(pts)
        y = Configuration(rng.uniform(size=(8, 2)))
        assert noiseless_stress(g, y, Configuration(pts)) == stress(g, y)

    def test_matches_direct_summation(self, rng):
        g = complete_graph(rng.uniform(size=(6, 2)))
        y = rng.uniform(size=(6, 2))
        x = rng.uniform(size=(6, 2))
        want = 0.0
        for i, j, _ in zip(g.ei.tolist(), g.ej.tolist(), g.weights.tolist()):
            dy = ((y[i] - y[j]) ** 2).sum()
            dx = ((x[i] - x[j]) ** 2).sum()
            want += (dy - dx) ** 2
        got = noiseless_stress(g, Configuration(y), Configuration(x))
        assert got == pytest.approx(want, rel=1e-12)


class TestCompleteNoiselessStress:
    def test_congruent_is_zero(self, rng):
        pts = rng.uniform(size=(7, 2))
        mirrored = Configuration(pts * np.array([-1.0, 1.0]))
        assert complete_noiseless_stress(mirrored, Configuration(pts)) <= 1e-22

    def test_displaced_point_direct_sum(self, rng):
        x = rng.uniform(size=(5, 2))
        y = x.copy()
        y[2] += [0.1, -0.2]
        want = 0.0
        for i in range(5):
            for j in range(i + 1, 5):
                dy = ((y[i] - y[j]) ** 2).sum()
                dx = ((x[i] - x[j]) ** 2).sum()
                want += (dy - dx) ** 2
        got = complete_noiseless_stress(Configuration(y), Configuration(x))
        assert got == pytest.approx(want, rel=1e-12)

    def test_guard_counts_the_traced_peak(self, rng, monkeypatch):
        # The pair indices, the two squared-distance vectors and their
        # difference: traced at 3.5 x 8n^2, under the guard's count of 4.
        n = 1000
        x, y = (Configuration(rng.uniform(size=(n, 2))) for _ in range(2))
        tracemalloc.start()
        try:
            complete_noiseless_stress(x, y)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 4 * 8 * n**2
        # A machine with no more memory than the traced peak is refused up front.
        monkeypatch.setattr(core_module, "_physical_memory_bytes", lambda: peak)
        with pytest.raises(StressTuneError, match="^complete_noiseless_stress at n=1000"):
            complete_noiseless_stress(x, y)

    def test_equals_edge_version_on_complete_graph(self, rng):
        pts = rng.uniform(size=(6, 2))
        g = complete_graph(pts)
        y = Configuration(rng.uniform(size=(6, 2)))
        a = complete_noiseless_stress(y, Configuration(pts))
        b = noiseless_stress(g, y, Configuration(pts))
        assert a == pytest.approx(b, rel=1e-12)


def old_or_none(call):
    """What the old stress function ``call`` returns, or None where it raised."""
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)  # the old noiseless sums warned
            return call()
    except StressTuneError:
        return None


SCALE_EXPONENTS = hst.one_of(hst.integers(-8, 8), hst.integers(-1080, 1020))


class TestPairStress:
    @settings(max_examples=200, deadline=None)
    @given(
        seed=hst.integers(0, 2**32 - 1),
        n=hst.integers(1, 7),
        p=hst.integers(1, 3),
        target_exp=SCALE_EXPONENTS,
        config_exp=SCALE_EXPONENTS,
        zero=hst.booleans(),
    )
    def test_old_bits_wherever_float64_holds_the_stress(self, seed, n, p, target_exp, config_exp, zero):
        # Targets and configurations at scales 2^-1080..2^1020. Where the old
        # sum is finite and the largest target is zero or at least
        # _STRESS_MIN_SCALE, the shared sum gives its bits; elsewhere it refuses.
        r = np.random.default_rng(seed)
        unit = r.uniform(size=(n, p)) * (not zero)
        truth = Configuration(np.ldexp(unit, target_exp))
        config = Configuration(np.ldexp(r.uniform(-1.0, 1.0, size=(n, p)), config_exp))
        unit_g = complete_graph(unit)
        g = DissimilarityGraph(n, (unit_g.ei, unit_g.ej, np.ldexp(unit_g.weights, target_exp)))
        iu, ju = np.triu_indices(n, k=1)
        largest_true = np.sqrt(oracles._edge_sq_dists(truth.points, iu, ju).max(initial=0.0))
        cases = [
            (lambda f: f(g, config), stress, oracles.stress, g.weights.max(initial=0.0)),
            (lambda f: f(g, config, truth), noiseless_stress, oracles.noiseless_stress, largest_true),
            (lambda f: f(config, truth), complete_noiseless_stress, oracles.complete_noiseless_stress,
             largest_true),
        ]
        for call, new, old, largest in cases:
            want = old_or_none(lambda: call(old))
            if want is not None and np.isfinite(want) and not 0.0 < largest < tune._STRESS_MIN_SCALE:
                assert call(new) == want
            else:
                with pytest.raises(StressTuneError, match=r"^the stress (over|under)flows float64 "
                                                          r"\(largest dissimilarity .*\); rescale"):
                    call(new)

    def test_underflow_names_the_largest_dissimilarity(self, rng):
        pts = rng.uniform(size=(6, 2))
        g = scaled(complete_graph(pts), 1e-100)
        largest = re.escape(f"(largest dissimilarity {g.weights.max():g})")
        with pytest.raises(StressTuneError, match=f"^the stress underflows float64 {largest}; rescale"):
            stress(g, Configuration(pts * 1e-100))
        # A subnormal dissimilarity squares to zero, and is refused all the same.
        tiny = DissimilarityGraph(2, [(0, 1, 5e-324)])
        with pytest.raises(StressTuneError, match=r"underflows float64 \(largest dissimilarity 4.94066e-324\)"):
            stress(tiny, Configuration(np.zeros((2, 1))))

    def test_all_zero_targets_are_not_refused(self, rng):
        pts = rng.uniform(size=(5, 2))
        g = scaled(complete_graph(pts), 0.0)
        y = Configuration(pts)
        assert stress(g, y) == oracles.stress(g, y) > 0.0
        zero = Configuration(np.zeros((5, 2)))
        assert noiseless_stress(g, zero, zero) == complete_noiseless_stress(zero, zero) == 0.0

    def test_noiseless_overflow_refused_instead_of_inf(self, rng):
        pts = rng.uniform(size=(6, 2))
        g = complete_graph(pts)
        huge = Configuration(pts * 1e100)
        for call in (lambda: noiseless_stress(g, Configuration(pts), huge),
                     lambda: complete_noiseless_stress(Configuration(pts), huge)):
            with pytest.raises(StressTuneError, match="^the stress overflows float64"):
                call()


class TestSweepRowAndReport:
    def make_report(self):
        rows = (
            SweepRow(h=1, stress=2.0, stress_per_edge=0.5, embedding_error=None,
                     scale_ratio=None, wall_time_s=0.1, failed=False),
            SweepRow(h=2, stress=1.0, stress_per_edge=0.25, embedding_error=None,
                     scale_ratio=None, wall_time_s=0.2, failed=False),
        )
        return SweepReport(rows=rows)

    def test_selected_h_must_minimize(self):
        # selected_h is derived from the rows, so no report can disagree with them.
        rows = self.make_report().rows
        assert SweepReport(rows=rows).selected_h == 2
        tied = SweepRow(h=3, stress=1.0, stress_per_edge=0.2, embedding_error=None,
                        scale_ratio=None, wall_time_s=None, failed=False)
        failed = SweepRow(h=4, stress=None, stress_per_edge=None, embedding_error=None,
                          scale_ratio=None, wall_time_s=None, failed=True)
        assert SweepReport(rows=(*rows, tied, failed)).selected_h == 2  # ties toward smaller h
        assert SweepReport(rows=(rows[0], failed)).selected_h == 1  # failed rows are never selected
        with pytest.raises(TypeError):
            SweepReport(rows=rows, selected_h=1)

    def test_failed_rows_carry_no_stress(self):
        with pytest.raises(ValueError):
            SweepRow(h=1, stress=1.0, stress_per_edge=1.0, embedding_error=None,
                     scale_ratio=None, wall_time_s=None, failed=True)
        row = SweepRow(h=1, stress=None, stress_per_edge=None, embedding_error=None,
                       scale_ratio=None, wall_time_s=None, failed=True)
        assert row.failed

    def test_json_schema(self):
        report = self.make_report()
        doc = json.loads(report.to_json())
        assert set(doc) == {"rows", "selected_h"}
        assert doc["selected_h"] == 2
        assert [r["h"] for r in doc["rows"]] == [1, 2]
        assert set(doc["rows"][0]) == {
            "h", "stress", "stress_per_edge", "embedding_error",
            "scale_ratio", "wall_time_s", "failed",
        }
        # Timings are suppressed unless explicitly requested, keeping reruns
        # byte-identical.
        assert doc["rows"][0]["wall_time_s"] is None
        timed = json.loads(report.to_json(include_timing=True))
        assert timed["rows"][0]["wall_time_s"] == 0.1

    def test_csv_schema(self):
        report = self.make_report()
        lines = report.to_csv().splitlines()
        assert lines[0] == "h,stress,stress_per_edge,embedding_error,scale_ratio,wall_time_s,failed"
        assert lines[1].startswith("1,2.0,0.5,,,")
        assert lines[1].endswith("false")

    def test_row_lookup(self):
        report = self.make_report()
        assert report.row(2).stress == 1.0
        assert report.selected_row.h == 2
        with pytest.raises(KeyError):
            report.row(3)


class TestArtifactBytes:
    """The renderers' bytes on fixed tiny inputs, pinned by SHA-256 digests.

    A one-character change to any renderer changes a digest. The inputs cover
    the chart with and without its error series and with one hop value (a flat
    scale on both axes), a report with a failed row, and CSV floats whose repr
    is easy to lose: ``-0.0``, ``1e-300`` and ``0.1``.
    """

    # A renderer change that moves any byte must update these on purpose.
    DIGESTS = {
        "chart_errors": "f8e1d44acb538c13bfbda2476acfd9b5b613f9bdc49bd60a81eba959dda20e39",
        "chart_stress": "d53ca65944c6f5eceb528f5e64b89217344237f946b42718a0ba0b9c5d5df957",
        "chart_one_h": "b29e6fff4900b86ffe18bd0e8e06d3dbee30cfa1b53890a4e78bc60fbf240bf0",
        "report_csv": "34b306e8fc8ff3d7d4b5bb469c734ca2736702d74cea0229f690a4728fb55b44",
        "report_csv_timed": "55b571c707c6c5febc86e32aac01bc55906a6ac1573cd75e51081ae74c91aaf2",
        "report_json": "f5a12054e65c0ea7ebfe86a73369e2ced3ecfe636cb49ee3bc2555b45855e773",
        "report_json_timed": "480ddd51e44b0cee241ab44c9f5f518f81b8aeaa0274f141dba22b78195e4177",
        "configuration_csv": "6ba851623f52acfbb2d2bf076662729dce38c37a060817e289122a101902200e",
        "edge_csv": "8f1c6d2324fa0b99a7e22f19aeb31a94050a39cdd24f2a683f86e8a07f68870c",
    }

    @staticmethod
    def render(tmp_path) -> dict[str, bytes]:
        hs, stresses, errors = [1, 2, 3, 5], [4.0, 1.5, 0.25, 2.0], [0.3, 0.1, 0.05, 0.2]
        report = SweepReport(rows=(
            SweepRow(h=1, stress=0.1, stress_per_edge=1e-300, embedding_error=-0.0,
                     scale_ratio=1.25, wall_time_s=0.5, failed=False),
            SweepRow(h=2, stress=None, stress_per_edge=None, embedding_error=None,
                     scale_ratio=None, wall_time_s=0.125, failed=True),
            SweepRow(h=3, stress=2.0, stress_per_edge=0.5, embedding_error=None,
                     scale_ratio=None, wall_time_s=None, failed=False),
        ))
        write_configuration_csv(Configuration([[-0.0, 1e-300], [0.1, 2.5]]), tmp_path / "c.csv")
        write_edge_csv(DissimilarityGraph(3, [(0, 1, 0.1), (1, 2, 1e-300), (0, 2, -0.0)]),
                       tmp_path / "g.csv")
        texts = {
            "chart_errors": sweep_chart(hs, stresses, errors=errors, title="t"),
            "chart_stress": sweep_chart(hs, stresses),
            "chart_one_h": sweep_chart([3], [1.0], errors=[0.5]),
            "report_csv": report.to_csv(),
            "report_csv_timed": report.to_csv(include_timing=True),
            "report_json": report.to_json(),
            "report_json_timed": report.to_json(include_timing=True),
        }
        return {
            **{name: text.encode() for name, text in texts.items()},
            "configuration_csv": (tmp_path / "c.csv").read_bytes(),
            "edge_csv": (tmp_path / "g.csv").read_bytes(),
        }

    def test_renderers_keep_their_bytes(self, tmp_path):
        digests = {name: hashlib.sha256(data).hexdigest() for name, data in self.render(tmp_path).items()}
        assert digests == self.DIGESTS


class TestFlatChart:
    @pytest.mark.parametrize("value", [1e16, 1e300, 10**20])
    def test_flat_series_sit_mid_axis(self, value):
        # From about 2**53 on, value - 0.5 and value + 0.5 round to one float.
        svg = sweep_chart([value], [value], errors=[value])
        assert svg.count('<circle cx="320" cy="202.5" r="3"') == 2
        assert "nan" not in svg and "inf" not in svg

    def test_flat_series_near_the_float_maximum_keeps_finite_ticks(self):
        # A sixteenth above 1.7e308 lies beyond float range.
        svg = sweep_chart([1], [1.7e308])
        labels = re.findall(r'font-size="11" font-family="sans-serif">([^<]*)</text>', svg)
        assert len(labels) == 10 and all(np.isfinite(float(label)) for label in labels)


class TestSweepHops:
    def test_complete_graph_ties_break_to_smallest_h(self, rng):
        # Every node is one hop from every other, so h=1 and h=2 run the same
        # pipeline and produce identical stress; the tie goes to h=1.
        pts = rng.uniform(size=(6, 2))
        g = complete_graph(pts)
        report = sweep_hops(g, 2, [1, 2])
        assert report.selected_h == 1
        assert report.row(1).stress == report.row(2).stress
        assert report.row(1).stress <= 1e-20

    def test_failed_h_is_marked_not_fatal(self):
        # h=1 patches on a path have only 2 nodes, too small for p=2;
        # h=3 saturates the graph and succeeds.
        g = DissimilarityGraph(4, [(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0)])
        report = sweep_hops(g, 2, [1, 3])
        assert report.row(1).failed
        assert not report.row(3).failed
        assert report.selected_h == 3

    def test_overflowing_stress_raises_instead_of_a_row(self):
        # Every hop value stitches, but no stress is representable: the sweep
        # fails rather than select an h among infinite stresses.
        truth = generate_shape(DomainShape.named("rectangle"), 80, seed=0)
        g = scaled(knn_graph(truth, 15), 1e100)
        assert g.n < tune._POOL_MIN_NODES
        with pytest.raises(StressTuneError, match="the stress overflows float64"):
            sweep_hops(g, 2, [1, 2, 3, 5], refine_patches=False, final_refine=False)

    def test_underflowing_stress_raises_instead_of_a_row(self):
        # Every term of every stress is about 1e-400: rather than select h by
        # tie-break among 0.0 stresses, the sweep fails.
        truth = generate_shape(DomainShape.named("rectangle"), 80, seed=0)
        g = scaled(knn_graph(truth, 15), 1e-100)
        with pytest.raises(StressTuneError, match=r"^the stress underflows float64 \(largest dissimilarity"):
            sweep_hops(g, 2, [1, 2, 3, 5], refine_patches=False, final_refine=False)

    def test_all_h_failing_raises(self):
        g = DissimilarityGraph(4, [(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0)])
        with pytest.raises(StressTuneError):
            sweep_hops(g, 2, [1])

    def test_all_h_failing_names_each_cause_with_its_hop_values(self, monkeypatch):
        def failing(g, h, p, **kwargs):
            raise StressTuneError("odd h" if h % 2 else "even h")

        monkeypatch.setattr(tune, "mds_map_p", failing)
        g = DissimilarityGraph(4, [(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0)])
        with pytest.raises(StressTuneError) as exc:
            sweep_hops(g, 2, [3, 1, 2])
        # Causes in the order of their smallest hop value, each with all of its own.
        assert str(exc.value) == "every swept hop value failed: [1, 2, 3]; h=1, 3: odd h; h=2: even h"

    def test_p_beyond_n_refused_before_any_stitch(self, monkeypatch):
        def no_stitch(*args, **kwargs):
            raise AssertionError("a hop value was stitched")

        monkeypatch.setattr(tune, "mds_map_p", no_stitch)
        g = DissimilarityGraph(4, [(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0)])
        with pytest.raises(ValueError, match=r"^p must be >= 1 and at most n=4$"):
            sweep_hops(g, 5, [1, 2, 3])

    def test_truth_enables_error_and_scale_columns(self, rng):
        pts = rng.uniform(size=(12, 2))
        g = complete_graph(pts)
        report = sweep_hops(g, 2, [1], truth=Configuration(pts))
        row = report.row(1)
        assert row.embedding_error is not None and row.embedding_error < 1e-12
        assert row.scale_ratio == pytest.approx(1.0, abs=1e-6)

    def test_selected_h_invariant_under_uniform_rescaling(self, rng):
        pts = rng.uniform(size=(40, 2))
        from stresstune import knn_graph, apply_multiplicative_noise

        g = apply_multiplicative_noise(knn_graph(Configuration(pts), 6), 0.1, seed=1)
        report = sweep_hops(g, 2, [1, 2, 3])
        scaled = DissimilarityGraph(
            40,
            [(i, j, 7.0 * w) for i, j, w in zip(g.ei.tolist(), g.ej.tolist(), g.weights.tolist())],
        )
        report2 = sweep_hops(scaled, 2, [1, 2, 3])
        assert report.selected_h == report2.selected_h

    def test_hs_sorted_and_deduplicated(self, rng):
        pts = rng.uniform(size=(10, 2))
        g = complete_graph(pts)
        report = sweep_hops(g, 2, [2, 1, 2])
        assert [r.h for r in report.rows] == [1, 2]

    def test_parallel_workers_match_serial(self, rng, monkeypatch):
        from stresstune import apply_multiplicative_noise, knn_graph, tune

        pts = rng.uniform(size=(50, 2))
        knn = apply_multiplicative_noise(knn_graph(Configuration(pts), 6), 0.1, seed=2)
        path_pts = np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.1], [3.0, 0.0]])
        path = DissimilarityGraph(4, [(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0)])
        cases = [
            (knn, pts, [1, 2, 3], 3),
            (knn, pts, [1, 2, 3], 8),  # more workers than hop values
            (path, path_pts, [1, 3], 2),  # h=1 fails inside a worker
        ]
        # The parent's environment comes back as it was, set and unset variables alike.
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "3")
        monkeypatch.delenv("OMP_NUM_THREADS", raising=False)
        environ = dict(os.environ)
        for g, truth, hs, workers in cases:
            args = (g, 2, Configuration(truth), True, True)
            serial = {h: tune._sweep_one(h, *args) for h in hs}
            parallel = tune._sweep_in_processes(hs, workers, args)
            assert dict(os.environ) == environ
            assert sorted(parallel) == hs
            for h in hs:
                (row, config, cause), (want_row, want_config, want_cause) = parallel[h], serial[h]
                assert replace(row, wall_time_s=None) == replace(want_row, wall_time_s=None)
                assert cause == want_cause
                if want_config is None:
                    assert config is None
                else:
                    assert np.array_equal(config.points, want_config.points)
                    assert not config.points.flags.writeable
        assert parallel[1][0].failed
        assert parallel[1][2] == "2 patch(es) have fewer than p+1=3 nodes (centers 0, 3)"

    def test_disconnected_graph_refused_before_any_worker(self, rng, monkeypatch):
        # Two unit squares of 300 points, 10 apart, so no 8-NN edge joins them:
        # every hop value would fail in its worker on the same connectivity check.
        def no_workers(*args):
            raise AssertionError("a worker pool was started")

        pts = rng.uniform(size=(600, 2))
        pts[300:, 0] += 10.0
        g = knn_graph(Configuration(pts), 8)
        monkeypatch.setattr(tune, "_sweep_in_processes", no_workers)
        with pytest.raises(DisconnectedGraphError, match="requires a connected graph"):
            sweep_hops(g, 2, [1, 2, 3])

    def test_worker_error_surfaces_as_itself(self, monkeypatch):
        # p=0 is not a domain error: mds_map_p's ValueError reaches the caller
        # unchanged instead of becoming a failed row.
        g = DissimilarityGraph(4, [(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0)])
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "3")
        monkeypatch.delenv("OMP_NUM_THREADS", raising=False)
        environ = dict(os.environ)
        with pytest.raises(ValueError, match="p must be >= 1"):
            tune._sweep_in_processes([1, 2, 3], 2, (g, 0, None, True, True))
        assert dict(os.environ) == environ

    def test_inline_sweep_runs_largest_h_first(self, rng, monkeypatch):
        calls = []
        sweep_one = tune._sweep_one

        def recording(h, *args):
            calls.append(h)
            return sweep_one(h, *args)

        monkeypatch.setattr(tune, "_sweep_one", recording)
        report = sweep_hops(complete_graph(rng.uniform(size=(8, 2))), 2, [2, 5, 1, 3])
        assert calls == [5, 3, 2, 1]
        assert [r.h for r in report.rows] == [1, 2, 3, 5]

    def test_unguarded_script_fails_with_guard_message(self, tmp_path):
        # Spawned workers import the main module; without a main guard each
        # one starts a sweep of its own and dies, which must not hang.
        script = tmp_path / "unguarded.py"
        script.write_text(
            "from stresstune import DissimilarityGraph, tune\n"
            "g = DissimilarityGraph(4, [(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0)])\n"
            "tune._sweep_in_processes([1, 3], 2, (g, 2, None, True, True))\n"
        )
        proc = subprocess.run([sys.executable, str(script)], capture_output=True, text=True,
                              timeout=120, env=child_env(), cwd=tmp_path)
        assert proc.returncode != 0
        lines = proc.stderr.strip().splitlines()
        # When the pool breaks, the resource tracker may warn about semaphores
        # leaked by the terminated workers after the traceback.
        while lines and "resource_tracker" in lines[-1]:
            lines.pop()
        last = lines[-1]
        assert last.startswith("stresstune.core.StressTuneError:")
        assert 'if __name__ == "__main__":' in last

    def test_worker_killed_by_a_signal_fails_with_stress_tune_error(self):
        class KillsItsUnpickler:
            def __reduce__(self):
                return signal.raise_signal, (signal.SIGKILL,)

        # The worker dies by SIGKILL while it reads its task.
        with pytest.raises(StressTuneError, match="signal") as exc:
            tune._sweep_in_processes([1], 1, (KillsItsUnpickler(),))
        assert 'if __name__ == "__main__":' in str(exc.value)

    @pytest.mark.skipif(not Path(f"/proc/{os.getpid()}/task").is_dir(), reason="needs Linux /proc")
    def test_workers_exit_when_the_sweep_is_killed(self, tmp_path):
        # The parent dies without shutting the pool down. Its workers are
        # children of its fork server, not its own: each worker must notice on
        # its own and exit instead of waiting for its next task, and the fork
        # server must exit once no process can ask it for another worker.
        script = tmp_path / "long_sweep.py"
        script.write_text(
            "import numpy as np\n"
            "from stresstune import Configuration, knn_graph, tune\n"
            'if __name__ == "__main__":\n'
            "    g = knn_graph(Configuration(np.random.default_rng(0).uniform(size=(800, 2))), 10)\n"
            "    tune._sweep_in_processes([2, 3, 4, 5, 6], 2, (g, 2, None, True, True))\n"
        )

        def children(pid):
            found = []
            for task in Path(f"/proc/{pid}/task").glob("*"):
                try:
                    found += [int(child) for child in (task / "children").read_text().split()]
                except FileNotFoundError:
                    continue
            return found

        def fork_server(pid):
            for child in children(pid):
                try:
                    if b"forkserver" in Path(f"/proc/{child}/cmdline").read_bytes():
                        return child
                except FileNotFoundError:
                    continue
            return None

        def running(pid):
            try:  # a reparented process that exited may linger as a zombie
                return Path(f"/proc/{pid}/stat").read_text().rsplit(")", 1)[1].split()[0] != "Z"
            except FileNotFoundError:
                return False

        proc = subprocess.Popen([sys.executable, str(script)], env=child_env(OPENBLAS_NUM_THREADS="1"), cwd=tmp_path)
        server, workers = None, []
        try:
            deadline = time.monotonic() + 120
            while len(workers) < 2:
                assert proc.poll() is None, "the sweep ended before both workers started"
                assert time.monotonic() < deadline, "the workers never started"
                time.sleep(0.05)
                server = fork_server(proc.pid)
                workers = children(server) if server else []
            proc.send_signal(signal.SIGTERM)
            assert proc.wait(timeout=30) == -signal.SIGTERM
            deadline = time.monotonic() + 30
            while any(running(pid) for pid in [server, *workers]) and time.monotonic() < deadline:
                time.sleep(0.1)
            assert not [pid for pid in workers if running(pid)]
            assert not running(server)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
            for pid in [*workers, *([server] if server else [])]:
                if running(pid):
                    os.kill(pid, signal.SIGKILL)

    def test_pooled_sweep_ignores_the_callers_blas_threads(self, tmp_path):
        # At h=60 the 700-node graph is one Lanczos patch, of an order at which
        # a whole-matrix B @ x rounds differently on one and two OpenBLAS
        # (0.3.31) threads. The Lanczos product runs in fixed row blocks, so a
        # pooled sweep (workers on one thread), an inline sweep on either
        # thread count and mds_d all give the same bytes.
        script = tmp_path / "blas_sweep.py"
        script.write_text(
            "import hashlib, sys\n"
            "import numpy as np\n"
            "from stresstune import Configuration, knn_graph, mds_d, tune\n"
            'if __name__ == "__main__":\n'
            "    g = knn_graph(Configuration(np.random.default_rng(3).uniform(size=(700, 2))), 8)\n"
            "    args, hs = (g, 2, None, False, False), [3, 60]\n"
            "    if sys.argv[1] == 'pool':\n"
            "        out = tune._sweep_in_processes(hs, 2, args)\n"
            "    else:\n"
            "        out = {h: tune._sweep_one(h, *args) for h in hs}\n"
            "    for h in hs:\n"
            "        row, config, _ = out[h]\n"
            "        print(h, repr(row.stress), hashlib.sha256(config.points.tobytes()).hexdigest())\n"
            "    print('mds_d', hashlib.sha256(mds_d(g, 2).points.tobytes()).hexdigest())\n"
        )

        def run(mode, threads):
            blas = {var: threads for var in tune._BLAS_THREAD_VARS}
            proc = subprocess.run([sys.executable, str(script), mode], capture_output=True,
                                  text=True, timeout=300, env=child_env(**blas), cwd=tmp_path)
            assert proc.returncode == 0, proc.stderr
            return proc.stdout

        # No more BLAS threads than usable cores.
        threads = ["1", "2"] if tune._usable_cores() > 1 else ["1"]
        outputs = {run("pool", threads[-1])} | {run("inline", t) for t in threads}
        assert len(outputs) == 1, outputs

    def test_auto_workers_need_cores_hop_values_and_nodes(self, rng, monkeypatch):
        from stresstune import knn_graph, tune

        pooled = []

        def fake_pool(hs, workers, args):
            pooled.append(workers)
            return {h: tune._sweep_one(h, *args) for h in hs}

        monkeypatch.setattr(tune, "_sweep_in_processes", fake_pool)
        big = knn_graph(Configuration(rng.uniform(size=(tune._POOL_MIN_NODES, 2))), 6)
        small = knn_graph(Configuration(rng.uniform(size=(tune._POOL_MIN_NODES - 1, 2))), 6)
        for cores, g, hs, expected in [
            (2, big, [1, 2], [2]),
            (4, big, [1, 2], [2]),  # no more workers than hop values
            (1, big, [1, 2], []),
            (2, big, [2], []),
            (2, small, [1, 2], []),
        ]:
            pooled.clear()
            monkeypatch.setattr(tune, "_usable_cores", lambda: cores)
            sweep_hops(g, 2, hs, refine_patches=False, final_refine=False)
            assert pooled == expected

    def test_embeddings_out_parameter(self, rng):
        pts = rng.uniform(size=(10, 2))
        g = complete_graph(pts)
        embeddings = {}
        sweep_hops(g, 2, [1, 2], embeddings=embeddings)
        assert set(embeddings) == {1, 2}
        assert embeddings[1].n == 10


def noisy_knn(n: int, k: int, seed: int) -> DissimilarityGraph:
    pts = np.random.default_rng(seed).uniform(size=(n, 2))
    return apply_multiplicative_noise(knn_graph(Configuration(pts), k), 0.15, seed=seed)


def bits(a: np.ndarray) -> bytes:
    return np.ascontiguousarray(a).tobytes()


class TestExactScaling:
    """Weights times 2^k scale every embedding by 2^k and every stress by 2^(4k), bit for bit.

    Scaling by a power of two is exact in floating point, so every step of a
    stitch (completion, classical scaling, Procrustes, SMACOF and the stress
    sums) should carry it through unchanged, and ``selected_h`` with it.
    """

    HOPS = [1, 2, 3, 5]

    @staticmethod
    def sweep(g: DissimilarityGraph, hs, refine: bool):
        embeddings = {}
        report = sweep_hops(g, 2, hs, refine_patches=refine, final_refine=refine, embeddings=embeddings)
        return report, embeddings

    def check(self, g: DissimilarityGraph, hs, k: int, refine: bool):
        report, embeddings = self.sweep(g, hs, refine)
        scaled = DissimilarityGraph(g.n, (g.ei, g.ej, np.ldexp(g.weights, k)))
        got, got_embeddings = self.sweep(scaled, hs, refine)
        assert got.selected_h == report.selected_h
        for row, want in zip(got.rows, report.rows):
            assert row.failed == want.failed
            if not want.failed:
                assert row.stress == np.ldexp(want.stress, 4 * k)
        assert sorted(got_embeddings) == sorted(embeddings)
        for h, config in embeddings.items():
            assert bits(got_embeddings[h].points) == bits(np.ldexp(config.points, k))

    @settings(max_examples=4, deadline=None)
    @given(seed=hst.integers(0, 2**16), k=hst.integers(-4, 4))
    def test_inline_sweep(self, seed, k):
        g = noisy_knn(200, 8, seed)
        for refine in (False, True):
            self.check(g, self.HOPS, k, refine)

    @settings(max_examples=2, deadline=None)
    @given(k=hst.integers(-4, 4).filter(bool))
    def test_pooled_sweep(self, k):
        # Two usable cores and two hop values at the pool's minimum size: each
        # hop value runs in its own worker.
        g = noisy_knn(tune._POOL_MIN_NODES, 8, 0)
        with mock.patch.object(tune, "_usable_cores", return_value=2), \
                mock.patch.object(tune, "_sweep_in_processes", wraps=tune._sweep_in_processes) as pool:
            for refine in (False, True):
                self.check(g, [1, 2], k, refine)
        assert pool.call_count == 4
