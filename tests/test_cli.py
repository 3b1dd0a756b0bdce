import contextlib
import csv
import hashlib
import io
import json
import math
import re
import subprocess
import sys
import tempfile
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as hst

import oracles
import stresstune.core as core_module
from conftest import child_env
from stresstune import (
    EARTH_RADIUS_KM,
    Configuration,
    DissimilarityGraph,
    aligned_error,
    apply_multiplicative_noise,
    generate_shape,
    knn_graph,
    read_configuration_csv,
    read_edge_csv,
    write_configuration_csv,
    write_edge_csv,
)
from stresstune.data import DEFAULT_SIGMA, DomainShape
from stresstune.cli import build_parser, main


def run(args):
    return main([str(a) for a in args])


def hollow80(scale: float = 1.0) -> DissimilarityGraph:
    """The graph of ``generate --shape hollow --n 80 --k 8 --seed 0``, its weights times ``scale``."""
    truth = generate_shape(DomainShape.named("hollow_rectangle"), 80, seed=0)
    g = apply_multiplicative_noise(knn_graph(truth, 8), DEFAULT_SIGMA, seed=1)
    return DissimilarityGraph(g.n, (g.ei, g.ej, g.weights * scale))


# The one message of a classical scaling whose squared dissimilarities overflow.
SQUARES_OVERFLOW = (r"the squared dissimilarities overflow float64 "
                    r"\(largest dissimilarity [0-9.]+e\+[0-9]+\); rescale the graph")


def write_cities(path, rows):
    lines = ["city,lat,lng"] + [f"{name},{lat},{lon}" for name, lat, lon in rows]
    path.write_text("\n".join(lines) + "\n")


class TestGenerate:
    def test_shape_outputs_and_determinism(self, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        for out in (out1, out2):
            assert run(["generate", "--shape", "hollow", "--n", 300, "--k", 10,
                        "--sigma", 0.15, "--seed", 7, "--out", out]) == 0
        for name in ("config.csv", "graph.csv", "meta.json"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()
        meta = json.loads((out1 / "meta.json").read_text())
        assert meta["sigma"] == 0.15 and meta["seed"] == 7
        assert set(meta) == {"command", "mode", "shape", "n_target", "n_points", "k", "sigma",
                             "jitter", "seed", "edges"}

    def test_sigma_out_of_range_exits_2(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            run(["generate", "--shape", "rectangle", "--n", 100,
                 "--sigma", 1.2, "--out", tmp_path / "x"])
        assert exc.value.code == 2
        assert "[0, 1)" in capsys.readouterr().err

    def test_manifold_rows_match(self, tmp_path):
        out = tmp_path / "m"
        assert run(["generate", "--manifold", "swiss", "--alpha", 50, "--n", 200,
                    "--seed", 1, "--out", out]) == 0
        config = (out / "config.csv").read_text().splitlines()
        points3d = (out / "points3d.csv").read_text().splitlines()
        assert len(config) == len(points3d)
        assert read_configuration_csv(out / "points3d.csv").p == 3
        meta = json.loads((out / "meta.json").read_text())
        assert set(meta) == {"command", "mode", "manifold", "base", "alpha", "n_target",
                             "n_points", "noise3d", "radius_multiple", "radius", "jitter",
                             "seed", "edges"}

    @pytest.mark.parametrize("manifold, alpha", [
        pytest.param("swiss", "inf", id="inf"),  # refused by the lift
        pytest.param("swiss", "1e300", id="1e300"),  # overflows the arc-length inversion
        pytest.param("s", "1e300", id="s-1e300"),  # flattens the S surface onto a line
    ])
    def test_extreme_alpha_exits_1(self, tmp_path, capsys, manifold, alpha):
        assert run(["generate", "--manifold", manifold, "--n", 200, "--alpha", alpha,
                    "--out", tmp_path / "m"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("stresstune: error:") and "Traceback" not in err

    def test_manifold_and_shape_mutually_exclusive(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            run(["generate", "--shape", "rectangle", "--manifold", "s",
                 "--n", 100, "--out", tmp_path / "x"])
        assert exc.value.code == 2


class TestSweep:
    @pytest.fixture
    def complete_instance(self, tmp_path, rng):
        # Small complete realizable graph written through the generate path
        # would be overkill; write the edge CSV directly.
        from stresstune import Configuration, write_configuration_csv, write_edge_csv
        from stresstune import DissimilarityGraph

        pts = rng.uniform(size=(8, 2))
        edges = [
            (i, j, float(np.linalg.norm(pts[i] - pts[j])))
            for i in range(8)
            for j in range(i + 1, 8)
        ]
        write_edge_csv(DissimilarityGraph(8, edges), tmp_path / "graph.csv")
        write_configuration_csv(Configuration(pts), tmp_path / "config.csv")
        return tmp_path

    def test_realizable_complete_graph(self, complete_instance):
        out = complete_instance / "sw"
        assert run(["sweep", "--graph", complete_instance / "graph.csv",
                    "--truth", complete_instance / "config.csv",
                    "--hops", "1,2", "--out", out]) == 0
        doc = json.loads((out / "sweep.json").read_text())
        assert doc["selected_h"] == 1
        assert all(row["stress"] < 1e-12 for row in doc["rows"])
        assert (out / "sweep.svg").read_text().startswith("<svg")
        assert (out / "embedding_h1.csv").exists()
        assert (out / "sweep.csv").exists()

    def test_rerun_byte_identical(self, complete_instance):
        outs = []
        for name in ("r1", "r2"):
            out = complete_instance / name
            run(["sweep", "--graph", complete_instance / "graph.csv",
                 "--hops", "1,2", "--out", out])
            outs.append(out)
        for f in ("sweep.json", "sweep.csv", "sweep.svg", "embedding_h1.csv", "embedding_h2.csv"):
            assert (outs[0] / f).read_bytes() == (outs[1] / f).read_bytes()

    def test_missing_graph_exits_1(self, tmp_path, capsys):
        code = run(["sweep", "--graph", tmp_path / "nope.csv", "--hops", "1",
                    "--out", tmp_path / "o"])
        assert code == 1
        assert "error" in capsys.readouterr().err

    def test_disconnected_graph_exits_1(self, tmp_path, capsys):
        # Two triangles with no edge between them.
        edges = "".join(f"{a},{b},1.0\n" for a, b in [(0, 1), (1, 2), (0, 2),
                                                       (3, 4), (4, 5), (3, 5)])
        (tmp_path / "g.csv").write_text("i,j,d\n" + edges)
        code = run(["sweep", "--graph", tmp_path / "g.csv", "--hops", "1,2",
                    "--out", tmp_path / "o"])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("stresstune: error:") and "connected" in err

    def test_overflowing_stress_exits_1_without_a_warning(self, tmp_path):
        # 722 nodes: the hop values run in worker processes (given two usable
        # cores), whose overflow must end the run as an error, not a warning.
        g = knn_graph(generate_shape(DomainShape.named("rectangle"), 700, seed=0), 15)
        write_edge_csv(DissimilarityGraph(g.n, (g.ei, g.ej, g.weights * 1e100)), tmp_path / "g.csv")
        proc = subprocess.run(
            [sys.executable, "-m", "stresstune.cli", "sweep", "--graph", str(tmp_path / "g.csv"),
             "--hops", "1,2,3", "--no-patch-refine", "--no-final-refine", "--out", str(tmp_path / "o")],
            capture_output=True, text=True, timeout=120, env=child_env(),
        )
        assert proc.returncode == 1
        assert proc.stderr.startswith("stresstune: error: the stress overflows float64")
        assert "RuntimeWarning" not in proc.stderr
        assert not (tmp_path / "o" / "sweep.json").exists()

    def test_tiny_dissimilarities_exit_1_naming_the_underflow(self, tmp_path, capsys):
        # Every stress term is about 1e-400, so the stresses would all be 0.0.
        assert run(["generate", "--shape", "rectangle", "--n", 80, "--seed", 0, "--out", tmp_path]) == 0
        g = read_edge_csv(tmp_path / "graph.csv")
        write_edge_csv(DissimilarityGraph(g.n, (g.ei, g.ej, g.weights * 1e-100)), tmp_path / "tiny.csv")
        code = run(["sweep", "--graph", tmp_path / "tiny.csv", "--hops", "1,2,3,5",
                    "--no-patch-refine", "--no-final-refine", "--out", tmp_path / "o"])
        assert code == 1
        want = f"the stress underflows float64 (largest dissimilarity {g.weights.max() * 1e-100:g})"
        assert capsys.readouterr().err == f"stresstune: error: {want}; rescale the graph\n"
        assert not (tmp_path / "o" / "sweep.json").exists()

    def test_p_beyond_n_exits_1_before_any_worker(self, tmp_path, capsys, monkeypatch):
        import stresstune.tune as tune_module

        def no_workers(*args):
            raise AssertionError("a worker pool was started")

        # The README graph: 1,260 nodes, so its hop values would run in workers.
        assert run(["generate", "--shape", "hollow", "--n", 1200, "--k", 15, "--sigma", 0.15,
                    "--seed", 0, "--out", tmp_path]) == 0
        monkeypatch.setattr(tune_module, "_sweep_in_processes", no_workers)
        code = run(["sweep", "--graph", tmp_path / "graph.csv", "--p", 2000, "--hops", "1,2,3,5,10,15",
                    "--no-patch-refine", "--no-final-refine", "--out", tmp_path / "o"])
        assert code == 1
        assert capsys.readouterr().err == "stresstune: error: p must be >= 1 and at most n=1260\n"

    def test_all_zero_weights_name_each_cause(self, tmp_path, capsys):
        # 306 nodes: h=1 and h=2 place degenerate overlaps, and the h=3 seed
        # patch (above order 80) reaches ARPACK, which refuses the all-zero matrix.
        g = knn_graph(generate_shape(DomainShape.named("hollow_rectangle"), 300, seed=0), 10)
        zero = tmp_path / "zero.csv"
        write_edge_csv(DissimilarityGraph(g.n, (g.ei, g.ej, np.zeros(g.edge_count))), zero)
        code = run(["sweep", "--graph", zero, "--hops", "1,2,3", "--no-patch-refine",
                    "--no-final-refine", "--out", tmp_path / "o"])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("stresstune: error: every swept hop value failed: [1, 2, 3]; h=1: ")
        assert "; h=2: placed overlap of patch at node " in err
        assert "; h=3: eigendecomposition failed: ARPACK error -9" in err

    @pytest.mark.parametrize("scale, hops, flags", [
        (1e5, "3", []),  # a stress near 1.6e19
        (1.0, "100000000000000000000", ["--no-final-refine"]),
    ])
    def test_flat_chart_beyond_2_to_53_is_written(self, tmp_path, scale, hops, flags):
        # One hop value: both axes are flat, at values that lose a pad of 0.5.
        write_edge_csv(hollow80(scale), tmp_path / "g.csv")
        assert run(["sweep", "--graph", tmp_path / "g.csv", "--hops", hops, *flags,
                    "--out", tmp_path / "o"]) == 0
        assert (tmp_path / "o" / "sweep.svg").read_text().startswith("<svg")

    @pytest.mark.parametrize("scale", [1e200, 1e300])
    def test_overflowing_squares_name_each_hop_value(self, tmp_path, capsys, scale):
        write_edge_csv(hollow80(scale), tmp_path / "g.csv")
        assert run(["sweep", "--graph", tmp_path / "g.csv", "--hops", "1,2,3",
                    "--out", tmp_path / "o"]) == 1
        err = capsys.readouterr().err
        causes = rf"(; h=[0-9, ]+: {SQUARES_OVERFLOW})+"
        assert re.fullmatch(rf"stresstune: error: every swept hop value failed: \[1, 2, 3\]{causes}\n", err), err
        assert all(re.search(rf"h=[0-9, ]*{h}[0-9, ]*: ", err) for h in (1, 2, 3))

    def test_overlong_hop_value_exits_1_before_any_stitch(self, tmp_path, capsys, monkeypatch):
        import stresstune.cli as cli_module

        def no_sweep(*args, **kwargs):
            raise AssertionError("the sweep ran")

        monkeypatch.setattr(cli_module, "sweep_hops", no_sweep)
        write_edge_csv(hollow80(), tmp_path / "g.csv")
        code = run(["sweep", "--graph", tmp_path / "g.csv", "--hops", "1,1" + "0" * 400,
                    "--no-final-refine", "--out", tmp_path / "sw"])
        assert code == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0].startswith("stresstune: error: hop value 1000...0000 (401 digits)")

    def test_bad_hop_list_exits_2(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            run(["sweep", "--graph", tmp_path / "g.csv", "--hops", "1,x",
                 "--out", tmp_path / "o"])
        assert exc.value.code == 2


class TestEmbedAndAlign:
    def make_instance(self, tmp_path, rng, n=10):
        from stresstune import Configuration, DissimilarityGraph
        from stresstune import write_configuration_csv, write_edge_csv

        pts = rng.uniform(size=(n, 2))
        edges = [
            (i, j, float(np.linalg.norm(pts[i] - pts[j])))
            for i in range(n)
            for j in range(i + 1, n)
        ]
        write_edge_csv(DissimilarityGraph(n, edges), tmp_path / "graph.csv")
        write_configuration_csv(Configuration(pts), tmp_path / "config.csv")
        return pts

    def test_cs_on_complete_graph(self, tmp_path, rng):
        self.make_instance(tmp_path, rng)
        out = tmp_path / "emb"
        assert run(["embed", "--method", "cs", "--graph", tmp_path / "graph.csv",
                    "--out", out]) == 0
        emb = read_configuration_csv(out / "embedding.csv")
        truth = read_configuration_csv(tmp_path / "config.csv")
        assert aligned_error(emb, truth) < 1e-8

    def test_each_method_runs(self, tmp_path, rng):
        self.make_instance(tmp_path, rng)
        for method, extra in [
            ("mdsd", []),
            ("mdsmapp", ["--hops", 2]),
            ("seqtrilat", []),
        ]:
            out = tmp_path / f"emb_{method}"
            assert run(["embed", "--method", method, "--graph", tmp_path / "graph.csv",
                        "--out", out, *extra]) == 0
            assert (out / "embedding.csv").exists()

    # (method, flags, SHA-256 of embedding.csv, SHA-256 of meta.json), recorded
    # before cmd_embed took one path per input; meta.json holds the input paths,
    # so the runs use relative ones.
    _PINNED = [
        ("cs", ["--graph", "complete.csv"],
         "2ecbc62844f3ec45eb1b1ea1ae76283e49b6d646116c71bfe6762b55e7f07f6c",
         "a9351e27cf0378397d4bb6abdf50314351e75b00b5abe12a4eab896390a03af0"),
        ("mdsd", ["--graph", "hollow/graph.csv"],
         "a8d03ec31e71e3b47abf9e16f3f18af88214660759ef7cafa713630c667adbc3",
         "1e5911e424854c76e348a1731427aae065241e7454057a6d3f04f3a0ae4c7a43"),
        ("seqtrilat", ["--graph", "hollow/graph.csv"],
         "afb57e68b8564a2d60d4334988bc2c2054ef3c56b966556fcc9dabd543a69afa",
         "50d8a7fe68b616ac4ce9d8fa4ee23888ca67337216efca9e709948e45f723c4a"),
        ("mdsmapp", ["--graph", "hollow/graph.csv", "--hops", "3"],
         "fe25200cec9fe42659e051ef8f83c95b2c61936ba84182ec84a45daa9800dd95",
         "0a7a39672a0ebfc038ba7d8d49ae4d9ae8cb5b3717468113d167de1e9db359eb"),
        ("mdsmapp", ["--graph", "hollow/graph.csv", "--hops", "2", "--no-final-refine"],
         "fe433f2b4abda52804126ab4126eec9d52870b98fd89fd6f4d639717b252c3a7",
         "44e005754b3a137fdd30ed18e404c41f2063ade16d5f1c6e1cb1994709cb60b2"),
        ("isomap-local", ["--points", "swiss/points3d.csv", "--hops", "3"],
         "25cd0b76af2bdc367bc53b838fea098d208087f329ac8bbe2484c24d18fd235e",
         "6bf51bfaf9debdc1a3d03b2022d2ee87cc4a73ce7b7c135f637abb504dd508d8"),
        ("isomap-local", ["--points", "swiss/points3d.csv", "--hops", "2", "--radius", "0.2",
                          "--no-patch-refine"],
         "1e824412dcc9795d058c3e93161c7bb37f36235e8744c005cffbcfd48e554a6f",
         "9cd221a4a787bf11d5b973596e66adc97d0aff2bc21f265f741c02859b567edb"),
    ]

    def test_every_method_keeps_its_bytes(self, tmp_path, monkeypatch):
        from stresstune import DissimilarityGraph, write_edge_csv

        monkeypatch.chdir(tmp_path)
        assert run(["generate", "--shape", "hollow", "--n", 80, "--k", 8, "--seed", 0,
                    "--out", "hollow"]) == 0
        assert run(["generate", "--manifold", "swiss", "--n", 60, "--seed", 1,
                    "--out", "swiss"]) == 0
        pts = read_configuration_csv("hollow/config.csv").points[:12]
        edges = [(i, j, float(np.linalg.norm(pts[i] - pts[j])))
                 for i in range(12) for j in range(i + 1, 12)]
        write_edge_csv(DissimilarityGraph(12, edges), "complete.csv")
        for k, (method, flags, embedding, meta) in enumerate(self._PINNED):
            out = Path(f"o{k}")
            assert run(["embed", "--method", method, *flags, "--out", out]) == 0
            got = [hashlib.sha256((out / name).read_bytes()).hexdigest()
                   for name in ("embedding.csv", "meta.json")]
            assert got == [embedding, meta], (method, flags)

    def test_cs_refuses_an_incomplete_graph_before_any_dense_array(self, tmp_path, capsys):
        # A 3,000-node path: one dense n x n array alone would take 72 MB.
        n = 3000
        rows = "".join(f"{i},{i + 1},1.0\n" for i in range(n - 1))
        (tmp_path / "path.csv").write_text("i,j,d\n" + rows)
        tracemalloc.start()
        try:
            code = run(["embed", "--method", "cs", "--graph", tmp_path / "path.csv",
                        "--out", tmp_path / "o"])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("stresstune: error:")
        assert f"{n - 1} edges" in err and f"{n * (n - 1) // 2}" in err
        assert peak < 10 * 2**20

    def test_seqtrilat_on_readme_data(self, tmp_path):
        # The README's step-1 data; its first seed clique violates the
        # triangle inequality, so the ordering search must skip it.
        data, out = tmp_path / "data", tmp_path / "emb"
        assert run(["generate", "--shape", "hollow", "--n", 1200, "--k", 15,
                    "--sigma", 0.15, "--seed", 0, "--out", data]) == 0
        assert run(["embed", "--method", "seqtrilat", "--graph", data / "graph.csv",
                    "--out", out]) == 0
        emb = read_configuration_csv(out / "embedding.csv")
        assert emb.n == read_configuration_csv(data / "config.csv").n

    def test_node_index_outside_int64_exits_1(self, tmp_path, capsys):
        (tmp_path / "big.csv").write_text("i,j,d\n0,1,1.0\n0,99999999999999999999,1.0\n")
        code = run(["embed", "--method", "mdsd", "--graph", tmp_path / "big.csv",
                    "--out", tmp_path / "o"])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("stresstune: error:") and "row 3" in err

    def test_mdsd_on_a_huge_index_names_the_disconnection(self, tmp_path, capsys):
        # Three edges cannot connect 10^8 + 1 nodes; that is the refusal, not
        # the memory the dense completion would need.
        (tmp_path / "big.csv").write_text("i,j,d\n0,1,1.0\n1,2,1.0\n2,100000000,1.0\n")
        code = run(["embed", "--method", "mdsd", "--graph", tmp_path / "big.csv",
                    "--out", tmp_path / "o"])
        assert code == 1
        assert capsys.readouterr().err == "stresstune: error: embedding requires a connected graph\n"

    def test_seqtrilat_on_a_huge_index_exits_1_at_once(self, tmp_path):
        # The node count is the largest index + 1, about 9.2e18; one Python
        # set per node would grow until memory ran out.
        graph = tmp_path / "big.csv"
        graph.write_text("i,j,d\n0,1,1.0\n0,9223372036854775806,1.0\n")
        proc = subprocess.run(
            [sys.executable, "-m", "stresstune.cli", "embed", "--method", "seqtrilat",
             "--graph", str(graph), "--out", str(tmp_path / "o")],
            capture_output=True, text=True, timeout=60, env=child_env(),
        )
        assert proc.returncode == 1
        assert proc.stderr.startswith("stresstune: error:")

    def test_dense_step_beyond_physical_memory_exits_1(self, tmp_path, rng, monkeypatch, capsys):
        import stresstune.core as core_module

        self.make_instance(tmp_path, rng)
        monkeypatch.setattr(core_module, "_physical_memory_bytes", lambda: 1024)
        for method, step in [("mdsd", "mds_d"), ("cs", "embed --method cs")]:
            code = run(["embed", "--method", method, "--graph", tmp_path / "graph.csv",
                        "--out", tmp_path / method])
            assert code == 1
            err = capsys.readouterr().err
            assert err.startswith(f"stresstune: error: {step} at n=") and "GiB" in err

    def test_all_zero_weights_exit_1_without_a_traceback(self, tmp_path, capsys):
        # 306 nodes: classical scaling runs ARPACK, which refuses the all-zero matrix.
        g = knn_graph(generate_shape(DomainShape.named("hollow_rectangle"), 300, seed=0), 10)
        zero = tmp_path / "zero.csv"
        write_edge_csv(DissimilarityGraph(g.n, (g.ei, g.ej, np.zeros(g.edge_count))), zero)
        assert run(["embed", "--method", "mdsd", "--graph", zero, "--out", tmp_path / "o"]) == 1
        last = capsys.readouterr().err.splitlines()[-1]
        assert last.startswith("stresstune: error: eigendecomposition failed: ARPACK error -9")

    @pytest.mark.parametrize("scale", [1e200, 1e300])
    @pytest.mark.parametrize("method", [["mdsd"], ["mdsmapp", "--hops", "3"], ["seqtrilat"]])
    def test_overflowing_squares_exit_1_with_one_message(self, tmp_path, capsys, scale, method):
        # A RuntimeWarning fails the test, so the message is all the run prints.
        write_edge_csv(hollow80(scale), tmp_path / "g.csv")
        assert run(["embed", "--method", *method, "--graph", tmp_path / "g.csv",
                    "--out", tmp_path / "o"]) == 1
        err = capsys.readouterr().err
        assert re.fullmatch(rf"stresstune: error: {SQUARES_OVERFLOW}\n", err), err

    def test_isomap_local_requires_points(self, tmp_path, rng):
        self.make_instance(tmp_path, rng)
        with pytest.raises(SystemExit) as exc:
            run(["embed", "--method", "isomap-local", "--graph", tmp_path / "graph.csv",
                 "--hops", 2, "--out", tmp_path / "x"])
        assert exc.value.code == 2
        assert not (tmp_path / "x").exists()

    def test_mdsmapp_requires_hops(self, tmp_path, rng):
        self.make_instance(tmp_path, rng)
        with pytest.raises(SystemExit) as exc:
            run(["embed", "--method", "mdsmapp", "--graph", tmp_path / "graph.csv",
                 "--out", tmp_path / "x"])
        assert exc.value.code == 2
        assert not (tmp_path / "x").exists()

    def test_out_of_memory_exits_1(self, tmp_path, rng, monkeypatch, capsys):
        from stresstune import cli

        def exhausted(args, parser):
            raise MemoryError("Unable to allocate 3.26 GiB for an array")

        self.make_instance(tmp_path, rng)
        monkeypatch.setitem(cli._COMMANDS, "embed", exhausted)
        code = run(["embed", "--method", "mdsd", "--graph", tmp_path / "graph.csv",
                    "--out", tmp_path / "x"])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("stresstune: error: out of memory (")
        assert "3.26 GiB" in err

    def test_align_of_rigid_copy(self, tmp_path, rng):
        from stresstune import Configuration, write_configuration_csv
        from conftest import rotation

        pts = rng.uniform(size=(12, 2))
        moved = pts @ rotation(1.2).T + np.array([3.0, 4.0])
        write_configuration_csv(Configuration(pts), tmp_path / "truth.csv")
        write_configuration_csv(Configuration(moved), tmp_path / "est.csv")
        out = tmp_path / "al"
        assert run(["align", "--embedding", tmp_path / "est.csv",
                    "--truth", tmp_path / "truth.csv", "--out", out]) == 0
        metrics = json.loads((out / "metrics.json").read_text())
        assert metrics["aligned_error"] < 1e-18
        assert metrics["scale_ratio"] == pytest.approx(1.0)
        aligned = read_configuration_csv(out / "aligned.csv")
        np.testing.assert_allclose(aligned.points, pts, atol=1e-9)

    @pytest.mark.parametrize("scale", [1e150, 1e160, 1e200, 1e300])
    @pytest.mark.parametrize("scaled", ["--embedding", "--truth"])
    def test_align_refuses_squares_beyond_float64(self, tmp_path, capsys, scale, scaled):
        # Squared coordinates overflow from about 1e154 on; metrics.json would
        # hold Infinity or NaN.
        X = np.random.default_rng(0).standard_normal((20, 2))
        write_configuration_csv(Configuration(X), tmp_path / "plain.csv")
        write_configuration_csv(Configuration(X * scale), tmp_path / "scaled.csv")
        files = {"--embedding": "plain.csv", "--truth": "plain.csv", scaled: "scaled.csv"}
        code = run(["align", *(a for flag, name in files.items() for a in (flag, tmp_path / name)),
                    "--out", tmp_path / "al"])
        err = capsys.readouterr().err
        if scale < 1e154:
            assert code == 0 and err == ""
        else:
            assert code == 1
            assert re.fullmatch(r"stresstune: error: the squared distances between points overflow float64 "
                                r"\(largest coordinate [0-9.]+e\+[0-9]+\); rescale the points\n", err), err
            assert not (tmp_path / "al" / "metrics.json").exists()


# The post-parse rules the CLI enforced before each flag got a checking
# argparse type: (subcommand and required arguments, flag, value type, refused).
# NaN slipped past the rules written as "refuse when below the bound".
_OLD_RULES = [
    (["generate", "--shape", "rectangle", "--n", "100"], "--n", int, lambda v: v < 4),
    (["generate", "--shape", "rectangle", "--n", "100"], "--k", int, lambda v: v < 1),
    (["generate", "--shape", "rectangle", "--n", "100"], "--sigma", float,
     lambda v: not 0.0 <= v < 1.0),
    (["generate", "--shape", "rectangle", "--n", "100"], "--jitter", float,
     lambda v: not 0.0 <= v < 0.5),
    (["generate", "--shape", "rectangle", "--n", "100"], "--noise3d", float, lambda v: v < 0),
    (["generate", "--shape", "rectangle", "--n", "100"], "--radius-multiple", float,
     lambda v: v < 1.0),
    (["sweep", "--graph", "g.csv", "--hops", "1"], "--p", int, lambda v: v < 1),
    (["sweep", "--graph", "g.csv", "--hops", "1"], "--hops", int, lambda v: v < 1),
    (["embed", "--method", "mdsmapp"], "--p", int, lambda v: v < 1),
    (["embed", "--method", "mdsmapp"], "--hops", int, lambda v: v < 1),
    (["embed", "--method", "mdsmapp"], "--radius", float, lambda v: v <= 0),
    (["embed", "--method", "mdsmapp"], "--radius-multiple", float, lambda v: v < 1.0),
    (["cities", "--csv", "c.csv"], "--k", int, lambda v: v < 1),
]

_FLOAT_EDGES = [0.0, -0.0, 0.5, 1.0, math.nan, math.inf, -math.inf]


class TestFlagRules:
    @settings(max_examples=400, deadline=None)
    @given(
        rule=hst.sampled_from(_OLD_RULES),
        i=hst.integers(-3, 6) | hst.integers(),
        x=hst.sampled_from(_FLOAT_EDGES) | hst.floats(-2.0, 2.0) | hst.floats(),
    )
    def test_value_exits_2_exactly_when_the_old_rule_refused_it_or_it_is_nan(self, rule, i, x):
        head, flag, kind, refused = rule
        value = i if kind is int else x
        # A sweep's --hops is a list; its values are checked one by one.
        text = f"1,{value!r}" if (head[0], flag) == ("sweep", "--hops") else repr(value)
        argv = [*head, "--out", "o", f"{flag}={text}"]
        if refused(value) or (kind is float and math.isnan(value)):
            with pytest.raises(SystemExit) as exc:
                build_parser().parse_args(argv)
            assert exc.value.code == 2
        else:
            got = getattr(build_parser().parse_args(argv), flag[2:].replace("-", "_"))
            assert got == ([1, value] if isinstance(got, list) else value)

    @pytest.mark.parametrize("argv", [
        ["generate", "--manifold", "swiss", "--n", "200", "--radius-multiple", "nan"],
        ["generate", "--manifold", "swiss", "--n", "200", "--noise3d", "nan"],
        ["embed", "--method", "isomap-local", "--points", "p.csv", "--hops", "2",
         "--radius", "nan"],
        ["embed", "--method", "isomap-local", "--points", "p.csv", "--hops", "2",
         "--radius-multiple", "nan"],
    ])
    def test_nan_names_the_flag(self, tmp_path, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            run([*argv, "--out", tmp_path / "o"])
        assert exc.value.code == 2
        assert f"argument {argv[-2]}: must " in capsys.readouterr().err

    def test_unreadable_number_names_its_type(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            run(["generate", "--shape", "rectangle", "--n", 100, "--sigma", "x",
                 "--out", tmp_path / "x"])
        assert exc.value.code == 2
        assert "argument --sigma: invalid float value: 'x'" in capsys.readouterr().err

    def test_infinite_radius_builds_a_complete_graph(self, tmp_path):
        data, out = tmp_path / "data", tmp_path / "emb"
        assert run(["generate", "--manifold", "swiss", "--n", 60, "--seed", 1,
                    "--out", data]) == 0
        assert run(["embed", "--method", "isomap-local", "--points", data / "points3d.csv",
                    "--hops", 1, "--radius", "inf", "--out", out]) == 0
        n = read_configuration_csv(data / "points3d.csv").n
        assert read_configuration_csv(out / "embedding.csv").n == n
        assert json.loads((out / "meta.json").read_text())["radius"] == math.inf


@pytest.mark.parametrize("argv", [
    "embed --method mdsd --graph BIG",
    "sweep --hops 1 --graph BIG",
    "align --truth BIG --embedding BIG",
    "cities --csv BIG",
], ids=lambda argv: argv.split()[0])
def test_oversized_csv_field_exits_1(tmp_path, capsys, argv):
    # A header field over csv.field_size_limit() fails every reader at row 1.
    big = tmp_path / "big.csv"
    big.write_text("x" * (csv.field_size_limit() + 1) + "\n")
    assert run([big if a == "BIG" else a for a in argv.split()] + ["--out", tmp_path / "o"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("stresstune: error:") and "Traceback" not in err
    assert "big.csv: row 1: field larger than field limit" in err


@pytest.mark.parametrize("argv, text, named", [
    ("sweep --hops 1 --graph FILE", "i,j,d\n0,1,1.0\n1,2,nan\n", "row 3: numbers must be finite, got nan"),
    ("align --truth FILE --embedding FILE", "id,x1,x2\n0,0.0,1.0\n1,inf,2.0\n",
     "row 3: numbers must be finite, got inf"),
    ("cities --csv FILE", "city,lat,lng\nA,nan,1.0\nB,2.0,3.0\n", "row 2: numbers must be finite, got nan"),
    ("cities --csv FILE", "lat,lng,city\n1.0,2.0,A\n3.0,4.0\n", "row 3: 2 fields, but the header has 3"),
    ("sweep --hops 1 --graph FILE", "i,j,d\n0,1,1.0\n2,2,1.0\n", "self loops are not allowed: edge (2, 2)"),
    ("sweep --hops 1 --graph FILE", "i,j,d\n0,1,1.0\n1,0,2.0\n",
     "duplicate edges are not allowed: edge (0, 1)"),
], ids=["nan-weight", "inf-coordinate", "nan-latitude", "short-city-row", "self-loop", "repeated-pair"])
def test_refused_value_is_named_by_file_and_row_or_edge(tmp_path, capsys, argv, text, named):
    path = tmp_path / "input.csv"
    path.write_text(text)
    assert run([path if a == "FILE" else a for a in argv.split()] + ["--out", tmp_path / "o"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("stresstune: error:") and "Traceback" not in err
    assert f"{path}: {named}" in err


class TestCities:
    def test_three_city_file(self, tmp_path):
        rows = [("LA", 34.0522, -118.2437), ("SF", 37.7749, -122.4194),
                ("SD", 32.7157, -117.1611)]
        write_cities(tmp_path / "cities.csv", rows)
        out = tmp_path / "ct"
        assert run(["cities", "--csv", tmp_path / "cities.csv", "--k", 12,
                    "--out", out]) == 0
        g = read_edge_csv(out / "graph.csv")
        assert g.edge_count <= 3
        for i, j, w in zip(g.ei.tolist(), g.ej.tolist(), g.weights.tolist()):
            want = oracles.law_of_cosines_km(rows[i][1], rows[i][2],
                                             rows[j][1], rows[j][2], EARTH_RADIUS_KM)
            assert w == pytest.approx(want, rel=1e-3)
        meta = json.loads((out / "meta.json").read_text())
        assert meta["k_effective"] == 2  # capped at n - 1

    def test_missing_column_exits_1(self, tmp_path, capsys):
        (tmp_path / "bad.csv").write_text("city,lng\nA,-118.0\n")
        code = run(["cities", "--csv", tmp_path / "bad.csv", "--out", tmp_path / "o"])
        assert code == 1
        assert "lat" in capsys.readouterr().err


@hst.composite
def extreme_inputs(draw):
    """A graph of 2-40 nodes and as many points in R^3, both at one binary scale 2**e, and n more points.

    The graph is a random spanning tree plus up to n chords; one time in ten a
    tree edge is dropped first, which may disconnect it. Its weights are
    ``np.ldexp(u, e)`` with u in [0.5, 1) and e in [-1074, 1023]; one time in
    five all of them are zero, and one time in five about a third. The n
    more points, an estimate for ``align``, are at the scale 2**e or at one of their own.
    """
    n = draw(hst.integers(2, 40))
    e = draw(hst.integers(-1074, 1023))
    e_estimate = draw(hst.just(e) | hst.integers(-1074, 1023))
    zeros = draw(hst.integers(0, 4))
    drop = draw(hst.integers(0, 9)) == 0
    r = np.random.default_rng(draw(hst.integers(0, 2**32 - 1)))
    tree = [(int(r.integers(v)), v) for v in range(1, n)]
    if drop:
        del tree[r.integers(len(tree))]
    chords = [(min(a, b), max(a, b)) for a, b in r.integers(0, n, size=(n, 2)).tolist() if a != b]
    pairs = sorted({*tree, *chords})
    ei = np.array([a for a, _ in pairs], dtype=np.int64)
    ej = np.array([b for _, b in pairs], dtype=np.int64)
    w = np.ldexp(r.uniform(0.5, 1.0, ei.size), e)
    if zeros == 0:
        w[:] = 0.0
    elif zeros == 1:
        w[r.uniform(size=w.size) < 1 / 3] = 0.0
    points, estimate = (Configuration(np.ldexp(r.uniform(-1.0, 1.0, (n, 3)), x)) for x in (e, e_estimate))
    return DissimilarityGraph(n, (ei, ej, w)), points, estimate


def repro(scale, command, hops, refine=True):
    """Arguments of the property below for one run on ``hollow80(scale)`` with p=2 and dense eigh."""
    return {"inputs": (hollow80(scale), None, None), "command": command, "p": 2, "hops": hops,
            "refine": refine, "lanczos": False}


def align_repro(estimate_scale, truth_scale):
    """Arguments of the property below for ``align`` on 20 standard-normal points in R^2, each file scaled."""
    X = np.random.default_rng(0).standard_normal((20, 2))
    return {"inputs": (None, Configuration(X * truth_scale), Configuration(X * estimate_scale)),
            "command": "align", "p": 2, "hops": [1], "refine": True, "lanczos": False}


class TestNeverATraceback:
    """Every command on small, extreme inputs ends with exit code 0 or 1, never a traceback.

    A RuntimeWarning fails the property too (the suite turns it into an error).
    """

    @settings(max_examples=500, deadline=None)
    @given(
        inputs=extreme_inputs(),
        command=hst.sampled_from(["cs", "mdsd", "mdsmapp", "seqtrilat", "isomap-local", "sweep", "align"]),
        p=hst.integers(1, 3),
        hops=hst.lists(hst.integers(1, 3), min_size=1, max_size=3, unique=True),
        refine=hst.booleans(),
        lanczos=hst.booleans(),
    )
    # A flat stress chart near 1.6e19, and a flat hop axis at 1e20.
    @example(**repro(1e5, "sweep", [3]))
    @example(**repro(1.0, "sweep", [10**20], refine=False))
    # Squared dissimilarities beyond float64, on every path to classical scaling.
    @example(**repro(1e200, "mdsd", [1]))
    @example(**repro(1e200, "mdsmapp", [3]))
    @example(**repro(1e200, "seqtrilat", [1]))
    @example(**repro(1e200, "sweep", [1, 2, 3]))
    @example(**repro(1e300, "mdsd", [1]))
    @example(**repro(1e300, "mdsmapp", [3]))
    @example(**repro(1e300, "seqtrilat", [1]))
    @example(**repro(1e300, "sweep", [1, 2, 3]))
    # A stress that underflows.
    @example(**repro(1e-100, "sweep", [1, 2, 3], refine=False))
    # A hop value beyond float range.
    @example(**repro(1.0, "sweep", [1, 10**400]))
    @example(**repro(1.0, "mdsmapp", [10**400]))
    # Squared coordinates beyond float64, on either file of align.
    @example(**align_repro(1e160, 1.0))
    @example(**align_repro(1e200, 1.0))
    @example(**align_repro(1e300, 1.0))
    @example(**align_repro(1.0, 1e160))
    @example(**align_repro(1.0, 1e200))
    @example(**align_repro(1.0, 1e300))
    def test_exits_0_or_1_with_an_error_line(self, inputs, command, p, hops, refine, lanczos):
        g, points, estimate = inputs
        # Down to order 4, Lanczos runs on the patches of these small graphs.
        order = 4 if lanczos else core_module._DENSE_EIGH_MAX_ORDER
        with tempfile.TemporaryDirectory() as tmp, \
                mock.patch.object(core_module, "_DENSE_EIGH_MAX_ORDER", order), \
                contextlib.redirect_stderr(io.StringIO()) as err:
            graph, cloud, estimated = Path(tmp) / "g.csv", Path(tmp) / "points.csv", Path(tmp) / "est.csv"
            if g is not None:
                write_edge_csv(g, graph)
            if points is not None:
                write_configuration_csv(points, cloud)
            flags = [*([] if refine else ["--no-patch-refine", "--no-final-refine"]), "--p", p]
            if command == "align":
                write_configuration_csv(estimate, estimated)
                argv, flags = ["align", "--embedding", estimated, "--truth", cloud], []
            elif command == "sweep":
                argv = ["sweep", "--graph", graph, "--hops", ",".join(map(str, hops))]
            elif command == "isomap-local":
                argv = ["embed", "--method", command, "--points", cloud, "--hops", hops[0]]
            else:
                argv = ["embed", "--method", command, "--graph", graph, "--hops", hops[0]]
            code = run([*argv, *flags, "--out", Path(tmp) / "o"])
        assert code in (0, 1)
        if code == 1:
            assert err.getvalue().splitlines()[-1].startswith("stresstune: error:"), err.getvalue()
