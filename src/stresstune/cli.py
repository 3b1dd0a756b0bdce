"""Command-line pipelines over the library: dataset generation, hop sweeps,
single-method embedding, alignment, and city-distance graphs.

Artifacts are plain CSV/JSON (plus an SVG chart for sweeps) written
atomically (temp file then rename). Seeded invocations are reproducible byte
for byte; opt into wall-clock timings with ``--timing`` if you prefer real
timings over byte-identical reruns. Exit codes: 0 success, 1 runtime
failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

import numpy as np

from .align import alignment_report, procrustes, scale_ratio
from .core import (
    Configuration,
    DenseSymmetricMatrix,
    StressTuneError,
    _check_dense_fits,
    read_configuration_csv,
    write_configuration_csv,
)
from .data import (
    CITY_KNN,
    DEFAULT_KNN,
    DEFAULT_SIGMA,
    EARTH_RADIUS_KM,
    S_SURFACE_ALPHA,
    SWISS_ROLL_ALPHA,
    DomainShape,
    add_gaussian_noise,
    apply_multiplicative_noise,
    generate_shape,
    haversine_matrix,
    lift_s_surface,
    lift_swiss_roll,
    load_cities,
    rescale_to_unit,
)
from .embed import classical_scaling, mds_d
from .graph import (
    knn_graph,
    knn_graph_from_matrix,
    radius_graph,
    read_edge_csv,
    write_edge_csv,
)
from .isomap_local import DEFAULT_RADIUS_MULTIPLE, default_radius, local_isomap
from .rigidity import find_trilaterative_ordering, sequential_trilateration
from .stitch import mds_map_p
from .svgplot import sweep_chart
from .tune import sweep_hops

_SHAPE_NAMES = {
    "rectangle": "rectangle",
    "hollow": "hollow_rectangle",
    "cshape": "c_shape",
    "hshape": "h_shape",
}


def _atomic_csv(path: Path, write_fn) -> None:
    tmp = path.with_name(path.name + ".tmp")
    write_fn(tmp)
    os.replace(tmp, path)


def _atomic_write(path: Path, text: str) -> None:
    _atomic_csv(path, lambda tmp: tmp.write_text(text, encoding="utf-8"))


def _write_json(path: Path, doc: dict) -> None:
    _atomic_write(path, json.dumps(doc, indent=2, sort_keys=True) + "\n")


def _outdir(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def cmd_generate(args, parser) -> int:
    out = _outdir(args)
    meta = {"command": "generate", "n_target": args.n, "jitter": args.jitter, "seed": args.seed}
    if args.manifold is None:
        shape = DomainShape.named(_SHAPE_NAMES[args.shape])
        truth = generate_shape(shape, args.n, jitter_frac=args.jitter, seed=args.seed)
        g = apply_multiplicative_noise(knn_graph(truth, args.k), args.sigma, seed=args.seed + 1)
        meta.update(mode="shape", shape=args.shape, k=args.k, sigma=args.sigma)
    else:
        lift, default_alpha = ((lift_s_surface, S_SURFACE_ALPHA) if args.manifold == "s"
                               else (lift_swiss_roll, SWISS_ROLL_ALPHA))
        alpha = args.alpha if args.alpha is not None else default_alpha
        base = DomainShape.named(_SHAPE_NAMES[args.base])
        planar = generate_shape(base, args.n, jitter_frac=args.jitter, seed=args.seed)
        # The S lift bends in both directions around v = 0, so center its domain;
        # the spiral lift needs v >= 0, so anchor the minimum corner instead.
        truth = rescale_to_unit(planar, center=(args.manifold == "s"))
        points3d = add_gaussian_noise(lift(truth, alpha), args.noise3d, seed=args.seed + 2)
        r = default_radius(points3d, args.radius_multiple)
        g = radius_graph(points3d, r)
        _atomic_csv(out / "points3d.csv", lambda p: write_configuration_csv(points3d, p))
        meta.update(mode="manifold", manifold=args.manifold, base=args.base, alpha=alpha,
                    noise3d=args.noise3d, radius_multiple=args.radius_multiple, radius=r)
    _atomic_csv(out / "config.csv", lambda p: write_configuration_csv(truth, p))
    _atomic_csv(out / "graph.csv", lambda p: write_edge_csv(g, p))
    _write_json(out / "meta.json", {**meta, "n_points": truth.n, "edges": g.edge_count})
    return 0


def _check_embedding_names(out: Path, hops: list[int]) -> None:
    """Refuse, before any stitch, a hop value whose per-h file name is longer than ``out`` allows."""
    try:
        limit = os.pathconf(out, "PC_NAME_MAX")
    except (AttributeError, OSError, ValueError):
        limit = 255
    for h in map(str, hops):
        if len(f"embedding_h{h}.csv.tmp") > limit:
            raise StressTuneError(f"hop value {h[:4]}...{h[-4:]} ({len(h)} digits) makes a file name "
                                  f"longer than the {limit} characters {out} allows")


def cmd_sweep(args, parser) -> int:
    out = _outdir(args)
    _check_embedding_names(out, args.hops)
    g = read_edge_csv(args.graph)
    truth = read_configuration_csv(args.truth) if args.truth else None
    embeddings: dict[int, Configuration] = {}
    report = sweep_hops(
        g,
        args.p,
        args.hops,
        truth=truth,
        refine_patches=not args.no_patch_refine,
        final_refine=not args.no_final_refine,
        embeddings=embeddings,
    )
    _atomic_write(out / "sweep.json", report.to_json(include_timing=args.timing))
    _atomic_write(out / "sweep.csv", report.to_csv(include_timing=args.timing))
    for h, config in sorted(embeddings.items()):
        _atomic_csv(out / f"embedding_h{h}.csv", lambda p, c=config: write_configuration_csv(c, p))
    ok = [r for r in report.rows if not r.failed]
    svg = sweep_chart(
        [r.h for r in ok],
        [r.stress for r in ok],
        errors=[r.embedding_error for r in ok] if truth is not None else None,
        title=f"stress sweep (selected h={report.selected_h})",
    )
    _atomic_write(out / "sweep.svg", svg)
    _write_json(
        out / "meta.json",
        {
            "command": "sweep",
            "graph": str(args.graph),
            "truth": str(args.truth) if args.truth else None,
            "p": args.p,
            "hops": args.hops,
            "patch_refine": not args.no_patch_refine,
            "final_refine": not args.no_final_refine,
            "selected_h": report.selected_h,
        },
    )
    return 0


def _complete_matrix(g) -> DenseSymmetricMatrix:
    # With no self loops or repeated pairs, only a complete graph has n(n-1)/2 edges.
    pairs = g.n * (g.n - 1) // 2
    if g.edge_count < pairs:
        raise StressTuneError(f"embed --method cs needs all {pairs} pairs of {g.n} nodes, but the "
                              f"graph has {g.edge_count} edges; use mdsd or mdsmapp instead")
    # The observed matrix and the validated copy the returned matrix holds.
    _check_dense_fits("embed --method cs", g.n, 2)
    D = np.zeros((g.n, g.n))
    D[g.ei, g.ej] = g.weights
    D[g.ej, g.ei] = g.weights
    return DenseSymmetricMatrix(D)


def cmd_embed(args, parser) -> int:
    if args.method != "isomap-local" and not args.graph:
        parser.error(f"--graph is required for method {args.method}")
    if args.method == "isomap-local" and not args.points:
        parser.error("--points is required for method isomap-local")
    if args.method in {"mdsmapp", "isomap-local"} and args.hops is None:
        parser.error(f"--hops is required for method {args.method}")
    out = _outdir(args)
    meta = {"command": "embed", "method": args.method, "p": args.p}
    refine = {"refine_patches": not args.no_patch_refine, "final_refine": not args.no_final_refine}
    if args.method in {"mdsmapp", "isomap-local"}:
        meta.update(hops=args.hops, patch_refine=refine["refine_patches"],
                    final_refine=refine["final_refine"])
    if args.method == "isomap-local":
        points = read_configuration_csv(args.points)
        r = args.radius if args.radius is not None else default_radius(points, args.radius_multiple)
        config = local_isomap(points, r, args.hops, args.p, **refine)
        meta.update(points=str(args.points), radius=r)
    else:
        g = read_edge_csv(args.graph)
        meta["graph"] = str(args.graph)
        if args.method == "cs":
            config = classical_scaling(_complete_matrix(g), args.p)
        elif args.method == "mdsd":
            config = mds_d(g, args.p)
        elif args.method == "mdsmapp":
            config = mds_map_p(g, args.hops, args.p, **refine)
        else:
            ordering = find_trilaterative_ordering(g, args.p)
            if ordering is None:
                raise StressTuneError("no trilaterative ordering found for this graph")
            config = sequential_trilateration(g, ordering)
            meta["seed_clique"] = list(ordering.seed_clique)
    _atomic_csv(out / "embedding.csv", lambda p: write_configuration_csv(config, p))
    _write_json(out / "meta.json", meta)
    return 0


def cmd_align(args, parser) -> int:
    out = _outdir(args)
    estimate = read_configuration_csv(args.embedding)
    truth = read_configuration_csv(args.truth)
    report = alignment_report(estimate, truth)
    ratio = scale_ratio(estimate, truth)
    fit = procrustes(estimate, truth)
    aligned = fit.apply_configuration(estimate)
    _atomic_csv(out / "aligned.csv", lambda p: write_configuration_csv(aligned, p))
    _write_json(
        out / "metrics.json",
        {
            "aligned_error": report.error,
            "normalized_rmse": report.normalized_rmse,
            "scale_ratio": ratio,
        },
    )
    return 0


def cmd_cities(args, parser) -> int:
    out = _outdir(args)
    table = load_cities(args.csv)
    D = haversine_matrix(table)
    k_eff = min(args.k, table.n - 1)
    if k_eff < 1:
        raise StressTuneError("need at least two cities")
    g = knn_graph_from_matrix(D, k_eff)
    # Ground-truth planar coordinates: equirectangular projection in km about
    # the mean latitude, which is metric-faithful at city-neighbor scales.
    lat = np.radians(table.lat)
    lon = np.radians(table.lon)
    x = EARTH_RADIUS_KM * np.cos(lat.mean()) * lon
    y = EARTH_RADIUS_KM * lat
    truth = Configuration(np.column_stack([x, y]))
    _atomic_csv(out / "graph.csv", lambda p: write_edge_csv(g, p))
    _atomic_csv(out / "config.csv", lambda p: write_configuration_csv(truth, p))
    _write_json(
        out / "meta.json",
        {
            "command": "cities",
            "csv": str(args.csv),
            "n": table.n,
            "k": args.k,
            "k_effective": k_eff,
            "radius_km": EARTH_RADIUS_KM,
            "edges": g.edge_count,
        },
    )
    return 0


def _checked(kind, ok, rule: str):
    """An argparse type: ``kind(text)``, refused unless ``ok`` holds for the value.

    Each rule is stated so that NaN fails it. The checker keeps ``kind``'s
    name, so a value ``kind`` cannot read is reported as, e.g., ``invalid
    float value``.
    """

    def parse(text: str):
        value = kind(text)
        if not ok(value):
            raise argparse.ArgumentTypeError(f"must {rule}, got {text}")
        return value

    parse.__name__ = kind.__name__
    return parse


_positive_int = _checked(int, lambda v: v >= 1, "be at least 1")
_radius_multiple = _checked(float, lambda v: v >= 1.0, "be at least 1")


def _hops_list(text: str) -> list[int]:
    try:
        hops = [_positive_int(tok) for tok in text.split(",") if tok.strip()]
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad hop list {text!r}; expected e.g. 1,2,3,5") from None
    if not hops:
        raise argparse.ArgumentTypeError("hop list is empty")
    return hops


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="stresstune",
        description="Patch-stitched graph embedding with stress-guided neighborhood tuning.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="generate a synthetic instance")
    mode = gen.add_mutually_exclusive_group(required=True)
    mode.add_argument("--shape", choices=sorted(_SHAPE_NAMES))
    mode.add_argument("--manifold", choices=["s", "swiss"])
    gen.add_argument("--base", choices=sorted(_SHAPE_NAMES), default="hollow",
                     help="planar domain lifted in manifold mode")
    gen.add_argument("--n", type=_checked(int, lambda v: v >= 4, "be at least 4"), required=True,
                     help="target point count")
    gen.add_argument("--k", type=_positive_int, default=DEFAULT_KNN)
    gen.add_argument("--sigma", type=_checked(float, lambda v: 0.0 <= v < 1.0, "lie in [0, 1)"),
                     default=DEFAULT_SIGMA, help="multiplicative edge-noise level in [0, 1)")
    gen.add_argument("--jitter", type=_checked(float, lambda v: 0.0 <= v < 0.5, "lie in [0, 0.5)"),
                     default=0.2, help="grid jitter fraction in [0, 0.5)")
    gen.add_argument("--alpha", type=float, default=None,
                     help=f"lift curvature (defaults: s {S_SURFACE_ALPHA:g}, swiss {SWISS_ROLL_ALPHA:g})")
    gen.add_argument("--noise3d", type=_checked(float, lambda v: v >= 0.0, "be nonnegative"),
                     default=0.0, help="ambient Gaussian noise sigma")
    gen.add_argument("--radius-multiple", type=_radius_multiple, default=DEFAULT_RADIUS_MULTIPLE)
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--out", required=True)

    sw = sub.add_parser("sweep", help="sweep hop radii and pick the stress minimizer")
    sw.add_argument("--graph", required=True)
    sw.add_argument("--p", type=_positive_int, default=2)
    sw.add_argument("--hops", type=_hops_list, required=True, help="comma-separated, e.g. 1,2,3,5")
    sw.add_argument("--truth", default=None)
    sw.add_argument("--no-patch-refine", action="store_true")
    sw.add_argument("--no-final-refine", action="store_true")
    sw.add_argument("--timing", action="store_true",
                    help="serialize wall times (breaks byte-identical reruns)")
    sw.add_argument("--out", required=True)

    em = sub.add_parser("embed", help="run one embedding method")
    em.add_argument("--method", required=True,
                    choices=["cs", "mdsd", "mdsmapp", "seqtrilat", "isomap-local"])
    em.add_argument("--graph", default=None)
    em.add_argument("--points", default=None, help="ambient points CSV for isomap-local")
    em.add_argument("--p", type=_positive_int, default=2)
    em.add_argument("--hops", type=_positive_int, default=None)
    em.add_argument("--radius", type=_checked(float, lambda v: v > 0.0, "be positive"), default=None)
    em.add_argument("--radius-multiple", type=_radius_multiple, default=DEFAULT_RADIUS_MULTIPLE)
    em.add_argument("--no-patch-refine", action="store_true")
    em.add_argument("--no-final-refine", action="store_true")
    em.add_argument("--out", required=True)

    al = sub.add_parser("align", help="align an embedding with ground truth")
    al.add_argument("--embedding", required=True)
    al.add_argument("--truth", required=True)
    al.add_argument("--out", required=True)

    ci = sub.add_parser("cities", help="build a haversine k-NN graph from a city CSV")
    ci.add_argument("--csv", required=True)
    ci.add_argument("--k", type=_positive_int, default=CITY_KNN)
    ci.add_argument("--out", required=True)
    return parser


_COMMANDS = {
    "generate": cmd_generate,
    "sweep": cmd_sweep,
    "embed": cmd_embed,
    "align": cmd_align,
    "cities": cmd_cities,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args, parser)
    except (StressTuneError, ValueError, KeyError, OSError) as exc:
        print(f"stresstune: error: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:
        print(f"stresstune: error: out of memory ({exc or 'MemoryError'})", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
