"""Stage-level spans around stresstune's internal calls.

The tracer replaces the module attributes through which ``stitch``, ``tune``
and ``isomap_local`` call their stages, so spans are recorded from the
benchmark's own files and the program is not edited. A span is
``[name, start, end, parent, tag]``: times in seconds from the tracer's
creation, ``parent`` the index of the enclosing span (-1 at top level), and
``tag`` an integer the stage reports (the hop radius of a stitch, the size
of a patch, the iterations of a SMACOF run) or ``None``.
"""

from __future__ import annotations

import functools
import importlib
import time
from contextlib import contextmanager

import numpy as np

# (module, attribute, span name, tag from (args, kwargs, result)). The attribute is
# the name the caller looks up at call time, which is not always where the
# function is defined: ``stitch`` imports its stages into its own namespace.
WRAPPED = (
    ("stresstune.tune", "mds_map_p", "stitch.mds_map_p", lambda a, k, r: a[1] if len(a) > 1 else k["h"]),
    ("stresstune.stitch", "mds_map_p", "stitch.mds_map_p", lambda a, k, r: a[1] if len(a) > 1 else k["h"]),
    ("stresstune.stitch", "hop_distances", "graph.hop_distances", None),
    ("stresstune.stitch", "induced_subgraph_csr", "graph.induced_subgraph_csr", None),
    ("stresstune.stitch", "shortest_paths_csr", "graph.shortest_paths_csr", lambda a, k, r: a[0].shape[0]),
    ("stresstune.stitch", "_classical_scaling_array", "embed.classical_scaling", None),
    ("stresstune.stitch", "_smacof", "embed.smacof", lambda a, k, r: len(r[1]) - 1),
    ("stresstune.stitch", "smacof_refine", "embed.smacof_refine", None),
    ("stresstune.embed", "_smacof", "embed.smacof_refine.majorize", lambda a, k, r: len(r[1]) - 1),
    ("stresstune.stitch", "merge", "stitch.merge", None),
    ("stresstune.stitch", "_check_overlap", "stitch.check_overlap", None),
    ("stresstune.stitch", "procrustes", "align.procrustes", None),
    ("stresstune.tune", "stress", "tune.stress", None),
    ("stresstune.tune", "aligned_error", "align.aligned_error", None),
    ("stresstune.tune", "scale_ratio", "align.scale_ratio", None),
    ("stresstune.core", "DenseSymmetricMatrix.__post_init__", "core.DenseSymmetricMatrix", None),
    ("stresstune.graph", "knn_graph", "graph.knn_graph", None),
    ("stresstune.graph", "radius_graph", "graph.radius_graph", None),
    ("stresstune.isomap_local", "min_connectivity_radius", "graph.min_connectivity_radius", None),
)

SWEPT_HOPS = (1, 2, 3, 5, 10, 15, 20)

# Per-layer metrics in output order, with their units.
LAYER_UNITS = {
    "graph.hop_distances.s": "s",
    "graph.hop_distances.calls": "count",
    "graph.shortest_paths_csr.s": "s",
    "graph.shortest_paths_csr.calls": "count",
    "graph.patch_nodes": "nodes",
    "graph.patch_size.p50": "nodes",
    "graph.patch_size.max": "nodes",
    "graph.induced_subgraph_csr.s": "s",
    "graph.knn_graph.s": "s",
    "graph.radius_graph.s": "s",
    "graph.min_connectivity_radius.s": "s",
    "embed.classical_scaling.s": "s",
    "embed.smacof.s": "s",
    "embed.smacof.calls": "count",
    "embed.smacof.iters": "count",
    "embed.smacof_refine.s": "s",
    "embed.smacof_refine.iters": "count",
    "stitch.mds_map_p.s": "s",
    "stitch.mds_map_p.self_s": "s",
    "stitch.merge.s": "s",
    "stitch.merge.calls": "count",
    "stitch.patches_skipped": "count",
    "align.procrustes.s": "s",
    "align.aligned_error.s": "s",
    "align.scale_ratio.s": "s",
    "tune.stress.s": "s",
    "core.DenseSymmetricMatrix.s": "s",
    "core.DenseSymmetricMatrix.calls": "count",
    **{f"tune.h{h}.s": "s" for h in SWEPT_HOPS},
    "trace.overhead_s": "s",
    "align.nrmse": "1",
}


def _resolve(module: str, attr: str):
    """``(owner, name)`` for a possibly dotted attribute, or ``None`` if absent."""
    try:
        owner = importlib.import_module(module)
    except ImportError:
        return None
    *path, name = attr.split(".")
    for part in path:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    if not callable(getattr(owner, name, None)):
        return None
    return owner, name


class Tracer:
    """Records spans in memory while installed."""

    def __init__(self):
        self.origin = time.perf_counter()
        self.spans: list[list] = []
        self.absent: list[str] = []
        self._stack: list[int] = []

    def _wrap(self, fn, name: str, tag):
        spans, stack, origin = self.spans, self._stack, self.origin

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            rec = [name, time.perf_counter() - origin, None, stack[-1] if stack else -1, None]
            spans.append(rec)
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = time.perf_counter() - origin
                stack.pop()
            if tag is not None:
                rec[4] = int(tag(args, kwargs, result))
            return result

        return traced

    @contextmanager
    def installed(self):
        """Wrap every stage in ``WRAPPED`` for the duration of the block.

        A stage that no longer exists under its name is listed in ``absent``.
        """
        restore = []
        try:
            for module, attr, name, tag in WRAPPED:
                found = _resolve(module, attr)
                if found is None:
                    if f"{module}.{attr}" not in self.absent:
                        self.absent.append(f"{module}.{attr}")
                    continue
                owner, key = found
                original = getattr(owner, key)
                setattr(owner, key, self._wrap(original, name, tag))
                restore.append((owner, key, original))
            yield self
        finally:
            for owner, key, original in reversed(restore):
                setattr(owner, key, original)

    def layer_metrics(self, measured: dict) -> dict:
        """Every metric of ``LAYER_UNITS``, from the recorded spans and ``measured``.

        ``measured`` holds the figures taken outside the spans: the untraced
        per-hop wall times, the tracing overhead and the accuracy. A metric
        that neither provides (a hop value not swept, a stage never called)
        reads 0.
        """
        total: dict[str, float] = {}
        calls: dict[str, int] = {}
        tags: dict[str, list[int]] = {}
        covered = [0.0] * len(self.spans)
        for name, start, end, parent, tag in self.spans:
            total[name] = total.get(name, 0.0) + (end - start)
            calls[name] = calls.get(name, 0) + 1
            if tag is not None:
                tags.setdefault(name, []).append(tag)
            if parent >= 0:
                covered[parent] += end - start
        self_s = sum(
            (end - start) - covered[i]
            for i, (name, start, end, _, _) in enumerate(self.spans)
            if name == "stitch.mds_map_p"
        )
        skipped = sum(
            1
            for name, _, _, parent, _ in self.spans
            if name == "stitch.check_overlap" and (parent < 0 or self.spans[parent][0] != "stitch.merge")
        )
        sizes = tags.get("graph.shortest_paths_csr", [])
        values = {
            "graph.patch_nodes": sum(sizes),
            "graph.patch_size.p50": float(np.median(sizes)) if sizes else 0.0,
            "graph.patch_size.max": max(sizes, default=0),
            "embed.smacof.iters": sum(tags.get("embed.smacof", [])),
            "embed.smacof_refine.iters": sum(tags.get("embed.smacof_refine.majorize", [])),
            "stitch.mds_map_p.self_s": self_s,
            "stitch.patches_skipped": skipped,
            **measured,
        }
        metrics = {}
        for key, unit in LAYER_UNITS.items():
            if key in values:
                value = values[key]
            elif key.endswith(".calls"):
                value = calls.get(key[: -len(".calls")], 0)
            else:
                value = total.get(key[: -len(".s")], 0.0)
            metrics[key] = {"value": value, "unit": unit}
        return metrics

    def to_json(self) -> dict:
        return {"absent": self.absent, "spans": self.spans}
