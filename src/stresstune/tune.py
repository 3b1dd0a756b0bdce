"""Stress diagnostics and the stress-guided neighborhood-size sweep.

The figure of merit is the edge-restricted raw stress
``sum_E (||y_i - y_j||^2 - d_ij^2)^2``: it needs no ground truth, so the
sweep can pick the hop radius ``h`` whose stitched embedding scores lowest.
"""

from __future__ import annotations

import csv
import io
import json
import os
import time
from dataclasses import dataclass, fields
from itertools import repeat

import numpy as np

from .align import aligned_error, scale_ratio
from .core import Configuration, StressTuneError, _check_dense_fits, _Value
from .graph import DissimilarityGraph, _check_embeddable
from .stitch import mds_map_p

# Node count from which a sweep runs its hop values in worker processes. Each
# spawned worker pays about 0.7 s to import numpy, scipy and this package
# before its first hop value, so small sweeps stay inline. Measured on a
# 2-vCPU host (hollow rectangle, 10-NN graph, hops 1,2,3,5,10, BLAS on one
# thread, median of 3), inline vs 2 workers: with no refinement 0.58 vs
# 0.86 s at n=468, 1.12 vs 1.14 s at n=622 and 1.70 vs 1.50 s at n=828; with
# both refinements 3.49 vs 3.30 s at n=306. The bound lies between the two
# crossovers.
_POOL_MIN_NODES = 500

# BLAS thread counts pinned to 1 in the workers: with one hop value per core,
# multithreaded BLAS in each worker would oversubscribe the cores. Results do
# not depend on it; it is for speed. The README sweep (2-vCPU host, the
# caller's BLAS on two threads, 5 runs each) took 4.6-5.8 s with the pin and
# 6.0-7.3 s without it.
_BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


# About 1.2e-77: targets below it make every stress term, a fourth power, vanish.
_STRESS_MIN_SCALE = np.finfo(float).tiny ** 0.25


def _edge_sq_dists(Y: np.ndarray, ei, ej) -> np.ndarray:
    diff = Y[ei] - Y[ej]
    return np.einsum("ij,ij->i", diff, diff)


def _pair_stress(Y: np.ndarray, i: np.ndarray, j: np.ndarray, target: np.ndarray) -> float:
    """``sum_k (||y_{i_k} - y_{j_k}||^2 - t_k^2)^2``, the one sum behind every stress.

    The targets ``t`` are ``target``, or the pair distances of its rows if it
    is 2-d. A stress that overflows, or whose largest target is nonzero but
    below ``_STRESS_MIN_SCALE``, raises :class:`StressTuneError` naming it.
    """
    largest = target.max(initial=0.0) if target.ndim == 1 else np.inf
    try:
        with np.errstate(over="raise", invalid="raise"):
            target_sq = target**2 if target.ndim == 1 else _edge_sq_dists(target, i, j)
            if target.ndim == 2:
                largest = np.sqrt(target_sq.max(initial=0.0))
            total = float(((_edge_sq_dists(Y, i, j) - target_sq) ** 2).sum())
    except FloatingPointError:
        total = np.inf
    vanishes = 0.0 < largest < _STRESS_MIN_SCALE
    if vanishes or not np.isfinite(total):  # einsum overflows to inf without a flag
        how = "underflows" if vanishes else "overflows"
        raise StressTuneError(
            f"the stress {how} float64 (largest dissimilarity {largest:g}); rescale the graph"
        )
    return total


def stress(g: DissimilarityGraph, config: Configuration) -> float:
    """Raw stress of a configuration against the observed dissimilarities.

    ``sum over edges of (||y_i - y_j||^2 - d_ij^2)^2``. A stress that overflows
    float64, or whose every term vanishes in it, raises :class:`StressTuneError`.
    """
    if config.n != g.n:
        raise ValueError("configuration must cover every node")
    return _pair_stress(config.points, g.ei, g.ej, g.weights)


def noiseless_stress(g: DissimilarityGraph, config: Configuration, truth: Configuration) -> float:
    """Stress with observed dissimilarities replaced by true edge distances."""
    if config.n != g.n or truth.n != g.n:
        raise ValueError("configurations must cover every node")
    return _pair_stress(config.points, g.ei, g.ej, truth.points)


def complete_noiseless_stress(config: Configuration, truth: Configuration) -> float:
    """Noiseless stress summed over all unordered pairs, not just edges."""
    if config.n != truth.n:
        raise ValueError("configurations must have the same size")
    # The pair indices and the squared distances: traced at 3.50 x 8n^2 bytes
    # for n = 1,000-3,000.
    _check_dense_fits("complete_noiseless_stress", config.n, 4)
    iu, ju = np.triu_indices(config.n, k=1)
    return _pair_stress(config.points, iu, ju, truth.points)


@dataclass(frozen=True)
class SweepRow(_Value):
    """Diagnostics for one swept hop radius."""

    h: int
    stress: float | None
    stress_per_edge: float | None
    embedding_error: float | None
    scale_ratio: float | None
    wall_time_s: float | None
    failed: bool

    def __post_init__(self):
        if self.failed:
            if self.stress is not None or self.stress_per_edge is not None:
                raise ValueError("failed rows must not carry stress values")
        elif self.stress is None or self.stress_per_edge is None:
            raise ValueError("successful rows must carry stress values")


# Columns of the JSON and CSV forms of a sweep, in SweepRow field order.
_COLUMNS = tuple(f.name for f in fields(SweepRow))


@dataclass(frozen=True)
class SweepReport(_Value):
    """Sweep rows (ascending h); the stress-minimizing ``selected_h`` is derived from them."""

    rows: tuple[SweepRow, ...]

    def __post_init__(self):
        rows = tuple(self.rows)
        hs = [r.h for r in rows]
        if hs != sorted(set(hs)):
            raise ValueError("rows must be sorted by h without duplicates")
        if all(r.failed for r in rows):
            raise ValueError("a report needs at least one successful row")
        object.__setattr__(self, "rows", rows)

    @property
    def selected_h(self) -> int:
        """The h of the lowest-stress successful row, ties toward the smaller h."""
        return min((r for r in self.rows if not r.failed), key=lambda r: (r.stress, r.h)).h

    def row(self, h: int) -> SweepRow:
        for r in self.rows:
            if r.h == h:
                return r
        raise KeyError(f"no row for h={h}")

    @property
    def selected_row(self) -> SweepRow:
        return self.row(self.selected_h)

    def _records(self, include_timing: bool):
        for r in self.rows:
            record = {name: getattr(r, name) for name in _COLUMNS}
            if not include_timing:
                record["wall_time_s"] = None
            yield record

    def to_json(self, include_timing: bool = False) -> str:
        """Serialize to the stable JSON schema.

        Wall times are nondeterministic, so they serialize as null unless
        ``include_timing`` is set; reruns of a seeded pipeline then produce
        byte-identical output.
        """
        rows = list(self._records(include_timing))
        return json.dumps({"rows": rows, "selected_h": self.selected_h}, indent=2) + "\n"

    def to_csv(self, include_timing: bool = False) -> str:
        """CSV with the same columns and null policy as the JSON form."""
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(_COLUMNS)
        # csv writes None as "" and a float as its repr, so values round-trip.
        for record in self._records(include_timing):
            record["failed"] = "true" if record["failed"] else "false"
            writer.writerow(record.values())
        return buf.getvalue()


def _usable_cores() -> int:
    if hasattr(os, "sched_getaffinity"):  # Linux: the cores this process may run on
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _sweep_one(
    h: int,
    g: DissimilarityGraph,
    p: int,
    truth: Configuration | None,
    refine_patches: bool,
    final_refine: bool,
) -> tuple[SweepRow, Configuration | None, str | None]:
    """Stitch and score one hop value; a stitch's domain error yields a failed row and its message."""
    start = time.perf_counter()
    config = cause = None
    try:
        config = mds_map_p(g, h, p, refine_patches=refine_patches, final_refine=final_refine)
    except StressTuneError as exc:
        cause = str(exc)
    s = per_edge = err = ratio = None
    if config is not None:
        s = stress(g, config)
        per_edge = s / g.edge_count
        if truth is not None:
            err, ratio = aligned_error(config, truth), scale_ratio(config, truth)
    row = SweepRow(
        h=h,
        stress=s,
        stress_per_edge=per_edge,
        embedding_error=err,
        scale_ratio=ratio,
        wall_time_s=time.perf_counter() - start,
        failed=config is None,
    )
    return row, config, cause


def _exit_with_parent() -> None:
    """Pool initializer: end this worker as soon as the process that spawned it is gone.

    A worker holds the write end of its own task pipe, so a worker whose
    parent was killed would otherwise wait for its next task forever.
    """
    import multiprocessing
    import threading
    from multiprocessing.connection import wait

    sentinel = multiprocessing.parent_process().sentinel

    def watch():
        wait([sentinel])
        os._exit(1)

    threading.Thread(target=watch, daemon=True).start()


def _sweep_in_processes(hs: list[int], workers: int, args: tuple) -> dict:
    """``{h: _sweep_one(h, *args)}`` from a pool of spawned worker processes.

    Hop values go largest (slowest) first, and the first error in that order
    surfaces as itself; results are keyed by h, so they do not depend on the
    schedule. Each worker exits when this process dies, even if it is killed.
    """
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor
    from concurrent.futures.process import BrokenProcessPool

    saved = {var: os.environ.get(var) for var in _BLAS_THREAD_VARS}
    try:
        with ProcessPoolExecutor(
            max_workers=workers,
            mp_context=multiprocessing.get_context("spawn"),
            initializer=_exit_with_parent,
        ) as pool:
            try:
                # Workers copy the environment when they start, and with spawn
                # they start as map submits the tasks, all before it returns.
                os.environ.update({var: "1" for var in _BLAS_THREAD_VARS})
                outcomes = pool.map(_sweep_one, hs[::-1], *(repeat(a) for a in args))
            finally:
                for var, value in saved.items():
                    if value is None:
                        os.environ.pop(var, None)
                    else:
                        os.environ[var] = value
            return dict(zip(hs[::-1], outcomes))
    except BrokenProcessPool as exc:
        raise StressTuneError(
            "a sweep worker process died: a signal or the out-of-memory killer may "
            "have ended it, or the calling script lacks an "
            '`if __name__ == "__main__":` guard (spawned workers import the main '
            "module, so a script that sweeps with workers must start the sweep under one)"
        ) from exc


def sweep_hops(
    g: DissimilarityGraph,
    p: int,
    hs,
    truth: Configuration | None = None,
    refine_patches: bool = True,
    final_refine: bool = True,
    embeddings: dict | None = None,
) -> SweepReport:
    """Stitch the graph at each hop radius and score the results by stress.

    Bad hop values, ``p`` and a disconnected graph are refused before any
    stitch. Hop values whose stitch fails with a domain error are kept as
    ``failed`` rows (if all fail, the error names each cause); a stress beyond
    float64 raises instead. When ``truth`` is given,
    rows also carry the aligned embedding error and the scale ratio. Pass a
    dict as ``embeddings`` to receive the per-h configurations.

    Graphs of at least 500 nodes sweep in spawned worker processes, one per
    usable core and hop value, each with BLAS on one thread for speed (no
    result depends on the BLAS thread count). Workers import
    the caller's main module, so a script must sweep under an
    ``if __name__ == "__main__":`` guard; without one the sweep raises
    :class:`StressTuneError`.
    """
    hs = sorted({int(h) for h in hs})
    if not hs:
        raise ValueError("need at least one hop value")
    if truth is not None and truth.n != g.n:
        raise ValueError("truth configuration must cover every node")
    _check_embeddable(g, p, hs)
    workers = min(len(hs), _usable_cores()) if g.n >= _POOL_MIN_NODES else 1

    args = (g, p, truth, refine_patches, final_refine)
    if workers > 1:
        outcomes = _sweep_in_processes(hs, workers, args)
    else:
        outcomes = {h: _sweep_one(h, *args) for h in hs[::-1]}

    rows = []
    causes: dict[str | None, list[int]] = {}  # None for the hop values that stitched
    for h in hs:
        row, config, cause = outcomes[h]
        rows.append(row)
        causes.setdefault(cause, []).append(h)
        if embeddings is not None and config is not None:
            embeddings[h] = config
    if all(r.failed for r in rows):
        named = "; ".join(f"h={', '.join(map(str, failed))}: {cause}" for cause, failed in causes.items())
        raise StressTuneError(f"every swept hop value failed: {hs}; {named}")
    return SweepReport(rows=tuple(rows))
