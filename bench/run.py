"""Benchmark of stresstune's hop sweep, refined stitch and local Isomap.

Usage, from the root of a source checkout::

    python3 bench/run.py --workload sweep_hollow --seed 0 --seconds 10 --trace 0

A run builds its workload's inputs from ``--seed``, repeats the workload's
main call in whole rounds until ``--seconds`` have passed (at least one
round), checks the outputs independently of the program, and prints one
line per metric followed by a JSON object as the last line of stdout.
``--trace 0`` reports the end-to-end metrics. ``--trace 1`` reports the
per-layer metrics: it times untraced rounds as above, then one traced round,
and writes the spans to ``bench/out/``. See ``bench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time
from contextlib import nullcontext

import program  # first: pins BLAS threads before numpy loads

import checks
from tracer import Tracer
from workloads import WORKLOADS

OUT_DIR = program.ROOT / "bench" / "out"
END_TO_END_UNITS = {"solve_s": "s", "setup_s": "s", "peak_rss_mb": "MB", "nrmse_ratio": "1"}


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def timed_rounds(workload, st, inputs, seconds: float):
    """Whole rounds until ``seconds`` have passed; every round must match the first."""
    times, failed, first = [], 0, None
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        outcome = workload.solve(st, inputs)
        times.append(time.perf_counter() - t0)
        failed += outcome.failed
        if first is None:
            first = outcome
        elif outcome.fingerprint != first.fingerprint:
            raise checks.CheckError(f"round {len(times)} returned other outputs than round 1")
        if time.perf_counter() - start >= seconds:
            return times, failed, first


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        st = program.import_stresstune()
    except program.MissingProgram as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    tracer = Tracer() if args.trace else None

    with tracer.installed() if tracer else nullcontext():
        inputs = workload.setup(st, args.seed)
    setup_s = program.process_age_s()

    try:
        times, failed, first = timed_rounds(workload, st, inputs, args.seconds)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        solve_s = statistics.median(times)
        attempted = len(times) * workload.operations
        error, reference = workload.check(st, inputs, first)
        if tracer:
            with tracer.installed():
                t0 = time.perf_counter()
                traced = workload.solve(st, inputs)
                traced_s = time.perf_counter() - t0
            attempted += workload.operations
            failed += traced.failed
            if traced.fingerprint != first.fingerprint:
                raise checks.CheckError("the traced round returned other outputs than the untraced one")
            metrics = tracer.layer_metrics({
                **{f"tune.h{h}.s": t for h, t in workload.hop_times(first).items()},
                "trace.overhead_s": traced_s - solve_s,
                "align.nrmse": error,
            })
            workload.check(st, inputs, traced, {k: v["value"] for k, v in metrics.items()})
    except checks.CheckError as exc:
        print(f"bench: check failed on {args.workload} seed {args.seed}: {exc}", file=sys.stderr)
        return 1

    if tracer:
        OUT_DIR.mkdir(parents=True, exist_ok=True)
        path = OUT_DIR / f"trace-{args.workload}-seed{args.seed}.json"
        with open(path, "w") as fh:
            json.dump({"workload": args.workload, "seed": args.seed, "metrics": metrics, **tracer.to_json()}, fh)
        if tracer.absent:
            print(f"bench: absent stages: {', '.join(tracer.absent)}", file=sys.stderr)
    else:
        values = {"solve_s": solve_s, "setup_s": setup_s, "peak_rss_mb": peak_rss_mb, "nrmse_ratio": error / reference}
        metrics = {k: {"value": values[k], "unit": unit} for k, unit in END_TO_END_UNITS.items()}
    print(f"{args.workload} seed={args.seed} rounds={len(times)} attempted={attempted} failed={failed}")
    for name, m in metrics.items():
        print(f"  {name:34s} {m['value']:>14.6g} {m['unit']}")
    print(json.dumps({"correct": True, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
