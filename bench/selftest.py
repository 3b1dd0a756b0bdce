"""Self-test of the benchmark's checks at tiny n.

Each check must accept the program's genuine output and reject corrupted
copies of it: a displaced node, permuted rows, a wrong ``selected_h``, a
tampered merge log, wrong traced counts and a wrong connectivity radius.

Run from the root of a source checkout::

    python3 bench/selftest.py

It prints one line per case and exits 1 if any check misjudges a case.
"""

from __future__ import annotations

import json
import sys

import program  # first: pins BLAS threads before numpy loads

import numpy as np

import checks
from run import END_TO_END_UNITS
import tracer as tracer_module
from tracer import LAYER_UNITS, Tracer
from workloads import P, RADIUS_MULTIPLE, WORKLOADS

TINY_N = 300


class SelfTest:
    def __init__(self):
        self.failures = 0

    def accepts(self, label: str, fn) -> None:
        try:
            fn()
        except checks.CheckError as exc:
            self.failures += 1
            print(f"FAIL {label}: genuine output rejected: {exc}")
        else:
            print(f"ok   {label}: genuine output accepted")

    def expect(self, ok: bool, label: str, detail: str = "") -> None:
        if ok:
            print(f"ok   {label}")
        else:
            self.failures += 1
            print(f"FAIL {label}: {detail}")

    def rejects(self, label: str, fn) -> None:
        try:
            fn()
        except checks.CheckError as exc:
            print(f"ok   {label}: rejected ({exc})")
        else:
            self.failures += 1
            print(f"FAIL {label}: corrupted output accepted")


def declared_metrics(t: SelfTest) -> None:
    """BENCHMARK.json declares exactly the workloads and metrics that run.py reports."""
    spec = json.loads((program.ROOT / "BENCHMARK.json").read_text())
    for key, reported in (("end_to_end", END_TO_END_UNITS), ("per_layer", LAYER_UNITS)):
        declared = {m["name"]: m["unit"] for m in spec[key]}
        t.expect(declared == reported, f"BENCHMARK.json {key} matches the reported metrics", f"{declared} != {reported}")
    names = [w["name"] for w in spec["workloads"]]
    t.expect(names == list(WORKLOADS), "BENCHMARK.json workloads match", f"{names} != {list(WORKLOADS)}")


def sweep_cases(t: SelfTest, st, name: str) -> None:
    wl = WORKLOADS[name]
    inputs = wl.setup(st, seed=0, n=TINY_N)
    outcome = wl.solve(st, inputs)
    t.accepts(f"{name} checks", lambda: wl.check(st, inputs, outcome))
    report, emb = outcome.result
    g, sel = inputs.graph, report.selected_h
    rows = [(r.h, r.stress, r.failed) for r in report.rows]

    def sweep(embeddings, selected=sel):
        return lambda: checks.check_sweep(g.ei, g.ej, g.weights, g.n, P, rows, embeddings, selected)

    displaced = dict(emb)
    displaced[sel] = emb[sel].copy()
    displaced[sel][g.n // 2] += 0.05 * np.ptp(emb[sel], axis=0)
    t.rejects(f"{name} displaced node", sweep(displaced))
    perm = np.random.default_rng(0).permutation(g.n)
    permuted = dict(emb)
    permuted[sel] = emb[sel][perm]
    t.rejects(f"{name} permuted rows", sweep(permuted))
    other = min((h for h, _, failed in rows if not failed and h != sel), default=sel + 1)
    t.rejects(f"{name} wrong selected_h", sweep(emb, other))
    truth = inputs.truth.points
    scrambled = checks.nrmse(emb[sel][perm], truth)
    t.rejects(
        f"{name} scrambled embedding (nrmse {scrambled:.2f})",
        lambda: checks.check_nrmse(scrambled, scrambled, wl.nrmse_bound),
    )
    if "radius" in inputs.extra:
        points = inputs.extra["points"].points
        wrong = inputs.extra["radius"] * (1 + 1e-9)
        t.rejects(f"{name} wrong radius", lambda: checks.check_radius(points, wrong, RADIUS_MULTIPLE))


def embed_cases(t: SelfTest, st) -> None:
    wl = WORKLOADS["embed_refined"]
    inputs = wl.setup(st, seed=0, n=TINY_N)
    tracer = Tracer()
    with tracer.installed():
        outcome = wl.solve(st, inputs)
    counts = {k: v["value"] for k, v in tracer.layer_metrics({}).items()}
    t.accepts("embed_refined checks", lambda: wl.check(st, inputs, outcome, counts))
    Y, stitched, log = outcome.result
    g = inputs.graph
    balls = checks.hop_balls(g.ei, g.ej, g.n, wl.h)
    merges, skipped = checks.replay_merge_log(log, balls, g.n, P)

    def replay(entries):
        return lambda: checks.replay_merge_log(tuple(entries), balls, g.n, P)

    tampered = list(log)
    tampered[1] = (tampered[1][0], tampered[1][1] + 1)
    t.rejects("merge log with a wrong overlap", replay(tampered))
    t.rejects("merge log with a repeated centre", replay(list(log) + [log[-1]]))
    t.rejects("merge log with a nonzero seed overlap", replay([(log[0][0], 3)] + list(log[1:])))
    k = _merging_entries(log, balls, g.n)[-1]
    t.rejects("merge log missing its last merge", replay(log[:k] + log[k + 1 :]))
    t.rejects("merge log in another order", replay([log[0]] + list(reversed(log[1:]))))

    wrong = dict(counts, **{"stitch.merge.calls": counts["stitch.merge.calls"] - 1})
    t.rejects("traced merges off by one", lambda: checks.check_trace_counts(wrong, merges, skipped, len(log)))
    wrong = dict(counts, **{"embed.smacof.calls": counts["embed.smacof.calls"] + 1})
    t.rejects("traced patch refinements off by one",
              lambda: checks.check_trace_counts(wrong, merges, skipped, len(log)))

    displaced = Y.copy()
    displaced[g.n // 2] += np.ptp(Y, axis=0)
    t.rejects("refined result with a displaced node",
              lambda: checks.check_refinement(displaced, stitched, g.ei, g.ej, g.weights))
    t.rejects("refined result with permuted rows",
              lambda: checks.check_refinement(Y[np.random.default_rng(1).permutation(g.n)], stitched,
                                              g.ei, g.ej, g.weights))


def absent_stage(t: SelfTest, st) -> None:
    """A wrapped stage that no longer exists is reported as absent, not a crash."""
    missing = ("stresstune.stitch", "no_such_stage", "stitch.no_such_stage", None)
    saved = tracer_module.WRAPPED
    tracer_module.WRAPPED = saved + (missing,)
    try:
        tracer = Tracer()
        with tracer.installed():
            pass
    finally:
        tracer_module.WRAPPED = saved
    t.expect(
        tracer.absent == ["stresstune.stitch.no_such_stage"] and not hasattr(st.stitch, "no_such_stage"),
        "a missing stage is reported as absent",
        f"absent={tracer.absent}",
    )


def _merging_entries(log, balls, n: int) -> list[int]:
    """Indices of the merge-log entries that place new nodes."""
    placed = np.zeros(n, dtype=bool)
    found = []
    for k, (c, _) in enumerate(log):
        members = balls.indices[balls.indptr[c] : balls.indptr[c + 1]]
        if not placed[members].all():
            found.append(k)
        placed[members] = True
    return found


def main() -> int:
    try:
        st = program.import_stresstune()
    except program.MissingProgram as exc:
        print(f"selftest: {exc}", file=sys.stderr)
        return 2
    t = SelfTest()
    declared_metrics(t)
    sweep_cases(t, st, "sweep_hollow")
    sweep_cases(t, st, "unroll_swiss")
    embed_cases(t, st)
    absent_stage(t, st)
    print("selftest:", "FAILED" if t.failures else "all checks behave")
    return 1 if t.failures else 0


if __name__ == "__main__":
    sys.exit(main())
