#!/usr/bin/env python3
"""Self-test of the benchmark itself (not of the package). Run from the repository root:

    python3 benchmarks/selftest.py

It checks that tracing does not change what the package computes, that the
wrappers leave every patched attribute as they found it, that the edge
walk counts a hand-built graph correctly, and that BENCHMARK.json and the
metrics the code produces agree and use well-formed names. It uses
one-epoch learner runs, so it finishes in well under a minute.
"""

from __future__ import annotations

import json
import re
import sys

import run
import tracing

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")
failures = []


def check(what: str, ok: bool, detail: str = "") -> None:
    print(f"{'PASS' if ok else 'FAIL'} {what}{': ' + detail if detail and not ok else ''}")
    if not ok:
        failures.append(what)


def untouched(saved) -> bool:
    return all(vars(o)[a] is f for o, a, f in saved)


def small_inputs(pkg, workload):
    inp = run.setup(pkg, workload, 1)
    inp.cfg.doc["robust_learn"]["epochs"] = 1
    return inp


def test_tracing_keeps_outputs(pkg):
    for workload in ("learn-linear", "learn-mlp"):
        wl = run.Workload(pkg, small_inputs(pkg, workload))
        plain = wl.digest(wl.run())
        tracer = tracing.Tracer()
        with tracing.patched(tracing.timing_wrappers(pkg, tracer)), tracer.span("bench.pass"):
            timed = wl.digest(wl.run())
        counts = []
        for _ in range(2):
            counter = tracing.TapeCounter(pkg)
            with tracing.patched(counter.wrappers()), counter.tracer.span("bench.pass"):
                counted = wl.digest(wl.run())
            counts.append(tracing.exact_counts(tracing.SpanTree(counter.tracer.spans)))
        check(f"{workload}: traced and untraced passes give one learned-dataset hash", plain == timed == counted)
        check(f"{workload}: exact counts repeat", counts[0] == counts[1], f"{counts}")
        tree = tracing.SpanTree(tracer.spans)
        batches = tree.batches(tree.named("learning.learn_robust_dataset")[0])
        check(f"{workload}: one traced batch per learner batch", len(batches) == wl.items, f"{len(batches)} != {wl.items}")


def test_wrappers_restore(pkg):
    saved = tracing.patch_points(pkg)
    counter = tracing.TapeCounter(pkg)
    try:
        with tracing.patched(counter.wrappers() + tracing.timing_wrappers(pkg, tracing.Tracer())):
            check("wrappers are installed while patched", not untouched(saved))
            raise KeyboardInterrupt
    except KeyboardInterrupt:
        pass
    check("wrappers leave no patched attribute behind, also after an interrupt", untouched(saved))
    leftovers = [f"{o.__name__}.{a}" for o, a, f in saved if hasattr(vars(o)[a], "__wrapped__")]
    check("no module attribute is still a wrapper", not leftovers, f"{leftovers}")


def test_edge_walk(pkg):
    ad = pkg.autodiff
    a, b = ad.Tensor([1.0, 2.0]), ad.Tensor([3.0, 4.0])
    out = ad.tsum(ad.mul(a, b))  # edges: sum->mul, mul->a, mul->b; only mul->b is useless for d/da
    check("edge walk on sum(a*b) w.r.t. a", tracing.adjoint_edges(out, [a]) == (2, 3), f"{tracing.adjoint_edges(out, [a])}")
    check("edge walk on sum(a*b) w.r.t. a and b", tracing.adjoint_edges(out, [a, b]) == (3, 3))


def test_metric_names(pkg):
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    check("BENCHMARK.json has exactly the contract keys",
          set(spec) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"})
    check("workloads in BENCHMARK.json match run.py", [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS))
    metrics = spec["end_to_end"] + spec["per_layer"]
    names = [m["name"] for m in metrics]
    bad = [n for n in names if not NAME.fullmatch(n)] + [m["unit"] for m in metrics if not UNIT.fullmatch(m["unit"])]
    check("every metric name uses only [A-Za-z0-9_.-] and every unit is well formed", not bad, f"{bad}")
    check("metric names are unique", len(names) == len(set(names)))
    check("end-to-end bounds are at most 0.25", all(0 < m["bound"] <= 0.25 for m in spec["end_to_end"]))
    produced = set(tracing.timing_metrics(tracing.SpanTree([]))) | set(
        tracing.count_metrics({k: 0 for k in tracing.exact_counts(tracing.SpanTree([]))})
    ) | {"trace.overhead_share"}
    declared = {m["name"] for m in spec["per_layer"]}
    check("per-layer metrics produced match BENCHMARK.json", produced == declared, f"{sorted(produced ^ declared)}")


def main() -> int:
    run.pin_blas_threads()
    pkg = run.load_package()
    test_metric_names(pkg)
    test_edge_walk(pkg)
    test_wrappers_restore(pkg)
    test_tracing_keeps_outputs(pkg)
    print(f"{len(failures)} failed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
