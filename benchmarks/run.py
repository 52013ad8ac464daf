#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of the robustdata package.

Run from the repository root:

    python3 benchmarks/run.py --workload learn-linear --seed 3 --seconds 30 --trace 0

Workloads (one caller, closed loop: the next pass starts when the last
one has been checked), all on configs/synthetic-d20.json data (d=20,
n=2000, batch 128, l-inf eps 0.8, 10 PGD steps):

  learn-linear  the shipped `learn` config: tri-level learner on the
                linear hinge model (50 epochs), then `write_dataset`.
                Bound by per-tensor interpreter overhead on the tape.
  learn-mlp     the same learner on mlp:256-256 with cross-entropy, at
                2 epochs. Bound by matmul arithmetic; interpreter-overhead
                fixes should leave it unchanged.
  evaluate      the shipped `evaluate` plan (linear; seeds 0/1/2; budgets
                0.4/0.8; fractions 0.1/0.2/1.0) on the natural training
                set and a 10k clean test set: first-order tape only, PGD
                on 4096-row chunks.

The seed makes every input: the training set, the test set and the
model initialisation, exactly as `robustdata <cmd> --seed N` does.
Before timing, one pass at the reference seed warms the process and its
output digests are compared with benchmarks/reference.json, so a change
that alters outputs fails here. Every timed pass is checked (finite
data, labels unchanged, drift inside epochs*beta, a byte-identical
file round trip, a well-formed report) and all passes of a run must
produce the same digest.

--trace 0 prints the end-to-end metrics. Times are medians per pass,
rescaled to a reference host speed: each pass sits between two runs of a
fixed probe (`host_probe`), and wall_ref_s is pass wall time x (reference
probe time / probe time beside the pass); cpu_ref_s likewise for process
CPU time. Raw wall-time quartiles go to stderr. setup_s is the median
of several fresh interpreters that import, resolve the config and
sample, each rescaled the same way by a start-up probe (`setup_seconds`).
--trace 1 alternates untraced and traced passes, runs two counts passes,
and prints the per-layer metrics (see tracing.py). The last line of stdout is one JSON object
with the keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from types import SimpleNamespace

from tracing import (
    SpanTree, TapeCounter, Tracer, count_metrics, exact_counts, patch_points, patched, timing_metrics, timing_wrappers,
)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".bench_out"
CONFIG = ROOT / "configs" / "synthetic-d20.json"
REFERENCE_SEED = 0
SETUP_REPEATS = 7
STARTUP_PROBE = [sys.executable, "-c", "import numpy"]
MIN_PASSES = 3
ROBUST_ACC_BOUND = 0.7  # README acceptance bound for the linear learned dataset

WORKLOADS = {
    "learn-linear": {"model": {"arch": "linear"}},
    "learn-mlp": {"model": {"arch": "mlp:256-256"}, "robust_learn": {"epochs": 2}},
    "evaluate": {},
}


def nproc() -> int:
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


def pin_blas_threads() -> None:
    """Fix the BLAS pool size before numpy loads: two threads, capped at nproc."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(min(2, nproc()))


def load_package() -> SimpleNamespace:
    """Import robustdata from this checkout's src/ and refuse any other copy."""
    src = (ROOT / "src").resolve()
    if not (src / "robustdata").is_dir():
        raise FileNotFoundError(f"no robustdata package under {src}")
    sys.path.insert(0, str(src))
    import robustdata
    from robustdata import attacks, autodiff, config, datafile, dataset, evaluation, learning, models, rng, theory

    if Path(robustdata.__file__).resolve().parent != src / "robustdata":
        raise ImportError(f"robustdata imported from {robustdata.__file__}, not {src}")
    return SimpleNamespace(
        attacks=attacks, autodiff=autodiff, config=config, datafile=datafile, dataset=dataset,
        evaluation=evaluation, learning=learning, models=models, rng=rng, theory=theory,
    )


# ---------------------------------------------------------------------------
# inputs and workload passes
# ---------------------------------------------------------------------------


@dataclass
class Inputs:
    workload: str
    seed: int
    cfg: object
    train: object
    test: object


def setup(pkg, workload: str, seed: int) -> Inputs:
    """Resolve the config and sample the inputs, as the CLI does for --seed."""
    doc = json.loads(CONFIG.read_text())
    for section, values in WORKLOADS[workload].items():
        doc[section] = {**doc.get(section, {}), **values}
    cfg = pkg.config.ExperimentConfig(doc)
    rng = pkg.rng.RngStream(seed)
    dist = cfg.section("distribution")
    train = pkg.theory.sample(cfg.distribution_spec(), dist["n_train"], rng.child(100))
    train.provenance["config_hash"] = cfg.config_hash()
    test_spec = pkg.theory.DistributionSpec(d=dist["d"], mu=dist["mu"], p=dist["p"], mode=pkg.theory.GAUSSIAN)
    test = pkg.theory.sample(test_spec, dist["n_test"], rng.child(101))
    return Inputs(workload, seed, cfg, train, test)


def learn_pass(pkg, inp: Inputs):
    cfg, rl = inp.cfg, inp.cfg.section("robust_learn")
    learn_cfg = pkg.learning.RobustLearnConfig(
        epochs=rl["epochs"], gamma=rl["gamma"], beta=rl["beta"], attack=cfg.attack_config(),
        batch_size=rl["batch_size"], theta0_seed=inp.seed, mode=rl["mode"], lam=rl["lam"],
    )
    factory = pkg.evaluation.model_factory(cfg.section("model")["arch"], inp.train.width)
    rng = pkg.rng.RngStream(inp.seed)
    learned, _ = pkg.learning.learn_robust_dataset(inp.train, factory, learn_cfg, rng.child(200))
    learned.provenance["config_hash"] = cfg.config_hash()
    pkg.datafile.write_dataset(OUT / inp.workload / "robust_dataset.rds", learned)
    return learned


def evaluate_pass(pkg, inp: Inputs, dataset=None, fractions=None, seeds=None, budgets=None):
    """The CLI's `evaluate` on `dataset` (default: the natural training set)."""
    cfg, ev = inp.cfg, inp.cfg.section("eval")
    dataset = inp.train if dataset is None else dataset
    rng = pkg.rng.RngStream(inp.seed)
    reports = []
    for fraction in fractions or ev["subsample_fractions"]:
        ds = dataset if fraction == 1.0 else pkg.dataset.subsample(dataset, fraction, rng.child(400))
        plan = pkg.evaluation.EvalPlan(
            ds, inp.test, ev["architectures"], seeds or ev["seeds"], budgets or ev["budgets"],
            cfg.attack_config(), cfg.train_config(),
        )
        report = pkg.evaluation.evaluate_dataset(plan, rng.child(401))
        report.provenance.update(config_hash=cfg.config_hash(), seed=inp.seed, subsample_fraction=fraction)
        reports.append(report)
    return reports


def learned_check(pkg, inp: Inputs, learned):
    """Fresh natural training of a linear model on the learned data, PGD at eps on clean test data."""
    eps = inp.cfg.attack_config().eps
    return evaluate_pass(pkg, inp, learned, fractions=[1.0], seeds=[0], budgets=[eps])[0]


def sha256(blob: bytes) -> str:
    return hashlib.sha256(blob).hexdigest()


def report_digest(reports) -> str:
    return sha256(b"".join(r.canonical_bytes() for r in reports))


class Workload:
    """One pass of a workload plus the checks on its output."""

    def __init__(self, pkg, inp: Inputs):
        self.pkg, self.inp = pkg, inp
        self.learns = inp.workload.startswith("learn")
        (OUT / inp.workload).mkdir(parents=True, exist_ok=True)

    @property
    def items(self) -> int:
        """Learner batches (learn-*) or report cells (evaluate) per pass."""
        cfg = self.inp.cfg
        if self.learns:
            rl = cfg.section("robust_learn")
            return rl["epochs"] * -(-self.inp.train.n // rl["batch_size"])
        ev = cfg.section("eval")
        return len(ev["subsample_fractions"]) * len(ev["architectures"]) * len(ev["seeds"]) * len(ev["budgets"])

    def run(self):
        return learn_pass(self.pkg, self.inp) if self.learns else evaluate_pass(self.pkg, self.inp)

    def digest(self, out) -> str:
        return sha256(out.features.tobytes()) if self.learns else report_digest(out)

    def problems(self, out) -> list[str]:
        return self._learned_problems(out) if self.learns else self._report_problems(out)

    def _learned_problems(self, learned) -> list[str]:
        import numpy as np
        nat, rl = self.inp.train, self.inp.cfg.section("robust_learn")
        found = []
        if learned.features.shape != nat.features.shape or not np.all(np.isfinite(learned.features)):
            found.append("learned features are not finite or changed shape")
            return found
        if not np.array_equal(learned.labels, nat.labels):
            found.append("learned labels differ from the natural labels")
        # each epoch moves every coordinate by at most beta
        drift = float(np.max(np.abs(learned.features - nat.features)))
        if drift > rl["epochs"] * rl["beta"] * (1 + 1e-9):
            found.append(f"learned data drifted {drift} > epochs*beta")
        if learned.value_range is not None:
            lo, hi = learned.value_range
            if learned.features.min() < lo or learned.features.max() > hi:
                found.append("learned data leaves its value range")
        back = self.pkg.datafile.read_dataset(OUT / self.inp.workload / "robust_dataset.rds")
        if not (np.array_equal(back.features, learned.features) and np.array_equal(back.labels, learned.labels)):
            found.append("written dataset does not read back identically")
        return found

    def _report_problems(self, reports) -> list[str]:
        ev = self.inp.cfg.section("eval")
        per_report = len(ev["architectures"]) * len(ev["seeds"]) * len(ev["budgets"])
        found = []
        for report in reports:
            cells = report.sorted_cells()
            if len(cells) != per_report:
                found.append(f"report has {len(cells)} cells, expected {per_report}")
            for c in cells:
                if not 0.0 <= c["robust_acc"] <= c["natural_acc"] <= 1.0:
                    found.append(f"cell {c} violates 0 <= robust <= natural <= 1")
            # PGD attains the worst case on linear models, so robustness cannot rise with the budget
            for a, b in zip(cells, cells[1:]):
                if (a["arch"], a["seed"]) == (b["arch"], b["seed"]) and a["arch"] == "linear":
                    if b["robust_acc"] > a["robust_acc"]:
                        found.append(f"robust accuracy rises with the budget: {a} -> {b}")
        return found

    def quality(self, out):
        """(robust accuracy, report digest) of the workload's headline evaluation."""
        if self.learns:
            report = learned_check(self.pkg, self.inp, out)
            return report.cells[0]["robust_acc"], report_digest([report])
        full = next(r for r in out if r.provenance["subsample_fraction"] == 1.0)
        eps = self.inp.cfg.attack_config().eps
        accs = [c["robust_acc"] for c in full.cells if abs(c["budget"] - eps) < 1e-12]
        return statistics.fmean(accs), report_digest(out)


# ---------------------------------------------------------------------------
# one benchmark run
# ---------------------------------------------------------------------------


class Tally:
    def __init__(self):
        self.attempted = self.failed = 0
        self.correct = True

    def record(self, what: str, problems: list[str], fatal: bool = True) -> None:
        """Count one attempt; `fatal` problems mean the outputs are wrong."""
        self.attempted += 1
        if problems:
            self.failed += 1
            self.correct = self.correct and not fatal
            for p in problems:
                print(f"FAIL {what}: {p}", file=sys.stderr)


def reference_pass(pkg, workload: str, tally: Tally) -> None:
    """Warm-up pass at the reference seed; its digests must match reference.json."""
    expected = json.loads((HERE / "reference.json").read_text())["workloads"][workload]
    wl = Workload(pkg, setup(pkg, workload, REFERENCE_SEED))
    out = wl.run()
    _, report = wl.quality(out)
    got = {"report_sha256": report}
    if wl.learns:
        got["features_sha256"] = wl.digest(out)
    found = wl.problems(out)
    for key, value in got.items():
        print(f"# reference seed {REFERENCE_SEED} {key} {value}", file=sys.stderr)
        if value != expected[key]:
            found.append(f"{key} {value} != reference {expected[key]}")
    tally.record(f"reference pass (seed {REFERENCE_SEED})", found)


def timed_pass(wl: Workload, tally: Tally, digests: set, run=None):
    t0, c0 = time.perf_counter(), time.process_time()
    out = (run or wl.run)()
    wall, cpu = time.perf_counter() - t0, time.process_time() - c0
    digests.add(wl.digest(out))
    found = wl.problems(out)
    if len(digests) > 1:
        found.append("pass output differs from an earlier pass of the same seed")
    tally.record("pass", found)
    return out, wall, cpu


def check_quality(wl: Workload, out, tally: Tally) -> float:
    acc, _ = wl.quality(out)
    found = []
    if wl.inp.workload == "learn-linear" and acc < ROBUST_ACC_BOUND:
        found.append(f"learned robust accuracy {acc:.4f} < {ROBUST_ACC_BOUND} (README bound)")
    # a shortfall is a property of the learner on this draw, not a wrong output
    tally.record(f"robust accuracy (seed {wl.inp.seed})", found, fatal=False)
    return acc


def host_probe() -> float:
    """Seconds for a fixed mix of Python arithmetic and small numpy operations.

    This is the benchmark's own code, so no change to the package can move it;
    it moves only with the speed the shared host gives this process, which
    drifts by 10-30% from one minute to the next. Each timed pass sits between
    two probes, and its times are rescaled to the reference probe time.
    """
    import numpy as np

    x = np.linspace(-1.0, 1.0, 128 * 21).reshape(128, 21)
    v = np.ones(21)
    t0 = time.perf_counter()
    total = 0
    for i in range(400_000):
        total += i * i
    for _ in range(2000):
        a = np.asarray(x * 1.0, dtype=np.float64)
        np.all(np.isfinite(a))
        (a @ v).sum()
    return time.perf_counter() - t0


def fresh_interpreter_seconds(cmd: list[str]) -> float:
    t0 = time.perf_counter()
    subprocess.run(cmd, check=True, cwd=ROOT, stdout=subprocess.DEVNULL)
    return time.perf_counter() - t0


def setup_seconds(workload: str, seed: int) -> float:
    """Median set-up time of a fresh interpreter, rescaled to the reference host speed.

    A fresh interpreter imports the package, resolves the config and samples
    the inputs. How fast the shared host starts processes drifts by 20-30%
    between minutes, and `host_probe` does not follow it, so each set-up sits
    between two runs of a start-up probe (a fresh interpreter that only imports
    numpy) and is rescaled to the reference start-up probe time.
    """
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-only", "--workload", workload, "--seed", str(seed)]
    reference_s = json.loads((HERE / "reference.json").read_text())["startup_probe_s"]
    probes, times = [fresh_interpreter_seconds(STARTUP_PROBE)], []
    for _ in range(SETUP_REPEATS):
        setup_s = fresh_interpreter_seconds(cmd)
        probes.append(fresh_interpreter_seconds(STARTUP_PROBE))
        times.append(setup_s * reference_s / statistics.fmean(probes[-2:]))
    print(f"# setup_s quartiles {statistics.quantiles(times, n=4)}; start-up probe median {statistics.median(probes)}", file=sys.stderr)
    return statistics.median(times)


def end_to_end(pkg, workload: str, seed: int, seconds: float, tally: Tally) -> dict[str, float]:
    setup_s = setup_seconds(workload, seed)
    wl = Workload(pkg, setup(pkg, workload, seed))
    reference_pass(pkg, workload, tally)

    reference_probe_s = json.loads((HERE / "reference.json").read_text())["probe_s"]
    walls, cpus, raw_walls, digests = [], [], [], set()
    probes = [host_probe()]
    deadline = time.perf_counter() + seconds
    while len(walls) < MIN_PASSES or time.perf_counter() < deadline:
        out, wall, cpu = timed_pass(wl, tally, digests)
        probes.append(host_probe())
        scale = reference_probe_s / statistics.fmean(probes[-2:])
        walls.append(wall * scale)
        cpus.append(cpu * scale)
        raw_walls.append(wall)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    robust_acc = check_quality(wl, out, tally)
    wall_ref_s = statistics.median(walls)
    print(
        f"# {len(walls)} passes; wall_ref_s quartiles {statistics.quantiles(walls, n=4)};"
        f" raw wall_s quartiles {statistics.quantiles(raw_walls, n=4)}; probe median {statistics.median(probes)}",
        file=sys.stderr,
    )
    return {
        "setup_s": setup_s,
        "wall_ref_s": wall_ref_s,
        "cpu_ref_s": statistics.median(cpus),
        "items_per_ref_s": wl.items / wall_ref_s,
        "peak_rss_mb": peak_rss_mb,
        "pass_rate": (tally.attempted - tally.failed) / tally.attempted,
        "robust_acc": robust_acc,
    }


def per_layer(pkg, workload: str, seed: int, seconds: float, tally: Tally) -> dict[str, float]:
    originals = patch_points(pkg)
    tracer = Tracer()
    with patched(timing_wrappers(pkg, tracer)), tracer.span("bench.setup"):
        inp = setup(pkg, workload, seed)
    wl = Workload(pkg, inp)
    reference_pass(pkg, workload, tally)

    def traced_run():
        with patched(timing_wrappers(pkg, tracer)), tracer.span("bench.pass"):
            return wl.run()

    plain, traced, digests = [], [], set()
    deadline = time.perf_counter() + seconds
    while len(traced) < MIN_PASSES or time.perf_counter() < deadline:
        plain.append(timed_pass(wl, tally, digests)[1])
        out, wall, _ = timed_pass(wl, tally, digests, traced_run)
        traced.append(wall)
    if wl.learns:
        with patched(timing_wrappers(pkg, tracer)), tracer.span("bench.check"):
            check_quality(wl, out, tally)

    counts = []
    for _ in range(2):
        counter = TapeCounter(pkg)
        with patched(counter.wrappers()):
            with counter.tracer.span("bench.pass"):
                out = wl.run()
            if wl.learns:
                with counter.tracer.span("bench.check"):
                    learned_check(pkg, inp, out)
        digests.add(wl.digest(out))
        counts.append(exact_counts(SpanTree(counter.tracer.spans)))
    found = [f"exact counts differ between two counts passes: {counts[0]} vs {counts[1]}"] if counts[0] != counts[1] else []
    if len(digests) > 1:
        found.append("traced, counted and untraced passes produced different outputs")
    left = [f"{getattr(o, '__name__', o)}.{a}" for o, a, f in originals if vars(o)[a] is not f]
    if left:
        found.append(f"wrappers left behind on {left}")
    tally.record("trace consistency", found)
    print(f"# exact counts {json.dumps(counts[0], sort_keys=True)}", file=sys.stderr)

    tracer.write_csv(OUT / workload / "spans.csv")
    metrics = timing_metrics(SpanTree(tracer.spans))
    metrics.update(count_metrics(counts[0]))
    metrics["trace.overhead_share"] = statistics.median(traced) / statistics.median(plain) - 1.0
    return metrics


def metadata(spec: dict, workload: str, seed: int) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    reference = json.loads((HERE / "reference.json").read_text())
    return {
        "workload": workload,
        "why": next(w["why"] for w in spec["workloads"] if w["name"] == workload),
        "seed": seed,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
        "nproc": nproc(),
        "reference_commit": reference["commit"],
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    pin_blas_threads()
    try:
        pkg = load_package()
        if args.setup_only:
            setup(pkg, args.workload, args.seed)
            return 0
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        tally = Tally()
        measure = per_layer if args.trace else end_to_end
        values = measure(pkg, args.workload, args.seed, args.seconds, tally)
    except (OSError, ImportError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    declared = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    if set(values) != set(declared):
        print(f"error: metrics {sorted(set(values) ^ set(declared))} do not match BENCHMARK.json", file=sys.stderr)
        return 2
    print(f"# meta {json.dumps(metadata(spec, args.workload, args.seed), sort_keys=True)}")
    for name in declared:
        print(f"{name} = {values[name]!r} {declared[name]}")
    result = {
        "correct": tally.correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": float(values[name]), "unit": declared[name]} for name in declared},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
