"""The benchmark's self-test passes against this checkout.

`benchmarks/tracing.py` replaces package attributes by name
(`batch_loss_graph`, `attack_gradient`, `pgd_attack`, `backward`,
`Tensor.__init__`) and reads their positional arguments, so renaming one or
reordering its arguments breaks the benchmark; this test shows it.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_benchmark_selftest_passes():
    proc = subprocess.run(
        [sys.executable, "benchmarks/selftest.py"], cwd=ROOT, capture_output=True, text=True, timeout=600
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.rstrip().endswith("0 failed")


def traced_run(workload: str) -> dict:
    """The last stdout line of one seed-0 traced run of `workload` with no timed passes."""
    proc = subprocess.run(
        [sys.executable, "benchmarks/run.py", "--workload", workload, "--seed", "0", "--seconds", "0", "--trace", "1"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_benchmark_traces_the_evaluate_workload():
    # linear sgd_train makes no batch_loss_graph calls; the evaluate trace must still parse
    assert traced_run("evaluate")["correct"] is True


def test_benchmark_traces_the_learn_mlp_workload():
    # a network attack makes one attack_gradient call per PGD step, which the tracer counts
    result = traced_run("learn-mlp")
    assert result["correct"] is True
    metrics = {name: m["value"] for name, m in result["metrics"].items()}
    assert metrics["attacks.gradient_calls"] == 2 * 16 * 10  # epochs x batches x steps
    assert metrics["autodiff.tensors_per_batch"] == 4
    assert metrics["autodiff.backward_calls_per_batch"] == 1


def test_benchmark_traces_the_learn_linear_workload():
    # a linear attack makes one attack_gradient call, its step for all K steps, which the tracer counts;
    # a batch builds X and G for step 1 and the seed and result of its one backward call
    result = traced_run("learn-linear")
    assert result["correct"] is True
    metrics = {name: m["value"] for name, m in result["metrics"].items()}
    assert metrics["attacks.gradient_calls"] == 50 * 16  # epochs x batches
    assert metrics["autodiff.tensors_per_batch"] == 4
    assert metrics["autodiff.backward_calls_per_batch"] == 1
