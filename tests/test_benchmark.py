"""The benchmark's self-test passes against this checkout.

`benchmarks/tracing.py` replaces package attributes by name
(`batch_loss_graph`, `attack_gradient`, `pgd_attack`, `backward`,
`Tensor.__init__`) and reads their positional arguments, so renaming one or
reordering its arguments breaks the benchmark; this test shows it.
"""

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
