"""The traced benchmark finds every layer it wraps and passes its checks.

``perfbench/spans.py`` wraps names that ``ambcsync.harness`` and
``ambcsync.frame`` bind; dropping one of them makes a traced run report a
failed check while still exiting 0, so the test reads the JSON verdict.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("workload", ["mae_sweep", "ber_paired", "mae_quick_grid"])
def test_traced_benchmark_passes_its_checks(workload):
    run = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seconds", "0", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert run.returncode == 0, run.stderr
    verdict = json.loads(run.stdout.strip().splitlines()[-1])
    failed_lines = [line for line in run.stdout.splitlines() if line.startswith("FAILED CHECK")]
    assert verdict["failed"] == 0, failed_lines
