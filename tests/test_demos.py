"""The demos run end to end and print their full tables."""

import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def run_demo(name: str) -> str:
    proc = subprocess.run(
        [sys.executable, str(ROOT / "demos" / name)],
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_pipeline_walkthrough_demo_runs():
    stdout = run_demo("01_pipeline_walkthrough.py")
    wrong = [line for line in stdout.splitlines() if "payload bits wrong" in line]
    assert len(wrong) == 2
    assert "no compensation" in wrong[0] and "estimated compensation" in wrong[1]


# demo -> (pattern of one table row, rows expected: one per SNR point, or one
# per error value from -8 to 8)
TABLES = {
    "02_mae_vs_snr.py": (r"\s*\d+\.\d \|( \d\.\d{3} \|){2} \d\.\d{3}", 6),
    "03_error_histogram.py": (r"\s+[+-]\d+\s+\d\.\d{5}\s+#*", 17),
    "04_ber_comparison.py": (r"\s*\d+\.\d \|( +\d\.\d{5} \|){2} +\d\.\d{5}", 4),
}


@pytest.mark.parametrize("name", sorted(TABLES))
def test_experiment_demo_prints_its_table(name):
    pattern, rows = TABLES[name]
    lines = run_demo(name).splitlines()
    assert sum(re.fullmatch(pattern, line) is not None for line in lines) == rows
