"""The pipeline walkthrough demo runs end to end."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_pipeline_walkthrough_demo_runs():
    proc = subprocess.run(
        [sys.executable, str(ROOT / "demos" / "01_pipeline_walkthrough.py")],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    wrong = [line for line in proc.stdout.splitlines() if "payload bits wrong" in line]
    assert len(wrong) == 2
    assert "no compensation" in wrong[0] and "estimated compensation" in wrong[1]
