"""Print every end-to-end and per-layer metric of every workload, with units.

Run from the repository root:

    python3 perfbench/report.py [--seed 1] [--seconds 20]

Each workload runs in its own process, once untraced (end-to-end metrics)
and once traced (per-layer metrics).  The exit code is 1 if any correctness
check failed.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--seconds", type=float, default=20.0)
    args = parser.parse_args()
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    ok = True
    env_printed = False
    for workload in (w["name"] for w in bench["workloads"]):
        for trace in (0, 1):
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
                   "--seconds", str(args.seconds), "--trace", str(trace)]
            if args.seed is not None:
                cmd += ["--seed", str(args.seed)]
            proc = subprocess.run(cmd, cwd=HERE.parent, capture_output=True, text=True)
            lines = proc.stdout.rstrip("\n").split("\n")
            if proc.returncode != 0:
                print(f"{workload} trace={trace}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
                ok = False
                continue
            result = json.loads(lines[-1])
            ok &= result["correct"]
            for line in lines[:-1]:
                if line.startswith("env "):
                    if not env_printed:
                        print(line)
                elif line.startswith(("metric ", "FAILED", "wall ", "setup ")):
                    print(f"{workload:<15} {line}")
            print(f"{workload:<15} checks: {result['failed']} failed of {result['attempted']}")
            env_printed = True
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
