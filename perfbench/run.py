"""Monte Carlo throughput benchmark of ambcsync, one workload per run.

Run from the repository root:

    python3 perfbench/run.py --workload mae_sweep --seed 1 --seconds 20 --trace 0

``--trace 0`` times the workload with tracing off: trials per second with
one worker per available CPU and with one worker, the set-up time of a
fresh interpreter, and the peak RSS.  ``--trace 1`` adds a third, traced
one-worker run per round and reports per-layer times and exact work counts.
Every run's CSV is checked (see ``checks.py``).  The last line of standard
output is one JSON object: ``correct``, ``attempted`` and ``failed`` count
the checks, ``metrics`` holds the metrics of the chosen mode.  Lines before
it print each metric by name with its unit, the environment, and every
failed check.  The workloads and why each was chosen are in
``workloads.py``; ``report.py`` runs all of them in both modes.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

# thread pools inside numpy's BLAS would compete with the harness's worker processes
PINNED_THREADS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                  "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def declared_units() -> dict[str, str]:
    """Metric name -> unit, as BENCHMARK.json declares them."""
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in bench["end_to_end"] + bench["per_layer"]}


def pin_environment() -> dict:
    """Environment for this process and the interpreters it starts."""
    os.environ.pop("AMBC_THREADS", None)  # it would override the worker count
    for var in PINNED_THREADS:
        os.environ[var] = "1"
    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p)
    sys.path.insert(0, str(SRC))
    return dict(os.environ)


def parse_args(argv, workloads, default_seed: int):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads))
    parser.add_argument("--seed", type=int, default=default_seed)
    parser.add_argument("--seconds", type=float, default=20.0,
                        help="length of the timed phase; at least one round runs")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--trials", type=int, default=None,
                        help="trials per cell instead of the workload's own (quick checks)")
    args = parser.parse_args(argv)
    if args.trials is not None and args.trials < 1:
        parser.error("--trials must be >= 1")
    return args


def emit(metrics: dict, log, units: dict[str, str]) -> None:
    for name, value in metrics.items():
        print(f"metric {name} = {value!r} {units[name]}")
    for what in log.failures:
        print(f"FAILED CHECK: {what}")
    print(json.dumps({
        "correct": log.failed == 0,
        "attempted": log.attempted,
        "failed": log.failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))


def main(argv=None) -> int:
    if not (SRC / "ambcsync" / "__init__.py").is_file():
        print(f"perfbench: no ambcsync package under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    env = pin_environment()
    units = declared_units()
    from workloads import DEFAULT_SEED, WORKLOADS

    args = parse_args(argv, WORKLOADS, DEFAULT_SEED)
    import checks
    import measure

    workers = measure.available_workers()
    log = checks.CheckLog()
    work = measure.Workload(args.workload, args.seed, workers, args.trials, log)

    info = measure.environment(ROOT, workers)
    print("env " + " ".join(f"{k}={v!r}" for k, v in info.items()))
    print("env CPU clocks are not pinned and cores are not isolated; BLAS/OpenMP threads "
          "are pinned to 1 and AMBC_THREADS is removed from the environment")
    work.warm_up()
    print(f"workload {args.workload} seed={args.seed} "
          f"cells={len(checks.expected_cells(work.config))} trials/cell={work.config.trials} "
          f"trials/run={work.trials_per_run} workers={workers} "
          f"why: {WORKLOADS[args.workload][0]}")
    if args.trials is not None:
        print("note: --trials overrides the workload's trial count; figures are not comparable")
    walls_n, walls_1, setup, reps = work.timed(args.seconds, traced=bool(args.trace),
                                               setup_env=None if args.trace else env)
    print(f"wall workers={workers}: {walls_n.summary()}")
    print(f"wall workers=1: {walls_1.summary()}")
    if args.trace:
        metrics = measure.per_layer(work, walls_n, walls_1, reps)
        metrics["check_fail_frac"] = log.fail_frac
    else:
        print(f"setup fresh interpreters: {', '.join(f'{t:.4f}' for t in setup)} s")
        metrics = {
            "trials_per_s": work.trials_per_run / walls_n.median,
            "trials_per_s_1w": work.trials_per_run / walls_1.median,
            "setup_s": min(setup),
            "peak_rss_mb": measure.peak_rss_mb(),
        }
        # 0 while the program is correct, so the result carries it as
        # "failed"/"attempted" rather than as an end-to-end metric
        print(f"metric check_fail_frac = {log.fail_frac!r} {units['check_fail_frac']}")
    emit(metrics, log, units)
    return 0


if __name__ == "__main__":
    sys.exit(main())
