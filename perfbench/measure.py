"""Timed, traced and set-up measurements of one workload.

Every run goes through ``ambcsync.run_experiment``, the public entry point,
in this process (one worker) or in the harness's own worker pool.
"""

from __future__ import annotations

import json
import os
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from ambcsync import ExperimentConfig, run_experiment

import checks
import spans
from workloads import config_fields

# The machine's speed changes from one second to the next, and a burst of
# set-up interpreters can fall wholly into a slow stretch.  So the set-up
# samples are spread over the timed phase, and the fastest one is reported.
SETUP_REPEATS = 20
SETUP_CODE = (
    "import json, sys\n"
    "import ambcsync\n"
    "fields = {k: tuple(v) if isinstance(v, list) else v\n"
    "          for k, v in json.loads(sys.argv[1]).items()}\n"
    "ambcsync.ExperimentConfig(**fields)\n"
)


def available_workers() -> int:
    """CPUs this process may run on (what ``nproc`` reports)."""
    return len(os.sched_getaffinity(0))


def run_csv(config) -> tuple[str, float]:
    """One run through the public entry point: (CSV text, wall seconds)."""
    start = time.perf_counter()
    result = run_experiment(config)
    wall = time.perf_counter() - start
    return result.to_csv(), wall


@dataclass
class Walls:
    """Wall times of repeated runs of one config."""

    seconds: list[float] = field(default_factory=list)

    @property
    def median(self) -> float:
        return statistics.median(self.seconds)

    def summary(self) -> str:
        s = sorted(self.seconds)
        return f"median {self.median:.4f} s, min {s[0]:.4f} s, max {s[-1]:.4f} s, n={len(s)}"


class Workload:
    """One workload's config at N workers and at one worker, plus its checks."""

    def __init__(self, name: str, seed: int, workers: int, trials: int | None, log):
        self.fields = config_fields(name, seed, trials)
        self.config = ExperimentConfig(**self.fields, threads=workers)
        self.config_1w = ExperimentConfig(**self.fields, threads=1)
        self.workers = workers
        self.trials_per_run = 0  # as the first run's CSV reports it
        self.log = log
        self.reference = checks.load_reference()
        self.csv: str | None = None

    def run(self, config) -> float:
        """Run once, check the CSV against the first one, return the wall time."""
        text, wall = run_csv(config)
        if self.csv is None:
            self.csv = text
            self.trials_per_run = checks.trials_in(self.config, text)
            checks.check_result(self.config, text, self.reference, self.log)
        else:
            self.log.check(text == self.csv,
                           f"CSV of threads={config.threads} differs from the first run")
        return wall

    def warm_up(self) -> None:
        """One untimed run at each worker count; fills caches and checks outputs."""
        self.run(self.config)
        self.run(self.config_1w)

    def timed(self, seconds: float, traced: bool = False, setup_env: dict | None = None):
        """Alternate N-worker, 1-worker (and traced 1-worker) runs for ``seconds``.

        With ``setup_env``, a fresh set-up interpreter also starts between runs
        about every ``seconds / SETUP_REPEATS``, topped up to SETUP_REPEATS at
        the end.  At least one round runs.  Returns (Walls N, Walls 1, set-up
        seconds, list of TraceRep).
        """
        walls_n, walls_1, setup, reps = Walls(), Walls(), [], []
        start = time.perf_counter()

        def sample_setup():
            if setup_env is not None and (time.perf_counter() - start
                                          >= len(setup) * seconds / SETUP_REPEATS):
                setup.append(self.setup_once(setup_env))

        while True:
            walls_n.seconds.append(self.run(self.config))
            sample_setup()
            walls_1.seconds.append(self.run(self.config_1w))
            sample_setup()
            if traced:
                reps.append(self.traced_run())
            if time.perf_counter() - start >= seconds:
                break
        while setup_env is not None and len(setup) < SETUP_REPEATS:
            setup.append(self.setup_once(setup_env))
        return walls_n, walls_1, setup, reps

    def traced_run(self) -> "TraceRep":
        tracer = spans.Tracer()
        with spans.instrument(tracer):
            start = time.perf_counter()
            result = tracer.call(spans.ROOT, run_experiment, self.config_1w)
            wall = time.perf_counter() - start
        self.log.check(result.to_csv() == self.csv, "traced CSV differs from the untraced one")
        errors = spans.nesting_errors(tracer.spans)
        self.log.check(not errors, "; ".join(errors[:3]) or "spans nest")
        self.log.check(not tracer.missing, f"not traced: {', '.join(tracer.missing)}")
        return TraceRep(tracer, wall)

    def count_tasks(self) -> int:
        """Tasks the harness runs for the N-worker config, counted in one extra run."""
        with spans.counting_tasks() as counter:
            self.run(self.config)
        return counter.value

    def setup_once(self, env: dict) -> float:
        """Wall time of a fresh interpreter that imports ambcsync and validates the config."""
        start = time.perf_counter()
        proc = subprocess.run([sys.executable, "-c", SETUP_CODE, json.dumps(self.fields)],
                              env=env, capture_output=True, text=True, timeout=120)
        wall = time.perf_counter() - start
        self.log.check(proc.returncode == 0, f"set-up interpreter failed: {proc.stderr[-500:]}")
        return wall


def peak_rss_mb() -> float:
    """Largest peak RSS among this process and the children it has waited for.

    The children are the pool workers and the set-up interpreters; the latter
    import less than this process, so they do not set the peak.
    """
    kib = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
              resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kib * 1024 / 1e6


@dataclass
class TraceRep:
    tracer: spans.Tracer
    wall: float


def layer_metrics(work: Workload, rep: TraceRep) -> dict[str, float]:
    """Per-layer metrics of one traced run; times in µs, counts exact."""
    layers = spans.layer_times(rep.tracer.spans)
    counts = rep.tracer.counts

    def calls(name):
        return layers.get(name, [0, 0, 0])[0]

    def us_per_call(name, column=1):
        row = layers.get(name)
        return row[column] / row[0] / 1e3 if row else 0.0

    trials = work.trials_per_run
    draws = calls("signal_model.draw_channel")
    estimates = calls("estimator.estimate_sto")
    root_self = layers[spans.ROOT][2]
    synthesis = layers.get("frame.synthesize_received", [0, 0, 0])[1]
    return {
        "signal_model.trial_rng.us_per_call": us_per_call("signal_model.trial_rng"),
        "signal_model.trial_rng.calls": calls("signal_model.trial_rng"),
        "signal_model.draw_channel.us_per_call": us_per_call("signal_model.draw_channel"),
        "signal_model.draw_channel.calls": draws,
        "signal_model.redraw_frac": (draws - trials) / draws if draws else 0.0,
        "signal_model.gen_cgn_block.us_per_call": us_per_call("signal_model.gen_cgn_block"),
        "signal_model.gen_cgn_block.calls": calls("signal_model.gen_cgn_block"),
        "signal_model.normals_drawn": counts["signal_model.normals_drawn"],
        "frame.synthesize_received.self_us_per_call":
            us_per_call("frame.synthesize_received", column=2),
        "frame.synthesize_received.calls": calls("frame.synthesize_received"),
        "frame.samples_synthesized": counts["frame.samples_synthesized"],
        "frame.synthesis_frac": synthesis / (rep.wall * 1e9),
        "frame.build_bit_sequence.us_per_call": us_per_call("frame.build_bit_sequence"),
        "frame.apply_sto.us_per_call": us_per_call("frame.apply_sto"),
        "estimator.collect_windows.us_per_call": us_per_call("estimator.collect_windows"),
        "estimator.estimate_sto.us_per_call": us_per_call("estimator.estimate_sto"),
        "estimator.estimate_sto.calls": estimates,
        "estimator.exact_frac": counts["estimator.exact"] / estimates if estimates else 0.0,
        "detector.threshold.us_per_call": us_per_call("detector.threshold"),
        "detector.detect.us_per_call": us_per_call("detector.detect"),
        "detector.detect.calls": calls("detector.detect"),
        "detector.bits_decided": counts["detector.bits_decided"],
        "harness.self_us_per_trial": root_self / trials / 1e3,
    }


COUNT_METRICS = (
    "signal_model.trial_rng.calls", "signal_model.draw_channel.calls", "signal_model.redraw_frac",
    "signal_model.gen_cgn_block.calls", "signal_model.normals_drawn",
    "frame.synthesize_received.calls", "frame.samples_synthesized",
    "estimator.estimate_sto.calls", "estimator.exact_frac", "detector.detect.calls",
    "detector.bits_decided",
)


def per_layer(work: Workload, walls_n: Walls, walls_1: Walls,
              reps: list[TraceRep]) -> dict[str, float]:
    """Median of each timing over the traced runs; counts must repeat exactly."""
    per_rep = [layer_metrics(work, rep) for rep in reps]
    out = {}
    for name in per_rep[0]:
        values = [m[name] for m in per_rep]
        if name in COUNT_METRICS:
            work.log.check(len(set(values)) == 1, f"{name} differs between traced runs: {values}")
            out[name] = values[0]
        else:
            out[name] = statistics.median(values)
    out["harness.tasks"] = work.count_tasks()
    out["harness.scaling_eff"] = walls_1.median / (work.workers * walls_n.median)
    traced_wall = statistics.median(rep.wall for rep in reps)
    out["harness.trace_overhead_frac"] = traced_wall / walls_1.median - 1.0
    return out


def environment(root: Path, workers: int) -> dict[str, str]:
    """What the numbers were measured on."""
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        proc = subprocess.run(["git", "describe", "--always", "--dirty"], cwd=root,
                              capture_output=True, text=True, timeout=30)
        describe = proc.stdout.strip() if proc.returncode == 0 else "unknown (not a git checkout)"
    except OSError:
        describe = "unknown (git not found)"
    return {
        "nproc": str(available_workers()),
        "workers": str(workers),
        "cpu": cpu,
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "git": describe,
    }
