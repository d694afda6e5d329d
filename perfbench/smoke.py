"""Smoke test of the benchmark itself, at tiny trial counts (well under a minute).

Run from the repository root:

    python3 perfbench/smoke.py

It checks that every metric named in BENCHMARK.json is printed with its
unit, that traced spans nest inside the harness span, that the detector is
idle on the MAE workloads, and that the correctness checks do fail when an
output is broken on purpose.
"""

from __future__ import annotations

import json
import subprocess
import sys
import unittest
from dataclasses import replace
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

from ambcsync import harness, run_experiment  # noqa: E402

import checks  # noqa: E402
import measure  # noqa: E402
import spans  # noqa: E402
from workloads import WORKLOADS, make_config  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
TINY_TRIALS = 20
SEED = 3


def bench(workload: str, trace: int) -> tuple[list[str], dict]:
    """Run the benchmark CLI for one round; return its stdout lines and result."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(SEED),
         "--seconds", "0", "--trace", str(trace), "--trials", str(TINY_TRIALS)],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    if proc.returncode != 0:
        raise AssertionError(f"run.py exited {proc.returncode}: {proc.stderr[-2000:]}")
    lines = proc.stdout.rstrip("\n").split("\n")
    return lines, json.loads(lines[-1])


class BenchmarkOutputTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.runs = {(w, trace): bench(w, trace) for w in WORKLOADS for trace in (0, 1)}

    def test_every_metric_is_printed_with_its_unit(self):
        for (workload, trace), (lines, result) in self.runs.items():
            declared = BENCHMARK["per_layer" if trace else "end_to_end"]
            with self.subTest(workload=workload, trace=trace):
                self.assertEqual(set(result["metrics"]), {m["name"] for m in declared})
                for metric in declared:
                    got = result["metrics"][metric["name"]]
                    self.assertEqual(got["unit"], metric["unit"])
                    self.assertIsInstance(got["value"], (int, float))
                    self.assertTrue(any(line.startswith(f"metric {metric['name']} = ")
                                        and line.endswith(f" {metric['unit']}")
                                        for line in lines))
                self.assertTrue(any(l.startswith("metric check_fail_frac = ") for l in lines))
                self.assertTrue(result["correct"], [l for l in lines if "FAILED" in l])
                self.assertEqual(result["failed"], 0)
                self.assertGreater(result["attempted"], 0)

    def test_detector_runs_only_on_ber(self):
        for workload in WORKLOADS:
            metrics = self.runs[(workload, 1)][1]["metrics"]
            calls = metrics["detector.detect.calls"]["value"]
            with self.subTest(workload=workload):
                if workload.startswith("mae_"):
                    self.assertEqual(calls, 0)
                else:
                    # ideal, uncompensated and compensated detection per trial
                    self.assertEqual(calls, 3 * metrics["estimator.estimate_sto.calls"]["value"])


class InstrumentTest(unittest.TestCase):
    def test_spans_nest_inside_the_harness_span(self):
        for workload in WORKLOADS:
            log = checks.CheckLog()
            work = measure.Workload(workload, SEED, 1, TINY_TRIALS, log)
            work.warm_up()
            trace = work.traced_run().tracer.spans
            with self.subTest(workload=workload):
                self.assertEqual(log.failures, [])
                self.assertEqual(spans.nesting_errors(trace), [])
                self.assertEqual([s[0] for s in trace if s[3] < 0], [spans.ROOT])
                cgn = next(s for s in trace if s[0] == "signal_model.gen_cgn_block")
                self.assertEqual(trace[cgn[3]][0], "frame.synthesize_received")

    def test_tasks_are_counted_in_pool_workers(self):
        log = checks.CheckLog()
        work = measure.Workload("mae_quick_grid", SEED, 2, TINY_TRIALS, log)
        work.warm_up()
        before = harness._run_task
        # each of the 27 cells is split into one task per worker
        self.assertEqual(work.count_tasks(), 27 * 2)
        self.assertIs(harness._run_task, before)
        self.assertEqual(log.failures, [])

    def test_wrappers_are_removed_afterwards(self):
        before = harness.estimate_sto
        with spans.instrument(spans.Tracer()):
            self.assertIsNot(harness.estimate_sto, before)
        self.assertIs(harness.estimate_sto, before)


class BrokenCheckTest(unittest.TestCase):
    """Each check must count a failure when the output it guards is wrong."""

    reference = checks.load_reference()

    def result_csv(self, workload, trials=TINY_TRIALS):
        config = replace(make_config(workload, SEED, trials=trials), threads=1)
        return config, run_experiment(config).to_csv()

    def fail_frac(self, config, text):
        log = checks.CheckLog()
        checks.check_result(config, text, self.reference, log)
        return log.fail_frac

    def test_unbroken_outputs_pass(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                self.assertEqual(self.fail_frac(*self.result_csv(workload)), 0.0)

    def test_wrong_mae_fails(self):
        # enough trials that a doubled MAE lies many standard errors out
        config, text = self.result_csv("mae_sweep", trials=400)
        header, *rows = text.rstrip("\n").split("\n")
        snr, pairs, mae, trials = rows[0].split(",")
        rows[0] = ",".join([snr, pairs, repr(2 * float(mae)), trials])
        self.assertGreater(self.fail_frac(config, "\n".join([header, *rows]) + "\n"), 0.0)

    def test_swapped_ber_columns_fail(self):
        config, text = self.result_csv("ber_paired")
        header, *rows = text.rstrip("\n").split("\n")
        swapped = []
        for row in rows:
            snr, n, no_comp, comp, ideal, bits = row.split(",")
            swapped.append(",".join([snr, n, ideal, comp, no_comp, bits]))
        self.assertGreater(self.fail_frac(config, "\n".join([header, *swapped]) + "\n"), 0.0)

    def test_missing_row_fails(self):
        config, text = self.result_csv("mae_quick_grid")
        self.assertGreater(self.fail_frac(config, text.rsplit("\n", 2)[0] + "\n"), 0.0)

    def test_worker_count_divergence_fails(self):
        log = checks.CheckLog()
        work = measure.Workload("mae_quick_grid", SEED, 1, 2, log)
        work.warm_up()
        self.assertEqual(log.failed, 0)
        work.csv = work.csv.replace("\n", "\n0.0,1,0.0,1\n", 1)
        work.run(work.config_1w)
        self.assertEqual(log.failed, 1)
        self.assertGreater(log.fail_frac, 0.0)


if __name__ == "__main__":
    unittest.main()
