"""Span tracing around the library's layer boundaries, applied from outside it.

``instrument(tracer)`` replaces, for the duration of a ``with`` block, the
functions that ``ambcsync.harness`` and ``ambcsync.frame`` import from the
layer modules with wrappers that record one span per call.  A span is
``[name, start_ns, end_ns, parent]`` where ``parent`` is the index of the
enclosing span, or -1 for the root.  Spans stay in memory until the
caller has read them.  The library itself is not modified.
"""

from __future__ import annotations

import contextlib
import functools
import multiprocessing
import time
from collections import Counter

from ambcsync import detector, frame, harness

ROOT = "harness.run_experiment"


class Tracer:
    """Collects spans and the work counts observed at the same boundaries."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._last_tau: int | None = None

    def wrap(self, name, fn, observe=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            span = [name, 0, 0, stack[-1] if stack else -1]
            spans.append(span)
            stack.append(index)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if observe is not None:
                observe(args, result)
            return result

        return traced

    def call(self, name, fn, *args, **kwargs):
        """Run ``fn`` under a span of its own (used for the root span)."""
        return self.wrap(name, fn)(*args, **kwargs)

    # observers: exact work counts, taken where the work happens

    def _count_normals(self, args, result):
        self.counts["signal_model.normals_drawn"] += 2 * result.size

    def _count_samples(self, args, result):
        self.counts["frame.samples_synthesized"] += result.samples.size

    def _remember_tau(self, args, result):
        self._last_tau = int(args[1])

    def _count_exact(self, args, result):
        self.counts["estimator.exact"] += int(result.tau_hat == self._last_tau)

    def _count_bits(self, args, result):
        self.counts["detector.bits_decided"] += result[0].size


def _targets(tracer: Tracer):
    """(module, attribute, span name, observer) for every traced boundary."""
    return [
        (harness, "trial_rng", "signal_model.trial_rng", None),
        (harness, "draw_channel", "signal_model.draw_channel", None),
        (frame, "gen_cgn_block", "signal_model.gen_cgn_block", tracer._count_normals),
        (harness, "build_bit_sequence", "frame.build_bit_sequence", None),
        (harness, "synthesize_received", "frame.synthesize_received", tracer._count_samples),
        (harness, "apply_sto", "frame.apply_sto", tracer._remember_tau),
        (harness, "collect_windows", "estimator.collect_windows", None),
        (harness, "estimate_sto", "estimator.estimate_sto", tracer._count_exact),
        (harness, "_detect_bits", "detector.detect", tracer._count_bits),
    ]


@contextlib.contextmanager
def instrument(tracer: Tracer):
    """Install the span wrappers; restore the original functions on exit."""
    saved = []
    try:
        for module, attr, name, observe in _targets(tracer):
            original = getattr(module, attr, None)
            if original is None:
                tracer.missing.append(f"{module.__name__}.{attr}")
                continue
            saved.append((module, attr, original))
            setattr(module, attr, tracer.wrap(name, original, observe))
        # a classmethod: keep the descriptor, install a plain wrapper of the bound method
        params = detector.DetectorParams
        saved.append((params, "from_powers", params.__dict__["from_powers"]))
        params.from_powers = staticmethod(tracer.wrap("detector.threshold", params.from_powers))
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


@contextlib.contextmanager
def counting_tasks():
    """Count the calls of ``harness._run_task``, one per task the harness builds.

    The counter lives in shared memory, so calls made in the harness's forked
    pool workers count too.  Yields the counter; read ``.value`` afterwards.
    """
    counter = multiprocessing.get_context("fork").Value("q", 0)
    original = harness._run_task

    @functools.wraps(original)
    def counted(args):
        with counter.get_lock():
            counter.value += 1
        return original(args)

    harness._run_task = counted
    try:
        yield counter
    finally:
        harness._run_task = original


def layer_times(spans: list[list]) -> dict[str, list[int]]:
    """name -> [calls, total_ns, self_ns]; self time excludes child spans."""
    child_ns = [0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child_ns[parent] += end - start
    out: dict[str, list[int]] = {}
    for index, (name, start, end, _) in enumerate(spans):
        row = out.setdefault(name, [0, 0, 0])
        row[0] += 1
        row[1] += end - start
        row[2] += end - start - child_ns[index]
    return out


def nesting_errors(spans: list[list]) -> list[str]:
    """Spans that do not lie inside their parent, or whose chain misses the root."""
    errors = []
    for index, (name, start, end, parent) in enumerate(spans):
        if end < start:
            errors.append(f"span {index} {name} ends before it starts")
        if parent < 0:
            if name != ROOT:
                errors.append(f"span {index} {name} has no parent")
            continue
        _, p_start, p_end, _ = spans[parent]
        if parent >= index or start < p_start or end > p_end:
            errors.append(f"span {index} {name} lies outside its parent {parent}")
    return errors
