"""The closed-loop runner shared by every workload.

One caller, one thread: each operation starts when the previous one
returns.  A workload module provides `setup(seed, workdir)`, a generator that
yields between set-up steps and returns a corpus object with

* `cases`: the cases making up one round; every run attempts whole
  rounds of the same operations, so the share of failed operations is
  the same in every run;
* `min_ops`: the least number of operations a run completes, so that
  the reported percentile has at least ten samples beyond it;
* `summarise(samples)`: optional; turns the samples of a run into
  (p50, p90) when the workload defines them differently.

Each case's `prepare()` builds fresh input objects outside the timed
region (so per-object caches fill inside the operation, as on a
user's first call), `run(inputs)` is timed, and `check(inputs, output)`
verifies the output outside the timed region, raising `CheckFailed`.
"""

from __future__ import annotations

import gc
import importlib
import os
import pickle
import resource
import statistics
import sys
from collections import Counter
from dataclasses import dataclass
from time import perf_counter_ns

from meter import NOMINAL_REF_S, Meter

WORKLOADS = ("tables", "constructions", "cli", "gate")

# A run sets up at least SETUP_REPEATS times, and again until set-up has
# taken SETUP_SECONDS of CPU time in all; the median is reported.
SETUP_REPEATS = 3
SETUP_SECONDS = 1.5
SETUP_MAX_REPEATS = 25


class CheckFailed(Exception):
    """An output of the program disagrees with its independent check."""


class Corpus:
    """One round of cases.  A case has a `name` and the methods
    `prepare()`, `run(inputs)` and `check(inputs, output)`."""

    def __init__(self, cases, min_ops=100, summarise=None):
        self.cases = cases
        self.min_ops = min_ops
        self.summarise = summarise


@dataclass
class Sample:
    op: str
    ref_units: float
    op_ns: int
    self_ns: dict | None = None


def fresh_blob(obj) -> bytes:
    """Pickle an operation's inputs; unpickling gives new objects.

    Refuses objects whose per-object caches are already filled, so every
    operation starts as a user's first call would.
    """
    blob = pickle.dumps(obj)
    for cache in (b"_open_masks", b"_scaled"):
        if cache in blob:
            raise RuntimeError(f"input carries a filled {cache.decode()}")
    return blob


def percentile(values, q):
    """Nearest-rank percentile (q in 0..100) of a non-empty list."""
    ordered = sorted(values)
    k = max(0, min(len(ordered) - 1, -(-q * len(ordered) // 100) - 1))
    return ordered[int(k)]


def _purge_modules():
    for name in list(sys.modules):
        if name == "valim" or name.startswith("valim.") \
                or name.startswith("workloads."):
            del sys.modules[name]


def timed_setups(name, seed, workdir):
    """Import valim and build the corpus from scratch, repeatedly.

    A workload's `setup` is a generator that yields between steps (one
    generated case, one written document), so each step is normalised by
    its own neighbouring references, like an operation.  Returns (corpus
    of the last set-up, set-up times in ref units).
    """
    meter = Meter()
    meter.start()
    times = []
    corpus = None
    spent_ns = 0
    while len(times) < SETUP_REPEATS or (
            spent_ns < SETUP_SECONDS * 1e9
            and len(times) < SETUP_MAX_REPEATS):
        corpus = None
        _purge_modules()
        gc.collect()
        first = meter.measure(
            lambda _: importlib.import_module(f"workloads.{name}").setup(
                seed, workdir), None)
        if first.error is not None:
            raise first.error
        steps, total = first.output, first.ref_units
        spent_ns += first.op_ns
        while corpus is None:
            step = meter.measure(next, steps)
            if isinstance(step.error, StopIteration):
                corpus = step.error.value
            elif step.error is not None:
                raise step.error
            total += step.ref_units
            spent_ns += step.op_ns
        times.append(total)
    return corpus, times


class Loop:
    """Runs whole rounds, pairing each operation with reference loops."""

    def __init__(self, corpus, meter, tracer=None):
        self.corpus = corpus
        self.meter = meter
        self.tracer = tracer
        self.samples = []
        self.attempted = 0
        self.failed = 0
        self.check_errors = []
        self.counts = Counter()  # tracer counts inside operations only

    def run_round(self):
        tracer = self.tracer
        for case in self.corpus.cases:
            inputs = case.prepare()
            self.attempted += 1
            if tracer is not None:
                tracer.take_op_self_ns()
                counts_before = Counter(tracer.counts)
            m = self.meter.measure(case.run, inputs)
            if m.error is not None:
                self.failed += 1
                print(f"failed: {case.name}: {type(m.error).__name__}: "
                      f"{m.error}", file=sys.stderr)
                continue
            self_ns = None
            if tracer is not None:
                self.counts.update(tracer.counts - counts_before)
                self_ns = {k: v / m.ref_ns
                           for k, v in tracer.take_op_self_ns().items()}
            self.samples.append(
                Sample(case.name, m.ref_units, m.op_ns, self_ns))
            try:
                case.check(inputs, m.output)
            except CheckFailed as err:
                self.check_errors.append(f"{case.name}: {err}")

    def run_for(self, seconds, min_ops=1, t_start=None):
        """Whole rounds until `seconds` of wall time have passed since
        `t_start` (default: now) and at least `min_ops` operations were
        attempted."""
        if t_start is None:
            t_start = perf_counter_ns()
        first = self.attempted
        while (perf_counter_ns() - t_start < seconds * 1e9
               or self.attempted - first < min_ops):
            self.run_round()


def end_to_end(loop, corpus, setup_refs):
    times = [s.ref_units for s in loop.samples]
    if corpus.summarise is not None:
        p50, p90 = corpus.summarise(loop.samples)
    else:
        p50, p90 = statistics.median(times), percentile(times, 90)
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "ops_per_kref": {"value": 1000 * len(times) / sum(times),
                         "unit": "1/kref"},
        "op_p50_ref": {"value": p50, "unit": "ref"},
        "op_p90_ref": {"value": p90, "unit": "ref"},
        "setup_s": {"value": statistics.median(setup_refs) * NOMINAL_REF_S,
                    "unit": "s"},
        "peak_rss_mb": {"value": peak_kb / 1024, "unit": "MB"},
    }


def per_layer(untraced, traced, round_counts):
    from tracer import SELF_METRICS

    n = len(traced.samples)
    totals = {}
    for s in traced.samples:
        for k, v in s.self_ns.items():
            totals[k] = totals.get(k, 0.0) + v
    out = {}
    for metric, span in SELF_METRICS.items():
        out[metric] = {"value": totals.get(span, 0.0) / n, "unit": "ref"}
    for metric, value in round_counts.items():
        out[metric] = {"value": int(value), "unit": "count"}
    plain = statistics.fmean(s.ref_units for s in untraced.samples)
    with_trace = statistics.fmean(s.ref_units for s in traced.samples)
    out["trace.overhead_pct"] = {"value": 100 * (with_trace / plain - 1),
                                 "unit": "%"}
    return out


def run_workload(name, seed, seconds, trace, workdir):
    os.makedirs(workdir, exist_ok=True)
    corpus, setup_refs = timed_setups(name, seed, workdir)
    gc.collect()
    meter = Meter()
    meter.start()
    if not trace:
        loop = Loop(corpus, meter)
        loop.run_for(seconds, corpus.min_ops)
        metrics = end_to_end(loop, corpus, setup_refs)
        # unnormalised figures, for judging what the reference pairing buys
        raw = len(loop.samples) / sum(s.op_ns for s in loop.samples) * 1e9
        print(f"raw: ops_per_cpu_s={raw:.4f} "
              f"median_ref_ms={meter.median_ref_ns() / 1e6:.4f}",
              file=sys.stderr)
        attempted, failed = loop.attempted, loop.failed
        errors = loop.check_errors
    else:
        from tracer import Tracer

        # half the time untraced, half traced: the ratio of the two is
        # the tracing overhead
        untraced = Loop(corpus, meter)
        untraced.run_for(seconds / 2)
        tracer = Tracer()
        traced = Loop(corpus, meter, tracer)
        t_start = perf_counter_ns()
        tracer.install()
        meter.on_probe = tracer.exclude
        try:
            traced.run_round()
            round_counts = tracer.count_metrics(traced.counts)
            traced.run_for(seconds / 2, 0, t_start)
        finally:
            meter.on_probe = None
            tracer.uninstall()
        metrics = per_layer(untraced, traced, round_counts)
        attempted = untraced.attempted + traced.attempted
        failed = untraced.failed + traced.failed
        errors = untraced.check_errors + traced.check_errors
    for err in errors[:20]:
        print(f"check failed: {err}", file=sys.stderr)
    return {
        "correct": not errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
