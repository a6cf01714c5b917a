"""Reference pairing: time every operation next to a fixed reference loop.

The host this benchmark runs on is shared, and its speed drifts within a
single run, by up to a factor of two over seconds.  Every timed
operation is therefore divided by the mean duration of the reference
loops timed next to it: the one immediately before, the one immediately
after, and, for an operation longer than `PROBE_INTERVAL_S` of CPU time,
short probes of the same loop run from a profiling-timer signal while
it executes (their time is taken out of the operation's).  Drift then
cancels in the ratio.  Times are reported in "ref" units: one ref is one
run of `reference_loop` on the same host at the same moment.
`NOMINAL_REF_S` converts a ref count back to seconds for metrics that
users read in seconds (set-up time).
"""

from __future__ import annotations

import gc
import signal
import statistics
from fractions import Fraction
from time import thread_time_ns

# Every duration is this thread's CPU time.  The benchmark is a single
# thread whose only blocking calls are small reads and writes of local
# files, so CPU time equals wall time but for time the thread spends
# descheduled.
clock_ns = thread_time_ns

REF_ROUNDS = 10_000
# a probe is an eighth of the loop, scaled up by 8
PROBE_ROUNDS = REF_ROUNDS // 8
PROBE_INTERVAL_S = 0.1

# Median duration of one reference loop on the 2-vCPU host the reference
# figures in README.md come from (Python 3.11, pure backend).  It is a
# fixed conversion factor, not a measurement: changing it rescales
# setup_s on every commit alike.
NOMINAL_REF_S = 0.0066

# The loop's results are fixed; checking them keeps the work from being
# optimised away and catches an accidental edit of the loop.
REF_RESULT = (Fraction(84732, 1), 688, 81242)
PROBE_RESULT = (Fraction(10670, 1), 688, 10134)


def reference_loop(rounds: int = REF_ROUNDS):
    """Integer, bitmask, dict and Fraction work, the mix valim itself does."""
    acc = Fraction(0)
    table = {}
    mask = 0x5A5A
    for i in range(rounds):
        mask = (((mask << 1) | (mask >> 15)) & 0xFFFF) ^ (i & 0x3FF)
        key = mask & 0x3FF
        table[key] = table.get(key, 0) + mask.bit_count()
        if not i & 15:
            acc += Fraction(mask & 0xFF, (i & 7) + 1)
    return acc, len(table), sum(table.values())


def _timed_loop(rounds, expected) -> int:
    # The loop makes no reference cycles, so the cyclic collector is
    # held off while it runs: a collection of the operations' garbage
    # would otherwise land in the reference and not in the operation.
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = clock_ns()
        out = reference_loop(rounds)
        dt = clock_ns() - t0
    finally:
        if enabled:
            gc.enable()
    if out != expected:
        raise RuntimeError(f"reference loop returned {out!r}")
    return dt


def time_reference() -> int:
    """Nanoseconds taken by one reference loop."""
    return _timed_loop(REF_ROUNDS, REF_RESULT)


class Measured:
    """One timed call: its output or exception, its own time, and the
    mean reference time it is divided by."""

    def __init__(self, output, error, op_ns, ref_ns):
        self.output = output
        self.error = error
        self.op_ns = op_ns
        self.ref_ns = ref_ns

    @property
    def ref_units(self) -> float:
        return self.op_ns / self.ref_ns


class Meter:
    """Interleaves reference loops with timed calls.

    Call `start()` once, then `measure(fn, arg)` for each call; work done
    between calls (preparing inputs, checking outputs) falls outside both
    the calls and the references.  `on_probe(ns)`, when set, is told the
    duration of every probe, so a tracer can keep probes out of spans.
    """

    def __init__(self):
        self.last_ref = None
        self.refs = []
        self.on_probe = None
        self._probes = []
        self._armed = False

    def start(self):
        signal.signal(signal.SIGPROF, self._probe)
        for _ in range(3):  # warm the loop's code path
            time_reference()
        self.last_ref = time_reference()
        self.refs = [self.last_ref]

    def median_ref_ns(self) -> float:
        return statistics.median(self.refs)

    def _probe(self, signum, frame):
        if not self._armed:
            return
        dt = _timed_loop(PROBE_ROUNDS, PROBE_RESULT)
        self._probes.append(dt)
        if self.on_probe is not None:
            self.on_probe(dt)

    def measure(self, fn, arg) -> Measured:
        self._probes = []
        output = error = None
        self._armed = True
        signal.setitimer(signal.ITIMER_PROF, PROBE_INTERVAL_S,
                         PROBE_INTERVAL_S)
        t0 = clock_ns()
        try:
            output = fn(arg)
        except Exception as err:  # the caller counts a failed operation
            error = err
        finally:
            signal.setitimer(signal.ITIMER_PROF, 0)
            self._armed = False
            dt = clock_ns() - t0
        probes = self._probes
        ref = time_reference()
        refs = [self.last_ref, ref] + [p * (REF_ROUNDS // PROBE_ROUNDS)
                                       for p in probes]
        self.last_ref = ref
        self.refs.append(ref)
        return Measured(output, error, dt - sum(probes),
                        sum(refs) / len(refs))
