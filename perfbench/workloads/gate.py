"""`gate`: one in-process `valim suite` pass per round.

Each of the eight acceptance criteria is one operation:
`valim.cli.main(["--format", "json", "suite", k])` with stdout captured.
Its check requires the criterion to PASS within its budget.  The suites
regenerate their corpora from seeds pinned in the program, which define
the gate, so the benchmark seed does not change this workload's inputs.
A round has eight operations, too few for a 90th percentile, so
`op_p90_ref` is the slowest criterion here (its median over the run's
passes), and `op_p50_ref` the median over every criterion run.
"""

from __future__ import annotations

import contextlib
import io
import json
import statistics

from valim.cli import main
from valim.suites import SUITES

from harness import CheckFailed, Corpus


class Criterion:
    def __init__(self, number):
        self.number = number
        self.name = f"criterion_{number}"

    def prepare(self):
        return None

    def run(self, _):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = main(["--format", "json", "suite", str(self.number)])
        return code, out.getvalue()

    def check(self, _, result):
        code, stdout = result
        (entry,) = json.loads(stdout)["results"]
        if code != 0 or not entry["passed"] \
                or entry["elapsed_s"] >= entry["budget_s"]:
            raise CheckFailed(f"criterion {self.number}: {entry}")


def summarise(samples):
    by_criterion = {}
    for s in samples:
        by_criterion.setdefault(s.op, []).append(s.ref_units)
    slowest = max(statistics.median(v) for v in by_criterion.values())
    return statistics.median(s.ref_units for s in samples), slowest


def setup(seed, workdir):
    cases = [Criterion(k) for k in range(1, len(SUITES) + 1)]
    yield
    return Corpus(cases, min_ops=len(cases), summarise=summarise)
