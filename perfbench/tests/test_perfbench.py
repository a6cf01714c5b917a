"""Tests of the benchmark itself.

Run from the repository root:  python3 -m pytest perfbench/tests -q
"""

import json
import os
import shutil
import subprocess
import sys
import time
from fractions import Fraction
from random import Random

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [os.path.join(ROOT, "src"), BENCH]

import harness  # noqa: E402
import meter  # noqa: E402
from harness import CheckFailed  # noqa: E402
from tracer import COUNT_METRICS, SELF_METRICS, Tracer  # noqa: E402


def _run(workload, seconds, trace, cwd=ROOT):
    return subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"),
         "--workload", workload, "--seed", "7", "--seconds", str(seconds),
         "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=170)


def _names(section):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return [m["name"] for m in json.load(fh)[section]]


@pytest.mark.parametrize("workload", harness.WORKLOADS)
def test_short_run_reports_every_end_to_end_metric(workload):
    p = _run(workload, 0.2, 0)
    assert p.returncode == 0, p.stderr
    result = json.loads(p.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, p.stderr
    assert sorted(result["metrics"]) == sorted(_names("end_to_end"))
    assert all(m["value"] > 0 for m in result["metrics"].values())
    # the one known fault: the list-graph map document in `cli`
    size = _round_size(workload)
    assert result["attempted"] % size == 0
    per_round = 1 if workload == "cli" else 0
    assert result["failed"] == per_round * result["attempted"] // size


def _round_size(workload):
    from workloads import cli, constructions, tables

    return {
        "tables": sum(n for _, n, _ in tables.LAWFUL) + len(tables.CORRUPT),
        "constructions": sum(len(s) for s in (
            constructions.EP_LEVELS, constructions.PROHOROV_SIZES,
            constructions.POSET_SHAPES, constructions.DK_SIZES,
            constructions.STEENROD_SIZES)),
        "cli": sum(n for _, n in cli.ROUND),
        "gate": 8,
    }[workload]


def test_traced_run_reports_every_per_layer_metric():
    p = _run("cli", 0.2, 1)
    assert p.returncode == 0, p.stderr
    result = json.loads(p.stdout.strip().splitlines()[-1])
    metrics = result["metrics"]
    assert sorted(metrics) == sorted(_names("per_layer"))
    for name in COUNT_METRICS:
        assert isinstance(metrics[name]["value"], int)
    assert metrics["cli.exit_0"]["value"] > 0
    assert metrics["documents.bytes_parsed"]["value"] > 0
    assert metrics["cli.main.self_ref"]["value"] > 0


def test_run_refuses_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    p = _run("tables", 1, 0, cwd=tmp_path)
    assert p.returncode != 0
    assert p.stdout == ""


def test_tracer_leaves_no_wrapper_installed():
    import valim.cli  # noqa: F401

    def bindings():
        out = {}
        for name, mod in list(sys.modules.items()):
            if name == "valim" or name.startswith("valim."):
                for attr, value in vars(mod).items():
                    out[(name, attr)] = value
        from valim.extreal import ExtRat
        from valim.order import FiniteSpace, MonotoneMap
        from valim.valuation import Valuation
        for cls in (ExtRat, FiniteSpace, MonotoneMap, Valuation):
            for attr, value in vars(cls).items():
                out[(cls.__name__, attr)] = value
        return out

    before = bindings()
    tracer = Tracer().install()
    assert tracer.installed
    import valim
    assert valim.check_valuation is not before[("valim", "check_valuation")]
    tracer.uninstall()
    after = bindings()
    assert before.keys() == after.keys()
    assert all(before[k] is after[k] for k in before)


def test_tracer_counts_and_self_time():
    from valim import check_valuation
    from valim.generators import rand_poset, rand_valuation

    nu = rand_valuation(Random(1), rand_poset(Random(1), 6))
    tracer = Tracer().install()
    try:
        import valim
        back = valim.check_valuation(nu.tabulate())
    finally:
        tracer.uninstall()
    assert back.weights == nu.weights
    counts = Tracer.count_metrics(tracer.counts)
    assert counts["kernels.scan_axioms.calls"] == 1
    assert counts["order.open_masks.calls"] == 2
    assert counts["order.open_masks.cache_hits"] == 1
    spans = tracer.take_op_self_ns()
    assert spans["valuation.check_valuation"] > 0
    assert spans["kernels.scan_axioms"] > 0
    assert set(SELF_METRICS.values()) >= {"valuation.check_valuation"}
    assert check_valuation is valim.check_valuation


def test_meter_probes_long_operations_and_excludes_them():
    m = meter.Meter()
    m.start()

    def busy(seconds):
        t_end = time.thread_time() + seconds
        while time.thread_time() < t_end:
            pass
        return seconds

    long_op = m.measure(busy, 0.5)
    assert long_op.error is None and long_op.output == 0.5
    assert len(m._probes) >= 3
    assert 0.45e9 < long_op.op_ns < 0.55e9
    failed = m.measure(lambda _: 1 / 0, None)
    assert isinstance(failed.error, ZeroDivisionError)
    assert failed.ref_units >= 0


def test_percentile_is_nearest_rank():
    values = list(range(1, 101))
    assert harness.percentile(values, 90) == 90
    assert harness.percentile([5.0], 90) == 5.0


# -- every workload's check refuses a wrong expected value ----------------

def _first(cases, kind):
    return next(c for c in cases if isinstance(c, kind))


def _execute(case):
    inputs = case.prepare()
    return inputs, case.run(inputs)


def test_tables_checks_catch_wrong_expectations():
    from workloads import tables

    rng = Random(3)
    lawful = tables.Lawful(rng, 50, True)
    inputs, out = _execute(lawful)
    lawful.check(inputs, out)
    lawful.fracs[0] += 1
    with pytest.raises(CheckFailed):
        lawful.check(inputs, out)

    bad = tables.Corrupt(rng, 100, "raise")
    inputs, err = _execute(bad)
    bad.check(inputs, err)
    law, witness = bad.expected
    bad.expected = (law, witness[::-1])
    with pytest.raises(CheckFailed):
        bad.check(inputs, err)
    with pytest.raises(CheckFailed):
        bad.check(inputs, None)


def test_constructions_checks_catch_wrong_expectations():
    from workloads import constructions as c

    steps = c.setup(5, None)
    while True:
        try:
            next(steps)
        except StopIteration as stop:
            cases = stop.value.cases
            break
    for kind in (c.ChainLimit, c.PosetLimit, c.Product, c.Threads):
        case = _first(cases, kind)
        inputs, out = _execute(case)
        case.check(inputs, out)
        if kind is c.Product:
            lab = next(iter(case.joint))
            case.joint[lab] += 1
        elif kind is c.Threads:
            case.labels[0] = ("nowhere",) * len(case.labels[0])
        else:
            case.joint[0] += 1
        with pytest.raises(CheckFailed):
            case.check(inputs, out)


def test_cli_checks_catch_wrong_expectations(tmp_path):
    from workloads import cli

    builder = cli.Builder(Random(4), str(tmp_path))
    ok = builder.table_ok()
    inputs, out = _execute(ok)
    ok.check(inputs, out)
    code, stdout = out
    report = json.loads(stdout)
    report["weights"][0] = str(Fraction(report["weights"][0]) + 1)
    with pytest.raises(CheckFailed):
        ok.check(inputs, (code, json.dumps(report)))
    with pytest.raises(CheckFailed):
        ok.check(inputs, (3, stdout))

    limit = builder.limit_ok()
    inputs, out = _execute(limit)
    limit.check(inputs, out)
    report = json.loads(out[1])
    report["values"][0]["value"] = "1000"
    with pytest.raises(CheckFailed):
        limit.check(inputs, (0, json.dumps(report)))

    failing = builder.list_graph()
    with pytest.raises(TypeError):
        _execute(failing)


def test_gate_check_catches_a_failed_criterion():
    from workloads import gate

    case = gate.Criterion(8)
    inputs, out = _execute(case)
    case.check(inputs, out)
    code, stdout = out
    report = json.loads(stdout)
    report["results"][0]["passed"] = False
    with pytest.raises(CheckFailed):
        case.check(inputs, (code, json.dumps(report)))
