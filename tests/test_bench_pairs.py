"""tools/bench_pairs.py's summary step on canned run results: medians and
quartiles per side, pair wins by each metric's direction, and the totals
the committed BENCH files carry.  No benchmark is run."""

import importlib.util
import os

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
spec = importlib.util.spec_from_file_location(
    "bench_pairs", os.path.join(ROOT, "tools", "bench_pairs.py"))
bench_pairs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_pairs)

METRICS = {"ops_per_kref": "higher", "op_p90_ref": "lower"}


def record(side, pair, ops, p90, attempted=10, failed=0, correct=True):
    return {"side": side, "workload": "constructions", "seed": 101 + pair,
            "pair": pair, "trace": 0, "returncode": 0,
            "result": {"correct": correct, "attempted": attempted,
                       "failed": failed,
                       "metrics": {"ops_per_kref": {"value": ops},
                                   "op_p90_ref": {"value": p90}}}}


def canned():
    parent = [(100, 0.2), (110, 0.2), (90, 0.3), (105, 0.1), (95, 0.2)]
    change = [(150, 0.1), (100, 0.2), (160, 0.1), (155, 0.2), (140, 0.1)]
    runs = []
    for k, (p, c) in enumerate(zip(parent, change)):
        # odd pairs ran the change first
        sides = [("parent", p), ("change", c)]
        for side, (ops, p90) in sides if k % 2 == 0 else sides[::-1]:
            runs.append(record(side, k, ops, p90, attempted=10 + k))
    return runs


def test_summary_of_canned_pairs():
    out = bench_pairs.summarize(canned(), METRICS)["constructions"]
    ops = out["ops_per_kref"]
    assert ops["better"] == "higher"
    assert ops["parent"] == {"median": 100, "q1": 95, "q3": 105}
    assert ops["change"] == {"median": 150, "q1": 140, "q3": 155}
    # pair 1 is a loss: 100 against the parent's 110
    assert ops["change_wins"] == "4/5"
    assert ops["median_ratio_change_over_parent"] == 1.5
    p90 = out["op_p90_ref"]
    # lower is better: pair 1, 0.2 against 0.2, is a tie and counts for
    # neither side, and pair 3 is a loss
    assert p90["change_wins"] == "3/5"
    assert p90["parent"]["median"] == 0.2 and p90["change"]["median"] == 0.1
    assert p90["median_ratio_change_over_parent"] == 0.5
    assert out["attempted"] == {"parent": 60, "change": 60}
    assert out["failed"] == {"parent": 0, "change": 0}
    assert out["correct"] is True
    assert out["seeds"] == [101, 102, 103, 104, 105]


def test_summary_reports_a_wrong_run_and_failures():
    runs = canned()
    runs[3]["result"]["correct"] = False
    runs[3]["result"]["failed"] = 2
    out = bench_pairs.summarize(runs, METRICS)["constructions"]
    assert out["correct"] is False
    assert out["failed"][runs[3]["side"]] == 2


def test_seed_lists():
    assert bench_pairs.parse_seeds("101-104") == [101, 102, 103, 104]
    assert bench_pairs.parse_seeds("1,3,7") == [1, 3, 7]
