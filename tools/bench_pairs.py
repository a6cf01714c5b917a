"""Paired parent/change benchmark runs, written as a BENCH_*.json file.

    python3 tools/bench_pairs.py --parent DIR --change DIR --out FILE \\
        [--seeds 101-110] [--trace-seed 101] \\
        [--what TEXT] [--claim WORKLOAD:METRIC:EXPECTED] [--seeds-note TEXT]

DIR is a checkout of valim (a git clone or an unpacked git archive).
The workloads, the seconds per run, the end-to-end metrics and whether
each is better higher or lower are read from the change's
BENCHMARK.json.  Pair k runs every workload on seed k of --seeds, one
`python3 perfbench/run.py` at a time: even pairs run the parent first,
odd pairs the change first.  With --trace-seed, one --trace 1 run per
side and workload follows on that seed, keeping every per-layer metric.
The summary gives, per workload and metric, each side's median and
quartiles (statistics.quantiles, n=4, inclusive), the pairs the change
won (ties count for neither side) and the ratio of medians.  It also
states the verdict: per metric, whether the change's median is
within the metric's `bound` of the parent's (a fraction of it, in the
worse direction), and for the --claim metric whether the change won at
least 9 pairs in 10 and beat the parent's median by more than the
parent's interquartile range.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys

SIDES = ("parent", "change")
RUN = [sys.executable, "perfbench/run.py"]


def parse_seeds(text) -> list:
    """'101-110' or '1,2,5' as a list of ints."""
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def src_tree(root) -> str:
    """The git tree id of root/src, as `git rev-parse HEAD:src` gives it
    for a commit with those files, leaving out byte code."""
    def tree(path) -> bytes:
        entries = []
        for name in os.listdir(path):
            full = os.path.join(path, name)
            if name == "__pycache__" or name.endswith((".pyc", ".pyo")):
                continue
            if os.path.isdir(full):
                entries.append((name + "/", b"40000 " + name.encode(),
                                tree(full)))
            else:
                with open(full, "rb") as f:
                    data = f.read()
                mode = b"100755 " if os.access(full, os.X_OK) else b"100644 "
                entries.append((name, mode + name.encode(), _object(
                    b"blob", data)))
        body = b"".join(head + b"\0" + digest
                        for _, head, digest in sorted(entries))
        return _object(b"tree", body)
    return tree(os.path.join(root, "src")).hex()


def _object(kind, data) -> bytes:
    return hashlib.sha1(kind + b" %d\0" % len(data) + data).digest()


def commit_of(root) -> str:
    """HEAD of a git checkout, or None for a plain copy."""
    try:
        out = subprocess.run(["git", "-C", root, "rev-parse", "HEAD"],
                             capture_output=True, text=True, check=True)
    except (OSError, subprocess.CalledProcessError):
        return None
    return out.stdout.strip()


def run_once(root, workload, seed, seconds, trace) -> tuple:
    """(returncode, the result JSON of one perfbench run, or None)."""
    proc = subprocess.run(
        RUN + ["--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(trace)],
        cwd=root, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    try:
        return proc.returncode, json.loads(lines[-1])
    except (IndexError, ValueError):
        return proc.returncode, None


def quartiles(values) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive") \
        if len(values) > 1 else values * 3
    return {"median": round(median, 4), "q1": round(q1, 4),
            "q3": round(q3, 4)}


def within_bound(parent, change, better, bound) -> bool:
    """Whether the change's median is worse than the parent's by no
    more than bound, a fraction of the parent's."""
    if better == "higher":
        return change >= parent * (1 - bound)
    return change <= parent * (1 + bound)


def claim_verdict(parent, change, better, wins) -> dict:
    """Whether a claimed gain holds on the two sides' values, pair k at
    position k: the change won at least 9 pairs in 10, and its median is
    better than the parent's by more than the parent's interquartile
    range."""
    q = quartiles(parent)
    gap = statistics.median(change) - statistics.median(parent)
    if better == "lower":
        gap = -gap
    iqr = q["q3"] - q["q1"]
    enough_wins = 10 * wins >= 9 * len(parent)
    return {"wins_9_of_10": enough_wins, "median_gain": round(gap, 4),
            "parent_iqr": round(iqr, 4), "gain_past_iqr": gap > iqr,
            "holds": enough_wins and gap > iqr}


def summarize(runs, metrics, bounds=None, claim=None) -> dict:
    """Per workload: for each end-to-end metric (name -> "higher" or
    "lower") both sides' median and quartiles, the change's pair wins
    and the ratio of medians; then failures, attempts, correctness and
    seeds.  runs are the trace-0 run records of run_pairs.  With bounds
    (name -> bound), each metric also states whether the change stays
    within its bound; with claim, a (workload, metric) pair, that
    metric states whether the claimed gain holds (claim_verdict)."""
    bounds = bounds or {}
    summary = {}
    for workload in dict.fromkeys(r["workload"] for r in runs):
        mine = [r for r in runs if r["workload"] == workload]
        pairs = sorted({r["pair"] for r in mine})
        by = {(r["side"], r["pair"]): r["result"] for r in mine}
        out = {}
        for name, better in metrics.items():
            values = {side: [by[side, k]["metrics"][name]["value"]
                             for k in pairs] for side in SIDES}
            wins = sum(c > p if better == "higher" else c < p
                       for p, c in zip(values["parent"], values["change"]))
            parent, change = (statistics.median(values[s]) for s in SIDES)
            out[name] = {
                "better": better,
                "parent": quartiles(values["parent"]),
                "change": quartiles(values["change"]),
                "change_wins": f"{wins}/{len(pairs)}",
                "median_ratio_change_over_parent":
                    round(change / parent, 3) if parent else None,
            }
            if name in bounds:
                out[name]["bound"] = bounds[name]
                out[name]["within_bound"] = within_bound(
                    parent, change, better, bounds[name])
            if claim == (workload, name):
                out[name]["claim"] = claim_verdict(
                    values["parent"], values["change"], better, wins)
        for key in ("failed", "attempted"):
            out[key] = {side: sum(by[side, k][key] for k in pairs)
                        for side in SIDES}
        out["correct"] = all(r["correct"] for r in by.values())
        out["seeds"] = [next(r["seed"] for r in mine if r["pair"] == k)
                        for k in pairs]
        summary[workload] = out
    return summary


def run_pairs(roots, workloads, seeds, seconds, log=print) -> list:
    runs = []
    for k, seed in enumerate(seeds):
        order = SIDES if k % 2 == 0 else SIDES[::-1]
        for workload in workloads:
            for side in order:
                code, result = run_once(roots[side], workload, seed,
                                        seconds, 0)
                if result is None:
                    raise SystemExit(f"{side} {workload} seed {seed}: "
                                     f"no result (exit {code})")
                runs.append({"side": side, "workload": workload,
                             "seed": seed, "pair": k, "trace": 0,
                             "returncode": code, "result": result})
                log(f"pair {k} {workload} {side}: "
                    f"{result['metrics']['ops_per_kref']['value']:.1f}")
    return runs


def trace_layers(roots, workloads, seed, seconds) -> dict:
    out = {"note": f"one --trace 1 run per side and workload on seed "
                   f"{seed}; self times in ref units per operation, counts "
                   f"per round"}
    for workload in workloads:
        out[workload] = {}
        for side in SIDES:
            code, result = run_once(roots[side], workload, seed, seconds, 1)
            layers = {name: m["value"]
                      for name, m in (result or {}).get("metrics",
                                                        {}).items()}
            out[workload][side] = {
                "seed": seed, "returncode": code,
                "attempted": (result or {}).get("attempted"),
                "layers": layers,
            }
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--parent", required=True)
    ap.add_argument("--change", required=True)
    ap.add_argument("--out", required=True)
    ap.add_argument("--seeds", default="101-110")
    ap.add_argument("--trace-seed", type=int)
    ap.add_argument("--what", default="")
    ap.add_argument("--claim", help="WORKLOAD:METRIC:EXPECTED")
    ap.add_argument("--seeds-note", default="")
    args = ap.parse_args(argv)

    roots = {"parent": args.parent, "change": args.change}
    with open(os.path.join(args.change, "BENCHMARK.json")) as f:
        bench = json.load(f)
    metrics = {m["name"]: m["better"] for m in bench["end_to_end"]}
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    workloads = [w["name"] for w in bench["workloads"]]
    seconds = bench["run_seconds"]
    seeds = parse_seeds(args.seeds)
    trees = {side: src_tree(root) for side, root in roots.items()}
    doc = {
        "what": args.what,
        "command": f"python3 perfbench/run.py --workload W --seed S "
                   f"--seconds {seconds:g} --trace 0 "
                   f"(per-layer: --trace 1)",
        "host": {"python": platform.python_version(),
                 "nproc": os.cpu_count(), "machine": platform.machine()},
        "parent_commit": commit_of(args.parent),
        "parent_src_tree": trees["parent"],
        "change_commit": commit_of(args.change)
        or "the commit that adds this file; its src/ tree is "
           "change_src_tree",
        "change_src_tree": trees["change"],
        "pairing": f"{len(seeds)} pairs per workload, one parent and one "
                   f"change run each, one run at a time; pair k runs on "
                   f"seed k of {seeds}; even pairs run the parent first, "
                   f"odd pairs the change first; quartiles by "
                   f"statistics.quantiles(n=4, method='inclusive')",
    }
    claim = None
    if args.claim:
        workload, metric, expected = args.claim.split(":", 2)
        claim = (workload, metric)
        doc["claim"] = {"workload": workload, "metric": metric,
                        "expected": expected,
                        "seeds_note": args.seeds_note}
    runs = run_pairs(roots, workloads, seeds, seconds,
                     log=lambda line: print(line, file=sys.stderr))
    doc["summary"] = summarize(runs, metrics, bounds, claim)
    if args.trace_seed is not None:
        doc["trace_per_layer"] = trace_layers(
            roots, workloads, args.trace_seed, seconds)
    doc["runs"] = runs
    with open(args.out, "w") as f:
        json.dump(doc, f, indent=1)
        f.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
