"""Alternating parent/change benchmark pairs in one command.

    python3 tools/bench_pairs.py PARENT --seeds 8001 8002 8003 > pairs.json

PARENT is a second checkout, usually of the parent commit; the change is the
checkout this file lives in.  For each workload of `BENCHMARK.json` and each
seed, pair i runs its benchmark command (`spinbench/run.py --workload W
--seed S --seconds T --trace 0`, T its `run_seconds`) once in each checkout,
the parent first when i is even and the change first when i is odd, and
reads the last line that each run prints, a JSON object.  Progress goes to stderr; stdout gets
one JSON record in the shape of the committed `BENCH_*.json` files:

- `summary`: per workload, for each end-to-end metric of `BENCHMARK.json`,
  each side's median, quartiles (`statistics.quantiles(n=4)`, the exclusive
  method) and range, the pairs the change won (ties count for neither
  side), the median difference against the parent's quartile distance and
  the metric's bound, and two verdicts: `worse_by_more_than_bound`, and
  `unresolved` where the parent's quartile distance is wider than the bound
  and not every change run beats every parent run, so the pairs cannot tell
  a move of the bound's size from noise; then each run's failed/attempted
  operations and its `correct` flag;
- `runs`: every pair's two result lines as they were printed.

Only the standard library is used, and `BENCHMARK.json` is only read.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run_once(checkout, command, workload, seed, seconds):
    """One untraced benchmark run in `checkout`; its last printed line, parsed."""
    args = command + ["--workload", workload, "--seed", str(seed),
                      "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(args, cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{' '.join(args)} in {checkout} exited "
                           f"{proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return json.loads(lines[-1])


def metric_summary(pairs, name, better, bound):
    """The summary of one end-to-end metric over the pairs of one workload."""
    parent = [p["parent"]["metrics"][name]["value"] for p in pairs]
    change = [p["change"]["metrics"][name]["value"] for p in pairs]
    sign = 1.0 if better == "lower" else -1.0  # > 0: the change is worse
    pq, cq = statistics.quantiles(parent, n=4), statistics.quantiles(change, n=4)
    pm, cm = statistics.median(parent), statistics.median(change)
    separated = max(sign * c for c in change) < min(sign * p for p in parent)
    return {
        "pairs": len(pairs),
        "parent_median": round(pm, 4),
        "change_median": round(cm, 4),
        "change_better_pairs": sum(sign * (c - p) < 0 for p, c in zip(parent, change)),
        "parent_quartiles": [round(pq[0], 4), round(pq[2], 4)],
        "change_quartiles": [round(cq[0], 4), round(cq[2], 4)],
        "parent_quartile_distance": round(pq[2] - pq[0], 4),
        "median_difference": round(cm - pm, 4),
        "relative_change": round((cm - pm) / pm, 4) if pm else None,
        "bound": bound,
        "worse_by_more_than_bound": sign * (cm - pm) > bound,
        "parent_range": [round(min(parent), 4), round(max(parent), 4)],
        "change_range": [round(min(change), 4), round(max(change), 4)],
        "every_change_run_better_than_every_parent_run": separated,
        "unresolved": pq[2] - pq[0] > bound and not separated,
    }


def workload_summary(pairs, end_to_end):
    out = {m["name"]: metric_summary(pairs, m["name"], m["better"], m["bound"])
           for m in end_to_end}
    sides = ("parent", "change")
    out["failed_share"] = {s: [f"{p[s]['failed']}/{p[s]['attempted']}" for p in pairs]
                           for s in sides}
    out["correct"] = {s: [p[s]["correct"] for p in pairs] for s in sides}
    return out


def main(argv=None):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    workloads = [w["name"] for w in bench["workloads"]]
    seconds = bench["run_seconds"]
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("parent", help="the other checkout, run as the parent side")
    ap.add_argument("--seeds", type=int, nargs="+", required=True,
                    help="one pair per seed and workload; at least two")
    args = ap.parse_args(argv)
    if len(args.seeds) < 2:
        ap.error("quartiles need at least two pairs")
    sides = {"parent": os.path.abspath(args.parent), "change": ROOT}
    runs = {}
    for workload in workloads:
        runs[workload] = []
        for i, seed in enumerate(args.seeds):
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            pair = {"seed": seed, "first": order[0]}
            for side in order:
                pair[side] = run_once(sides[side], bench["command"], workload,
                                      seed, seconds)
                m = pair[side]["metrics"]
                print(f"{workload} seed {seed} {side}: " + "  ".join(
                    f"{e['name']} {m[e['name']]['value']:.4f}"
                    for e in bench["end_to_end"]), file=sys.stderr)
            runs[workload].append(pair)
    record = {
        "command": " ".join(bench["command"])
        + " --workload W --seed S --seconds T --trace 0",
        "seconds": seconds,
        "nproc": len(os.sched_getaffinity(0)),
        "seeds": {w: args.seeds for w in workloads},
        "order": f"pair i (seed {args.seeds[0]}, ...) runs the parent first when "
                 "i is even, the change first when i is odd; workloads in the "
                 "order of BENCHMARK.json, each pair back to back",
        "quartiles": "statistics.quantiles(n=4), the exclusive method, over "
                     "each side's runs",
        "summary": {w: workload_summary(runs[w], bench["end_to_end"])
                    for w in workloads},
        "runs": runs,
    }
    json.dump(record, sys.stdout, indent=1)
    print()
    return 0


if __name__ == "__main__":
    sys.exit(main())
