"""Run every workload of BENCHMARK.json and print every metric by name with
its unit, plus each workload's attempted and failed operations.

    python3 spinbench/report.py                  # one untraced run per workload
    python3 spinbench/report.py --seeds 10       # medians and quartiles over seeds
    python3 spinbench/report.py --trace          # add one traced run per workload

Each run is a fresh process, as the benchmark requires.  With several seeds
the report gives, per end-to-end metric, the median, the quartiles and the
spread (quartile distance over median) next to the metric's bound.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run(spec, workload, seed, trace, seconds):
    """One run in a fresh process; returns its result line and the details
    file it leaves (per-round times, per-experiment times, ESS)."""
    cmd = [*spec["command"], "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT, timeout=600)
    if done.returncode != 0:
        raise SystemExit(f"{workload} seed {seed}: exit {done.returncode}\n"
                         f"{done.stderr[-2000:]}")
    result = json.loads(done.stdout.strip().splitlines()[-1])
    with open(os.path.join(ROOT, ".spinbench_runs", workload, "details.json")) as f:
        result["details"] = json.load(f)
    return result


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seeds", type=int, default=1)
    ap.add_argument("--trace", action="store_true",
                    help="also make one traced run per workload")
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    seconds = spec["run_seconds"]
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    for name in (w["name"] for w in spec["workloads"]):
        results = []
        for seed in range(1, args.seeds + 1):
            results.append(run(spec, name, seed, 0, seconds))
            print(f"{name} seed {seed}: " + ", ".join(
                f"{k} {v['value']:.4g}" for k, v in results[-1]["metrics"].items()),
                file=sys.stderr, flush=True)
        attempted = sum(r["attempted"] for r in results)
        failed = sum(r["failed"] for r in results)
        correct = all(r["correct"] for r in results)
        print(f"\n{name}: {len(results)} runs, attempted {attempted}, failed "
              f"{failed} ({failed / attempted:.4f}), correct {correct}")
        for metric, m in bounds.items():
            vals = [r["metrics"][metric]["value"] for r in results]
            q1, q2, q3 = quartiles(vals)
            spread = (q3 - q1) / q2 if q2 else float("nan")
            print(f"  {metric:14s} median {q2:10.4f} {m['unit']:3s} "
                  f"quartiles [{q1:.4f}, {q3:.4f}]  spread {spread:.3f} "
                  f"(bound {m['bound']})")
        extra = {f"{e}_s": [r["details"]["per_experiment_s"][e] for r in results]
                 for e in results[0]["details"]["per_experiment_s"]}
        extra["ess_per_s"] = [r["details"]["ess_per_s"] for r in results]
        extra["ess"] = [r["details"]["ess"] for r in results]
        for metric, vals in extra.items():
            if any(vals):
                q1, q2, q3 = quartiles(vals)
                print(f"  {metric:14s} median {q2:10.4f}     quartiles "
                      f"[{q1:.4f}, {q3:.4f}]  spread {(q3 - q1) / q2:.3f} (not gated)")
        if args.trace:
            traced = run(spec, name, 1, 1, seconds)
            print(f"  traced run: attempted {traced['attempted']}, failed "
                  f"{traced['failed']}, correct {traced['correct']}")
            for metric, m in traced["metrics"].items():
                if m["value"]:
                    print(f"    {metric:38s} {m['value']:14.6g} {m['unit']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
