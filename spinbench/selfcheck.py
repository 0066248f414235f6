"""Quick self-check of the benchmark: every workload at its smallest size with
every check on, in about a minute.

    python3 spinbench/selfcheck.py

Each workload runs once traced (which also takes an untraced round), and the
cheapest one once untraced.  The check fails (exit 1) when a run prints no
result line, reports `correct: false`, fails an operation other than the
known fault, or leaves out a metric that BENCHMARK.json names.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import workloads  # noqa: E402

# operations that fail every round until the program is mended
KNOWN_FAILURES = {"decompose51_logsing"}


def run(workload, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", "1", "--seconds", "0", "--trace", str(trace), "--quick"]
    done = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT,
                          timeout=300)
    print(done.stdout.rsplit("\n{", 1)[0], done.stderr[-2000:], sep="\n")
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        return None
    return json.loads(lines[-1])


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    names = [w["name"] for w in spec["workloads"]]
    problems = []
    for name, trace in [(n, 1) for n in names] + [(names[0], 0)]:
        key = "per_layer" if trace else "end_to_end"
        result = run(name, trace)
        tag = f"{name} --trace {trace}"
        if result is None:
            problems.append(f"{tag}: no result")
            continue
        ops = workloads.operations(name, quick=True)
        rounds = result["attempted"] // len(ops)
        expect = rounds * sum(op.label in KNOWN_FAILURES for op in ops)
        if not result["correct"]:
            problems.append(f"{tag}: correct is false")
        if result["failed"] != expect:
            problems.append(f"{tag}: {result['failed']} of {result['attempted']} "
                            f"operations failed, expected {expect}")
        missing = [m["name"] for m in spec[key] if m["name"] not in result["metrics"]]
        if missing:
            problems.append(f"{tag}: missing metrics {missing}")
    for p in problems:
        print("SELF-CHECK FAILED:", p)
    print("self-check", "failed" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
