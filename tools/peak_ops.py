"""Which operation of a benchmark workload raises the process's peak memory.

    python3 tools/peak_ops.py --workload singular --rounds 25

The workload's configs are written from `--seed` (`spinbench/workloads.py`)
and run in process for `--rounds` rounds, each config through `spinlab run`
and `spinlab verify` with the benchmark's own operation runner and capture
hook (`spinbench/run.py`, `spinbench/tracing.py`), so the process holds what
a benchmark run holds.  The benchmark's `peak_rss_mb` is the high-water
mark of its resident set, `ru_maxrss`.  For each operation the tool prints
how far that mark rose while the operation ran, summed over the rounds, and
in how many rounds it rose at all.  An operation that never raises the mark
cannot lower the benchmark's peak by shrinking.  Where `/proc/self/statm`
exists, it also prints the median over the rounds of the resident set right
after the operation, which tells memory the process keeps from a short-lived
peak.
"""

import argparse
import os
import resource
import statistics
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "spinbench")]

import run as bench  # noqa: E402  (spinbench/run.py, read only)


def high_water_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def resident_mb():
    """The resident set now, from /proc/self/statm; None where it is absent."""
    try:
        with open("/proc/self/statm") as f:
            pages = int(f.read().split()[1])
    except OSError:
        return None
    return pages * os.sysconf("SC_PAGE_SIZE") / 2 ** 20


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--rounds", type=int, default=25)
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args(argv)
    if args.rounds < 1:
        ap.error("--rounds must be at least 1")
    nproc = bench.cap_threads()  # before numpy is imported, as the benchmark does
    with tempfile.TemporaryDirectory(prefix="peak_ops-") as root:
        ops, paths = bench.setup(args.workload, args.seed, False, root)
        from spinlab import cli
        from tracing import Capture

        capture = Capture()
        capture.install()
        start = high_water_mb()
        rise = [0.0] * len(ops)
        risen = [0] * len(ops)
        after = [[] for _ in ops]  # resident set after each run of an op
        kept = None  # the benchmark keeps the first round's captures
        for _ in range(args.rounds):
            for i, (cfg, out) in enumerate(paths):
                capture.op = i
                before = high_water_mb()
                bench.run_operation(cli, cfg, out)
                up = high_water_mb() - before
                rise[i] += up
                risen[i] += up > 0
                rss = resident_mb()
                if rss is not None:
                    after[i].append(rss)
            if kept is None:
                kept = (list(capture.chains), list(capture.crossings),
                        list(capture.waves))
            capture.clear()
        capture.uninstall()
    print(f"workload {args.workload}  seed {args.seed}  rounds {args.rounds}  "
          f"nproc {nproc}")
    print(f"high-water mark: {start:.1f} MB after set-up, "
          f"{high_water_mb():.1f} MB at the end")
    width = max(len(op.label) for op in ops)
    print(f"{'operation':<{width}}  rise_mb  rounds_risen  rss_after_mb")
    for op, mb, n, rss in zip(ops, rise, risen, after):
        resident = f"{statistics.median(rss):12.1f}" if rss else f"{'n/a':>12}"
        print(f"{op.label:<{width}}  {mb:7.2f}  {n:12d}  {resident}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
