"""sha256 of every table and summary that spinlab writes for a fixed set of
configs, so that a byte-identity check between two checkouts is one diff.

    python3 tools/output_digest.py --root /tmp/digest-a > a.txt
    (in the other checkout)
    python3 tools/output_digest.py --root /tmp/digest-b > b.txt
    diff a.txt b.txt

The configs are the three benchmark workloads' (`spinbench/workloads.py`) at
each `--seeds` value, and every experiment at its defaults with seed 0.  Each
config goes through `spinlab run` in process, from this checkout's `src/`.
For each config the digest prints `exit <code>  <config dir>`, then one
`<sha256>  <path>` line per `.csv` and `summary.json` it wrote, paths taken
relative to `--root`, which must not exist yet.
"""

import argparse
import contextlib
import hashlib
import io
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "spinbench")]

from spinlab import cli  # noqa: E402
import workloads  # noqa: E402

WORKLOADS = ("mc_smooth", "singular", "solvers")


def default_configs(root):
    """One config per experiment, every parameter at its default, seed 0;
    returns (config path, output directory) pairs."""
    paths = []
    for name in sorted(cli.EXPERIMENTS):
        d = os.path.join(root, name)
        os.makedirs(d)
        cfg, out = os.path.join(d, "config.ini"), os.path.join(d, "out")
        with open(cfg, "w") as f:
            f.write(f"[experiment]\nname = {name}\nseed = 0\nout = {out}\n")
        paths.append((cfg, out))
    return paths


def digest(cfg, out, root):
    """Run one config; returns its lines of the digest."""
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(["run", "--config", cfg])
    lines = [f"exit {code}  {os.path.relpath(os.path.dirname(cfg), root)}"]
    names = sorted(os.listdir(out)) if os.path.isdir(out) else []
    for name in names:
        if name.endswith(".csv") or name == "summary.json":
            path = os.path.join(out, name)
            with open(path, "rb") as f:
                h = hashlib.sha256(f.read()).hexdigest()
            lines.append(f"{h}  {os.path.relpath(path, root)}")
    return lines


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--root", required=True,
                    help="directory for the configs and outputs; must not exist")
    ap.add_argument("--seeds", type=int, nargs="+", default=[1, 2],
                    help="workload seeds (default: 1 2)")
    args = ap.parse_args(argv)
    root = os.path.abspath(args.root)
    os.makedirs(root)
    configs = []
    for workload in WORKLOADS:
        for seed in args.seeds:
            configs += workloads.write_configs(
                workloads.operations(workload), seed,
                os.path.join(root, workload, f"seed{seed}"))
    configs += default_configs(os.path.join(root, "defaults"))
    for cfg, out in configs:
        print("\n".join(digest(cfg, out, root)), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
