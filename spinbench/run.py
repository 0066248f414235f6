"""spinlab benchmark: one workload, end-to-end or traced.

    python3 spinbench/run.py --workload mc_smooth --seed 1 --seconds 20 --trace 0

Run from the root of a spinlab checkout; the package is imported from `src/`.
The workload's experiment configs are written from the seed, then each round
takes every config through `spinlab run` and `spinlab verify` in process,
until `--seconds` have passed.  Outputs are checked after the timed rounds.
The last line printed is one JSON object with `correct`, `attempted`,
`failed` and `metrics`: the end-to-end metrics with `--trace 0`, the
per-layer metrics of traced rounds with `--trace 1`.  See README.md.
"""

from time import perf_counter

T_START = perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
RUNS = os.path.join(ROOT, ".spinbench_runs")
SETUP_PROBES = 5  # set-ups timed in fresh processes; setup_s is their median
EXPERIMENTS = ("rotation", "twopoint", "aizenman", "decompose51", "sparseness",
               "layers", "spinwave", "entropy", "recurrence")


def cap_threads() -> int:
    """Cap the BLAS/OpenMP pools behind numpy and scipy at the CPUs this
    process may use; must run before numpy is imported."""
    n = len(os.sched_getaffinity(0))
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(n)
    return n


def setup(workload, seed, quick, root):
    """Import spinlab with numpy and scipy and write the workload's configs
    into `root`, which must not hold a previous run's outputs."""
    sys.path.insert(0, SRC)
    import numpy  # noqa: F401
    import scipy.signal  # noqa: F401
    import scipy.sparse.linalg  # noqa: F401
    import scipy.special  # noqa: F401
    import spinlab.cli  # noqa: F401
    from spinlab import (interaction, lattice, layer_measure,  # noqa: F401
                         longrange_walk, percolation, sampler, spinwave)

    import workloads

    ops = workloads.operations(workload, quick)
    return ops, workloads.write_configs(ops, seed, root)


def probe_setup(args, k) -> float:
    """Set-up time of a fresh process that runs only the set-up, into a
    directory of its own emptied beforehand."""
    probe_dir = os.path.join(RUNS, f"{args.workload}-probe{k}")
    shutil.rmtree(probe_dir, ignore_errors=True)
    cmd = [sys.executable, os.path.abspath(__file__), "--setup-probe",
           "--workload", args.workload, "--seed", str(args.seed),
           "--probe-dir", probe_dir] + (["--quick"] if args.quick else [])
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=120,
                          check=True)
    return float(done.stdout.strip().splitlines()[-1])


def run_operation(cli, cfg, out):
    """Take one config through `spinlab run` and `spinlab verify`.

    Returns (run seconds, verify seconds, problem or None, predicate status).
    A problem is a non-zero exit of `run` or a hash failure in `verify`;
    the experiment's own predicate is recorded but not counted.
    """
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(buf):
        t0 = perf_counter()
        rc = cli.main(["run", "--config", cfg])
        t1 = perf_counter()
        if rc != 0:
            return t1 - t0, 0.0, f"run exited {rc}: {buf.getvalue()[-300:]}", None
        mark = buf.tell()
        cli.main(["verify", "--manifest", os.path.join(out, "manifest.json")])
        t2 = perf_counter()
    verdicts = [json.loads(line) for line in buf.getvalue()[mark:].splitlines()
                if line.startswith("{")]
    broken = [v for v in verdicts if not v["criterion"].startswith("predicate:")
              and v["status"] != "pass"]
    predicate = next((v["status"] for v in verdicts
                      if v["criterion"].startswith("predicate:")), None)
    problem = f"verify: {broken}" if broken or not verdicts else None
    return t1 - t0, t2 - t1, problem, predicate


def output_hashes(out):
    with open(os.path.join(out, "manifest.json")) as f:
        return tuple((os.path.basename(e["path"]), e["sha256"])
                     for e in json.load(f)["outputs"])


def median(xs):
    return statistics.median(xs) if xs else 0.0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--quick", action="store_true",
                    help="less Monte Carlo work and one round per kind, for the self-check")
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    ap.add_argument("--probe-dir", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "spinlab", "cli.py")):
        print(f"spinbench: no spinlab sources under {SRC}", file=sys.stderr)
        return 2
    nproc = cap_threads()
    if args.setup_probe:
        setup(args.workload, args.seed, args.quick, args.probe_dir)
        print(repr(perf_counter() - T_START))
        return 0
    root = os.path.join(RUNS, args.workload)
    shutil.rmtree(root, ignore_errors=True)
    ops, paths = setup(args.workload, args.seed, args.quick, root)
    # the set-up probes run one before the timed rounds, one after each round
    # and the rest after the last, so that their median samples the machine
    # across the whole run; their time is not counted in the rounds'.  A
    # traced or quick run reports no setup_s and makes one probe only.
    probes = list(range(1 if args.quick or args.trace else SETUP_PROBES))
    setup_times = [probe_setup(args, probes.pop(0))]

    import checks
    from spinlab import cli
    from tracing import Capture, RoundView, Tracer, layer_metrics

    capture = Capture()
    capture.install()
    tracer = Tracer() if args.trace else None
    rounds = []  # per round: {"traced", "times": [(run_s, verify_s)], ...}
    first_hashes, kept = {}, None
    attempted = 0
    problems = {}  # op index -> problems found
    # A traced run alternates untraced and traced rounds.  Its first round
    # warms up (allocator, caches) and is left out of its medians, so that
    # the tracing overhead compares like with like.
    min_rounds = (2 if args.quick else 3) if args.trace else 1
    elapsed = 0.0  # seconds in rounds, set-up probes left out
    while True:
        t_round = perf_counter()
        traced = bool(args.trace) and len(rounds) % 2 == 1
        if traced:
            tracer.install()
            first_span = len(tracer.spans)
        times, predicates, bad_ops = [], [], set()
        for i, (op, (cfg, out)) in enumerate(zip(ops, paths)):
            capture.op = i
            if traced:
                tracer.op = i
                span = tracer.begin("bench.operation")
            run_s, verify_s, problem, predicate = run_operation(cli, cfg, out)
            if traced:
                tracer.end(span)
            times.append((run_s, verify_s))
            predicates.append(predicate)
            if problem is None:
                hashes = output_hashes(out)
                if first_hashes.setdefault(i, hashes) != hashes:
                    problem = "outputs differ from the first round's"
            if problem is not None:
                problems.setdefault(i, []).append(problem)
                bad_ops.add(i)
        record = {"traced": traced, "times": times, "predicates": predicates,
                  "bad": bad_ops,
                  "chain_s": sum(s for _, _, s in capture.chains)}
        if traced:
            tracer.uninstall()
            view = RoundView(tracer.spans, first_span, len(tracer.spans))
            record["layers"] = layer_metrics(view, tracer.counts)
            record["self"] = view.self_times()
            record["spans"] = len(tracer.spans) - first_span
            tracer.counts.clear()
        if kept is None:
            kept = {"chains": list(capture.chains),
                    "crossings": list(capture.crossings),
                    "waves": list(capture.waves)}
        capture.clear()
        rounds.append(record)
        attempted += len(ops)
        elapsed += perf_counter() - t_round
        if len(rounds) >= min_rounds and (args.quick or elapsed >= args.seconds):
            break
        if probes:
            setup_times.append(probe_setup(args, probes.pop(0)))
    capture.uninstall()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    setup_times += [probe_setup(args, k) for k in probes]

    # checks: on the outputs left by the last round, which match the first
    # round's byte for byte, and on what the capture hooks kept then
    for i, (op, (cfg, out)) in enumerate(zip(ops, paths)):
        cap = {"crossings": [(r, a, c) for o, r, a, c in kept["crossings"] if o == i],
               "waves": [w for o, w in kept["waves"] if o == i],
               "chains": [st for o, st, _ in kept["chains"] if o == i]}
        found = checks.check_operation(op, out, cap)
        if found:
            problems.setdefault(i, []).extend(found)
            for rec in rounds:
                rec["bad"].add(i)
    failed = sum(len(rec["bad"]) for rec in rounds)
    oracles = [(bool(ok), detail) for ok, detail in
               checks.run_oracles(args.workload, args.seed, args.quick)]
    correct = all(ok for ok, _ in oracles)

    # Monte Carlo efficiency: ESS of each chain from its own observable
    taus = [checks.tau_int(checks.chain_observable(st)) for _, st, _ in kept["chains"]]
    lengths = [len(checks.chain_observable(st)) for _, st, _ in kept["chains"]]
    ess = sum(n / (2.0 * t) for n, t in zip(lengths, taus))
    draws = sum(lengths)
    plain = [r for r in rounds if not r["traced"]]
    if args.trace and len(plain) > 1:
        plain = plain[1:]
    walls = [sum(a + b for a, b in r["times"]) for r in plain]
    per_exp = {e: median([sum(a + b for (a, b), op in zip(r["times"], ops)
                              if op.experiment == e) for r in plain])
               for e in EXPERIMENTS}
    ess_per_s = median([ess / r["chain_s"] for r in plain if r["chain_s"] > 0])

    if args.trace:
        traced = [r for r in rounds if r["traced"]]
        layer = {k: median([r["layers"][k] for r in traced])
                 for k in traced[0]["layers"]}
        traced_wall = median([sum(a + b for a, b in r["times"]) for r in traced])
        layer["sampler.tau_int"] = draws / (2.0 * ess) if ess else 0.0
        layer["sampler.ess"] = ess
        layer["sampler.ess_per_s"] = ess_per_s
        for e in EXPERIMENTS:
            layer[f"cli.{e}_s"] = per_exp[e]
        layer["trace.overhead_s"] = traced_wall - median(walls)
        layer["trace.overhead_share"] = layer["trace.overhead_s"] / median(walls)
        layer["trace.spans"] = median([r["spans"] for r in traced])
        tracer.dump(os.path.join(root, "spans.jsonl"))
        metrics = {k: {"value": v, "unit": LAYER_UNITS[k]} for k, v in layer.items()}
    else:
        metrics = {
            "setup_s": {"value": median(setup_times), "unit": "s"},
            "wall_s": {"value": median(walls), "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        }

    details = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
               "nproc": nproc, "setup_s": setup_times,
               "rounds": [{"traced": r["traced"], "times": r["times"]}
                          for r in rounds],
               "per_experiment_s": per_exp, "chain_tau_int": taus,
               "chain_draws": lengths, "ess": ess, "ess_per_s": ess_per_s,
               "problems": {ops[i].label: p for i, p in problems.items()},
               "oracles": oracles, "metrics": metrics}
    with open(os.path.join(root, "details.json"), "w") as f:
        json.dump(details, f, indent=1)

    # human-readable report, then the result line
    print(f"workload {args.workload}  seed {args.seed}  nproc {nproc}  "
          f"rounds {len(rounds)} ({sum(r['traced'] for r in rounds)} traced)  "
          f"attempted {attempted}  failed {failed}")
    print(f"  setup {', '.join(f'{t:.3f}' for t in setup_times)} s")
    print(f"  wall per round {', '.join(f'{w:.3f}' for w in walls)} s")
    for e in EXPERIMENTS:
        if per_exp[e]:
            print(f"  {e}_s {per_exp[e]:.4f} s")
    if kept["chains"]:
        print(f"  chains {len(kept['chains'])}  draws {draws}  ESS {ess:.1f}  "
              f"tau_int {draws / (2 * ess):.2f} sweeps  ESS/s {ess_per_s:.2f}")
    for i, op in enumerate(ops):
        status = "FAILED " + "; ".join(problems[i][:2]) if i in problems else "ok"
        pred = rounds[0]["predicates"][i]
        print(f"  op {op.label}: {status}  (spinlab predicate: {pred})")
    for ok, detail in oracles:
        print(f"  oracle {'ok' if ok else 'FAILED'}: {detail}")
    if args.trace:
        top = sorted(rounds[1]["self"].items(), key=lambda kv: -kv[1])[:8]
        print("  self time, first traced round: " +
              ", ".join(f"{k} {v:.3f}s" for k, v in top))
    for name, m in metrics.items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


LAYER_UNITS = {
    "sampler.sweep_s": "s", "sampler.ns_per_site_update": "ns",
    "sampler.site_updates": "count", "sampler.tune_sweeps": "count",
    "sampler.acceptance_rate": "ratio", "sampler.run_chain_self_s": "s",
    "sampler.feasibility_s": "s", "sampler.feasibility_calls": "count",
    "sampler.tau_int": "sweeps", "sampler.ess": "count",
    "sampler.ess_per_s": "1/s",
    "interaction.potential_calls": "count", "interaction.potential_evals": "angles",
    "interaction.potential_s": "s", "interaction.decompose_s": "s",
    "interaction.condition51_s": "s",
    "layer_measure.layer_potential_s": "s", "layer_measure.chi_density_s": "s",
    "layer_measure.convolve_s": "s", "layer_measure.densities_convolved": "count",
    "longrange_walk.char_function_s": "s",
    "longrange_walk.char_function_points": "count",
    "longrange_walk.connectivity_bound_s": "s",
    "spinwave.solve_s": "s", "spinwave.cg_iterations": "count",
    "spinwave.ms_per_iteration": "ms", "spinwave.sample_bonds_s": "s",
    "spinwave.deform_s": "s", "spinwave.entropy_bound_s": "s",
    "spinwave.dirichlet_energy_s": "s",
    "percolation.sample_s": "s", "percolation.crossings_s": "s",
    "percolation.maxflow_calls": "count", "percolation.scales_tried": "count",
    "lattice.circuit_s": "s", "lattice.circuits": "count",
    "cli.write_s": "s", "cli.output_bytes": "bytes", "cli.verify_s": "s",
    **{f"cli.{e}_s": "s" for e in EXPERIMENTS},
    "trace.overhead_s": "s", "trace.overhead_share": "ratio",
    "trace.spans": "count",
}


if __name__ == "__main__":
    sys.exit(main())
