"""Experiment runner: validated configs in, delimited tables plus a JSON
summary and a reproducibility manifest out.

Configs are ini-style (one [experiment] section naming the experiment, one
section per experiment with its parameters).  Every table row carries the
experiment name, the config hash, and the seed, so any output line can be
traced back to the run that produced it.  Exit codes: 0 success, 1 runtime
error, 2 config error, 3 verification failure.
"""

from __future__ import annotations

import argparse
import configparser
import hashlib
import json
import math
import os
import sys
import time

import numpy as np

from . import __version__

EXIT_OK = 0
EXIT_RUNTIME = 1
EXIT_CONFIG = 2
EXIT_VERIFY = 3
SCHEMA = 1


class ConfigError(Exception):
    def __init__(self, messages):
        self.messages = list(messages)
        super().__init__("; ".join(self.messages))


# ---------------------------------------------------------------------------
# configuration


def _int(v):
    return int(v)


def _float(v):
    return float(v)


def _int_list(v):
    return [int(x) for x in str(v).split(",") if x.strip()]


def _str(v):
    return str(v).strip()


# per-experiment parameter schema: key -> (parser, default, predicate, hint)
PARAM_SCHEMA = {
    "layers": {
        "potential": (_str, "xy(1.0)", None, ""),
        "cbar": (_float, 1.0, lambda x: x > 0, "must be positive"),
        "n": (_int, 8, lambda x: x >= 1, "must be >= 1"),
        "orbits": (_int, 5, lambda x: x >= 1, "must be >= 1"),
        "kmax": (_int, 4, lambda x: x >= 0, "must be >= 0"),
        "grid": (_int, 1024, lambda x: x >= 64, "must be >= 64"),
    },
    "extremal": {
        "c": (_float, 2.0, lambda x: x >= 1, "must be >= 1"),
        "smax": (_int, 3, lambda x: x >= 1, "must be >= 1"),
        "grid": (_int, 4096, lambda x: x >= 64, "must be >= 64"),
    },
    "sparseness": {
        "eps": (_float, 0.01, lambda x: 0 <= x < 1, "must be in [0, 1)"),
        "alpha": (_float, 0.1, lambda x: 0 < x < 0.5, "must be in (0, 0.5)"),
        "rho": (_float, 0.5, lambda x: 0 < x < 1, "must be in (0, 1)"),
        "ns": (_int_list, [16], lambda xs: all(x >= 8 for x in xs), "entries must be >= 8"),
        "samples": (_int, 20, lambda x: x >= 1, "must be >= 1"),
    },
    "recurrence": {
        "kernel": (_str, "nn", None, ""),
        "radius": (_int, 512, lambda x: x >= 1, "must be >= 1"),
    },
    "spinwave": {
        "kernel": (_str, "nn", None, ""),
        "eps": (_float, 0.2, lambda x: 0 < x < 1, "must be in (0, 1)"),
        "inner": (_int, 2, lambda x: x >= 0, "must be >= 0"),
        "psi": (_float, math.pi / 4, None, ""),
        "ns": (_int_list, [16, 32], lambda xs: all(x >= 4 for x in xs), "entries must be >= 4"),
    },
    "entropy": {
        "kernel": (_str, "nn", None, ""),
        "eps": (_float, 0.2, lambda x: 0 < x < 1, "must be in (0, 1)"),
        "inner": (_int, 2, lambda x: x >= 0, "must be >= 0"),
        "psi": (_float, math.pi / 4, None, ""),
        "ns": (_int_list, [16], lambda xs: all(x >= 4 for x in xs), "entries must be >= 4"),
        "samples": (_int, 50, lambda x: x >= 2, "must be >= 2"),
    },
    "rotation": {
        "potential": (_str, "xy(1.0)", None, ""),
        "psi": (_float, math.pi / 2, None, ""),
        "ns": (_int_list, [8, 16], lambda xs: all(x >= 2 for x in xs), "entries must be >= 2"),
        "sweeps": (_int, 2000, lambda x: x >= 64, "must be >= 64"),
    },
    "twopoint": {
        "potential": (_str, "xy(0.5)", None, ""),
        "n": (_int, 12, lambda x: x >= 2, "must be >= 2"),
        "distances": (_int_list, [1, 2, 4, 8], lambda xs: len(xs) >= 1, "need distances"),
        "sweeps": (_int, 4000, lambda x: x >= 64, "must be >= 64"),
    },
    "aizenman": {
        "k": (_int, 12, lambda x: x >= 9, "must be >= 9"),
        "delta": (_float, 0.05, lambda x: 0 < x < 1, "must be in (0, 1)"),
        "sigma": (_int, 1, lambda x: x in (0, 1, 2), "must be 0, 1, or 2"),
        "n": (_int, 8, lambda x: x >= 1, "must be >= 1"),
        "sweeps": (_int, 2000, lambda x: x >= 64, "must be >= 64"),
    },
    "decompose51": {
        "potential": (_str, "absval", None, ""),
        "eps": (_float, 0.5, lambda x: x > 0, "must be positive"),
        "grid": (_int, 4096, lambda x: x >= 256, "must be >= 256"),
    },
}


class ExperimentConfig:
    def __init__(self, name: str, seed: int, out: str, params: dict):
        self.name = name
        self.seed = seed
        self.out = out
        self.params = params

    @property
    def hash(self) -> str:
        blob = json.dumps({"name": self.name, "seed": self.seed,
                           "params": {k: str(v) for k, v in sorted(self.params.items())}},
                          sort_keys=True)
        return hashlib.sha256(blob.encode()).hexdigest()[:16]


def load_config(path: str, seed_override=None, out_override=None) -> ExperimentConfig:
    errors = []
    cp = configparser.ConfigParser()
    if not os.path.exists(path):
        raise ConfigError([f"config file not found: {path}"])
    cp.read(path)
    if "experiment" not in cp:
        raise ConfigError(["missing [experiment] section"])
    sec = cp["experiment"]
    name = sec.get("name", "").strip()
    if name not in PARAM_SCHEMA:
        raise ConfigError(
            [f"experiment.name: unknown experiment {name!r}; "
             f"choose one of {', '.join(sorted(PARAM_SCHEMA))}"])
    try:
        seed = int(sec.get("seed", "0"))
    except ValueError:
        errors.append("experiment.seed: must be an integer")
        seed = 0
    out = sec.get("out", "runs")
    params = {}
    raw = dict(cp[name]) if name in cp else {}
    schema = PARAM_SCHEMA[name]
    for key in raw:
        if key not in schema:
            errors.append(f"{name}.{key}: unknown parameter")
    for key, (parse, default, pred, hint) in schema.items():
        if key in raw:
            try:
                val = parse(raw[key])
            except (ValueError, TypeError):
                errors.append(f"{name}.{key}: cannot parse {raw[key]!r}")
                continue
        else:
            val = default
        if pred is not None and not pred(val):
            errors.append(f"{name}.{key}: {hint} (got {val})")
        params[key] = val
    if errors:
        raise ConfigError(errors)
    if seed_override is not None:
        seed = seed_override
    if out_override is not None:
        out = out_override
    return ExperimentConfig(name, seed, out, params)


# ---------------------------------------------------------------------------
# experiments: each returns (tables, metrics); a table is (header, rows)


def _fmt(v):
    if isinstance(v, float):
        return f"{v:.12g}"
    return str(v)


def _run_layers(p, seed):
    from .interaction import potential_preset
    from .layer_measure import (chi_density, convolve, density_cap_constant,
                                layer_potential, uniformity_bound,
                                OrbitConfiguration)

    pot = potential_preset(p["potential"])
    c1 = density_cap_constant(p["cbar"])
    rng = np.random.default_rng(seed)
    rows = []
    for orbit_idx in range(p["orbits"]):
        orbit = OrbitConfiguration.random(p["n"], rng)
        densities = [chi_density(layer_potential(k, orbit, pot, grid_size=p["grid"]))
                     for k in range(p["n"] + 1)]
        for k in range(min(p["kmax"], p["n"]) + 1):
            prod = convolve(densities[k:])
            dev = prod.sup_deviation
            bound = uniformity_bound(k, p["n"], c1)
            rows.append([orbit_idx, k, p["n"], dev, bound, int(dev <= bound)])
    worst = max(dev - bound for _, _, _, dev, bound, _ in rows)
    tables = {"layers.csv": (["orbit", "k", "r", "sup_dev", "bound", "ok"], rows)}
    return tables, {"c1": c1, "worst_margin": worst,
                    "all_within_bound": bool(worst <= 0)}


def _run_extremal(p, seed):
    from .layer_measure import extremal_fourier_oracle, fourier_max_bound

    coarse, sharp = fourier_max_bound(p["c"])
    rows = []
    for s in range(1, p["smax"] + 1):
        val, _ = extremal_fourier_oracle(p["c"], s, p["grid"])
        rows.append([s, val, coarse, sharp])
    tables = {"extremal.csv": (["s", "extremal", "coarse_bound", "sharp_bound"], rows)}
    return tables, {"c": p["c"], "max_value": max(r[1] for r in rows)}


def _run_sparseness(p, seed):
    from .percolation import estimate_sparseness_failure

    rows = []
    freqs = []
    for i, n in enumerate(p["ns"]):
        est = estimate_sparseness_failure(p["eps"], n, p["samples"],
                                          p["alpha"], p["rho"], seed + i)
        freqs.append(est.frequency)
        rows.append([n, p["eps"], p["alpha"], p["rho"], est.samples,
                     est.failures, est.frequency,
                     est.interval[0], est.interval[1]])
    tables = {"sparseness.csv": (["n", "eps", "alpha", "rho", "samples",
                                  "failures", "frequency", "ci_lo", "ci_hi"], rows)}
    return tables, {"frequencies": freqs}


def _run_recurrence(p, seed):
    from .longrange_walk import kernel_preset, normalize, recurrence_classify

    walk = normalize(kernel_preset(p["kernel"], radius=p["radius"]))
    rep = recurrence_classify(walk)
    rows = [[float(r), float(v)] for r, v in zip(rep.rhos, rep.values)]
    tables = {"recurrence.csv": (["rho", "integral"], rows)}
    return tables, {"kernel": p["kernel"], "verdict": rep.verdict,
                    "periodic": bool(rep.periodic), "fit": rep.fit}


def _run_spinwave(p, seed):
    from .longrange_walk import kernel_preset, normalize
    from .spinwave import dirichlet_energy, solve_spinwave

    walk = normalize(kernel_preset(p["kernel"]))
    rows = []
    field_rows = []
    energies = []
    for n in p["ns"]:
        wave = solve_spinwave(walk, n, p["inner"], p["psi"], eps=p["eps"])
        e = dirichlet_energy(wave)
        energies.append(e)
        rows.append([n, p["inner"], p["psi"], e, wave.residual])
    m = wave.margin
    for x in range(-wave.n, wave.n + 1):
        for y in range(-wave.n, wave.n + 1):
            field_rows.append([x, y, float(wave.values[x + m, y + m])])
    tables = {
        "spinwave.csv": (["n", "inner", "psi", "energy", "residual"], rows),
        "field.csv": (["x1", "x2", "value"], field_rows),
    }
    return tables, {"energies": energies,
                    "decreasing": bool(all(a > b for a, b in zip(energies, energies[1:])))}


def _run_entropy(p, seed):
    from .longrange_walk import kernel_preset, normalize
    from .spinwave import expected_entropy

    walk = normalize(kernel_preset(p["kernel"]))
    rows = []
    means = []
    for i, n in enumerate(p["ns"]):
        rep = expected_entropy(walk, p["eps"], n, p["inner"], p["psi"],
                               p["samples"], seed + i)
        means.append(rep.mean)
        rows.append([n, p["eps"], rep.samples, rep.mean, rep.ci[0], rep.ci[1],
                     rep.gated_fraction, rep.cluster_mean, rep.cluster_comparison])
    tables = {"entropy.csv": (["n", "eps", "samples", "mean", "ci_lo", "ci_hi",
                               "gated", "cluster_mean", "cluster_comparison"], rows)}
    return tables, {"means": means}


def _run_rotation(p, seed):
    from .interaction import potential_preset
    from .sampler import cos_at, fixed_bc, rotation_discrepancy

    pot = potential_preset(p["potential"])
    reps = [rotation_discrepancy(pot, fixed_bc(0.0), cos_at((0, 0)),
                                 p["psi"], n, p["sweeps"], seed + i)
            for i, n in enumerate(p["ns"])]
    rows = [[r.n, p["psi"], r.discrepancy, r.error] for r in reps]
    discs = [r.discrepancy for r in reps]
    tables = {"rotation.csv": (["n", "psi", "discrepancy", "error"], rows)}
    return tables, {"discrepancies": discs,
                    "decreasing": bool(all(a > b for a, b in zip(discs, discs[1:]))),
                    "widths": [r.width for r in reps],
                    "acceptance_rates": [r.acceptance_rate for r in reps]}


def _run_twopoint(p, seed):
    from .interaction import potential_preset
    from .sampler import free_bc, power_law_fit, two_point

    pot = potential_preset(p["potential"])
    rows = []
    for i, d in enumerate(p["distances"]):
        mean, err = two_point(pot, free_bc(), (0, 0), (0, d), p["n"],
                              p["sweeps"], seed + i)
        rows.append([d, mean, err])
    metrics = {}
    try:
        fit = power_law_fit(rows)
        metrics["fit"] = {"exponent": fit.exponent, "ci": list(fit.exponent_ci),
                          "preferred": fit.preferred,
                          "ll_difference": fit.ll_difference}
    except ValueError as exc:
        metrics["fit"] = {"unusable": str(exc)}
    tables = {"twopoint.csv": (["distance", "mean", "error"], rows)}
    return tables, metrics


def _run_aizenman(p, seed):
    from .sampler import aizenman_state

    rep = aizenman_state(p["k"], p["delta"], p["sigma"], p["n"],
                         p["sweeps"], seed)
    rows = []
    n = p["n"]
    for x in range(-n, n + 1):
        for y in range(-n, n + 1):
            m = rep.state.magnetization[x + n, y + n]
            rows.append([x, y, m.real, m.imag, abs(m)])
    tables = {"magnetization.csv": (["x1", "x2", "re", "im", "modulus"], rows)}
    return tables, {"origin_modulus": rep.origin_modulus(),
                    "violations": rep.state.violations,
                    "covariance_gap": rep.covariance_gap,
                    "covariance_error": rep.covariance_error}


def _run_decompose51(p, seed):
    from .interaction import (decompose, domination_epsilon, potential_preset,
                              verify_condition_51)

    pot = potential_preset(p["potential"])
    dec = decompose(pot, p["eps"], grid_size=p["grid"])
    ratio = verify_condition_51(dec)
    rows = [[s, float(c), float(d)] for s, (c, d) in enumerate(
        zip(np.concatenate([[dec.smooth.c0], dec.smooth.cos_coeffs]),
            np.concatenate([[0.0], dec.smooth.sin_coeffs])))]
    tables = {"decomposition.csv": (["mode", "cos_coeff", "sin_coeff"], rows)}
    return tables, {"ratio": ratio,
                    "domination_eps": domination_epsilon(ratio),
                    "second_derivative_bound": dec.second_derivative_bound}


RUNNERS = {
    "layers": _run_layers,
    "extremal": _run_extremal,
    "sparseness": _run_sparseness,
    "recurrence": _run_recurrence,
    "spinwave": _run_spinwave,
    "entropy": _run_entropy,
    "rotation": _run_rotation,
    "twopoint": _run_twopoint,
    "aizenman": _run_aizenman,
    "decompose51": _run_decompose51,
}


# ---------------------------------------------------------------------------
# output plumbing


def _plain(obj):
    """Recursively convert numpy scalars and arrays for JSON output."""
    if isinstance(obj, dict):
        return {k: _plain(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_plain(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_plain(v) for v in obj.tolist()]
    if isinstance(obj, np.generic):
        return obj.item()
    return obj


def _sha256(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(65536), b""):
            h.update(chunk)
    return h.hexdigest()


def _atomic_write(path: str, text: str):
    tmp = path + ".tmp"
    with open(tmp, "w") as f:
        f.write(text)
    os.replace(tmp, path)


def _write_table(path: str, header, rows, cfg: ExperimentConfig):
    lines = [",".join(header + ["experiment", "config_hash", "seed"])]
    tail = [cfg.name, cfg.hash, str(cfg.seed)]
    for row in rows:
        lines.append(",".join([_fmt(v) for v in row] + tail))
    _atomic_write(path, "\n".join(lines) + "\n")


def run(cfg: ExperimentConfig) -> dict:
    """Execute the configured experiment; returns the manifest dict."""
    os.makedirs(cfg.out, exist_ok=True)
    t0 = time.time()
    written = []
    try:
        tables, metrics = RUNNERS[cfg.name](cfg.params, cfg.seed)
        for fname, (header, rows) in tables.items():
            path = os.path.join(cfg.out, fname)
            _write_table(path, header, rows, cfg)
            written.append(path)
        summary = {"schema": SCHEMA, "experiment": cfg.name,
                   "config_hash": cfg.hash, "seed": cfg.seed,
                   "params": {k: str(v) for k, v in sorted(cfg.params.items())},
                   "metrics": _plain(metrics),
                   "outputs": [os.path.basename(w) for w in written]}
        spath = os.path.join(cfg.out, "summary.json")
        _atomic_write(spath, json.dumps(summary, sort_keys=True, indent=1) + "\n")
        written.append(spath)
    except Exception:
        for path in written:
            if os.path.exists(path):
                os.remove(path)
        raise
    manifest = {"config_hash": cfg.hash, "code_version": __version__,
                "experiment": cfg.name, "seed": cfg.seed,
                "task_seeds": [cfg.seed + i for i in range(8)],
                "wallclock": time.time() - t0,
                "outputs": [{"path": p, "sha256": _sha256(p)} for p in written]}
    mpath = os.path.join(cfg.out, "manifest.json")
    _atomic_write(mpath, json.dumps(manifest, sort_keys=True, indent=1) + "\n")
    return manifest


# ---------------------------------------------------------------------------
# verification


def _read_table(path: str):
    with open(path) as f:
        lines = [ln.rstrip("\n") for ln in f if ln.strip()]
    header = lines[0].split(",")
    rows = [dict(zip(header, ln.split(","))) for ln in lines[1:]]
    return rows


def _check_layers(outputs):
    rows = _read_table(outputs["layers.csv"])
    margin = max(float(r["sup_dev"]) - float(r["bound"]) for r in rows)
    return margin <= 0, f"uniformity margin {margin:.3g}"


def _check_extremal(outputs):
    rows = _read_table(outputs["extremal.csv"])
    bad = [r for r in rows
           if float(r["extremal"]) > float(r["sharp_bound"]) + 1e-9]
    return not bad, f"{len(bad)} extremal values above the sharp bound"


def _check_sparseness(outputs):
    rows = _read_table(outputs["sparseness.csv"])
    freqs = [float(r["frequency"]) for r in rows]
    ok = all(b <= a + 1e-12 for a, b in zip(freqs, freqs[1:])) and freqs[-1] <= 0.05
    return ok, f"failure frequencies {freqs}"


def _check_recurrence(outputs):
    rows = _read_table(outputs["recurrence.csv"])
    vals = [float(r["integral"]) for r in rows]
    mono = all(a < b for a, b in zip(vals, vals[1:]))
    with open(outputs["summary.json"]) as f:
        verdict = json.load(f)["metrics"]["verdict"]
    return mono and verdict != "inconclusive", f"verdict {verdict}"


def _check_spinwave(outputs):
    rows = _read_table(outputs["spinwave.csv"])
    es = [float(r["energy"]) for r in rows]
    ok = all(a > b for a, b in zip(es, es[1:]))
    return ok, f"energies {es}"


def _check_entropy(outputs):
    rows = _read_table(outputs["entropy.csv"])
    ms = [float(r["mean"]) for r in rows]
    ok = len(ms) < 2 or ms[-1] < ms[0]
    return ok, f"means {ms}"


def _check_rotation(outputs):
    rows = _read_table(outputs["rotation.csv"])
    ds = [float(r["discrepancy"]) for r in rows]
    ok = all(a > b for a, b in zip(ds, ds[1:]))
    return ok, f"discrepancies {ds}"


def _check_twopoint(outputs):
    rows = _read_table(outputs["twopoint.csv"])
    ok = all(np.isfinite(float(r["error"])) for r in rows)
    return ok, f"{len(rows)} correlation rows"


def _check_aizenman(outputs):
    with open(outputs["summary.json"]) as f:
        m = json.load(f)["metrics"]
    ok = m["violations"] == 0 and m["origin_modulus"] >= 0.9
    return ok, f"modulus {m['origin_modulus']:.3f}, violations {m['violations']}"


def _check_decompose51(outputs):
    with open(outputs["summary.json"]) as f:
        m = json.load(f)["metrics"]
    return m["ratio"] >= 1.0, f"ratio {m['ratio']:.6g}"


CHECKS = {
    "layers": _check_layers,
    "extremal": _check_extremal,
    "sparseness": _check_sparseness,
    "recurrence": _check_recurrence,
    "spinwave": _check_spinwave,
    "entropy": _check_entropy,
    "rotation": _check_rotation,
    "twopoint": _check_twopoint,
    "aizenman": _check_aizenman,
    "decompose51": _check_decompose51,
}


def verify(manifest_path: str) -> list:
    """Re-evaluate the experiment's predicate against the stored outputs.

    Returns a list of verdict dicts: {criterion, status, detail} with status
    one of pass / fail / missing.
    """
    verdicts = []
    if not os.path.exists(manifest_path):
        return [{"criterion": "manifest", "status": "missing",
                 "detail": manifest_path}]
    with open(manifest_path) as f:
        manifest = json.load(f)
    outputs = {}
    base = os.path.dirname(manifest_path)
    if not manifest.get("outputs"):
        return [{"criterion": "outputs", "status": "missing",
                 "detail": "empty manifest"}]
    for entry in manifest["outputs"]:
        path = entry["path"]
        if not os.path.exists(path):
            path = os.path.join(base, os.path.basename(entry["path"]))
        name = os.path.basename(path)
        if not os.path.exists(path):
            verdicts.append({"criterion": f"output:{name}", "status": "missing",
                             "detail": entry["path"]})
            continue
        if _sha256(path) != entry["sha256"]:
            verdicts.append({"criterion": f"output:{name}", "status": "fail",
                             "detail": "hash mismatch"})
            continue
        verdicts.append({"criterion": f"output:{name}", "status": "pass",
                         "detail": "hash ok"})
        outputs[name] = path
    exp = manifest.get("experiment")
    check = CHECKS.get(exp)
    if check is not None:
        if "summary.json" not in outputs or not any(n.endswith(".csv") for n in outputs):
            verdicts.append({"criterion": f"predicate:{exp}", "status": "missing",
                             "detail": "outputs incomplete"})
        else:
            try:
                ok, detail = check(outputs)
                verdicts.append({"criterion": f"predicate:{exp}",
                                 "status": "pass" if ok else "fail",
                                 "detail": detail})
            except Exception as exc:
                verdicts.append({"criterion": f"predicate:{exp}",
                                 "status": "fail", "detail": str(exc)})
    return verdicts


# ---------------------------------------------------------------------------
# entry point


def _cmd_presets() -> int:
    from .interaction import _PRESETS

    print("potentials: " + ", ".join(sorted(_PRESETS)))
    print("kernels: nn, powerlaw(s), logcorr(p), logcorr_eps(p, eps)")
    print("experiments: " + ", ".join(sorted(RUNNERS)))
    return EXIT_OK


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="spinlab")
    sub = parser.add_subparsers(dest="command", required=True)
    p_run = sub.add_parser("run", help="run a configured experiment")
    p_run.add_argument("--config", required=True)
    p_run.add_argument("--seed", type=int, default=None)
    p_run.add_argument("--out", default=None)
    p_ver = sub.add_parser("verify", help="re-check a run's outputs")
    p_ver.add_argument("--manifest", required=True)
    sub.add_parser("presets", help="list available presets")
    args = parser.parse_args(argv)

    if args.command == "presets":
        return _cmd_presets()
    if args.command == "run":
        try:
            cfg = load_config(args.config, args.seed, args.out)
        except ConfigError as exc:
            for msg in exc.messages:
                print(f"config error: {msg}", file=sys.stderr)
            return EXIT_CONFIG
        try:
            manifest = run(cfg)
        except Exception as exc:
            print(f"runtime error: {exc}", file=sys.stderr)
            return EXIT_RUNTIME
        print(json.dumps({"config_hash": manifest["config_hash"],
                          "outputs": [e["path"] for e in manifest["outputs"]]},
                         sort_keys=True))
        return EXIT_OK
    if args.command == "verify":
        verdicts = verify(args.manifest)
        for v in verdicts:
            print(json.dumps(v, sort_keys=True))
        if all(v["status"] == "pass" for v in verdicts):
            return EXIT_OK
        return EXIT_VERIFY
    return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
