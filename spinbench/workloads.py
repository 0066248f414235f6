"""The benchmark's workloads: which experiment configs each one runs.

One operation is one experiment config taken through `spinlab run` and then
`spinlab verify`.  A workload is a fixed list of operations; a round runs
each of them once, in order.  The seed given on the command line fixes every
config's seed, so the same seed gives the same configs and the same outputs.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass

import numpy as np

PSI_ROTATION = repr(math.pi / 2)


@dataclass(frozen=True)
class Operation:
    label: str  # unique within the workload; names its output directory
    experiment: str
    params: dict  # parameter name -> value as written in the config


def _ops(quick: bool) -> dict:
    # Sizes named by the workload design are fixed; sweeps, samples and
    # orbits set how much Monte Carlo work one operation does.  Quick mode
    # (the self-check) keeps every size and every check but does less of it.
    sweeps = 256 if quick else 1000
    sparse_samples = 4 if quick else 10
    entropy_samples = 12 if quick else 24
    orbits = 1 if quick else 2
    spinwave_ns = "16,32" if quick else "16,32,64,128"
    return {
        "mc_smooth": [
            Operation("rotation_xy", "rotation", {
                "potential": "xy(1.0)", "psi": PSI_ROTATION, "ns": "8,16,32",
                "sweeps": sweeps}),
            Operation("twopoint_xy", "twopoint", {
                "potential": "xy(0.5)", "n": 12, "distances": "1,2,4,8",
                "sweeps": sweeps}),
        ],
        "singular": [
            Operation("decompose51_absval", "decompose51", {
                "potential": "absval", "eps": 0.5, "grid": 4096}),
            Operation("decompose51_logsing", "decompose51", {
                "potential": "logsing", "eps": 0.5, "grid": 4096}),
            Operation("sparseness", "sparseness", {
                "eps": 0.01, "alpha": 0.1, "rho": 0.5, "ns": "16,32,64",
                "samples": sparse_samples}),
            Operation("layers_absval", "layers", {
                "potential": "absval", "cbar": 1.0, "n": 32, "orbits": orbits,
                "kmax": 4, "grid": 1024}),
            Operation("rotation_absval", "rotation", {
                "potential": "absval", "psi": PSI_ROTATION, "ns": "8,16",
                "sweeps": sweeps}),
            Operation("aizenman", "aizenman", {
                "k": 12, "delta": 0.05, "sigma": 1, "n": 16, "sweeps": sweeps}),
        ],
        "solvers": [
            Operation("spinwave", "spinwave", {
                "kernel": "nn", "eps": 0.2, "inner": 2, "psi": repr(math.pi / 4),
                "ns": spinwave_ns}),
            Operation("entropy", "entropy", {
                "kernel": "nn", "eps": 0.2, "inner": 2, "psi": repr(math.pi / 4),
                "ns": "16,64", "samples": entropy_samples}),
            Operation("recurrence_nn", "recurrence", {"kernel": "nn", "radius": 512}),
            Operation("recurrence_powerlaw", "recurrence", {
                "kernel": "powerlaw(3.5)", "radius": 512}),
            Operation("recurrence_logcorr", "recurrence", {
                "kernel": "logcorr(2)", "radius": 512}),
            Operation("layers_xy", "layers", {
                "potential": "xy(1.0)", "cbar": 1.0, "n": 32, "orbits": orbits,
                "kmax": 4, "grid": 1024}),
        ],
    }


def operations(workload: str, quick: bool = False) -> list:
    table = _ops(quick)
    if workload not in table:
        raise KeyError(f"unknown workload {workload!r}; choose one of "
                       f"{', '.join(table)}")
    return table[workload]


def op_seed(seed: int, index: int) -> int:
    """Seed of the index-th operation, drawn from the workload seed."""
    return int(np.random.SeedSequence([seed, index]).generate_state(1)[0] >> 1)


def write_configs(ops, seed: int, root: str) -> list:
    """Write one ini config per operation under `root`; returns
    (config path, output directory) pairs in operation order."""
    paths = []
    for i, op in enumerate(ops):
        d = os.path.join(root, op.label)
        os.makedirs(d, exist_ok=True)
        cfg = os.path.join(d, "config.ini")
        out = os.path.join(d, "out")
        lines = ["[experiment]", f"name = {op.experiment}",
                 f"seed = {op_seed(seed, i)}", f"out = {out}", "",
                 f"[{op.experiment}]"]
        lines += [f"{k} = {v}" for k, v in op.params.items()]
        with open(cfg, "w") as f:
            f.write("\n".join(lines) + "\n")
        paths.append((cfg, out))
    return paths
