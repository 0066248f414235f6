"""Runtime instrumentation of spinlab's modules, from outside the package.

Two layers of hooks, both installed by replacing module and class attributes
and removed by putting the originals back:

* `Capture` keeps what the benchmark's checks and the ESS figure need: the
  statistics each Metropolis chain returns, the crossing counts on every
  sampled bond set and the spin-wave fields.  It is on in every round, traced
  or not; it times each chain and otherwise only keeps references.
* `Tracer` records a span (layer key, start, end, parent span, operation) at
  each public function of each module, plus counts of the work done there.
  Spans stay in memory and are written out when the run ends.

A module function that another spinlab module imported by name is replaced
in every module that holds it, so calls across modules are seen too.
"""

from __future__ import annotations

import functools
import json
import sys
from collections import defaultdict
from time import perf_counter

import numpy as np


def _spinlab_modules():
    return [m for name, m in sorted(sys.modules.items())
            if name == "spinlab" or name.startswith("spinlab.")]


class Patcher:
    """Replaces attributes and restores them in reverse order."""

    def __init__(self):
        self._saved = []

    def set(self, owner, name, new):
        self._saved.append((owner, name, getattr(owner, name)))
        setattr(owner, name, new)

    def function(self, module, name, make):
        """Replace a module function everywhere spinlab holds a reference."""
        original = getattr(module, name)
        new = make(original)
        for mod in _spinlab_modules():
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self.set(mod, attr, new)
        return new

    def method(self, cls, name, make):
        self.set(cls, name, make(cls.__dict__[name]))

    def restore(self):
        while self._saved:
            owner, name, old = self._saved.pop()
            setattr(owner, name, old)


# ---------------------------------------------------------------------------
# capture: always on


class Capture:
    def __init__(self):
        self.op = -1
        self.chains = []  # (op, ChainStats, seconds)
        self.crossings = []  # (op, rect, a_bonds, count)
        self.waves = []  # (op, SpinWaveField)
        self._patch = Patcher()

    def clear(self):
        self.chains.clear()
        self.crossings.clear()
        self.waves.clear()

    def install(self):
        from spinlab import percolation, sampler, spinwave

        def chain(fn):
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                t = perf_counter()
                stats = fn(*args, **kwargs)
                self.chains.append((self.op, stats, perf_counter() - t))
                return stats
            return wrapper

        def crossings(fn):
            @functools.wraps(fn)
            def wrapper(rect, a_bonds):
                out = fn(rect, a_bonds)
                self.crossings.append((self.op, rect, a_bonds, out.count))
                return out
            return wrapper

        def wave(fn):
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                out = fn(*args, **kwargs)
                self.waves.append((self.op, out))
                return out
            return wrapper

        self._patch.function(sampler, "run_chain", chain)
        self._patch.function(percolation, "disjoint_good_crossings", crossings)
        self._patch.function(spinwave, "solve_spinwave", wave)

    def uninstall(self):
        self._patch.restore()


# ---------------------------------------------------------------------------
# spans


class Tracer:
    """Spans and counts at the boundaries of spinlab's layers."""

    def __init__(self):
        self.spans = []  # [key, start, end, parent index, op]
        self.counts = defaultdict(float)
        self.active = defaultdict(int)
        self.op = -1
        self._stack = []
        self._patch = Patcher()

    def wrap(self, key, fn, count=None):
        spans, stack, active = self.spans, self._stack, self.active

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            i = len(spans)
            spans.append([key, perf_counter(), 0.0, stack[-1] if stack else -1,
                          self.op])
            stack.append(i)
            active[key] += 1
            try:
                out = fn(*args, **kwargs)
            finally:
                active[key] -= 1
                stack.pop()
                spans[i][2] = perf_counter()
            if count is not None:
                count(self.counts, args, kwargs, out)
            return out
        return wrapper

    def begin(self, key):
        """Open a span from the benchmark's own code; returns its index."""
        i = len(self.spans)
        self.spans.append([key, perf_counter(), 0.0,
                           self._stack[-1] if self._stack else -1, self.op])
        self._stack.append(i)
        return i

    def end(self, i):
        self._stack.pop()
        self.spans[i][2] = perf_counter()

    def install(self):
        from spinlab import (cli, interaction, lattice, layer_measure,
                             longrange_walk, percolation, sampler, spinwave)

        p = self._patch
        c = self.counts

        def fn(module, name, key, count=None):
            p.function(module, name, lambda f: self.wrap(key, f, count))

        def sweep_count(counts, args, kwargs, accepted):
            stencil = args[5] if len(args) > 5 else kwargs.get("stencil")
            if stencil is not None:
                sites = sum(len(ph[0]) for ph in stencil.phases)
            else:
                sites = args[0].interior().size
            counts["sampler.site_updates"] += sites
            counts["sampler.accepted"] += accepted
            if self.active["sampler.tune_width"]:
                counts["sampler.tune_sweeps"] += 1

        def calls(name):
            def count(counts, args, kwargs, out):
                counts[name] += 1
            return count

        def potential_count(counts, args, kwargs, out):
            counts["interaction.potential_calls"] += 1
            counts["interaction.potential_evals"] += np.size(args[1])

        def convolve_count(counts, args, kwargs, out):
            dens = args[0] if args else kwargs["densities"]
            if hasattr(dens, "__len__"):
                counts["layer_measure.densities_convolved"] += len(dens)

        def char_count(counts, args, kwargs, out):
            counts["longrange_walk.char_function_points"] += np.size(args[1]) // 2

        def write_count(counts, args, kwargs, out):
            counts["cli.output_bytes"] += len(args[1].encode())

        # sampler
        fn(sampler, "metropolis_sweep", "sampler.metropolis_sweep", sweep_count)
        fn(sampler, "tune_width", "sampler.tune_width")
        fn(sampler, "run_chain", "sampler.run_chain")
        fn(sampler, "rotation_discrepancy", "sampler.rotation_discrepancy")
        fn(sampler, "two_point", "sampler.two_point")
        fn(sampler, "sample_state", "sampler.sample_state")
        fn(sampler, "aizenman_state", "sampler.aizenman_state")
        fn(sampler, "feasibility", "sampler.feasibility",
           calls("sampler.feasibility_calls"))
        fn(sampler, "feasible_point", "sampler.feasible_point")
        fn(sampler, "hardcore_violations", "sampler.hardcore_violations")
        # interaction
        p.method(interaction.PairPotential, "__call__",
                 lambda f: self.wrap("interaction.potential", f, potential_count))
        fn(interaction, "decompose", "interaction.decompose")
        fn(interaction, "verify_condition_51", "interaction.condition51")
        # layer_measure
        fn(layer_measure, "layer_potential", "layer_measure.layer_potential")
        fn(layer_measure, "chi_density", "layer_measure.chi_density")
        fn(layer_measure, "convolve", "layer_measure.convolve", convolve_count)
        # longrange_walk
        p.method(longrange_walk.WalkKernel, "char_function",
                 lambda f: self.wrap("longrange_walk.char_function", f, char_count))
        fn(longrange_walk, "connectivity_bound", "longrange_walk.connectivity_bound")
        fn(longrange_walk, "recurrence_classify", "longrange_walk.recurrence_classify")
        # spinwave: CG gets a callback that counts its iterations
        def counted_cg(cg):
            @functools.wraps(cg)
            def wrapper(*args, callback=None, **kwargs):
                def step(xk):
                    c["spinwave.cg_iterations"] += 1
                    if callback is not None:
                        callback(xk)
                return cg(*args, callback=step, **kwargs)
            return self.wrap("spinwave.cg", wrapper)

        p.set(spinwave, "cg", counted_cg(spinwave.cg))
        fn(spinwave, "solve_spinwave", "spinwave.solve")
        fn(spinwave, "dirichlet_energy", "spinwave.dirichlet_energy")
        fn(spinwave, "sample_long_range_bonds", "spinwave.sample_bonds")
        fn(spinwave, "deform", "spinwave.deform")
        fn(spinwave, "entropy_bound", "spinwave.entropy_bound")
        fn(spinwave, "expected_entropy", "spinwave.expected_entropy")
        # percolation
        fn(percolation, "sample_bernoulli", "percolation.sample")
        fn(percolation, "disjoint_good_crossings", "percolation.crossings")
        p.set(percolation, "maximum_flow",
              self.wrap("percolation.maximum_flow", percolation.maximum_flow,
                        calls("percolation.maxflow_calls")))
        fn(percolation, "short_crossing_event", "percolation.short_crossing_event",
           calls("percolation.scales_tried"))
        fn(percolation, "sparseness_certificate", "percolation.sparseness_certificate")
        # lattice
        fn(lattice, "circuit_from_crossings", "lattice.circuit",
           calls("lattice.circuits"))
        # cli: experiment runner, table and summary writes, hashes, verify
        fn(cli, "run", "cli.run")
        fn(cli, "_write_table", "cli.write")
        fn(cli, "_atomic_write", "cli.write", write_count)
        fn(cli, "_sha256", "cli.hash")
        fn(cli, "verify", "cli.verify")

    def uninstall(self):
        self._patch.restore()

    def dump(self, path):
        with open(path, "w") as f:
            for key, start, end, parent, op in self.spans:
                f.write(json.dumps([key, start, end, parent, op]) + "\n")


# ---------------------------------------------------------------------------
# per-layer figures from one traced round


class RoundView:
    """Busy and self times of the spans recorded in one round."""

    def __init__(self, spans, first: int, last: int):
        self.spans = spans
        self.first = first
        self.last = last
        self._children = defaultdict(float)
        self._by_key = defaultdict(list)
        # keys of each span's ancestors; spans are stored in start order,
        # so a parent always precedes its children
        self._above = {}
        interned = {}
        empty = frozenset()
        for i in range(first, last):
            key, start, end, parent, _ = spans[i]
            self._by_key[key].append(i)
            if parent >= first:
                self._children[parent] += end - start
                above = self._above[parent] | {spans[parent][0]}
                self._above[i] = interned.setdefault(above, above)
            else:
                self._above[i] = empty

    def busy(self, key, outside=()):
        """Time covered by spans of `key`, nested ones counted once, leaving
        out spans that sit under a span of a key in `outside`."""
        skip = {key, *outside}
        return sum(self.spans[i][2] - self.spans[i][1]
                   for i in self._by_key.get(key, ())
                   if not self._above[i] & skip)

    def self_time(self, key):
        return sum(self.spans[i][2] - self.spans[i][1] - self._children[i]
                   for i in self._by_key.get(key, ()))

    def self_times(self):
        return {key: self.self_time(key) for key in self._by_key}


def layer_metrics(view: RoundView, counts: dict) -> dict:
    """The per-layer metrics of one traced round, as name -> value."""
    b = view.busy
    sites = counts.get("sampler.site_updates", 0.0)
    sweep_s = b("sampler.metropolis_sweep")
    iters = counts.get("spinwave.cg_iterations", 0.0)
    m = {
        "sampler.sweep_s": sweep_s,
        "sampler.ns_per_site_update": 1e9 * sweep_s / sites if sites else 0.0,
        "sampler.site_updates": sites,
        "sampler.tune_sweeps": counts.get("sampler.tune_sweeps", 0.0),
        "sampler.acceptance_rate":
            counts.get("sampler.accepted", 0.0) / sites if sites else 0.0,
        "sampler.run_chain_self_s": view.self_time("sampler.run_chain"),
        "sampler.feasibility_s": b("sampler.feasibility"),
        "sampler.feasibility_calls": counts.get("sampler.feasibility_calls", 0.0),
        "interaction.potential_calls": counts.get("interaction.potential_calls", 0.0),
        "interaction.potential_evals": counts.get("interaction.potential_evals", 0.0),
        "interaction.potential_s": b("interaction.potential"),
        "interaction.decompose_s": b("interaction.decompose"),
        "interaction.condition51_s": b("interaction.condition51"),
        "layer_measure.layer_potential_s": b("layer_measure.layer_potential"),
        "layer_measure.chi_density_s": b("layer_measure.chi_density"),
        "layer_measure.convolve_s": b("layer_measure.convolve"),
        "layer_measure.densities_convolved":
            counts.get("layer_measure.densities_convolved", 0.0),
        "longrange_walk.char_function_s": b("longrange_walk.char_function"),
        "longrange_walk.char_function_points":
            counts.get("longrange_walk.char_function_points", 0.0),
        "longrange_walk.connectivity_bound_s": b("longrange_walk.connectivity_bound"),
        "spinwave.solve_s": b("spinwave.solve"),
        "spinwave.cg_iterations": iters,
        "spinwave.ms_per_iteration": 1e3 * b("spinwave.cg") / iters if iters else 0.0,
        "spinwave.sample_bonds_s": b("spinwave.sample_bonds"),
        "spinwave.deform_s": b("spinwave.deform"),
        "spinwave.entropy_bound_s": b("spinwave.entropy_bound"),
        "spinwave.dirichlet_energy_s": b("spinwave.dirichlet_energy"),
        "percolation.sample_s": b("percolation.sample"),
        "percolation.crossings_s": b("percolation.crossings"),
        "percolation.maxflow_calls": counts.get("percolation.maxflow_calls", 0.0),
        "percolation.scales_tried": counts.get("percolation.scales_tried", 0.0),
        "lattice.circuit_s": b("lattice.circuit"),
        "lattice.circuits": counts.get("lattice.circuits", 0.0),
        "cli.write_s": b("cli.write") + b("cli.hash", outside=("cli.verify",)),
        "cli.output_bytes": counts.get("cli.output_bytes", 0.0),
        "cli.verify_s": b("cli.verify"),
    }
    return m
