"""Acceptance suite: one test per top-level criterion, each emitting a single
pass/fail line.  Tolerances and runtime budgets are part of the contract; the
numerical targets are derived in the module test suites and frozen here."""

import itertools
import math
import time

import numpy as np
import pytest

from exact import DiscretizedToySystem, discrete_metropolis_matrix, y_kernel
from spinlab import lattice
from spinlab.interaction import aizenman, xy
from spinlab.layer_measure import (
    OrbitConfiguration,
    chi_density,
    convolve,
    density_cap_constant,
    extremal_fourier_oracle,
    fourier_max_bound,
    layer_potential,
    uniformity_bound,
)
from spinlab.longrange_walk import (
    kernel_preset,
    nn_kernel,
    recurrence_classify,
)
from spinlab.percolation import (
    box_bonds,
    disjoint_good_crossings,
    sample_bernoulli,
    sparseness_certificate,
    wilson_interval,
)
from spinlab.sampler import (
    batch_means,
    cos_at,
    feasibility,
    fixed_bc,
    free_bc,
    initial_configuration,
    aizenman_state,
    rotation_discrepancy,
    run_chain,
    sample_state,
    staircase_bc,
)
from spinlab.spinwave import dirichlet_energy, expected_entropy, solve_spinwave


def _report(k, ok, detail, elapsed, budget):
    ok = ok and elapsed < budget
    line = f"CRITERION {k}: {'PASS' if ok else 'FAIL'} ({detail}; {elapsed:.0f}s/{budget:.0f}s)"
    print(line)
    assert ok, line


class TestAcceptance:
    def test_criterion_1_layer_uniformity(self):
        # XY, unit coupling, 50 random orbits at r = 32: every measured sup
        # deviation of the k-fold-deconvolved layer product stays under the
        # a-priori uniformity bound for k <= 4
        t0 = time.time()
        pot = xy(1.0)
        c1 = density_cap_constant(1.0)
        rng = np.random.default_rng(2024)
        worst = -math.inf
        ok = True
        for _ in range(50):
            orbit = OrbitConfiguration.random(32, rng)
            dens = [chi_density(layer_potential(k, orbit, pot))
                    for k in range(33)]
            for k in range(5):
                dev = convolve(dens[k:]).sup_deviation
                margin = dev - uniformity_bound(k, 32, c1)
                worst = max(worst, margin)
                ok = ok and margin <= 0
        # full-product deviation shrinks strictly with the number of layers
        devs = []
        for n in (8, 16, 32):
            orbit = OrbitConfiguration.random(n, np.random.default_rng(1))
            dens = [chi_density(layer_potential(k, orbit, pot))
                    for k in range(n + 1)]
            devs.append(convolve(dens).sup_deviation)
        ok = ok and all(a > b for a, b in zip(devs, devs[1:]))
        _report(1, ok, f"worst margin {worst:.2e}, p0 devs {devs}",
                time.time() - t0, 60)

    def test_criterion_2_extremal_fourier(self):
        t0 = time.time()
        val2, _ = extremal_fourier_oracle(2.0, 1, 4096)
        coarse2, _ = fourier_max_bound(2.0)
        val1, _ = extremal_fourier_oracle(1.0, 1, 4096)
        ok = (abs(val2 - 2 / math.pi) <= 1e-3
              and val2 <= coarse2
              and abs(coarse2 - (1 - 1 / 144)) < 1e-12
              and abs(val1) <= 1e-6)
        _report(2, ok, f"max {val2:.6f} vs 2/pi {2 / math.pi:.6f}, "
                f"cap-1 max {val1:.1e}", time.time() - t0, 1)

    def test_criterion_3_domination_enumerable(self):
        # 8-state spins on the 3x3 box with constant tilt c.  With upsilon
        # constant the tilt factor leaves the integral, so Z(D + b) =
        # (e^c - 1) Z(D) exactly and every conditional open probability
        # equals (e^c - 1)/e^c independently of the conditioning; we verify
        # that factorization on random conditionings, which covers all of
        # them, and check the bound at every bond
        t0 = time.time()
        ok = True
        worst = -math.inf
        for c in (0.01, 0.05):
            sys = DiscretizedToySystem(
                n=1, states=8,
                smooth=lambda p: -np.cos(p),
                upsilon=lambda p, c=c: np.full_like(np.asarray(p, float), c))
            eps = math.exp(4 * c) - 1
            rng = np.random.default_rng(7)
            for bond in sys.bonds:
                for _ in range(4):
                    size = int(rng.integers(0, len(sys.bonds)))
                    idx = rng.choice(len(sys.bonds), size=size, replace=False)
                    cond = {sys.bonds[i] for i in idx}
                    p = sys.conditional_open_probability(bond, cond)
                    ok = ok and p <= eps
                    ok = ok and p == pytest.approx(
                        math.expm1(c) / math.exp(c), rel=1e-9)
                    worst = max(worst, p - eps)
            # the factorization behind conditioning-independence, exactly
            for _ in range(5):
                size = int(rng.integers(0, len(sys.bonds) - 1))
                idx = rng.choice(len(sys.bonds) - 1, size=size, replace=False)
                d = {sys.bonds[i + 1] for i in idx}
                z0 = sys.partition_function(d)
                z1 = sys.partition_function(d | {sys.bonds[0]})
                ok = ok and z1 == pytest.approx(math.expm1(c) * z0, rel=1e-9)
        _report(3, ok, f"worst conditional margin {worst:.2e}",
                time.time() - t0, 60)

    def test_criterion_4_sparseness_monte_carlo(self):
        t0 = time.time()
        eps, alpha, rho = 0.01, 0.1, 0.5
        freqs = []
        structural_ok = True
        for n in (16, 32, 64):
            domain = box_bonds(n)
            failures = 0
            for cs in np.random.SeedSequence(2).spawn(200):
                a = sample_bernoulli(eps, domain,
                                     int(cs.generate_state(1)[0])).bonds
                cert = sparseness_certificate(a, n, rho, alpha,
                                              early_stop=True)
                if not cert.verdict:
                    failures += 1
                used = set()
                val = 0.0
                for _, circ in cert.circuits:
                    sites = set(circ.dsites[:-1])
                    structural_ok = structural_ok and circ.avoids(a) \
                        and not (sites & used)
                    used |= sites
                    val += 1.0 / len(circ)
                structural_ok = structural_ok \
                    and val == pytest.approx(cert.value, rel=1e-12) \
                    and cert.verdict == (cert.value >= cert.threshold)
            freqs.append(failures / 200)
        mono = all(a >= b for a, b in zip(freqs, freqs[1:]))
        # max-flow crossing counts against brute-force disjoint-path maxima
        flow_ok = True
        rect = lattice.ShellRectangle(2, "N", (-4, 4), (1, 3))
        for seed in range(20):
            rng = np.random.default_rng(seed)
            relevant = sorted({lattice.crossed_bond(db)
                               for db in _allowed(rect)})
            a = {b for b in relevant if rng.random() < 0.25}
            flow_ok = flow_ok and \
                disjoint_good_crossings(rect, a).count == _vertex_cut(rect, a)
        ok = mono and freqs[-1] <= 0.05 and structural_ok and flow_ok
        _report(4, ok, f"failure freqs {freqs}, flow oracle "
                f"{'ok' if flow_ok else 'mismatch'}", time.time() - t0, 600)

    def test_criterion_5_recurrence_classification(self):
        t0 = time.time()
        nn = recurrence_classify(kernel_preset("nn"))
        pl = recurrence_classify(kernel_preset("powerlaw(3.5)"))
        lc = recurrence_classify(kernel_preset("logcorr(2)"))
        yk = recurrence_classify(y_kernel(nn_kernel(), 0.2))
        ok = (nn.verdict == "recurrent" and nn.fit["residual"] < 0.02
              and pl.verdict == "transient"
              and pl.fit["last_rel_increment"] < 0.005
              and lc.verdict == "recurrent"
              and yk.verdict == "recurrent")
        _report(5, ok, f"nn={nn.verdict}({nn.fit['residual']:.1e}) "
                f"powerlaw(3.5)={pl.verdict}({pl.fit['last_rel_increment']:.1e}) "
                f"logcorr(2)={lc.verdict} y={yk.verdict}",
                time.time() - t0, 300)

    def test_criterion_6_spinwave_energy_and_entropy(self):
        t0 = time.time()
        walk = nn_kernel()
        psi = math.pi / 4
        energies = [dirichlet_energy(solve_spinwave(walk, n, 2, psi))
                    for n in (16, 32, 64, 128)]
        decreasing = all(a > b for a, b in zip(energies, energies[1:]))
        ratio = energies[-1] / energies[0]
        small = expected_entropy(walk, 0.2, 16, 2, psi, 100, seed=3)
        large = expected_entropy(walk, 0.2, 64, 2, psi, 100, seed=4)
        ci_ok = large.ci[1] < small.ci[0]
        hit_ok = _mc_hitting_matches(walk, psi)
        ok = decreasing and ratio <= 0.7 and ci_ok and hit_ok
        _report(6, ok, f"energies {['%.3f' % e for e in energies]}, "
                f"ratio {ratio:.2f}, entropy {large.mean:.3f}<{small.mean:.3f}, "
                f"hitting {'ok' if hit_ok else 'off'}", time.time() - t0, 900)

    def test_criterion_7_rotation_discrepancy_decay(self):
        t0 = time.time()
        pot, bc, f = xy(1.0), fixed_bc(0.0), cos_at((0, 0))
        reps = [rotation_discrepancy(pot, bc, f, math.pi / 2, n, sw, seed=42)
                for n, sw in ((8, 40000), (16, 120000), (32, 120000))]
        vals = [r.discrepancy for r in reps]
        decreasing = all(a > b for a, b in zip(vals, vals[1:]))
        separated = vals[0] - reps[0].error > vals[2] + reps[2].error
        _report(7, decreasing and separated,
                ", ".join(f"n={r.n}: {r.discrepancy:.3f}+-{r.error:.3f}"
                          for r in reps), time.time() - t0, 1200)

    def test_criterion_8_symmetry_breaking(self):
        t0 = time.time()
        k, delta, n = 12, 0.05, 16
        theta = 2 * math.pi / k
        # certify the winding before sampling: sigma = 1 is feasible
        sigma = 1
        cert = feasibility(staircase_bc(k, sigma), theta, n)
        certified = cert.verdict in ("feasible", "uniquely-rigid")
        rep = aizenman_state(k, delta, sigma, n, 30000, seed=11)
        stair_mod = rep.origin_modulus()
        free_init = initial_configuration(fixed_bc(0.0), n,
                                          np.random.default_rng(1))
        free_rep = sample_state(aizenman(theta), free_bc(), n, 20000, seed=7,
                                init=free_init)
        mc, ec = batch_means(free_rep.stats.traces["cos0"])
        ms, es = batch_means(free_rep.stats.traces["sin0"])
        free_mod = math.hypot(mc, ms)
        free_sig = math.hypot(ec, es)
        ok = (certified and stair_mod >= 0.9
              and free_mod <= 0.1 + 3 * free_sig
              and rep.covariance_ok
              and rep.state.violations == 0 and free_rep.violations == 0)
        _report(8, ok, f"{cert.verdict}, staircase |m|={stair_mod:.4f}, "
                f"free |m|={free_mod:.4f}+-{free_sig:.4f}, covariance "
                f"{rep.covariance_gap:.4f}<=3x{rep.covariance_error:.4f}, "
                f"violations {rep.state.violations}+{free_rep.violations}",
                time.time() - t0, 1200)

    def test_criterion_9_framework_invariants(self):
        # the named invariants are exercised in depth by the module suites
        # that run alongside this file; re-check one representative of each
        # family so this criterion stands on its own
        t0 = time.time()
        ok = True
        # normalization
        orbit = OrbitConfiguration.random(6, np.random.default_rng(0))
        d = chi_density(layer_potential(0, orbit, xy(1.0)))
        ok = ok and np.mean(d.values) == pytest.approx(1.0, abs=1e-10)
        ok = ok and d.values.min() >= 0
        # convolution theorem: fourier of the product is the product of
        # fourier coefficients
        dens = [chi_density(layer_potential(k, orbit, xy(1.0))) for k in (0, 1)]
        prod = convolve(dens)
        for s in (1, 2):
            direct = prod.fourier(s)
            parts = dens[0].fourier(s) * dens[1].fourier(s)
            ok = ok and abs(direct - parts) < 1e-8
        # detailed balance on the discrete toy
        e = -np.cos(2 * np.pi * np.arange(8) / 8)
        p = discrete_metropolis_matrix(e)
        pi = np.exp(-e)
        pi /= pi.sum()
        ok = ok and np.max(np.abs(pi[:, None] * p - (pi[:, None] * p).T)) < 1e-12
        # maximum principle
        w = solve_spinwave(nn_kernel(), 8, 2, 1.0)
        ok = ok and w.values.min() >= -1e-10 and w.values.max() <= 1 + 1e-10
        # determinism by seed
        kw = dict(observables={"c": cos_at((0, 0))})
        a = run_chain(xy(1.0), fixed_bc(0.0), 4, 200, seed=9, **kw)
        b = run_chain(xy(1.0), fixed_bc(0.0), 4, 200, seed=9, **kw)
        ok = ok and np.array_equal(a.traces["c"], b.traces["c"])
        _report(9, ok, "normalization, convolution, detailed balance, "
                "maximum principle, determinism", time.time() - t0, 120)


def _allowed(rect):
    from spinlab.percolation import _allowed_dbonds
    return _allowed_dbonds(rect, set())


def _vertex_cut(rect, a_bonds):
    # brute force disjoint-path maximum: by Menger it equals the minimum
    # number of d-sites separating the two short sides
    from spinlab.percolation import _allowed_dbonds, _rect_sides
    dsites = rect.dsites()
    adj = {p: set() for p in dsites}
    for p, q in _allowed_dbonds(rect, a_bonds):
        adj[p].add(q)
        adj[q].add(p)
    src, snk = _rect_sides(rect)

    def connected(removed):
        seen = set()
        stack = [p for p in src if p not in removed]
        seen.update(stack)
        while stack:
            u = stack.pop()
            if u in snk:
                return True
            for v in adj[u] - seen - removed:
                seen.add(v)
                stack.append(v)
        return False

    if not connected(set()):
        return 0
    for size in range(1, len(dsites) + 1):
        for comb in itertools.combinations(dsites, size):
            if not connected(set(comb)):
                return size
    return len(dsites)


def _mc_hitting_matches(walk, psi):
    # solver field against direct simulation of the conductance walk at five
    # spot sites: value/psi is the chance of reaching the inner box before
    # leaving the outer one
    wave = solve_spinwave(walk, 8, 2, psi)
    c = wave.cgrid
    k = (c.shape[0] - 1) // 2
    probs = c.ravel() / c.sum()
    ax = np.arange(-k, k + 1)
    dxs = np.repeat(ax, 2 * k + 1)
    dys = np.tile(ax, 2 * k + 1)
    rng = np.random.default_rng(17)
    ok = True
    for start in [(4, 0), (6, 3), (-7, 0), (0, 5), (5, -5)]:
        walkers = 4000
        pos = np.tile(np.asarray(start), (walkers, 1))
        hit = np.zeros(walkers, dtype=bool)
        alive = np.ones(walkers, dtype=bool)
        for _ in range(4000):
            if not alive.any():
                break
            idx = rng.choice(len(probs), size=int(alive.sum()), p=probs)
            pos[alive, 0] += dxs[idx]
            pos[alive, 1] += dys[idx]
            sup = np.max(np.abs(pos), axis=1)
            hit |= alive & (sup <= 2)
            alive &= (sup > 2) & (sup <= 8)
        p_hat = hit.mean()
        sigma = math.sqrt(max(p_hat * (1 - p_hat), 1e-12) / walkers)
        ok = ok and abs(wave.at(start) / psi - p_hat) < 3 * sigma + 1e-9
    return ok
