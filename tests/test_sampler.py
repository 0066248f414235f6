import dataclasses
import math

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import i0, i1

from spinlab import sampler
from spinlab.interaction import TrigPolynomial, absval, aizenman, decompose, xy
from spinlab.sampler import (
    Arcs,
    SpinConfiguration,
    aizenman_state,
    batch_means,
    boundary_ring,
    cos_at,
    discrete_metropolis_matrix,
    exact_discrete_toy,
    feasibility,
    feasible_point,
    fixed_bc,
    free_bc,
    hamiltonian,
    hardcore_violations,
    initial_configuration,
    power_law_fit,
    rotation_discrepancy,
    run_chain,
    sample_discrete_toy,
    sample_state,
    smeared_bc,
    staircase_angle,
    staircase_bc,
    two_point,
)

THETA12 = 2 * math.pi / 12


class TestBoundary:
    def test_ring_size(self):
        assert len(boundary_ring(4)) == 8 * 5

    def test_staircase_values(self):
        bc = staircase_bc(12, sigma=2)
        assert float(staircase_angle(bc, 1)) == pytest.approx(2 * THETA12)
        # 6 theta = pi wraps to the canonical representative -pi
        assert float(staircase_angle(bc, 3)) == pytest.approx(-math.pi)

    def test_initial_configuration_kinds(self):
        rng = np.random.default_rng(0)
        fixed = initial_configuration(fixed_bc(0.5), 3, rng)
        assert np.all(fixed.grid == 0.5)
        stair = initial_configuration(staircase_bc(12, 1), 3, rng)
        assert stair.at((2, 1)) == pytest.approx(THETA12)
        assert stair.at((-1, 1)) == pytest.approx(THETA12)


class TestSweep:
    def test_determinism(self):
        kw = dict(observables={"c": cos_at((0, 0))}, sweeps=200, seed=42)
        a = run_chain(xy(1.0), fixed_bc(0.0), 4, **kw)
        b = run_chain(xy(1.0), fixed_bc(0.0), 4, **kw)
        assert np.array_equal(a.traces["c"], b.traces["c"])
        assert a.width == b.width

    def test_free_rotation_invariance_of_energy(self):
        # rotating every spin leaves the free-bc Hamiltonian unchanged
        rng = np.random.default_rng(1)
        cfg = initial_configuration(free_bc(), 4, rng)
        h0 = hamiltonian(cfg, xy(1.3), free_bc())
        for psi in rng.uniform(-math.pi, math.pi, 5):
            assert hamiltonian(cfg.rotated(psi), xy(1.3), free_bc()) == pytest.approx(h0, abs=1e-9)

    def test_free_state_no_magnetization(self):
        rep = sample_state(xy(0.0), free_bc(), 6, 2000, seed=1)
        assert rep.origin_modulus() < 0.06

    def test_tuned_acceptance_in_range(self):
        stats = run_chain(xy(1.0), fixed_bc(0.0), 8, 1000, seed=2,
                          observables={"c": cos_at((0, 0))})
        assert 0.2 < stats.acceptance_rate < 0.8

    def test_hardcore_violation_counter(self):
        grid = np.zeros((9, 9))
        grid[4, 4] = math.pi  # one site far out of line with its 4 neighbors
        cfg = SpinConfiguration(3, grid)
        pot = aizenman(THETA12)
        assert hardcore_violations(cfg, pot, fixed_bc(0.0)) == 4
        assert hardcore_violations(cfg, pot, free_bc()) == 4
        assert hardcore_violations(SpinConfiguration(3, np.zeros((9, 9))), pot, free_bc()) == 0


class TestLocalFieldSweep:
    """A potential with a Fourier form takes the local-field sweep; with the
    form dropped it takes the generic one.  On one random stream both must
    make the same moves."""

    # the smooth part of absval has degree > 1 and sin coefficients of the
    # size of roundoff.  The tilted polynomial is not even, so it is no pair
    # potential, but both paths take the energy of a site as sum_j U(x - phi_j),
    # and its large sin coefficients show a wrong sign or a dropped sin term.
    POTENTIALS = [xy(0.7), decompose(absval(), 0.5).smooth.as_potential(),
                  TrigPolynomial(0.2, np.array([-0.8, 0.3]),
                                 np.array([0.5, -0.2])).as_potential("tilted")]

    @staticmethod
    def _chain(pot, bc, monkeypatch):
        counts = []
        sweep = sampler.metropolis_sweep

        def counted(*args, **kwargs):
            counts.append(sweep(*args, **kwargs))
            return counts[-1]

        monkeypatch.setattr(sampler, "metropolis_sweep", counted)
        stats = run_chain(pot, bc, 6, 300, seed=8, burn=0)
        monkeypatch.undo()
        return counts, stats.final.grid

    def test_smooth_part_has_sin_coefficients(self):
        poly = self.POTENTIALS[1].fourier
        assert poly.degree > 1
        assert np.any(poly.sin_coeffs != 0.0)

    @pytest.mark.parametrize("bc", [fixed_bc(0.3), free_bc(), staircase_bc(12, 1)],
                             ids=["fixed", "free", "staircase"])
    @pytest.mark.parametrize("pot", POTENTIALS, ids=["xy", "absval_smooth", "tilted"])
    def test_same_moves_as_generic_path(self, pot, bc, monkeypatch):
        generic = dataclasses.replace(pot, fourier=None)
        assert generic == pot
        counts, grid = self._chain(pot, bc, monkeypatch)
        generic_counts, generic_grid = self._chain(generic, bc, monkeypatch)
        assert len(counts) > 300
        assert counts == generic_counts
        np.testing.assert_allclose(grid, generic_grid, rtol=0, atol=1e-12)


class TestOneSpinBox:
    """n = 0: one spin with four neighbours fixed at 0, so its law is
    proportional to e^{-4 U(phi)}."""

    @pytest.mark.parametrize("j", [0.3, 1.0])
    def test_xy_against_bessel_ratio(self, j):
        stats = run_chain(xy(j), fixed_bc(0.0), 0, 20000, seed=11,
                          observables={"c": cos_at((0, 0))})
        mean, err = stats.errors["c"]
        assert abs(mean - i1(4 * j) / i0(4 * j)) < 5 * err

    def test_absval_against_quadrature(self):
        pot = absval()
        assert pot.fourier is None
        weight = lambda p: math.exp(-4 * abs(p))
        exact = (quad(lambda p: math.cos(p) * weight(p), -math.pi, math.pi)[0]
                 / quad(weight, -math.pi, math.pi)[0])
        stats = run_chain(pot, fixed_bc(0.0), 0, 20000, seed=12,
                          observables={"c": cos_at((0, 0))})
        mean, err = stats.errors["c"]
        assert abs(mean - exact) < 5 * err


class TestDiscreteToy:
    def test_detailed_balance_exact(self):
        e = -np.cos(2 * np.pi * np.arange(8) / 8)
        p = discrete_metropolis_matrix(e)
        pi = np.exp(-e)
        pi /= pi.sum()
        flow = pi[:, None] * p
        assert np.max(np.abs(flow - flow.T)) < 1e-12
        assert np.max(np.abs(p.sum(axis=1) - 1.0)) < 1e-12
        assert np.max(np.abs(pi @ p - pi)) < 1e-12

    def test_stationary_law_matches_enumeration(self):
        # 8 states on a 2x2 box: empirical law vs exhaustive enumeration
        exact = exact_discrete_toy(8, 1.0)
        emp = sample_discrete_toy(8, 1.0, sweeps=600, replicas=50000, seed=3)
        tv = 0.5 * float(np.abs(emp - exact).sum())
        assert tv < 1e-2


class TestEstimators:
    def test_two_point_same_site(self):
        mean, err = two_point(xy(0.0), free_bc(), (1, 1), (1, 1), 4, 400, seed=1)
        assert mean == 1.0
        assert err == 0.0

    def test_two_point_independent_uniforms(self):
        mean, err = two_point(xy(0.0), free_bc(), (0, 0), (2, 2), 4, 2000, seed=1)
        assert abs(mean) < 3 * err + 1e-3

    def test_two_point_monotone_in_distance(self):
        vals = []
        for i, d in enumerate([1, 2, 4, 8]):
            mean, _ = two_point(xy(0.5), free_bc(), (0, 0), (0, d), 12, 6000,
                                seed=10 + i)
            vals.append(mean)
        assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_error_bars_scale_as_root_sweeps(self):
        _, e_short = two_point(xy(0.0), free_bc(), (0, 0), (1, 1), 4, 256, seed=5)
        _, e_long = two_point(xy(0.0), free_bc(), (0, 0), (1, 1), 4, 4096, seed=5)
        ratio = e_short / e_long
        assert 2.0 < ratio < 8.0  # sqrt(16) within a factor 2

    def test_batch_means_needs_enough_points(self):
        with pytest.raises(ValueError):
            batch_means([1.0] * 10)


class TestPowerLawFit:
    def test_recovers_exponent(self):
        rows = [(r, r ** -0.25, 0.0) for r in (1, 2, 4, 8, 16)]
        fit = power_law_fit(rows)
        assert fit.exponent == pytest.approx(0.25, abs=1e-9)
        assert fit.preferred == "power"

    def test_prefers_exponential(self):
        rows = [(r, math.exp(-r / 2), 1e-3 * math.exp(-r / 2)) for r in (1, 2, 4, 8)]
        assert power_law_fit(rows).preferred == "exponential"

    def test_rejects_bad_windows(self):
        with pytest.raises(ValueError):
            power_law_fit([(1, 1.0, 0.0), (2, 0.5, 0.0), (3, 0.3, 0.0)])
        with pytest.raises(ValueError):
            power_law_fit([(r, v, 0.0) for r, v in [(1, 1.0), (2, 0.5), (4, -0.1), (8, 0.1)]])

    def test_noisy_exponent_in_ci(self):
        rng = np.random.default_rng(8)
        rows = []
        for r in (1, 2, 4, 8, 16, 32):
            v = r ** -0.5 * math.exp(rng.normal(0, 0.02))
            rows.append((r, v, 0.02 * v))
        fit = power_law_fit(rows)
        assert fit.exponent_ci[0] < 0.5 < fit.exponent_ci[1]


class TestRotationDiscrepancy:
    def test_free_bc_invariant(self):
        rep = rotation_discrepancy(xy(1.0), free_bc(), cos_at((0, 0)),
                                   math.pi / 2, 6, 2000, seed=2)
        assert rep.discrepancy < 3 * rep.error + 1e-3

    def test_fixed_bc_decreases_with_volume(self):
        small = rotation_discrepancy(xy(1.0), fixed_bc(0.0), cos_at((0, 0)),
                                     math.pi / 2, 8, 4000, seed=3)
        large = rotation_discrepancy(xy(1.0), fixed_bc(0.0), cos_at((0, 0)),
                                     math.pi / 2, 16, 4000, seed=3)
        assert large.discrepancy < small.discrepancy


class TestArcs:
    def test_arc_and_measure(self):
        a = Arcs.arc(0.0, 0.5)
        assert a.measure == pytest.approx(1.0)
        assert a.contains(0.4) and a.contains(-0.4)
        assert not a.contains(1.0)

    def test_wraparound_intersection(self):
        a = Arcs.arc(0.0, 0.5)  # straddles the cut at 0/2pi
        b = Arcs.arc(0.3, 0.4)
        c = a.intersect(b)
        assert c.contains(0.2)
        assert not c.contains(-0.3)
        assert c.measure == pytest.approx(0.6)

    def test_dilate_to_full(self):
        assert Arcs.arc(1.0, 0.1).dilate(math.pi).full

    def test_diameter(self):
        assert Arcs.arc(0.0, 0.2).diameter == pytest.approx(0.4)
        two = Arcs([(0.0, 0.1), (3.0, 3.1)])
        assert two.diameter == pytest.approx(3.1)
        assert Arcs.full_circle().diameter == math.pi

    def test_point_membership(self):
        rng = np.random.default_rng(0)
        a = Arcs([(0.5, 1.0), (4.0, 4.5)])
        for _ in range(20):
            assert a.contains(a.a_point(rng))
        assert a.contains(a.a_point())


class TestFeasibility:
    def test_constant_bc_feasible_not_rigid(self):
        cert = feasibility(staircase_bc(12, 0), THETA12, 4)
        assert cert.verdict == "feasible"
        assert cert.witness is None

    def test_sigma_one_uniquely_rigid(self):
        cert = feasibility(staircase_bc(12, 1), THETA12, 6)
        assert cert.verdict == "uniquely-rigid"
        bc = staircase_bc(12, 1)
        for site, angle in cert.witness.items():
            want = float(staircase_angle(bc, site[1]))
            assert abs(math.remainder(angle - want, 2 * math.pi)) < 1e-6
        # randomized search agrees with the witness
        point = feasible_point(cert, bc, THETA12, 6, np.random.default_rng(1))
        assert point == cert.witness

    def test_sigma_two_infeasible(self):
        # the sigma = 2 staircase itself has vertical steps of twice the
        # cutoff, and propagation confirms no finite-energy configuration
        cert = feasibility(staircase_bc(12, 2), THETA12, 4)
        assert cert.verdict == "infeasible"
        assert feasible_point(cert, staircase_bc(12, 2), THETA12, 4,
                              np.random.default_rng(0)) is None

    def test_smeared_search_finds_valid_point(self):
        bc = smeared_bc(12, delta=0.05, sigma=1)
        cert = feasibility(bc, THETA12, 3)
        assert cert.verdict == "feasible"
        rng = np.random.default_rng(2)
        point = feasible_point(cert, bc, THETA12, 3, rng)
        assert point is not None
        for (x, y), v in point.items():
            for dx, dy in [(1, 0), (0, 1)]:
                q = (x + dx, y + dy)
                if q in point:
                    d = abs(math.remainder(v - point[q], 2 * math.pi))
                    assert d <= THETA12 + 1e-9


class TestAizenmanState:
    def test_joint_symmetry_breaking(self):
        rep = aizenman_state(12, 0.05, 1, 4, 3000, seed=4)
        assert rep.origin_modulus() > 0.99
        assert rep.state.violations == 0
        m01 = rep.state.magnetization[4, 5]
        assert abs(np.angle(m01) - THETA12) < 2 * 0.05

    def test_free_bc_contrast(self):
        pot = aizenman(THETA12)
        init = initial_configuration(fixed_bc(0.0), 8, np.random.default_rng(1))
        rep = sample_state(pot, free_bc(), 8, 4000, seed=7, init=init)
        assert rep.origin_modulus() < 0.1
        assert rep.violations == 0

    def test_restart_construction_agrees(self):
        # the literal redraw-per-restart construction, practical at small n;
        # both samplers live in the delta-tube around the staircase
        rep = aizenman_state(12, 0.05, 1, 2, 3000, seed=5, method="restarts",
                             restarts=30)
        assert rep.origin_modulus() > 0.99
        assert rep.state.violations == 0
        assert abs(np.angle(rep.state.magnetization[2, 3]) - THETA12) < 2 * 0.05

    def test_infeasible_staircase_aborts(self):
        with pytest.raises(RuntimeError):
            aizenman_state(12, 0.05, 2, 4, 100, seed=0)

    def test_covariance_shadow(self):
        # translation-rotation covariance holds up to a finite-volume defect
        # of order delta/n; the gap must be small though generally larger
        # than the MC error on long chains
        rep = aizenman_state(12, 0.05, 1, 8, 4000, seed=4)
        assert rep.covariance_gap < 0.02
        assert rep.covariance_error < rep.covariance_gap + 0.02

    def test_rows_format(self):
        rep = aizenman_state(12, 0.05, 1, 2, 500, seed=9)
        lines = rep.state.rows().strip().splitlines()
        assert len(lines) == 5 * 5
        x, y, re, im, mod = lines[0].split()
        assert (int(x), int(y)) == (-2, -2)
        assert float(mod) == pytest.approx(math.hypot(float(re), float(im)))
