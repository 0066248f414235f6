import dataclasses
import math

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import i0, i1

from exact import discrete_metropolis_matrix, envelope_arcs
from spinlab import sampler
from spinlab.interaction import (PairPotential, TrigPolynomial, absval, aizenman,
                                 circle_dist, decompose, logsing, wrap_angle, xy)
from spinlab.lattice import layer_sites, sup_grid
from spinlab.sampler import (
    SpinConfiguration,
    aizenman_state,
    batch_means,
    cos_at,
    feasibility,
    feasible_point,
    fixed_bc,
    free_bc,
    hardcore_violations,
    initial_configuration,
    power_law_fit,
    rotation_discrepancy,
    run_chain,
    sample_state,
    smeared_bc,
    staircase_angle,
    staircase_bc,
    two_point,
)

THETA12 = 2 * math.pi / 12


class TestBoundary:
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
        # rotating every interior spin leaves the free-bc hard-core energy,
        # its violation count, unchanged; under fixed bc the bonds to the
        # unrotated ring count too, and the count moves
        rng = np.random.default_rng(1)
        cfg = initial_configuration(free_bc(), 4, rng)
        pot = aizenman(math.pi / 2)
        free0 = hardcore_violations(cfg, pot, free_bc())
        fixed0 = hardcore_violations(cfg, pot, fixed_bc(0.0))
        moved = 0
        for psi in rng.uniform(-math.pi, math.pi, 5):
            rot = cfg.rotated(psi)
            assert hardcore_violations(rot, pot, free_bc()) == free0
            moved += hardcore_violations(rot, pot, fixed_bc(0.0)) != fixed0
        assert free0 > 0 and moved > 0

    def test_free_state_no_magnetization(self):
        rep = sample_state(xy(0.0), free_bc(), 6, 2000, seed=1)
        assert rep.origin_modulus() < 0.06

    def test_tuned_acceptance_in_range(self):
        stats = run_chain(xy(1.0), fixed_bc(0.0), 8, 1000, seed=2,
                          observables={"c": cos_at((0, 0))})
        assert 0.2 < stats.acceptance_rate < 0.8

    def test_rotated_view_reads_as_the_rotated_copy(self):
        # the view turns only the site `at` reads; it must give the bits of
        # the full copy, which its `grid` builds on first use
        cfg = initial_configuration(free_bc(), 3, np.random.default_rng(4))
        cfg.grid[:] = np.random.default_rng(5).uniform(-40.0, 40.0, cfg.grid.shape)
        psi = 2.0
        copy = cfg.grid.copy()
        copy[1:-1, 1:-1] = wrap_angle(copy[1:-1, 1:-1] + psi)
        rot = cfg.rotated(psi)
        ax = range(-4, 5)  # the box and its ring
        got = [rot.at((x, y)) for x in ax for y in ax]
        want = [float(copy[x + 4, y + 4]) for x in ax for y in ax]
        assert np.array_equal(np.array(got).view(np.uint64),
                              np.array(want).view(np.uint64))
        assert np.array_equal(rot.grid, copy) and rot.n == cfg.n
        assert np.array_equal(rot.interior(), copy[1:-1, 1:-1])

    @pytest.mark.parametrize("n", [0, 2, 5])
    def test_hardcore_violations_match_masked_count(self, n):
        # the count the function made before it kept its bond list: every
        # bond of the extended grid with an interior end (free bc: both
        # ends), tested on the whole grid and masked
        pot = aizenman(1.0)
        interior = sup_grid(n + 1) <= n
        counts = []
        for seed in range(3):
            cfg = initial_configuration(free_bc(), n, np.random.default_rng(seed))
            for bc in (fixed_bc(0.0), free_bc()):
                want = 0
                for axis in (0, 1):
                    a = np.moveaxis(cfg.grid, axis, 0)
                    ia = np.moveaxis(interior, axis, 0)
                    w = ia[1:] & ia[:-1] if bc.kind == "free" else ia[1:] | ia[:-1]
                    want += int(np.sum(w & (circle_dist(a[1:] - a[:-1]) > 1.0 + 1e-12)))
                assert hardcore_violations(cfg, pot, bc) == want
                counts.append(want)
        assert max(counts) > 0

    def test_hardcore_violation_counter(self):
        grid = np.zeros((9, 9))
        grid[4, 4] = math.pi  # one site far out of line with its 4 neighbors
        cfg = SpinConfiguration(3, grid)
        pot = aizenman(THETA12)
        assert hardcore_violations(cfg, pot, fixed_bc(0.0)) == 4
        assert hardcore_violations(cfg, pot, free_bc()) == 4
        assert hardcore_violations(SpinConfiguration(3, np.zeros((9, 9))), pot, free_bc()) == 0


class TestChainPins:
    """Short chains pinned to 12 significant digits on both forms of dE: the
    local fields (xy, a hard core with ring arcs) and the pair energies
    (absval).  The two forms are checked against each other elsewhere, so
    these catch a drift common to both."""

    @staticmethod
    def _digits(*values):
        return [f"{v:.12g}" for v in values]

    @pytest.mark.parametrize("pot, want", [
        (xy(1.0), ["0.46750634442", "0.112471980041", "0.98", "0.529259259259"]),
        (absval(), ["0.985177886112", "0.0969368822148", "0.5", "0.591049382716"]),
    ], ids=["local-field", "pair-energy"])
    def test_rotation_discrepancy(self, pot, want):
        rep = rotation_discrepancy(pot, fixed_bc(0.0), cos_at((0, 0)), math.pi / 2,
                                   4, 200, 0)
        assert self._digits(rep.discrepancy, rep.error, rep.width,
                            rep.acceptance_rate) == want

    def test_two_point(self):
        mean, err = two_point(xy(0.5), free_bc(), (0, 0), (0, 2), 4, 200, 0)
        assert self._digits(mean, err) == ["0.0828318383035", "0.0621425554192"]

    def test_aizenman_state(self):
        rep = aizenman_state(12, 0.05, 1, 4, 200, 0)
        assert rep.state.violations == 0
        assert self._digits(rep.origin_modulus(), rep.covariance_gap) == [
            "0.99986902469", "0.00650927157328"]


class TestLocalFieldSweep:
    """A potential with a Fourier form takes the local-field sweep; with the
    form dropped it takes the generic one.  On one random stream both must
    make the same moves."""

    # the smooth part of absval has degree > 1 and sin coefficients of the
    # size of roundoff.  The tilted polynomial is not even, so it is no pair
    # potential, but both paths take the energy of a site as sum_j U(x - phi_j),
    # and its large sin coefficients show a wrong sign or a dropped sin term.
    SMOOTH = decompose(absval(), 0.5).smooth
    TILTED = TrigPolynomial(0.2, np.array([-0.8, 0.3]), np.array([0.5, -0.2]))
    POTENTIALS = [xy(0.7), PairPotential("trig", SMOOTH, fourier=SMOOTH),
                  PairPotential("tilted", TILTED, fourier=TILTED)]

    @staticmethod
    def _chain(pot, bc, monkeypatch, init=None):
        counts = []
        sweep = sampler.metropolis_sweep

        def counted(*args, **kwargs):
            counts.append(sweep(*args, **kwargs))
            return counts[-1]

        monkeypatch.setattr(sampler, "metropolis_sweep", counted)
        # run_chain updates its start in place
        start = (initial_configuration(bc, 6, np.random.default_rng(80))
                 if init is None else SpinConfiguration(init.n, init.grid.copy()))
        run_chain(pot, bc, 6, 300, seed=8, init=start)
        monkeypatch.undo()
        return counts, start.grid

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

    # hard core: the fixed grid and the sigma = 1 staircases have finite
    # energy; a uniform interior and the sigma = 2 staircase break the
    # cutoff, so the first sweeps accept any finite proposal there; the
    # smeared bcs add the ring phase with its arc test.  At cutoff 2 pi/12 a
    # move from an infinite-energy site into the cutoff lowers the -cos
    # energy almost always, so only the wide cutoff 2.5 shows a sweep that
    # takes dE in place of that acceptance.
    HARD_CORE_CASES = {
        "fixed": (THETA12, fixed_bc(0.3), None),
        "free-from-fixed": (THETA12, free_bc(), "fixed"),
        "free-from-uniform": (THETA12, free_bc(), None),
        "staircase": (THETA12, staircase_bc(16, 1), None),  # (12, 1) is rigid
        "smeared-0.05-1": (THETA12, smeared_bc(12, 0.05, 1), None),
        "smeared-0.8-2": (THETA12, smeared_bc(12, 0.8, 2), None),
        "smeared-0.8-2-from-uniform": (THETA12, smeared_bc(12, 0.8, 2), "uniform"),
        "wide-free-from-uniform": (2.5, free_bc(), None),
        "wide-fixed-from-uniform": (2.5, fixed_bc(0.3), "uniform"),
    }

    @pytest.mark.parametrize("case", list(HARD_CORE_CASES))
    def test_hard_core_same_moves_as_generic_path(self, case, monkeypatch):
        theta, bc, start = self.HARD_CORE_CASES[case]
        pot = aizenman(theta)
        init = None
        if start == "fixed":
            init = initial_configuration(fixed_bc(0.0), 6, None)
        elif start == "uniform":
            init = initial_configuration(bc, 6, None)
            init.interior()[:] = np.random.default_rng(3).uniform(
                -math.pi, math.pi, (13, 13))
        counts, grid = self._chain(pot, bc, monkeypatch, init)
        generic = dataclasses.replace(pot, fourier=None)
        generic_counts, generic_grid = self._chain(generic, bc, monkeypatch, init)
        assert len(counts) > 300 and sum(counts) > 0
        assert counts == generic_counts
        assert np.array_equal(grid, generic_grid)

    def test_roundoff_past_the_cutoff_counts_as_broken(self, monkeypatch):
        # 1e-13 past the cutoff is no violation to hardcore_violations, but
        # the sweep reads the bond as broken, as the generic path does, and
        # accepts any finite move of its end.  Under +cos such a move into
        # the cutoff costs energy, so a sweep that skipped that read would
        # reject some of them.
        poly = TrigPolynomial(0.0, np.array([1.0]), np.array([0.0]))
        pot = PairPotential("anti", poly, cutoff=THETA12, fourier=poly)
        bc = fixed_bc(0.0)
        init = initial_configuration(bc, 6, None)
        init.interior()[:] = THETA12 + 1e-13
        assert hardcore_violations(init, pot, bc) == 0
        counts, grid = self._chain(pot, bc, monkeypatch, init)
        generic = dataclasses.replace(pot, fourier=None)
        generic_counts, generic_grid = self._chain(generic, bc, monkeypatch, init)
        assert counts == generic_counts
        assert np.array_equal(grid, generic_grid)

    class _Scripted:
        """A generator stand-in that hands out the given draws in order."""

        def __init__(self, draws):
            self.draws = [np.array(d, dtype=float) for d in draws]

        def standard_normal(self, size):
            return self.random(size)

        def random(self, size):
            out = self.draws.pop(0)
            assert len(out) == size
            return out

    def test_move_to_the_edge_of_the_cutoff_ends_the_skipping(self):
        # The box of radius 1 and its ring sit at -pi, the neighbour j = (1, 0)
        # of the centre i at a.  The centre's proposal p reads the bond as
        # unbroken, p - a, while j reads it as broken by roundoff, a - p (see
        # the margin test).  So after the move the sweep must test j's
        # current angle again, and accept j's costlier finite proposal as the
        # generic path does.
        p_step, a = 6.1497779658666385, -2.7514012193044417
        p = float(wrap_angle(np.array([-math.pi + p_step]))[0])
        assert circle_dist(p - a) <= THETA12 < circle_dist(a - p)
        poly = TrigPolynomial(0.0, np.array([1.0]), np.array([0.0]))
        pot = PairPotential("anti", poly, cutoff=THETA12, fourier=poly)
        bc = fixed_bc(-math.pi)
        half, keep = [0.5] * 5, [0.5] * 4
        draws = [[0.0] * 5, half, half, [0.0] * 4, keep, keep,  # first sweep
                 [0, 0, p_step, 0, 0], half, [0.5, 0.5, 1e-300, 0.5, 0.5],
                 [0, 0, 0, -0.1], keep, [0.5, 0.5, 0.5, np.nextafter(1.0, 0.0)]]
        grids = []
        for path in (pot, dataclasses.replace(pot, fourier=None)):
            cfg = initial_configuration(bc, 1, None)
            cfg.grid[3, 2] = a
            stencil, rng = sampler._Stencil(1, bc), self._Scripted(draws)
            for _ in range(2):
                sampler.metropolis_sweep(cfg, path, bc, 1.0, rng, stencil)
            grids.append(cfg.grid)
        assert grids[0][2, 2] == p
        assert grids[0][3, 2] == float(wrap_angle(np.array([a - 0.1]))[0])
        assert np.array_equal(grids[0], grids[1])

    @pytest.mark.parametrize("pot, bc", [
        (POTENTIALS[2], fixed_bc(0.3)),
        (POTENTIALS[2], free_bc()),
        (aizenman(THETA12), free_bc()),
        (aizenman(THETA12), staircase_bc(16, 1)),
        (aizenman(THETA12), smeared_bc(12, 0.05, 1)),
    ], ids=["fixed", "free", "hard-free", "hard-staircase", "hard-smeared"])
    def test_sweep_state_matches_the_grid(self, pot, bc, monkeypatch):
        # what the chain keeps between sweeps is what a fresh look at its
        # grid gives, after the free bc's global rotations too
        seen = []
        sweep = sampler.metropolis_sweep

        def spy(*args):
            seen.append(args)
            return sweep(*args)

        monkeypatch.setattr(sampler, "metropolis_sweep", spy)
        run_chain(pot, bc, 6, 100, seed=4)
        cfg, stencil = seen[-1][0], seen[-1][5]
        assert all(args[5] is stencil for args in seen)
        s = np.arange(1, pot.fourier.degree + 1)[:, None]
        modes = np.exp(1j * s * cfg.grid.ravel())
        assert np.array_equal(stencil.modes[:, :-1].view(np.uint64), modes.view(np.uint64))
        assert np.array_equal(stencil.modes[:, -1], np.zeros(len(s)))
        # a hard core skips the current angle only while no sampled end of a
        # counted bond reads it as broken; a free bc's rotation ends that
        assert stencil.finite == (bc.kind != "free")
        flat = cfg.grid.ravel()
        for idx, nbr, present in stencil.phases:
            if pot.is_hard_core and stencil.finite:
                dist = circle_dist(flat[idx] - flat.take(nbr, mode="clip"))
                assert not np.any((dist > pot.cutoff) & present)

    def test_bond_ends_read_the_cutoff_alike_within_the_margin(self):
        # the two ends of a bond wrap phi and -phi; near the cutoff they may
        # disagree by roundoff, never by as much as the margin of the sweep
        rng = np.random.default_rng(6)
        a = rng.uniform(-math.pi, math.pi, 200_000)
        b = wrap_angle(a + rng.choice([-1, 1], a.size) * THETA12
                       + rng.uniform(-1e-15, 1e-15, a.size))
        gap = np.abs(circle_dist(a - b) - circle_dist(b - a))
        assert 0 < gap.max() < sampler._NEAR_CUTOFF


class TestTuneWidth:
    @staticmethod
    def _sweeps(pot, bc, monkeypatch):
        calls = []
        sweep = sampler.metropolis_sweep

        def counted(*args):
            calls.append(1)
            return sweep(*args)

        monkeypatch.setattr(sampler, "metropolis_sweep", counted)
        rng = np.random.default_rng(0)
        cfg = initial_configuration(bc, 4, rng)
        width = sampler.tune_width(cfg, pot, bc, rng, sampler._Stencil(4, bc))
        return len(calls), width

    def test_stops_at_the_ceiling(self, monkeypatch):
        # every move is accepted: six blocks scale 0.5 up to pi, and the
        # seventh finds it pinned
        assert self._sweeps(xy(0.0), free_bc(), monkeypatch) == (70, math.pi)

    def test_stops_at_the_floor(self, monkeypatch):
        # the clamp well of logsing holds every spin: eighteen blocks scale
        # 0.5 down to 1e-3, and the nineteenth finds it pinned
        assert self._sweeps(logsing(), fixed_bc(0.0), monkeypatch) == (190, 1e-3)


class TestOneSpinBox:
    """n = 0: one spin with four fixed neighbours at angles a_j, so its law
    is proportional to e^{-sum_j U(phi - a_j)}."""

    @pytest.mark.parametrize("j", [0.3, 1.0])
    def test_xy_against_bessel_ratio(self, j):
        stats = run_chain(xy(j), fixed_bc(0.0), 0, 20000, seed=11,
                          observables={"c": cos_at((0, 0))})
        mean, err = stats.errors["c"]
        assert abs(mean - i1(4 * j) / i0(4 * j)) < 5 * err

    @pytest.mark.parametrize("pot, bc", [
        (absval(), fixed_bc(0.0)),
        (aizenman(0.5), fixed_bc(0.0)),
        (absval(), staircase_bc(12, 1)),
        (xy(1.0), staircase_bc(12, 2)),
    ], ids=["absval-fixed", "aizenman-fixed", "absval-staircase1",
            "xy-staircase2"])
    def test_against_quadrature(self, pot, bc):
        # generic path, local-field path with its hard-core masks, generic
        # path with neighbours at 0, 0 and +-theta, local-field path
        nbrs = [float(staircase_angle(bc, x2)) for x2 in (0, 0, 1, -1)] \
            if bc.kind == "staircase" else [bc.value] * 4
        weight = lambda p: math.exp(-sum(float(pot(p - a)) for a in nbrs))
        # kinks of U at the neighbours, or the edges of the hard core
        offsets = (0.0,) if pot.cutoff is None else (-pot.cutoff, pot.cutoff)
        kinks = sorted({float(wrap_angle(a + d)) for a in nbrs for d in offsets})
        exact = (quad(lambda p: math.cos(p) * weight(p), -math.pi, math.pi,
                      points=kinks)[0]
                 / quad(weight, -math.pi, math.pi, points=kinks)[0])
        stats = run_chain(pot, bc, 0, 20000, seed=12,
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

    @pytest.mark.parametrize("x, y", [((0, 0), (0, 4)), ((0, 0), (0, 5)),
                                      ((4, 0), (0, 0))])
    def test_two_point_rejects_sites_outside_box(self, x, y):
        with pytest.raises(ValueError, match="must lie in the box of radius 3"):
            two_point(xy(0.5), free_bc(), x, y, 3, 400, 1)

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


def brute_force_count(values, k, j):
    """Transfer-matrix count at n = 1 of the box configurations in
    (2pi/k)Z: ring values `values` (in Z_k, in R' order) with arcs of j
    steps, every bond within one step.  Columns x = -1, 0, 1 of the box are
    swept left to right; a column state is its three values, and the number
    of ways to reach it from the left sums the previous counts over the
    states one step away in each coordinate.  The configuration is feasible
    iff the count is positive."""
    ring = dict(zip([p for p in layer_sites(2) if abs(p[0]) != abs(p[1])], values))
    v = np.arange(k)
    col = np.meshgrid(v, v, v, indexing="ij")  # values at x2 = -1, 0, 1

    def near(a, b, r):
        d = (a - b) % k
        return np.minimum(d, k - d) <= r

    # a ring site with an arc of j steps, one bond from its interior
    # neighbour, leaves that neighbour the values within j + 1 steps
    count = None
    for x in (-1, 0, 1):
        ok = near(col[0], col[1], 1) & near(col[1], col[2], 1)
        ok &= near(col[2], ring[(x, 2)], j + 1) & near(col[0], ring[(x, -2)], j + 1)
        if x != 0:
            for y in (-1, 0, 1):
                ok &= near(col[y + 1], ring[(2 * x, y)], j + 1)
        if count is None:
            count = ok.astype(np.int64)
        else:
            for axis in range(3):
                count = count + np.roll(count, 1, axis) + np.roll(count, -1, axis)
            count *= ok
    return int(count.sum())


def ring_configuration(values, theta, n=1):
    """The extended grid of radius n with angles theta * values on R' (the
    ring minus its corners), in ring order, and zeros elsewhere."""
    cfg = SpinConfiguration(n, np.zeros((2 * n + 3, 2 * n + 3)))
    ring = [p for p in layer_sites(n + 1) if abs(p[0]) != abs(p[1])]
    for (x, y), v in zip(ring, values):
        cfg.grid[x + n + 1, y + n + 1] = wrap_angle(theta * v)
    return cfg


def assert_finite_energy(cfg, bc, n, theta=THETA12):
    """`cfg` is a grid of radius n with no bond over the cutoff theta that
    keeps each ring value inside its arc."""
    ref = initial_configuration(bc, n, None)
    half = bc.delta if bc.kind == "smeared" else 0.0
    assert cfg.n == n and cfg.grid.shape == ref.grid.shape
    ring = sup_grid(n + 1) == n + 1
    assert np.all(circle_dist(cfg.grid[ring] - ref.grid[ring]) <= half + 1e-12)
    assert hardcore_violations(cfg, aizenman(theta), bc) == 0


class TestFeasibility:
    def test_constant_bc_feasible_not_rigid(self):
        cert = feasibility(staircase_bc(12, 0), THETA12, 4)
        assert cert.verdict == "feasible"
        # the witness is the lower envelope: minus theta times the
        # distance to the ring
        assert cert.witness.at((0, 0)) == pytest.approx(-5 * THETA12)
        assert cert.witness.at((4, -2)) == pytest.approx(-THETA12)
        assert cert.witness.at((5, -2)) == 0.0

    def test_sigma_one_uniquely_rigid(self):
        bc = staircase_bc(12, 1)
        cert = feasibility(bc, THETA12, 6)
        assert cert.verdict == "uniquely-rigid"
        stair = initial_configuration(bc, 6, None).grid
        assert np.all(circle_dist(cert.witness.grid - stair) < 1e-9)
        point = feasible_point(cert, THETA12, np.random.default_rng(1))
        assert np.all(circle_dist(point.grid - cert.witness.grid) < 1e-9)

    def test_sigma_two_infeasible(self):
        # the sigma = 2 staircase climbs 4 theta between (1, 2) and (1, -2),
        # which lie at graph distance 4, so it has no finite-energy filling
        cert = feasibility(staircase_bc(12, 2), THETA12, 4)
        assert cert.verdict == "infeasible"
        assert feasible_point(cert, THETA12, np.random.default_rng(0)) is None

    @pytest.mark.parametrize("bc, n", [
        (fixed_bc(1.0), 2), (staircase_bc(12, 0), 4), (staircase_bc(12, 1), 6),
        (smeared_bc(12, 0.6, 2), 0)])
    def test_witness_and_random_points_have_finite_energy(self, bc, n):
        cert = feasibility(bc, THETA12, n)
        assert cert.verdict != "infeasible"
        assert_finite_energy(cert.witness, bc, n)
        rng = np.random.default_rng(2)
        for _ in range(3):
            assert_finite_energy(feasible_point(cert, THETA12, rng), bc, n)

    def test_smeared_search_finds_valid_point(self):
        bc = smeared_bc(12, delta=0.05, sigma=1)
        cert = feasibility(bc, THETA12, 3)
        assert cert.verdict == "feasible"
        assert_finite_energy(cert.witness, bc, 3)
        rng = np.random.default_rng(2)
        for _ in range(3):
            assert_finite_energy(feasible_point(cert, THETA12, rng), bc, 3)

    def test_smearing_widens_the_arcs(self):
        # at n = 0 the sigma = 2 ring values 2 theta and -2 theta sit at
        # distance 2, so arcs of half-width delta fit iff delta >= theta
        assert feasibility(smeared_bc(12, 0.5, 2), THETA12, 0).verdict == "infeasible"
        assert feasibility(smeared_bc(12, 0.6, 2), THETA12, 0).verdict == "feasible"

    def test_rejects_free_bc_and_wide_cutoffs(self):
        with pytest.raises(ValueError):
            feasibility(free_bc(), THETA12, 2)
        with pytest.raises(ValueError):  # 4 theta = 2 pi: a plaquette may wind
            feasibility(staircase_bc(4, 1), math.pi / 2, 2)

    @pytest.mark.parametrize("bc, theta, verdict", [
        (staircase_bc(6, 1), 2 * math.pi / 6, "uniquely-rigid"),  # 3 theta = pi
        (smeared_bc(12, 0.8, 1), THETA12, "feasible"),  # 3 theta + 2 delta > pi
        (smeared_bc(12, 0.8, 2), THETA12, "infeasible")],
        ids=["staircase-k6", "smeared-sigma1", "smeared-sigma2"])
    def test_wide_arcs_get_verdicts(self, bc, theta, verdict):
        cert = feasibility(bc, theta, 2)
        assert cert.verdict == verdict
        if cert.witness is not None:
            assert_finite_energy(cert.witness, bc, 2, theta)

    def test_winding_ring_infeasible(self):
        # steps of 0 or 2pi/7 between consecutive ring sites: every
        # consecutive pair is close, but the ring winds once
        values = np.arange(12) * 7 // 12
        theta = 2 * math.pi / 7
        assert brute_force_count(values, 7, 0) == 0
        cert = sampler._certify(ring_configuration(values, theta), 0.0, theta)
        assert cert.verdict == "infeasible"

    # (5, 0), (6, 0), (7, 1) and (12, 2) have 3 theta + 2 delta >= pi, where
    # nearest-representative steps no longer lift the ring uniquely
    @pytest.mark.parametrize("k, j", [(5, 0), (6, 0), (7, 0), (7, 1), (9, 0),
                                      (12, 0), (12, 1), (12, 2)])
    def test_matches_brute_force_at_n1(self, k, j):
        # the lower envelope of lattice data stays on the lattice, so the
        # verdict on (2pi/k)Z is the verdict on the circle
        theta = 2 * math.pi / k
        rng = np.random.default_rng(100 * k + j)
        verdicts = set()
        for trial in range(300):
            if trial % 2:
                values = rng.integers(0, k, 12)
            else:
                values = (rng.integers(0, k) + np.cumsum(rng.integers(-2, 3, 12))) % k
            cert = sampler._certify(ring_configuration(values, theta), j * theta, theta)
            assert (cert.verdict != "infeasible") == (brute_force_count(values, k, j) > 0), values
            verdicts.add(cert.verdict)
        assert {"feasible", "infeasible"} <= verdicts

    @pytest.mark.parametrize("values", [
        # with their counts of lattice configurations
        [4, 1, 4, 1, 0, 3, 2, 2, 1, 1, 3, 3],  # 2: one envelope, two windings
        [3, 3, 1, 0, 1, 0, 3, 4, 2, 1, 2, 1],  # 2
        [4, 0, 1, 2, 2, 2, 1, 0, 4, 3, 3, 3],  # 1: the sigma = 1 staircase
        [4, 0, 1, 1, 3, 2, 1, 0, 4, 3, 4, 3],  # 1
        [4, 0, 1, 1, 2, 3, 1, 0, 4, 4, 3, 3]])  # 4
    def test_uniquely_rigid_iff_one_configuration(self, values):
        # both envelopes of lattice data and the envelopes of every winding
        # lie on the lattice, so one lattice configuration means one
        # configuration on the circle
        theta = 2 * math.pi / 5
        cert = sampler._certify(ring_configuration(values, theta), 0.0, theta)
        assert cert.verdict != "infeasible"
        assert (cert.verdict == "uniquely-rigid") == (brute_force_count(values, 5, 0) == 1)


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

    @pytest.mark.parametrize("bc, finite, fourier", [
        (smeared_bc(12, 0.05, 1), True, True), (staircase_bc(12, 2), False, True),
        (smeared_bc(12, 0.05, 1), True, False), (staircase_bc(12, 2), False, False)],
        ids=["feasible", "infeasible", "feasible-pair-energy", "infeasible-pair-energy"])
    def test_violations_counted_off_a_finite_state(self, bc, finite, fourier,
                                                   monkeypatch):
        # a finite sweep state has no violation, so the count is skipped
        # there; the total is that of a count after every recorded sweep.  A
        # hard core without a Fourier form never reads its state as finite,
        # so it counts after every sweep, and makes the same moves
        pot, sweeps = aizenman(THETA12), 100
        fourier_total = sample_state(pot, bc, 4, sweeps, seed=3).violations
        if not fourier:
            pot = dataclasses.replace(pot, fourier=None)
        count, chain = sampler.hardcore_violations, sampler.run_chain
        full, calls = [], []

        def spy_count(*args):
            calls.append(1)
            return count(*args)

        def spy_chain(*args, callback, **kwargs):
            def both(cfg, stencil):
                full.append(count(cfg, pot, bc))
                callback(cfg, stencil)
            return chain(*args, callback=both, **kwargs)

        monkeypatch.setattr(sampler, "hardcore_violations", spy_count)
        monkeypatch.setattr(sampler, "run_chain", spy_chain)
        rep = sample_state(pot, bc, 4, sweeps, seed=3)
        assert rep.violations == sum(full) == fourier_total
        assert (rep.violations == 0) == finite
        assert (len(calls) < sweeps) == (finite and fourier)

    def test_smeared_chain_samples_its_ring(self):
        # the smeared bc alone makes the chain sample its ring: the sites
        # with an interior neighbour leave the staircase, and no ring site
        # leaves its arc of half-width delta
        n, delta = 3, 0.2
        bc = smeared_bc(12, delta, 1)
        ring = sup_grid(n + 1) == n + 1
        stair = initial_configuration(bc, n, None).grid
        ax = np.abs(np.arange(-n - 1, n + 2))
        corner = np.equal.outer(ax, ax)
        moved = np.zeros(ring.shape, dtype=bool)
        worst = []

        def record(cfg, _stencil):
            off = circle_dist(cfg.grid - stair)
            moved[off > 1e-9] = True
            worst.append(off[ring].max())

        run_chain(aizenman(THETA12), bc, n, 200, seed=6, callback=record)
        assert len(worst) == 200
        assert max(worst) <= delta + 1e-12
        assert np.all(moved[ring & ~corner])

    def test_smeared_state_feasible_where_staircase_is_not(self):
        # the exact staircase of (16, sigma 2) breaks the hard core at n = 1,
        # but arcs of half-width 0.8 admit finite-energy configurations: the
        # chain starts from the smeared certificate's witness
        theta = 2 * math.pi / 16
        assert feasibility(staircase_bc(16, 2), theta, 1).verdict == "infeasible"
        assert feasibility(smeared_bc(16, 0.8, 2), theta, 1).verdict != "infeasible"
        rep = aizenman_state(16, 0.8, 2, 1, 64, seed=0)
        assert rep.state.violations == 0

    @pytest.mark.parametrize("n", [2, 4, 8, 16])
    def test_magnetization_inside_the_envelopes(self, n):
        # every finite-energy configuration puts box site i inside the arc
        # [lower_i, upper_i] of the certificate, so its magnetization, a
        # mean of unit vectors there, has a modulus of at least cos of the
        # arc's half-width and an argument inside the arc.  No error bar is
        # involved: a miss is a bug
        centre, half = envelope_arcs(12, 0.05, 1, n)
        m = aizenman_state(12, 0.05, 1, n, 300, seed=5).state.magnetization.ravel()
        assert np.all(np.abs(m) >= np.cos(half) - 1e-12)
        assert np.all(np.abs(np.angle(m * np.exp(-1j * centre))) <= half + 1e-12)

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
