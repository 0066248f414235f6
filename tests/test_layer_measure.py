import itertools
import math
import tracemalloc

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import iv

from spinlab import lattice
from spinlab.interaction import PairPotential, absval, aizenman, decompose, logsing, xy
from spinlab.layer_measure import (
    CircleDensity,
    OrbitConfiguration,
    chi_density,
    circle_grid,
    convolve,
    density_cap_constant,
    extremal_fourier_oracle,
    fourier_max_bound,
    layer_potential,
    sup_density_bound,
    uniformity_bound,
)


class TestLayerPotential:
    def test_constant_orbit_xy_is_scaled_cosine(self):
        # all deltas vanish, 4 bonds at k=0: W(t) = -4J cos t
        orbit = OrbitConfiguration.constant(2)
        w = layer_potential(0, orbit, xy(0.5), grid_size=256)
        t = circle_grid(256)
        assert np.allclose(w, -2.0 * np.cos(t))

    def test_bond_count_scaling(self):
        orbit = OrbitConfiguration.constant(3, value=0.2)
        for k in range(4):
            w = layer_potential(k, orbit, xy(1.0), grid_size=64)
            # constant orbit: W(t) = -(8k+4) cos(t)
            assert w[0] == pytest.approx(-(8 * k + 4))

    def test_outermost_layer_uses_boundary(self):
        orbit = OrbitConfiguration.constant(1)
        orbit.boundary[:] = math.pi  # antialigned boundary flips the sign
        w = layer_potential(1, orbit, xy(1.0), grid_size=64)
        assert w[0] == pytest.approx(12.0)

    def test_rejects_bad_layer(self):
        orbit = OrbitConfiguration.constant(1)
        with pytest.raises(ValueError):
            layer_potential(2, orbit, xy(1.0))

    def test_hard_core_feasible_fraction(self):
        orbit = OrbitConfiguration.constant(1)
        w = layer_potential(0, orbit, aizenman(0.5), grid_size=1024)
        feasible_fraction = np.mean(np.isfinite(w))
        assert 0 < feasible_fraction < 1
        # feasible arc is |t| <= 0.5, about 1/(2pi) of the circle
        assert feasible_fraction == pytest.approx(1.0 / (2 * math.pi), abs=0.01)

    def test_incompatible_hard_core_orbit_raises(self):
        # two neighbours of the origin pinned at 0 and two at pi: no rotation
        # keeps every bond inside the hard-core window
        orbit = OrbitConfiguration.constant(1)
        sites = lattice.layer_sites(1)
        orbit.layers[1][sites.index((1, 0))] = 0.0
        orbit.layers[1][sites.index((-1, 0))] = 0.0
        orbit.layers[1][sites.index((0, 1))] = math.pi
        orbit.layers[1][sites.index((0, -1))] = math.pi
        with pytest.raises(ValueError):
            layer_potential(0, orbit, aizenman(0.3), grid_size=512)


def _dict_deltas(k, orbit):
    """Bond differences by dict lookups over `layer_sites`, in
    `interlayer_bonds` order: the reference for the cached index arrays."""
    inner_index = {s: i for i, s in enumerate(lattice.layer_sites(k))}
    outer_index = {s: i for i, s in enumerate(lattice.layer_sites(k + 1))}
    inner, outer = orbit.angles_at(k), orbit.angles_at(k + 1)
    deltas = []
    for u, v in lattice.interlayer_bonds(k):
        if u in inner_index:
            deltas.append(inner[inner_index[u]] - outer[outer_index[v]])
        else:
            deltas.append(inner[inner_index[v]] - outer[outer_index[u]])
    return np.asarray(deltas)


def _tabulated(k, orbit, pot, m):
    """W_k by calling the potential on the (bonds x grid) array of angles."""
    t = circle_grid(m)
    return pot(t[None, :] + _dict_deltas(k, orbit)[:, None]).sum(axis=0)


def _tolerance(k, pot):
    poly = pot.fourier
    size = abs(poly.c0) + np.abs(poly.cos_coeffs).sum() + np.abs(poly.sin_coeffs).sum()
    return 1e-12 * (len(lattice.interlayer_bonds(k)) * size + 1.0)


def _trig_potential(poly):
    return PairPotential("trig", poly, fourier=poly)


GRIDS = [16, 63, 1024]


class TestFourierPath:
    """A potential with a Fourier form gets W_k from its modes; the
    tabulation is the reference."""

    @pytest.mark.parametrize("m", GRIDS)
    @pytest.mark.parametrize("make", [
        lambda: xy(0.25), lambda: xy(1.0), lambda: xy(7.5),
        lambda: _trig_potential(decompose(absval(), 0.25).smooth),  # degree 8
    ], ids=["xy0.25", "xy1", "xy7.5", "absval-smooth-part"])
    def test_matches_tabulation(self, make, m):
        pot = make()
        orbit = OrbitConfiguration.random(4, np.random.default_rng(21))
        for k in range(5):
            w = layer_potential(k, orbit, pot, grid_size=m)
            assert np.max(np.abs(w - _tabulated(k, orbit, pot, m))) <= _tolerance(k, pot)

    @pytest.mark.parametrize("m", GRIDS)
    def test_hard_core_mask_is_identical(self, m):
        # a nearly aligned orbit is feasible for the cutoff 0.5 at every layer
        rng = np.random.default_rng(23)
        orbit = OrbitConfiguration.constant(3)
        for cfg in orbit.layers + [orbit.boundary]:
            cfg += rng.uniform(-0.1, 0.1, size=len(cfg))
        pot = aizenman(0.5)
        for k in range(4):
            w = layer_potential(k, orbit, pot, grid_size=m)
            ref = _tabulated(k, orbit, pot, m)
            finite = np.isfinite(ref)
            assert np.array_equal(np.isfinite(w), finite)
            assert np.all(w[~finite] == np.inf)
            assert np.max(np.abs(w[finite] - ref[finite])) <= _tolerance(k, pot)

    @pytest.mark.parametrize("m", GRIDS)
    def test_absval_tabulation_is_bitwise(self, m):
        # no Fourier form: the cached bond indices give the dict lookups'
        # differences, summed in the same order
        orbit = OrbitConfiguration.random(4, np.random.default_rng(24))
        for k in range(5):
            w = layer_potential(k, orbit, absval(), grid_size=m)
            assert np.array_equal(w, _tabulated(k, orbit, absval(), m))

    @pytest.mark.parametrize("n", [5, 32, 40])
    @pytest.mark.parametrize("make", [absval, logsing])
    def test_blocked_tabulation_is_bitwise(self, make, n):
        # blocks of bonds sum in the one-shot table's order; layer k has
        # 8k + 4 bonds, never a multiple of the block size, in one block up
        # to k = 3 and in up to 11 blocks at k = 40
        pot = make()
        orbit = OrbitConfiguration.random(n, np.random.default_rng(24 + n))
        for k in range(n + 1):
            w = layer_potential(k, orbit, pot, grid_size=1024)
            assert np.array_equal(w, _tabulated(k, orbit, pot, 1024))

    def test_memory_budget(self):
        # blocks of 32 bonds peak near 1.2 MB at every k of n = 32, grid
        # 1024; the one-shot (bonds x grid) table took about 6.9 MB at k = 32
        orbit = OrbitConfiguration.random(32, np.random.default_rng(25))
        tracemalloc.start()
        try:
            peak = 0
            for k in range(33):
                tracemalloc.reset_peak()
                layer_potential(k, orbit, absval(), grid_size=1024)
                peak = max(peak, tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        assert peak < 2.5e6


class TestCircleDensity:
    def test_uniform(self):
        q = CircleDensity(np.ones(128))
        assert q.fourier(0) == pytest.approx(1.0)
        assert abs(q.fourier(1)) < 1e-12
        assert q.sup_deviation == 0.0

    def test_rejects_negative(self):
        vals = np.ones(64)
        vals[0] = -0.5
        with pytest.raises(ValueError):
            CircleDensity(vals)

    def test_rejects_unnormalized(self):
        with pytest.raises(ValueError):
            CircleDensity(np.full(64, 2.0))

    def test_pure_mode(self):
        t = circle_grid(256)
        q = CircleDensity(1.0 + 0.5 * np.cos(3 * t))
        assert q.fourier(3) == pytest.approx(0.25)
        assert q.fourier(-3) == pytest.approx(0.25)
        assert abs(q.fourier(2)) < 1e-12


class TestChiDensity:
    def test_bessel_oracle(self):
        # k=0 aligned orbit, J=0.25: density prop to e^{cos t},
        # so a_1 = I_1(1)/I_0(1)
        orbit = OrbitConfiguration.constant(2)
        q = chi_density(layer_potential(0, orbit, xy(0.25)))
        target = iv(1, 1.0) / iv(0, 1.0)
        assert q.fourier(1).real == pytest.approx(target, abs=1e-9)
        assert abs(q.fourier(1).imag) < 1e-12

    def test_bessel_oracle_higher_mode(self):
        orbit = OrbitConfiguration.constant(2)
        q = chi_density(layer_potential(0, orbit, xy(0.5)))
        assert q.fourier(2).real == pytest.approx(iv(2, 2.0) / iv(0, 2.0), abs=1e-9)

    def test_underflow_guard(self):
        # huge couplings must not overflow to nan
        orbit = OrbitConfiguration.constant(2)
        q = chi_density(layer_potential(1, orbit, xy(500.0)))
        assert np.all(np.isfinite(q.values))
        assert np.mean(q.values) == pytest.approx(1.0)

    def test_hard_core_support(self):
        orbit = OrbitConfiguration.constant(1)
        w = layer_potential(0, orbit, aizenman(0.5), grid_size=2048)
        q = chi_density(w)
        assert np.all(q.values[~np.isfinite(w)] == 0.0)
        assert np.mean(q.values) == pytest.approx(1.0)


class TestConvolve:
    def test_convolution_theorem(self):
        rng = np.random.default_rng(1)
        t = circle_grid(512)
        qs = []
        for _ in range(3):
            vals = np.exp(rng.uniform(0.2, 1.0) * np.cos(t + rng.normal()))
            qs.append(CircleDensity(vals / np.mean(vals)))
        conv = convolve(qs)
        for s in range(1, 6):
            prod = np.prod([q.fourier(s) for q in qs])
            assert conv.fourier(s) == pytest.approx(prod, abs=1e-10)

    def test_uniform_absorbs(self):
        t = circle_grid(256)
        vals = np.exp(np.cos(t))
        q = CircleDensity(vals / np.mean(vals))
        conv = convolve([q, CircleDensity(np.ones(256))])
        assert np.allclose(conv.values, 1.0, atol=1e-10)

    def test_grid_mismatch(self):
        with pytest.raises(ValueError):
            convolve([CircleDensity(np.ones(64)), CircleDensity(np.ones(128))])

    def test_flattens_toward_uniform(self):
        orbit = OrbitConfiguration.constant(6)
        pot = xy(1.0)
        qs = [chi_density(layer_potential(k, orbit, pot)) for k in range(7)]
        single = qs[0].sup_deviation
        assert convolve(qs).sup_deviation < single


class TestSupDensityBound:
    def test_quadrature_oracle(self):
        for k, c in [(0, 1.0), (3, 0.5), (10, 2.0)]:
            a = 8.0 * c * (k + 1)
            integral, _ = quad(lambda u: math.exp(-a * u * u), -math.pi, math.pi)
            assert sup_density_bound(k, c) == pytest.approx(2 * math.pi / integral)

    def test_zero_curvature(self):
        assert sup_density_bound(5, 0.0) == 1.0

    def test_caps_actual_densities(self):
        rng = np.random.default_rng(2)
        pot = xy(1.0)  # sup |U''| = 1
        orbit = OrbitConfiguration.random(4, rng)
        for k in range(5):
            q = chi_density(layer_potential(k, orbit, pot))
            assert q.values.max() <= sup_density_bound(k, 1.0) + 1e-9

    def test_c1_is_k0_cap_and_ratio_decreases(self):
        c = 1.0
        ratios = [sup_density_bound(k, c) / math.sqrt(k + 1) for k in range(200)]
        assert all(r1 >= r2 - 1e-12 for r1, r2 in zip(ratios, ratios[1:]))
        assert density_cap_constant(c) == ratios[0]


class TestFourierMaxBound:
    def test_rejects_cap_below_one(self):
        with pytest.raises(ValueError):
            fourier_max_bound(0.5)

    def test_cap_one_forces_uniform(self):
        coarse, sharp = fourier_max_bound(1.0)
        assert sharp == pytest.approx(0.0, abs=1e-15)
        assert coarse == pytest.approx(1.0 - 1.0 / 36.0)

    def test_sharp_below_coarse(self):
        for cap in [1.0, 1.5, 2.0, 5.0, 20.0]:
            coarse, sharp = fourier_max_bound(cap)
            assert sharp <= coarse

    def test_at_cap_two(self):
        _, sharp = fourier_max_bound(2.0)
        assert sharp == pytest.approx(2.0 / math.pi)


class TestExtremalOracle:
    def test_matches_sharp_bound(self):
        value, _ = extremal_fourier_oracle(2.0, 1)
        assert value == pytest.approx(2.0 / math.pi, abs=1e-3)

    def test_linprog_oracle(self):
        from scipy.optimize import linprog
        m, cap = 64, 2.5
        t = circle_grid(m)
        w = np.cos(t)
        res = linprog(-w / m, A_eq=np.ones((1, m)) / m, b_eq=[1.0],
                      bounds=[(0, cap)] * m, method="highs")
        value, q = extremal_fourier_oracle(cap, 1, m)
        assert value == pytest.approx(-res.fun, abs=1e-12)
        assert np.max(q) <= cap + 1e-12
        assert np.mean(q) == pytest.approx(1.0)

    def test_mode_invariance(self):
        # up to grid discretization the extremal value does not depend on the
        # mode; for s the grid effectively coarsens by a factor s
        v1, _ = extremal_fourier_oracle(3.0, 1, 1024)
        v4, _ = extremal_fourier_oracle(3.0, 4, 1024)
        assert v1 == pytest.approx(v4, abs=2e-3)

    def test_dominated_by_sharp_bound(self):
        for cap in [1.2, 2.0, 4.0]:
            value, _ = extremal_fourier_oracle(cap, 1)
            _, sharp = fourier_max_bound(cap)
            assert value <= sharp + 1e-9


class TestUniformityBound:
    def test_base_case(self):
        c1 = 10.0
        assert uniformity_bound(3, 4, c1) == pytest.approx(c1 * (4 * 5) ** 0.25)

    def test_decreasing_in_r(self):
        c1 = density_cap_constant(1.0)
        vals = [uniformity_bound(2, r, c1) for r in range(3, 40)]
        assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_power_law_decay_rate(self):
        # the product behaves like r^{-1/(36 c1^2)}; check the log-log slope
        c1 = 2.0
        r1, r2 = 10 ** 3, 10 ** 5
        slope = (math.log(uniformity_bound(0, r2, c1))
                 - math.log(uniformity_bound(0, r1, c1))) / math.log(r2 / r1)
        assert slope == pytest.approx(-1.0 / (36 * c1 * c1), rel=1e-2)

    def test_rejects_short_range(self):
        with pytest.raises(ValueError):
            uniformity_bound(3, 3, 10.0)


class TestIndependenceFactorization:
    """Exact check on a tiny discretized box that the increment angles are
    independent with densities e^{-W_k}, computed from the full Hamiltonian."""

    def _joint_from_hamiltonian(self, orbit, pot, m):
        n = orbit.n
        psi_grid = circle_grid(m)
        layer_of = {}
        phase_of = {}
        for k in range(n + 2):
            for i, s in enumerate(lattice.layer_sites(k)):
                layer_of[s] = k
                phase_of[s] = orbit.angles_at(k)[i]
        bonds = set()
        for s in layer_of:
            for d in [(1, 0), (0, 1)]:
                t = (s[0] + d[0], s[1] + d[1])
                if t in layer_of and min(layer_of[s], layer_of[t]) <= n:
                    bonds.add((s, t))
        # rotation angle per layer; the boundary layer n+1 stays fixed
        psis = list(np.meshgrid(*([psi_grid] * (n + 1)), indexing="ij"))
        psis.append(np.zeros_like(psis[0]))
        energy = np.zeros_like(psis[0])
        for u, v in bonds:
            delta = phase_of[u] - phase_of[v]
            energy += pot(delta + psis[layer_of[u]] - psis[layer_of[v]])
        weight = np.exp(-(energy - energy.min()))
        return weight / weight.sum()

    @pytest.mark.parametrize("pot_name", ["xy", "absval"])
    def test_factorizes_n2(self, pot_name):
        pot = {"xy": xy(0.8), "absval": absval()}[pot_name]
        rng = np.random.default_rng(11)
        orbit = OrbitConfiguration.random(2, rng)
        m = 16
        joint_psi = self._joint_from_hamiltonian(orbit, pot, m)
        # change variables to increments chi_k = psi_k - psi_{k+1}; the grid
        # is the cyclic group Z_m, so the map is a bijection
        joint_chi = np.zeros_like(joint_psi)
        for idx in itertools.product(range(m), repeat=3):
            chi = ((idx[0] - idx[1]) % m, (idx[1] - idx[2]) % m, idx[2])
            joint_chi[chi] = joint_psi[idx]
        marginals = []
        for k in range(3):
            w = layer_potential(k, orbit, pot, grid_size=m)
            q = np.exp(-(w - w.min()))
            marginals.append(q / q.sum())
        product = np.einsum("i,j,k->ijk", *marginals)
        assert np.allclose(joint_chi, product, atol=1e-12)

    def test_marginals_match_chi_density(self):
        pot = xy(0.8)
        rng = np.random.default_rng(5)
        orbit = OrbitConfiguration.random(2, rng)
        m = 16
        joint_psi = self._joint_from_hamiltonian(orbit, pot, m)
        # marginal of chi_0 from the exact joint
        marg = np.zeros(m)
        for idx in itertools.product(range(m), repeat=3):
            marg[(idx[0] - idx[1]) % m] += joint_psi[idx]
        q = chi_density(layer_potential(0, orbit, pot, grid_size=m))
        assert np.allclose(marg * m, q.values, atol=1e-10)
