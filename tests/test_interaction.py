import math

import numpy as np
import pytest

from spinlab.interaction import (
    DiscretizedToySystem,
    TrigPolynomial,
    _truncated_fourier,
    absval,
    aizenman,
    circle_dist,
    decompose,
    domination_epsilon,
    logsing,
    potential_preset,
    second_derivative_bound,
    verify_condition_51,
    wrap_angle,
    xy,
)

GRID = -math.pi + 2 * math.pi * np.arange(4096) / 4096


class TestPotentials:
    def test_xy_values(self):
        pot = xy(2.0)
        assert pot(0.0) == pytest.approx(-2.0)
        assert pot(math.pi / 2) == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize("pot", [xy(1.0), aizenman(0.5), logsing(), absval()])
    def test_symmetry(self, pot):
        phis = np.linspace(-3, 3, 101)
        assert np.allclose(pot(phis), pot(-phis), equal_nan=True)

    def test_hard_core_is_infinite_beyond_cutoff(self):
        pot = aizenman(0.5)
        assert pot(0.4) == pytest.approx(-math.cos(0.4))
        assert pot(0.6) == math.inf
        assert pot(0.5) < math.inf  # boundary included

    def test_logsing_clamped(self):
        pot = logsing(-30.0)
        assert pot(0.0) == -30.0
        assert pot(1.0) == pytest.approx(0.0, abs=1e-12)

    def test_wrap_angle_range(self):
        vals = wrap_angle(np.linspace(-20, 20, 1001))
        assert np.all(vals >= -math.pi)
        assert np.all(vals < math.pi)

    def test_preset_parsing(self):
        assert potential_preset("xy(0.5)")(0.0) == pytest.approx(-0.5)
        assert potential_preset("absval")(1.0) == pytest.approx(1.0)
        with pytest.raises(ValueError):
            potential_preset("bogus(1)")


class TestDecompose:
    def test_cosine_is_already_trig(self):
        dec = decompose(xy(1.0), eps=0.1)
        ups = dec.upsilon(GRID)
        assert np.max(np.abs(ups)) <= 0.1
        assert np.min(ups) >= -1e-9
        # degree-1 fit reproduces -cos exactly
        assert dec.smooth.cos_coeffs[0] == pytest.approx(-1.0, abs=1e-12)

    def test_absval_decomposes(self):
        dec = decompose(absval(), eps=0.2)
        dec.verify()
        ups = dec.upsilon(GRID)
        assert np.min(ups) >= -1e-9
        assert np.max(ups) <= 0.2 + 1e-9

    def test_logsing_decomposes(self):
        dec = decompose(logsing(-30.0), eps=0.5)
        dec.verify()
        # upsilon concentrated near the singularity
        ups = dec.upsilon(GRID)
        far = np.abs(GRID) > 0.5
        assert np.max(np.abs(ups[far])) < np.max(ups)

    def test_hard_core_rejected(self):
        with pytest.raises(ValueError):
            decompose(aizenman(0.5), eps=0.1)

    def test_too_rough_raises(self):
        with pytest.raises(ValueError):
            decompose(absval(), eps=1e-9, max_degree=4)

    @pytest.mark.parametrize("m", [64, 65, 256])
    def test_full_degree_interpolates_grid(self, m):
        # degree floor(m/2) has as many free values as the grid; on an even
        # grid the Nyquist mode must be counted once, not twice
        grid = -math.pi + 2 * math.pi * np.arange(m) / m
        vals = np.random.default_rng(m).normal(size=m)
        poly = _truncated_fourier(vals, m // 2)
        assert np.max(np.abs(poly(grid) - vals)) < 1e-12


class TestSecondDerivativeBound:
    def test_pure_cosine(self):
        poly = TrigPolynomial(0.0, np.array([-1.0]), np.array([0.0]))
        assert second_derivative_bound(poly) == pytest.approx(1.0)

    def test_two_modes(self):
        poly = TrigPolynomial(0.0, np.array([-1.0, -0.5]), np.zeros(2))
        bound = second_derivative_bound(poly)
        assert bound == pytest.approx(3.0)
        # grid oracle: numerically differentiated maximum never exceeds it
        grid_max = np.max(poly.second_derivative(GRID))
        assert grid_max <= bound * (1 + 1e-8)

    def test_constant(self):
        poly = TrigPolynomial(3.0, np.zeros(0), np.zeros(0))
        assert second_derivative_bound(poly) == 0.0

    @pytest.mark.parametrize("seed", range(5))
    def test_random_polynomials(self, seed):
        rng = np.random.default_rng(seed)
        deg = int(rng.integers(1, 8))
        poly = TrigPolynomial(float(rng.normal()),
                              rng.normal(size=deg), rng.normal(size=deg))
        bound = second_derivative_bound(poly)
        assert np.max(poly.second_derivative(GRID)) <= bound * (1 + 1e-8) + 1e-12


def _dec_with_upsilon(ups_func, eps):
    """Decomposition object with a prescribed upsilon over a smooth -cos part."""
    smooth = TrigPolynomial(0.0, np.array([-1.0]), np.array([0.0]))

    class FakePot:
        def __call__(self, phi):
            phi = wrap_angle(phi)
            return smooth(phi) - ups_func(phi)

    from spinlab.interaction import SingularDecomposition
    return SingularDecomposition(smooth, FakePot(), eps, GRID)


class TestCondition51:
    def test_zero_upsilon_gives_ratio_one(self):
        dec = _dec_with_upsilon(lambda p: np.zeros_like(p), eps=0.01)
        assert verify_condition_51(dec) == pytest.approx(1.0, abs=1e-12)

    def test_constant_upsilon(self):
        c = 0.03
        dec = _dec_with_upsilon(lambda p: np.full_like(p, c), eps=c)
        assert verify_condition_51(dec) == pytest.approx(math.exp(4 * c), rel=1e-10)

    def test_absval_decomposition_ratio(self):
        dec = decompose(absval(), eps=0.05)
        ratio = verify_condition_51(dec)
        assert 1.0 <= ratio <= math.exp(4 * 0.05) + 1e-9

    def test_rotation_invariance(self):
        # shifting all four boundary angles together must leave the single
        # integral unchanged; spot-check the raw integrals at random shifts
        rng = np.random.default_rng(7)
        dec = decompose(absval(), eps=0.1)
        m = 4096
        grid = GRID
        u = dec.smooth(grid)
        v = u - dec.original(grid)
        for _ in range(5):
            idx = rng.integers(0, m, size=4)
            shift = int(rng.integers(0, m))
            su0 = sum(np.roll(u, int(i)) for i in idx)
            sv0 = sum(np.roll(v, int(i)) for i in idx)
            su1 = sum(np.roll(u, int((i + shift) % m)) for i in idx)
            sv1 = sum(np.roll(v, int((i + shift) % m)) for i in idx)
            r0 = np.exp(-su0 + sv0).mean() / np.exp(-su0).mean()
            r1 = np.exp(-su1 + sv1).mean() / np.exp(-su1).mean()
            assert r0 == pytest.approx(r1, rel=1e-10)


class TestDominationEpsilon:
    def test_ratio_one(self):
        assert domination_epsilon(1.0) == 0.0

    def test_definitional(self):
        assert domination_epsilon(1.05) == pytest.approx(0.05)

    def test_rejects_ratio_below_one(self):
        with pytest.raises(ValueError):
            domination_epsilon(0.9)

    def test_warns_when_vacuous(self):
        with pytest.warns(UserWarning):
            domination_epsilon(2.5)


class TestToySystem:
    def _system(self, c, n=1, states=8):
        return DiscretizedToySystem(
            n=n, states=states,
            smooth=lambda p: -np.cos(p),
            upsilon=lambda p: np.full_like(np.asarray(p, dtype=float), c))

    def test_constant_upsilon_conditional_is_exact(self):
        # with upsilon == c the tilting factor exits the integral and every
        # conditional equals (e^c - 1)/e^c regardless of the conditioning
        c = 0.05
        sys = self._system(c)
        expected = math.expm1(c) / math.exp(c)
        rng = np.random.default_rng(3)
        bond = sys.bonds[0]
        for _ in range(4):
            size = int(rng.integers(0, len(sys.bonds)))
            cond = set(rng.choice(len(sys.bonds), size=size, replace=False))
            conditioning = {sys.bonds[i] for i in cond}
            p = sys.conditional_open_probability(bond, conditioning)
            assert p == pytest.approx(expected, rel=1e-10)

    def test_domination_on_2x2_exhaustive_small(self):
        # 1x1 "box" (single site, 4 boundary bonds): enumerate every
        # conditioning for every bond
        c = 0.05
        sys = self._system(c, n=0, states=8)
        assert len(sys.bonds) == 4
        eps = math.exp(4 * c) - 1
        import itertools
        for bond in sys.bonds:
            others = [b for b in sys.bonds if b != bond]
            for r in range(len(others) + 1):
                for cond in itertools.combinations(others, r):
                    p = sys.conditional_open_probability(bond, set(cond))
                    assert p <= eps

    def test_bond_count(self):
        assert len(self._system(0.01).bonds) == 24
