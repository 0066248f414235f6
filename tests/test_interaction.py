import math
import tracemalloc

import numpy as np
import pytest

from exact import DiscretizedToySystem, upsilon
from spinlab.interaction import (
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
BELOW_MINUS_PI = np.nextafter(-math.pi, -np.inf)


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

    @staticmethod
    def _angles():
        """Signed zeros, subnormals, +-pi, +-pi/2 and their float neighbours,
        and random values at magnitudes 1e-300 to 1e6."""
        special = [0.0, 5e-324, 1e-310, 2.2250738585072014e-308]
        for a in (math.pi, math.pi / 2):
            special += [a, np.nextafter(a, 0.0), np.nextafter(a, np.inf)]
        special = np.array(special)
        rng = np.random.default_rng(0)
        mags = 10.0 ** np.arange(-300, 7, 17)
        rand = (rng.uniform(-1.0, 1.0, (len(mags), 2000)) * mags[:, None]).ravel()
        return np.concatenate([special, -special, rand])

    @staticmethod
    def _bits(x):
        return np.asarray(x, dtype=float).view(np.uint64)

    def test_wrap_angle_is_idempotent(self):
        x = self._angles()
        x = x[x != BELOW_MINUS_PI]  # see the next test
        w = wrap_angle(x)
        assert np.array_equal(self._bits(wrap_angle(w)), self._bits(w))

    def test_wrap_angle_just_below_minus_pi(self):
        # the one exception: x + pi is minus half an ulp of 2 pi, so np.mod
        # rounds up to 2 pi and the wrap lands on +pi, which wraps again to
        # -pi.  |phi| is the same, so no potential tells them apart.
        assert wrap_angle(BELOW_MINUS_PI) == math.pi
        assert wrap_angle(wrap_angle(BELOW_MINUS_PI)) == -math.pi

    @staticmethod
    def _mod_wrap(phi):
        return np.mod(np.asarray(phi) + math.pi, 2 * math.pi) - math.pi

    def test_wrap_angle_is_bitwise_the_mod_form(self):
        turns = 2 * math.pi * np.arange(-50.0, 51.0)
        x = np.concatenate([
            [0.0, -0.0, math.pi, -math.pi, BELOW_MINUS_PI, np.inf, -np.inf, np.nan],
            turns, np.nextafter(turns, np.inf), np.nextafter(turns, -np.inf),
            (np.geomspace(1e-300, 1e300, 601)[:, None] * [1, -1]).ravel(),
            self._angles(),
        ])
        kept = x.copy()
        with np.errstate(invalid="ignore"):
            got, expected = wrap_angle(x), self._mod_wrap(x)
        assert np.array_equal(self._bits(got), self._bits(expected))
        assert np.array_equal(self._bits(x), self._bits(kept))  # input unchanged

    @pytest.mark.parametrize("phi", [
        -0.0, BELOW_MINUS_PI, 7 * math.pi, np.array(-math.pi), np.array(1e300),
        np.arange(-9, 10), np.linspace(-20, 20, 64)[::3],
        np.linspace(-20, 20, 64).reshape(8, 8).T, np.linspace(-20, 20, 64)[::-1]],
        ids=["float-0", "float-below-pi", "float-7pi", "0d-pi", "0d-huge", "int",
             "strided", "transposed", "reversed"])
    def test_wrap_angle_forms_of_input(self, phi):
        kept = np.array(phi, copy=True)
        got = wrap_angle(phi)
        assert np.shape(got) == np.shape(phi)
        assert np.array_equal(self._bits(got), self._bits(self._mod_wrap(phi)))
        assert np.array_equal(np.asarray(phi), kept)

    @pytest.mark.parametrize("make", [absval, logsing, lambda: aizenman(0.5)],
                             ids=["absval", "logsing", "aizenman"])
    def test_one_wrap_matches_two(self, make):
        # the formulas before each potential stopped wrapping its own
        # (already wrapped) argument, by circle_dist
        cutoff = 0.5
        twice = {
            "absval": lambda p: circle_dist(p),
            "logsing": lambda p: np.maximum(np.log(circle_dist(p)), -30.0),
            "aizenman": lambda p: np.where(circle_dist(p) > cutoff, np.inf,
                                           -np.cos(p)),
        }
        pot = make()
        x = self._angles()
        with np.errstate(divide="ignore"):
            expected = twice[pot.name.split("(")[0]](wrap_angle(x))
            got = pot(x)
        assert np.array_equal(self._bits(got), self._bits(expected))

    def test_preset_parsing(self):
        assert potential_preset("xy(0.5)")(0.0) == pytest.approx(-0.5)
        assert potential_preset("absval")(1.0) == pytest.approx(1.0)
        with pytest.raises(ValueError):
            potential_preset("bogus(1)")


def dense_upsilon_range(dec, grid_size):
    """Reference [min, max] of upsilon on the 16x finer grid, all 16 *
    grid_size angles at once: the smooth part by one FFT of that size."""
    fine = 16 * grid_size
    ups = dec.smooth.on_grid(fine) - dec.original(
        -math.pi + 2 * math.pi * np.arange(fine) / fine)
    return float(np.min(ups)), float(np.max(ups))


def traced_peak(fn):
    """tracemalloc's peak, in bytes, while fn() runs."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestDecompose:
    def test_cosine_is_already_trig(self):
        dec = decompose(xy(1.0), eps=0.1)
        ups = upsilon(dec, GRID)
        assert np.max(np.abs(ups)) <= 0.1
        assert np.min(ups) >= -1e-9
        # degree-1 fit reproduces -cos exactly
        assert dec.smooth.cos_coeffs[0] == pytest.approx(-1.0, abs=1e-12)

    def test_absval_decomposes(self):
        dec = decompose(absval(), eps=0.2)
        ups = upsilon(dec, GRID)
        assert np.min(ups) >= -1e-9
        assert np.max(ups) <= 0.2 + 1e-9

    def test_absval_upsilon_between_nodes(self):
        # off every grid decompose used: 100003 is prime
        dec = decompose(absval(), eps=0.5)
        ups = upsilon(dec, -math.pi + 2 * math.pi * np.arange(100003) / 100003)
        assert np.min(ups) >= -1e-12
        assert 0.31 < np.max(ups) <= 0.3122

    @pytest.mark.parametrize("grid", [256, 1024, 4096])
    def test_logsing_refused(self, grid):
        # the grid interpolant of log|phi| meets the potential at the nodes
        # and overshoots between them
        with pytest.raises(ValueError, match="too rough for this eps"):
            decompose(logsing(-30.0), eps=0.5, grid_size=grid)

    def test_hard_core_rejected(self):
        with pytest.raises(ValueError):
            decompose(aizenman(0.5), eps=0.1)

    def test_too_rough_raises(self):
        # the degree-2048 interpolant is exact on the grid, not between nodes
        with pytest.raises(ValueError, match="too rough for this eps"):
            decompose(absval(), eps=1e-9)

    @pytest.mark.parametrize("pot, eps, grid", [
        *[(absval(), eps, grid) for eps in (0.05, 0.25, 0.5) for grid in (256, 4096)],
        (xy(1.0), 0.1, 4096),
    ])
    def test_upsilon_range_matches_dense_reference(self, pot, eps, grid):
        dec = decompose(pot, eps, grid_size=grid)
        lo, hi = dec.upsilon_range(grid)
        ref_lo, ref_hi = dense_upsilon_range(dec, grid)
        assert lo == pytest.approx(ref_lo, abs=1e-12)
        assert hi == pytest.approx(ref_hi, abs=1e-12)

    @pytest.mark.parametrize("pot, eps, grid, span", [
        (logsing(), 0.5, 4096, "[-20.84, 4.978]"),
        (logsing(), 0.5, 256, "[-23.55, 5.579]"),
        (absval(), 1e-9, 4096, "[-0.0002902, 0.0002902]"),
    ])
    def test_refusal_text(self, pot, eps, grid, span):
        with pytest.raises(ValueError) as info:
            decompose(pot, eps, grid_size=grid)
        assert str(info.value) == (
            f"upsilon spans {span} on a grid 16x finer, outside [0, {eps:g}]; "
            "potential too rough for this eps")

    def test_memory_budget(self):
        # the 16x check one coset at a time peaks near 0.3 MB; the whole
        # 65,536-angle grid at once took about 2.7 MB
        assert traced_peak(lambda: decompose(absval(), 0.5, grid_size=4096)) < 1.0e6

    @pytest.mark.parametrize("m", [64, 65, 256])
    def test_full_degree_interpolates_grid(self, m):
        # degree floor(m/2) has as many free values as the grid; on an even
        # grid the Nyquist mode must be counted once, not twice
        grid = -math.pi + 2 * math.pi * np.arange(m) / m
        vals = np.random.default_rng(m).normal(size=m)
        poly = _truncated_fourier(vals, m // 2)
        assert np.max(np.abs(poly(grid) - vals)) < 1e-12


class TestOnGrid:
    @pytest.mark.parametrize("m", [64, 65])
    @pytest.mark.parametrize("degree", [1, 31, 32, 33, 66, 150])
    def test_matches_direct_sum(self, m, degree):
        # below m/2, at m/2 and above m: modes past m/2 alias onto the grid
        rng = np.random.default_rng(degree * m)
        poly = TrigPolynomial(float(rng.normal()), rng.normal(size=degree),
                              rng.normal(size=degree))
        grid = -math.pi + 2 * math.pi * np.arange(m) / m
        scale = abs(poly.c0) + np.abs(poly.cos_coeffs).sum() + np.abs(poly.sin_coeffs).sum()
        assert np.max(np.abs(poly.on_grid(m) - poly(grid))) < 1e-12 * scale

    def test_constant(self):
        poly = TrigPolynomial(2.5, np.zeros(0), np.zeros(0))
        assert np.array_equal(poly.on_grid(8), np.full(8, 2.5))


def _second_derivative(poly, phi):
    """U'' of a trigonometric polynomial, mode by mode: the reference that
    `second_derivative_bound` must dominate."""
    s = np.arange(1, poly.degree + 1)[:, None]
    return -(s * s * (poly.cos_coeffs[:, None] * np.cos(s * phi)
                      + poly.sin_coeffs[:, None] * np.sin(s * phi))).sum(axis=0)


class TestSecondDerivativeBound:
    def test_pure_cosine(self):
        poly = TrigPolynomial(0.0, np.array([-1.0]), np.array([0.0]))
        assert second_derivative_bound(poly) == pytest.approx(1.0)

    def test_two_modes(self):
        poly = TrigPolynomial(0.0, np.array([-1.0, -0.5]), np.zeros(2))
        bound = second_derivative_bound(poly)
        assert bound == pytest.approx(3.0)
        # grid oracle: the maximum of U'' on the grid never exceeds it
        grid_max = np.max(_second_derivative(poly, GRID))
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
        assert np.max(_second_derivative(poly, GRID)) <= bound * (1 + 1e-8) + 1e-12


def _dec_with_upsilon(ups_func, smooth=None):
    """Decomposition object with a prescribed upsilon over a smooth part
    (-cos unless given)."""
    if smooth is None:
        smooth = TrigPolynomial(0.0, np.array([-1.0]), np.array([0.0]))

    class FakePot:
        def __call__(self, phi):
            phi = wrap_angle(phi)
            return smooth(phi) - ups_func(phi)

    from spinlab.interaction import SingularDecomposition
    return SingularDecomposition(smooth, FakePot())


def broadcast_condition_51(dec):
    """Reference ratio: every (phi_3, phi_4) block for one phi_2 as a
    (P, P, m) array, each shifted by its own minimum, the smooth part summed
    mode by mode."""
    m, search_points = 2048, 32
    grid = -math.pi + 2 * math.pi * np.arange(m) / m
    u = dec.smooth(grid)
    v = u - dec.original(grid)
    shifts = np.arange(search_points) * (m // search_points)
    u_roll = np.stack([np.roll(u, s) for s in shifts])
    v_roll = np.stack([np.roll(v, s) for s in shifts])
    worst = 1.0
    for i2 in range(search_points):
        su = u_roll[0] + u_roll[i2] + u_roll[:, None, :] + u_roll[None, :, :]
        sv = v_roll[0] + v_roll[i2] + v_roll[:, None, :] + v_roll[None, :, :]
        su -= su.min(axis=-1, keepdims=True)
        ratio = np.exp(-su + sv).mean(axis=-1) / np.exp(-su).mean(axis=-1)
        worst = max(worst, float(np.max(ratio)))
    return worst


class TestCondition51:
    def test_zero_upsilon_gives_ratio_one(self):
        dec = _dec_with_upsilon(lambda p: np.zeros_like(p))
        assert verify_condition_51(dec) == pytest.approx(1.0, abs=1e-12)

    def test_constant_upsilon(self):
        c = 0.03
        dec = _dec_with_upsilon(lambda p: np.full_like(p, c))
        assert verify_condition_51(dec) == pytest.approx(math.exp(4 * c), rel=1e-10)

    def test_absval_decomposition_ratio(self):
        dec = decompose(absval(), eps=0.05)
        ratio = verify_condition_51(dec)
        assert 1.0 <= ratio <= math.exp(4 * 0.05) + 1e-9

    @pytest.mark.parametrize("make", [
        lambda: decompose(absval(), eps=0.05),
        lambda: decompose(absval(), eps=0.5),
        lambda: _dec_with_upsilon(
            lambda p: 0.1 * np.sin(p / 2) ** 2,
            smooth=TrigPolynomial(0.0, *np.random.default_rng(51)
                                  .normal(scale=0.5, size=(2, 6)))),
        lambda: decompose(xy(150.0), eps=0.1),
    ], ids=["absval-0.05", "absval-0.5", "random", "xy150"])
    def test_matches_broadcast_reference(self, make):
        dec = make()
        assert verify_condition_51(dec) == pytest.approx(
            broadcast_condition_51(dec), rel=1e-12)

    @pytest.mark.parametrize("eps, ratio", [
        (0.5, 2.049050625735067),
        (0.25, 1.3945458776725452),
        (0.05, 1.0830679041537048),
    ])
    def test_absval_ratio_digits(self, eps, ratio):
        # the value the decompose51 summary prints, to the last bit
        assert verify_condition_51(decompose(absval(), eps)) == ratio

    def test_memory_budget(self):
        # one row array, one product buffer and the 32 untilted matrices
        # peak near 1.46 MB; the indexed rolls and both weight arrays took
        # about 2.2 MB
        dec = decompose(absval(), 0.5, grid_size=4096)
        assert traced_peak(lambda: verify_condition_51(dec)) < 1.8e6

    def test_underflow_raises(self):
        # with the four boundary angles spread out, the untilted sum for
        # xy(J) is about e^{-4J}, far below the smallest normal float
        with pytest.raises(ValueError, match="quadrature failure"):
            verify_condition_51(decompose(xy(400.0), eps=0.1))

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

    def test_one_site_partition_function(self):
        # one site inside, its four neighbours at angle 0: Z(A) is the sum
        # over its q states of the four bond weights, the tilted ones times
        # e^upsilon - 1.  A smooth part that is not even tells the bonds to
        # the left and below (difference -phi) from the others (+phi).
        q, c = 8, 0.05
        sys = DiscretizedToySystem(
            n=0, states=q, smooth=lambda p: -np.cos(p) - 0.3 * np.sin(p),
            upsilon=lambda p: np.full_like(np.asarray(p, dtype=float), c))
        phi = 2 * math.pi * np.arange(q) / q
        up = np.exp(np.cos(phi) + 0.3 * np.sin(phi))  # right and top bonds
        down = np.exp(np.cos(phi) - 0.3 * np.sin(phi))  # left and bottom bonds
        for k in range(5):
            expected = float(np.sum(up ** 2 * down ** 2)) * math.expm1(c) ** k
            assert sys.partition_function(sys.bonds[:k]) == pytest.approx(
                expected, rel=1e-12)

    @pytest.mark.parametrize("q", [3, 4])
    def test_box_partition_function_by_enumeration(self, q):
        # every state of the nine spins of the 3x3 box, summed directly.  A
        # smooth part and an upsilon that are not even tell the two
        # orientations of each bond apart: bond (u, v), u < v, weighs the
        # difference phi_u - phi_v, and the boundary sits at angle 0
        import itertools

        def smooth(p):
            return -np.cos(p) - 0.3 * np.sin(p)

        def upsilon(p):
            return 0.05 + 0.02 * np.cos(p) + 0.01 * np.sin(p)

        sys = DiscretizedToySystem(n=1, states=q, smooth=smooth, upsilon=upsilon)
        states = np.array(list(itertools.product(range(q), repeat=9)))
        angle = dict(zip(((x, y) for x in (-1, 0, 1) for y in (-1, 0, 1)),
                         2 * math.pi * states.T / q))
        rng = np.random.default_rng(q)
        for _ in range(6):
            tilted = {b for b in sys.bonds if rng.random() < 0.4}
            weight = np.ones(len(states))
            for b in sys.bonds:
                u, v = min(b), max(b)
                phi = angle.get(u, 0.0) - angle.get(v, 0.0)
                weight *= np.exp(-smooth(phi))
                if b in tilted:
                    weight *= np.expm1(upsilon(phi))
            assert sys.partition_function(tilted) == pytest.approx(
                float(weight.sum()), rel=1e-12)
