import math

import numpy as np
import pytest
from scipy.signal import convolve2d

from exact import y_kernel
from spinlab.lattice import sup_grid
from spinlab.longrange_walk import (
    WalkKernel,
    _tail_class,
    connectivity_bound,
    default_ladder,
    kernel_preset,
    nn_kernel,
    recurrence_classify,
    truncated_integrals,
)


class TestKernels:
    def test_nn_normalizes_to_quarter(self):
        w = nn_kernel()
        assert w.explicit[(1, 0)] == pytest.approx(0.25)
        assert w.explicit[(0, -1)] == pytest.approx(0.25)

    def test_powerlaw_mass(self):
        w = kernel_preset("powerlaw(4.0)", radius=256)
        assert w.grid_values().sum() == pytest.approx(1.0, abs=1e-12)

    def test_logcorr_monotone_tail(self):
        k = kernel_preset("logcorr(2)", radius=128)
        vals = k.rings[2:]
        assert np.all(np.diff(vals) < 0)

    def test_preset_parser(self):
        assert kernel_preset("nn").radius == 1
        assert kernel_preset("powerlaw(3.5)", radius=64).radius == 64
        assert len(kernel_preset("logcorr(2)", radius=64).rings) == 65
        assert kernel_preset(" logcorr_eps(2, 0.5) ", radius=64).radius == 64
        with pytest.raises(ValueError):
            kernel_preset("mystery")

    def test_preset_tails(self):
        assert kernel_preset("powerlaw(3.5)", radius=64).tail == (3.5,)
        assert kernel_preset("logcorr(3)", radius=64).tail == (4.0, 1.0, 1.0)
        assert kernel_preset("logcorr_eps(2, 0.5)", radius=64).tail == (4.0, 1.5)
        assert kernel_preset("nn").tail is None
        w = kernel_preset("logcorr_eps(3, 0.5)", radius=64)
        assert w.tail == (4.0, 1.0, 1.5)
        assert y_kernel(w, 0.2).tail == w.tail
        with pytest.raises(ValueError):
            kernel_preset("logcorr(1)")
        # c_4 = exp(exp(e)) ~ 3.8e6 is the last log offset a float holds
        assert kernel_preset("logcorr(4)", radius=64).tail == (4.0, 1.0, 1.0, 1.0)
        for spec in ("logcorr(5)", "logcorr_eps(5, 0.5)"):
            with pytest.raises(ValueError, match="log offset c_5 overflows"):
                kernel_preset(spec)

    def test_rejects_asymmetric(self):
        with pytest.raises(ValueError):
            WalkKernel(explicit={(1, 0): 1.0, (-1, 0): 0.5})

    def test_rejects_zero_kernel(self):
        with pytest.raises(ValueError):
            WalkKernel(rings=np.zeros(8))

    @pytest.mark.parametrize("radius", [3, 8])
    def test_ring_grid_values_site_by_site(self, radius):
        # kernel radius 5: one grid inside it, one reaching past it
        w = kernel_preset("powerlaw(3.0)", radius=5)
        g = w.grid_values(radius)
        assert g.shape == (2 * radius + 1, 2 * radius + 1)
        for x in range(-radius, radius + 1):
            for y in range(-radius, radius + 1):
                r = max(abs(x), abs(y))
                expect = w.rings[r] if 1 <= r <= 5 else 0.0
                assert g[x + radius, y + radius] == expect


class TestCharFunction:
    def test_nn_closed_form(self):
        w = nn_kernel()
        assert w.char_function(np.array([math.pi, math.pi])) == pytest.approx(-1.0)
        assert w.char_function(np.array([math.pi / 2, 0.0])) == pytest.approx(0.5)
        assert w.char_function(np.zeros(2)) == pytest.approx(1.0)

    def test_ring_formula_against_site_sum(self):
        # brute-force oracle: enumerate all sites of a small ring kernel
        w = kernel_preset("powerlaw(3.0)", radius=6)
        rng = np.random.default_rng(0)
        thetas = rng.uniform(-math.pi, math.pi, size=(40, 2))
        direct = np.zeros(40)
        for x in range(-6, 7):
            for y in range(-6, 7):
                r = max(abs(x), abs(y))
                if r == 0:
                    continue
                direct += w.rings[r] * np.cos(thetas[:, 0] * x + thetas[:, 1] * y)
        assert np.allclose(w.char_function(thetas), direct, atol=1e-12)

    def test_even_and_bounded(self):
        w = kernel_preset("powerlaw(4.0)", radius=32)
        rng = np.random.default_rng(1)
        thetas = rng.uniform(-math.pi, math.pi, size=(100, 2))
        phi = w.char_function(thetas)
        assert np.allclose(phi, w.char_function(-thetas), atol=1e-12)
        assert np.all(np.abs(phi) <= 1 + 1e-12)

    def test_small_theta_quadratic(self):
        # truncated kernels have finite second moment: 1 - phi ~ c |theta|^2
        w = kernel_preset("powerlaw(3.5)", radius=64)
        t = np.array([1e-3, 1e-3]) / math.sqrt(2)
        g1 = 1.0 - w.char_function(t)
        g2 = 1.0 - w.char_function(t / 2)
        assert g2 / g1 == pytest.approx(0.25, rel=1e-3)

    def test_gap_matches_second_moment(self):
        w = kernel_preset("powerlaw(4.0)", radius=32)
        x = np.arange(-32, 33)
        c2 = float(np.sum(w.grid_values() * (x[:, None] ** 2 + x ** 2)))  # sum |x|^2 j(x)
        t = np.array([1e-4, 0.0])
        gap = 1.0 - w.char_function(t)
        # symmetric kernel: 1 - phi ~ theta^2 c2 / 4 along an axis
        assert gap == pytest.approx(1e-8 * c2 / 4, rel=1e-4)


def _direct_gap(walk, thetas):
    """sum_x 2 j(x) sin^2(theta . x / 2) over the kernel's grid."""
    g = walk.grid_values()
    r = (g.shape[0] - 1) // 2
    x = np.arange(-r, r + 1)
    return np.array([np.sum(2.0 * g * np.sin(0.5 * (t1 * x[:, None] + t2 * x)) ** 2)
                     for t1, t2 in thetas])


def _gap_thetas():
    # |theta| from 1e-4 to pi in random directions, plus axis, diagonal and
    # half-period points
    rng = np.random.default_rng(7)
    mags = np.geomspace(1e-4, math.pi, 12)
    angs = rng.uniform(0.0, 2 * math.pi, 12)
    thetas = np.stack([mags * np.cos(angs), mags * np.sin(angs)], axis=1)
    return np.vstack([thetas, [[1e-4, 0.0], [0.0, math.pi], [math.pi, math.pi],
                               [2e-4, -1e-4]]])


class TestGap:
    # 1 - phi formed by subtraction misses these bounds, by 1e-9 to 1e-8
    # relative; the gap sums nonnegative terms and keeps full precision

    @pytest.mark.parametrize("spec", ["powerlaw(3.5)", "logcorr(2)", "nn"])
    def test_against_site_sum(self, spec):
        w = kernel_preset(spec, radius=512)
        thetas = _gap_thetas()
        direct = _direct_gap(w, thetas)
        assert np.all(np.abs(w.gap(thetas) - direct) <= 1e-13 * direct)
        assert np.array_equal(w.char_function(thetas), 1.0 - w.gap(thetas))

    def test_y_walk_resolvent(self):
        # 1 - phi_Y = (1 - phi) / (1 - eps phi), phi of the base walk; the
        # truncated d_eps grid differs from the resolvent by about 1e-12
        base = kernel_preset("powerlaw(3.5)", radius=32)
        y = y_kernel(base, 0.2)
        thetas = _gap_thetas()
        direct = _direct_gap(base, thetas)
        want = direct / (1.0 - 0.2 * (1.0 - direct))
        assert np.all(np.abs(y.gap(thetas) - want) <= 1e-13 * want)

    def test_shape_follows_theta(self):
        w = kernel_preset("powerlaw(3.0)", radius=6)
        thetas = np.random.default_rng(2).uniform(-1, 1, size=(3, 5, 2))
        assert w.gap(thetas).shape == (3, 5)
        assert w.gap(np.array([0.3, 0.1])).shape == ()


def _skewed_kernel():
    # symmetric under x -> -x only: unequal axis and unequal diagonal couplings
    return WalkKernel(explicit={
        (1, 0): 1.0, (-1, 0): 1.0, (0, 1): 2.0, (0, -1): 2.0,
        (1, 1): 0.5, (-1, -1): 0.5, (1, -1): 0.25, (-1, 1): 0.25})


def _walk(spec):
    if spec == "ring":
        return kernel_preset("powerlaw(3.0)", radius=40)
    if spec == "logcorr":
        return kernel_preset("logcorr(2)", radius=16)
    if spec == "nn":
        return nn_kernel()
    if spec == "y(nn)":
        return y_kernel(nn_kernel(), 0.2)
    return _skewed_kernel()


class TestMidpointGrid:
    @pytest.mark.parametrize("n_grid", [16, 17])
    @pytest.mark.parametrize("spec", ["ring", "nn", "y(nn)", "skewed"])
    def test_matches_char_function(self, spec, n_grid):
        # the ring kernel's radius 40 exceeds both grids, so the fold wraps
        w = _walk(spec)
        t = -math.pi + 2 * math.pi * (np.arange(n_grid) + 0.5) / n_grid
        tx, ty = np.meshgrid(t, t, indexing="ij")
        direct = w.char_function(np.stack([tx, ty], axis=-1))
        assert np.max(np.abs(w.midpoint_grid(n_grid) - direct)) < 1e-12


def _dense_midpoint_grid(walk, n_grid):
    # the fold of the whole (2R + 1)^2 kernel grid, F G F^T, then the phases
    r = walk.radius
    x = np.arange(-r, r + 1)
    q, m = np.divmod(x, n_grid)
    fold = np.zeros((n_grid, x.size))
    fold[m, np.arange(x.size)] = np.where((n_grid - 1) * q % 2, -1.0, 1.0)
    folded = fold @ walk.grid_values() @ fold.T
    phase = np.exp(1j * math.pi * (1.0 / n_grid - 1.0) * np.arange(n_grid))
    return np.fft.ifft2(phase[:, None] * folded * phase, norm="forward").real


class TestRingFold:
    """Ring kernels fold from box sums; the dense fold is the reference."""

    @pytest.mark.parametrize("spec, radius, n_grid", [
        ("powerlaw(3.5)", 512, 256), ("logcorr(2)", 512, 256),
        ("powerlaw(3.0)", 40, 16), ("powerlaw(3.0)", 40, 17),
        ("powerlaw(1.0)", 5, 16),
    ])
    def test_against_dense_fold(self, spec, radius, n_grid):
        # radius 40 wraps both grids, odd and even; radius 5 does not wrap
        w = kernel_preset(spec, radius)
        dense = _dense_midpoint_grid(w, n_grid)
        assert np.max(np.abs(w.midpoint_grid(n_grid) - dense)) < 1e-12


class TestSquareSymmetry:
    @pytest.mark.parametrize("spec", ["ring", "logcorr", "nn", "y(nn)"])
    def test_symmetric_kernels(self, spec):
        assert _walk(spec).square_symmetric

    @pytest.mark.parametrize("explicit", [
        {(1, 0): 1.0, (-1, 0): 1.0, (0, 1): 2.0, (0, -1): 2.0},  # flip only
        {(1, 1): 1.0, (-1, -1): 1.0},  # transpose only
    ])
    def test_asymmetric_kernels(self, explicit):
        assert not WalkKernel(explicit=explicit).square_symmetric

    def test_skewed_kernel(self):
        assert not _skewed_kernel().square_symmetric
        assert not y_kernel(_skewed_kernel(), 0.2).square_symmetric


def _full_circle_integrals(walk, ladder):
    """I(rho) by the module's quadrature with every point a ring sum and the
    annuli over all 96 angles."""
    n_grid = 256
    t = -math.pi + 2 * math.pi * (np.arange(n_grid) + 0.5) / n_grid
    tx, ty = np.meshgrid(t, t, indexing="ij")
    gap = 1.0 - walk.char_function(np.stack([tx, ty], axis=-1))
    mask = tx ** 2 + ty ** 2 > ladder[0] ** 2
    values = [float(np.sum(1.0 / gap[mask]) * (2 * math.pi / n_grid) ** 2)]
    n_r, n_phi = 24, 96
    for r_out, r_in in zip(ladder, ladder[1:]):
        lr = np.linspace(math.log(r_in), math.log(r_out), n_r + 1)
        rmid = np.exp((lr[:-1] + lr[1:]) / 2.0)
        dr = np.exp(lr[1:]) - np.exp(lr[:-1])
        ang = 2 * math.pi * (np.arange(n_phi) + 0.5) / n_phi
        rr, aa = np.meshgrid(rmid, ang, indexing="ij")
        gap = 1.0 - walk.char_function(
            np.stack([rr * np.cos(aa), rr * np.sin(aa)], axis=-1))
        w = rr * dr[:, None] * (2 * math.pi / n_phi)
        values.append(values[-1] + float(np.sum(w / gap)))
    return values


class TestOctantFold:
    @pytest.mark.parametrize("spec", ["powerlaw(3.5)", "logcorr(2)", "skewed"])
    def test_against_full_circle(self, spec):
        if spec == "skewed":
            w = _skewed_kernel()
        else:
            w = kernel_preset(spec, radius=64)
        ladder = default_ladder(w)
        got = np.asarray(truncated_integrals(w, ladder))
        ref = np.asarray(_full_circle_integrals(w, ladder))
        assert np.max(np.abs(got - ref) / ref) < 1e-10


class TestChapmanKolmogorov:
    def test_two_step_convolution(self):
        w = nn_kernel()
        g = w.grid_values(4)
        two = convolve2d(g, g, mode="same")
        # j^(2) at the origin is 1/4 (return probability of the simple walk)
        assert two[4, 4] == pytest.approx(0.25)
        # and at (1, 1): two ordered ways, each (1/4)^2
        assert two[5, 5] == pytest.approx(2 * 0.0625)

    def test_semigroup_property(self):
        w = kernel_preset("powerlaw(4.0)", radius=3)
        g = w.grid_values(12)
        g2 = convolve2d(g, g, mode="same")
        g3a = convolve2d(g2, g, mode="same")
        g3b = convolve2d(g, g2, mode="same")
        assert np.allclose(g3a, g3b, atol=1e-14)


class TestConnectivityBound:
    def test_geometric_mass_identity(self):
        # the full series has mass eps/(1 - eps)
        w = nn_kernel()
        d = connectivity_bound(w, 0.2)
        assert d.grid.sum() == pytest.approx(0.2 / 0.8, abs=1e-6)
        assert d.grid.sum() <= 0.2 / 0.8 + 1e-12

    def test_first_order_small_eps(self):
        w = nn_kernel()
        eps = 1e-3
        d = connectivity_bound(w, eps)
        assert d.grid[d.radius + 1, d.radius] == pytest.approx(eps * 0.25, rel=1e-3)

    def test_truncation_error_formula(self):
        w = nn_kernel()
        d = connectivity_bound(w, 0.3)
        total = float(d.grid.sum())
        assert total <= 0.3 / 0.7
        # N = 23 terms bring 0.3^N below 1e-12; the terms past N carry
        # eps^(N + 1)/(1 - eps), all of it here, since n <= N steps of the
        # nn walk stay inside the radius N
        assert d.radius == 23
        assert 0.3 / 0.7 - total == pytest.approx(0.3 ** 24 / 0.7, rel=1e-3)

    def test_rejects_bad_eps(self):
        w = nn_kernel()
        with pytest.raises(ValueError):
            connectivity_bound(w, 1.0)


def _d_eps_grid(walk, eps):
    """The normalized truncated d_eps grid, the Y-walk's transitions, and its
    radius."""
    d = connectivity_bound(walk, eps)
    return d.grid / d.grid.sum(), d.radius


class TestYKernel:
    def test_small_eps_limit(self):
        w = nn_kernel()
        grid, r = _d_eps_grid(w, 0.01)
        assert grid[r + 1, r] == pytest.approx(0.25, rel=0.02)

    @pytest.mark.parametrize("spec, eps", [
        ("nn", 0.01), ("nn", 0.2), ("nn", 0.3), ("skewed", 0.2),
        ("powerlaw(3.5)", 0.2)])
    def test_radius_is_the_grid_extent(self, spec, eps):
        # the default ladder reads the radius: that of the farthest site
        # the truncated d_eps grid reaches
        w = (kernel_preset(spec, radius=32) if spec.startswith("power")
             else _walk(spec))
        grid, r = _d_eps_grid(w, eps)
        assert y_kernel(w, eps).radius == sup_grid(r)[grid > 0].max()

    def test_resolvent_identity(self):
        # the closed-form characteristic function matches the transform of the
        # truncated d_eps grid up to the truncation error
        w = nn_kernel()
        eps = 0.2
        y = y_kernel(w, eps)
        grid, r = _d_eps_grid(w, eps)
        rng = np.random.default_rng(2)
        thetas = rng.uniform(-math.pi, math.pi, size=(20, 2))
        x = np.argwhere(grid > 0)
        grid_phi = np.cos(thetas @ (x - r).T.astype(float)) @ grid[grid > 0]
        assert np.allclose(y.char_function(thetas), grid_phi, atol=1e-3)

    def test_lemma_gap_inequality(self):
        # the lemma's chained bound is (1-phi) * eps/(c(eps)(1-eps)(1-eps phi));
        # with c(eps) = eps/(1-eps) it collapses to (1-phi)/(1-eps phi), and
        # the surrogate Y-walk attains it with equality
        w = nn_kernel()
        eps = 0.3
        y = y_kernel(w, eps)
        rng = np.random.default_rng(3)
        thetas = rng.uniform(-math.pi, math.pi, size=(200, 2))
        phi = w.char_function(thetas)
        c_eps = eps / (1.0 - eps)
        lhs = 1.0 - y.char_function(thetas)
        rhs = (1.0 - phi) * eps / (c_eps * (1.0 - eps) * (1.0 - eps * phi))
        assert np.all(lhs <= rhs + 1e-12)
        assert np.allclose(lhs, rhs, atol=1e-12)

    @pytest.mark.parametrize("spec", ["nn", "skewed"])
    def test_every_public_member(self, spec):
        # a Y-walk is its base and eps: every member it has is evaluated
        # here, against the base's characteristic function in resolvent form
        w, eps = _walk(spec), 0.2
        y = y_kernel(w, eps)
        members = {name for name in dir(y) if not name.startswith("_")}
        assert members == {"base", "char_function", "eps", "gap", "midpoint_grid",
                           "radius", "square_symmetric", "tail"}
        assert (y.base, y.eps) == (w, eps)
        assert y.radius == connectivity_bound(w, eps).radius
        assert y.tail == w.tail
        assert y.square_symmetric == w.square_symmetric
        thetas = np.random.default_rng(4).uniform(-math.pi, math.pi, size=(50, 2))
        phi = w.char_function(thetas)
        assert np.allclose(y.char_function(thetas),
                           phi * (1 - eps) / (1 - eps * phi), atol=1e-12)
        assert np.array_equal(y.char_function(thetas), 1.0 - y.gap(thetas))
        t = -math.pi + 2 * math.pi * (np.arange(8) + 0.5) / 8
        tx, ty = np.meshgrid(t, t, indexing="ij")
        assert np.allclose(y.midpoint_grid(8),
                           y.char_function(np.stack([tx, ty], axis=-1)), atol=1e-12)

    def test_symmetric(self):
        grid, _ = _d_eps_grid(nn_kernel(), 0.2)
        on = grid > 0
        assert grid[::-1, ::-1][on] == pytest.approx(grid[on])


# the class of each walk without its cut, which the verdict must name at
# every radius
INFINITE_RANGE = {
    "nn": "recurrent",
    "powerlaw(2)": "recurrent",  # infinite mass uncut: only the cut walk exists
    "powerlaw(3.5)": "transient",
    "powerlaw(4)": "recurrent",
    "powerlaw(5)": "recurrent",
    "logcorr(2)": "recurrent",
    "logcorr(3)": "recurrent",
    "logcorr_eps(2, 0.5)": "transient",
}
RING_PRESETS = [spec for spec in INFINITE_RANGE if spec != "nn"]


def _truncated_second_moment(rings, big_l):
    """G(L) = sum_x min(|x|^2, L^2) j(x), |x| Euclidean, for a ring kernel.

    Up to the square's symmetries, ring r is four sides of the 2r sites
    (r, m) with -r < m <= r.  The disc |x| <= L holds no site of the ring
    for L < r, the sites |m| <= M = floor(sqrt(L^2 - r^2)) < r for
    r <= L < r sqrt 2, and the whole side, corner m = r included, beyond.
    """
    r = np.arange(1, len(rings), dtype=float)
    full = big_l ** 2 >= 2 * r ** 2
    part = big_l >= r
    m = np.where(full, r - 1, np.floor(np.sqrt(np.clip(big_l ** 2 - r ** 2, 0.0, None))))
    n_in = np.where(part, 2 * m + 1, 0.0) + full
    sq_in = np.where(part, (2 * m + 1) * r ** 2 + m * (m + 1) * (2 * m + 1) / 3, 0.0)
    sq_in += full * 2 * r ** 2
    return float(np.sum(4 * rings[1:] * (sq_in + big_l ** 2 * (2 * r - n_in))))


class TestRecurrence:
    def test_monotone_integrals(self):
        w = nn_kernel()
        ladder = default_ladder(w)
        vals = truncated_integrals(w, ladder)
        assert all(a < b for a, b in zip(vals, vals[1:]))

    def test_rejects_bad_ladder(self):
        w = nn_kernel()
        with pytest.raises(ValueError):
            truncated_integrals(w, [0.1, 0.2, 0.05, 0.01])

    def test_nn_recurrent(self):
        rep = recurrence_classify(nn_kernel())
        assert rep.verdict == "recurrent"
        assert rep.fit["residual"] < 0.02

    def test_powerlaw_transient(self):
        rep = recurrence_classify(kernel_preset("powerlaw(3.5)"))
        assert rep.verdict == "transient"
        assert rep.fit["last_rel_increment"] < 0.005

    def test_logcorr_recurrent(self):
        rep = recurrence_classify(kernel_preset("logcorr(2)"))
        assert rep.verdict == "recurrent"

    def test_y_kernel_recurrent(self):
        w = nn_kernel()
        rep = recurrence_classify(y_kernel(w, 0.2))
        assert rep.verdict == "recurrent"

    def test_y_kernel_transient(self):
        # 1 - phi_Y = (1 - phi) / (1 - eps phi): Y has its base's class
        w = kernel_preset("powerlaw(3.5)", radius=32)
        rep = recurrence_classify(y_kernel(w, 0.2))
        assert rep.verdict == "transient"

    @pytest.mark.parametrize("radius", [128, 512, 2048])
    @pytest.mark.parametrize("spec", INFINITE_RANGE)
    def test_verdict_is_the_infinite_range_class(self, spec, radius):
        rep = recurrence_classify(kernel_preset(spec, radius))
        assert rep.verdict == INFINITE_RANGE[spec]
        assert len(rep.values) == len(rep.rhos) == 12

    def test_finite_range_walk_with_infinite_mass_uncut(self):
        # powerlaw(-115) has finite mass at radius 128 only; that cut walk
        # has finite range, so it is recurrent (Chung-Fuchs)
        rep = recurrence_classify(kernel_preset("powerlaw(-115)", radius=128))
        assert rep.verdict == "recurrent"

    @pytest.mark.parametrize("tail, verdict", [
        (None, "recurrent"), ((-115.0,), "recurrent"), ((2.0,), "recurrent"),
        ((2.01,), "transient"), ((3.99,), "transient"), ((4.0,), "recurrent"),
        ((4.01,), "recurrent"), ((4.0, 0.5), "recurrent"), ((4.0, 1.5), "transient"),
        ((4.0, 1.0, 1.0, 1.0), "recurrent"), ((4.0, 1.0, 1.01), "transient"),
        ((4.0, 1.0, 0.99, 7.0), "recurrent"), ((4.0, 2.0, 0.0), "transient"),
    ], ids=str)
    def test_tail_class(self, tail, verdict):
        # Bertrand's series at s = 4: the first exponent that is not 1 decides
        assert _tail_class(tail) == verdict

    def test_truncated_second_moment_site_by_site(self):
        w = kernel_preset("powerlaw(3.0)", radius=12)
        x = np.arange(-12, 13)
        d2 = x[:, None] ** 2 + x ** 2
        for big_l in (0.5, 1.0, 3.3, 7.9, 12.0, 16.9, 17.0, 25.0):
            direct = float(np.sum(np.minimum(d2, big_l ** 2) * w.grid_values()))
            got = _truncated_second_moment(w.rings, big_l)
            assert got == pytest.approx(direct, rel=1e-12)

    @pytest.mark.parametrize("spec", RING_PRESETS)
    def test_gap_comparable_to_truncated_second_moment(self, spec):
        # Spitzer's comparison 1 - phi(theta) ~ |theta|^2 G(1/|theta|), on
        # which the tail verdict rests, holds with fixed constants from the
        # cut scale to the edge of the torus
        radius = 2048
        w = kernel_preset(spec, radius)
        mags = np.geomspace(2.0 / radius, math.pi, 25)
        big_g = np.array([_truncated_second_moment(w.rings, 1.0 / t) for t in mags])
        for ang in (0.0, math.pi / 8, math.pi / 4):
            thetas = np.stack([mags * math.cos(ang), mags * math.sin(ang)], axis=1)
            ratio = w.gap(thetas) / (mags ** 2 * big_g)
            assert 1 / 8 <= ratio.min() and ratio.max() <= 2, (ratio.min(), ratio.max())

    def test_periodic_walk_flagged(self):
        k = WalkKernel(explicit={(2, 0): 1.0, (-2, 0): 1.0,
                                 (0, 2): 1.0, (0, -2): 1.0})
        rep = recurrence_classify(k)
        assert rep.verdict == "recurrent"
        assert rep.periodic
        assert rep.values == []
