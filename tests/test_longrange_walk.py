import math

import numpy as np
import pytest
from scipy.signal import convolve2d

from spinlab.longrange_walk import (
    ConnectivityBound,
    CouplingKernel,
    connectivity_bound,
    default_ladder,
    kernel_preset,
    logcorr_kernel,
    nn_kernel,
    normalize,
    powerlaw_kernel,
    recurrence_classify,
    truncated_integrals,
    y_kernel,
)


class TestKernels:
    def test_nn_normalizes_to_quarter(self):
        w = normalize(nn_kernel())
        assert w.kernel.explicit[(1, 0)] == pytest.approx(0.25)
        assert w.kernel.explicit[(0, -1)] == pytest.approx(0.25)

    def test_powerlaw_mass(self):
        w = normalize(powerlaw_kernel(4.0, radius=256))
        assert w.kernel.total() == pytest.approx(1.0, abs=1e-12)

    def test_logcorr_monotone_tail(self):
        k = logcorr_kernel(2, radius=128)
        vals = k.rings[2:]
        assert np.all(np.diff(vals) < 0)

    def test_preset_parser(self):
        assert kernel_preset("nn").name == "nn"
        assert kernel_preset("powerlaw(3.5)", radius=64).radius == 64
        assert kernel_preset("logcorr(2)", radius=64).name == "logcorr(2)"
        assert "logcorr_eps" in kernel_preset("logcorr_eps(2, 0.5)", radius=64).name
        with pytest.raises(ValueError):
            kernel_preset("mystery")

    def test_rejects_asymmetric(self):
        with pytest.raises(ValueError):
            CouplingKernel("bad", explicit={(1, 0): 1.0, (-1, 0): 0.5})

    def test_rejects_zero_kernel(self):
        with pytest.raises(ValueError):
            normalize(CouplingKernel("zero", rings=np.zeros(8)))

    @pytest.mark.parametrize("radius", [3, 8])
    def test_ring_grid_values_site_by_site(self, radius):
        # kernel radius 5: one grid inside it, one reaching past it
        w = normalize(powerlaw_kernel(3.0, radius=5))
        g = w.grid_values(radius)
        assert g.shape == (2 * radius + 1, 2 * radius + 1)
        for x in range(-radius, radius + 1):
            for y in range(-radius, radius + 1):
                r = max(abs(x), abs(y))
                expect = w.kernel.rings[r] if 1 <= r <= 5 else 0.0
                assert g[x + radius, y + radius] == expect


class TestCharFunction:
    def test_nn_closed_form(self):
        w = normalize(nn_kernel())
        assert w.char_function(np.array([math.pi, math.pi])) == pytest.approx(-1.0)
        assert w.char_function(np.array([math.pi / 2, 0.0])) == pytest.approx(0.5)
        assert w.char_function(np.zeros(2)) == pytest.approx(1.0)

    def test_ring_formula_against_site_sum(self):
        # brute-force oracle: enumerate all sites of a small ring kernel
        k = powerlaw_kernel(3.0, radius=6)
        w = normalize(k)
        rng = np.random.default_rng(0)
        thetas = rng.uniform(-math.pi, math.pi, size=(40, 2))
        direct = np.zeros(40)
        for x in range(-6, 7):
            for y in range(-6, 7):
                r = max(abs(x), abs(y))
                if r == 0:
                    continue
                direct += w.kernel.rings[r] * np.cos(thetas[:, 0] * x + thetas[:, 1] * y)
        assert np.allclose(w.char_function(thetas), direct, atol=1e-12)

    def test_even_and_bounded(self):
        w = normalize(powerlaw_kernel(4.0, radius=32))
        rng = np.random.default_rng(1)
        thetas = rng.uniform(-math.pi, math.pi, size=(100, 2))
        phi = w.char_function(thetas)
        assert np.allclose(phi, w.char_function(-thetas), atol=1e-12)
        assert np.all(np.abs(phi) <= 1 + 1e-12)

    def test_small_theta_quadratic(self):
        # truncated kernels have finite second moment: 1 - phi ~ c |theta|^2
        w = normalize(powerlaw_kernel(3.5, radius=64))
        t = np.array([1e-3, 1e-3]) / math.sqrt(2)
        g1 = 1.0 - w.char_function(t)
        g2 = 1.0 - w.char_function(t / 2)
        assert g2 / g1 == pytest.approx(0.25, rel=1e-3)

    def test_gap_matches_second_moment(self):
        w = normalize(powerlaw_kernel(4.0, radius=32))
        c2 = w.second_moment()
        t = np.array([1e-4, 0.0])
        gap = 1.0 - w.char_function(t)
        # symmetric kernel: 1 - phi ~ theta^2 c2 / 4 along an axis
        assert gap == pytest.approx(1e-8 * c2 / 4, rel=1e-4)

    def test_second_moment_ring_formula(self):
        k = powerlaw_kernel(3.0, radius=5)
        w = normalize(k)
        direct = 0.0
        for x in range(-5, 6):
            for y in range(-5, 6):
                r = max(abs(x), abs(y))
                if r:
                    direct += w.kernel.rings[r] * (x * x + y * y)
        assert w.second_moment() == pytest.approx(direct, rel=1e-12)


def _skewed_kernel():
    # symmetric under x -> -x only: unequal axis and unequal diagonal couplings
    return normalize(CouplingKernel("skewed", explicit={
        (1, 0): 1.0, (-1, 0): 1.0, (0, 1): 2.0, (0, -1): 2.0,
        (1, 1): 0.5, (-1, -1): 0.5, (1, -1): 0.25, (-1, 1): 0.25}))


def _walk(spec):
    if spec == "ring":
        return normalize(powerlaw_kernel(3.0, radius=40))
    if spec == "logcorr":
        return normalize(logcorr_kernel(2, radius=16))
    if spec == "nn":
        return normalize(nn_kernel())
    if spec == "y(nn)":
        return y_kernel(normalize(nn_kernel()), 0.2)
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


class TestSquareSymmetry:
    @pytest.mark.parametrize("spec", ["ring", "logcorr", "nn", "y(nn)"])
    def test_symmetric_kernels(self, spec):
        assert _walk(spec).square_symmetric

    @pytest.mark.parametrize("explicit", [
        {(1, 0): 1.0, (-1, 0): 1.0, (0, 1): 2.0, (0, -1): 2.0},  # flip only
        {(1, 1): 1.0, (-1, -1): 1.0},  # transpose only
    ])
    def test_asymmetric_kernels(self, explicit):
        assert not normalize(CouplingKernel("k", explicit=explicit)).square_symmetric

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
            w = normalize(kernel_preset(spec, radius=64))
        ladder = default_ladder(w)
        got = np.asarray(truncated_integrals(w, ladder))
        ref = np.asarray(_full_circle_integrals(w, ladder))
        assert np.max(np.abs(got - ref) / ref) < 1e-10


class TestChapmanKolmogorov:
    def test_two_step_convolution(self):
        w = normalize(nn_kernel())
        g = w.grid_values(4)
        two = convolve2d(g, g, mode="same")
        # j^(2) at the origin is 1/4 (return probability of the simple walk)
        assert two[4, 4] == pytest.approx(0.25)
        # and at (1, 1): two ordered ways, each (1/4)^2
        assert two[5, 5] == pytest.approx(2 * 0.0625)

    def test_semigroup_property(self):
        w = normalize(powerlaw_kernel(4.0, radius=3))
        g = w.grid_values(12)
        g2 = convolve2d(g, g, mode="same")
        g3a = convolve2d(g2, g, mode="same")
        g3b = convolve2d(g, g2, mode="same")
        assert np.allclose(g3a, g3b, atol=1e-14)


class TestConnectivityBound:
    def test_c_bound_at_half(self):
        w = normalize(nn_kernel())
        d = connectivity_bound(w, 0.5)
        assert d.c_bound == pytest.approx(1.0)

    def test_geometric_mass_identity(self):
        w = normalize(nn_kernel())
        d = connectivity_bound(w, 0.2)
        assert d.total == pytest.approx(0.2 / 0.8, abs=1e-6)
        assert d.total <= d.c_bound + 1e-12

    def test_first_order_small_eps(self):
        w = normalize(nn_kernel())
        eps = 1e-3
        d = connectivity_bound(w, eps)
        assert d.at((1, 0)) == pytest.approx(eps * 0.25, rel=1e-3)

    def test_truncation_error_formula(self):
        w = normalize(nn_kernel())
        d = connectivity_bound(w, 0.3, n_terms=6)
        assert d.truncation_error == pytest.approx(0.3 ** 7 / 0.7)
        assert d.total <= d.c_bound
        assert d.c_bound - d.total <= d.truncation_error + 1e-9

    def test_rejects_bad_eps(self):
        w = normalize(nn_kernel())
        with pytest.raises(ValueError):
            connectivity_bound(w, 1.0)


class TestYKernel:
    def test_small_eps_limit(self):
        w = normalize(nn_kernel())
        y = y_kernel(w, 0.01)
        assert y.kernel.explicit[(1, 0)] == pytest.approx(0.25, rel=0.02)

    def test_resolvent_identity(self):
        # the closed-form characteristic function matches the transform of the
        # truncated d_eps grid up to the truncation error
        w = normalize(nn_kernel())
        eps = 0.2
        y = y_kernel(w, eps)
        rng = np.random.default_rng(2)
        thetas = rng.uniform(-math.pi, math.pi, size=(20, 2))
        grid_phi = np.zeros(20)
        for x, v in y.kernel.explicit.items():
            grid_phi += v * np.cos(thetas @ np.asarray(x, dtype=float))
        assert np.allclose(y.char_function(thetas), grid_phi, atol=1e-3)

    def test_lemma_gap_inequality(self):
        # the lemma's chained bound is (1-phi) * eps/(c(eps)(1-eps)(1-eps phi));
        # with c(eps) = eps/(1-eps) it collapses to (1-phi)/(1-eps phi), and
        # the surrogate Y-walk attains it with equality
        w = normalize(nn_kernel())
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

    def test_symmetric(self):
        w = normalize(nn_kernel())
        y = y_kernel(w, 0.2)
        for x, v in y.kernel.explicit.items():
            assert y.kernel.explicit[(-x[0], -x[1])] == pytest.approx(v)


class TestRecurrence:
    def test_monotone_integrals(self):
        w = normalize(nn_kernel())
        ladder = default_ladder(w)
        vals = truncated_integrals(w, ladder)
        assert all(a < b for a, b in zip(vals, vals[1:]))

    def test_rejects_bad_ladder(self):
        w = normalize(nn_kernel())
        with pytest.raises(ValueError):
            recurrence_classify(w, ladder=[0.5, 0.25, 0.125])
        with pytest.raises(ValueError):
            truncated_integrals(w, [0.1, 0.2, 0.05, 0.01])

    def test_nn_recurrent(self):
        rep = recurrence_classify(normalize(nn_kernel()))
        assert rep.verdict == "recurrent"
        assert rep.fit["residual"] < 0.02

    def test_powerlaw_transient(self):
        rep = recurrence_classify(normalize(powerlaw_kernel(3.5)))
        assert rep.verdict == "transient"
        assert rep.fit["last_rel_increment"] < 0.005

    def test_logcorr_recurrent(self):
        rep = recurrence_classify(normalize(logcorr_kernel(2)))
        assert rep.verdict == "recurrent"

    def test_y_kernel_recurrent(self):
        w = normalize(nn_kernel())
        rep = recurrence_classify(y_kernel(w, 0.2))
        assert rep.verdict == "recurrent"

    def test_scale_stability(self):
        for spec, expect in [("powerlaw(3.5)", "transient"),
                             ("logcorr(2)", "recurrent")]:
            for radius in (512, 1024):
                w = normalize(kernel_preset(spec, radius=radius))
                assert recurrence_classify(w).verdict == expect

    def test_periodic_walk_flagged(self):
        k = CouplingKernel("even", explicit={(2, 0): 1.0, (-2, 0): 1.0,
                                             (0, 2): 1.0, (0, -2): 1.0})
        rep = recurrence_classify(normalize(k))
        assert rep.verdict == "inconclusive"
        assert rep.periodic
