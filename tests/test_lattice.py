import numpy as np
import pytest
from scipy.signal import fftconvolve

from exact import box_sites
from spinlab.lattice import (
    DualPath,
    KernelConvolution,
    circuit_from_crossings,
    component_boundary,
    crossed_bond,
    interlayer_bonds,
    layer_sites,
    shell_rectangles,
    sup_norm,
)


def brute_layer(k):
    return {(x, y) for x in range(-k, k + 1) for y in range(-k, k + 1)
            if max(abs(x), abs(y)) == k}


class TestLayers:
    def test_layer_zero(self):
        assert layer_sites(0) == [(0, 0)]

    def test_layer_one_has_eight_sites(self):
        assert len(layer_sites(1)) == 8

    def test_layer_five_has_forty_sites(self):
        assert len(layer_sites(5)) == 40

    @pytest.mark.parametrize("k", range(0, 51))
    def test_layer_matches_enumeration(self, k):
        sites = layer_sites(k)
        assert len(sites) == len(set(sites))
        assert set(sites) == brute_layer(k)
        if k >= 1:
            assert len(sites) == 8 * k

    def test_canonical_start(self):
        assert layer_sites(3)[0] == (3, -2)

    def test_layers_partition_box(self):
        n = 12
        union = []
        for k in range(n + 1):
            union.extend(layer_sites(k))
        assert sorted(union) == sorted(box_sites(n))
        assert len(union) == (2 * n + 1) ** 2


class TestInterlayerBonds:
    def test_k0_four_bonds(self):
        assert len(interlayer_bonds(0)) == 4

    def test_k1_twelve_bonds(self):
        assert len(interlayer_bonds(1)) == 12

    def test_k3_twentyeight_bonds(self):
        assert len(interlayer_bonds(3)) == 28

    @pytest.mark.parametrize("k", range(0, 51))
    def test_count_and_structure(self, k):
        bonds = interlayer_bonds(k)
        assert len(bonds) == 8 * k + 4
        inner, outer = brute_layer(k), brute_layer(k + 1)
        for u, v in bonds:
            assert abs(u[0] - v[0]) + abs(u[1] - v[1]) == 1
            assert {sup_norm(u), sup_norm(v)} == {k, k + 1}
            assert (u in inner) != (u in outer)


def _sites(rect):
    """The sites of a shell rectangle, both ranges inclusive."""
    (x0, x1), (y0, y1) = rect.x_range, rect.y_range
    return {(x, y) for x in range(x0, x1 + 1) for y in range(y0, y1 + 1)}


class TestShells:
    def test_l2_north(self):
        r = shell_rectangles(2)["N"]
        assert r.x_range == (-4, 4)
        assert r.y_range == (3, 4)

    def test_l2_south_is_rotation_of_north(self):
        rects = shell_rectangles(2)
        n, s = rects["N"], rects["S"]
        assert _sites(s) == {(-x, -y) for (x, y) in _sites(n)}

    def test_shells_at_different_scales_disjoint(self):
        def shell(l):
            return set().union(*map(_sites, shell_rectangles(l).values()))

        assert not (shell(2) & shell(3))
        assert not (shell(3) & shell(4))

    def test_rejects_small_scale(self):
        with pytest.raises(ValueError):
            shell_rectangles(1)

    def test_adjacent_rectangles_overlap_in_corner(self):
        # same-scale rectangles share corner squares; that overlap is what
        # lets four crossings close up into a circuit
        rects = shell_rectangles(3)
        assert _sites(rects["N"]) & _sites(rects["E"])

    def test_long_axis(self):
        rects = shell_rectangles(3)
        assert rects["N"].long_axis == "x"
        assert rects["E"].long_axis == "y"


class TestDualPath:
    def test_crossing_map_horizontal(self):
        assert crossed_bond(((0, 0), (1, 0))) == ((1, 0), (1, 1))

    def test_crossing_map_vertical(self):
        assert crossed_bond(((0, 0), (0, 1))) == ((0, 1), (1, 1))

    def test_rejects_non_adjacent(self):
        with pytest.raises(ValueError):
            DualPath([(0, 0), (2, 0)])

    def test_rejects_repeated_bond(self):
        with pytest.raises(ValueError):
            DualPath([(0, 0), (1, 0), (0, 0), (1, 0)])

    def test_unit_square_loop_winds_once(self):
        # loop around the origin through d-sites (-1,-1),(0,-1),(0,0),(-1,0)
        loop = DualPath([(-1, -1), (0, -1), (0, 0), (-1, 0), (-1, -1)])
        assert loop.is_loop
        assert loop.winding_number() == 1

    def test_reversed_loop_winds_minus_once(self):
        loop = DualPath([(-1, -1), (-1, 0), (0, 0), (0, -1), (-1, -1)])
        assert loop.winding_number() == -1

    def test_off_origin_loop_is_not_circuit(self):
        loop = DualPath([(2, 2), (3, 2), (3, 3), (2, 3), (2, 2)])
        assert loop.is_loop
        assert loop.winding_number() == 0


def straight_crossing(rect, offset=0):
    """Straight mid-line crossing of a shell rectangle along its long axis."""
    (a0, a1) = rect.dsite_x_range
    (b0, b1) = rect.dsite_y_range
    if rect.long_axis == "x":
        b = min(b0 + offset, b1)
        return DualPath([(a, b) for a in range(a0, a1 + 1)])
    a = min(a0 + offset, a1)
    return DualPath([(a, b) for b in range(b0, b1 + 1)])


class TestCircuitFromCrossings:
    def _four(self, l):
        rects = shell_rectangles(l)
        return [straight_crossing(rects[o]) for o in "NESW"]

    @pytest.mark.parametrize("l", [2, 3, 4])
    def test_straight_crossings_give_circuit(self, l):
        lam_n, lam_e, lam_s, lam_w = self._four(l)
        circ = circuit_from_crossings(lam_n, lam_e, lam_s, lam_w,
                                      radius=2 ** l + 2)
        assert circ.is_loop
        assert circ.winding_number() == 1
        allowed = set(lam_n.bonds) | set(lam_e.bonds) | set(lam_s.bonds) | set(lam_w.bonds)
        assert set(circ.bonds) <= allowed
        assert len(circ) <= len(lam_n) + len(lam_e) + len(lam_s) + len(lam_w)

    def test_non_enclosing_input_fails(self):
        rects = shell_rectangles(2)
        lam = straight_crossing(rects["N"])
        with pytest.raises(ValueError):
            circuit_from_crossings(lam, lam, lam, lam, radius=6)


class TestComponentBoundary:
    def test_single_site(self):
        path = component_boundary({(0, 0)})
        assert path.is_loop
        assert len(path) == 4
        assert path.winding_number() == 1

    def test_rectangle_block(self):
        comp = {(x, y) for x in range(-1, 2) for y in range(0, 2)}
        path = component_boundary(comp)
        assert path.is_loop
        assert len(path) == 2 * (3 + 2)

    def test_l_shape(self):
        comp = {(0, 0), (1, 0), (0, 1)}
        path = component_boundary(comp)
        assert path.is_loop
        assert len(path) == 8

    def test_boundary_bonds_cross_exactly_the_edge(self):
        comp = {(0, 0), (1, 0), (0, 1), (0, 2)}
        path = component_boundary(comp)
        for b in path.crossed_bonds():
            u, v = b
            assert (u in comp) != (v in comp)


class TestKernelConvolution:
    @pytest.mark.parametrize("shape", [(9, 9), (16, 16), (15, 22), (1, 7), (53, 53)])
    @pytest.mark.parametrize("side", [1, 2, 3, 4, 7, 18, 37])
    def test_bitwise_equal_to_fftconvolve(self, shape, side):
        # odd and even grids and kernels; a 37 x 37 kernel is larger than
        # most of the grids
        rng = np.random.default_rng(side * 100 + shape[0])
        kernel = rng.standard_normal((side, side))
        conv = KernelConvolution(kernel, shape)
        results = []
        for _ in range(3):  # the kernel's transform and the input are reused
            v = rng.standard_normal(shape)
            got = conv(v)
            want = fftconvolve(v, kernel, mode="same")
            assert got.shape == want.shape == shape
            assert np.array_equal(got, want)
            results.append((got, want))
        # a later call leaves earlier results alone
        assert all(np.array_equal(got, want) for got, want in results)

    @pytest.mark.parametrize("shape", [(16, 16), (1, 7), (53, 53)])
    def test_input_filled_in_place(self, shape):
        # a caller may scatter into `input` and pass it; the rest of the
        # buffer holds what the last call left there
        rng = np.random.default_rng(shape[0])
        kernel = rng.standard_normal((7, 7))
        v = rng.standard_normal(shape)
        conv = KernelConvolution(kernel, shape)
        conv(rng.standard_normal(shape))
        conv.input[::2] = v[::2]
        v[1::2] = conv.input[1::2]
        assert np.array_equal(conv(conv.input), fftconvolve(v, kernel, mode="same"))

    def test_rectangular_kernel_larger_than_grid(self):
        rng = np.random.default_rng(5)
        kernel = rng.standard_normal((41, 6))
        v = rng.standard_normal((12, 1))
        assert np.array_equal(KernelConvolution(kernel, v.shape)(v),
                              fftconvolve(v, kernel, mode="same"))
