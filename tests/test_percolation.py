import itertools
import math
import tracemalloc

import numpy as np
import pytest

from spinlab import lattice
from spinlab.lattice import ShellRectangle, canonical_bond, shell_rectangles
from spinlab.percolation import (
    box_bonds,
    disjoint_good_crossings,
    derive_tau,
    estimate_sparseness_failure,
    sample_bernoulli,
    short_crossing_event,
    sparseness_certificate,
    wilson_interval,
)


def _listed_box_bonds(n):
    """The box's bonds built as a list of tuples: the order oracle for the
    endpoint array of `box_bonds`."""
    bonds = []
    for x in range(-n, n + 1):
        for y in range(-n, n + 1):
            if y < n:
                bonds.append(((x, y), (x, y + 1)))
            if x < n:
                bonds.append(((x, y), (x + 1, y)))
    return bonds


def _bond_tuples(n):
    """The rows of `box_bonds(n)` as canonical bond tuples."""
    return [((x, y), (x1, y1)) for x, y, x1, y1 in box_bonds(n).tolist()]


class TestBoxBonds:
    @pytest.mark.parametrize("n", [0, 1, 2, 8, 50, 64])
    def test_rows_in_listed_order(self, n):
        domain = box_bonds(n)
        assert domain.shape == (4 * n * (2 * n + 1), 4)
        assert domain.dtype == np.int32
        listed = _listed_box_bonds(n)
        assert _bond_tuples(n) == listed == sorted(listed)
        assert all(canonical_bond(u, v) == (u, v) for u, v in listed)

    def test_rejects_negative_radius(self):
        with pytest.raises(ValueError):
            box_bonds(-1)

    def test_memory_budget(self):
        # the endpoint array, filled in place, and one sample at n = 64 peak
        # near 0.93 MB; a per-site endpoint stack and its mask took 1.8 MB,
        # the 33,024 bond tuples and their sample about 6.8 MB
        tracemalloc.start()
        try:
            sample_bernoulli(0.01, box_bonds(64), seed=5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.1e6


class TestSampling:
    def test_zero_density_empty(self):
        s = sample_bernoulli(0.0, box_bonds(8), seed=1)
        assert s.bonds == set()

    def test_rejects_density_one(self):
        with pytest.raises(ValueError):
            sample_bernoulli(1.0, box_bonds(4), seed=1)

    def test_binomial_statistics(self):
        domain = box_bonds(50)  # 20200 bonds
        eps = 0.01
        s = sample_bernoulli(eps, domain, seed=5)
        n = len(domain)
        sigma = math.sqrt(eps * (1 - eps) / n)
        assert abs(len(s.bonds) / n - eps) < 3 * sigma

    def test_determinism(self):
        domain = box_bonds(10)
        a = sample_bernoulli(0.3, domain, seed=42)
        b = sample_bernoulli(0.3, domain, seed=42)
        assert a.bonds == b.bonds
        c = sample_bernoulli(0.3, domain, seed=43)
        assert a.bonds != c.bonds

    @pytest.mark.parametrize("n", [0, 1, 4, 16, 64])
    @pytest.mark.parametrize("eps", [0.0, 0.01, 0.3, 0.9])
    def test_same_draw_as_sorted_domain(self, n, eps):
        # the reference sorts the list-built bonds and zips them with the
        # same uniforms; the array lists its rows sorted, so the draws agree
        # bond for bond
        listed = sorted(_listed_box_bonds(n))
        for seed in range(5):
            u = np.random.default_rng(seed).random(len(listed))
            reference = {b for b, v in zip(listed, u) if v < eps}
            bonds = sample_bernoulli(eps, box_bonds(n), seed).bonds
            assert bonds == reference
            assert all(type(c) is int for b in bonds for site in b for c in site)


def tall_rect():
    """9 x 3 sites: d-grid 8 x 2, crossings run along x."""
    return ShellRectangle(2, "N", (-4, 4), (1, 3))


class TestDisjointCrossings:
    def test_empty_a_gives_height(self):
        cs = disjoint_good_crossings(tall_rect(), set())
        assert cs.count == 2

    def test_empty_a_shell_rectangles(self):
        for l in (2, 3):
            for rect in shell_rectangles(l).values():
                cs = disjoint_good_crossings(rect, set())
                assert cs.count == 2 ** (l - 1) - 1

    def test_full_blocking_path(self):
        # a primal path cutting the rectangle top to bottom kills everything
        a = {canonical_bond((0, y), (0, y + 1)) for y in range(1, 3)}
        cs = disjoint_good_crossings(tall_rect(), a)
        assert cs.count == 0

    def _vertex_cut_oracle(self, rect, a_bonds):
        # brute force: minimum number of d-sites whose removal disconnects
        # the two short sides, equal to the crossing count by Menger
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

    @pytest.mark.parametrize("seed", range(6))
    def test_against_vertex_cut_enumeration(self, seed):
        rect = tall_rect()
        rng = np.random.default_rng(seed)
        relevant = sorted({lattice.crossed_bond(db)
                           for db in self._iter_dbonds(rect)})
        a = {b for b in relevant if rng.random() < 0.25}
        cs = disjoint_good_crossings(rect, a)
        assert cs.count == self._vertex_cut_oracle(rect, a)

    def _iter_dbonds(self, rect):
        from spinlab.percolation import _allowed_dbonds
        return _allowed_dbonds(rect, set())

    @staticmethod
    def _node_connectivity(rect, a_bonds):
        # d-site (a, b) is the point (a + 1/2, b + 1/2): its step east crosses
        # the primal bond {(a+1, b), (a+1, b+1)}, its step north the primal
        # bond {(a, b+1), (a+1, b+1)}; networkx counts the node-disjoint
        # paths between the two short sides
        import networkx as nx
        from networkx.algorithms.connectivity import local_node_connectivity
        (a0, a1), (b0, b1) = rect.dsite_x_range, rect.dsite_y_range
        g = nx.Graph()
        for a in range(a0, a1 + 1):
            for b in range(b0, b1 + 1):
                g.add_node((a, b))
                if a < a1 and canonical_bond((a + 1, b), (a + 1, b + 1)) not in a_bonds:
                    g.add_edge((a, b), (a + 1, b))
                if b < b1 and canonical_bond((a, b + 1), (a + 1, b + 1)) not in a_bonds:
                    g.add_edge((a, b), (a, b + 1))
        if rect.long_axis == "x":
            src = [(a0, b) for b in range(b0, b1 + 1)]
            snk = [(a1, b) for b in range(b0, b1 + 1)]
        else:
            src = [(a, b0) for a in range(a0, a1 + 1)]
            snk = [(a, b1) for a in range(a0, a1 + 1)]
        g.add_edges_from(("S", q) for q in src)
        g.add_edges_from((q, "T") for q in snk)
        return local_node_connectivity(g, "S", "T")

    @pytest.mark.parametrize("seed", range(4))
    def test_site_count_matches_node_connectivity(self, seed):
        rect = shell_rectangles(3)["E"]
        rng = np.random.default_rng(100 + seed)
        a = {b for b in _bond_tuples(8) if rng.random() < 0.05}
        assert disjoint_good_crossings(rect, a).count == self._node_connectivity(rect, a)

    def test_structural_validation_runs(self):
        # emitted crossings are validated on construction; just exercise it
        rng = np.random.default_rng(0)
        a = {b for b in _bond_tuples(16) if rng.random() < 0.03}
        for rect in shell_rectangles(3).values():
            cs = disjoint_good_crossings(rect, a)
            for p in cs.paths:
                assert p.avoids(a)

    @pytest.mark.parametrize("seed", range(3))
    def test_monotone_in_a(self, seed):
        rect = shell_rectangles(3)["N"]
        rng = np.random.default_rng(50 + seed)
        u = {b: rng.random() for b in _bond_tuples(8)}
        small = {b for b, v in u.items() if v < 0.03}
        large = {b for b, v in u.items() if v < 0.10}
        assert small <= large
        assert (disjoint_good_crossings(rect, large).count
                <= disjoint_good_crossings(rect, small).count)


class TestShortCrossingEvent:
    def test_empty_a_holds(self):
        for k in (2, 3, 4):
            ev = short_crossing_event(set(), k, alpha=0.1)
            assert ev.holds
            assert all(ev.per_rectangle.values())

    def test_full_shell_fails(self):
        k = 2
        a = set()
        for rect in shell_rectangles(k).values():
            (x0, x1), (y0, y1) = rect.x_range, rect.y_range
            for x in range(x0, x1 + 1):
                for y in range(y0, y1 + 1):
                    if x < x1:
                        a.add(canonical_bond((x, y), (x + 1, y)))
                    if y < y1:
                        a.add(canonical_bond((x, y), (x, y + 1)))
        ev = short_crossing_event(a, k, alpha=0.1)
        assert not ev.holds

    def test_threshold_value(self):
        ev = short_crossing_event(set(), 4, alpha=0.25)
        assert ev.threshold == pytest.approx(0.25 * 4)

    def test_rejects_bad_params(self):
        with pytest.raises(ValueError):
            short_crossing_event(set(), 1, 0.1)
        with pytest.raises(ValueError):
            short_crossing_event(set(), 3, 0.7)


class TestSparseness:
    def test_empty_a_certificate(self):
        alpha = 0.1
        cert = sparseness_certificate(set(), n=16, rho=0.5, alpha=alpha)
        assert cert.verdict
        # scales 2..4 of the box: the event holds at each, and each gives circuits
        scales = [k for k in range(2, 5) if short_crossing_event(set(), k, alpha).holds]
        assert scales == [2, 3, 4]
        assert sorted({k for k, _ in cert.circuits}) == scales
        # each working scale contributes at least alpha^2/128
        assert cert.value >= len(scales) * alpha ** 2 / 128

    def test_blocking_column_defeats_it(self):
        n = 16
        a = {canonical_bond((0, y), (0, y + 1)) for y in range(-n, n)}
        cert = sparseness_certificate(a, n=n, rho=0.5, alpha=0.1)
        assert not cert.verdict
        assert cert.circuits == []

    @pytest.mark.parametrize("seed", range(3))
    def test_structural_validation(self, seed):
        rng = np.random.default_rng(seed)
        a = {b for b in _bond_tuples(16) if rng.random() < 0.04}
        cert = sparseness_certificate(a, n=16, rho=0.5, alpha=0.1)
        used = set()
        for _, circ in cert.circuits:
            assert circ.is_loop
            assert circ.winding_number() == 1
            assert circ.avoids(a)
            sites = set(circ.dsites[:-1])
            assert not sites & used
            used |= sites

    def test_monotone_value(self):
        rng = np.random.default_rng(9)
        u = {b: rng.random() for b in _bond_tuples(16)}
        small = {b for b, v in u.items() if v < 0.01}
        large = {b for b, v in u.items() if v < 0.06}
        cs = sparseness_certificate(small, 16, 0.5, 0.1)
        cl = sparseness_certificate(large, 16, 0.5, 0.1)
        assert cl.value <= cs.value

    def test_tau_formula(self):
        assert derive_tau(0.1, 0.5) == pytest.approx(
            0.1 ** 2 * 0.5 / (256 * math.log(2)))


class TestFailureEstimate:
    def test_zero_eps_never_fails(self):
        est = estimate_sparseness_failure(0.0, 16, samples=5, alpha=0.1,
                                          rho=0.5, seed=1)
        assert est.failures == 0
        assert est.frequency == 0.0

    def test_supercritical_contrast(self):
        est = estimate_sparseness_failure(0.6, 16, samples=10, alpha=0.1,
                                          rho=0.5, seed=2)
        assert est.frequency >= 0.9

    def test_deterministic(self):
        kw = dict(alpha=0.1, rho=0.5, seed=3)
        a = estimate_sparseness_failure(0.05, 16, samples=10, **kw)
        b = estimate_sparseness_failure(0.05, 16, samples=10, **kw)
        assert a.failures == b.failures

    def test_interval_contains_frequency(self):
        est = estimate_sparseness_failure(0.05, 16, samples=20, alpha=0.1,
                                          rho=0.5, seed=4)
        lo, hi = est.interval
        assert lo <= est.frequency <= hi


class TestWilson:
    def test_known_value(self):
        lo, hi = wilson_interval(5, 100)
        assert lo == pytest.approx(0.0215, abs=2e-3)
        assert hi == pytest.approx(0.1118, abs=2e-3)

    def test_degenerate(self):
        lo, hi = wilson_interval(0, 50)
        assert lo == 0.0
        assert hi > 0.0

    def test_rejects_no_samples(self):
        with pytest.raises(ValueError):
            wilson_interval(0, 0)
