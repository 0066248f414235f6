import math
import tracemalloc
from collections import deque

import numpy as np
import pytest
from scipy.sparse import coo_matrix, csr_matrix
from scipy.sparse.csgraph import connected_components
from scipy.sparse.linalg import spsolve

from exact import compute_R_delta
from spinlab.lattice import sup_grid, sup_norm
from spinlab.longrange_walk import (
    connectivity_bound,
    kernel_preset,
    nn_kernel,
)
from spinlab.spinwave import (
    BoxForm,
    SpinWaveField,
    _clusters,
    _quadratic_form,
    _sine_symbol,
    conductance_grid,
    deform,
    dirichlet_energy,
    entropy_bound,
    expected_entropy,
    sample_long_range_bonds,
    solve_spinwave,
)


@pytest.fixture(scope="module")
def nn_walk():
    return nn_kernel()


@pytest.fixture(scope="module")
def small_wave(nn_walk):
    return solve_spinwave(nn_walk, 8, 2, 1.0)


@pytest.fixture(scope="module")
def nn_waves(nn_walk):
    """The `solvers` benchmark's spin waves: n = 16, 32, 64, 128."""
    return [solve_spinwave(nn_walk, n, 2, math.pi / 4) for n in (16, 32, 64, 128)]


def traced_peak(fn):
    """tracemalloc's peak, in bytes, while fn() runs."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestSolver:
    def test_boundary_values(self, small_wave):
        assert small_wave.at((0, 0)) == 1.0
        assert small_wave.at((2, -2)) == 1.0
        assert small_wave.at((9, 0)) == 0.0
        assert small_wave.at((-9, 9)) == 0.0

    def test_harmonic_residual(self, small_wave):
        c = small_wave.cgrid
        k = (c.shape[0] - 1) // 2
        m = small_wave.margin
        for site in [(3, 0), (-5, 2), (0, 8), (4, -4)]:
            acc = 0.0
            for dx in range(-k, k + 1):
                for dy in range(-k, k + 1):
                    y = (site[0] + dx, site[1] + dy)
                    val = small_wave.values[y[0] + m, y[1] + m] if max(abs(y[0]), abs(y[1])) <= m else 0.0
                    acc += c[dx + k, dy + k] * (val - small_wave.at(site))
            assert abs(acc) < 1e-9 * c.sum()

    def test_maximum_principle(self, small_wave):
        assert small_wave.values.min() >= -1e-10
        assert small_wave.values.max() <= 1.0 + 1e-10

    def test_symmetry(self, small_wave):
        for site in [(3, 1), (5, -2), (0, 7)]:
            assert small_wave.at(site) == pytest.approx(small_wave.at((site[1], site[0])), abs=1e-8)
            assert small_wave.at(site) == pytest.approx(small_wave.at((-site[0], site[1])), abs=1e-8)

    def test_linearity_in_amplitude(self, nn_walk, small_wave):
        double = solve_spinwave(nn_walk, 8, 2, 2.0)
        assert np.allclose(double.values, 2 * small_wave.values, atol=1e-8)

    def test_rejects_inner_too_large(self, nn_walk):
        with pytest.raises(ValueError):
            solve_spinwave(nn_walk, 4, 4, 1.0)

    def test_monte_carlo_hitting_probability(self, nn_walk, small_wave):
        # independent oracle: the harmonic value equals psi times the chance
        # the conductance walk reaches the inner box before leaving the big one
        c = small_wave.cgrid
        k = (c.shape[0] - 1) // 2
        probs = c.ravel() / c.sum()
        ax = np.arange(-k, k + 1)
        dxs = np.repeat(ax, 2 * k + 1)
        dys = np.tile(ax, 2 * k + 1)
        rng = np.random.default_rng(7)
        for start in [(4, 0), (6, 3), (-7, 0)]:
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
            assert not alive.any()
            p_hat = hit.mean()
            sigma = math.sqrt(p_hat * (1 - p_hat) / walkers)
            assert abs(small_wave.at(start) - p_hat) < 3 * sigma + 1e-9


def direct_solve(cgrid, n, inner, psi):
    """The spin-wave field on the margin grid by one sparse direct solve of
    the assembled operator c_tot u(x) - sum_d c(d) u(x + d) on the free
    sites."""
    k = (cgrid.shape[0] - 1) // 2
    sup = sup_grid(n + k)
    free = (sup > inner) & (sup <= n)
    fixed = np.where(sup <= inner, psi, 0.0)
    fx, fy = np.nonzero(free)
    index = np.full(sup.shape, -1)
    index[fx, fy] = np.arange(len(fx))
    diag = np.arange(len(fx))
    rows, cols, vals = [diag], [diag], [np.full(len(fx), cgrid.sum())]
    rhs = np.zeros(len(fx))
    for dx, dy in zip(*np.nonzero(cgrid)):
        j = index[fx + dx - k, fy + dy - k]
        rows.append(np.flatnonzero(j >= 0))
        cols.append(j[j >= 0])
        vals.append(np.full(len(rows[-1]), -cgrid[dx, dy]))
        rhs += cgrid[dx, dy] * fixed[fx + dx - k, fy + dy - k]
    a = csr_matrix((np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
                   shape=(len(fx), len(fx)))
    u = fixed.copy()
    u[fx, fy] = spsolve(a, rhs)
    return u


class TestPreconditioner:
    @pytest.mark.parametrize("kernel, radius", [("nn", None), ("powerlaw(3.5)", 12)])
    def test_direct_solve_oracle(self, kernel, radius):
        walk = kernel_preset(kernel, radius=32)
        cgrid = conductance_grid(walk, 0.2, radius=radius)
        wave = solve_spinwave(walk, 8, 2, math.pi / 4, cgrid=cgrid)
        direct = direct_solve(cgrid, 8, 2, math.pi / 4)
        assert np.max(np.abs(wave.values - direct)) < 1e-10

    def test_iterations_flat_in_n(self, nn_waves):
        # unpreconditioned CG needs 58, 115, 227 and 450 iterations here; the
        # counts are pinned, as `summary.json` reports them
        assert [wave.iterations for wave in nn_waves] == [6, 6, 5, 6]

    def test_memory_budget(self, nn_walk):
        # the CG vectors, the convolution's padded input and transform and
        # the sine symbol peak near 8.0 MB at n = 128; a flat index, a grid
        # per matvec and grid-sized temporaries took about 10.6 MB
        cgrid = conductance_grid(nn_walk, 0.2)
        assert traced_peak(lambda: solve_spinwave(
            nn_walk, 128, 2, math.pi / 4, cgrid=cgrid)) < 8.8e6

    def test_exact_for_nearest_neighbour_conductances(self, nn_walk):
        # for c = 1 on the four neighbours the symbol is the exact spectrum
        # of the operator on the box, so CG has only the 5 x 5 hole left
        cgrid = np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 1.0], [0.0, 1.0, 0.0]])
        its = [solve_spinwave(nn_walk, n, 2, 1.0, cgrid=cgrid).iterations
               for n in (4, 32, 128)]
        assert max(its) <= 3, its

    def test_iterations_flat_in_n_long_range(self):
        walk = kernel_preset("powerlaw(3.5)", radius=32)
        cgrid = conductance_grid(walk, 0.2, radius=48)
        its = [solve_spinwave(walk, n, 2, math.pi / 4, cgrid=cgrid).iterations
               for n in (16, 32, 64)]
        assert max(its) <= 12, its

    @pytest.mark.parametrize("kernel", ["nn", "powerlaw(3.5)", "logcorr(2)",
                                        "logcorr_eps(2, 0.5)"])
    def test_symbol_positive_for_presets(self, kernel):
        cgrid = conductance_grid(kernel_preset(kernel), 0.2)
        for n in (4, 128):
            assert _sine_symbol(cgrid, 2 * n + 1).min() > 0


class TestDirichletEnergy:
    def test_brute_force_oracle(self, nn_walk):
        rng = np.random.default_rng(11)
        cgrid = conductance_grid(nn_walk, 0.3, radius=3)
        n, margin = 4, 7
        values = np.zeros((2 * margin + 1, 2 * margin + 1))
        box = sup_grid(margin) <= n
        values[box] = rng.uniform(0, 1, size=int(box.sum()))
        wave = SpinWaveField(n, values, margin, cgrid, 0.0, 0)
        direct = 0.0
        for x1 in range(-n, n + 1):
            for x2 in range(-n, n + 1):
                for dx in range(-3, 4):
                    for dy in range(-3, 4):
                        y1, y2 = x1 + dx, x2 + dy
                        v = values[y1 + margin, y2 + margin] if max(abs(y1), abs(y2)) <= margin else 0.0
                        direct += cgrid[dx + 3, dy + 3] * (values[x1 + margin, x2 + margin] - v) ** 2
        assert dirichlet_energy(wave) == pytest.approx(direct, rel=1e-10)

    def test_pinned_energies(self, nn_waves):
        # the bytes `spinwave.csv` prints for the `solvers` benchmark's waves
        assert [f"{dirichlet_energy(wave):.12g}" for wave in nn_waves] == [
            "0.290925614481", "0.222140435221", "0.178409682441", "0.148615619075"]

    def test_memory_budget(self, nn_waves):
        # box-only temporaries and a contiguous box mass peak near 4.9 MB at
        # n = 128; grid-sized temporaries took about 6.3 MB
        assert traced_peak(lambda: dirichlet_energy(nn_waves[-1])) < 5.4e6

    def test_quadratic_in_amplitude(self, nn_walk, small_wave):
        double = solve_spinwave(nn_walk, 8, 2, 2.0)
        assert dirichlet_energy(double) == pytest.approx(4 * dirichlet_energy(small_wave), rel=1e-7)

    def test_recurrent_energy_decreases(self, nn_walk):
        energies = [dirichlet_energy(solve_spinwave(nn_walk, n, 2, math.pi / 4))
                    for n in (16, 32, 64)]
        assert energies[0] > energies[1] > energies[2]
        # recurrent kernels lose a definite fraction per octave
        assert energies[2] / energies[1] < 0.85

    def test_transient_energy_floor(self):
        w = kernel_preset("powerlaw(3.5)", radius=32)
        cgrid = conductance_grid(w, 0.2, radius=48)
        energies = [dirichlet_energy(solve_spinwave(w, n, 2, math.pi / 4, cgrid=cgrid))
                    for n in (16, 32, 64)]
        assert energies[0] > energies[1] > energies[2]
        # transient kernels stabilize: the per-octave loss dries up
        assert energies[2] / energies[1] > 0.85


class TestRDelta:
    def test_inequality_tight(self, nn_walk):
        d = connectivity_bound(nn_walk, 0.2)
        sup = sup_grid(d.radius)
        leak = 0.2 / 0.8 - float(d.grid.sum())
        for delta in (0.5, 0.05, 0.005):
            r = compute_R_delta([(0, 0)], delta, 0.2, nn_walk, 1.0)
            tail = float(d.grid[sup >= r].sum()) + leak
            assert tail <= delta / 2
            if r > 1:
                prev = float(d.grid[sup >= r - 1].sum()) + leak
                assert prev > delta / 2

    def test_monotone_in_delta(self, nn_walk):
        rs = [compute_R_delta([(0, 0)], d, 0.2, nn_walk, 1.0)
              for d in (0.5, 0.05, 0.005, 0.0005)]
        assert rs == sorted(rs)

    def test_support_radius_shifts_answer(self, nn_walk):
        near = compute_R_delta([(0, 0)], 0.01, 0.2, nn_walk, 1.0)
        far = compute_R_delta([(5, 0), (0, -5)], 0.01, 0.2, nn_walk, 1.0)
        assert far > near

    def test_rejects_bad_delta(self, nn_walk):
        with pytest.raises(ValueError):
            compute_R_delta([(0, 0)], 0.0, 0.2, nn_walk, 1.0)


def _deformed_at(dw, x):
    """The deformed wave at site x, read from its grid of side 2 margin + 1."""
    m = (dw.shape[0] - 1) // 2
    return float(dw[x[0] + m, x[1] + m])


class TestDeform:
    def test_empty_bonds_identity(self, small_wave):
        dw = deform(small_wave, [])
        assert np.array_equal(dw, small_wave.values)

    def test_single_bond_takes_minimum(self, small_wave):
        x, y = (3, 0), (4, 0)
        dw = deform(small_wave, [(x, y)])
        lo = min(small_wave.at(x), small_wave.at(y))
        assert _deformed_at(dw, x) == lo
        assert _deformed_at(dw, y) == lo

    def test_chain_takes_global_minimum(self, small_wave):
        chain = [((3, 0), (4, 0)), ((4, 0), (5, 0)), ((5, 0), (6, 0))]
        dw = deform(small_wave, chain)
        lo = small_wave.at((6, 0))
        for site in [(3, 0), (4, 0), (5, 0), (6, 0)]:
            assert _deformed_at(dw, site) == lo
        assert _deformed_at(dw, (2, 0)) == small_wave.at((2, 0))

    def test_lexicographic_tie_break(self, small_wave):
        # (0,0) and (1,0) both sit in the inner box at the same value
        dw = deform(small_wave, [((0, 0), (1, 0))])
        assert _deformed_at(dw, (1, 0)) == _deformed_at(dw, (0, 0)) == small_wave.at((0, 0))

    def test_cluster_to_outside_zeroes(self, small_wave):
        m = small_wave.margin
        bonds = [((8, 0), (m + 1, 0))]
        dw = deform(small_wave, bonds)
        assert _deformed_at(dw, (8, 0)) == 0.0

    def test_gate_frequency_bounded(self, nn_walk, small_wave):
        # union bound: P(r_A(V) > R(delta)) <= |V| * tail <= delta / (2 f_sup)
        delta, eps = 0.1, 0.2
        r_delta = compute_R_delta([(0, 0)], delta, eps, nn_walk, 1.0)
        j_grid = nn_walk.grid_values(4)
        rng = np.random.default_rng(23)
        trials, bad = 400, 0
        for _ in range(trials):
            bonds = sample_long_range_bonds(eps, j_grid, small_wave.margin, rng)
            if bfs_deform(small_wave, bonds, [(0, 0)])[1] > r_delta:
                bad += 1
        bound = delta / 2
        assert bad / trials <= bound + 3 * math.sqrt(bound * (1 - bound) / trials)


def bfs_deform(wave, bonds, v_sites=((0, 0),)):
    """Reference deformation: clusters by breadth-first search over the
    bonds, minima by a plain scan.  Returns (values, r_a): the deformed grid
    and r_A(V), the largest sup-norm that the A-clusters of V reach."""
    m = wave.margin
    adj = {}
    for x, y in np.asarray(bonds, dtype=np.int64).reshape(-1, 2, 2).tolist():
        x, y = tuple(x), tuple(y)
        adj.setdefault(x, []).append(y)
        adj.setdefault(y, []).append(x)
    clusters = []
    seen = set()
    for start in adj:
        if start in seen:
            continue
        seen.add(start)
        members, queue = [], deque([start])
        while queue:
            u = queue.popleft()
            members.append(u)
            for w in adj[u]:
                if w not in seen:
                    seen.add(w)
                    queue.append(w)
        clusters.append(members)
    r_a = max([sup_norm(v) for v in v_sites], default=0)
    for members in clusters:
        if any(v in members for v in v_sites):
            r_a = max([r_a] + [sup_norm(s) for s in members])

    def val(s):
        return wave.at(s) if sup_norm(s) <= m else 0.0

    values = wave.values.copy()
    for members in clusters:
        lo = min(val(s) for s in members)
        for s in members:
            if sup_norm(s) <= m:
                values[s[0] + m, s[1] + m] = lo
    return values, r_a


class TestClusterOracle:
    def test_deform_matches_bfs(self, small_wave):
        # short bonds grow clusters; the inner box (value 1) and the sites
        # at and beyond the box edge (value 0) give equal-value ties, and
        # endpoints reach past the margin
        m = small_wave.margin
        rng = np.random.default_rng(31)
        for _ in range(150):
            bonds = []
            for _ in range(int(rng.integers(0, 40))):
                x = tuple(int(c) for c in rng.integers(-m - 2, m + 3, 2))
                d = rng.integers(-2, 3, 2)
                bonds.append((x, (x[0] + int(d[0]), x[1] + int(d[1]))))
            assert np.array_equal(deform(small_wave, bonds),
                                  bfs_deform(small_wave, bonds)[0])

    def test_tie_across_the_box_edge(self, small_wave):
        # (9, 0) is outside the box and (m + 1, 0) outside the grid: both 0,
        # and so is the cluster minimum that (8, 0) takes
        m = small_wave.margin
        dw = deform(small_wave, [((m + 1, 0), (9, 0)), ((9, 0), (8, 0))])
        assert small_wave.at((8, 0)) != 0.0
        assert _deformed_at(dw, (9, 0)) == _deformed_at(dw, (8, 0)) == 0.0


class TestBondSampler:
    def test_bonds_are_valid(self, nn_walk):
        j_grid = nn_walk.grid_values(2)
        rng = np.random.default_rng(3)
        bonds = sample_long_range_bonds(0.4, j_grid, 10, rng)
        assert bonds.dtype == np.int64 and bonds.shape[1:] == (2, 2)
        assert len(bonds) > 0
        seen = set()
        for x, y in bonds.tolist():
            d = (y[0] - x[0], y[1] - x[1])
            assert j_grid[d[0] + 2, d[1] + 2] > 0
            assert max(abs(x[0]), abs(x[1])) <= 10
            assert max(abs(y[0]), abs(y[1])) <= 10
            key = frozenset((tuple(x), tuple(y)))
            assert key not in seen
            seen.add(key)

    def test_count_statistics(self, nn_walk):
        # each of the 4 displacements contributes eps * 1/4 per eligible pair
        j_grid = nn_walk.grid_values(1)
        margin, eps = 12, 0.3
        side = 2 * margin + 1
        expected = eps * 0.5 * side * (side - 1)  # two representative shifts
        rng = np.random.default_rng(9)
        counts = [len(sample_long_range_bonds(eps, j_grid, margin, rng))
                  for _ in range(200)]
        sigma = math.sqrt(expected * (1 - eps * 0.25) / 200)
        assert abs(np.mean(counts) - expected) < 4 * sigma

    def test_coupling_weighted_frequencies(self):
        # J(d) = 0.5 / |d|^4 on the radius-6 box: the pairs at |d|^2 = 1 and
        # 2 are open with frequency eps * J
        k, margin, eps = 2, 6, 0.4
        ax = np.arange(-k, k + 1) ** 2
        d2 = np.add.outer(ax, ax)
        j_grid = np.where(d2 > 0, 0.5 / np.maximum(d2, 1) ** 2, 0.0)
        rng = np.random.default_rng(0)
        side = 2 * margin + 1
        pairs = {1: 2 * side * (side - 1), 2: 2 * (side - 1) ** 2}
        counts = {1: 0, 2: 0}
        samples = 40
        for _ in range(samples):
            bonds = sample_long_range_bonds(eps, j_grid, margin, rng)
            lengths = ((bonds[:, 1] - bonds[:, 0]) ** 2).sum(axis=1)
            for n2 in counts:
                counts[n2] += int(np.sum(lengths == n2))
        for n2, per_sample in pairs.items():
            p = eps * 0.5 / n2 ** 2
            total = samples * per_sample
            sigma = math.sqrt(p * (1 - p) / total)
            assert abs(counts[n2] / total - p) < 3 * sigma

    def test_coupling_rejects_probability_above_one(self):
        j_grid = np.full((3, 3), 2.0)
        j_grid[1, 1] = 0.0
        with pytest.raises(ValueError):
            sample_long_range_bonds(0.9, j_grid, 1, np.random.default_rng(0))


def box_form(wave, j_grid):
    """The coupling on the wave's grid and box."""
    return BoxForm(j_grid, sup_grid(wave.margin) <= wave.n)


def smooth_term(wave, j_grid, c1):
    """The third Jensen term, 3 c1 Q(Psi), of the undeformed wave."""
    return 3 * c1 * _quadratic_form(wave.values, box_form(wave, j_grid))


class TestBoxForm:
    def test_quadratic_form_against_double_sum(self):
        # a kernel with no point symmetry, c(z) != c(-z), on a grid whose box
        # is off its centre
        rng = np.random.default_rng(11)
        c = rng.uniform(0.0, 1.0, (5, 5))
        v = rng.standard_normal((9, 11))
        box = np.zeros(v.shape, dtype=bool)
        box[2:6, 3:9] = True
        direct = 0.0
        for x1, x2 in zip(*np.nonzero(box)):
            for z1 in range(-2, 3):
                for z2 in range(-2, 3):
                    y1, y2 = x1 - z1, x2 - z2
                    inside = 0 <= y1 < v.shape[0] and 0 <= y2 < v.shape[1]
                    vy = v[y1, y2] if inside else 0.0
                    direct += c[z1 + 2, z2 + 2] * (v[x1, x2] - vy) ** 2
        assert _quadratic_form(v, BoxForm(c, box)) == pytest.approx(direct, rel=1e-12)

    def test_masses_against_sums(self):
        rng = np.random.default_rng(12)
        c = rng.uniform(0.0, 1.0, (3, 5))
        box = rng.uniform(size=(7, 8)) < 0.4
        form = BoxForm(c, box)
        row = np.zeros(box.shape)
        col = np.zeros(box.shape)
        for x1 in range(7):
            for x2 in range(8):
                for z1 in range(-1, 2):
                    for z2 in range(-2, 3):
                        y1, y2 = x1 - z1, x2 - z2
                        if 0 <= y1 < 7 and 0 <= y2 < 8:
                            row[x1, x2] += c[z1 + 1, z2 + 2]
                            col[y1, y2] += c[z1 + 1, z2 + 2] * box[x1, x2]
        assert np.allclose(form.row_mass, row, rtol=0, atol=1e-14)
        assert np.allclose(form.box_mass, col, rtol=0, atol=1e-14)


def _unique_labelling(bonds):
    # the labelling by np.unique that the code-grid ranks replace
    ends = np.asarray(bonds, dtype=np.int64).reshape(-1, 2)
    b = int(np.abs(ends).max(initial=0))
    side = 2 * b + 1
    codes, first, inv = np.unique((ends[:, 0] + b) * side + ends[:, 1] + b,
                                  return_index=True, return_inverse=True)
    graph = coo_matrix((np.ones(len(inv) // 2), (inv[0::2], inv[1::2])),
                       shape=(len(codes), len(codes)))
    _, labels = connected_components(graph, directed=False)
    return ends[first], labels


class TestClusterLabelling:
    @pytest.mark.parametrize("n", [4, 16, 64])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_matches_unique_labelling(self, n, seed):
        rng = np.random.default_rng(seed)
        j_grid = kernel_preset("powerlaw(3.5)", radius=3).grid_values()
        bonds = sample_long_range_bonds(0.6, j_grid, n, rng)
        sites, labels = _clusters(bonds)
        want_sites, want_labels = _unique_labelling(bonds)
        assert np.array_equal(sites, want_sites)
        assert np.array_equal(labels, want_labels)


class TestEntropyBound:
    def test_no_bonds_reduces_to_smooth_form(self, nn_walk, small_wave):
        j_grid = nn_walk.grid_values(small_wave.margin)
        est = entropy_bound(small_wave, deform(small_wave, []),
                            box_form(small_wave, j_grid), c1=2.0)
        assert est.term_cluster_x == 0.0
        assert est.term_cluster_y == 0.0
        assert est.value == pytest.approx(smooth_term(small_wave, j_grid, 2.0) / 3,
                                          rel=1e-10)

    def test_brute_force_quadratic_form(self, nn_walk, small_wave):
        j_grid = nn_walk.grid_values(1)
        bonds = [((3, 0), (5, 0)), ((0, 4), (0, 6)), ((-4, -4), (-5, -4))]
        dw = deform(small_wave, bonds)
        est = entropy_bound(small_wave, dw, box_form(small_wave, j_grid), c1=1.0)
        direct = 0.0
        n = small_wave.n
        for x1 in range(-n, n + 1):
            for x2 in range(-n, n + 1):
                for dx, dy in [(1, 0), (-1, 0), (0, 1), (0, -1)]:
                    direct += 0.25 * (_deformed_at(dw, (x1, x2)) - _deformed_at(dw, (x1 + dx, x2 + dy))) ** 2
        assert est.value == pytest.approx(direct, rel=1e-9)

    def test_jensen_inequality(self, nn_walk, small_wave):
        j_grid = nn_walk.grid_values(4)
        rng = np.random.default_rng(17)
        for _ in range(5):
            bonds = sample_long_range_bonds(0.3, j_grid, small_wave.margin, rng)
            est = entropy_bound(small_wave, deform(small_wave, bonds),
                                box_form(small_wave, j_grid), c1=1.5)
            jensen = (est.term_cluster_x + est.term_cluster_y
                      + smooth_term(small_wave, j_grid, 1.5))
            assert est.value <= jensen + 1e-12


class TestExpectedEntropy:
    def test_report_consistency(self, nn_walk):
        rep = expected_entropy(nn_walk, 0.2, 8, 2, math.pi / 4, 40, seed=5)
        assert rep.ci[0] <= rep.mean <= rep.ci[1]
        assert rep.mean >= 0.0
        # connection probabilities are dominated by d_eps
        assert rep.cluster_mean <= rep.cluster_comparison

    def test_larger_box_smaller_entropy(self, nn_walk):
        small = expected_entropy(nn_walk, 0.2, 8, 2, math.pi / 4, 60, seed=1)
        big = expected_entropy(nn_walk, 0.2, 24, 2, math.pi / 4, 60, seed=2)
        assert big.mean < small.mean
        assert big.ci[1] < small.ci[0]
