"""Spin-wave profiles, their Dirichlet energy, and the relative-entropy bound.

The spin-wave interpolates the amplitude psi on an inner box down to 0
outside the big box, harmonically with respect to the connectivity
conductances d_eps.  The harmonic profile is the electrical voltage, equal to
psi times the probability that the conductance walk hits the inner box before
leaving.  The profile is solved by conjugate gradients, preconditioned by
the operator's own symbol on the box, which the type-I sine transform
diagonalizes; the iteration count then stays flat in the box size.  Bond
samples A deform the wave to its cluster-wise minimum; the entropy of the
tilted state is bounded by a quadratic form in the deformed wave, and Jensen
splits it into two cluster-displacement terms and one smooth term
3 c1 Q(psi), which is the same for every sample and is not formed here.

Every convolution is with a kernel that is fixed for the whole solve or the
whole set of samples, so each kernel is transformed once
(`lattice.KernelConvolution`).  Sums over the box of a convolution are dot
products with the kernel's box mass (`BoxForm`): a quadratic form takes one
convolution, and the cluster terms take none.

The solve's working set is the CG vectors over the free sites, the
convolution's padded input buffer, the kernel's transform and the sine
symbol.  The free sites are one boolean mask, in C order, used for both
scatter and gather: each matvec writes them straight into the convolution's
input and reads them from the centred view of its result, and the
preconditioner transforms one box grid in place.  No flat index, per-call
grid or grid-sized residual is formed, and the field itself is built once,
after CG.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy.fft import dstn, idstn
from scipy.sparse import coo_matrix, csgraph
from scipy.sparse.linalg import LinearOperator, cg

from .lattice import KernelConvolution, sup_grid
from .longrange_walk import WalkKernel, connectivity_bound


def conductance_grid(walk: WalkKernel, eps: float, radius: int = None) -> np.ndarray:
    """d_eps surrogate conductances on a square grid, no self-conductance."""
    d = connectivity_bound(walk, eps, radius=radius)
    g = d.grid.copy()
    g[d.radius, d.radius] = 0.0
    return g


@dataclass
class SpinWaveField:
    n: int
    values: np.ndarray  # full grid, side 2*margin+1, zero outside the box
    margin: int
    cgrid: np.ndarray
    residual: float
    iterations: int  # CG iterations of the solve

    def at(self, x) -> float:
        return float(self.values[x[0] + self.margin, x[1] + self.margin])


def _sine_symbol(cgrid: np.ndarray, side: int) -> np.ndarray:
    """Symbol of the conductance operator at the type-I sine frequencies
    t_i = pi i/(side + 1), i = 1..side: c_tot - sum_x c(x) cos(t_i x1)
    cos(t_j x2).  The cosine product is the whole symbol because d_eps grids
    are symmetric under each axis flip.  For nearest-neighbour conductances
    these are the eigenvalues of the operator on a side x side box."""
    k = (cgrid.shape[0] - 1) // 2
    t = np.pi * np.arange(1, side + 1) / (side + 1)
    cos = np.cos(np.outer(t, np.arange(-k, k + 1)))
    return float(cgrid.sum()) - cos @ cgrid @ cos.T


def solve_spinwave(walk: WalkKernel, n: int, inner: int, psi: float,
                   eps: float = 0.2, cgrid: np.ndarray = None) -> SpinWaveField:
    """Discrete Dirichlet problem: psi on the inner box, 0 outside the box,
    harmonic for the conductances in between, solved by conjugate gradients
    with an FFT matvec.  The preconditioner is R S L^-1 S^-1 R^T: S the 2-D
    type-I sine transform of the box sup <= n, L the operator's symbol there
    (`_sine_symbol`) and R the restriction to the free sites, so the inner
    box stays zero.  It is symmetric positive definite, and the iteration
    count does not grow with n."""
    tol = 1e-9  # residual bound relative to the total conductance
    if inner >= n:
        raise ValueError("inner radius must be smaller than n")
    if cgrid is None:
        cgrid = conductance_grid(walk, eps)
    k = (cgrid.shape[0] - 1) // 2
    margin = n + k
    sup = sup_grid(margin)
    inner_box = sup <= inner
    free = ~inner_box & (sup <= n)
    del sup
    c_tot = float(cgrid.sum())
    convolve = KernelConvolution(cgrid, free.shape)
    grid = convolve.input  # zero off the free sites, except while b is formed

    def matvec(u):
        grid[free] = u
        g = convolve(grid)[free]
        out = c_tot * u
        out -= g
        return out

    side = 2 * n + 1
    spectrum = _sine_symbol(cgrid, side)
    if spectrum.min() <= 0:
        raise ValueError("conductances without a positive symbol on the box")
    box_free = free[k:k + side, k:k + side]

    def precondition(r):
        t = np.zeros((side, side))
        t[box_free] = r
        t = dstn(t, type=1, overwrite_x=True)
        t /= spectrum
        return idstn(t, type=1, overwrite_x=True)[box_free]

    iterations = 0

    def count(_):
        nonlocal iterations
        iterations += 1

    grid[inner_box] = psi
    b = convolve(grid)[free]
    grid[inner_box] = 0.0
    op = LinearOperator((len(b), len(b)), matvec=matvec)
    m_op = LinearOperator((len(b), len(b)), matvec=precondition)
    u, info = cg(op, b, rtol=tol * 1e-2, atol=0.0, maxiter=10 ** 5, M=m_op,
                 callback=count)
    values = np.zeros(free.shape)
    values[inner_box] = psi
    values[free] = u
    r = convolve(values)[free]
    r -= c_tot * u
    res = float(np.max(np.abs(r)))
    if info != 0 or res > tol * c_tot:
        raise RuntimeError(f"solver did not converge: residual {res:.3e}")
    return SpinWaveField(n, values, margin, cgrid, res, iterations)


class BoxForm:
    """A kernel c (odd sides, centred) on one grid, and a box of that grid.
    `convolve` is the "same"-size convolution with c, `row_mass` = c * 1 the
    coupling of each site to the grid, and `box_mass` = c~ * 1_box, with
    c~(z) = c(-z), the coupling of each site to the box.  A box sum of a
    convolution is then a dot product: sum over x in the box of (c * f)(x) =
    sum_y f(y) box_mass(y).  c is not assumed symmetric."""

    def __init__(self, c: np.ndarray, box: np.ndarray):
        self.box = box
        self.total = float(c.sum())
        self.box_mass = KernelConvolution(c[::-1, ::-1], box.shape)(box).copy()
        self.convolve = KernelConvolution(c, box.shape)

    @cached_property
    def row_mass(self) -> np.ndarray:
        return self.convolve(np.ones(self.box.shape))


def _quadratic_form(v: np.ndarray, form: BoxForm) -> float:
    """sum over x in the box, y anywhere, of c(x-y)(v(x) - v(y))^2: the box sum
    of C v^2 - 2 v (c * v) + c * v^2, C the kernel's mass, with the last term
    as the dot product of v^2 with the box mass.  The first two terms are
    formed at the box sites only."""
    box = form.box
    g = form.convolve(v)[box]
    g *= 2.0 * v[box]
    v2 = v * v
    cross = form.total * v2[box]
    cross -= g
    return float(np.sum(cross) + np.vdot(v2, form.box_mass))


def dirichlet_energy(wave: SpinWaveField) -> float:
    """sum over x in the box, y anywhere, of c(x-y)(Psi(x) - Psi(y))^2."""
    box = sup_grid(wave.margin) <= wave.n
    return _quadratic_form(wave.values, BoxForm(wave.cgrid, box))


def _clusters(bonds):
    """One labelling of the A-clusters: the (k, 2) coordinates of the sites
    the bonds touch, in lexicographic order, and their cluster labels.  A
    touched site is numbered by its rank among the marked codes of the
    (2b + 1)^2 box that holds every bond end."""
    ends = np.asarray(bonds, dtype=np.int64).reshape(-1, 2)
    b = int(np.abs(ends).max(initial=0))
    side = 2 * b + 1
    codes = (ends[:, 0] + b) * side + ends[:, 1] + b
    touched = np.zeros(side * side, dtype=bool)
    touched[codes] = True
    rank = np.cumsum(touched) - 1
    inv = rank[codes]
    sites = np.stack(np.divmod(np.flatnonzero(touched), side), axis=1) - b
    graph = coo_matrix((np.ones(len(inv) // 2), (inv[0::2], inv[1::2])),
                       shape=(len(sites), len(sites)))
    _, labels = csgraph.connected_components(graph, directed=False)
    return sites, labels


def deform(wave: SpinWaveField, bonds) -> np.ndarray:
    """The wave's grid with each A-cluster set to its minimum over the
    cluster (identity off clusters); sites past the grid count as 0."""
    m = wave.margin
    sites, labels = _clusters(bonds)
    inside = np.abs(sites).max(axis=1) <= m
    x, y = sites[inside].T + m
    vals = np.zeros(len(sites))
    vals[inside] = wave.values[x, y]
    low = np.full(len(sites), np.inf)  # each cluster's minimum, by label
    np.minimum.at(low, labels, vals)
    values = wave.values.copy()
    values[x, y] = low[labels[inside]]
    return values


@dataclass
class EntropyEstimate:
    value: float
    term_cluster_x: float
    term_cluster_y: float


def entropy_bound(wave: SpinWaveField, deformed: np.ndarray, form: BoxForm,
                  c1: float) -> EntropyEstimate:
    """Quadratic form c1 sum J(x-y) (tilde Psi(x) - tilde Psi(y))^2 over x in
    the box, tilde Psi the `deform`ed grid of the wave, and the two cluster
    terms of its Jensen decomposition; the third, 3 c1 Q(Psi), does not
    depend on the bonds.  `form` holds J on the wave's grid and box.  The
    cluster terms take no convolution: one weighs disp^2 by J * 1 over the
    box, the other, the box sum of J * disp^2, is the dot product of disp^2
    with the box mass."""
    value = c1 * _quadratic_form(deformed, form)
    disp2 = (deformed - wave.values) ** 2
    term_x = 3 * c1 * float(np.sum((form.row_mass * disp2)[form.box]))
    term_y = 3 * c1 * float(np.vdot(disp2, form.box_mass))
    return EntropyEstimate(value, term_x, term_y)


def sample_long_range_bonds(eps: float, j_grid: np.ndarray, margin: int,
                            rng) -> np.ndarray:
    """A ~ Q_{J,eps} on pairs inside the square of the given radius: each pair
    {x, y} open with probability eps * J(x - y), sampled per displacement.
    Returns the open pairs as a (|A|, 2, 2) int64 array of endpoints."""
    k = (j_grid.shape[0] - 1) // 2
    side = 2 * margin + 1
    blocks = [np.zeros((0, 4), dtype=np.int64)]
    for dx in range(0, k + 1):
        for dy in range(-k, k + 1):
            if dx == 0 and dy <= 0:
                continue  # one representative per displacement pair
            p = eps * j_grid[dx + k, dy + k]
            if p <= 0:
                continue
            nx = side - dx
            ny = side - abs(dy)
            if nx <= 0 or ny <= 0:
                continue
            count = rng.binomial(nx * ny, p)
            if count == 0:
                continue
            picks = rng.choice(nx * ny, size=count, replace=False)
            xs = picks // ny - margin
            ys = picks % ny - margin + max(0, -dy)
            blocks.append(np.stack([xs, ys, xs + dx, ys + dy], axis=1))
    return np.concatenate(blocks).reshape(-1, 2, 2)


@dataclass
class EntropyReport:
    samples: int
    mean: float
    ci: tuple
    cluster_mean: float
    cluster_comparison: float


def expected_entropy(walk: WalkKernel, eps: float, n: int, inner: int,
                     psi: float, samples: int, seed: int) -> EntropyReport:
    """Monte Carlo average of the entropy bound over A ~ Q_{J,eps}.

    The coupling J is the walk kernel itself, and the bound is taken with
    c1 = 1; the analytic comparison value for the cluster terms replaces the
    connectivity probability by its d_eps upper bound.  Every sample is
    deformed: the paper's gate, which zeroes the wave when the clusters of V
    reach past R(delta), is not applied.
    """
    wave = solve_spinwave(walk, n, inner, psi, eps=eps)
    j_grid = walk.grid_values(min(walk.radius, wave.margin))
    form = BoxForm(j_grid, sup_grid(wave.margin) <= wave.n)
    rng = np.random.default_rng(seed)
    vals = []
    cluster_vals = []
    for _ in range(samples):
        bonds = sample_long_range_bonds(eps, j_grid, wave.margin, rng)
        est = entropy_bound(wave, deform(wave, bonds), form, 1.0)
        vals.append(est.value)
        cluster_vals.append(est.term_cluster_x + est.term_cluster_y)
    vals = np.asarray(vals)
    mean = float(vals.mean())
    half = 1.96 * float(vals.std(ddof=1)) / math.sqrt(samples) if samples > 1 else math.inf
    # cluster comparison: Q(x <-> y) <= d_eps(x - y), hence the cluster terms
    # are bounded by 6 c1 times the d_eps quadratic form of the smooth wave
    comparison = 6.0 * dirichlet_energy(wave)
    return EntropyReport(samples, mean, (mean - half, mean + half),
                         float(np.mean(cluster_vals)), comparison)
