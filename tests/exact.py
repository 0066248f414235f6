"""Exact references that the tests hold spinlab to, and one paper threshold.

Each reference is computed apart from the code it checks: by enumeration or
contraction, from a transition matrix written out in full, or from a
certificate that bounds every finite-energy configuration.  None of them
is library code; no experiment and no benchmark operation calls them.

- `DiscretizedToySystem`: partition functions of q-state spins on a box of
  radius n <= 1, hence exact conditional open probabilities of the tilted
  bond process (criterion 3).
- `discrete_metropolis_matrix` and `accept_probability`: the single-site
  Metropolis transition matrix of a discrete system, for detailed balance
  (criterion 9).
- `upsilon`: the singular part of a decomposition by its definition, at
  any angles, apart from the coset-wise check of `decompose`.
- `envelope_arcs`: the arc that the hard-core certificate leaves each box
  site of the smeared staircase state, which bounds its magnetization.
- `YWalkKernel` and `y_kernel`: the connectivity walk Y, whose
  characteristic function is an exact resolvent expression in its base
  walk's, for the recurrence verdict of criterion 5.
- `compute_R_delta`: the paper's R(delta), the radius past which the
  A-clusters of V reach with probability at most delta/(2 f_sup), from the
  d_eps tail mass; the tests hold the cluster reach of sampled bonds to it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from spinlab.interaction import TWO_PI, wrap_angle
from spinlab.lattice import canonical_bond, sup_grid, sup_norm
from spinlab.longrange_walk import WalkKernel, _neumann_terms, connectivity_bound
from spinlab.sampler import feasibility, smeared_bc


def box_sites(n: int):
    """All sites of the box of radius n, (2n+1)^2 of them."""
    if n < 0:
        raise ValueError("box radius must be >= 0")
    return [(x, y) for x in range(-n, n + 1) for y in range(-n, n + 1)]


def upsilon(dec, phi):
    """upsilon = P - U_bar of a `SingularDecomposition` at the angles phi:
    its smooth part at the wrapped angles minus the potential."""
    return dec.smooth(wrap_angle(phi)) - dec.original(phi)


# ---------------------------------------------------------------------------
# exact toy systems: discretized spins on a tiny box, for domination checks

@dataclass
class DiscretizedToySystem:
    """Spins taking q equally spaced angles on a (2n+1)^2 box, n <= 1, with
    the boundary fixed at angle 0.

    Partition functions with per-bond tilting factors are computed exactly
    by one tensor contraction over the bonds, which is what makes
    conditional open probabilities of the dependent bond process enumerable.
    """

    n: int
    states: int
    smooth: Callable[[np.ndarray], np.ndarray]
    upsilon: Callable[[np.ndarray], np.ndarray]

    def __post_init__(self):
        if self.n > 1:
            raise ValueError("toy systems are meant for boxes <= 3x3")
        self.bonds = sorted({  # all of E_n: at least one end inside
            canonical_bond(u, (u[0] + dx, u[1] + dy))
            for u in box_sites(self.n)
            for dx, dy in ((1, 0), (-1, 0), (0, 1), (0, -1))})

    def partition_function(self, tilted_bonds) -> float:
        """Z(A) = sum_phi e^{-H_U} prod_{b in A} (e^{upsilon} - 1), exactly.

        Bond (u, v), u < v, weighs w((phi_u - phi_v) mod q): a q x q factor
        on the states of its two ends, of which a boundary end keeps only
        state 0.  Z contracts all the factors over the states of the box.
        """
        q = self.states
        diff = TWO_PI * np.arange(q) / q
        plain = np.exp(-np.asarray(self.smooth(diff), dtype=float))
        tilt = plain * np.expm1(np.asarray(self.upsilon(diff), dtype=float))
        pairs = np.subtract.outer(np.arange(q), np.arange(q)) % q
        tilted = set(tilted_bonds)
        index = {u: i for i, u in enumerate(box_sites(self.n))}
        operands = []
        for u, v in self.bonds:
            w = (tilt if (u, v) in tilted else plain)[pairs]
            if u not in index:
                w = w[0]
            elif v not in index:
                w = w[:, 0]
            operands += [w, [index[x] for x in (u, v) if x in index]]
        return float(np.einsum(*operands, [], optimize="greedy"))

    def conditional_open_probability(self, bond, conditioning) -> float:
        """P(bond in A | A minus bond = conditioning), exactly."""
        d = set(conditioning) - {bond}
        z_without = self.partition_function(d)
        z_with = self.partition_function(d | {bond})
        return z_with / (z_with + z_without)


# ---------------------------------------------------------------------------
# Metropolis on a discrete system (exact detailed-balance check)


def accept_probability(delta_e) -> np.ndarray:
    """Metropolis rule min(1, e^{-dE}); infinite dE is never accepted."""
    with np.errstate(over="ignore", invalid="ignore"):
        out = np.exp(-np.asarray(delta_e, dtype=float))
    return np.where(np.isnan(out), 0.0, np.minimum(out, 1.0))


def discrete_metropolis_matrix(energies: np.ndarray) -> np.ndarray:
    """Single-site Metropolis transition matrix for a discrete system with
    the given state energies and uniform proposals."""
    m = len(energies)
    p = np.zeros((m, m))
    for i in range(m):
        for j in range(m):
            if i != j:
                p[i, j] = accept_probability(energies[j] - energies[i]) / m
        p[i, i] = 1.0 - p[i].sum()
    return p


# ---------------------------------------------------------------------------
# the hard-core state's envelopes


def envelope_arcs(k: int, delta: float, sigma: int, n: int):
    """(centre, half-width) of each box site's arc, in the flat-index order
    of the magnetization's (2n+1)^2 sites.

    `feasibility(smeared_bc(k, delta, sigma), 2 pi / k, n)` bounds the
    lifted angle of box site i of every finite-energy configuration by
    [lower_i, upper_i]; the box comes first among the certificate's sites,
    in the flat-index order of `StateReport.magnetization`.  A mean of unit
    vectors inside an arc of half-width h has modulus at least cos h and an
    argument inside the arc.
    """
    cert = feasibility(smeared_bc(k, delta, sigma), TWO_PI / k, n)
    box = (2 * n + 1) ** 2
    lower, upper = cert.lower[:box], cert.upper[:box]
    return 0.5 * (lower + upper), 0.5 * (upper - lower)


# ---------------------------------------------------------------------------
# the connectivity walk Y: its characteristic function in closed form


class YWalkKernel:
    """The connectivity walk: transitions proportional to d_eps.

    The characteristic function has the exact resolvent form
    phi_Y = phi (1 - eps) / (1 - eps phi) in the base walk's phi, so the walk
    is its base and eps alone.  It lists no kernel of its own, so it has no
    `grid_values`: `connectivity_bound` builds the truncated d_eps grid,
    whose radius is `radius`.
    """

    def __init__(self, base: WalkKernel, eps: float):
        _, self.radius = _neumann_terms(base, eps)
        self.base = base
        self.eps = eps

    @property
    def tail(self):
        # 1 - phi_Y = (1 - phi) / (1 - eps phi): the base's class
        return self.base.tail

    def char_function(self, theta: np.ndarray) -> np.ndarray:
        return 1.0 - self.gap(theta)

    def gap(self, theta: np.ndarray) -> np.ndarray:
        # 1 - phi_Y = (1 - phi) / (1 - eps phi), from the base's gap
        g = self.base.gap(theta)
        return g / (1.0 - self.eps * (1.0 - g))

    def midpoint_grid(self, n_grid: int) -> np.ndarray:
        phi = self.base.midpoint_grid(n_grid)
        return phi * (1.0 - self.eps) / (1.0 - self.eps * phi)

    @property
    def square_symmetric(self) -> bool:
        # phi_Y is a function of the base's phi, so it has the base's
        # symmetries exactly; the truncated d_eps grid has them only up to
        # the FFT rounding of its convolutions
        return self.base.square_symmetric


def y_kernel(walk: WalkKernel, eps: float) -> YWalkKernel:
    """Normalized walk with transitions proportional to d_eps.

    d_eps keeps return mass at the origin (even-step loops), so the Y-walk is
    lazy; laziness rescales 1 - phi by a constant and cannot change the
    recurrence verdict, and keeping it makes the resolvent form of phi_Y
    exact.
    """
    return YWalkKernel(walk, eps)


# ---------------------------------------------------------------------------
# R(delta): the cluster reach that the bond process exceeds rarely


def compute_R_delta(v_sites, delta: float, eps: float, walk: WalkKernel,
                    f_sup: float) -> int:
    """Smallest R with |V| * (d_eps mass beyond R - rho_V) <= delta/(2 f_sup).

    The unresolved mass past the numerical truncation, eps/(1 - eps) less the
    grid's sum, is charged to every tail, so the answer errs on the large
    side.
    """
    if delta <= 0:
        raise ValueError("delta must be positive")
    v_sites = list(v_sites)
    rho = max(1, max(map(sup_norm, v_sites), default=1))
    d = connectivity_bound(walk, eps)
    sup = sup_grid(d.radius)
    ring_mass = np.bincount(sup.ravel(), weights=d.grid.ravel())
    leak = eps / (1.0 - eps) - float(d.grid.sum())  # mass past the truncation
    target = delta / (2.0 * f_sup)
    # tails[r]: the mass on rings r and beyond, plus the leak
    tails = np.cumsum(np.r_[leak, ring_mass[::-1]])[::-1]
    for r_del in range(rho, rho + len(ring_mass) + 1):
        cut = min(r_del - rho + 1, len(ring_mass))
        if len(v_sites) * tails[cut] <= target:
            return r_del
    raise ValueError("tail never small enough; increase the truncation radius")
