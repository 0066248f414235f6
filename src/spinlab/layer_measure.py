"""Conditional layer-angle measures on the circle and their Fourier bounds.

Freezing the configuration on every layer of a box leaves one rotation angle
per layer; the conditional Gibbs law of those angles is a one-dimensional
chain with interlayer potentials W_k.  Each increment chi_k = psi_k - psi_{k+1}
is independent with density proportional to e^{-W_k}, so the law of psi_k is a
circular convolution, controlled through Fourier coefficients.

Densities are taken with respect to the normalized angle measure dt/(2pi), so
the uniform density is 1 and a_0 = 1.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
from scipy.special import erf

from . import lattice
from .interaction import PairPotential, TrigPolynomial, wrap_angle

DEFAULT_GRID = 4096
_BOND_BLOCK = 32  # bonds per block of a layer table without a Fourier form


def circle_grid(m: int = DEFAULT_GRID) -> np.ndarray:
    return 2.0 * math.pi * np.arange(m) / m


@dataclass
class OrbitConfiguration:
    """Frozen per-layer configurations plus a boundary condition.

    `layers[k]` holds one angle per site of L_k in the canonical order of
    :func:`spinlab.lattice.layer_sites`; `boundary` does the same for
    L_{n+1}, playing the role of the condition outside the box.
    """

    n: int
    layers: list[np.ndarray]
    boundary: np.ndarray

    def __post_init__(self):
        if len(self.layers) != self.n + 1:
            raise ValueError("need one frozen configuration per layer 0..n")
        for k, cfg in enumerate(self.layers):
            expect = 1 if k == 0 else 8 * k
            if len(cfg) != expect:
                raise ValueError(f"layer {k} needs {expect} angles, got {len(cfg)}")
        if len(self.boundary) != 8 * (self.n + 1):
            raise ValueError("boundary must cover layer n+1")

    @classmethod
    def constant(cls, n: int, value: float = 0.0) -> "OrbitConfiguration":
        layers = [np.full(1 if k == 0 else 8 * k, value) for k in range(n + 1)]
        return cls(n, layers, np.full(8 * (n + 1), value))

    @classmethod
    def random(cls, n: int, rng) -> "OrbitConfiguration":
        layers = [rng.uniform(-math.pi, math.pi, size=1 if k == 0 else 8 * k)
                  for k in range(n + 1)]
        return cls(n, layers, rng.uniform(-math.pi, math.pi, size=8 * (n + 1)))

    def angles_at(self, k: int) -> np.ndarray:
        if k == self.n + 1:
            return self.boundary
        return self.layers[k]


@functools.cache
def _bond_ends(k: int) -> tuple[np.ndarray, np.ndarray]:
    """Indices of the layer-k and layer-(k+1) ends of each interlayer bond,
    in `lattice.interlayer_bonds(k)` order (read-only, shared by callers)."""
    inner_index = {s: i for i, s in enumerate(lattice.layer_sites(k))}
    outer_index = {s: i for i, s in enumerate(lattice.layer_sites(k + 1))}
    # canonical bonds may list either endpoint first
    ends = [(u, v) if u in inner_index else (v, u)
            for u, v in lattice.interlayer_bonds(k)]
    inner = np.array([inner_index[u] for u, _ in ends])
    outer = np.array([outer_index[v] for _, v in ends])
    inner.flags.writeable = outer.flags.writeable = False
    return inner, outer


def layer_potential(k: int, orbit: OrbitConfiguration, pot: PairPotential,
                    grid_size: int = DEFAULT_GRID) -> np.ndarray:
    """Tabulate W_k(t), the energy of rotating layer k by t against layer k+1,
    at the angles of `circle_grid(grid_size)`; a hard core makes it +inf.

    Only the interlayer bonds contribute; intralayer bonds are constant along
    the orbit.  For k = n the outer layer is the boundary condition.  With
    bond differences delta_b, W_k(t) = sum_b U(t + delta_b).  A potential
    with a Fourier form c0 + Re sum_s (a_s - i b_s) e^{is phi} gives
    W_k(t) = |B| c0 + Re sum_s (a_s - i b_s) Z_s e^{ist}, Z_s = sum_b
    e^{is delta_b}, a polynomial of the same degree evaluated by one inverse
    FFT; its cutoff puts +inf where some bond leaves the hard core.  Any
    other potential is called on blocks of `_BOND_BLOCK` bonds x grid
    angles, each block's first row carrying the running total, so the sum
    adds the bonds in order exactly as one (bonds x grid) table would.
    """
    if not 0 <= k <= orbit.n:
        raise ValueError(f"layer index {k} outside 0..{orbit.n}")
    inner, outer = _bond_ends(k)
    deltas = orbit.angles_at(k)[inner] - orbit.angles_at(k + 1)[outer]
    t = circle_grid(grid_size)
    poly = pot.fourier
    if poly is None:
        w = None
        for i in range(0, len(deltas), _BOND_BLOCK):
            block = pot(t[None, :] + deltas[i:i + _BOND_BLOCK, None])
            if w is not None:
                block[0] += w
            # the axis-0 sum of a C-contiguous block adds its rows in order
            w = block.sum(axis=0)
    else:
        s = np.arange(1, poly.degree + 1)
        z = np.exp(1j * np.outer(s, deltas)).sum(axis=1)
        # circle_grid starts at 0 and on_grid at -pi: turn mode s by (-1)^s
        c = (poly.cos_coeffs - 1j * poly.sin_coeffs) * z * np.where(s % 2, -1.0, 1.0)
        w = TrigPolynomial(len(deltas) * poly.c0, c.real, -c.imag).on_grid(grid_size)
        if pot.cutoff is not None:
            outside = np.abs(wrap_angle(t[None, :] + deltas[:, None])) > pot.cutoff
            w[outside.any(axis=0)] = np.inf
    if not np.isfinite(w).any():
        raise ValueError(f"layer potential {k} is +inf everywhere: infeasible orbit")
    return w


@dataclass
class CircleDensity:
    """Probability density on the circle, grid values w.r.t. dt/(2pi)."""

    values: np.ndarray

    def __post_init__(self):
        if np.min(self.values) < 0:
            raise ValueError("density must be nonnegative")
        if abs(float(np.mean(self.values)) - 1.0) > 1e-10:
            raise ValueError("density must normalize to a_0 = 1")

    @functools.cached_property
    def _coeffs(self) -> np.ndarray:
        return np.fft.ifft(self.values)

    @property
    def grid_size(self) -> int:
        return len(self.values)

    def fourier(self, s: int) -> complex:
        """a_s = (1/2pi) int q(t) e^{ist} dt, via the discrete transform."""
        return complex(self._coeffs[s % self.grid_size])

    @property
    def sup_deviation(self) -> float:
        return float(np.max(np.abs(self.values - 1.0)))


def chi_density(w: np.ndarray) -> CircleDensity:
    """Density of the layer increment: q proportional to e^{-W}, from the
    values of `layer_potential`.

    A hard-core potential makes part of the circle infeasible; the density is
    then supported on the feasible arc.
    """
    finite = np.isfinite(w)
    if not finite.any():
        raise ValueError("W is +inf everywhere")
    shifted = w - np.min(w[finite])  # underflow guard
    q = np.where(finite, np.exp(-np.where(finite, shifted, 0.0)), 0.0)
    q /= np.mean(q)
    return CircleDensity(q)


def convolve(densities) -> CircleDensity:
    """Circular convolution of densities, computed in Fourier space."""
    densities = list(densities)
    if not densities:
        raise ValueError("need at least one density")
    m = densities[0].grid_size
    if any(d.grid_size != m for d in densities):
        raise ValueError("densities must share one grid")
    spec = np.ones(m, dtype=complex)
    for d in densities:
        spec *= np.fft.fft(d.values) / m
    out = np.fft.ifft(spec).real * m
    out = np.clip(out, 0.0, None)  # round-off can leave tiny negatives
    out /= np.mean(out)
    return CircleDensity(out)


def sup_density_bound(k: int, c_bar: float) -> float:
    """Cap on the increment density from the Taylor bound on W.

    W <= W_min + 8*Cbar*(k+1)*t^2 gives
    max q <= (1/(2pi) int_{-pi}^{pi} e^{-8 Cbar (k+1) t^2} dt)^{-1}.
    """
    if c_bar < 0:
        raise ValueError("second-derivative bound must be >= 0")
    if c_bar == 0:
        return 1.0
    a = 8.0 * c_bar * (k + 1)
    integral = math.sqrt(math.pi / a) * float(erf(math.pi * math.sqrt(a)))
    return 2.0 * math.pi / integral


def density_cap_constant(c_bar: float) -> float:
    """C1 with max q_k <= C1 sqrt(k+1) for every k.

    The ratio sup_density_bound(k)/sqrt(k+1) is decreasing in k, so its
    supremum is the k = 0 cap.
    """
    return sup_density_bound(0, c_bar)


def fourier_max_bound(cap: float) -> tuple[float, float]:
    """Bounds on |a_s| (s != 0) over densities with sup q <= cap.

    Returns (coarse, sharp): the coarse product-form bound 1 - 1/(36 cap^2)
    and the sharp extremal value (cap/pi) sin(pi/cap).  The sharp value comes
    from the bathtub maximizer with peak half-width pi/(cap s), which is the
    width that makes the extremal density integrate to one.
    """
    if cap < 1:
        raise ValueError("no density can have a cap below 1")
    coarse = 1.0 - 1.0 / (36.0 * cap * cap)
    sharp = (cap / math.pi) * math.sin(math.pi / cap)
    return coarse, sharp


def uniformity_bound(k: int, r: int, c1: float) -> float:
    """Bound on sup|p_{k,r} - 1| for the convolution of layers k..r.

    C1 ((k+1)(k+2))^{1/4} prod_{l=k+2}^{r} (1 - 1/(36 C1^2 (l+1))).
    """
    if c1 <= 0:
        raise ValueError("C1 must be positive")
    if r < k + 1:
        raise ValueError("need r >= k+1")
    out = c1 * ((k + 1) * (k + 2)) ** 0.25
    for l in range(k + 2, r + 1):
        out *= 1.0 - 1.0 / (36.0 * c1 * c1 * (l + 1))
    return out


def extremal_fourier_oracle(cap: float, s: int, m: int = DEFAULT_GRID):
    """Maximize (1/2pi) int q cos(st) over grid densities with sup q <= cap.

    The linear program is solved exactly by a greedy fill: put q = cap on the
    cells with the largest cos(st), with one fractional cell to exhaust the
    unit mass.  Returns (value, maximizer density values).
    """
    if cap < 1:
        raise ValueError("cap must be >= 1")
    if s == 0:
        raise ValueError("mode must be nonzero")
    t = circle_grid(m)
    weights = np.cos(s * t)
    order = np.argsort(-weights)
    q = np.zeros(m)
    # total mass is mean(q) = 1; each cell at height cap contributes cap/m
    full = int(m // cap)
    q[order[:full]] = cap
    remainder = m - full * cap
    if full < m and remainder > 0:
        q[order[full]] = remainder
    value = float(np.mean(q * weights))
    return value, q
