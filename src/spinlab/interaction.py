"""Pair potentials on the circle and the smooth/singular decomposition.

Angles live on [-pi, pi); all differences go through :func:`circle_dist`
before a potential sees them.  A potential may be hard-core: energy +inf
beyond an angular cutoff.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

TWO_PI = 2.0 * math.pi


def wrap_angle(phi):
    """Canonical representative in [-pi, pi)."""
    return np.mod(np.asarray(phi) + math.pi, TWO_PI) - math.pi


def circle_dist(phi):
    """Distance to 0 on the circle, in [0, pi]."""
    return np.abs(wrap_angle(phi))


@dataclass(frozen=True)
class PairPotential:
    """Symmetric pair potential U(phi) = U(-phi) on the circle.

    `func` must accept numpy arrays of wrapped angles.  `cutoff` marks a
    hard core: the value is +inf exactly for circle distance > cutoff.
    `fourier`, when given, is the same function as a trigonometric
    polynomial; the Metropolis sweep then computes energy differences from
    per-mode local fields instead of calling `func`.
    """

    name: str
    func: Callable[[np.ndarray], np.ndarray]
    second_derivative_bound: Optional[float] = None
    cutoff: Optional[float] = None
    fourier: Optional["TrigPolynomial"] = field(default=None, compare=False)

    def __call__(self, phi):
        phi = wrap_angle(phi)
        vals = np.asarray(self.func(phi), dtype=float)
        if self.cutoff is not None:
            vals = np.where(circle_dist(phi) > self.cutoff, np.inf, vals)
        return vals

    @property
    def is_hard_core(self) -> bool:
        return self.cutoff is not None


def xy(J: float = 1.0) -> PairPotential:
    """XY interaction -J cos(phi); U'' = J cos <= J."""
    return PairPotential(f"xy({J})", lambda p: -J * np.cos(p),
                         second_derivative_bound=abs(J),
                         fourier=TrigPolynomial(0.0, np.array([-float(J)]),
                                                np.array([0.0])))


def aizenman(theta: float) -> PairPotential:
    """-cos(phi) inside the angular cutoff theta, +inf beyond it."""
    if not 0 < theta < math.pi:
        raise ValueError("cutoff must lie in (0, pi)")
    return PairPotential(f"aizenman({theta})", lambda p: -np.cos(p), cutoff=theta)


def logsing(floor: float = -30.0) -> PairPotential:
    """Log singularity at 0, clamped below at `floor`.

    The clamp is not a small correction.  e^{-U} = 1/|phi| is not integrable
    at 0, so the Gibbs weight is finite only because of the clamp, and it
    depends on `floor`: for a spin with four neighbours at one angle, the
    weight |phi|^{-4} puts all but about 2e-4 of its mass within 1e-12 of
    that angle at the default floor.  A Metropolis chain started from an
    ordered state stays in that well: it accepts no move, and its tuned
    proposal width sits at the 1e-3 floor.
    """

    def f(p):
        d = circle_dist(p)
        with np.errstate(divide="ignore"):
            return np.maximum(np.log(d), floor)

    return PairPotential(f"logsing({floor})", f)


def absval() -> PairPotential:
    """Circle distance |phi|."""
    return PairPotential("absval", circle_dist)


_PRESETS = {"xy": xy, "aizenman": aizenman, "logsing": logsing, "absval": absval}


def potential_preset(spec: str) -> PairPotential:
    """Parse a preset spec like 'xy(0.5)', 'aizenman(0.5236)', 'absval'."""
    spec = spec.strip()
    if "(" in spec:
        name, rest = spec.split("(", 1)
        args = [float(a) for a in rest.rstrip(")").split(",") if a.strip()]
    else:
        name, args = spec, []
    if name not in _PRESETS:
        raise ValueError(f"unknown potential preset {name!r}")
    return _PRESETS[name](*args)


@dataclass
class TrigPolynomial:
    """Real trigonometric polynomial c0 + sum_s a_s cos(s phi) + b_s sin(s phi)."""

    c0: float
    cos_coeffs: np.ndarray  # index s-1 holds the cos(s phi) coefficient
    sin_coeffs: np.ndarray

    @property
    def degree(self) -> int:
        return len(self.cos_coeffs)

    def __call__(self, phi):
        phi = np.asarray(phi, dtype=float)
        out = np.full(phi.shape, self.c0)
        for s in range(1, self.degree + 1):
            out += self.cos_coeffs[s - 1] * np.cos(s * phi)
            out += self.sin_coeffs[s - 1] * np.sin(s * phi)
        return out

    def second_derivative(self, phi):
        phi = np.asarray(phi, dtype=float)
        out = np.zeros(phi.shape)
        for s in range(1, self.degree + 1):
            out -= s * s * (self.cos_coeffs[s - 1] * np.cos(s * phi)
                            + self.sin_coeffs[s - 1] * np.sin(s * phi))
        return out

    def as_potential(self, name: str = "trig") -> PairPotential:
        return PairPotential(name, self.__call__,
                             second_derivative_bound=second_derivative_bound(self),
                             fourier=self)


def second_derivative_bound(poly: TrigPolynomial) -> float:
    """Certified upper bound for U'': sum over modes of s^2 * amplitude."""
    bound = 0.0
    for s in range(1, poly.degree + 1):
        amp = math.hypot(poly.cos_coeffs[s - 1], poly.sin_coeffs[s - 1])
        bound += s * s * amp
    return bound


@dataclass
class SingularDecomposition:
    """Split U_bar = U - upsilon with U a trig polynomial and 0 <= upsilon <= eps."""

    smooth: TrigPolynomial
    original: PairPotential
    epsilon: float
    grid: np.ndarray = field(repr=False)

    def upsilon(self, phi):
        return self.smooth(wrap_angle(phi)) - self.original(phi)

    @property
    def second_derivative_bound(self) -> float:
        return second_derivative_bound(self.smooth)

    def verify(self, tol: float = 1e-9) -> None:
        ups = self.upsilon(self.grid)
        if np.min(ups) < -tol:
            raise AssertionError(f"upsilon dips to {np.min(ups)}")
        if np.max(ups) > self.epsilon + tol:
            raise AssertionError(f"upsilon peaks at {np.max(ups)} > {self.epsilon}")


def _truncated_fourier(values: np.ndarray, degree: int) -> TrigPolynomial:
    m = len(values)
    coeffs = np.fft.rfft(values) / m
    c0 = coeffs[0].real
    s = np.arange(1, degree + 1)
    weight = np.full(degree, 2.0)
    if 2 * degree == m:
        weight[-1] = 1.0  # the Nyquist mode appears once in the interpolant
    cos_c = weight * coeffs[1:degree + 1].real
    sin_c = -weight * coeffs[1:degree + 1].imag
    # grid starts at -pi: shift modes back to angle coordinates
    shift = np.exp(1j * s * math.pi)
    rot = (cos_c - 1j * sin_c) * shift
    return TrigPolynomial(c0, rot.real.copy(), -rot.imag.copy())


def decompose(pot: PairPotential, eps: float, grid_size: int = 4096,
              max_degree: Optional[int] = None) -> SingularDecomposition:
    """Write a potential as U - upsilon with 0 <= upsilon <= eps on its grid.

    A truncated Fourier approximation P of the potential is refined until its
    sup error on the grid of `grid_size` points is <= eps/2; then
    U = P + max(Ubar - P), so upsilon = U - Ubar lies in [0, eps] there.  At
    the default degree cap grid_size/2 the polynomial is the grid interpolant
    (the Nyquist mode counted once), so its grid error is rounding alone
    (4.4e-12 for `logsing` on 4096 points).  Between
    grid points nothing is checked: for `logsing` at eps = 0.5, upsilon
    spans [-20.8, 4.98] on a grid 16 times finer.
    """
    if eps <= 0:
        raise ValueError("eps must be positive")
    if max_degree is None:
        max_degree = grid_size // 2
    if pot.is_hard_core:
        raise ValueError("cannot decompose a hard-core potential")
    grid = -math.pi + TWO_PI * np.arange(grid_size) / grid_size
    target = pot(grid)
    if not np.all(np.isfinite(target)):
        raise ValueError("potential is not finite on the grid; clamp it first")
    degree = 1
    best = None
    while degree <= max_degree:
        poly = _truncated_fourier(target, degree)
        err = float(np.max(np.abs(poly(grid) - target)))
        best = (poly, err)
        if err <= eps / 2:
            break
        degree *= 2
    poly, err = best
    if err > eps / 2:
        raise ValueError(
            f"no trig polynomial of degree <= {max_degree} reaches sup error "
            f"{eps / 2:.3g} (got {err:.3g}); potential too rough for this eps")
    offset = float(np.max(target - poly(grid)))
    smooth = TrigPolynomial(poly.c0 + offset, poly.cos_coeffs, poly.sin_coeffs)
    dec = SingularDecomposition(smooth, pot, eps, grid)
    dec.verify()
    return dec


def verify_condition_51(dec: SingularDecomposition) -> float:
    """Worst-case ratio of the tilted to the untilted single-site integral.

    The ratio is taken over a grid of boundary angles (phi_2, phi_3, phi_4)
    with phi_1 = 0, which is exhaustive up to the rotation invariance of the
    integrals.  All angles and the quadrature nodes live on one grid so the
    four shifted copies of U are exact rolls.
    """
    m, search_points = 2048, 32  # quadrature nodes; boundary angles per axis
    grid = -math.pi + TWO_PI * np.arange(m) / m
    u = dec.smooth(grid)
    v = u - dec.original(grid)  # upsilon on the grid
    if not np.all(np.isfinite(u)):
        raise ValueError("quadrature failure: smooth part not finite")
    step = m // search_points
    shifts = np.arange(search_points) * step
    u_roll = np.stack([np.roll(u, s) for s in shifts])  # (P, m)
    v_roll = np.stack([np.roll(v, s) for s in shifts])
    worst = 1.0
    base_u = u_roll[0]
    base_v = v_roll[0]
    for i2 in range(search_points):
        # (P, P, m) block over (phi_3, phi_4) for this phi_2
        su = base_u + u_roll[i2] + u_roll[:, None, :] + u_roll[None, :, :]
        sv = base_v + v_roll[i2] + v_roll[:, None, :] + v_roll[None, :, :]
        su -= su.min(axis=-1, keepdims=True)  # underflow guard
        denom = np.exp(-su).mean(axis=-1)
        numer = np.exp(-su + sv).mean(axis=-1)
        if not np.all(np.isfinite(numer)):
            raise ValueError("quadrature failure: integrand overflow")
        worst = max(worst, float(np.max(numer / denom)))
    return worst


def domination_epsilon(ratio: float) -> float:
    """Bernoulli bond density dominating the dependent process: ratio - 1."""
    if ratio < 1:
        raise ValueError("ratio must be >= 1")
    eps = ratio - 1.0
    if eps >= 1:
        import warnings
        warnings.warn("domination density >= 1: Bernoulli comparison is vacuous")
    return eps


# ---------------------------------------------------------------------------
# exact toy systems: discretized spins on a tiny box, for domination checks

@dataclass
class DiscretizedToySystem:
    """Spins taking q equally spaced angles on a (2n+1)^2 box, n <= 1.

    Partition functions with per-bond tilting factors are computed exactly by
    a row transfer matrix, which is what makes conditional open probabilities
    of the dependent bond process enumerable.
    """

    n: int
    states: int
    smooth: Callable[[np.ndarray], np.ndarray]
    upsilon: Callable[[np.ndarray], np.ndarray]
    boundary_angle: float = 0.0

    def __post_init__(self):
        if self.n > 1:
            raise ValueError("toy systems are meant for boxes <= 3x3")
        self.side = 2 * self.n + 1
        self.angles = TWO_PI * np.arange(self.states) / self.states
        from . import lattice
        sites = lattice.box_sites(self.n)
        inside = set(sites)
        bonds = set()
        for u in sites:
            for d in ((1, 0), (-1, 0), (0, 1), (0, -1)):
                v = (u[0] + d[0], u[1] + d[1])
                bonds.add(lattice.canonical_bond(u, v))
        self.bonds = sorted(bonds)  # all of E_n: at least one end inside
        self.inside = inside
        import itertools
        self._rows = np.array(list(itertools.product(range(self.states),
                                                     repeat=self.side)))

    def _weight_vectors(self):
        """Per-difference weights w[d] for plain and tilted bonds."""
        diff = self.angles
        plain = np.exp(-np.asarray(self.smooth(diff), dtype=float))
        tilt = plain * np.expm1(np.asarray(self.upsilon(diff), dtype=float))
        return plain, tilt

    def partition_function(self, tilted_bonds) -> float:
        """Z(A) = sum_phi e^{-H_U} prod_{b in A} (e^{upsilon} - 1), exactly."""
        from .lattice import canonical_bond
        tilted = set(tilted_bonds)
        plain, tilt = self._weight_vectors()
        q, side, n = self.states, self.side, self.n
        bnd = int(round(self.boundary_angle / TWO_PI * q)) % q
        xs = list(range(-n, n + 1))
        ys = list(range(-n, n + 1))
        rows = self._rows  # (R, side) state tuples

        def wv(u, v):
            return tilt if canonical_bond(u, v) in tilted else plain

        def row_weight(y):
            out = np.ones(len(rows))
            for i in range(side - 1):
                out *= wv((xs[i], y), (xs[i + 1], y))[(rows[:, i] - rows[:, i + 1]) % q]
            # bonds to the fixed boundary columns x = +-(n+1)
            out *= wv((-n - 1, y), (xs[0], y))[(bnd - rows[:, 0]) % q]
            out *= wv((xs[-1], y), (n + 1, y))[(rows[:, -1] - bnd) % q]
            return out

        def vert_trans(y):
            # (R, R) matrix of vertical-bond weights between row y and y+1
            out = np.ones((len(rows), len(rows)))
            for i in range(side):
                d = (rows[:, None, i] - rows[None, :, i]) % q
                out *= wv((xs[i], y), (xs[i], y + 1))[d]
            return out

        # boundary rows y = +-(n+1) are fixed at the boundary state
        bottom = np.ones(len(rows))
        for i in range(side):
            bottom *= wv((xs[i], ys[0] - 1), (xs[i], ys[0]))[(bnd - rows[:, i]) % q]
        vec = bottom * row_weight(ys[0])
        for j in range(1, len(ys)):
            vec = vec @ vert_trans(ys[j] - 1) * row_weight(ys[j])
        top = np.ones(len(rows))
        for i in range(side):
            top *= wv((xs[i], ys[-1]), (xs[i], ys[-1] + 1))[(rows[:, i] - bnd) % q]
        return float(vec @ top)

    def conditional_open_probability(self, bond, conditioning) -> float:
        """P(bond in A | A minus bond = conditioning), exactly."""
        d = set(conditioning) - {bond}
        z_without = self.partition_function(d)
        z_with = self.partition_function(d | {bond})
        return z_with / (z_with + z_without)
