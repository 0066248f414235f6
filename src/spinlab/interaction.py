"""Pair potentials on the circle and the smooth/singular decomposition.

Angles live on [-pi, pi); a potential wraps each difference once, with
:func:`wrap_angle`, before its formula sees it.  A potential may be
hard-core: energy +inf beyond an angular cutoff.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

TWO_PI = 2.0 * math.pi


def wrap_angle(phi):
    """Canonical representative in [-pi, pi), with one exception.

    For phi = nextafter(-pi, -inf), phi + pi is about -4.4e-16 and np.mod
    rounds its sum with 2 pi up to 2 pi, so the result is +pi; wrapping
    that again gives -pi.  |phi| is pi either way.

    The value is np.mod(phi + pi, 2 pi) - pi, computed as numpy's float mod
    computes it but without the floor division it also makes: r = fmod(y,
    2 pi) for y = phi + pi, plus 2 pi where r < 0, then minus pi.  fmod is
    exact, so every float64 input, +-0, +-inf and NaN included, gives the
    bits of the np.mod form.  (Where r is -0, adding +0 makes it +0, as mod
    does; -pi follows either way.)  Scalars take the np.mod form itself.
    The input is never changed.
    """
    y = np.asarray(phi) + math.pi
    if y.ndim == 0:
        return np.mod(y, TWO_PI) - math.pi
    np.fmod(y, TWO_PI, out=y)
    y += (y < 0) * TWO_PI
    y -= math.pi
    return y


def circle_dist(phi):
    """Distance to 0 on the circle, in [0, pi]."""
    w = wrap_angle(phi)
    return np.abs(w, out=w) if isinstance(w, np.ndarray) else np.abs(w)


@dataclass(frozen=True)
class PairPotential:
    """Symmetric pair potential U(phi) = U(-phi) on the circle.

    `func` receives numpy arrays of angles that `__call__` has already
    wrapped, and must not wrap them again: |phi| is the circle distance.
    `cutoff` marks a hard core: the value is +inf exactly for circle
    distance > cutoff.  `fourier`, when given, is the same function as a
    trigonometric polynomial inside the cutoff (a hard core may carry one);
    the Metropolis sweep then computes energy differences from per-mode
    local fields instead of calling `func`, and tests the cutoff apart.
    """

    name: str
    func: Callable[[np.ndarray], np.ndarray]
    cutoff: Optional[float] = None
    fourier: Optional["TrigPolynomial"] = field(default=None, compare=False)

    def __call__(self, phi):
        phi = wrap_angle(phi)
        vals = np.asarray(self.func(phi), dtype=float)
        if self.cutoff is not None:
            vals = np.where(np.abs(phi) > self.cutoff, np.inf, vals)
        return vals

    @property
    def is_hard_core(self) -> bool:
        return self.cutoff is not None


def xy(J: float = 1.0) -> PairPotential:
    """XY interaction -J cos(phi); U'' = J cos <= J."""
    poly = TrigPolynomial(0.0, np.array([-float(J)]), np.array([0.0]))
    return PairPotential(f"xy({J})", poly, fourier=poly)


def aizenman(theta: float) -> PairPotential:
    """-cos(phi) inside the angular cutoff theta, +inf beyond it."""
    if not 0 < theta < math.pi:
        raise ValueError("cutoff must lie in (0, pi)")
    poly = TrigPolynomial(0.0, np.array([-1.0]), np.array([0.0]))
    return PairPotential(f"aizenman({theta})", poly, cutoff=theta, fourier=poly)


def logsing(floor: float = -30.0) -> PairPotential:
    """Log singularity at 0, clamped below at `floor`.

    The clamp is not a small correction.  e^{-U} = 1/|phi| is not integrable
    at 0, so the Gibbs weight is finite only because of the clamp, and it
    depends on `floor`: for a spin with four neighbours at one angle, the
    weight |phi|^{-4} puts all but about 2e-4 of its mass within 1e-12 of
    that angle at the default floor.  A Metropolis chain started from an
    ordered state stays in that well: it accepts no move, and its tuned
    proposal width sits at the 1e-3 floor.  It lies outside the paper's
    integrable singularities, and :func:`decompose` refuses it: between the
    nodes of its grid the interpolant overshoots the log by far more than
    any eps (upsilon spans [-20.8, 4.98] at 4096 nodes).
    """

    def f(p):
        with np.errstate(divide="ignore"):
            return np.maximum(np.log(np.abs(p)), floor)

    return PairPotential(f"logsing({floor})", f)


def absval() -> PairPotential:
    """Circle distance |phi|."""
    return PairPotential("absval", np.abs)


_PRESETS = {"xy": xy, "aizenman": aizenman, "logsing": logsing, "absval": absval}


def potential_preset(spec: str) -> PairPotential:
    """Parse a preset spec like 'xy(0.5)', 'aizenman(0.5236)', 'absval'."""
    spec = spec.strip()
    if "(" in spec:
        name, rest = spec.split("(", 1)
        if not rest.endswith(")"):
            raise ValueError(f"unclosed potential preset {spec!r}")
        args = [float(a) for a in rest[:-1].split(",") if a.strip()]
        if not all(map(math.isfinite, args)):
            raise ValueError(f"non-finite argument in potential preset {spec!r}")
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

    def on_grid(self, m: int) -> np.ndarray:
        """Values at phi_j = -pi + 2 pi j / m, j < m, by one inverse FFT.

        Mode s goes to bin s mod m with the phase e^{i s phi_0} = (-1)^s, so
        modes of any degree fold onto the grid exactly as they alias there.
        """
        s = np.arange(1, self.degree + 1)
        spec = np.zeros(m, dtype=complex)
        np.add.at(spec, s % m, (self.cos_coeffs - 1j * self.sin_coeffs)
                  * np.where(s % 2, -1.0, 1.0))
        return self.c0 + m * np.fft.ifft(spec).real


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

    @property
    def second_derivative_bound(self) -> float:
        return second_derivative_bound(self.smooth)

    def upsilon_range(self, grid_size: int) -> tuple[float, float]:
        """Min and max of upsilon at the 16 grid_size angles -pi + 2 pi k /
        (16 grid_size), one coset of the grid_size grid at a time.

        Coset r holds k = 16 i + r, i < grid_size: the grid shifted by
        delta_r = 2 pi r / (16 grid_size).  There the smooth part is P(phi +
        delta_r), the polynomial whose mode s is turned by e^{i s delta_r},
        on the grid_size grid; the potential is called at those angles.
        """
        fine = 16 * grid_size
        s = np.arange(1, self.smooth.degree + 1)
        modes = self.smooth.cos_coeffs - 1j * self.smooth.sin_coeffs
        base = 16 * np.arange(grid_size)
        lo, hi = math.inf, -math.inf
        for r in range(16):
            rot = modes * np.exp(1j * s * (TWO_PI * r / fine))
            ups = TrigPolynomial(self.smooth.c0, rot.real, -rot.imag).on_grid(grid_size)
            ups -= self.original(-math.pi + TWO_PI * (base + r) / fine)
            lo, hi = min(lo, float(np.min(ups))), max(hi, float(np.max(ups)))
        return lo, hi


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


def decompose(pot: PairPotential, eps: float,
              grid_size: int = 4096) -> SingularDecomposition:
    """Write a potential as U - upsilon with 0 <= upsilon <= eps, checked.

    The truncated Fourier series P of the potential's values on `grid_size`
    points doubles in degree until its sup error there is <= eps/2, or up to
    degree grid_size/2, the grid interpolant (the Nyquist mode counted
    once).  Then U = P + max(Ubar - P) over that grid.  Upsilon = U - Ubar
    is checked on the 16x finer grid one coset of the base grid at a time
    (:meth:`SingularDecomposition.upsilon_range`); if it leaves [0, eps]
    there (up to 1e-9), the potential is too rough for this eps and
    ValueError is raised.  `logsing` is refused so.
    """
    if eps <= 0:
        raise ValueError("eps must be positive")
    if pot.is_hard_core:
        raise ValueError("cannot decompose a hard-core potential")
    target = pot(-math.pi + TWO_PI * np.arange(grid_size) / grid_size)
    if not np.all(np.isfinite(target)):
        raise ValueError("potential is not finite on the grid; clamp it first")
    degree = 1
    while True:
        poly = _truncated_fourier(target, degree)
        resid = target - poly.on_grid(grid_size)
        if np.max(np.abs(resid)) <= eps / 2 or 2 * degree > grid_size // 2:
            break
        degree *= 2
    smooth = TrigPolynomial(poly.c0 + float(np.max(resid)), poly.cos_coeffs,
                            poly.sin_coeffs)
    dec = SingularDecomposition(smooth, pot)
    lo, hi = dec.upsilon_range(grid_size)
    if not (lo >= -1e-9 and hi <= eps + 1e-9):
        raise ValueError(
            f"upsilon spans [{lo:.4g}, {hi:.4g}] on a grid 16x finer, outside "
            f"[0, {eps:g}]; potential too rough for this eps")
    return dec


def verify_condition_51(dec: SingularDecomposition) -> float:
    """Worst-case ratio of the tilted to the untilted single-site integral.

    The integrals are sums over phi of prod_i w(phi - phi_i), w = e^{-(U -
    min U)}, tilted by e^{upsilon} in each factor, for boundary angles
    (phi_2, phi_3, phi_4) on a grid with phi_1 = 0: exhaustive up to
    rotation invariance.  Angles and nodes share one grid, so with E the
    rolls of w the sums for one phi_2 are the matrix (E * E_0 E_{phi_2}) E^T.
    One preallocated row array holds E, filled by np.roll, and then F, the
    rolls of the tilted weight; each product E * E_0 E_{phi_2} is written
    into one reused buffer, and the 32 untilted matrices are kept while F
    takes E's rows.
    ValueError: an untilted sum below the smallest normal float (xy(J) for
    J above about 180) or a tilted one not finite.
    """
    m, search_points = 2048, 32  # quadrature nodes; boundary angles per axis
    u = dec.smooth.on_grid(m)
    w = np.exp(-(u - np.min(u)))
    tilted = w * np.exp(u - dec.original(-math.pi + TWO_PI * np.arange(m) / m))
    step = m // search_points
    rows, buf = np.empty((search_points, m)), np.empty((search_points, m))
    denom = np.empty((search_points,) * 3)  # untilted sums, by phi_2 first
    for k in range(search_points):
        rows[k] = np.roll(w, k * step)
    for i2 in range(search_points):
        denom[i2] = np.multiply(rows, rows[0] * rows[i2], out=buf) @ rows.T
    if not np.all(denom >= np.finfo(float).tiny):
        raise ValueError("quadrature failure: integrand under- or overflows")
    for k in range(search_points):
        rows[k] = np.roll(tilted, k * step)
    worst = 1.0
    for i2 in range(search_points):
        numer = np.multiply(rows, rows[0] * rows[i2], out=buf) @ rows.T
        if not np.all(np.isfinite(numer)):
            raise ValueError("quadrature failure: integrand under- or overflows")
        worst = max(worst, float(np.max(numer / denom[i2])))
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
