"""Symmetric random walks driven by long-range coupling kernels.

The walk with transitions j(x) = J_x is classified through the integral
I(rho) = int over the torus minus a ball of radius rho of d(theta)/(1 - phi),
phi being the characteristic function; divergence as rho -> 0 means
recurrence (Spitzer's criterion).  The connectivity walk Y has transitions
proportional to d_eps(x) = sum over n of eps^n j^(n)(x), whose characteristic
function is the exact resolvent expression phi (1 - eps) / (1 - eps phi).

The quadrature of I(rho) takes phi from two exact shortcuts:

- Outer grid (`WalkKernel.midpoint_grid`): on the midpoints
  theta_k = -pi + 2 pi (k + 1/2) / N of each axis, e^{i theta_k x} is
  e^{2 pi i k x / N} times a phase in x alone, so phi on the whole N x N grid
  is one 2-D FFT of the phased kernel folded mod N, for any kernel radius.
- Annulus (`_annulus_integral`): the polar angles 2 pi (k + 1/2) / 96 split
  into 12 orbits of 8 under the symmetries of the square, none of them on a
  mirror axis.  For a kernel invariant under those symmetries
  (`WalkKernel.square_symmetric`) phi is constant on each orbit, so one
  octant times 8 is the full circle.

The annulus points and the half-period probes use `char_function`, which sums
kernels uniform on sup-norm rings in closed form through Dirichlet kernels.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy.signal import fftconvolve

from .lattice import sup_grid, sup_norm

DEFAULT_RADIUS = 512


def _iterated_log(k: int, x):
    """log_k with log_1 = log, log_k = log of log_{k-1}."""
    out = np.log(x)
    for _ in range(k - 1):
        out = np.log(out)
    return out


def _log_offset(k: int) -> float:
    """Shift making log_k(r + offset) positive for every r >= 1."""
    out = 1.0
    for _ in range(k):
        out = math.exp(out)
    return out


@dataclass
class CouplingKernel:
    """Symmetric coupling J, either per-ring values or an explicit site map.

    `rings[r]` is the per-site coupling on the sup-norm ring of radius r
    (index 0 unused); `explicit` maps sites to couplings directly.  Exactly
    one of the two is set.
    """

    name: str
    rings: np.ndarray = None  # type: ignore[assignment]
    explicit: dict = None  # type: ignore[assignment]

    def __post_init__(self):
        # an atom at the origin is allowed (lazy walks such as the
        # connectivity walk carry return mass); it is trivially symmetric
        if (self.rings is None) == (self.explicit is None):
            raise ValueError("need exactly one of rings or explicit")
        if self.explicit is not None:
            for x, v in self.explicit.items():
                mx = (-x[0], -x[1])
                if abs(self.explicit.get(mx, 0.0) - v) > 1e-12:
                    raise ValueError(f"kernel not symmetric at {x}")
                if v < 0:
                    raise ValueError("negative couplings not supported")
        else:
            if np.min(self.rings) < 0:
                raise ValueError("negative couplings not supported")

    @property
    def radius(self) -> int:
        if self.rings is not None:
            return len(self.rings) - 1
        return max(map(sup_norm, self.explicit))

    def total(self) -> float:
        if self.rings is not None:
            r = np.arange(len(self.rings))
            return float(np.sum(self.rings * 8 * r))
        return float(sum(self.explicit.values()))


def normalize(kernel: CouplingKernel) -> "WalkKernel":
    """Rescale so the transition probabilities sum to one."""
    z = kernel.total()
    if not 0 < z < math.inf:
        raise ValueError("kernel mass must be positive and finite")
    if kernel.rings is not None:
        out = CouplingKernel(kernel.name, rings=kernel.rings / z)
    else:
        out = CouplingKernel(kernel.name,
                             explicit={x: v / z for x, v in kernel.explicit.items()})
    return WalkKernel(out)


def nn_kernel() -> CouplingKernel:
    return CouplingKernel("nn", explicit={(1, 0): 1.0, (-1, 0): 1.0,
                                          (0, 1): 1.0, (0, -1): 1.0})


def powerlaw_kernel(s: float, radius: int = DEFAULT_RADIUS) -> CouplingKernel:
    rings = np.zeros(radius + 1)
    r = np.arange(1, radius + 1)
    rings[1:] = r.astype(float) ** (-s)
    return CouplingKernel(f"powerlaw({s})", rings=rings)


def logcorr_kernel(p: int = 2, radius: int = DEFAULT_RADIUS,
                   last_exponent: float = 1.0) -> CouplingKernel:
    """||x||^-4 log_2||x|| ... log_p||x||, last factor raised to last_exponent.

    Iterated logs are shifted to stay positive on every ring; the shift does
    not change the tail.
    """
    if p < 2:
        raise ValueError("need p >= 2")
    rings = np.zeros(radius + 1)
    r = np.arange(1, radius + 1).astype(float)
    vals = r ** (-4.0)
    for k in range(2, p + 1):
        factor = _iterated_log(k, r + _log_offset(k - 1))
        if k == p:
            factor = factor ** last_exponent
        vals = vals * factor
    rings[1:] = vals
    tag = f"logcorr({p})" if last_exponent == 1.0 else f"logcorr_eps({p},{last_exponent - 1})"
    return CouplingKernel(tag, rings=rings)


def kernel_preset(spec: str, radius: int = DEFAULT_RADIUS) -> CouplingKernel:
    """Preset parser: nn, powerlaw(s), logcorr(p), logcorr_eps(p, eps)."""
    spec = spec.strip()
    if spec == "nn":
        return nn_kernel()
    if spec.startswith("powerlaw(") and spec.endswith(")"):
        return powerlaw_kernel(float(spec[9:-1]), radius)
    if spec.startswith("logcorr(") and spec.endswith(")"):
        return logcorr_kernel(int(spec[8:-1]), radius)
    if spec.startswith("logcorr_eps(") and spec.endswith(")"):
        p, eps = spec[12:-1].split(",")
        return logcorr_kernel(int(p), radius, last_exponent=1.0 + float(eps))
    raise ValueError(f"unknown kernel preset: {spec}")


def _dirichlet(r, theta):
    """D_r(theta) = sum_{m=-r}^{r} cos(m theta), stable near theta = 0."""
    half = np.sin(theta / 2.0)
    small = np.abs(half) < 1e-12
    safe = np.where(small, 1.0, half)
    out = np.sin((r + 0.5) * theta) / safe
    return np.where(small, 2.0 * r + 1.0, out)


class WalkKernel:
    """Normalized transition kernel with characteristic-function machinery."""

    def __init__(self, kernel: CouplingKernel):
        if abs(kernel.total() - 1.0) > 1e-9:
            raise ValueError("walk kernel must be normalized")
        self.kernel = kernel
        self.name = kernel.name

    @property
    def radius(self) -> int:
        return self.kernel.radius

    def char_function(self, theta: np.ndarray) -> np.ndarray:
        """phi(theta) = sum_x cos(theta . x) j(x); theta of shape (..., 2)."""
        theta = np.asarray(theta, dtype=float)
        t1 = theta[..., 0]
        t2 = theta[..., 1]
        if self.kernel.explicit is not None:
            out = np.zeros_like(t1)
            for (x1, x2), v in self.kernel.explicit.items():
                out += v * np.cos(t1 * x1 + t2 * x2)
            return out
        rings = self.kernel.rings
        flat1 = t1.reshape(-1)
        flat2 = t2.reshape(-1)
        out = np.zeros_like(flat1)
        r = np.arange(1, len(rings))
        j = rings[1:]
        chunk = 2048
        for i in range(0, len(flat1), chunk):
            a = flat1[i:i + chunk, None]
            b = flat2[i:i + chunk, None]
            # ring sum: two full vertical edges and two shortened horizontals
            s = (2.0 * np.cos(r * a) * _dirichlet(r, b)
                 + 2.0 * np.cos(r * b) * _dirichlet(r - 1, a))
            out[i:i + chunk] = s @ j
        return out.reshape(t1.shape)

    def midpoint_grid(self, n_grid: int) -> np.ndarray:
        """phi at (theta_k1, theta_k2), theta_k = -pi + 2 pi (k + 1/2) / n_grid.

        With alpha = pi (1/n_grid - 1), theta_k x = 2 pi k x / n_grid + alpha x,
        so the grid is the inverse 2-D DFT of j(x) e^{i alpha (x1 + x2)} folded
        mod n_grid.  The fold is exact for any radius: writing
        x = m + q n_grid, e^{i alpha x} = e^{i alpha m} (-1)^{(n_grid - 1) q}.
        """
        r = self.radius
        x = np.arange(-r, r + 1)
        q, m = np.divmod(x, n_grid)
        fold = np.zeros((n_grid, x.size))
        fold[m, np.arange(x.size)] = np.where((n_grid - 1) * q % 2, -1.0, 1.0)
        folded = fold @ self.grid_values() @ fold.T
        phase = np.exp(1j * math.pi * (1.0 / n_grid - 1.0) * np.arange(n_grid))
        return np.fft.ifft2(phase[:, None] * folded * phase, norm="forward").real

    @cached_property
    def square_symmetric(self) -> bool:
        """j is exactly invariant under x1 <-> x2 and x1 -> -x1, hence under
        all eight symmetries of the square, and so is phi."""
        g = self.grid_values()
        return bool(np.array_equal(g, g.T) and np.array_equal(g, g[::-1]))

    def grid_values(self, radius: int = None) -> np.ndarray:
        """j on the square grid [-radius, radius]^2, index [x+radius, y+radius]."""
        if radius is None:
            radius = self.radius
        if self.kernel.rings is not None:
            rings = np.zeros(radius + 1)  # zero at the origin and past the kernel
            rings[1:len(self.kernel.rings)] = self.kernel.rings[1:radius + 1]
            return rings[sup_grid(radius)]
        g = np.zeros((2 * radius + 1, 2 * radius + 1))
        for x, v in self.kernel.explicit.items():
            if sup_norm(x) <= radius:
                g[x[0] + radius, x[1] + radius] = v
        return g

    def second_moment(self) -> float:
        if self.kernel.explicit is not None:
            return sum(v * (x ** 2 + y ** 2) for (x, y), v in self.kernel.explicit.items())
        r = np.arange(len(self.kernel.rings)).astype(float)
        # sum of |x|^2 over the sup-norm ring of radius r is (32r^3 + 4r)/3
        per_ring = (32 * r ** 3 + 4 * r) / 3.0
        return float(np.sum(self.kernel.rings * per_ring))


class YWalkKernel(WalkKernel):
    """The connectivity walk: transitions proportional to d_eps.

    The characteristic function has the exact resolvent form
    phi_Y = phi (1 - eps) / (1 - eps phi), used instead of the truncated grid.
    """

    def __init__(self, kernel: CouplingKernel, base: WalkKernel, eps: float):
        super().__init__(kernel)
        self.base = base
        self.eps = eps

    def _resolvent(self, phi):
        return phi * (1.0 - self.eps) / (1.0 - self.eps * phi)

    def char_function(self, theta: np.ndarray) -> np.ndarray:
        return self._resolvent(self.base.char_function(theta))

    def midpoint_grid(self, n_grid: int) -> np.ndarray:
        return self._resolvent(self.base.midpoint_grid(n_grid))

    @property
    def square_symmetric(self) -> bool:
        # phi_Y is a function of the base's phi, so it has the base's
        # symmetries exactly; the truncated d_eps grid has them only up to
        # the FFT rounding of its convolutions
        return self.base.square_symmetric


@dataclass
class ConnectivityBound:
    """Truncated Neumann series d_eps on a grid, with its mass accounting."""

    eps: float
    radius: int
    grid: np.ndarray  # d_eps values, index [x+radius, y+radius]
    n_terms: int

    @property
    def c_bound(self) -> float:
        return self.eps / (1.0 - self.eps)

    @property
    def total(self) -> float:
        return float(self.grid.sum())

    @property
    def truncation_error(self) -> float:
        return self.eps ** (self.n_terms + 1) / (1.0 - self.eps)

    def at(self, x) -> float:
        if sup_norm(x) > self.radius:
            return 0.0
        return float(self.grid[x[0] + self.radius, x[1] + self.radius])


def connectivity_bound(walk: WalkKernel, eps: float, n_terms: int = None,
                       radius: int = None) -> ConnectivityBound:
    """d_eps = sum over n >= 1 of eps^n j^(n), truncated after n_terms.

    The truncation error in total mass is at most eps^(N+1)/(1-eps), plus
    whatever leaks past the working radius (reported through `total`).
    """
    if not 0 < eps < 1:
        raise ValueError("eps must be in (0, 1)")
    if n_terms is None:
        n_terms = max(4, math.ceil(math.log(1e-12) / math.log(eps)))
    if radius is None:
        radius = min(walk.radius * n_terms, 256)
    j = walk.grid_values(radius)
    power = j.copy()
    acc = eps * power
    scale = eps
    for _ in range(n_terms - 1):
        power = fftconvolve(power, j, mode="same")
        power = np.clip(power, 0.0, None)
        scale *= eps
        acc += scale * power
    return ConnectivityBound(eps, radius, acc, n_terms)


def y_kernel(walk: WalkKernel, eps: float) -> YWalkKernel:
    """Normalized walk with transitions proportional to d_eps.

    d_eps keeps return mass at the origin (even-step loops), so the Y-walk is
    lazy; laziness rescales 1 - phi by a constant and cannot change the
    recurrence verdict, and keeping it makes the resolvent form of phi_Y
    exact.
    """
    d = connectivity_bound(walk, eps)
    grid = d.grid / d.total
    r = d.radius
    explicit = {}
    for ix in range(grid.shape[0]):
        for iy in range(grid.shape[1]):
            if grid[ix, iy] > 0:
                explicit[(ix - r, iy - r)] = grid[ix, iy]
    kernel = CouplingKernel(f"y({walk.name},{eps})", explicit=explicit)
    return YWalkKernel(kernel, walk, eps)


@dataclass
class RecurrenceReport:
    name: str
    rhos: list
    values: list
    verdict: str
    fit: dict
    periodic: bool = False


def _outer_integral(walk, rho0: float) -> tuple[float, float]:
    # midpoint rule on the n_grid^2 cells of the torus, phi from one FFT
    n_grid = 256
    t = -math.pi + 2 * math.pi * (np.arange(n_grid) + 0.5) / n_grid
    tx, ty = np.meshgrid(t, t, indexing="ij")
    gap = 1.0 - walk.midpoint_grid(n_grid)
    mask = tx ** 2 + ty ** 2 > rho0 ** 2
    cell = (2 * math.pi / n_grid) ** 2
    vals = np.where(mask, 1.0 / np.maximum(gap, 1e-300), 0.0)
    return float(vals.sum() * cell), float(np.min(gap[mask]))


def _annulus_integral(walk, r_in: float, r_out: float) -> float:
    # polar midpoint rule, radially log-spaced; the angles (k + 1/2) 2pi/96
    # form 12 orbits of 8 under the square's symmetries, so a symmetric
    # kernel needs the first octant (k < 12) only
    n_r, n_phi = 24, 96
    copies = 8 if walk.square_symmetric else 1
    lr = np.linspace(math.log(r_in), math.log(r_out), n_r + 1)
    rmid = np.exp((lr[:-1] + lr[1:]) / 2.0)
    dr = np.exp(lr[1:]) - np.exp(lr[:-1])
    ang = 2 * math.pi * (np.arange(n_phi // copies) + 0.5) / n_phi
    rr, aa = np.meshgrid(rmid, ang, indexing="ij")
    pts = np.stack([rr * np.cos(aa), rr * np.sin(aa)], axis=-1)
    gap = 1.0 - walk.char_function(pts)
    w = (rr * dr[:, None]) * (2 * math.pi / n_phi)
    return copies * float(np.sum(w / np.maximum(gap, 1e-300)))


def truncated_integrals(walk: WalkKernel, ladder) -> list:
    """I(rho) along a decreasing ladder; built cumulatively, hence monotone."""
    ladder = list(ladder)
    if any(b >= a for a, b in zip(ladder, ladder[1:])):
        raise ValueError("ladder must be strictly decreasing")
    outer, min_gap = _outer_integral(walk, ladder[0])
    # periodic walks have 1 - phi vanishing at half-period points; probe the
    # usual suspects exactly, the grid midpoints never land on them
    half = np.array([[math.pi, 0.0], [0.0, math.pi], [math.pi, math.pi]])
    min_gap = min(min_gap, float(np.min(1.0 - walk.char_function(half))))
    if min_gap < 1e-9:
        raise ArithmeticError("1 - phi vanishes away from the origin "
                              "(periodic walk); classification not attempted")
    values = [outer]
    for r_out, r_in in zip(ladder, ladder[1:]):
        values.append(values[-1] + _annulus_integral(walk, r_in, r_out))
    return values


def default_ladder(walk: WalkKernel):
    """Ten geometric rungs from 1/2 down to the truncation scale, finished by
    two quarter-octave rungs that make the Cauchy increment test sharp."""
    lo = 1.0 / (4.0 * walk.radius)
    ratio = (lo / 0.5) ** (1.0 / 9)
    out = [0.5 * ratio ** i for i in range(10)]
    out += [lo * 2 ** -0.5, lo / 2.0]
    return out


def _fit_model(u, vals):
    a = np.vstack([np.ones_like(u), u]).T
    coef, *_ = np.linalg.lstsq(a, vals, rcond=None)
    resid = vals - a @ coef
    spread = max(np.max(vals) - np.min(vals), 1e-300)
    return coef[1], float(np.sqrt(np.mean(resid ** 2)) / spread)


def recurrence_classify(walk: WalkKernel, ladder=None) -> RecurrenceReport:
    """Recurrence verdict from the I(rho) ladder.

    Transient when the last relative increment shows Cauchy convergence;
    recurrent when the tail of the ladder fits a + b log(1/rho) (or grows
    faster) with small relative residual and positive slope; everything else
    is inconclusive.  A finite ladder cannot prove either property, so the
    thresholds are part of the contract, not of the mathematics.
    """
    if ladder is None:
        ladder = default_ladder(walk)
    ladder = list(ladder)
    if len(ladder) < 4:
        raise ValueError("need at least 4 ladder rungs")
    try:
        values = truncated_integrals(walk, ladder)
    except ArithmeticError as exc:
        return RecurrenceReport(walk.name, ladder, [], "inconclusive",
                                {"error": str(exc)}, periodic=True)
    rel_inc = (values[-1] - values[-2]) / values[-1]
    u = np.log(1.0 / np.asarray(ladder))
    window = slice(len(ladder) // 2, None)
    slope, resid = _fit_model(u[window], np.asarray(values)[window])
    fit = {"slope": float(slope), "residual": resid, "last_rel_increment": rel_inc}
    if rel_inc < 0.005:
        verdict = "transient"
    elif resid < 0.02 and slope > 0:
        verdict = "recurrent"
    else:
        # growth faster than logarithmic also certifies divergence: the
        # increments per rung must then be nondecreasing in log scale
        inc = np.diff(np.asarray(values)[window])
        du = np.diff(u[window])
        rates = inc / du
        if np.all(np.diff(rates) > 0):
            verdict = "recurrent"
            fit["superlogarithmic"] = True
        else:
            verdict = "inconclusive"
    return RecurrenceReport(walk.name, ladder, values, verdict, fit)
