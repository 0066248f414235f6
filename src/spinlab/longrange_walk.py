"""Symmetric random walks whose transition probabilities are normalized
long-range couplings.

A `WalkKernel` is built from couplings J and keeps them divided by their
total mass, so j(x) = J_x / sum_y J_y.  The walk is recurrent exactly when
the integral I(rho) = int over the torus minus a ball of radius rho of
d(theta)/(1 - phi), phi being the characteristic function, diverges as
rho -> 0 (Spitzer's criterion).  Every kernel cut at a finite radius is
recurrent, so the verdict comes from the tail of the uncut kernel
(`_tail_class`), and the I(rho) ladder is numeric evidence.
`connectivity_bound` sums d_eps(x) = sum over n >= 1 of eps^n j^(n)(x), the
conductances of the spin-wave solver.

The quadrature of I(rho) takes phi from two exact shortcuts:

- Outer grid (`WalkKernel.midpoint_grid`): on the midpoints
  theta_k = -pi + 2 pi (k + 1/2) / N of each axis, e^{i theta_k x} is
  e^{2 pi i k x / N} times a phase in x alone, so phi on the whole N x N grid
  is one 2-D FFT of the phased kernel folded mod N, for any kernel radius.
  A kernel uniform on sup-norm rings is a sum of box indicators, and each box
  folds to an outer product of two box sums, so its fold never builds the
  (2R + 1)^2 kernel grid.
- Annulus (`_annulus_integral`): the polar angles 2 pi (k + 1/2) / 96 split
  into 12 orbits of 8 under the symmetries of the square, none of them on a
  mirror axis.  For a kernel invariant under those symmetries
  (`WalkKernel.square_symmetric`) phi is constant on each orbit, so one
  octant times 8 is the full circle.

The annulus points and the half-period probes take 1 - phi itself from
`WalkKernel.gap`, a sum of nonnegative sin^2 terms, so the integrand keeps
its relative accuracy as theta -> 0, where 1 - phi formed by subtraction
would cancel.  Kernels uniform on sup-norm rings are summed as box sums, one
sine array per axis.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .lattice import KernelConvolution, sup_grid, sup_norm

DEFAULT_RADIUS = 512


def _ring_mass(rings: np.ndarray) -> float:
    """Total coupling of per-ring values: ring r has 8 r sites."""
    return float(np.sum(rings * 8 * np.arange(len(rings))))


def _tail_rings(tail, radius: int) -> np.ndarray:
    """Per-ring couplings r^-s log_2(r + c_2)^a_2 ... log_p(r + c_p)^a_p for
    tail = (s, a_2, ..., a_p) and 1 <= r <= radius, ring 0 zero: log_k is the
    k-fold log, and c_k = exp(exp(... 1)), k - 1 exps, keeps it positive on
    every ring without changing the tail."""
    r = np.arange(1, radius + 1).astype(float)
    vals = r ** -tail[0]
    offset = 1.0
    for k, a in enumerate(tail[1:], start=2):
        offset = math.exp(offset)
        factor = r + offset
        for _ in range(k):
            factor = np.log(factor)
        vals = vals * factor ** a
    return np.append(0.0, vals)


def nn_kernel() -> WalkKernel:
    return WalkKernel(explicit={(1, 0): 1.0, (-1, 0): 1.0, (0, 1): 1.0, (0, -1): 1.0})


def kernel_preset(spec: str, radius: int = DEFAULT_RADIUS) -> WalkKernel:
    """Preset parser: nn, powerlaw(s) = r^-s (tail (s,)), logcorr(p) =
    r^-4 log_2 r ... log_p r (tail (4, 1, ..., 1)) and logcorr_eps(p, eps),
    whose last factor has the power 1 + eps, on the rings up to `radius`.

    A kernel whose mass at this radius is not positive and finite cannot be
    normalized, and is refused.
    """
    spec = spec.strip()
    if spec == "nn":
        return nn_kernel()
    if spec.startswith("powerlaw(") and spec.endswith(")"):
        tail = (_finite(spec[9:-1]),)
    else:
        if spec.startswith("logcorr(") and spec.endswith(")"):
            p, last = int(spec[8:-1]), 1.0
        elif spec.startswith("logcorr_eps(") and spec.endswith(")"):
            p, eps = spec[12:-1].split(",")
            p, last = int(p), 1.0 + _finite(eps)
        else:
            raise ValueError(f"unknown kernel preset: {spec}")
        if p < 2:
            raise ValueError("need p >= 2")
        if p > 4:  # c_4 = exp(exp(e)) ~ 3.8e6, and c_5 = exp(c_4)
            raise ValueError(f"need p <= 4: the log offset c_{p} overflows a float")
        tail = (4.0,) + (1.0,) * (p - 2) + (last,)
    with np.errstate(over="ignore"):
        rings = _tail_rings(tail, radius)
        mass = _ring_mass(rings)
    if not 0 < mass < math.inf:
        raise ValueError(f"kernel preset {spec!r} has mass {mass} at radius {radius}")
    return WalkKernel(rings=rings, tail=tail)


def _finite(text: str) -> float:
    x = float(text)
    if not math.isfinite(x):
        raise ValueError(f"non-finite kernel preset argument {text!r}")
    return x


class WalkKernel:
    """Symmetric random walk whose transition probabilities are the
    normalized couplings J, with characteristic-function machinery.

    The couplings are either per-ring values, `rings[r]` being the per-site
    coupling on the sup-norm ring of radius r (index 0 unused), or an
    explicit map from sites to couplings; exactly one of the two is given,
    and both are kept divided by their total mass.  `tail` = (s, a_2, ...,
    a_p) says that the rings are j(r) = r^-s log_2(r + c_2)^a_2 ...
    log_p(r + c_p)^a_p (`_tail_rings`) cut at the radius; it is None for a
    kernel with no such infinite-range form.
    """

    def __init__(self, rings: np.ndarray = None, explicit: dict = None, tail: tuple = None):
        # an atom at the origin is allowed (lazy walks carry return mass);
        # it is trivially symmetric
        if (rings is None) == (explicit is None):
            raise ValueError("need exactly one of rings or explicit")
        if explicit is not None:
            for x, v in explicit.items():
                if abs(explicit.get((-x[0], -x[1]), 0.0) - v) > 1e-12:
                    raise ValueError(f"kernel not symmetric at {x}")
                if v < 0:
                    raise ValueError("negative couplings not supported")
            mass = float(sum(explicit.values()))
            self.radius = max(map(sup_norm, explicit))
        else:
            if np.min(rings) < 0:
                raise ValueError("negative couplings not supported")
            mass = _ring_mass(rings)
            self.radius = len(rings) - 1
        if not 0 < mass < math.inf:
            raise ValueError("kernel mass must be positive and finite")
        self.rings = None if rings is None else rings / mass
        self.explicit = (None if explicit is None
                         else {x: v / mass for x, v in explicit.items()})
        self.tail = tail

    def char_function(self, theta: np.ndarray) -> np.ndarray:
        """phi(theta) = sum_x cos(theta . x) j(x); theta of shape (..., 2)."""
        return 1.0 - self.gap(theta)

    def gap(self, theta: np.ndarray) -> np.ndarray:
        """1 - phi(theta) = sum_x 2 j(x) sin^2(theta . x / 2), a sum of
        nonnegative terms, so no cancellation as theta -> 0.

        A ring kernel is the box sum j(x) = sum_s c_s 1[|x1| <= s] 1[|x2| <= s]
        (see `midpoint_grid`).  Box s has w_s = 2s + 1 sites per side, and its
        Dirichlet kernel is w_s - E_s(t) with E_s(t) = sum_{m=1}^{s}
        4 sin^2(m t / 2), a cumulative sum of nonnegative terms; since
        sum_s c_s w_s^2 = 1, the gap is
        sum_s c_s [w_s (E_s(t1) + E_s(t2)) - E_s(t1) E_s(t2)]."""
        theta = np.asarray(theta, dtype=float)
        t1 = theta[..., 0]
        t2 = theta[..., 1]
        if self.explicit is not None:
            out = np.zeros_like(t1)
            for (x1, x2), v in self.explicit.items():
                out += 2.0 * v * np.sin(0.5 * (t1 * x1 + t2 * x2)) ** 2
            return out
        s = np.arange(1, len(self.rings))
        c = self.rings[1:] - np.append(self.rings[2:], 0.0)  # box s = 0 adds nothing
        cw = c * (2.0 * s + 1.0)
        flat1 = t1.reshape(-1)
        flat2 = t2.reshape(-1)
        out = np.zeros_like(flat1)
        chunk = 2048
        for i in range(0, len(flat1), chunk):
            # E_s / 4 along each axis, built in place; the factors 4 are exact.
            # The bracket is summed as three dot products: for |t| <= pi,
            # E_s <= 4 w_s / 3, so the split cancels at most a factor of 3.
            e1, e2 = (np.sin(np.multiply.outer(0.5 * t[i:i + chunk], s))
                      for t in (flat1, flat2))
            for e in (e1, e2):
                np.square(e, out=e)
                np.cumsum(e, axis=1, out=e)
            out[i:i + chunk] = 4.0 * (e1 @ cw + e2 @ cw - 4.0 * ((e1 * e2) @ c))
        return out.reshape(t1.shape)

    def midpoint_grid(self, n_grid: int) -> np.ndarray:
        """phi at (theta_k1, theta_k2), theta_k = -pi + 2 pi (k + 1/2) / n_grid.

        With alpha = pi (1/n_grid - 1), theta_k x = 2 pi k x / n_grid + alpha x,
        so the grid is the inverse 2-D DFT of j(x) e^{i alpha (x1 + x2)} folded
        mod n_grid.  The fold is exact for any radius: writing
        x = m + q n_grid, e^{i alpha x} = e^{i alpha m} (-1)^{(n_grid - 1) q},
        so the folded kernel is F G F^T with F[m, x] = (-1)^{(n_grid - 1) q}.

        A ring kernel j(x) = rho_{||x||_inf} (rho_0 = rho_{R+1} = 0) is the
        box sum j(x) = sum_s c_s 1[|x1| <= s] 1[|x2| <= s] with
        c_s = rho_s - rho_{s+1}, so F G F^T = (B c) B^T, where column s of B
        sums the columns of F over |x| <= s: a cumulative sum outward from
        x = 0.  Explicit kernels fold their dense grid.
        """
        r = self.radius
        x = np.arange(-r, r + 1)
        q, m = np.divmod(x, n_grid)
        sign = np.where((n_grid - 1) * q % 2, -1.0, 1.0)
        if self.rings is None:
            fold = np.zeros((n_grid, x.size))
            fold[m, np.arange(x.size)] = sign
            folded = fold @ self.grid_values() @ fold.T
        else:
            box = np.zeros((n_grid, r + 1))
            np.add.at(box, (m, np.abs(x)), sign)  # x and -x share column |x|
            np.cumsum(box, axis=1, out=box)
            rho = np.zeros(r + 2)
            rho[1:-1] = self.rings[1:]
            folded = (box * (rho[:-1] - rho[1:])) @ box.T
        phase = np.exp(1j * math.pi * (1.0 / n_grid - 1.0) * np.arange(n_grid))
        return np.fft.ifft2(phase[:, None] * folded * phase, norm="forward").real

    @cached_property
    def square_symmetric(self) -> bool:
        """j is exactly invariant under x1 <-> x2 and x1 -> -x1, hence under
        all eight symmetries of the square, and so is phi.  A ring kernel
        depends on ||x||_inf alone, so it is symmetric by construction and
        its grid is not built."""
        if self.rings is not None:
            return True
        g = self.grid_values()
        return bool(np.array_equal(g, g.T) and np.array_equal(g, g[::-1]))

    def grid_values(self, radius: int = None) -> np.ndarray:
        """j on the square grid [-radius, radius]^2, index [x+radius, y+radius]."""
        if radius is None:
            radius = self.radius
        if self.rings is not None:
            rings = np.zeros(radius + 1)  # zero at the origin and past the kernel
            rings[1:len(self.rings)] = self.rings[1:radius + 1]
            return rings[sup_grid(radius)]
        g = np.zeros((2 * radius + 1, 2 * radius + 1))
        for x, v in self.explicit.items():
            if sup_norm(x) <= radius:
                g[x[0] + radius, x[1] + radius] = v
        return g


@dataclass
class ConnectivityBound:
    """Truncated Neumann series d_eps on the grid of sup-norm <= radius."""

    radius: int
    grid: np.ndarray  # d_eps values, index [x+radius, y+radius]


def _neumann_terms(walk: WalkKernel, eps: float) -> tuple[int, int]:
    """The N terms of d_eps kept, eps^N < 1e-12, and the default grid radius
    min(R N, 256) for a walk of radius R."""
    if not 0 < eps < 1:
        raise ValueError("eps must be in (0, 1)")
    n_terms = max(4, math.ceil(math.log(1e-12) / math.log(eps)))
    return n_terms, min(walk.radius * n_terms, 256)


def connectivity_bound(walk: WalkKernel, eps: float,
                       radius: int = None) -> ConnectivityBound:
    """d_eps = sum over n >= 1 of eps^n j^(n), truncated where eps^N < 1e-12.

    The truncation error in total mass is at most eps^(N+1)/(1-eps), plus
    whatever leaks past the working radius: the full series has mass
    eps/(1-eps), and the grid's sum falls short of it by both.
    """
    n_terms, default_radius = _neumann_terms(walk, eps)
    radius = default_radius if radius is None else radius
    j = walk.grid_values(radius)
    convolve = KernelConvolution(j, j.shape)
    power = j.copy()
    acc = eps * power
    scale = eps
    for _ in range(n_terms - 1):
        power = convolve(power)
        power = np.clip(power, 0.0, None)
        scale *= eps
        acc += scale * power
    return ConnectivityBound(radius, acc)


@dataclass
class RecurrenceReport:
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
    gap = walk.gap(pts)
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
    min_gap = min(min_gap, float(np.min(walk.gap(half))))
    if min_gap < 1e-9:
        raise ArithmeticError("1 - phi vanishes away from the origin "
                              "(periodic walk); classification not attempted")
    values = [outer]
    for r_out, r_in in zip(ladder, ladder[1:]):
        values.append(values[-1] + _annulus_integral(walk, r_in, r_out))
    return values


def default_ladder(walk: WalkKernel):
    """Ten geometric rungs from 1/2 down to the truncation scale, finished by
    two quarter-octave rungs.  The ladder gives numeric evidence beside the
    verdict; the verdict itself comes from the kernel's tail."""
    lo = 1.0 / (4.0 * walk.radius)
    ratio = (lo / 0.5) ** (1.0 / 9)
    out = [0.5 * ratio ** i for i in range(10)]
    out += [lo * 2 ** -0.5, lo / 2.0]
    return out


def _tail_class(tail) -> str:
    """Spitzer's test for the infinite-range kernel with this tail.

    With G(L) the second moment of j truncated at L, 1 - phi(theta) is
    comparable to |theta|^2 G(1/|theta|), so the walk is recurrent exactly
    when dL / (L G(L)) has a divergent integral.  G grows like L^(4 - s) for
    2 < s < 4 and is bounded for s > 4; at s = 4, G(e^u) is comparable to
    u (log u)^a_2 ... (log_(p-1) u)^a_p, and Bertrand's series decides by the
    first exponent that is not 1.  Finite range (no tail; Chung-Fuchs) and
    s <= 2 (infinite mass uncut, so only the cut walk exists) are recurrent.
    """
    if tail is None or not 2 < tail[0] <= 4:
        return "recurrent"
    first = next((a for a in tail[1:] if a != 1), 1.0)
    return "transient" if tail[0] < 4 or first > 1 else "recurrent"


def recurrence_classify(walk: WalkKernel) -> RecurrenceReport:
    """Verdict of the walk's tail (`_tail_class`), the same at every radius,
    with the I(rho) ladder of `default_ladder` and its fit of
    a + b log(1/rho) as numeric evidence.  A periodic walk, whose 1 - phi
    vanishes away from the origin, gets its verdict, `periodic` and no
    integrals.
    """
    verdict = _tail_class(walk.tail)
    ladder = default_ladder(walk)
    try:
        values = truncated_integrals(walk, ladder)
    except ArithmeticError as exc:
        return RecurrenceReport(ladder, [], verdict, {"error": str(exc)}, periodic=True)
    rel_inc = (values[-1] - values[-2]) / values[-1]
    # least squares a + b log(1/rho) on the lower half of the ladder
    u = np.log(1.0 / np.asarray(ladder))[len(ladder) // 2:]
    v = np.asarray(values)[len(ladder) // 2:]
    design = np.vstack([np.ones_like(u), u]).T
    coef, *_ = np.linalg.lstsq(design, v, rcond=None)
    resid = np.sqrt(np.mean((v - design @ coef) ** 2)) / max(np.max(v) - np.min(v), 1e-300)
    fit = {"slope": float(coef[1]), "residual": float(resid), "last_rel_increment": rel_inc}
    return RecurrenceReport(ladder, values, verdict, fit)
