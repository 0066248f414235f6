"""Metropolis sampling of circle-valued spins on a box, with the boundary
conditions needed for rotation-discrepancy, correlation-decay, and
symmetry-breaking experiments.

Single-site proposals (wrapped Gaussian plus occasional uniform refresh) on a
checkerboard; hard-core potentials are handled by rejecting any proposal of
infinite energy.  The smeared staircase state treats the boundary ring as
arc-constrained sampling sites, which integrates the boundary smearing and
the interior Gibbs weight jointly; boundary draws whose conditional measure
would vanish are then never visited rather than rejected wholesale.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .interaction import PairPotential, circle_dist, wrap_angle

TWO_PI = 2.0 * math.pi


# ---------------------------------------------------------------------------
# boundary conditions


@dataclass(frozen=True)
class BoundaryCondition:
    kind: str  # fixed | free | staircase | smeared
    value: float = 0.0
    k: int = 12
    sigma: int = 2
    delta: float = 0.05

    @property
    def theta(self) -> float:
        return TWO_PI / self.k


def free_bc() -> BoundaryCondition:
    return BoundaryCondition("free")


def fixed_bc(value: float = 0.0) -> BoundaryCondition:
    return BoundaryCondition("fixed", value=value)


def staircase_bc(k: int, sigma: int = 2) -> BoundaryCondition:
    return BoundaryCondition("staircase", k=k, sigma=sigma)


def smeared_bc(k: int, delta: float = 0.05, sigma: int = 2) -> BoundaryCondition:
    return BoundaryCondition("smeared", k=k, sigma=sigma, delta=delta)


def staircase_angle(bc: BoundaryCondition, x2) -> float:
    return wrap_angle(bc.sigma * np.asarray(x2) * bc.theta)


def boundary_ring(n: int) -> list:
    ring = []
    for x in range(-(n + 1), n + 2):
        for y in range(-(n + 1), n + 2):
            if max(abs(x), abs(y)) == n + 1:
                ring.append((x, y))
    return ring


# ---------------------------------------------------------------------------
# configurations


@dataclass
class SpinConfiguration:
    """Angles on the extended grid (box plus its boundary ring)."""

    n: int
    grid: np.ndarray  # side 2n+3, index [x + n + 1, y + n + 1]

    @property
    def offset(self) -> int:
        return self.n + 1

    def at(self, site) -> float:
        return float(self.grid[site[0] + self.offset, site[1] + self.offset])

    def interior(self) -> np.ndarray:
        o = self.offset
        return self.grid[1:-1, 1:-1]

    def rotated(self, psi: float) -> "SpinConfiguration":
        g = self.grid.copy()
        g[1:-1, 1:-1] = wrap_angle(g[1:-1, 1:-1] + psi)
        return SpinConfiguration(self.n, g)


def initial_configuration(bc: BoundaryCondition, n: int, rng) -> SpinConfiguration:
    s = 2 * n + 3
    ax = np.arange(-(n + 1), n + 2)
    x2 = np.broadcast_to(ax, (s, s))
    if bc.kind == "free":
        grid = rng.uniform(-math.pi, math.pi, size=(s, s))
    elif bc.kind == "fixed":
        grid = np.full((s, s), wrap_angle(bc.value))
    else:
        grid = np.asarray(staircase_angle(bc, x2), dtype=float).copy()
    return SpinConfiguration(n, grid)


def hamiltonian(cfg: SpinConfiguration, pot: PairPotential,
                bc: BoundaryCondition) -> float:
    """Sum of U over nearest-neighbor bonds with at least one interior
    endpoint (free bc: both endpoints interior)."""
    g = cfg.grid
    s = g.shape[0]
    sup = _sup(cfg.n + 1)
    interior = sup <= cfg.n
    total = 0.0
    for axis in (0, 1):
        a = np.moveaxis(g, axis, 0)
        ia = np.moveaxis(interior, axis, 0)
        diff = a[1:] - a[:-1]
        if bc.kind == "free":
            w = ia[1:] & ia[:-1]
        else:
            w = ia[1:] | ia[:-1]
        vals = pot(diff)
        total += float(np.sum(np.where(w, vals, 0.0)))
    return total


def hardcore_violations(cfg: SpinConfiguration, pot: PairPotential,
                        bc: BoundaryCondition) -> int:
    if not pot.is_hard_core:
        return 0
    g = cfg.grid
    sup = _sup(cfg.n + 1)
    interior = sup <= cfg.n
    bad = 0
    for axis in (0, 1):
        a = np.moveaxis(g, axis, 0)
        ia = np.moveaxis(interior, axis, 0)
        diff = circle_dist(a[1:] - a[:-1])
        if bc.kind == "free":
            w = ia[1:] & ia[:-1]
        else:
            w = ia[1:] | ia[:-1]
        bad += int(np.sum(w & (diff > pot.cutoff + 1e-12)))
    return bad


def _sup(m: int) -> np.ndarray:
    ax = np.arange(-m, m + 1)
    return np.maximum.outer(np.abs(ax), np.abs(ax))


# ---------------------------------------------------------------------------
# the sweep


def accept_probability(delta_e) -> np.ndarray:
    """Metropolis rule min(1, e^{-dE}); infinite dE is never accepted."""
    with np.errstate(over="ignore", invalid="ignore"):
        out = np.exp(-np.asarray(delta_e, dtype=float))
    return np.where(np.isnan(out), 0.0, np.minimum(out, 1.0))


class _Stencil:
    """Flat-index update phases for one (n, bc) pair: two interior
    checkerboard colors, and optionally the boundary ring."""

    def __init__(self, n: int, bc: BoundaryCondition, with_ring: bool):
        self.n = n
        s = 2 * n + 3
        self.size = s
        sup = _sup(n + 1)
        interior = sup <= n
        xs, ys = np.meshgrid(np.arange(s), np.arange(s), indexing="ij")
        flat = xs * s + ys
        self.phases = []
        for color in (0, 1):
            mask = interior & ((xs + ys) % 2 == color)
            self.phases.append(self._phase(mask, interior, bc, s, xs, ys, flat))
        if with_ring:
            ring = sup == n + 1
            self.phases.append(self._phase(ring, interior, bc, s, xs, ys, flat))
            self.ring_phase = len(self.phases) - 1
        else:
            self.ring_phase = None
        # weights are 0 or 1; for the local-field sweep a neighbour of
        # weight 0 points one past the grid, where that sweep keeps zeros
        self.field_nbrs = [np.where(w > 0, nbr, s * s) for _, nbr, w in self.phases]

    def _phase(self, mask, interior, bc, s, xs, ys, flat):
        idx = flat[mask]
        px, py = xs[mask], ys[mask]
        nbr = np.zeros((4, len(idx)), dtype=np.int64)
        w = np.zeros((4, len(idx)))
        for d, (dx, dy) in enumerate([(1, 0), (-1, 0), (0, 1), (0, -1)]):
            qx, qy = px + dx, py + dy
            inside = (qx >= 0) & (qx < s) & (qy >= 0) & (qy < s)
            nbr[d] = np.where(inside, qx * s + qy, 0)
            q_int = np.zeros(len(idx), dtype=bool)
            q_int[inside] = interior[qx[inside], qy[inside]]
            p_int = interior[px, py]
            if bc.kind == "free":
                w[d] = (inside & p_int & q_int).astype(float)
            else:
                w[d] = (inside & (p_int | q_int)).astype(float)
        return idx, nbr, w


def metropolis_sweep(cfg: SpinConfiguration, pot: PairPotential,
                     bc: BoundaryCondition, width: float, rng,
                     stencil: _Stencil = None, ring_arcs=None) -> int:
    """One full sweep of single-site proposals; returns accepted count.

    A potential with a Fourier form and no hard core, swept without ring
    arcs, goes through `_local_field_sweep`: the same random draws and, up
    to roundoff in dE, the same moves, without calling the potential.
    `ring_arcs`, when given, is (centers, halfwidth) for the boundary ring
    phase: ring proposals outside their arc are rejected (uniform prior on
    the arc, Gibbs weight from the interior bonds).
    """
    if stencil is None:
        stencil = _Stencil(cfg.n, bc, with_ring=ring_arcs is not None)
    if pot.fourier is not None and pot.cutoff is None and ring_arcs is None:
        return _local_field_sweep(cfg, pot.fourier, width, rng, stencil)
    flat = cfg.grid.ravel()
    accepted = 0
    for p, (idx, nbr, w) in enumerate(stencil.phases):
        cur = flat[idx]
        prop = _propose(cur, width, rng)
        nbrv = flat[nbr]
        with np.errstate(invalid="ignore"):
            e_old = np.where(w > 0, pot(cur[None, :] - nbrv), 0.0).sum(axis=0)
            e_new = np.where(w > 0, pot(prop[None, :] - nbrv), 0.0).sum(axis=0)
        with np.errstate(invalid="ignore"):
            ok = np.log(rng.random(len(idx))) < -(e_new - e_old)
        ok &= np.isfinite(e_new)
        if ring_arcs is not None and p == stencil.ring_phase:
            centers, half = ring_arcs
            ok &= circle_dist(prop - centers) <= half
        flat[idx[ok]] = prop[ok]
        accepted += int(ok.sum())
    return accepted


def _propose(cur, width, rng) -> np.ndarray:
    """Wrapped Gaussian steps, each replaced by a uniform refresh with
    probability 0.1."""
    step = width * rng.standard_normal(len(cur))
    prop = wrap_angle(cur + step)
    refresh = rng.random(len(cur)) < 0.1
    k = np.count_nonzero(refresh)
    if k:
        prop[refresh] = rng.uniform(-math.pi, math.pi, k)
    return prop


def _local_field_sweep(cfg, poly, width, rng, stencil) -> int:
    """`metropolis_sweep` for U(phi) = c0 + sum_s a_s cos(s phi) + b_s sin(s phi).

    With the field Z_s = sum_j w_j e^{i s phi_j} of the neighbours,
    sum_j w_j U(x - phi_j) = c0 sum_j w_j + sum_s Re((a_s - i b_s) e^{isx} Z_s^*),
    so dE needs e^{isx} only at the current and the proposed angle.  The
    modes e^{is phi} of the grid are computed once per sweep and updated
    where moves are accepted, so each phase sees the moves of the ones before.
    """
    modes = 1j * np.arange(1, poly.degree + 1)[:, None]
    coef = (poly.cos_coeffs - 1j * poly.sin_coeffs)[:, None]
    flat = cfg.grid.ravel()
    e = np.zeros((poly.degree, flat.size + 1), dtype=complex)  # last: absent
    e[:, :-1] = np.exp(modes * flat)
    accepted = 0
    for (idx, _, _), nbr in zip(stencil.phases, stencil.field_nbrs):
        prop = _propose(flat.take(idx), width, rng)
        e_prop = np.exp(modes * prop)
        field = coef * e.take(nbr, axis=1).sum(axis=1).conj()
        de = ((e_prop - e.take(idx, axis=1)) * field).real.sum(axis=0)
        ok = np.flatnonzero(np.log(rng.random(len(idx))) < -de)
        moved = idx.take(ok)
        flat[moved] = prop.take(ok)
        e[:, moved] = e_prop.take(ok, axis=1)
        accepted += len(ok)
    return accepted


# ---------------------------------------------------------------------------
# chains and estimators


@dataclass
class ChainStats:
    sweeps: int
    acceptance_rate: float
    traces: dict
    errors: dict  # name -> (mean, error bar)
    seed: int
    width: float
    final: SpinConfiguration


def batch_means(trace, n_batches: int = 16):
    """Mean and batch-means error bar; requires at least n_batches points."""
    x = np.asarray(trace, dtype=float)
    if len(x) < n_batches:
        raise ValueError(f"need at least {n_batches} recorded points")
    m = len(x) // n_batches
    batches = x[: m * n_batches].reshape(n_batches, m).mean(axis=1)
    err = batches.std(ddof=1) / math.sqrt(n_batches)
    return float(x.mean()), float(err)


def tune_width(cfg, pot, bc, rng, stencil, ring_arcs=None,
               start: float = 0.5, rounds: int = 25) -> float:
    width = start
    n_sites = sum(len(ph[0]) for ph in stencil.phases)
    for _ in range(rounds):
        acc = sum(metropolis_sweep(cfg, pot, bc, width, rng, stencil, ring_arcs)
                  for _ in range(10))
        rate = acc / (10 * n_sites)
        if rate < 0.3:
            width = max(width * 0.7, 1e-3)
        elif rate > 0.6:
            width = min(width * 1.4, math.pi)
        else:
            break
    return width


def run_chain(pot: PairPotential, bc: BoundaryCondition, n: int, sweeps: int,
              seed: int, observables: dict = None, width: float = None,
              burn: int = None, thin: int = 1, ring_arcs=None,
              init: SpinConfiguration = None,
              callback: Callable = None) -> ChainStats:
    """Sample the finite-volume state and record observable traces.

    Free boundary conditions get an extra global-rotation move per sweep
    (energy-invariant, so always accepted) to average exactly over the
    symmetry orbit.
    """
    rng = np.random.default_rng(seed)
    stencil = _Stencil(n, bc, with_ring=ring_arcs is not None)
    cfg = initial_configuration(bc, n, rng) if init is None else init
    if width is None:
        width = tune_width(cfg, pot, bc, rng, stencil, ring_arcs)
    if burn is None:
        burn = max(200, sweeps // 10)
    observables = observables or {}
    n_sites = sum(len(ph[0]) for ph in stencil.phases)
    for _ in range(burn):
        metropolis_sweep(cfg, pot, bc, width, rng, stencil, ring_arcs)
        if bc.kind == "free":
            cfg.grid[1:-1, 1:-1] = wrap_angle(
                cfg.grid[1:-1, 1:-1] + rng.uniform(-math.pi, math.pi))
    traces = {name: [] for name in observables}
    accepted = 0
    for t in range(sweeps):
        accepted += metropolis_sweep(cfg, pot, bc, width, rng, stencil, ring_arcs)
        if bc.kind == "free":
            cfg.grid[1:-1, 1:-1] = wrap_angle(
                cfg.grid[1:-1, 1:-1] + rng.uniform(-math.pi, math.pi))
        if t % thin == 0:
            for name, f in observables.items():
                traces[name].append(f(cfg))
            if callback is not None:
                callback(cfg)
    traces = {k: np.asarray(v) for k, v in traces.items()}
    errors = {k: batch_means(v) for k, v in traces.items()}
    return ChainStats(sweeps, accepted / (sweeps * n_sites), traces, errors,
                      seed, width, cfg)


def cos_at(site):
    return lambda cfg: math.cos(cfg.at(site))


def correlation(x, y):
    return lambda cfg: math.cos(cfg.at(x) - cfg.at(y))


@dataclass
class DiscrepancyReport:
    n: int
    psi: float
    discrepancy: float
    error: float
    width: float  # tuned proposal width of the chain
    acceptance_rate: float

    def row(self) -> str:
        return f"{self.n} {self.psi} {self.discrepancy:.10g} {self.error:.10g}"


def rotation_discrepancy(pot, bc, f, psi: float, n: int, sweeps: int,
                         seed: int, **kw) -> DiscrepancyReport:
    """|<f(phi + psi)> - <f(phi)>| estimated from one chain by evaluating f
    on the rotated and unrotated configuration."""
    obs = {"diff": lambda cfg: f(cfg.rotated(psi)) - f(cfg)}
    stats = run_chain(pot, bc, n, sweeps, seed, observables=obs, **kw)
    mean, err = stats.errors["diff"]
    return DiscrepancyReport(n, psi, abs(mean), err, stats.width,
                             stats.acceptance_rate)


def two_point(pot, bc, x, y, n: int, sweeps: int, seed: int, **kw):
    """<cos(phi_x - phi_y)> with a batch-means error bar."""
    stats = run_chain(pot, bc, n, sweeps, seed,
                      observables={"corr": correlation(x, y)}, **kw)
    return stats.errors["corr"]


@dataclass
class PowerLawFit:
    exponent: float
    exponent_ci: tuple
    ll_power: float
    ll_exponential: float

    @property
    def ll_difference(self) -> float:
        return self.ll_power - self.ll_exponential

    @property
    def preferred(self) -> str:
        return "power" if self.ll_difference >= 0 else "exponential"


def power_law_fit(rows) -> PowerLawFit:
    """Weighted log-log regression of (distance, value, error) rows against
    r^{-c}, with a log-likelihood comparison to exponential decay."""
    rows = list(rows)
    r = np.array([float(a) for a, _, _ in rows])
    v = np.array([float(b) for _, b, _ in rows])
    e = np.array([float(c) for _, _, c in rows])
    if len(r) < 4 or r.max() / r.min() < 4:
        raise ValueError("need at least 4 distances spanning a factor of 4")
    if np.any(v <= 0):
        raise ValueError("unusable window: nonpositive correlation values")
    s = np.where(e > 0, e / v, 1e-3)  # error of log value
    y = np.log(v)

    def wls(design):
        w = 1.0 / s ** 2
        a = design * np.sqrt(w)[:, None]
        b = y * np.sqrt(w)
        coef, *_ = np.linalg.lstsq(a, b, rcond=None)
        resid = y - design @ coef
        ll = -0.5 * float(np.sum((resid / s) ** 2))
        cov = np.linalg.inv(a.T @ a)
        return coef, ll, cov

    d_pow = np.column_stack([np.ones_like(r), -np.log(r)])
    d_exp = np.column_stack([np.ones_like(r), -r])
    coef_p, ll_p, cov_p = wls(d_pow)
    _, ll_e, _ = wls(d_exp)
    c = float(coef_p[1])
    half = 1.96 * math.sqrt(cov_p[1, 1])
    return PowerLawFit(c, (c - half, c + half), ll_p, ll_e)


# ---------------------------------------------------------------------------
# feasibility under hard-core staircase conditions


class Arcs:
    """Union of closed arcs on the circle, kept as disjoint sorted intervals
    [a, b] inside [0, 2pi] (a point is an interval with a == b)."""

    def __init__(self, intervals=None, full=False):
        self.full = full
        self.intervals = [] if full else self._normalize(intervals or [])

    @staticmethod
    def _normalize(raw):
        # raw comes as (start, end) on the line with end >= start
        pieces = []
        for a, b in raw:
            length = b - a
            a = a % TWO_PI
            b = a + length
            if b > TWO_PI:
                pieces.append((a, TWO_PI))
                pieces.append((0.0, b - TWO_PI))
            else:
                pieces.append((a, b))
        pieces.sort()
        merged = []
        for a, b in pieces:
            if merged and a <= merged[-1][1] + 1e-15:
                merged[-1] = (merged[-1][0], max(merged[-1][1], b))
            else:
                merged.append((a, b))
        # join a piece ending at 2pi with one starting at 0
        if len(merged) > 1 and merged[0][0] <= 1e-15 and merged[-1][1] >= TWO_PI - 1e-15:
            a0, b0 = merged.pop(0)
            a1, b1 = merged.pop()
            merged.insert(0, (0.0, b0))
            merged.append((a1, TWO_PI))
        return merged

    @classmethod
    def full_circle(cls):
        return cls(full=True)

    @classmethod
    def arc(cls, center: float, halfwidth: float):
        if halfwidth >= math.pi:
            return cls.full_circle()
        c = center % TWO_PI
        return cls([(c - halfwidth, c + halfwidth)])

    @property
    def measure(self) -> float:
        if self.full:
            return TWO_PI
        return sum(b - a for a, b in self.intervals)

    @property
    def empty(self) -> bool:
        return not self.full and not self.intervals

    def dilate(self, r: float) -> "Arcs":
        if self.full or self.empty:
            return self
        if self.measure + 2 * r * len(self.intervals) >= TWO_PI:
            # cheap sufficient check, then exact merge below decides
            grown = Arcs([(a - r, b + r) for a, b in self.intervals])
            if grown.measure >= TWO_PI - 1e-15:
                return Arcs.full_circle()
            return grown
        return Arcs([(a - r, b + r) for a, b in self.intervals])

    def intersect(self, other: "Arcs") -> "Arcs":
        if self.full:
            return other
        if other.full:
            return self
        out = []
        for a, b in self.intervals:
            for c, d in other.intervals:
                lo, hi = max(a, c), min(b, d)
                if lo <= hi:
                    out.append((lo, hi))
        res = Arcs.__new__(Arcs)
        res.full = False
        res.intervals = Arcs._normalize(out)
        return res

    def contains(self, t: float, tol: float = 1e-12) -> bool:
        if self.full:
            return True
        t = t % TWO_PI
        return any(a - tol <= t <= b + tol for a, b in self.intervals)

    @property
    def diameter(self) -> float:
        """Largest circle distance between two points of the set."""
        if self.full:
            return math.pi
        if self.empty:
            return 0.0
        pts = [p for ab in self.intervals for p in ab]
        best = max(b - a for a, b in self.intervals)
        for i, p in enumerate(pts):
            for q in pts[i + 1:]:
                d = abs(p - q)
                best = max(best, min(d, TWO_PI - d))
        return best

    def a_point(self, rng=None) -> float:
        """Midpoint of the largest interval, or a uniform draw when rng given."""
        if self.full:
            if rng is None:
                return 0.0
            return float(rng.uniform(0, TWO_PI))
        if self.empty:
            raise ValueError("empty arc set")
        if rng is None:
            a, b = max(self.intervals, key=lambda ab: ab[1] - ab[0])
            return wrap_angle(0.5 * (a + b))
        lengths = np.array([b - a for a, b in self.intervals])
        if lengths.sum() == 0:
            return wrap_angle(self.intervals[0][0])
        i = rng.choice(len(lengths), p=lengths / lengths.sum())
        a, b = self.intervals[i]
        return wrap_angle(float(rng.uniform(a, b)))

    def close_to(self, other: "Arcs", tol: float = 1e-12) -> bool:
        if self.full != other.full:
            return False
        if self.full:
            return True
        if len(self.intervals) != len(other.intervals):
            return False
        return all(abs(a - c) <= tol and abs(b - d) <= tol
                   for (a, b), (c, d) in zip(self.intervals, other.intervals))


@dataclass
class FeasibilityCertificate:
    arcs: dict  # interior site -> Arcs (fixed point of the propagation)
    verdict: str  # feasible | infeasible | uniquely-rigid
    witness: Optional[dict]  # site -> angle, only when uniquely rigid


def _propagate(sets, boundary, theta, n, queue):
    """Arc-consistency fixed point: intersect each site's set with every
    neighbor's set dilated by the hard-core cutoff."""
    dirs = [(1, 0), (-1, 0), (0, 1), (0, -1)]
    budget = 500 * max(len(sets), 1)
    while queue:
        budget -= 1
        if budget < 0:
            break  # accept the current (still valid) superset
        site = queue.popleft()
        new = sets[site]
        for dx, dy in dirs:
            q = (site[0] + dx, site[1] + dy)
            nbr_set = sets.get(q) or boundary.get(q)
            if nbr_set is None:
                continue
            # tiny slack keeps exactly-touching closed arcs intersecting
            # despite roundoff; far below the 1e-9 rigidity threshold
            new = new.intersect(nbr_set.dilate(theta + 1e-12))
            if new.empty:
                sets[site] = new
                return False
        if not new.close_to(sets[site]):
            sets[site] = new
            for dx, dy in dirs:
                q = (site[0] + dx, site[1] + dy)
                if q in sets and q not in queue:
                    queue.append(q)
    return True


def _boundary_arcs(bc: BoundaryCondition, n: int, boundary_values=None) -> dict:
    boundary = {}
    for site in boundary_ring(n):
        if boundary_values is not None:
            boundary[site] = Arcs.arc(float(boundary_values[site]), 0.0)
        else:
            center = float(staircase_angle(bc, site[1]))
            half = bc.delta if bc.kind == "smeared" else 0.0
            boundary[site] = Arcs.arc(center, half)
    return boundary


def feasibility(bc: BoundaryCondition, theta: float, n: int,
                boundary_values=None) -> FeasibilityCertificate:
    """Constraint propagation certificate for the hard-core model under the
    given boundary condition (staircase values, smeared arcs, or explicit
    per-site boundary angles)."""
    boundary = _boundary_arcs(bc, n, boundary_values)
    sets = {}
    for x in range(-n, n + 1):
        for y in range(-n, n + 1):
            sets[(x, y)] = Arcs.full_circle()
    queue = deque(sets.keys())
    ok = _propagate(sets, boundary, theta, n, queue)
    if not ok or any(s.empty for s in sets.values()):
        return FeasibilityCertificate(sets, "infeasible", None)
    if all(s.diameter < 1e-9 for s in sets.values()):
        witness = {site: s.a_point() for site, s in sets.items()}
        return FeasibilityCertificate(sets, "uniquely-rigid", witness)
    return FeasibilityCertificate(sets, "feasible", None)


def feasible_point(cert: FeasibilityCertificate, bc: BoundaryCondition,
                   theta: float, n: int, rng, attempts: int = 20,
                   boundary_values=None):
    """Randomized search for one finite-energy configuration inside the
    certificate's arcs; returns site -> angle, or None if every attempt dies."""
    if cert.verdict == "infeasible":
        return None
    if cert.witness is not None:
        return dict(cert.witness)
    boundary = _boundary_arcs(bc, n, boundary_values)
    sites = sorted(cert.arcs.keys())
    for _ in range(attempts):
        sets = dict(cert.arcs)
        order = list(sites)
        rng.shuffle(order)
        dead = False
        for site in order:
            if sets[site].empty:
                dead = True
                break
            pick = sets[site].a_point(rng)
            sets[site] = Arcs.arc(pick, 0.0)
            queue = deque([(site[0] + d[0], site[1] + d[1])
                           for d in [(1, 0), (-1, 0), (0, 1), (0, -1)]
                           if (site[0] + d[0], site[1] + d[1]) in sets])
            if not _propagate(sets, boundary, theta, n, queue):
                dead = True
                break
        if not dead and all(not s.empty for s in sets.values()):
            return {site: s.a_point() for site, s in sets.items()}
    return None


# ---------------------------------------------------------------------------
# symmetry-breaking state


@dataclass
class StateReport:
    stats: ChainStats
    magnetization: np.ndarray  # complex per interior site
    n: int
    violations: int

    def origin_modulus(self) -> float:
        return float(np.abs(self.magnetization[self.n, self.n]))

    def rows(self) -> str:
        lines = []
        for x in range(-self.n, self.n + 1):
            for y in range(-self.n, self.n + 1):
                m = self.magnetization[x + self.n, y + self.n]
                lines.append(f"{x} {y} {m.real:.10g} {m.imag:.10g} {abs(m):.10g}")
        return "\n".join(lines) + "\n"


def sample_state(pot: PairPotential, bc: BoundaryCondition, n: int,
                 sweeps: int, seed: int, ring_arcs=None, init=None,
                 width: float = None, thin: int = 1,
                 burn: int = None) -> StateReport:
    """Run one chain and accumulate the per-site magnetization <e^{i phi}>."""
    acc = np.zeros((2 * n + 1, 2 * n + 1), dtype=complex)
    count = [0]
    violations = [0]

    def collect(cfg):
        acc[:, :] += np.exp(1j * cfg.interior())
        count[0] += 1
        violations[0] += hardcore_violations(cfg, pot, bc)

    obs = {
        "cos0": cos_at((0, 0)),
        "sin0": lambda cfg: math.sin(cfg.at((0, 0))),
        "cos01": cos_at((0, 1)),
        "sin01": lambda cfg: math.sin(cfg.at((0, 1))),
    }
    stats = run_chain(pot, bc, n, sweeps, seed, observables=obs, width=width,
                      thin=thin, ring_arcs=ring_arcs, init=init,
                      callback=collect, burn=burn)
    return StateReport(stats, acc / count[0], n, violations[0])


@dataclass
class AizenmanReport:
    state: StateReport
    k: int
    sigma: int
    delta: float
    covariance_gap: float
    covariance_error: float

    def origin_modulus(self) -> float:
        return self.state.origin_modulus()

    @property
    def covariance_ok(self) -> bool:
        return self.covariance_gap <= 3 * self.covariance_error


def _covariance_check(traces: dict, sigma: int, theta: float):
    rot = np.exp(1j * sigma * theta)
    diff = (traces["cos01"] + 1j * traces["sin01"]) \
        - rot * (traces["cos0"] + 1j * traces["sin0"])
    # Error bar propagated from the two site estimates in quadrature.  The
    # rigid block wiggles collectively, so per-site errors dominate the
    # (much smaller) error of the difference trace; using them is the
    # conservative propagation for comparing the two published means.
    errs = [batch_means(traces[name])[1]
            for name in ("cos0", "sin0", "cos01", "sin01")]
    return abs(complex(diff.mean())), math.sqrt(sum(e * e for e in errs))


def aizenman_state(k: int, delta: float, sigma: int, n: int, sweeps: int,
                   seed: int, width: float = None, method: str = "joint",
                   restarts: int = 40, max_draws: int = 2000) -> AizenmanReport:
    """Sample the smeared staircase state of the hard-core cosine model.

    method "joint" (default): the boundary ring is sampled together with the
    interior, each boundary site constrained to its arc of half-width delta
    around the staircase.  This visits exactly the boundary draws whose
    conditional measure is nonzero; relative to the literal construction it
    reweights feasible draws by their conditional partition function, which
    moves nothing outside the delta-tube around the staircase.

    method "restarts": the literal construction; boundary angles are redrawn
    uniformly from their arcs each restart, infeasible draws carry zero
    measure and are skipped.  Only practical for small n, since the feasible
    fraction of draws decays exponentially with n.
    """
    from .interaction import aizenman

    theta = TWO_PI / k
    pot = aizenman(theta)
    cert = feasibility(staircase_bc(k, sigma), theta, n)
    if cert.verdict == "infeasible":
        raise RuntimeError(
            "no finite-energy configuration for this staircase: the "
            "conditional measure is identically zero")
    bc = smeared_bc(k, delta, sigma)
    ring = boundary_ring(n)
    if method == "joint":
        # arc parameters in stencil phase order (flat-index sorted)
        s = 2 * n + 3
        order = sorted(ring, key=lambda p: (p[0] + n + 1) * s + (p[1] + n + 1))
        centers = np.array([staircase_angle(bc, p[1]) for p in order])
        init = initial_configuration(bc, n, np.random.default_rng(0))
        report = sample_state(pot, bc, n, sweeps, seed,
                              ring_arcs=(centers, delta), init=init, width=width)
        gap, err = _covariance_check(report.stats.traces, sigma, theta)
        return AizenmanReport(report, k, sigma, delta, gap, err)
    if method != "restarts":
        raise ValueError(f"unknown method {method!r}")
    rng = np.random.default_rng(seed)
    per = max(64, sweeps // restarts)
    mags, traces = [], {"cos0": [], "sin0": [], "cos01": [], "sin01": []}
    violations = 0
    feasible_draws, draws = 0, 0
    last = None
    while feasible_draws < restarts and draws < max_draws:
        draws += 1
        bvals = {site: wrap_angle(float(staircase_angle(bc, site[1]))
                                  + rng.uniform(-delta, delta))
                 for site in ring}
        c = feasibility(bc, theta, n, boundary_values=bvals)
        point = feasible_point(c, bc, theta, n, rng, attempts=5,
                               boundary_values=bvals)
        if point is None:
            continue
        feasible_draws += 1
        grid = np.zeros((2 * n + 3, 2 * n + 3))
        for site, v in bvals.items():
            grid[site[0] + n + 1, site[1] + n + 1] = v
        for site, v in point.items():
            grid[site[0] + n + 1, site[1] + n + 1] = v
        rep = sample_state(pot, bc, n, per, int(rng.integers(2 ** 31)),
                           init=SpinConfiguration(n, grid), width=width,
                           burn=per // 4)
        mags.append(rep.magnetization)
        violations += rep.violations
        for name in traces:
            traces[name].append(rep.stats.traces[name])
        last = rep
    if feasible_draws == 0:
        raise RuntimeError(
            "every sampled boundary condition was infeasible: the smeared "
            "measure is identically zero at these parameters")
    traces = {k2: np.concatenate(v) for k2, v in traces.items()}
    errors = {k2: batch_means(v) for k2, v in traces.items()}
    stats = ChainStats(per * feasible_draws, last.stats.acceptance_rate,
                       traces, errors, seed, last.stats.width, last.stats.final)
    report = StateReport(stats, np.mean(mags, axis=0), n, violations)
    gap, err = _covariance_check(traces, sigma, theta)
    return AizenmanReport(report, k, sigma, delta, gap, err)


# ---------------------------------------------------------------------------
# discrete toy systems (exact detailed-balance and stationarity checks)


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


def exact_discrete_toy(m: int, j: float) -> np.ndarray:
    """Exact stationary law of the m-state XY toy on a 2x2 box, free bc."""
    angles = TWO_PI * np.arange(m) / m
    states = np.stack(np.meshgrid(*[angles] * 4, indexing="ij"), axis=-1)
    a, b, c, d = (states[..., i] for i in range(4))
    # sites (0,0)=a, (0,1)=b, (1,0)=c, (1,1)=d; four bonds of the square
    h = -j * (np.cos(a - b) + np.cos(a - c) + np.cos(b - d) + np.cos(c - d))
    w = np.exp(-h).ravel()  # flat index ((a*m + b)*m + c)*m + d
    return w / w.sum()


def sample_discrete_toy(m: int, j: float, sweeps: int, replicas: int,
                        seed: int, burn: int = 200) -> np.ndarray:
    """Empirical stationary law of the same toy from parallel single-site
    Metropolis chains using `accept_probability`."""
    rng = np.random.default_rng(seed)
    angles = TWO_PI * np.arange(m) / m
    state = rng.integers(0, m, size=(replicas, 4))
    nbrs = [(1, 2), (0, 3), (0, 3), (1, 2)]
    counts = np.zeros(m ** 4)
    for t in range(burn + sweeps):
        for site in range(4):
            prop = rng.integers(0, m, size=replicas)
            cur = state[:, site]
            de = np.zeros(replicas)
            for q in nbrs[site]:
                de += -j * (np.cos(angles[prop] - angles[state[:, q]])
                            - np.cos(angles[cur] - angles[state[:, q]]))
            ok = rng.random(replicas) < accept_probability(de)
            state[ok, site] = prop[ok]
        if t >= burn:
            code = ((state[:, 0] * m + state[:, 1]) * m + state[:, 2]) * m + state[:, 3]
            counts += np.bincount(code, minlength=m ** 4)
    return counts / counts.sum()
