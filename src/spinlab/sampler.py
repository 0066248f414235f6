"""Metropolis sampling of circle-valued spins on a box, with the boundary
conditions needed for rotation-discrepancy, correlation-decay, and
symmetry-breaking experiments.

Single-site proposals (wrapped Gaussian plus occasional uniform refresh) on a
checkerboard; hard-core potentials are handled by rejecting any proposal of
infinite energy.  One sweep serves every potential: those with a Fourier
form, hard core and ring arcs included, take dE from per-mode local fields,
whose modes each chain keeps between sweeps; only those without one
(`absval`, `logsing`) call the potential on each neighbour difference.
The smeared staircase state treats the boundary ring as arc-constrained
sampling sites, which integrates the boundary smearing and the interior
Gibbs weight jointly; boundary draws whose conditional measure would vanish
are then never visited rather than rejected wholesale.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .interaction import TWO_PI, PairPotential, aizenman, circle_dist, wrap_angle
from .lattice import layer_sites, sup_grid, sup_norm


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
        return self.grid[1:-1, 1:-1]

    def rotated(self, psi: float) -> "SpinConfiguration":
        """This configuration with its box turned by psi, as a view: read it
        before this one changes."""
        return _Rotated(self, psi)


class _Rotated(SpinConfiguration):
    """`base` with its box turned by psi, built only as far as it is read:
    `at` turns the one site it reads, `grid` the whole box on first use."""

    def __init__(self, base: SpinConfiguration, psi: float):
        self.n, self._base, self._psi = base.n, base, psi

    @functools.cached_property
    def grid(self) -> np.ndarray:
        g = self._base.grid.copy()
        g[1:-1, 1:-1] = wrap_angle(g[1:-1, 1:-1] + self._psi)
        return g

    def at(self, site) -> float:
        v = self._base.grid[site[0] + self.offset, site[1] + self.offset]
        return float(wrap_angle(v + self._psi) if sup_norm(site) <= self.n else v)


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


def hardcore_violations(cfg: SpinConfiguration, pot: PairPotential,
                        bc: BoundaryCondition) -> int:
    """Nearest-neighbor bonds with at least one interior endpoint (free bc:
    both endpoints interior) whose angle difference exceeds the cutoff."""
    if not pot.is_hard_core:
        return 0
    mx, my = _bond_masks(cfg.n, bc.kind == "free")
    g, cut = cfg.grid, pot.cutoff + 1e-12
    return int(np.count_nonzero(circle_dist(g[1:] - g[:-1])[mx] > cut)
               + np.count_nonzero(circle_dist(g[:, 1:] - g[:, :-1])[my] > cut))


@functools.cache
def _bond_masks(n: int, free: bool):
    """The bonds that count on the extended grid of a box of radius n: mx
    for those from grid point (i, j) to (i + 1, j), my for those to
    (i, j + 1).  A bond counts when one end is interior, or both under a
    free bc."""
    interior = sup_grid(n + 1) <= n
    join = np.logical_and if free else np.logical_or
    masks = join(interior[1:], interior[:-1]), join(interior[:, 1:], interior[:, :-1])
    for m in masks:
        m.setflags(write=False)  # shared by every caller through the cache
    return masks


# ---------------------------------------------------------------------------
# the sweep


class _Stencil:
    """The sweep state of one chain.

    Flat-index update phases (sites, neighbours, present) for one (n, bc)
    pair: two interior checkerboard colors and, for a smeared bc, the
    boundary ring, with the staircase values there as `ring_centres`.  The
    neighbours are the steps (+1, 0), (-1, 0), (0, +1), (0, -1); an absent
    one points one past the grid, where `modes` keeps zeros.

    For a potential with a Fourier form the sweep keeps two things here:
    `modes`, e^{is phi} of the grid for s = 1..degree (set on its first
    sweep and updated where moves land), and `finite`, whether every counted
    bond reads unbroken from each of its sampled ends, so that a hard core
    need test only the proposal; without a form `finite` stays False.  Both
    describe one grid, so each chain builds its own stencil, and a change to
    the grid made outside the sweeps is followed by `refresh`.
    """

    def __init__(self, n: int, bc: BoundaryCondition):
        s = 2 * n + 3
        sup = sup_grid(n + 1)
        mx, my = _bond_masks(n, bc.kind == "free")
        # padded with absent bonds past the edges, then taken per step
        mx, my = np.pad(mx, [(1, 1), (0, 0)]), np.pad(my, [(0, 0), (1, 1)])
        bonds = np.stack([mx[1:], mx[:-1], my[:, 1:], my[:, :-1]])
        xs, ys = np.indices((s, s))
        masks = [(sup <= n) & ((xs + ys) % 2 == color) for color in (0, 1)]
        self.ring_phase = None
        if bc.kind == "smeared":
            masks.append(sup == n + 1)
            self.ring_phase = 2
            self.ring_centres = initial_configuration(bc, n, None).grid[masks[2]]
        step = np.array([s, -s, 1, -1])[:, None]
        self.phases = []
        for mask in masks:
            idx, present = np.flatnonzero(mask), bonds[:, mask]
            self.phases.append((idx, np.where(present, idx + step, s * s), present))
        self.n_sites = sum(len(idx) for idx, _, _ in self.phases)
        self.modes = None
        self.finite = False

    def refresh(self, grid: np.ndarray):
        """Recompute the kept state after `grid` changed outside the sweeps."""
        self.finite = False
        if self.modes is not None:
            self.modes[:, :-1] = _modes(len(self.modes), grid.ravel())


# A move whose proposal lies this close to the cutoff may read as broken
# from the other end of a bond: the two ends wrap phi and -phi, which can
# differ by a few ulps of pi.  Such a move ends the skipping of the
# current-angle test until a sweep shows the grid unbroken again.
_NEAR_CUTOFF = 1e-9


def metropolis_sweep(cfg: SpinConfiguration, pot: PairPotential,
                     bc: BoundaryCondition, width: float, rng,
                     stencil: _Stencil) -> int:
    """One full sweep of single-site proposals; returns accepted count.

    A proposal of infinite energy is rejected; from a site of infinite
    energy, any finite proposal is accepted.  In the ring phase of a smeared
    bc, proposals farther than bc.delta from their arc centre are rejected
    (uniform prior on the arc, Gibbs weight from the interior bonds).

    Every potential draws its proposals and accept uniforms alike.  Without
    a Fourier form, dE calls the potential on the neighbour differences of
    the current and the proposed angle.  With U(phi) = c0 + sum_s a_s
    cos(s phi) + b_s sin(s phi) (`pot.fourier`) inside the cutoff of `pot`,
    if any, and the neighbours' field Z_s = sum_j w_j e^{i s phi_j},
    sum_j w_j U(x - phi_j) = c0 sum_j w_j + sum_s Re((a_s - i b_s) e^{isx} Z_s^*),
    so dE needs e^{isx} only at the current and the proposed angle, and the
    moves are the same up to roundoff.  `stencil.modes` keeps e^{is phi} of
    the grid, updated where moves land, so each phase sees the moves of the
    ones before.  A hard core is tested on the neighbour differences with
    the arithmetic of `PairPotential.__call__`, so it rejects and accepts
    what the pair energies do; while `stencil.finite` holds, no current
    angle breaks a bond, and only the proposal is tested.
    """
    poly = pot.fourier
    flat = cfg.grid.ravel()
    if poly is not None:
        coef = (poly.cos_coeffs - 1j * poly.sin_coeffs)[:, None]
        if stencil.modes is None:  # the last column stands for absent neighbours
            stencil.modes = np.zeros((poly.degree, flat.size + 1), dtype=complex)
            stencil.refresh(cfg.grid)
        e = stencil.modes
    # finite: no current angle breaks a bond; clean: nor will the grid after
    # this sweep, as far as this sweep's tests show (pair energies test none)
    finite, clean = stencil.finite, poly is not None
    accepted = 0
    for p, (idx, nbr, present) in enumerate(stencil.phases):
        cur = flat.take(idx)
        prop = _propose(cur, width, rng)
        if poly is None:
            diff = np.stack([cur, prop])[:, None, :] - flat.take(nbr, mode="clip")
            with np.errstate(invalid="ignore"):
                e_old, e_new = np.where(present, pot(diff), 0.0).sum(axis=1)
                de = e_new - e_old
        else:
            e_prop = _modes(poly.degree, prop)
            field = e.take(nbr, axis=1).sum(axis=1)
            np.conjugate(field, out=field)
            np.multiply(coef, field, out=field)
            de = e.take(idx, axis=1)
            np.subtract(e_prop, de, out=de)
            de *= field
            de = de.real.sum(axis=0)
        ok = np.log(rng.random(len(idx))) < np.negative(de, out=de)
        if poly is None:
            ok &= np.isfinite(e_new)
        elif pot.cutoff is not None:
            # rows: the proposal, then the current angle; the farthest
            # present neighbour of each
            rows = prop[None, :] if finite else np.stack([prop, cur])
            dist = circle_dist(rows[:, None, :] - flat.take(nbr, mode="clip"))
            dist *= present
            dist = dist.max(axis=1)
            if not finite:
                broken = dist[1] > pot.cutoff
                clean &= not broken.any()
                ok |= broken
            ok &= ~(dist[0] > pot.cutoff)
            if np.any(ok & (dist[0] > pot.cutoff - _NEAR_CUTOFF)):
                finite = clean = False
        if p == stencil.ring_phase:
            ok &= circle_dist(prop - stencil.ring_centres) <= bc.delta
        ok = np.flatnonzero(ok)
        moved = idx.take(ok)
        flat[moved] = prop.take(ok)
        if poly is not None:
            e[:, moved] = e_prop.take(ok, axis=1)
        accepted += len(ok)
    stencil.finite = clean
    return accepted


def _propose(cur, width, rng) -> np.ndarray:
    """Wrapped Gaussian steps, each replaced by a uniform refresh with
    probability 0.1."""
    step = rng.standard_normal(len(cur))
    step *= width
    step += cur
    prop = wrap_angle(step)
    refresh = rng.random(len(cur)) < 0.1
    k = np.count_nonzero(refresh)
    if k:
        prop[refresh] = rng.uniform(-math.pi, math.pi, k)
    return prop


def _modes(degree: int, phi) -> np.ndarray:
    """e^{i s phi} for s = 1..degree, one row per s."""
    z = 1j * np.arange(1, degree + 1)[:, None] * phi
    return np.exp(z, out=z)


# ---------------------------------------------------------------------------
# chains and estimators


@dataclass
class ChainStats:
    acceptance_rate: float
    traces: dict
    errors: dict  # name -> (mean, error bar)
    width: float


def batch_means(trace):
    """Mean and error bar from 16 batches; requires at least 16 points."""
    n_batches = 16
    x = np.asarray(trace, dtype=float)
    if len(x) < n_batches:
        raise ValueError(f"need at least {n_batches} recorded points")
    m = len(x) // n_batches
    batches = x[: m * n_batches].reshape(n_batches, m).mean(axis=1)
    err = batches.std(ddof=1) / math.sqrt(n_batches)
    return float(x.mean()), float(err)


def tune_width(cfg, pot, bc, rng, stencil) -> float:
    """Blocks of 10 sweeps, each scaling the width toward an acceptance rate
    in [0.3, 0.6], until a block leaves the width as it is: in range, or
    pinned at the floor 1e-3 or the ceiling pi."""
    width = 0.5
    for _ in range(25):
        acc = sum(metropolis_sweep(cfg, pot, bc, width, rng, stencil)
                  for _ in range(10))
        rate = acc / (10 * stencil.n_sites)
        if rate < 0.3:
            new = max(width * 0.7, 1e-3)
        elif rate > 0.6:
            new = min(width * 1.4, math.pi)
        else:
            break
        if new == width:
            break
        width = new
    return width


def run_chain(pot: PairPotential, bc: BoundaryCondition, n: int, sweeps: int,
              seed: int, observables: dict = None, init: SpinConfiguration = None,
              callback: Callable = None) -> ChainStats:
    """Sample the finite-volume state and record observable traces.

    Free boundary conditions get an extra global-rotation move per sweep
    (energy-invariant, so always accepted) to average exactly over the
    symmetry orbit.  The recorded sweeps follow max(200, sweeps // 10)
    burn-in sweeps.  `callback(cfg, stencil)` runs after each recorded
    sweep, with the chain's sweep state.
    """
    rng = np.random.default_rng(seed)
    stencil = _Stencil(n, bc)
    cfg = initial_configuration(bc, n, rng) if init is None else init
    width = tune_width(cfg, pot, bc, rng, stencil)
    observables = observables or {}
    traces = {name: [] for name in observables}
    accepted = 0
    for t in range(-max(200, sweeps // 10), sweeps):  # burn-in at t < 0
        acc = metropolis_sweep(cfg, pot, bc, width, rng, stencil)
        if bc.kind == "free":
            cfg.grid[1:-1, 1:-1] = wrap_angle(
                cfg.grid[1:-1, 1:-1] + rng.uniform(-math.pi, math.pi))
            stencil.refresh(cfg.grid)
        if t >= 0:
            accepted += acc
            for name, f in observables.items():
                traces[name].append(f(cfg))
            if callback is not None:
                callback(cfg, stencil)
    traces = {k: np.asarray(v) for k, v in traces.items()}
    errors = {k: batch_means(v) for k, v in traces.items()}
    return ChainStats(accepted / (sweeps * stencil.n_sites), traces, errors, width)


def cos_at(site):
    return lambda cfg: math.cos(cfg.at(site))


def correlation(x, y):
    return lambda cfg: math.cos(cfg.at(x) - cfg.at(y))


@dataclass
class DiscrepancyReport:
    n: int
    discrepancy: float
    error: float
    width: float  # tuned proposal width of the chain
    acceptance_rate: float


def rotation_discrepancy(pot, bc, f, psi: float, n: int, sweeps: int,
                         seed: int) -> DiscrepancyReport:
    """|<f(phi + psi)> - <f(phi)>| estimated from one chain by evaluating f
    on the rotated and unrotated configuration (the rotated one is a view,
    so an f that reads one site turns only that site)."""
    obs = {"diff": lambda cfg: f(cfg.rotated(psi)) - f(cfg)}
    stats = run_chain(pot, bc, n, sweeps, seed, observables=obs)
    mean, err = stats.errors["diff"]
    return DiscrepancyReport(n, abs(mean), err, stats.width, stats.acceptance_rate)


def two_point(pot, bc, x, y, n: int, sweeps: int, seed: int):
    """<cos(phi_x - phi_y)> with a batch-means error bar."""
    if max(sup_norm(x), sup_norm(y)) > n:
        raise ValueError(f"sites {x} and {y} must lie in the box of radius {n}")
    stats = run_chain(pot, bc, n, sweeps, seed,
                      observables={"corr": correlation(x, y)})
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


@dataclass
class FeasibilityCertificate:
    """Exact verdict for the hard-core model with cutoff theta on a box.

    G is the box plus R', the ring sites with an interior neighbour; D is
    its graph distance.  As 4 theta < 2 pi, no plaquette of a finite-energy
    configuration carries a vortex, so the configuration lifts to a real
    theta-Lipschitz function for D, with site i of R' at c_i + 2 pi m_i + t_i
    for an integer winding m_i and |t_i| <= delta.  For fixed windings the
    arcs admit a theta-Lipschitz choice iff every pair does (the lower
    envelope is one), and McShane's extension carries it to all of G.  Pair
    compatibility reads m_i - m_j <= floor((theta D + 2 delta - c_i + c_j) /
    2 pi): difference constraints, solvable iff their graph has no negative
    cycle, with the shortest-path distances from one site as a solution
    (Cormen et al., Introduction to Algorithms, 24.4).  `lower` and `upper`
    are the envelopes for that winding: the least and greatest lifted value
    of each site over its finite-energy configurations.  "uniquely-rigid"
    means one winding up to a common shift and envelopes meeting on the box.
    """

    verdict: str  # feasible | infeasible | uniquely-rigid
    witness: Optional[SpinConfiguration]  # G at wrap_angle(lower); None if infeasible
    lower: Optional[np.ndarray]  # per site of G in `_lift_graph` order
    upper: Optional[np.ndarray]


def _lift_graph(n: int):
    """Sites of G (the box in flat-index order, then R' in ring order), their
    anchors in the box and their ring flags e."""
    ax = np.arange(-n, n + 1)
    box = np.stack(np.meshgrid(ax, ax, indexing="ij"), axis=-1).reshape(-1, 2)
    ring = np.array([p for p in layer_sites(n + 1) if abs(p[0]) != abs(p[1])])
    e = np.repeat([0, 1], [len(box), len(ring)])
    sites = np.concatenate([box, ring])
    return sites, np.clip(sites, -n, n), e


def _distance(anchor, e, i, j):
    """Graph distance D between the sites of G indexed by i and j."""
    d = abs(anchor[i, 0] - anchor[j, 0]) + abs(anchor[i, 1] - anchor[j, 1]) + e[i] + e[j]
    return np.where(i == j, 0, d)


def feasibility(bc: BoundaryCondition, theta: float, n: int) -> FeasibilityCertificate:
    """Exact certificate (see `FeasibilityCertificate`) for the hard-core
    model under fixed or staircase values or smeared arcs on the ring."""
    if bc.kind == "free":
        raise ValueError("free boundary conditions leave nothing to certify")
    return _certify(initial_configuration(bc, n, None),
                    bc.delta if bc.kind == "smeared" else 0.0, theta)


def _certify(cfg: SpinConfiguration, delta: float, theta: float) -> FeasibilityCertificate:
    """Certificate for arcs of half-width delta around the values of `cfg`
    on R'; the witness is `cfg` with G at the lower envelope."""
    if theta >= math.pi / 2:
        raise ValueError("a plaquette can carry a vortex unless theta < pi/2")
    n = cfg.n
    sites, anchor, e = _lift_graph(n)
    at = (sites[:, 0] + n + 1, sites[:, 1] + n + 1)
    centres = cfg.grid[at][e == 1]
    ring = np.flatnonzero(e)
    reach = theta * _distance(anchor, e, np.arange(len(sites))[:, None], ring)
    # dist[j, i]: the bound on m_i - m_j, closed over paths from j to i;
    # 1e-12 keeps exactly compatible pairs compatible despite roundoff
    dist = np.floor((reach[ring] + 2 * delta + 1e-12
                     - (centres - centres[:, None])) / TWO_PI)
    for k in range(len(dist)):
        np.minimum(dist, dist[:, k, None] + dist[None, k], out=dist)
    if np.any(np.diagonal(dist) < 0):  # a negative cycle
        return FeasibilityCertificate("infeasible", None, None, None)
    lifted = centres + TWO_PI * dist[0]
    lower = (lifted - delta - reach).max(axis=1)
    upper = (lifted + delta + reach).min(axis=1)
    witness = SpinConfiguration(n, cfg.grid.copy())
    witness.grid[at] = wrap_angle(lower)
    bad = hardcore_violations(witness, aizenman(theta), fixed_bc())  # bonds with an interior end
    if bad:
        raise RuntimeError(f"lower envelope breaks the hard core on {bad} bonds")
    rigid = np.all(dist[0] + dist[:, 0] == 0) and np.all((upper - lower)[e == 0] < 1e-9)
    return FeasibilityCertificate("uniquely-rigid" if rigid else "feasible",
                                  witness, lower, upper)


def feasible_point(cert: FeasibilityCertificate, theta: float, rng):
    """A random finite-energy configuration, the witness with new values on
    G, or None if the certificate is infeasible.

    The sites of G are fixed in random order, each uniformly inside its
    current [lower, upper], which then tightens every other site's bounds by
    theta D.  The fixed values stay pairwise compatible, so by the argument
    of `FeasibilityCertificate` no bounds ever cross.

    The draws keep the ring winding of the certificate's envelope (`dist[0]`
    in `_certify`), so a ring with several feasible windings, such as the
    k = 5 ring [4,1,4,1,0,3,2,2,1,1,3,3], never yields the others.
    """
    if cert.verdict == "infeasible":
        return None
    n = cert.witness.n
    sites, anchor, e = _lift_graph(n)
    lo, hi = cert.lower.copy(), cert.upper.copy()
    every = np.arange(len(sites))
    for s in rng.permutation(len(sites)):
        v = lo[s] + (hi[s] - lo[s]) * rng.random()  # bounds may cross by roundoff
        reach = theta * _distance(anchor, e, s, every)
        np.maximum(lo, v - reach, out=lo)
        np.minimum(hi, v + reach, out=hi)
    point = SpinConfiguration(n, cert.witness.grid.copy())
    point.grid[sites[:, 0] + n + 1, sites[:, 1] + n + 1] = wrap_angle(lo)
    return point


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


def sample_state(pot: PairPotential, bc: BoundaryCondition, n: int,
                 sweeps: int, seed: int, init=None) -> StateReport:
    """Run one chain and accumulate the per-site magnetization <e^{i phi}>."""
    acc = np.zeros((2 * n + 1, 2 * n + 1), dtype=complex)
    violations = [0]

    def collect(cfg, stencil):  # once per recorded sweep
        acc[:, :] += np.exp(1j * cfg.interior())
        if not stencil.finite:  # a finite sweep state has no violation
            violations[0] += hardcore_violations(cfg, pot, bc)

    obs = {
        "cos0": cos_at((0, 0)),
        "sin0": lambda cfg: math.sin(cfg.at((0, 0))),
        "cos01": cos_at((0, 1)),
        "sin01": lambda cfg: math.sin(cfg.at((0, 1))),
    }
    stats = run_chain(pot, bc, n, sweeps, seed, observables=obs, init=init,
                      callback=collect)
    return StateReport(stats, acc / sweeps, n, violations[0])


@dataclass
class AizenmanReport:
    state: StateReport
    covariance_gap: float
    covariance_error: float

    def origin_modulus(self) -> float:
        return self.state.origin_modulus()

    @property
    def covariance_ok(self) -> bool:
        return self.covariance_gap <= 3 * self.covariance_error


def _covariance_check(stats: ChainStats, sigma: int, theta: float):
    traces = stats.traces
    rot = np.exp(1j * sigma * theta)
    diff = (traces["cos01"] + 1j * traces["sin01"]) \
        - rot * (traces["cos0"] + 1j * traces["sin0"])
    # Error bar propagated from the two site estimates in quadrature.  The
    # rigid block wiggles collectively, so per-site errors dominate the
    # (much smaller) error of the difference trace; using them is the
    # conservative propagation for comparing the two published means.
    errs = [stats.errors[name][1] for name in ("cos0", "sin0", "cos01", "sin01")]
    return abs(complex(diff.mean())), math.sqrt(sum(e * e for e in errs))


def aizenman_state(k: int, delta: float, sigma: int, n: int, sweeps: int,
                   seed: int) -> AizenmanReport:
    """Sample the smeared staircase state of the hard-core cosine model.

    The boundary ring is sampled together with the interior, each boundary
    site constrained to its arc of half-width delta around the staircase.
    This visits exactly the boundary draws whose conditional measure is
    nonzero; relative to the literal construction (boundary angles drawn
    uniformly from their arcs, infeasible draws carrying zero measure) it
    reweights feasible draws by their conditional partition function, which
    moves nothing outside the delta-tube around the staircase.

    The chain starts from the staircase itself when that breaks no bond of
    the hard core, and otherwise from the witness of the smeared state's
    certificate; RuntimeError when that certificate says infeasible.
    """
    theta = TWO_PI / k
    pot = aizenman(theta)
    bc = smeared_bc(k, delta, sigma)
    init = initial_configuration(bc, n, None)
    if hardcore_violations(init, pot, bc):
        init = feasibility(bc, theta, n).witness
        if init is None:
            raise RuntimeError(
                "no finite-energy configuration for this smeared staircase: "
                "the conditional measure is identically zero")
    report = sample_state(pot, bc, n, sweeps, seed, init=init)
    gap, err = _covariance_check(report.stats, sigma, theta)
    return AizenmanReport(report, gap, err)
