"""Bond percolation machinery: good crossings, short-crossing events and
sparseness certificates.

Open bonds of a sample form the "bad" set A.  A good crossing of a shell
rectangle is a d-path joining the two short sides whose d-bonds cross no bond
of A.  Counting site-disjoint good crossings is a unit-capacity max-flow
problem; circuits assembled from four crossings witness sparseness of A
around the origin.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import maximum_flow

from . import lattice
from .lattice import DualPath, ShellRectangle


def box_bonds(n: int) -> np.ndarray:
    """Nearest-neighbour bonds with both endpoints in the box of radius n, as
    an (m, 4) int32 array of endpoints x, y, x', y' in sorted order: sites
    lexicographically, the bond up before the bond to the right."""
    if n < 0:
        raise ValueError("box radius must be >= 0")
    # a column x < n lists, for y = -n..n, the bond up and then the bond to
    # the right, bar the bond up from y = n; the column x = n lists its bonds
    # up alone.  Each endpoint field is written into the table in place.
    per = 4 * n + 1
    slot = np.arange(per, dtype=np.int32)
    right = (slot % 2 == 1) | (slot == per - 1)
    y = slot // 2 - n
    table = np.empty((2 * n * per + 2 * n, 4), dtype=np.int32)
    head = table[:2 * n * per].reshape(2 * n, per, 4)
    head[..., 0] = head[..., 2] = np.arange(-n, n, dtype=np.int32)[:, None]
    head[..., 1] = y
    head[..., 2] += right
    head[..., 3] = y + ~right
    tail = table[2 * n * per:]
    tail[:, 0] = tail[:, 2] = n
    tail[:, 1] = np.arange(-n, n, dtype=np.int32)
    tail[:, 3] = tail[:, 1] + 1
    return table


@dataclass
class BondProcessSample:
    bonds: set


def sample_bernoulli(eps: float, domain: np.ndarray, seed: int) -> BondProcessSample:
    """Independent bond process: each bond of the domain open with density eps.

    The domain is an (m, 4) array of bond endpoints, as `box_bonds` gives it.
    The seed's stream gives one uniform per row, in row order, and bond i is
    open when the i-th is below eps.  The sample of a seed thus depends on
    that order; `box_bonds` lists its bonds sorted.  The open bonds come back
    as canonical `((x, y), (x', y'))` tuples.
    """
    if not 0 <= eps < 1:
        raise ValueError("density must be in [0, 1)")
    u = np.random.default_rng(seed).random(len(domain))
    return BondProcessSample({lattice.canonical_bond((x, y), (x1, y1))
                              for x, y, x1, y1 in domain[u < eps].tolist()})


@dataclass
class CrossingSet:
    rect: ShellRectangle
    paths: list[DualPath]

    @property
    def count(self) -> int:
        return len(self.paths)

    def short_paths(self, alpha: float) -> list[DualPath]:
        limit = 2 ** (self.rect.l + 3) / alpha
        return [p for p in self.paths if len(p) < limit]


def _rect_sides(rect: ShellRectangle):
    """d-sites of the two short sides, crossing direction along the long axis."""
    (a0, a1) = rect.dsite_x_range
    (b0, b1) = rect.dsite_y_range
    if rect.long_axis == "x":
        src = [(a0, b) for b in range(b0, b1 + 1)]
        snk = [(a1, b) for b in range(b0, b1 + 1)]
    else:
        src = [(a, b0) for a in range(a0, a1 + 1)]
        snk = [(a, b1) for a in range(a0, a1 + 1)]
    return src, snk


def _allowed_dbonds(rect: ShellRectangle, a_bonds):
    """d-bonds inside the rectangle whose crossed primal bond is not in A."""
    (a0, a1) = rect.dsite_x_range
    (b0, b1) = rect.dsite_y_range
    out = []
    for a in range(a0, a1 + 1):
        for b in range(b0, b1 + 1):
            for q in ((a + 1, b), (a, b + 1)):
                if q[0] > a1 or q[1] > b1:
                    continue
                db = ((a, b), q)
                if lattice.crossed_bond(db) not in a_bonds:
                    out.append(db)
    return out


def disjoint_good_crossings(rect: ShellRectangle, a_bonds) -> CrossingSet:
    """Maximum family of d-site-disjoint good crossings, via max-flow.

    Node splitting gives site-disjoint paths directly, so the count needs no
    halving correction; it is a min vertex cut by the max-flow/min-cut
    theorem.
    """
    dsites = rect.dsites()
    index = {p: i for i, p in enumerate(dsites)}
    src_side, snk_side = _rect_sides(rect)
    # node ids: 0 source, 1 sink, d-site i splits into in=2i+2, out=2i+3
    rows, cols = [], []

    def add(u, v):
        rows.append(u)
        cols.append(v)

    for i in range(len(dsites)):
        add(2 * i + 2, 2 * i + 3)
    for p, q in _allowed_dbonds(rect, a_bonds):
        i, j = index[p], index[q]
        add(2 * i + 3, 2 * j + 2)
        add(2 * j + 3, 2 * i + 2)
    for p in src_side:
        add(0, 2 * index[p] + 2)
    for p in snk_side:
        add(2 * index[p] + 3, 1)
    n_nodes = 2 * len(dsites) + 2
    graph = csr_matrix((np.ones(len(rows), dtype=np.int32), (rows, cols)),
                       shape=(n_nodes, n_nodes))
    res = maximum_flow(graph, 0, 1)

    # decompose the integral flow into site-disjoint paths
    flow = res.flow.tocsr()
    succ = {}
    fc = flow.tocoo()
    for u, v, f in zip(fc.row, fc.col, fc.data):
        if f > 0:
            succ.setdefault(int(u), []).append(int(v))
    paths = []
    for _ in range(res.flow_value):
        node = succ[0].pop()
        trace = []
        while node != 1:
            if node % 2 == 0:  # in-node: record the d-site
                trace.append(dsites[(node - 2) // 2])
            node = succ[node].pop()
        paths.append(DualPath(trace))
    out = CrossingSet(rect, paths)
    _validate_crossings(out, a_bonds)
    return out


def _validate_crossings(cs: CrossingSet, a_bonds):
    src_side, snk_side = _rect_sides(cs.rect)
    src_set, snk_set = set(src_side), set(snk_side)
    used = set()
    for p in cs.paths:
        ends = {p.dsites[0], p.dsites[-1]}
        if not (ends & src_set and ends & snk_set):
            raise AssertionError("crossing does not join the short sides")
        if not p.avoids(a_bonds):
            raise AssertionError("crossing meets a bond of A")
        sites = set(p.dsites)
        if sites & used:
            raise AssertionError("crossings share a d-site")
        if not sites <= set(cs.rect.dsites()):
            raise AssertionError("crossing leaves the rectangle")
        used |= sites


@dataclass
class ShortCrossingEvent:
    crossings: dict  # orientation -> CrossingSet
    short_counts: dict
    threshold: float

    @property
    def per_rectangle(self) -> dict:
        return {o: c >= self.threshold for o, c in self.short_counts.items()}

    @property
    def holds(self) -> bool:
        return all(self.per_rectangle.values())


def short_crossing_event(a_bonds, k: int, alpha: float) -> ShortCrossingEvent:
    """Tests, per rectangle of shell k, for at least alpha*2^(k-2) disjoint
    good crossings of length below 2^(k+3)/alpha; the event is their
    conjunction over N, E, S, W.

    The short crossings are counted in one maximum family of disjoint
    crossings, the one the flow decomposition returns; another maximum
    family could hold more short ones.  So `holds` is proved by the
    crossings it lists, while a failure is a failure of that family only:
    the paper's event may still hold.
    """
    if k < 2:
        raise ValueError("shell scale must be >= 2")
    if not 0 < alpha < 0.5:
        raise ValueError("shortness parameter must be in (0, 1/2)")
    rects = lattice.shell_rectangles(k)
    crossings = {o: disjoint_good_crossings(r, a_bonds) for o, r in rects.items()}
    shorts = {o: len(c.short_paths(alpha)) for o, c in crossings.items()}
    return ShortCrossingEvent(crossings, shorts, alpha * 2 ** (k - 2))


@dataclass
class SparsenessCertificate:
    circuits: list  # (scale, DualPath) pairs, innermost first
    value: float
    threshold: float

    @property
    def verdict(self) -> bool:
        return self.value >= self.threshold


def derive_tau(alpha: float, rho: float) -> float:
    """Each scale with the event contributes at least alpha^2/128 to the sum
    of inverse circuit lengths, and at least (1-rho)/2 of the log2(n) scales
    must work out, which gives the stated density per ln n."""
    return alpha * alpha * (1 - rho) / (256 * math.log(2))


def sparseness_certificate(a_bonds, n: int, rho: float, alpha: float,
                           early_stop: bool = False) -> SparsenessCertificate:
    """Disjoint d-circuits around the origin avoiding A, one family per dyadic
    scale in [rho*log2 n, log2 n], with value sum of 1/|circuit|.

    A true verdict is proved by the circuits listed.  A false one is not a
    proof that no such circuits exist: a scale counts only where
    `short_crossing_event` holds on its one family of crossings.
    """
    if n < 4:
        raise ValueError("box too small")
    if not 0 < rho < 1:
        raise ValueError("rho must be in (0, 1)")
    k_lo = max(2, math.ceil(rho * math.log2(n)))
    k_hi = math.floor(math.log2(n))
    threshold = derive_tau(alpha, rho) * math.log(n)
    circuits = []
    used_sites = set()
    value = 0.0
    for k in range(k_lo, k_hi + 1):
        event = short_crossing_event(a_bonds, k, alpha)
        if not event.holds:
            continue
        # innermost crossings first so nested quadruples stay disjoint
        def inner_key(p):
            return (min(map(lattice.sup_norm, p.dsites)), p.dsites)

        per_rect = [sorted(event.crossings[o].short_paths(alpha), key=inner_key)
                    for o in "NESW"]
        for group in zip(*per_rect):
            try:
                circ = lattice.circuit_from_crossings(*group, radius=2 ** k + 2)
            except ValueError:
                continue
            sites = set(circ.dsites[:-1])
            if sites & used_sites or not circ.avoids(a_bonds):
                continue
            used_sites |= sites
            circuits.append((k, circ))
            value += 1.0 / len(circ)
        if early_stop and value >= threshold:
            break
    return SparsenessCertificate(circuits, value, threshold)


def wilson_interval(failures: int, samples: int):
    """95% Wilson score interval for a binomial frequency."""
    z = 1.96
    if samples < 1:
        raise ValueError("need at least one sample")
    p = failures / samples
    denom = 1 + z * z / samples
    center = (p + z * z / (2 * samples)) / denom
    half = z * math.sqrt(p * (1 - p) / samples + z * z / (4 * samples ** 2)) / denom
    return max(0.0, center - half), min(1.0, center + half)


@dataclass
class FailureEstimate:
    samples: int
    failures: int
    interval: tuple

    @property
    def frequency(self) -> float:
        return self.failures / self.samples


def estimate_sparseness_failure(eps: float, n: int, samples: int, alpha: float,
                                rho: float, seed: int) -> FailureEstimate:
    """Monte Carlo frequency of the sparseness verdict failing under the
    independent bond process, with a Wilson interval.

    A verdict fails wherever the paper's event fails, and possibly where
    the event holds but the one family of crossings examined does not show
    it (`short_crossing_event`).  So the frequency estimates the verdict's
    failure probability, which bounds the paper's from above.
    """
    domain = box_bonds(n)
    child_seeds = np.random.SeedSequence(seed).spawn(samples)
    failures = 0
    for cs in child_seeds:
        sample_seed = int(cs.generate_state(1)[0])
        a = sample_bernoulli(eps, domain, sample_seed).bonds
        cert = sparseness_certificate(a, n, rho, alpha, early_stop=True)
        if not cert.verdict:
            failures += 1
    return FailureEstimate(samples, failures, wilson_interval(failures, samples))
