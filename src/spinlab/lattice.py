"""Square-lattice geometry: boxes, layers, dyadic shells, the dual lattice.

Sites are integer pairs ``(x1, x2)``.  Dual sites ("d-sites") are encoded as
integer pairs ``(a, b)`` standing for the half-integer point
``(a + 1/2, b + 1/2)``.  A d-bond between two adjacent d-sites crosses exactly
one primal bond; :func:`crossed_bond` is the crossing map.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.fft import irfftn, next_fast_len, rfftn

Site = tuple[int, int]
Bond = tuple[Site, Site]
DSite = tuple[int, int]
DBond = tuple[DSite, DSite]


def sup_norm(x: Site) -> int:
    return max(abs(x[0]), abs(x[1]))


def sup_grid(m: int) -> np.ndarray:
    """sup_norm of every site of the box of radius m, index [x1 + m, x2 + m]."""
    ax = np.abs(np.arange(-m, m + 1))
    return np.maximum.outer(ax, ax)


class KernelConvolution:
    """v -> scipy.signal.fftconvolve(v, kernel, mode="same") for real arrays v
    of one shape, with the kernel transformed once.  Each call takes the same
    steps as fftconvolve (the `next_fast_len` padding, `rfftn` over the axes
    where neither array has length 1, the product in the same order,
    `irfftn` and the centred slice), so the result is equal bit for bit.

    The instance keeps one input buffer of the padded transform shape.  It
    is zero outside `input`, its corner of shape `shape`, and `input` holds
    what the last call left there: a call copies v into it unless v is
    `input` itself, so a caller may fill `input` in place and pass it.  The
    product with the kernel's transform is formed in place.  The result is a
    view into the inverse transform of that call, an array `irfftn` makes
    afresh each time, so a later call leaves it alone."""

    def __init__(self, kernel: np.ndarray, shape):
        self._kernel = np.asarray(kernel, dtype=float)
        full = [s + k - 1 for s, k in zip(shape, self._kernel.shape)]
        self._axes = [a for a, (s, k) in enumerate(zip(shape, self._kernel.shape))
                      if s != 1 and k != 1]
        self._fshape = [next_fast_len(full[a], True) for a in self._axes]
        padded = list(shape)
        for a, f in zip(self._axes, self._fshape):
            padded[a] = f
        if self._axes:
            self._transform = rfftn(self._kernel, self._fshape, axes=self._axes)
        self._padded = np.zeros(padded)
        self.input = self._padded[tuple(slice(0, s) for s in shape)]
        self._centre = tuple(slice((f - s) // 2, (f - s) // 2 + s)
                             for f, s in zip(full, shape))

    def __call__(self, v: np.ndarray) -> np.ndarray:
        if v is not self.input:
            self.input[...] = v
        if not self._axes:  # nothing to transform: a broadcast product
            return (self.input * self._kernel)[self._centre]
        f = rfftn(self._padded, axes=self._axes)
        if f.shape == np.broadcast_shapes(f.shape, self._transform.shape):
            f *= self._transform
        else:  # the kernel is wider along an axis that is not transformed
            f = f * self._transform
        out = irfftn(f, self._fshape, axes=self._axes, overwrite_x=True)
        return out[self._centre]


def canonical_bond(u: Site, v: Site) -> Bond:
    return (u, v) if u <= v else (v, u)


def layer_sites(k: int) -> list[Site]:
    """Sites with sup-norm exactly k, counterclockwise from (k, -k+1).

    The order is canonical: east edge bottom-to-top, then north edge
    right-to-left, west edge top-to-bottom, south edge left-to-right.
    """
    if k < 0:
        raise ValueError("layer index must be >= 0")
    if k == 0:
        return [(0, 0)]
    east = [(k, y) for y in range(-k + 1, k + 1)]
    north = [(x, k) for x in range(k - 1, -k - 1, -1)]
    west = [(-k, y) for y in range(k - 1, -k - 1, -1)]
    south = [(x, -k) for x in range(-k + 1, k + 1)]
    return east + north + west + south


def interlayer_bonds(k: int) -> list[Bond]:
    """Nearest-neighbour bonds with one end in layer k, the other in layer k+1.

    There are 4 of them for k = 0 and 8k + 4 for k >= 1.
    """
    inner = set(layer_sites(k))
    bonds = []
    for x in layer_sites(k + 1):
        for d in ((1, 0), (-1, 0), (0, 1), (0, -1)):
            y = (x[0] + d[0], x[1] + d[1])
            if y in inner:
                bonds.append(canonical_bond(y, x))
    bonds.sort()
    return bonds


@dataclass(frozen=True)
class ShellRectangle:
    """One of the four rectangles of a dyadic shell.

    The northern rectangle at scale l is [-2^l, 2^l] x [2^(l-1)+1, 2^l];
    E/S/W are its clockwise rotations by pi/2, pi, 3pi/2 about the origin.
    Rectangles of the same scale overlap in the four corner squares, which is
    what lets their crossings hook up into a circuit; shells of different
    scales are disjoint.
    """

    l: int
    orientation: str  # one of "N", "E", "S", "W"
    x_range: tuple[int, int]  # inclusive
    y_range: tuple[int, int]  # inclusive

    # d-sites (a, b) whose point (a+1/2, b+1/2) lies inside the rectangle hull
    @property
    def dsite_x_range(self) -> tuple[int, int]:
        return (self.x_range[0], self.x_range[1] - 1)

    @property
    def dsite_y_range(self) -> tuple[int, int]:
        return (self.y_range[0], self.y_range[1] - 1)

    def dsites(self) -> list[DSite]:
        (a0, a1) = self.dsite_x_range
        (b0, b1) = self.dsite_y_range
        return [(a, b) for a in range(a0, a1 + 1) for b in range(b0, b1 + 1)]

    @property
    def long_axis(self) -> str:
        """'x' if the short sides are the vertical edges, else 'y'."""
        wx = self.x_range[1] - self.x_range[0]
        wy = self.y_range[1] - self.y_range[0]
        return "x" if wx >= wy else "y"


def _rotate_cw(x: Site) -> Site:
    # clockwise rotation by pi/2 about the origin
    return (x[1], -x[0])


def shell_rectangles(l: int) -> dict[str, ShellRectangle]:
    """The four rectangles R_N, R_E, R_S, R_W of the l-th shell, l >= 2."""
    if l < 2:
        raise ValueError("shell scale must be >= 2")
    m = 2 ** l
    h = 2 ** (l - 1) + 1
    # N = [-m, m] x [h, m]; E/S/W by repeated clockwise rotation
    corners = [(-m, h), (m, m)]
    rects = {}
    pts = corners
    for orient in ("N", "E", "S", "W"):
        xs = sorted(p[0] for p in pts)
        ys = sorted(p[1] for p in pts)
        rects[orient] = ShellRectangle(l, orient, (xs[0], xs[1]), (ys[0], ys[1]))
        pts = [_rotate_cw(p) for p in pts]
    return rects


def crossed_bond(dbond: DBond) -> Bond:
    """The unique primal bond crossed by a d-bond.

    Horizontal d-bond {(a,b), (a+1,b)} crosses the vertical primal bond
    {(a+1, b), (a+1, b+1)}; vertical d-bond {(a,b), (a,b+1)} crosses the
    horizontal primal bond {(a, b+1), (a+1, b+1)}.
    """
    (p, q) = sorted(dbond)
    if q == (p[0] + 1, p[1]):
        return canonical_bond((p[0] + 1, p[1]), (p[0] + 1, p[1] + 1))
    if q == (p[0], p[1] + 1):
        return canonical_bond((p[0], p[1] + 1), (p[0] + 1, p[1] + 1))
    raise ValueError(f"not a d-bond: {dbond}")


def canonical_dbond(p: DSite, q: DSite) -> DBond:
    return (p, q) if p <= q else (q, p)


@dataclass
class DualPath:
    """An ordered d-path given by its d-site sequence.

    Consecutive d-sites are adjacent; the d-bonds are pairwise distinct.  A
    loop repeats the first d-site at the end.
    """

    dsites: list[DSite]
    _bonds: list[DBond] = field(default=None, repr=False)  # type: ignore[assignment]

    def __post_init__(self):
        for p, q in zip(self.dsites, self.dsites[1:]):
            if abs(p[0] - q[0]) + abs(p[1] - q[1]) != 1:
                raise ValueError(f"d-sites {p}, {q} not adjacent")
        bonds = [canonical_dbond(p, q) for p, q in zip(self.dsites, self.dsites[1:])]
        if len(set(bonds)) != len(bonds):
            raise ValueError("d-bonds not pairwise distinct")
        self._bonds = bonds

    def __len__(self) -> int:
        return len(self._bonds)

    @property
    def bonds(self) -> list[DBond]:
        return list(self._bonds)

    @property
    def is_loop(self) -> bool:
        return len(self.dsites) > 1 and self.dsites[0] == self.dsites[-1]

    def crossed_bonds(self) -> list[Bond]:
        return [crossed_bond(b) for b in self._bonds]

    def avoids(self, bonds: set[Bond]) -> bool:
        return not any(b in bonds for b in self.crossed_bonds())

    def winding_number(self) -> int:
        """Winding number of the loop around the origin.

        d-site (a, b) sits at (a + 1/2, b + 1/2), so the path never passes
        through the origin and a crossing count on the ray {y = 0, x > 0} is
        exact.
        """
        if not self.is_loop:
            raise ValueError("winding number is defined for loops only")
        w = 0
        for (a0, b0), (a1, b1) in zip(self.dsites, self.dsites[1:]):
            if a0 == a1 and a0 >= 0:  # vertical step at x = a0 + 1/2 > 0
                if b0 == -1 and b1 == 0:
                    w += 1
                elif b0 == 0 and b1 == -1:
                    w -= 1
        return w


def dbonds_to_blocked(dbonds) -> set[Bond]:
    """Primal bonds crossed by a collection of d-bonds."""
    return {crossed_bond(b) for b in dbonds}


# marching-squares step rules for tracing the boundary of a site component
# counterclockwise with the component kept on the left.  At corner (a, b) the
# four surrounding cells are LL=(a,b), LR=(a+1,b), UL=(a,b+1), UR=(a+1,b+1).
def _valid_steps(corner: DSite, inside) -> list[tuple[int, int]]:
    a, b = corner
    ll, lr = inside((a, b)), inside((a + 1, b))
    ul, ur = inside((a, b + 1)), inside((a + 1, b + 1))
    steps = []
    if ul and not ur:
        steps.append((0, 1))
    if lr and not ll:
        steps.append((0, -1))
    if ur and not lr:
        steps.append((1, 0))
    if ll and not ul:
        steps.append((-1, 0))
    return steps


def component_boundary(component: set[Site]) -> DualPath:
    """Outer boundary of a finite 4-connected site set, as a CCW d-circuit.

    At saddle corners (two diagonal cells inside) the trace turns left, which
    treats the component as 4-connected.
    """
    if not component:
        raise ValueError("empty component")
    inside = component.__contains__
    # start at the right-top corner of the topmost (then rightmost) site,
    # heading left along its top edge
    sx, sy = max(component, key=lambda s: (s[1], s[0]))
    start: DSite = (sx, sy)
    d = (-1, 0)
    if d not in _valid_steps(start, inside):
        raise ValueError("bad starting corner; component not as expected")
    pos, trace = start, [start]
    while True:
        pos = (pos[0] + d[0], pos[1] + d[1])
        trace.append(pos)
        if pos == start:
            break
        steps = _valid_steps(pos, inside)
        back = (-d[0], -d[1])
        forward = [s for s in steps if s != back]
        if len(forward) == 1:
            d = forward[0]
        elif len(forward) > 1:
            # saddle: turn left, which keeps the component 4-connected
            left = (-d[1], d[0])
            if left not in forward:
                raise ValueError("inconsistent saddle in boundary trace")
            d = left
        else:
            raise ValueError("dead end in boundary trace")
    return DualPath(trace)


def origin_component(blocked: set[Bond], radius: int) -> set[Site]:
    """4-connected component of the origin using bonds not in `blocked`.

    The search is confined to the box of the given radius; reaching its edge
    raises, signalling that `blocked` does not enclose the origin.
    """
    seen = {(0, 0)}
    stack: list[Site] = [(0, 0)]
    while stack:
        u = stack.pop()
        for d in ((1, 0), (-1, 0), (0, 1), (0, -1)):
            v = (u[0] + d[0], u[1] + d[1])
            if v in seen or canonical_bond(u, v) in blocked:
                continue
            if sup_norm(v) > radius:
                raise ValueError("origin component reaches the search boundary; "
                                 "crossings do not enclose the origin")
            seen.add(v)
            stack.append(v)
    return seen


def circuit_from_crossings(lam_n: DualPath, lam_e: DualPath,
                           lam_s: DualPath, lam_w: DualPath,
                           radius: int) -> DualPath:
    """d-circuit made of the d-bonds of four crossings seen from the origin.

    Implemented as the boundary of the connected component of the origin in
    the complement of the union of the crossings: the union's d-bonds block
    the primal bonds they cross, the origin component is traced, and its outer
    boundary is returned.  Every boundary d-bond belongs to one of the inputs.
    """
    union_dbonds: set[DBond] = set()
    for lam in (lam_n, lam_e, lam_s, lam_w):
        union_dbonds.update(lam.bonds)
    blocked = dbonds_to_blocked(union_dbonds)
    comp = origin_component(blocked, radius)
    circuit = component_boundary(comp)
    extraneous = [b for b in circuit.bonds if b not in union_dbonds]
    if extraneous:
        raise ValueError(f"boundary uses d-bonds outside the crossings: {extraneous[:3]}")
    if circuit.winding_number() != 1:
        raise ValueError("extracted boundary does not wind once around the origin")
    return circuit
