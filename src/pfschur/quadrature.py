"""Contour integrals over unions of oriented circles.

The trapezoidal rule on a circle is spectrally accurate for integrands
analytic in a neighborhood of the contour, so convergence is controlled by
node doubling: the node count doubles until two successive estimates agree.
Integrands are called on numpy arrays of nodes (elementwise expressions
written with +,*,/ and ** broadcast transparently); `integrate2` hands the
two node sets shaped (N,1) and (1,M) so a product-form integrand evaluates
as an outer product without building meshes by hand.

One function, `converge`, runs the doubling loop for any number of
integrals sharing a node sequence, accepting each at its own first
converged doubling; `integrate`, `integrate2`, `integrate_n` and
`integrate_product` are single-integral wrappers over it. Each contour's
nodes and weights are one vector concatenated over its circles.
`estimate_bilinear` gives a whole matrix of double integrals at one node
count and is the one summation of every two-dimensional grid. Every
integral over d >= 2 contours runs one outer-node loop over the first
d - 2 contours and sums the last two through it: `integrate2` and
`integrate_n` with unit columns and their integrand as the grid,
`integrate_product` (a product of one-variable and pairwise factors) with
the pairwise factors of the outer variables folded into the columns, so
the last pairwise factor is the only grid. Two-dimensional grids are
evaluated in row blocks of at most `_CHUNK` elements.

All integrals are normalized by 1/(2*pi*i): `integrate(f, c)` approximates
(1/(2*pi*i)) oint_c f(z) dz.
"""

import math
from dataclasses import dataclass
from itertools import product

import numpy as np

# node caps per circle for one, two and three or more contours
MAX_NODES = 2 ** 15
MAX_NODES_2D = 2 ** 13
MAX_NODES_ND = 2 ** 10
# Elements per evaluation block in 2-D (at least one row per block). A
# complex block of 2**12 elements is 64 KiB, under glibc's 128 KiB mmap
# threshold, so its temporaries are reused from the heap instead of being
# mapped and unmapped, with page faults, on every block.
_CHUNK = 2 ** 12


class QuadratureError(RuntimeError):
    """Node doubling hit the cap without meeting tolerance. Carries the last
    two estimates for diagnosis."""

    def __init__(self, message, estimates):
        super().__init__(message)
        self.estimates = estimates


@dataclass(frozen=True)
class Circle:
    center: complex = 0j
    radius: float = 1.0
    orientation: int = 1  # +1 counterclockwise, -1 clockwise

    def __post_init__(self):
        if self.radius <= 0:
            raise ValueError("circle radius must be positive")
        if self.orientation not in (1, -1):
            raise ValueError("orientation must be +1 or -1")


@dataclass(frozen=True)
class ContourSpec:
    circles: tuple
    nodes: int = 64  # starting nodes per circle; power of two >= 8

    def __post_init__(self):
        circles = tuple(self.circles)
        if not circles:
            raise ValueError("a contour needs at least one circle")
        object.__setattr__(self, "circles", circles)
        n = self.nodes
        if n < 8 or (n & (n - 1)) != 0:
            raise ValueError("nodes per circle must be a power of two >= 8")

    def reversed(self):
        return ContourSpec(tuple(Circle(c.center, c.radius, -c.orientation)
                                 for c in self.circles), self.nodes)


def circle(radius=1.0, center=0j, orientation=1, nodes=64):
    """Single origin-or-offset circle as a ContourSpec."""
    return ContourSpec((Circle(complex(center), float(radius), orientation),), nodes)


def circles_around(points, radius, orientation=1, nodes=64):
    """Union of same-radius circles centered at the given points."""
    return ContourSpec(tuple(Circle(complex(p), float(radius), orientation)
                             for p in points), nodes)


def nodes_weights(c: Circle, n):
    """The n trapezoid nodes of one circle and their weights."""
    theta = 2 * np.pi * np.arange(n) / n
    z = c.center + c.radius * np.exp(1j * theta)
    # (1/2pi i) oint f dz = (1/n) sum f(z_k) (z_k - center), signed by orientation
    w = c.orientation * (z - c.center) / n
    return z, w


def _nodes(contour, n):
    """The n trapezoid nodes of every circle of a contour, and their
    weights, each as one vector concatenated over the circles."""
    zw = [nodes_weights(c, n) for c in contour.circles]
    return np.concatenate([z for z, _ in zw]), np.concatenate([w for _, w in zw])


def _estimate1(f, contour, n):
    z, w = _nodes(contour, n)
    return np.sum(np.asarray(f(z)) * w)


def _converged(new, old, tol):
    return abs(new - old) < tol * max(1.0, abs(new))


def converge(estimate, size, n, max_nodes, tol, failure):
    """The node-doubling loop behind every integral in the package.

    `size` integrals share one node sequence: n nodes per circle, doubled
    while the count stays within max_nodes. estimate(k, live) returns the
    `size` estimates at n * 2**k nodes; only the entries whose indices are
    in the set `live` are read, so an estimator may skip work that serves no
    live entry. Each entry is accepted at the first doubling where it passes
    `_converged` against its own previous estimate, and then leaves `live`.
    Returns lists of the accepted estimates, the doubling k at which each
    was accepted, and its last-doubling delta. If an entry is still live at
    the cap, QuadratureError carries failure(index, k) as its message and
    the last two estimates of the first such entry.
    """
    value, step, delta = [0j] * size, [0] * size, [0.0] * size
    live = set(range(size))
    prev = old = estimate(0, live)
    k = 0
    while live and n << (k + 1) <= max_nodes:
        k += 1
        new = estimate(k, live)
        for i in sorted(live):
            if _converged(new[i], old[i], tol):
                value[i], step[i], delta[i] = new[i], k, abs(new[i] - old[i])
                live.remove(i)
        old, prev = new, old
    if live:
        i = min(live)
        raise QuadratureError(failure(i, k), (prev[i], old[i]))
    return value, step, delta


def _single(estimate, n, max_nodes, tol, full_output, what, nodes):
    """One integral through `converge`; nodes(k) is the node count reported
    for acceptance at doubling k."""
    value, step, delta = converge(
        lambda k, live: [estimate(k)], 1, n, max_nodes, tol,
        lambda i, k: f"{what} did not converge at {n << k} nodes/circle")
    if full_output:
        return value[0], {"nodes": nodes(step[0]), "last_delta": delta[0]}
    return value[0]


def integrate(f, contour, tol=1e-9, max_nodes=MAX_NODES, full_output=False):
    """(1/2pi i) oint f(z) dz over a union of oriented circles.

    Doubles the per-circle node count until successive estimates differ by
    less than tol (relative when the magnitude exceeds 1, absolute below).
    """
    n = contour.nodes
    return _single(lambda k: _estimate1(f, contour, n << k), n, max_nodes,
                   tol, full_output, "contour integral", lambda k: n << k)


def estimate_bilinear(core, gz, gw, c1, c2, n1, n2):
    """Tensor-product trapezoid estimates of a whole matrix of double
    integrals at one node count.

    Entry (p, q) estimates (1/2pi i)^2 oint oint gz(z)[p] core(z, w) gw(w)[q]
    dz dw: gz and gw map a node vector to a (nodes, columns) matrix, core
    receives node arrays shaped (N,1) and (1,M), and its value is broadcast
    to the full grid, so a core of z alone may return shape (N,1). The sum is
    G_z^T (W C W) G_w, with the core grid evaluated in row blocks of at most
    _CHUNK elements (at least one row).
    """
    z, wz = _nodes(c1, n1)
    w, ww = _nodes(c2, n2)
    Gz = gz(z) * wz.reshape(-1, 1)
    Gw = gw(w) * ww.reshape(-1, 1)
    rows = max(1, _CHUNK // len(w))
    total = 0j
    for start in range(0, len(z), rows):
        zc = z[start:start + rows].reshape(-1, 1)
        C = np.broadcast_to(core(zc, w.reshape(1, -1)), (len(zc), len(w)))
        total = total + Gz[start:start + rows].T @ (C @ Gw)
    return total


def _unit(v):
    return np.ones((len(v), 1))


def _outer(contours, ns):
    """The outer-node loop: every tuple of nodes of the contours, contour j
    at ns[j] nodes per circle, with the product of their weights. With no
    contours it is one empty tuple of weight 1."""
    grids = [_nodes(c, n) for c, n in zip(contours, ns)]
    for idx in product(*(range(len(z)) for z, _ in grids)):
        yield ([z[i] for (z, _), i in zip(grids, idx)],
               math.prod(w[i] for (_, w), i in zip(grids, idx)))


def _folded(term, contours, tol, max_nodes, full_output):
    """The doubling loop of every integral over d >= 2 contours.

    Each contour doubles from its own start. At each outer-node tuple zs of
    the first d - 2 contours, term(zs) returns (scale, core, gz, gw), and the
    estimate adds the tuple's weight times scale times the one entry of
    `estimate_bilinear` of core, gz and gw on the last two contours.
    """
    d, starts = len(contours), [c.nodes for c in contours]

    def estimate(k):
        ns = [s << k for s in starts]
        total = 0j
        for zs, weight in _outer(contours[:-2], ns[:-2]):
            scale, core, gz, gw = term(zs)
            total += weight * scale * estimate_bilinear(
                core, gz, gw, contours[-2], contours[-1], ns[-2], ns[-1])[0, 0]
        return total
    what = "double contour integral" if d == 2 else f"{d}-fold contour integral"
    return _single(estimate, max(starts), max_nodes, tol, full_output, what,
                   lambda k: tuple(s << k for s in starts))


def integrate2(f, c1, c2, tol=1e-9, max_nodes=MAX_NODES_2D, full_output=False):
    """(1/2pi i)^2 double contour integral, tensor-product trapezoid rule.

    f receives node arrays shaped (N,1) and (1,M); broadcasting gives the
    value grid. Both node counts double jointly under one convergence test.
    """
    return _folded(lambda zs: (1, f, _unit, _unit), [c1, c2], tol, max_nodes,
                   full_output)


def integrate_n(f, contours, tol=1e-9, max_nodes=MAX_NODES_ND, full_output=False):
    """(1/2pi i)^d iterated integral over d contours, d >= 1.

    f takes d broadcast-ready arguments: nodes of the outer d - 2 contours
    one at a time, then the last two as arrays shaped (N,1) and (1,M) as in
    integrate2. Joint node doubling as in integrate2; intended for small d.
    """
    if len(contours) == 1:
        return integrate(f, contours[0], tol=tol, max_nodes=max_nodes,
                         full_output=full_output)
    return _folded(lambda zs: (1, lambda a, b: f(*zs, a, b), _unit, _unit),
                   contours, tol, max_nodes, full_output)


def integrate_product(ones, pair, contours, tol=1e-9, max_nodes=None,
                      full_output=False):
    """(1/2pi i)^d oint...oint prod_j ones[j](z_j) prod_{j<k} pair(j, k, z_j, z_k)
    over d >= 1 contours, z_j on contours[j].

    At d = 1 this is `integrate`. At d >= 2 the outer d - 2 variables run
    over their nodes; their one-variable and mutual pair factors are a
    scalar per tuple, and their pair factors with the last two variables
    fold into those variables' columns, so pair(d - 2, d - 1) is the only
    grid `estimate_bilinear` evaluates. max_nodes defaults to the cap of the
    dimension: MAX_NODES, MAX_NODES_2D or MAX_NODES_ND.
    """
    d = len(contours)
    if max_nodes is None:
        max_nodes = (MAX_NODES, MAX_NODES_2D, MAX_NODES_ND)[min(d, 3) - 1]
    if d == 1:
        return integrate(ones[0], contours[0], tol=tol, max_nodes=max_nodes,
                         full_output=full_output)

    def term(zs):
        m = len(zs)

        def column(k):
            return lambda z: np.reshape(ones[k](z) * math.prod(
                pair(j, k, zs[j], z) for j in range(m)), (-1, 1))
        scale = math.prod(ones[j](zs[j]) * math.prod(
            pair(j, k, zs[j], zs[k]) for k in range(j + 1, m)) for j in range(m))
        return scale, lambda a, b: pair(m, m + 1, a, b), column(m), column(m + 1)
    return _folded(term, contours, tol, max_nodes, full_output)
