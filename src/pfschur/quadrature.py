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
converged doubling; `integrate`, `integrate2`, `integrate_bilinear` and
`integrate_n` are single-integral wrappers over it. `estimate_bilinear`
gives a whole matrix of double integrals at one node count and is the one
summation of every two-dimensional grid: `integrate2` and the last two
contours of `integrate_n` use it with unit columns. Two-dimensional grids
are evaluated in row blocks of at most `_CHUNK` elements.

All integrals are normalized by 1/(2*pi*i): `integrate(f, c)` approximates
(1/(2*pi*i)) oint_c f(z) dz.
"""

from dataclasses import dataclass

import numpy as np

MAX_NODES = 2 ** 15
MAX_NODES_2D = 2 ** 13
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


def _estimate1(f, contour, n):
    total = 0j
    for c in contour.circles:
        z, w = nodes_weights(c, n)
        total += np.sum(np.asarray(f(z)) * w)
    return total


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
    total = 0j
    for ca in c1.circles:
        z, wz = nodes_weights(ca, n1)
        Gz = gz(z) * wz.reshape(-1, 1)
        for cb in c2.circles:
            w, ww = nodes_weights(cb, n2)
            Gw = gw(w) * ww.reshape(-1, 1)
            rows = max(1, _CHUNK // max(1, n2))
            for start in range(0, n1, rows):
                zc = z[start:start + rows].reshape(-1, 1)
                C = np.broadcast_to(core(zc, w.reshape(1, -1)), (len(zc), n2))
                total = total + Gz[start:start + rows].T @ (C @ Gw)
    return total


def _unit(v):
    return np.ones((len(v), 1))


def _double(core, gz, gw, c1, c2, tol, max_nodes, full_output):
    """The doubling loop of `integrate2` and `integrate_bilinear`: the
    integral of core(z, w) * gz(z) * gw(w) as the one entry of
    `estimate_bilinear` with gz and gw as its columns."""
    n1, n2 = c1.nodes, c2.nodes
    return _single(
        lambda k: estimate_bilinear(core, gz, gw, c1, c2, n1 << k, n2 << k)[0, 0],
        max(n1, n2), max_nodes, tol, full_output, "double contour integral",
        lambda k: (n1 << k, n2 << k))


def integrate2(f, c1, c2, tol=1e-9, max_nodes=MAX_NODES_2D, full_output=False):
    """(1/2pi i)^2 double contour integral, tensor-product trapezoid rule.

    f receives node arrays shaped (N,1) and (1,M); broadcasting gives the
    value grid. Both node counts double jointly under one convergence test.
    """
    return _double(f, _unit, _unit, c1, c2, tol, max_nodes, full_output)


def integrate_bilinear(core, gz, gw, c1, c2, tol=1e-9, max_nodes=MAX_NODES_2D,
                       full_output=False):
    """integrate2 of core(z, w) * gz(z) * gw(w), with the same node sequence,
    convergence test and result info, estimated by `estimate_bilinear` with
    gz and gw as its one-column factors: the core is the only grid."""
    return _double(core, lambda z: np.reshape(gz(z), (-1, 1)),
                   lambda w: np.reshape(gw(w), (-1, 1)), c1, c2, tol,
                   max_nodes, full_output)


def integrate_n(f, contours, tol=1e-9, max_nodes=2 ** 10, full_output=False):
    """(1/2pi i)^d iterated integral over d contours, d >= 1.

    f takes d broadcast-ready arguments: nodes of the outer d - 2 contours
    one at a time, then the last two as arrays shaped (N,1) and (1,M) as in
    integrate2. Joint node doubling as in integrate2; intended for small d.
    """
    d = len(contours)
    if d == 1:
        return integrate(f, contours[0], tol=tol, max_nodes=max_nodes,
                         full_output=full_output)
    if d == 2:
        return integrate2(f, contours[0], contours[1], tol=tol,
                          max_nodes=max_nodes, full_output=full_output)

    def estimate(n):
        def rec(level, zs, wprod):
            if level == d - 2:
                return wprod * estimate_bilinear(
                    lambda a, b: f(*zs, a, b), _unit, _unit,
                    contours[-2], contours[-1], n, n)[0, 0]
            total = 0j
            for c in contours[level].circles:
                z, w = nodes_weights(c, n)
                for zk, wk in zip(z, w):
                    total += rec(level + 1, zs + [zk], wprod * wk)
            return total
        return rec(0, [], 1.0 + 0j)

    n = max(c.nodes for c in contours)
    return _single(lambda k: estimate(n << k), n, max_nodes, tol, full_output,
                   f"{d}-fold contour integral", lambda k: n << k)

