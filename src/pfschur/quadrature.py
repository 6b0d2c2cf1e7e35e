"""Contour integrals over unions of counterclockwise circles.

The trapezoidal rule on a circle is spectrally accurate for integrands
analytic in a neighborhood of the contour, so convergence is controlled by
node doubling: the node count doubles until two successive estimates agree.
Integrands are called on numpy arrays of nodes (elementwise expressions
written with +,*,/ and ** broadcast transparently); `integrate2` hands the
two node sets shaped (N,1) and (1,M) so a product-form integrand evaluates
as an outer product without building meshes by hand.

A circle's center and radius may also be arrays over a batch of draws, one
circle per draw. Its nodes then carry the batch as trailing axes, shape
(N,) + batch, so an integrand whose parameters are numbers or arrays over
the same batch broadcasts against them unchanged, and an integral returns
one estimate per draw. An integral's batch is the broadcast shape of all
its circles' centers and radii (`_batch`), taken once per integral; a plain
circle among batched ones, on the same contour or another, is the same
circle in every draw. The batch is evaluated whole at every pass;
`converge` accepts each draw at its own first converged doubling.

One function, `converge`, runs the doubling loop for any number of
integrals sharing a node sequence, accepting each at its own first
converged doubling, from the list of estimates that each pass of an
estimator returns, one per node count the pass serves. `integrate` and
`integrate_product`, and through them `integrate2` and `integrate_n` (one
or two contours, capped at MAX_NODES_ND), are single-integral wrappers over
it, through `_single`, which builds every pass's nodes and weights of all
the contours in one place, from `nodes_weights`, the one node generator of
the package (the kernel assembly takes its circles' nodes from it too).
The n trapezoid nodes of a circle are its 2n nodes [::2] bit for bit, and
their weights twice the 2n-node ones, so the first pass of every integral
evaluates 2n nodes per circle and serves both the n-node and the 2n-node
estimate, the former summed over each contour's even-indexed nodes (as
`kernels._Assembly` folds its passes); each later pass evaluates its nodes
afresh and serves one count. Every integral reports `grid_points`, the
integrand points of the passes it evaluated: per pass, circles times nodes
per contour, multiplied over the contours and the draws. Each contour's
nodes and weights are one vector concatenated over its circles. A contour
starts at `ContourSpec`'s count of nodes per circle, 64 unless asked for
another; `circle`, one circle about 0, always starts at 64, and the small
circles of `circles_around` start at 8 unless asked for another count.
`estimate_bilinear`, one double integral per column of two column matrices
on the nodes and weights of two contours, is the one summation of every
two-dimensional grid, so every integral over d >= 2 contours is one
bilinear sum per pass: `integrate_product` (one-variable and pairwise
factors) with each tuple of nodes of the outer d - 2 variables as a column
and the last pairwise factor as the only grid, `integrate2` its d = 2 case
with unit one-variable factors and its integrand as the pair. Grids are
evaluated in row blocks of `_CHUNK` elements.

All integrals are normalized by 1/(2*pi*i): `integrate(f, c)` approximates
(1/(2*pi*i)) oint_c f(z) dz.
"""

import functools
import math
from dataclasses import dataclass

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
# Elements per (nodes x tuples) column matrix of `integrate_product`. The
# outer-node tuples grow like the product of the outer node counts, so they
# are taken in column blocks: each column matrix and each temporary that
# builds it stays at 4 MiB complex however many tuples there are.
_COLUMNS = 2 ** 18


class QuadratureError(RuntimeError):
    """Node doubling hit the cap without meeting tolerance. Carries the last
    two estimates for diagnosis."""

    def __init__(self, message, estimates):
        super().__init__(message)
        self.estimates = estimates

    def naming(self, what):
        """The same failure with its message prefixed by `what` failed."""
        return QuadratureError(f"{what}: {self}", self.estimates)


@dataclass(frozen=True)
class Circle:
    center: complex = 0j  # a number, or an array over a batch of draws
    radius: float = 1.0   # likewise

    def __post_init__(self):
        positive = self.radius > 0
        if not (positive if isinstance(positive, bool) else positive.all()):
            raise ValueError("circle radius must be positive")


@dataclass(frozen=True)
class ContourSpec:
    circles: tuple
    nodes: int = 64  # starting nodes per circle; power of two >= 4

    def __post_init__(self):
        circles = tuple(self.circles)
        if not circles:
            raise ValueError("a contour needs at least one circle")
        object.__setattr__(self, "circles", circles)
        n = self.nodes
        if n < 4 or (n & (n - 1)) != 0:
            raise ValueError("nodes per circle must be a power of two >= 4")


def circle(radius):
    """One counterclockwise circle about 0 as a ContourSpec, from 64 nodes."""
    return ContourSpec((Circle(0j, float(radius)),))


def circles_around(points, radius, nodes=8):
    """Union of same-radius counterclockwise circles centered at the points,
    from `nodes` per circle; the points and radius may be arrays over a batch.

    The one-operator Macdonald contours built here sit at 1/256 of the safe
    radius around their poles (`macdonald.contour_radius`), so the
    trapezoid error falls like 256^-N: from 4 nodes, the 4-node estimate is
    within about 256^-4 = 2.3e-10 and `converge`, which doubles until two
    estimates agree, accepts at the first doubling, 4 -> 8, for tolerances
    down to 1e-9, both estimates from one 8-node pass. The iterated
    actions' circles, each level a sixteenth of the radius of the one
    before (`macdonald.choose_radii`) and within a sixteenth of the distance
    to their level's other centers, to 0 and to the unit circle
    (`macdonald._separated`), start at 8 nodes: the error falls like 16^-N,
    within about 16^-8 = 2.3e-10 at 8 nodes, and they accept at the first
    doubling, 8 -> 16, from one 16-node pass. A higher start only forces a
    final grid twice as fine as needed (4x the points in 2-D).
    """
    return ContourSpec(tuple(Circle(p, radius) for p in points), nodes)


def _batch(contours):
    """The batch shape of the contours' circles: () for plain circles."""
    return np.broadcast_shapes(*(np.shape(v) for c in contours for circ in c.circles
                                 for v in (circ.center, circ.radius)))


@functools.lru_cache(maxsize=32)
def _roots_of_unity(n):
    """exp(2 pi i k/n) for k < n, computed once per n and read-only."""
    theta = 2 * np.pi * np.arange(n) / n
    unit = np.exp(1j * theta)
    unit.flags.writeable = False
    return unit


def nodes_weights(contour, n, batch):
    """The n trapezoid nodes of every circle of a contour and their weights,
    each one vector over the circles, shape (circles * n,) + batch.

    The one node generator of the package. batch is the integral's batch
    shape (`_batch`), to which every circle's center and radius broadcast,
    so a plain circle among batched ones is the same circle in every draw.
    Circle c's nodes are c.center + c.radius * exp(2 pi i a/n) for a < n,
    and their weights (node - c.center) / n: with them (1/2pi i) oint f dz
    is sum f(z_a) w_a. Each circle is computed into its rows of one
    preallocated array, so a number stays a scalar operand and only an
    array over the batch is broadcast.
    """
    unit = _roots_of_unity(n).reshape((n,) + (1,) * len(batch))
    z = np.empty((len(contour.circles), n) + batch, complex)
    w = np.empty_like(z)
    for zc, wc, c in zip(z, w, contour.circles):
        np.multiply(c.radius, unit, out=zc)
        zc += c.center
        np.subtract(zc, c.center, out=wc)
        wc /= n
    return z.reshape((-1,) + batch), w.reshape((-1,) + batch)


def _estimate1(f, nodes, fold=False):
    """The estimate of (1/2pi i) oint f at the nodes and weights of one
    contour (`nodes_weights`); with fold, the pair of it and the estimate
    at half the nodes from the same evaluation."""
    z, w = nodes
    fw = np.asarray(f(z)) * w
    total = np.sum(fw, axis=0)
    # the n/2 nodes of a circle are its n nodes [::2], their weights twice
    # the n-node ones; a contour's circles all hold an even count of nodes
    return (total, 2 * np.sum(fw[::2], axis=0)) if fold else total


def _modulus(x):
    """|x| of a complex array as a scalar's abs() gives it, bit for bit: the
    vectorized np.abs may differ from it in the last bit. A real array's is
    np.abs, exact."""
    return np.hypot(x.real, x.imag) if np.iscomplexobj(x) else np.abs(x)


def converge(estimate, size, n, max_nodes, tol, failure):
    """The node-doubling loop behind every integral in the package.

    `size` integrals share one node sequence: n nodes per circle, doubled
    while the count stays within max_nodes. estimate(k, live) evaluates one
    pass and returns the list of the `size` estimates at n * 2**k,
    n * 2**(k+1), ... nodes, one array per count the pass serves; they are
    taken in order, and estimate is called again only at the first count no
    pass served. Only the entries that the boolean array `live` marks are
    read, so an estimator may skip work that serves no live entry. An entry
    is accepted at the first doubling where it differs from its own previous
    estimate by less than tol, relative when its magnitude exceeds 1 and
    absolute below (one array test over the live entries; a NaN never
    passes), and then leaves `live`. Returns the array of the accepted
    estimates, in the dtype of the first estimate (float at least, so real
    estimates stay real and complex ones complex), the list of the doubling
    k at which each was accepted, and the array of its last-doubling delta.
    If an entry is still live at the cap, QuadratureError carries
    failure(index, k) as its message and the last two estimates of the
    first such entry.
    """
    step = np.zeros(size, dtype=int)
    delta = np.zeros(size)
    live = np.ones(size, dtype=bool)
    pending = list(estimate(0, live))
    prev = old = pending.pop(0)
    value = np.zeros(size, dtype=np.result_type(old, float))
    k = 0
    while live.any() and n << (k + 1) <= max_nodes:
        k += 1
        pending = pending or list(estimate(k, live))
        new = pending.pop(0)
        diff = _modulus(new - old)
        done = live & (diff < tol * np.maximum(1.0, _modulus(new)))
        value[done], step[done], delta[done] = new[done], k, diff[done]
        live ^= done
        old, prev = new, old
    if live.any():
        i = int(np.argmax(live))
        raise QuadratureError(failure(i, k), (prev[i], old[i]))
    return value, step.tolist(), delta


def _single(estimate, contours, batch, max_nodes, tol, full_output, what):
    """One integral over the contours through `converge`, or one per draw
    of batch, the contours' batch shape (`_batch`). Each pass takes every
    contour's nodes and weights (`nodes_weights`) at its start doubled k
    times, and estimate(nodes, fold) gives the estimate on them (of the
    batch's shape), with fold the pair of it and the estimate at k - 1 from
    the even-indexed half of the same nodes. The first pass, when max_nodes
    allows one doubling, is at k = 1 with fold and serves k = 0 and k = 1;
    each later pass evaluates its nodes afresh and serves one k. The
    reported `nodes` are per circle, one count per contour (a number for
    one contour), a list of them over the draws of a batch; `grid_points`
    counts the points of the passes evaluated; a draw that does not converge
    is named in the error."""
    starts = [c.nodes for c in contours]
    size, n = math.prod(batch), max(starts)
    passes = []

    def at(k, live):
        fold = k == 0 and n << 1 <= max_nodes
        passes.append(k + fold)
        nodes = [nodes_weights(c, s << (k + fold), batch)
                 for c, s in zip(contours, starts)]
        out = estimate(nodes, True)[::-1] if fold else [estimate(nodes, False)]
        return [np.reshape(v, size) for v in out]

    def failure(i, k):
        draw = f" (draw {i} of {size})" if batch else ""
        return f"{what} did not converge at {n << k} nodes/circle{draw}"
    value, step, delta = converge(at, size, n, max_nodes, tol, failure)
    value = np.reshape(value, batch)[()]
    if not full_output:
        return value
    nodes = [tuple(s << k for s in starts) if len(starts) > 1 else starts[0] << k
             for k in step]
    points = sum(size * math.prod(len(c.circles) * (c.nodes << k) for c in contours)
                 for k in passes)
    return value, {"nodes": nodes if batch else nodes[0],
                   "last_delta": np.reshape(delta, batch)[()], "grid_points": points}


def integrate(f, contour, tol=1e-9, max_nodes=MAX_NODES, full_output=False):
    """(1/2pi i) oint f(z) dz over a union of counterclockwise circles.

    Doubles the per-circle node count until successive estimates differ by
    less than tol (relative when the magnitude exceeds 1, absolute below).
    """
    return _single(lambda nodes, fold: _estimate1(f, nodes[0], fold), [contour],
                   _batch([contour]), max_nodes, tol, full_output,
                   "contour integral")


def _dots(G, C, W):
    """Per column t, sum_ab G[a,t] C[a,b] W[b,t] over the trailing two axes,
    as a (1 x rows) @ (rows x 1) product per column: one column sums in the
    order of the matrix product G^T C W."""
    return (G.swapaxes(-1, -2)[..., :, None, :]
            @ (C @ W).swapaxes(-1, -2)[..., :, :, None])[..., 0, 0]


def estimate_bilinear(core, gz, gw, z_nodes, w_nodes, fold=None):
    """Tensor-product trapezoid estimates of a vector of double integrals at
    one node count: z_nodes and w_nodes are the nodes and weights of the two
    contours (`nodes_weights`).

    Entry t estimates (1/2pi i)^2 oint oint gz(z)[t] core(z, w) gw(w)[t]
    dz dw: gz and gw map a node vector to a (nodes, columns) matrix, core
    receives node arrays shaped (N,1) and (1,M), and its value is broadcast
    to the full grid, so a core of z alone may return shape (N,1). Entry t
    is sum_ab Gz[a,t] C[a,b] Gw[b,t], weights in Gz and Gw, with the core
    grid C evaluated once, in row blocks of at most _CHUNK elements (at
    least one row). On batched circles every array carries the batch as
    trailing axes, the blocks count its draws, and the estimates have shape
    (columns,) + batch.

    fold, a boolean array over the columns, also asks for the estimates of
    the columns it marks at half the nodes of each contour: the same sums
    over the even-indexed rows of Gz and Gw, their weights doubled, and the grid at
    those rows and columns. The n/2 nodes of a circle are its n nodes [::2]
    bit for bit, so the pass evaluates nothing more, and it returns the pair
    (estimates, folded estimates).
    """
    (z, wz), (w, ww) = z_nodes, w_nodes
    first = tuple(range(2, z.ndim + 1)) + (0, 1)  # batch axes first
    Gz = (gz(z) * wz[:, None]).transpose(first)
    Gw = (gw(w) * ww[:, None]).transpose(first)
    if fold is not None:
        Hz, Hw = 2 * Gz[..., ::2, fold], 2 * Gw[..., ::2, fold]
    rows = max(1, _CHUNK // w.size)
    total = half = 0j
    for start in range(0, len(z), rows):
        zc = z[start:start + rows, None]
        C = np.broadcast_to(core(zc, w[None]), zc.shape[:1] + w.shape).transpose(first)
        total = total + _dots(Gz[..., start:start + rows, :], C, Gw)
        if fold is not None:
            # the block's even-indexed rows: rows lo:hi of Hz
            lo, hi = (start + 1) // 2, (start + len(zc) + 1) // 2
            half = half + _dots(Hz[..., lo:hi, :], C[..., start % 2::2, ::2], Hw)
    back = (z.ndim - 1, *range(z.ndim - 1))         # the columns first again
    return total.transpose(back) if fold is None else (total.transpose(back),
                                                         half.transpose(back))


def integrate2(f, c1, c2, tol=1e-9, max_nodes=MAX_NODES_2D, full_output=False):
    """(1/2pi i)^2 double contour integral, tensor-product trapezoid rule:
    `integrate_product` with unit one-variable factors and f as the pair.

    f receives node arrays shaped (N,1) and (1,M); broadcasting gives the
    value grid. Both node counts double jointly under one convergence test.
    A plain circle among batched ones is broadcast to the batch.
    """
    return integrate_product((lambda z: 1.0,) * 2, lambda j, k, z, w: f(z, w),
                             [c1, c2], tol=tol, max_nodes=max_nodes,
                             full_output=full_output)


def integrate_n(f, contours):
    """(1/2pi i)^d integral of f over d = 1 or 2 contours: `integrate` or
    `integrate2` under the cap MAX_NODES_ND, read at each call. Over more
    contours, integrate a product of one-variable and pairwise factors with
    `integrate_product`."""
    if not 1 <= len(contours) <= 2:
        raise ValueError(f"integrate_n takes one or two contours, not "
                         f"{len(contours)}; use integrate_product for more")
    one_or_two = integrate if len(contours) == 1 else integrate2
    return one_or_two(f, *contours, max_nodes=MAX_NODES_ND)


def integrate_product(ones, pair, contours, tol=1e-9, max_nodes=None,
                      full_output=False):
    """(1/2pi i)^d oint...oint prod_j ones[j](z_j) prod_{j<k} pair(j, k, z_j, z_k)
    over d >= 1 contours, z_j on contours[j].

    At d = 1 this is `integrate`. At d >= 2 each tuple of nodes of the outer
    m = d - 2 variables is one column: its pair factors with the last two
    variables fold into those variables' columns, and its one-variable
    factors, mutual pair factors and weights scale its column of variable
    m, so the estimate is the sum of the columns of `estimate_bilinear` of
    pair(m, m + 1), one grid per pass and block of tuples (see _COLUMNS). On
    the first pass the tuples of even-indexed outer nodes, doubled per outer
    contour, also give the half-node estimate. At d = 2 the one column is
    the empty tuple, of scale 1, and no outer array is built. Each contour
    doubles from its own start. max_nodes defaults to the cap of the
    dimension: MAX_NODES, MAX_NODES_2D or MAX_NODES_ND. On batched circles
    the factors receive nodes with the batch as trailing axes and the
    integral is one estimate per draw, accepted at the draw's own doubling.
    The contours need not all carry the batch: a plain circle among batched
    ones is broadcast to the batch, the same circle in every draw.
    """
    d = len(contours)
    if max_nodes is None:
        max_nodes = (MAX_NODES, MAX_NODES_2D, MAX_NODES_ND)[min(d, 3) - 1]
    if d == 1:
        return integrate(ones[0], contours[0], tol=tol, max_nodes=max_nodes,
                         full_output=full_output)
    m, batch = d - 2, _batch(contours)

    def column(k, zs, scale=1.0):
        def g(z):
            v = np.broadcast_to(ones[k](z), z.shape)[:, None] * scale
            for j, zj in enumerate(zs):
                v = v * pair(j, k, zj, z[:, None])
            return v
        return g

    def estimate(nodes, fold):
        outer = nodes[:m]
        shape = tuple(len(z) for z, _ in outer)
        count = math.prod(shape)
        width = max(1, _COLUMNS // (math.prod(batch) * max(
            len(z) for z, _ in nodes[m:])))
        total = half = 0j
        for start in range(0, count, width):
            at = np.unravel_index(np.arange(start, min(start + width, count)),
                                  shape) if m else ()
            zs = [z[i] for (z, _), i in zip(outer, at)]
            scale = 1.0
            for j, ((_, w), i) in enumerate(zip(outer, at)):
                scale = scale * w[i] * ones[j](zs[j])
                for h in range(j + 1, m):
                    scale = scale * pair(j, h, zs[j], zs[h])
            # the tuples of even-indexed outer nodes are the half-node tuples
            even = np.atleast_1d(sum(i % 2 for i in at) == 0)
            out = estimate_bilinear(
                lambda a, b: pair(m, m + 1, a, b), column(m, zs, scale),
                column(m + 1, zs), *nodes[m:], fold=even if fold else None)
            if fold:
                out, folded = out
                # each outer weight doubled: 2**m, exact
                half = half + folded.sum(axis=0) * 2 ** m
            total = total + out.sum(axis=0)
        return (total, half) if fold else total
    what = "double contour integral" if d == 2 else f"{d}-fold contour integral"
    return _single(estimate, contours, batch, max_nodes, tol, full_output, what)
