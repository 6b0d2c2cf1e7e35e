"""Macdonald (q,t) difference operators on functions of n variables.

`apply_direct` is the literal finite sum over r-subsets with shift operators;
it is the ground truth every contour formula here is tested against. Its
point, q and t may be numbers or arrays over a batch of points: the subset
weights are the same arithmetic either way and broadcast over the batch.
`eigen_residual` checks the Schur eigenrelation on it for many partitions,
several orders and a batch of points at once: one direct action per order
on the table of Schur values that `symfunc.schur_table` gives at each
shifted point set of the whole batch, with the Schur values at xs, the
spectra and every e_r computed once. The contour routes need care with
which poles a contour encloses:

* the one-operator action on a product-form function integrates over small
  circles around the points x_i only, 1/256 of the safe radius wide
  (`contour_radius`), so the trapezoid error falls like 256^-N and each
  converges at its first doubling, 4 -> 8 nodes, from one 8-node pass;
* the iterated one-row actions (several q's) additionally need, for every
  earlier variable, circles around the shift images q_k x_i of the later
  variables; without them the residues that shift the same variable twice
  are lost and the integral no longer equals the composed operator. Each
  level's circles are a sixteenth of the radius of the one before
  (`choose_radii`), so the shift-image pole loci a circle encloses stay
  within |q|/16 of its radius, and every circle lies within a sixteenth of
  the distance from its center to the other centers of its level, to 0 and
  to the unit circle (`_separated`): the trapezoid error falls like 16^-N,
  and every action is accepted at its first doubling, 8 -> 16 nodes, from
  one 16-node pass. The radii are always derived from the qs, xs and ys.
  The Z action keeps the bare x-circle contour as
  ``contour_mode="stated"`` because its q-power coefficients are still
  exactly the correlation quantities (both facts are pinned down in the
  test suite). Its levels all have the x_i as centers, and `_separated`
  keeps its circles clear by the same rule, so no other rule does. That
  contour encloses only the simple poles at the x_i, so
  its action is a finite residue sum; `kernels.correlation_via_q_extraction`
  reads the coefficients from that sum's Taylor series, and the tests keep
  the sum itself as the reference that the series and this quadrature are
  pinned to.

Every product form here is the Cauchy form G = prod_{i<j} f(x_i x_j)
prod_i g(x_i) of Z(.; Y) and F(.; Y): g = prod_y 1/(1 - xy), and f =
1/(1 - u) for Z, f = 1 for F. `ProductFormFunction` is built from that data
(the ys, and whether the boundary factor f is present) and derives f, g and
G's value from it. Every contour action integrates one integrand, written
once for it and one-row shifts q_1, ..., q_d: per variable z_j the x-poles
(`_x_poles`) times the ratio of G with z_j shifted by q_j (`_regular`), and
per pair a factor that reads only whether f is present (`_pair`); the ratio
and the pair factor multiply their reciprocal factors out and divide once
per point. `apply_via_contour` is G(xs)/r! times the integrand at r equal
shifts q; its xs, q and ys may be arrays over a batch of draws, which one
quadrature pass evaluates together, each draw accepted at its own first
converged doubling. The iterated actions are the integrand on the product
form of Z or F, which also gives their G(xs), and the coupling-product check
in `kernels` multiplies the same pair factor. Every action runs one step
(`_action`): one call of `quadrature.integrate_product` on these factors,
over circles from `quadrature.circles_around` that start at 4 nodes for
`apply_via_contour` and 8 for the iterated actions, times G(xs); a
quadrature that does not converge is re-raised naming the action (and on a
batch the draw). Each action refuses a point at 0 or off the unit disk and
two coincident points, naming the points, before it draws any radius
(`_refuse_points`), and one rule refuses a contour the quadrature cannot
resolve, on the radii it will use (`_refuse_unresolved`): points closer
than 2^-10 of the largest |x|, at d >= 2 a point whose two nearest others
lie within 2^-6 of it, a singularity left outside a circle too near an x_i
or a circle below the float resolution of its center. Each refusal is a
ContourConditionError before any quadrature runs.
"""

import math
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from . import quadrature as quad
from .symfunc import H0, cauchy_H, schur_table
from .symfunc import schur  # noqa: F401 (perfbench traces it here)


class ContourConditionError(ValueError):
    """A contour-validity condition fails for the requested configuration."""


# ---------------------------------------------------------------------------
# direct action
# ---------------------------------------------------------------------------

def _coordinates(xs):
    """Each coordinate as complex, or as it is if it is an array over a batch."""
    return [x if isinstance(x, np.ndarray) else complex(x) for x in xs]


def _check_order(r, n):
    if not 1 <= r <= n:
        raise ValueError(f"operator order r={r} must be in [1, n={n}]")


def apply_direct(F, xs, r, q, t=None):
    """Order-r Macdonald difference operator applied to F at the point xs.

    F takes a sequence of len(xs) coordinates. t defaults to q (the Schur
    case). Each coordinate, and q and t, is a number or an array over one
    batch of points; the subset weights broadcast over the batch, so F is
    called once per subset with the shifted coordinates of the whole batch
    and may return values of shape (...,) + batch. Coincident points are
    rejected: the subset weights have poles at x_i = x_j.
    """
    if t is None:
        t = q
    xs = _coordinates(xs)
    n = len(xs)
    _check_order(r, n)
    if any(np.any(a == b) for a, b in combinations(xs, 2)):
        raise ValueError("coincident points: the subset weights are singular")
    total = 0j
    for I in combinations(range(n), r):
        inside = set(I)
        w = 1.0 + 0j
        for i in I:
            for j in range(n):
                if j not in inside:
                    w *= (t * xs[i] - xs[j]) / (xs[i] - xs[j])
        shifted = list(xs)
        for i in I:
            shifted[i] = q * shifted[i]
        total += w * F(shifted)
    return q ** (r * (r - 1) // 2) * total


def eigenvalue(lam, n, r, q):
    """e_r evaluated at the spectrum (q^{lam_1} t^{n-1}, ..., q^{lam_n} t^0)
    at t = q, where the Schur polynomials are the eigenfunctions."""
    return complex(_elementary([tuple(lam)], n, r, q, q)[r][0])


def _elementary(lams, n, top, q, t):
    """e_0, ..., e_top at the spectrum of every partition in lams, each as
    an array of shape (len(lams),) + batch when q and t are numbers or
    arrays over a batch: multiplying in a value v of the spectrum turns e_k
    into e_k + v e_{k-1}, run over the partitions and the batch at once."""
    q, t = np.asarray(q, complex), np.asarray(t, complex)
    batch = np.broadcast_shapes(q.shape, t.shape)
    parts = np.array([lam + (0,) * (n - len(lam)) for lam in lams],
                     dtype=int).reshape((len(lams), n) + (1,) * len(batch))
    e = [np.ones((len(lams),) + batch, complex)]
    e += [np.zeros_like(e[0])] * top
    for i in range(n):
        v = q ** parts[:, i] * t ** (n - 1 - i)
        for k in range(top, 0, -1):
            e[k] = e[k] + v * e[k - 1]
    return e


def eigen_residual(lams, xs, orders, q, t=None, full_output=False):
    """Residuals of the Schur eigenrelation D_r s_lam = e_r(spectrum) s_lam
    at the point xs, one row per order r in orders and one column per
    partition in lams; each is relative to the scale |s_lam(xs)| + 1.

    xs, q and t may be batched as in `apply_direct`, and the result has
    shape (len(orders), len(lams)) + batch. One direct action per order
    serves every partition and every point of the batch: `apply_direct`
    acts on the table `symfunc.schur_table` gives at each shifted point
    set. The Schur values at xs, the spectra and e_1 ... e_max(orders) are
    computed once for all orders. With full_output, also returns the number
    of point sets evaluated (`point_sets`) and of Schur values computed
    (`schur_values`).
    """
    if t is None:
        t = q
    n = len(xs)
    lams = [tuple(lam) for lam in lams]
    if any(len(lam) > n for lam in lams):
        raise ValueError("partition has more rows than variables")
    orders = list(orders)
    counts = {"point_sets": 0, "schur_values": 0}

    def F(v):
        table = schur_table(lams, v)
        counts["point_sets"] += int(np.prod(table.shape[1:]))
        counts["schur_values"] += table.size
        return table
    sval = F(xs)
    e = _elementary(lams, n, max(orders, default=0), q, t)
    res = np.array([np.abs(apply_direct(F, xs, r, q, t) - e[r] * sval)
                    / (np.abs(sval) + 1.0)
                    for r in orders]).reshape((len(orders),) + sval.shape)
    return (res, counts) if full_output else res


# ---------------------------------------------------------------------------
# product-form functions and the one-operator contour action
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ProductFormFunction:
    """G(X) = prod_{i<j} f(x_i x_j) * prod_i g(x_i) in the Cauchy form of
    both partition functions: g(x) = prod_y 1/(1 - x y) over the ys, and
    f(u) = 1/(1 - u) with the boundary factor (Z(X; Y)) or f = 1 without it
    (F(X; Y)). Each y, like each coordinate G is evaluated at, is a number
    or an array over one batch of draws."""
    ys: tuple
    with_boundary: bool = True

    def __post_init__(self):
        object.__setattr__(self, "ys", tuple(self.ys))

    def f(self, u):
        return 1.0 / (1.0 - u) if self.with_boundary else 1.0

    def g(self, x):
        den = 1.0
        for y in self.ys:
            den = den * (1.0 - y * x)
        return 1.0 / den

    def value(self, xs):
        xs = _coordinates(xs)
        out = 1.0 + 0j
        for a in range(len(xs)):
            for b in range(a + 1, len(xs)):
                out = out * self.f(xs[a] * xs[b])
            out = out * self.g(xs[a])
        return out

    def __call__(self, xs):
        return self.value(xs)


# ---------------------------------------------------------------------------
# the one-row contour integrand
# ---------------------------------------------------------------------------

def _x_poles(z, q, xs):
    """The factors of the integrand with a pole at some x_i."""
    v = 1 / ((q - 1.0) * z)
    for x in xs:
        v = v * (q * z - x) / (z - x)
    return v


def _regular(z, q, xs, G):
    """The factors of the integrand of z, the variable shifted by q, that are
    analytic near every x_i: at z = x_i they are G(..., q x_i, ...)/G(xs).
    For the Cauchy form the ratio's reciprocal factors are multiplied out,
    so it costs one division per point."""
    qz = q * z
    num, den = 1.0, 1.0
    for y in G.ys:
        num, den = num * (1 - z * y), den * (1 - qz * y)
    if G.with_boundary:
        num, den = num * (1 - qz * z), den * (1 - z * z)
        for x in xs:
            num, den = num * (1 - z * x), den * (1 - qz * x)
    return num / den


def _pair(zj, zk, qj, qk, with_boundary):
    """The factor of an earlier variable zj (shift qj) and a later zk (qk).

    With a = qj zj and b = qk zk it is (a - b)(zj - zk)/((zj - b)(a - zk)),
    times f(ab) f(zj zk)/(f(a zk) f(zj b)) with the boundary factor f(u) =
    1/(1 - u). There each 1 - a w is written a (1/a - w) and each 1 - zj w
    as zj (1/zj - w); the a's and zj's cancel, so a grid point costs
    differences, products and one division."""
    a, b = qj * zj, qk * zk
    num, den = (a - b) * (zj - zk), (zj - b) * (a - zk)
    if with_boundary:
        ia, iz = 1 / a, 1 / zj
        num, den = num * (ia - zk) * (iz - b), den * (ia - b) * (iz - zk)
    return num / den


def _factors(qs, xs, G):
    """The integrand of one-row operators with shifts qs acting on G at xs,
    as the one-variable factors and the pair factor of
    `quadrature.integrate_product`."""
    ones = [lambda z, q=q: _x_poles(z, q, xs) * _regular(z, q, xs, G) for q in qs]
    return ones, lambda j, k, zj, zk: _pair(zj, zk, qs[j], qs[k], G.with_boundary)


def _action(qs, xs, G, contours, tol, what):
    """G(xs) times the integral of the integrand (`_factors`) with shifts qs
    over contours, one per variable, and the quadrature's info; a
    QuadratureError is re-raised naming what, with the same estimates."""
    try:
        integral, info = quad.integrate_product(*_factors(qs, xs, G), contours,
                                                tol=tol, full_output=True)
    except quad.QuadratureError as exc:
        raise exc.naming(what) from exc
    return G.value(xs) * integral, info


# ---------------------------------------------------------------------------
# the one refusal rule
# ---------------------------------------------------------------------------

def _named(values):
    """Shifts or points as an error message names them: each by the repr of
    the complex number, less its parentheses, so values that differ in their
    last bits read apart."""
    return "(" + ", ".join(repr(complex(v)).strip("()") for v in values) + ")"


def _refuse(bad, message):
    """Raise a ContourConditionError reading message(i) for the first draw i
    where bad holds; bad has the batch's shape, () for a single draw, and on
    a batch the message names the draw."""
    if bad.any():
        i = int(np.argmax(bad.ravel()))
        draw = f" (draw {i} of {bad.size})" if bad.ndim else ""
        raise ContourConditionError(message(i) + draw)


def _draw(values, batch, i):
    """Draw i of values stacked along a first axis, over a batch of that
    shape."""
    return np.broadcast_to(values, values.shape[:1] + batch).reshape(len(values), -1)[:, i]


def _refuse_points(xs):
    """Refuse a point at 0, a point off the unit disk or two coincident
    points, naming the points: no contour keeps 0 outside a circle about
    x_i = 0, a circle about |x_i| >= 1 inside the unit disk, where the
    regular factors have no pole, or the circles about x_i = x_j apart.
    Returns the points stacked over the batch of the xs and, per point, its
    distances to the others in increasing order."""
    x = np.stack(np.broadcast_arrays(*xs))
    apart = np.abs(x[:, None] - x)
    apart[np.diag_indices(len(x))] = np.inf
    apart = np.sort(apart, axis=1)
    points = lambda i: f"points xs={_named(_draw(x, x.shape[1:], i))}"
    _refuse((x == 0).any(0), lambda i: f"{points(i)}: a point at 0 admits no contour")
    _refuse((np.abs(x) >= 1).any(0), lambda i: (
        f"{points(i)}: a point off the unit disk admits no contour"))
    _refuse(apart[:, 0].min(axis=0) == 0, lambda i: (
        f"{points(i)}: coincident points admit no contour"))
    return x, apart


def _refuse_unresolved(points, qs, radius, gap, floor, pole, cluster):
    """The one rule that refuses a contour the quadrature cannot resolve,
    applied to the radii it will use: after `contour_radius` for
    `apply_via_contour` and after `_separated` for the iterated actions.
    The qs, the smallest radius and the gap from the x_i to the nearest
    singularity a circle leaves outside (pole names it) may be arrays over
    a batch, and a refusal names the first draw that fails.

    A point at 0 or off the unit disk, or two coincident points, admit no
    contour: each action refuses its points by `_refuse_points` before it
    draws any radius, and `points` is what that returned. Every other floor
    is a fraction of the largest |x|: the x_i, and the nodes about them, are
    known to an ulp of it, 2^-52 |x|.

    * Two points closer than 2^-10 |x|. The residues at a close pair are
      large, of both signs, and cancel to the action, and the rounding in
      them grows about like the inverse square of their distance d: at xs =
      (0.5, 0.5 + d, 0.3) and |q| = 0.6 `apply_via_contour` is up to 3.6e-10
      off `apply_direct` at d = 1e-4 to 3e-4, 7.9e-9 at d = 1e-5 to 3e-5 and
      1.4e-6 at d = 1e-6 to 3e-6, the iterated Z action 1.5e-10, 3.3e-9 and
      1.7e-8 or no convergence. On 160 random draws with n <= 4 and a pair
      or a triple of points 2^-10 to 2^-9 |x| apart, `apply_via_contour` at
      r <= 3 is within 1.1e-10 of `apply_direct`, and the iterated actions
      at d = 1, and at d = 2 on a pair, within 1.2e-10 of the composition.
    * A cluster: a point whose two nearest others lie within cluster |x|,
      2^-6 for the iterated actions at d >= 2 (0, no rule, at d = 1 and for
      `apply_via_contour`). At d = 2 a point with two close neighbours
      carries residues that cancel far more than a pair's: on random draws
      (n = 3 or 4, |x| up to 0.7, real |q| in 0.1 to 0.7) against the
      composition of the direct actions summed exactly in `Fraction`s, an
      evenly spaced triple s |x| apart is within 5e-12 at s = 2^-4, within
      3.9e-10 at s = 2^-6 to 2^-5.5 and 1.9e-9 off at s = 2^-6.5 to 2^-6
      (120 actions per band); at s = 2^-9 to 2^-8 some actions double their
      nodes for seconds, and `iterated_action_Z` on three points 2^-8.7 |x|
      apart ran 106 s to a QuadratureError. A triple with one gap of 2^-9
      and one of 2^-4 stays within 3e-11.
    * A gap below floor |x|. For the iterated actions the gap is the stated
      distance D and the floor 2^-20: a point and a shifted point D apart
      are each known to an ulp of x, so the integrand near them carries a
      relative rounding error up to about 2^-52 |x|/D, 2.3e-10 at the
      floor, below the actions' default tolerance of 1e-9; below it the
      error reaches that tolerance, and `iterated_action_Z([0.4, 0.5 +
      1e-12], [0.5, 0.25], [0.2])`, D = 1e-12 |x|, would double its nodes
      to the cap. On 60 random draws at D = 2^-20 |x| the actions match the
      composition to 1.5e-11 at 16 nodes; at D = 3e-8 |x| one misses it by
      2.5e-9. For `apply_via_contour` the gap is its safe radius R, 256
      times its radius, and the floor 2^-24. Its error falls like 1/R,
      about 1e-17 |x|/R near q = 1: at xs = (0.5, 0.3) and q near 1 - e it
      is past tolerance at R = 4.2e-9, 9.5e-10, 3e-10 and 9.5e-11 |x| (up to
      1.2e-7 off), within it from 9.5e-9 |x| up, and 6.9e-12 off at the 3e-7
      |x| of q = 1 - 1e-6; on 600 random draws with R within a factor 2 above
      the floor, a shift near 1, a q-image near a point, a point near 0 or
      near the unit circle, the worst is 2.1e-10, near q = 1.
    * A smallest radius below 2^-52 |x|, one ulp of x: on a smaller circle
      a node x + r e^{i theta} can round onto x, a pole of the integrand,
      while on one at the floor every node differs from x by at least half
      an ulp in one coordinate. A tiny shift drives r_1 there through
      upsilon^2 (`choose_radii`), and `_separated` shrinks the circles
      about a center near another center or the unit circle. Above the
      floor rounding does not spoil the actions: at q = (0.4, 1e-6), xs =
      (0.5, 0.3), r_2 = 1.0e-15 |x| and both match the composition to
      6e-16; at q_2 = 1e-7, r_2 = 1.0e-17 |x|, and the quadrature would
      divide by zero.
    """
    x, apart = points
    crowd = apart[:, 1].min(axis=0) if cluster and len(x) > 2 else np.inf
    top, apart, crowd, radius, gap = np.broadcast_arrays(
        np.abs(x).max(axis=0), apart[:, 0].min(axis=0), crowd, radius, gap)
    _refuse(apart < 2.0 ** -10 * top, lambda i: (
        f"points xs={_named(_draw(x, top.shape, i))}: two of them lie {apart.flat[i]:.3g} "
        f"apart, closer than 2^-10 of the largest |x| = {top.flat[i]:.6g}"))
    _refuse(crowd < cluster * top, lambda i: (
        f"points xs={_named(_draw(x, top.shape, i))}: two of them lie within "
        f"{crowd.flat[i]:.3g} of a third, closer than 2^{math.log2(cluster):g} of the "
        f"largest |x| = {top.flat[i]:.6g}, which the actions at d >= 2 do not resolve"))
    shifts = lambda i: f"shifts qs={_named(_draw(np.stack(np.broadcast_arrays(*qs)), top.shape, i))}"
    _refuse(gap < floor * top, lambda i: (
        f"{shifts(i)} put {pole} {gap.flat[i]:.3g} from an x_i, closer than "
        f"2^{math.log2(floor):g} of the largest |x| = {top.flat[i]:.6g}"))
    _refuse(radius < 2.0 ** -52 * top, lambda i: (
        f"{shifts(i)} give a radius {radius.flat[i]:.3g} about "
        f"x = {complex(max(_draw(x, top.shape, i), key=abs)):.6g}, "
        f"below the float resolution of its center"))


def contour_radius(xs, q):
    """1/256 of the largest safe radius R for circles around the x_i:
    circles pairwise disjoint, q-images of every circle outside all
    circles, 0 outside every circle, and every circle inside the unit disk.
    The xs and q, all or some of them, may be arrays over a batch, and so
    is the radius.

    The last bound keeps out the poles of the regular factors, which lie
    outside the unit disk when |q|, |x_j|, |y| < 1: z = +-1 of f(z^2),
    1/(q x_j) of f(q z x_j) and 1/(q y) of a Cauchy g(q z). With the bounds
    met, every singularity of the integrand off the circle around x_i stays
    at least R from x_i, so the trapezoid error on a circle of radius R/256
    falls like 256^-N at N nodes (Trefethen & Weideman, SIAM Rev. 56, 2014):
    the 4-node estimate is within about 256^-4 = 2.3e-10, as the 8-node one
    was at R/16, and the first doubling, 4 -> 8, meets a tolerance of 1e-9
    with the 8-node estimate within 256^-8 = 5.4e-20. The radius is not
    checked here: `apply_via_contour` refuses what the quadrature cannot
    resolve (`_refuse_unresolved`).
    """
    x = np.stack(np.broadcast_arrays(*xs, q)[:-1])     # coordinate i, then xs' and q's batch
    gaps = np.abs(x[:, None] - x) / 2           # circles i != j disjoint
    gaps[np.diag_indices(len(x))] = np.inf
    # q-image of circle i must stay off circle j: |qx_i - x_j| > (|q|+1) rad
    images = np.abs(q * x[:, None] - x) / (np.abs(q) + 1)
    # keep 0 outside and stay inside the unit disk
    return np.minimum(np.minimum(gaps, images).min(axis=(0, 1)),
                      np.minimum(np.abs(x), 1 - np.abs(x)).min(axis=0)) / 256


def apply_via_contour(G, xs, r, q, tol=1e-9, full_output=False):
    """Order-r action on a product-form G by the r-fold contour integral.

    The contour is the union of circles around the x_i of `contour_radius`,
    from 4 nodes per circle; all r variables run over the same contour.
    Assumes t = q. The value is G(xs)/r! times the integral of the one-row
    integrand (`_factors`) at r equal shifts q, accepted at 4 -> 8 nodes
    from one 8-node pass: (8 n)^r grid points. Each coordinate of xs, q
    and each y of G is a number or an array over one batch of draws: one
    `quadrature.integrate_product` pass then evaluates every draw's circles
    and accepts each draw at its own first converged doubling, and the
    value is an array over the batch. full_output adds the radius to the quadrature's
    `nodes`, `last_delta` and `grid_points` (per draw on a batch: a list of
    node counts, arrays of deltas and radii). A contour the quadrature
    cannot resolve is a ContourConditionError before any quadrature
    (`_refuse_unresolved`, on a gap R = 256 times the radius), and a
    QuadratureError is re-raised naming the action and r, and on a batch the
    draw, with the same estimates.
    """
    if not isinstance(G, ProductFormFunction):
        raise TypeError("G must be a ProductFormFunction")
    xs = _coordinates(xs)
    _check_order(r, len(xs))
    points = _refuse_points(xs)
    radius = contour_radius(xs, q)
    _refuse_unresolved(points, [q] * r, radius, 256 * radius, 2.0 ** -24,
                       "a singularity", 0.0)
    contour = quad.circles_around(xs, radius, nodes=4)
    value, info = _action([q] * r, xs, G, [contour] * r, tol, f"contour action r={r}")
    value = value / math.factorial(r)
    if full_output:
        return value, {**info, "radius": radius}
    return value


# ---------------------------------------------------------------------------
# iterated one-row actions on the two partition functions
# ---------------------------------------------------------------------------

def z_partition(xs, ys):
    """Closed-form partition function with the free-boundary factor:
    prod_{i<j} 1/(1-x_i x_j) * prod_{i,j} 1/(1-x_i y_j)."""
    return H0(xs) * cauchy_H(xs, ys)


def _stated_condition_distance(qs, xs, ys):
    """Euclidean distance from the union of shifted/inverted points to the
    x_i; complex q's allowed. A y of 0 has no pole 1/(q y)."""
    pts = [1 / x for x in xs]
    for q in qs:
        for x in xs:
            pts += [q * x, x / q, 1 / (q * x)]
        pts += [1 / (q * y) for y in ys if y]
    return min(abs(p - x) for p in pts for x in xs)


def choose_radii(qs, xs, ys):
    """Radii r_1 > ... > r_d, each a sixteenth of the one before, passing the
    stated distance checks, and the stated distance D they are drawn from,
    which `_refuse_unresolved` reads too.

    The gap D between the shifted/inverted point set and the x_i must cover
    r_1 + s; r_1 must also stay below s * (upsilon^2 and the |q|-bounds).
    Taking s = D/(1+c) maximizes r_1 = D c/(1+c), of which 0.9 is used as
    a safety margin.

    The ratio sets how fast the iterated actions converge. A level-j circle
    encloses, besides its center, the pole locus z_j = q_k z_k of a later
    variable's circle: a circle about the same center of radius
    |q_k| r_k = |q_k| 16^-(k-j) r_j, within |q|/16 of r_j. So the trapezoid
    error from the poles inside falls like (|q|/16)^N at N nodes (Trefethen &
    Weideman, SIAM Rev. 56, 2014), at most 16^-8 = 2.3e-10 at 8 nodes for
    |q| < 1. `_separated` then scales the radii of either contour mode down
    until every singularity outside a circle is at least 16 radii away, so
    the actions are accepted at the first doubling, 8 -> 16, from one
    16-node pass. r_1 does not depend on the ratio.

    A point x_i = 0 or two coincident x_i (named by the points) and a
    shift q = 0 (named by the shifts) raise a ContourConditionError before
    anything divides by them, as do stated conditions that admit no
    positive r_1. Whether the quadrature can resolve the circles is decided
    on the radii it uses, after `_separated` (`_refuse_unresolved`).
    """
    qs = [complex(q) for q in qs]
    xs = [complex(x) for x in xs]
    ys = [complex(y) for y in ys]
    if 0 in xs or len(set(xs)) < len(xs):     # before dividing by them
        _refuse_points(xs)
    if 0 in qs:
        raise ContourConditionError(f"shifts qs={_named(qs)}: a zero shift admits no contour")
    D = _stated_condition_distance(qs, xs, ys)
    ups = min(min(abs(q ** e1 * x ** e2) for e1 in (1, -1) for e2 in (1, -1) for q in qs)
              for x in xs)
    ups = min(ups, min(abs(x) for x in xs))
    c = min(ups ** 2, min(min(abs(q), 1 / abs(q)) for q in qs))
    r1 = 0.9 * D * c / (1 + c)
    if r1 <= 0:
        raise ContourConditionError(
            f"shifts qs={_named(qs)}: the stated radius conditions admit no positive r_1")
    return [r1 * 0.0625 ** j for j in range(len(qs))], D


def _image_centers(qs, xs):
    """Per-level circle centers for the shift-image contours: level j must
    enclose, besides the x_i, the images q_k * (level-k centers) for k > j."""
    d = len(qs)
    centers = [None] * d
    centers[d - 1] = list(xs)
    for j in range(d - 2, -1, -1):
        pts = list(xs)
        for k in range(j + 1, d):
            pts += [qs[k] * c for c in centers[k]]
        # drop duplicates from repeated q's
        uniq = []
        for p in pts:
            if all(abs(p - u) > 1e-13 for u in uniq):
                uniq.append(p)
        centers[j] = uniq
    return centers


def _separated(radii, centers):
    """The radii scaled down together, keeping their ratios, so that every
    circle lies within a sixteenth of the distance from its center to the
    other centers of its level, to 0 and to the unit circle. This is the
    one rule that keeps circles clear, on both contour modes: the stated
    contour's levels all have the x_i as centers, and the shift-image
    contours add the shift images, which may lie closer to each other and
    to 0 than the x_i do.

    The integrand's poles at the other centers and at 0, and the poles of
    its regular factors beyond the unit circle, then lie at least 16 radii
    from a circle's center, as the shift-image loci it encloses lie within
    |q|/16 of its radius (`choose_radii`), so the trapezoid error falls like
    16^-N: within about 16^-8 = 2.3e-10 at 8 nodes, and the first doubling,
    8 -> 16, meets a tolerance of 1e-9. A center at 0, on another center of
    its level or off the unit disk admits no radius and raises a
    ContourConditionError naming which.
    """
    gaps = []
    for r, cs in zip(radii, centers):
        for a, c in enumerate(cs):
            near = [(abs(c), "at 0"), (1 - abs(c), "off the unit disk")]
            near += [(abs(c - b), "on another center") for i, b in enumerate(cs) if i != a]
            gap, where = min(near)
            if gap <= 0:
                raise ContourConditionError(f"a contour circle center lies {where}")
            gaps.append(gap / (16 * r))
    return [r * min([1.0] + gaps) for r in radii]


def _locus_excluded(a, rho, c, r):
    """A pole traveling the circle (a, rho) never enters the disk (c, r):
    either the two circles are far apart or the pole circles around the disk."""
    dist = abs(a - c)
    return dist >= rho + r or rho >= dist + r


def _locus_enclosed(a, rho, c, r):
    """The pole stays inside the disk (c, r) for every position on (a, rho)."""
    return abs(a - c) + rho < r


def _validate_disks(qs, centers, radii):
    """Hard checks that each variable's circles enclose exactly the intended
    poles: shift-image pole loci cleanly nested at earlier variables, and
    every cross pole locus (z_k/q_j, q_j z_j, z_j/q_k) excluded. The radii
    are `_separated`'s, so each level's circles are already pairwise
    disjoint and inside the unit disk away from 0."""
    d = len(qs)
    for j in range(d):
        for k in range(j + 1, d):
            for ck in centers[k]:
                # pole z_j = q_k z_k: enclosed by exactly one level-j circle
                img, rimg = qs[k] * ck, abs(qs[k]) * radii[k]
                inside = sum(_locus_enclosed(img, rimg, c, radii[j])
                             for c in centers[j])
                clean = all(_locus_enclosed(img, rimg, c, radii[j])
                            or _locus_excluded(img, rimg, c, radii[j])
                            for c in centers[j])
                if inside != 1 or not clean:
                    raise ContourConditionError(
                        "a shift-image pole is not cleanly enclosed at an earlier variable")
                # pole z_j = z_k / q_j: excluded from level j
                if not all(_locus_excluded(ck / qs[j], radii[k] / abs(qs[j]),
                                           c, radii[j]) for c in centers[j]):
                    raise ContourConditionError("a z_k/q_j pole reaches an earlier variable")
            for cj in centers[j]:
                # poles z_k = q_j z_j and z_k = z_j / q_k: excluded from level k
                for p, rp in ((qs[j] * cj, abs(qs[j]) * radii[j]),
                              (cj / qs[k], radii[j] / abs(qs[k]))):
                    if not all(_locus_excluded(p, rp, c, radii[k])
                               for c in centers[k]):
                        raise ContourConditionError(
                            "an earlier-variable pole reaches a later variable")


def _iterated_action(qs, X, Y, with_boundary, tol, contour_mode, full_output):
    qs = [complex(q) for q in qs]
    xs = [complex(x) for x in X]
    G = ProductFormFunction([complex(y) for y in Y], with_boundary)
    if not qs:
        value = G.value(xs)
        return ((value, {"nodes": (), "last_delta": 0.0, "grid_points": 0,
                         "radii": []})
                if full_output else value)
    if contour_mode not in ("shift_images", "stated"):
        raise ValueError("contour_mode must be 'shift_images' or 'stated'")
    points = _refuse_points(xs)
    if contour_mode == "stated":
        centers = [list(xs)] * len(qs)
    else:
        centers = _image_centers(qs, xs)
    radii, D = choose_radii(qs, xs, G.ys)
    radii = _separated(radii, centers)
    _refuse_unresolved(points, qs, radii[-1], D, 2.0 ** -20, "a shifted point",
                       2.0 ** -6 if len(qs) > 1 else 0.0)
    if contour_mode == "shift_images":
        _validate_disks(qs, centers, radii)

    contours = [quad.circles_around(cs, r) for cs, r in zip(centers, radii)]
    what = f"iterated {'Z' if with_boundary else 'F'} action qs={_named(qs)}"
    value, info = _action(qs, xs, G, contours, tol, what)
    if full_output:
        return value, {**info, "radii": [float(r) for r in radii]}
    return value


def iterated_action_Z(qs, X, Y, tol=1e-9, contour_mode="shift_images",
                      full_output=False):
    """d-fold one-row action on the free-boundary partition function Z(X;Y).

    Returns the operator value (not divided by Z). With the default
    shift-image contours this equals the composition of the d direct
    actions; the "stated" contour keeps bare x-circles only, whose
    q-coefficients are still the correlation quantities, and whose exact
    residue sum q-extraction expands in q. `choose_radii` sets the
    radii, scaled down on either contour until every circle lies
    within a sixteenth of the distance from its center to the other centers
    of its level, to 0 and to the unit circle (`_separated`); on those radii
    a contour the quadrature cannot resolve is a ContourConditionError
    before any quadrature (`_refuse_unresolved`, on the stated distance D).
    full_output adds the quadrature's `nodes`, `last_delta` and
    `grid_points`, and the per-level `radii` the contours used. A
    QuadratureError is re-raised naming the action and its qs, with the same
    estimates.
    """
    return _iterated_action(qs, X, Y, True, tol, contour_mode, full_output)


def iterated_action_F(qs, X, Y, tol=1e-9, full_output=False):
    """d-fold one-row action on the two-sided partition function F(X;Y), on
    the shift-image contours; full_output and errors as in
    `iterated_action_Z`."""
    return _iterated_action(qs, X, Y, False, tol, "shift_images", full_output)

