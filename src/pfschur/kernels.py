"""Double-contour Pfaffian correlation kernels.

Each configuration point (i, t) owns two slots of the skew matrix. The
kernel entry pairing two slots is a double contour integral over
origin-centered circles whose integrand factorizes into a coupling term, a
per-slot rational factor built from the specializations of the slot's own
level, and the powers z^{-t}:

* both slots "outer" (radius in (1, 1/max|rho^+|), NOT enclosing the
  1/x poles): the K11 entry;
* both slots "inner" (radius below 1): K22, whose coupling carries the
  (zw - 1) sign this whole lab exists to adjudicate;
* mixed: K12, where the only subtlety is which side of the zw = 1 pole the
  inner radius sits on: strictly-earlier levels (i < j) keep it outside
  (|zw| < 1), same or later levels pull it inside (|zw| > 1). K21 is the
  skew partner -K12 with swapped block indices.

`assemble_kernel` builds the whole matrix from four blocks on four circles:
K11 on k11 x k11, K22 on k22 x k22, and K12 with z on k11 and w on the
k12_w_lt or the k12_w_gt circle, integrating every K12 entry and the K11
and K22 entries above the diagonal. Every coupling is (z - w)/(zw - 1) times
factors of z alone and of w alone, so a block is the bilinear form
G_z^T (W C W) G_w whose columns are the points' slot factors and powers.
On trapezoid nodes of origin-centered circles the core C is a rank-one
term plus a Hankel matrix, so each block is summed by FFT in O(n log n) per
column, with no n x n array (the tests check it against the dense-grid
sums). A pass (`_Assembly.estimate`) is one array evaluation of the
circles that the blocks with an unconverged entry read: one
`quadrature.nodes_weights` call on their radii, one broadcast for all their
slot factors and columns, one ifft per side of the blocks, one fft for every
block's Hankel symbol and one matrix product per block and node count; the
blocks that read a circle share its columns (K11 and both K12 blocks read
k11). The n trapezoid nodes of a circle are its 2n nodes [::2] bit for bit,
so the n-node transforms are the 2n-node ones folded in half (Trefethen &
Weideman, SIAM Rev. 56, 2014), and the first pass evaluates 4 x start_nodes
nodes per circle and serves the estimates at start_nodes, twice that and
four times that. Each later pass evaluates all its nodes afresh and serves
one doubling. The node count doubles for all circles together, each entry
is accepted at the first doubling where it converges, and a block, or a
circle no open block reads, is no longer evaluated once every entry on it
has converged.

An assembly is split in two. Its layout (`_Layout`) holds the integers:
which entries each block holds, which (level, t) columns and slot-factor
rows they read on which circle, and each pass's index plan per set of live
blocks. These depend only on the points, k12_regime and h_assignment, so
`_kernel_layout`, a bounded memo cache, builds them once per key, read-only,
and every assembly over the same points shares them: the sign, the radii,
the values and the node counts leave them as they are. The value part
(`_Assembly`) resolves the radii and pads the slot-factor values per call,
and each pass gathers those of the circles it reads through the plan's
masks. Every numerical pass is done afresh.

Three conventions are switches of `KernelConfig`, and `CONVENTIONS` is the
one table of their choices and of what each does: the K22 sign
(`sign_convention`), the levels whose slot factors the z and w slots of a
K12 entry read (`h_assignment`) and the level rule that puts its w circle
at |zw| < 1 (`k12_regime`). The paper's choice, first in each, was fixed by
agreement with the brute-force oracle; the others remain selectable so the
compare and sweep reports and the tests can show them failing.
"""

import functools
import math
import operator
from dataclasses import dataclass, field, replace
from itertools import accumulate, combinations
from types import SimpleNamespace

import numpy as np

from . import quadrature as quad
from .macdonald import (ContourConditionError, _pair, choose_radii,
                        stated_action_Z, z_partition)
from .macdonald import iterated_action_Z  # noqa: F401 (perfbench traces it here)
from .measures import PointSet
from .pfaffian import pfaffian, schur_pfaffian_matrix

SIGN_PAPER = "paper_zw_minus_1"
SIGN_BR = "borodin_rains_1_minus_zw"
# Each convention switch's choices, the paper's first, and what each does: the
# factor of the K22 block, Borodin-Rains' (1 - zw) being minus the paper's
# (zw - 1); the levels (z slot, w slot) whose slot factors a level-i,
# level-j K12 entry reads, "display" being the misprinted pairing; and the
# rule of (i, j) that puts its w circle at |zw| < 1, "literal" grouping
# i == j with i < j.
CONVENTIONS = {
    "sign_convention": {SIGN_PAPER: 1.0, SIGN_BR: -1.0},
    "h_assignment": {"slot": lambda i, j: (i, j), "display": lambda i, j: (j, i)},
    "k12_regime": {"strict": operator.lt, "literal": operator.le},
}
PAPER_CHOICES = {switch: next(iter(choices)) for switch, choices in CONVENTIONS.items()}


@dataclass
class KernelConfig:
    """A config's `kernel` section: a field it leaves out keeps its default.
    Each switch of `CONVENTIONS` takes one of its choices there and defaults
    to the paper's."""
    quad_tol: float = 1e-8
    start_nodes: int = 64
    max_nodes: int = quad.MAX_NODES_2D
    sign_convention: str = PAPER_CHOICES["sign_convention"]
    h_assignment: str = PAPER_CHOICES["h_assignment"]
    k12_regime: str = PAPER_CHOICES["k12_regime"]
    radii: dict = field(default_factory=dict)

    def validate(self):
        """Raise one ValueError that names every fault, joined by "; "."""
        n = self.start_nodes
        # a tuple of the choices: a value read from a config may be unhashable
        faults = [f"unknown {switch} {getattr(self, switch)!r}"
                  for switch, choices in CONVENTIONS.items()
                  if getattr(self, switch) not in tuple(choices)]
        faults += [fault for bad, fault in (
            (not 0 < self.quad_tol < math.inf, "quad_tol must be positive and finite"),
            (n < 8 or n & (n - 1), "start_nodes must be a power of two >= 8"),
            (self.max_nodes < 2 * n, "max_nodes must allow one doubling of start_nodes"),
        ) if bad]
        if faults:
            raise ValueError("; ".join(faults))


def _radii_at(spec, fr):
    """The four circle radii with k11 and k22 at fraction fr of their
    admissible intervals, (1, 1/max|rho^+|) and (max|x|, 1), and the two k12
    inner radii at the midpoints of theirs against that k11."""
    mx_plus = spec.max_abs_plus()
    mx_all = spec.max_abs()
    r11 = (1 - fr) + fr / mx_plus
    return {
        "k11": r11,
        "k12_w_lt": (mx_plus + 1 / r11) / 2,
        "k12_w_gt": (1 / r11 + 1 / mx_all) / 2,
        "k22": (1 - fr) * mx_all + fr,
    }


def default_radii(spec):
    """Admissible-interval midpoints for the four circle families.

    k11 (outer slots) must exceed 1 but stay below every 1/x pole of the
    rho^+ values; k22 (inner slots) sits between the values and 1; the two
    k12 inner radii realize |zw| < 1 and |zw| > 1 against k11.
    """
    if spec.max_abs_plus() == 0:
        raise ValueError("the kernel radii need at least one rho^+ value")
    return _radii_at(spec, 0.5)


def _resolved_radii(spec, cfg):
    radii = default_radii(spec)
    unknown = sorted(set(cfg.radii or {}) - set(radii))
    if unknown:
        raise ValueError(f"unknown kernel radii {unknown}")
    radii.update(cfg.radii or {})
    mx_plus = spec.max_abs_plus()
    r11 = radii["k11"]
    checks = [
        (r11 > 1, "k11 radius must exceed 1"),
        (0 < radii["k22"] < 1, "k22 radius must lie in (0,1)"),
        (0 < radii["k12_w_lt"] * r11 < 1, "k12_w_lt must realize |zw| < 1"),
        (radii["k12_w_gt"] * r11 > 1, "k12_w_gt must realize |zw| > 1"),
        (radii["k12_w_gt"] * mx_plus < 1, "k12_w_gt must exclude the 1/x poles"),
    ]
    for ok, msg in checks:
        if not ok:
            raise ValueError(f"inadmissible kernel radii: {msg}")
    return radii


def _slot_values(spec):
    """Per level, the (numerator, denominator) value tuples of its slot
    factor, prod (1 - v/z) over the numerator's values v times
    prod 1/(1 - v z) over the denominator's, on the outer circle k11; an
    inner circle swaps the pair."""
    plus_all = sum(spec.rho_plus, ())
    return {lvl: (plus_all + sum(spec.rho_minus[:lvl], ()),
                  sum(spec.rho_plus[lvl - 1:], ()))
            for lvl in range(1, spec.m + 1)}


def _k12_variant(i, j, k12_regime, h_assignment):
    """The w circle of the K12 entry of a level-i and a level-j point,
    k12_w_lt (|zw| < 1) where the level rule of the k12_regime choice holds
    of (i, j) and k12_w_gt otherwise, and the levels (a, b) whose slot
    factors its z and w slots read, in the slot order of the h_assignment
    choice: both are the choices' effects in `CONVENTIONS`."""
    a, b = CONVENTIONS["h_assignment"][h_assignment](i, j)
    lt = CONVENTIONS["k12_regime"][k12_regime](i, j)
    return ("k12_w_lt" if lt else "k12_w_gt"), a, b


_BLOCKS = ("K11", "K12", "K22")
# the circles in column order, and the (z circle, w circle) of the blocks
# K11, K12 at |zw| < 1, K12 at |zw| > 1 and K22
_CIRCLES = ("k11", "k12_w_lt", "k12_w_gt", "k22")
_TABLE = ((0, 0), (0, 1), (0, 2), (3, 3))


def _padded(rows):
    """Value tuples as the rows of one complex array, padded with zeros."""
    width = max(map(len, rows), default=0)
    return np.array([[*values, *[0] * (width - len(values))] for values in rows],
                    dtype=complex).reshape(len(rows), width)


@functools.lru_cache(maxsize=64)
def _kernel_layout(pts, k12_regime, h_assignment):
    """The `_Layout` of the points pts (a tuple of (level, t)) under the two
    switches that place entries on circles, built on the first call per key
    and shared by every assembly over those points after it."""
    return _Layout(pts, k12_regime, h_assignment)


def _frozen(array):
    """array, read-only: a layout's arrays are shared by its assemblies."""
    array.flags.writeable = False
    return array


class _Layout:
    """The integers of every kernel assembly over the points pts: which
    entries each block holds and which columns they read. They depend on the
    points, k12_regime and h_assignment alone, so `_kernel_layout` builds
    them once per key, and every array here is read-only.

    A column is one (level, t) that a block reads on a circle: the level's
    slot factor on that circle times z^{-t}, times 1/(z^2 - 1) on the outer
    circle k11 and 1/z on an inner one. Columns are numbered circle by circle
    in `_CIRCLES` order, and `col_circle`, `col_row` and `col_t` give each
    column's circle, slot-factor row and t; `counts` gives each circle's
    number of columns. A slot-factor row is one (circle, level) of `rows`,
    on the circle `row_circle` gives. `blocks` has a row (z circle, w circle,
    entries, z columns, w columns) for each of the `_TABLE` blocks that
    holds entries: their flat indices 3 (d p + q) + block and the column
    each reads on either circle, counted within the circle: every K12[p,q]
    and K11[p,q] and K22[p,q] with p < q. Other slots stay 0. `plan` gives
    the index part of a pass over some of the blocks, built once per set of
    blocks.
    """

    def __init__(self, pts, k12_regime, h_assignment):
        d = len(pts)
        self.size = 3 * d * d
        # K11 and K22 read the points themselves on k11 and k22. K12 reads,
        # for a level-i and a level-j point, a (level, t) on k11 that depends
        # on the first point and one on its w circle that depends on the
        # second, so its table is built one pair of levels at a time.
        keys = [dict(zip(pts, range(d))) if c in (0, 3) else {}
                for c in range(len(_CIRCLES))]
        p, q = np.array([*combinations(range(d), 2)], dtype=int).reshape(-1, 2).T
        tables = {0: (3 * (d * p + q), p, q), 3: (3 * (d * p + q) + 2, p, q)}
        k12 = {1: ([], [], []), 2: ([], [], [])}  # entries, z and w columns
        at_level = {}
        for p, (i, _) in enumerate(pts):
            at_level.setdefault(i, []).append(p)
        for i, ps in at_level.items():
            for j, qs in at_level.items():
                wc, a, b = _k12_variant(i, j, k12_regime, h_assignment)
                c = _CIRCLES.index(wc)
                entries, zcols, wcols = k12[c]
                zk = [keys[0].setdefault((a, pts[p][1]), len(keys[0])) for p in ps]
                wk = [keys[c].setdefault((b, pts[q][1]), len(keys[c])) for q in qs]
                entries += [3 * (d * p + q) + 1 for p in ps for q in qs]
                zcols += [col for col in zk for _ in qs]
                wcols += wk * len(ps)
        tables.update({c: tuple(map(np.array, table)) for c, table in k12.items()})
        self.blocks = tuple((zc, wc, *map(_frozen, tables[blk]))
                            for blk, (zc, wc) in enumerate(_TABLE)
                            if len(tables[blk][0]))
        rows = {}  # (circle, level) -> slot-factor row
        cols = [(c, rows.setdefault((c, lvl), len(rows)), t)
                for c, circle_keys in enumerate(keys) for lvl, t in circle_keys]
        self.col_circle, self.col_row, self.col_t = map(_frozen, np.array(
            cols, dtype=int).reshape(-1, 3).T)
        self.counts = tuple(len(circle_keys) for circle_keys in keys)
        self.rows = tuple(rows)
        self.row_circle = _frozen(np.array([c for c, _ in rows], dtype=int))
        self._plans = {}

    def plan(self, live):
        """The index arrays of a pass over the blocks numbered `live` (a
        tuple), built on the first call per tuple and kept: the circles they
        read (`circles`, `outer`), the mask `used_rows` of the slot-factor
        rows on those circles, and for those rows and the columns on those circles,
        the circle each is on among them (`row_on`, `col_on`), each column's
        row among them and its -t, the z-side and w-side columns (`zcols`,
        `wcols`) and each z-side column's circle (`zon`); per block, its z
        and w circle among them (`zon_blocks`, `won_blocks`) and in `blocks`
        its entries, its z and w columns, and its circles' columns on either
        side."""
        plan = self._plans.get(live)
        if plan is None:
            plan = self._plans[live] = self._build_plan(live)
        return plan

    def _build_plan(self, live):
        pairs = [self.blocks[k][:2] for k in live]
        circles = np.array(sorted({c for pair in pairs for c in pair}), dtype=int)
        used = np.zeros(len(_CIRCLES), dtype=bool)
        used[circles] = True
        at = np.zeros(len(_CIRCLES), dtype=int)  # index among the used
        at[circles] = np.arange(len(circles))
        rows, cols = used[self.row_circle], used[self.col_circle]
        rank = np.zeros(len(rows), dtype=int)  # a used row's index among them
        rank[rows] = np.arange(rows.sum())
        on = at[self.col_circle[cols]]
        sides = [sorted({pair[s] for pair in pairs}) for s in (0, 1)]
        start = [dict(zip(side, accumulate((self.counts[c] for c in side), initial=0)))
                 for side in sides]
        zcols, wcols = (np.array([c in side for c in circles])[on] for side in sides)
        zc, wc = (np.array([pair[s] for pair in pairs], dtype=int) for s in (0, 1))
        plan = SimpleNamespace(
            circles=circles, outer=circles == 0, used_rows=rows,
            row_on=at[self.row_circle[rows]], col_on=on,
            col_row=rank[self.col_row[cols]], neg_t=-self.col_t[cols],
            zcols=zcols, zon=on[zcols], wcols=wcols, zon_blocks=at[zc],
            won_blocks=at[wc])
        for array in vars(plan).values():
            _frozen(array)
        plan.blocks = tuple(
            (*self.blocks[k][2:],
             slice(start[0][z], start[0][z] + self.counts[z]),
             slice(start[1][w], start[1][w] + self.counts[w]))
            for k, (z, w) in zip(live, pairs))
        return plan


class _Assembly:
    """One kernel assembly over the points pts: the `_Layout` of the points
    under cfg's k12_regime and h_assignment, shared with every other
    assembly over them, and the values of this one: the circles' `radii`
    and `radius`, and each slot-factor row's values as one row of `nums`
    and of `dens`, padded with zeros, whose factors (1 - 0/z) and
    1/(1 - 0 z) are exactly 1. `estimate` is one array pass over every block
    that holds a live entry, which serves the first three node counts on
    the first pass and one count on each later pass; a pass keeps nothing
    of another. `blocks`, `col_circle` and `size` are the layout's.
    `node_evaluations` counts the circle nodes at which slot factors were
    evaluated: each pass's count for every circle it read.
    """

    def __init__(self, spec, pts, cfg):
        self.radii = _resolved_radii(spec, cfg)
        self.radius = np.array([self.radii[c] for c in _CIRCLES])
        self.layout = layout = _kernel_layout(tuple(pts), cfg.k12_regime,
                                              cfg.h_assignment)
        self.size, self.blocks, self.col_circle = (layout.size, layout.blocks,
                                                   layout.col_circle)
        values = _slot_values(spec)
        pairs = [values[lvl][::-1] if c else values[lvl] for c, lvl in layout.rows]
        self.nums = _padded([num for num, _ in pairs])
        self.dens = _padded([den for _, den in pairs])
        self.start_nodes, self.max_nodes = cfg.start_nodes, cfg.max_nodes
        self.node_evaluations = 0

    def _plan(self, live):
        """A pass over the blocks numbered `live` (a tuple): the layout's
        index plan for them, the radii of the circles it reads, and the
        values of its slot-factor rows as (values, 1, rows) arrays."""
        plan = self.layout.plan(live)
        return (plan, self.radius[plan.circles], self.nums[plan.used_rows].T[:, None],
                self.dens[plan.used_rows].T[:, None])

    def _columns(self, z, plan, nums, dens):
        """The unweighted columns of a plan's circles at their nodes z, shape
        (nodes, used circles), from the values nums and dens of its rows:
        every slot-factor row and every column in one broadcast."""
        def product(x):  # of 1 - x over the values, x replaced in place
            return np.prod(np.subtract(1, x, out=x), axis=0)
        zr = z[:, plan.row_on]
        v = product(nums / zr) / product(dens * zr)
        pre = 1 / np.where(plan.outer, z * z - 1, z)
        return v[:, plan.col_row] * z[:, plan.col_on] ** plan.neg_t * pre[:, plan.col_on]

    def estimate(self, k, live):
        """One pass over the blocks that hold an entry that live (a boolean
        array over all 3 d^2 entries) marks, as `quadrature.converge` takes
        it: the list of the entries at n = start_nodes * 2**k nodes per
        circle and, on the first pass (k = 0), at 2n and 4n, each one flat
        array over all the entries, of which only the live ones are to be
        read. The pass evaluates N nodes per circle, the largest count it
        serves: 4n on the first pass, or 2n if 4n exceeds max_nodes, and n on
        a later one.

        Each block is sum_ab A[a, p] C(z_a, w_b) B[b, q] over the weighted
        columns A on its z circle and B on its w circle, C(z, w) being the
        coupling (z - w)/(zw - 1), without the
        N x N grid of the core. The core is -1/z + (z - 1/z) / (zw - 1), and
        on the nodes z_a = r_z omega^a, w_b = r_w omega^b
        (omega = exp(2 pi i/N)) the second denominator depends only on
        (a + b) mod N: h[j] = 1/(r_z r_w omega^j - 1) = 1/(z_j w_0 - 1). The
        Hankel sum over a + b is a convolution, so with h^ = fft(h) the block
        is N ifft(A (z - 1/z))^T diag(h^) ifft(B) plus the rank-one term of
        -1/z: O(N log N) per column (Trefethen & Weideman, SIAM Rev. 56,
        2014). One call gives the nodes and weights of every circle the live
        blocks read, one broadcast their columns, one ifft transforms every
        z-side column and one every w-side column, one fft gives every
        block's h^, and each block is one matrix product.

        The m = N/s nodes of a circle are its N nodes [::s] and their weights
        s times the N-node weights, so the m-node transforms need no new
        evaluation: ifft_m(x[::s]) is ifft_N(x) folded, X.reshape(s, m).sum(0),
        and m fft_m(h[::s]) is N fft_N(h) folded and divided by s^2. The
        factors s of the two iffts and 1/s^2 of h^ cancel in each block, so
        the transforms are folded in half per count and not scaled; the
        rank-one sums are s times sums over the strided rows.
        """
        if not self.size:  # no points
            return [np.zeros(0, dtype=complex)]
        n = N = self.start_nodes << k
        while k == 0 and N < 4 * n and 2 * N <= self.max_nodes:
            N *= 2
        plan, radius, nums, dens = self._plan(tuple(
            b for b, block in enumerate(self.blocks) if live[block[2]].any()))
        z, wz = quad.nodes_weights(quad.ContourSpec((quad.Circle(0j, radius),)),
                                   N, radius.shape)
        A = self._columns(z, plan, nums, dens) * wz[:, plan.col_on]
        self.node_evaluations += z.size
        zi = 1 / z
        strides = [1 << j for j in range((N // n).bit_length())]
        Az = A[:, plan.zcols]
        a = [s * np.einsum("ij,ij->j", zi[::s, plan.zon], Az[::s]) for s in strides]
        Az = np.fft.ifft(Az * (z - zi)[:, plan.zon], axis=0)
        Bw = A[:, plan.wcols]
        b = [s * Bw[::s].sum(axis=0) for s in strides]
        Bw = np.fft.ifft(Bw, axis=0)
        # N is a power of two, so scaling h^ by it is exact
        h_hat = N * np.fft.fft(1 / (z[:, plan.zon_blocks] * z[0, plan.won_blocks] - 1),
                               axis=0)
        out = []
        for s, a_s, b_s in zip(strides, a, b):
            if s > 1:
                Az, Bw, h_hat = (x[:len(x) // 2] + x[len(x) // 2:]
                                 for x in (Az, Bw, h_hat))
            est = np.zeros(self.size, dtype=complex)
            for h, (entries, zcols, wcols, zs, ws) in zip(h_hat.T, plan.blocks):
                block = (Az[:, zs] * h[:, None]).T @ Bw[:, ws] - a_s[zs, None] * b_s[ws]
                est[entries] = block[zcols, wcols]
            out.append(est)
        return out[::-1]


def assemble_kernel(spec, T, cfg=None, full_output=False):
    """The 2d x 2d skew matrix over the points of T, an array ordered
    level-major with listing order within a level.

    The integrals U of K12 and of K11 and K22 above the diagonal come from
    four blocks on four circles (K11 on k11 x k11, K12 on k11 x k12_w_lt and
    k11 x k12_w_gt, K22 on k22 x k22). This is the one place that knows the
    matrix's structure: K11 = U - U^T, K22 = s (U - U^T) with s the sign
    that cfg.sign_convention gives in `CONVENTIONS`, K12 is U and K21 is
    -K12^T, so the matrix is exactly skew and goes to
    `pfaffian` as it is, with no projection (`pfaffian.SkewMatrix` is for
    input that may not be). All circles double their node count together
    from cfg.start_nodes; each integral keeps its estimate and node count
    from the first doubling at which it converges to cfg.quad_tol, as if it
    were summed on its own. The first pass evaluates
    4 x cfg.start_nodes nodes per circle (2 x when cfg.max_nodes allows no
    more) and gives the estimates at the first three counts; each later pass
    evaluates afresh the circles that the blocks with an unconverged entry
    read and gives one doubling. An entry not converged at cfg.max_nodes
    raises QuadratureError naming it. full_output adds the points, the node
    counts of the integrated entries (`nodes`), `max_last_delta`, the
    largest last-doubling delta over them, the four circles' `radii` and
    `node_evaluations`, the circle nodes at which slot factors were
    evaluated: each pass's count for every circle it read, the first pass's
    even where every entry converges at a lower count.
    """
    cfg = cfg or KernelConfig()
    cfg.validate()
    if not isinstance(T, PointSet):
        T = PointSet(T)
    per_level = T.by_level(spec.m)
    pts = [(lvl, t) for lvl in range(1, spec.m + 1) for t in per_level[lvl]]
    d = len(pts)
    asm = _Assembly(spec, pts, cfg)

    def name(e):
        p, q, blk = np.unravel_index(e, (d, d, 3))
        return f"{_BLOCKS[blk]}[{p},{q}]"

    def failure(e, k):
        n = cfg.start_nodes << k
        return f"kernel entry {name(e)} did not converge at ({n}, {n}) nodes"

    value, step, delta = quad.converge(asm.estimate, 3 * d * d, cfg.start_nodes,
                                       cfg.max_nodes, cfg.quad_tol, failure)
    V = np.array(value, dtype=complex).reshape(d, d, 3)
    K = np.zeros((2 * d, 2 * d), dtype=complex)
    K[0::2, 0::2], K[0::2, 1::2], K[1::2, 1::2] = V[..., 0], V[..., 1], V[..., 2]
    K = K - K.T
    K[1::2, 1::2] *= CONVENTIONS["sign_convention"][cfg.sign_convention]
    if not full_output:
        return K
    nodes = {name(e): (cfg.start_nodes << step[e],) * 2
             for block in asm.blocks for e in block[2].tolist()}
    return K, {"points": pts, "nodes": nodes,
               "max_last_delta": float(max(delta, default=0.0)),
               "radii": asm.radii, "node_evaluations": asm.node_evaluations}


def correlation_via_kernel(spec, T, cfg=None, full_output=False):
    """Pfaffian of the assembled kernel; the imaginary part is pure
    quadrature noise and is reported alongside, with the assembled `matrix`
    (an array) and the assembly's `max_last_delta`, the node counts of
    the integrated entries (`nodes`), `radii` and `node_evaluations`.

    full_output also gives `rel_last_delta`, max_last_delta over |value|
    (None when the value is 0). Every entry passes its own absolute test,
    but at deep points the summands grow like r^|t| and the value falls far
    below their errors. Until rows carry an error bar the ratio is a loose
    flag of that, no error estimate: on x = (0.5, 0.25), y = (0.4, 0.2) at
    the one point (1, t) it reads 4.7e-3, 3.7 and 4.3e8 at t = 20, 30 and
    40, where the value is right to 6.1e-10, 3.4e-6 and 6.3e-2 relative."""
    cfg = cfg or KernelConfig()
    if not full_output:
        return pfaffian(assemble_kernel(spec, T, cfg)).real
    K, info = assemble_kernel(spec, T, cfg, full_output=True)
    pf = pfaffian(K)
    out = {"imag_defect": abs(pf.imag), "matrix": K, **{k: info[k] for k in (
        "max_last_delta", "nodes", "radii", "node_evaluations")}}
    out["rel_last_delta"] = (info["max_last_delta"] / abs(pf.real)
                             if pf.real else None)
    return pf.real, out


def with_other_k22_sign(K):
    """The assembled kernel matrix K under the other K22 sign convention: a
    copy with its K22 block negated. `assemble_kernel` applies the sign to
    the K22 block after every integral is accepted, so the other
    convention's assembly gives this matrix up to the sign of a zero, such
    as the diagonal's, which the Pfaffian never reads."""
    K = K.copy()
    K[1::2, 1::2] = -K[1::2, 1::2]
    return K


# ---------------------------------------------------------------------------
# q-coefficient extraction route (single partition, d <= 2)
# ---------------------------------------------------------------------------

def _pick_rq(xs, ys, d):
    """Scan a small grid of q-circle radii and keep, among those whose
    stated contours are admissible (`choose_radii`), the one with the widest
    contour margins."""
    best, best_r1 = None, -1.0
    for rq in (0.45, 0.5, 0.55, 0.6, 0.65, 0.7, 0.75, 0.8):
        try:
            radii = choose_radii([rq] * d, xs, ys)
        except ContourConditionError:
            continue
        if radii[0] > best_r1:
            best, best_r1 = rq, radii[0]
    if best is None:
        raise ContourConditionError("no q-circle radius admits valid contours")
    return best


def correlation_via_q_extraction(X, Y, T, cfg=None, full_output=False):
    """Single-partition correlation as the q-power coefficient of the
    iterated one-row action, extracted by quadrature over q-circles.

    Sites below -n are occupied with probability one and are stripped before
    extraction (the coefficient reading is only valid for t >= -n). The
    stated-contour action is its exact residue sum (`stated_action_Z`), so
    the one quadrature runs over the d <= 2 q-circles. full_output gives the
    stripped sites and `imag_defect` (0.0 when every site is stripped) and
    adds the q-circles' radius `rq` (`_pick_rq`) and the quadrature's
    `nodes` and `last_delta`. A QuadratureError is re-raised naming the
    extraction and its positions, with the same estimates.
    """
    cfg = cfg or KernelConfig()
    xs = [complex(v).real for v in X]
    ys = [complex(v).real for v in Y]
    if len(xs) != len(ys):
        raise ValueError("q-extraction expects |X| = |Y|")
    n = len(xs)
    T_all = [int(t) for t in T]
    T_eff = [t for t in T_all if t >= -n]
    if len(set(T_eff)) != len(T_eff):
        raise ValueError("positions must be distinct")
    d = len(T_eff)
    info = {"stripped_deterministic": sorted(set(T_all) - set(T_eff)),
            "imag_defect": 0.0}
    if d == 0:
        return (1.0, info) if full_output else 1.0
    if d > 2:
        raise ValueError("q-extraction supports d <= 2 positions at or above -n")
    rq = _pick_rq(xs, ys, d)
    Z0 = z_partition(xs, ys)

    def f(*qs):
        v = stated_action_Z(qs, xs, ys) / Z0
        for q, t in zip(qs, T_eff):
            v = v * q ** (-t - n - 1)
        return v

    # the q-circles start low enough to double at least once within the cap,
    # at a power of two however the cap is set
    half_cap = 1 << ((cfg.max_nodes // 2).bit_length() - 1)
    qc = quad.circle(rq, nodes=min(max(32, cfg.start_nodes // 2), half_cap))
    try:
        value, outer = quad.integrate_n(
            f, [qc] * d, tol=max(cfg.quad_tol, 1e-9 if d == 1 else 1e-7),
            max_nodes=cfg.max_nodes, full_output=True)
    except quad.QuadratureError as exc:
        raise exc.naming(f"q-extraction at T={T_eff}") from exc
    info.update(imag_defect=abs(value.imag), rq=rq, **outer)
    return (value.real, info) if full_output else value.real


def verify_principal_pfaffian_factorization(qs, zs):
    """Residual between the coupling-product prefactor and the Pfaffian of
    its skew matrix under the interleaving substitution u = (z_1, 1/(q_1 z_1),
    z_2, ...)."""
    qs = [complex(q) for q in qs]
    zs = [complex(z) for z in zs]
    if len(qs) != len(zs):
        raise ValueError("need matching q and z lists")
    d = len(qs)
    u = []
    for j in range(d):
        u += [zs[j], 1 / (qs[j] * zs[j])]
    # distinct u also keep q_j z_j z_k and q_k z_j z_k off 1 in the pair factor
    for a in range(2 * d):
        for b in range(a + 1, 2 * d):
            if u[a] == u[b]:
                raise ValueError("coincident substitution points")
    prod = 1.0 + 0j
    for j in range(d):
        den = zs[j] - qs[j] * zs[j]
        if den == 0:
            raise ValueError("q_j = 1 makes the diagonal coupling singular")
        prod *= (1 - qs[j] * zs[j] ** 2) / den
    for j in range(d):
        for k in range(j + 1, d):
            den = (zs[j] - qs[k] * zs[k]) * (qs[j] * zs[j] - zs[k]) \
                * (1 - qs[j] * qs[k] * zs[j] * zs[k]) * (1 - zs[j] * zs[k])
            if den == 0:
                raise ValueError("pole coincidence among the z, qz points")
            prod *= _pair(zs[j], zs[k], qs[j], qs[k], with_boundary=True)
    pf = pfaffian(schur_pfaffian_matrix(u))
    return abs(pf - prod) / (abs(prod) + 1.0)


def _inadmissible_radii(spec):
    """The Open Question configuration: a k11 circle enclosing the 1/x poles
    of the rho^+ values."""
    r_bad = 1.15 / min(abs(v) for s in spec.rho_plus for v in s)
    return {"k11": r_bad,
            "k12_w_lt": 1 / (2 * r_bad),
            "k12_w_gt": (1 / r_bad + 1 / spec.max_abs_plus()) / 2,
            "k22": default_radii(spec)["k22"]}


def radius_sweep(spec, T, cfg):
    """Scan kernel radius configurations (k11 and k22 at the fractions 0.25,
    0.5 and 0.75 of their admissible intervals, and a deliberately
    inadmissible k11 that encloses the 1/x poles) at the points T: {"T": the
    points, "rows": one per configuration, its `radii`, `note` and kernel
    `value`, with the `correlation_via_kernel` diagnostics that say how the
    value was obtained: `max_last_delta`, `rel_last_delta`, `nodes` and
    `node_evaluations`}. A configuration whose quadrature does not converge,
    or whose radii or contours are rejected with a ValueError, gives an
    `error` row in place of a value and its diagnostics; any other exception
    propagates. `verify.sweep_radii` judges the rows against the oracle row
    by `verify.judge`, the rule that gives `compare` its verdict."""
    if not isinstance(T, PointSet):
        T = PointSet(T)
    rows = []

    def try_config(radii, note):
        try:
            value, info = correlation_via_kernel(spec, T, replace(cfg, radii=radii),
                                                 full_output=True)
            out = {"value": value, **{k: info[k] for k in (
                "max_last_delta", "rel_last_delta", "nodes", "node_evaluations")}}
        except (quad.QuadratureError, ValueError) as exc:
            out = {"error": str(exc)}
        rows.append({"radii": radii, "note": note, **out})

    for fr in (0.25, 0.5, 0.75):
        try_config(_radii_at(spec, fr), f"admissible fraction {fr:.2f}")
    try_config(_inadmissible_radii(spec),
               "k11 encloses 1/x poles (inadmissible reading)")
    return {"T": T.to_json(), "rows": rows}
