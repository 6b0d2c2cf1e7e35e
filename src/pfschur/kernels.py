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
k12_w_lt or the k12_w_gt circle. Every coupling is (z - w)/(zw - 1) times
factors of z alone and of w alone, so a block is the bilinear form
G_z^T (W C W) G_w whose columns are the points' slot factors and powers;
K21 is -K12^T. Each circle's nodes and weighted columns are computed once
per node count and shared by the blocks that read them (K11 and both K12
blocks read the k11 circle). On trapezoid nodes of origin-centered circles
the core C is a rank-one term plus a Hankel matrix, so each block is summed
by FFT in O(n log n) per column, with no n x n array (`_coupled_block`; the
dense `_core` is its tested reference). The node count doubles for all
circles together, each entry is accepted at the first doubling where it
converges, and a block, or a circle no open block reads, is no longer
evaluated once every entry on it has converged.
`kernel_entry_process` keeps the literal per-entry integrand on
`quadrature.integrate2` as the independent check.

Every convention here (signs, the strict dichotomy, the per-slot level
assignment of the rational factors) was fixed by agreement with the
brute-force oracle; the alternatives remain selectable so the compare and
sweep reports can show them failing.
"""

import math
from dataclasses import dataclass, field, replace

import numpy as np

from . import quadrature as quad
from .macdonald import (ContourConditionError, _pair, choose_radii,
                        stated_action_Z, z_partition)
from .macdonald import iterated_action_Z  # noqa: F401 (perfbench traces it here)
from .measures import PointSet, ProcessSpec
from .pfaffian import SkewMatrix, pfaffian, schur_pfaffian_matrix
from .symfunc import Specialization

SIGN_PAPER = "paper_zw_minus_1"
SIGN_BR = "borodin_rains_1_minus_zw"


@dataclass
class KernelConfig:
    """A config's `kernel` section: a field it leaves out keeps its default."""
    quad_tol: float = 1e-8
    start_nodes: int = 64
    max_nodes: int = quad.MAX_NODES_2D
    sign_convention: str = SIGN_PAPER
    h_assignment: str = "slot"      # "display" reproduces the misprinted pairing
    k12_regime: str = "strict"      # "literal" groups i == j with |zw| < 1
    radii: dict = field(default_factory=dict)

    def validate(self):
        if self.sign_convention not in (SIGN_PAPER, SIGN_BR):
            raise ValueError(f"unknown sign convention {self.sign_convention!r}")
        if self.h_assignment not in ("slot", "display"):
            raise ValueError(f"unknown h_assignment {self.h_assignment!r}")
        if self.k12_regime not in ("strict", "literal"):
            raise ValueError(f"unknown k12_regime {self.k12_regime!r}")
        if not 0 < self.quad_tol < math.inf:
            raise ValueError("quad_tol must be positive and finite")
        n = self.start_nodes
        if n < 8 or n & (n - 1):
            raise ValueError("start_nodes must be a power of two >= 8")
        if self.max_nodes < 2 * n:
            raise ValueError("max_nodes must allow one doubling of start_nodes")


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
    mx_plus = spec.max_abs_plus()
    if mx_plus == 0:
        raise ValueError("the kernel radii need at least one rho^+ value")
    if mx_plus >= 1:
        raise ValueError("specialization values must lie below 1")
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
    """Per-level value tuples for the two slot factors."""
    m = spec.m
    plus_all = tuple(v for s in spec.rho_plus for v in s.values)
    num1, den1, num2, den2 = {}, {}, {}, {}
    for lvl in range(1, m + 1):
        tail = tuple(v for s in spec.rho_plus[lvl - 1:] for v in s.values)
        minus_below = tuple(v for s in spec.rho_minus[:lvl] for v in s.values)
        num1[lvl] = plus_all + minus_below
        den1[lvl] = tail
        num2[lvl] = tail
        den2[lvl] = plus_all + minus_below
    return num1, den1, num2, den2


def _rational(z, nums, dens):
    v = np.ones_like(z)
    for zeta in nums:
        v = v * (1 - zeta / z)
    for zeta in dens:
        v = v / (1 - zeta * z)
    return v


def _entry_integral(kind, ti, tj, fz, fw, rz, rw, cfg, sign=1.0):
    """Shared quadrature driver; kind selects the coupling prefactor."""
    if kind == "K11":
        def f(z, w):
            return (sign * (z - w) / ((z * z - 1) * (w * w - 1) * (z * w - 1))
                    * fz(z) * fw(w) * z ** (-ti) * w ** (-tj))
    elif kind == "K12":
        def f(z, w):
            return (sign * (z - w) / (w * (z * z - 1) * (z * w - 1))
                    * fz(z) * fw(w) * z ** (-ti) * w ** (-tj))
    else:  # K22
        def f(z, w):
            return (sign * (z - w) / (z * w * (z * w - 1))
                    * fz(z) * fw(w) * z ** (-ti) * w ** (-tj))
    cz = quad.circle(rz, nodes=cfg.start_nodes)
    cw = quad.circle(rw, nodes=cfg.start_nodes)
    return quad.integrate2(f, cz, cw, tol=cfg.quad_tol,
                           max_nodes=cfg.max_nodes, full_output=True)


def kernel_entry_process(which, i, u, j, v, spec, T, cfg=None, full_output=False):
    """One 2x2-block entry of the process kernel for points (i, u) and (j, v),
    where u, v index the positions listed at levels i and j (1-based)."""
    cfg = cfg or KernelConfig()
    cfg.validate()
    if not isinstance(T, PointSet):
        T = PointSet(T)
    per_level = T.by_level(spec.m)
    ti = per_level[i][u - 1]
    tj = per_level[j][v - 1]
    value, info = _kernel_entry(which, i, ti, j, tj, spec, cfg)
    return (value, info) if full_output else value


def _k22_sign(cfg):
    """The K22 coupling's sign: +1 under the paper's (zw - 1), -1 under
    Borodin-Rains' (1 - zw)."""
    return 1.0 if cfg.sign_convention == SIGN_PAPER else -1.0


def _k12_variant(i, j, cfg):
    """The w circle of the K12 entry of a level-i and a level-j point,
    k12_w_lt (|zw| < 1) for i < j (i <= j under the "literal" k12_regime)
    and k12_w_gt otherwise, and the levels whose slot factors its z and w
    slots read, (i, j) or under the "display" h_assignment (j, i)."""
    lt = i < j if cfg.k12_regime == "strict" else i <= j
    a, b = (i, j) if cfg.h_assignment == "slot" else (j, i)
    return ("k12_w_lt" if lt else "k12_w_gt"), a, b


def _kernel_entry(which, i, ti, j, tj, spec, cfg):
    radii = _resolved_radii(spec, cfg)
    num1, den1, num2, den2 = _slot_values(spec)
    if which == "K21":
        value, info = _kernel_entry("K12", j, tj, i, ti, spec, cfg)
        return -value, info
    if which == "K11":
        fz = lambda z: _rational(z, num1[i], den1[i])
        fw = lambda w: _rational(w, num1[j], den1[j])
        value, info = _entry_integral("K11", ti, tj, fz, fw,
                                      radii["k11"], radii["k11"], cfg)
    elif which == "K22":
        fz = lambda z: _rational(z, num2[i], den2[i])
        fw = lambda w: _rational(w, num2[j], den2[j])
        value, info = _entry_integral("K22", ti, tj, fz, fw, radii["k22"],
                                      radii["k22"], cfg, _k22_sign(cfg))
    elif which == "K12":
        wc, a, b = _k12_variant(i, j, cfg)
        fz = lambda z: _rational(z, num1[a], den1[a])
        fw = lambda w: _rational(w, num2[b], den2[b])
        value, info = _entry_integral("K12", ti, tj, fz, fw,
                                      radii["k11"], radii[wc], cfg)
    else:
        raise ValueError(f"unknown kernel block {which!r}")
    return value, info


def kernel_entry_single(which, k, l, X, Y, T, cfg=None, full_output=False):
    """Single-partition kernel entry for points t_k, t_l of T (1-based k, l).

    Wraps the process kernel at m = 1 with rho^+ = X, rho^- = Y. The
    Pfaffian representation is derived under n = |X| = |Y| > max(d, d - min T);
    violations are reported in the info dict, not rejected, because the
    kernel route remains numerically exact beyond that bound.
    """
    cfg = cfg or KernelConfig()
    X = X if isinstance(X, Specialization) else Specialization(X)
    Y = Y if isinstance(Y, Specialization) else Specialization(Y)
    if len(X) != len(Y):
        raise ValueError("the single-partition kernel expects |X| = |Y|")
    spec = ProcessSpec([X], [Y])
    T = [int(t) for t in T]
    pts = PointSet([(1, t) for t in T])
    value, info = kernel_entry_process(which, 1, k, 1, l, spec, pts, cfg,
                                       full_output=True)
    n, d = len(X), len(T)
    if n <= max(d, d - min(T)):
        info = dict(info)
        info["hypothesis_warning"] = (
            f"n={n} <= max(d, d - min T)={max(d, d - min(T))}")
    return (value, info) if full_output else value


def _core(z, w):
    """The coupling factor shared by all three blocks; the rest of each
    block's coupling depends on z or on w alone. `_coupled_block` sums it in
    FFT form; this dense form is the reference that form is tested against."""
    return (z - w) / (z * w - 1)


def _columns(z, keys, side, factors):
    """One column per (level, t) key: the level's slot factor times z^{-t},
    times 1/(z^2 - 1) on an outer slot and 1/z on an inner one."""
    rational = {lvl: _rational(z, *factors[side][lvl])
                for lvl in {lvl for lvl, _ in keys}}
    pre = 1 / (z * z - 1) if side == "outer" else 1 / z
    return np.stack([rational[lvl] * z ** (-t) * pre for lvl, t in keys], axis=1)


def _coupled_block(zside, wside):
    """sum_ab A[a, p] _core(z_a, w_b) B[b, q] on n trapezoid nodes of two
    origin-centered circles, without the n x n grid of the core, from the
    z side (z, ifft(A (z - 1/z)), (1/z) A) and the w side (w, ifft(B),
    column sums of B). Each side depends on one circle only, so blocks that
    share a circle share it.

    The core is -1/z + (z - 1/z) / (zw - 1), and on the nodes
    z_a = r_z omega^a, w_b = r_w omega^b (omega = exp(2 pi i/n)) the second
    denominator depends only on (a + b) mod n:
    h[j] = 1/(r_z r_w omega^j - 1) = 1/(z_j w_0 - 1). The Hankel sum over
    a + b is a convolution, so with h^ = fft(h) the block is
    n ifft(A (z - 1/z))^T diag(h^) ifft(B) plus the rank-one term of -1/z:
    O(n log n) per column (Trefethen & Weideman, SIAM Rev. 56, 2014).
    """
    (z, Az, a), (w, Bw, b) = zside, wside
    h_hat = np.fft.fft(1 / (z * w[0] - 1))
    return len(z) * (Az * h_hat[:, None]).T @ Bw - np.outer(a, b)


_BLOCKS = ("K11", "K12", "K22")


def _layout(spec, pts, cfg):
    """The circles and the block table of an assembly over the points pts,
    and the slot factors their columns read.

    `circles` maps each circle a block reads (k11 outer; k22, k12_w_lt and
    k12_w_gt inner) to (radius, side, keys), keys being the distinct
    (level, t) whose columns its blocks read. The table has a row (z circle,
    w circle, sign, entries, z columns, w columns) for each of K11, K12 at
    |zw| < 1, K12 at |zw| > 1 and K22 that holds entries: their flat indices
    3 * (d * p + q) + block and the column each reads on either circle.
    """
    d = len(pts)
    radii = _resolved_radii(spec, cfg)
    num1, den1, num2, den2 = _slot_values(spec)
    factors = {"outer": {lvl: (num1[lvl], den1[lvl]) for lvl in num1},
               "inner": {lvl: (num2[lvl], den2[lvl]) for lvl in num2}}
    columns = {c: {} for c in radii}  # per circle, (level, t) -> column
    table = {(zc, wc): (s, [], [], []) for zc, wc, s in (
        ("k11", "k11", 1.0), ("k11", "k12_w_lt", 1.0),
        ("k11", "k12_w_gt", 1.0), ("k22", "k22", _k22_sign(cfg)))}

    def add(zc, wc, e, zkey, wkey):
        _, entries, zcols, wcols = table[zc, wc]
        entries.append(e)
        zcols.append(columns[zc].setdefault(zkey, len(columns[zc])))
        wcols.append(columns[wc].setdefault(wkey, len(columns[wc])))

    for p, (i, ti) in enumerate(pts):
        for q, (j, tj) in enumerate(pts):
            e = 3 * (d * p + q)
            wc, a, b = _k12_variant(i, j, cfg)
            add("k11", "k11", e, (i, ti), (j, tj))
            add("k11", wc, e + 1, (a, ti), (b, tj))
            add("k22", "k22", e + 2, (i, ti), (j, tj))
    circles = {c: (radii[c], "outer" if c == "k11" else "inner", list(keys))
               for c, keys in columns.items() if keys}
    return circles, [(zc, wc, *row) for (zc, wc), row in table.items()
                     if row[1]], factors


def _estimate(n, live, circles, table, factors):
    """The entries of every block that holds a live entry, at n nodes per
    circle, in one flat array over all 3 d^2 entries (0 for the others).
    A circle's nodes, weights and weighted columns, and each of its sides
    for `_coupled_block`, are computed once, and only if such a block reads
    them."""
    est = np.zeros(sum(len(row[3]) for row in table), dtype=complex)
    cols, sides = {}, {}  # circle -> nodes, columns; (circle, "z"/"w") -> side

    def side(c, s):
        if c not in cols:
            r, slot, keys = circles[c]
            z, wz = quad.nodes_weights(quad.Circle(0j, r), n)
            cols[c] = z, _columns(z, keys, slot, factors) * wz[:, None]
        if (c, s) not in sides:
            z, A = cols[c]
            if s == "z":
                Az = np.fft.ifft(A * (z - 1 / z)[:, None], axis=0)
                sides[c, s] = z, Az, (1 / z) @ A
            else:
                sides[c, s] = z, np.fft.ifft(A, axis=0), A.sum(axis=0)
        return sides[c, s]

    for zc, wc, sign, entries, zcols, wcols in table:
        if not live.isdisjoint(entries):
            block = _coupled_block(side(zc, "z"), side(wc, "w"))
            est[entries] = sign * block[zcols, wcols]
    return est


def assemble_kernel(spec, T, cfg=None, full_output=False):
    """The 2d x 2d skew matrix over the points of T, ordered level-major with
    listing order within a level.

    The K11, K12 and K22 entries come from four blocks on four circles (K11
    on k11 x k11, K12 on k11 x k12_w_lt and k11 x k12_w_gt, K22 on
    k22 x k22) and K21 is -K12^T. All circles double their node count
    together from cfg.start_nodes; each entry keeps its estimate and node
    count from the first doubling at which it converges to cfg.quad_tol, so
    the per-entry `nodes` match the per-entry route. An entry not converged
    at cfg.max_nodes raises QuadratureError naming it. full_output adds the
    points, the per-entry node counts, the skew projection defect and
    `max_last_delta`, the largest last-doubling delta over all entries.
    """
    cfg = cfg or KernelConfig()
    cfg.validate()
    if not isinstance(T, PointSet):
        T = PointSet(T)
    per_level = T.by_level(spec.m)
    pts = [(lvl, t) for lvl in range(1, spec.m + 1) for t in per_level[lvl]]
    d = len(pts)
    circles, table, factors = _layout(spec, pts, cfg)

    def estimate(k, live):
        return _estimate(cfg.start_nodes << k, live, circles, table, factors)

    def failure(e, k):
        p, q, blk = np.unravel_index(e, (d, d, 3))
        n = cfg.start_nodes << k
        return (f"kernel entry {_BLOCKS[blk]}[{p},{q}] did not converge "
                f"at ({n}, {n}) nodes")

    value, step, delta = quad.converge(estimate, 3 * d * d, cfg.start_nodes,
                                       cfg.max_nodes, cfg.quad_tol, failure)
    V = np.array(value, dtype=complex).reshape(d, d, 3)
    K = np.zeros((2 * d, 2 * d), dtype=complex)
    K[0::2, 0::2], K[0::2, 1::2], K[1::2, 1::2] = V[..., 0], V[..., 1], V[..., 2]
    K[1::2, 0::2] = -V[..., 1].T
    S = SkewMatrix(K)
    if not full_output:
        return S

    def nodes_at(p, q, blk):
        return (cfg.start_nodes << step[3 * (d * p + q) + blk],) * 2
    nodes = {f"{which}[{p},{q}]": nodes_at(q, p, 1) if which == "K21"
             else nodes_at(p, q, blk)
             for p in range(d) for q in range(d)
             for which, blk in (("K11", 0), ("K12", 1), ("K21", 1), ("K22", 2))}
    return S, {"points": pts, "nodes": nodes, "defect": S.defect,
               "max_last_delta": float(max(delta, default=0.0))}


def correlation_via_kernel(spec, T, cfg=None, full_output=False):
    """Pfaffian of the assembled kernel; the imaginary part is pure
    quadrature noise and is reported alongside."""
    cfg = cfg or KernelConfig()
    if not isinstance(T, PointSet):
        T = PointSet(T)
    if not T.points:
        return ((1.0, {"imag_defect": 0.0, "defect": 0.0, "max_last_delta": 0.0,
                       "nodes": {}}) if full_output else 1.0)
    S, info = assemble_kernel(spec, T, cfg, full_output=True)
    pf = pfaffian(S)
    out = {"imag_defect": abs(pf.imag), "defect": info["defect"],
           "max_last_delta": info["max_last_delta"], "nodes": info["nodes"]}
    return (pf.real, out) if full_output else pf.real


# ---------------------------------------------------------------------------
# q-coefficient extraction route (single partition, d <= 2)
# ---------------------------------------------------------------------------

def _pick_rq(xs, ys, d):
    """Scan a small grid of q-circle radii and keep the one with the widest
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


def correlation_via_q_extraction(X, Y, T, cfg=None, rq=None, full_output=False):
    """Single-partition correlation as the q-power coefficient of the
    iterated one-row action, extracted by quadrature over q-circles.

    Sites below -n are occupied with probability one and are stripped before
    extraction (the coefficient reading is only valid for t >= -n). The
    stated-contour action is its exact residue sum (`stated_action_Z`), so
    the one quadrature runs over the d <= 2 q-circles. full_output gives the
    stripped sites and `imag_defect` (0.0 when every site is stripped) and
    adds the q-circles' radius `rq` and the quadrature's `nodes` and
    `last_delta`. A QuadratureError is re-raised naming the extraction and
    its positions, with the same estimates.
    """
    cfg = cfg or KernelConfig()
    X = X if isinstance(X, Specialization) else Specialization(X)
    Y = Y if isinstance(Y, Specialization) else Specialization(Y)
    if len(X) != len(Y):
        raise ValueError("q-extraction expects |X| = |Y|")
    xs = [v.real for v in X.values]
    ys = [v.real for v in Y.values]
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
    if rq is None:
        rq = _pick_rq(xs, ys, d)
    choose_radii([rq] * d, xs, ys)  # the stated contours must be admissible
    Z0 = z_partition(xs, ys)

    def f(*qs):
        v = stated_action_Z(qs, xs, ys) / Z0
        for q, t in zip(qs, T_eff):
            v = v * q ** (-t - n - 1)
        return v

    # the q-circles start low enough to double at least once within the cap
    qc = quad.circle(rq, nodes=min(max(32, cfg.start_nodes // 2), cfg.max_nodes // 2))
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
    r_bad = 1.15 / min(abs(v) for s in spec.rho_plus for v in s.values)
    return {"k11": r_bad,
            "k12_w_lt": 1 / (2 * r_bad),
            "k12_w_gt": (1 / r_bad + 1 / spec.max_abs_plus()) / 2,
            "k22": default_radii(spec)["k22"]}


def radius_sweep(spec, T, cfg, oracle_value, samples=3):
    """Scan kernel radius configurations (including a deliberately
    inadmissible k11 that encloses the 1/x poles) and report each one's
    agreement with oracle_value, the enumeration oracle's correlation of T.
    A configuration whose quadrature does not converge, or whose radii or
    contours are rejected with a ValueError, is an error row; any other
    exception propagates."""
    rows = []

    def try_config(radii, note):
        try:
            value = correlation_via_kernel(spec, T, replace(cfg, radii=radii))
        except (quad.QuadratureError, ValueError) as exc:
            rows.append({"radii": radii, "note": note, "error": str(exc),
                         "pass": False})
            return
        delta = abs(value - oracle_value)
        rows.append({"radii": radii, "note": note, "value": value,
                     "delta": delta, "pass": bool(delta < 1e-3)})

    for fr in np.linspace(0.25, 0.75, samples):
        try_config(_radii_at(spec, fr), f"admissible fraction {fr:.2f}")
    try_config(_inadmissible_radii(spec),
               "k11 encloses 1/x poles (inadmissible reading)")
    return {"oracle": oracle_value, "rows": rows}
