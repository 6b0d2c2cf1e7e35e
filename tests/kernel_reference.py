"""The reference the kernel assembly is tested against: every entry as its
trapezoid sum on the dense n x n grid.

Entry e of `kernels.assemble_kernel`'s flat order, 3 (d p + q) + block for
the blocks K11, K12 and K22 of points p and q, is the double contour integral
(1/2 pi i)^2 oint oint g(z) (z - w)/(zw - 1) h(w) dz dw over two
origin-centered circles, where a column g or h is a level's slot factor times
z^{-t}, times 1/(z^2 - 1) on the outer circle k11 and 1/z on an inner one.
`dense` sums it with `quadrature.estimate_bilinear` on the full grid of both
circles' nodes, from slot factors built here (`_rational`) on each level's
marginal (`ProcessSpec.level`): numerator x + y and denominator x on k11,
swapped on an inner circle; `kernels._Assembly` sums the same grid by FFT
without building it. Both sum the integrals alone: the K22 sign and
the skew completion are `assemble_kernel`'s. `dense` sums all 3 d^2
entries, the skew partners and the diagonal included; `reference` runs the
dense sums of the entries the assembly integrates (`integrated`) through
`quadrature.converge` as `assemble_kernel` runs the FFT sums, so the two
accept each entry at the same doubling and fail on the same entry. The
points are level-major, with listing order within a level.
"""

import numpy as np

from pfschur import kernels
from pfschur import quadrature as quad


def _rational(z, nums, dens):
    v = np.ones_like(z)
    for zeta in nums:
        v = v * (1 - zeta / z)
    for zeta in dens:
        v = v / (1 - zeta * z)
    return v


def _core(z, w):
    """The coupling factor shared by all three blocks; the rest of each
    block's coupling depends on z or on w alone."""
    return (z - w) / (z * w - 1)


def _groups(spec, pts, cfg):
    """The entries grouped by the two circles they are summed on, as rows
    (z radius, w radius, flat entries, z columns, w columns), a column being
    a function of a node vector."""
    radii = kernels._resolved_radii(spec, cfg)

    def outer(lvl, t):
        x, y = spec.level(lvl)
        return lambda z: _rational(z, x + y, x) * z ** (-t) / (z * z - 1)

    def inner(lvl, t):
        x, y = spec.level(lvl)  # an inner circle swaps the outer pair
        return lambda z: _rational(z, x, x + y) * z ** (-t) / z
    groups = {}  # (z circle, w circle) -> [(entry, z column, w column)]
    d = len(pts)
    for p, (i, ti) in enumerate(pts):
        for q, (j, tj) in enumerate(pts):
            wc, a, b = kernels._k12_variant(i, j, cfg.k12_regime, cfg.h_assignment)
            e = 3 * (d * p + q)
            for key, entry in ((("k11", "k11"), (e, outer(i, ti), outer(j, tj))),
                               (("k11", wc), (e + 1, outer(a, ti), inner(b, tj))),
                               (("k22", "k22"), (e + 2, inner(i, ti), inner(j, tj)))):
                groups.setdefault(key, []).append(entry)
    rows = []
    for (zc, wc), group in groups.items():
        entries, gz, gw = zip(*group)
        rows.append((radii[zc], radii[wc], np.array(entries),
                     np.array(gz, dtype=object), np.array(gw, dtype=object)))
    return rows


def integrated(d):
    """Which of the 3 d^2 flat entries `assemble_kernel` integrates: every
    K12 entry, and the K11 and K22 entries above the diagonal."""
    p, q, block = np.unravel_index(np.arange(3 * d * d), (d, d, 3))
    return (block == 1) | (p < q)


def _stack(columns):
    """The columns as one function of a node vector, of shape
    (nodes, columns)."""
    return lambda z: np.stack([f(z) for f in columns], axis=1)


def _sums(groups, size, n, live):
    """The entries that live marks at n nodes per circle, in one flat array
    of `size`; the others are 0."""
    est = np.zeros(size, dtype=complex)
    for rz, rw, entries, gz, gw in groups:
        keep = live[entries]
        if keep.any():
            est[entries[keep]] = quad.estimate_bilinear(
                _core, _stack(gz[keep]), _stack(gw[keep]),
                quad.nodes_weights(quad.circle(rz), n, ()),
                quad.nodes_weights(quad.circle(rw), n, ()))
    return est


def dense(spec, pts, cfg, n):
    """Every entry at n nodes per circle, and for each entry the sum of the
    moduli of its n^2 summands: the scale of its rounding error."""
    groups = _groups(spec, pts, cfg)
    size = 3 * len(pts) ** 2
    scale = np.zeros(size)
    for rz, rw, entries, gz, gw in groups:
        (z, wz), (w, ww) = (quad.nodes_weights(quad.circle(r), n, ()) for r in (rz, rw))
        A = np.abs(_stack(gz)(z) * wz[:, None])
        B = np.abs(_stack(gw)(w) * ww[:, None])
        scale[entries] = np.einsum("ae,ab,be->e", A,
                                   np.abs(_core(z[:, None], w[None, :])), B)
    return _sums(groups, size, n, np.ones(size, dtype=bool)), scale


def reference(spec, pts, cfg):
    """The dense sums of the `integrated` entries doubled from
    cfg.start_nodes under `quadrature.converge` as `assemble_kernel` doubles
    its own: lists of each entry's accepted value (0 where not integrated),
    the doubling at which it was accepted and its last-doubling delta.
    An entry not converged at cfg.max_nodes raises the QuadratureError that
    `assemble_kernel` raises for it: the same message, with the dense last
    two estimates."""
    groups = _groups(spec, pts, cfg)
    d = len(pts)
    kept = integrated(d)

    def failure(e, k):
        p, q, blk = np.unravel_index(e, (d, d, 3))
        n = cfg.start_nodes << k
        return (f"kernel entry {kernels._BLOCKS[blk]}[{p},{q}] did not converge "
                f"at ({n}, {n}) nodes")
    return quad.converge(
        lambda k, live: [_sums(groups, 3 * d * d, cfg.start_nodes << k, live & kept)],
        3 * d * d, cfg.start_nodes, cfg.max_nodes, cfg.quad_tol, failure)
