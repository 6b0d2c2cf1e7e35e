"""The FFT form of the kernel blocks against the dense core product.

`kernels._estimate` evaluates each circle's weighted slot columns once and
sums every block's coupling (z - w)/(zw - 1) on them as a rank-one term plus
a Hankel convolution (`kernels._coupled_block`); `quadrature.estimate_bilinear`
with `kernels._core` evaluates the same trapezoid sum on the dense n x n grid.
"""

import tracemalloc
from collections import Counter

import numpy as np
import pytest

from pfschur import kernels
from pfschur import quadrature as quad
from pfschur.kernels import SIGN_BR, KernelConfig
from pfschur.measures import PointSet, ProcessSpec

SPEC = ProcessSpec([[0.4, 0.2], [0.3]], [[0.35], [0.25, 0.1]])
# level-major, with points at both levels so both K12 blocks hold entries
PTS = [(1, 0), (1, -3), (2, 2), (2, -5)]
RADII = {"default": {}, "inadmissible": kernels._inadmissible_radii(SPEC)}
ALL = set(range(3 * len(PTS) ** 2))


def _dense(circles, row, n, factors):
    """A block's entries from the dense core, and for each entry the sum of
    the moduli of its n^2 summands: the scale of its rounding error."""
    zc, wc, sign, _, zcols, wcols = row
    (rz, zside, zkeys), (rw, wside, wkeys) = circles[zc], circles[wc]
    # one column pair per entry of the block
    R = quad.estimate_bilinear(
        kernels._core, lambda z: kernels._columns(z, zkeys, zside, factors)[:, zcols],
        lambda w: kernels._columns(w, wkeys, wside, factors)[:, wcols],
        quad.circle(rz), quad.circle(rw), n, n)
    (z, wz), (w, ww) = (quad.nodes_weights(quad.Circle(0j, r), n)
                        for r in (rz, rw))
    A = np.abs(kernels._columns(z, zkeys, zside, factors) * wz[:, None])
    B = np.abs(kernels._columns(w, wkeys, wside, factors) * ww[:, None])
    scale = A.T @ np.abs(kernels._core(z[:, None], w[None, :])) @ B
    return sign * R, scale[zcols, wcols]


@pytest.mark.parametrize("n", [64, 256, 1024])
@pytest.mark.parametrize("radii", RADII)
def test_fft_grids_match_the_dense_core(radii, n):
    cfg = KernelConfig(sign_convention=SIGN_BR, radii=RADII[radii])
    circles, table, factors = kernels._layout(SPEC, PTS, cfg)
    # K11, K12 at |zw| < 1, K12 at |zw| > 1, K22
    assert [row[:2] for row in table] == [("k11", "k11"), ("k11", "k12_w_lt"),
                                          ("k11", "k12_w_gt"), ("k22", "k22")]
    r11 = circles["k11"][0]
    assert r11 * circles["k12_w_lt"][0] < 1 < r11 * circles["k12_w_gt"][0]
    fft = kernels._estimate(n, ALL, circles, table, factors)
    for row in table:
        entries = row[3]
        dense, scale = _dense(circles, row, n, factors)
        assert len(entries) > 0
        # relative to the summands: under the inadmissible reading every K11
        # entry is 0 analytically, and both sums are rounding noise
        assert np.all(np.abs(fft[entries] - dense) <= 1e-12 * scale)


def test_fft_grid_builds_no_node_by_node_array():
    circles, table, factors = kernels._layout(SPEC, PTS, KernelConfig())
    k11 = set(table[0][3])  # the K11 block alone reads only the k11 circle
    kernels._estimate(64, k11, circles, table, factors)  # numpy's FFT plan caches fill
    tracemalloc.start()
    try:
        kernels._estimate(8192, k11, circles, table, factors)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # a dense 8192 x 8192 complex grid is 1 GiB, a 2**21-element row block 32 MiB
    assert peak < 4 * 2 ** 20


def test_each_circle_is_evaluated_once_per_doubling(monkeypatch):
    calls = []
    columns, nodes_weights = kernels._columns, quad.nodes_weights

    def spy_columns(z, keys, side, factors):
        calls.append(("columns", len(z), abs(z[0])))
        return columns(z, keys, side, factors)

    def spy_nodes_weights(c, n):
        calls.append(("nodes_weights", n, c.radius))
        return nodes_weights(c, n)
    monkeypatch.setattr(kernels, "_columns", spy_columns)
    monkeypatch.setattr(quad, "nodes_weights", spy_nodes_weights)
    kernels.assemble_kernel(SPEC, PointSet(PTS), KernelConfig())
    # no circle twice at one node count, and all four read at the first
    assert len(calls) == len(set(calls))
    per_doubling = Counter((what, n) for what, n, _ in calls)
    assert per_doubling[("columns", 64)] == per_doubling[("nodes_weights", 64)] == 4
    assert len(per_doubling) >= 4  # at least one doubling of each


def test_each_circle_side_is_transformed_once_per_doubling(monkeypatch):
    # K11 and both K12 blocks read the k11 circle's z side, K11 also its w
    # side: 6 distinct transforms for the 4 blocks, not 2 per block
    spec = ProcessSpec([[0.4, 0.2], [0.3]], [[0.35], [0.25, 0.1]])
    pts = [(1, 0), (1, 2), (2, -1), (2, 1)]
    circles, table, factors = kernels._layout(spec, pts, KernelConfig())
    assert len(table) == 4
    sizes, ifft = [], np.fft.ifft

    def spy(a, *args, **kwargs):
        sizes.append(len(a))
        return ifft(a, *args, **kwargs)
    monkeypatch.setattr(np.fft, "ifft", spy)
    kernels._estimate(64, set(range(3 * len(pts) ** 2)), circles, table, factors)
    assert sizes == [64] * 6
