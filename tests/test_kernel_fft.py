"""The FFT form of the kernel's node grids against the dense core product.

`_Grid.estimate` sums the coupling (z - w)/(zw - 1) as a rank-one term plus
a Hankel convolution; `quadrature.estimate_bilinear` with `kernels._core`
evaluates the same trapezoid sum on the dense n x n grid.
"""

import tracemalloc

import numpy as np
import pytest

from pfschur import kernels
from pfschur import quadrature as quad
from pfschur.kernels import SIGN_BR, KernelConfig
from pfschur.measures import ProcessSpec

SPEC = ProcessSpec([[0.4, 0.2], [0.3]], [[0.35], [0.25, 0.1]])
# level-major, with points at both levels so both K12 grids hold entries
PTS = [(1, 0), (1, -3), (2, 2), (2, -5)]
RADII = {"default": {}, "inadmissible": kernels._inadmissible_radii(SPEC)}


def _dense(grid, n, factors):
    """The grid's entries from the dense core, and for each entry the sum of
    the moduli of its n^2 summands: the scale of its rounding error."""
    sides, cells = grid.sides, grid.cells
    zkeys, wkeys = (list(keys) for keys in grid.keys)
    R = quad.estimate_bilinear(
        kernels._core, lambda z: kernels._columns(z, zkeys, sides[0], factors),
        lambda w: kernels._columns(w, wkeys, sides[1], factors),
        quad.circle(grid.radii[0]), quad.circle(grid.radii[1]), n, n)
    (z, wz), (w, ww) = (quad.nodes_weights(quad.Circle(0j, r), n)
                        for r in grid.radii)
    A = np.abs(kernels._columns(z, zkeys, sides[0], factors) * wz[:, None])
    B = np.abs(kernels._columns(w, wkeys, sides[1], factors) * ww[:, None])
    scale = A.T @ np.abs(kernels._core(z[:, None], w[None, :])) @ B
    return grid.sign * R[cells], scale[cells]


@pytest.mark.parametrize("n", [64, 256, 1024])
@pytest.mark.parametrize("radii", RADII)
def test_fft_grids_match_the_dense_core(radii, n):
    cfg = KernelConfig(sign_convention=SIGN_BR, radii=RADII[radii])
    grids, factors = kernels._grids(SPEC, PTS, cfg)
    # K11, K12 at |zw| < 1, K12 at |zw| > 1, K22
    assert [rz * rw > 1 for rz, rw in (g.radii for g in grids[1:3])] == [False, True]
    for grid in grids:
        fft = grid.estimate(n, factors)
        dense, scale = _dense(grid, n, factors)
        assert len(fft) == len(grid.entries) > 0
        # relative to the summands: under the inadmissible reading every K11
        # entry is 0 analytically, and both sums are rounding noise
        assert np.all(np.abs(fft - dense) <= 1e-12 * scale)


def test_fft_grid_builds_no_node_by_node_array():
    grids, factors = kernels._grids(SPEC, PTS, KernelConfig())
    k11 = grids[0]
    k11.estimate(64, factors)  # numpy's FFT plan caches fill on first use
    tracemalloc.start()
    try:
        k11.estimate(8192, factors)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # a dense 8192 x 8192 complex grid is 1 GiB, a 2**21-element row block 32 MiB
    assert peak < 4 * 2 ** 20
