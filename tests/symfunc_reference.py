"""The reference `symfunc.schur_table` is tested against bit for bit: the
cofactor expansion of every partition's Jacobi-Trudi determinant on its own.

`schur_per_partition` pads each partition with zero rows to the longest,
ell rows, and expands the determinants along their rows from the last up,
one array pass per row over every partition, every minor and the whole
batch: ell 2^(ell-1) products per value. `schur_table` takes the same
products and sums in the same order, but computes each minor of the bottom
rows once per distinct suffix of the padded partitions, so its values are
bitwise these.
"""

import math

import numpy as np

from pfschur.symfunc import _expansion


def schur_per_partition(lams, point):
    """s_lam for every lam in lams at a batch of point sets, as an array of
    shape (len(lams),) + batch, each partition expanded on its own."""
    lams = [tuple(lam) for lam in lams]
    ell = max(map(len, lams), default=0)
    batch = np.broadcast_shapes(*map(np.shape, point))
    size = math.prod(batch)
    coords = np.empty((len(point),) + batch, complex)
    for i, x in enumerate(point):
        coords[i] = x
    degree = max((lam[0] for lam in lams if lam), default=0) + ell
    h = np.zeros((degree + 2, size), complex)  # h_0..h_degree, then the 0
    h[0] = 1.0
    for x in coords.reshape(len(point), size):
        for k in range(1, degree + 1):
            h[k] += x * h[k - 1]
    lam = np.array([lam + (0,) * (ell - len(lam)) for lam in lams],
                   dtype=int).reshape(len(lams), ell)
    minors = np.ones((1, len(lams), size), complex)
    for k, (cols, rest) in enumerate(_expansion(ell), 1):
        i = ell - k
        # row i, column c of lam's matrix is h_{lam_i - i + c}; a negative
        # index reads the trailing 0
        terms = h[np.maximum(lam[:, i] - i + cols[..., None], -1)] * minors[rest]
        terms[:, 1::2] *= -1
        minors = np.sum(terms, axis=1)
    return minors[0].reshape((len(lams),) + batch)
