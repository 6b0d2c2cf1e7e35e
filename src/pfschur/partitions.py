"""Integer partitions as plain tuples of weakly decreasing positive ints.

The empty partition is ``()``. Trailing zeros are never stored, so equality
of tuples is equality of partitions. All functions are pure.
"""

from functools import lru_cache

import numpy as np


def conjugate(lam):
    """Transpose of the Young diagram: row i of the result counts parts >= i+1."""
    if not lam:
        return ()
    return tuple(sum(1 for p in lam if p >= i) for i in range(1, lam[0] + 1))


def is_even_conjugate(mu):
    """True iff every column length of mu is even, i.e. rows pair up:
    mu_1 = mu_2, mu_3 = mu_4, ... (zero-padded past the last part)."""
    padded = mu + (0,) if len(mu) % 2 else mu
    return all(padded[i] == padded[i + 1] for i in range(0, len(padded), 2))


def contains(lam, mu):
    """Containment of Young diagrams: mu_i <= lam_i for all i."""
    if len(mu) > len(lam):
        return False
    return all(mu[i] <= lam[i] for i in range(len(mu)))


@lru_cache(maxsize=None)
def enumerate_up_to_weight(L, max_length=None):
    """All partitions of weight <= L, weight-major then lexicographically
    descending within a weight. Optional max_length prunes by row count."""
    if L < 0:
        raise ValueError("weight cap must be nonnegative")
    out = [()]

    def rec(prefix, maxpart, rem):
        for p in range(min(maxpart, rem), 0, -1):
            new = prefix + (p,)
            out.append(new)
            if max_length is None or len(new) < max_length:
                rec(new, p, rem - p)

    if max_length != 0:
        rec((), L, L)
    return tuple(sorted(out, key=lambda t: (sum(t), tuple(-x for x in t))))


class HorizontalStrips:
    """One-variable transfers across the horizontal strips lam/nu
    (lam_{j+1} <= nu_j <= lam_j) between entries of
    ``enumerate_up_to_weight(L, max_length)``, on vectors indexed by that list,
    plus each entry's zero-padded rows, row count and even-conjugate flag.

    A strip is added one row at a time: moving up from nu, raise the
    bottom row first, then the one above it, each to at most the value of
    the row above, which is still nu's. Every intermediate is a partition
    of the list, and the entries that differ only in row r form a chain
    ordered by that row, along which the step is a prefix sum with weights
    x^(rise). So each row keeps the (chain, position) cell of every entry
    in a dense chains-by-positions grid, and a step is one product with a
    triangular Toeplitz matrix of powers of x. Moving down is the
    transpose: suffix sums, top row first. A transfer acts on the last axis
    of h, so leading axes carry several sums through one pass."""

    def __init__(self, parts):
        n = len(parts)
        depth = max(map(len, parts))
        self.rows = rows = np.zeros((n, depth), dtype=np.int64)
        for i, lam in enumerate(parts):
            rows[i, :len(lam)] = lam
        self.length = np.count_nonzero(rows, axis=1)
        self.even = np.array([is_even_conjugate(lam) for lam in parts])
        k = np.arange(rows.max(initial=0) + 1)
        lag = k[None, :] - k[:, None]
        self._lag = np.where(lag >= 0, lag, len(k))     # below the diagonal: the 0 past x^k
        self._grids = []    # per row: (cell of each entry, entry of each cell, width)
        for r in range(depth):
            _, chain = np.unique(np.delete(rows, r, axis=1), axis=0,
                                 return_inverse=True)
            width = rows[:, r].max() + 1
            cells = chain.ravel() * width + rows[:, r]
            source = np.full((chain.max() + 1) * width, n)     # n: no entry, a 0
            source[cells] = np.arange(n)
            self._grids.append((cells, source, width))

    def _toeplitz(self, x):
        """T[a, b] = x^(b - a) for a <= b, else 0; its leading w x w block
        serves a grid of width w."""
        return np.append(x ** np.arange(len(self._lag)), 0.0)[self._lag]

    def up(self, h, x):
        """h'(lam) = sum over the strips lam/nu of x^(|lam| - |nu|) h(nu)."""
        T = self._toeplitz(x)
        for grid in reversed(self._grids):
            h = _chain_sums(h, grid, T)
        return h

    def down(self, h, x):
        """h'(nu) = sum over the strips lam/nu of x^(|lam| - |nu|) h(lam)."""
        T = self._toeplitz(x).T
        for grid in self._grids:
            h = _chain_sums(h, grid, T)
        return h


# Bytes of one gathered grid block of `_chain_sums`, and of each temporary
# of a column block of `symfunc.schur_table`: as quadrature's 64 KiB
# blocks, under glibc's 128 KiB mmap threshold, so that the temporaries of
# a large grid are reused from the heap instead of being mapped and
# unmapped on every transfer.
_GRID_BYTES = 2 ** 16


def _chain_sums(h, grid, T):
    """h gathered onto one row's chains-by-positions grid (a cell that no
    entry holds reads the 0 appended past h), times T, read back; the
    leading axes of h stack into the rows of one matrix product. All sums
    go through together, in blocks of as many whole chains as keep the
    gathered grid within `_GRID_BYTES`, at least one; a grid within it is
    one block, one product."""
    cells, source, width = grid
    chain_bytes = h.size // h.shape[-1] * width * max(h.itemsize, T.itemsize)
    step = max(1, _GRID_BYTES // chain_bytes) * width       # cells per block
    H = np.concatenate((h, np.zeros(h.shape[:-1] + (1,))), axis=-1)
    blocks = []
    for s in range(0, len(source), step):
        block = H.take(source[s:s + step], axis=-1)
        blocks.append(np.matmul(block.reshape(-1, width), T[:width, :width])
                      .reshape(block.shape))
    out = blocks[0] if len(blocks) == 1 else np.concatenate(blocks, axis=-1)
    return out.take(cells, axis=-1)


@lru_cache(maxsize=None)
def horizontal_strips(L, max_length=None):
    """`HorizontalStrips` of the weight-capped, row-capped partition list;
    built on first use and kept (``symfunc.clear_caches`` drops them)."""
    return HorizontalStrips(enumerate_up_to_weight(L, max_length))


def subpartitions(lam):
    """All mu contained in lam, each exactly once."""
    out = []

    def rec(prefix, i, prev):
        out.append(tuple(prefix))
        if i < len(lam):
            for p in range(min(prev, lam[i]), 0, -1):
                rec(prefix + [p], i + 1, p)

    rec([], 0, lam[0] if lam else 0)
    return out


def even_conjugate_subpartitions(lam):
    """All mu contained in lam with even conjugate.

    Such mu have the form (a_1,a_1,a_2,a_2,...) with a_1 >= a_2 >= ...;
    containment in lam reduces to a_k <= lam_{2k} (0-indexed lam[2k-1]).
    """
    out = []

    def rec(prefix, k, prev):
        out.append(tuple(prefix))
        if 2 * k + 1 < len(lam):
            for a in range(min(prev, lam[2 * k + 1]), 0, -1):
                rec(prefix + [a, a], k + 1, a)

    rec([], 0, lam[0] if lam else 0)
    return out


def point_configuration(lam, n):
    """The shifted coordinates {lam_i - i : 1 <= i <= n}, lam_i = 0 past the
    stored parts. Strictly decreasing, hence n distinct integers."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return {(lam[i] if i < len(lam) else 0) - (i + 1) for i in range(n)}

