"""Numerical evaluation of symmetric functions at finite specializations.

A specialization is a finite ordered list of complex numbers, a tuple of
them; a disjoint union is their concatenation. Everything here is
double-precision complex; identities are checked to tolerances, never
symbolically. Schur and skew Schur functions are Jacobi-Trudi determinants
of complete homogeneous functions, their matrices read from an h-table by
one index formula (`_jacobi_trudi`), and their determinants taken by
LAPACK. The h-tables and the (partition, specialization) evaluations are
memoized because the verify batteries and the per-sequence
`measures.process_weight` reach the same cells many times. `schur_table`
evaluates many partitions at a batch of point sets as arrays, with no memo
and no LAPACK call: it expands the determinants itself, so `schur` stays an
independent check of it.
"""

import math
import numbers
from functools import lru_cache
from itertools import combinations

import numpy as np

from .partitions import even_conjugate_subpartitions, horizontal_strips


class DivergenceError(ValueError):
    """An infinite product fails its |.| < 1 convergence condition."""


def json_number(value, kind=float):
    """kind(value) for a JSON number: an int or a float, and an integral one
    when kind is int; else a ValueError giving the value. int(), float() and
    complex() would also parse a string and take a bool as 0 or 1."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ValueError(f"{value!r} is not a number")
    try:
        result = kind(value)
    except (ValueError, OverflowError):  # int() of a nan or an infinity
        raise ValueError(f"{value!r} is not a number") from None
    if kind is int and result != value:
        raise ValueError(f"{value!r} is not an integer")
    return result


def _values(s):
    """A specialization's values as a tuple, which the memo tables key on: a
    tuple as it is, any other iterable converted to complex once."""
    return s if isinstance(s, tuple) else tuple(complex(v) for v in s)


@lru_cache(maxsize=65536)
def _h_table(values, degree):
    """h_0..h_degree by one-variable-at-a-time geometric convolution:
    multiplying in x turns h into its running (1-xt)^{-1} convolution."""
    h = [0j] * (degree + 1)
    h[0] = 1.0 + 0j
    for x in values:
        for k in range(1, degree + 1):
            h[k] += x * h[k - 1]
    return tuple(h)


def _jacobi_trudi(h, lam, mu):
    """Jacobi-Trudi matrices (h_{lam_i - mu_j - i + j})_{i,j} of the rows of
    lam over mu, integer arrays of shape (..., ell). h's last axis holds
    h_0, h_1, ... and one trailing 0, which every negative index reads; the
    result has shape h.shape[:-1] + lam.shape[:-1] + (ell, ell)."""
    r = np.arange(lam.shape[-1])
    idx = (lam - r)[..., :, None] - (mu - r)[..., None, :]
    return h[..., np.maximum(idx, -1)]


@lru_cache(maxsize=400000)
def _skew_schur_cached(lam, mu, values):
    ell = len(lam)
    if ell == 0:
        return 1.0 + 0j
    mu = mu + (0,) * (ell - len(mu))
    degree = lam[0] + ell  # largest h-index is lam_1 - 1 + ell
    h = np.array(_h_table(values, degree) + (0j,))
    return complex(np.linalg.det(_jacobi_trudi(h, np.array(lam), np.array(mu))))


def schur(lam, s):
    """Schur polynomial via the Jacobi-Trudi determinant det(h_{lam_i - i + j}).

    Vanishes (to rounding) when length(lam) > len(s)."""
    return _skew_schur_cached(tuple(lam), (), _values(s))


def schur_table(lams, point):
    """s_lam for every lam in lams at a batch of point sets, as an array of
    shape (len(lams),) + batch.

    point holds the n coordinates, each a number or an array over the batch.
    One h-recursion runs over the whole batch, and one cofactor expansion
    serves every partition at every row count: each partition is padded
    with zero rows to the longest, ell rows, which leaves its Jacobi-Trudi
    determinant unchanged (the padding block is unitriangular), and the
    determinants are expanded along their rows from the last up
    (`_expansion`), one array pass per row over every partition, every
    minor and the whole batch. That is ell 2^(ell-1) products per value and
    no LAPACK call; the values stay within 2e-15 of `schur`'s LAPACK
    determinants, relative to |s_lam| + 1, up to ell = 6. Nothing is
    memoized. A row count beyond n gives a rounding-level value, as `schur`
    does.
    """
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


@lru_cache(maxsize=None)
def _expansion(ell):
    """The cofactor expansion of an ell x ell determinant along its rows,
    from the last up, as index arrays computed once per ell: for k = 1 ..
    ell, the k-subsets S of the columns in `combinations` order, as the rows
    of `cols`, and for each column S[p] the position in level k - 1's list
    of S without it, as `rest`. The minor of the last k rows on the columns
    S is then the sum over p of (-1)^p M[ell - k, S[p]] times that minor."""
    levels, index = [], {(): 0}
    for k in range(1, ell + 1):
        subsets = list(combinations(range(ell), k))
        cols = np.array(subsets, int)
        rest = np.array([[index[S[:p] + S[p + 1:]] for p in range(k)]
                         for S in subsets])
        cols.flags.writeable = rest.flags.writeable = False
        levels.append((cols, rest))
        index = {S: a for a, S in enumerate(subsets)}
    return tuple(levels)


def skew_schur(lam, mu, s):
    """Skew Schur det(h_{lam_i - mu_j - i + j}); 0 when mu is not contained
    in lam (a negative-index column makes the determinant vanish exactly)."""
    lam, mu = tuple(lam), tuple(mu)
    if len(mu) > len(lam):
        if any(m > 0 for m in mu[len(lam):]):
            return 0j
        mu = mu[:len(lam)]
    return _skew_schur_cached(lam, mu, _values(s))


@lru_cache(maxsize=200000)
def _tau_cached(lam, values):
    return sum(_skew_schur_cached(lam, mu, values)
               for mu in even_conjugate_subpartitions(lam))


def tau(lam, s):
    """Free-boundary weight: sum of s_{lam/mu} over mu in lam with even
    conjugate."""
    return _tau_cached(tuple(lam), _values(s))


def cauchy_H(sx, sy):
    """prod_{i,j} 1/(1 - x_i y_j); the Cauchy generating factor."""
    xv, yv = _values(sx), _values(sy)
    out = 1.0 + 0j
    for x in xv:
        for y in yv:
            if abs(x * y) >= 1:
                raise DivergenceError(f"|x*y| >= 1 for pair ({x}, {y})")
            out /= (1 - x * y)
    return out


def H0(sx):
    """prod_{i<j} 1/(1 - x_i x_j): the unordered-pair factor, no diagonal."""
    xv = _values(sx)
    out = 1.0 + 0j
    for i in range(len(xv)):
        for j in range(i + 1, len(xv)):
            if abs(xv[i] * xv[j]) >= 1:
                raise DivergenceError(f"|x_i*x_j| >= 1 for pair ({xv[i]}, {xv[j]})")
            out /= (1 - xv[i] * xv[j])
    return out


def clear_caches():
    """Drop the h-table and Schur memoization tables and the oracles'
    horizontal-strip tables (for memory control in long randomized
    batteries)."""
    horizontal_strips.cache_clear()
    _h_table.cache_clear()
    _skew_schur_cached.cache_clear()
    _tau_cached.cache_clear()
