"""Pfaffians of even-dimensional skew-symmetric real or complex matrices.

Every dimension goes through a pivoted skew LTL^T elimination (Parlett-Reid
style; see Wimmer, ACM TOMS 38 (2012), Algorithm 923). The recursive
first-row expansion is kept only as the independent oracle that the
verification battery and the tests compare the elimination against.
"""

import numpy as np


class SkewMatrix:
    """Dense skew-symmetric matrix produced by projecting (A - A^T)/2.

    The asymmetry of the input is not an error: the projection defect
    max|A + A^T|/2 is recorded instead. It is for matrices that may not be
    exactly skew, such as input from outside the program; an assembled
    kernel is completed from its upper entries, exactly skew, and goes to
    `pfaffian` as the array itself.
    """

    def __init__(self, entries):
        A = np.asarray(entries, dtype=complex)
        if A.ndim != 2 or A.shape[0] != A.shape[1]:
            raise ValueError("square matrix required")
        S = (A - A.T) / 2
        self.matrix = S
        self.dim = A.shape[0]
        self.defect = float(np.max(np.abs(A + A.T)) / 2) if A.size else 0.0


def _pfaffian_expand(A):
    """Recursive first-row expansion, exponential in the dimension: the
    reference that the elimination is checked against. Each minor is the
    tuple of its row indices into A, so no minor is copied."""
    def expand(rows):
        if not rows:
            return 1.0 + 0j
        if len(rows) == 2:
            return A[rows]
        first, rest = rows[0], rows[1:]
        total = 0j
        for jpos, j in enumerate(rest):
            aij = A[first, j]
            if aij == 0:
                continue
            sign = -1.0 if jpos % 2 else 1.0  # (-1)^j for column j of the first row
            total += sign * aij * expand(rest[:jpos] + rest[jpos + 1:])
        return total
    return expand(tuple(range(A.shape[0])))


def _pfaffian_ltl(A):
    """Pivoted skew elimination: congruence transforms accumulate the Pfaffian
    as the product of the (2k, 2k+1) pivots, with each row/column interchange
    flipping the sign. An interchange swaps whole rows and columns: the
    eliminated ones are never read again."""
    A = A.copy()
    n = A.shape[0]
    val = 1.0 + 0j
    for k in range(0, n - 1, 2):
        kp = k + 1 + int(np.argmax(np.abs(A[k + 1:, k])))
        if kp != k + 1:
            A[[k + 1, kp]] = A[[kp, k + 1]]
            A[:, [k + 1, kp]] = A[:, [kp, k + 1]]
            val = -val
        pivot = A[k + 1, k]
        if pivot == 0:
            return 0j
        val *= A[k, k + 1]
        if k + 2 < n:
            # times the reciprocal, as numpy divides a complex array by a
            # real-valued complex number: real arithmetic gives the same bits
            tau = A[k, k + 2:] * (1 / A[k, k + 1])
            c = A[k + 2:, k + 1]
            A[k + 2:, k + 2:] += tau[:, None] * c - c[:, None] * tau
    return val


def pfaffian(A):
    """Pfaffian of a skew-symmetric matrix (SkewMatrix, array, or nested
    lists), as a complex number.

    A real array or list is eliminated in float64, to the same bits as its
    complex copy, and any other in complex. dim 0 returns 1 (the empty
    Pfaffian); odd dim is an error.
    """
    if isinstance(A, SkewMatrix):
        A = A.matrix
    A = np.asarray(A, dtype=complex if np.iscomplexobj(A) else float)
    if A.size == 0:
        return 1.0 + 0j
    n = A.shape[0]
    if A.ndim != 2 or A.shape[1] != n:
        raise ValueError("square matrix required")
    if n % 2 != 0:
        raise ValueError("Pfaffian requires even dimension")
    return complex(_pfaffian_ltl(A))


def schur_pfaffian_matrix(u):
    """The skew matrix with entries (u_j - u_k)/(1 - u_j u_k)."""
    u = np.asarray(u, dtype=complex)
    den = 1 - u[:, None] * u
    off = ~np.eye(len(u), dtype=bool)
    singular = np.argwhere(off & (den == 0))
    if len(singular):
        j, k = singular[0]
        raise ValueError(f"singular pair u_j*u_k = 1 at ({u[j]}, {u[k]})")
    return np.divide(u[:, None] - u, den, out=np.zeros(den.shape, complex), where=off)


def verify_schur_pfaffian(u):
    """Relative residual of Pf[(u_j-u_k)/(1-u_j u_k)] against the closed-form
    product over j<k of the same entries."""
    u = [complex(v) for v in u]
    if len(u) % 2 != 0:
        raise ValueError("need an even number of points")
    M = schur_pfaffian_matrix(u)
    prod = 1.0 + 0j
    for j in range(len(u)):
        for k in range(j + 1, len(u)):
            prod *= M[j, k]
    pf = pfaffian(M)
    return abs(pf - prod) / (abs(prod) + 1.0)
