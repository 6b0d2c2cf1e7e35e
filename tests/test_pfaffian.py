import importlib
from itertools import permutations

import numpy as np
import pytest

from pfschur.pfaffian import (SkewMatrix, _pfaffian_expand, _pfaffian_ltl,
                              pfaffian, schur_pfaffian_matrix,
                              verify_schur_pfaffian)


def pfaffian_by_definition(A):
    """Brute-force oracle: (1/2^d d!) sum over all permutations of signed
    products of paired entries."""
    n = A.shape[0]
    d = n // 2
    total = 0j
    for sigma in permutations(range(n)):
        # permutation sign by counting inversions
        inv = sum(1 for i in range(n) for j in range(i + 1, n)
                  if sigma[i] > sigma[j])
        term = (-1) ** inv
        for i in range(d):
            term *= A[sigma[2 * i], sigma[2 * i + 1]]
        total += term
    fact = 1
    for k in range(1, d + 1):
        fact *= k
    return total / (2 ** d * fact)


def random_skew(rng, n):
    A = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    return A - A.T


def test_two_by_two():
    a = 0.3 + 0.7j
    assert pfaffian(np.array([[0, a], [-a, 0]])) == a


def test_dim_zero_is_one():
    assert pfaffian(np.zeros((0, 0))) == 1.0


def test_odd_dim_rejected():
    with pytest.raises(ValueError):
        pfaffian(np.zeros((3, 3)))


@pytest.mark.parametrize("n", range(2, 17, 2))
def test_a_real_array_is_eliminated_in_real_arithmetic(monkeypatch, n):
    # a real array stays float64 through the elimination and gives its
    # complex copy's Pfaffian, as a complex number
    module = importlib.import_module("pfschur.pfaffian")
    dtypes, ltl = [], module._pfaffian_ltl

    def spy(A):
        dtypes.append(A.dtype)
        return ltl(A)
    monkeypatch.setattr(module, "_pfaffian_ltl", spy)
    rng = np.random.default_rng(n)
    for _ in range(20):
        A = rng.normal(size=(n, n))
        A = A - A.T
        got, want = pfaffian(A), pfaffian(A.astype(complex))
        assert type(got) is complex and got.imag == 0
        assert abs(got - want) <= 1e-15 * abs(want)
    assert dtypes == [np.float64, np.complex128] * 20


def test_nested_int_lists():
    two = pfaffian([[0, 2], [-2, 0]])
    assert two == 2 and type(two) is complex
    A = [[0, 1, 2, 3], [-1, 0, 4, 5], [-2, -4, 0, 6], [-3, -5, -6, 0]]
    assert pfaffian(A) == 1 * 6 - 2 * 5 + 3 * 4
    assert pfaffian([[0, 1j], [-1j, 0]]) == 1j


def test_four_by_four_against_definition():
    rng = np.random.default_rng(1)
    A = random_skew(rng, 4)
    want = pfaffian_by_definition(A)
    # the textbook 4x4 expansion, as a readable cross-check
    closed = A[0, 1] * A[2, 3] - A[0, 2] * A[1, 3] + A[0, 3] * A[1, 2]
    assert abs(want - closed) < 1e-12
    assert abs(pfaffian(A) - want) < 1e-12


def test_six_by_six_against_definition():
    rng = np.random.default_rng(2)
    A = random_skew(rng, 6)
    assert abs(pfaffian(A) - pfaffian_by_definition(A)) < 1e-11


def test_pf_squared_is_det():
    rng = np.random.default_rng(3)
    for n in range(2, 13, 2):
        A = random_skew(rng, n)
        det = np.linalg.det(A)
        assert abs(pfaffian(A) ** 2 - det) / abs(det) < 1e-9


def test_row_col_swap_negates():
    rng = np.random.default_rng(4)
    for n in (4, 6, 8):
        A = random_skew(rng, n)
        i, j = rng.choice(n, size=2, replace=False)
        B = A.copy()
        B[[i, j], :] = B[[j, i], :]
        B[:, [i, j]] = B[:, [j, i]]
        assert abs(pfaffian(B) + pfaffian(A)) < 1e-10 * max(1, abs(pfaffian(A)))


def test_expansion_equals_elimination():
    rng = np.random.default_rng(5)
    for n in (4, 6, 8):
        A = random_skew(rng, n)
        pe = _pfaffian_expand(A)
        pl = _pfaffian_ltl(A.copy())
        assert abs(pe - pl) / (abs(pe) + 1) < 1e-10


def test_skew_matrix_projection_records_defect():
    A = np.array([[0.1, 2.0], [-1.0, -0.1]], dtype=complex)
    S = SkewMatrix(A)
    assert S.defect > 0.09
    assert abs(S.matrix[0, 0]) == 0
    assert S.matrix[0, 1] == -S.matrix[1, 0]
    clean = SkewMatrix(np.array([[0, 1], [-1, 0]], dtype=complex))
    assert clean.defect == 0
    assert pfaffian(clean) == 1


def test_schur_pfaffian_identity():
    rng = np.random.default_rng(6)
    for d, tol in ((1, 1e-14), (2, 1e-12), (3, 1e-10)):
        u = (0.1 + 0.8 * rng.random(2 * d)) * np.exp(2j * np.pi * rng.random(2 * d))
        assert verify_schur_pfaffian(u) < tol


def test_schur_pfaffian_matrix_equals_the_double_loop():
    # the broadcast's complex products may be fused where the scalar ones
    # are not, so entries agree to a few units in the last place
    rng = np.random.default_rng(7)
    for n in (0, 2, 4, 6, 8):
        u = (0.1 + 0.75 * rng.random(n)) * np.exp(2j * np.pi * rng.random(n))
        loop = np.zeros((n, n), dtype=complex)
        for j in range(n):
            for k in range(n):
                if j != k:
                    loop[j, k] = (u[j] - u[k]) / (1 - u[j] * u[k])
        M = schur_pfaffian_matrix(u)
        assert M.shape == (n, n)
        assert np.all(np.abs(M - loop) <= 8 * np.finfo(float).eps * np.abs(loop))


def test_schur_pfaffian_singular_pair_rejected():
    with pytest.raises(ValueError, match=r"singular pair u_j\*u_k = 1 at \(\(2\+0j\), "
                       r"\(0\.5\+0j\)\)"):
        schur_pfaffian_matrix([2.0, 0.5, 0.1, 0.2])


def test_odd_point_count_rejected():
    with pytest.raises(ValueError):
        verify_schur_pfaffian([0.3, 0.1, 0.2])
