import numpy as np
import pytest

from pfschur.partitions import enumerate_up_to_weight, horizontal_strips, subpartitions
from pfschur.symfunc import (H0, DivergenceError, cauchy_H, clear_caches,
                             schur, schur_table, skew_schur, tau)


def power_sum(k, s):
    """p_k(s), the sum of the k-th powers of the values of s."""
    return sum(v ** k for v in s)


def ssyt_schur(lam, values):
    """Semistandard-tableau oracle: sum over column-strict fillings with
    entries 1..n of the content monomials."""
    n = len(values)
    lam = tuple(lam)
    if not lam:
        return 1.0 + 0j
    rows = len(lam)
    total = 0j

    def fill(r, c, tableau):
        nonlocal total
        if r == rows:
            term = 1.0 + 0j
            for row in tableau:
                for e in row:
                    term *= values[e]
            total += term
            return
        lo = 0 if c == 0 else tableau[r][c - 1]           # weak rows
        if r > 0 and c < lam[r - 1]:
            lo = max(lo, tableau[r - 1][c] + 1)           # strict columns
        for e in range(lo, n):
            tableau[r].append(e)
            nr, nc = (r, c + 1) if c + 1 < lam[r] else (r + 1, 0)
            fill(nr, nc, tableau)
            tableau[r].pop()

    fill(0, 0, [[] for _ in range(rows)])
    return total


def test_schur_examples():
    s = (0.3, 0.4)
    assert abs(schur((1,), s) - 0.7) < 1e-15
    assert abs(schur((2, 1), (0.5, 0.5)) - 0.25) < 1e-14
    assert abs(schur((1, 1, 1), s)) < 1e-15
    assert schur((), s) == 1


def test_schur_vs_tableau_oracle():
    rng = np.random.default_rng(7)
    for n in (1, 2, 3):
        values = tuple(rng.uniform(0.2, 0.9, n))
        for lam in enumerate_up_to_weight(6):
            if len(lam) > 3:
                continue
            assert abs(schur(lam, values) - ssyt_schur(lam, values)) < 1e-12


def test_skew_schur():
    s = (0.3, 0.4)
    assert skew_schur((2, 1), (2, 1), s) == 1
    x = 0.6
    assert abs(skew_schur((2,), (1,), (x,)) - x) < 1e-15
    ones = (1.0, 1.0)
    val = skew_schur((2, 1), (1,), ones)
    assert abs(val - 4) < 1e-13
    # cross-check: s_{(2,1)/(1)} = s_(2) + s_(1,1)
    assert abs(val - (schur((2,), ones) + schur((1, 1), ones))) < 1e-13
    # mu not contained: determinant vanishes without special casing
    assert abs(skew_schur((1,), (2,), s)) < 1e-15


def test_skew_branching_identity():
    rng = np.random.default_rng(3)
    for lam in enumerate_up_to_weight(6):
        if len(lam) > 4:
            continue
        X = tuple(rng.uniform(0.1, 0.7, 2))
        Y = tuple(rng.uniform(0.1, 0.7, 2))
        lhs = schur(lam, X + Y)
        rhs = sum(skew_schur(lam, mu, X) * schur(mu, Y)
                  for mu in subpartitions(lam))
        assert abs(lhs - rhs) < 1e-10


def test_tau():
    y = (0.3,)
    assert tau((), y) == 1
    assert abs(tau((1,), y) - power_sum(1, y)) < 1e-15
    assert abs(tau((1, 1), y) - 1) < 1e-15


def test_cauchy_H():
    assert abs(cauchy_H((0.5,), (0.5,)) - 4 / 3) < 1e-15
    assert cauchy_H((), (0.9,)) == 1
    with pytest.raises(DivergenceError):
        cauchy_H((0.5,), (2.0,))


def test_H0():
    assert H0((0.4,)) == 1
    assert abs(H0((0.5, 0.5)) - 4 / 3) < 1e-15
    assert H0(()) == 1
    with pytest.raises(DivergenceError):
        H0((1.2, 0.9))


def test_H_exponential_forms():
    rng = np.random.default_rng(11)
    X = tuple(rng.uniform(0.05, 0.6, 3))
    Y = tuple(rng.uniform(0.05, 0.6, 2))
    hxy = cauchy_H(X, Y)
    exp_form = np.exp(sum(power_sum(k, X) * power_sum(k, Y) / k
                          for k in range(1, 61)))
    assert abs(hxy - exp_form) < 1e-12
    h0 = H0(X)
    exp0 = np.exp(sum((power_sum(k, X) ** 2 - power_sum(2 * k, X)) / (2 * k)
                      for k in range(1, 61)))
    assert abs(h0 - exp0) < 1e-12


def test_even_conjugate_schur_sum_converges_to_H0():
    from pfschur.partitions import is_even_conjugate
    X = (0.6, 0.35)
    target = H0(X)
    errs = []
    for L in (10, 20, 30):
        total = sum(schur(mu, X) for mu in enumerate_up_to_weight(L, 2)
                    if is_even_conjugate(mu))
        errs.append(abs(total - target))
    assert errs[2] < 1e-8
    assert errs[0] > errs[1] > errs[2]  # geometric decay


def test_schur_table_matches_schur_one_point_at_a_time():
    # every lam of weight <= 8 with at most n + 1 rows, () and the rows
    # beyond n (rounding-level values) included, over a (2, 3) batch of
    # complex point sets inside the unit disk
    rng = np.random.default_rng(2017)
    for n in range(1, 6):
        lams = [lam for lam in enumerate_up_to_weight(8) if len(lam) <= n + 1]
        point = [0.95 * np.sqrt(rng.random((2, 3)))
                 * np.exp(2j * np.pi * rng.random((2, 3))) for _ in range(n)]
        table = schur_table(lams, point)
        assert table.shape == (len(lams), 2, 3)
        for b in np.ndindex(2, 3):
            s = [x[b] for x in point]
            for lam, got in zip(lams, table[(slice(None),) + b]):
                want = schur(lam, s)
                assert abs(got - want) <= 1e-14 * (abs(want) + 1), (n, lam, b)
    # numbers for coordinates give one point set; no partitions, no rows
    assert schur_table([(2, 1), ()], [0.5, 0.25]).shape == (2,)
    assert abs(schur_table([(2, 1)], [0.5, 0.25])[0] - schur((2, 1), [0.5, 0.25])) < 1e-16
    assert schur_table([], [np.zeros(4)]).shape == (0, 4)


def test_clear_caches_drops_the_strip_tables():
    horizontal_strips(6, 2)
    assert horizontal_strips.cache_info().currsize > 0
    clear_caches()
    assert horizontal_strips.cache_info().currsize == 0
