import numpy as np
import pytest

from pfschur import partitions
from pfschur.partitions import (conjugate, contains, enumerate_up_to_weight,
                                even_conjugate_subpartitions,
                                horizontal_strips, is_even_conjugate,
                                point_configuration, subpartitions)


def euler_p(n, _cache={0: 1}):
    """Partition counts via Euler's pentagonal recurrence (test oracle)."""
    if n in _cache:
        return _cache[n]
    if n < 0:
        return 0
    total = 0
    k = 1
    while True:
        g1 = k * (3 * k - 1) // 2
        g2 = k * (3 * k + 1) // 2
        if g1 > n and g2 > n:
            break
        sign = -1 if k % 2 == 0 else 1
        total += sign * (euler_p(n - g1) + euler_p(n - g2))
        k += 1
    _cache[n] = total
    return total


def test_conjugate_examples():
    assert conjugate((3, 1)) == (2, 1, 1)
    assert conjugate(()) == ()
    assert conjugate((2, 2)) == (2, 2)


def test_conjugate_involution_and_stats():
    for lam in enumerate_up_to_weight(12):
        assert conjugate(conjugate(lam)) == lam
        assert sum(conjugate(lam)) == sum(lam)
        if lam:
            assert len(conjugate(lam)) == lam[0]


def test_is_even_conjugate_examples():
    assert is_even_conjugate((1, 1))
    assert not is_even_conjugate((1,))
    assert is_even_conjugate((3, 3))  # conjugate (2,2,2)


def test_is_even_conjugate_matches_definition():
    for mu in enumerate_up_to_weight(12):
        by_def = all(p % 2 == 0 for p in conjugate(mu))
        assert is_even_conjugate(mu) == by_def


def test_enumeration_counts_match_euler():
    for L in (0, 2, 4, 12, 20):
        got = len(enumerate_up_to_weight(L))
        want = sum(euler_p(k) for k in range(L + 1))
        assert got == want
    assert enumerate_up_to_weight(0) == ((),)
    assert set(enumerate_up_to_weight(2)) == {(), (1,), (2,), (1, 1)}


def test_enumeration_order_is_weight_major_then_lex_descending():
    lst = enumerate_up_to_weight(4)
    weights = [sum(lam) for lam in lst]
    assert weights == sorted(weights)
    for w in range(5):
        block = [lam for lam in lst if sum(lam) == w]
        assert block == sorted(block, reverse=True)


def test_enumeration_no_duplicates_and_length_cap():
    lst = enumerate_up_to_weight(10, max_length=2)
    assert len(set(lst)) == len(lst)
    assert all(len(lam) <= 2 for lam in lst)


@pytest.mark.parametrize("L, cap", [(0, None), (9, None), (12, 3), (10, 1)])
def test_strip_transfers_match_the_branching_rule(L, cap):
    """up and down against the dense matrix of the one-variable skew Schur
    function: x^(|lam| - |nu|) when lam/nu is a horizontal strip, else 0."""
    parts = enumerate_up_to_weight(L, cap)
    strips = horizontal_strips(L, cap)
    x = 0.37

    def strip(lam, nu):
        if len(nu) > len(lam):
            return False
        nu = nu + (0,) * (len(lam) - len(nu))
        return all((lam + (0,))[j + 1] <= nu[j] <= lam[j] for j in range(len(lam)))
    M = np.array([[x ** (sum(lam) - sum(nu)) if strip(lam, nu) else 0.0
                   for nu in parts] for lam in parts])
    # positive parts: no cancellation, so every entry is relatively accurate
    h = np.random.default_rng(L).uniform(0.5, 1.5, size=len(parts)) * (1 + 2j)
    assert np.allclose(strips.up(h, x), M @ h, rtol=1e-14, atol=0)
    assert np.allclose(strips.down(h, x), M.T @ h, rtol=1e-14, atol=0)
    assert list(strips.length) == [len(lam) for lam in parts]
    assert list(strips.even) == [is_even_conjugate(lam) for lam in parts]


@pytest.mark.parametrize("L, cap, budget, scale", [
    (20, 3, 1, 1.0),                            # one chain per block
    (20, 3, 2 ** 14, 1 + 2j),
    (40, 3, partitions._GRID_BYTES, 1.0),       # the shipped budget
])
def test_blocked_transfers_match_one_block(monkeypatch, L, cap, budget, scale):
    """Five stacked sums through grids past the byte budget go together in
    blocks of whole chains and give the one-block sums. A row's products
    add the same terms in both, but OpenBLAS may order them differently at
    another row count, so they agree to rounding (1 ulp seen at (40, 3)),
    not bitwise."""
    strips = horizontal_strips(L, cap)
    h = np.random.default_rng(L).uniform(0.5, 1.5, size=(5, len(strips.length))) * scale
    blocks, matmul = [], np.matmul

    def spy(a, *args, **kwargs):  # one product per block
        blocks.append(a.shape)
        return matmul(a, *args, **kwargs)
    monkeypatch.setattr(partitions, "_GRID_BYTES", 2 ** 62)
    whole = strips.up(h, 0.37), strips.down(h, 0.37)
    monkeypatch.setattr(np, "matmul", spy)
    monkeypatch.setattr(partitions, "_GRID_BYTES", budget)
    blocked = strips.up(h, 0.37), strips.down(h, 0.37)
    # one block per grid and transfer would be 2 per grid: some grid was split
    assert len(blocks) > 2 * len(strips._grids)
    for a, b in zip(blocked, whole):
        assert a.shape == b.shape
        assert np.allclose(a, b, rtol=1e-15, atol=0)


@pytest.mark.parametrize("scale", [1.0, 1 + 2j])
def test_one_sum_past_the_budget_goes_through_in_blocks_of_whole_chains(monkeypatch,
                                                                        scale):
    """One sum whose grid alone passes the byte budget: at (40, 4) the
    largest grid holds 25,912 cells. Its chains go through in blocks whose
    gathered grids stay within the budget, and give the one-block sums."""
    strips = horizontal_strips(40, 4)
    assert max(len(source) for _, source, _ in strips._grids) == 25912
    h = np.random.default_rng(40).uniform(0.5, 1.5, size=len(strips.length)) * scale
    monkeypatch.setattr(partitions, "_GRID_BYTES", 2 ** 62)
    whole = strips.up(h, 0.37), strips.down(h, 0.37)
    monkeypatch.setattr(partitions, "_GRID_BYTES", 2 ** 16)
    blocks, matmul = [], np.matmul

    def spy(a, *args, **kwargs):  # one product per block
        blocks.append(a.nbytes)
        return matmul(a, *args, **kwargs)
    monkeypatch.setattr(np, "matmul", spy)
    blocked = strips.up(h, 0.37), strips.down(h, 0.37)
    # every grid passes the budget, in four or more blocks each way
    assert len(blocks) >= 2 * 4 * 4
    assert max(blocks) <= partitions._GRID_BYTES
    for a, b in zip(blocked, whole):
        assert a.shape == b.shape and a.dtype == b.dtype
        assert np.allclose(a, b, rtol=1e-15, atol=0)


def test_even_conjugate_subpartitions():
    assert even_conjugate_subpartitions(()) == [()]
    assert even_conjugate_subpartitions((1,)) == [()]
    assert set(even_conjugate_subpartitions((2, 1))) == {(), (1, 1)}
    # brute-force filter agreement
    for lam in enumerate_up_to_weight(9):
        brute = {mu for mu in subpartitions(lam) if is_even_conjugate(mu)}
        fast = set(even_conjugate_subpartitions(lam))
        assert brute == fast
        assert len(even_conjugate_subpartitions(lam)) == len(fast)


def test_contains():
    assert contains((3, 1), (2, 1))
    assert not contains((3, 1), (1, 1, 1))
    assert contains((3, 1), ())


def test_point_configuration_examples():
    assert point_configuration((2,), 3) == {1, -2, -3}
    assert point_configuration((), 2) == {-1, -2}
    assert point_configuration((3, 1), 4) == {2, -1, -3, -4}


def test_point_configuration_roundtrip():
    for lam in enumerate_up_to_weight(10):
        n = max(len(lam), 1) + 2
        pts = point_configuration(lam, n)
        assert len(pts) == n  # strictly decreasing values
