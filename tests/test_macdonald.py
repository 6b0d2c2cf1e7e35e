import json
import math
from itertools import combinations
from pathlib import Path

import numpy as np
import pytest

from pfschur import macdonald, symfunc, verify
from pfschur import quadrature as quad
from pfschur.macdonald import (ContourConditionError, ProductFormFunction,
                               _image_centers, _separated, _validate_disks,
                               apply_direct, apply_via_contour, choose_radii,
                               contour_radius, eigen_residual, eigenvalue,
                               iterated_action_F, iterated_action_Z,
                               z_partition)
from pfschur.measures import ProcessSpec, observable_expectation_oracle
from pfschur.partitions import enumerate_up_to_weight
from pfschur.symfunc import cauchy_H, schur, schur_table

from macdonald_reference import stated_action_Z


def standard_G(ys):
    return ProductFormFunction(ys)


def test_apply_direct_constant_collapses():
    q = 0.37 + 0.21j
    val = apply_direct(lambda v: 1.0, [0.5, 0.3], 1, q, t=q)
    assert abs(val - (q + 1)) < 1e-14


def test_apply_direct_full_subset_is_pure_shift():
    q = 0.3 + 0.1j
    n = 3
    xs = [0.5, 0.3, 0.2]
    F = lambda v: v[0] + v[1] * v[2]
    val = apply_direct(F, xs, n, q)
    want = q ** (n * (n - 1) // 2) * F([q * x for x in xs])
    assert abs(val - want) < 1e-14


def test_apply_direct_single_variable_eigenrelation():
    q = 0.45
    F = lambda v: schur((1,), v)
    assert abs(apply_direct(F, [0.6], 1, q) - q * 0.6) < 1e-15


def test_apply_direct_rejects_coincident_points():
    with pytest.raises(ValueError):
        apply_direct(lambda v: 1.0, [0.4, 0.4], 1, 0.3)


def test_eigen_residual_examples():
    (res,), = eigen_residual([()], [0.5, 0.3], [1], 0.41, 0.41)
    assert res < 1e-12
    # eigenvalue at lam=(2,1), n=2, q=t=0.3 is q^3 + q
    want = 0.3 ** 3 + 0.3
    assert abs(eigenvalue((2, 1), 2, 1, 0.3) - want) < 1e-15
    (res,), = eigen_residual([(2, 1)], [0.4, 0.2], [1], 0.3)
    assert res < 1e-10
    (res,), = eigen_residual([(1,)], [0.7], [1], 0.3)
    assert res < 1e-15


def test_eigen_residual_of_many_partitions_matches_one_at_a_time():
    # one call over the orders (1, 2, 3) against the literal residual of
    # each partition and order
    lams = [(), (1,), (2,), (1, 1), (3, 1), (2, 2, 1)]
    xs, q, t = [0.5, 0.3, 0.15], 0.4 * np.exp(1.1j), 0.4 * np.exp(1.1j)
    orders = (1, 2, 3)
    got = eigen_residual(lams, xs, orders, q, t)
    assert got.shape == (len(orders), len(lams))
    for r, row in zip(orders, got):
        for lam, res in zip(lams, row):
            F = lambda v, lam=lam: schur(lam, v)
            s = F(xs)
            alone = abs(apply_direct(F, xs, r, q, t) - eigenvalue(lam, 3, r, q) * s)
            assert abs(res - alone / (abs(s) + 1)) < 1e-15
        # each row is bitwise the call at that order alone
        assert np.array_equal(row, eigen_residual(lams, xs, [r], q, t)[0])
    with pytest.raises(ValueError, match="more rows than variables"):
        eigen_residual([(1,), (1, 1, 1)], [0.5, 0.3], [1], q)


def test_eigen_residual_battery():
    from pfschur.verify import battery_eigenrelation
    rows = battery_eigenrelation(seed=123, draws=10)
    assert all(r["pass"] for r in rows)


def subset_moduli(F, xs, r, q, t):
    """Sum of the moduli of the terms of the order-r subset sum at one
    point, written out here: the scale of apply_direct's rounding."""
    n, total = len(xs), 0.0
    for I in combinations(range(n), r):
        w = 1.0
        for i in I:
            for j in set(range(n)) - set(I):
                w *= (t * xs[i] - xs[j]) / (xs[i] - xs[j])
        shifted = [q * x if k in I else x for k, x in enumerate(xs)]
        total = total + np.abs(q ** (r * (r - 1) // 2) * w * np.asarray(F(shifted)))
    return total


def batch_draws(rng, n, size):
    xs = [rng.uniform(0.15, 0.85, size) for _ in range(n)]
    q = (0.1 + 0.6 * rng.random(size)) * np.exp(2j * np.pi * rng.random(size))
    return xs, q


def test_apply_direct_over_a_batch_matches_one_point_at_a_time():
    rng = np.random.default_rng(77)
    lams = [(), (1,), (2, 1), (3,)]
    table = lambda v: schur_table(lams, v)
    polynomial = lambda v: sum(x * x for x in v) + v[0] / (1 - 0.3 * v[-1])
    for n in range(1, 5):
        xs, q = batch_draws(rng, n, 6)
        t = 0.5 * np.exp(2j * np.pi * rng.random(6))
        for r in range(1, n + 1):
            for F, tt in ((table, None), (table, t), (polynomial, t), (polynomial, 0.3)):
                got = apply_direct(F, xs, r, q, tt)
                for b in range(6):
                    point = [x[b] for x in xs]
                    tb = q[b] if tt is None else np.broadcast_to(tt, 6)[b]
                    want = apply_direct(F, point, r, q[b], tb)
                    scale = subset_moduli(F, point, r, q[b], tb)
                    assert np.all(np.abs(got[..., b] - want) <= 1e-15 * scale), (n, r)
    xs, q = batch_draws(rng, 2, 6)
    xs[1][4] = xs[0][4]
    with pytest.raises(ValueError, match="coincident"):
        apply_direct(table, xs, 1, q)


def test_scalar_apply_direct_is_bitwise_the_recorded_subset_sum(monkeypatch):
    # the contour battery's draws, against values the scalar subset sum
    # gave before apply_direct took batches of points
    golden = json.loads((Path(__file__).parent / "goldens"
                         / "contour_battery_direct_1234.json").read_text())["values"]
    seen, direct = [], macdonald.apply_direct

    def recorded(*args, **kwargs):
        seen.append(direct(*args, **kwargs))
        return seen[-1]
    monkeypatch.setattr(macdonald, "apply_direct", recorded)
    verify.battery_contour_action(1234)
    assert not any(isinstance(v, np.ndarray) for v in seen)
    assert [[v.real.hex(), v.imag.hex()] for v in seen] == golden


def test_eigen_residual_over_a_batch_matches_one_point_at_a_time():
    rng = np.random.default_rng(78)
    lams = [lam for lam in enumerate_up_to_weight(5) if len(lam) <= 3]
    orders = (1, 2, 3)
    xs, q = batch_draws(rng, 3, 8)
    got = eigen_residual(lams, xs, orders, q, q)
    assert got.shape == (len(orders), len(lams), 8)
    F = lambda v: schur_table(lams, v)
    for b in range(8):
        point = [x[b] for x in xs]
        want = eigen_residual(lams, point, orders, q[b], q[b])
        scale = np.abs(F(point)) + 1
        for k, r in enumerate(orders):
            bound = 1e-15 * subset_moduli(F, point, r, q[b], q[b]) / scale
            assert np.all(np.abs(got[k, :, b] - want[k]) <= bound), (b, r)


def test_eigenrelation_battery_is_one_batched_call_per_n(monkeypatch):
    calls, residual = [], macdonald.eigen_residual

    def spy(lams, xs, orders, q, t=None, **kwargs):
        calls.append((len(xs), np.shape(q)))
        return residual(lams, xs, orders, q, t, **kwargs)

    def no_schur(*args):
        raise AssertionError("the battery evaluates no Schur value one at a time")
    monkeypatch.setattr(macdonald, "eigen_residual", spy)
    monkeypatch.setattr(symfunc, "schur", no_schur)
    monkeypatch.setattr(macdonald, "schur", no_schur)
    before = symfunc._skew_schur_cached.cache_info().currsize
    row, box = verify.battery_eigenrelation(1234)
    assert symfunc._skew_schur_cached.cache_info().currsize == before
    # one call per n over the 50 draws, then the single box at t != q
    assert calls == [(2, (50,)), (3, (50,)), (2, ())]
    # 12 partitions fit n = 2 and 16 fit n = 3; n = 2 evaluates its point
    # and 2 + 1 shifted sets, n = 3 its point and 3 + 3 + 1
    assert (row["draws"], row["point_sets"], row["schur_values"]) == (
        50, 50 * (4 + 8), 50 * (4 * 12 + 8 * 16))
    assert row["pass"] and box["pass"]


def test_contour_action_one_variable_residue():
    # n = 1, r = 1: the single residue collapses to G(q x)
    q = 0.4 + 0.15j
    G = standard_G([0.3])
    x = 0.55
    val = apply_via_contour(G, [x], 1, q)
    assert abs(val - G.value([q * x])) < 1e-10


def test_a_contour_action_sums_and_keeps_complex_values(monkeypatch):
    # converge keeps complex estimates complex: only the kernel's real
    # estimates give real values
    accepted, converge = [], quad.converge

    def spy(*args):
        out = converge(*args)
        accepted.append(out[0])
        return out
    monkeypatch.setattr(quad, "converge", spy)
    val = apply_via_contour(standard_G([0.3, 0.2]), [0.55, 0.35], 2, 0.4 + 0.15j)
    assert len(accepted) == 1 and type(accepted[0][0]) is np.complex128
    assert np.iscomplexobj(val) and val.imag


def test_contour_action_q_to_one_limit():
    # at q = 1 the subset weights degenerate to 1 and D^{1} G -> n G
    q = 1 - 1e-6
    G = standard_G([0.25, 0.1])
    xs = [0.5, 0.3]
    val = apply_via_contour(G, xs, 1, q)
    assert abs(val - 2 * G.value(xs)) < 1e-4


def test_contour_action_random_battery():
    from pfschur.verify import battery_contour_action
    rows = battery_contour_action(seed=5, draws=8)
    assert all(r["pass"] for r in rows)


def test_contour_action_telescoping():
    # r = n = 2: one distinct pair of circles times r! reproduces the full
    # tensor contour (the coincident-circle tuples integrate to zero)
    q = 0.35 + 0.1j
    ys = [0.25, 0.1]
    G = standard_G(ys)
    xs = [0.5, 0.3]
    f, g = G.f, G.g

    def one_var(z):
        v = np.ones_like(z)
        for x in xs:
            v = v * (q * z - x) * f(q * z * x) / ((z - x) * f(z * x))
        return v * f(z * z) / f(q * z * z) * g(q * z) / (g(z) * z)

    def integrand(z1, z2):
        v = (z1 - z2) / ((q * z1 - z2) * f(q * z1 * z2))
        v = v * (z2 - z1) / ((q * z2 - z1) * f(q * z2 * z1))
        v = v * f(q * q * z1 * z2) * f(z1 * z2)
        return v * one_var(z1) * one_var(z2)

    rad = 0.04
    full = quad.integrate2(integrand, quad.circles_around(xs, rad),
                           quad.circles_around(xs, rad), tol=1e-10)
    c1 = quad.circles_around([xs[0]], rad)
    c2 = quad.circles_around([xs[1]], rad)
    one_pair = quad.integrate2(integrand, c1, c2, tol=1e-10)
    assert abs(math.factorial(2) * one_pair - full) < 1e-8 * max(1, abs(full))


def test_iterated_d1_reduces_to_direct():
    xs, ys = [0.3, 0.2], [0.25, 0.1]
    q = 0.45 * np.exp(0.7j)
    Zf = lambda v: z_partition(v, ys)
    direct = apply_direct(Zf, xs, 1, q)
    cont = iterated_action_Z([q], xs, ys)
    assert abs(direct - cont) < 1e-8


def test_iterated_d2_matches_composition():
    xs, ys = [0.3, 0.2], [0.25, 0.1]
    q1, q2 = 0.4 + 0.1j, 0.35 - 0.2j
    Zf = lambda v: z_partition(v, ys)
    comp = apply_direct(lambda v: apply_direct(Zf, v, 1, q1), xs, 1, q2)
    cont = iterated_action_Z([q1, q2], xs, ys)
    assert abs(comp - cont) < 1e-6
    # symmetric under permuting the q's
    cont_swapped = iterated_action_Z([q2, q1], xs, ys)
    assert abs(cont - cont_swapped) < 1e-8


def test_iterated_d2_repeated_q():
    xs, ys = [0.3, 0.2], [0.25, 0.1]
    q = 0.4 + 0.1j
    Zf = lambda v: z_partition(v, ys)
    comp = apply_direct(lambda v: apply_direct(Zf, v, 1, q), xs, 1, q)
    cont = iterated_action_Z([q, q], xs, ys)
    assert abs(comp - cont) < 1e-6


def test_iterated_F_matches_composition():
    xs, ys = [0.3, 0.2], [0.25, 0.1]
    q1, q2 = 0.4 + 0.1j, 0.35 - 0.2j
    Ff = lambda v: cauchy_H(v, ys)
    comp = apply_direct(lambda v: apply_direct(Ff, v, 1, q1), xs, 1, q2)
    cont = iterated_action_F([q1, q2], xs, ys)
    assert abs(comp - cont) < 1e-6
    direct = apply_direct(Ff, xs, 1, q1)
    assert abs(iterated_action_F([q1], xs, ys) - direct) < 1e-8


def test_stated_contour_drops_double_shifts():
    # the bare x-circle contour loses the same-variable double-shift
    # residues at d >= 2; keep the gap visible on purpose
    xs, ys = [0.3, 0.2], [0.25, 0.1]
    q1, q2 = 0.4 + 0.1j, 0.35 - 0.2j
    Zf = lambda v: z_partition(v, ys)
    comp = apply_direct(lambda v: apply_direct(Zf, v, 1, q1), xs, 1, q2)
    stated = iterated_action_Z([q1, q2], xs, ys, contour_mode="stated")
    assert abs(comp - stated) > 0.1


def test_iterated_matches_observable_oracle():
    xs, ys = [0.3, 0.2], [0.25, 0.1]
    spec = ProcessSpec([xs], [ys])
    qs = [0.35, 0.2 + 0.15j]
    act = iterated_action_Z(qs, xs, ys) / z_partition(xs, ys)
    obs = observable_expectation_oracle([qs], spec, L=30)
    assert abs(act - obs) < 1e-6


def test_choose_radii_decreasing_and_positive():
    radii = choose_radii([0.4 + 0.1j, 0.3], [0.3, 0.2], [0.25, 0.1])
    assert radii[0] > radii[1] > 0


def _old_contour_integrand(G, xs, q):
    """The r = 2 integrand of apply_via_contour, written out as one formula."""
    f, g = G.f, G.g

    def one_var(z):
        v = np.ones_like(z)
        for x in xs:
            v = v * (q * z - x) * f(q * z * x) / ((z - x) * f(z * x))
        return v * f(z * z) / f(q * z * z) * g(q * z) / (g(z) * z)

    def integrand(z1, z2):
        v = 1.0
        for a, b in ((z1, z2), (z2, z1)):
            v = v * (a - b) / ((q * a - b) * f(q * a * b))
        return v * f(q * q * z1 * z2) * f(z1 * z2) * one_var(z1) * one_var(z2)
    return integrand


def _old_iterated_integrand(z1, z2, qs, xs, ys, with_boundary):
    """The d = 2 integrand of the iterated action, written out as one formula."""
    v = 1.0
    for zj, qj in ((z1, qs[0]), (z2, qs[1])):
        v = v / ((qj - 1.0) * zj)
        for x in xs:
            v = v * (qj * zj - x) / (zj - x)
        for y in ys:
            v = v * (1 - zj * y) / (1 - qj * zj * y)
        if with_boundary:
            for x in xs:
                v = v * (1 - zj * x) / (1 - qj * zj * x)
            v = v * (1 - qj * zj * zj) / (1 - zj * zj)
    q1, q2 = qs
    v = v * (q1 * z1 - q2 * z2) * (z1 - z2) / ((z1 - q2 * z2) * (q1 * z1 - z2))
    if with_boundary:
        v = v * (1 - q2 * z2 * z1) * (1 - q1 * z1 * z2) \
            / ((1 - q1 * q2 * z1 * z2) * (1 - z1 * z2))
    return v


def _old_pair(zj, zk, qj, qk, f):
    """The pair factor as it was written before its reciprocal factors were
    multiplied out: with Z's f(u) = 1/(1 - u), five divisions per point."""
    u = zj * zk
    return ((qj * zj - qk * zk) * (zj - zk) * (f(qj * qk * u) * f(u))
            / ((zj - qk * zk) * (qj * zj - zk) * (f(qj * u) * f(qk * u))))


def test_pair_factor_is_the_five_division_formula():
    rng = np.random.default_rng(1520)
    for with_boundary in (True, False):
        f = ProductFormFunction((), with_boundary).f
        for _ in range(40):
            (cj, ck), (rj, rk) = rng.uniform(0.15, 0.85, 2), rng.uniform(0.01, 0.1, 2)
            zj = cj + rj * np.exp(2j * np.pi * rng.random((24, 1)))
            zk = ck + rk * np.exp(2j * np.pi * rng.random((1, 40)))
            qj, qk = (0.1 + 0.8 * rng.random(2)) * np.exp(2j * np.pi * rng.random(2))
            want = _old_pair(zj, zk, qj, qk, f)
            got = macdonald._pair(zj, zk, qj, qk, with_boundary)
            assert np.all(np.abs(got - want) <= 1e-14 * np.abs(want)), with_boundary


def _close(a, b):
    return abs(a - b) <= 1e-13 * abs(b)


def test_contour_action_r2_is_integrate2_of_the_old_integrand():
    q = 0.35 + 0.1j
    xs = [0.5, 0.3, 0.15]
    G = standard_G([0.25, 0.1])
    for tol in (1e-9, 1e-12):
        value, info = apply_via_contour(G, xs, 2, q, tol=tol, full_output=True)
        contour = quad.circles_around(xs, info["radius"], nodes=4)
        ref, ref_info = quad.integrate2(_old_contour_integrand(G, xs, q), contour,
                                        contour, tol=tol, full_output=True)
        assert info["nodes"] == ref_info["nodes"]
        assert _close(value, G.value(xs) * q / (2 * (q - 1) ** 2) * ref)


@pytest.mark.parametrize("action, mode", [
    pytest.param(action, mode, id=f"{action.__name__}-{mode}")
    for action, mode in ((iterated_action_F, "shift_images"),
                         (iterated_action_Z, "shift_images"),
                         (iterated_action_Z, "stated"))])
def test_iterated_d2_is_integrate2_of_the_old_integrand(monkeypatch, action, mode):
    xs, ys = [0.3, 0.2], [0.25, 0.1]
    qs = [0.4 + 0.1j, 0.35 - 0.2j]
    integrate_product, seen = quad.integrate_product, []

    def spy(ones, pair, contours, tol, full_output=False):
        value, info = integrate_product(ones, pair, contours, tol=tol,
                                        full_output=True)
        seen.append((contours, tol, value, info["nodes"]))
        return (value, info) if full_output else value
    monkeypatch.setattr(quad, "integrate_product", spy)
    action(qs, xs, ys, **({} if mode == "shift_images" else {"contour_mode": mode}))
    monkeypatch.undo()  # integrate2 calls integrate_product itself
    ((c1, c2), tol, value, nodes), = seen
    ref, ref_info = quad.integrate2(
        lambda z1, z2: _old_iterated_integrand(z1, z2, qs, xs, ys,
                                               action is iterated_action_Z),
        c1, c2, tol=tol, full_output=True)
    assert nodes == ref_info["nodes"]
    assert _close(value, ref)


def test_contour_action_r3_matches_direct():
    q = -0.2 + 0.1j
    xs = [0.7, 0.45, 0.2]
    G = standard_G([0.25, 0.1])
    direct = apply_direct(G, xs, 3, q)
    value, info = apply_via_contour(G, xs, 3, q, tol=1e-8, full_output=True)
    assert abs(value - direct) < 1e-8 * abs(direct)
    assert info["nodes"] == (8, 8, 8)


def test_contour_action_random_draws_match_direct():
    # the circles start at 4 nodes: every accepted estimate must still be
    # the direct action, at n in {2, 3, 4} and r up to 3
    rng = np.random.default_rng(4107)
    for n in (2, 3, 4):
        for r in range(1, min(n, 3) + 1):
            for _ in range(2):
                xs = np.sort(rng.uniform(0.15, 0.85, n))
                while min(np.diff(xs)) < 0.08:
                    xs = np.sort(rng.uniform(0.15, 0.85, n))
                G = standard_G(rng.uniform(0.05, 0.5, 2))
                q = rng.uniform(0.2, 0.7) * np.exp(2j * np.pi * rng.random())
                direct = apply_direct(G, list(xs), r, q)
                value = apply_via_contour(G, list(xs), r, q, tol=1e-9)
                assert abs(value - direct) < 1e-8 * abs(direct), (n, r, xs, q)


def contour_draws(rng, n, size):
    """size separated point sets of n points, two ys each, and q's, as the
    contour battery draws them."""
    xs = []
    for _ in range(size):
        x = np.sort(rng.uniform(0.15, 0.85, n))
        while min(np.diff(x)) < 0.08:
            x = np.sort(rng.uniform(0.15, 0.85, n))
        xs.append(x)
    ys = rng.uniform(0.05, 0.5, (size, 2))
    q = (0.2 + 0.5 * rng.random(size)) * np.exp(2j * np.pi * rng.random(size))
    return np.array(xs), ys, q


def test_contour_action_over_a_batch_matches_one_draw_at_a_time():
    rng = np.random.default_rng(1518)
    for n in (2, 3, 4):
        for r in range(1, min(n, 3) + 1):
            xs, ys, q = contour_draws(rng, n, 3)
            got, info = apply_via_contour(ProductFormFunction(list(ys.T)),
                                          list(xs.T), r, q, full_output=True)
            assert got.shape == (3,) and len(info["nodes"]) == 3
            for b in range(3):
                want, alone = apply_via_contour(standard_G(ys[b]), list(xs[b]), r,
                                                q[b], full_output=True)
                assert _close(got[b], want), (n, r, b)
                assert info["nodes"][b] == alone["nodes"], (n, r, b)
                assert abs(info["radius"][b] - alone["radius"]) <= 1e-15 * alone["radius"]
            assert info["grid_points"] == 3 * alone["grid_points"]


def test_contour_battery_is_one_batched_call_per_shape(monkeypatch):
    calls, contour = [], macdonald.apply_via_contour

    def spy(G, xs, r, q, **kwargs):
        calls.append((len(xs), r, np.shape(q)))
        return contour(G, xs, r, q, **kwargs)
    monkeypatch.setattr(macdonald, "apply_via_contour", spy)
    row, = verify.battery_contour_action(1234)
    # the 20 draws at seed 1234 fall into four (n, r) shapes
    assert sorted(calls) == [(2, 1, (3,)), (2, 2, (7,)), (3, 1, (4,)), (3, 2, (6,))]
    # per draw one pass, n circles of 8 nodes for each of r variables, which
    # serves the 4-node estimate too
    assert (row["draws"], row["grid_points"]) == (
        20, sum(size * (8 * n) ** r for n, r, (size,) in calls))
    assert row["pass"] and row["max_nodes"] == 8


def test_contour_action_over_a_batch_names_the_draw_that_failed():
    rng = np.random.default_rng(1519)
    xs, ys, q = contour_draws(rng, 2, 3)
    with pytest.raises(quad.QuadratureError) as exc:
        apply_via_contour(ProductFormFunction(list(ys.T)), list(xs.T), 1, q, tol=0)
    assert str(exc.value).startswith(
        "contour action r=1: contour integral did not converge at 32768 "
        "nodes/circle (draw 0 of 3)")
    with pytest.raises(quad.QuadratureError) as alone:
        apply_via_contour(standard_G(ys[0]), list(xs[0]), 1, q[0], tol=0)
    assert all(_close(a, b) for a, b in zip(exc.value.estimates, alone.value.estimates))


def test_contour_action_at_a_partly_batched_point_matches_apply_direct():
    # one coordinate over a batch of two draws, the others plain: the radius
    # is one per draw and the plain circles are the same in every draw
    xs = [0.3, np.array([0.6, 0.7]), 0.45]
    G = ProductFormFunction([np.array([0.3, 0.25]), 0.2])
    q = 0.4 * np.exp(0.7j)
    assert contour_radius(xs, q).shape == (2,)
    for r in (1, 2):
        got = apply_via_contour(G, xs, r, q)
        want = apply_direct(G, xs, r, q)
        assert got.shape == (2,) and all(_close(g, w) for g, w in zip(got, want)), r


def test_contour_action_at_a_plain_point_with_batched_q_matches_apply_direct():
    # plain coordinates and q over a batch: one radius per q draw, each the
    # radius of that draw alone, whether the batch is shorter, as long as or
    # longer than the coordinate list
    G = ProductFormFunction([0.3, 0.2])
    xs = [0.3, 0.6]
    for qs in (np.array([0.4 * np.exp(0.7j)]), np.array([0.4, 0.9 * np.exp(2j)]),
               np.array([0.4, -0.5, 0.3 + 0.6j])):
        rad = contour_radius(xs, qs)
        assert rad.shape == qs.shape
        assert all(rad[b] == contour_radius(xs, q) for b, q in enumerate(qs))
        for r in (1, 2):
            got = apply_via_contour(G, xs, r, qs)
            assert got.shape == qs.shape
            assert all(_close(g, apply_direct(G, xs, r, q)) for g, q in zip(got, qs)), (qs, r)


def test_contour_circles_stay_inside_the_unit_disk():
    # the regular factors have poles outside the unit disk (z = 1 of
    # f(z^2), 1/(q x), 1/(q y)); at n = 1 and x near 1 a circle bounded only
    # by the other points, the q-images and 0 enclosed them
    rng = np.random.default_rng(7)
    for i in range(150):
        n = 1 + i % 3
        xs = rng.uniform(0.05, 0.9, n)
        while n > 1 and np.diff(np.sort(xs)).min() < 0.02:
            xs = rng.uniform(0.05, 0.9, n)
        G = standard_G(rng.uniform(0.05, 0.9, 2))
        q = rng.uniform(0.1, 0.95) * np.exp(2j * np.pi * rng.random())
        r = int(rng.integers(1, min(n, 2) + 1))
        assert max(abs(x) for x in xs) + contour_radius(list(xs), q) < 1
        direct = apply_direct(G, list(xs), r, q)
        value = apply_via_contour(G, list(xs), r, q)
        assert abs(value - direct) < 1e-12 * (abs(direct) + 1), (xs, q, r)
    # a radius of 0.378 around x = 0.882 enclosed z = 1
    G, q = standard_G([0.551, 0.564]), -0.286 - 0.575j
    direct = apply_direct(G, [0.882], 1, q)
    assert abs(apply_via_contour(G, [0.882], 1, q) - direct) < 1e-12 * abs(direct)


def test_contour_action_names_the_integral_that_failed():
    G = standard_G([0.25, 0.1])
    with pytest.raises(quad.QuadratureError) as exc:
        apply_via_contour(G, [0.5, 0.3], 1, 0.35 + 0.1j, tol=0)
    assert str(exc.value).startswith(
        "contour action r=1: contour integral did not converge at 32768 nodes")
    prev, last = exc.value.estimates
    assert abs(prev - last) < 1e-12
    with pytest.raises(quad.QuadratureError) as exc:
        iterated_action_F([0.35 + 0.1j], [0.5, 0.3], [0.25, 0.1], tol=0)
    assert str(exc.value).startswith("iterated F action qs=(0.35+0.1j): ")
    assert len(exc.value.estimates) == 2


def test_iterated_actions_report_their_quadrature():
    xs, ys, qs = [0.3, 0.2], [0.25, 0.1], [0.4 + 0.1j, 0.35 - 0.2j]
    for action in (iterated_action_Z, iterated_action_F):
        value, info = action(qs, xs, ys, full_output=True)
        assert value == action(qs, xs, ys)
        assert set(info) == {"nodes", "last_delta", "grid_points", "radii"}
        assert len(info["nodes"]) == 2 and 0 < info["last_delta"] < 1e-9 * abs(value)
        # a sixteenth of the radius per level, as choose_radii sets them:
        # here every circle already lies within a sixteenth of its distance
        # to the other centers of its level, to 0 and to the unit circle, so
        # _separated leaves them as they are
        assert info["radii"] == choose_radii(qs, xs, ys)
        assert info["radii"][1] == info["radii"][0] / 16
        # the earlier variable's four circles (the x_i and their q_2-images)
        # against the later one's two, at every pass from the 16-node one,
        # which serves the 8-node start too; that pass is the only one
        assert info["nodes"] == (16, 16)
        assert info["grid_points"] == (4 * 16) * (2 * 16)


def test_contour_action_rejects_orders_outside_1_to_n():
    G = standard_G([0.25, 0.1])
    for r in (0, 3):
        with pytest.raises(ValueError, match=f"operator order r={r} must be in"):
            apply_via_contour(G, [0.5, 0.3], r, 0.35 + 0.1j)


def test_stated_residue_sum_at_equal_shifts_is_the_direct_action():
    # at r equal shifts the stated contour is apply_via_contour's, so its
    # exact residue sum over r! is the order-r operator on Z
    rng = np.random.default_rng(1705)
    for _ in range(40):
        n = int(rng.integers(2, 5))
        r = int(rng.integers(1, n + 1))
        xs = list(rng.uniform(0.1, 0.7, n))
        ys = list(rng.uniform(0.1, 0.7, n))
        q = rng.uniform(0.2, 0.8) * np.exp(2j * np.pi * rng.random())
        direct = apply_direct(lambda v: z_partition(v, ys), xs, r, q)
        residues = stated_action_Z([q] * r, xs, ys) / math.factorial(r)
        assert abs(residues - direct) <= 1e-10 * abs(direct)


D3_CASE = ([0.4 + 0.1j, 0.35 - 0.2j, 0.3 + 0.05j], [0.3, 0.2, 0.12],
           [0.25, 0.1, 0.05])


def _level_fault(centers, radii):
    """The first fault of a level's circles about centers at radii, level by
    level and circle by circle: one that encloses 0, one that leaves the
    unit disk or two that intersect; None if there is none. `_separated`
    radii have none."""
    for cs, r in zip(centers, radii):
        for a, c in enumerate(cs):
            if abs(c) <= r:
                return "encloses 0"
            if abs(c) + r >= 1:
                return "leaves the unit disk"
            if any(abs(c - b) <= 2 * r for b in cs[a + 1:]):
                return "intersect"
    return None


def _d3_draws(seed, ns, shift_images):
    """(qs, xs, ys) with three complex q's, 0.2 < |q| < 0.6, and n points
    for each n in ns, whose stated radii exist and, with shift_images, whose
    shift-image circles at those radii are disjoint, inside the unit disk
    away from 0 and pass their disk checks; other draws are skipped."""
    rng = np.random.default_rng(seed)
    cases = []
    for n in ns:
        while True:
            xs = list(rng.uniform(0.1, 0.6, n))
            ys = list(rng.uniform(0.1, 0.6, n))
            qs = list(rng.uniform(0.2, 0.6, 3) * np.exp(2j * np.pi * rng.random(3)))
            try:
                radii = choose_radii(qs, xs, ys)
                if shift_images:
                    centers = _image_centers(qs, xs)
                    if _level_fault(centers, radii):
                        continue
                    _validate_disks(qs, centers, radii)
            except ContourConditionError:
                continue
            cases.append((qs, xs, ys))
            break
    return cases


def _composition(qs, xs, ys, partition):
    F = lambda v: partition(v, ys)
    for q in qs:
        F = (lambda G, q: lambda v: apply_direct(G, v, 1, q))(F, q)
    return F(xs)


def test_iterated_d3_matches_the_triple_composition():
    for qs, xs, ys in [D3_CASE] + _d3_draws(2017, (2, 3), shift_images=True):
        comp = _composition(qs, xs, ys, z_partition)
        assert abs(iterated_action_Z(qs, xs, ys) - comp) < 1e-9 * abs(comp)


def test_iterated_d2_random_draws_match_their_references():
    # shift-image contours against the composed direct actions, the stated
    # contour against its exact residue sum (written for Z only)
    rng = np.random.default_rng(2203)
    for n in (2, 3, 2, 3):
        xs = list(rng.uniform(0.1, 0.6, n))
        ys = list(rng.uniform(0.1, 0.6, 2))
        qs = list(rng.uniform(0.2, 0.6, 2) * np.exp(2j * np.pi * rng.random(2)))
        for action, partition in ((iterated_action_Z, z_partition),
                                  (iterated_action_F, cauchy_H)):
            comp = _composition(qs, xs, ys, partition)
            assert abs(action(qs, xs, ys) - comp) < 1e-8 * abs(comp)
        stated = stated_action_Z(qs, xs, ys)
        assert abs(iterated_action_Z(qs, xs, ys, contour_mode="stated")
                   - stated) < 1e-8 * abs(stated)


def _intersecting_d3_draws(seed, count):
    """d = 3 draws at n = 3 whose stated radii exist but put two circles of
    one shift-image level within a diameter of each other."""
    rng = np.random.default_rng(seed)
    cases = []
    while len(cases) < count:
        xs = list(rng.uniform(0.1, 0.6, 3))
        ys = list(rng.uniform(0.1, 0.6, 3))
        qs = list(rng.uniform(0.2, 0.6, 3) * np.exp(2j * np.pi * rng.random(3)))
        try:
            radii = choose_radii(qs, xs, ys)
        except ContourConditionError:
            continue
        if _level_fault(_image_centers(qs, xs), radii) == "intersect":
            cases.append((qs, xs, ys))
    return cases


def test_iterated_d3_shrinks_radii_to_close_shift_images():
    # choose_radii spaces the circles for the x_i only; the shift images
    # q_k x_i, q_k q_l x_i of an earlier level can lie closer, and the
    # default radii are scaled down until that level's circles are disjoint
    xs = [0.455, 0.567, 0.401]
    qs = [-0.365 - 0.098j, -0.493 - 0.162j, 0.106 + 0.395j]
    ys = [0.25, 0.1, 0.05]
    for qs, xs, ys in [(qs, xs, ys)] + _intersecting_d3_draws(2017, 2):
        comp = _composition(qs, xs, ys, z_partition)
        assert abs(iterated_action_Z(qs, xs, ys) - comp) < 1e-9 * abs(comp)
    # at levels 0.8 of each other's radius a z_k/q_j locus of this draw
    # crossed an earlier level; at a quarter it is clear, and the action is
    # the composition to rounding (9.4e-16 relative)
    xs = [0.5826989820985194, 0.42784004336343395]
    ys = [0.25558996009091484, 0.3716688284324764]
    qs = [-0.23903101171977237 - 0.41759550972921383j,
          -0.24192240398389162 + 0.5469091317388677j,
          0.39656576780946845 - 0.05151451292277064j]
    comp = _composition(qs, xs, ys, z_partition)
    assert abs(iterated_action_Z(qs, xs, ys) - comp) < 1e-14 * abs(comp)
    # q_3 x_1 = q_1 x_2 = 0.2: for z_2 on the level-2 circle around q_3 x_1
    # the pole z_1 = z_2/q_1 circles x_2 at radius r_2/|q_1| = r_1/1.6,
    # inside the level-1 circle around x_2, and the check raises
    with pytest.raises(ContourConditionError, match="z_k/q_j pole reaches"):
        iterated_action_Z([0.4, 0.3 + 0.1j, 0.5], [0.4, 0.5], [0.25, 0.1])


def test_iterated_actions_match_the_composition_on_random_draws():
    # n <= 3 points and 1-3 ys in (0.1, 0.6), |q| <= 0.7: 24 draws at d = 1
    # and 2 each, and two at d = 3. Each circle's enclosed shift-image loci
    # lie within |q|/16 of its radius, and the other centers of its level, 0
    # and the unit circle at least 16 radii from its center, so the
    # trapezoid error falls like 16^-N: every one of the 48 d <= 2 actions
    # is accepted at the first doubling, 8 -> 16
    rng = np.random.default_rng(2404)
    first = []
    for d in [1, 2] * 12 + [3, 3]:
        xs = list(rng.uniform(0.1, 0.6, int(rng.integers(1, 4))))
        ys = list(rng.uniform(0.1, 0.6, int(rng.integers(1, 4))))
        qs = list(rng.uniform(0.05, 0.7, d) * np.exp(2j * np.pi * rng.random(d)))
        for action, partition in ((iterated_action_Z, z_partition),
                                  (iterated_action_F, cauchy_H)):
            comp = _composition(qs, xs, ys, partition)
            value, info = action(qs, xs, ys, full_output=True)
            assert abs(value - comp) < 1e-9 * abs(comp), (d, xs, ys, qs)
            if d <= 2:
                first.append(info["nodes"] in (16, (16,) * d))
    assert len(first) == 48 and all(first)


def test_d4_default_radii_keep_0_outside_every_circle():
    # the level-0 centers include q_2 q_3 q_4 x at |.| = 7.9e-4, and
    # choose_radii's r_1 = 1.6e-3 around it encloses 0; the default radii,
    # scaled so every circle lies within a sixteenth of its center's
    # distance to 0, keep 0 outside and pass the disk checks, and the
    # action, one 16-node pass of 4.2e6 grid points, is the composition
    qs = [0.438109980856251 - 0.4733220751055826j,
          -0.08841076984217433 - 0.09910878569057528j,
          -0.09779319600584474 + 0.0021068581210672145j,
          0.04947332573418526 + 0.08193405514745078j]
    xs, ys = [0.6389867501818189], [0.1931078245306091, 0.36989593846967517]
    centers, radii = _image_centers(qs, xs), choose_radii(qs, xs, ys)
    assert min(map(abs, centers[0])) < radii[0]
    separated = _separated(radii, centers)
    assert _level_fault(centers, separated) is None
    _validate_disks(qs, centers, separated)
    comp = _composition(qs, xs, ys, z_partition)
    value, info = iterated_action_Z(qs, xs, ys, full_output=True)
    assert info["nodes"] == (16,) * 4
    assert abs(value - comp) < 1e-9 * abs(comp)


def test_a_shift_image_center_off_the_unit_disk_is_a_contour_error():
    # |q_2 x| = 1.14: no scaling keeps a circle about it inside the unit disk
    with pytest.raises(ContourConditionError, match="center lies off the unit disk"):
        iterated_action_Z([0.3, 1.9], [0.6], [0.2])


@pytest.mark.filterwarnings("error")
def test_a_zero_or_tiny_shift_is_a_contour_error():
    # q_2 = 1e-9 drives choose_radii's radii to 6.75e-20 and 4.2e-21 about
    # x = 0.5, far below its float resolution of 1.1e-16, where nodes round
    # onto the pole; q_2 = 0 admits no contour. Each is named before any
    # node is evaluated, with no warning
    for q, match in ((1e-9, r"1e-09.*below the float resolution"),
                     (0.0, "a zero shift admits no contour")):
        with pytest.raises(ContourConditionError, match=match):
            iterated_action_Z([0.4, q], [0.5], [0.2])


def test_a_zero_or_coincident_point_is_a_contour_error(monkeypatch):
    # a point at 0 would divide by zero in the stated distance, and
    # coincident points admit no circles that keep apart; each is refused
    # before any division or quadrature, naming the points, on both actions
    # and both contour modes
    def quadrature(*args, **kwargs):
        raise AssertionError("a quadrature ran")
    monkeypatch.setattr(macdonald.quad, "integrate_product", quadrature)
    calls = [lambda xs: iterated_action_Z([0.4 + 0.1j], xs, [0.2]),
             lambda xs: iterated_action_Z([0.4 + 0.1j], xs, [0.2], contour_mode="stated"),
             lambda xs: iterated_action_F([0.4 + 0.1j], xs, [0.2])]
    refusals = (([0.0, 0.3], "points xs=(0j, 0.3+0j): a point at 0 admits no contour"),
                ([0.3, 0.3], "points xs=(0.3+0j, 0.3+0j): "
                             "coincident points admit no contour"))
    for call in calls:
        for xs, message in refusals:
            with pytest.raises(ContourConditionError) as exc:
                call(xs)
            assert str(exc.value) == message


def test_separated_names_the_center_that_admits_no_radius():
    for centers, where in (([0j, 0.3], "at 0"), ([0.3, 0.3], "on another center"),
                           ([0.3, 1.2], "off the unit disk"),
                           ([0.3, 1.0], "off the unit disk")):
        with pytest.raises(ContourConditionError) as exc:
            _separated([0.01], [centers])
        assert str(exc.value) == f"a contour circle center lies {where}"


def test_a_shifted_point_near_an_x_is_a_contour_error(monkeypatch):
    # q_2 x_1 lies 5e-13 from x_2 = 0.25, far below 2^-20 of the largest |x|:
    # the action would double to 8192 nodes per circle, about 30 s, and fail
    # with QuadratureError. It is refused before any quadrature, its message
    # telling the shift apart from 0.5
    def quadrature(*args, **kwargs):
        raise AssertionError("a quadrature ran")
    monkeypatch.setattr(macdonald.quad, "integrate_product", quadrature)
    with pytest.raises(ContourConditionError,
                       match=r"0\.500000000001\+0j\) put a shifted point 5e-13 from"):
        iterated_action_Z([0.4, 0.5 + 1e-12], [0.5, 0.25], [0.2])


def test_an_unresolvable_contour_is_refused_before_any_quadrature(monkeypatch):
    # every action is refused on the radii its quadrature would use. At
    # points 1e-12 and 1e-10 apart and at q = 1 - 1e-9 apply_via_contour
    # returned values 5.1e-5, 1.3e-7 and 3.6e-8 off apply_direct with no
    # error; with q_2 x one ulp inside the unit circle `_separated` shrinks
    # the shift-image circles to 4.3e-19, and the quadrature ran to 8192
    # nodes per circle before failing; every iterated mode ran its
    # quadrature on points 1e-12 or one ulp apart
    def quadrature(*args, **kwargs):
        raise AssertionError("a quadrature ran")
    monkeypatch.setattr(macdonald.quad, "integrate_product", quadrature)
    G = ProductFormFunction([0.2, 0.1])
    near = r"points xs=\(0\.3\+0j, 0\.30000000\d+\+0j\): two of them lie 1e-1[02] apart"
    for r in (1, 2):
        for xs, q, match in (([0.3, 0.3 + 1e-12], 0.4 + 0.1j, near),
                             ([0.3, 0.3 + 1e-10], 0.4 + 0.1j, near),
                             ([0.5, 0.3], 1 - 1e-9, r"0\.999999999\+0j\) put a singularity "
                                                    r"1\.5e-10 from an x_i, closer than 2\^-24")):
            with pytest.raises(ContourConditionError, match=match):
                apply_via_contour(G, xs, r, q)
    # on a batch the refusal names the draw
    with pytest.raises(ContourConditionError, match=r"2\^-24 .*\(draw 1 of 2\)$"):
        apply_via_contour(G, [0.5, 0.3], 1, np.array([0.4, 1 - 1e-9]))
    for action in (iterated_action_Z, iterated_action_F):
        with pytest.raises(ContourConditionError,
                           match=r"1\.9999999999999998\+0j\) give a radius 4\.34e-19 "
                                 r"about x = 0\.5\+0j, below the float resolution"):
            action([0.4, 1.9999999999999998], [0.5], [0.2])
    ulp = [0.3, float(np.nextafter(0.3, 1))]
    for call in (lambda xs: iterated_action_Z([0.4 + 0.1j], xs, [0.2]),
                 lambda xs: iterated_action_Z([0.4 + 0.1j], xs, [0.2], contour_mode="stated"),
                 lambda xs: iterated_action_F([0.4 + 0.1j], xs, [0.2])):
        for xs in ([0.3, 0.3 + 1e-12], ulp):
            with pytest.raises(ContourConditionError, match="two of them lie"):
                call(xs)


@pytest.mark.filterwarnings("error")
def test_a_y_at_0_adds_no_pole():
    # 1/(q y) is no pole at y = 0: the stated distance skips it, and the
    # action is the composed direct action
    qs, xs, ys = [0.4 + 0.1j], [0.3, 0.5], [0.0]
    for action, partition in ((iterated_action_Z, z_partition), (iterated_action_F, cauchy_H)):
        comp = _composition(qs, xs, ys, partition)
        assert abs(action(qs, xs, ys) - comp) < 1e-9 * abs(comp)


def test_stated_residue_sum_d3_equals_stated_quadrature():
    # the quadrature converges to 1e-9 on the scale max(1, |value|); the
    # stated circles are `_separated`'s, so each action is accepted at its
    # first doubling, 8 -> 16, from one 16-node pass
    for qs, xs, ys in [D3_CASE] + _d3_draws(1705, (3, 3, 3), shift_images=False):
        ref, info = iterated_action_Z(qs, xs, ys, contour_mode="stated", full_output=True)
        got = stated_action_Z(qs, xs, ys)
        assert abs(got - ref) <= 1e-8 * max(1.0, abs(ref))
        assert info["nodes"] == (16, 16, 16)
