import itertools
import math
import tracemalloc

import numpy as np
import pytest

from pfschur import quadrature
from pfschur.quadrature import (Circle, ContourSpec, QuadratureError, circle,
                                circles_around, estimate_bilinear, integrate,
                                integrate2, integrate_n, integrate_product,
                                nodes_weights, _estimate1)


def test_residue_examples():
    c = circle(1.0)
    assert abs(integrate(lambda z: 1 / z, c) - 1) < 1e-12
    assert abs(integrate(lambda z: 1 / (z - 2), c)) < 1e-12
    assert abs(integrate(lambda z: z, c)) < 1e-12


def test_moments():
    for r in (0.5, 1.0, 2.0):
        c = circle(r)
        for k in range(-5, 6):
            val = integrate(lambda z, k=k: z ** float(k), c)
            want = 1.0 if k == -1 else 0.0
            assert abs(val - want) < 1e-12, (r, k)


def test_spectral_accuracy_64_nodes():
    val = _estimate1(lambda z: 1 / (z - 0.5), nodes_weights(circle(1.0), 64, ()))
    assert abs(val - 1.0) < 1e-12


def test_nodes_reuse_one_read_only_array_of_roots_of_unity():
    for n in (8, 64, 4096):
        fresh = np.exp(1j * (2 * np.pi * np.arange(n) / n))
        for c in (Circle(0j, 0.7), Circle(0.1 + 0.2j, np.array([0.5, 2.0]))):
            z, _ = nodes_weights(ContourSpec((c,)), n, np.shape(c.radius))
            want = c.center + c.radius * fresh.reshape((n,) + (1,) * np.ndim(c.radius))
            assert z.tobytes() == want.tobytes() and z.flags.writeable  # bit for bit
        unit = quadrature._roots_of_unity(n)
        assert unit is quadrature._roots_of_unity(n)
        with pytest.raises(ValueError):
            unit[0] = 0


def test_union_additivity():
    f = lambda z: 1 / (z - 0.5) + 1 / (z - 3)
    c1 = ContourSpec((Circle(0.5, 0.3),))
    c2 = ContourSpec((Circle(3.0, 0.3),))
    u = ContourSpec(c1.circles + c2.circles)
    assert abs(integrate(f, u) - integrate(f, c1) - integrate(f, c2)) < 1e-13


def test_integrate2_examples():
    c = circle(1.0)
    assert abs(integrate2(lambda z, w: 1 / (z * w), c, c) - 1) < 1e-12
    assert abs(integrate2(lambda z, w: 1 / ((z - 2) * w), c, c)) < 1e-12
    assert abs(integrate2(lambda z, w: z ** 2 * w, c, c)) < 1e-12
    # an integrand of z alone returns shape (N, 1); the w-integral of 1 is 0
    assert abs(integrate2(lambda z, w: 1 / (z - 0.3), c, c)) < 1e-12


def test_integrate2_separable_product():
    # (1/2pi i)^2 double integral of product = product of single integrals
    f1 = lambda z: 1 / (z - 0.3)
    f2 = lambda w: 1 / (w - 0.4) ** 1
    c = circle(1.0)
    v2 = integrate2(lambda z, w: f1(z) * f2(w), c, c)
    v1 = integrate(f1, c) * integrate(f2, c)
    assert abs(v2 - v1) < 1e-12


def test_integrate_n_rejects_three_or_more_contours():
    c = circle(1.0)
    with pytest.raises(ValueError, match="integrate_product"):
        integrate_n(lambda a, b, d: 1 / (a * b * d), [c, c, c])


def test_nonconvergence_raises_with_estimates():
    c = ContourSpec((Circle(0j, 1.0),), 8)
    with pytest.raises(QuadratureError) as exc:
        integrate(lambda z: 1 / (z - 1.0001), c, tol=1e-13, max_nodes=64)
    assert len(exc.value.estimates) == 2


def _converge_by_entry(estimate, size, n, max_nodes, tol, failure):
    """The doubling loop written entry by entry: the reference for
    `quadrature.converge`'s one array test per doubling."""
    value, step, delta = [0j] * size, [0] * size, [0.0] * size
    live = set(range(size))
    prev = old = estimate(0, live)
    k = 0
    while live and n << (k + 1) <= max_nodes:
        k += 1
        new = estimate(k, live)
        for i in sorted(live):
            if abs(new[i] - old[i]) < tol * max(1.0, abs(new[i])):
                value[i], step[i], delta[i] = new[i], k, abs(new[i] - old[i])
                live.remove(i)
        old, prev = new, old
    if live:
        i = min(live)
        raise QuadratureError(failure(i, k), (prev[i], old[i]))
    return value, step, delta


def _table(seed, size=60, doublings=9):
    """Estimates per doubling that settle at their own rates, on scales
    either side of 1, with NaN and infinite estimates among them."""
    rng = np.random.default_rng(seed)
    target = 10.0 ** rng.uniform(-4, 4, size) * np.exp(2j * np.pi * rng.random(size))
    error = 10.0 ** rng.uniform(-10, 0, size) * np.exp(2j * np.pi * rng.random(size))
    rate = 10.0 ** -rng.uniform(1, 4, size)
    table = target + error * rate ** np.arange(doublings)[:, None]
    table[0, 3] = table[2, 4] = np.nan
    table[1, 5] = np.inf
    table[:, 6] = np.nan  # never converges
    return table


def _run(converge, estimate, table):
    """converge over the table's columns, one row per doubling from 8 nodes,
    capped at its last row."""
    return converge(estimate, table.shape[1], 8, 8 << (len(table) - 1), 1e-8,
                    lambda i, k: f"entry {i} at doubling {k}")


def _passes(table, sizes, asked):
    """An estimator over the table's rows whose passes serve sizes[0],
    sizes[1], ... counts in turn, cycling; every k it is asked for is
    appended to asked."""
    sizes = itertools.cycle(sizes)

    def estimate(k, live):
        asked.append(k)
        return list(table[k:k + next(sizes)])
    return estimate


def _starts(sizes, count):
    """The first doubling of each pass, the passes serving sizes[0],
    sizes[1], ... counts in turn, that serves one of the doublings below
    count."""
    return list(itertools.takewhile(lambda k: k < count, itertools.accumulate(
        itertools.cycle(sizes), initial=0)))


@pytest.mark.parametrize("seed", range(4))
def test_converge_accepts_as_the_entrywise_loop_does(seed):
    # passes serving one count each, or 3, 1 and 2 counts in turn, give the
    # acceptances and the failure of the loop that takes one count per call,
    # bit for bit; converge asks for no count a pass served, and for none
    # after the last acceptance
    table = _table(seed)
    with pytest.raises(QuadratureError) as want:
        _run(_converge_by_entry, lambda k, live: table[k], table)
    for sizes in [(1,), (3, 1, 2)]:
        asked = []
        with pytest.raises(QuadratureError) as got:
            _run(quadrature.converge, _passes(table, sizes, asked), table)
        assert str(got.value) == str(want.value) == "entry 6 at doubling 8"
        assert np.array_equal(got.value.estimates, want.value.estimates,
                              equal_nan=True)
        assert asked == _starts(sizes, len(table))
    # three more doublings, which no entry needs once entry 6 is gone
    table = np.delete(np.concatenate([table, table[-3:]]), 6, axis=1)
    want = _run(_converge_by_entry, lambda k, live: table[k], table)
    assert len(set(want[1])) > 3 and max(want[1]) < len(table) - 3
    for sizes in [(1,), (3, 1, 2)]:
        asked = []
        got = _run(quadrature.converge, _passes(table, sizes, asked), table)
        assert got[1] == want[1]
        assert np.array_equal(got[0], want[0]) and np.array_equal(got[2], want[2])
        assert asked == _starts(sizes, max(want[1]) + 1)


@pytest.mark.parametrize("real", [True, False])
def test_converge_keeps_real_estimates_real_and_complex_ones_complex(real):
    # the kernel's estimates are real, every other integral's complex: each
    # keeps its dtype, and an accepted value is its estimate bit for bit
    table = np.delete(_table(0), 6, axis=1)
    table = np.nan_to_num(table.real if real else table)
    value, step, _ = _run(quadrature.converge, lambda k, live: [table[k]], table)
    assert {type(v) for v in value} == {np.float64 if real else np.complex128}
    assert all(v == table[k, i] for i, (v, k) in enumerate(zip(value, step)))


def test_estimate_bilinear_is_entrywise_dense_sum_in_row_chunks(monkeypatch):
    sizes = []

    def core(z, w):
        sizes.append(z.size * w.size)
        return (z - w) / (z * w - 4)
    # column t pairs z^a with w^b / (w - 0.3), over every (a, b)
    pairs = [(a, b) for a in (-1, -2) for b in (-1, -3, 0)]
    gz = lambda z: np.stack([z ** a for a, _ in pairs], axis=1)
    gw = lambda w: np.stack([w ** b / (w - 0.3) for _, b in pairs], axis=1)
    c1, c2 = circle(1.2), circle(0.6)
    monkeypatch.setattr(quadrature, "_CHUNK", 2 ** 9)
    entries = estimate_bilinear(core, gz, gw, nodes_weights(c1, 64, ()),
                                nodes_weights(c2, 64, ()))
    assert len(sizes) == 8 and max(sizes) <= 2 ** 9
    assert entries.shape == (len(pairs),)
    # the 64 x 64 trapezoid sum written out: nodes r e^(2 pi i k/64), each
    # weighted by node/64 for the normalization 1/(2 pi i)
    z = 1.2 * np.exp(2j * np.pi * np.arange(64) / 64)[:, None]
    w = 0.6 * np.exp(2j * np.pi * np.arange(64) / 64)[None, :]
    for t, (a, b) in enumerate(pairs):
        entry = np.sum(core(z, w) * z ** a * w ** b / (w - 0.3) * z * w) / 64 ** 2
        assert abs(entries[t] - entry) < 1e-14


def test_contour_validation():
    with pytest.raises(ValueError):
        Circle(0, -1.0)
    with pytest.raises(ValueError):
        ContourSpec((Circle(0, 1.0),), nodes=48)  # not a power of two
    with pytest.raises(ValueError):
        ContourSpec((Circle(0, 1.0),), nodes=2)   # too few
    assert ContourSpec((Circle(0, 1.0),), nodes=4).nodes == 4
    with pytest.raises(ValueError):
        ContourSpec((), nodes=64)


def test_integrate_n_passes_its_cap_to_one_and_two_contours(monkeypatch):
    nodes = []

    def f(z, w=None):
        nodes.append(np.size(z))
        return 1 / (z - 1.001) if w is None else 1 / ((z - 1.001) * w)
    c = ContourSpec((Circle(0j, 1.0),), 8)
    # the cap is read at each call
    monkeypatch.setattr(quadrature, "MAX_NODES_ND", 64)
    for contours in ([c], [c, c]):
        nodes.clear()
        with pytest.raises(QuadratureError) as exc:
            integrate_n(f, contours)
        assert max(nodes) == 64
        assert "at 64 nodes/circle" in str(exc.value)


def test_nonconvergence_names_the_nodes_reached():
    # a cap that is not a power of two: the last estimate was at 64 nodes
    with pytest.raises(QuadratureError) as exc:
        integrate(lambda z: 1 / (z - 1.0001), ContourSpec((Circle(0j, 1.0),), 64),
                  tol=1e-13, max_nodes=100)
    assert "at 64 nodes/circle" in str(exc.value)
    with pytest.raises(QuadratureError) as exc:
        integrate2(lambda z, w: 1 / ((z - 1.0001) * w),
                   ContourSpec((Circle(0j, 1.0),), 16),
                   ContourSpec((Circle(0j, 1.0),), 16), tol=1e-13, max_nodes=100)
    assert "at 64 nodes/circle" in str(exc.value)


def _tensor_sum(f, contours, nodes):
    """The tensor trapezoid sum of f(z, w) at the given nodes per circle of
    each contour, written out node by node."""
    def nodes_weights(contour, n):
        return [(c.center + c.radius * np.exp(2j * np.pi * a / n),
                 c.radius * np.exp(2j * np.pi * a / n) / n)
                for c in contour.circles for a in range(n)]
    return sum(f(z, w) * wz * ww for z, wz in nodes_weights(contours[0], nodes[0])
               for w, ww in nodes_weights(contours[1], nodes[1]))


def test_integrate_product_d2_is_integrate2_of_the_product():
    core = lambda z, w: (z - w) / (z * w - 4)
    gz, gw = (lambda z: 1 / (z - 0.3)), (lambda w: w ** 2 / (w - 0.2))
    f = lambda z, w: core(z, w) * gz(z) * gw(w)
    c1, c2 = circles_around([0.3, -0.5], 0.1), ContourSpec((Circle(0j, 0.6),), 32)
    got, info = integrate_product([gz, gw], lambda j, k, z, w: core(z, w),
                                  [c1, c2], tol=1e-12, full_output=True)
    product, product_info = integrate2(f, c1, c2, tol=1e-12, full_output=True)
    assert product_info["nodes"] == info["nodes"]
    # both are the sum at the accepted counts, which differs from the one at
    # half of them by less than tol, as the one at half does not from a
    # quarter
    n1, n2 = info["nodes"]
    want, half, quarter = (_tensor_sum(f, [c1, c2], (n1 // s, n2 // s))
                           for s in (1, 2, 4))
    for value in (got, product):
        assert abs(value - want) < 1e-13 * max(1.0, abs(want))
    assert abs(want - half) < 1e-12 <= abs(half - quarter)


D3_ONES = [lambda z: 1 / (z - 0.3), lambda z: z / (z + 0.4),
           lambda z: 1 / (z * (z - 0.1))]


def d3_pair(j, k, a, b):
    return (a - b) / (a * b - 2 - j - k)


def test_integrate_product_d3_is_its_residue_sum():
    # the poles inside: z0 = 0.3 (residue 1), z1 = -0.4 (residue -0.4) and
    # z2 = 0, 0.1 (residues -10, 10); every pair factor is regular there
    contours = [circles_around([0.3, -0.4], 0.15, nodes=16),
                ContourSpec((Circle(0j, 0.7),), 16),
                circles_around([0.1, 0.0], 0.05, nodes=16)]

    def P(a, b, c):
        return d3_pair(0, 1, a, b) * d3_pair(0, 2, a, c) * d3_pair(1, 2, b, c)
    want = -0.4 * (-10 * P(0.3, -0.4, 0) + 10 * P(0.3, -0.4, 0.1))
    got = integrate_product(D3_ONES, d3_pair, contours, tol=1e-11)
    assert abs(got - want) < 1e-13 * abs(want)


def _counting(pair):
    """pair, recording the grid elements of every pair(1, 2) evaluation."""
    sizes = []

    def counted(j, k, a, b):
        if (j, k) == (1, 2):
            sizes.append(np.broadcast(a, b).size)
        return pair(j, k, a, b)
    return counted, sizes


def test_integrate_product_d3_evaluates_its_last_pair_grid_once_per_doubling():
    contours = [circles_around([0.3, -0.4], 0.15, nodes=16),
                ContourSpec((Circle(0j, 0.7),), 32),
                circles_around([0.1, 0.0], 0.05, nodes=8)]
    pair, sizes = _counting(d3_pair)
    _, info = integrate_product(D3_ONES, pair, contours, tol=1e-11,
                                full_output=True)
    # every outer node is one column of one block, so the (z1, z2) grid of
    # every pass is evaluated once: the first pass at 64 x 32 nodes serves
    # the start, 32 x 16, too
    K = (info["nodes"][1] // 32).bit_length() - 1
    assert K >= 1
    assert sum(sizes) == sum((32 << k) * (16 << k) for k in range(1, K + 1))


def test_integrate_product_column_blocks_give_the_same_estimate(monkeypatch):
    contours = [circles_around([0.3, -0.4], 0.15, nodes=16),
                ContourSpec((Circle(0j, 0.7),), 16),
                circles_around([0.1, 0.0], 0.05, nodes=16)]
    want, want_info = integrate_product(D3_ONES, d3_pair, contours, tol=1e-11,
                                        full_output=True)
    # one outer node per block: the (z1, z2) grid is evaluated once per tuple
    monkeypatch.setattr(quadrature, "_COLUMNS", 1)
    pair, sizes = _counting(d3_pair)
    got, info = integrate_product(D3_ONES, pair, contours, tol=1e-11,
                                  full_output=True)
    assert info["nodes"] == want_info["nodes"]
    assert abs(got - want) < 1e-14 * abs(want)
    K = (info["nodes"][0] // 16).bit_length() - 1
    assert sum(sizes) == sum((32 << k) * (16 << k) * (32 << k)
                             for k in range(1, K + 1))


@pytest.mark.parametrize("d", [2, 3])
def test_a_plain_circle_among_batched_contours_is_broadcast_to_the_batch(d):
    # each contour in turn plain, the others over a batch of three radii:
    # the integral is the one with that circle repeated in every draw
    scale = np.array([1.0, 0.9, 0.8])
    plain = [circles_around([0.3, -0.4], 0.15, nodes=8),
             ContourSpec((Circle(0j, 0.7),), 8),
             circles_around([0.1, 0.0], 0.05, nodes=8)][3 - d:]
    ones = D3_ONES[3 - d:]

    def batched(c, s):
        return ContourSpec(tuple(Circle(np.full(3, circ.center),
                                        np.full(3, circ.radius) * s)
                                 for circ in c.circles), c.nodes)
    for j in range(d):
        contours = [c if i == j else batched(c, scale) for i, c in enumerate(plain)]
        by_hand = [batched(c, 1.0 if i == j else scale) for i, c in enumerate(plain)]
        got, info = integrate_product(ones, d3_pair, contours, tol=1e-9,
                                      full_output=True)
        want, want_info = integrate_product(ones, d3_pair, by_hand, tol=1e-9,
                                            full_output=True)
        assert got.shape == (3,) and np.array_equal(got, want), j
        assert (info["nodes"], info["grid_points"]) == (
            want_info["nodes"], want_info["grid_points"])
    if d == 2:
        f = lambda z, w: ones[0](z) * ones[1](w) * d3_pair(0, 1, z, w)
        got = integrate2(f, plain[0], batched(plain[1], scale), tol=1e-9)
        want = integrate2(f, batched(plain[0], 1.0), batched(plain[1], scale),
                          tol=1e-9)
        assert np.array_equal(got, want)


def test_one_d3_estimate_at_the_cap_stays_within_64_MiB():
    # started at the cap, the doubling loop makes one estimate and stops;
    # its 1024 outer tuples take four column blocks
    n = quadrature.MAX_NODES_ND
    tracemalloc.start()
    try:
        with pytest.raises(QuadratureError):
            integrate_product(D3_ONES, d3_pair,
                              [ContourSpec((Circle(0j, 0.5),), n)] * 3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 64 * 2 ** 20


def test_chunk_keeps_temporaries_below_the_mmap_threshold():
    # glibc maps blocks of 128 KiB and more with mmap; each complex row block
    # of estimate_bilinear stays under that, but always holds one row
    assert quadrature._CHUNK * 16 <= 64 * 1024
    rows = []
    core = lambda z, w: rows.append(z.shape[0]) or (z - w) / (z * w - 4)
    ones = lambda v: np.ones((len(v), 1))
    n = 2 * quadrature._CHUNK
    estimate_bilinear(core, ones, ones, nodes_weights(circle(1.0), 16, ()),
                      nodes_weights(circle(0.5), n, ()))
    assert rows == [1] * 16


def test_batched_circles_give_each_draw_its_own_integral_in_bounded_blocks():
    # one circle per draw on each contour and a pole p over the same batch;
    # every draw is the integral on its own circles, and every core grid
    # the batch evaluates holds at most _CHUNK elements
    centers, radii = np.array([0.1, -0.2, 0.3j]), np.array([0.5, 0.6, 0.4])
    p = centers + 0.1
    integrand = lambda z, w, p: (z + w) / ((z - p) * (w - 0.1 * z))
    sizes = []

    def f(z, w):
        sizes.append(np.broadcast(z, w).size)
        return integrand(z, w, p)
    c1 = circles_around([centers], radii, nodes=64)
    c2 = circles_around([np.zeros(3)], 2 * radii, nodes=64)
    got, info = integrate2(f, c1, c2, tol=1e-12, full_output=True)
    assert got.shape == (3,) and max(sizes) <= quadrature._CHUNK
    assert info["grid_points"] == sum(sizes)
    for b in range(3):
        want, alone = integrate2(lambda z, w: integrand(z, w, p[b]),
                                 ContourSpec((Circle(centers[b], radii[b]),)),
                                 ContourSpec((Circle(0j, 2 * radii[b]),)),
                                 tol=1e-12, full_output=True)
        assert abs(got[b] - want) <= 1e-13 * abs(want)
        assert info["nodes"][b] == alone["nodes"]


def _circle_nodes(c, n):
    """The n trapezoid nodes of one circle and their weights, each of shape
    (n,) + the circle's batch shape: the formula that `nodes_weights`
    evaluates for every circle of a contour, written for one circle."""
    batch_axes = np.broadcast(c.center, c.radius).ndim
    unit = quadrature._roots_of_unity(n).reshape((n,) + (1,) * batch_axes)
    z = c.center + c.radius * unit
    # (1/2pi i) oint f dz = (1/n) sum f(z_k) (z_k - center)
    w = (z - c.center) / n
    return z, w


def _generator_matches_per_circle(contour, n):
    """Whether `nodes_weights` gives the per-circle nodes and weights of the
    circles, their centers and radii broadcast to the contour's batch,
    concatenated, bit for bit."""
    batch = quadrature._batch([contour])
    per_circle = [_circle_nodes(Circle(np.broadcast_to(c.center, batch),
                                       np.broadcast_to(c.radius, batch)), n)
                  for c in contour.circles]
    return all(got.tobytes() == np.concatenate([v[i] for v in per_circle]).tobytes()
               for i, got in enumerate(nodes_weights(contour, n, batch)))


def test_contour_nodes_are_the_per_circle_nodes_bit_for_bit():
    plain = circles_around([0.3, -0.4 + 0.1j, 0.2j], 0.15)
    batched = circles_around([np.array([0.3, 0.1j]), np.array([-0.4, 0.5])],
                             np.array([0.1, 0.2]))
    # a batch of radii about one center, and a batch of centers at one radius
    radii = ContourSpec((Circle(0j, np.array([[0.5, 1.0], [2.0, 0.7]])),))
    centers = circles_around([np.array([0.3, 0.1j]), np.array([-0.4, 0.5])], 0.1)
    # plain circles among batched ones, the same circles in every draw
    mixed = ContourSpec(plain.circles[:2] + batched.circles + centers.circles[:1])
    for contour in (plain, batched, radii, centers, mixed):
        for n in (8, 64, 1024):
            assert _generator_matches_per_circle(contour, n)


def test_a_contour_mixing_plain_and_batched_circles_integrates_each_draw():
    # a plain circle about the pole 0.3 and a circle about a batch of poles
    # p: each draw is the integral over its own two circles
    p, r = np.array([-0.4, -0.3 + 0.1j, 0.5j]), np.array([0.1, 0.05, 0.2])
    integrand = lambda z, p: (z + 0.7) / ((z - 0.3) * (z - p)) + z ** 3
    contour = ContourSpec((Circle(0.3, 0.1), Circle(p, r)), 8)
    got, info = integrate(lambda z: integrand(z, p), contour, tol=1e-12,
                          full_output=True)
    assert got.shape == (3,)
    for b in range(3):
        alone = ContourSpec((Circle(0.3, 0.1), Circle(p[b], r[b])), 8)
        want, one = integrate(lambda z: integrand(z, p[b]), alone, tol=1e-12,
                              full_output=True)
        assert info["nodes"][b] == one["nodes"]
        # the batch sums its nodes in another order: within 1e-15 of the
        # summands' scale
        z, w = nodes_weights(alone, one["nodes"], ())
        scale = np.sum(np.abs(integrand(z, p[b]) * w))
        assert abs(got[b] - want) <= 1e-15 * scale


def _f1(z):
    return (z + 0.7) / ((z - 0.3) * (z + 0.2 - 0.1j)) + z ** 3


def _f2(z, w):
    return (z + w) / ((z - 0.3) * (w - 0.4 * z) * (w + 0.1))


def _d3(*zs):
    """The integrand of D3_ONES and d3_pair on broadcast node arrays."""
    v = 1.0
    for j, z in enumerate(zs):
        v = v * D3_ONES[j](z)
        for k in range(j + 1, 3):
            v = v * d3_pair(j, k, z, zs[k])
    return v


def _route(contours, tol, spy=lambda f: f, **kwargs):
    """integrate, integrate2 or integrate_product on the contours, by their
    number; spy wraps the integrand (d3_pair at three contours)."""
    if len(contours) == 1:
        return integrate(spy(_f1), contours[0], tol=tol, **kwargs)
    if len(contours) == 2:
        return integrate2(spy(_f2), *contours, tol=tol, **kwargs)
    return integrate_product(D3_ONES, spy(d3_pair), contours, tol=tol, **kwargs)


S = np.array([1.0, 0.9, 0.8])  # per-draw radius scale of the batched cases
# contours, tolerance and the node counts at acceptance, as each contour
# doubled one grid per count before the first pass served two
FOLD_CASES = {
    "integrate": ([ContourSpec((Circle(0j, 0.8),), 8)], 1e-12, 64),
    "integrate batched": ([ContourSpec((Circle(0j, 0.8 * S),), 8)], 1e-12,
                          [64, 128, 128]),
    "integrate2": ([ContourSpec((Circle(0j, 0.6),), 8),
                    ContourSpec((Circle(0j, 1.0),), 16)], 1e-12, (128, 256)),
    "integrate2 batched": ([ContourSpec((Circle(0j, 0.6 * S),), 8),
                            ContourSpec((Circle(0j, 1.2 * S),), 8)], 1e-12,
                           [(128, 128), (128, 128), (128, 128)]),
    "integrate_product d=3": ([circles_around([0.3, -0.4], 0.15, nodes=8),
                               ContourSpec((Circle(0j, 0.7),), 16),
                               circles_around([0.1, 0.0], 0.05, nodes=8)], 1e-11,
                              (64, 128, 64)),
    "integrate_product d=3 batched": ([circles_around([0.3, -0.4], 0.15 * S, nodes=8),
                                       ContourSpec((Circle(0j, 0.7 * S),), 8),
                                       circles_around([0.1, 0.0], 0.05 * S, nodes=8)],
                                      1e-6, [(32, 32, 32), (32, 32, 32),
                                             (64, 64, 64)]),
}


def _summand_scale(contours):
    """sum |integrand x weights| over the tensor grid of the contours at
    their start, per draw: the scale of an estimate's rounding there."""
    d, zs, ws = len(contours), [], []
    for j, c in enumerate(contours):
        z, w = nodes_weights(c, c.nodes, quadrature._batch(contours))
        shape = (1,) * j + (len(z),) + (1,) * (d - 1 - j) + z.shape[1:]
        zs.append(z.reshape(shape))
        ws.append(w.reshape(shape))
    integrand = (_f1, _f2, _d3)[d - 1]
    return np.sum(np.abs(integrand(*zs) * math.prod(ws)), axis=tuple(range(d)))


@pytest.mark.parametrize("case", FOLD_CASES)
def test_the_first_pass_serves_the_start_from_its_even_nodes(monkeypatch, case):
    contours, tol, nodes = FOLD_CASES[case]
    starts, converge = [], quadrature.converge

    def spy(estimate, *args):
        def recorded(k, live):
            out = estimate(k, live)
            if k == 0:
                starts.append(out)
            return out
        return converge(recorded, *args)
    monkeypatch.setattr(quadrature, "converge", spy)
    _, info = _route(contours, tol, full_output=True)
    assert info["nodes"] == nodes
    # capped below one doubling, the route sums the start's grid on its own
    n = max(c.nodes for c in contours)
    with pytest.raises(QuadratureError) as exc:
        _route(contours, tol, max_nodes=2 * n - 1)
    assert f"at {n} nodes/circle" in str(exc.value)
    prev, last = exc.value.estimates
    assert prev == last
    # the first pass served the start and its doubling, the capped one the start
    (folded, _), (alone,) = starts
    folded, alone = (np.reshape(v, _summand_scale(contours).shape)
                     for v in (folded, alone))
    assert np.all(np.abs(folded - alone) <= 1e-15 * _summand_scale(contours))
    batch = quadrature._batch(contours)
    nodes = [nodes_weights(c, c.nodes, batch) for c in contours]
    if len(contours) == 1:
        assert np.array_equal(alone, _estimate1(_f1, nodes[0]))
    elif len(contours) == 2:
        ones = lambda v: np.ones((len(v), 1) + v.shape[1:])
        assert np.array_equal(alone, estimate_bilinear(_f2, ones, ones, *nodes)[0])


@pytest.mark.parametrize("case", FOLD_CASES)
def test_grid_points_count_the_points_evaluated(monkeypatch, case):
    contours, tol, nodes = FOLD_CASES[case]
    sizes = []

    def spy(f):
        def counted(*args):
            if len(args) < 4 or args[:2] == (1, 2):  # the d = 3 grid is pair(1, 2)
                sizes.append(np.broadcast(*args[-2:]).size)
            return f(*args)
        return counted
    # one outer tuple per block, so the d = 3 grids sum to the whole tensor grid
    monkeypatch.setattr(quadrature, "_COLUMNS", 1)
    _, info = _route(contours, tol, spy, full_output=True)
    assert info["grid_points"] == sum(sizes)
    # one pass per doubling from the first: the start's own grid is never
    # evaluated
    K = int(np.max(np.reshape(info["nodes"], (-1, len(contours)))[:, 0])
            // contours[0].nodes).bit_length() - 1
    draws = np.prod(quadrature._batch(contours), dtype=int)
    assert sum(sizes) == sum(draws * np.prod([len(c.circles) * (c.nodes << k)
                                              for c in contours])
                             for k in range(1, K + 1))
