"""The one-pass kernel assembly against the dense core product.

`kernels._Assembly.estimate` evaluates the slot columns of every circle a
live block reads in one broadcast, at nodes 0..N/2 of the circle's N, and
sums every block's coupling (z - w)/(zw - 1) on them in real arithmetic as a
rank-one term plus a Hankel convolution, at the coarser counts of its first
pass by folding the transforms; `kernel_reference.dense` evaluates the same
trapezoid sum in complex arithmetic on the dense n x n grid of all the
nodes, from slot factors of its own. The assembly integrates every K12 entry
and the K11 and K22 entries above the diagonal (`integrated`); the dense
sums of the others are the skew partners of those, or 0 on the diagonal.
"""

import json
import tracemalloc
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from kernel_reference import dense, integrated
from pfschur import kernels
from pfschur import quadrature as quad
from pfschur.kernels import CONVENTIONS, SIGN_BR, KernelConfig
from pfschur.measures import PointSet, ProcessSpec

SPEC = ProcessSpec([[0.4, 0.2], [0.3]], [[0.35], [0.25, 0.1]])
# level-major, with points at both levels so both K12 blocks hold entries
PTS = [(1, 0), (1, -3), (2, 2), (2, -5)]
RADII = {"default": {}, "inadmissible": kernels._inadmissible_radii(SPEC)}
ALL = np.ones(3 * len(PTS) ** 2, dtype=bool)
K11 = np.arange(len(ALL)) % 3 == 0  # the K11 block alone reads only the k11 circle


@pytest.mark.parametrize("n", [64, 128, 256, 1024])
@pytest.mark.parametrize("radii", RADII)
def test_fft_grids_match_the_dense_core(radii, n):
    cfg = KernelConfig(sign_convention=SIGN_BR, radii=RADII[radii])
    asm = kernels._Assembly(SPEC, PTS, cfg)
    # K11, K12 at |zw| < 1, K12 at |zw| > 1, K22
    assert [[kernels._CIRCLES[c] for c in b[:2]] for b in asm.blocks] == [
        ["k11", "k11"], ["k11", "k12_w_lt"], ["k11", "k12_w_gt"], ["k22", "k22"]]
    r11 = asm.radii["k11"]
    assert r11 * asm.radii["k12_w_lt"] < 1 < r11 * asm.radii["k12_w_gt"]
    # the first pass evaluates 256 nodes and folds its transforms down to
    # 128 and 64; 512 and 1024 are later passes, at 64 doubled 3 and 4 times
    k = (64, 128, 256, 512, 1024).index(n)
    first = asm.estimate(0, ALL)
    assert len(first) == 3
    fft = first[k] if k < 3 else asm.estimate(k, ALL)[0]
    dense_sums, scale = dense(SPEC, PTS, cfg, n)
    # relative to the summands: under the inadmissible reading every K11
    # entry is 0 analytically, and both sums are rounding noise
    kept = integrated(len(PTS))
    assert np.all(np.abs(fft - dense_sums)[kept] <= 1e-12 * scale[kept])
    assert not fft[~kept].any()
    # the K11 and K22 sums the assembly leaves out are minus their partners
    # above the diagonal, and 0 on it, on the same grid
    V, S = (np.reshape(x, (len(PTS), len(PTS), 3))[..., ::2]
            for x in (dense_sums, scale))
    assert np.all(np.abs(V + V.transpose(1, 0, 2)) <= 1e-12 * S)


# every choice of a convention switch but the paper's, and the inadmissible radii
VARIANTS = {**{choice: {switch: choice} for switch, (_, *others) in CONVENTIONS.items()
               for choice in others},
            "inadmissible": {"radii": RADII["inadmissible"]}}


@pytest.mark.parametrize("variant", VARIANTS)
def test_every_served_estimate_is_real_and_matches_the_full_complex_grid(variant):
    # a pass sums its blocks in real arithmetic from nodes 0..N/2 of each
    # circle; the dense reference sums all N^2 complex summands. The first
    # pass serves 64, 128 and 256 nodes, a later one 512
    cfg = KernelConfig(**VARIANTS[variant])
    asm = kernels._Assembly(SPEC, PTS, cfg)
    served = [*asm.estimate(0, ALL), *asm.estimate(3, ALL)]
    assert len(served) == 4
    kept = integrated(len(PTS))
    for n, est in zip((64, 128, 256, 512), served):
        assert est.dtype == np.float64, n
        dense_sums, scale = dense(SPEC, PTS, cfg, n)
        assert np.all(np.abs(est - dense_sums)[kept] <= 1e-12 * scale[kept]), n


def test_fft_grid_builds_no_node_by_node_array():
    asm = kernels._Assembly(SPEC, PTS, KernelConfig())
    asm.estimate(0, K11)  # numpy's FFT plan caches fill
    tracemalloc.start()
    try:
        asm.estimate(7, K11)  # one pass at 64 x 2**7 = 8192 nodes
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # a dense 8192 x 8192 complex grid is 1 GiB, a 2**21-element row block 32 MiB
    assert peak < 4 * 2 ** 20


def _spy_passes(monkeypatch):
    """The (n, radii) of every `nodes_weights` call, and for every
    `_Assembly.estimate` call its assembly, doubling k, live entries and
    served estimates and the number of `nodes_weights` calls made by its
    return."""
    calls, passes = [], []
    estimate, nodes_weights = kernels._Assembly.estimate, quad.nodes_weights

    def spy_estimate(self, k, live):
        est = estimate(self, k, live)
        calls.append((self, k, live.copy(), est, len(passes)))
        return est

    def spy_nodes_weights(contour, n, batch):
        passes.append((n, tuple(np.atleast_1d(contour.circles[0].radius))))
        return nodes_weights(contour, n, batch)
    monkeypatch.setattr(kernels._Assembly, "estimate", spy_estimate)
    monkeypatch.setattr(quad, "nodes_weights", spy_nodes_weights)
    return calls, passes


def _later_passes(monkeypatch):
    """The spied calls of an assembly at quad_tol 1e-10, where some entries
    converge only after the first pass, and its node_evaluations."""
    calls, passes = _spy_passes(monkeypatch)
    K, info = kernels.assemble_kernel(SPEC, PointSet(PTS),
                                      KernelConfig(quad_tol=1e-10), full_output=True)
    return calls, passes, info["node_evaluations"]


def test_later_passes_read_only_the_circles_of_live_blocks(monkeypatch):
    # the first pass reads all four circles at 4 x 64 nodes for the counts
    # 64, 128 and 256; each later pass reads, at its one count, the circles
    # of the blocks that still hold a live entry
    calls, passes, node_evaluations = _later_passes(monkeypatch)
    assert [n for n, _ in passes] == [256 << k for k in range(len(passes))]
    assert len(passes) >= 2
    asm = calls[0][0]
    assert passes[0][1] == tuple(asm.radius)
    # each estimate call is one pass, the first serving three counts and each
    # later one its one count: converge asks again at the first count no
    # pass served
    assert [k for _, k, *_ in calls] == [0, *range(3, len(passes) + 2)]
    assert [len(est) for *_, est, _ in calls] == [3] + [1] * (len(passes) - 1)
    assert [made for *_, made in calls] == list(range(1, len(passes) + 1))
    for (_, _, live, _, _), (n, radii) in zip(calls[1:], passes[1:]):
        circles = {c for zc, wc, entries, *_ in asm.blocks if live[entries].any()
                   for c in (zc, wc)}
        assert radii == tuple(asm.radius[sorted(circles)]), n
    # nodes 0..n/2 of each circle: the others are their conjugates
    assert node_evaluations == sum((n // 2 + 1) * len(radii) for n, radii in passes)


def test_a_later_pass_matches_the_dense_core(monkeypatch):
    calls, passes, _ = _later_passes(monkeypatch)
    later = [(64 << k, live, est) for _, k, live, (est,), _ in calls[1:]]
    assert len(later) == len(passes) - 1
    for n, live, est in later:
        dense_sums, scale = dense(SPEC, PTS, KernelConfig(quad_tol=1e-10), n)
        assert np.all(np.abs(est - dense_sums)[live] <= 1e-12 * scale[live]), n


def test_every_pass_evaluates_half_of_each_circles_nodes_and_one(monkeypatch):
    # nodes N - a of a circle are the conjugates of nodes a, and so are the
    # columns there: a pass at N nodes evaluates nodes 0..N/2 alone
    _, passes = _spy_passes(monkeypatch)
    shapes, columns = [], kernels._Assembly._columns

    def spy(self, z, *args):
        shapes.append(z.shape)
        return columns(self, z, *args)
    monkeypatch.setattr(kernels._Assembly, "_columns", spy)
    kernels.assemble_kernel(SPEC, PointSet(PTS), KernelConfig(quad_tol=1e-10))
    assert len(passes) >= 2
    assert shapes == [(n // 2 + 1, len(radii)) for n, radii in passes]


def test_an_assembly_without_points_evaluates_nothing(monkeypatch):
    _, passes = _spy_passes(monkeypatch)
    K, info = kernels.assemble_kernel(SPEC, PointSet([]), KernelConfig(),
                                      full_output=True)
    assert K.shape == (0, 0) and info["node_evaluations"] == 0
    assert passes == []


@pytest.mark.parametrize("max_nodes,first", [(128, 128), (200, 128), (300, 256),
                                             (8192, 256)])
def test_the_first_pass_stays_at_a_count_converge_reaches(monkeypatch, max_nodes,
                                                          first):
    # converge doubles 64 while the count stays within max_nodes, which need
    # not be a power of two; the one entry of this kernel, K12[0,0],
    # converges at 128 and reads two circles, k11 and k12_w_gt
    spec, pts = ProcessSpec([[0.5]], [[0.5]]), PointSet([(1, 0)])
    _, passes = _spy_passes(monkeypatch)
    K, info = kernels.assemble_kernel(spec, pts, KernelConfig(max_nodes=max_nodes),
                                      full_output=True)
    assert [n for n, _ in passes] == [first]
    assert set(info["nodes"].values()) == {(128, 128)}
    assert info["node_evaluations"] == 2 * (first // 2 + 1)


def test_each_circle_side_is_transformed_once_per_doubling(monkeypatch):
    # K11 and both K12 blocks read the k11 circle's z side, K22 the k22
    # circle's: one irfft over those columns, every w-side column and the
    # four blocks' Hankel symbols, on nodes 0..N/2 of N = 256 nodes for the
    # counts 64, 128 and 256, and then once per doubling; no hfft
    spec = ProcessSpec([[0.4, 0.2], [0.3]], [[0.35], [0.25, 0.1]])
    pts = [(1, 0), (1, 2), (2, -1), (2, 1)]
    asm = kernels._Assembly(spec, pts, KernelConfig())
    assert len(asm.blocks) == 4
    calls = []

    def spy(name, transform):
        def f(a, *args, **kwargs):
            calls.append((name, a.shape, kwargs.get("n")))
            return transform(a, *args, **kwargs)
        return f
    for name in ("ifft", "fft", "irfft", "hfft"):
        monkeypatch.setattr(np.fft, name, spy(name, getattr(np.fft, name)))
    count = Counter(asm.col_circle.tolist())
    every = np.ones(3 * len(pts) ** 2, dtype=bool)
    for k in (0, 3):  # the counts 64, 128 and 256, then 512
        asm.estimate(k, every)
    columns = count[0] + count[3] + len(asm.col_circle) + 4
    assert calls == [("irfft", (n // 2 + 1, columns), n) for n in (256, 512)]


@pytest.mark.parametrize("live", [(0, 1, 2, 3), (1, 3), (2,)])
def test_a_plans_flat_arrays_place_every_live_entry_once(live):
    # a count's one product stacks each live block's z-side columns, scaled
    # by its Hankel symbol, block by block, against every w-side column: an
    # entry reads the row of its block and z-side column and its w-side
    # column there, and the rank-one sums [a | b] of those columns
    layout = kernels._Assembly(SPEC, PTS, KernelConfig()).layout
    plan = layout.plan(live)
    nz, nw = len(plan.zcols), len(plan.wcols)
    blocks = [layout.blocks[k] for k in live]
    assert plan.entries.tolist() == [e for b in blocks for e in b[2].tolist()]
    row, col = np.divmod(plan.product, nw)
    block = np.repeat(np.arange(len(live)), [len(b[2]) for b in blocks])
    assert np.array_equal(plan.h_rows[row], block)
    assert np.array_equal(plan.z_rows[row], plan.rank_z)
    assert np.array_equal(col, plan.rank_w - nz)
    # each block's rows are its z circle's columns, once each, and its
    # entries' columns lie on its w circle
    on = plan.col_on
    for pos, (_, _, _, zk, wk) in enumerate(blocks):
        rows = plan.z_rows[plan.h_rows == pos]
        assert set(on[plan.zcols][rows]) == {plan.zon_blocks[pos]}
        assert len(rows) == len(set(rows.tolist()))
        assert set(on[plan.wcols][col[block == pos]]) == {plan.won_blocks[pos]}
        assert np.array_equal(plan.rank_z[block == pos], rows.min() + zk)


M2 = json.loads((Path(__file__).resolve().parent.parent / "configs" /
                 "m2_d11.json").read_text())
M2_SPEC, M2_PTS = ProcessSpec.from_json(M2["process"]), PointSet(M2["points"])
# every variant switch, each convention switch at its last choice: two of
# them change the layout, three only values
SWITCHES = {**{"sign" if switch == "sign_convention" else switch:
               {switch: [*choices][-1]} for switch, choices in CONVENTIONS.items()},
            "radii": {"radii": kernels._radii_at(M2_SPEC, 0.25)},
            "max_nodes": {"max_nodes": 256}}


@pytest.mark.parametrize("switch", SWITCHES)
def test_a_warm_layout_gives_the_cold_value(switch):
    cfg = KernelConfig(**SWITCHES[switch])
    kernels._kernel_layout.cache_clear()
    cold = kernels.correlation_via_kernel(M2_SPEC, M2_PTS, cfg, full_output=True)
    # the default's and every switch's layouts and pass plans built first,
    # this one's read again
    kernels._kernel_layout.cache_clear()
    for other in ({}, *SWITCHES.values()):
        kernels.correlation_via_kernel(M2_SPEC, M2_PTS, KernelConfig(**other))
    hits = kernels._kernel_layout.cache_info().hits
    warm = kernels.correlation_via_kernel(M2_SPEC, M2_PTS, cfg, full_output=True)
    assert kernels._kernel_layout.cache_info().hits == hits + 1
    assert warm[0] == cold[0]
    assert np.array_equal(warm[1].pop("matrix"), cold[1].pop("matrix"))
    assert warm[1] == cold[1]


def test_cached_index_arrays_are_read_only():
    asm = kernels._Assembly(SPEC, PTS, KernelConfig())
    layout = asm.layout
    assert kernels._Assembly(SPEC, PTS, KernelConfig(sign_convention=SIGN_BR)).layout \
        is layout
    plans = [layout.plan(live) for live in ((0, 1, 2, 3), (0,), (3,))]
    # the flat arrays of each plan's gather and scatter among them
    flat = {"entries", "h_rows", "z_rows", "product", "rank_z", "rank_w"}
    assert all(flat <= set(vars(plan)) for plan in plans)
    arrays = [x for x in (*vars(layout).values(), *(
        x for block in layout.blocks for x in block), *(
        x for plan in plans for x in vars(plan).values()))
        if isinstance(x, np.ndarray)]
    assert len(arrays) > 40
    for array in arrays:
        with pytest.raises(ValueError, match="read-only"):
            array[...] = 0
