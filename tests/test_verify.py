from dataclasses import replace
from itertools import product

import numpy as np

from pfschur import kernels, measures, quadrature, verify
from pfschur.kernels import SIGN_BR, SIGN_PAPER, KernelConfig
from pfschur.measures import PointSet, ProcessSpec


SPEC = ProcessSpec([[0.4], [0.3]], [[0.35], [0.25]])
POINTS = PointSet([(1, 0), (2, 0)])
# every field away from its default, so a flip that dropped one would show
CFG = KernelConfig(quad_tol=1e-7, start_nodes=32, max_nodes=2 ** 10,
                   h_assignment="display", k12_regime="literal", radii={"k22": 0.7})


def test_compare_assembles_the_kernel_once(monkeypatch):
    seen, assemble = [], kernels.assemble_kernel

    def spy(spec, T, cfg=None, full_output=False):
        seen.append(cfg)
        return assemble(spec, T, cfg, full_output)
    monkeypatch.setattr(kernels, "assemble_kernel", spy)
    verify.compare_methods(SPEC, POINTS, CFG, L=6)
    assert seen == [CFG]


def test_sign_adjudication_flips_only_the_sign():
    # the flipped delta is bit for bit what a second assembly under cfg
    # with only its sign convention changed gives
    oracle = measures.correlation_oracle(SPEC, POINTS, L=6)
    for convention, other in ((SIGN_PAPER, SIGN_BR), (SIGN_BR, SIGN_PAPER)):
        cfg = replace(CFG, sign_convention=convention)
        out = verify.compare_methods(SPEC, POINTS, cfg, L=6)["sign_adjudication"]
        assert (out["convention"], out["flipped_convention"]) == (convention, other)
        flipped = replace(cfg, sign_convention=other)
        assert out["flipped_delta"] == abs(
            kernels.correlation_via_kernel(SPEC, POINTS, flipped) - oracle)
        K = kernels.assemble_kernel(SPEC, POINTS, cfg)
        assert np.array_equal(kernels.with_other_k22_sign(K),
                              kernels.assemble_kernel(SPEC, POINTS, flipped))


def test_compare_verdict_passes_the_paper_sign_and_fails_the_br_sign():
    # configs/m1_twovar.json at L = 40: the diagnostic is far below 1e-4,
    # so the threshold is 1e-3, which only the BR sign's gap reaches
    spec = ProcessSpec([[0.5, 0.25]], [[0.5, 0.25]])
    points = PointSet([(1, 0), (1, 2)])
    for convention, verdict in ((SIGN_PAPER, "PASS"), (SIGN_BR, "FAIL")):
        out = verify.compare_methods(spec, points, KernelConfig(
            quad_tol=1e-8, sign_convention=convention), L=40)
        assert out["threshold"] == 1e-3
        assert out["verdict"] == verdict


def test_relative_distances_read_the_same_rows(monkeypatch):
    # each rel_delta is its row's absolute distance over |oracle value|, and
    # None at an oracle value of 0; no verdict or pass reads it
    def check(oracle_value):
        report = verify.compare_methods(SPEC, POINTS, CFG, L=6)
        assert report["results"][0]["value"] == oracle_value
        adj = report["sign_adjudication"]
        sweep = kernels.radius_sweep(SPEC, POINTS, CFG, oracle_value)["rows"]
        pairs = [(adj["delta"], adj["rel_delta"]),
                 (adj["flipped_delta"], adj["flipped_rel_delta"])]
        pairs += [(row["delta"], row["rel_delta"]) for row in sweep if "value" in row]
        assert len(pairs) >= 5 and all("rel_delta" not in row for row in sweep
                                       if "error" in row)
        for delta, rel in pairs:
            assert rel == (delta / abs(oracle_value) if oracle_value else None)
        assert [row["pass"] for row in sweep if "value" in row] == \
            [row["delta"] < 1e-3 for row in sweep if "value" in row]
    check(measures.correlation_oracle(SPEC, POINTS, L=6))
    oracle = measures.correlation_oracle
    monkeypatch.setattr(measures, "correlation_oracle",
                        lambda *args, **kw: (0.0, oracle(*args, **kw)[1]))
    check(0.0)


def test_symfunc_battery_passes_on_every_seed():
    # at 182 and 783 the even-conjugate shapes above weight 40 add more than 1e-10
    failed = [(seed, row["name"]) for seed in [*range(60), 182, 783]
              for row in verify.battery_symfunc(seed) if not row["pass"]]
    assert failed == []


def test_contour_action_row_reports_its_node_counts():
    # the seed of the shipped configs: at 1/256 of the safe radius every
    # draw is accepted at the first doubling, 4 -> 8 nodes
    row, = verify.battery_contour_action(seed=1234)
    assert {"max_nodes", "max_last_delta"} <= set(row)
    assert row["max_nodes"] == 8
    # one 8-node pass per draw serves both estimates
    assert (row["draws"], row["grid_points"]) == (20, 5392)


def test_contour_action_battery_accepts_every_draw_at_8_nodes():
    # at 1/256 of the safe radius the 4-node estimate is within about
    # 256^-4 = 2.3e-10, so every draw of seeds 0-199 is accepted at 4 -> 8
    rows = [row for seed in range(200) for row in verify.battery_contour_action(seed)]
    assert all(row["pass"] for row in rows)
    assert {row["max_nodes"] for row in rows} == {8}
    assert max(row["value"] for row in rows) <= 1e-13


def test_iterated_action_rows_report_their_grid_points():
    # the d = 2 actions at seed 1234: four circles against two, each level a
    # sixteenth of the radius of the one before, so every row is accepted at
    # 16 nodes from one 16-node pass that serves the 8-node start
    rows = verify.battery_iterated_actions(seed=1234)
    assert [row["grid_points"] for row in rows] == [2048, 2048, 2048]
    assert [row["nodes"] for row in rows] == [[16, 16]] * 3
    assert all(row["radii"][1] == row["radii"][0] / 16 for row in rows)


def test_eigenrelation_battery_takes_no_lapack_determinant(monkeypatch):
    # schur_table expands its determinants itself; a call per matrix stack
    # to np.linalg.det would show here before it shows in the benchmark
    calls, det = [], np.linalg.det

    def spy(a):
        calls.append(np.shape(a))
        return det(a)
    monkeypatch.setattr(np.linalg, "det", spy)
    row, box = verify.battery_eigenrelation(seed=1234)
    assert calls == []
    assert (row["point_sets"], row["schur_values"]) == (600, 8800)
    assert row["pass"] and box["pass"]


def test_the_batched_moment_test_matches_one_integral_at_a_time(monkeypatch):
    calls, integrate = [], quadrature.integrate

    def spy(f, contour, **kwargs):
        out = integrate(f, contour, **kwargs)
        calls.append((contour, out))
        return out
    monkeypatch.setattr(quadrature, "integrate", spy)
    row, _ = verify.battery_quadrature()
    (contour, (values, info)), = calls
    pairs = list(product((0.5, 1.0, 2.0), range(-5, 6)))
    assert list(contour.circles[0].radius) == [r for r, _ in pairs]
    assert (row["integrals"], row["grid_points"]) == (33, info["grid_points"])
    for i, (r, k) in enumerate(pairs):
        value, one = integrate(lambda z, k=k: z ** k, quadrature.circle(r),
                               full_output=True)
        assert info["nodes"][i] == one["nodes"]
        # the batch sums its nodes in another order: within 1e-15 of the
        # summands' scale, sum |z^k w| = r^(k+1)
        assert abs(values[i] - value) <= 1e-15 * max(1.0, r ** (k + 1))
