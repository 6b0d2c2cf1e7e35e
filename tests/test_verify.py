from dataclasses import replace
from itertools import product

import numpy as np
import pytest

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
    # every distance from the oracle is `verify.judge` against the oracle
    # row: compare's kernel row, both sign conventions and each sweep row;
    # each rel_delta is its absolute distance over |oracle value|, and None
    # at an oracle value of 0; no verdict or pass reads it
    def check(oracle_value):
        report = verify.compare_methods(SPEC, POINTS, CFG, L=6)
        oracle, kernel = report["results"]
        assert oracle["value"] == oracle_value
        adj = report["sign_adjudication"]
        assert kernel["delta_vs_oracle"] == adj["delta"]
        sweep = verify.sweep_radii(SPEC, POINTS, CFG, 6)
        assert sweep["results"] == [oracle]
        assert sweep["radius_sweep"]["oracle"] == oracle_value
        rows = sweep["radius_sweep"]["rows"]
        pairs = [(kernel["value"], adj["delta"], adj["rel_delta"])]
        pairs += [(row["value"], row["delta"], row["rel_delta"])
                  for row in rows if "value" in row]
        assert len(pairs) >= 4 and all("rel_delta" not in row for row in rows
                                       if "error" in row)
        for value, delta, rel in pairs:
            judged = verify.judge(value, oracle, SPEC)
            assert (judged["delta"], judged["rel_delta"]) == (delta, rel)
            assert rel == (delta / abs(oracle_value) if oracle_value else None)
        assert adj["flipped_rel_delta"] == (
            adj["flipped_delta"] / abs(oracle_value) if oracle_value else None)
        for row in rows:
            if "value" in row:
                judged = verify.judge(row["value"], oracle, SPEC)
                assert {key: row[key] for key in judged} == judged
            assert row["pass"] == (row.get("verdict") == "PASS")
    check(measures.correlation_oracle(SPEC, POINTS, L=6))
    oracle = measures.correlation_oracle
    monkeypatch.setattr(measures, "correlation_oracle",
                        lambda *args, **kw: (0.0, oracle(*args, **kw)[1]))
    check(0.0)


def _oracle_row(value, diagnostic, value_truncation=0.0, T=((1, 0),)):
    return {"T": [list(p) for p in T], "value": value, "diagnostics": {
        "truncation_diagnostic": diagnostic, "value_truncation": value_truncation}}


def test_judge_passes_only_below_the_unraised_threshold():
    # the threshold is max(1e-3, 10 x diagnostic) on the distance and
    # max(1e-3, 10 x eps_L) on the relative distance, eps_L the larger of
    # the diagnostic and the value truncation; below both the verdict is
    # PASS at 1e-3 and INCONCLUSIVE above; at either, or at a NaN, FAIL
    cases = [(0.5 + 5e-4, 0.0, 0.0, 1e-3, 1e-3, "PASS"),
             (0.5 - 2e-3, 1e-5, 0.0, 1e-3, 1e-3, "FAIL"),
             (0.5 + 5e-4, 1e-3, 0.0, 1e-2, 1e-2, "INCONCLUSIVE"),
             (0.5 + 5e-4, 0.0, 1e-3, 1e-3, 1e-2, "INCONCLUSIVE"),
             (0.5 + 0.5, 0.05, 0.0, 0.5, 0.5, "FAIL"),
             (0.5 + 0.3, 0.05, 0.0, 0.5, 0.5, "FAIL"),
             (0.5 + 0.2, 0.05, 0.0, 0.5, 0.5, "INCONCLUSIVE"),
             (float("nan"), 0.0, 0.0, 1e-3, 1e-3, "FAIL"),
             (float("nan"), 1.0, 0.0, 10.0, 10.0, "FAIL")]
    for value, diagnostic, truncation, threshold, rel_threshold, verdict in cases:
        out = verify.judge(value, _oracle_row(0.5, diagnostic, truncation), SPEC)
        assert (out["threshold"], out["rel_threshold"], out["verdict"]) == (
            threshold, rel_threshold, verdict)
        assert out["delta"] == abs(value - 0.5) or np.isnan(value)
        assert out["reach_L"] is None


def test_the_relative_rule_fails_a_small_value_far_off():
    # 1e-8 against an oracle value of 1e-10 is below the 1e-3 distance, a
    # PASS by the distance alone, and 99x off: FAIL
    out = verify.judge(1e-8, _oracle_row(1e-10, 1e-20, 1e-15), SPEC)
    assert out["delta"] < out["threshold"] and out["verdict"] == "FAIL"
    assert out["rel_delta"] == (1e-8 - 1e-10) / 1e-10


def test_the_judge_tells_a_structural_zero_from_a_short_oracle():
    # SPEC's level 1 has 2 rows and level 2 one: two points at or above -1
    # on level 2 have probability 0 at any L, and are judged on the distance
    # against 1e-12; a zero at points the oracle cannot reach is
    # INCONCLUSIVE, or FAIL past today's threshold, and names the least L
    # that reaches them
    structural = _oracle_row(0.0, 1e-20, None, T=[(2, 0), (2, 3)])
    for value, verdict in ((1e-13, "PASS"), (1e-11, "FAIL"), (float("nan"), "FAIL")):
        out = verify.judge(value, structural, SPEC)
        assert (out["threshold"], out["reach_L"], out["verdict"]) == (1e-12, None, verdict)
        assert out["rel_delta"] is None and out["rel_threshold"] is None
    # level 1: particles at 7 and -2, lambda = (8, 0); level 2: at 3, (4)
    short = _oracle_row(0.0, 1e-4, None, T=[(1, 7), (2, 3)])
    for value, verdict in ((1e-5, "INCONCLUSIVE"), (2e-3, "FAIL")):
        out = verify.judge(value, short, SPEC)
        assert (out["threshold"], out["reach_L"], out["verdict"]) == (1e-3, 8, verdict)


@pytest.mark.parametrize("xs,ys", [((0.5, 0.25), (0.4, 0.2)), ((0.6, 0.3), (0.2,)),
                                   ((0.5,), (0.3, 0.2))])
def test_the_least_weight_is_where_the_oracle_first_reaches_the_points(xs, ys):
    # on one level with a y value every partition has weight, so the oracle
    # is 0 below the least weight and positive from it on
    spec = ProcessSpec([xs], [ys])
    for T in ([(1, 3)], [(1, 0), (1, 2)], [(1, -1), (1, 4)], [(1, -2)], [(1, 1), (1, 2)]):
        points = PointSet(T)
        least = verify._least_weight(spec, points)
        if least is None:
            assert len(xs) < len({t for _, t in T if t >= -len(xs)})
            assert measures.correlation_oracle(spec, points, L=12) == 0.0
            continue
        assert measures.correlation_oracle(spec, points, L=least) > 0.0
        assert least == 0 or measures.correlation_oracle(spec, points, L=least - 1) == 0.0


def test_the_least_weight_reads_the_interlacing_between_levels():
    # rho^+ = (0.4), (0.3, 0.2), so levels 1 and 2 have 3 and 2 rows, and mu
    # between them satisfies mu_1 >= lambda^(2)_2 (rho^-_1 has one value)
    spec = ProcessSpec([[0.4], [0.3, 0.2]], [[0.35], [0.25]])
    # lambda^(2) = (3, 3) lifts lambda^(1)_1 to 3, so level 1's points at 1
    # and 0 sit at rows 2 and 3: lambda^(1) = (3, 3, 3), weight 9 (level by
    # level, (2, 2, 0) and (3, 3): 6)
    T = PointSet([(1, 1), (1, 0), (2, 2), (2, 1)])
    assert verify._least_weight(spec, T) == 9
    assert measures.correlation_oracle(spec, T, L=8) == 0.0
    assert measures.correlation_oracle(spec, T, L=9) > 0.0
    # lambda^(2) = (5, 5) lifts lambda^(1)_1 to 5, and level 1's points at
    # 0, -1 and -2 then need a fourth row
    T = PointSet([(1, 0), (1, -1), (1, -2), (2, 4), (2, 3)])
    assert verify._least_weight(spec, T) is None
    assert measures.correlation_oracle(spec, T, L=40) == 0.0


def test_an_interlacing_zero_is_judged_structural():
    # m2_d11: level 2's point at -1 pins lambda^(2) = 0, so mu = 0, and
    # lambda^(1) = (4, 4) is no horizontal strip in rho^+_1's one variable:
    # the oracle is 0 at every L, and the kernel's -8.1e-19 passes
    out = verify.compare_methods(SPEC, PointSet([(1, 3), (1, 2), (2, -1)]),
                                 KernelConfig(quad_tol=1e-8), L=20)
    assert (out["threshold"], out["reach_L"], out["verdict"]) == (1e-12, None, "PASS")


@pytest.mark.parametrize("t,L", [(36, 80), (60, 120)])
def test_the_judge_fails_the_quadrature_kernel_at_depth(t, L):
    # on 2-var the kernel's entries pass an absolute tolerance, so its value
    # at depth is off by far more than the oracle's truncation: 3.3e-3
    # relative at (1, 36) and 6.9e6-fold at (1, 60), below 1e-3 absolute
    spec = ProcessSpec([[0.5, 0.25]], [[0.4, 0.2]])
    out = verify.compare_methods(spec, PointSet([(1, t)]), KernelConfig(quad_tol=1e-8), L=L)
    assert (out["threshold"], out["rel_threshold"]) == (1e-3, 1e-3)
    assert out["sign_adjudication"]["delta"] < 1e-20
    assert out["verdict"] == "FAIL"


def test_the_judge_fails_the_wrong_variants_at_depth():
    # the BR sign on m1_twovar's spec, 3-var and m2_d11, at six pairs of
    # sites from (0, 2) to (12, 15), all within 1e-3 absolute past the
    # first few; `display` on m2_d11's spec; and the inadmissible radii of
    # the sweep at (1, 2), (1, 5) on m1_twovar's spec. The paper's choices
    # pass every one
    specs = [(ProcessSpec([[0.5, 0.25]], [[0.5, 0.25]]), 1),
             (ProcessSpec([[0.6, 0.3, 0.2]], [[0.45, 0.35, 0.1]]), 1), (SPEC, 2)]
    verdicts = []
    for spec, level in specs:
        for a, b in ((0, 2), (3, 5), (6, 8), (9, 11), (12, 15)):
            points = PointSet([(1, a), (level, b)])
            for sign in (SIGN_BR, SIGN_PAPER):
                out = verify.compare_methods(spec, points, KernelConfig(
                    quad_tol=1e-8, sign_convention=sign), L=40)
                verdicts.append((sign, out["verdict"]))
    assert verdicts.count((SIGN_BR, "FAIL")) == 15
    assert verdicts.count((SIGN_PAPER, "PASS")) == 15
    for T in ([(1, 2), (2, 4)], [(1, 4), (2, 7)]):
        for choice, verdict in (("display", "FAIL"), ("slot", "PASS")):
            out = verify.compare_methods(SPEC, PointSet(T), KernelConfig(
                quad_tol=1e-8, h_assignment=choice), L=30)
            assert out["verdict"] == verdict, (T, choice)
    sweep = verify.sweep_radii(ProcessSpec([[0.5, 0.25]], [[0.5, 0.25]]),
                               PointSet([(1, 2), (1, 5)]), KernelConfig(quad_tol=1e-8), 40)
    assert [row["pass"] for row in sweep["radius_sweep"]["rows"]] == [True] * 3 + [False]
    assert sweep["radius_sweep"]["rows"][3]["verdict"] == "FAIL"


def test_sweep_radii_judges_the_scan_against_the_oracle_row(monkeypatch):
    # a row passes below 1e-3 from the oracle row's value, and reads
    # INCONCLUSIVE there once a short truncation raises the threshold; a
    # NaN row fails, and so does an error row, which has no distance
    scan = {"T": [[1, 0]], "rows": [
        {"radii": {}, "note": "near", "value": 0.5 + 5e-4},
        {"radii": {}, "note": "far", "value": 0.5 - 2e-3},
        {"radii": {}, "note": "nan", "value": float("nan")},
        {"radii": {}, "note": "broken", "error": "did not converge"}]}
    for diagnostic, verdicts in ((0.0, ["PASS", "FAIL", "FAIL"]),
                                 (1e-3, ["INCONCLUSIVE", "INCONCLUSIVE", "FAIL"])):
        monkeypatch.setattr(kernels, "radius_sweep", lambda spec, T, cfg: {
            "T": scan["T"], "rows": [dict(row) for row in scan["rows"]]})
        monkeypatch.setattr(verify, "correlation_row",
                            lambda *args: _oracle_row(0.5, diagnostic))
        out = verify.sweep_radii(SPEC, [(1, 0)], CFG, 6)
        assert out["results"] == [_oracle_row(0.5, diagnostic)]
        sweep = out["radius_sweep"]
        assert sweep["T"] == [[1, 0]] and sweep["oracle"] == 0.5
        assert [row.get("verdict") for row in sweep["rows"]] == [*verdicts, None]
        assert [row["pass"] for row in sweep["rows"]] == [
            verdict == "PASS" for verdict in verdicts] + [False]
        assert sweep["rows"][0]["delta"] == abs(0.5 + 5e-4 - 0.5)
        assert {"delta", "rel_delta", "threshold"}.isdisjoint(sweep["rows"][3])
        assert set(out["timing"]["sections"]) == {"oracle", "radius_sweep"}


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


# each battery folds its checks with a maximum that keeps a NaN: one NaN
# check makes its row NaN, and NaN < tol fails it
def _first_call_nan(monkeypatch, module, name, poison):
    """Patch module.name so its first call's output passes through poison."""
    original, calls = getattr(module, name), []

    def patched(*args, **kwargs):
        out = original(*args, **kwargs)
        calls.append(name)
        return poison(out) if len(calls) == 1 else out
    monkeypatch.setattr(module, name, patched)


def test_a_nan_symfunc_check_fails_its_row(monkeypatch):
    _first_call_nan(monkeypatch, verify.symfunc, "cauchy_H", lambda out: np.nan)
    row = verify.battery_symfunc()[1]
    assert row["name"] == "H, H0 product vs exponential"
    assert np.isnan(row["value"]) and not row["pass"]


def test_a_nan_eigenrelation_check_fails_its_row(monkeypatch):
    def poison(out):
        res, info = out
        res = np.array(res, dtype=float)
        res.flat[0] = np.nan
        return res, info
    _first_call_nan(monkeypatch, verify.macdonald, "eigen_residual", poison)
    row, box = verify.battery_eigenrelation(draws=3)
    assert np.isnan(row["value"]) and not row["pass"]


def test_a_nan_contour_action_check_fails_its_row(monkeypatch):
    def poison(out):
        contour, info = out
        contour = np.array(contour, dtype=complex)
        contour.flat[0] = np.nan
        return contour, {**info, "last_delta": np.full(np.shape(info["last_delta"]),
                                                       np.nan)}
    _first_call_nan(monkeypatch, verify.macdonald, "apply_via_contour", poison)
    row, = verify.battery_contour_action(draws=6)
    assert np.isnan(row["value"]) and not row["pass"]
    assert np.isnan(row["max_last_delta"])


def test_a_nan_pfaffian_check_fails_its_row(monkeypatch):
    _first_call_nan(monkeypatch, verify, "pfaffian", lambda out: np.nan)
    row = verify.battery_pfaffian()[0]
    assert row["name"] == "Pf^2 = det, dims 2..12"
    assert np.isnan(row["value"]) and not row["pass"]
