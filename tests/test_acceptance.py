"""Acceptance criteria, one test per criterion, each printing a PASS line
with the measured quantity. Tolerances are pinned here, not configurable.

Run with `pytest -v -s tests/test_acceptance.py` to see the lines as the
criteria complete.
"""

import time

import numpy as np
import pytest

import pfschur.verify as verify
from pfschur.kernels import (SIGN_BR, KernelConfig, correlation_via_kernel,
                             correlation_via_q_extraction, default_radii)
from pfschur.measures import (PointSet, ProcessSpec, correlation_oracle,
                              observable_expectation_oracle,
                              partition_function_closed,
                              partition_function_truncated,
                              truncation_diagnostic)
from pfschur.macdonald import (apply_direct, iterated_action_F,
                               iterated_action_Z, z_partition)
from pfschur.pfaffian import pfaffian, verify_schur_pfaffian
from pfschur.symfunc import cauchy_H

X2 = (0.5, 0.25)
SPEC_M1 = ProcessSpec([X2], [X2])
SPEC_M2 = ProcessSpec([[0.4], [0.3]], [[0.35], [0.25]])


def report(n, label, detail):
    print(f"ACCEPTANCE {n:2d} PASS  {label}: {detail}")


def test_criterion_01_eigenrelation():
    t0 = time.time()
    rows = verify.battery_eigenrelation(seed=2024)
    elapsed = time.time() - t0
    assert all(r["pass"] for r in rows), rows
    assert elapsed < 10, f"runtime {elapsed:.1f}s exceeds 10s"
    report(1, "eigenrelation", f"worst residual {rows[0]['value']:.2e}, "
           f"{elapsed:.1f}s")


def test_criterion_02_contour_action_equivalence():
    t0 = time.time()
    rows = verify.battery_contour_action(seed=2024)
    elapsed = time.time() - t0
    assert all(r["pass"] for r in rows), rows
    assert elapsed < 30, f"runtime {elapsed:.1f}s exceeds 30s"
    report(2, "contour action", f"worst residual {rows[0]['value']:.2e}, "
           f"{elapsed:.1f}s")


def test_criterion_03_iterated_action_equivalence():
    xs, ys = [0.3, 0.2], [0.25, 0.1]
    q1, q2 = 0.4 + 0.1j, 0.35 - 0.2j
    Zf = lambda v: z_partition(v, ys)
    Ff = lambda v: cauchy_H(v, ys)
    comp_z = apply_direct(lambda v: apply_direct(Zf, v, 1, q1), xs, 1, q2)
    comp_f = apply_direct(lambda v: apply_direct(Ff, v, 1, q1), xs, 1, q2)
    dz = abs(comp_z - iterated_action_Z([q1, q2], xs, ys))
    df = abs(comp_f - iterated_action_F([q1, q2], xs, ys))
    assert dz < 1e-6 and df < 1e-6

    spec = ProcessSpec([xs], [ys])
    qs = [0.35, 0.2 + 0.15j]
    act = iterated_action_Z(qs, xs, ys) / z_partition(xs, ys)
    obs = observable_expectation_oracle([qs], spec, L=30)
    diag = truncation_diagnostic(spec, 30)
    tol = max(10 * diag, 1e-8)
    assert abs(act - obs) < tol
    report(3, "iterated actions d=2", f"Z gap {dz:.2e}, F gap {df:.2e}, "
           f"observable gap {abs(act - obs):.2e} (tol {tol:.1e})")


def test_criterion_04_partition_function_identities():
    worst = 0.0
    for spec in (ProcessSpec([[0.5]], [[0.5]]),
                 ProcessSpec([[0.5], [0.4]], [[0.45], [0.35]])):
        for kind in ("pfaffian", "schur"):
            closed = partition_function_closed(spec, kind)
            trunc = partition_function_truncated(spec, kind, 40)
            worst = max(worst, abs(closed - trunc) / abs(closed))
    assert worst < 1e-8

    m2 = ProcessSpec([[0.5], [0.4]], [[0.45], [0.35]])
    trunc = partition_function_truncated(m2, "pfaffian", 40)
    union = partition_function_closed(m2, "pfaffian", h0_union=True)
    literal = partition_function_closed(m2, "pfaffian", h0_union=False)
    rel_union = abs(union - trunc) / trunc
    rel_literal = abs(literal - trunc) / trunc
    assert rel_union < 1e-8 < rel_literal
    report(4, "partition functions", f"worst rel err {worst:.2e}; H0-union "
           f"form adjudicated ({rel_union:.1e} vs literal {rel_literal:.1e})")


def test_criterion_05_pfaffian_core():
    rng = np.random.default_rng(77)
    worst_sq = 0.0
    for dim in range(2, 13, 2):
        A = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        A = A - A.T
        det = np.linalg.det(A)
        worst_sq = max(worst_sq, abs(pfaffian(A) ** 2 - det) / abs(det))
    assert worst_sq < 1e-9
    worst_id = 0.0
    for d in (1, 2, 3):
        u = (0.1 + 0.75 * rng.random(2 * d)) * np.exp(2j * np.pi
                                                      * rng.random(2 * d))
        worst_id = max(worst_id, verify_schur_pfaffian(u))
    assert worst_id < 1e-10
    report(5, "Pfaffian core", f"Pf^2=det worst {worst_sq:.2e}, "
           f"Schur identity worst {worst_id:.2e}")


def test_criterion_06_single_partition_correlations():
    geometric = ProcessSpec([[0.5]], [[0.5]])
    analytic = correlation_oracle(geometric, [(1, 0)], L=40)
    assert abs(analytic - 0.1875) < 1e-10

    cfg = KernelConfig()
    worst = 0.0
    for T in ([0], [1], [-1], [0, 2]):
        orc = correlation_oracle(SPEC_M1, [(1, t) for t in T], L=40)
        val = correlation_via_kernel(SPEC_M1, [(1, t) for t in T], cfg)
        worst = max(worst, abs(val - orc))
    assert worst < 1e-4
    report(6, "single-partition kernel", f"analytic oracle gap "
           f"{abs(analytic - 0.1875):.1e}, worst |Pf - oracle| {worst:.2e}")


def test_criterion_07_q_extraction():
    t0 = time.time()
    cfg = KernelConfig()
    orc1 = correlation_oracle(SPEC_M1, [(1, 0)], L=40)
    v1 = correlation_via_q_extraction(X2, X2, [0], cfg)
    assert abs(v1 - orc1) < 1e-4
    orc2 = correlation_oracle(SPEC_M1, [(1, 0), (1, 2)], L=40)
    v2 = correlation_via_q_extraction(X2, X2, [0, 2], cfg)
    assert abs(v2 - orc2) < 1e-3
    elapsed = time.time() - t0
    assert elapsed < 300, f"runtime {elapsed:.1f}s exceeds 5 min"
    report(7, "q-extraction", f"d=1 gap {abs(v1 - orc1):.2e}, d=2 gap "
           f"{abs(v2 - orc2):.2e}, {elapsed:.0f}s")


def test_criterion_08_process_correlations():
    t0 = time.time()
    cfg = KernelConfig()
    worst = 0.0
    for T in ([(1, 0), (2, 0)], [(1, 0), (2, -1)], [(1, 1), (2, 0)]):
        orc = correlation_oracle(SPEC_M2, T, L=20)
        val = correlation_via_kernel(SPEC_M2, T, cfg)
        worst = max(worst, abs(val - orc))
    elapsed = time.time() - t0
    assert worst < 1e-3
    assert elapsed < 600, f"runtime {elapsed:.1f}s exceeds 10 min"
    report(8, "process correlations m=2", f"worst |Pf - oracle| {worst:.2e}, "
           f"{elapsed:.0f}s")


def test_criterion_09_sign_adjudication():
    T = [(1, 0), (2, 0)]  # touches the cross-level K22 entry
    orc = correlation_oracle(SPEC_M2, T, L=20)
    delta_paper = abs(correlation_via_kernel(SPEC_M2, T, KernelConfig()) - orc)
    delta_br = abs(correlation_via_kernel(
        SPEC_M2, T, KernelConfig(sign_convention=SIGN_BR)) - orc)
    assert delta_paper < 1e-3
    assert delta_br > 10 * 1e-3
    report(9, "sign adjudication", f"(zw-1) delta {delta_paper:.1e}; "
           f"(1-zw) delta {delta_br:.1e} (> 10x tolerance)")


def test_criterion_10_contour_deformation_invariance():
    cfg = KernelConfig()
    T = [(1, 0), (1, 2)]
    base = correlation_via_kernel(SPEC_M1, T, cfg)
    radii = default_radii(SPEC_M1)
    worst = 0.0
    for scale in (0.95, 1.05):
        pert = {"k11": radii["k11"] * scale,
                "k12_w_lt": radii["k12_w_lt"] * scale,
                "k22": radii["k22"] * scale}
        pert["k12_w_gt"] = (1 / pert["k11"] + 1 / SPEC_M1.max_abs()) / 2
        val = correlation_via_kernel(SPEC_M1, T, KernelConfig(radii=pert))
        worst = max(worst, abs(val - base))
    assert worst < 1e-6
    report(10, "contour deformation", f"worst Pf shift {worst:.2e} "
           "under +-5% radius perturbation")
