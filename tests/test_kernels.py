import json
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from kernel_reference import dense, reference
from pfschur import kernels
from pfschur.kernels import (CONVENTIONS, SIGN_BR, KernelConfig,
                             assemble_kernel, correlation_via_kernel,
                             correlation_via_q_extraction, default_radii,
                             radius_sweep,
                             verify_principal_pfaffian_factorization,
                             with_other_k22_sign)
from pfschur.measures import PointSet, ProcessSpec, correlation_oracle
from pfschur.pfaffian import pfaffian
from pfschur.quadrature import QuadratureError

CONFIGS = Path(__file__).resolve().parent.parent / "configs"

X2 = (0.5, 0.25)
SPEC_M1 = ProcessSpec([X2], [X2])
SPEC_M2 = ProcessSpec([[0.4], [0.3]], [[0.35], [0.25]])
CFG = KernelConfig()
# (switch, choice) for every choice of a convention switch but the paper's
OTHER_CHOICES = [(switch, choice) for switch, (_, *others) in CONVENTIONS.items()
                 for choice in others]


def test_a_family_is_a_tuple_of_complex_whatever_its_input():
    # lists, tuples, numpy arrays and JSON give the same families, tuples of
    # complex numbers, and bitwise the same values on the oracle and kernel
    # routes
    plus, minus = [[0.4, 0.2], [0.3]], [[0.35], [0.25, 0.1]]
    specs = [ProcessSpec(plus, minus),
             ProcessSpec([tuple(s) for s in plus], [tuple(s) for s in minus]),
             ProcessSpec([np.array(s) for s in plus], [np.array(s) for s in minus]),
             ProcessSpec.from_json(json.loads(json.dumps(
                 {"rho_plus": plus, "rho_minus": minus})))]
    T = [(1, 0), (2, 0)]
    values = set()
    for spec in specs:
        assert spec.rho_plus == ((0.4 + 0j, 0.2 + 0j), (0.3 + 0j,))
        assert spec.rho_minus == ((0.35 + 0j,), (0.25 + 0j, 0.1 + 0j))
        assert {type(v) for s in spec.rho_plus + spec.rho_minus for v in s} == {complex}
        values.add((float(correlation_oracle(spec, T, L=20)).hex(),
                    float(correlation_via_kernel(spec, T, CFG)).hex()))
    assert len(values) == 1, values


def test_default_radii_admissible():
    radii = default_radii(SPEC_M2)
    assert 1 < radii["k11"] < 1 / SPEC_M2.max_abs_plus()
    assert 0 < radii["k22"] < 1
    assert radii["k12_w_lt"] * radii["k11"] < 1
    assert radii["k12_w_gt"] * radii["k11"] > 1


def _reference_blocks(spec, pts, cfg=CFG, n=256):
    """The dense-grid sums at n nodes per circle over the level-major points
    pts as a (d, d, 3) array: the integrals K11, K12 and K22 of each pair,
    the diagonal and lower entries that the assembly leaves out included."""
    value, _ = dense(spec, pts, cfg, n)
    return np.reshape(value, (len(pts), len(pts), 3))


def test_k11_antisymmetry():
    k11 = _reference_blocks(SPEC_M1, [(1, 0), (1, 2)])[..., 0]
    assert abs(k11[0, 0]) < 1e-7  # integrand odd under z <-> w
    assert abs(k11[0, 1] + k11[1, 0]) < 1e-7
    assert abs(k11[0, 1]) > 1e-4  # not trivially zero off the diagonal


def test_process_blockwise_skew_relations():
    pts = [(1, 0), (2, 1)]
    V = _reference_blocks(SPEC_M2, pts)
    for which, blk in (("K11", 0), ("K22", 2)):
        assert abs(V[0, 1, blk] + V[1, 0, blk]) < 1e-7, which
    K = assemble_kernel(SPEC_M2, PointSet(pts), CFG)
    assert K[1, 2] == -K[2, 1]  # K21[0,1] = -K12[1,0]


def test_assemble_structure_d1():
    K, info = assemble_kernel(SPEC_M1, PointSet([(1, 0)]), CFG, full_output=True)
    assert K.shape == (2, 2)
    assert K[0, 0] == 0 and K[1, 1] == 0
    assert K[0, 1] == -K[1, 0]
    assert list(info["nodes"]) == ["K12[0,0]"]
    assert 0 < info["max_last_delta"] < CFG.quad_tol * max(1, abs(K[0, 1]))


def test_assemble_names_the_entry_that_failed_to_converge():
    T = PointSet([(1, 0), (2, 0)])
    with pytest.raises(QuadratureError) as exc:
        assemble_kernel(SPEC_M2, T, KernelConfig(max_nodes=128))
    assert "K12[0,1]" in str(exc.value) and "(128, 128)" in str(exc.value)
    with pytest.raises(QuadratureError) as ref:
        reference(SPEC_M2, [(1, 0), (2, 0)], KernelConfig(max_nodes=128))
    assert np.allclose(exc.value.estimates, ref.value.estimates,
                       rtol=1e-12, atol=1e-12)


def test_assemble_permutation_invariance():
    Ta = PointSet([(1, 0), (1, 2)])
    Tb = PointSet([(1, 2), (1, 0)])
    pa = pfaffian(assemble_kernel(SPEC_M1, Ta, CFG))
    pb = pfaffian(assemble_kernel(SPEC_M1, Tb, CFG))
    assert abs(pa - pb) < 1e-8


def test_correlation_empty_T():
    assert correlation_via_kernel(SPEC_M1, PointSet([]), CFG) == 1.0


def test_correlation_empty_T_validates_the_config():
    with pytest.raises(ValueError, match="quad_tol"):
        correlation_via_kernel(SPEC_M1, PointSet([]), KernelConfig(quad_tol=-1))
    value, info = correlation_via_kernel(SPEC_M1, PointSet([]), CFG,
                                         full_output=True)
    assert value == 1.0
    assert info["radii"] == default_radii(SPEC_M1)
    assert info["nodes"] == {} and info["node_evaluations"] == 0


def test_correlation_matches_oracle_m1():
    for T in ([0], [1], [-1], [0, 2]):
        orc = correlation_oracle(SPEC_M1, [(1, t) for t in T], L=40)
        val, info = correlation_via_kernel(SPEC_M1, [(1, t) for t in T], CFG,
                                           full_output=True)
        assert abs(val - orc) < 1e-4, T
        assert info["imag_defect"] < 10 * CFG.quad_tol


def test_correlation_matches_oracle_m2():
    for T in ([(1, 0), (2, 0)], [(1, 1), (2, 0)]):
        orc = correlation_oracle(SPEC_M2, T, L=20)
        val = correlation_via_kernel(SPEC_M2, T, CFG)
        assert abs(val - orc) < 1e-3, T


def test_correlation_matches_oracle_d3_mixed_levels():
    # three points across two levels with multi-variable specializations:
    # exercises every block family inside one 6x6 Pfaffian
    spec = ProcessSpec([[0.4, 0.2], [0.3]], [[0.35], [0.25, 0.15]])
    T = [(1, 0), (1, 2), (2, -1)]
    orc = correlation_oracle(spec, T, L=16)
    val = correlation_via_kernel(spec, T, CFG)
    assert abs(val - orc) < 1e-6


def test_correlation_deep_negative_site_process():
    spec = ProcessSpec([[0.4, 0.2], [0.3]], [[0.35], [0.25, 0.15]])
    T = [(1, -2), (2, 1)]
    orc = correlation_oracle(spec, T, L=16)
    val = correlation_via_kernel(spec, T, CFG)
    assert abs(val - orc) < 1e-6


def test_rel_last_delta_is_null_at_a_zero_value(monkeypatch):
    monkeypatch.setattr(kernels, "pfaffian", lambda S: 0j)
    value, info = correlation_via_kernel(SPEC_M2, PointSet([(1, 0)]), CFG,
                                         full_output=True)
    assert value == 0 and info["max_last_delta"] > 0
    assert info["rel_last_delta"] is None


def test_skew_diagonal_is_exactly_zero_under_the_inadmissible_radii():
    # K11[p,p] and K22[p,p] vanish by skew symmetry and are not integrated.
    # Under the inadmissible reading their rounding noise grows like r^|t|,
    # and tested for convergence it failed K11[0,0] at every count up to the
    # cap; the sites lie below -n at level 2, so the value is 1.
    spec = ProcessSpec([[0.1, 0.177, 0.152], [0.333, 0.319]],
                       [[0.333, 0.252, 0.5], [0.337]])
    cfg = replace(CFG, radii=kernels._inadmissible_radii(spec))
    for t in (-8, -9, -10):
        K, info = assemble_kernel(spec, PointSet([(2, t)]), cfg, full_output=True)
        assert list(info["nodes"]) == ["K12[0,0]"]
        assert K[0, 0] == K[1, 1] == 0
        assert abs(pfaffian(K).real - 1) < 1e-6, t


def test_d1_integrates_k12_alone_on_two_circles(monkeypatch):
    # at d = 1 the K11 and K22 blocks hold no entry worth integrating, so
    # the first pass evaluates k11 and k12_w_gt and never the k22 circle
    raw = json.loads((CONFIGS / "m1_singleton.json").read_text())
    spec = ProcessSpec.from_json(raw["process"])
    circles = []
    nodes_weights = kernels.quad.nodes_weights

    def spy(contour, n, batch):
        circles.append((n, tuple(np.atleast_1d(contour.circles[0].radius))))
        return nodes_weights(contour, n, batch)
    monkeypatch.setattr(kernels.quad, "nodes_weights", spy)
    K, info = assemble_kernel(spec, PointSet(raw["points"]), CFG, full_output=True)
    first = 4 * CFG.start_nodes
    assert info["nodes"] == {"K12[0,0]": (128, 128)}
    assert info["node_evaluations"] == 2 * first
    radii = info["radii"]
    assert circles == [(first, (radii["k11"], radii["k12_w_gt"]))]


# a d = 3 spec over two levels, with points at both, and each variant: the
# paper's conventions, every other choice of the switches but the sign, and
# the inadmissible radii
SPEC_D3 = ProcessSpec([[0.4, 0.2], [0.3]], [[0.35], [0.25, 0.15]])
T_D3 = PointSet([(1, 0), (1, 2), (2, -1)])
D3_VARIANTS = {"paper": {},
               **{choice: {switch: choice} for switch, choice in OTHER_CHOICES
                  if switch != "sign_convention"},
               "inadmissible": {"radii": kernels._inadmissible_radii(SPEC_D3)}}


@pytest.mark.parametrize("variant", D3_VARIANTS)
def test_the_k22_sign_is_the_last_step_of_the_assembly(variant):
    # the other sign's matrix is the paper sign's with its K22 block
    # negated, entry for entry exactly
    cfg = KernelConfig(**D3_VARIANTS[variant])
    paper = assemble_kernel(SPEC_D3, T_D3, cfg)
    br = assemble_kernel(SPEC_D3, T_D3, replace(cfg, sign_convention=SIGN_BR))
    assert np.array_equal(br, with_other_k22_sign(paper))
    assert np.abs(br[1::2, 1::2]).max() > 0


# the least miss of the oracle on SPEC_M2 at (1, 0), (2, 0) that each choice
# but the paper's must show (measured: 1.68e-2, 0.368 and 0.522; the
# paper's own is 3.5e-11)
MISSES = {SIGN_BR: 1e-2, "display": 0.05, "literal": 0.05}


@pytest.mark.parametrize("switch, choice", OTHER_CHOICES)
def test_every_other_convention_misses_the_oracle_m2(switch, choice):
    # a choice added to or dropped from a switch must gain or lose its bound
    assert set(MISSES) == {other for _, other in OTHER_CHOICES}
    T = [(1, 0), (2, 0)]
    orc = correlation_oracle(SPEC_M2, T, L=20)
    val = correlation_via_kernel(SPEC_M2, T, KernelConfig(**{switch: choice}))
    assert abs(val - orc) > MISSES[choice]


def test_quadrature_stability_under_tol_halving():
    T = PointSet([(1, 0), (1, 2)])
    loose = assemble_kernel(SPEC_M1, T, KernelConfig(quad_tol=1e-6))
    tight = assemble_kernel(SPEC_M1, T, KernelConfig(quad_tol=5e-7))
    assert np.max(np.abs(loose - tight)) < 1e-6


def test_radius_robustness():
    T = [(1, 0)]
    base = correlation_via_kernel(SPEC_M1, T, CFG)
    radii = default_radii(SPEC_M1)
    for scale in (0.95, 1.05):
        pert = {"k11": radii["k11"] * scale,
                "k12_w_lt": radii["k12_w_lt"] * scale,
                "k12_w_gt": radii["k12_w_gt"],
                "k22": radii["k22"] * scale}
        # keep the perturbed k12_w_gt admissible against the scaled k11
        pert["k12_w_gt"] = (1 / pert["k11"] + 1 / SPEC_M1.max_abs()) / 2
        val = correlation_via_kernel(SPEC_M1, T, KernelConfig(radii=pert))
        assert abs(val - base) < 1e-6


def test_q_extraction_d1():
    orc = correlation_oracle(SPEC_M1, [(1, 0)], L=40)
    val = correlation_via_q_extraction(X2, X2, [0], CFG)
    assert abs(val - orc) < 1e-4


def test_q_extraction_deep_negative_site():
    val, info = correlation_via_q_extraction(X2, X2, [-7], CFG, full_output=True)
    assert val == 1.0
    assert info["stripped_deterministic"] == [-7]


def test_q_extraction_names_the_integral_that_failed(monkeypatch):
    def fail(*args, **kwargs):
        raise QuadratureError("double contour integral did not converge", (1j, 2j))
    monkeypatch.setattr(kernels.quad, "integrate_n", fail)
    with pytest.raises(QuadratureError) as exc:
        correlation_via_q_extraction(X2, X2, [0, -7, 1], CFG)
    assert str(exc.value) == ("q-extraction at T=[0, 1]: double contour "
                              "integral did not converge")
    assert exc.value.estimates == (1j, 2j)


def test_q_extraction_guards():
    with pytest.raises(ValueError):
        correlation_via_q_extraction(X2, X2, [0, 1, 2], CFG)
    with pytest.raises(ValueError):
        correlation_via_q_extraction(X2, (0.5,), [0], CFG)


def test_principal_pfaffian_factorization():
    rng = np.random.default_rng(9)
    assert verify_principal_pfaffian_factorization([0.4], [0.3]) < 1e-12
    for d, tol in ((2, 1e-10), (3, 1e-9)):
        qs = (0.15 + 0.5 * rng.random(d)) * np.exp(2j * np.pi * rng.random(d))
        zs = (0.15 + 0.5 * rng.random(d)) * np.exp(2j * np.pi * rng.random(d))
        assert verify_principal_pfaffian_factorization(qs, zs) < tol
    with pytest.raises(ValueError):
        verify_principal_pfaffian_factorization([1.0], [0.3])  # q=1 singular
    # q_1 z_1 z_2 = 1: the substitution points coincide (z_2 = 1/(q_1 z_1))
    with pytest.raises(ValueError, match="coincident substitution points"):
        verify_principal_pfaffian_factorization([0.5, 0.3], [4.0, 0.5])


def test_radius_sweep_reports_inadmissible_reading():
    # the scan holds no oracle and no threshold: each row is its radii, note,
    # value and the kernel's diagnostics of it, and only the inadmissible
    # reading misses the oracle
    oracle = correlation_oracle(SPEC_M1, [(1, 0)], L=40)
    out = radius_sweep(SPEC_M1, [(1, 0)], CFG)
    assert set(out) == {"T", "rows"} and out["T"] == [[1, 0]]
    assert [set(r) for r in out["rows"]] == [{
        "radii", "note", "value", "max_last_delta", "rel_last_delta", "nodes",
        "node_evaluations"}] * 4
    *admissible, bad = out["rows"]
    assert "encloses" in bad["note"] and abs(bad["value"] - oracle) > 0.1
    assert all(abs(r["value"] - oracle) < 1e-8 for r in admissible)


def test_radius_sweep_rows_are_the_kernel_route_at_their_radii():
    # each row's value and diagnostics are correlation_via_kernel's at the
    # row's radii, bit for bit
    for row in radius_sweep(SPEC_M1, [(1, 0)], CFG)["rows"]:
        value, info = correlation_via_kernel(SPEC_M1, [(1, 0)],
                                             replace(CFG, radii=row["radii"]),
                                             full_output=True)
        assert row["value"] == value
        assert {k: row[k] for k in ("max_last_delta", "rel_last_delta", "nodes",
                                    "node_evaluations")} == \
            {k: info[k] for k in ("max_last_delta", "rel_last_delta", "nodes",
                                  "node_evaluations")}


def test_radius_sweep_trials_keep_every_other_field(monkeypatch):
    seen = []

    def record(spec, T, cfg, full_output=False):
        seen.append(cfg)
        return 0.0, dict.fromkeys(
            ("max_last_delta", "rel_last_delta", "nodes", "node_evaluations"))
    monkeypatch.setattr(kernels, "correlation_via_kernel", record)
    cfg = KernelConfig(quad_tol=1e-7, start_nodes=32, max_nodes=2 ** 10,
                       sign_convention=SIGN_BR, h_assignment="display",
                       k12_regime="literal")
    radius_sweep(SPEC_M1, [(1, 0)], cfg)
    assert len(seen) == 4
    for trial in seen:
        assert trial.max_nodes == 2 ** 10
        assert trial == replace(cfg, radii=trial.radii)


def test_radius_sweep_turns_nonconvergence_into_an_error_row(monkeypatch):
    def fail(spec, T, cfg, full_output=False):
        raise QuadratureError("kernel entry did not converge", (0j, 1j))
    monkeypatch.setattr(kernels, "correlation_via_kernel", fail)
    out = radius_sweep(SPEC_M1, [(1, 0)], CFG)
    assert [row["error"] for row in out["rows"]] == \
        ["kernel entry did not converge"] * 4
    assert not any("value" in row for row in out["rows"])


def test_radius_sweep_lets_a_programming_error_through(monkeypatch):
    def bug(spec, T, cfg, full_output=False):
        raise TypeError("bug in assembly")
    monkeypatch.setattr(kernels, "correlation_via_kernel", bug)
    with pytest.raises(TypeError, match="bug in assembly"):
        radius_sweep(SPEC_M1, [(1, 0)], CFG)
