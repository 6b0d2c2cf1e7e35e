import math
import random

import numpy as np
import pytest

from pfschur.measures import (PointSet, ProcessSpec, correlation_oracle,
                              observable_expectation_oracle,
                              partition_function_closed,
                              partition_function_truncated, process_weight,
                              truncation_diagnostic)
from pfschur.partitions import (contains, enumerate_up_to_weight,
                                point_configuration, subpartitions)
from pfschur.symfunc import H0, cauchy_H, schur, skew_schur, tau


def test_process_spec_validation():
    with pytest.raises(ValueError):
        ProcessSpec([[0.5]], [])                     # missing rho^-_0
    with pytest.raises(ValueError):
        ProcessSpec([[0.5]], [[0.5], [0.3]])         # too many
    with pytest.raises(ValueError):
        ProcessSpec([[1.5]], [[0.5]])                # out of range
    with pytest.raises(ValueError):
        ProcessSpec([[0.5 + 0.1j]], [[0.5]])         # complex
    spec = ProcessSpec([[0.5], [0.4]], [[0.3], [0.2]])
    assert spec.m == 2
    assert spec.max_abs() == 0.5
    assert ProcessSpec.from_json({"rho_plus": [[0.5], [0.4]],
                                  "rho_minus": [[0.3], [0.2]]}).rho_minus == spec.rho_minus


def test_process_spec_from_json_reads_json_numbers():
    spec = ProcessSpec.from_json({"rho_plus": [[0.5, 1e-1]], "rho_minus": [[]]})
    assert spec.rho_plus == ((0.5 + 0j, 0.1 + 0j),) and spec.rho_minus == ((),)
    # complex() parses strings and takes true as 1, but neither is a number;
    # nor is an [re, im] pair, which no process weight could use
    for entry in ("0.5", True, [0.25, 0.1], ["0.5", 0], [0.5]):
        with pytest.raises(ValueError, match="is not a number"):
            ProcessSpec.from_json({"rho_plus": [[entry]], "rho_minus": [[0.5]]})


def test_point_set():
    T = PointSet([(1, 0), (2, -1), (1, 3)])
    assert len(T) == 3
    assert T.by_level(2) == {1: [0, 3], 2: [-1]}
    with pytest.raises(ValueError):
        PointSet([(1, 0), (1, 0)])
    with pytest.raises(ValueError):
        PointSet([(0, 0)])
    with pytest.raises(ValueError):
        T.by_level(1)


def test_process_weight_all_empty():
    spec = ProcessSpec([[0.5], [0.4]], [[0.3], [0.2]])
    assert process_weight([(), ()], [()], spec) == 1.0


def test_process_weight_m1_reduction():
    spec = ProcessSpec([[0.5]], [[0.4]])
    lam = (2, 1)
    want = (tau(lam, spec.rho_minus[0]) * schur(lam, spec.rho_plus[0])).real
    assert abs(process_weight([lam], [], spec) - want) < 1e-15


def test_process_weight_m2_singletons():
    a, b, c, e = 0.31, 0.17, 0.23, 0.41
    spec = ProcessSpec([[a], [e]], [[b], [c]])
    w = process_weight([(1,), (1,)], [(1,)], spec)
    assert abs(w - b * e) < 1e-15


def test_process_weight_length_mismatch():
    spec = ProcessSpec([[0.5], [0.4]], [[0.3], [0.2]])
    with pytest.raises(ValueError):
        process_weight([(1,)], [], spec)


def test_partition_function_closed_m1():
    spec = ProcessSpec([[0.5]], [[0.5]])
    assert abs(partition_function_closed(spec, "pfaffian") - 4 / 3) < 1e-14
    want = cauchy_H((0.5,), (0.5,)).real
    assert abs(partition_function_closed(spec, "schur") - want) < 1e-15
    # empty rho^-_0 leaves only the pair factor
    spec2 = ProcessSpec([[0.5, 0.25]], [[]])
    assert abs(partition_function_closed(spec2, "pfaffian")
               - H0((0.5, 0.25)).real) < 1e-15


def test_partition_function_truncated():
    spec = ProcessSpec([[0.5]], [[0.5]])
    assert partition_function_truncated(spec, "pfaffian", 0) == 1.0
    assert abs(partition_function_truncated(spec, "pfaffian", 40) - 4 / 3) < 1e-10
    # geometric error decay in L
    closed = partition_function_closed(spec, "pfaffian")
    errs = [abs(closed - partition_function_truncated(spec, "pfaffian", L)) / closed
            for L in (10, 20, 30)]
    assert errs[0] > errs[1] > errs[2]
    ratios = [errs[1] / errs[0], errs[2] / errs[1]]
    assert max(ratios) < 0.1


def test_partition_function_monotone_in_L():
    spec = ProcessSpec([[0.5], [0.4]], [[0.45], [0.35]])
    vals = [partition_function_truncated(spec, "pfaffian", L) for L in (0, 4, 8, 12)]
    assert all(vals[i] <= vals[i + 1] for i in range(len(vals) - 1))


def test_h0_union_adjudication():
    # the union form carries the cross-level H(rho^+_i; rho^+_j) factors;
    # the literal per-level product misses them for m >= 2
    spec = ProcessSpec([[0.5], [0.4]], [[0.45], [0.35]])
    trunc = partition_function_truncated(spec, "pfaffian", 40)
    union = partition_function_closed(spec, "pfaffian", h0_union=True)
    literal = partition_function_closed(spec, "pfaffian", h0_union=False)
    assert abs(union - trunc) / trunc < 1e-8
    assert abs(literal - trunc) / trunc > 1e-2


def test_cauchy_identity_truncated():
    X = (0.5, 0.3)
    Y = (0.4, 0.2)
    total = sum((schur(lam, X) * schur(lam, Y)).real
                for lam in enumerate_up_to_weight(30, 2))
    assert abs(total - cauchy_H(X, Y).real) < 1e-9


def test_correlation_oracle_geometric_case():
    spec = ProcessSpec([[0.5]], [[0.5]])
    assert abs(correlation_oracle(spec, [(1, 0)], L=40) - 0.1875) < 1e-10
    assert correlation_oracle(spec, [(1, -2)], L=20) == 1.0
    assert correlation_oracle(spec, [], L=10) == 1.0


def test_correlation_monotone_under_superset():
    spec = ProcessSpec([(0.5, 0.25)], [(0.5, 0.25)])
    small = correlation_oracle(spec, [(1, 0)], L=24)
    big = correlation_oracle(spec, [(1, 0), (1, 2)], L=24)
    assert big <= small <= 1.0


def test_correlation_window_complementation():
    # sum of one-point correlations over a window equals the expected number
    # of points there, computed by direct enumeration
    X = (0.5, 0.25)
    spec = ProcessSpec([X], [X])
    L = 20
    window = range(-6, L + 1)
    total = sum(correlation_oracle(spec, [(1, t)], L=L) for t in window)

    from pfschur.partitions import point_configuration
    num = 0.0
    den = 0.0
    for lam in enumerate_up_to_weight(L, 2):
        w = (tau(lam, X) * schur(lam, X)).real
        den += w
        pts = point_configuration(lam, 26)          # every site down to -26
        num += w * sum(1 for t in window if t in pts)
    assert abs(total - num / den) < 1e-9


def test_normalized_masses():
    spec = ProcessSpec([[0.5], [0.4]], [[0.45], [0.35]])
    closed = partition_function_closed(spec, "pfaffian")
    masses = [partition_function_truncated(spec, "pfaffian", L) / closed
              for L in (4, 8, 16)]
    assert all(0 < m <= 1 + 1e-12 for m in masses)
    assert masses == sorted(masses)


def test_observable_oracle():
    spec1 = ProcessSpec([[0.5]], [[0.5]])
    assert observable_expectation_oracle([[]], spec1, L=10) == 1.0
    # one variable: E[q^{lam_1}] is geometric
    q, x, y = 0.3, 0.5, 0.5
    want = (1 - x * y) / (1 - q * x * y)
    got = observable_expectation_oracle([[q]], spec1, L=60)
    assert abs(got - want) < 1e-12


def test_truncation_diagnostic_positive_and_small():
    spec = ProcessSpec([[0.5]], [[0.5]])
    d = truncation_diagnostic(spec, 30)
    assert 0 <= d < 1e-12


def test_truncation_diagnostic_hands_back_the_partition_function_it_read():
    spec = ProcessSpec([[0.5, 0.25], [0.3]], [[0.4, 0.2], [0.35]])
    for L in (3, 12):
        diag, s_l = truncation_diagnostic(spec, L, full_output=True)
        assert diag == truncation_diagnostic(spec, L)
        assert s_l == partition_function_truncated(spec, "pfaffian", L)


def test_truncation_diagnostic_reads_one_below_five():
    # S_{L-5} is the empty sum 0 there, so S_0, which keeps only the empty
    # partition, is not compared with itself
    spec = ProcessSpec([[0.5]], [[0.5]])
    assert [truncation_diagnostic(spec, L) for L in range(5)] == [1.0] * 5
    assert 0 < truncation_diagnostic(spec, 5) < 1


def test_value_truncation_is_the_step_of_two_oracle_calls():
    # |E_L - E_{L-5}| / |E_L| from one pass, against the oracle at L and at
    # L - 5; below L = 5, E_{L-5} is 0, and a value of 0 has no estimate
    spec = ProcessSpec([[0.5, 0.25]], [[0.4, 0.2]])
    for T, L in (([(1, 0)], 12), ([(1, -1), (1, 1)], 9), ([(1, 2)], 5), ([(1, 0)], 3)):
        value, info = correlation_oracle(spec, T, L=L, full_output=True)
        e_l = correlation_oracle(spec, T, L=L)
        e_cut = correlation_oracle(spec, T, L=L - 5) if L >= 5 else 0.0
        assert abs(value - e_l) <= 1e-14 * e_l
        assert abs(info["value_truncation"] - abs(e_l - e_cut) / e_l) <= 1e-13, (T, L)
        assert info["truncation_diagnostic"] == truncation_diagnostic(spec, L)
        assert (info["L"], info["imag_defect"]) == (L, 0.0)
    assert 1e-4 < correlation_oracle(spec, [(1, 0)], L=12, full_output=True)[1][
        "value_truncation"] < 1
    assert correlation_oracle(spec, [(1, 4)], L=3, full_output=True)[1][
        "value_truncation"] is None                 # out of reach at L = 3


def test_each_oracle_question_takes_one_pass_at_its_own_weight(monkeypatch):
    from pfschur import measures, verify
    passes, cuts, weights = [], [], set()
    sequence_sum, strips = measures._sequence_sum, measures.horizontal_strips

    def spy_sum(spec, L, *args, **kwargs):
        passes.append(L)
        cuts.append(kwargs.get("cut"))
        return sequence_sum(spec, L, *args, **kwargs)

    def spy_strips(L, max_length=None):
        weights.add(L)
        return strips(L, max_length)
    monkeypatch.setattr(measures, "_sequence_sum", spy_sum)
    monkeypatch.setattr(measures, "horizontal_strips", spy_strips)
    spec = ProcessSpec([[0.5, 0.25], [0.3]], [[0.4, 0.2], [0.35]])
    # a value alone asks for no L - 5 sums
    for L, cut, question in (
            (12, 7, lambda: verify.correlation_row("oracle", spec, [(1, 0), (2, -1)], None, 12)),
            (11, 6, lambda: truncation_diagnostic(spec, 11)),
            (10, None, lambda: observable_expectation_oracle([[0.3], [0.2j]], spec, L=10)),
            (9, None, lambda: correlation_oracle(spec, [(2, 1)], L=9))):
        passes.clear(), cuts.clear(), weights.clear()
        question()
        assert passes == [L] and cuts == [cut] and weights == {L}, L
    passes.clear()
    assert correlation_oracle(spec, [], L=9) == 1.0 and passes == []
    # the partition-function battery: its four fixed specs, then one pass
    # for the config's S_L and its truncation diagnostic
    passes.clear(), cuts.clear()
    verify.battery_partition_function(spec, 8)
    assert passes == [40] * 4 + [8] and cuts == [None] * 4 + [3]


def _sequences(m, L):
    """Every (lams, mus) with all weights <= L and mu^(i) contained in
    lam^(i) and lam^(i+1): the only pruning is containment, outside which
    a skew factor vanishes; no row caps."""
    parts = enumerate_up_to_weight(L)

    def rec(lams, mus):
        if len(lams) == m:
            yield lams, mus
            return
        for mu in subpartitions(lams[-1]):
            for lam in parts:
                if contains(lam, mu):
                    yield from rec(lams + [lam], mus + [mu])
    for lam in parts:
        yield from rec([lam], [])


def _literal_sums(spec, L, weightings):
    """Pfaffian and Schur partition functions and, per weighting, the
    Pfaffian sum times prod_i weighting[i](lam^(i)), all summed literally:
    process_weight for the Pfaffian process, and for the Schur process the
    same product with s_{lam^(0)}(rho^-_0) in place of tau."""
    pf, sc, weighted = 0.0, 0j, [0j] * len(weightings)
    for lams, mus in _sequences(spec.m, L):
        w = process_weight(lams, mus, spec)
        pf += w
        for k, fs in enumerate(weightings):
            weighted[k] += w * math.prod(f(lam) for f, lam in zip(fs, lams))
        inner = schur(lams[-1], spec.rho_plus[-1])
        for i in range(1, spec.m):
            inner *= (skew_schur(lams[i - 1], mus[i - 1], spec.rho_plus[i - 1])
                      * skew_schur(lams[i], mus[i - 1], spec.rho_minus[i]))
        sc += schur(lams[0], spec.rho_minus[0]) * inner
    return pf, sc.real, weighted


def _reference_cases():
    """Seeded random specs with m <= 3, plus a Schur-process spec whose
    rho^-_0 has fewer variables than level 2's row cap, so the level-0 cap
    sits below the next level's, and two specs at L = 0, whose partition
    list is the empty partition alone."""
    rng = random.Random(20170516)

    def family(lo):
        return [round(rng.uniform(0.05, 0.6), 3) for _ in range(rng.randint(lo, 2))]
    cases = []
    for m, L in ((1, 8), (1, 8), (2, 7), (2, 6), (3, 4), (3, 4)):
        cases.append((ProcessSpec([family(1) for _ in range(m)],
                                  [family(0) for _ in range(m)]), L))
    cases.append((ProcessSpec([[0.45], [0.4, 0.3]], [[0.5], [0.35]]), 7))
    cases.append((ProcessSpec([[0.45], [0.4, 0.3]], [[0.5], [0.35]]), 0))
    cases.append((ProcessSpec([[0.5, 0.25]], [[0.5]]), 0))
    return cases


@pytest.mark.parametrize("spec, L", _reference_cases())
def test_oracles_match_a_literal_sequence_sum(spec, L):
    """The strip-transfer dynamic program against the literal sum of the
    product weights over every enumerated sequence. The point sets probe
    the oracle's indicator at its edges against `point_configuration`."""
    m = spec.m
    level = random.Random(L * 10 + m).randint(1, m)
    cap = sum(len(s) for s in spec.rho_plus)       # the partition list's row cap
    point_sets = [
        [(level, -1), (level, 0)],
        [(level, -cap - 2), (level, -1)],           # below every row, a point
        [(level, -cap)],                            # the lowest row the list can hold
        [(level, -cap - 1)],                        # just below the rows
    ]
    q = complex(-0.45, 0.3)
    qs = [[q, q.conjugate()] if i == level - 1 else [] for i in range(m)]
    ns = [len(s) for s in spec.rho_plus]

    def indicator(i, T):
        want = {t for lvl, t in T if lvl == i + 1}
        # every site down to -(L + cap + 3), past every point of T
        return lambda lam: float(want <= point_configuration(lam, L + cap + 3))

    def observable(i):
        n = ns[i]

        def w(lam):
            lamp = lam + (0,) * (n - len(lam))
            return math.prod(sum(q ** (lamp[k] + n - k - 1) for k in range(n))
                             for q in qs[i])
        return w

    pf, sc, (obs, *nums) = _literal_sums(
        spec, L, [[observable(i) for i in range(m)]]
        + [[indicator(i, T) for i in range(m)] for T in point_sets])
    assert abs(partition_function_truncated(spec, "pfaffian", L) - pf) < 1e-13 * pf
    assert abs(partition_function_truncated(spec, "schur", L) - sc) < 1e-13 * sc
    for T, num in zip(point_sets, nums):
        got = correlation_oracle(spec, T, L=L)
        assert abs(got - num.real / pf) <= 1e-13 * abs(num.real / pf), T
    got = observable_expectation_oracle(qs, spec, L=L)
    assert abs(got - obs / pf) < 1e-13 * max(1.0, abs(obs / pf))


def test_partition_function_m3_truncated_matches_closed():
    # three levels at L = 40: the union pair factor and the cross-level
    # Cauchy factors of both kinds, on a Schur process whose level-0 cap
    # (one rho^-_0 variable) sits below level 2's
    spec = ProcessSpec([[0.5], [0.45], [0.4]], [[0.5], [0.35], [0.45]])
    for kind in ("pfaffian", "schur"):
        closed = partition_function_closed(spec, kind)
        trunc = partition_function_truncated(spec, kind, 40)
        assert trunc <= closed * (1 + 1e-14)
        assert abs(trunc - closed) / closed < 1e-9
