"""q-extraction at depth, in exact arithmetic and on random specs.

Level i of a process is the one-level measure with x = rho^+_i ... rho^+_m
and y = rho^-_0 ... rho^-_{i-1} with rho^+_1 ... rho^+_{i-1}, and the route
(`verify.ROUTES["q-extraction"]`) reads each level's point sets from those
merged families, of any sizes; the tests hold it to the enumeration oracle
of the whole process, and a point set on two levels is a ValueError.

`correlation_via_q_extraction` takes every q-coefficient as a finite sum of
Taylor coefficients, in plain arithmetic, so the same function run on
`Fraction` values gives the exact coefficients of the same series: the
float run is held to that within 1e-14 relative at every depth. Against the
enumeration oracle at L = t + 60 the bound adds the oracle's own
`value_truncation`: on x = (0.5, 0.25), y = (0.4, 0.2) at (1, 60) the
oracle at L = 120 is 1.6e-13 short of the exact value and estimates 5.3e-12,
at L = 140 it is within 3.5e-15. The coefficients are those of the
stated-contour residue sum (`macdonald_reference.stated_action_Z`) divided
by Z, whose Taylor series they sum to.
"""

from fractions import Fraction

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, seed, settings, strategies as st  # noqa: E402

from macdonald_reference import stated_action_Z  # noqa: E402
from pfschur import verify  # noqa: E402
from pfschur.kernels import KernelConfig, correlation_via_q_extraction  # noqa: E402
from pfschur.macdonald import ContourConditionError, z_partition  # noqa: E402
from pfschur.measures import ProcessSpec, correlation_oracle  # noqa: E402

X, Y = (0.5, 0.25), (0.4, 0.2)
SPEC = ProcessSpec([X], [Y])
M2 = ProcessSpec([[0.4], [0.3]], [[0.35], [0.25]])      # configs/m2_d11.json
LEVELS3 = ProcessSpec([[0.5, 0.2], [0.4], [0.3]], [[0.45], [0.3], [0.2]])


def _route(spec, T):
    """The q-extraction row's value of the points T on spec."""
    return verify.correlation_row("q-extraction", spec, T, KernelConfig(), 0)["value"]


def _near_oracle(value, spec, T, L, floor):
    """value within floor + 10 x value_truncation of the oracle at L,
    relative; at an oracle value of 0, exactly 0."""
    oracle, info = correlation_oracle(spec, T, L=L, full_output=True)
    if oracle == 0:
        return value == 0
    return abs(value - oracle) <= (floor + 10 * info["value_truncation"]) * oracle


def _exact(xs, ys, T):
    """The same series on the exact binary values of the floats."""
    value = correlation_via_q_extraction([Fraction(x) for x in xs],
                                         [Fraction(y) for y in ys], T)
    assert isinstance(value, Fraction)
    return value


@pytest.mark.parametrize("T", [[10], [20], [40], [60], [5, 10], [10, 20], [20, 30]])
def test_q_extraction_is_exact_at_depth(T):
    value = correlation_via_q_extraction(X, Y, T)
    assert abs(value - _exact(X, Y, T)) <= 1e-14 * value
    oracle, info = correlation_oracle(SPEC, [(1, t) for t in T], L=max(T) + 60,
                                      full_output=True)
    assert abs(value - oracle) <= (1e-13 + info["value_truncation"]) * oracle


@pytest.mark.parametrize("xs,ys", [(X, Y), ((0.5, 0.3, 0.2), (0.4, 0.3, 0.1))])
def test_coefficients_sum_to_the_stated_action(xs, ys):
    # c_m, the correlation at t = m - n, is the q^m coefficient of the
    # stated action over Z; the terms past m = 40 fall below 1e-20
    n = len(xs)
    c = [correlation_via_q_extraction(xs, ys, [m - n]) for m in range(41)]
    Z = z_partition(xs, ys)
    for q in (0.5, -0.5, 0.5j, 0.3 + 0.2j, 0.5 * np.exp(1j * np.pi / 3)):
        ref = stated_action_Z([q], xs, ys) / Z
        assert abs(np.polyval(c[::-1], q) - ref) <= 1e-13 * abs(ref), q


@st.composite
def one_level(draw):
    """(xs at least 0.05 apart, ys, points) of one level, n <= 3 and d <= 2."""
    n = draw(st.integers(1, 3))
    x = draw(st.floats(0.1, 0.25))
    xs = [x]
    for _ in range(n - 1):
        xs.append(xs[-1] + draw(st.floats(0.05, 0.15)))
    ys = draw(st.lists(st.floats(0.1, 0.55), min_size=n, max_size=n))
    d = draw(st.integers(1, 2))
    points = draw(st.lists(st.integers(-n, 12), min_size=d, max_size=d, unique=True))
    return xs, ys, points


@seed(20171016)
@settings(max_examples=12, deadline=None, database=None)
@given(case=one_level())
def test_q_extraction_matches_the_oracle(case):
    # within 1e-12 relative plus 10x the oracle's own truncation estimate;
    # one level of n values has at most n rows, so with n = 1 two points
    # at or above -1 are never both occupied, and both routes give 0
    xs, ys, points = case
    value = correlation_via_q_extraction(xs, ys, points)
    oracle, info = correlation_oracle(ProcessSpec([xs], [ys]), [(1, t) for t in points],
                                      L=40, full_output=True)
    rel = 1e-12 + 10 * (info["value_truncation"] or 0.0)
    assert abs(value - oracle) <= rel * abs(oracle)


@pytest.mark.parametrize("ys", [(), (0.4,), (0.4, 0.3, 0.2)], ids=["0", "1", "n+1"])
def test_q_extraction_reads_families_of_any_size(ys):
    # |Y| = 0, 1 and n + 1 against one level's x = (0.5, 0.25); with no y
    # the partitions have even conjugates, lambda_1 = lambda_2, so two
    # points at or above -2 not 1 apart have probability 0
    spec = ProcessSpec([X], [ys])
    for sites in ([0], [5], [12], [-1, 2], [0, 1], [3, 12]):
        T = [(1, t) for t in sites]
        try:
            value = _route(spec, T)
        except ContourConditionError:
            assert correlation_oracle(spec, T, L=max(sites) + 60) == 0
            continue
        assert _near_oracle(value, spec, T, max(sites) + 60, 1e-13), (ys, sites)


@pytest.mark.parametrize("spec", [M2, LEVELS3], ids=["m2_d11", "3-level"])
def test_q_extraction_reads_every_level_of_a_process(spec):
    # every level's marginal, merged, against the process's own oracle; a
    # level with one row holds two points at or above -1 with probability
    # 0, and the route gives exactly 0 there
    for level in range(1, spec.m + 1):
        for sites in ([0], [12], [-1, 2], [0, 1], [3, 12]):
            T = [(level, t) for t in sites]
            assert _near_oracle(_route(spec, T), spec, T, 40, 1e-13), (level, sites)


@pytest.mark.parametrize("T", [[(1, 0)], [(1, 12)], [(1, 2), (1, 7)],
                               [(2, 0)], [(2, 12)], [(2, -1), (2, 5)]])
def test_the_merged_marginal_is_exact(T):
    # m2_d11's level, its merged families in Fractions, against the oracle
    # at L = t + 60
    xs, ys = verify._level_marginal(M2, verify.measures.PointSet(T))
    value = correlation_via_q_extraction([Fraction(v.real) for v in xs],
                                         [Fraction(v.real) for v in ys],
                                         [t for _, t in T])
    oracle = correlation_oracle(M2, T, L=max(t for _, t in T) + 60)
    assert abs(value - Fraction(oracle)) <= 1e-14 * oracle


@pytest.mark.parametrize("xs, T, want", [
    ([Fraction(1, 2)], [0, 1], 0),                  # one x: no pair at d = 2
    ([Fraction(1, 2), Fraction(1, 3)], [-5], 1),    # every point stripped
])
def test_a_value_of_no_terms_is_in_the_inputs_type(xs, T, want):
    exact = correlation_via_q_extraction(xs, [], T)
    assert type(exact) is Fraction and exact == want
    value = correlation_via_q_extraction([float(x) for x in xs], [], T)
    assert type(value) is float and value == want


def test_q_extraction_refuses_coincident_merged_values():
    # rho^+_1 = rho^+_2 merge to x = (0.3, 0.3) at level 1, where the
    # residue sum has a double pole
    spec = ProcessSpec([[0.3], [0.3]], [[0.2], [0.1]])
    with pytest.raises(ContourConditionError, match="two x values coincide"):
        _route(spec, [(1, 0)])
    assert _near_oracle(_route(spec, [(2, 0)]), spec, [(2, 0)], 40, 1e-13)


@st.composite
def processes(draw):
    """(spec, level, sites, other): m <= 3 levels of 1-3 values per family,
    at most 4 rho^+ values in all (the oracle sums over partitions of as
    many rows), all of them at least 0.05 apart, so each level's merged x
    is too; a level, 1-2 sites in -n-1 ... 6 of its n rows, and another
    level (None at m = 1)."""
    m = draw(st.integers(1, 3))
    sizes = draw(st.lists(st.integers(1, 3), min_size=m, max_size=m)
                 .filter(lambda sizes: sum(sizes) <= 4))
    values = [draw(st.floats(0.1, 0.2))]
    for _ in range(sum(sizes) - 1):
        values.append(values[-1] + draw(st.floats(0.05, 0.15)))
    values = draw(st.permutations(values))
    plus = [values[sum(sizes[:i]):sum(sizes[:i + 1])] for i in range(m)]
    minus = [draw(st.lists(st.floats(0.1, 0.55), min_size=1, max_size=3))
             for _ in range(m)]
    level = draw(st.integers(1, m))
    n = sum(sizes[level - 1:])
    d = draw(st.integers(1, 2))
    sites = draw(st.lists(st.integers(-n - 1, 6), min_size=d, max_size=d, unique=True))
    other = draw(st.sampled_from([i for i in range(1, m + 1) if i != level] or [None]))
    return ProcessSpec(plus, minus), level, sites, other


@seed(20171017)
@settings(max_examples=30, deadline=None, database=None)
@given(case=processes())
def test_q_extraction_matches_the_oracle_on_every_level(case):
    spec, level, sites, other = case
    T = [(level, t) for t in sites]
    assert _near_oracle(_route(spec, T), spec, T, 40, 1e-12)
    if other is not None:
        with pytest.raises(ValueError, match="one level's marginal"):
            _route(spec, [T[0], (other, sites[0])])
