"""q-extraction at depth, in exact arithmetic and on random specs.

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
from pfschur.kernels import correlation_via_q_extraction  # noqa: E402
from pfschur.macdonald import z_partition  # noqa: E402
from pfschur.measures import ProcessSpec, correlation_oracle  # noqa: E402

X, Y = (0.5, 0.25), (0.4, 0.2)
SPEC = ProcessSpec([X], [Y])


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
