"""Property test: the kernel route against the enumeration oracle.

On random admissible specs with m <= 2 levels and |T| <= 3 points, the
Pfaffian of the assembled kernel must match `correlation_oracle` within 10x
the oracle's truncation diagnostic, plus a floor of 1e-7 for the kernel's
own quadrature error (every entry converges to quad_tol = 1e-8; the floor
is 10x that), and Pf(K)^2 must equal det(K). The oracle runs at L = 30
and each rho family has at most two values; a two-level draw (up to four
rho^+ values, so partitions of up to four rows) sums in well under a
second by the oracle's strip transfers.

The judge's reading of an oracle zero (`verify._least_weight`) is held to
the oracle on specs of m <= 3 levels with 1-2 values per family: a point
set judged structural has an oracle value of exactly 0 at L = 40, and a
least weight cap r an oracle value of exactly 0 at L = r - 1 and a positive
one at L = r (every family has a value, so every partition has weight).
"""

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, seed, settings, strategies as st  # noqa: E402

from pfschur import verify  # noqa: E402
from pfschur.kernels import assemble_kernel, correlation_via_kernel  # noqa: E402
from pfschur.measures import (PointSet, ProcessSpec, correlation_oracle,  # noqa: E402
                              truncation_diagnostic)
from pfschur.pfaffian import pfaffian  # noqa: E402

L = 30
QUADRATURE_FLOOR = 1e-7


@st.composite
def cases(draw):
    """(rho^+ families, rho^- families, points) as plain lists."""
    m = draw(st.integers(1, 2))
    family = st.lists(st.floats(0.1, 0.55, exclude_min=True, exclude_max=True),
                      min_size=1, max_size=2)
    plus = [draw(family) for _ in range(m)]
    minus = [draw(family) for _ in range(m)]
    n = sum(map(len, plus))
    d = draw(st.integers(1, 3))
    points = draw(st.lists(st.tuples(st.integers(1, m), st.integers(-n - 2, 2)),
                           min_size=d, max_size=d, unique=True))
    return plus, minus, points


@seed(20170516)
@settings(max_examples=6, deadline=None, database=None)
@given(case=cases())
def test_kernel_pfaffian_matches_the_oracle(case):
    plus, minus, points = case
    spec, T = ProcessSpec(plus, minus), PointSet(points)
    oracle = correlation_oracle(spec, T, L=L)
    bound = 10 * truncation_diagnostic(spec, L) + QUADRATURE_FLOOR
    assert abs(correlation_via_kernel(spec, T) - oracle) <= bound
    # Pf^2 = det, on the scale of Hadamard's bound on |det|
    K = assemble_kernel(spec, T)
    hadamard = np.prod(np.linalg.norm(K, axis=1))
    assert abs(pfaffian(K) ** 2 - np.linalg.det(K)) <= 1e-12 * hadamard


@st.composite
def zero_cases(draw):
    """(rho^+ families, rho^- families, points): 1-4 points on any levels,
    at sites -n-2 ... 4."""
    m = draw(st.integers(1, 3))
    family = st.lists(st.floats(0.1, 0.55), min_size=1, max_size=2)
    plus = [draw(family) for _ in range(m)]
    minus = [draw(family) for _ in range(m)]
    n = sum(map(len, plus))
    points = draw(st.lists(st.tuples(st.integers(1, m), st.integers(-n - 2, 4)),
                           min_size=1, max_size=4, unique=True))
    return plus, minus, points


@seed(20171017)
@settings(max_examples=150, deadline=None, database=None)
@given(case=zero_cases())
def test_the_least_weight_reads_the_oracle_zeros(case):
    plus, minus, points = case
    spec, T = ProcessSpec(plus, minus), PointSet(points)
    least = verify._least_weight(spec, T)
    if least is None:
        assert correlation_oracle(spec, T, L=40) == 0.0
        return
    assert least == 0 or correlation_oracle(spec, T, L=least - 1) == 0.0
    assert correlation_oracle(spec, T, L=least) > 0.0
