"""Property test: the cut sums of one oracle pass against the pass on the
shorter list.

`measures._sequence_sum(..., cut=c)` reads the sums over the sequences
whose partitions weigh <= c from the weight-<=L list, masking each lam^(i)
to the list's weight-<=c prefix. On random admissible specs, both kinds,
with and without indicator factors, those sums must equal the dynamic
program run on the weight-<=c list itself to 1e-13 relative.
"""

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, seed, settings, strategies as st  # noqa: E402

from pfschur.measures import ProcessSpec, _sequence_sum  # noqa: E402


@st.composite
def cases(draw):
    """(spec, L, kind, level factor or None)."""
    m = draw(st.integers(1, 3))
    value = st.floats(0.05, 0.6)
    plus = [draw(st.lists(value, min_size=1, max_size=2)) for _ in range(m)]
    minus = [draw(st.lists(value, min_size=0, max_size=2)) for _ in range(m)]
    L = draw(st.integers(5, 25))
    sites = draw(st.lists(st.integers(-4, 2), min_size=m, max_size=m))

    def point(i, rows):
        # the indicator that site t_i is one of lam_j - j over the stored rows
        return (rows - np.arange(1, rows.shape[1] + 1) == sites[i]).any(axis=1)
    return (ProcessSpec(plus, minus), L, draw(st.sampled_from(["pfaffian", "schur"])),
            draw(st.sampled_from([None, point])))


@seed(20170516)
@settings(max_examples=40, deadline=None, database=None)
@given(case=cases())
def test_cut_sums_are_the_pass_on_the_shorter_list(case):
    spec, L, kind, factor = case
    full = _sequence_sum(spec, L, kind, factor, cut=L - 5)
    short = _sequence_sum(spec, L - 5, kind, factor)
    assert len(full) == 2 * len(short)
    for got, want in zip(full[len(short):], short):
        assert abs(got - want) <= 1e-13 * abs(want)
