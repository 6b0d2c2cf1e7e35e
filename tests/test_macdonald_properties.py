"""Property test: the shift-image radii keep every circle clear.

`macdonald._separated` scales the radii down together until each circle
lies within a sixteenth of the distance from its center to 0, to the unit
circle and to the other centers of its level. `_validate_disks` checks only
the pole loci after it, so on any levels of distinct centers inside the unit
disk and any positive radii the scaled circles must keep 0 outside, stay
inside the unit disk and be pairwise disjoint within a level
(`test_macdonald._level_fault`).
"""

import cmath
import math

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, seed, settings, strategies as st  # noqa: E402

from pfschur.macdonald import _separated  # noqa: E402
from test_macdonald import _level_fault  # noqa: E402


def _polar(low, high):
    return st.builds(cmath.rect, st.floats(low, high, exclude_max=True),
                     st.floats(0, 2 * math.pi, exclude_max=True))


@st.composite
def levels(draw):
    """(radii, centers): per level, one radius and a list of distinct
    centers inside the unit disk, 0 left out, all within 0.1 of the first,
    so that centers close enough for their circles to meet, as shift images
    can be, are drawn often."""
    d = draw(st.integers(1, 4))
    centers = []
    for _ in range(d):
        base = draw(_polar(1e-6, 1))
        near = [base + draw(_polar(1e-6, 0.1)) for _ in range(draw(st.integers(0, 4)))]
        centers.append(list({base, *(c for c in near if 0 < abs(c) < 1)}))
    radii = draw(st.lists(st.floats(1e-6, 1), min_size=d, max_size=d))
    return radii, centers


@seed(20170516)
@settings(max_examples=100, deadline=None, database=None)
@given(case=levels())
def test_separated_radii_keep_every_circle_clear(case):
    radii, centers = case
    separated = _separated(radii, centers)
    assert all(0 < r <= r0 for r, r0 in zip(separated, radii))
    assert _level_fault(centers, separated) is None
