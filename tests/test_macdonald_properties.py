"""Property tests: the one clearance rule keeps every circle clear.

`macdonald._separated` scales the radii down together until each circle
lies within a sixteenth of the distance from its center to 0, to the unit
circle and to the other centers of its level. `_validate_disks` checks only
the pole loci after it, so on any levels of distinct centers inside the unit
disk and any positive radii the scaled circles must keep 0 outside, stay
inside the unit disk and be pairwise disjoint within a level
(`test_macdonald._level_fault`). The same holds for the stated contour's
circles, about the x_i at every level, from `choose_radii`'s radii.

`macdonald._refuse_unresolved` refuses what the quadrature cannot resolve,
so every input `apply_via_contour` accepts, near-coincident points and q
near 1 among them, gives the literal subset sum to its tolerance.
"""

import cmath
import math

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import assume, given, seed, settings, strategies as st  # noqa: E402

from pfschur.macdonald import (ContourConditionError,  # noqa: E402
                               ProductFormFunction, _separated, apply_direct,
                               apply_via_contour, choose_radii)
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


@st.composite
def stated_draws(draw):
    """(qs, xs, ys): 1-3 shifts, 1-4 points and 1-3 ys, each of modulus
    0.05 to 0.95 at any angle."""
    def values(low, high):
        return draw(st.lists(_polar(0.05, 0.95), min_size=low, max_size=high))
    return values(1, 3), values(1, 4), values(1, 3)


@seed(20170517)
@settings(max_examples=60, deadline=None, database=None)
@given(case=stated_draws())
def test_stated_circles_are_kept_clear_by_the_same_rule(case):
    # the stated contour's levels all have the x_i as centers; its radii,
    # choose_radii's scaled by `_separated`, only shrink, so they keep the
    # stated distance conditions, and no circle meets 0, the unit circle or
    # another circle of its level
    qs, xs, ys = case
    try:
        radii, _ = choose_radii(qs, xs, ys)
    except ContourConditionError:
        assume(False)
    centers = [list(xs)] * len(qs)
    separated = _separated(radii, centers)
    assert all(0 < r <= r0 for r, r0 in zip(separated, radii))
    assert _level_fault(centers, separated) is None


@st.composite
def contour_actions(draw):
    """(ys, xs, r, q): 1-4 points of modulus 0.05 to 0.95, each after the
    first either drawn alike or 10^-1 to 10^-12 from an earlier one; an
    order r up to min(n, 3); q of modulus 0.05 to 1 - 1e-9 at any angle, or
    1 - 10^-1 to 1 - 10^-9 at an angle up to 10^-1 to 10^-12; 1-2 ys."""
    xs = [draw(_polar(0.05, 0.95))]
    for _ in range(draw(st.integers(0, 3))):
        if draw(st.booleans()):
            xs.append(draw(_polar(0.05, 0.95)))
        else:
            xs.append(draw(st.sampled_from(xs))
                      + cmath.rect(10 ** -draw(st.floats(1, 12)),
                                   draw(st.floats(0, 2 * math.pi))))
    r = draw(st.integers(1, min(len(xs), 3)))
    if draw(st.booleans()):
        q = draw(_polar(0.05, 1 - 1e-9))
    else:
        q = cmath.rect(1 - 10 ** -draw(st.floats(1, 9)),
                       10 ** -draw(st.floats(1, 12)) * draw(st.sampled_from([-1, 1])))
    ys = draw(st.lists(st.floats(0.05, 0.9), min_size=1, max_size=2))
    return ys, xs, r, q


@seed(20170518)
@settings(max_examples=200, deadline=None, database=None)
@given(case=contour_actions())
def test_every_accepted_contour_action_is_the_direct_action(case):
    # the quadrature's tolerance is relative above 1 and absolute below
    ys, xs, r, q = case
    G = ProductFormFunction(ys)
    try:
        value = apply_via_contour(G, xs, r, q)
    except ContourConditionError:
        return
    direct = apply_direct(G, xs, r, q)
    assert abs(value - direct) <= 1e-9 * max(1.0, abs(direct))
