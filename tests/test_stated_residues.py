"""The stated-contour action as its exact residue sum
(`macdonald_reference.stated_action_Z`), pinned against the stated-contour
quadrature."""

import numpy as np

from pfschur.macdonald import (ContourConditionError, choose_radii,
                               iterated_action_Z)

from macdonald_reference import stated_action_Z


def _admissible_cases(seed, count):
    """Random (qs, xs, ys) with n in {2, 3}, d in {1, 2} and complex q with
    0.3 < |q| < 0.8 whose stated radii exist; inadmissible draws are skipped."""
    rng = np.random.default_rng(seed)
    cases = []
    while len(cases) < count:
        n, d = int(rng.integers(2, 4)), int(rng.integers(1, 3))
        xs = list(rng.uniform(0.1, 0.7, n))
        ys = list(rng.uniform(0.1, 0.7, n))
        qs = list(rng.uniform(0.3, 0.8, d) * np.exp(2j * np.pi * rng.random(d)))
        try:
            choose_radii(qs, xs, ys)
        except ContourConditionError:
            continue
        cases.append((qs, xs, ys))
    return cases


def test_residue_sum_equals_stated_quadrature():
    cases = _admissible_cases(seed=2017, count=16)
    assert {(len(xs), len(qs)) for qs, xs, _ in cases} == \
        {(2, 1), (2, 2), (3, 1), (3, 2)}
    for qs, xs, ys in cases:
        ref = iterated_action_Z(qs, xs, ys, contour_mode="stated", tol=1e-12)
        assert abs(stated_action_Z(qs, xs, ys) - ref) <= 1e-10 * abs(ref)


def test_residue_sum_broadcasts_over_a_q_grid():
    xs, ys = [0.5, 0.25], [0.5, 0.25]
    q1 = 0.7 * np.exp(2j * np.pi * np.arange(5) / 5)
    q2 = 0.6 * np.exp(2j * np.pi * (np.arange(3) + 0.5) / 3)
    grid = stated_action_Z([q1.reshape(-1, 1), q2.reshape(1, -1)], xs, ys)
    points = [[stated_action_Z([qa, qb], xs, ys) for qb in q2] for qa in q1]
    assert grid.shape == (5, 3)
    assert np.allclose(grid, points, rtol=1e-13, atol=0)
