"""Property test: the block-assembled kernel against the per-entry dense sums.

`assemble_kernel` sums every block by FFT on four shared node grids;
`kernel_reference.reference` takes each entry's trapezoid sum on the dense
n x n grid and doubles it under the same `quadrature.converge`. On random
admissible specs, under every variant switch, the two must give the same
integrated entries (every K12, and K11 and K22 above the diagonal, K22
under its sign) to 1e-12, accept them at the same node counts, and fail on
the same entry with the same last two estimates when the node cap is too
small; the assembled matrix must be exactly skew. The inadmissible radius
reading is checked the same way on the shipped configs.

A level of a process is its one-level marginal (`ProcessSpec.level`): at
points of one level, on the process's radii, the kernel and the
q-extraction route must give bit for bit what they give on that marginal.
"""

import json
from pathlib import Path

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, seed, settings, strategies as st  # noqa: E402

from kernel_reference import reference  # noqa: E402
from pfschur import verify  # noqa: E402
from pfschur.kernels import (CONVENTIONS, SIGN_BR, SIGN_PAPER,  # noqa: E402
                             START_NODES, KernelConfig, _inadmissible_radii,
                             _radii_at, _resolved_radii, assemble_kernel)
from pfschur.measures import PointSet, ProcessSpec  # noqa: E402
from pfschur.quadrature import QuadratureError  # noqa: E402

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def _sweep_radii(spec, fr=0.3):
    """radius_sweep's admissible radii at fraction fr of each interval."""
    return _radii_at(spec, fr)


# KernelConfig fields per variant: the paper's conventions, every other
# choice of a switch, named by the choice ("br" for SIGN_BR), admissible radii
# off the defaults, which "radii" takes from the spec, and a low node cap
VARIANTS = {"paper": {},
            **{"br" if choice == SIGN_BR else choice: {switch: choice}
               for switch, (_, *others) in CONVENTIONS.items() for choice in others},
            "radii": {}, "capped": {"max_nodes": 128}}


@st.composite
def cases(draw):
    """(rho^+ families, rho^- families, points) as plain lists."""
    m = draw(st.integers(1, 3))
    family = st.lists(st.floats(0.1, 0.55, exclude_min=True, exclude_max=True),
                      min_size=1, max_size=3)
    plus = [draw(family) for _ in range(m)]
    minus = [draw(family) for _ in range(m)]
    n = sum(map(len, plus))
    d = draw(st.integers(1, 3))
    points = draw(st.lists(st.tuples(st.integers(1, m), st.integers(-n - 2, 2)),
                           min_size=d, max_size=d, unique=True))
    return plus, minus, points


def _close(a, b):
    return abs(a - b) <= 1e-12 * max(1.0, abs(b))


def _assert_blocks_match(spec, T, cfg):
    per_level = T.by_level(spec.m)
    pts = [(lvl, t) for lvl in range(1, spec.m + 1) for t in per_level[lvl]]
    try:
        K, info = assemble_kernel(spec, T, cfg, full_output=True)
    except QuadratureError as exc:
        with pytest.raises(QuadratureError) as ref:
            reference(spec, pts, cfg)
        assert str(ref.value) == str(exc)
        assert all(_close(a, b) for a, b in zip(exc.estimates, ref.value.estimates))
        return
    value, step, _ = reference(spec, pts, cfg)
    d = len(pts)
    V = np.reshape(value, (d, d, 3))
    nodes = START_NODES << np.reshape(step, (d, d, 3))
    # the lower entries are minus the upper ones, the diagonal 0
    assert np.array_equal(K, -K.T)
    k22 = 1 if cfg.sign_convention == SIGN_PAPER else -1
    names = set()
    for p in range(d):
        for q in range(d):
            for which, (ro, co), blk, sign in (
                    ("K11", (0, 0), 0, 1), ("K12", (0, 1), 1, 1),
                    ("K22", (1, 1), 2, k22)):
                if which != "K12" and p >= q:
                    continue  # not integrated
                name = f"{which}[{p},{q}]"
                names.add(name)
                assert _close(K[2 * p + ro, 2 * q + co], sign * V[p, q, blk]), name
                assert info["nodes"][name] == (nodes[p, q, blk],) * 2, name
    assert set(info["nodes"]) == names


@pytest.mark.parametrize("variant", VARIANTS)
@seed(20170516)
@settings(max_examples=5, deadline=None, database=None)
@given(case=cases())
def test_blocks_match_per_entry_route(variant, case):
    plus, minus, points = case
    spec = ProcessSpec(plus, minus)
    cfg = KernelConfig(**VARIANTS[variant])
    if variant == "radii":
        cfg.radii = _sweep_radii(spec)
    _assert_blocks_match(spec, PointSet(points), cfg)


@pytest.mark.parametrize("name", ["m1_singleton", "m1_twovar", "m2_d11"])
def test_blocks_match_under_the_inadmissible_reading(name):
    # radius_sweep's k11 circle enclosing the 1/x poles, on the shipped
    # configs; on random specs with deep points its summands grow like
    # r^|t| and the K11 entries, 0 analytically, become rounding noise at
    # quad_tol
    raw = json.loads((CONFIGS / f"{name}.json").read_text())
    spec = ProcessSpec.from_json(raw["process"])
    radii = _inadmissible_radii(spec)
    _assert_blocks_match(spec, PointSet(raw["points"]), KernelConfig(radii=radii))


@st.composite
def level_cases(draw):
    """(rho^+ families, rho^- families, level, sites): 1-3 sites of one level
    in -n-2 ... 2."""
    plus, minus, _ = draw(cases())
    level = draw(st.integers(1, len(plus)))
    n = sum(map(len, plus))
    sites = draw(st.lists(st.integers(-n - 2, 2), min_size=1, max_size=3, unique=True))
    return plus, minus, level, sites


def _outcome(run):
    """run()'s value, or its exception's type and message."""
    try:
        return run()
    except (QuadratureError, ValueError) as exc:    # refusals among them
        return type(exc), str(exc)


@seed(20170516)
@settings(max_examples=60, deadline=None, database=None)
@given(case=level_cases())
def test_a_level_is_its_marginal_bit_for_bit(case):
    plus, minus, level, sites = case
    spec = ProcessSpec(plus, minus)
    x, y = spec.level(level)
    marginal = ProcessSpec([x], [y])
    cfg = KernelConfig(radii=_resolved_radii(spec, KernelConfig()))
    T, T1 = [(level, t) for t in sites], [(1, t) for t in sites]
    K = _outcome(lambda: assemble_kernel(spec, T, cfg))
    K1 = _outcome(lambda: assemble_kernel(marginal, T1, cfg))
    assert np.array_equal(K, K1) if isinstance(K, np.ndarray) else K == K1

    def route(s, P):
        row = verify.correlation_row("q-extraction", s, P, cfg, 0)
        return row["value"], row["diagnostics"]
    assert _outcome(lambda: route(spec, T)) == _outcome(lambda: route(marginal, T1))
