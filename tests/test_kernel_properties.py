"""Property test: the block-assembled kernel against the per-entry route.

`assemble_kernel` estimates every entry on four shared node grids;
`kernel_entry_process` integrates one entry's literal integrand on its own.
On random admissible specs, under every variant switch, the two must give
the same entries to 1e-12, accept them at the same node counts, and fail on
the same entry with the same last two estimates when the node cap is too
small. The inadmissible radius reading is checked the same way on the
shipped configs.
"""

import json
import re
from pathlib import Path

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, seed, settings, strategies as st  # noqa: E402

from pfschur.kernels import (SIGN_BR, KernelConfig, _inadmissible_radii,  # noqa: E402
                             _radii_at, assemble_kernel, kernel_entry_process)
from pfschur.measures import PointSet, ProcessSpec  # noqa: E402
from pfschur.quadrature import QuadratureError  # noqa: E402

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def _sweep_radii(spec, fr=0.3):
    """radius_sweep's admissible radii at fraction fr of each interval."""
    return _radii_at(spec, fr)


# KernelConfig fields per variant; "radii" takes its radii from the spec
VARIANTS = {"paper": {}, "br": {"sign_convention": SIGN_BR},
            "display": {"h_assignment": "display"},
            "literal": {"k12_regime": "literal"}, "radii": {},
            "capped": {"max_nodes": 128}}


@st.composite
def cases(draw):
    """(rho^+ families, rho^- families, points) as plain lists."""
    m = draw(st.integers(1, 2))
    family = st.lists(st.floats(0.1, 0.55, exclude_min=True, exclude_max=True),
                      min_size=1, max_size=3)
    plus = [draw(family) for _ in range(m)]
    minus = [draw(family) for _ in range(m)]
    n = sum(map(len, plus))
    d = draw(st.integers(1, 3))
    points = draw(st.lists(st.tuples(st.integers(1, m), st.integers(-n - 2, 2)),
                           min_size=d, max_size=d, unique=True))
    return plus, minus, points


def _reference(which, p, q, slots, spec, T, cfg):
    (i, u), (j, v) = slots[p], slots[q]
    return kernel_entry_process(which, i, u, j, v, spec, T, cfg, full_output=True)


def _close(a, b):
    return abs(a - b) <= 1e-12 * max(1.0, abs(b))


def _assert_blocks_match(spec, T, cfg):
    per_level = T.by_level(spec.m)
    # (level, 1-based position within the level) in assembly order
    slots = [(lvl, u + 1) for lvl in range(1, spec.m + 1)
             for u in range(len(per_level[lvl]))]
    try:
        S, info = assemble_kernel(spec, T, cfg, full_output=True)
    except QuadratureError as exc:
        which, p, q = re.search(r"(K\d\d)\[(\d+),(\d+)\]", str(exc)).groups()
        with pytest.raises(QuadratureError) as ref:
            _reference(which, int(p), int(q), slots, spec, T, cfg)
        assert all(_close(a, b) for a, b in zip(exc.estimates, ref.value.estimates))
        return
    d = len(slots)
    for p in range(d):
        for q in range(d):
            for which, (ro, co) in (("K11", (0, 0)), ("K12", (0, 1)),
                                    ("K21", (1, 0)), ("K22", (1, 1))):
                value, ref = _reference(which, p, q, slots, spec, T, cfg)
                name = f"{which}[{p},{q}]"
                assert _close(S.matrix[2 * p + ro, 2 * q + co], value), name
                assert info["nodes"][name] == ref["nodes"], name


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
    # r^|t| and the diagonal K11 entries become rounding noise at quad_tol
    raw = json.loads((CONFIGS / f"{name}.json").read_text())
    spec = ProcessSpec.from_json(raw["process"])
    radii = _inadmissible_radii(spec)
    _assert_blocks_match(spec, PointSet(raw["points"]), KernelConfig(radii=radii))
