"""Randomized and fixed verification batteries.

Each battery returns a list of result rows (dicts with at least "name",
"value", "tol", "pass") so the CLI can serialize them and the test suite can
assert on them, and each row counts the evaluations behind its number.
Randomness is driven by an explicit seed for reproducible reports.

A battery whose checks share one computation takes them as arrays: the
eigenrelation draws as one `eigen_residual` call per n, one Schur table
each, the contour-action draws as one batched `apply_direct` and one
batched `apply_via_contour` call per (n, r) shape, the 33 quadrature
moments as one `integrate` call over a batch of circles, and the power sums
of each H/H0 draw as one array. A batched draw is still accepted
at its own doubling, and every check keeps its row, name and tolerance.
Tolerances and draw counts are literals. A row's worst case is folded with
`np.maximum`, which keeps a NaN, so a check that gives NaN fails its row.
"""

import time
from itertools import combinations

import numpy as np

from . import kernels, macdonald, measures, quadrature, symfunc
from .partitions import (enumerate_up_to_weight, even_conjugate_subpartitions,
                         subpartitions)
from .pfaffian import (_pfaffian_expand, _pfaffian_ltl, pfaffian,
                       verify_schur_pfaffian)


def timed(sections, name, run):
    """run(), with its wall seconds recorded as sections[name]."""
    start = time.perf_counter()
    out = run()
    sections[name] = time.perf_counter() - start
    return out


def _row(name, value, tol, extra=None):
    row = {"name": name, "value": float(value), "tol": float(tol),
           "pass": bool(value < tol)}
    if extra:
        row.update(extra)
    return row


# ---------------------------------------------------------------------------
# symmetric functions
# ---------------------------------------------------------------------------

def battery_symfunc(seed=0):
    rng = np.random.default_rng(seed)
    rows = []

    # branching over a split of variables
    worst = 0.0
    shapes = [lam for lam in enumerate_up_to_weight(6) if len(lam) <= 4]
    for lam in shapes:
        xv = rng.uniform(0.1, 0.7, 2)
        yv = rng.uniform(0.1, 0.7, 2)
        X, Y = tuple(map(complex, xv)), tuple(map(complex, yv))
        lhs = symfunc.schur(lam, X + Y)
        rhs = sum(symfunc.skew_schur(lam, mu, X) * symfunc.schur(mu, Y)
                  for mu in subpartitions(lam))
        worst = np.maximum(worst, abs(lhs - rhs))
    rows.append(_row("branching |lam|<=6", worst, 1e-10, {"shapes": len(shapes)}))

    # product forms vs power-sum exponentials, truncated at k = 60: the power
    # sums p_1..p_120 of x and p_1..p_60 of y, one array each
    worst, ks, draws = 0.0, np.arange(1, 61), 5
    for _ in range(draws):
        xv = rng.uniform(0.05, 0.6, 3)
        yv = rng.uniform(0.05, 0.6, 2)
        X, Y = tuple(map(complex, xv)), tuple(map(complex, yv))
        px = np.sum(xv ** np.arange(1, 121)[:, None], axis=1)
        py = np.sum(yv ** ks[:, None], axis=1)
        exp_form = np.exp(np.sum(px[:60] * py / ks))
        worst = np.maximum(worst, abs(symfunc.cauchy_H(X, Y) - exp_form))
        exp0 = np.exp(np.sum((px[:60] ** 2 - px[1::2]) / (2 * ks)))
        worst = np.maximum(worst, abs(symfunc.H0(X) - exp0))
    rows.append(_row("H, H0 product vs exponential", worst, 1e-12,
                     {"power_sums": draws * (120 + 60)}))

    # sum of Schur over even-conjugate shapes converges to H0. In two
    # variables those of weight at most 60 are (a, a), a <= 30, the
    # subpartitions of (30, 30) with even conjugate; H0 = 1/(1 - x1 x2), and
    # the shapes above weight 60 add the tail (x1 x2)^31/(1 - x1 x2), at most
    # 0.36^31/0.64 ~ 2.7e-14 here
    xv = rng.uniform(0.1, 0.6, 2)
    X = tuple(map(complex, xv))
    target = symfunc.H0(X)
    shapes = even_conjugate_subpartitions((30, 30))
    total = sum(symfunc.schur(mu, X) for mu in shapes)
    x12 = float(np.prod(xv))
    rows.append(_row("even-conjugate Schur sum -> H0", abs(total - target), 1e-10,
                     {"tail_bound": x12 ** 31 / (1 - x12), "shapes": len(shapes)}))
    return rows


# ---------------------------------------------------------------------------
# Macdonald operators
# ---------------------------------------------------------------------------

def battery_eigenrelation(seed=0):
    """Schur eigenrelation battery at t = q.

    Schur polynomials diagonalize the difference operators only on the
    t = q line (off it the eigenfunctions are the (q,t) deformations), so
    the random draws put both parameters at a common annulus point. Each
    draw is one q and one point set for each n in (2, 3); the draws are
    made first and then checked as one batch, one `eigen_residual` call per
    n over every order 1..n and every draw. The row carries `draws`, the
    point sets evaluated (`point_sets`, the draws' points and their shifts)
    and the Schur values computed (`schur_values`). The t != q machinery
    stays exercised through the cases where the relation is parameter-free
    (single-box shapes, n = 1).
    """
    rng = np.random.default_rng(seed)
    qs, points, draws = [], {2: [], 3: []}, 50
    for _ in range(draws):
        qs.append((0.1 + 0.6 * rng.random()) * np.exp(2j * np.pi * rng.random()))
        for n in (2, 3):
            # the rejection test reads Python floats, the same draws faster
            xs = rng.uniform(0.15, 0.85, n).tolist()
            while min(abs(a - b) for a, b in combinations(xs, 2)) < 0.05:
                xs = rng.uniform(0.15, 0.85, n).tolist()
            points[n].append(xs)
    q = np.array(qs, dtype=complex)
    lams = [lam for lam in enumerate_up_to_weight(5) if len(lam) <= 3]
    worst, counts = 0.0, {"draws": draws, "point_sets": 0, "schur_values": 0}
    for n, xs in points.items():
        res, info = macdonald.eigen_residual(
            [lam for lam in lams if len(lam) <= n], list(np.reshape(xs, (draws, n)).T),
            range(1, n + 1), q, q, full_output=True)
        worst = np.maximum(worst, res.max(initial=0.0))
        for key in ("point_sets", "schur_values"):
            counts[key] += info[key]
    tneq = (0.2 + 0.4 * rng.random()) * np.exp(2j * np.pi * rng.random())
    qneq = (0.2 + 0.4 * rng.random()) * np.exp(2j * np.pi * rng.random())
    (worst_box,), = macdonald.eigen_residual([(1,)], [0.4, 0.2], [1], qneq, tneq)
    return [_row(f"eigenrelation |lam|<=5, n in 2..3, {draws} random annulus q=t",
                 worst, 1e-10, counts),
            _row("single-box eigenrelation at t != q", worst_box, 1e-10)]


def _convergence(info):
    """An iterated action's node counts at acceptance, last-doubling delta,
    evaluated grid points and per-level circle radii, as report-row
    fields."""
    return {"nodes": list(info["nodes"]), "last_delta": float(info["last_delta"]),
            "grid_points": info["grid_points"], "radii": list(info["radii"])}


def _contour_draws(seed):
    """The contour-action battery's 20 draws at seed, in draw order, each
    (n, r, xs, ys, q): a sorted point set with gaps of at least 0.08, the
    two ys of a Cauchy product form, and q."""
    rng = np.random.default_rng(seed)
    draws = []
    for _ in range(20):
        n = int(rng.integers(2, 4))
        xs = sorted(rng.uniform(0.15, 0.85, n).tolist())
        while min(b - a for a, b in zip(xs, xs[1:])) < 0.08:
            xs = sorted(rng.uniform(0.15, 0.85, n).tolist())
        ys = rng.uniform(0.05, 0.5, 2)
        q = (0.2 + 0.5 * rng.random()) * np.exp(2j * np.pi * rng.random())
        r = int(rng.integers(1, min(n, 2) + 1))
        draws.append((n, r, xs, ys, q))
    return draws


def battery_contour_action(seed=0):
    """`apply_via_contour` against `apply_direct` on random product forms.

    Each draw is a point set, a Cauchy product form and q (`_contour_draws`);
    the draws are grouped by their (n, r) shape, and each shape is checked
    with one batched `apply_direct` call and one batched
    `apply_via_contour` call. The row also carries the largest accepted
    node count (`max_nodes`) and last-doubling delta (`max_last_delta`) over
    the draws, their number (`draws`) and the quadrature's evaluated
    `grid_points`."""
    draws = _contour_draws(seed)
    shapes = {}
    for n, r, xs, ys, q in draws:
        shapes.setdefault((n, r), []).append((xs, ys, q))
    worst, max_nodes, max_last_delta, grid_points = 0.0, 0, 0.0, 0
    for (n, r), group in shapes.items():
        xs, ys, q = (np.array(v) for v in zip(*group))
        G, point = macdonald.ProductFormFunction(list(ys.T)), list(xs.T)
        direct = macdonald.apply_direct(G, point, r, q)
        contour, info = macdonald.apply_via_contour(G, point, r, q, full_output=True)
        worst = np.maximum(worst, np.max(np.abs(direct - contour) / (np.abs(direct) + 1)))
        max_nodes = max(max_nodes, int(np.max(info["nodes"])))
        max_last_delta = np.maximum(max_last_delta, np.max(info["last_delta"]))
        grid_points += info["grid_points"]
    return [_row(f"contour action vs direct, {len(draws)} product-form draws", worst,
                 1e-8, {"max_nodes": max_nodes, "max_last_delta": float(max_last_delta),
                        "draws": len(draws), "grid_points": grid_points})]


def battery_iterated_actions(seed=0):
    """Iterated Z and F actions against composed direct actions, and Z's
    normalized action against the observable oracle; each row carries its
    quadrature's `nodes`, `last_delta` and `grid_points`, and the `radii` of
    its contour levels."""
    rng = np.random.default_rng(seed)
    rows = []
    xs, ys = [0.3, 0.2], [0.25, 0.1]
    q1 = (0.3 + 0.2 * rng.random()) * np.exp(2j * np.pi * rng.random())
    q2 = (0.3 + 0.2 * rng.random()) * np.exp(2j * np.pi * rng.random())

    for name, G, action in (
            ("Z", macdonald.z_partition, macdonald.iterated_action_Z),
            ("F", symfunc.cauchy_H, macdonald.iterated_action_F)):
        inner = lambda v: macdonald.apply_direct(lambda u: G(u, ys), v, 1, q1)
        comp = macdonald.apply_direct(inner, xs, 1, q2)
        cont, info = action([q1, q2], xs, ys, full_output=True)
        rows.append(_row(f"iterated {name} action d=2 vs composition",
                         abs(comp - cont), 1e-6, _convergence(info)))

    # expectation route: normalized action vs truncated observable sum
    spec = measures.ProcessSpec([xs], [ys])
    qs = [0.35, 0.2 + 0.15j]
    act, info = macdonald.iterated_action_Z(qs, xs, ys, full_output=True)
    act = act / macdonald.z_partition(xs, ys)
    obs = measures.observable_expectation_oracle([qs], spec, L=30)
    # Z's truncation diagnostic at L = 30 is exactly 0 on this spec (Z_30 =
    # Z_25 in double precision), so the tolerance is the 1e-8 floor
    rows.append(_row("iterated Z/Z vs observable oracle",
                     abs(act - obs), 1e-8, _convergence(info)))
    return rows


# ---------------------------------------------------------------------------
# partition functions
# ---------------------------------------------------------------------------

def battery_partition_function(spec, L):
    """Closed-form partition functions against their truncated sums.

    Fixed m = 1 and m = 2 specs at weight 40 and tolerance 1e-8, with the
    H0-union adjudication, then `spec`'s own pfaffian partition function at
    weight L, within ten times its truncation diagnostic (at least 1e-8).
    Each row carries `partitions`, the size of the partition list its
    truncated sum runs over (`measures.sequence_partitions`).
    """
    rows = []
    fixed_L = 40
    m1 = measures.ProcessSpec([[0.5]], [[0.5]])
    m2 = measures.ProcessSpec([[0.5], [0.4]], [[0.45], [0.35]])

    def partitions(process, L, kind="pfaffian"):
        return {"partitions": len(measures.sequence_partitions(process, L, kind))}

    truncated = {}
    for name, fixed in (("m=1 singleton", m1), ("m=2 singletons", m2)):
        for kind in ("pfaffian", "schur"):
            closed = measures.partition_function_closed(fixed, kind)
            trunc = truncated[fixed, kind] = measures.partition_function_truncated(
                fixed, kind, fixed_L)
            rel = abs(closed - trunc) / abs(closed)
            rows.append(_row(f"{name} {kind} truncated vs closed (L={fixed_L})",
                             rel, 1e-8, partitions(fixed, fixed_L, kind)))
    # adjudication: union H0 vs literal per-level product at m=2
    closed_union = measures.partition_function_closed(m2, "pfaffian", h0_union=True)
    closed_literal = measures.partition_function_closed(m2, "pfaffian", h0_union=False)
    trunc = truncated[m2, "pfaffian"]
    rel_union = abs(closed_union - trunc) / trunc
    rel_literal = abs(closed_literal - trunc) / trunc
    rows.append(_row("m=2 H0-union form vs oracle", rel_union, 1e-8,
                     {"verdict": "union form matches"
                      if rel_union < 1e-8 < rel_literal else "inconclusive",
                      "literal_rel_err": rel_literal, **partitions(m2, fixed_L)}))
    # the config's own process
    closed = measures.partition_function_closed(spec, "pfaffian")
    diag, s_l = measures.truncation_diagnostic(spec, L, full_output=True)
    rows.append(_row(f"config process pfaffian truncated vs closed (L={L})",
                     abs(closed - s_l) / abs(closed), max(10 * diag, 1e-8),
                     {"truncation_diagnostic": diag, **partitions(spec, L)}))
    return rows


# ---------------------------------------------------------------------------
# Pfaffian core
# ---------------------------------------------------------------------------

def _evaluated(dims, routes=1):
    """A row's evaluation counts: the Pfaffians it took (`pfaffians`), one
    per route at each of the dimensions `dims`, which it lists."""
    return {"pfaffians": routes * len(dims), "dims": list(dims)}


def battery_pfaffian(seed=0):
    """The Pfaffian core: Pf^2 = det, the Schur Pfaffian identity, the
    expansion against the elimination, and the coupling-product
    factorization. Each row carries the number of Pfaffians it evaluated
    and their dimensions."""
    rng = np.random.default_rng(seed)
    rows = []
    worst = 0.0
    dims = range(2, 13, 2)
    for dim in dims:
        A = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        A = A - A.T
        det = np.linalg.det(A)
        worst = np.maximum(worst, abs(pfaffian(A) ** 2 - det) / abs(det))
    rows.append(_row("Pf^2 = det, dims 2..12", worst, 1e-9, _evaluated(dims)))

    worst = 0.0
    for d in (1, 2, 3):
        u = (0.1 + 0.75 * rng.random(2 * d)) * np.exp(2j * np.pi * rng.random(2 * d))
        worst = np.maximum(worst, verify_schur_pfaffian(u))
    rows.append(_row("Schur Pfaffian identity d<=3", worst, 1e-10,
                     _evaluated([2, 4, 6])))

    worst = 0.0
    for dim in (4, 6, 8):
        A = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        A = A - A.T
        pe = _pfaffian_expand(np.array(A))
        pl = _pfaffian_ltl(np.array(A))
        worst = np.maximum(worst, abs(pe - pl) / (abs(pe) + 1))
    rows.append(_row("expansion vs elimination paths", worst, 1e-10,
                     _evaluated((4, 6, 8), routes=2)))

    worst = 0.0
    for d in (1, 2, 3):
        qs = (0.15 + 0.5 * rng.random(d)) * np.exp(2j * np.pi * rng.random(d))
        zs = (0.15 + 0.5 * rng.random(d)) * np.exp(2j * np.pi * rng.random(d))
        worst = np.maximum(worst, kernels.verify_principal_pfaffian_factorization(qs, zs))
    rows.append(_row("coupling-product = Pf(M) factorization d<=3", worst, 1e-9,
                     _evaluated([2, 4, 6])))
    return rows


# ---------------------------------------------------------------------------
# correlations
# ---------------------------------------------------------------------------

# each correlation route: its (value, info) on (spec, T, cfg, L) and the info
# keys its row reports as diagnostics, in report order; a route refuses what
# it cannot read with a ValueError. The functions are looked up in their
# modules at each call, so a patched module attribute is the one that runs.
# The oracle reports its weight cap, truncation diagnostic, value truncation
# and partition-list size from one pass; the kernel its largest last-doubling
# delta and that over |value|, its integrated entries' node counts, circle
# radii and the circle nodes at which its slot factors were evaluated;
# q-extraction, on the marginal of the level its points lie on
# (`_level_marginal`), the coefficient orders it read, the number of terms it
# summed and their cancellation
ROUTES = {
    "oracle": (lambda spec, T, cfg, L: measures.correlation_oracle(
        spec, T, L=L, full_output=True),
        ("L", "truncation_diagnostic", "value_truncation", "partitions")),
    "kernel": (lambda spec, T, cfg, L: kernels.correlation_via_kernel(
        spec, T, cfg, full_output=True),
        ("max_last_delta", "rel_last_delta", "nodes", "radii", "node_evaluations")),
    "q-extraction": (lambda spec, T, cfg, L: kernels.correlation_via_q_extraction(
        *_level_marginal(spec, T), [t for _, t in T.points], cfg, full_output=True),
        ("orders", "terms", "cancellation")),
}


def _level_marginal(spec, T):
    """The (x, y) of `ProcessSpec.level` for the level every point of T lies
    on (level 1 if T is empty). Points on two levels are a ValueError."""
    levels = [lvl for lvl, ts in T.by_level(spec.m).items() if ts] or [1]
    if len(levels) > 1:
        raise ValueError(f"q-extraction reads one level's marginal, and the points "
                         f"lie on levels {levels}")
    return spec.level(levels[0])


def correlation_row(method, spec, T, cfg, L, full_output=False):
    """The report row {"T", "method", "value", "diagnostics"}
    of the route `method` (a key of `ROUTES`) to the correlation of the
    points T, the oracle summing to weight L; full_output adds the route's
    whole info dict. Whatever the route cannot read is its ValueError."""
    if not isinstance(T, measures.PointSet):
        T = measures.PointSet(T)
    run, keys = ROUTES[method]
    value, info = run(spec, T, cfg, L)
    row = {"T": T.to_json(), "method": method, "value": value,
           "diagnostics": {k: info[k] for k in keys if k in info}}
    return (row, info) if full_output else row


def judge(value, oracle_row, spec):
    """value against oracle_row (`correlation_row`'s oracle row on spec), by
    the one rule every kernel value is held to. `delta` is |value - oracle
    value| and `rel_delta` that over |oracle value|; `threshold` max(1e-3,
    10 x the row's truncation diagnostic) and `rel_threshold` max(1e-3, 10
    x eps_L), eps_L the larger of the truncation diagnostic and the row's
    `value_truncation`. The `verdict` is FAIL unless delta and rel_delta
    are both below their thresholds, a NaN among them; PASS when both
    thresholds are 1e-3; INCONCLUSIVE when a short truncation has raised
    one above it, since a short oracle cannot tell a wrong kernel from a
    right one there.

    At an oracle value of exactly 0 there is no relative distance
    (`rel_delta` and `rel_threshold` are None). Where no sequence of the
    process carries the points (`measures.least_weight`), the zero is
    structural, and the verdict is PASS when delta is below a `threshold`
    of 1e-12 and FAIL otherwise. Any other zero is INCONCLUSIVE, or FAIL
    where delta is not below the `threshold`, and `reach_L` names the least
    weight cap whose partitions carry the points (None at a nonzero oracle
    value or a structural zero): above L the oracle does not reach them."""
    oracle_value, diag = oracle_row["value"], oracle_row["diagnostics"]
    delta = abs(value - oracle_value)
    threshold = max(1e-3, 10 * diag["truncation_diagnostic"])
    rel_delta = rel_threshold = reach = None
    if oracle_value:
        rel_delta = delta / abs(oracle_value)
        eps = max(diag["truncation_diagnostic"], diag["value_truncation"])
        rel_threshold = max(1e-3, 10 * eps)
        verdict = ("FAIL" if not (delta < threshold and rel_delta < rel_threshold)
                   else "PASS" if threshold == rel_threshold == 1e-3 else "INCONCLUSIVE")
    else:
        reach = measures.least_weight(spec, measures.PointSet(oracle_row["T"]))
        if reach is None:
            threshold = 1e-12
        verdict = ("FAIL" if not delta < threshold
                   else "PASS" if reach is None else "INCONCLUSIVE")
    return {"delta": delta, "rel_delta": rel_delta, "threshold": threshold,
            "rel_threshold": rel_threshold, "reach_L": reach, "verdict": verdict}


def compare_methods(spec, T, cfg, L=30):
    """The `compare` report of the points T: the oracle and the kernel row
    (`correlation_row`), the kernel row with its distance `delta_vs_oracle`
    from the oracle value, the oracle's truncation diagnostic, the K22 sign
    adjudication (the `delta` and `rel_delta` from the oracle value under
    cfg's sign convention and under the other one, whose value is the
    Pfaffian of the same matrix with its K22 block negated:
    `kernels.with_other_k22_sign`), and the kernel value's `threshold`,
    `rel_threshold`, `reach_L` and `verdict` (`judge`). `timing` holds the
    wall seconds of each row under `sections`."""
    sections = {}
    oracle = timed(sections, "oracle", lambda: correlation_row("oracle", spec, T, cfg, L))
    kernel, info = timed(sections, "kernel", lambda: correlation_row(
        "kernel", spec, T, cfg, L, full_output=True))
    own = judge(kernel["value"], oracle, spec)
    flipped = judge(pfaffian(kernels.with_other_k22_sign(info["matrix"])).real,
                    oracle, spec)
    (other,) = (sign for sign in kernels.CONVENTIONS["sign_convention"]
                if sign != cfg.sign_convention)
    kernel["delta_vs_oracle"] = own["delta"]
    return {
        "truncation_diagnostic": oracle["diagnostics"]["truncation_diagnostic"],
        "results": [oracle, kernel],
        "sign_adjudication": {
            "convention": cfg.sign_convention,
            "delta": own["delta"],
            "rel_delta": own["rel_delta"],
            "flipped_convention": other,
            "flipped_delta": flipped["delta"],
            "flipped_rel_delta": flipped["rel_delta"],
        },
        "threshold": own["threshold"],
        "rel_threshold": own["rel_threshold"],
        "reach_L": own["reach_L"],
        "verdict": own["verdict"],
        "timing": {"sections": sections},
    }


def sweep_radii(spec, T, cfg, L):
    """The `sweep-radii` report of the points T: the oracle row
    (`correlation_row`) and `kernels.radius_sweep` judged against it, the
    sweep carrying the oracle value as its `oracle`. Each scan row with a
    value gains its `judge` keys, and every row a `pass`: its verdict is
    PASS; an error row fails. `timing` holds the wall seconds of the oracle
    row and of the scan under `sections`."""
    sections = {}
    oracle = timed(sections, "oracle", lambda: correlation_row("oracle", spec, T, cfg, L))
    sweep = timed(sections, "radius_sweep", lambda: kernels.radius_sweep(spec, T, cfg))
    for row in sweep["rows"]:
        if "value" in row:
            row.update(judge(row["value"], oracle, spec))
        row["pass"] = row.get("verdict") == "PASS"
    return {"results": [oracle], "radius_sweep": {**sweep, "oracle": oracle["value"]},
            "timing": {"sections": sections}}


def battery_quadrature():
    """The trapezoid rule on exact moments and near a pole.

    The moment test integrates z^k over the circles of radius 0.5, 1 and 2
    for k = -5..5, 33 integrals taken by one `quadrature.integrate` call
    over a batch of circles, each accepted at its own doubling; only k = -1
    has a nonzero integral, 1. Its row carries the number of `integrals`
    and the `grid_points` they evaluated. The pole row takes the 64-node
    estimate of 1/(z - 0.5) on the unit circle, whose residue is 1.
    """
    radius = np.repeat([0.5, 1.0, 2.0], 11)
    k = np.tile(np.arange(-5, 6), 3)
    batch = quadrature.ContourSpec((quadrature.Circle(0j, radius),))
    val, info = quadrature.integrate(lambda z: z ** k, batch, full_output=True)
    worst = float(np.max(np.abs(val - (k == -1))))
    rows = [_row("moment test z^k over circles", worst, 1e-12,
                 {"integrals": len(k), "grid_points": info["grid_points"]})]

    val = quadrature._estimate1(lambda z: 1 / (z - 0.5),
                                quadrature.nodes_weights(quadrature.circle(1.0), 64, ()))
    rows.append(_row("64-node pole accuracy", abs(val - 1.0), 1e-12))
    return rows
