"""Pfaffian Schur measure/process weights and brute-force oracles.

The oracles sum the literal product weights over all interlacing sequences
of partitions up to a weight cap. Each (skew) Schur factor in k variables is
a chain of k one-variable horizontal-strip transfers (the branching rule,
Macdonald I.5.11): s_{lam/mu}(x) = x^{|lam|-|mu|} when lam/mu is a horizontal
strip and 0 otherwise. So the sum is one dynamic program over the list of
partitions of weight <= L: per level, one transfer per variable on vectors
indexed by that list (`partitions.horizontal_strips`, whose index tables
are built once per (L, row cap)). One pass answers each question: its sums
(an expectation's numerator and Z, and both again at the weight cap L - 5
for the truncation estimates) ride a leading axis of the transfers, and
the L - 5 sums read the weight-<=L-5 prefix of the same weight-major list,
since a horizontal strip only adds boxes. Row counts are pruned by the only
mechanism that kills a weight exactly: a factor in k variables vanishes
when its shape has more than k rows, which caps length(lam^(i)) by the
number of variables at levels i..m. The oracles' level factors (point
indicators, q-observables) are arrays over the same list, read from its row
array. `process_weight` and the Jacobi-Trudi `symfunc` functions stay as the
independent per-sequence reference. Everything downstream (kernels,
q-extraction, contour actions) is tested against these sums.
"""

import math

import numpy as np

from .partitions import contains, point_configuration  # noqa: F401 (perfbench traces them here)
from .partitions import enumerate_up_to_weight, horizontal_strips
from .symfunc import H0, cauchy_H, json_number, schur, skew_schur, tau


class ProcessSpec:
    """Level count m plus the specialization families rho^+_1..rho^+_m and
    rho^-_0..rho^-_{m-1}, each family kept as a tuple of complex numbers.
    Entries must be positive reals below 1 so that the weights are positive
    and the closed-form partition function converges."""

    def __init__(self, rho_plus, rho_minus):
        self.rho_plus = tuple(tuple(map(complex, s)) for s in rho_plus)
        self.rho_minus = tuple(tuple(map(complex, s)) for s in rho_minus)
        if not self.rho_plus:
            raise ValueError("need at least one level")
        if len(self.rho_minus) != len(self.rho_plus):
            raise ValueError(
                f"need m rho^- families (rho^-_0..rho^-_{{m-1}}), got "
                f"{len(self.rho_minus)} for m={len(self.rho_plus)}")
        for fam in self.rho_plus + self.rho_minus:
            for v in fam:
                if v.imag != 0 or not 0 < v.real < 1:
                    raise ValueError(f"specialization value {v} must be real in (0,1)")

    @property
    def m(self):
        return len(self.rho_plus)

    def max_abs(self):
        return max((abs(v) for fam in self.rho_plus + self.rho_minus for v in fam),
                   default=0.0)

    def max_abs_plus(self):
        return max((abs(v) for fam in self.rho_plus for v in fam), default=0.0)

    @classmethod
    def from_json(cls, data):
        """From {"rho_plus": [...], "rho_minus": [...]}, each a list of
        families and each family a list of JSON numbers (`json_number`); a
        wrongly shaped field is a ValueError naming the field and its value."""
        if not isinstance(data, dict):
            raise ValueError(f"{data!r} is not an object with rho_plus and rho_minus")
        families = []
        for key in ("rho_plus", "rho_minus"):
            if key not in data:
                raise ValueError(f"{key} is missing")
            if not isinstance(data[key], (list, tuple)):
                raise ValueError(f"{key} {data[key]!r} is not a list of families")
            for s in data[key]:
                if not isinstance(s, (list, tuple)):
                    raise ValueError(f"{key} family {s!r} is not a list of values")
            families.append([[json_number(v, complex) for v in s] for s in data[key]])
        return cls(*families)


class PointSet:
    """Points (level, position) of the configuration, positions distinct
    within each level. Each point is a [level, position] pair of integers
    (`json_number`: an integral float is taken, a string or a bool is not)."""

    def __init__(self, points):
        if not isinstance(points, (list, tuple)):
            raise ValueError(f"{points!r} is not a list of [level, position] pairs")
        pairs = []
        for p in points:
            try:
                lvl, t = p
            except (TypeError, ValueError):
                raise ValueError(
                    f"point {p!r} is not a [level, position] pair") from None
            pairs.append((json_number(lvl, int), json_number(t, int)))
        self.points = tuple(pairs)
        seen = {}
        for lvl, t in self.points:
            if lvl < 1:
                raise ValueError("levels are 1-based")
            if t in seen.setdefault(lvl, set()):
                raise ValueError(f"duplicate position {t} at level {lvl}")
            seen[lvl].add(t)

    def __len__(self):
        return len(self.points)

    def by_level(self, m):
        """Positions per level 1..m, listing order preserved."""
        out = {lvl: [] for lvl in range(1, m + 1)}
        for lvl, t in self.points:
            if lvl > m:
                raise ValueError(f"point level {lvl} exceeds process level count {m}")
            out[lvl].append(t)
        return out

    def to_json(self):
        return [[lvl, t] for lvl, t in self.points]


def process_weight(lams, mus, spec):
    """Unnormalized sequence weight: the boundary factor at level 1, the
    interlacing skew factors, and the closing Schur factor at level m.
    Invalid interlacing needs no special casing: a skew factor vanishes."""
    m = spec.m
    if len(lams) != m or len(mus) != m - 1:
        raise ValueError(f"need {m} outer and {m - 1} inner partitions")
    lams = [tuple(l) for l in lams]
    mus = [tuple(mu) for mu in mus]
    w = tau(lams[0], spec.rho_minus[0])
    for i in range(1, m):
        w *= skew_schur(lams[i - 1], mus[i - 1], spec.rho_plus[i - 1])
        w *= skew_schur(lams[i], mus[i - 1], spec.rho_minus[i])
    w *= schur(lams[m - 1], spec.rho_plus[m - 1])
    return w.real


def partition_function_closed(spec, kind="pfaffian", h0_union=True):
    """Closed-form normalization.

    kind="schur": prod over 0 <= i < j <= m of H(rho^-_i; rho^+_j).
    kind="pfaffian": the same product times the pair factor of the rho^+
    side. With h0_union=True the pair factor is H0 of the union of all
    rho^+ levels (which expands to per-level H0 factors times the
    cross-level H(rho^+_i; rho^+_j)); h0_union=False drops the cross terms,
    which the truncated-sum oracle rejects for m >= 2 (kept only so the
    adjudication report can show both numbers).
    """
    m = spec.m
    out = 1.0 + 0j
    for i in range(m):
        for j in range(i + 1, m + 1):
            out *= cauchy_H(spec.rho_minus[i], spec.rho_plus[j - 1])
    if kind == "schur":
        return out.real
    if kind != "pfaffian":
        raise ValueError("kind must be 'pfaffian' or 'schur'")
    if h0_union:
        out *= H0(sum(spec.rho_plus, ()))
    else:
        for s in spec.rho_plus:
            out *= H0(s)
    return out.real


def _level_row_caps(spec, kind):
    """Row-count caps: length(lam^(i)) <= #variables at levels i..m on the
    rho^+ side (inner partitions inherit the next level's cap); under
    kind="schur" level 0 is also capped by the variables of rho^-_0."""
    if kind not in ("pfaffian", "schur"):
        raise ValueError("kind must be 'pfaffian' or 'schur'")
    sizes = [len(s) for s in spec.rho_plus]
    caps = [sum(sizes[i:]) for i in range(spec.m)]
    if kind == "schur":
        caps[0] = min(caps[0], len(spec.rho_minus[0]))
    return caps


def sequence_partitions(spec, L, kind="pfaffian"):
    """The partition list the oracles sum over: weight <= L and no more rows
    than the largest level cap, weight-major."""
    return enumerate_up_to_weight(L, max(_level_row_caps(spec, kind)))


def _sequence_sum(spec, L, kind="pfaffian", level_factor=None, cut=None):
    """Sums of process weights by one dynamic program over levels: with
    level_factor, [the sum times prod_i f_i(lam^(i)), Z], where
    level_factor(i, rows) gives f_i (an indicator or observable) over the
    partition list from its row array; without it, [Z]. Given cut, the same
    sums follow over the sequences whose partitions weigh <= cut.

    Every (skew) Schur factor is applied one variable at a time by the
    branching rule, so a level step is a chain of one-variable transfers
    over one partition list; a cap masks the rows a level cannot hold. The
    sums ride the transfers' leading axis. A cut sum masks each lam^(i) to
    the list's weight-<=cut prefix (the list is weight-major); a horizontal
    strip only adds boxes, so every partition between two levels weighs no
    more than the lam^(i) it lies in, and the masked program is the program
    on the weight-<=cut list itself (for cut < 0, the empty sum 0)."""
    caps = _level_row_caps(spec, kind)
    strips = horizontal_strips(L, max(caps))
    keep = [1.0] + ([strips.rows.sum(axis=1) <= cut] if cut is not None else [])

    def across(h, move, family, cap=None):
        for x in family:              # ProcessSpec values are real
            h = move(h, x.real)
        return h if cap is None else np.where(strips.length <= cap, h, 0)

    # level 0: tau is the even-conjugate indicator moved up over rho^-_0,
    # s_lam(rho^-_0) the indicator of the empty partition
    h = (strips.even if kind == "pfaffian" else strips.length == 0).astype(float)[None]
    for i in range(spec.m):
        if i:
            h = across(h, strips.down, spec.rho_plus[i - 1], caps[i])
        h = across(h, strips.up, spec.rho_minus[i], caps[i])
        fs = [1.0] if level_factor is None else [level_factor(i, strips.rows), 1.0]
        if len(fs) * len(keep) > 1:       # Z alone takes no factor
            h = h * np.stack([np.broadcast_to(f * k, strips.length.shape)
                              for k in keep for f in fs])
    return across(h, strips.down, spec.rho_plus[-1])[:, 0].tolist()


def partition_function_truncated(spec, kind="pfaffian", L=30):
    """Weight-capped partition function; monotone nondecreasing in L. A
    negative L is a ValueError (`enumerate_up_to_weight`)."""
    return _sequence_sum(spec, L, kind)[0].real


def truncation_diagnostic(spec, L, full_output=False):
    """Tail indicator |S_L - S_{L-5}| / S_L of the pfaffian sum, both sums
    from one pass over the weight-<=L list (S_{L-5} reads its weight-<=L-5
    prefix); weights decay geometrically so this bounds the truncation
    error up to a modest constant. Below L = 5, S_{L-5} is the empty sum 0
    and the indicator 1. full_output returns (indicator, S_L), S_L as
    `partition_function_truncated` gives it, from the same pass."""
    s_l, s_prev = _sequence_sum(spec, L, cut=L - 5)
    diag = abs(s_l - s_prev) / s_l
    return (diag, s_l) if full_output else diag


def correlation_oracle(spec, T, L=30, full_output=False):
    """Probability that every point of T lies in the level configurations
    {lam_i - i : i >= 1}, by truncated enumeration. full_output
    adds the info of the same pass: `imag_defect` 0, the weight cap `L`,
    Z's `truncation_diagnostic`, the value's own truncation estimate
    `value_truncation` |E_L - E_{L-5}| / |E_L| (None when E_L is 0; E_{L-5}
    is 0 below L = 5) and the size of the partition list, `partitions`."""
    if not isinstance(T, PointSet):
        T = PointSet(T)
    per_level = T.by_level(spec.m)
    if not T.points and not full_output:
        return 1.0

    def indicator(i, rows):
        # past the stored rows lam_i - i = -i: every t < -depth is a point
        depth = rows.shape[1]
        coords = rows - np.arange(1, depth + 1)
        return np.all([(coords == t).any(axis=1) | (-t > depth)
                       for t in per_level[i + 1]], axis=0)

    if not full_output:         # a value alone carries no cut sums
        num, z = _sequence_sum(spec, L, level_factor=indicator)
        return num / z
    num, z, num_cut, z_cut = _sequence_sum(spec, L, level_factor=indicator, cut=L - 5)
    value, prev = num / z, (num_cut / z_cut if z_cut else 0.0)
    return value, {"imag_defect": 0.0, "L": L, "partitions": len(sequence_partitions(spec, L)),
                   "truncation_diagnostic": abs(z - z_cut) / z,
                   "value_truncation": abs(value - prev) / value if value else None}


def observable_expectation_oracle(qs_by_level, spec, L=30):
    """Truncated expectation of prod over levels i and their q's of
    sum_{k=1}^{n_i} q^{lam^(i)_k + n_i - k}, n_i the number of rho^+_i
    values."""
    qs_by_level = [list(map(complex, qs)) for qs in qs_by_level]
    if len(qs_by_level) != spec.m:
        raise ValueError("need one q-list per level")

    def observable(i, rows):
        qs, n = qs_by_level[i], len(spec.rho_plus[i])
        lam = np.pad(rows[:, :n], ((0, 0), (0, max(0, n - rows.shape[1]))))
        powers = lam + np.arange(n - 1, -1, -1)
        return math.prod((q ** powers).sum(axis=1) for q in qs)

    num, z = _sequence_sum(spec, L, level_factor=observable)
    return num / z
