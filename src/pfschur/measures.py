"""Pfaffian Schur measure/process weights and brute-force oracles.

The oracles sum the literal product weights over all interlacing sequences
of partitions up to a weight cap. Each (skew) Schur factor in k variables is
a chain of k one-variable horizontal-strip transfers (the branching rule,
Macdonald I.5.11): s_{lam/mu}(x) = x^{|lam|-|mu|} when lam/mu is a horizontal
strip and 0 otherwise. So the sum is one dynamic program over the list of
partitions of weight <= L: per level, one transfer per variable on vectors
indexed by that list (`partitions.horizontal_strips`, whose index tables
are built once per (L, row cap)). Row counts are pruned by the only
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
from .symfunc import (H0, Specialization, cauchy_H, json_number, schur,
                      skew_schur, tau)


class ProcessSpec:
    """Level count m plus the specialization families rho^+_1..rho^+_m and
    rho^-_0..rho^-_{m-1}. Entries must be positive reals below 1 so that the
    weights are positive and the closed-form partition function converges."""

    def __init__(self, rho_plus, rho_minus):
        self.rho_plus = tuple(s if isinstance(s, Specialization) else Specialization(s)
                              for s in rho_plus)
        self.rho_minus = tuple(s if isinstance(s, Specialization) else Specialization(s)
                               for s in rho_minus)
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

    def to_json(self):
        return {"rho_plus": [s.to_json() for s in self.rho_plus],
                "rho_minus": [s.to_json() for s in self.rho_minus]}

    @classmethod
    def from_json(cls, data):
        """From {"rho_plus": [...], "rho_minus": [...]}, each a list of
        families and each family a list of values
        (`Specialization.from_json`); a wrongly shaped field is a ValueError
        naming the field and its value."""
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
            families.append([Specialization.from_json(s) for s in data[key]])
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
        union = Specialization(())
        for s in spec.rho_plus:
            union = union | s
        out *= H0(union)
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


def _sequence_sum(spec, L, kind="pfaffian", level_factors=None):
    """Dynamic program over levels for sums of process weights times
    optional per-level factors f_i(lam^(i)) (indicators or observables),
    one array per level 0..m-1 over the partition list of the strips.

    Every (skew) Schur factor is applied one variable at a time by the
    branching rule, so a level step is a chain of one-variable transfers
    over one partition list; a cap masks the rows a level cannot hold."""
    caps = _level_row_caps(spec, kind)
    strips = horizontal_strips(L, max(caps))

    def across(h, move, family, cap=None):
        for x in family:              # ProcessSpec values are real
            h = move(h, x.real)
        return h if cap is None else np.where(strips.length <= cap, h, 0)

    # level 0: tau is the even-conjugate indicator moved up over rho^-_0,
    # s_lam(rho^-_0) the indicator of the empty partition
    h = (strips.even if kind == "pfaffian" else strips.length == 0).astype(float)
    for i, w in enumerate(level_factors or [1.0] * spec.m):
        if i:
            h = across(h, strips.down, spec.rho_plus[i - 1], caps[i])
        h = across(h, strips.up, spec.rho_minus[i], caps[i]) * w
    return complex(across(h, strips.down, spec.rho_plus[-1])[0])


def partition_function_truncated(spec, kind="pfaffian", L=30):
    """Weight-capped partition function; monotone nondecreasing in L."""
    if L < 0:
        raise ValueError("weight cap must be nonnegative")
    return _sequence_sum(spec, L, kind).real


def truncation_diagnostic(spec, L):
    """Tail indicator |S_L - S_{L-5}| / S_L of the pfaffian sum; weights decay
    geometrically so this bounds the truncation error up to a modest
    constant. Below L = 5, S_{L-5} is the empty sum 0 and the indicator 1."""
    s_l = partition_function_truncated(spec, L=L)
    s_prev = partition_function_truncated(spec, L=L - 5) if L >= 5 else 0.0
    return abs(s_l - s_prev) / abs(s_l)


def _expectation(spec, L, level_factor):
    """Truncated expectation of prod_i f_i(lam^(i)): level_factor(i, rows)
    gives f_i from the partition list's row array (an empty product: 1)."""
    rows = horizontal_strips(L, max(_level_row_caps(spec, "pfaffian"))).rows
    factors = [level_factor(i, rows) for i in range(spec.m)]
    return _sequence_sum(spec, L, "pfaffian", factors) / _sequence_sum(spec, L).real


def correlation_oracle(spec, T, L=30, n_terms=None):
    """Probability that every point of T lies in the level configurations
    {lam_i - i : 1 <= i <= n_terms}, by truncated enumeration."""
    if not isinstance(T, PointSet):
        T = PointSet(T)
    per_level = T.by_level(spec.m)
    if not T.points:
        return 1.0
    if n_terms is None:
        n_terms = L + max(0, -min(t for _, t in T.points)) + 1
    if n_terms < 1:
        raise ValueError("n_terms must be >= 1")

    def indicator(i, rows):
        # past the stored rows lam_i - i = -i: t < -depth is a point iff -t <= n_terms
        depth = rows.shape[1]
        coords = rows[:, :n_terms] - np.arange(1, min(depth, n_terms) + 1)
        return np.all([(coords == t).any(axis=1) | (depth < -t <= n_terms)
                       for t in per_level[i + 1]], axis=0)

    return _expectation(spec, L, indicator).real


def observable_expectation_oracle(qs_by_level, spec, L=30, ns=None):
    """Truncated expectation of prod over levels i and their q's of
    sum_{k=1}^{n_i} q^{lam^(i)_k + n_i - k}."""
    qs_by_level = [list(map(complex, qs)) for qs in qs_by_level]
    if len(qs_by_level) != spec.m:
        raise ValueError("need one q-list per level")
    if ns is None:
        ns = [len(s) for s in spec.rho_plus]

    def observable(i, rows):
        qs, n = qs_by_level[i], ns[i]
        lam = np.pad(rows[:, :n], ((0, 0), (0, max(0, n - rows.shape[1]))))
        powers = lam + np.arange(n - 1, -1, -1)
        return math.prod((q ** powers).sum(axis=1) for q in qs)

    return _expectation(spec, L, observable)
