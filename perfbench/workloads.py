"""The four pfschur workloads: inputs drawn from a seed, one operation per
input, and an untimed check of every result against an independent route.

Each workload hands the runner its operations in rounds. A round is a fixed
mix of operation shapes (levels, family sizes, point counts, truncation
weights); only the drawn values change from seed to seed, so the cost of a
round, and with it every end-to-end figure, stays put across seeds. The
runner measures whole rounds only. See WORKLOADS.md for why each workload
exists, which layers it stresses and which end-to-end figure each per-layer
figure should move.
"""

import json
import os
from dataclasses import dataclass

import numpy as np

from pfschur import cli, kernels, measures
from pfschur.kernels import KernelConfig
from pfschur.measures import PointSet, ProcessSpec

# The shipped configs' tolerances: kernel quad_tol 1e-8 (q-extraction derives
# its inner and outer tolerances from it) and battery/quadrature tol 1e-9.
QUAD_TOL = 1e-8


@dataclass
class Op:
    """One operation's input; `d` is its point count."""
    args: tuple
    d: int = 0


def compare_threshold(diag):
    """The acceptance threshold of `pfschur compare`."""
    return max(1e-3, 10 * diag)


def _family(rng, k, stratum=(0, 1)):
    """k values in (0.1, 0.55). The largest sets the contour radii, and with
    them the node counts and the cost of an operation, so it is drawn from
    (0.45, 0.55); the others from equal slices of (0.1, 0.45). With stratum
    (r, n) each value is drawn from the r-th of n equal parts of its range,
    so n draws cover every range evenly on every seed."""
    edges = 0.1 + 0.35 * np.arange(k) / max(k - 1, 1)
    lo = np.append(edges[:-1], 0.45)
    hi = np.append(edges[1:], 0.55)
    r, n = stratum
    u = (r + rng.uniform(size=k)) / n
    return [float(v) for v in lo + u * (hi - lo)]


def _spec(rng, sizes, stratum=(0, 1)):
    return ProcessSpec([_family(rng, k, stratum) for k in sizes],
                       [_family(rng, k, stratum) for k in sizes])


class Workload:
    name = ""
    rounds = ()       # lists of Op, timed in order, whole rounds only
    closing = ()      # Ops timed once after the rounds (qext's d=2 operation)
    trace_rounds = 1  # rounds replayed by the traced run, plus `closing`

    def call(self, op):
        raise NotImplementedError

    def check(self, ops, results):
        """True per operation whose result passes its independent check."""
        raise NotImplementedError

    def digest_item(self, op, result):
        return repr(result)

    def trace_ops(self):
        return [op for r in self.rounds[:self.trace_rounds] for op in r] \
            + list(self.closing)


class KernelWorkload(Workload):
    """One `correlation_via_kernel` call per operation; checked against the
    enumeration oracle within `compare`'s threshold."""

    name = "kernel"
    # A round: (family sizes per level, oracle L for the check, points).
    # rho^+ and rho^- families have equal sizes. Level l holds at most n_l
    # parts (the rho^+ values at levels l..m), so at most n_l points sit at
    # -n_l or above and the rest below, down to -n_l-4, where sites are
    # almost surely occupied: correlations are not negligible. The points
    # set the node counts, so they are fixed per slot and only the values
    # are drawn. Assembly grows like d^2: the four d=4 operations hold the
    # median and the two d=8 operations (20%) set op_p90_ms, so both
    # percentiles sit inside a group of like operations. Dims 4 and 8 take
    # the recursive Pfaffian, 12 and 16 the elimination. The larger shapes
    # check at a lower L, so that no check costs more than about 0.3 s.
    # A run cycles a pool of POOL_ROUNDS rounds of distinct specs, so that
    # each distinct operation is checked once and the checks stay a fixed
    # cost however long the run. Nothing on the kernel path caches across
    # calls, so a repeated operation repeats all of its work. Slot j of pool
    # round r draws its values from stratum (r + 3j) mod POOL_ROUNDS: the
    # cost of a d=4 operation varies 2.4x with its values, and with plain
    # draws the median d=4 cost of a pool moved by 15% from seed to seed.
    # The stride spreads the strata of each shape over every round, so that
    # rounds cost about the same and a run that ends inside a pass over the
    # pool is not weighted towards some strata.
    D4 = ((2,), 30, ((1, -5), (1, -3), (1, -1), (1, 0)))
    D8 = ((4,), 24, ((1, -8), (1, -7), (1, -6), (1, -5),
                     (1, -3), (1, -2), (1, 0), (1, 1)))
    ROUND = (((1,), 30, ((1, -3), (1, 0))),
             ((2, 1), 16, ((1, -1), (2, 0))),
             ((1, 2), 14, ((1, 0), (2, -1))),
             D4, D4, D4, D4,
             ((3,), 30, ((1, -7), (1, -5), (1, -4), (1, -2), (1, -1), (1, 1))),
             D8, D8)
    POOL_ROUNDS = 8
    N_ROUNDS = 80
    trace_rounds = 2

    def __init__(self, seed, cfg=None, levels=(1, 2)):
        rng = np.random.default_rng([seed, 1])
        self.cfg = cfg or KernelConfig(quad_tol=QUAD_TOL)
        shapes = [s for s in self.ROUND if len(s[0]) in levels]
        n = self.POOL_ROUNDS
        pool = [[Op((_spec(rng, sizes, ((r + 3 * j) % n, n)), PointSet(T), L),
                    len(T))
                 for j, (sizes, L, T) in enumerate(shapes)]
                for r in range(n)]
        self.rounds = [pool[i % self.POOL_ROUNDS] for i in range(self.N_ROUNDS)]

    def call(self, op):
        spec, T, _ = op.args
        return kernels.correlation_via_kernel(spec, T, self.cfg)

    def check(self, ops, results):
        refs, ok = {}, []
        for op, value in zip(ops, results):
            spec, T, L = op.args
            if id(op) not in refs:
                refs[id(op)] = (measures.correlation_oracle(spec, T, L=L),
                                compare_threshold(
                                    measures.truncation_diagnostic(spec, L)))
            oracle, threshold = refs[id(op)]
            ok.append(abs(value - oracle) < threshold)
        return ok


class OracleWorkload(Workload):
    """`correlation_oracle` plus `truncation_diagnostic` on a fresh spec per
    operation (the oracle side of `compare`); checked against the kernel
    route."""

    name = "oracle"
    # A round: (family sizes per level, truncation weight L, points),
    # m in {1,2,3}, L 15..40. The points prune the dynamic program, so they
    # are fixed per shape and only the values are drawn: the cost of an
    # operation then depends on its shape alone. The three m=3 operations
    # hold the median and the two heaviest (n=3, L=40, 25%) set op_p90_ms,
    # so both percentiles sit inside a group of like operations. A round
    # adds about 78k skew-Schur entries: the 400k LRU fills in the fifth
    # round and its table has settled by the ninth, before every run ends,
    # so peak_rss_mb does not depend on how many rounds a run completes.
    M3 = ((1, 1, 1), 15, ((1, -1), (2, -1), (3, -1)))
    N3 = ((3,), 40, ((1, -1), (1, 1)))
    SHAPES = (((1, 1), 20, ((1, -1), (2, 0))), ((3,), 25, ((1, -2), (1, 0))),
              ((2,), 40, ((1, -1), (1, 1))), M3, M3, M3, N3, N3)
    N_ROUNDS = 60
    trace_rounds = 2

    def __init__(self, seed):
        rng = np.random.default_rng([seed, 2])
        self.cfg = KernelConfig(quad_tol=QUAD_TOL)
        self.rounds = [[Op((_spec(rng, sizes), PointSet(T), L), len(T))
                        for sizes, L, T in self.SHAPES]
                       for _ in range(self.N_ROUNDS)]

    def call(self, op):
        spec, T, L = op.args
        return (measures.correlation_oracle(spec, T, L=L),
                measures.truncation_diagnostic(spec, L))

    def check(self, ops, results):
        ok = []
        for op, (oracle, diag) in zip(ops, results):
            spec, T, _ = op.args
            value = kernels.correlation_via_kernel(spec, T, self.cfg)
            ok.append(abs(value - oracle) < compare_threshold(diag))
        return ok


class QextWorkload(Workload):
    """`correlation_via_q_extraction` on single-level specs: rounds of d=1
    operations, then one d=2 operation; checked against the oracle at L=40
    within criterion 07's tolerances."""

    name = "qext"
    # A run draws a pool of specs, two with n=2 and six with n=3, so that
    # the median and p90 both fall among the n=3 operations; a round takes
    # each once at a fresh position t in [-n, 2]. The pool keeps the
    # untimed oracle checks affordable (the oracle at n=3, L=40 costs more
    # than the extraction itself). Nothing on the extraction path caches, so
    # repeating a spec repeats its work.
    POOL_N = (2, 2, 3, 3, 3, 3, 3, 3)
    ORACLE_L = 40
    TOL = {1: 1e-4, 2: 1e-3}
    N_ROUNDS = 150
    trace_rounds = 2

    def __init__(self, seed):
        rng = np.random.default_rng([seed, 3])
        self.cfg = KernelConfig(quad_tol=QUAD_TOL)
        pool = [self._separated_pair(rng, n) for n in self.POOL_N]
        self.rounds = [[Op((xs, ys, [int(rng.integers(-len(xs), 3))]), 1)
                        for xs, ys in pool] for _ in range(self.N_ROUNDS)]
        # The d=2 operation costs 2,080 inner actions; its spec is drawn
        # near criterion 07's (x = y = (0.5, 0.25), T = (0, 2)), where the
        # outer quadrature converges at 64 q-nodes per circle.
        xs = sorted(float(v) for v in rng.uniform((0.2, 0.45), (0.3, 0.55)))
        ys = sorted(float(v) for v in rng.uniform((0.2, 0.45), (0.3, 0.55)))
        T = ((0, 2), (0, 1), (-1, 1), (1, 2))[int(rng.integers(4))]
        self.closing = [Op((xs, ys, list(T)), 2)]

    @staticmethod
    def _separated_pair(rng, n):
        """x and y families of n values in (0.1, 0.55), the x's at least 0.08
        apart so the extraction contours keep a usable radius."""
        while True:
            xs = sorted(_family(rng, n))
            if min(np.diff(xs)) >= 0.08:
                return xs, _family(rng, n)

    def call(self, op):
        xs, ys, T = op.args
        return kernels.correlation_via_q_extraction(xs, ys, T, self.cfg)

    def check(self, ops, results):
        refs, ok = {}, []
        for op, value in zip(ops, results):
            xs, ys, T = op.args
            key = (tuple(xs), tuple(ys), tuple(T))
            if key not in refs:
                spec = ProcessSpec([xs], [ys])
                refs[key] = measures.correlation_oracle(
                    spec, [(1, t) for t in T], L=self.ORACLE_L)
            ok.append(abs(value - refs[key]) < self.TOL[op.d])
        return ok


class CliWorkload(Workload):
    """One `cli.main([...])` call per operation: each of the 7 commands on
    each of the 3 shipped configs, `correlate` under both `oracle` and
    `kernel`, the report written to a file under `workdir`."""

    name = "cli"
    # verify-macdonald, the slowest command, runs twice per config, so that
    # its group (22% of a round) holds op_p90_ms away from the group edge.
    COMMANDS = (("verify-symfunc",), ("verify-macdonald",), ("verify-macdonald",),
                # The battery's own default truncation; see WORKLOADS.md.
                ("verify-partition-function", "--truncation", "40"),
                ("verify-pfaffian",), ("correlate", "--method", "oracle"),
                ("correlate", "--method", "kernel"), ("compare",),
                ("sweep-radii",))
    CONFIGS = ("m1_singleton", "m1_twovar", "m2_d11")
    N_ROUNDS = 30
    trace_rounds = 1

    def __init__(self, seed, root, workdir):
        self.out = os.path.join(workdir, "report.json")
        self.config_paths = {c: os.path.join(root, "configs", f"{c}.json")
                             for c in self.CONFIGS}
        ops = [Op((cmd, cfg)) for cfg in self.CONFIGS for cmd in self.COMMANDS]
        # The seed sets the order of the round; each command runs at its
        # config's own battery seed (see WORKLOADS.md).
        rng = np.random.default_rng([seed, 4])
        self.rounds = [[ops[i] for i in rng.permutation(len(ops))]
                       for _ in range(self.N_ROUNDS)]
        self._refs = {}

    def call(self, op):
        cmd, cfg = op.args
        rc = cli.main([cmd[0], "--config", self.config_paths[cfg],
                       "--out", self.out, *cmd[1:]])
        with open(self.out) as fh:
            report = json.load(fh)
        report.pop("timing", None)
        return rc, report

    def digest_item(self, op, result):
        return json.dumps(result, sort_keys=True, default=str)

    def _reference(self, cfg):
        """Oracle and kernel values for a config's points, plus the compare
        threshold, computed outside the CLI."""
        if cfg not in self._refs:
            with open(self.config_paths[cfg]) as fh:
                raw = json.load(fh)
            spec = ProcessSpec.from_json(raw["process"])
            T = PointSet(raw["points"])
            L = raw["truncation_weight"]
            self._refs[cfg] = {
                "oracle": measures.correlation_oracle(spec, T, L=L),
                "kernel": kernels.correlation_via_kernel(
                    spec, T, KernelConfig(quad_tol=raw["kernel"]["quad_tol"])),
                "threshold": compare_threshold(
                    measures.truncation_diagnostic(spec, L))}
        return self._refs[cfg]

    def check(self, ops, results):
        ok = []
        for op, (rc, report) in zip(ops, results):
            cmd, cfg = op.args
            good = rc == 0
            if cmd[0] == "correlate":
                # each method against the other route
                ref = self._reference(cfg)
                other = "kernel" if cmd[2] == "oracle" else "oracle"
                value = report["results"][0]["value"]
                good = good and abs(value - ref[other]) < ref["threshold"]
            elif cmd[0] == "compare":
                good = good and report["verdict"] == "PASS"
            elif cmd[0] == "sweep-radii":
                # admissible radii agree; the inadmissible reading must fail
                rows = report["radius_sweep"]["rows"]
                good = good and all(r["pass"] for r in rows[:-1]) \
                    and not rows[-1]["pass"]
            else:
                good = good and report["all_pass"]
            ok.append(bool(good))
        return ok


WORKLOADS = {w.name: w for w in (KernelWorkload, OracleWorkload, QextWorkload,
                                 CliWorkload)}
