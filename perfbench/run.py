"""pfschur benchmark: one closed-loop client, one workload per run.

    python3 perfbench/run.py --workload kernel --seed 1 --seconds 45 --trace 0

Run it from the root of a pfschur checkout; it imports the package from
`src/`. With `--trace 0` it times whole rounds of operations until
`--seconds` have passed and at least MIN_OPS operations have run (then, on
`qext`, the d=2 operation), and reports the end-to-end metrics, its
timings taken at the reference host speed that `hostprobe.py` measures. With
`--trace 1` it replays a fixed prefix of the same operations with spans
around every layer, then untraced, and reports the per-layer metrics and the
tracing overhead. Every result is checked, untimed, against an independent
route. The last line of output is the JSON result; the line before it holds
the run's details (samples, failures, digest, cache state, wall-clock
timings, probe times, machine note).
"""

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from time import perf_counter

# One client, no threads: BLAS is pinned to one thread before numpy loads.
BLAS_THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
                "MKL_NUM_THREADS": "1"}

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".perfbench")
MIN_OPS = 100        # ten samples beyond op_p90_ms
SETUP_SAMPLES = 5    # fresh processes timed for setup_s

E2E_UNITS = {"setup_s": "s", "ops_per_s": "1/s", "op_p50_ms": "ms",
             "op_p90_ms": "ms", "peak_rss_mb": "MB"}

LAYER_UNITS = {
    "partitions.enumerate_up_to_weight.calls": "count",
    "partitions.enumerate_up_to_weight.hit_ratio": "ratio",
    "partitions.partitions_enumerated": "count",
    "partitions.self_s": "s",
    "symfunc.skew_schur.calls": "count",
    "symfunc.schur.calls": "count",
    "symfunc.tau.calls": "count",
    "symfunc.self_s": "s",
    "symfunc.h_table.hit_ratio": "ratio",
    "symfunc.skew_schur_cache.hit_ratio": "ratio",
    "symfunc.tau_cache.hit_ratio": "ratio",
    "symfunc.skew_schur_cache.size": "count",
    "quadrature.integrate.calls": "count",
    "quadrature.integrate2.calls": "count",
    "quadrature.integrate_n.calls": "count",
    "quadrature.integrand_calls": "count",
    "quadrature.integrand_points": "count",
    "quadrature.integrand_calls_per_integral": "count",
    "quadrature.self_s": "s",
    "quadrature.errors": "count",
    "pfaffian.pfaffian.calls": "count",
    "pfaffian.max_dim": "count",
    "pfaffian.self_s": "s",
    "macdonald.iterated_action_Z.calls": "count",
    "macdonald.apply_direct.calls": "count",
    "macdonald.apply_via_contour.calls": "count",
    "macdonald.self_s": "s",
    "macdonald.contour_errors": "count",
    "measures.correlation_oracle.calls": "count",
    "measures.truncation_diagnostic.calls": "count",
    "measures.partition_function_truncated.calls": "count",
    "measures.self_s": "s",
    "kernels.assemble_kernel.calls": "count",
    "kernels.integrals_per_kernel": "count",
    "kernels.inner_actions_per_extraction": "count",
    "kernels.inner_actions_per_extraction_d1": "count",
    "kernels.self_s": "s",
    "kernels.assembly_errors": "count",
    "verify.self_s": "s",
    "verify.rows_failed": "count",
    "cli.main.calls": "count",
    "cli.self_s": "s",
    "cli.nonzero_exits": "count",
    "trace.ops_per_s_traced": "1/s",
    "trace.ops_per_s_untraced": "1/s",
    "trace.overhead_ops_per_s": "1/s",
}


def reset_caches():
    from pfschur import partitions, symfunc
    symfunc.clear_caches()
    partitions.enumerate_up_to_weight.cache_clear()


def cache_state():
    from pfschur import partitions, symfunc
    caches = {"h_table": symfunc._h_table,
              "skew_schur": symfunc._skew_schur_cached,
              "tau": symfunc._tau_cached,
              "enumerate_up_to_weight": partitions.enumerate_up_to_weight}
    infos = {name: fn.cache_info() for name, fn in caches.items()}
    return {name: {"hits": i.hits, "misses": i.misses, "currsize": i.currsize}
            for name, i in infos.items()}


def machine_note():
    import numpy
    model = ""
    try:
        with open("/proc/cpuinfo") as fh:
            model = next((line.split(":", 1)[1].strip() for line in fh
                          if line.startswith("model name")), "")
    except OSError:
        pass
    return {"nproc": len(os.sched_getaffinity(0)), "cpu_model": model,
            "python": platform.python_version(), "numpy": numpy.__version__,
            "blas_threads": BLAS_THREADS}


def setup(workload, seed, workdir):
    """Build the workload's inputs and reset the caches: everything between
    the import and the first timed operation."""
    from workloads import WORKLOADS, CliWorkload
    cls = WORKLOADS[workload]
    wl = cls(seed, ROOT, workdir) if cls is CliWorkload else cls(seed)
    reset_caches()
    return wl


def setup_seconds(workload, seed):
    """Median over fresh processes of the time from process start until the
    first operation could run: interpreter, import, inputs, cache reset."""
    samples = []
    for _ in range(SETUP_SAMPLES):
        spawned = time.monotonic()
        out = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", workload,
             "--seed", str(seed), "--setup-probe", repr(spawned)],
            capture_output=True, text=True, timeout=120, check=True)
        samples.append(float(out.stdout.split()[-1]))
    return statistics.median(samples), samples


def timed_call(call, op):
    """(result, error, seconds) of one operation; a raising operation is a
    failed one and the run goes on."""
    t0 = perf_counter()
    try:
        result, error = call(op), None
    except Exception as exc:
        result, error = None, f"{type(exc).__name__}: {exc}"
    return result, error, perf_counter() - t0


def run_ops(ops, call):
    out = [timed_call(call, op) for op in ops]
    return out, sum(dt for _, _, dt in out)


def run_timed(wl, seconds):
    """Whole rounds until `seconds` have passed and MIN_OPS have run, then
    the closing operations; one wall clock over all of it. The host probe
    runs between operations, every PROBE_EVERY_S, and once at the end."""
    from hostprobe import HostSpeed
    ops, out, starts = [], [], []
    start = perf_counter()
    host = HostSpeed(start)

    def run(op):
        host.maybe_probe()
        ops.append(op)
        starts.append(perf_counter() - start)
        out.append(timed_call(wl.call, op))

    for rnd in wl.rounds:
        for op in rnd:
            run(op)
        if perf_counter() - start >= seconds and len(ops) >= MIN_OPS:
            break
    for op in wl.closing:
        run(op)
    host.probe()
    return ops, out, perf_counter() - start, host.normalise(
        starts, [dt for _, _, dt in out]), host


def checked(wl, ops, out):
    """Per operation: passed its independent check (a raised error fails)."""
    done = [(op, res) for op, (res, err, _) in zip(ops, out) if err is None]
    verdicts = iter(wl.check([op for op, _ in done], [r for _, r in done]))
    return [err is None and next(verdicts) for _, err, _ in out]


def digest(wl, ops, out):
    """Hash of the results of the fixed operation prefix the traced run
    replays; equal across runs of one commit and seed."""
    by_op = {id(op): (res, err) for op, (res, err, _) in zip(ops, out)}
    h = hashlib.sha256()
    for op in wl.trace_ops():
        res, err = by_op[id(op)]
        h.update((err or wl.digest_item(op, res)).encode())
    return h.hexdigest()[:16]


def latency_stats(latencies):
    ms = sorted(1e3 * dt for dt in latencies)
    rank = math.ceil(0.9 * len(ms))
    return {"op_p50_ms": statistics.median(ms), "op_p90_ms": ms[rank - 1],
            "samples": len(ms), "samples_beyond_p90": len(ms) - rank}


def end_to_end(wl, seconds, setup_s):
    """Timings at the reference host speed (see hostprobe.py); the wall
    clock figures they come from are in the details."""
    ops, out, wall, at_ref, host = run_timed(wl, seconds)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    caches = cache_state()
    ok = checked(wl, ops, out)
    stats = latency_stats(at_ref)
    raw = latency_stats([dt for _, _, dt in out])
    metrics = {"setup_s": setup_s, "ops_per_s": len(ops) / sum(at_ref),
               "op_p50_ms": stats["op_p50_ms"], "op_p90_ms": stats["op_p90_ms"],
               "peak_rss_mb": peak_rss_mb}
    failed = ok.count(False)
    details = {"wall_s": wall, "samples": stats["samples"],
               "samples_beyond_p90": stats["samples_beyond_p90"],
               "wall_clock": {"ops_per_s": len(ops) / wall,
                              "op_p50_ms": raw["op_p50_ms"],
                              "op_p90_ms": raw["op_p90_ms"]},
               "probe_ms": {"n": len(host.seconds),
                            "p50": 1e3 * statistics.median(host.seconds),
                            "min": 1e3 * min(host.seconds),
                            "max": 1e3 * max(host.seconds)},
               "fail_frac": failed / len(ops), "digest": digest(wl, ops, out),
               "errors": sorted({e for _, e, _ in out if e}), "caches": caches}
    return metrics, E2E_UNITS, len(ops), failed, details


def _ratio(a, b):
    return a / b if b else 0.0


def layer_metrics(t, caches, ops, deltas):
    """Per-layer metrics from the tracer `t` over the replayed operations."""
    from tracing import LAYERS
    c, n = t.calls, t.counts
    hit = {name: _ratio(s["hits"], s["hits"] + s["misses"])
           for name, s in caches.items()}
    integrals = sum(c[f"quadrature.{f}"]
                    for f in ("integrate", "integrate2", "integrate_n"))
    inner = {1: [], 2: []}
    for op, dl in zip(ops, deltas):
        if dl["kernels.correlation_via_q_extraction"] == 1:
            inner[op.d].append(dl["macdonald.iterated_action_Z"])
    m = {
        "partitions.enumerate_up_to_weight.calls": c["partitions.enumerate_up_to_weight"],
        "partitions.enumerate_up_to_weight.hit_ratio": hit["enumerate_up_to_weight"],
        "partitions.partitions_enumerated": n["partitions.partitions_enumerated"],
        "symfunc.skew_schur.calls": c["symfunc.skew_schur"],
        "symfunc.schur.calls": c["symfunc.schur"],
        "symfunc.tau.calls": c["symfunc.tau"],
        "symfunc.h_table.hit_ratio": hit["h_table"],
        "symfunc.skew_schur_cache.hit_ratio": hit["skew_schur"],
        "symfunc.tau_cache.hit_ratio": hit["tau"],
        "symfunc.skew_schur_cache.size": caches["skew_schur"]["currsize"],
        "quadrature.integrate.calls": c["quadrature.integrate"],
        "quadrature.integrate2.calls": c["quadrature.integrate2"],
        "quadrature.integrate_n.calls": c["quadrature.integrate_n"],
        "quadrature.integrand_calls": n["quadrature.integrand_calls"],
        "quadrature.integrand_points": n["quadrature.integrand_points"],
        "quadrature.integrand_calls_per_integral":
            _ratio(n["quadrature.integrand_calls"], integrals),
        "quadrature.errors": sum(v for (layer, _), v in t.errors.items()
                                 if layer == "quadrature"),
        "pfaffian.pfaffian.calls": c["pfaffian.pfaffian"],
        "pfaffian.max_dim": n["pfaffian.max_dim"],
        "macdonald.iterated_action_Z.calls": c["macdonald.iterated_action_Z"],
        "macdonald.apply_direct.calls": c["macdonald.apply_direct"],
        "macdonald.apply_via_contour.calls": c["macdonald.apply_via_contour"],
        "macdonald.contour_errors": t.errors[("macdonald", "ContourConditionError")],
        "measures.correlation_oracle.calls": c["measures.correlation_oracle"],
        "measures.truncation_diagnostic.calls": c["measures.truncation_diagnostic"],
        "measures.partition_function_truncated.calls":
            c["measures.partition_function_truncated"],
        "kernels.assemble_kernel.calls": c["kernels.assemble_kernel"],
        "kernels.integrals_per_kernel":
            _ratio(n["kernels.integrals_in_assembly"], c["kernels.assemble_kernel"]),
        "kernels.inner_actions_per_extraction":
            _ratio(sum(inner[2]), len(inner[2])),
        "kernels.inner_actions_per_extraction_d1":
            _ratio(sum(inner[1]), len(inner[1])),
        "kernels.assembly_errors": t.errors[("kernels", "KernelAssemblyError")],
        "verify.rows_failed": n["verify.rows_failed"],
        "cli.main.calls": c["cli.main"],
        "cli.nonzero_exits": n["cli.nonzero_exits"],
    }
    for layer in LAYERS:
        m[f"{layer}.self_s"] = t.self_s[layer]
    return m, inner


def traced(wl):
    """The fixed operation prefix once with spans, once without."""
    from tracing import Tracer
    ops = wl.trace_ops()
    tracer = Tracer()
    watched = ("kernels.correlation_via_q_extraction",
               "macdonald.iterated_action_Z", "kernels.assemble_kernel")
    deltas = []
    op_span = tracer.wrap("bench.op", wl.call)

    def call(op):
        before = {k: tracer.calls[k] for k in watched}
        before["integrals"] = tracer.counts["kernels.integrals_in_assembly"]
        try:
            return op_span(op)
        finally:
            dl = {k: tracer.calls[k] - before[k] for k in watched}
            dl["integrals"] = tracer.counts["kernels.integrals_in_assembly"] \
                - before["integrals"]
            deltas.append(dl)
            tracer.op = len(deltas)

    reset_caches()
    tracer.op = 0
    tracer.install()
    try:
        out, busy_traced = run_ops(ops, call)
        caches = cache_state()
    finally:
        tracer.uninstall()
    reset_caches()
    replay, busy_plain = run_ops(ops, wl.call)

    ok = checked(wl, ops, out)
    same = [wl.digest_item(op, a[0]) == wl.digest_item(op, b[0])
            for op, a, b in zip(ops, out, replay)]
    metrics, inner = layer_metrics(tracer, caches, ops, deltas)
    metrics["trace.ops_per_s_traced"] = len(ops) / busy_traced
    metrics["trace.ops_per_s_untraced"] = len(ops) / busy_plain
    metrics["trace.overhead_ops_per_s"] = (metrics["trace.ops_per_s_untraced"]
                                           - metrics["trace.ops_per_s_traced"])
    os.makedirs(OUT_DIR, exist_ok=True)
    span_file = os.path.join(OUT_DIR, f"trace-{wl.name}.jsonl")
    tracer.write(span_file)
    # Counts that must reproduce exactly: 4d^2 integrals per kernel assembly
    # and, per d=2 extraction, the inner actions of the 64x64 q-grid.
    busy = sum(tracer.self_s.values())
    details = {"spans": len(tracer.spans), "span_file": span_file,
               "self_share": {k: v / busy for k, v in sorted(tracer.self_s.items())},
               "caches": caches, "replay_identical": all(same),
               "fail_frac": ok.count(False) / len(ops),
               "digest": digest(wl, ops, out)}
    if wl.name == "kernel":
        details["kernel_integrals_are_4d2"] = all(
            dl["integrals"] == 4 * op.d ** 2 for op, dl in zip(ops, deltas))
    if inner[2]:
        details["inner_actions_d2"] = inner[2]
    failed = sum(not (a and b) for a, b in zip(ok, same))
    return metrics, LAYER_UNITS, len(ops), failed, details


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=["kernel", "oracle", "qext", "cli"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=45)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--setup-probe", type=float, default=None,
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    os.environ.update(BLAS_THREADS)
    if not os.path.isfile(os.path.join(SRC, "pfschur", "__init__.py")):
        print(f"no pfschur package under {SRC}: run from a pfschur checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    os.makedirs(OUT_DIR, exist_ok=True)
    workdir = tempfile.mkdtemp(dir=OUT_DIR)
    try:
        if args.setup_probe is not None:
            setup(args.workload, args.seed, workdir)
            print(time.monotonic() - args.setup_probe)
            return 0
        if args.trace:
            wl = setup(args.workload, args.seed, workdir)
            metrics, units, attempted, failed, details = traced(wl)
        else:
            setup_s, setup_samples = setup_seconds(args.workload, args.seed)
            wl = setup(args.workload, args.seed, workdir)
            metrics, units, attempted, failed, details = end_to_end(
                wl, args.seconds, setup_s)
            details["setup_samples_s"] = setup_samples
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    details.update(workload=args.workload, seed=args.seed, trace=args.trace,
                   machine=machine_note())
    print(json.dumps(details, sort_keys=True, default=str))
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed,
                      "metrics": {k: {"value": v, "unit": units[k]}
                                  for k, v in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
