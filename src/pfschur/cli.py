"""Batch front-end: JSON config in, JSON/CSV report out.

Exit codes: 0 success, 1 config error, 2 numerical non-convergence,
3 acceptance-threshold breach in `compare` or a failing row in a `verify-*`
report (written before the exit).
"""

import argparse
import csv
import hashlib
import io
import json
import sys
import time

from . import kernels, measures, partitions, symfunc, verify
from .macdonald import ContourConditionError
from .quadrature import QuadratureError

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_NUMERICS = 2
EXIT_THRESHOLD = 3


class ConfigError(ValueError):
    pass


def _load_config(path, overrides):
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except FileNotFoundError as exc:
        raise ConfigError(f"config file not found: {path}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(
            f"malformed JSON in {path} at line {exc.lineno} column {exc.colno}: "
            f"{exc.msg}") from exc

    if not isinstance(raw, dict):
        raise ConfigError(f"{path}: the top level must be a JSON object")
    problems = []

    def section(name):
        value = raw.get(name, {})
        if isinstance(value, dict):
            return value
        problems.append(f"{name}: must be a JSON object")
        return {}

    def number(kind, name, value, default):
        try:
            # int() and float() parse strings and take a bool as an int,
            # but neither "20" nor true is a JSON number
            if isinstance(value, (str, bool)):
                raise TypeError
            result = kind(value)
        except (TypeError, ValueError, OverflowError):
            problems.append(f"{name}: {value!r} is not a number")
            return default
        if kind is int and isinstance(value, float) and result != value:
            problems.append(f"{name}: {value!r} is not an integer")
            return default
        return result

    spec = points = None
    try:
        spec = measures.ProcessSpec.from_json(raw.get("process", {}))
    except (KeyError, TypeError, ValueError) as exc:
        problems.append(f"process: {exc}")
    try:
        points = measures.PointSet(raw.get("points", []))
        if spec is not None:
            points.by_level(spec.m)
    except (TypeError, ValueError) as exc:
        problems.append(f"points: {exc}")

    L = number(int, "truncation_weight",
               overrides.truncation if overrides.truncation is not None
               else raw.get("truncation_weight", 30), 30)
    if L < 0:
        problems.append("truncation_weight: must be nonnegative")

    qcfg = section("quadrature")
    tol = number(float, "quadrature.tol", qcfg.get("tol", 1e-8), 1e-8)
    start_nodes = number(int, "quadrature.start_nodes",
                         qcfg.get("start_nodes", 64), 64)

    kcfg_raw = section("kernel")
    sign = kcfg_raw.get("sign_convention", kernels.SIGN_PAPER)
    if overrides.sign_convention:
        sign = {"paper": kernels.SIGN_PAPER, "br": kernels.SIGN_BR}[
            overrides.sign_convention]
    radii = kcfg_raw.get("radii", {})
    if isinstance(radii, dict):
        radii = {key: number(float, f"kernel.radii.{key}", r, None)
                 for key, r in radii.items()}
        radii = {key: r for key, r in radii.items() if r is not None}
    else:
        problems.append("kernel.radii: must be a JSON object")
        radii = {}
    # --tol overrides kernel.quad_tol, which defaults to quadrature.tol
    quad_tol = overrides.tol if overrides.tol is not None else number(
        float, "kernel.quad_tol", kcfg_raw.get("quad_tol", tol), tol)
    cfg = kernels.KernelConfig(
        quad_tol=quad_tol,
        start_nodes=start_nodes,
        max_nodes=number(int, "kernel.max_nodes",
                         kcfg_raw.get("max_nodes", kernels.KernelConfig.max_nodes),
                         kernels.KernelConfig.max_nodes),
        sign_convention=sign,
        h_assignment=kcfg_raw.get("h_assignment", "slot"),
        k12_regime=kcfg_raw.get("k12_regime", "strict"),
        radii=radii)
    try:
        cfg.validate()
        if spec is not None:
            kernels._resolved_radii(spec, cfg)
    except ValueError as exc:
        problems.append(f"kernel: {exc}")

    seed = number(int, "seed", overrides.seed if overrides.seed is not None
                  else raw.get("seed", 0), 0)
    if seed < 0:
        problems.append(f"seed: {seed} must be nonnegative")

    if problems:
        raise ConfigError("; ".join(problems))
    digest = hashlib.sha256(
        json.dumps(raw, sort_keys=True, separators=(",", ":")).encode()).hexdigest()
    return {"raw": raw, "spec": spec, "points": points, "L": L,
            "kernel_cfg": cfg, "seed": seed, "digest": digest}


def _emit(report, out_path, fmt):
    if fmt == "json":
        text = json.dumps(report, indent=2, sort_keys=True, default=str) + "\n"
    else:
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(["T", "method", "value", "imag_defect", "diagnostics"])
        for row in report.get("results", []):
            writer.writerow([json.dumps(row.get("T")), row.get("method"),
                             row.get("value"), row.get("imag_defect"),
                             json.dumps({k: v for k, v in row.items()
                                         if k not in ("T", "method", "value",
                                                      "imag_defect")},
                                        default=str)])
        text = buf.getvalue()
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _cache_calls():
    """(hits, misses) so far of every memo cache the commands reach."""
    return {fn.__name__: fn.cache_info()[:2] for fn in (
        symfunc._h_table, symfunc._skew_schur_cached, symfunc._tau_cached,
        partitions.enumerate_up_to_weight, partitions.horizontal_strips)}


def _battery_report(rows_by_name, digest):
    results = []
    ok = True
    for section, rows in rows_by_name.items():
        for row in rows:
            diagnostics = {k: v for k, v in row.items() if k != "value"}
            results.append({"T": None, "method": section, "value": row["value"],
                            "imag_defect": None, "diagnostics": diagnostics,
                            "name": row["name"], "pass": row["pass"]})
            ok = ok and row["pass"]
    return {"config_digest": digest, "results": results, "all_pass": ok}


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="pfschur",
        description="Verification lab for Pfaffian Schur correlation formulas")
    parser.add_argument("command", choices=[
        "verify-symfunc", "verify-macdonald", "verify-partition-function",
        "verify-pfaffian", "correlate", "compare", "sweep-radii"])
    parser.add_argument("--config", required=True, help="JSON config path")
    parser.add_argument("--method", default="oracle",
                        choices=["oracle", "kernel", "q-extraction"])
    parser.add_argument("--out", default=None, help="report path (stdout if omitted)")
    parser.add_argument("--format", default="json", choices=["json", "csv"])
    parser.add_argument("--sweep-radii", action="store_true",
                        help="append a radius sweep to a compare run")
    parser.add_argument("--sign-convention", default=None, choices=["paper", "br"])
    parser.add_argument("--tol", type=float, default=None)
    parser.add_argument("--truncation", type=int, default=None)
    parser.add_argument("--seed", type=int, default=None)
    args = parser.parse_args(argv)

    try:
        cfgd = _load_config(args.config, args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG

    spec, points, cfg = cfgd["spec"], cfgd["points"], cfgd["kernel_cfg"]
    t_start, caches_before = time.time(), _cache_calls()
    try:
        if args.command == "verify-symfunc":
            report = _battery_report({"symfunc": verify.battery_symfunc(cfgd["seed"]),
                                      "quadrature": verify.battery_quadrature()},
                                     cfgd["digest"])
        elif args.command == "verify-macdonald":
            report = _battery_report(
                {"eigenrelation": verify.battery_eigenrelation(cfgd["seed"]),
                 "contour_action": verify.battery_contour_action(cfgd["seed"]),
                 "iterated_actions": verify.battery_iterated_actions(cfgd["seed"])},
                cfgd["digest"])
        elif args.command == "verify-partition-function":
            report = _battery_report(
                {"partition_function": verify.battery_partition_function(
                    spec, cfgd["L"])}, cfgd["digest"])
        elif args.command == "verify-pfaffian":
            report = _battery_report(
                {"pfaffian": verify.battery_pfaffian(cfgd["seed"])}, cfgd["digest"])
        elif args.command == "correlate":
            results = []
            T = points
            if args.method == "oracle":
                L = cfgd["L"]
                value = measures.correlation_oracle(spec, T, L=L)
                results.append({"T": T.to_json(), "method": "oracle",
                                "value": value, "imag_defect": 0.0,
                                "diagnostics": {
                                    "L": L,
                                    "truncation_diagnostic":
                                        measures.truncation_diagnostic(spec, L),
                                    "partitions": len(
                                        measures.sequence_partitions(spec, L))}})
            elif args.method == "kernel":
                value, info = kernels.correlation_via_kernel(spec, T, cfg,
                                                             full_output=True)
                results.append({"T": T.to_json(), "method": "kernel",
                                "value": value,
                                "imag_defect": info["imag_defect"],
                                "diagnostics": {
                                    "defect": info["defect"],
                                    "max_last_delta": info["max_last_delta"],
                                    "nodes": info.get("nodes", {})}})
            else:
                if spec.m != 1:
                    raise ConfigError("q-extraction requires a single-level process")
                ts = [t for _, t in T.points]
                try:
                    value, info = kernels.correlation_via_q_extraction(
                        spec.rho_plus[0], spec.rho_minus[0], ts, cfg,
                        full_output=True)
                except ContourConditionError:
                    raise
                except ValueError as exc:  # the extraction's input checks
                    raise ConfigError(str(exc)) from exc
                results.append({"T": T.to_json(), "method": "q-extraction",
                                "value": value,
                                "imag_defect": info["imag_defect"],
                                "diagnostics": {
                                    k: info[k] for k in ("rq", "nodes", "last_delta")
                                    if k in info}})
            report = {"config_digest": cfgd["digest"], "results": results}
        elif args.command == "compare":
            cmp_out = verify.compare_methods(spec, points, cfg, L=cfgd["L"])
            results = [{"T": points.to_json(),
                        "imag_defect": r.get("imag_defect"),
                        "diagnostics": {k: v for k, v in r.items()
                                        if k not in ("method", "value",
                                                     "imag_defect")},
                        **r} for r in cmp_out["results"]]
            report = {"config_digest": cfgd["digest"], "results": results,
                      "truncation_diagnostic": cmp_out["truncation_diagnostic"],
                      "sign_adjudication": cmp_out["sign_adjudication"]}
            if args.sweep_radii:
                report["radius_sweep"] = kernels.radius_sweep(
                    spec, points, cfg, oracle_kwargs={"L": cfgd["L"]})
            kern = next(r for r in report["results"] if r["method"] == "kernel")
            tol = max(1e-3, 10 * report["truncation_diagnostic"])
            report["threshold"] = tol
            report["verdict"] = "FAIL" if kern["delta_vs_oracle"] >= tol else "PASS"
        else:  # sweep-radii
            report = {"config_digest": cfgd["digest"],
                      "results": [],
                      "radius_sweep": kernels.radius_sweep(
                          spec, points, cfg, oracle_kwargs={"L": cfgd["L"]})}
    except QuadratureError as exc:
        prev, last = exc.estimates
        print(f"numerical non-convergence: {exc}; last two estimates "
              f"{complex(prev):.12g}, {complex(last):.12g}", file=sys.stderr)
        return EXIT_NUMERICS
    except ContourConditionError as exc:
        print(f"numerical non-convergence: {exc}", file=sys.stderr)
        return EXIT_NUMERICS
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG

    rates = {}      # each cache's hit rate over this command; None: not called
    for name, (hits, misses) in _cache_calls().items():
        hits, misses = hits - caches_before[name][0], misses - caches_before[name][1]
        rates[name] = hits / (hits + misses) if hits + misses else None
    report["timing"] = {"elapsed_s": time.time() - t_start, "cache_hit_rate": rates}
    _emit(report, args.out, args.format)
    if report.get("verdict") == "FAIL" or report.get("all_pass") is False:
        return EXIT_THRESHOLD
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
