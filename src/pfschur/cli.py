"""Batch front-end: JSON config in, JSON/CSV report out.

Every correlation row (`correlate`'s, `compare`'s two, `sweep-radii`'s
oracle row) is built by `verify.correlation_row`, and a command computes
each route once. `compare` and `sweep-radii` take their whole report from
`verify.compare_methods` and `verify.sweep_radii`, which hold every kernel
value to the oracle row by one rule, `verify.judge`. `--method` names a
route of `verify.ROUTES`, and `BATTERIES` tabulates `verify-*`.

Exit codes: 0 success, 1 config error (a config that cannot be read or a
report that cannot be written among them), 2 a numerical failure (a
quadrature that did not converge, or a refused contour or cancellation
condition), 3 a `compare` verdict other than PASS (FAIL, or INCONCLUSIVE
where a short truncation raised the threshold) or a failing row in a
`verify-*` report (written before the exit). The argument parser is built
once per process, on the first `main` call.
"""

import argparse
import csv
import dataclasses
import functools
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
    """The config at `path` under the flags in `overrides`. Its `kernel` keys
    are `kernels.KernelConfig`'s fields, each left out keeping its default;
    every fault, an unknown key too, is one part of the ConfigError."""
    try:
        with open(path, encoding="utf-8") as fh:
            raw = json.load(fh)
    except FileNotFoundError as exc:
        raise ConfigError(f"config file not found: {path}") from exc
    except (OSError, UnicodeDecodeError) as exc:
        reason = getattr(exc, "strerror", None) or exc
        raise ConfigError(f"cannot read config {path}: {reason}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(
            f"malformed JSON in {path} at line {exc.lineno} column {exc.colno}: "
            f"{exc.msg}") from exc

    if not isinstance(raw, dict):
        raise ConfigError(f"{path}: the top level must be a JSON object")
    problems = []

    def section(name, parent=raw):
        value = parent.get(name.split(".")[-1], {})
        if isinstance(value, dict):
            return value
        problems.append(f"{name}: must be a JSON object")
        return {}

    def number(kind, name, value, default=None):
        try:
            return symfunc.json_number(value, kind)
        except ValueError as exc:
            problems.append(f"{name}: {exc}")
            return default

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

    fields = {f.name: f for f in dataclasses.fields(kernels.KernelConfig)}
    kernel = {**section("kernel")}
    if overrides.tol is not None:
        kernel["quad_tol"] = overrides.tol
    if overrides.sign_convention:
        kernel["sign_convention"] = {"paper": kernels.SIGN_PAPER,
                                     "br": kernels.SIGN_BR}[overrides.sign_convention]
    for name, value, keys in (
            ("", raw, ("process", "points", "truncation_weight", "kernel", "seed")),
            ("process.", raw.get("process"), ("rho_plus", "rho_minus")),
            ("kernel.", kernel, fields)):
        if isinstance(value, dict):
            problems += [f"{name}{key}: unknown key" for key in value if key not in keys]
    kernel = {key: number(f.type, f"kernel.{key}", kernel[key], f.default)
              if f.type in (int, float) else kernel[key]
              for key, f in fields.items() if key in kernel}
    if "radii" in kernel:
        radii = {key: number(float, f"kernel.radii.{key}", r)
                 for key, r in section("kernel.radii", kernel).items()}
        kernel["radii"] = {key: r for key, r in radii.items() if r is not None}
    cfg = kernels.KernelConfig(**kernel)
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
    return {"spec": spec, "points": points, "L": L,
            "kernel_cfg": cfg, "seed": seed, "digest": digest}


def _emit(report, out_path, fmt):
    """The report as JSON, or as CSV with one line per result row and per
    radius-sweep row (method `radius_sweep`, the sweep's points as its `T`
    and its `oracle` value among its diagnostics) and, for a report with a
    verdict, one last line (method `verdict`, the verdict as its value, and
    the judge's `threshold`, `rel_threshold` and `reach_L` and the
    `sign_adjudication` as its diagnostics), to out_path or stdout. A
    line's diagnostics cell is one flat JSON object: the row's own
    `diagnostics` with its other fields beside them."""
    if fmt == "json":
        text = json.dumps(report, indent=2, sort_keys=True, default=str) + "\n"
    else:
        buf = io.StringIO()
        writer = csv.writer(buf)
        head = ["T", "method", "value"]
        writer.writerow(head + ["diagnostics"])
        sweep = report.get("radius_sweep")
        sweep_rows = [{"T": sweep["T"], "method": "radius_sweep",
                       "oracle": sweep["oracle"], **row}
                      for row in sweep["rows"]] if sweep else []
        verdict = [{"method": "verdict", "value": report["verdict"],
                    **{k: report[k] for k in ("threshold", "rel_threshold", "reach_L",
                                              "sign_adjudication")}}
                   ] if "verdict" in report else []
        for row in report.get("results", []) + sweep_rows + verdict:
            writer.writerow([json.dumps(row.get("T")), *map(row.get, head[1:]),
                             json.dumps({**row.get("diagnostics", {}),
                                         **{k: v for k, v in row.items()
                                            if k not in head and k != "diagnostics"}},
                                        default=str)])
        text = buf.getvalue()
    if out_path:
        try:
            with open(out_path, "w") as fh:
                fh.write(text)
        except OSError as exc:
            raise ConfigError(f"cannot write report to {out_path}: "
                              f"{exc.strerror or exc}") from exc
    else:
        sys.stdout.write(text)


def _cache_calls():
    """(hits, misses) so far of every memo cache the commands reach, the
    kernel assemblies' layouts (`kernels._kernel_layout`) among them."""
    return {fn.__name__: fn.cache_info()[:2] for fn in (
        symfunc._h_table, symfunc._skew_schur_cached, symfunc._tau_cached,
        partitions.enumerate_up_to_weight, partitions.horizontal_strips,
        kernels._kernel_layout)}


# the report sections of each verify-* command, each filled with the rows of
# its battery; the batteries are looked up in `verify` when a command runs
BATTERIES = {
    "verify-symfunc": {
        "symfunc": lambda c: verify.battery_symfunc(c["seed"]),
        "quadrature": lambda c: verify.battery_quadrature()},
    "verify-macdonald": {
        "eigenrelation": lambda c: verify.battery_eigenrelation(c["seed"]),
        "contour_action": lambda c: verify.battery_contour_action(c["seed"]),
        "iterated_actions": lambda c: verify.battery_iterated_actions(c["seed"])},
    "verify-partition-function": {
        "partition_function":
            lambda c: verify.battery_partition_function(c["spec"], c["L"])},
    "verify-pfaffian": {"pfaffian": lambda c: verify.battery_pfaffian(c["seed"])},
}


def _battery_report(command, cfgd):
    """The report of a verify-* command, with the wall seconds of each of
    its sections in `timing`."""
    results, sections = [], {}
    for section, battery in BATTERIES[command].items():
        rows = verify.timed(sections, section, lambda: battery(cfgd))
        results += [{"T": None, "method": section,
                     **{key: row.pop(key) for key in ("name", "value", "pass")},
                     "diagnostics": row} for row in map(dict, rows)]
    return {"config_digest": cfgd["digest"], "results": results,
            "all_pass": all(row["pass"] for row in results),
            "timing": {"sections": sections}}


@functools.lru_cache(maxsize=None)
def _parser():
    """The command-line parser, built on the first call and then reused:
    parse_args reads it and leaves it as it was."""
    parser = argparse.ArgumentParser(
        prog="pfschur",
        description="Verification lab for Pfaffian Schur correlation formulas")
    parser.add_argument("command", choices=[
        *BATTERIES, "correlate", "compare", "sweep-radii"])
    parser.add_argument("--config", required=True, help="JSON config path")
    parser.add_argument("--method", default="oracle", choices=list(verify.ROUTES))
    parser.add_argument("--out", default=None, help="report path (stdout if omitted)")
    parser.add_argument("--format", default="json", choices=["json", "csv"])
    parser.add_argument("--sign-convention", default=None, choices=["paper", "br"])
    parser.add_argument("--tol", type=float, default=None)
    parser.add_argument("--truncation", type=int, default=None)
    parser.add_argument("--seed", type=int, default=None)
    return parser


def main(argv=None):
    args = _parser().parse_args(argv)
    try:
        return _run(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


def _run(args):
    """The command of the parsed args: its exit code, with its report
    written; a config fault, an unwritable report among them, raises
    ConfigError."""
    cfgd = _load_config(args.config, args)
    spec, points, cfg = cfgd["spec"], cfgd["points"], cfgd["kernel_cfg"]
    t_start, caches_before = time.perf_counter(), _cache_calls()
    try:
        if args.command in BATTERIES:
            report = _battery_report(args.command, cfgd)
        elif args.command == "correlate":
            try:
                row = verify.correlation_row(args.method, spec, points, cfg,
                                             cfgd["L"])
            except ContourConditionError:
                raise
            except ValueError as exc:  # the route's input checks
                raise ConfigError(str(exc)) from exc
            report = {"config_digest": cfgd["digest"], "results": [row]}
        else:
            build = (verify.compare_methods if args.command == "compare"
                     else verify.sweep_radii)
            report = {"config_digest": cfgd["digest"],
                      **build(spec, points, cfg, cfgd["L"])}
    except QuadratureError as exc:
        prev, last = exc.estimates
        print(f"numerical non-convergence: {exc}; last two estimates "
              f"{complex(prev):.12g}, {complex(last):.12g}", file=sys.stderr)
        return EXIT_NUMERICS
    except ContourConditionError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICS

    rates = {}      # each cache's hit rate over this command; None: not called
    for name, (hits, misses) in _cache_calls().items():
        hits, misses = hits - caches_before[name][0], misses - caches_before[name][1]
        rates[name] = hits / (hits + misses) if hits + misses else None
    report.setdefault("timing", {}).update(elapsed_s=time.perf_counter() - t_start,
                                           cache_hit_rate=rates)
    _emit(report, args.out, args.format)
    if report.get("verdict", "PASS") != "PASS" or report.get("all_pass") is False:
        return EXIT_THRESHOLD
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
