"""Every command's report on the shipped configs against a stored golden.

Nine command variants run in process on each of the three `configs/`: the
four `verify-*` batteries, `correlate` by each method, `compare` and
`sweep-radii`. Each must give the stored exit
code, the stored stderr and the stored JSON report, `timing` left out. Keys,
strings, booleans and integers must match exactly, and floats to 1e-12
absolute or 1e-9 relative.

The goldens in `tests/goldens/reports/` hold one file per config, one entry
per variant. Running this file as a script with variant names rewrites
those entries in every config's file and leaves every other entry as it is:

    PYTHONPATH=src python tests/test_reports.py verify-symfunc

With `--dump FILE` it writes every variant's report on every config to
FILE instead, `timing` left out and every float as its repr, so that two
commits whose reports agree bit for bit give identical files:

    PYTHONPATH=src python tests/test_reports.py --dump before.json
    (check out the other commit, dump to after.json)
    cmp before.json after.json

With `--against OLD` as well, it then lists every report path that moved
from the dump OLD: keys added or removed, floats that moved beyond the
golden tolerance apart from those that moved only in their last bits, and
anything else that changed:

    PYTHONPATH=src python tests/test_reports.py --dump after.json --against before.json

Rewrite an entry only where a change is meant to move that command's
report, name only the variants it moves, and say which fields moved and
why; an entry that a change must leave alone stays pinned to the commit
that wrote it.
"""

import argparse
import contextlib
import io
import json
import math
import os
import sys
from pathlib import Path

import pytest

# BLAS on one thread, as conftest.py pins it for the test run
for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_name, "1")

from pfschur.cli import main  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
GOLDENS = Path(__file__).resolve().parent / "goldens" / "reports"
CONFIGS = ("m1_singleton", "m1_twovar", "m2_d11")
VARIANTS = {
    "verify-symfunc": ["verify-symfunc"],
    "verify-macdonald": ["verify-macdonald"],
    "verify-partition-function": ["verify-partition-function"],
    "verify-pfaffian": ["verify-pfaffian"],
    "correlate-oracle": ["correlate", "--method", "oracle"],
    "correlate-kernel": ["correlate", "--method", "kernel"],
    "correlate-q-extraction": ["correlate", "--method", "q-extraction"],
    "compare": ["compare"],
    "sweep-radii": ["sweep-radii"],
}


def run(config, variant):
    """The exit code, stderr and report (None if nothing was written, else
    without `timing`) of one command on a shipped config."""
    out, err = io.StringIO(), io.StringIO()
    argv = [*VARIANTS[variant], "--config", str(ROOT / "configs" / f"{config}.json")]
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    report = json.loads(out.getvalue()) if out.getvalue() else None
    if report is not None:
        report.pop("timing", None)
    return {"exit": code, "stderr": err.getvalue(), "report": report}


def mismatches(got, want, path="$"):
    """Where got differs from want: floats beyond 1e-12 absolute and 1e-9
    relative, anything else not equal with the same type."""
    if isinstance(want, float) and isinstance(got, float):
        if math.isnan(want) and math.isnan(got) or got == want:
            return []
        gap = abs(got - want)
        if gap <= 1e-12 or gap <= 1e-9 * max(abs(got), abs(want)):
            return []
        return [f"{path}: {got!r} != {want!r}"]
    if type(got) is not type(want):
        return [f"{path}: {type(got).__name__} {got!r} != {type(want).__name__} {want!r}"]
    if isinstance(want, dict):
        if got.keys() != want.keys():
            return [f"{path}: keys {sorted(got)} != {sorted(want)}"]
        return [m for key in want for m in mismatches(got[key], want[key], f"{path}.{key}")]
    if isinstance(want, list):
        if len(got) != len(want):
            return [f"{path}: length {len(got)} != {len(want)}"]
        return [m for i, (g, w) in enumerate(zip(got, want))
                for m in mismatches(g, w, f"{path}[{i}]")]
    return [] if got == want else [f"{path}: {got!r} != {want!r}"]


def exact(value):
    """value with every float replaced by its repr, so JSON keeps each bit."""
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, dict):
        return {key: exact(v) for key, v in value.items()}
    if isinstance(value, list):
        return [exact(v) for v in value]
    return value


def moves(got, want, path="$"):
    """Where the dump got moved from the dump want, one line per path: keys
    added or removed, floats (kept as their repr) moved beyond the golden
    tolerance or only in their last bits, anything else changed."""
    if isinstance(got, dict) and isinstance(want, dict):
        return ([f"added {path}.{key}" for key in got if key not in want]
                + [f"removed {path}.{key}" for key in want if key not in got]
                + [m for key in want if key in got
                   for m in moves(got[key], want[key], f"{path}.{key}")])
    if isinstance(got, list) and isinstance(want, list) and len(got) == len(want):
        return [m for i, (g, w) in enumerate(zip(got, want))
                for m in moves(g, w, f"{path}[{i}]")]
    if got == want:
        return []
    if isinstance(got, str) and isinstance(want, str):
        with contextlib.suppress(ValueError):      # a float's repr, not another string
            kind = "moved" if mismatches(float(got), float(want)) else "last bits"
            return [f"{kind} {path}: {want} -> {got}"]
    return [f"changed {path}: {want!r} -> {got!r}"]


def test_moves_tells_added_keys_and_moved_floats_from_last_bits():
    old = {"r": {"a": "0.1", "b": "1.0", "c": [1, "PASS"], "gone": 2}}
    new = {"r": {"a": "0.10000000000000002", "b": "1.5", "c": [1, "FAIL"], "new": None}}
    assert moves(new, old) == [
        "added $.r.new", "removed $.r.gone", "last bits $.r.a: 0.1 -> 0.10000000000000002",
        "moved $.r.b: 1.0 -> 1.5", "changed $.r.c[1]: 'PASS' -> 'FAIL'"]
    assert moves(old, old) == [] and moves([1], [1, 2]) == ["changed $: [1, 2] -> [1]"]


def test_exact_keeps_every_bit_of_a_float():
    assert exact({"a": [0.1 + 0.2, -0.0, 1, "x", None]}) == {
        "a": ["0.30000000000000004", "-0.0", 1, "x", None]}
    assert exact(float("nan")) == "nan" and exact(True) is True


def test_mismatches_reads_floats_to_the_stated_tolerance():
    assert mismatches({"a": [1.0, "x", True, 3]}, {"a": [1.0, "x", True, 3]}) == []
    assert mismatches(1e-13, 0.0) == [] and mismatches(1.0 + 1e-10, 1.0) == []
    assert mismatches(float("nan"), float("nan")) == []
    assert mismatches(2e-12, 0.0) and mismatches(1.0 + 1e-8, 1.0)
    assert mismatches(True, 1) and mismatches(1, 1.0) and mismatches("1", 1)
    assert mismatches({"a": 1}, {"a": 1, "b": 2}) and mismatches([1], [1, 1])


@pytest.mark.parametrize("config", CONFIGS)
def test_goldens_hold_exactly_the_variants(config):
    # an entry whose variant is gone would otherwise stay on unchecked
    assert sorted(json.loads((GOLDENS / f"{config}.json").read_text())) == sorted(VARIANTS)


@pytest.mark.parametrize("variant", VARIANTS)
@pytest.mark.parametrize("config", CONFIGS)
def test_report_matches_its_golden(config, variant):
    want = json.loads((GOLDENS / f"{config}.json").read_text())[variant]
    assert mismatches(run(config, variant), want) == []


if __name__ == "__main__":
    parser = argparse.ArgumentParser(
        description="Rewrite the named variants' golden entries for every config.")
    parser.add_argument("variants", nargs="*", help=f"any of {', '.join(VARIANTS)}")
    parser.add_argument("--dump", metavar="FILE",
                        help="write every variant's report on every config to FILE, "
                             "floats as repr, and rewrite no golden")
    parser.add_argument("--against", metavar="OLD",
                        help="with --dump, list every report path that moved from "
                             "the dump OLD")
    args = parser.parse_args()
    if args.against and not args.dump:
        parser.error("--against needs --dump")
    if args.dump:
        reports = {config: {variant: exact(run(config, variant)) for variant in VARIANTS}
                   for config in CONFIGS}
        Path(args.dump).write_text(json.dumps(reports, indent=1, sort_keys=True) + "\n")
        print(f"wrote every report to {args.dump}", file=sys.stderr)
        if args.against:
            moved = moves(reports, json.loads(Path(args.against).read_text()))
            print("\n".join(moved + [f"{len(moved)} paths moved from {args.against}"]))
        sys.exit()
    names = args.variants
    if not names or not set(names) <= set(VARIANTS):
        parser.error(f"name the variants to rewrite, from {', '.join(VARIANTS)}")
    GOLDENS.mkdir(parents=True, exist_ok=True)
    for config in CONFIGS:
        path = GOLDENS / f"{config}.json"
        goldens = json.loads(path.read_text()) if path.exists() else {}
        goldens.update({variant: run(config, variant) for variant in names})
        path.write_text(json.dumps(goldens, indent=1, sort_keys=True) + "\n")
        print(f"wrote {', '.join(names)} in {path}", file=sys.stderr)
