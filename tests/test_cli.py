import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from pfschur import kernels, macdonald, measures, verify
from pfschur.cli import BATTERIES, _load_config, _parser, main
from pfschur.measures import ProcessSpec, correlation_oracle, truncation_diagnostic
from pfschur.partitions import enumerate_up_to_weight
from pfschur.quadrature import QuadratureError

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def run_cli(args):
    return main(args)


def read_report(path):
    with open(path) as fh:
        return json.load(fh)


def strip_timing(report):
    report = dict(report)
    report.pop("timing", None)
    return report


def test_malformed_json_exits_1(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"process": {\n  "rho_plus": [[0.5]\n}')
    code = run_cli(["correlate", "--config", str(bad)])
    assert code == 1
    err = capsys.readouterr().err
    assert "line" in err and "column" in err


def test_missing_config_exits_1(tmp_path):
    assert run_cli(["correlate", "--config", str(tmp_path / "nope.json")]) == 1


@pytest.mark.parametrize("unreadable", ["directory", "not utf-8"])
def test_unreadable_config_is_one_config_error_line(tmp_path, capsys, unreadable):
    if unreadable == "directory":
        path, reason = tmp_path, "Is a directory"
    else:
        path = tmp_path / "utf16.json"
        path.write_bytes(b"\xff\xfe{\x00}\x00")
        reason = "'utf-8' codec can't decode byte 0xff in position 0"
    assert run_cli(["correlate", "--config", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"config error: cannot read config {path}: {reason}")
    assert len(captured.err.splitlines()) == 1


def test_unwritable_out_is_one_config_error_line(tmp_path, capsys):
    out = tmp_path / "missing" / "r.json"
    assert run_cli(["verify-pfaffian", "--config", str(CONFIGS / "m1_singleton.json"),
                    "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and not out.parent.exists()
    assert captured.err == (f"config error: cannot write report to {out}: "
                            "No such file or directory\n")


def test_invalid_values_exit_1(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "process": {"rho_plus": [[1.5]], "rho_minus": [[0.5]]},
        "points": [[1, 0]]}))
    assert run_cli(["correlate", "--config", str(cfg)]) == 1
    assert "process" in capsys.readouterr().err


def test_correlate_empty_T_reports_one(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "process": {"rho_plus": [[0.5]], "rho_minus": [[0.5]]},
        "points": []}))
    out = tmp_path / "report.json"
    code = run_cli(["correlate", "--config", str(cfg), "--method", "oracle",
                    "--out", str(out)])
    assert code == 0
    report = read_report(out)
    assert report["results"][0]["value"] == 1.0
    assert "config_digest" in report


def test_correlate_oracle_row_diagnostics(tmp_path):
    out = tmp_path / "report.json"
    assert run_cli(["correlate", "--config", str(CONFIGS / "m2_d11.json"),
                    "--method", "oracle", "--out", str(out)]) == 0
    row, = read_report(out)["results"]
    spec = ProcessSpec([[0.4], [0.3]], [[0.35], [0.25]])
    # the value's own truncation estimate, against the oracle at L and L - 5
    e_l, e_cut = (correlation_oracle(spec, [(1, 0), (2, 0)], L=L) for L in (20, 15))
    assert abs(row["diagnostics"].pop("value_truncation") - abs(e_l - e_cut) / e_l) < 1e-14
    assert row["diagnostics"] == {
        "L": 20, "truncation_diagnostic": truncation_diagnostic(spec, 20),
        "partitions": len(enumerate_up_to_weight(20, 2))}


def test_compare_reference_config(tmp_path):
    out = tmp_path / "report.json"
    code = run_cli(["compare", "--config", str(CONFIGS / "m1_singleton.json"),
                    "--out", str(out)])
    assert code == 0
    report = read_report(out)
    kern = next(r for r in report["results"] if r["method"] == "kernel")
    assert kern["delta_vs_oracle"] < 1e-4
    assert report["verdict"] == "PASS"
    # d = 1 keeps K22 out of the Pfaffian, so both conventions are recorded
    # but agree; the two-point config separates them
    assert set(report["sign_adjudication"]) >= {"delta", "flipped_delta"}
    out2 = tmp_path / "report2.json"
    assert run_cli(["compare", "--config", str(CONFIGS / "m1_twovar.json"),
                    "--out", str(out2)]) == 0
    adj = read_report(out2)["sign_adjudication"]
    assert adj["delta"] < 1e-4 < adj["flipped_delta"]


def test_compare_br_sign_breaches_threshold(tmp_path):
    out = tmp_path / "report.json"
    code = run_cli(["compare", "--config", str(CONFIGS / "m2_d11.json"),
                    "--sign-convention", "br", "--out", str(out)])
    assert code == 3
    report = read_report(out)
    assert report["verdict"] == "FAIL"


@pytest.mark.parametrize("name", ["m1_singleton", "m1_twovar", "m2_d11"])
def test_compare_rows_carry_the_correlate_diagnostics(tmp_path, name):
    out = tmp_path / "report.json"
    assert run_cli(["compare", "--config", str(CONFIGS / f"{name}.json"),
                    "--out", str(out)]) == 0
    oracle, kernel = read_report(out)["results"]
    for row in (oracle, kernel):
        assert run_cli(["correlate", "--config", str(CONFIGS / f"{name}.json"),
                        "--method", row["method"], "--out", str(out)]) == 0
        assert row["diagnostics"] == read_report(out)["results"][0]["diagnostics"]
    # the distance from the oracle sits on the kernel row only
    assert "delta_vs_oracle" in kernel and "delta_vs_oracle" not in oracle
    assert "delta_vs_oracle" not in kernel["diagnostics"]


@pytest.mark.parametrize("command", ["compare", "sweep-radii"])
def test_a_sweep_computes_the_oracle_once(tmp_path, monkeypatch, command):
    # one oracle pass per command, its row first in `results`, and the
    # sweep's oracle is that row's value
    from pfschur import measures
    calls, oracle = [], measures.correlation_oracle

    def spy(*args, **kwargs):
        calls.append((args, kwargs))
        return oracle(*args, **kwargs)
    monkeypatch.setattr(measures, "correlation_oracle", spy)
    out = tmp_path / "report.json"
    assert run_cli([command, "--config", str(CONFIGS / "m1_singleton.json"),
                    "--out", str(out)]) == 0
    (args, kwargs), = calls
    report = read_report(out)
    assert report["results"][0]["method"] == "oracle"
    assert report["results"][0]["value"] == oracle(*args, **kwargs)[0]
    if command == "sweep-radii":
        assert report["radius_sweep"]["oracle"] == report["results"][0]["value"]


def test_report_schema_and_determinism(tmp_path):
    out1 = tmp_path / "r1.json"
    out2 = tmp_path / "r2.json"
    for method in ("kernel", "oracle"):
        for out in (out1, out2):
            assert run_cli(["correlate", "--config", str(CONFIGS / "m1_singleton.json"),
                            "--method", method, "--out", str(out)]) == 0
        r1, r2 = read_report(out1), read_report(out2)
        for report in (r1, r2):
            assert set(report) >= {"config_digest", "results", "timing"}
            row = report["results"][0]
            assert set(row) == {"T", "method", "value", "diagnostics"}
            # memo-cache hit rates over the command, None for a cache it never called
            rates = report["timing"]["cache_hit_rate"]
            assert set(rates) == {"_h_table", "_skew_schur_cached", "_tau_cached",
                                  "enumerate_up_to_weight", "horizontal_strips",
                                  "_kernel_layout"}
            assert all(r is None or 0 <= r <= 1 for r in rates.values())
        assert strip_timing(r1) == strip_timing(r2)
        assert r1["config_digest"] == r2["config_digest"]
        # the second kernel run reads the first one's layout
        assert r2["timing"]["cache_hit_rate"]["_kernel_layout"] == (
            1.0 if method == "kernel" else None)
    # the second oracle run reads the first one's strip tables
    assert r2["timing"]["cache_hit_rate"]["horizontal_strips"] == 1.0


def test_verify_reports_time_each_battery_section(tmp_path):
    # `timing` gains the sections' wall seconds; the rest of the report
    # stays deterministic, and a correlation command has no sections
    config = str(CONFIGS / "m1_twovar.json")
    for command, sections in BATTERIES.items():
        out = tmp_path / f"{command}.json"
        assert run_cli([command, "--config", config, "--out", str(out)]) == 0
        timing = read_report(out)["timing"]
        assert set(timing["sections"]) == set(sections)
        assert all(0 <= s <= timing["elapsed_s"] for s in timing["sections"].values())
    out = tmp_path / "correlate.json"
    assert run_cli(["correlate", "--config", config, "--out", str(out)]) == 0
    assert "sections" not in read_report(out)["timing"]


@pytest.mark.parametrize("command,sections", [
    (["compare"], {"oracle", "kernel"}),
    (["sweep-radii"], {"oracle", "radius_sweep"})],
    ids=["compare", "sweep-radii"])
def test_compare_and_sweep_reports_time_their_stages(tmp_path, command, sections):
    # `timing` gains each stage's wall seconds; the rest stays deterministic
    config = str(CONFIGS / "m1_singleton.json")
    reports = []
    for k in range(2):
        out = tmp_path / f"{k}.json"
        assert run_cli([command[0], "--config", config, "--out", str(out),
                        *command[1:]]) == 0
        reports.append(read_report(out))
    timing = reports[0]["timing"]
    assert set(timing["sections"]) == sections
    assert all(0 <= s <= timing["elapsed_s"] for s in timing["sections"].values())
    assert strip_timing(reports[0]) == strip_timing(reports[1])


@pytest.mark.parametrize("command", ["sweep-radii"])
def test_csv_reports_carry_the_radius_sweep_rows(tmp_path, command):
    # the oracle row's line, then one line per sweep row with the sweep's
    # points as T, the JSON report's value, and its other fields and the
    # sweep's oracle as diagnostics
    config = str(CONFIGS / "m1_singleton.json")
    out, csv_out = tmp_path / "report.json", tmp_path / "report.csv"
    assert run_cli([command, "--config", config, "--out", str(out)]) == 0
    assert run_cli([command, "--config", config, "--out", str(csv_out),
                    "--format", "csv"]) == 0
    report = read_report(out)
    lines = list(csv.DictReader(csv_out.read_text().splitlines()))
    (oracle,), sweep = report["results"], report["radius_sweep"]
    assert len(lines) == 1 + len(sweep["rows"]) == 5
    assert lines[0]["method"] == "oracle"
    assert float(lines[0]["value"]) == oracle["value"] == sweep["oracle"]
    for line, row in zip(lines[1:], sweep["rows"]):
        assert line["method"] == "radius_sweep"
        assert json.loads(line["T"]) == sweep["T"] == [[1, 0]]
        assert float(line["value"]) == row["value"]
        diagnostics = json.loads(line["diagnostics"])
        assert diagnostics == {"oracle": sweep["oracle"],
                               **{k: v for k, v in row.items() if k != "value"}}


@pytest.mark.parametrize("sign,verdict", [("paper", "PASS"), ("br", "FAIL")])
def test_a_compare_csv_keeps_its_verdict(tmp_path, sign, verdict):
    # the result lines, each row's diagnostics flat beside its other
    # fields, then one verdict line with every judge key of the report's
    # top level and the adjudication
    config = str(CONFIGS / "m1_twovar.json")
    out, csv_out = tmp_path / "report.json", tmp_path / "report.csv"
    for path, fmt in ((out, "json"), (csv_out, "csv")):
        assert run_cli(["compare", "--config", config, "--sign-convention", sign,
                        "--out", str(path), "--format", fmt]) == (
            0 if verdict == "PASS" else 3)
    report = read_report(out)
    assert report["verdict"] == verdict
    *rows, last = csv.DictReader(csv_out.read_text().splitlines())
    assert [line["method"] for line in rows] == ["oracle", "kernel"]
    oracle, kernel = report["results"]
    assert json.loads(rows[0]["diagnostics"]) == oracle["diagnostics"]
    assert json.loads(rows[1]["diagnostics"]) == {
        **kernel["diagnostics"], "delta_vs_oracle": kernel["delta_vs_oracle"]}
    assert (last["T"], last["method"], last["value"]) == ("null", "verdict", verdict)
    assert json.loads(last["diagnostics"]) == {
        key: report[key] for key in ("threshold", "rel_threshold", "reach_L",
                                     "sign_adjudication")}


@pytest.mark.parametrize("truncation,verdict", [
    (3, "INCONCLUSIVE"), (12, "INCONCLUSIVE"), (16, "PASS"), (40, "PASS")])
def test_compare_and_the_sweep_judge_alike(tmp_path, truncation, verdict):
    # the sweep's fraction-0.50 row has compare's default radii, so its value
    # is compare's kernel value bit for bit, and one rule judges both; at
    # L = 3 the oracle cannot reach the points (value 0, threshold 10), so
    # no row passes, the inadmissible reading's near-zero value among them
    reports = {}
    for command in ("compare", "sweep-radii"):
        out = tmp_path / f"{command}.json"
        run_cli([command, "--config", str(CONFIGS / "m1_twovar.json"),
                 "--truncation", str(truncation), "--out", str(out)])
        reports[command] = read_report(out)
    compare, sweep = reports["compare"], reports["sweep-radii"]["radius_sweep"]
    default = next(row for row in sweep["rows"]
                   if row["note"] == "admissible fraction 0.50")
    assert default["value"] == compare["results"][1]["value"]
    assert compare["verdict"] == verdict
    assert default["pass"] == (verdict == "PASS")
    assert truncation != 3 or not any(row["pass"] for row in sweep["rows"])
    assert (default["verdict"], default["threshold"]) == (verdict, compare["threshold"])
    assert (default["rel_threshold"], default["reach_L"]) == (
        compare["rel_threshold"], compare["reach_L"])
    assert (compare["reach_L"] is None) == (truncation != 3)


def test_a_nan_kernel_value_fails(tmp_path, monkeypatch):
    # a NaN is below no threshold: compare says FAIL and exits 3, and no
    # sweep row passes
    via_kernel = kernels.correlation_via_kernel

    def nan(*args, **kwargs):
        out = via_kernel(*args, **kwargs)
        return (float("nan"), out[1]) if isinstance(out, tuple) else float("nan")
    monkeypatch.setattr(kernels, "correlation_via_kernel", nan)
    config = str(CONFIGS / "m1_twovar.json")
    out = tmp_path / "report.json"
    assert run_cli(["compare", "--config", config, "--truncation", "40",
                    "--out", str(out)]) == 3
    report = read_report(out)
    assert (report["threshold"], report["verdict"]) == (1e-3, "FAIL")
    assert run_cli(["sweep-radii", "--config", config, "--truncation", "40",
                    "--out", str(out)]) == 0
    rows = read_report(out)["radius_sweep"]["rows"]
    assert all(row["value"] != row["value"] for row in rows)
    assert [row["pass"] for row in rows] == [False] * 4


def test_sweep_radii_builds_one_layout(tmp_path):
    # the four radius configurations share the points, so the first one's
    # assembly builds their layout and the other three read it
    out = tmp_path / "report.json"
    kernels._kernel_layout.cache_clear()
    assert run_cli(["sweep-radii", "--config", str(CONFIGS / "m2_d11.json"),
                    "--out", str(out)]) == 0
    assert kernels._kernel_layout.cache_info()[:2] == (3, 1)
    assert read_report(out)["timing"]["cache_hit_rate"]["_kernel_layout"] == 0.75


@pytest.mark.parametrize("config,truncation", [
    ("m1_twovar", 32), ("m2_d11", 31), ("m2_d11", 32), ("m2_d11", 33)])
def test_every_command_reports_one_oracle_value(tmp_path, config, truncation):
    # correlate, compare and sweep-radii read the oracle from the same row,
    # so its value agrees bit for bit across them
    reports = {}
    for command in (["correlate", "--method", "oracle"], ["compare"], ["sweep-radii"]):
        out = tmp_path / f"{command[0]}.json"
        run_cli([*command, "--config", str(CONFIGS / f"{config}.json"),
                 "--truncation", str(truncation), "--out", str(out)])
        reports[command[0]] = read_report(out)
    values = {reports["correlate"]["results"][0]["value"],
              reports["compare"]["results"][0]["value"],
              reports["sweep-radii"]["radius_sweep"]["oracle"]}
    assert len(values) == 1, values


def test_method_choices_are_the_route_table():
    method, = [a for a in _parser()._actions if a.dest == "method"]
    assert method.choices == list(verify.ROUTES)
    assert method.default in verify.ROUTES


@pytest.mark.parametrize("config", ["m1_singleton", "m1_twovar", "m2_d11"])
def test_each_route_reports_its_declared_diagnostics_in_table_order(config):
    cfgd = _load_config(str(CONFIGS / f"{config}.json"), _parser().parse_args(
        ["correlate", "--config", "unused"]))
    # m2_d11's points lie on two levels, which q-extraction cannot read
    for method, (_, keys) in verify.ROUTES.items():
        if method == "q-extraction" and config == "m2_d11":
            with pytest.raises(ValueError, match="one level's marginal"):
                verify.correlation_row(method, cfgd["spec"], cfgd["points"],
                                       cfgd["kernel_cfg"], cfgd["L"])
            continue
        row = verify.correlation_row(method, cfgd["spec"], cfgd["points"],
                                     cfgd["kernel_cfg"], cfgd["L"])
        assert list(row["diagnostics"]) == list(keys), method


def test_correlate_calls_the_oracle_through_its_module(tmp_path, monkeypatch):
    # the route table looks the oracle up at each call, so a patched
    # `measures.correlation_oracle` (as the benchmark's tracer installs) runs;
    # the route takes the value and its diagnostics from one call
    calls = []

    def spy(spec, T, L, full_output):
        calls.append((L, full_output))
        return 0.25, {"L": L, "value_truncation": None}
    monkeypatch.setattr(measures, "correlation_oracle", spy)
    out = tmp_path / "report.json"
    assert run_cli(["correlate", "--config", str(CONFIGS / "m1_singleton.json"),
                    "--method", "oracle", "--truncation", "12", "--out", str(out)]) == 0
    assert calls == [(12, True)]
    row, = read_report(out)["results"]
    assert row["value"] == 0.25
    assert row["diagnostics"] == {"L": 12, "value_truncation": None}


def test_a_reused_parser_leaks_no_flag(tmp_path):
    # the parser is built once per process: a second call without the flags
    # gives what a fresh process gives, and so does the first call
    config = str(CONFIGS / "m1_singleton.json")
    calls = [["compare", "--config", config, "--tol", "1e-6", "--sign-convention", "br"],
             ["compare", "--config", config]]
    env = {**os.environ, "PYTHONPATH": str(CONFIGS.parent / "src")}
    for i, argv in enumerate(calls):
        out = tmp_path / f"r{i}.json"
        code = run_cli([*argv, "--out", str(out)])
        fresh = subprocess.run([sys.executable, "-m", "pfschur", *argv],
                               capture_output=True, text=True, env=env)
        assert code == fresh.returncode
        assert strip_timing(read_report(out)) == strip_timing(json.loads(fresh.stdout))
    first, second = (read_report(tmp_path / f"r{i}.json") for i in range(2))
    assert first["sign_adjudication"]["convention"] == kernels.SIGN_BR
    assert second["sign_adjudication"]["convention"] == kernels.SIGN_PAPER


def test_nonconvergence_exits_2(tmp_path, capsys):
    # an outer circle grazing the 1/x pole never meets tolerance
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "process": {"rho_plus": [[0.5]], "rho_minus": [[0.5]]},
        "points": [[1, 0]],
        "kernel": {"quad_tol": 1e-10, "max_nodes": 512,
                   "radii": {"k11": 1.9995, "k12_w_lt": 0.25,
                             "k12_w_gt": 1.25, "k22": 0.75}}}))
    code = run_cli(["correlate", "--config", str(cfg), "--method", "kernel"])
    assert code == 2
    assert "non-convergence" in capsys.readouterr().err


def test_nonconvergence_names_the_entry(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "process": {"rho_plus": [[0.4], [0.3]], "rho_minus": [[0.35], [0.25]]},
        "points": [[1, 0], [2, 0]],
        "kernel": {"max_nodes": 128}}))
    code = run_cli(["correlate", "--config", str(cfg), "--method", "kernel"])
    assert code == 2
    err = capsys.readouterr().err
    assert "K12[0,1]" in err and "(128, 128) nodes" in err
    assert "last two estimates" in err


def _shipped_config(tmp_path, name, **changes):
    raw = json.loads((CONFIGS / f"{name}.json").read_text())
    raw.update(changes)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(raw))
    return cfg


def test_verify_macdonald_does_not_read_quadrature_tol(tmp_path):
    # kernel.quad_tol is the kernel routes' tolerance: verify-macdonald runs
    # its contour quadratures at a fixed 1e-9 with or without it
    raw = json.loads((CONFIGS / "m1_singleton.json").read_text())
    raw["kernel"].pop("quad_tol")
    cfg, out = tmp_path / "cfg.json", tmp_path / "report.json"
    results = []
    for quad_tol in (None, 1e-3):
        cfg.write_text(json.dumps(raw if quad_tol is None else {
            **raw, "kernel": {**raw["kernel"], "quad_tol": quad_tol}}))
        assert run_cli(["verify-macdonald", "--config", str(cfg),
                        "--out", str(out)]) == 0
        results.append(read_report(out)["results"])
    assert results[0] == results[1]
    row, = [r for r in results[0] if r["method"] == "contour_action"]
    assert row["diagnostics"]["max_nodes"] == 8
    for r in results[0]:
        if r["method"] == "iterated_actions":
            assert {"nodes", "last_delta"} <= set(r["diagnostics"])


def test_verify_macdonald_nonconvergence_names_the_action(tmp_path, capsys,
                                                          monkeypatch):
    # seed 2's first contour-action draw has r = 1
    def fail(*args, **kwargs):
        raise QuadratureError("contour integral did not converge", (1j, 2j))
    monkeypatch.setattr(macdonald.quad, "integrate_product", fail)
    cfg = _shipped_config(tmp_path, "m1_singleton", seed=2)
    assert run_cli(["verify-macdonald", "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert err == ("numerical non-convergence: contour action r=1: contour "
                   "integral did not converge; last two estimates 0+1j, 0+2j\n")


def test_golden_report_regression(tmp_path):
    golden = json.loads(
        (Path(__file__).parent / "goldens" / "m1_singleton_kernel.json").read_text())
    out = tmp_path / "report.json"
    assert run_cli(["correlate", "--config", str(CONFIGS / "m1_singleton.json"),
                    "--method", "kernel", "--out", str(out)]) == 0
    report = strip_timing(read_report(out))
    assert report["config_digest"] == golden["config_digest"]
    got, want = report["results"][0], golden["results"][0]
    assert got["T"] == want["T"] and got["method"] == want["method"]
    assert abs(got["value"] - want["value"]) < 1e-9
    assert got["diagnostics"]["nodes"] == want["diagnostics"]["nodes"]


def test_kernel_row_reports_its_radii_and_node_evaluations(tmp_path):
    out = tmp_path / "report.json"
    assert run_cli(["correlate", "--config", str(CONFIGS / "m1_singleton.json"),
                    "--method", "kernel", "--out", str(out)]) == 0
    diagnostics = read_report(out)["results"][0]["diagnostics"]
    spec = ProcessSpec([[0.5]], [[0.5]])
    assert diagnostics["radii"] == kernels.default_radii(spec)
    # K12[0,0] alone, on k11 and k12_w_gt, in one pass at 4 x 64 nodes,
    # which also serves the estimates at 64 and 128, where it converges;
    # the pass evaluates nodes 0..128 of each circle, the others being
    # their conjugates
    assert diagnostics["node_evaluations"] == 2 * (256 // 2 + 1)


def test_kernel_row_flags_its_depth_failure(tmp_path):
    # at (1, 50) every entry passes its absolute test, but the summands grow
    # like r^|t| and the Pfaffian, -1.57e-26, is a negative density; only
    # the last-doubling delta over |value| (2.6e17) shows it
    out, cfg = tmp_path / "report.json", tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"process": {"rho_plus": [[0.6, 0.3, 0.2]],
                                           "rho_minus": [[0.45, 0.35, 0.1]]},
                               "points": [[1, 50]]}))
    assert run_cli(["correlate", "--config", str(cfg), "--method", "kernel",
                    "--out", str(out)]) == 0
    row, = read_report(out)["results"]
    assert row["value"] < 0 and row["diagnostics"]["rel_last_delta"] > 1
    for name in ("m1_singleton", "m1_twovar", "m2_d11"):
        assert run_cli(["correlate", "--config", str(CONFIGS / f"{name}.json"),
                        "--method", "kernel", "--out", str(out)]) == 0
        row, = read_report(out)["results"]
        diagnostics = row["diagnostics"]
        assert diagnostics["rel_last_delta"] == (diagnostics["max_last_delta"]
                                                 / abs(row["value"]))
        assert diagnostics["rel_last_delta"] < 1e-5


def test_compare_with_sweep_flag(capsys):
    # the radius sweep is `sweep-radii`'s alone: compare takes no sweep flag
    with pytest.raises(SystemExit) as exc:
        run_cli(["compare", "--config", str(CONFIGS / "m1_singleton.json"),
                 "--sweep-radii"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --sweep-radii" in capsys.readouterr().err


def test_csv_output(tmp_path):
    out = tmp_path / "report.csv"
    assert run_cli(["correlate", "--config", str(CONFIGS / "m1_singleton.json"),
                    "--method", "oracle", "--format", "csv",
                    "--out", str(out)]) == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "T,method,value,diagnostics"
    assert "oracle" in lines[1]


def test_verify_subcommands(tmp_path):
    out = tmp_path / "report.json"
    for cmd in ("verify-symfunc", "verify-pfaffian", "verify-macdonald"):
        assert run_cli([cmd, "--config", str(CONFIGS / "m1_singleton.json"),
                        "--out", str(out)]) == 0
        report = read_report(out)
        assert report["all_pass"]


def test_verify_partition_function_truncation_flag(tmp_path):
    out = tmp_path / "report.json"
    assert run_cli(["verify-partition-function", "--config",
                    str(CONFIGS / "m1_singleton.json"), "--truncation", "30",
                    "--out", str(out)]) == 0
    assert read_report(out)["all_pass"]


def test_compare_at_truncation_zero_does_not_blame_the_kernel(tmp_path):
    # the oracle at L = 0 keeps only the empty partition: its diagnostic
    # reads 1, so the threshold is 10 and the kernel's gap is inconclusive
    out = tmp_path / "report.json"
    assert run_cli(["compare", "--config", str(CONFIGS / "m1_singleton.json"),
                    "--truncation", "0", "--out", str(out)]) == 3
    report = read_report(out)
    oracle, kernel = report["results"]
    assert oracle["value"] == 0.0 and kernel["delta_vs_oracle"] > 0.1
    assert report["truncation_diagnostic"] == 1.0
    assert report["threshold"] == 10.0 and report["verdict"] == "INCONCLUSIVE"


@pytest.mark.parametrize("sign, truncation, verdict", [
    ("br", 3, "INCONCLUSIVE"), ("br", 8, "INCONCLUSIVE"), ("br", 12, "FAIL"),
    ("br", 40, "FAIL"), ("paper", 40, "PASS")])
def test_a_short_truncation_cannot_pass_the_br_sign(tmp_path, sign, truncation,
                                                    verdict):
    # the BR sign misses by 2.7e-3, 0.58 of the value, on m1_twovar. At
    # L = 3 the oracle does not reach the points (value 0, threshold 10);
    # at L = 8 the thresholds on the distance and the relative distance
    # (0.44 and 10) exceed both; at L = 12 the relative one, 8.4e-3, no
    # longer does, though the distance stays below its 8.4e-3
    out = tmp_path / "report.json"
    code = run_cli(["compare", "--config", str(CONFIGS / "m1_twovar.json"),
                    "--sign-convention", sign, "--truncation", str(truncation),
                    "--out", str(out)])
    report = read_report(out)
    assert report["verdict"] == verdict
    assert code == (0 if verdict == "PASS" else 3)
    assert (report["threshold"] > 1e-3) == (truncation < 20)
    assert report["reach_L"] == (5 if truncation == 3 else None)


def test_verify_partition_function_checks_the_configs_process(tmp_path):
    # the config's own L = 20; the fixed specs stay at L = 40
    out = tmp_path / "report.json"
    assert run_cli(["verify-partition-function", "--config",
                    str(CONFIGS / "m2_d11.json"), "--out", str(out)]) == 0
    report = read_report(out)
    assert report["all_pass"]
    names = [row["name"] for row in report["results"]]
    assert "config process pfaffian truncated vs closed (L=20)" in names
    assert "m=2 singletons pfaffian truncated vs closed (L=40)" in names


def test_verify_report_with_a_failing_row_exits_3(tmp_path, monkeypatch):
    from pfschur import verify
    monkeypatch.setattr(verify, "battery_pfaffian", lambda seed: [
        {"name": "failing row", "value": 1.0, "tol": 0.5, "pass": False}])
    out = tmp_path / "report.json"
    assert run_cli(["verify-pfaffian", "--config", str(CONFIGS / "m1_singleton.json"),
                    "--out", str(out)]) == 3
    report = read_report(out)
    assert report["all_pass"] is False
    assert report["results"][0]["name"] == "failing row"


def test_battery_rows_write_name_and_pass_once(tmp_path):
    out = tmp_path / "report.json"
    for command in ("verify-macdonald", "verify-pfaffian"):
        assert run_cli([command, "--config", str(CONFIGS / "m1_singleton.json"),
                        "--out", str(out)]) == 0
        results = read_report(out)["results"]
        assert results and all({"name", "pass"} <= set(row) for row in results)
        for row in results:
            assert not {"name", "pass", "value"} & set(row["diagnostics"]), row
    # each verify-pfaffian row counts the Pfaffians it took and their dimensions
    assert [(row["diagnostics"]["pfaffians"], row["diagnostics"]["dims"])
            for row in results] == [(6, [2, 4, 6, 8, 10, 12]), (3, [2, 4, 6]),
                                    (6, [4, 6, 8]), (3, [2, 4, 6])]


def test_sweep_radii_command(tmp_path):
    out = tmp_path / "report.json"
    assert run_cli(["sweep-radii", "--config", str(CONFIGS / "m1_singleton.json"),
                    "--out", str(out)]) == 0
    sweep = read_report(out)["radius_sweep"]
    assert any(row["pass"] for row in sweep["rows"])
    assert any(not row["pass"] for row in sweep["rows"])


def test_console_entry_point():
    env = {**os.environ, "PYTHONPATH": str(CONFIGS.parent / "src")}
    proc = subprocess.run(
        [sys.executable, "-m", "pfschur.cli", "correlate",
         "--config", str(CONFIGS / "m1_singleton.json"), "--method", "oracle"],
        capture_output=True, text=True, env=env)
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["results"][0]["method"] == "oracle"
    proc = subprocess.run(
        [sys.executable, "-m", "pfschur", "verify-pfaffian",
         "--config", str(CONFIGS / "m1_singleton.json")],
        capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["all_pass"] is True


def test_importing_the_package_pins_blas_to_one_thread():
    # unset, each variable reads "1" after the import; a set one is kept
    names = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
    env = {k: v for k, v in os.environ.items() if k not in names}
    env["PYTHONPATH"] = str(CONFIGS.parent / "src")
    for preset in ({}, {"OMP_NUM_THREADS": "2"}):
        proc = subprocess.run(
            [sys.executable, "-c", "import os, pfschur; "
             f"print(*map(os.environ.get, {names!r}))"],
            capture_output=True, text=True, env={**env, **preset}, check=True)
        want = {name: "1" for name in names} | preset
        assert proc.stdout.split() == [want[name] for name in names]


_BASE = {"process": {"rho_plus": [[0.5]], "rho_minus": [[0.5]]},
         "points": [[1, 0]]}
CONFIG_FAULTS = {
    "max_nodes below one doubling": {**_BASE, "kernel": {"max_nodes": 100}},
    "start_nodes not a power of two": {**_BASE, "kernel": {"start_nodes": 48}},
    "top level not an object": [_BASE],
    "non-numeric truncation_weight": {**_BASE, "truncation_weight": "forty"},
    "empty specialization family": {
        "process": {"rho_plus": [[]], "rho_minus": [[]]}, "points": [[1, 0]]},
    "nan quad_tol": {**_BASE, "kernel": {"quad_tol": "nan"}},
    "unknown radius name": {**_BASE, "kernel": {"radii": {"k_11": 1.5}}},
    "non-integral truncation_weight": {**_BASE, "truncation_weight": 30.7},
    "non-integral start_nodes": {**_BASE, "kernel": {"start_nodes": 64.5}},
    "non-integral max_nodes": {**_BASE, "kernel": {"max_nodes": 256.5}},
    "non-integral seed": {**_BASE, "seed": 3.5},
    "boolean truncation_weight": {**_BASE, "truncation_weight": True},
    "boolean seed": {**_BASE, "seed": False},
    "boolean quad_tol": {**_BASE, "kernel": {"quad_tol": True}},
    "negative seed": {**_BASE, "seed": -5},
    "complex entry of one number": {
        "process": {"rho_plus": [[[0.5]]], "rho_minus": [[0.5]]}, "points": [[1, 0]]},
    "complex entry of three numbers": {
        "process": {"rho_plus": [[[0.5, 0, 7]]], "rho_minus": [[0.5]]},
        "points": [[1, 0]]},
    "non-integral point position": {**_BASE, "points": [[1, 0.5]]},
    "non-integral point level": {**_BASE, "points": [[1.9, 0]]},
    "boolean point level": {**_BASE, "points": [[True, 0]]},
    "string truncation_weight": {**_BASE, "truncation_weight": "20"},
    "string seed": {**_BASE, "seed": "7"},
    "string quad_tol": {**_BASE, "kernel": {"quad_tol": "1e-8"}},
    "string radius": {**_BASE, "kernel": {"radii": {"k11": "1.5"}}},
    "NaN quad_tol": {**_BASE, "kernel": {"quad_tol": float("nan")}},
    "string specialization value": {
        "process": {"rho_plus": [["0.5"]], "rho_minus": [[0.5]]}, "points": [[1, 0]]},
    "boolean specialization value": {
        "process": {"rho_plus": [[True]], "rho_minus": [[0.5]]}, "points": [[1, 0]]},
    "string part of a complex entry": {
        "process": {"rho_plus": [[["0.5", 0]]], "rho_minus": [[0.5]]},
        "points": [[1, 0]]},
    "null specialization value": {
        "process": {"rho_plus": [[None]], "rho_minus": [[0.5]]}, "points": [[1, 0]]},
    "object specialization value": {
        "process": {"rho_plus": [[{"a": 1}]], "rho_minus": [[0.5]]},
        "points": [[1, 0]]},
    "point that is a bare number": {**_BASE, "points": [1]},
    "point of three coordinates": {**_BASE, "points": [[1, 0, 3]]},
    "family that is a bare number": {
        "process": {"rho_plus": [5], "rho_minus": [[0.5]]}, "points": [[1, 0]]},
    "points that are a bare number": {**_BASE, "points": 5},
    "process that is a list": {**_BASE, "process": [1]},
    "misspelled top-level key": {**_BASE, "truncation_wieght": 40},
    "misspelled kernel key": {
        **_BASE, "kernel": {"sign_conventoin": "borodin_rains_1_minus_zw"}},
    "extra process key": {
        "process": {**_BASE["process"], "rho_zero": [[0.5]]}, "points": [[1, 0]]},
    "leftover quadrature section": {
        **_BASE, "quadrature": {"tol": 1e-9, "start_nodes": 64}},
    "two kernel faults": {
        **_BASE, "kernel": {"sign_convention": None, "start_nodes": 48}},
    "list kernel switch": {**_BASE, "kernel": {"h_assignment": ["slot"]}},
}
# the config-error line of faults whose text names the field and the value
FAULT_LINES = {
    "null specialization value": "config error: process: None is not a number",
    "object specialization value":
        "config error: process: {'a': 1} is not a number",
    "point that is a bare number":
        "config error: points: point 1 is not a [level, position] pair",
    "point of three coordinates":
        "config error: points: point [1, 0, 3] is not a [level, position] pair",
    "family that is a bare number":
        "config error: process: rho_plus family 5 is not a list of values",
    "points that are a bare number":
        "config error: points: 5 is not a list of [level, position] pairs",
    "process that is a list":
        "config error: process: [1] is not an object with rho_plus and rho_minus",
    "misspelled top-level key": "config error: truncation_wieght: unknown key",
    "misspelled kernel key": "config error: kernel.sign_conventoin: unknown key",
    "extra process key": "config error: process.rho_zero: unknown key",
    "leftover quadrature section": "config error: quadrature: unknown key",
    "two kernel faults": "config error: kernel: unknown sign_convention None; "
                         "start_nodes must be a power of two >= 8",
    "list kernel switch": "config error: kernel: unknown h_assignment ['slot']",
}


@pytest.mark.parametrize("fault", CONFIG_FAULTS)
def test_config_fault_is_one_config_error_line(tmp_path, capsys, fault):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(CONFIG_FAULTS[fault]))
    assert run_cli(["correlate", "--config", str(cfg), "--method", "kernel"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("config error: "), lines


@pytest.mark.parametrize("fault", FAULT_LINES)
def test_config_fault_names_the_field_and_the_value(tmp_path, capsys, fault):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(CONFIG_FAULTS[fault]))
    assert run_cli(["correlate", "--config", str(cfg), "--method", "oracle"]) == 1
    assert capsys.readouterr().err == FAULT_LINES[fault] + "\n"


def test_integral_floats_are_accepted_as_integers(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({**_BASE, "truncation_weight": 20.0, "seed": 3.0,
                               "points": [[1.0, 2.0]],
                               "kernel": {"start_nodes": 64.0, "max_nodes": 256.0}}))
    out = tmp_path / "report.json"
    assert run_cli(["correlate", "--config", str(cfg), "--method", "oracle",
                    "--out", str(out)]) == 0
    row, = read_report(out)["results"]
    L = row["diagnostics"]["L"]
    assert L == 20 and isinstance(L, int)
    assert row["T"] == [[1, 2]]


def test_booleans_are_not_numbers(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({**_BASE, "truncation_weight": True, "seed": False,
                               "kernel": {"quad_tol": True}}))
    assert run_cli(["correlate", "--config", str(cfg), "--method", "oracle"]) == 1
    err = capsys.readouterr().err
    for name in ("truncation_weight: True", "seed: False", "kernel.quad_tol: True"):
        assert f"{name} is not a number" in err


def test_strings_are_not_numbers(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "process": {"rho_plus": [["0.5"]], "rho_minus": [[0.5]]},
        "points": [[1, 0]], "truncation_weight": "20", "seed": "7",
        "kernel": {"quad_tol": "1e-8"}}))
    assert run_cli(["correlate", "--config", str(cfg), "--method", "oracle"]) == 1
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and err.startswith("config error: ")
    for name in ("process: '0.5'", "truncation_weight: '20'", "seed: '7'",
                 "kernel.quad_tol: '1e-8'"):
        assert f"{name} is not a number" in err


def test_correlate_q_extraction(tmp_path):
    out = tmp_path / "report.json"
    assert run_cli(["correlate", "--config", str(CONFIGS / "m1_twovar.json"),
                    "--method", "q-extraction", "--out", str(out)]) == 0
    row, = read_report(out)["results"]
    assert row["method"] == "q-extraction"
    # (1, 0) and (1, 2) read q1^2 q2^4: every ordered pair (i, j) of the two
    # x's sums its g = 0..2 terms, the first of them without its s_{a-g-1}
    # term at g = 2
    assert row["diagnostics"]["orders"] == [2, 4]
    assert row["diagnostics"]["terms"] == 10
    assert 1 <= row["diagnostics"]["cancellation"] < 10
    spec = ProcessSpec([[0.5, 0.25]], [[0.5, 0.25]])
    assert abs(row["value"] - correlation_oracle(spec, [(1, 0), (1, 2)], L=40)) < 1e-3


def test_q_extraction_rejects_two_levels(capsys):
    # the route reads one level's marginal, and m2_d11's points lie on two
    assert run_cli(["correlate", "--config", str(CONFIGS / "m2_d11.json"),
                    "--method", "q-extraction"]) == 1
    assert capsys.readouterr().err == (
        "config error: q-extraction reads one level's marginal, "
        "and the points lie on levels [1, 2]\n")


def test_q_extraction_reads_each_level_of_a_process(tmp_path):
    # level 2 of m2_d11's process is the one-level measure with x = (0.3)
    # and y = (0.35, 0.25, 0.4)
    process = json.loads((CONFIGS / "m2_d11.json").read_text())["process"]
    code, out = _q_extraction(tmp_path, process, [[2, 0]])
    assert code == 0
    row, = read_report(out)["results"]
    oracle = correlation_oracle(ProcessSpec.from_json(process), [(2, 0)], L=60)
    assert row["diagnostics"]["orders"] == [1]
    assert abs(row["value"] - oracle) <= 1e-14


def test_negative_seed_flag_is_a_config_error(capsys):
    assert run_cli(["verify-pfaffian", "--config", str(CONFIGS / "m1_singleton.json"),
                    "--seed", "-3"]) == 1
    assert capsys.readouterr().err == "config error: seed: -3 must be nonnegative\n"


def test_tol_flag_overrides_the_kernel_quad_tol(tmp_path, monkeypatch, capsys):
    from pfschur import kernels
    seen = []

    def spy(spec, T, cfg, full_output):
        seen.append(cfg)
        return 0.5, {"defect": 0.0, "max_last_delta": 0.0}
    monkeypatch.setattr(kernels, "correlation_via_kernel", spy)
    config = str(CONFIGS / "m1_singleton.json")  # sets kernel.quad_tol = 1e-8
    out = str(tmp_path / "report.json")
    assert run_cli(["correlate", "--config", config, "--method", "kernel",
                    "--tol", "1e-2", "--out", out]) == 0
    assert run_cli(["correlate", "--config", config, "--method", "kernel",
                    "--out", out]) == 0
    # without kernel.quad_tol the kernel runs at KernelConfig's default
    unset = _shipped_config(tmp_path, "m1_singleton", kernel={})
    assert run_cli(["correlate", "--config", str(unset), "--method", "kernel",
                    "--out", out]) == 0
    assert [cfg.quad_tol for cfg in seen] == [1e-2, 1e-8, 1e-8]
    for bad in ("-1", "nan"):
        assert run_cli(["correlate", "--config", config, "--method", "kernel",
                        "--tol", bad]) == 1
    lines = capsys.readouterr().err.splitlines()
    assert lines == ["config error: kernel: quad_tol must be positive and finite"] * 2


def _q_extraction(tmp_path, process, points, kernel=None):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"process": process, "points": points,
                               "kernel": kernel or {}}))
    out = tmp_path / "report.json"
    return run_cli(["correlate", "--config", str(cfg), "--method", "q-extraction",
                    "--out", str(out)]), out


def test_q_extraction_does_not_read_the_node_counts(tmp_path):
    # the coefficients are finite sums, so start_nodes and max_nodes,
    # validated as for the kernel, leave the report as it is
    reports = []
    for kernel in ({}, {"start_nodes": 16, "max_nodes": 48},
                   {"start_nodes": 8, "max_nodes": 16}):
        cfg = _shipped_config(tmp_path, "m1_twovar", kernel=kernel)
        out = tmp_path / "report.json"
        assert run_cli(["correlate", "--config", str(cfg), "--method", "q-extraction",
                        "--out", str(out)]) == 0
        reports.append(read_report(out)["results"])
    assert reports[1] == reports[0] and reports[2] == reports[0]
    oracle = correlation_oracle(ProcessSpec.from_json(json.loads(cfg.read_text())[
        "process"]), [(1, 0), (1, 2)], L=40)
    assert abs(reports[0][0]["value"] - oracle) < 1e-12


def test_q_extraction_of_more_than_two_live_points_is_a_config_error(tmp_path, capsys):
    code, _ = _q_extraction(tmp_path, {"rho_plus": [[0.5]], "rho_minus": [[0.5]]},
                            [[1, 0], [1, 1], [1, 2]])
    assert code == 1
    assert capsys.readouterr().err == \
        "config error: q-extraction supports d <= 2 positions at or above -n\n"


def test_q_extraction_of_unequal_families_matches_the_oracle(tmp_path):
    # the series holds for any |Y|: two x values against one y
    process = {"rho_plus": [[0.5, 0.25]], "rho_minus": [[0.5]]}
    code, out = _q_extraction(tmp_path, process, [[1, 0]])
    assert code == 0
    row, = read_report(out)["results"]
    oracle = correlation_oracle(ProcessSpec.from_json(process), [(1, 0)], L=60)
    assert abs(row["value"] - oracle) <= 1e-14


def test_q_extraction_with_every_point_stripped_reports_one(tmp_path):
    # below -n every site is occupied, as the oracle says
    process = {"rho_plus": [[0.5]], "rho_minus": [[0.5]]}
    code, out = _q_extraction(tmp_path, process, [[1, -5]])
    assert code == 0
    row, = read_report(out)["results"]
    assert row["value"] == 1.0 and row["diagnostics"] == {}
    spec = ProcessSpec.from_json(process)
    assert abs(correlation_oracle(spec, [(1, -5)], L=30) - 1.0) < 1e-12


def test_q_extraction_refuses_cancelling_terms(tmp_path, capsys):
    # m1_twovar's process at (1, 10), where the q-circle quadrature did not
    # converge at 16 nodes: exact under any node cap
    process = {"rho_plus": [[0.5, 0.25]], "rho_minus": [[0.5, 0.25]]}
    code, out = _q_extraction(tmp_path, process, [[1, 10]],
                              {"start_nodes": 8, "max_nodes": 16})
    assert code == 0
    row, = read_report(out)["results"]
    oracle = correlation_oracle(ProcessSpec.from_json(process), [(1, 10)], L=60)
    assert abs(row["value"] - oracle) <= 1e-14 * oracle
    # x's 1e-6 apart: 2^-52 times the terms' cancellation passes quad_tol,
    # so the extraction exits 2 naming itself
    process = {"rho_plus": [[0.3, 0.300001, 0.300002]], "rho_minus": [[0.3, 0.2, 0.1]]}
    code, _ = _q_extraction(tmp_path, process, [[1, 4]])
    assert code == 2
    assert capsys.readouterr().err == (
        "numerical failure: q-extraction at T=[4]: its terms cancel "
        "1.58e+10-fold, and 2^-52 times that passes quad_tol 1e-08\n")
