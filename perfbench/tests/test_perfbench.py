"""The benchmark's own tests: its correctness checks can fire, and a short run
reports every metric named in BENCHMARK.json with its unit."""

import json
import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [os.path.join(ROOT, "src"), BENCH]

import run  # noqa: E402
from hostprobe import PROBE_REF_S, HostSpeed  # noqa: E402
from pfschur.kernels import SIGN_BR, KernelConfig  # noqa: E402
from workloads import KernelWorkload  # noqa: E402


def _fail_frac(cfg, rounds=3):
    """Run the two-level d=2 operations of the kernel workload under `cfg`
    and return the share its checker rejects."""
    wl = KernelWorkload(seed=1, cfg=cfg, levels=(2,))
    ops = [op for rnd in wl.rounds[:rounds] for op in rnd if op.d == 2]
    ok = wl.check(ops, [wl.call(op) for op in ops])
    return ok.count(False) / len(ok)


def test_kernel_check_passes_paper_conventions():
    assert _fail_frac(KernelConfig()) == 0


@pytest.mark.parametrize("variant", [{"sign_convention": SIGN_BR},
                                     {"k12_regime": "literal"}])
def test_kernel_check_fires_on_wrong_convention(variant):
    assert _fail_frac(KernelConfig(**variant)) > 0


@pytest.mark.parametrize("trace", [0, 1])
def test_short_run_reports_every_named_metric(trace, capsys, monkeypatch):
    monkeypatch.setattr(run, "MIN_OPS", 1)
    monkeypatch.setattr(run, "SETUP_SAMPLES", 1)
    for var in run.BLAS_THREADS:  # restored after the test
        monkeypatch.setenv(var, "1")
    assert run.main(["--workload", "cli", "--seed", "1", "--seconds", "0",
                     "--trace", str(trace)]) == 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    named = spec["per_layer"] if trace else spec["end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in named}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1


def test_latencies_are_scaled_by_the_probe_time_at_their_start():
    host = HostSpeed(start=0.0)
    host.times, host.seconds = [0.0, 10.0], [PROBE_REF_S, 3 * PROBE_REF_S]
    # at t=5 the probe took twice its reference time: half the latency
    assert host.normalise([0.0, 5.0, 10.0], [1.0, 1.0, 1.0]) == \
        pytest.approx([1.0, 0.5, 1 / 3])
