"""Tests of the benchmark itself: its checks catch bad outputs, and each
workload runs at reduced size.

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import copy
import json
import shutil
import signal
import statistics
import subprocess
import sys
import time

import pytest

import workloads
from hostspeed import REFERENCE_GAUGE_S, HostSpeed
from run import import_program
from tracing import traced_run
from workloads import Pass, Workload, scratch_cwd

CLI = import_program().cli
BENCHMARK = json.loads((workloads.ROOT / "BENCHMARK.json").read_text())
SMALL_PACKETS = 4000


def run_once(workload):
    with scratch_cwd():
        done = workload.run(CLI.main)
    return done, workload.check(done)


@pytest.fixture(scope="module")
def analytic():
    return run_once(Workload("analytic-grid", 0))


@pytest.fixture(scope="module")
def mc():
    return run_once(Workload("mc-compare", 3, packets=SMALL_PACKETS))


@pytest.fixture(scope="module")
def oracle():
    return run_once(Workload("exact-oracle", 0))


def test_each_workload_passes_its_checks(analytic, mc, oracle):
    for (_, verdict), rows in zip((analytic, mc, oracle), (900, 20, 2)):
        assert verdict.failures == []
        assert verdict.rows == rows


def test_corrupted_digest_fails(analytic):
    done, _ = analytic
    reference = copy.deepcopy(workloads.load_reference())
    reference["analytic-grid"]["csv_sha256"] = "0" * 64
    verdict = Workload("analytic-grid", 0, reference=reference).check(done)
    assert len(verdict.failures) == 1 and "sha256" in verdict.failures[0]


def test_off_reference_estimate_fails(mc):
    done, _ = mc
    reference = copy.deepcopy(workloads.load_reference())
    for entry in reference["mc-compare"]["mc"].values():
        entry["p_hat"] += 0.1
    verdict = Workload("mc-compare", 3, packets=SMALL_PACKETS, reference=reference).check(done)
    assert len(verdict.failures) == 2  # both c = 0.9 points
    assert all("SE from" in msg for msg in verdict.failures)


def test_off_binomial_estimate_fails(mc):
    done, _ = mc
    lines = done.files["out.csv"].decode().splitlines()
    mc_row = next(i for i, line in enumerate(lines) if line.startswith("mc,0.02,0,"))
    fields = lines[mc_row].split(",")
    fields[9] = "0.3"  # p_hat, where the binomial answer is 0.4579
    lines[mc_row] = ",".join(fields)
    bad = Pass(done.seconds, done.codes, done.stdout, {**done.files, "out.csv": "\n".join(lines).encode()})
    verdict = Workload("mc-compare", 3, packets=SMALL_PACKETS).check(bad)
    assert len(verdict.failures) == 1 and "p_E=0.02 c=0" in verdict.failures[0]


def test_error_row_and_failed_call_count_as_failures(mc):
    done, _ = mc
    report = json.loads(done.files["report.json"])
    report["rows"][0]["note"] = "error: boom"
    bad = Pass(done.seconds, [1], done.stdout, {**done.files, "report.json": json.dumps(report).encode()})
    verdict = Workload("mc-compare", 3, packets=SMALL_PACKETS).check(bad)
    assert verdict.rows == 20
    assert len(verdict.failures) == 2


def test_missing_outputs_fail():
    verdict = Workload("analytic-grid", 0).check(Pass(0.0, ["ValueError('x')"], [""], {}))
    assert verdict.rows == 900
    assert len(verdict.failures) == 3
    assert verdict.failures[0] == "call 0 failed: ValueError('x')"
    assert verdict.failures[1] == "no report written"
    assert "sha256" in verdict.failures[2]


def test_oracle_checks_numbers_and_exact_models(oracle):
    done, _ = oracle
    text_a, text_b = done.stdout
    # A: packet error moved by 1e-9 (1e-8 relative), past its 12 printed
    # digits; a joint-law entry moved by one unit in its 7th digit, which
    # is within what that entry was printed with.
    changed = text_a.replace("packet error : 0.103585623696", "packet error : 0.103585624696")
    changed = changed.replace("9.493747e-01", "9.493748e-01")
    wrong_model = text_b.replace("model3   : 0.0327305388672", "model3   : 0.0327305388692")
    assert changed.count("\n") == text_a.count("\n") and changed != text_a
    assert wrong_model != text_b
    verdict = Workload("exact-oracle", 0).check(Pass(0.0, [0, 0], [changed, wrong_model], {}))
    assert verdict.failures[0].startswith("oracle A: number 1 ")
    # B's model3 moved by 2e-12: off its recorded value, and off the exact
    # packet error by more than the exactness bound.
    assert verdict.failures[1].startswith("oracle B: number 24 ")
    assert "model3 is 2e-12" in verdict.failures[2]
    assert len(verdict.failures) == 3


def test_binomial_matches_the_package_baseline():
    from burstfec.channel import CodeSpec
    from burstfec.models import binomial_baseline

    for ber in (1e-4, 0.002, 0.02):
        ours = workloads.binomial_packet_error(ber, 63, 3, 16)
        assert ours == pytest.approx(binomial_baseline(ber, CodeSpec(63, 45, 3), 16), rel=1e-12)


def test_host_speed_samples_during_the_body_and_takes_the_gauge_off():
    previous = signal.getsignal(signal.SIGALRM)
    with HostSpeed() as speed:
        start = time.perf_counter()
        while time.perf_counter() - start < 0.3:
            pass
        seconds = time.perf_counter() - start
    assert signal.getsignal(signal.SIGALRM) is previous
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert len(speed.samples) >= 4  # before, after and at least two inside
    assert 0 < speed.inside < 0.5 * seconds
    expected = (seconds - speed.inside) * REFERENCE_GAUGE_S / statistics.median(speed.samples)
    assert speed.scaled(seconds) == pytest.approx(expected)
    assert speed.scaled(2 * seconds) > 1.9 * speed.scaled(seconds)


def test_traced_run_reports_every_per_layer_metric():
    with scratch_cwd():
        metrics, verdicts, failures = traced_run(CLI, 5, SMALL_PACKETS)
    assert set(metrics) == {m["name"] for m in BENCHMARK["per_layer"]}
    assert failures == [] and all(v.failures == [] for v in verdicts)
    assert metrics["dist.calls"] > 0 and metrics["oracle.patterns"] == 8 * 2**20
    assert metrics["mc.bits_simulated"] == 4 * SMALL_PACKETS * 1008
    assert all(value > 0 for value in metrics.values())


def test_command_prints_every_end_to_end_metric():
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "analytic-grid", "--seed", "2",
         "--seconds", "0", "--trace", "0"],
        cwd=workloads.ROOT, capture_output=True, text=True, timeout=120, check=True,
    )
    meta, result = (json.loads(line) for line in out.stdout.splitlines()[-2:])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] == 3 * 900
    assert set(result["metrics"]) == {m["name"] for m in BENCHMARK["end_to_end"]}
    meta = meta["meta"]
    assert meta["usable_cores"] >= 1 and meta["bit_generator"]
    assert len(meta["pass_seconds"]) == 3 and meta["raw_wall_s"] > 0 and meta["raw_setup_s"] > 0


def test_fails_without_the_program():
    with scratch_cwd() as bare:
        shutil.copy(workloads.ROOT / "BENCHMARK.json", bare)
        shutil.copytree(workloads.ROOT / "perfbench", bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        out = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "mc-compare", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=120,
        )
    assert out.returncode != 0 and out.stdout == ""
