import dataclasses
import os
import subprocess
import sys
from pathlib import Path

import pytest

import burstfec
from burstfec import dist, models, oracle
from burstfec.channel import ChannelSpec, SchemeSpec
from burstfec.cli import DEFAULT_CONFIG, build_parser
from burstfec.sweep import SweepSpec

PUBLIC_NAMES = [
    "ANALYTIC_MODELS", "BIT_GENERATOR", "CSV_COLUMNS", "ChannelParameterError",
    "ChannelSpec", "CiEstimate", "CodeSpec", "DepthCandidate", "FsmcModel",
    "PacketErrorResult", "ResultRow", "SchemeSpec", "SimConfig", "SweepSpec",
    "binomial_baseline", "block_to_packet", "confidence_interval",
    "dar1_stream", "emit_results", "evaluate_models",
    "exact_joint_law", "exact_loss", "feasible_pairs",
    "ibp_from_stats", "joint_error_distribution",
    "marginal_error_distribution", "optimize_depth",
    "residual_correlation", "run_sweep", "sequential_joint_distribution",
    "simulate_packets", "split_transition_matrix", "stationary_vector", "throughput",
]


def test_public_names_are_pinned_and_resolve():
    assert len(PUBLIC_NAMES) == 34
    assert sorted(burstfec.__all__) == PUBLIC_NAMES
    for name in PUBLIC_NAMES:
        assert hasattr(burstfec, name), name


@pytest.mark.parametrize("module,name", [
    (dist, "CountMatrixFamily"), (dist, "JointErrorDistribution"),
    (dist, "marginal_consistency_check"), (oracle, "exact_block_error"),
    (oracle, "exact_packet_error"), (oracle, "_loss"),
])
def test_count_law_wrappers_stay_deleted(module, name):
    # the count recursions return plain arrays and exact_loss both loss values
    assert not hasattr(burstfec, name)
    assert not hasattr(module, name)


@pytest.mark.parametrize("name", [
    "model1_packet_error", "model2_packet_error", "model3_packet_error",
    "absorbing_chain_from_joint", "model3_block_error", "codeword_process_from_joint",
    "codeword_process_from_rates", "two_state_block_error", "AbsorbingChain", "CodewordProcess",
])
def test_models_have_one_entry_point(name):
    assert not hasattr(burstfec, name)
    assert not hasattr(models, name)


def test_packet_error_result_holds_only_what_callers_read():
    fields = [field.name for field in dataclasses.fields(models.PacketErrorResult)]
    assert fields == ["block_error", "packet_error", "error"]


def test_deleted_options_stay_deleted():
    assert not hasattr(SchemeSpec, "for_budget")
    assert "slot" not in {field.name for field in dataclasses.fields(ChannelSpec)}
    assert "slot" not in {field.name for field in dataclasses.fields(SweepSpec)}
    assert "slot" not in DEFAULT_CONFIG["channel"]
    with pytest.raises(SystemExit):
        build_parser().parse_args(["analyze", "--slot", "1e-6"])


def test_importing_the_cli_leaves_the_thread_pool_out():
    # only simulate_packets with workers > 1 needs concurrent.futures
    src = str(Path(burstfec.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    probe = "import sys, burstfec.cli; print('concurrent.futures' in sys.modules)"
    done = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, env=env, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout == "False\n"
