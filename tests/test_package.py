import dataclasses

import pytest

import burstfec
from burstfec import models
from burstfec.channel import ChannelSpec, SchemeSpec
from burstfec.cli import DEFAULT_CONFIG, build_parser
from burstfec.sweep import SweepSpec

PUBLIC_NAMES = [
    "ANALYTIC_MODELS", "BIT_GENERATOR", "CSV_COLUMNS", "ChannelParameterError",
    "ChannelSpec", "CiEstimate", "CodeSpec", "DepthCandidate", "FsmcModel",
    "PacketErrorResult", "ResultRow", "SchemeSpec", "SimConfig", "SweepSpec",
    "binomial_baseline", "block_to_packet", "confidence_interval",
    "dar1_stream", "emit_results", "evaluate_models", "exact_block_error",
    "exact_joint_law", "exact_marginal_law", "exact_packet_error", "feasible_pairs",
    "ibp_from_stats", "joint_error_distribution", "marginal_consistency_check",
    "marginal_error_distribution", "optimize_depth",
    "residual_correlation", "run_sweep", "sequential_joint_distribution",
    "simulate_packets", "split_transition_matrix", "stationary_vector", "throughput",
]


def test_public_names_are_pinned_and_resolve():
    assert len(PUBLIC_NAMES) == 37
    assert sorted(burstfec.__all__) == PUBLIC_NAMES
    for name in PUBLIC_NAMES:
        assert hasattr(burstfec, name), name


def test_result_classes_stay_importable_from_their_modules():
    from burstfec.dist import CountMatrixFamily, JointErrorDistribution

    for cls in (CountMatrixFamily, JointErrorDistribution):
        assert cls.__name__ not in burstfec.__all__


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
