"""Packet error probability of interleaved FEC over correlated channels.

The package predicts how often packets built from block-interleaved,
FEC-protected codewords are lost on a wireless channel with correlated
bit errors.  Three analytic models of increasing fidelity are provided,
together with a Monte Carlo simulator to validate them, exact
count-vector recursion references, parameter sweeps and an
interleaving-depth optimizer.
"""

__version__ = "0.1.0"  # before the submodules: the sweep reports it

from .channel import (
    ChannelParameterError,
    ChannelSpec,
    CodeSpec,
    FsmcModel,
    SchemeSpec,
    ibp_from_stats,
    split_transition_matrix,
    stationary_vector,
)
from .dist import (
    CountMatrixFamily,
    JointErrorDistribution,
    joint_error_distribution,
    marginal_consistency_check,
    marginal_error_distribution,
    sequential_joint_distribution,
)
from .mc import (
    BIT_GENERATOR,
    CiEstimate,
    SimConfig,
    confidence_interval,
    dar1_stream,
    simulate_packets,
)
from .models import (
    ANALYTIC_MODELS,
    AbsorbingChain,
    CodewordProcess,
    PacketErrorResult,
    absorbing_chain_from_joint,
    binomial_baseline,
    block_to_packet,
    codeword_process_from_joint,
    codeword_process_from_rates,
    evaluate_models,
    model1_packet_error,
    model2_packet_error,
    model3_block_error,
    model3_packet_error,
    two_state_block_error,
)
from .oracle import (
    exact_block_error,
    exact_joint_law,
    exact_marginal_law,
    exact_packet_error,
)
from .sweep import (
    CSV_COLUMNS,
    DepthCandidate,
    ResultRow,
    SweepSpec,
    emit_results,
    feasible_pairs,
    optimize_depth,
    residual_correlation,
    run_sweep,
    throughput,
)

__all__ = [
    "ANALYTIC_MODELS",
    "AbsorbingChain",
    "BIT_GENERATOR",
    "CSV_COLUMNS",
    "ChannelParameterError",
    "ChannelSpec",
    "CiEstimate",
    "CodeSpec",
    "CodewordProcess",
    "CountMatrixFamily",
    "DepthCandidate",
    "FsmcModel",
    "JointErrorDistribution",
    "PacketErrorResult",
    "ResultRow",
    "SchemeSpec",
    "SimConfig",
    "SweepSpec",
    "absorbing_chain_from_joint",
    "binomial_baseline",
    "block_to_packet",
    "codeword_process_from_joint",
    "codeword_process_from_rates",
    "confidence_interval",
    "dar1_stream",
    "emit_results",
    "evaluate_models",
    "exact_block_error",
    "exact_joint_law",
    "exact_marginal_law",
    "exact_packet_error",
    "feasible_pairs",
    "ibp_from_stats",
    "joint_error_distribution",
    "marginal_consistency_check",
    "marginal_error_distribution",
    "model1_packet_error",
    "model2_packet_error",
    "model3_block_error",
    "model3_packet_error",
    "optimize_depth",
    "residual_correlation",
    "run_sweep",
    "sequential_joint_distribution",
    "simulate_packets",
    "split_transition_matrix",
    "stationary_vector",
    "throughput",
    "two_state_block_error",
]
