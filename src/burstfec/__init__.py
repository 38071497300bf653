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
    stationary_vector,
)
from .dist import (
    joint_error_distribution,
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
    evaluate_models,
)
from .oracle import (
    exact_joint_law,
    exact_loss,
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
)

__all__ = [
    "ANALYTIC_MODELS",
    "BIT_GENERATOR",
    "CSV_COLUMNS",
    "ChannelParameterError",
    "ChannelSpec",
    "CiEstimate",
    "CodeSpec",
    "DepthCandidate",
    "FsmcModel",
    "ResultRow",
    "SchemeSpec",
    "SimConfig",
    "SweepSpec",
    "confidence_interval",
    "dar1_stream",
    "emit_results",
    "evaluate_models",
    "exact_joint_law",
    "exact_loss",
    "feasible_pairs",
    "ibp_from_stats",
    "joint_error_distribution",
    "marginal_error_distribution",
    "optimize_depth",
    "residual_correlation",
    "run_sweep",
    "sequential_joint_distribution",
    "simulate_packets",
    "stationary_vector",
]
