"""Packet error probability of interleaved FEC over correlated channels.

The package predicts how often packets built from block-interleaved,
FEC-protected codewords are lost on a wireless channel with correlated
bit errors.  Three analytic models of increasing fidelity are provided,
together with a Monte Carlo simulator to validate them, exact
count-vector recursion references, parameter sweeps and an
interleaving-depth optimizer.
"""

import importlib

# before the submodules: the sweep reports the version and the Monte
# Carlo's identity
__version__ = "0.1.0"
BIT_GENERATOR = "philox"  # pinned counter-based generator, echoed in reports
SAMPLER = "sojourn-or-gap-cut-inversion"  # error-stream encodings and length rule, echoed in reports

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
from .models import (
    ANALYTIC_MODELS,
    evaluate_models,
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

# The Monte Carlo and the exact oracle load on first use: a verb that
# never runs them (analyze, optimize) never compiles them.
_LAZY = {
    "CiEstimate": "mc",
    "SimConfig": "mc",
    "confidence_interval": "mc",
    "dar1_stream": "mc",
    "simulate_packets": "mc",
    "exact_joint_law": "oracle",
    "exact_loss": "oracle",
}


def __getattr__(name):
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f".{_LAZY[name]}", __name__), name)
