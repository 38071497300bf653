import dataclasses
import os
import subprocess
import sys
from pathlib import Path

import pytest

import burstfec
from burstfec import channel, dist, mc, models, oracle, sweep
from burstfec.channel import ChannelSpec, SchemeSpec, ibp_from_stats
from burstfec.cli import DEFAULT_CONFIG, build_parser
from burstfec.sweep import SweepSpec

PUBLIC_NAMES = [
    "ANALYTIC_MODELS", "BIT_GENERATOR", "CSV_COLUMNS", "ChannelParameterError",
    "ChannelSpec", "CiEstimate", "CodeSpec", "DepthCandidate", "FsmcModel",
    "ResultRow", "SchemeSpec", "SimConfig", "SweepSpec", "confidence_interval",
    "dar1_stream", "emit_results", "evaluate_models",
    "exact_joint_law", "exact_loss", "feasible_pairs",
    "ibp_from_stats", "joint_error_distribution",
    "marginal_error_distribution", "optimize_depth",
    "residual_correlation", "run_sweep", "sequential_joint_distribution",
    "simulate_packets", "stationary_vector",
]


def readme_block(heading):
    """The first fenced Python block under a README heading."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = text.split(f"\n## {heading}\n", 1)[1]
    return section.split("```python\n", 1)[1].split("```", 1)[0]


def test_readme_library_example_runs(capsys):
    # the documented use of the public API: one line per depth, each the
    # depth and a model-3 packet error probability
    exec(compile(readme_block("Library example"), "README.md", "exec"), {})
    lines = capsys.readouterr().out.splitlines()
    assert [int(line.split()[0]) for line in lines] == [1, 4, 16]
    assert all(0.0 < float(line.split()[1]) < 1.0 for line in lines)


def test_public_names_are_pinned_and_resolve():
    assert len(PUBLIC_NAMES) == 29
    assert sorted(burstfec.__all__) == PUBLIC_NAMES
    for name in PUBLIC_NAMES:
        assert hasattr(burstfec, name), name


@pytest.mark.parametrize("module,name", [
    (mc, "CiEstimate"), (mc, "SimConfig"), (mc, "confidence_interval"), (mc, "dar1_stream"),
    (mc, "simulate_packets"), (oracle, "exact_joint_law"), (oracle, "exact_loss"),
])
def test_lazy_names_are_their_modules_objects(module, name):
    # the Monte Carlo and the oracle load on first use of one of their names
    assert getattr(burstfec, name) is getattr(module, name)


def test_lazy_names_import_from_the_package():
    from burstfec import exact_loss, simulate_packets

    assert simulate_packets is mc.simulate_packets and exact_loss is oracle.exact_loss


def test_unknown_package_attribute_raises_attribute_error():
    with pytest.raises(AttributeError, match="has no attribute 'no_such_name'"):
        burstfec.no_such_name
    with pytest.raises(ImportError):
        from burstfec import no_such_name  # noqa: F401


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
    "PacketErrorResult", "block_to_packet",
])
def test_models_have_one_entry_point(name):
    # evaluate_models takes a stack and returns columns; _lift is the one
    # block-to-packet lift
    assert not hasattr(burstfec, name)
    assert not hasattr(models, name)


@pytest.mark.parametrize("module,name", [(channel, "split_transition_matrix"), (sweep, "throughput")])
def test_duplicate_arithmetic_stays_deleted(module, name):
    # the one-codeword recursion splits the transition matrices of its
    # stack itself, and every sweep row works out its throughput inline
    assert not hasattr(burstfec, name)
    assert not hasattr(module, name)
    model = ibp_from_stats(ChannelSpec(ber=0.01, nacf=0.5))
    assert not hasattr(model, "d0") and not hasattr(model, "d1")


def test_deleted_options_stay_deleted():
    assert not hasattr(SchemeSpec, "for_budget")
    assert "slot" not in {field.name for field in dataclasses.fields(ChannelSpec)}
    assert "slot" not in {field.name for field in dataclasses.fields(SweepSpec)}
    assert "slot" not in DEFAULT_CONFIG["channel"]
    with pytest.raises(SystemExit):
        build_parser().parse_args(["analyze", "--slot", "1e-6"])


def cli_import_loads(module):
    """Whether a fresh interpreter has ``module`` loaded after ``import burstfec.cli``."""
    src = str(Path(burstfec.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    probe = f"import sys, burstfec.cli; print({module!r} in sys.modules)"
    done = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, env=env, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout in ("True\n", "False\n"), done.stdout
    return done.stdout == "True\n"


def test_importing_the_cli_leaves_the_thread_pool_out():
    # only simulate_packets with workers > 1 needs concurrent.futures
    assert not cli_import_loads("concurrent.futures")


@pytest.mark.parametrize("module", [
    "statistics", "decimal", "fractions", "numpy.random", "burstfec.mc", "burstfec.oracle",
])
def test_importing_the_cli_leaves_out_what_only_some_verbs_need(module):
    # only a confidence interval needs statistics (which loads fractions
    # and decimal), only the baseline of a code of n >= 1030 decimal, only
    # a simulation numpy.random and the Monte Carlo, and only the oracle
    # verb the oracle
    assert not cli_import_loads(module)
