import math

import numpy as np
import pytest

from burstfec.channel import ChannelSpec, CodeSpec, FsmcModel, SchemeSpec, ibp_from_stats
from burstfec.dist import (
    joint_error_distribution,
    marginal_error_distribution,
    sequential_joint_distribution,
)
from burstfec.models import (
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
from burstfec.oracle import exact_block_error, exact_packet_error


def make_joint(model, n, depth, cap):
    if depth >= 2:
        return joint_error_distribution(model, n, depth, cap)
    return sequential_joint_distribution(model, n, cap)


def codeword_error_rate(model, n, depth, l):
    _, probs = marginal_error_distribution(model, n, depth, l + 1)
    return 1.0 - float(probs[: l + 1].sum())


# ----------------------------------------------------------------------
# block_to_packet and the binomial baseline
# ----------------------------------------------------------------------


def test_block_to_packet_trivials():
    assert block_to_packet(0.0, 16) == 0.0
    assert block_to_packet(1.0, 3) == 1.0
    assert block_to_packet(0.25, 1) == 0.25


def test_block_to_packet_small_probability_precision():
    assert block_to_packet(1e-9, 8) == pytest.approx(8e-9, rel=1e-7)
    # naive 1-(1-p)^M would lose most digits here
    assert block_to_packet(1e-15, 10) == pytest.approx(1e-14, rel=1e-6)


@pytest.mark.parametrize("bad", [-0.1, 1.2])
def test_block_to_packet_rejects_bad_probability(bad):
    with pytest.raises(ValueError):
        block_to_packet(bad, 4)


def test_binomial_baseline_against_mpmath():
    mpmath = pytest.importorskip("mpmath")
    mpmath.mp.dps = 50
    code = CodeSpec(63, 45, 3)

    def tail(n, l, p):
        p = mpmath.mpf(p)
        return sum(
            mpmath.binomial(n, i) * p**i * (1 - p) ** (n - i)
            for i in range(l + 1, n + 1)
        )

    expected = float(1 - (1 - tail(63, 3, 0.01)) ** 16)
    assert binomial_baseline(0.01, code, 16) == pytest.approx(expected, rel=1e-12)
    # frozen copy of the same oracle value
    assert binomial_baseline(0.01, code, 16) == pytest.approx(
        0.05798231830414516, rel=1e-12
    )


def test_binomial_baseline_edge_rates():
    code = CodeSpec(5, 3, 1)
    assert binomial_baseline(0.0, code, 10) == 0.0
    assert binomial_baseline(1.0, code, 10) == 1.0
    # l = n-1 leaves only the all-errors word undecodable
    code = CodeSpec(4, 2, 3)
    expected = 1.0 - (1.0 - 0.3**4) ** 6
    assert binomial_baseline(0.3, code, 6) == pytest.approx(expected, rel=1e-12)


# ----------------------------------------------------------------------
# model 3: absorbing chain
# ----------------------------------------------------------------------


def test_absorbing_chain_rows_are_stochastic():
    model = ibp_from_stats(ChannelSpec(ber=0.1, nacf=0.6))
    joint = make_joint(model, 5, 2, 2)
    chain = absorbing_chain_from_joint(joint, 1)
    np.testing.assert_allclose(
        chain.transient.sum(axis=1) + chain.absorb, 1.0, atol=1e-12
    )
    assert chain.start.sum() + chain.start_absorbed == pytest.approx(1.0, abs=1e-12)
    assert chain.dead_rows == ()


def test_absorbing_chain_flags_unreachable_counts():
    # a zero-error channel leaves every positive count unreachable
    model = ibp_from_stats(ChannelSpec(ber=0.0, nacf=0.5))
    joint = make_joint(model, 5, 2, 3)
    chain = absorbing_chain_from_joint(joint, 2)
    assert chain.dead_rows == (1, 2)
    np.testing.assert_allclose(
        chain.transient.sum(axis=1) + chain.absorb, 1.0, atol=1e-15
    )
    assert model3_block_error(joint, 2, 2) == pytest.approx(0.0, abs=1e-15)


def test_absorbing_chain_requires_matching_cap():
    model = ibp_from_stats(ChannelSpec(ber=0.1, nacf=0.6))
    joint = make_joint(model, 5, 2, 3)
    with pytest.raises(ValueError):
        absorbing_chain_from_joint(joint, 1)


def test_absorption_cdf_is_nondecreasing_cdf():
    model = ibp_from_stats(ChannelSpec(ber=0.2, nacf=0.8))
    chain = absorbing_chain_from_joint(make_joint(model, 5, 2, 2), 1)
    values = [chain.absorption_cdf(k) for k in range(12)]
    assert all(0.0 <= v <= 1.0 for v in values)
    assert all(b >= a - 1e-15 for a, b in zip(values, values[1:]))


def test_model3_single_codeword_is_plain_tail():
    # depth 1: the "block" is one codeword, so p_I must equal its own
    # failure probability from the marginal law
    model = ibp_from_stats(ChannelSpec(ber=0.2, nacf=0.7))
    n, l = 5, 1
    joint = make_joint(model, n, 1, l + 1)
    expected = codeword_error_rate(model, n, 1, l)
    assert model3_block_error(joint, l, 1) == pytest.approx(expected, abs=1e-14)


def test_model3_two_codewords_is_joint_quadrant():
    model = ibp_from_stats(ChannelSpec(ber=0.2, nacf=0.7))
    n, l = 5, 1
    joint = make_joint(model, n, 2, l + 1)
    both_ok = float(joint.q[: l + 1, : l + 1].sum())
    assert model3_block_error(joint, l, 2) == pytest.approx(1.0 - both_ok, abs=1e-14)


@pytest.mark.parametrize("ber,nacf", [(0.05, 0.5), (0.2, 0.9), (0.5, 0.5)])
@pytest.mark.parametrize("n,l", [(4, 0), (5, 1), (5, 2), (63, 1), (63, 3), (63, 5)])
def test_model3_exact_through_depth_two(ber, nacf, n, l):
    model = ibp_from_stats(ChannelSpec(ber=ber, nacf=nacf))
    for depth in (1, 2):
        joint = make_joint(model, n, depth, l + 1)
        predicted = model3_block_error(joint, l, depth)
        assert predicted == pytest.approx(
            exact_block_error(model, n, depth, l), abs=1e-12
        )


def test_model3_depth_three_stays_close_to_oracle():
    # beyond depth 2 the codeword-level Markov assumption is an
    # approximation; on this instance it is within a few percent
    model = ibp_from_stats(ChannelSpec(ber=0.1, nacf=0.5))
    n, l, depth = 5, 1, 3
    joint = make_joint(model, n, depth, l + 1)
    predicted = model3_block_error(joint, l, depth)
    exact = exact_block_error(model, n, depth, l)
    assert predicted == pytest.approx(exact, rel=0.10)
    assert predicted != pytest.approx(exact, rel=1e-12)


@pytest.mark.parametrize("nacf", [0.0, 0.4, 0.9])
def test_model3_uncorrelated_reduces_to_independent_codewords(nacf):
    model = ibp_from_stats(ChannelSpec(ber=0.02, nacf=nacf))
    n, l, depth = 15, 1, 4
    joint = make_joint(model, n, depth, l + 1)
    predicted = model3_block_error(joint, l, depth)
    single = codeword_error_rate(model, n, depth, l)
    independent = 1.0 - (1.0 - single) ** depth
    if nacf == 0.0:
        assert predicted == pytest.approx(independent, abs=1e-10)
    else:
        # correlation must matter: the reduction only holds at nacf=0
        assert abs(predicted - independent) > 1e-6


# ----------------------------------------------------------------------
# models 1 and 2: two-state codeword chain
# ----------------------------------------------------------------------


def test_codeword_process_quadrants_from_joint():
    model = ibp_from_stats(ChannelSpec(ber=0.01, nacf=0.6))
    n, l, depth = 63, 3, 2
    joint = make_joint(model, n, depth, l + 1)
    proc = codeword_process_from_joint(joint, l)
    total = proc.nu00 + proc.nu01 + proc.nu10 + proc.nu11
    assert total == pytest.approx(1.0, abs=1e-12)
    assert proc.error_rate == pytest.approx(proc.nu10 + proc.nu11, abs=1e-14)
    assert proc.error_rate == pytest.approx(
        codeword_error_rate(model, n, depth, l), abs=1e-12
    )
    # chain rates regenerate from (error_rate, nacf)
    assert proc.alpha == pytest.approx((1 - proc.nacf) * proc.error_rate, abs=1e-15)
    assert proc.beta == pytest.approx((1 - proc.nacf) * (1 - proc.error_rate), abs=1e-15)
    assert not proc.degenerate


def test_codeword_process_covariance_identity():
    # the NACF from the quadrants must equal cov/var computed directly
    model = ibp_from_stats(ChannelSpec(ber=0.1, nacf=0.5))
    joint = make_joint(model, 3, 2, 1)
    proc = codeword_process_from_joint(joint, 0)
    p = proc.error_rate
    cov = proc.nu11 - p * p
    assert proc.nacf == pytest.approx(cov / (p - p * p), abs=1e-12)


def test_codeword_process_uncorrelated_channel():
    model = ibp_from_stats(ChannelSpec(ber=0.05, nacf=0.0))
    joint = make_joint(model, 7, 3, 2)
    proc = codeword_process_from_joint(joint, 1)
    assert proc.nacf == pytest.approx(0.0, abs=1e-10)


def test_codeword_process_bit_nacf_override():
    model = ibp_from_stats(ChannelSpec(ber=0.05, nacf=0.7))
    joint = make_joint(model, 7, 2, 2)
    proc = codeword_process_from_joint(joint, 1, bit_nacf=0.7)
    assert proc.nacf == 0.7
    assert proc.error_rate == pytest.approx(
        codeword_process_from_joint(joint, 1).error_rate, abs=1e-15
    )


def test_codeword_process_degenerate_rates():
    model = ibp_from_stats(ChannelSpec(ber=0.0, nacf=0.6))
    joint = make_joint(model, 5, 2, 2)
    proc = codeword_process_from_joint(joint, 1)
    assert proc.degenerate
    assert proc.error_rate == 0.0 and proc.nacf == 0.0
    assert two_state_block_error(proc, 8) == 0.0

    proc = codeword_process_from_rates(1.0, 0.0)
    assert proc.degenerate
    assert two_state_block_error(proc, 8) == 1.0


def test_codeword_process_rejects_bad_rates():
    with pytest.raises(ValueError):
        codeword_process_from_rates(1.2, 0.0)
    with pytest.raises(ValueError):
        codeword_process_from_rates(0.1, 1.0)


def test_two_state_block_error_by_hand_paths():
    # depth 2: enumerate the chain's four two-codeword paths directly
    proc = codeword_process_from_rates(0.1, 0.5)
    pi0, pi1 = 1.0 - proc.error_rate, proc.error_rate
    paths = {
        (0, 0): pi0 * (1.0 - proc.alpha),
        (0, 1): pi0 * proc.alpha,
        (1, 0): pi1 * proc.beta,
        (1, 1): pi1 * (1.0 - proc.beta),
    }
    assert sum(paths.values()) == pytest.approx(1.0, abs=1e-15)
    expected = paths[(0, 1)] + paths[(1, 0)] + paths[(1, 1)]
    assert two_state_block_error(proc, 2) == pytest.approx(expected, abs=1e-15)


def test_two_state_block_error_depth_one_is_error_rate():
    proc = codeword_process_from_rates(0.23, 0.6)
    assert two_state_block_error(proc, 1) == pytest.approx(0.23, abs=1e-14)


def test_two_state_block_error_uncorrelated_closed_form():
    proc = codeword_process_from_rates(0.23, 0.0)
    for depth in (1, 2, 8, 16):
        expected = 1.0 - (1.0 - 0.23) ** depth
        assert two_state_block_error(proc, depth) == pytest.approx(expected, abs=1e-12)


@pytest.mark.parametrize("ber,nacf", [(0.05, 0.5), (0.2, 0.9)])
@pytest.mark.parametrize("n,l", [(4, 0), (5, 1), (63, 1), (63, 3), (63, 5)])
def test_model1_exact_through_depth_two(ber, nacf, n, l):
    model = ibp_from_stats(ChannelSpec(ber=ber, nacf=nacf))
    for depth in (1, 2):
        joint = make_joint(model, n, depth, l + 1)
        proc = codeword_process_from_joint(joint, l)
        predicted = two_state_block_error(proc, depth)
        assert predicted == pytest.approx(
            exact_block_error(model, n, depth, l), abs=1e-12
        )


def test_model2_depth_one_is_codeword_error_rate():
    model = ibp_from_stats(ChannelSpec(ber=0.03, nacf=0.8))
    code = CodeSpec(15, 7, 2)
    result = model2_packet_error(model, code, SchemeSpec(depth=1, blocks=4))
    assert result.block_error == pytest.approx(
        codeword_error_rate(model, 15, 1, 2), abs=1e-13
    )


# ----------------------------------------------------------------------
# full compositions
# ----------------------------------------------------------------------

BENCHMARK_CODES = [CodeSpec(63, 57, 1), CodeSpec(63, 45, 3), CodeSpec(63, 36, 5)]
BUDGET_PAIRS = [SchemeSpec(*pair) for pair in [(1, 16), (2, 8), (4, 4), (8, 2), (16, 1)]]


@pytest.mark.parametrize("code", BENCHMARK_CODES)
@pytest.mark.parametrize("scheme", [BUDGET_PAIRS[0], BUDGET_PAIRS[2], BUDGET_PAIRS[4]])
def test_uncorrelated_models_collapse_to_baseline(code, scheme):
    model = ibp_from_stats(ChannelSpec(ber=0.01, nacf=0.0))
    results = evaluate_models(model, code, scheme)
    base = results["baseline"].packet_error
    for name in ("model1", "model2", "model3"):
        assert results[name].packet_error == pytest.approx(base, abs=1e-10)


def test_packet_error_monotone_in_blocks():
    model = ibp_from_stats(ChannelSpec(ber=0.01, nacf=0.6))
    code = CodeSpec(63, 45, 3)
    last = 0.0
    for blocks in (1, 2, 4, 8):
        result = model3_packet_error(model, code, SchemeSpec(depth=2, blocks=blocks))
        assert result.packet_error >= last - 1e-15
        last = result.packet_error


def test_evaluate_models_shares_joint_and_matches_standalone():
    model = ibp_from_stats(ChannelSpec(ber=0.01, nacf=0.9))
    code = CodeSpec(63, 45, 3)
    scheme = SchemeSpec(depth=4, blocks=4)
    results = evaluate_models(model, code, scheme)
    assert results["model1"].packet_error == pytest.approx(
        model1_packet_error(model, code, scheme).packet_error, abs=1e-15
    )
    assert results["model2"].packet_error == pytest.approx(
        model2_packet_error(model, code, scheme).packet_error, abs=1e-15
    )
    assert results["model3"].packet_error == pytest.approx(
        model3_packet_error(model, code, scheme).packet_error, abs=1e-15
    )
    with pytest.raises(ValueError):
        evaluate_models(model, code, scheme, which=("model9",))


# A periodic chain: every codeword errs almost surely and the codeword
# NACF is negative, which the two-state codeword chain cannot represent.
PERIODIC = FsmcModel([[0.1, 0.9], [0.9, 0.1]], [0.0, 1.0])


def test_failing_chain_stage_keeps_the_other_models():
    code, scheme = CodeSpec(63, 45, 3), SchemeSpec(depth=4, blocks=4)
    results = evaluate_models(PERIODIC, code, scheme)
    for name in ("model1", "model2"):
        assert "outside the two-state chain's parameter range" in results[name].error
        assert results[name].block_error is None and results[name].packet_error is None
    for name in ("model3", "baseline"):
        assert results[name].error is None
        assert results[name].packet_error == 1.0
    with pytest.raises(ValueError, match="parameter range"):
        model1_packet_error(PERIODIC, code, scheme)


def test_stacked_evaluation_equals_per_channel_evaluation():
    code, scheme = CodeSpec(63, 45, 3), SchemeSpec(depth=4, blocks=4)
    stack = [
        ibp_from_stats(ChannelSpec(ber=ber, nacf=nacf))
        for nacf in (0.0, 0.9)
        for ber in (0.001, 0.02)
    ] + [PERIODIC]
    stacked = evaluate_models(stack, code, scheme)
    assert stacked == [evaluate_models(model, code, scheme) for model in stack]
    three_state = FsmcModel(np.full((3, 3), 1 / 3), [0.0, 0.5, 1.0])
    with pytest.raises(ValueError, match="common state count"):
        evaluate_models([PERIODIC, three_state], code, scheme)


@pytest.mark.parametrize("name", ["model1", "model2", "model3"])
def test_models_against_exhaustive_packet_reference(name):
    # small instance with an exact multi-block packet error; all three
    # models must land in the right ballpark
    # (they are approximations, so the bound here is loose)
    model = ibp_from_stats(ChannelSpec(ber=0.1, nacf=0.5))
    code = CodeSpec(5, 3, 1)
    scheme = SchemeSpec(depth=3, blocks=2)
    exact = exact_packet_error(model, 5, 3, 1, 2)
    predicted = evaluate_models(model, code, scheme, (name,))[name].packet_error
    assert exact / 10 <= predicted <= exact * 10
    assert predicted == pytest.approx(exact, rel=0.35)


def test_model1_tracks_simulation_within_expected_envelope():
    # moderate correlation: prediction within +-50% of a fixed-seed
    # Monte Carlo run
    from burstfec.mc import SimConfig, simulate_packets

    channel = ChannelSpec(ber=0.01, nacf=0.6)
    code = CodeSpec(63, 45, 3)
    scheme = SchemeSpec(depth=2, blocks=8)
    predicted = model1_packet_error(ibp_from_stats(channel), code, scheme).packet_error
    estimate = simulate_packets(
        SimConfig(channel=channel, code=code, scheme=scheme, packets=100_000, seed=7)
    )
    assert estimate.p_hat > 0.0
    assert 0.5 <= predicted / estimate.p_hat <= 1.5


def test_model2_comparable_to_model3_on_strong_code():
    # heavily correlated channel, l=5 code at full depth: the cheap
    # marginal-based model should stay in the same accuracy class as
    # the absorbing-chain model
    from burstfec.mc import SimConfig, simulate_packets

    channel = ChannelSpec(ber=0.01, nacf=0.9)
    code = CodeSpec(63, 36, 5)
    scheme = SchemeSpec(depth=16, blocks=1)
    fsmc = ibp_from_stats(channel)
    results = evaluate_models(fsmc, code, scheme, ("model2", "model3"))
    estimate = simulate_packets(
        SimConfig(channel=channel, code=code, scheme=scheme, packets=100_000, seed=11)
    )
    assert estimate.p_hat > 0.0
    dev2 = abs(results["model2"].packet_error - estimate.p_hat) / estimate.p_hat
    dev3 = abs(results["model3"].packet_error - estimate.p_hat) / estimate.p_hat
    assert dev2 <= dev3 + 0.15
