import hashlib
import itertools
import math
import re

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from burstfec import channel as channel_module
from burstfec import models as models_module
from burstfec.channel import ChannelSpec, CodeSpec, FsmcModel, SchemeSpec, ibp_from_stats
from burstfec.dist import (
    joint_error_distribution,
    marginal_error_distribution,
    sequential_joint_distribution,
)
from burstfec.models import (
    ANALYTIC_MODELS,
    _absorbed,
    _absorbing_chains,
    _chains,
    _joint_chains,
    _lift,
    _quadrants,
    _two_state_blocks,
    evaluate_models,
)
from burstfec.oracle import exact_loss
from reference_stats import Result, one


def make_joint(model, n, depth, cap):
    """The joint law q of two adjacent codewords."""
    if depth >= 2:
        [q] = joint_error_distribution([model], n, [depth], [cap])
    else:
        [q] = sequential_joint_distribution([model], n, [cap])
    return q[0]


def codeword_error_rate(model, n, depth, l):
    probs = marginal_error_distribution([model], n, [depth], l + 1)
    return 1.0 - float(probs[0, : l + 1].sum())


def per_channel(columns):
    """A stack's columns as the one-channel results of each of its
    channels: a dict of Result by model name, from the channel's entry of
    every column."""
    entries = zip(*(zip(*column) for column in columns.values()))
    return [{name: Result(*entry) for name, entry in zip(columns, row)} for row in entries]


def block_error(name, model, n, l, depth):
    """One chain model's codeblock error on a valid (n, l) code."""
    scheme = SchemeSpec(depth=depth, blocks=1)
    return one(model, CodeSpec(n, 1, l), scheme, (name,))[name].block_error


def rate_chain(error_rate, nacf):
    """alpha and beta of the two-state chain with these rates: model 2's
    chain, whose fit is the rates themselves."""
    errors = [None]
    alpha, beta = _chains(np.array([error_rate]), np.array([nacf]), errors)
    assert errors == [None]
    return alpha.item(0), beta.item(0)


def joint_chain(q, l):
    """The quadrants nu00..nu11 of one joint law, and alpha and beta of
    the model-1 chain fitted to them."""
    errors = [None]
    quadrants = _quadrants(q[None], l)
    alpha, beta = _chains(*_joint_chains(quadrants), errors)
    assert errors == [None]
    return [nu.item(0) for nu in quadrants], alpha.item(0), beta.item(0)


def two_state_block(alpha, beta, depth):
    """P(a block of ``depth`` codewords fails) under one two-state chain."""
    errors = [None]
    block = _two_state_blocks(np.array([alpha]), np.array([beta]), [depth], errors)
    assert errors == [None]
    return block.item(0)


# ----------------------------------------------------------------------
# the packet lift and the binomial baseline
# ----------------------------------------------------------------------


def test_lift_trivials():
    assert _lift([0.0, 1.0, 0.25], [16, 3, 1]) == [0.0, 1.0, 0.25]


def test_lift_small_probability_precision():
    small, tiny = _lift([1e-9, 1e-15], [8, 10])
    assert small == pytest.approx(8e-9, rel=1e-7, abs=0.0)
    # naive 1-(1-p)^M would lose most digits here
    assert tiny == pytest.approx(1e-14, rel=1e-6, abs=0.0)


@pytest.mark.parametrize("bad", [-0.1, 1.2])
def test_block_to_packet_rejects_bad_probability(bad):
    with pytest.raises(ValueError):
        _lift([bad], [4])


BLOCK_ERRORS = st.one_of(
    st.floats(0.0, 1.0),
    st.sampled_from([0.0, 1.0, 5e-324, 2.2250738585072014e-308, 1e-300, 1.0 - 2.0**-53]),
)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(entries=st.lists(st.tuples(BLOCK_ERRORS, st.integers(1, 5000)), min_size=1, max_size=8))
def test_column_lift_equals_block_to_packet_to_the_bit(entries):
    # the reference: 1 - (1 - b)**m in log space, b itself for a certain
    # loss or one block
    block_errors, counts = map(list, zip(*entries))
    lifted = _lift(block_errors, counts)
    expected = [b if b == 1.0 or m == 1 else -math.expm1(m * math.log1p(-b)) for b, m in entries]
    assert [p.hex() for p in lifted] == [p.hex() for p in expected]
    # a rejected channel's None stays None and is not range-checked
    assert _lift([None, *block_errors], [1, *counts]) == [None, *lifted]


@pytest.mark.parametrize("bad", [-0.1, 1.2, float("nan"), -5e-324])
def test_column_lift_rejects_a_block_error_without_an_error_message(bad):
    message = re.escape(f"block error must be in [0, 1], got {bad!r}")
    with pytest.raises(ValueError, match=f"^{message}$"):
        _lift([0.5, None, bad], [4, 4, 4])


def baseline(ber, code, depth, blocks):
    """The baseline's packet error over a memoryless channel at ``ber``."""
    model = ibp_from_stats(ChannelSpec(ber=ber, nacf=0.0))
    scheme = SchemeSpec(depth=depth, blocks=blocks)
    return one(model, code, scheme, ("baseline",))["baseline"].packet_error


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
    assert baseline(0.01, code, 4, 4) == pytest.approx(expected, rel=1e-12, abs=0.0)
    # frozen copy of the same oracle value
    assert baseline(0.01, code, 4, 4) == pytest.approx(
        0.05798231830414516, rel=1e-12, abs=0.0
    )


@pytest.mark.parametrize("n, l", [(1100, 1), (2000, 30)])
def test_long_code_baseline_against_mpmath(n, l):
    # from n = 1030 a binomial coefficient overflows a float, and the
    # terms are worked out in decimal; models 1-3 are not asked for, so
    # no count recursion runs at this length
    mpmath = pytest.importorskip("mpmath")
    model = ibp_from_stats(ChannelSpec(ber=0.01, nacf=0.0))
    with mpmath.workdps(60):
        p = mpmath.mpf(model.ber)
        expected = float(
            mpmath.fsum(mpmath.binomial(n, i) * p**i * (1 - p) ** (n - i) for i in range(l + 1, n + 1))
        )
    result = one(model, CodeSpec(n, 1, l), SchemeSpec(1, 1), ("baseline",))["baseline"]
    assert result.error is None
    assert result.block_error == result.packet_error
    assert result.packet_error == pytest.approx(expected, rel=1e-14, abs=0.0)


def test_binomial_baseline_edge_rates():
    code = CodeSpec(5, 3, 1)
    assert baseline(0.0, code, 5, 2) == 0.0
    assert baseline(1.0, code, 5, 2) == 1.0
    # l = n-1 leaves only the all-errors word undecodable
    code = CodeSpec(4, 2, 3)
    expected = 1.0 - (1.0 - 0.3**4) ** 6
    assert baseline(0.3, code, 3, 2) == pytest.approx(expected, rel=1e-12, abs=0.0)


# ----------------------------------------------------------------------
# model 3: absorbing chain
# ----------------------------------------------------------------------


def test_absorbing_chain_rows_are_stochastic():
    model = ibp_from_stats(ChannelSpec(ber=0.1, nacf=0.6))
    q = make_joint(model, 5, 2, 2)
    transient, start = (part[0] for part in _absorbing_chains(q[None], 1))
    absorb = q[:2, 2] / start
    np.testing.assert_allclose(transient.sum(axis=1) + absorb, 1.0, atol=1e-12)
    assert start.sum() + q[2].sum() == pytest.approx(1.0, abs=1e-12)
    assert (start > 0.0).all()  # every count reachable: no dead rows


def test_absorbing_chain_flags_unreachable_counts():
    # a zero-error channel leaves every positive count unreachable; those
    # rows become certain absorption
    model = ibp_from_stats(ChannelSpec(ber=0.0, nacf=0.5))
    q = make_joint(model, 5, 2, 3)
    transient, start = (part[0] for part in _absorbing_chains(q[None], 2))
    assert (start > 0.0).tolist() == [True, False, False]
    np.testing.assert_allclose(transient.sum(axis=1), [1.0, 0.0, 0.0], atol=1e-15)
    assert block_error("model3", model, 5, 2, 2) == pytest.approx(0.0, abs=1e-15)


def test_absorption_cdf_is_nondecreasing_cdf():
    model = ibp_from_stats(ChannelSpec(ber=0.2, nacf=0.8))
    transient, start = _absorbing_chains(make_joint(model, 5, 2, 2)[None], 1)
    # depth k + 1: absorbed within k transitions after the first codeword
    values = [_absorbed(start, transient, [k + 1], 1).item(0) for k in range(12)]
    assert all(0.0 <= v <= 1.0 for v in values)
    assert all(b >= a - 1e-15 for a, b in zip(values, values[1:]))


def test_model3_single_codeword_is_plain_tail():
    # depth 1: the "block" is one codeword, so p_I must equal its own
    # failure probability from the marginal law
    model = ibp_from_stats(ChannelSpec(ber=0.2, nacf=0.7))
    n, l = 5, 1
    expected = codeword_error_rate(model, n, 1, l)
    assert block_error("model3", model, n, l, 1) == pytest.approx(expected, abs=1e-14)


def test_model3_two_codewords_is_joint_quadrant():
    model = ibp_from_stats(ChannelSpec(ber=0.2, nacf=0.7))
    n, l = 5, 1
    q = make_joint(model, n, 2, l + 1)
    both_ok = float(q[: l + 1, : l + 1].sum())
    assert block_error("model3", model, n, l, 2) == pytest.approx(1.0 - both_ok, abs=1e-14)


@pytest.mark.parametrize("ber,nacf", [(0.05, 0.5), (0.2, 0.9), (0.5, 0.5)])
@pytest.mark.parametrize("n,l", [(4, 0), (5, 1), (5, 2), (63, 1), (63, 3), (63, 5)])
def test_model3_exact_through_depth_two(ber, nacf, n, l):
    model = ibp_from_stats(ChannelSpec(ber=ber, nacf=nacf))
    for depth in (1, 2):
        predicted = block_error("model3", model, n, l, depth)
        assert predicted == pytest.approx(
            exact_loss(model, n, depth, l, 1)[0], abs=1e-12
        )


def test_model3_depth_three_stays_close_to_oracle():
    # beyond depth 2 the codeword-level Markov assumption is an
    # approximation; on this instance it is within a few percent
    model = ibp_from_stats(ChannelSpec(ber=0.1, nacf=0.5))
    n, l, depth = 5, 1, 3
    predicted = block_error("model3", model, n, l, depth)
    exact = exact_loss(model, n, depth, l, 1)[0]
    assert predicted == pytest.approx(exact, rel=0.10, abs=0.0)
    assert predicted != pytest.approx(exact, rel=1e-12)


@pytest.mark.parametrize("nacf", [0.0, 0.4, 0.9])
def test_model3_uncorrelated_reduces_to_independent_codewords(nacf):
    model = ibp_from_stats(ChannelSpec(ber=0.02, nacf=nacf))
    n, l, depth = 15, 1, 4
    predicted = block_error("model3", model, n, l, depth)
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
    q = make_joint(model, n, depth, l + 1)
    (nu00, nu01, nu10, nu11), alpha, beta = joint_chain(q, l)
    assert nu00 + nu01 + nu10 + nu11 == pytest.approx(1.0, abs=1e-12)
    error_rate = nu10 + nu11
    assert error_rate == pytest.approx(codeword_error_rate(model, n, depth, l), abs=1e-12)
    assert 0.0 < error_rate < 1.0  # not degenerate
    # chain rates regenerate from (error_rate, nacf)
    nacf = 1.0 - alpha - beta
    assert alpha == pytest.approx((1 - nacf) * error_rate, abs=1e-15)
    assert beta == pytest.approx((1 - nacf) * (1 - error_rate), abs=1e-15)


def test_codeword_process_covariance_identity():
    # the chain's NACF (1 - alpha - beta) must equal cov/var of the quadrants
    model = ibp_from_stats(ChannelSpec(ber=0.1, nacf=0.5))
    q = make_joint(model, 3, 2, 1)
    (_, _, nu10, nu11), alpha, beta = joint_chain(q, 0)
    p = nu10 + nu11
    cov = nu11 - p * p
    assert 1.0 - alpha - beta == pytest.approx(cov / (p - p * p), abs=1e-12)


def test_codeword_process_uncorrelated_channel():
    model = ibp_from_stats(ChannelSpec(ber=0.05, nacf=0.0))
    q = make_joint(model, 7, 3, 2)
    _, alpha, beta = joint_chain(q, 1)
    assert 1.0 - alpha - beta == pytest.approx(0.0, abs=1e-10)


def test_codeword_process_degenerate_rates():
    # an error rate of exactly 0 or 1 gives the i.i.d. chain (nacf 0)
    model = ibp_from_stats(ChannelSpec(ber=0.0, nacf=0.6))
    q = make_joint(model, 5, 2, 2)
    (_, _, nu10, nu11), alpha, beta = joint_chain(q, 1)
    assert nu10 + nu11 == 0.0 and (alpha, beta) == (0.0, 1.0)
    assert two_state_block(alpha, beta, 8) == 0.0

    alpha, beta = rate_chain(1.0, 0.0)
    assert (alpha, beta) == (1.0, 0.0)
    assert two_state_block(alpha, beta, 8) == 1.0


def test_codeword_process_rejects_bad_rates(monkeypatch):
    # model 2's range checks on its (error rate, NACF): an alternating
    # channel has a bit NACF of exactly -1
    code, scheme = CodeSpec(3, 1, 1), SchemeSpec(depth=2, blocks=2)
    alternating = FsmcModel([[0.0, 1.0], [1.0, 0.0]], [0.0, 1.0])
    result = one(alternating, code, scheme, ("model2",))["model2"]
    assert result.error == "lag-1 NACF must be in (-1, 1), got -1.0"
    assert result.block_error is None and result.packet_error is None
    # the error rate is clipped to [0, 1], so only a NaN law reaches its check
    monkeypatch.setattr(
        models_module, "marginal_error_distribution", lambda *args: np.full((1, 3), np.nan)
    )
    result = one(alternating, code, scheme, ("model2",))["model2"]
    assert result.error == "error rate must be in [0, 1], got nan"


def test_two_state_block_error_by_hand_paths():
    # depth 2: enumerate the chain's four two-codeword paths directly
    alpha, beta = rate_chain(0.1, 0.5)
    pi0, pi1 = 1.0 - 0.1, 0.1
    paths = {
        (0, 0): pi0 * (1.0 - alpha),
        (0, 1): pi0 * alpha,
        (1, 0): pi1 * beta,
        (1, 1): pi1 * (1.0 - beta),
    }
    assert sum(paths.values()) == pytest.approx(1.0, abs=1e-15)
    expected = paths[(0, 1)] + paths[(1, 0)] + paths[(1, 1)]
    assert two_state_block(alpha, beta, 2) == pytest.approx(expected, abs=1e-15)


def test_two_state_block_error_depth_one_is_error_rate():
    alpha, beta = rate_chain(0.23, 0.6)
    assert two_state_block(alpha, beta, 1) == pytest.approx(0.23, abs=1e-14)


def test_two_state_block_error_uncorrelated_closed_form():
    alpha, beta = rate_chain(0.23, 0.0)
    for depth in (1, 2, 8, 16):
        expected = 1.0 - (1.0 - 0.23) ** depth
        assert two_state_block(alpha, beta, depth) == pytest.approx(expected, abs=1e-12)


@pytest.mark.parametrize("ber,nacf", [(0.05, 0.5), (0.2, 0.9)])
@pytest.mark.parametrize("n,l", [(4, 0), (5, 1), (63, 1), (63, 3), (63, 5)])
def test_model1_exact_through_depth_two(ber, nacf, n, l):
    model = ibp_from_stats(ChannelSpec(ber=ber, nacf=nacf))
    for depth in (1, 2):
        predicted = block_error("model1", model, n, l, depth)
        assert predicted == pytest.approx(
            exact_loss(model, n, depth, l, 1)[0], abs=1e-12
        )


def test_model2_depth_one_is_codeword_error_rate():
    model = ibp_from_stats(ChannelSpec(ber=0.03, nacf=0.8))
    code = CodeSpec(15, 7, 2)
    result = one(model, code, SchemeSpec(depth=1, blocks=4), ("model2",))["model2"]
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
    results = one(model, code, scheme)
    base = results["baseline"].packet_error
    for name in ("model1", "model2", "model3"):
        assert results[name].packet_error == pytest.approx(base, abs=1e-10)


def test_packet_error_monotone_in_blocks():
    model = ibp_from_stats(ChannelSpec(ber=0.01, nacf=0.6))
    code = CodeSpec(63, 45, 3)
    last = 0.0
    for blocks in (1, 2, 4, 8):
        scheme = SchemeSpec(depth=2, blocks=blocks)
        result = one(model, code, scheme, ("model3",))["model3"]
        assert result.packet_error >= last - 1e-15
        last = result.packet_error


def test_evaluate_models_rejects_unknown_model():
    model = ibp_from_stats(ChannelSpec(ber=0.01, nacf=0.9))
    with pytest.raises(ValueError, match="model9"):
        evaluate_models([model], [CodeSpec(63, 45, 3)], [SchemeSpec(depth=4, blocks=4)], ("model9",))


# A periodic chain: every codeword errs almost surely and the codeword
# NACF is negative, which the two-state codeword chain cannot represent.
PERIODIC = FsmcModel([[0.1, 0.9], [0.9, 0.1]], [0.0, 1.0])


def test_failing_chain_stage_keeps_the_other_models():
    code, scheme = CodeSpec(63, 45, 3), SchemeSpec(depth=4, blocks=4)
    results = one(PERIODIC, code, scheme)
    for name in ("model1", "model2"):
        assert "outside the two-state chain's parameter range" in results[name].error
        assert results[name].block_error is None and results[name].packet_error is None
    for name in ("model3", "baseline"):
        assert results[name].error is None
        assert results[name].packet_error == 1.0


def test_stacked_evaluation_equals_per_channel_evaluation():
    code, scheme = CodeSpec(63, 45, 3), SchemeSpec(depth=4, blocks=4)
    stack = [
        ibp_from_stats(ChannelSpec(ber=ber, nacf=nacf))
        for nacf in (0.0, 0.9)
        for ber in (0.001, 0.02)
    ] + [PERIODIC]
    [stacked] = evaluate_models(stack, [code], [scheme] * len(stack))
    assert per_channel(stacked) == [one(model, code, scheme) for model in stack]
    three_state = FsmcModel(np.full((3, 3), 1 / 3), [0.0, 0.5, 1.0])
    with pytest.raises(ValueError, match="common state count"):
        evaluate_models([PERIODIC, three_state], [code], [scheme] * 2)
    with pytest.raises(ValueError, match="got 2 schemes for 5 channels"):
        evaluate_models(stack, [code], [scheme, scheme])


# On the (3, 1, 1) code at depth 2, model 2's chain rejects this channel:
# beta = 1.1 * (1 - error rate) is above 1 at its bit NACF of -0.1.
MODEL2_REJECTS = FsmcModel([[0.9, 0.1], [1.0, 0.0]], [0.0, 1.0])


def test_models_1_and_2_share_one_stack_with_their_own_errors(monkeypatch):
    # model 1's fit of a channel's joint law rejects only at its range's
    # rounding edge, so its rejection of the first channel is injected as
    # a NaN NACF, which the shared chain stage rejects
    joint_chains = models_module._joint_chains

    def reject_first(quadrants):
        error_rate, nacf = joint_chains(quadrants)
        nacf[0] = np.nan
        return error_rate, nacf

    monkeypatch.setattr(models_module, "_joint_chains", reject_first)
    codes, schemes = [CodeSpec(3, 1, 1)], [SchemeSpec(depth=2, blocks=2)] * 3
    stack = [ibp_from_stats(ChannelSpec(ber=ber, nacf=0.6)) for ber in (0.1, 0.02)]
    stack.append(MODEL2_REJECTS)
    [both] = evaluate_models(stack, codes, schemes, ("model1", "model2"))
    for name in ("model1", "model2"):
        assert both[name] == evaluate_models(stack, codes, schemes, (name,))[0][name]
    assert [error is None for error in both["model1"][2]] == [False, True, True]
    assert [error is None for error in both["model2"][2]] == [True, True, False]
    assert both["model1"][2][0].endswith(
        "nacf=nan) is outside the two-state chain's parameter range"
    )
    assert "outside the two-state chain's parameter range" in both["model2"][2][2]


@pytest.mark.parametrize("which", [("model1", "model2", "model3", "baseline"), ("baseline",)])
def test_empty_stack_is_rejected(which):
    with pytest.raises(ValueError, match="need at least one channel, got an empty sequence"):
        evaluate_models([], [CodeSpec(63, 45, 3)], [], which)


def test_stack_works_out_each_channel_statistic_once(monkeypatch):
    # each channel's lag-1 NACF once, when it is built, and the baseline's
    # binomial tails once per distinct ber of the stack, for every code
    nacfs, tails = [], []
    lag1_nacf, tail = channel_module._lag1_nacf, models_module._binomial_tails
    monkeypatch.setattr(channel_module, "_lag1_nacf", lambda *a: nacfs.append(a) or lag1_nacf(*a))
    monkeypatch.setattr(
        models_module, "_binomial_tails", lambda n, ls, p: tails.append((n, *ls, p)) or tail(n, ls, p)
    )
    channels = [
        ibp_from_stats(ChannelSpec(ber=ber, nacf=nacf))
        for nacf in (0.3, 0.9)
        for ber in (0.001, 0.02)
    ]
    assert len(nacfs) == len(channels)
    code = CodeSpec(63, 45, 3)
    stack = [*channels, PERIODIC] * len(BUDGET_PAIRS)
    schemes = [scheme for scheme in BUDGET_PAIRS for _ in range(len(channels) + 1)]
    stacked = evaluate_models(stack, BENCHMARK_CODES, schemes)
    for c in channels:
        c.lag1_nacf()
    assert len(nacfs) == len(channels)
    assert sorted(tails) == sorted({(63, 1, 3, 5, c.ber) for c in stack})
    monkeypatch.undo()
    for code, columns in zip(BENCHMARK_CODES, stacked):
        assert per_channel(columns) == [one(c, code, s) for c, s in zip(stack, schemes)]


def test_chain_stage_values_are_pinned_to_the_bit():
    # every block and packet error (as float.hex) or error string of the
    # default grid's 15 channels plus PERIODIC; the CSV keeps 12
    # significant digits, so this is what pins the chain stage's arithmetic
    stack = [
        ibp_from_stats(ChannelSpec(ber=ber, nacf=nacf))
        for nacf in (0.3, 0.6, 0.9)
        for ber in (0.0001, 0.001, 0.005, 0.01, 0.02)
    ] + [PERIODIC]
    lines = []
    for code in BENCHMARK_CODES:
        for scheme in BUDGET_PAIRS:
            for results in per_channel(evaluate_models(stack, [code], [scheme] * len(stack))[0]):
                lines += [
                    r.error if r.error is not None
                    else f"{r.block_error.hex()} {r.packet_error.hex()}"
                    for r in results.values()
                ]
    assert len(lines) == 15 * 16 * 4
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert digest == "3f1fab6add4521d186af4d769a3942ea283500fc3758c37aa2c8eb1b705ba5e8"


@pytest.mark.parametrize("name", ["model1", "model2", "model3"])
def test_models_against_exhaustive_packet_reference(name):
    # small instance with an exact multi-block packet error; all three
    # models must land in the right ballpark
    # (they are approximations, so the bound here is loose)
    model = ibp_from_stats(ChannelSpec(ber=0.1, nacf=0.5))
    code = CodeSpec(5, 3, 1)
    scheme = SchemeSpec(depth=3, blocks=2)
    exact = exact_loss(model, 5, 3, 1, 2)[1]
    predicted = one(model, code, scheme, (name,))[name].packet_error
    assert exact / 10 <= predicted <= exact * 10
    assert predicted == pytest.approx(exact, rel=0.35, abs=0.0)


def test_model1_tracks_simulation_within_expected_envelope():
    # moderate correlation: prediction within +-50% of a fixed-seed
    # Monte Carlo run
    from burstfec.mc import SimConfig, simulate_packets

    channel = ChannelSpec(ber=0.01, nacf=0.6)
    code = CodeSpec(63, 45, 3)
    scheme = SchemeSpec(depth=2, blocks=8)
    results = one(ibp_from_stats(channel), code, scheme, ("model1",))
    predicted = results["model1"].packet_error
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
    results = one(fsmc, code, scheme, ("model2", "model3"))
    estimate = simulate_packets(
        SimConfig(channel=channel, code=code, scheme=scheme, packets=100_000, seed=11)
    )
    assert estimate.p_hat > 0.0
    dev2 = abs(results["model2"].packet_error - estimate.p_hat) / estimate.p_hat
    dev3 = abs(results["model3"].packet_error - estimate.p_hat) / estimate.p_hat
    assert dev2 <= dev3 + 0.15


# ----------------------------------------------------------------------
# property: the stacked chain stage on any finite-state channel
# ----------------------------------------------------------------------


@st.composite
def channel_stacks(draw):
    """1-4 channels with one common state count (2 or 3): random chains
    (zeros allowed), periodic cycles, strongly switching (negatively
    correlated) chains, and channels with ber 0 or 1."""
    states = draw(st.integers(2, 3))
    unit = st.floats(0.0, 1.0)
    stack = []
    for _ in range(draw(st.integers(1, 4))):
        kind = draw(st.sampled_from(["random", "periodic", "switching", "ber0", "ber1"]))
        if kind == "periodic":
            transition = np.roll(np.eye(states), 1, axis=1)
        elif kind == "switching":
            stay = draw(st.floats(0.0, 0.2))
            transition = np.full((states, states), (1.0 - stay) / (states - 1))
            np.fill_diagonal(transition, stay)
        else:
            rows = [draw(st.lists(unit, min_size=states, max_size=states)) for _ in range(states)]
            assume(all(sum(row) > 0.05 for row in rows))
            transition = np.array([np.array(row) / sum(row) for row in rows])
        profile = {
            "ber0": [0.0] * states,
            "ber1": [1.0] * states,
        }.get(kind) or draw(st.lists(unit, min_size=states, max_size=states))
        try:
            stack.append(FsmcModel(transition, profile))
        except ValueError:  # no unique stationary law
            assume(False)
    return stack


SCHEMES = st.builds(SchemeSpec, depth=st.integers(1, 4), blocks=st.integers(1, 3))


@settings(max_examples=80, deadline=None, derandomize=True)
@example(
    stack=[PERIODIC, FsmcModel([[0, 1], [1, 0]], [0, 1])], n=4, l=1,
    schemes=[SchemeSpec(2, 2)] * 4,
)
@example(
    stack=[FsmcModel([[0.5, 0.5], [0.5, 0.5]], [0.0, 0.0]),
           FsmcModel([[0.3, 0.7], [0.6, 0.4]], [1.0, 1.0])],
    n=3, l=0, schemes=[SchemeSpec(1, 3)] * 4,
)
@example(  # models 1 and 2 fail on the periodic chain at depths 2, 4 and 8
    stack=[PERIODIC] * 4, n=63, l=3,
    schemes=[SchemeSpec(1, 16), SchemeSpec(2, 8), SchemeSpec(4, 4), SchemeSpec(8, 2)],
)
@given(
    stack=channel_stacks(),
    n=st.integers(2, 6),
    l=st.integers(0, 2),
    schemes=st.lists(SCHEMES, min_size=4, max_size=4),
)
def test_stacked_chain_stage_on_any_fsmc(stack, n, l, schemes):
    assume(l < n)
    code, schemes = CodeSpec(n, 1, l), schemes[: len(stack)]
    [columns] = evaluate_models(stack, [code], schemes)
    stacked = per_channel(columns)
    assert len(stacked) == len(stack)
    # a stack of the channels sharing one scheme gives the same floats and
    # the same error strings as the mixed-scheme stack
    for scheme in set(schemes):
        chosen = [i for i, s in enumerate(schemes) if s == scheme]
        [alike] = evaluate_models([stack[i] for i in chosen], [code], [scheme] * len(chosen))
        alike = per_channel(alike)
        assert alike == [stacked[i] for i in chosen]
    for channel, scheme, results in zip(stack, schemes, stacked):
        # every model gives a probability or its own error
        for result in results.values():
            if result.error is None:
                assert 0.0 <= result.block_error <= 1.0
                assert 0.0 <= result.packet_error <= 1.0
            else:
                assert result.error and result.block_error is None and result.packet_error is None
        # a stack of one gives the same floats and the same error strings
        assert one(channel, code, scheme) == results
        # at depth <= 2 models 1 and 3 are exact wherever they give a value
        if scheme.depth <= 2:
            exact = exact_loss(channel, n, scheme.depth, l, 1)[0]
            for name in ("model1", "model3"):
                if results[name].error is None:
                    assert results[name].block_error == pytest.approx(exact, abs=1e-12)


@settings(max_examples=60, deadline=None, derandomize=True)
@example(  # the default grid's codes: one walk at cap 6 gives caps 2, 4 and 6
    stack=[ibp_from_stats(ChannelSpec(ber=0.01, nacf=0.9))] * 4, n=63, ls=[1, 3, 5],
    schemes=[SchemeSpec(1, 16), SchemeSpec(2, 8), SchemeSpec(4, 4), SchemeSpec(8, 2)],
)
@example(  # one two-state chain stack for all three codes, whose chains reject
    # different channels per code: model 2 rejects PERIODIC at l = 0 and 2
    # and MODEL2_REJECTS at l = 1 and 2, model 1 MODEL2_REJECTS at l = 2
    stack=[
        ibp_from_stats(ChannelSpec(ber=0.01, nacf=0.9)), MODEL2_REJECTS, PERIODIC,
        ibp_from_stats(ChannelSpec(ber=0.2, nacf=0.5)),
    ],
    n=3, ls=[0, 1, 2],
    schemes=[SchemeSpec(1, 2), SchemeSpec(2, 1), SchemeSpec(4, 1), SchemeSpec(2, 3)],
)
@given(
    stack=channel_stacks(),
    n=st.integers(2, 7),
    ls=st.lists(st.integers(0, 4), min_size=1, max_size=3),
    schemes=st.lists(SCHEMES, min_size=4, max_size=4),
)
def test_code_sequence_equals_one_call_per_code(stack, n, ls, schemes):
    # the count recursions run once at the largest cap; every code's
    # results are the floats and error strings of a call for that code
    codes, schemes = [CodeSpec(n, 1, l) for l in ls if l < n], schemes[: len(stack)]
    assume(codes)
    grouped = evaluate_models(stack, codes, schemes)
    assert grouped == [evaluate_models(stack, [code], schemes)[0] for code in codes]
    alone = evaluate_models(stack[:1], codes, schemes[:1])
    assert alone == [evaluate_models(stack[:1], [code], schemes[:1])[0] for code in codes]


POINT_STATS = st.tuples(st.sampled_from([0.001, 0.02, 0.2]), st.sampled_from([0.0, 0.5, 0.9]))


@settings(max_examples=25, deadline=None, derandomize=True)
@example(  # model 2 rejects MODEL2_REJECTS at l = 1 and 2, and PERIODIC at
    # l = 0 and 2; model 1 rejects MODEL2_REJECTS at l = 2
    points=[(0.02, 0.9), (0.2, 0.5)], n=3, ls=[0, 1, 2],
    schemes=[SchemeSpec(1, 2), SchemeSpec(2, 3), SchemeSpec(2, 1), SchemeSpec(4, 1)],
)
@given(
    points=st.lists(POINT_STATS, min_size=1, max_size=3),
    n=st.integers(3, 6),
    ls=st.lists(st.integers(0, 2), min_size=2, max_size=3, unique=True),
    schemes=st.lists(SCHEMES, min_size=5, max_size=5),
)
def test_mixed_stack_columns_equal_the_one_channel_results(points, n, ls, schemes):
    # depth-1 entries beside deeper ones, channels the chains reject and
    # several codes: each column entry is the one-channel result's field,
    # for every subset of the models
    stack = [ibp_from_stats(ChannelSpec(ber, nacf)) for ber, nacf in points]
    stack += [MODEL2_REJECTS, PERIODIC]
    schemes, codes = schemes[: len(stack)], [CodeSpec(n, 1, l) for l in ls]
    assume({scheme.depth == 1 for scheme in schemes} == {True, False})
    for size in range(len(ANALYTIC_MODELS) + 1):
        for which in itertools.combinations(ANALYTIC_MODELS, size):
            for code, columns in zip(codes, evaluate_models(stack, codes, schemes, which)):
                assert list(columns) == list(which)
                for block_errors, packet_errors, errors in columns.values():
                    # a rejected channel has its message and no numbers
                    assert [b is None for b in block_errors] == [e is not None for e in errors]
                    assert [p is None for p in packet_errors] == [e is not None for e in errors]
                for i, (channel, scheme) in enumerate(zip(stack, schemes)):
                    alone = one(channel, code, scheme, which)
                    assert list(alone) == list(which)
                    for name, result in alone.items():
                        block_errors, packet_errors, errors = columns[name]
                        assert (block_errors[i], packet_errors[i], errors[i]) == (
                            result.block_error, result.packet_error, result.error
                        )


def test_code_sequence_needs_one_codeword_length():
    channel = ibp_from_stats(ChannelSpec(ber=0.01, nacf=0.5))
    scheme = SchemeSpec(depth=2, blocks=2)
    with pytest.raises(ValueError, match=r"codes of one length n, got \[7, 15\]"):
        evaluate_models([channel], [CodeSpec(15, 7, 2), CodeSpec(7, 4, 1)], [scheme])
    with pytest.raises(ValueError, match=r"codes of one length n, got \[\]"):
        evaluate_models([channel], [], [scheme])
