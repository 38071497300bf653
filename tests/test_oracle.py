import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from burstfec import oracle
from burstfec.channel import ChannelSpec, FsmcModel, ibp_from_stats
from burstfec.dist import joint_error_distribution, marginal_error_distribution
from burstfec.oracle import exact_joint_law, exact_loss


def chain_matrices(ber, nacf):
    model = ibp_from_stats(ChannelSpec(ber=ber, nacf=nacf))
    return model.pi, model.transition, (model.d0, model.d1)


def stream_probability(pi, kernels, pattern):
    """P(exact error pattern over consecutive slots), plain loop arithmetic."""
    vec = pi.copy()
    for err in pattern:
        vec = vec @ kernels[err]
    return float(vec.sum())


# ----------------------------------------------------------------------
# cross-checks against direct slot-stream enumeration
# ----------------------------------------------------------------------


def test_single_pair_by_hand():
    pi, _, kernels = chain_matrices(0.2, 0.7)
    q = exact_joint_law(ibp_from_stats(ChannelSpec(ber=0.2, nacf=0.7)), 1, 2, 1)
    for a in (0, 1):
        for b in (0, 1):
            assert q[a, b] == pytest.approx(
                stream_probability(pi, kernels, (a, b)), abs=1e-15
            )


def test_quarter_table_for_fair_uncorrelated_bit():
    model = ibp_from_stats(ChannelSpec(ber=0.5, nacf=0.0))
    np.testing.assert_allclose(
        exact_joint_law(model, 1, 2, 1), np.full((2, 2), 0.25), atol=1e-15
    )


@pytest.mark.parametrize("n,depth", [(2, 2), (3, 2), (2, 3)])
def test_joint_law_against_slot_streams(n, depth):
    # group the full slot-stream law by per-codeword counts, using the
    # interleaved position map directly
    ber, nacf = 0.15, 0.6
    model = ibp_from_stats(ChannelSpec(ber=ber, nacf=nacf))
    pi, _, kernels = chain_matrices(ber, nacf)
    slots = n * depth
    expected = np.zeros((n + 1, n + 1))
    for pattern in itertools.product((0, 1), repeat=slots):
        counts = [0] * depth
        for slot, err in enumerate(pattern):
            counts[slot % depth] += err
        expected[counts[0], counts[1]] += stream_probability(pi, kernels, pattern)
    np.testing.assert_allclose(
        exact_joint_law(model, n, depth, n), expected, atol=1e-14
    )


def test_depth_one_joint_uses_back_to_back_codewords():
    ber, nacf = 0.15, 0.6
    model = ibp_from_stats(ChannelSpec(ber=ber, nacf=nacf))
    pi, _, kernels = chain_matrices(ber, nacf)
    n = 3
    expected = np.zeros((n + 1, n + 1))
    for pattern in itertools.product((0, 1), repeat=2 * n):
        expected[sum(pattern[:n]), sum(pattern[n:])] += stream_probability(
            pi, kernels, pattern
        )
    np.testing.assert_allclose(exact_joint_law(model, n, 1, n), expected, atol=1e-14)


def test_marginal_law_against_slot_streams():
    ber, nacf = 0.1, 0.8
    model = ibp_from_stats(ChannelSpec(ber=ber, nacf=nacf))
    pi, _, kernels = chain_matrices(ber, nacf)
    n, depth = 3, 3
    expected = np.zeros(n + 1)
    for pattern in itertools.product((0, 1), repeat=n * depth):
        count = sum(err for slot, err in enumerate(pattern) if slot % depth == 0)
        expected[count] += stream_probability(pi, kernels, pattern)
    np.testing.assert_allclose(
        exact_joint_law(model, n, depth, n).sum(axis=1), expected, atol=1e-14
    )


def test_block_error_against_slot_streams():
    ber, nacf = 0.2, 0.5
    model = ibp_from_stats(ChannelSpec(ber=ber, nacf=nacf))
    pi, _, kernels = chain_matrices(ber, nacf)
    n, depth, l = 2, 2, 0
    failed = 0.0
    for pattern in itertools.product((0, 1), repeat=n * depth):
        counts = [0] * depth
        for slot, err in enumerate(pattern):
            counts[slot % depth] += err
        if max(counts) > l:
            failed += stream_probability(pi, kernels, pattern)
    assert exact_loss(model, n, depth, l, 1)[0] == pytest.approx(failed, abs=1e-14)


def test_packet_error_against_two_block_stream():
    # enumerate both blocks of the packet in one continuous stream; the
    # production path instead chains one block's flow matrix
    ber, nacf = 0.2, 0.6
    model = ibp_from_stats(ChannelSpec(ber=ber, nacf=nacf))
    pi, _, kernels = chain_matrices(ber, nacf)
    n, depth, l, blocks = 2, 2, 0, 2
    per_block = n * depth
    lost = 0.0
    for pattern in itertools.product((0, 1), repeat=per_block * blocks):
        ok = True
        for block in range(blocks):
            counts = [0] * depth
            for offset in range(per_block):
                counts[offset % depth] += pattern[block * per_block + offset]
            if max(counts) > l:
                ok = False
                break
        if not ok:
            lost += stream_probability(pi, kernels, pattern)
    assert exact_loss(model, n, depth, l, blocks)[1] == pytest.approx(
        lost, abs=1e-13
    )


# ----------------------------------------------------------------------
# closed forms and bookkeeping
# ----------------------------------------------------------------------


@pytest.mark.parametrize("ber", [0.05, 0.3])
def test_uncorrelated_block_error_closed_form(ber):
    model = ibp_from_stats(ChannelSpec(ber=ber, nacf=0.0))
    n, depth, l = 4, 3, 1
    single = sum(
        math.comb(n, i) * ber**i * (1 - ber) ** (n - i) for i in range(l + 1, n + 1)
    )
    expected = 1.0 - (1.0 - single) ** depth
    assert exact_loss(model, n, depth, l, 1)[0] == pytest.approx(expected, abs=1e-13)


@pytest.mark.parametrize("ber,l,depth,blocks", [(1e-4, 5, 2, 3), (1e-5, 3, 2, 1)])
def test_tiny_losses_keep_relative_precision(ber, l, depth, blocks):
    # losses of 4e-16 and 1e-14, where 1 - P(decoded) would be all rounding
    model = ibp_from_stats(ChannelSpec(ber=ber, nacf=0.0))
    tail = math.fsum(
        math.comb(63, i) * ber**i * (1 - ber) ** (63 - i) for i in range(l + 1, 64)
    )
    expected = -math.expm1(depth * blocks * math.log1p(-tail))
    assert exact_loss(model, 63, depth, l, blocks)[1] == pytest.approx(
        expected, rel=1e-12, abs=0.0
    )


def test_laws_are_normalized():
    model = ibp_from_stats(ChannelSpec(ber=0.3, nacf=0.8))
    q = exact_joint_law(model, 3, 3, 2)
    assert q.sum() == pytest.approx(1.0, abs=1e-12)
    assert np.all(q >= 0.0)
    probs = exact_joint_law(model, 3, 3, 3).sum(axis=1)
    assert probs.sum() == pytest.approx(1.0, abs=1e-12)


def test_single_block_packet_is_block_error():
    model = ibp_from_stats(ChannelSpec(ber=0.1, nacf=0.7))
    block, packet = exact_loss(model, 3, 2, 1, 1)
    assert packet == pytest.approx(block, abs=1e-15)
    # the first block's loss does not depend on how many blocks follow it
    assert exact_loss(model, 3, 2, 1, 4)[0] == block


def test_enumeration_size_is_bounded():
    model = ibp_from_stats(ChannelSpec(ber=0.1, nacf=0.7))
    with pytest.raises(ValueError, match="4194304"):
        exact_loss(model, 63, 11, 3, 1)[0]  # 2**2 * 4**11 count vectors: over the ceiling


def test_block_count_is_bounded(monkeypatch):
    # one Python pass per block: more blocks than the ceiling are refused
    # before any flow is made
    def refuse(*args):
        raise AssertionError("a flow was made")

    monkeypatch.setattr(oracle, "_count_flow", refuse)
    model = ibp_from_stats(ChannelSpec(ber=0.1, nacf=0.5))
    assert oracle.MAX_BLOCKS == 10**6
    for blocks in (10**6 + 1, 10**11):
        with pytest.raises(ValueError, match=f"over the limit of {10**6}"):
            exact_loss(model, 5, 2, 1, blocks)


# ----------------------------------------------------------------------
# paper scale: the count-vector engine against the gap-power recursions
# ----------------------------------------------------------------------


@pytest.mark.parametrize("depth", [2, 4, 8])
@pytest.mark.parametrize("l", [1, 3, 5])
def test_laws_match_dist_recursions_at_paper_scale(depth, l):
    model = ibp_from_stats(ChannelSpec(ber=0.01, nacf=0.9))
    n, cap = 63, l + 1
    probs = marginal_error_distribution([model], n, [depth], cap)
    [q] = joint_error_distribution([model], n, [depth], [cap])
    np.testing.assert_allclose(
        exact_joint_law(model, n, depth, cap).sum(axis=1), probs[0], rtol=0, atol=1e-12
    )
    np.testing.assert_allclose(
        exact_joint_law(model, n, depth, cap), q[0], rtol=0, atol=1e-12
    )


# ----------------------------------------------------------------------
# the one-product flow against two kernel products per tracked slot
# ----------------------------------------------------------------------


def layout(n, depth, l, drop):
    """(owner, counters, cap) of the flow a call makes: the block flow of
    exact_loss with ``drop``, the joint law's flow without it."""
    if drop:
        return oracle._codeword_of_slot(n, depth, n * depth), depth, l
    slots = n * depth if depth >= 2 else 2 * n
    return oracle._codeword_of_slot(n, depth, slots), 2, l + 1


def kernel_flow(model, owner, counters, cap, drop):
    """Reference for oracle._count_flow on any chain: a tracked slot
    multiplies by the no-error kernel d0 and by the error kernel d1, and
    moves the error terms up one count, dropping or saturating the top."""
    states = model.states
    flow = np.zeros((states, states, (cap + 1) ** counters))
    flow[:, :, 0] = np.eye(states)
    flow = flow.reshape(states, -1)
    miss, hit, full = model.d0.T, model.d1.T, model.transition.T
    dropped = np.zeros(states)
    for j in owner:
        if j >= counters:
            flow = full @ flow
            continue
        # end state, start state, counters before j, counter j, counters after j
        grid = (states, states, (cap + 1) ** j, cap + 1, (cap + 1) ** (counters - 1 - j))
        errors = (hit @ flow).reshape(grid)
        flow = miss @ flow
        moved = flow.reshape(grid)  # a view into flow
        moved[:, :, :, 1:] += errors[:, :, :, :-1]
        if drop:
            dropped += errors[:, :, :, -1].sum(axis=(0, 2, 3))
        else:
            moved[:, :, :, -1] += errors[:, :, :, -1]
    return flow.reshape((states, states) + (cap + 1,) * counters), dropped


MIXED_CHAINS = {
    # Gilbert-Elliott: a good state that errs now and then, a bad one often
    "two-state": FsmcModel([[0.99, 0.01], [0.1, 0.9]], [0.001, 0.3]),
    # one clean, one mixed and one erring state
    "three-state": FsmcModel(
        [[0.98, 0.015, 0.005], [0.05, 0.9, 0.05], [0.02, 0.08, 0.9]], [0.0, 0.05, 1.0]
    ),
}


@pytest.mark.parametrize("drop", [True, False])
@pytest.mark.parametrize("n,l,depth", [(63, 1, 16), (63, 3, 8), (63, 3, 4), (63, 3, 1)])
def test_one_product_flow_equals_the_kernel_flow(n, l, depth, drop):
    owner, counters, cap = layout(n, depth, l, drop)
    for model in (ibp_from_stats(ChannelSpec(ber=0.01, nacf=0.9)), MIXED_CHAINS["two-state"]):
        flow, dropped = oracle._count_flow(model, owner, counters, cap, drop)
        want_flow, want_dropped = kernel_flow(model, owner, counters, cap, drop)
        np.testing.assert_allclose(flow, want_flow, rtol=1e-13, atol=0)
        np.testing.assert_allclose(dropped, want_dropped, rtol=1e-13, atol=0)
        assert dropped.any() == drop


@pytest.mark.parametrize(
    "profile", [[0.0, 1.0, 0.0], [1.0, 0.0, 1.0], [0.0, 0.3, 1.0], [0.2, 0.5, 0.9]]
)
@pytest.mark.parametrize("drop", [True, False])
@pytest.mark.parametrize("depth", [1, 3])
def test_one_product_flow_on_three_state_chains(profile, drop, depth):
    model = FsmcModel([[0.5, 0.3, 0.2], [0.1, 0.8, 0.1], [0.3, 0.3, 0.4]], profile)
    owner, counters, _ = layout(6, depth, 0, drop)
    # a saturating joint-law flow has cap >= 1; a dropping block flow has l >= 0
    for cap in (0, 1, 3) if drop else (1, 3):
        flow, dropped = oracle._count_flow(model, owner, counters, cap, drop)
        want_flow, want_dropped = kernel_flow(model, owner, counters, cap, drop)
        np.testing.assert_allclose(flow, want_flow, rtol=1e-13, atol=0)
        np.testing.assert_allclose(dropped, want_dropped, rtol=1e-13, atol=0)


def peak_flows(model, n, depth, l):
    """Peak traced memory of a block flow, in flows."""
    owner, counters, cap = layout(n, depth, l, True)
    tracemalloc.start()
    try:
        flow, _ = oracle._count_flow(model, owner, counters, cap, True)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak / flow.nbytes


def test_one_product_flow_keeps_two_buffers():
    # (63, l = 3, I = 8) block flow: 2**2 * 4**8 entries, 2 MiB
    assert peak_flows(ibp_from_stats(ChannelSpec(ber=0.01, nacf=0.9)), 63, 8, 3) < 2.25


@pytest.mark.parametrize("model", MIXED_CHAINS.values(), ids=MIXED_CHAINS.keys())
def test_mixed_chain_flow_keeps_one_spare_row_more(model):
    # a chain with a mixed state adds one end state's row, 1/S of a flow,
    # with the allowance of the two-buffer bound above
    assert peak_flows(model, 63, 8, 3) < 2.25 + 1 / model.states


# ----------------------------------------------------------------------
# any finite-state channel: the engine against plain pattern enumeration
# ----------------------------------------------------------------------


@st.composite
def small_fsmcs(draw):
    """Random 2- or 3-state chains; zeros allowed, so periodic chains occur."""
    states = draw(st.integers(2, 3))
    unit = st.floats(0.0, 1.0)
    rows = [draw(st.lists(unit, min_size=states, max_size=states)) for _ in range(states)]
    assume(all(sum(row) > 0.05 for row in rows))
    transition = np.array([np.array(row) / sum(row) for row in rows])
    profile = draw(st.lists(unit, min_size=states, max_size=states))
    try:
        return FsmcModel(transition, profile)
    except ValueError:  # no unique stationary law
        assume(False)


def pattern_laws(model, n, depth, cap, l, blocks):
    """Marginal, joint, block and packet references by enumerating every pattern."""
    kernels = (model.d0, model.d1)
    block_slots = n * depth

    def counts(pattern, codewords):
        out = [0] * codewords
        for slot, err in enumerate(pattern):
            out[slot % depth if depth >= 2 else slot // n] += err
        return out

    marginal = np.zeros(cap + 1)
    for pattern in itertools.product((0, 1), repeat=block_slots):
        marginal[min(counts(pattern, depth)[0], cap)] += stream_probability(
            model.pi, kernels, pattern
        )
    joint = np.zeros((cap + 1, cap + 1))
    for pattern in itertools.product((0, 1), repeat=max(block_slots, 2 * n)):
        first, second = counts(pattern, max(depth, 2))[:2]
        joint[min(first, cap), min(second, cap)] += stream_probability(
            model.pi, kernels, pattern
        )
    block = packet = 0.0
    for pattern in itertools.product((0, 1), repeat=block_slots * blocks):
        failed = [
            max(counts(pattern[b * block_slots:(b + 1) * block_slots], depth)) > l
            for b in range(blocks)
        ]
        prob = stream_probability(model.pi, kernels, pattern)
        block += prob * failed[0]
        packet += prob * any(failed)
    return marginal, joint, block, packet


@settings(max_examples=60, deadline=None, derandomize=True)
@example(  # periodic
    model=FsmcModel([[0, 1], [1, 0]], [0, 1]), n=2, depth=2, cap=1, l=1, blocks=2
)
@example(  # negatively correlated
    model=FsmcModel([[0.1, 0.9], [0.9, 0.1]], [0, 1]), n=3, depth=1, cap=1, l=1, blocks=3
)
@example(  # periodic, three states, fractional error probabilities
    model=FsmcModel([[0, 1, 0], [0, 0, 1], [1, 0, 0]], [0.2, 1.0, 0.5]),
    n=2, depth=3, cap=2, l=0, blocks=1,
)
@given(
    model=small_fsmcs(),
    n=st.integers(1, 4),
    depth=st.integers(1, 4),
    cap=st.integers(1, 5),
    l=st.integers(0, 3),
    blocks=st.integers(1, 3),
)
def test_engine_matches_pattern_enumeration_on_any_fsmc(model, n, depth, cap, l, blocks):
    assume(n * depth * blocks <= 10)
    marginal, joint, block, packet = pattern_laws(model, n, depth, cap, l, blocks)
    np.testing.assert_allclose(
        exact_joint_law(model, n, depth, cap).sum(axis=1), marginal, rtol=0, atol=1e-13
    )
    np.testing.assert_allclose(
        exact_joint_law(model, n, depth, cap), joint, rtol=0, atol=1e-13
    )
    assert exact_loss(model, n, depth, l, 1)[0] == pytest.approx(block, abs=1e-13)
    assert exact_loss(model, n, depth, l, blocks)[1] == pytest.approx(packet, abs=1e-13)
