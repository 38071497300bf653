import contextlib
import itertools
import math
import time

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from burstfec import dist
from burstfec.channel import ChannelSpec, FsmcModel, ibp_from_stats
from burstfec.dist import (
    joint_error_distribution,
    marginal_error_distribution,
    sequential_joint_distribution,
)
from burstfec.models import _absorbing_chains
from burstfec.oracle import exact_joint_law
from reference_stats import kernels

# ----------------------------------------------------------------------
# Independent references: explicit path-by-path enumeration written
# straight from the slot layout (bits of one codeword are `depth` slots
# apart; matching bits of adjacent codewords go back to back).  These
# share no code with the recursions under test.
# ----------------------------------------------------------------------


def marginal_by_paths(model, n, depth, cap):
    gap = np.linalg.matrix_power(model.transition, depth - 1)
    split = kernels(model)
    out = np.zeros(cap + 1)
    for pattern in itertools.product((0, 1), repeat=n):
        vec = model.pi.copy()
        for i, err in enumerate(pattern):
            vec = vec @ split[err]
            if i < n - 1:
                vec = vec @ gap
        out[min(sum(pattern), cap)] += vec.sum()
    return out


def joint_by_paths(model, n, depth, cap):
    gap = np.linalg.matrix_power(model.transition, depth - 2)
    split = kernels(model)
    out = np.zeros((cap + 1, cap + 1))
    for first in itertools.product((0, 1), repeat=n):
        for second in itertools.product((0, 1), repeat=n):
            vec = model.pi.copy()
            for i, (a, b) in enumerate(zip(first, second)):
                vec = vec @ split[a] @ split[b]
                if i < n - 1:
                    vec = vec @ gap
            out[min(sum(first), cap), min(sum(second), cap)] += vec.sum()
    return out


def sequential_by_paths(model, n, cap):
    split = kernels(model)
    out = np.zeros((cap + 1, cap + 1))
    for pattern in itertools.product((0, 1), repeat=2 * n):
        vec = model.pi.copy()
        for err in pattern:
            vec = vec @ split[err]
        out[min(sum(pattern[:n]), cap), min(sum(pattern[n:]), cap)] += vec.sum()
    return out


def one_marginal(model, n, depth, cap):
    """One channel's probs, from a stack of one."""
    return marginal_error_distribution([model], n, [depth], cap)[0]


def one_joint(model, n, depth, cap):
    """One channel's q at one cap, from a stack of one."""
    [q] = joint_error_distribution([model], n, [depth], [cap])
    return q[0]


def one_sequential(model, n, cap):
    """One channel's back-to-back q at one cap, from a stack of one."""
    [q] = sequential_joint_distribution([model], n, [cap])
    return q[0]


def marginal_gap(q, probs):
    """Largest gap between a joint law's first marginal and a one-codeword
    law; laws of different caps have different lengths and are refused."""
    return float(np.max(np.abs(q.sum(axis=1) - probs)))


def bucket(values, cap):
    """Re-bucket a full-resolution law down to a saturating cap."""
    values = np.asarray(values)
    out = np.zeros((cap + 1,) * values.ndim)
    for index in np.ndindex(values.shape):
        out[tuple(min(i, cap) for i in index)] += values[index]
    return out


MODEL_GRID = [(p, c) for p in (0.05, 0.2, 0.5) for c in (0.0, 0.5, 0.9)]

# Frozen reference: marginal law for n=4, depth=3, ber=0.1, nacf=0.5,
# computed by the path enumeration above.
MARGINAL_4_3 = np.array(
    [0.6838189453124999, 0.24432187500000002, 0.06085898437500002,
     0.01004062500000001, 0.0009595703125]
)

# Frozen reference: joint law for n=3, depth=2, ber=0.2, nacf=0.7.
JOINT_3_2 = np.array(
    [[5.8712321791999988e-01, 5.6612605440000005e-02, 1.3774233600000007e-03,
      9.9532800000000122e-06],
     [5.6612605440000012e-02, 8.7577198080000029e-02, 3.4826603520000013e-02,
      8.2999296000000071e-04],
     [1.3774233600000012e-03, 3.4826603520000013e-02, 5.0191226880000009e-02,
      1.8542346240000011e-02],
     [9.9532800000000122e-06, 8.2999296000000071e-04, 1.8542346240000011e-02,
      5.0710507520000010e-02]]
)

# Frozen reference: sequential law for n=2, ber=0.2, nacf=0.7.
SEQUENTIAL_2 = np.array(
    [[0.6644671999999999, 0.05324160000000001, 0.03429120000000001],
     [0.05324160000000002, 0.01284480000000001, 0.02991360000000001],
     [0.03429120000000001, 0.02991360000000001, 0.08779520000000002]]
)


def test_single_bit_error_probability():
    model = ibp_from_stats(ChannelSpec(ber=0.01, nacf=0.6))
    probs = one_marginal(model, 1, 1, 1)
    np.testing.assert_allclose(probs, [0.99, 0.01], atol=1e-15)


def test_marginal_frozen_reference():
    model = ibp_from_stats(ChannelSpec(ber=0.1, nacf=0.5))
    probs = one_marginal(model, 4, 3, 4)
    np.testing.assert_allclose(probs, MARGINAL_4_3, atol=1e-14)


def test_joint_frozen_reference():
    model = ibp_from_stats(ChannelSpec(ber=0.2, nacf=0.7))
    q = one_joint(model, 3, 2, 3)
    np.testing.assert_allclose(q, JOINT_3_2, atol=1e-14)


def test_sequential_frozen_reference():
    model = ibp_from_stats(ChannelSpec(ber=0.2, nacf=0.7))
    q = one_sequential(model, 2, 2)
    np.testing.assert_allclose(q, SEQUENTIAL_2, atol=1e-14)


@pytest.mark.parametrize("ber,nacf", MODEL_GRID)
@pytest.mark.parametrize("n,depth", [(1, 1), (2, 3), (4, 2), (5, 3)])
def test_marginal_matches_path_enumeration(ber, nacf, n, depth):
    model = ibp_from_stats(ChannelSpec(ber=ber, nacf=nacf))
    probs = one_marginal(model, n, depth, n)
    assert np.max(np.abs(probs - marginal_by_paths(model, n, depth, n))) <= 1e-13


@pytest.mark.parametrize("ber,nacf", MODEL_GRID)
@pytest.mark.parametrize("n,depth", [(1, 2), (2, 3), (3, 2), (3, 4)])
def test_joint_matches_path_enumeration(ber, nacf, n, depth):
    model = ibp_from_stats(ChannelSpec(ber=ber, nacf=nacf))
    q = one_joint(model, n, depth, n)
    assert np.max(np.abs(q - joint_by_paths(model, n, depth, n))) <= 1e-13


@pytest.mark.parametrize("ber,nacf", MODEL_GRID)
@pytest.mark.parametrize("n", [1, 2, 4])
def test_sequential_matches_path_enumeration(ber, nacf, n):
    model = ibp_from_stats(ChannelSpec(ber=ber, nacf=nacf))
    q = one_sequential(model, n, n)
    assert np.max(np.abs(q - sequential_by_paths(model, n, n))) <= 1e-13


def test_single_pair_back_to_back():
    # n=1 sequential law is exactly pi @ D(a) @ D(b) @ 1
    model = ibp_from_stats(ChannelSpec(ber=0.2, nacf=0.7))
    q = one_sequential(model, 1, 1)
    ones = np.ones(2)
    split = kernels(model)
    for a in (0, 1):
        for b in (0, 1):
            expect = float(model.pi @ split[a] @ split[b] @ ones)
            assert q[a, b] == pytest.approx(expect, abs=1e-15)


def test_uncorrelated_joint_factorizes():
    # nacf=0 makes every bit i.i.d.: the joint is an outer product of
    # binomial laws and the quarter table shows up at n=1, ber=0.5
    model = ibp_from_stats(ChannelSpec(ber=0.5, nacf=0.0))
    q = one_joint(model, 1, 2, 1)
    np.testing.assert_allclose(q, np.full((2, 2), 0.25), atol=1e-14)

    model = ibp_from_stats(ChannelSpec(ber=0.3, nacf=0.0))
    q = one_joint(model, 4, 3, 4)
    binom = np.array([math.comb(4, j) * 0.3**j * 0.7 ** (4 - j) for j in range(5)])
    np.testing.assert_allclose(q, np.outer(binom, binom), atol=1e-13)


@pytest.mark.parametrize("ber", [0.05, 0.2, 0.5])
def test_uncapped_marginal_is_binomial_at_nacf_zero(ber):
    model = ibp_from_stats(ChannelSpec(ber=ber, nacf=0.0))
    n = 6
    probs = one_marginal(model, n, 4, n)
    binom = [math.comb(n, j) * ber**j * (1 - ber) ** (n - j) for j in range(n + 1)]
    np.testing.assert_allclose(probs, binom, atol=1e-13)


@pytest.mark.parametrize("ber,nacf", MODEL_GRID)
@pytest.mark.parametrize("n,depth", [(3, 1), (3, 2), (5, 3)])
def test_laws_sum_to_one(ber, nacf, n, depth):
    model = ibp_from_stats(ChannelSpec(ber=ber, nacf=nacf))
    probs = one_marginal(model, n, depth, 2)
    assert probs.sum() == pytest.approx(1.0, abs=1e-12)
    q = (
        one_joint(model, n, depth, 2)
        if depth >= 2
        else one_sequential(model, n, 2)
    )
    assert q.sum() == pytest.approx(1.0, abs=1e-12)
    assert np.all(q >= -1e-15)


@contextlib.contextmanager
def flows_handed_to_laws():
    """The walked flows (B x S_end x counts x S_start) that each recursion
    called in the block hands to ``dist._laws``, copied, in call order."""
    seen, laws = [], dist._laws

    def record(channels, flows, *args):
        seen.append(flows.copy())
        return laws(channels, flows, *args)

    dist._laws = record
    try:
        yield seen
    finally:
        dist._laws = laws


@pytest.mark.parametrize("n,depth", [(4, 1), (4, 2), (6, 5)])
def test_bucket_sum_reproduces_gap_horizon(n, depth):
    # summed over every count slot, the flows each recursion walks (the
    # joint and sequential ones from _walk) must equal the plain transition
    # matrix over the whole recursion horizon; they run end state first, so
    # the sum is that power transposed
    model = ibp_from_stats(ChannelSpec(ber=0.02, nacf=0.8))
    horizons = [(n - 1) * depth + 1, 2 * n] + ([(n - 1) * depth + 2] if depth >= 2 else [])
    with flows_handed_to_laws() as seen:
        one_marginal(model, n, depth, 2)
        one_sequential(model, n, 2)
        if depth >= 2:
            one_joint(model, n, depth, 2)
    assert len(seen) == len(horizons)
    for flows, steps in zip(seen, horizons):
        horizon = np.linalg.matrix_power(model.transition, steps)
        total = flows[0].sum(axis=tuple(range(1, flows.ndim - 2)))
        assert np.max(np.abs(total.T - horizon)) <= 1e-12


@pytest.mark.parametrize("cap", [1, 3])
def test_saturation_equals_rebucketed_full_resolution(cap):
    model = ibp_from_stats(ChannelSpec(ber=0.15, nacf=0.6))
    n, depth = 5, 2
    full = one_marginal(model, n, depth, n)
    capped = one_marginal(model, n, depth, cap)
    np.testing.assert_allclose(capped, bucket(full, cap), atol=1e-13)
    full_q = one_joint(model, n, depth, n)
    capped_q = one_joint(model, n, depth, cap)
    np.testing.assert_allclose(capped_q, bucket(full_q, cap), atol=1e-13)


@pytest.mark.parametrize("ber,nacf", [(0.01, 0.9), (0.2, 0.5)])
@pytest.mark.parametrize("n,depth,cap", [(63, 16, 6), (31, 4, 4), (5, 1, 2)])
def test_marginal_consistency(ber, nacf, n, depth, cap):
    model = ibp_from_stats(ChannelSpec(ber=ber, nacf=nacf))
    q = (
        one_joint(model, n, depth, cap)
        if depth >= 2
        else one_sequential(model, n, cap)
    )
    probs = one_marginal(model, n, depth, cap)
    assert marginal_gap(q, probs) <= 1e-12


def test_marginal_consistency_rejects_shape_mismatch():
    # a marginal of another cap has another length: compared with a joint's
    # first marginal it is refused, not broadcast
    model = ibp_from_stats(ChannelSpec(ber=0.01, nacf=0.5))
    q = one_joint(model, 4, 2, 2)
    probs = one_marginal(model, 4, 2, 4)
    assert q.shape == (3, 3) and probs.shape == (5,)
    with pytest.raises(ValueError):
        marginal_gap(q, probs)


def test_three_state_channel_supported():
    # the recursions must accept any finite-state model, not only the IBP
    from burstfec.channel import FsmcModel

    transition = np.array([[0.9, 0.08, 0.02], [0.25, 0.6, 0.15], [0.05, 0.25, 0.7]])
    model = FsmcModel(transition, np.array([0.001, 0.1, 0.6]))
    q = one_joint(model, 3, 2, 3)
    assert np.max(np.abs(q - joint_by_paths(model, 3, 2, 3))) <= 1e-13
    probs = one_marginal(model, 3, 2, 3)
    assert marginal_gap(q, probs) <= 1e-12


def test_joint_rejects_depth_one():
    model = ibp_from_stats(ChannelSpec(ber=0.01, nacf=0.5))
    with pytest.raises(ValueError):
        one_joint(model, 4, 1, 2)


@pytest.mark.parametrize("args", [(0, 2, 2), (3, 2, -1)])
def test_joint_rejects_bad_sizes(args):
    model = ibp_from_stats(ChannelSpec(ber=0.01, nacf=0.5))
    n, depth, cap = args
    with pytest.raises(ValueError):
        one_joint(model, n, depth, cap)


def test_long_codeword_joint_is_fast():
    # worst realistic size: (1023, k, t<=16)-style code at depth 16
    model = ibp_from_stats(ChannelSpec(ber=0.001, nacf=0.9))
    start = time.perf_counter()
    q = one_joint(model, 1023, 16, 16)
    elapsed = time.perf_counter() - start
    assert q.sum() == pytest.approx(1.0, abs=1e-11)
    assert elapsed < 1.0


# ----------------------------------------------------------------------
# stacked channels: one recursion over a leading batch axis
# ----------------------------------------------------------------------


def looped_laws(model, n, depth, cap):
    """One channel's marginal probs and joint q, by per-channel recursions
    written with the same float operations in the same order as the
    stacked ones, so the results must agree bit for bit: the marginal
    multiplies by the split kernels, the joint by the transition matrix,
    then keeps (1 - e) of each end state t's flow and moves e of it up one
    count (one count keeps its flow).  Each law sums its flows over their
    end states, then weights them by the stationary vector."""

    def kernel_step(buckets, miss, hit):
        out, up = buckets @ miss, buckets @ hit
        out[1:] += up[:-1]
        out[-1] += up[-1]
        return out

    def step(buckets, axis):
        product = np.moveaxis(buckets @ model.transition, axis, 0)
        if len(product) == 1:
            return buckets @ model.transition
        hit, out = model.error_profile * product, (1.0 - model.error_profile) * product
        out[1:] += hit[:-1]
        out[-1] += hit[-1]
        return np.moveaxis(out, 0, axis)

    size = model.states
    gap = np.linalg.matrix_power(model.transition, depth - 1)
    marginal = np.zeros((cap + 1, size, size))
    marginal[0] = np.eye(size)
    miss, hit = kernels(model)
    for _ in range(n - 1):
        marginal = kernel_step(marginal, miss @ gap, hit @ gap)
    marginal = kernel_step(marginal, miss, hit)
    joint = np.zeros((cap + 1, cap + 1, size, size))
    joint[0, 0] = np.eye(size)
    if depth == 1:
        for axis in (0, 1):
            for _ in range(n):
                joint = step(joint, axis)
    else:
        gap = np.linalg.matrix_power(model.transition, depth - 2)
        for i in range(n):
            joint = step(step(joint, 0), 1)
            if i < n - 1 and depth > 2:
                joint = joint @ gap
    return (
        np.einsum("s,js->j", model.pi, marginal.sum(axis=-1)),
        np.einsum("s,ijs->ij", model.pi, joint.sum(axis=-1)),
    )


def random_fsmc(seed, states=3):
    rng = np.random.default_rng(seed)
    transition = rng.random((states, states)) + 0.05
    return FsmcModel(transition / transition.sum(axis=1, keepdims=True), rng.random(states))


STACKS = {
    "ber-nacf-grid": [
        ibp_from_stats(ChannelSpec(ber=ber, nacf=nacf))
        for nacf in (0.0, 0.3, 0.6, 0.9)
        for ber in (0.0001, 0.01, 0.2, 1.0)
    ],
    "three-state": [random_fsmc(seed) for seed in range(5)],
    "one-channel": [ibp_from_stats(ChannelSpec(ber=0.02, nacf=0.8))],
    # two error-free states and one that always errs
    "three-state-clean-erring": [
        FsmcModel(random_fsmc(seed).transition, [0.0, 0.0, 1.0]) for seed in range(5, 9)
    ],
    # one channel whose second state errs now and then
    "ibp-and-mixed-profile": [
        ibp_from_stats(ChannelSpec(ber=0.01, nacf=0.6)),
        FsmcModel([[0.95, 0.05], [0.3, 0.7]], [0.0, 0.4]),
        ibp_from_stats(ChannelSpec(ber=0.2, nacf=0.9)),
    ],
}


@pytest.mark.parametrize("stack", STACKS.values(), ids=STACKS.keys())
@pytest.mark.parametrize(
    "n,depth,cap",
    [(63, 1, 2), (63, 2, 2), (63, 4, 4), (63, 8, 4), (63, 16, 6), (9, 2, 9), (5, 7, 1)],
)
def test_stacked_laws_equal_per_channel_laws(stack, n, depth, cap):
    depths = [depth] * len(stack)
    marginals = marginal_error_distribution(stack, n, depths, cap)
    [sequentials] = sequential_joint_distribution(stack, n, [cap])
    joints = (
        joint_error_distribution(stack, n, depths, [cap])[0] if depth >= 2 else sequentials
    )
    assert marginals.shape == (len(stack), cap + 1)
    assert joints.shape == sequentials.shape == (len(stack), cap + 1, cap + 1)
    for i, model in enumerate(stack):
        pairs = [
            (marginals, one_marginal(model, n, depth, cap)),
            (sequentials, one_sequential(model, n, cap)),
        ]
        if depth >= 2:
            pairs.append((joints, one_joint(model, n, depth, cap)))
        for law, alone_law in pairs:
            assert np.array_equal(law[i], alone_law)
        looped_probs, looped_q = looped_laws(model, n, depth, cap)
        assert np.array_equal(marginals[i], looped_probs)
        assert np.array_equal(joints[i], looped_q)


@pytest.mark.parametrize("states", [2, 3])
@pytest.mark.parametrize("n,cap", [(1, 2), (5, 1), (9, 4), (12, 6)])
def test_mixed_depth_stack_equals_per_depth_calls(states, n, cap):
    # one depth per channel: each channel gets its own gap power, and a
    # depth-2 channel of a joint stack with deeper ones is multiplied by an
    # identity gap, which must leave its law bit for bit as it was
    rng = np.random.default_rng(100 * states + n)
    stack = [random_fsmc(int(seed), states) for seed in rng.integers(0, 10**6, 7)]
    for recursion, depths in [
        (marginal_error_distribution, [1, 3, 1, 8, 2, 5, 3]),
        (lambda *args: joint_error_distribution(*args[:3], [args[3]])[0], [2, 3, 2, 8, 4, 2, 5]),
    ]:
        mixed = recursion(stack, n, depths, cap)
        for depth in set(depths):
            chosen = [i for i, d in enumerate(depths) if d == depth]
            alone = recursion([stack[i] for i in chosen], n, [depth] * len(chosen), cap)
            assert np.array_equal(mixed[chosen], alone)


def test_depths_must_match_the_stack():
    stack = STACKS["three-state"]
    with pytest.raises(ValueError, match="got 2 depths for 5 channels"):
        marginal_error_distribution(stack, 4, [1, 2], 2)
    with pytest.raises(ValueError, match="depth must be >= 1, got 0"):
        marginal_error_distribution(stack, 4, [1, 0, 2, 2, 2], 2)
    with pytest.raises(ValueError, match="needs depth >= 2"):
        joint_error_distribution(stack, 4, [2, 2, 1, 3, 3], [2])


def power_stacks():
    """Stacks of 2 x 2 transitions and of (l+1) x (l+1) absorbing-chain
    transient matrices (l = 3), the two kinds of matrix the gap powers
    and the chain stage raise to a power."""
    transitions = np.array([model.transition for model in STACKS["ber-nacf-grid"]])
    [q] = joint_error_distribution(STACKS["ber-nacf-grid"][:-4], 7, [3] * 12, [4])
    transient, _ = _absorbing_chains(q, 3)
    return {"transitions": transitions, "transient": transient}


@pytest.mark.parametrize("exponent", range(18))
def test_one_gap_power_per_stack_is_matrix_power_bit_for_bit(exponent):
    for matrices in power_stacks().values():
        expected = np.linalg.matrix_power(matrices, exponent)
        assert np.array_equal(dist._power(matrices, exponent), expected)
        depths = [exponent + 1] * len(matrices)
        assert np.array_equal(dist._powers(matrices, depths, 1), expected)


def test_mixed_gap_powers_are_matrix_power_bit_for_bit():
    rng = np.random.default_rng(17)
    for matrices in power_stacks().values():
        for offset in (0, 1, 2):
            depths = [int(e) + offset for e in rng.integers(0, 18, len(matrices))]
            powers = dist._powers(matrices, depths, offset)
            for depth in set(depths):
                chosen = [i for i, d in enumerate(depths) if d == depth]
                expected = np.linalg.matrix_power(matrices[chosen], depth - offset)
                assert np.array_equal(powers[chosen], expected)


def test_single_channel_call_returns_one_result():
    # one channel is a stack of one: every result keeps its channel axis
    stack = STACKS["one-channel"]
    assert marginal_error_distribution(stack, 5, [3], 2).shape == (1, 3)
    for q in (
        *joint_error_distribution(stack, 5, [3], [2]), *sequential_joint_distribution(stack, 5, [2])
    ):
        assert q.shape == (1, 3, 3)


@pytest.mark.parametrize(
    "recursion",
    [
        lambda stack: marginal_error_distribution(stack, 4, [2] * len(stack), 2),
        lambda stack: joint_error_distribution(stack, 4, [2] * len(stack), [2]),
        lambda stack: sequential_joint_distribution(stack, 4, [2]),
    ],
    ids=["marginal", "joint", "sequential"],
)
def test_stack_with_mixed_state_counts_is_rejected(recursion):
    mixed = [STACKS["one-channel"][0], random_fsmc(0)]
    with pytest.raises(ValueError, match="common state count, got \\[2, 3\\]"):
        recursion(mixed)
    with pytest.raises(ValueError, match="common state count, got \\[\\]"):
        recursion([])


# ----------------------------------------------------------------------
# several caps in one recursion: one walk, every cap's law bit for bit
# ----------------------------------------------------------------------


@st.composite
def fsmc_stacks(draw):
    """1-4 random channels with one common state count (2 or 3): either
    every state clean or erring (error probability 0 or 1), whose rows
    stand or shift, or profiles drawn from [0, 1], which give mixed
    states and their split into a kept and a moved part."""
    states = draw(st.integers(2, 3))
    errs = st.sampled_from([0.0, 1.0]) if draw(st.booleans()) else st.floats(0.0, 1.0)
    stack = []
    for _ in range(draw(st.integers(1, 4))):
        rows = [
            draw(st.lists(st.floats(0.0, 1.0), min_size=states, max_size=states))
            for _ in range(states)
        ]
        assume(all(sum(row) > 0.05 for row in rows))
        transition = np.array([np.array(row) / sum(row) for row in rows])
        profile = draw(st.lists(errs, min_size=states, max_size=states))
        try:
            stack.append(FsmcModel(transition, profile))
        except ValueError:  # no unique stationary law
            assume(False)
    return stack


@settings(max_examples=80, deadline=None, derandomize=True)
@example(stack=STACKS["ber-nacf-grid"], n=63, depths=[1, 2, 4, 8] * 4, caps=[2, 4, 6])
@example(stack=STACKS["ibp-and-mixed-profile"], n=7, depths=[3, 1, 2], caps=[3])
# unevenly spaced, unsorted and repeated caps, on clean/erring and mixed stacks
@example(stack=STACKS["three-state-clean-erring"], n=9, depths=[1, 3, 2, 5], caps=[1, 3])
@example(stack=STACKS["ibp-and-mixed-profile"], n=8, depths=[2, 1, 4], caps=[1, 3])
@example(stack=STACKS["ber-nacf-grid"], n=20, depths=[1, 2, 4, 8] * 4, caps=[6, 2, 4])
@example(stack=STACKS["ibp-and-mixed-profile"], n=9, depths=[3, 1, 2], caps=[6, 2, 4])
@example(stack=STACKS["three-state-clean-erring"], n=7, depths=[2, 1, 3, 4], caps=[5, 5, 1])
@example(stack=STACKS["ibp-and-mixed-profile"], n=7, depths=[4, 2, 1], caps=[5, 5, 1])
@given(
    stack=fsmc_stacks(),
    n=st.integers(1, 9),
    depths=st.lists(st.integers(1, 5), min_size=4, max_size=4),
    caps=st.lists(st.integers(1, 7), min_size=1, max_size=3),
)
def test_cap_sequence_equals_one_call_per_cap(stack, n, depths, caps):
    # the joint and sequential walks carry one top slot per distinct cap;
    # each cap's law comes out as a call at that cap gives it.  It must
    # also be C-contiguous: models reduces the laws with sum,
    # whose rounding follows the memory layout, so a strided cut of the
    # same numbers could move a model's last bits
    depths = depths[: len(stack)]
    paired = [max(depth, 2) for depth in depths]
    for recursion, args in [
        (joint_error_distribution, (paired,)), (sequential_joint_distribution, ()),
    ]:
        laws = recursion(stack, n, *args, caps)
        assert len(laws) == len(caps)
        for cap, law in zip(caps, laws):
            [alone_law] = recursion(stack, n, *args, [cap])
            assert np.array_equal(law, alone_law)
            assert law.flags.c_contiguous
    # below its cap a saturating count evolves the same whatever the cap:
    # the marginal at the largest cap holds each cap's counts 0..cap-1
    top_probs = marginal_error_distribution(stack, n, depths, max(caps))
    for cap in caps:
        probs = marginal_error_distribution(stack, n, depths, cap)
        assert np.array_equal(top_probs[:, :cap], probs[:, :cap])


@settings(max_examples=60, deadline=None, derandomize=True)
@example(stack=STACKS["ber-nacf-grid"], n=20, caps=[6, 2, 4])
@example(stack=STACKS["three-state-clean-erring"], n=7, caps=[5, 5, 1])
@example(stack=STACKS["ibp-and-mixed-profile"], n=9, caps=[6, 2, 4])
@example(stack=STACKS["ibp-and-mixed-profile"], n=1, caps=[1, 3])
@given(
    stack=fsmc_stacks(),
    n=st.integers(1, 9),
    caps=st.lists(st.integers(1, 7), min_size=1, max_size=3),
)
def test_sequential_equals_the_unswapped_two_counter_walk(stack, n, caps):
    # the sequential recursion walks the first codeword's bits on a
    # one-slot second counter, then the second codeword's bits on swapped
    # axes; both only drop zeros and move counts between axes, so its flows
    # and every cap's law are those of the plain walk of both counters
    buckets, transition, errors, tops = dist._stack(stack, n, caps, 2)
    plain = dist._walk(buckets, transition, errors, [1] * n + [2] * n, None, tops)
    with flows_handed_to_laws() as seen:
        laws = sequential_joint_distribution(stack, n, caps)
    assert len(seen) == 1 and np.array_equal(seen[0], plain)
    plain_laws = dist._laws(stack, plain, caps, tops)
    assert len(laws) == len(plain_laws) == len(caps)
    for law, plain_law in zip(laws, plain_laws):
        assert np.array_equal(law, plain_law)


def test_one_distinct_cap_is_the_walk_uncut():
    # a cap sequence with one distinct cap walks that cap's slots alone, so
    # every entry is the walk's own law, with no cut and no copy
    stack = STACKS["ber-nacf-grid"]
    for recursion, args in [
        (joint_error_distribution, ([3] * len(stack),)), (sequential_joint_distribution, ()),
    ]:
        laws = recursion(stack, 6, *args, [4, 4])
        assert laws[0] is laws[1]
        [alone_law] = recursion(stack, 6, *args, [4])
        assert np.array_equal(laws[0], alone_law)


def test_cap_sequence_of_one_channel_gives_its_own_slices():
    stack = STACKS["one-channel"]
    for recursion, args in [(joint_error_distribution, ([3],)), (sequential_joint_distribution, ())]:
        laws = recursion(stack, 5, *args, [2, 1])
        assert [q.shape for q in laws] == [(1, 3, 3), (1, 2, 2)]
        for cap, q in zip([2, 1], laws):
            assert np.array_equal(q, recursion(stack, 5, *args, [cap])[0])


@pytest.mark.parametrize("caps", [[], [3, -1]])
def test_cap_sequence_rejects_no_cap_and_negative_caps(caps):
    stack = STACKS["one-channel"]
    with pytest.raises(ValueError, match="counter cap must be >= 1"):
        joint_error_distribution(stack, 4, [2], caps)
    with pytest.raises(ValueError, match="counter cap must be >= 1"):
        sequential_joint_distribution(stack, 4, caps)


def test_caps_below_one_are_refused_with_one_message():
    # a saturating count needs a count below its top: cap 0 is refused by
    # every recursion and by the exact joint law, with one message
    stack = STACKS["one-channel"]
    refusals = [
        lambda: marginal_error_distribution(stack, 4, [2], 0),
        lambda: joint_error_distribution(stack, 4, [2], [0]),
        lambda: joint_error_distribution(stack, 4, [2], [2, 0]),
        lambda: sequential_joint_distribution(stack, 4, [0]),
        lambda: exact_joint_law(stack[0], 4, 2, 0),
    ]
    for refusal in refusals:
        with pytest.raises(ValueError, match="^counter cap must be >= 1, got "):
            refusal()
