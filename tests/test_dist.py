import itertools
import math
import time

import numpy as np
import pytest

from burstfec.channel import ChannelSpec, FsmcModel, ibp_from_stats
from burstfec.dist import (
    joint_error_distribution,
    marginal_consistency_check,
    marginal_error_distribution,
    sequential_joint_distribution,
)

# ----------------------------------------------------------------------
# Independent references: explicit path-by-path enumeration written
# straight from the slot layout (bits of one codeword are `depth` slots
# apart; matching bits of adjacent codewords go back to back).  These
# share no code with the recursions under test.
# ----------------------------------------------------------------------


def marginal_by_paths(model, n, depth, cap):
    gap = np.linalg.matrix_power(model.transition, depth - 1)
    out = np.zeros(cap + 1)
    for pattern in itertools.product((0, 1), repeat=n):
        vec = model.pi.copy()
        for i, err in enumerate(pattern):
            vec = vec @ (model.d1 if err else model.d0)
            if i < n - 1:
                vec = vec @ gap
        out[min(sum(pattern), cap)] += vec.sum()
    return out


def joint_by_paths(model, n, depth, cap):
    gap = np.linalg.matrix_power(model.transition, depth - 2)
    out = np.zeros((cap + 1, cap + 1))
    for first in itertools.product((0, 1), repeat=n):
        for second in itertools.product((0, 1), repeat=n):
            vec = model.pi.copy()
            for i, (a, b) in enumerate(zip(first, second)):
                vec = vec @ (model.d1 if a else model.d0)
                vec = vec @ (model.d1 if b else model.d0)
                if i < n - 1:
                    vec = vec @ gap
            out[min(sum(first), cap), min(sum(second), cap)] += vec.sum()
    return out


def sequential_by_paths(model, n, cap):
    out = np.zeros((cap + 1, cap + 1))
    for pattern in itertools.product((0, 1), repeat=2 * n):
        vec = model.pi.copy()
        for err in pattern:
            vec = vec @ (model.d1 if err else model.d0)
        out[min(sum(pattern[:n]), cap), min(sum(pattern[n:]), cap)] += vec.sum()
    return out


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
    _, probs = marginal_error_distribution(model, 1, 1, 1)
    np.testing.assert_allclose(probs, [0.99, 0.01], atol=1e-15)


def test_marginal_frozen_reference():
    model = ibp_from_stats(ChannelSpec(ber=0.1, nacf=0.5))
    _, probs = marginal_error_distribution(model, 4, 3, 4)
    np.testing.assert_allclose(probs, MARGINAL_4_3, atol=1e-14)


def test_joint_frozen_reference():
    model = ibp_from_stats(ChannelSpec(ber=0.2, nacf=0.7))
    joint = joint_error_distribution(model, 3, 2, 3)
    np.testing.assert_allclose(joint.q, JOINT_3_2, atol=1e-14)


def test_sequential_frozen_reference():
    model = ibp_from_stats(ChannelSpec(ber=0.2, nacf=0.7))
    joint = sequential_joint_distribution(model, 2, 2)
    np.testing.assert_allclose(joint.q, SEQUENTIAL_2, atol=1e-14)


@pytest.mark.parametrize("ber,nacf", MODEL_GRID)
@pytest.mark.parametrize("n,depth", [(1, 1), (2, 3), (4, 2), (5, 3)])
def test_marginal_matches_path_enumeration(ber, nacf, n, depth):
    model = ibp_from_stats(ChannelSpec(ber=ber, nacf=nacf))
    _, probs = marginal_error_distribution(model, n, depth, n)
    assert np.max(np.abs(probs - marginal_by_paths(model, n, depth, n))) <= 1e-13


@pytest.mark.parametrize("ber,nacf", MODEL_GRID)
@pytest.mark.parametrize("n,depth", [(1, 2), (2, 3), (3, 2), (3, 4)])
def test_joint_matches_path_enumeration(ber, nacf, n, depth):
    model = ibp_from_stats(ChannelSpec(ber=ber, nacf=nacf))
    joint = joint_error_distribution(model, n, depth, n)
    assert np.max(np.abs(joint.q - joint_by_paths(model, n, depth, n))) <= 1e-13


@pytest.mark.parametrize("ber,nacf", MODEL_GRID)
@pytest.mark.parametrize("n", [1, 2, 4])
def test_sequential_matches_path_enumeration(ber, nacf, n):
    model = ibp_from_stats(ChannelSpec(ber=ber, nacf=nacf))
    joint = sequential_joint_distribution(model, n, n)
    assert np.max(np.abs(joint.q - sequential_by_paths(model, n, n))) <= 1e-13


def test_single_pair_back_to_back():
    # n=1 sequential law is exactly pi @ D(a) @ D(b) @ 1
    model = ibp_from_stats(ChannelSpec(ber=0.2, nacf=0.7))
    joint = sequential_joint_distribution(model, 1, 1)
    ones = np.ones(2)
    kernels = (model.d0, model.d1)
    for a in (0, 1):
        for b in (0, 1):
            expect = float(model.pi @ kernels[a] @ kernels[b] @ ones)
            assert joint.q[a, b] == pytest.approx(expect, abs=1e-15)


def test_uncorrelated_joint_factorizes():
    # nacf=0 makes every bit i.i.d.: the joint is an outer product of
    # binomial laws and the quarter table shows up at n=1, ber=0.5
    model = ibp_from_stats(ChannelSpec(ber=0.5, nacf=0.0))
    joint = joint_error_distribution(model, 1, 2, 1)
    np.testing.assert_allclose(joint.q, np.full((2, 2), 0.25), atol=1e-14)

    model = ibp_from_stats(ChannelSpec(ber=0.3, nacf=0.0))
    joint = joint_error_distribution(model, 4, 3, 4)
    binom = np.array([math.comb(4, j) * 0.3**j * 0.7 ** (4 - j) for j in range(5)])
    np.testing.assert_allclose(joint.q, np.outer(binom, binom), atol=1e-13)


@pytest.mark.parametrize("ber", [0.05, 0.2, 0.5])
def test_uncapped_marginal_is_binomial_at_nacf_zero(ber):
    model = ibp_from_stats(ChannelSpec(ber=ber, nacf=0.0))
    n = 6
    _, probs = marginal_error_distribution(model, n, 4, n)
    binom = [math.comb(n, j) * ber**j * (1 - ber) ** (n - j) for j in range(n + 1)]
    np.testing.assert_allclose(probs, binom, atol=1e-13)


@pytest.mark.parametrize("ber,nacf", MODEL_GRID)
@pytest.mark.parametrize("n,depth", [(3, 1), (3, 2), (5, 3)])
def test_laws_sum_to_one(ber, nacf, n, depth):
    model = ibp_from_stats(ChannelSpec(ber=ber, nacf=nacf))
    _, probs = marginal_error_distribution(model, n, depth, 2)
    assert probs.sum() == pytest.approx(1.0, abs=1e-12)
    joint = (
        joint_error_distribution(model, n, depth, 2)
        if depth >= 2
        else sequential_joint_distribution(model, n, 2)
    )
    assert joint.q.sum() == pytest.approx(1.0, abs=1e-12)
    assert np.all(joint.q >= -1e-15)


@pytest.mark.parametrize("n,depth", [(4, 1), (4, 2), (6, 5)])
def test_bucket_sum_reproduces_gap_horizon(n, depth):
    # summed over buckets the family must equal the plain transition
    # matrix over the whole recursion horizon
    model = ibp_from_stats(ChannelSpec(ber=0.02, nacf=0.8))
    family, _ = marginal_error_distribution(model, n, depth, 2)
    horizon = np.linalg.matrix_power(model.transition, (n - 1) * depth + 1)
    assert np.max(np.abs(family.total() - horizon)) <= 1e-12
    if depth >= 2:
        joint = joint_error_distribution(model, n, depth, 2)
        horizon = np.linalg.matrix_power(model.transition, (n - 1) * depth + 2)
        assert np.max(np.abs(joint.family.total() - horizon)) <= 1e-12
    else:
        joint = sequential_joint_distribution(model, n, 2)
        horizon = np.linalg.matrix_power(model.transition, 2 * n)
        assert np.max(np.abs(joint.family.total() - horizon)) <= 1e-12


@pytest.mark.parametrize("cap", [0, 1, 3])
def test_saturation_equals_rebucketed_full_resolution(cap):
    model = ibp_from_stats(ChannelSpec(ber=0.15, nacf=0.6))
    n, depth = 5, 2
    _, full = marginal_error_distribution(model, n, depth, n)
    _, capped = marginal_error_distribution(model, n, depth, cap)
    np.testing.assert_allclose(capped, bucket(full, cap), atol=1e-13)
    full_joint = joint_error_distribution(model, n, depth, n)
    capped_joint = joint_error_distribution(model, n, depth, cap)
    np.testing.assert_allclose(capped_joint.q, bucket(full_joint.q, cap), atol=1e-13)


@pytest.mark.parametrize("ber,nacf", [(0.01, 0.9), (0.2, 0.5)])
@pytest.mark.parametrize("n,depth,cap", [(63, 16, 6), (31, 4, 4), (5, 1, 2)])
def test_marginal_consistency(ber, nacf, n, depth, cap):
    model = ibp_from_stats(ChannelSpec(ber=ber, nacf=nacf))
    joint = (
        joint_error_distribution(model, n, depth, cap)
        if depth >= 2
        else sequential_joint_distribution(model, n, cap)
    )
    _, probs = marginal_error_distribution(model, n, depth, cap)
    assert marginal_consistency_check(joint, probs) <= 1e-12


def test_marginal_consistency_rejects_shape_mismatch():
    model = ibp_from_stats(ChannelSpec(ber=0.01, nacf=0.5))
    joint = joint_error_distribution(model, 4, 2, 2)
    with pytest.raises(ValueError):
        marginal_consistency_check(joint, np.zeros(5))


def test_three_state_channel_supported():
    # the recursions must accept any finite-state model, not only the IBP
    from burstfec.channel import FsmcModel

    transition = np.array([[0.9, 0.08, 0.02], [0.25, 0.6, 0.15], [0.05, 0.25, 0.7]])
    model = FsmcModel(transition, np.array([0.001, 0.1, 0.6]))
    joint = joint_error_distribution(model, 3, 2, 3)
    assert np.max(np.abs(joint.q - joint_by_paths(model, 3, 2, 3))) <= 1e-13
    _, probs = marginal_error_distribution(model, 3, 2, 3)
    assert marginal_consistency_check(joint, probs) <= 1e-12


def test_joint_rejects_depth_one():
    model = ibp_from_stats(ChannelSpec(ber=0.01, nacf=0.5))
    with pytest.raises(ValueError):
        joint_error_distribution(model, 4, 1, 2)


@pytest.mark.parametrize("args", [(0, 2, 2), (3, 2, -1)])
def test_joint_rejects_bad_sizes(args):
    model = ibp_from_stats(ChannelSpec(ber=0.01, nacf=0.5))
    n, depth, cap = args
    with pytest.raises(ValueError):
        joint_error_distribution(model, n, depth, cap)


def test_long_codeword_joint_is_fast():
    # worst realistic size: (1023, k, t<=16)-style code at depth 16
    model = ibp_from_stats(ChannelSpec(ber=0.001, nacf=0.9))
    start = time.perf_counter()
    joint = joint_error_distribution(model, 1023, 16, 16)
    elapsed = time.perf_counter() - start
    assert joint.q.sum() == pytest.approx(1.0, abs=1e-11)
    assert elapsed < 1.0


# ----------------------------------------------------------------------
# stacked channels: one recursion over a leading batch axis
# ----------------------------------------------------------------------


def looped_laws(model, n, depth, cap):
    """One channel's marginal probs and joint q, by the per-channel
    recursion the stacked one replaced: same float operations in the same
    order, so the results must agree bit for bit."""

    def step(buckets, miss, hit, axis):
        moved = np.moveaxis(buckets, axis, 0)
        out, up = moved @ miss, moved @ hit
        out[1:] += up[:-1]
        out[-1] += up[-1]
        return np.moveaxis(out, 0, axis)

    size = model.states
    gap = np.linalg.matrix_power(model.transition, depth - 1)
    marginal = np.zeros((cap + 1, size, size))
    marginal[0] = np.eye(size)
    for _ in range(n - 1):
        marginal = step(marginal, model.d0 @ gap, model.d1 @ gap, 0)
    marginal = step(marginal, model.d0, model.d1, 0)
    joint = np.zeros((cap + 1, cap + 1, size, size))
    joint[0, 0] = np.eye(size)
    if depth == 1:
        for axis in (0, 1):
            for _ in range(n):
                joint = step(joint, model.d0, model.d1, axis)
    else:
        gap = np.linalg.matrix_power(model.transition, depth - 2)
        for i in range(n):
            joint = step(step(joint, model.d0, model.d1, 0), model.d0, model.d1, 1)
            if i < n - 1 and depth > 2:
                joint = joint @ gap
    return (
        np.einsum("s,jst->j", model.pi, marginal),
        np.einsum("s,ijst->ij", model.pi, joint),
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
}


@pytest.mark.parametrize("stack", STACKS.values(), ids=STACKS.keys())
@pytest.mark.parametrize(
    "n,depth,cap",
    [(63, 1, 2), (63, 2, 2), (63, 4, 4), (63, 8, 4), (63, 16, 6), (9, 2, 9), (5, 7, 0)],
)
def test_stacked_laws_equal_per_channel_laws(stack, n, depth, cap):
    marginals = marginal_error_distribution(stack, n, depth, cap)
    sequentials = sequential_joint_distribution(stack, n, cap)
    joints = (
        joint_error_distribution(stack, n, depth, cap) if depth >= 2 else sequentials
    )
    assert len(marginals) == len(joints) == len(sequentials) == len(stack)
    for model, (family, probs), joint, sequential in zip(
        stack, marginals, joints, sequentials
    ):
        alone_family, alone_probs = marginal_error_distribution(model, n, depth, cap)
        assert np.array_equal(probs, alone_probs)
        assert np.array_equal(family.buckets, alone_family.buckets)
        alone_sequential = sequential_joint_distribution(model, n, cap)
        assert np.array_equal(sequential.q, alone_sequential.q)
        assert np.array_equal(sequential.family.buckets, alone_sequential.family.buckets)
        alone_joint = (
            joint_error_distribution(model, n, depth, cap) if depth >= 2 else alone_sequential
        )
        assert np.array_equal(joint.q, alone_joint.q)
        looped_probs, looped_q = looped_laws(model, n, depth, cap)
        assert np.array_equal(probs, looped_probs)
        assert np.array_equal(joint.q, looped_q)


@pytest.mark.parametrize("states", [2, 3])
@pytest.mark.parametrize("n,cap", [(1, 2), (5, 0), (9, 4), (12, 6)])
def test_mixed_depth_stack_equals_per_depth_calls(states, n, cap):
    # one depth per channel: each channel gets its own gap power, and a
    # depth-2 channel of a joint stack with deeper ones is multiplied by an
    # identity gap, which must leave its buckets bit for bit as they were
    rng = np.random.default_rng(100 * states + n)
    stack = [random_fsmc(int(seed), states) for seed in rng.integers(0, 10**6, 7)]
    for recursion, depths in [
        (marginal_error_distribution, [1, 3, 1, 8, 2, 5, 3]),
        (joint_error_distribution, [2, 3, 2, 8, 4, 2, 5]),
    ]:
        mixed = recursion(stack, n, depths, cap)
        for depth in set(depths):
            chosen = [i for i, d in enumerate(depths) if d == depth]
            alone = recursion([stack[i] for i in chosen], n, depth, cap)
            for i, result in zip(chosen, alone):
                if recursion is marginal_error_distribution:
                    (family, probs), (alone_family, alone_probs) = mixed[i], result
                else:
                    family, probs = mixed[i].family, mixed[i].q
                    alone_family, alone_probs = result.family, result.q
                assert np.array_equal(family.buckets, alone_family.buckets)
                assert np.array_equal(probs, alone_probs)


def test_depths_must_match_the_stack():
    stack = STACKS["three-state"]
    with pytest.raises(ValueError, match="got 2 depths for 5 channels"):
        marginal_error_distribution(stack, 4, [1, 2], 2)
    with pytest.raises(ValueError, match="depth must be >= 1, got 0"):
        marginal_error_distribution(stack, 4, [1, 0, 2, 2, 2], 2)
    with pytest.raises(ValueError, match="needs depth >= 2"):
        joint_error_distribution(stack, 4, [2, 2, 1, 3, 3], 2)


def test_single_channel_call_returns_one_result():
    model = STACKS["one-channel"][0]
    family, probs = marginal_error_distribution(model, 5, 3, 2)
    assert family.buckets.shape == (3, 2, 2) and probs.shape == (3,)
    assert joint_error_distribution(model, 5, 3, 2).q.shape == (3, 3)
    assert len(joint_error_distribution(STACKS["one-channel"], 5, 3, 2)) == 1


@pytest.mark.parametrize(
    "recursion",
    [
        lambda stack: marginal_error_distribution(stack, 4, 2, 2),
        lambda stack: joint_error_distribution(stack, 4, 2, 2),
        lambda stack: sequential_joint_distribution(stack, 4, 2),
    ],
    ids=["marginal", "joint", "sequential"],
)
def test_stack_with_mixed_state_counts_is_rejected(recursion):
    mixed = [STACKS["one-channel"][0], random_fsmc(0)]
    with pytest.raises(ValueError, match="common state count, got \\[2, 3\\]"):
        recursion(mixed)
    with pytest.raises(ValueError, match="common state count"):
        recursion([])
