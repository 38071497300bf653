"""Distributions of bit error counts over interleaved codewords.

Everything here is computed by matrix recursions over the channel model:
a saturating counter per codeword, and one S x S probability-flow matrix
per counter value.  Counters saturate at ``cap``, so the top bucket reads
"cap or more errors"; running with cap = n keeps full resolution.

Under column-wise interleaving of depth I, consecutive bits of one
codeword are I transmission slots apart, and the matching bits of two
adjacent codewords go out back to back.  The recursions therefore
alternate counted steps (split d0/d1 kernels) with marginalized gap
powers of the full transition matrix: D**(I-1) between the bits of one
codeword, D**(I-2) between the bit pairs of two adjacent codewords.

Each recursion takes one FsmcModel, or a sequence of them with equal
state counts run as one stack along a leading batch axis; a sequence
gives a list with one result per channel.  The interleaved recursions
take one depth for the whole stack or one depth per channel, so a whole
sweep over depths is one stack.  Every product multiplies a channel's
whole bucket stack, viewed as one (counts*S) x S matrix, so a counted
bit costs one matrix product per channel and kernel.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channel import FsmcModel


@dataclass(frozen=True)
class CountMatrixFamily:
    """Bucketed probability-flow matrices over one recursion horizon.

    ``buckets[j]`` (or ``buckets[i, j]`` for joint families) is the S x S
    matrix of path probabilities reaching those counter values.  Summed
    over all buckets the family reproduces the plain multi-slot transition
    matrix of the chain, which is the main internal consistency check.
    """

    buckets: np.ndarray
    cap: int

    def total(self) -> np.ndarray:
        """Sum over all buckets; row-stochastic over the full horizon."""
        count_axes = tuple(range(self.buckets.ndim - 2))
        return self.buckets.sum(axis=count_axes)


@dataclass(frozen=True)
class JointErrorDistribution:
    """Joint law of the bucketed bit error counts in two adjacent codewords."""

    q: np.ndarray  # (cap+1, cap+1); q[i, j] = P(first counts i, second counts j)
    cap: int
    family: CountMatrixFamily

    @property
    def first_marginal(self) -> np.ndarray:
        return self.q.sum(axis=1)


def _stack(model, n: int, cap: int, counters: int):
    """Check a recursion's inputs; return its channels, the start buckets
    B x (cap+1)^counters x S x S, the transitions B x S x S and the
    no-error/error kernels d0, d1 stacked once as 2 x B x S x S."""
    if n < 1:
        raise ValueError(f"codeword length must be >= 1, got {n}")
    if cap < 0:
        raise ValueError(f"counter cap must be >= 0, got {cap}")
    channels = [model] if isinstance(model, FsmcModel) else list(model)
    sizes = sorted({channel.states for channel in channels})
    if len(sizes) != 1:
        raise ValueError(f"stacked channels need one common state count, got {sizes}")
    buckets = np.zeros((len(channels),) + (cap + 1,) * counters + (sizes[0],) * 2)
    buckets[(slice(None),) + (0,) * counters] = np.eye(sizes[0])
    names = ("transition", "d0", "d1")
    stacked = np.array([[getattr(c, name) for c in channels] for name in names])
    return channels, buckets, stacked[0], stacked[1:]


def _powers(matrices, exponents):
    """``matrices[i] ** exponents[i]`` over a stack, for one exponent or
    one per matrix (from each channel's depth); one matrix_power per
    distinct exponent, so no matrix's power depends on the rest of the
    stack."""
    if np.ndim(exponents) and len(exponents) != len(matrices):
        raise ValueError(f"got {len(exponents)} depths for {len(matrices)} channels")
    exponents = np.ravel(exponents).tolist()
    distinct = set(exponents)
    if len(distinct) == 1:  # no copies for a stack of one depth
        return np.linalg.matrix_power(matrices, exponents[0])
    powers = np.empty_like(matrices)
    for exponent in distinct:
        chosen = [i for i, e in enumerate(exponents) if e == exponent]
        powers[chosen] = np.linalg.matrix_power(matrices[chosen], exponent)
    return powers


def _product(buckets, kernels):
    """``buckets @ kernels`` for kernels B x S x S or 2 x B x S x S, with
    each channel's bucket matrices viewed as one (counts*S) x S matrix:
    one BLAS product per channel and kernel, not one per bucket."""
    rows = buckets.reshape(len(buckets), -1, buckets.shape[-1])
    return (rows @ kernels).reshape(kernels.shape[:-3] + buckets.shape)


def _count_step(buckets, kernels, axis):
    """Advance every bucket matrix by one counted bit: multiply by the
    no-error/error kernels and move the counter on array axis ``axis`` up
    by one on an error, saturating at the top bucket."""
    product = _product(buckets, kernels)
    out, hit = product[0], product[1]  # cheaper than unpacking the array
    head = (slice(None),) * axis
    out[head + (slice(1, None),)] += hit[head + (slice(None, -1),)]
    out[head + (-1,)] += hit[head + (-1,)]
    return out


def _laws(model, channels, buckets, cap):
    """Per channel (family, probs) for one counter, else the joint law;
    contracted channel by channel, as a batched einsum rounds differently."""
    results = []
    for channel, b in zip(channels, buckets):
        family = CountMatrixFamily(buckets=b, cap=cap)
        law = np.einsum("s,...st->...", channel.pi, b)
        results.append((family, law) if b.ndim == 3 else JointErrorDistribution(law, cap, family))
    return results[0] if isinstance(model, FsmcModel) else results


def marginal_error_distribution(model, n: int, depth, cap: int):
    """Distribution of the bucketed error count in one interleaved codeword.

    Every counted bit except the last is followed by a marginalized gap
    of depth-1 slots occupied by the other codewords of the block;
    ``depth`` is one int or one per channel of the stack.  Returns the
    bucket family and the probability vector
    ``probs[j] = pi @ buckets[j] @ 1``.
    """
    if (least := np.min(depth, initial=1)) < 1:
        raise ValueError(f"interleaving depth must be >= 1, got {least}")
    channels, buckets, transition, kernels = _stack(model, n, cap, 1)
    gap = _powers(transition, np.subtract(depth, 1))
    for step in [kernels @ gap] * (n - 1) + [kernels]:
        buckets = _count_step(buckets, step, 1)
    return _laws(model, channels, buckets, cap)


def joint_error_distribution(model, n: int, depth, cap: int):
    """Joint law of the bucketed error counts in two adjacent codewords.

    The matching bits of the two codewords are transmitted back to back;
    successive bit pairs are separated by depth-2 marginalized slots, and
    the final pair has no trailing gap.  ``depth`` is one int or one per
    channel of the stack; the gap product is skipped only when every
    depth is 2, and is the identity for the depth-2 channels of a mixed
    stack.  Requires depth >= 2 -- depth 1 has no column pairing (see
    :func:`sequential_joint_distribution`).
    """
    if np.min(depth, initial=2) < 2:
        raise ValueError("joint pairing needs depth >= 2; use sequential_joint_distribution")
    channels, buckets, transition, kernels = _stack(model, n, cap, 2)
    gap = _powers(transition, np.subtract(depth, 2))
    gapped = np.max(depth, initial=2) > 2
    for i in range(n):
        buckets = _count_step(buckets, kernels, 1)
        buckets = _count_step(buckets, kernels, 2)
        if i < n - 1 and gapped:
            buckets = _product(buckets, gap)
    return _laws(model, channels, buckets, cap)


def sequential_joint_distribution(model, n: int, cap: int):
    """Joint error-count law of two codewords sent back to back.

    This is the depth-1 layout: the two codewords occupy 2n consecutive
    transmission slots with no interleaving gaps at all.
    """
    channels, buckets, _, kernels = _stack(model, n, cap, 2)
    for axis in (1, 2):
        for _ in range(n):
            buckets = _count_step(buckets, kernels, axis)
    return _laws(model, channels, buckets, cap)


def marginal_consistency_check(joint: JointErrorDistribution, marginal_probs) -> float:
    """Largest absolute gap between the joint's first marginal and the
    one-codeword distribution computed for the same parameters.

    Both recursions integrate the same path measure, so the gap is pure
    floating-point noise; anything above ~1e-12 indicates a bug.
    """
    probs = np.asarray(marginal_probs, dtype=float)
    if probs.shape != (joint.cap + 1,):
        raise ValueError(
            f"marginal has {probs.shape[0]} buckets, joint expects {joint.cap + 1}"
        )
    return float(np.max(np.abs(joint.first_marginal - probs)))
