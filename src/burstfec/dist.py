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

Each recursion takes one FsmcModel, or a non-empty sequence of them
with equal state counts run as one stack along a leading batch axis,
and returns two plain arrays ``(buckets, law)``.  ``buckets`` holds one
S x S flow matrix per counter value: (cap+1) of them for one codeword,
(cap+1) x (cap+1) for two; summed over the counter values they give
the plain transition power over the recursion's horizon.  ``law`` is
the count law ``pi @ buckets[...] @ 1``.  A sequence gets both arrays
stacked along a leading channel axis, one FsmcModel its own slices.
The interleaved recursions take one depth for the whole stack or one
depth per channel, so a whole sweep over depths is one stack.  Every
product multiplies a channel's whole bucket stack, viewed as one
(counts*S) x S matrix, so a counted bit costs one matrix product per
channel and kernel.  In the joint and sequential recursions it costs
one product per channel, by the transition matrix, when each state of
the stack is either error-free or always in error (as in every
ibp_from_stats channel): the kernel terms it skips are exact zeros, so
the bits are the same.
"""

from __future__ import annotations

import numpy as np

from .channel import FsmcModel


def _channels(model):
    """The channels of one FsmcModel or a non-empty sequence of them."""
    channels = [model] if isinstance(model, FsmcModel) else list(model)
    if not channels:
        raise ValueError("need at least one channel, got an empty sequence")
    return channels


def _stack(model, n: int, cap: int, counters: int):
    """Check a recursion's inputs; return its channels, the start buckets
    B x (cap+1)^counters x S x S, the transitions B x S x S and the
    no-error/error kernels d0, d1 stacked once as 2 x B x S x S."""
    if n < 1:
        raise ValueError(f"codeword length must be >= 1, got {n}")
    if cap < 0:
        raise ValueError(f"counter cap must be >= 0, got {cap}")
    channels = _channels(model)
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


def _erring_states(kernels):
    """The erring states of a stack, when every state is clean (its d1
    column is zero in every channel) or erring (its d0 column is); None
    when some state errs with a probability strictly between 0 and 1."""
    miss, hit = kernels.any(axis=(1, 2)).tolist()  # nonzero d0, d1 columns
    if any(m and h for m, h in zip(miss, hit)):
        return None
    return [state for state, erring in enumerate(hit) if erring]


def _walk(buckets, transition, kernels, path, gap=None):
    """Advance a joint bucket stack along ``path``: each entry is the
    counter axis (1 or 2) of a counted bit, or None for a product by ``gap``.

    When every state is clean or erring (see :func:`_erring_states`), a
    counted bit costs one product per channel by the transition matrix.
    The flows then run as B x S_end x counts x counts x S_start, so each
    end state's rows are contiguous: a clean state's rows are its no-error
    flows as they stand, and an erring state's rows move up one count,
    saturating at the top bucket.
    The terms skipped are exact zeros, so every value is the dot product
    :func:`_count_step` computes.  Other stacks take :func:`_count_step`.
    """
    erring = _erring_states(kernels)
    if erring is None:
        for axis in path:
            buckets = _product(buckets, gap) if axis is None else _count_step(buckets, kernels, axis)
        return buckets
    flows = buckets.transpose(0, 4, 1, 2, 3).copy()
    rows = flows.shape[:2] + (-1,)
    # the flows are multiplied from the left, by the transposed matrices
    full = transition.transpose(0, 2, 1)
    gap = None if gap is None else gap.transpose(0, 2, 1)
    # each product writes into the buffer it does not read; per buffer and
    # counter, each erring state's flows with that counter's axis first
    # (none at cap 0, where every count is the top bucket)
    buffers = [
        (buffer, {axis: [buffer[:, state].swapaxes(0, axis) for state in erring]
                  for axis in (1, 2) if flows.shape[2] > 1})
        for buffer in (flows, np.empty_like(flows))
    ]
    for axis in path:
        (source, _), (target, erring_counts) = buffers
        np.matmul(gap if axis is None else full, source.reshape(rows), out=target.reshape(rows))
        for counts in erring_counts.get(axis, ()):
            counts[-1] += counts[-2]
            counts[1:-1] = counts[:-2]
            counts[0] = 0.0
        buffers.reverse()
    return np.ascontiguousarray(buffers[0][0].transpose(0, 2, 3, 4, 1))


def _laws(model, channels, buckets):
    """(buckets, law): the law of each channel is its buckets contracted
    with its stationary vector, one einsum per channel, as a batched
    einsum rounds differently.  One FsmcModel gets its own slices."""
    laws = np.empty(buckets.shape[:-2])
    for i, channel in enumerate(channels):
        laws[i] = np.einsum("s,...st->...", channel.pi, buckets[i])
    return (buckets[0], laws[0]) if isinstance(model, FsmcModel) else (buckets, laws)


def marginal_error_distribution(model, n: int, depth, cap: int):
    """Distribution of the bucketed error count in one interleaved codeword.

    Every counted bit except the last is followed by a marginalized gap
    of depth-1 slots occupied by the other codewords of the block;
    ``depth`` is one int or one per channel of the stack.  Returns
    ``(buckets, probs)`` with ``probs[j] = pi @ buckets[j] @ 1``.
    """
    if (least := np.min(depth, initial=1)) < 1:
        raise ValueError(f"interleaving depth must be >= 1, got {least}")
    channels, buckets, transition, kernels = _stack(model, n, cap, 1)
    gap = _powers(transition, np.subtract(depth, 1))
    for step in [kernels @ gap] * (n - 1) + [kernels]:
        buckets = _count_step(buckets, step, 1)
    return _laws(model, channels, buckets)


def joint_error_distribution(model, n: int, depth, cap: int):
    """Joint law of the bucketed error counts in two adjacent codewords.

    The matching bits of the two codewords are transmitted back to back;
    successive bit pairs are separated by depth-2 marginalized slots, and
    the final pair has no trailing gap.  ``depth`` is one int or one per
    channel of the stack; the gap product is skipped only when every
    depth is 2, and is the identity for the depth-2 channels of a mixed
    stack.  Requires depth >= 2 -- depth 1 has no column pairing (see
    :func:`sequential_joint_distribution`).  Returns ``(buckets, q)``
    with ``q[i, j]`` = P(first counts i, second counts j).
    """
    if np.min(depth, initial=2) < 2:
        raise ValueError("joint pairing needs depth >= 2; use sequential_joint_distribution")
    channels, buckets, transition, kernels = _stack(model, n, cap, 2)
    gap = _powers(transition, np.subtract(depth, 2))
    path = [1, 2] * n
    if np.max(depth, initial=2) > 2:  # a gap product between successive bit pairs
        path = [1, 2, None] * (n - 1) + [1, 2]
    return _laws(model, channels, _walk(buckets, transition, kernels, path, gap))


def sequential_joint_distribution(model, n: int, cap: int):
    """Joint error-count law of two codewords sent back to back.

    This is the depth-1 layout: the two codewords occupy 2n consecutive
    transmission slots with no interleaving gaps at all.  Returns
    ``(buckets, q)`` as :func:`joint_error_distribution` does.
    """
    channels, buckets, transition, kernels = _stack(model, n, cap, 2)
    return _laws(model, channels, _walk(buckets, transition, kernels, [1] * n + [2] * n))
