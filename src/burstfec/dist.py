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
channel and kernel, written into one of two reused buffers.  In the
joint and sequential recursions it costs one product per channel, by
the transition matrix, when each state of the stack is either
error-free or always in error (as in every ibp_from_stats channel): the
kernel terms it skips are exact zeros, so the bits are the same.
"""

from __future__ import annotations

import operator

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
    stacked = np.array([
        [c.transition for c in channels], [c.d0 for c in channels], [c.d1 for c in channels]
    ])
    return channels, buckets, stacked[0], stacked[1:]


def _depths(depth, channels, least: int, message: str):
    """One Python int depth per channel, from one depth for the whole stack
    or one per channel; a depth below ``least`` is refused with ``message``,
    formatted with the least depth."""
    if isinstance(depth, list) or np.ndim(depth):
        depths = [operator.index(d) for d in depth]
    else:
        depths = [operator.index(depth)] * len(channels)
    if (low := min(depths, default=least)) < least:
        raise ValueError(message.format(low))
    if len(depths) != len(channels):
        raise ValueError(f"got {len(depths)} depths for {len(channels)} channels")
    return depths


def _power(matrices, exponent: int):
    """``numpy.linalg.matrix_power(matrices, exponent)`` for an exponent >= 0:
    the same products in the same order, without its checks."""
    if exponent == 0:
        power = np.empty_like(matrices)
        power[...] = np.eye(matrices.shape[-1])
        return power
    if exponent == 3:
        return matrices @ matrices @ matrices
    power = square = None
    while exponent:
        square = matrices if square is None else square @ square
        exponent, bit = divmod(exponent, 2)
        if bit:
            power = square if power is None else power @ square
    return power


def _powers(matrices, depths, offset: int):
    """``matrices[i] ** (depths[i] - offset)`` over a stack, for a list of
    int depths with one per matrix: one :func:`_power` per distinct depth,
    so no matrix's power depends on the rest of the stack."""
    distinct = set(depths)
    if len(distinct) == 1:
        return _power(matrices, depths[0] - offset)
    powers = np.empty_like(matrices)
    for depth in distinct:
        chosen = [i for i, d in enumerate(depths) if d == depth]
        powers[chosen] = _power(matrices[chosen], depth - offset)
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
    count, states, size = flows.shape[:3]  # size: the cap + 1 counts of a counter
    # the flows are multiplied from the left, by the transposed matrices
    full = transition.transpose(0, 2, 1)
    gap = None if gap is None else gap.transpose(0, 2, 1)
    # each product writes into the buffer it does not read.  Per buffer and
    # counter, each erring state's count move: its top count is added to
    # the count below, its rows shift up by one count's stride (the top
    # count falls off or lands on a count 0) and count 0 is cleared; none
    # at cap 0, where every count is the top bucket
    stride = size * states  # one count of the first counter, in a flat row
    buffers = []
    for buffer in (flows, np.empty_like(flows)):
        moves = {None: [], 1: [], 2: []}
        for state in erring if size > 1 else ():
            counts = buffer[:, state]
            rows = counts.reshape(count, -1)
            moves[1].append((counts[:, -2], counts[:, -1], rows[:, stride:], rows[:, :-stride],
                             counts[:, 0]))
            moves[2].append((counts[:, :, -2], counts[:, :, -1], rows[:, states:],
                             rows[:, :-states], counts[:, :, 0]))
        buffers.append((buffer, buffer.reshape(count, states, -1), moves))
    for axis in path:
        (_, source, _), (_, target, moves) = buffers
        np.matmul(gap if axis is None else full, source, out=target)
        for below, top, upper, lower, first in moves[axis]:
            below += top
            upper[...] = lower
            first.fill(0.0)
        buffers.reverse()
    return np.ascontiguousarray(buffers[0][0].transpose(0, 2, 3, 4, 1))


def _laws(model, channels, buckets):
    """(buckets, law): the law of each channel is its buckets contracted
    with its stationary vector, one einsum per channel, as a batched
    einsum rounds differently.  One FsmcModel gets its own slices."""
    if isinstance(model, FsmcModel):
        return buckets[0], np.einsum("s,...st->...", model.pi, buckets[0])
    laws = np.empty(buckets.shape[:-2])
    for i, channel in enumerate(channels):
        laws[i] = np.einsum("s,...st->...", channel.pi, buckets[i])
    return buckets, laws


def marginal_error_distribution(model, n: int, depth, cap: int):
    """Distribution of the bucketed error count in one interleaved codeword.

    Every counted bit except the last is followed by a marginalized gap
    of depth-1 slots occupied by the other codewords of the block;
    ``depth`` is one int or one per channel of the stack.  Returns
    ``(buckets, probs)`` with ``probs[j] = pi @ buckets[j] @ 1``.
    """
    channels, buckets, transition, kernels = _stack(model, n, cap, 1)
    depths = _depths(depth, channels, 1, "interleaving depth must be >= 1, got {}")
    steps = kernels @ _powers(transition, depths, 1)
    count, states = transition.shape[:2]
    # each counted bit multiplies into the product buffer it does not read;
    # a product's no-error half, its error half moved up one count added
    # in place, is the next bit's buckets
    views = [
        (product[0].reshape(count, -1, states), product.reshape(2, count, -1, states),
         product[0, :, 1:], product[1, :, :-1], product[0, :, -1], product[1, :, -1])
        for product in np.empty((2, 2, count, cap + 1, states, states))
    ]
    buckets = buckets.reshape(count, -1, states)
    for bit in range(n):
        rows, out, upper, lower, top, hit = views[bit % 2]
        np.matmul(buckets, steps if bit < n - 1 else kernels, out=out)
        upper += lower
        top += hit
        buckets = rows
    return _laws(model, channels, buckets.reshape(count, cap + 1, states, states))


def joint_error_distribution(model, n: int, depth, cap: int):
    """Joint law of the bucketed error counts in two adjacent codewords.

    The matching bits of the two codewords are transmitted back to back;
    successive bit pairs are separated by depth-2 marginalized slots, and
    the final pair has no trailing gap.  ``depth`` is one int or one per
    channel of the stack; the gap product is skipped, and its power not
    computed, only when every depth is 2, and is the identity for the
    depth-2 channels of a mixed stack.  Requires depth >= 2 -- depth 1 has
    no column pairing (see :func:`sequential_joint_distribution`).
    Returns ``(buckets, q)`` with ``q[i, j]`` = P(first counts i, second
    counts j).
    """
    channels, buckets, transition, kernels = _stack(model, n, cap, 2)
    depths = _depths(
        depth, channels, 2, "joint pairing needs depth >= 2; use sequential_joint_distribution"
    )
    path, gap = [1, 2] * n, None
    if max(depths) > 2:  # a gap product between successive bit pairs
        path, gap = [1, 2, None] * (n - 1) + [1, 2], _powers(transition, depths, 2)
    return _laws(model, channels, _walk(buckets, transition, kernels, path, gap))


def sequential_joint_distribution(model, n: int, cap: int):
    """Joint error-count law of two codewords sent back to back.

    This is the depth-1 layout: the two codewords occupy 2n consecutive
    transmission slots with no interleaving gaps at all.  Returns
    ``(buckets, q)`` as :func:`joint_error_distribution` does.
    """
    channels, buckets, transition, kernels = _stack(model, n, cap, 2)
    return _laws(model, channels, _walk(buckets, transition, kernels, [1] * n + [2] * n))
