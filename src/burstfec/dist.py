"""Distributions of bit error counts over interleaved codewords.

Everything here is computed by matrix recursions over the channel model:
a saturating counter per codeword, and one S x S probability-flow matrix
per counter value.  Counters saturate at ``cap``, so the top bucket reads
"cap or more errors"; running with cap = n keeps full resolution.

Under column-wise interleaving of depth I, consecutive bits of one
codeword are I transmission slots apart, and the matching bits of two
adjacent codewords go out back to back.  The recursions therefore
alternate counted steps with marginalized gap powers of the full
transition matrix: D**(I-1) between the bits of one codeword, D**(I-2)
between the bit pairs of two adjacent codewords.

Each recursion takes a non-empty sequence of FsmcModels with equal
state counts, run as one stack along a leading batch axis, and returns
the count law as a plain array with a leading channel axis: (cap+1)
counts for one codeword, (cap+1) x (cap+1) for two.  A count's law is
``pi @ flow @ 1`` of its S x S flow matrix; summed over the counter
values the flows give the plain transition power over the recursion's
horizon.  Every cap is at least 1.  The two-codeword recursions take a
sequence of caps, for one walk whose counters hold the counts below the
largest cap and one top slot per distinct cap; each cap's law is a
one-cap walk's, bit for bit.  Their one caller,
:func:`burstfec.models.evaluate_models`, passes every channel as one
stack.  The interleaved recursions take one depth per channel, so a
whole sweep over depths is one stack.  Every product multiplies a
channel's whole flow stack, viewed as one (counts*S) x S matrix,
written into one of two reused buffers.  In the one-codeword recursion
a counted bit costs one product per channel and kernel, each times the
gap power: the kernels split the transition matrix T by the error
probability e of each destination state, d1 = T * e moving the flow up
one count and d0 = T - d1 keeping it.  In the joint and sequential
recursions it costs one product per channel by the transition matrix,
after which each end state's flow moves by that state's error
probability e: it stands for e = 0, moves up one count for e = 1 (as
every state of an ibp_from_stats channel does one or the other), and
otherwise keeps (1 - e) of itself and moves e up one count.
"""

from __future__ import annotations

import itertools
import operator

import numpy as np


def _stack(channels, n: int, caps, counters: int):
    """Check a recursion's inputs; return the start buckets
    B x slots^counters x S x S, the transitions B x S x S, the error
    profiles B x S and the top slot of each distinct cap, by cap.  A
    counter's slots are the counts 0..L-1 below the largest cap L, then
    one top slot per distinct cap in increasing order, so one cap L has
    its top at count L."""
    if n < 1:
        raise ValueError(f"codeword length must be >= 1, got {n}")
    if min(caps, default=0) < 1:
        raise ValueError(f"counter cap must be >= 1, got {caps}")
    sizes = sorted({channel.states for channel in channels})
    if len(sizes) != 1:
        raise ValueError(f"stacked channels need one common state count, got {sizes}")
    distinct = sorted(set(caps))
    tops = {c: distinct[-1] + i for i, c in enumerate(distinct)}
    buckets = np.zeros((len(channels),) + (distinct[-1] + len(tops),) * counters + (sizes[0],) * 2)
    buckets[(slice(None),) + (0,) * counters] = np.eye(sizes[0])
    transition = np.array([c.transition for c in channels])
    errors = np.array([c.error_profile for c in channels])
    return buckets, transition, errors, tops


def _runs(tops):
    """The top slots as (counts, slots) slice pairs, one per run of evenly
    spaced caps: count c-1 feeds the top slot of cap c, and a run's slots
    are consecutive, so one add feeds the whole run."""
    caps = list(tops)  # increasing, as their slots are
    runs, start = [], 0
    while start < len(caps):
        end = start + 1
        step = caps[end] - caps[start] if end < len(caps) else 1
        while end < len(caps) and caps[end] - caps[end - 1] == step:
            end += 1
        first, last = caps[start], caps[end - 1]
        runs.append((slice(first - 1, last, step), slice(tops[first], tops[last] + 1)))
        start = end
    return runs


def _depths(depths, channels, least: int, message: str):
    """One Python int depth per channel; a depth below ``least`` is refused
    with ``message``, formatted with the least depth."""
    depths = [operator.index(d) for d in depths]
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
    powers, stacked = np.empty_like(matrices), np.array(depths)
    for depth in distinct:
        chosen = np.flatnonzero(stacked == depth)
        powers[chosen] = _power(matrices[chosen], depth - offset)
    return powers


def _walk(buckets, transition, errors, path, gap, tops, swap=False):
    """Advance a joint bucket stack along ``path``: each entry is the
    counter axis (1 or 2) of a counted bit, or None for a product by
    ``gap``.  A counter that the path never counts on may have fewer
    slots than the other, down to one.  Returns the walk's own flows, or
    with ``swap`` a view of them with the two counter axes swapped.

    A counted bit costs one product per channel by the transition matrix,
    written into the buffer it does not read.  The flows run as
    B x S_end x slots_1 x slots_2 x S_start, so each end state's rows are
    contiguous; each end state t then moves by its error probability,
    ``errors[b, t]`` for channel b.  A state is clean, erring or mixed
    over the whole stack.  A clean state's rows (e = 0) stand.  An erring
    state's rows (e = 1) feed each top slot from its cap's count c-1, one
    add per run of evenly spaced caps, then its counts below the largest
    cap move up one count in place.  A mixed state keeps (1 - e) * rows
    and adds e * rows, made in a spare buffer, one count up, each top slot
    from its own and its count c-1.  For a channel whose e is 0 or 1 the
    mixed move gives the clean or erring bits, so no channel's results
    depend on the rest of the stack.
    """
    flows = buckets.transpose(0, 4, 1, 2, 3).copy()
    count, states, slots, width = flows.shape[:4]
    size = slots - len(tops)  # the counts 0..L-1 of a counter below the largest cap L
    moving = errors.any(axis=0).nonzero()[0].tolist()
    erring = (errors == 1.0).all(axis=0).tolist()
    spare = None if all(erring[t] for t in moving) else np.empty_like(flows[:, 0])
    # the flows are multiplied from the left, by the transposed matrices
    full = transition.transpose(0, 2, 1)
    gap = None if gap is None else gap.transpose(0, 2, 1)
    runs = _runs(tops)
    # per buffer and path entry, the product, written into the buffer it
    # does not read, and the numpy calls of the count move of each state
    stride = width * states  # one count of the first counter, in a flat row
    steps = []
    for buffer in flows, np.empty_like(flows):
        moves = {axis: (full if axis else gap, []) for axis in set(path)}
        for state in moving:
            counts = buffer[:, state]
            flat = counts.reshape(count, -1)  # each channel's rows as one
            # the counts below the largest cap: a flat row of the first
            # counter's, and a row of the second counter's per first slot
            rows = counts.reshape(count, slots, -1)[..., : size * states]
            for axis, lead, step in (1, flat[:, : size * stride], stride), (2, rows, states):
                if axis not in moves:  # a counter the path never counts on
                    continue
                head = (slice(None),) * axis
                calls = moves[axis][1]
                if erring[state]:
                    # each run's top slots fed from their counts c-1, a shift up
                    # one count below the largest cap, a cleared count 0
                    for below, top in runs:
                        part = counts[head + (below,)]
                        if axis == 2 and below.step > 1 and part.shape[2] > 1:
                            # spaced counts of the second counter are S-wide runs:
                            # gathered into one block first, they add faster
                            indices = np.arange(below.start, below.stop, below.step)
                            part = np.empty_like(part)
                            calls.append((np.take, (counts, indices, 2, part, "clip")))
                        calls.append(_add(counts[head + (top,)], part))
                    calls += [(operator.setitem, (lead[..., step:], ..., lead[..., :-step])),
                              (counts[head + (0,)].fill, (0.0,))]
                    continue
                # e * rows into the spare buffer and (1 - e) * rows in place,
                # then the spare buffer added one count up, saturating alike
                error = errors[:, state].reshape(count, 1, 1, 1)
                calls += [(np.multiply, (counts, error, spare)),
                          (np.multiply, (counts, 1.0 - error, counts))]
                calls.append(_add(counts[head + (slice(1, size),)], spare[head + (slice(size - 1),)]))
                calls += [_add(counts[head + (top,)], spare[head + (below,)]) for below, top in runs]
                top_slots = head + (slice(size, None),)  # each gets e of its own back
                calls.append(_add(counts[top_slots], spare[top_slots]))
        steps.append((buffer.reshape(count, states, -1), moves))
    for ((source, _), (target, moves)), axis in zip(itertools.cycle((steps, steps[::-1])), path):
        matrix, calls = moves[axis]
        np.matmul(matrix, source, out=target)
        for call, args in calls:
            call(*args)
    flows = steps[len(path) % 2][0].reshape(flows.shape)
    return flows.transpose(0, 1, 3, 2, 4) if swap else flows


def _add(total, part):
    """The numpy call ``total += part``, for a list of calls to run later."""
    return np.add, (total, part, total)


def _laws(channels, flows, caps=None, tops=None):
    """The law of each channel of a stack of flows, B x S_end x counts x
    S_start: the flows summed over their end states, then weighted by the
    stationary vectors, in one einsum over the stack.

    A list of ``caps`` gets one law per cap: each cap's counts below it
    and its top slot are cut from the walk's law.  Every law is
    C-contiguous, since the models' sums round by memory layout.  With
    one distinct cap the walk's slots are that cap's, and its law is
    returned uncut."""
    pi = np.array([channel.pi for channel in channels])
    laws = np.einsum("bs,b...s->b...", pi, flows.sum(axis=1), order="C")
    if caps is None:
        return laws
    if len(tops) == 1:
        return [laws] * len(caps)
    cuts = {c: [*range(c), top] for c, top in tops.items()}
    return [np.ascontiguousarray(laws[:, cuts[c]][:, :, cuts[c]]) for c in caps]


def marginal_error_distribution(channels, n: int, depths, cap: int):
    """Distribution of the bucketed error count in one interleaved codeword.

    Every counted bit except the last is followed by a marginalized gap
    of depth-1 slots occupied by the other codewords of the block, with
    one depth per channel of the stack.  Returns the law ``probs``, with
    ``probs[b, j]`` = P(the codeword counts j) on channel b.
    """
    buckets, transition, errors, _ = _stack(channels, n, [cap], 1)
    hit = transition * errors[:, None, :]  # d1 = T * e; d0 = T - d1
    kernels = np.stack((transition - hit, hit))
    depths = _depths(depths, channels, 1, "interleaving depth must be >= 1, got {}")
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
    return _laws(channels, buckets.reshape(count, cap + 1, states, states).transpose(0, 3, 1, 2))


def joint_error_distribution(channels, n: int, depths, caps):
    """Joint law of the bucketed error counts in two adjacent codewords.

    The matching bits of the two codewords are transmitted back to back;
    successive bit pairs are separated by depth-2 marginalized slots, and
    the final pair has no trailing gap.  ``depths`` holds one depth per
    channel of the stack; the gap product is skipped, and its power not
    computed, only when every depth is 2, and is the identity for the
    depth-2 channels of a mixed stack.  Requires depth >= 2 -- depth 1 has
    no column pairing (see :func:`sequential_joint_distribution`).
    Returns one law ``q`` per cap, with ``q[b, i, j]`` = P(first counts
    i, second counts j) on channel b.  When the caps are all one value,
    every entry of that list is the same array, the walk's own, so an
    entry edited in place edits the others too.
    """
    buckets, transition, errors, tops = _stack(channels, n, caps, 2)
    depths = _depths(
        depths, channels, 2, "joint pairing needs depth >= 2; use sequential_joint_distribution"
    )
    path, gap = [1, 2] * n, None
    if max(depths) > 2:  # a gap product between successive bit pairs
        path, gap = [1, 2, None] * (n - 1) + [1, 2], _powers(transition, depths, 2)
    return _laws(channels, _walk(buckets, transition, errors, path, gap, tops), caps, tops)


def sequential_joint_distribution(channels, n: int, caps):
    """Joint error-count law of two codewords sent back to back.

    This is the depth-1 layout: the two codewords occupy 2n consecutive
    transmission slots with no interleaving gaps at all.  Returns one
    law ``q`` per cap as :func:`joint_error_distribution` does; caps that
    are all one value share one array, as they do there.
    """
    buckets, transition, errors, tops = _stack(channels, n, caps, 2)
    # until its first counted bit the second counter holds count 0 alone,
    # so the first codeword's bits walk a one-slot second counter
    first = _walk(buckets[:, :, :1], transition, errors, [1] * n, None, tops)
    # placed at count 0 of the second counter, on swapped axes, the first
    # codeword's counts stand while the second codeword's bits walk axis 1
    buckets[:, 0] = first[:, :, :, 0].transpose(0, 2, 3, 1)
    flows = _walk(buckets, transition, errors, [1] * n, None, tops, swap=True)
    return _laws(channels, flows, caps, tops)
