"""Exact references for interleaved blocks by count-vector recursion.

The recursion walks the slots of a block one at a time and keeps, for every
channel start state, end state and vector of per-codeword error counts, the
probability of the paths reaching it.  Every slot is one product by the
transition matrix.  On a slot of a tracked codeword each end state then
moves that codeword's counter by its error probability e, which belongs to
the end state: nothing moves for e = 0, everything moves up one count for
e = 1, and a fraction e moves for any other e.  With no gap powers and no
codeword-level chain, the results check the production recursions and the
analytic models independently.  Cost is linear in the slot count and
grows as (l+1)**depth count vectors.

:func:`exact_loss` gives the block and the packet loss probability from
one block flow; :func:`exact_joint_law` gives the bucketed joint count
law of two adjacent codewords, whose row sums are one codeword's law.
"""

from __future__ import annotations

import numpy as np

from .channel import FsmcModel

# Ceiling on flow entries, states**2 * (cap+1)**counters: 32 MiB of float64
# per flow.  A flow keeps two buffers, so at most 64 MiB, and a chain with
# a state that errs with a probability strictly between 0 and 1 one spare
# row more, 1/states of a flow.
MAX_FLOW = 2**22
# Ceiling on the blocks of exact_loss, which walks them one at a time in
# Python (about 3 us a block).
MAX_BLOCKS = 10**6


def _codeword_of_slot(n: int, depth: int, slots: int) -> list:
    """Codeword of each slot: u % depth interleaved, or n slots apiece at depth 1."""
    if depth >= 2:
        return [u % depth for u in range(slots)]
    return [u // n for u in range(slots)]


def _count_flow(model: FsmcModel, owner, counters: int, cap: int, drop: bool):
    """(flow, dropped) after the slots of ``owner``.

    flow[t, s, v] is the probability of the paths from start state s to
    end state t whose tracked codewords saw the count vector v, read in
    base cap + 1 with the first counter's count as the leading digit:
    flow.reshape(S, S, cap + 1, ...) has one axis per counter, and
    ``owner[u]`` is the counter slot u advances, or >= ``counters`` for
    an untracked slot.  A count past ``cap`` saturates at cap, which is
    then at least 1, or with ``drop`` its path is discarded and its
    probability added to dropped[s].  The flow is kept as one
    (S, S * count vectors) array, so each slot is a matrix product over
    all count vectors at once, and is returned as (S, S, count vectors)
    whatever the number of counters.

    Each slot is one product by the transition matrix from one buffer into
    the other.  On a slot of counter j, each end state t's row, read as
    (start state, counters before j, count j, counters after j), then
    moves by t's error probability e.  A clean state's row (e = 0) stands.
    An erring state's row (e = 1) moves up one count in place: its top
    count is first dropped or added to the count below it, then the whole
    row moves by one count's stride (an overlapping 1-D copy, which needs
    no temporary; each top count lands on the next count 0) and count 0
    is cleared.  A mixed state keeps (1 - e) * row and adds e * row, made
    in a spare row, one count up: the spare row's top count is dropped or
    added to the count below it, then cleared, and the spare row is added
    one count's stride on (a 1-D add).  The views are made once per
    buffer, counter and moving state, and the spare row only for a chain
    with a mixed state.
    """
    states = model.states
    if (size := states**2 * (cap + 1) ** counters) > MAX_FLOW:
        raise ValueError(
            f"exact recursion needs {states}**2 * {cap + 1}**{counters} = {size}"
            f" flow entries, over the limit of {MAX_FLOW}"
        )
    flow = np.zeros((states, states, (cap + 1) ** counters))
    flow[:, :, 0] = np.eye(states)
    flow = flow.reshape(states, -1)
    full = np.ascontiguousarray(model.transition.T)
    errors = model.error_profile.tolist()
    moving = [t for t, e in enumerate(errors) if e > 0.0]
    spare = np.empty_like(flow[0]) if any(errors[t] < 1.0 for t in moving) else None
    dropped = np.zeros(states)
    buffers = []
    for buffer in (flow, np.empty_like(flow)):
        moves = []  # per counter: the views of the erring rows, of the mixed rows
        for j in range(counters):
            after = (cap + 1) ** (counters - 1 - j)
            shifts, splits = [], []
            for t in moving:
                row = buffer[t]
                counts = row.reshape(states, -1, cap + 1, after)
                if errors[t] == 1.0:  # top, below top, upper, lower, count 0
                    shifts.append((
                        counts[:, :, -1], None if drop else counts[:, :, -2],
                        row[after:], row[:-after], counts[:, :, 0],
                    ))
                else:  # row, e, 1 - e, the spare row's top and below top, upper, lower
                    hits = spare.reshape(counts.shape)
                    splits.append((
                        row, errors[t], 1.0 - errors[t], hits[:, :, -1],
                        None if drop else hits[:, :, -2], row[after:], spare[:-after],
                    ))
            moves.append((shifts, splits))
        buffers.append((buffer, moves))
    for j in owner:
        (source, _), (target, moves) = buffers
        np.matmul(full, source, out=target)
        shifts, splits = moves[j] if j < counters else ((), ())
        for top, below, upper, lower, first in shifts:
            if below is None:  # top.sum(axis=(1, 2)) without its Python wrapper
                dropped += np.add.reduce(top, axis=(1, 2))
            else:
                below += top
            upper[...] = lower
            first.fill(0.0)
        for row, error, keep, top, below, upper, lower in splits:
            np.multiply(row, error, out=spare)
            np.multiply(row, keep, out=row)
            if below is None:
                dropped += np.add.reduce(top, axis=(1, 2))
            else:
                below += top
            top.fill(0.0)  # so that no top count lands on the next count 0
            upper += lower
        buffers.reverse()
    return buffers[0][0].reshape(states, states, -1), dropped


def exact_joint_law(model: FsmcModel, n: int, depth: int, cap: int) -> np.ndarray:
    """Exact bucketed joint error-count law of the first two codewords.

    For depth >= 2 the recursion covers the whole interleaved block of
    n * depth slots; for depth 1 it covers two back-to-back codewords.
    """
    if n < 1 or depth < 1:
        raise ValueError("need n >= 1, depth >= 1")
    if cap < 1:
        raise ValueError(f"counter cap must be >= 1, got {cap}")
    slots = n * depth if depth >= 2 else 2 * n
    flow, _ = _count_flow(model, _codeword_of_slot(n, depth, slots), 2, cap, drop=False)
    flow = flow.reshape(model.states, model.states, cap + 1, cap + 1)
    return np.einsum("s,tsij->ij", model.pi, flow)


def exact_loss(model: FsmcModel, n: int, depth: int, l: int, blocks: int):
    """Exact (block, packet) loss: P(the first block fails to decode) and
    P(some block among ``blocks`` consecutive ones fails), from one block flow.

    The block flow tracks every codeword and drops the paths past l, whose
    probability is summed as they go, not taken as 1 - (decodable mass), so
    tiny losses keep full relative precision.  The channel runs on across
    blocks: block m + 1 starts where the paths decoding blocks 1..m ended.
    """
    if n < 1 or depth < 1 or l < 0 or blocks < 1:
        raise ValueError("need n >= 1, depth >= 1, l >= 0, blocks >= 1")
    if blocks > MAX_BLOCKS:
        raise ValueError(f"exact loss over {blocks} blocks, over the limit of {MAX_BLOCKS}")
    flow, failed = _count_flow(model, _codeword_of_slot(n, depth, n * depth), depth, l, True)
    flow_ok = flow.sum(axis=2).T
    first = total = float(model.pi @ failed)
    reach = model.pi @ flow_ok
    for _ in range(blocks - 1):
        total += float(reach @ failed)
        reach = reach @ flow_ok
    return min(first, 1.0), min(total, 1.0)
