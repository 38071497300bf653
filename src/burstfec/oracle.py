"""Exact references for interleaved blocks by count-vector recursion.

The recursion walks the slots of a block one at a time and keeps, for every
channel start state, end state and vector of per-codeword error counts, the
probability of the paths reaching it.  A slot of a tracked codeword
multiplies by the no-error/error kernels d0/d1 and moves that codeword's
counter up on an error; any other slot multiplies by the transition matrix.
When every state is clean or erring (never or always in error, as in every
ibp_from_stats channel), every slot is one product by the transition
matrix, after which the erring end states' rows move up one count; chains
with a state that errs with a probability strictly between 0 and 1 make two
kernel products per tracked slot.  With no gap powers and no codeword-level
chain, the results check the production recursions and the analytic models
independently.  Cost is linear in the slot count and grows as
(l+1)**depth count vectors.

:func:`exact_loss` gives the block and the packet loss probability from
one block flow; :func:`exact_marginal_law` and :func:`exact_joint_law`
give the bucketed count laws of one codeword and of two adjacent ones.
"""

from __future__ import annotations

import numpy as np

from .channel import FsmcModel

# Ceiling on flow entries, states**2 * (cap+1)**counters: 32 MiB of float64
# per flow.  A clean/erring chain keeps two flow buffers, so at most ~64 MiB;
# the kernel flow of a chain with a mixed state holds up to three flows
# within a slot (~96 MiB).
MAX_FLOW = 2**22


def _codeword_of_slot(n: int, depth: int, slots: int) -> list:
    """Codeword of each slot: u % depth interleaved, or n slots apiece at depth 1."""
    if depth >= 2:
        return [u % depth for u in range(slots)]
    return [u // n for u in range(slots)]


def _count_flow(model: FsmcModel, owner, counters: int, cap: int, drop: bool):
    """(flow, dropped) after the slots of ``owner``.

    flow[t, s, c_0, ..., c_{counters-1}] is the probability of the paths
    from start state s to end state t whose tracked codewords saw c_0, c_1,
    ... errors; ``owner[u]`` is the counter slot u advances, or >=
    ``counters`` for an untracked slot.  A count past ``cap`` saturates at
    cap, or with ``drop`` its path is discarded and its probability added
    to dropped[s].  The flow is kept as one (S, S * count vectors) array,
    so each slot is a matrix product over all count vectors at once.

    When every state is clean or erring (its d1 or its d0 column is
    exactly zero, as in every ibp_from_stats channel), a slot costs one
    product by the transition matrix, written into the other of two
    buffers (:func:`_shift_flow`); a tracked slot then moves each erring
    end state's rows up one count, with four more numpy calls per erring
    state, so five in all on a two-state channel.  The terms this skips
    are exact zeros.  A chain with a state that errs with a probability
    strictly between 0 and 1 takes :func:`_kernel_flow`: a product per
    kernel on each tracked slot.
    """
    states = model.states
    shape = (states, states) + (cap + 1,) * counters
    if (size := states**2 * (cap + 1) ** counters) > MAX_FLOW:
        raise ValueError(
            f"exact recursion needs {states}**2 * {cap + 1}**{counters} = {size}"
            f" flow entries, over the limit of {MAX_FLOW}"
        )
    flow = np.zeros((states, states, (cap + 1) ** counters))
    flow[:, :, 0] = np.eye(states)
    flow = flow.reshape(states, -1)
    erring = model.d1.any(axis=0)
    if (erring & model.d0.any(axis=0)).any():
        flow, dropped = _kernel_flow(model, flow, owner, counters, cap, drop)
    else:
        flow, dropped = _shift_flow(model, erring.nonzero()[0], flow, owner, counters, cap, drop)
    return flow.reshape(shape), dropped


def _shift_flow(model: FsmcModel, erring, flow, owner, counters: int, cap: int, drop: bool):
    """:func:`_count_flow` on a chain whose states are clean or erring.

    Each slot is one product by the transition matrix from one buffer into
    the other.  On a slot of counter j, each erring end state's row, read
    as (start state, counters before j, count j, counters after j), moves
    up one count in place: its top count is first dropped or added to the
    count below it, then the whole row moves by one count's stride (an
    overlapping 1-D copy, which needs no temporary; each top count lands
    on the next count 0) and count 0 is cleared.  The views are made once
    per buffer, counter and erring state.
    """
    states = model.states
    full = np.ascontiguousarray(model.transition.T)
    dropped = np.zeros(states)
    buffers = []
    for buffer in (flow, np.empty_like(flow)):
        # at cap 0 without drop an error keeps the only count: nothing moves
        rows = [buffer[t] for t in erring] if drop or cap > 0 else []
        views = []  # per counter, per erring state: top, below top, upper, lower, count 0
        for j in range(counters):
            after = (cap + 1) ** (counters - 1 - j)
            views.append([])
            for row in rows:
                counts = row.reshape(states, -1, cap + 1, after)
                views[-1].append((
                    counts[:, :, -1], None if drop else counts[:, :, -2],
                    row[after:], row[:-after], counts[:, :, 0],
                ))
        buffers.append((buffer, views))
    for j in owner:
        (source, _), (target, views) = buffers
        np.matmul(full, source, out=target)
        for top, below, upper, lower, first in views[j] if j < counters else ():
            if below is None:  # top.sum(axis=(1, 2)) without its Python wrapper
                dropped += np.add.reduce(top, axis=(1, 2))
            else:
                below += top
            upper[...] = lower
            first.fill(0.0)
        buffers.reverse()
    return buffers[0][0], dropped


def _kernel_flow(model: FsmcModel, flow, owner, counters: int, cap: int, drop: bool):
    """:func:`_count_flow` on any chain: a tracked slot multiplies by the
    no-error kernel over every end state and by the error kernel over the
    end states an error can lead to, then moves the error terms up one
    count."""
    states = model.states
    miss, full = (np.ascontiguousarray(k.T) for k in (model.d0, model.transition))
    # error terms only for end states an error can lead to
    live = np.flatnonzero(model.d1.any(axis=0))
    rows = slice(live[0], live[-1] + 1) if live.size else slice(0, 0)
    hit = np.ascontiguousarray(model.d1.T[rows])
    dropped = np.zeros(states)
    for j in owner:
        if j >= counters:
            flow = full @ flow
            continue
        # start state, counters before j, counter j, counters after j
        grid = (states, (cap + 1) ** j, cap + 1, (cap + 1) ** (counters - 1 - j))
        errors = (hit @ flow).reshape(hit.shape[:1] + grid)
        flow = miss @ flow
        moved = flow.reshape((states,) + grid)[rows]  # a view into flow
        moved[:, :, :, 1:] += errors[:, :, :, :-1]
        if drop:
            dropped += errors[:, :, :, -1].sum(axis=(0, 2, 3))
        else:
            moved[:, :, :, -1] += errors[:, :, :, -1]
    return flow, dropped


def exact_joint_law(model: FsmcModel, n: int, depth: int, cap: int) -> np.ndarray:
    """Exact bucketed joint error-count law of the first two codewords.

    For depth >= 2 the recursion covers the whole interleaved block of
    n * depth slots; for depth 1 it covers two back-to-back codewords.
    """
    if n < 1 or depth < 1 or cap < 0:
        raise ValueError("need n >= 1, depth >= 1, cap >= 0")
    slots = n * depth if depth >= 2 else 2 * n
    flow, _ = _count_flow(model, _codeword_of_slot(n, depth, slots), 2, cap, drop=False)
    return np.einsum("s,tsij->ij", model.pi, flow)


def exact_marginal_law(model: FsmcModel, n: int, depth: int, cap: int) -> np.ndarray:
    """Exact bucketed error-count law of the first codeword of a block."""
    if n < 1 or depth < 1 or cap < 0:
        raise ValueError("need n >= 1, depth >= 1, cap >= 0")
    slots = n * depth if depth >= 2 else n
    flow, _ = _count_flow(model, _codeword_of_slot(n, depth, slots), 1, cap, drop=False)
    return np.einsum("s,tsj->j", model.pi, flow)


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
    flow, failed = _count_flow(model, _codeword_of_slot(n, depth, n * depth), depth, l, True)
    flow_ok = flow.reshape(model.states, model.states, -1).sum(axis=2).T
    reach, losses = model.pi, [0.0]
    for _ in range(blocks):
        losses.append(losses[-1] + float(reach @ failed))
        reach = reach @ flow_ok
    return min(losses[1], 1.0), min(losses[-1], 1.0)
