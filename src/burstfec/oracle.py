"""Exact references for interleaved blocks by count-vector recursion.

The recursion walks the slots of a block one at a time and keeps, for every
channel start state, end state and vector of per-codeword error counts, the
probability of the paths reaching it.  A slot of a tracked codeword
multiplies by the no-error/error kernels d0/d1 and moves that codeword's
counter up on an error; any other slot multiplies by the transition matrix.
With no gap powers and no codeword-level chain, the results check the
production recursions and the analytic models independently.  Cost is
linear in the slot count and grows as (l+1)**depth count vectors.
"""

from __future__ import annotations

import numpy as np

from .channel import FsmcModel

# Ceiling on flow entries, states**2 * (cap+1)**counters: 32 MiB of float64
# per flow; up to three flows are live within a slot, so at most ~96 MiB.
MAX_FLOW = 2**22


def _codeword_of_slot(n: int, depth: int, slots: int) -> np.ndarray:
    """Codeword of each slot: u % depth interleaved, or n slots apiece at depth 1."""
    if depth >= 2:
        return np.arange(slots) % depth
    return np.arange(slots) // n


def _count_flow(model: FsmcModel, owner, counters: int, cap: int, drop: bool):
    """(flow, dropped) after the slots of ``owner``.

    flow[t, s, c_0, ..., c_{counters-1}] is the probability of the paths
    from start state s to end state t whose tracked codewords saw c_0, c_1,
    ... errors; ``owner[u]`` is the counter slot u advances, or >=
    ``counters`` for an untracked slot.  A count past ``cap`` saturates at
    cap, or with ``drop`` its path is discarded and its probability added
    to dropped[s].  The flow is kept as one (S, S * count vectors) array,
    so each slot is a single matrix product per kernel.
    """
    states = model.states
    shape = (states, states) + (cap + 1,) * counters
    if (size := states**2 * (cap + 1) ** counters) > MAX_FLOW:
        raise ValueError(
            f"exact recursion needs {states}**2 * {cap + 1}**{counters} = {size}"
            f" flow entries, over the limit of {MAX_FLOW}"
        )
    flow = np.zeros(shape)
    flow[(slice(None), slice(None)) + (0,) * counters] = np.eye(states)
    flow = flow.reshape(states, -1)
    miss, full = (np.ascontiguousarray(k.T) for k in (model.d0, model.transition))
    # error terms only for end states an error can lead to (the bad state of an IBP chain)
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
    return flow.reshape(shape), dropped


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


def _loss(model: FsmcModel, n: int, depth: int, l: int, blocks: int):
    """P(the first block fails to decode) and P(some block among ``blocks``
    consecutive ones fails), from one block flow.

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


def exact_block_error(model: FsmcModel, n: int, depth: int, l: int) -> float:
    """P(any codeword of one interleaved block exceeds l errors), exactly."""
    return _loss(model, n, depth, l, 1)[0]


def exact_packet_error(model: FsmcModel, n: int, depth: int, l: int, blocks: int) -> float:
    """Exact loss probability of ``blocks`` consecutive interleaved blocks."""
    return _loss(model, n, depth, l, blocks)[1]
