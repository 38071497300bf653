"""Monte Carlo reference: sojourn-time bit errors, interleaved decoding, CIs.

The bit error stream is the two-state interrupted-Bernoulli channel of
``ibp_from_stats`` (stochastically identical to a DAR(1) recursion with
the same ``ber`` and ``nacf``), sampled through its sojourn times as in
Gilbert (1960): a stream alternates geometric good runs, rate
alpha = (1 - nacf) * ber, and geometric bad runs, rate
beta = (1 - nacf) * (1 - ber), starting from the stationary law.  Only
the bad runs are expanded into error slots, so the work and memory of a
batch grow with its error count, not with its bit count.

A batch of packets draws one stream, as long as all its packets end to
end, and cuts it into packets.  Each packet draws its own stationary
start state; where that differs from the stream's state at the packet's
first slot, the packet opens with a fresh geometric run of its own state
and then reads the stream, shifted by that run.  Given the stream's
state at a cut, its future is independent of its past, and a two-state
chain that leaves its start state enters the other one; so every packet
is the chain from its own stationary start, independent of the packets
before it, exactly as if each had its own stream.

Each error is one position r * bits + slot in its batch's stream, and
the stream's positions come out sorted, so only the errors of the few
packets whose start state flips are found (by ``searchsorted``) and
moved.  Column-wise interleaving then maps a position straight to its
codeword key, packet * codewords + codeword, in a few floor divisions.
A zero rate alpha, where (1 - nacf) * ber rounds to 0, is a good run
that never ends.

Packets are simulated in fixed-size batches whose RNG streams derive
from (seed, batch index) only, so estimates are bit-for-bit reproducible
for any worker count.  Consecutive batches form a group that shares one
array pass: each batch still makes its own draws from its own generator,
in its own order, and only the array work after the draws is done once
for the whole group.  A group holds at most ``_GROUP_ERRORS`` expected
errors and ``_GROUP_COUNTS`` codeword counters (one batch at least), so
its memory stays bounded whatever the packet count; at p_E 0.002 and 16
codewords a packet that is four batches, at p_E 0.02 one.  Run lengths
at one rate below 1/3 are drawn as numpy's own geometric inversion, done
as array operations, so they are the integers numpy would draw.
Confidence intervals are Wilson score intervals.
"""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass

import numpy as np

from .channel import ChannelSpec, CodeSpec, SchemeSpec, _two_state_rates

BIT_GENERATOR = "philox"  # pinned counter-based generator, echoed in reports
SAMPLER = "sojourn-cut"  # error-stream construction, echoed in reports next to the generator
_BATCH_PACKETS = 1024  # RNG partition size; independent of the worker count
_COUNT_BINS = 2**20  # codeword counts held at once, so long packets stay bounded
_GROUP_ERRORS = 2**15  # expected errors of one group of batches
_GROUP_COUNTS = 2**16  # codeword counters of one group of batches
_SEARCH_RATE = 0.333333333333333333333333  # numpy's geometric searches from here, inverts below


@dataclass(frozen=True)
class SimConfig:
    """One simulation run: channel, code, interleaving, sample size."""

    channel: ChannelSpec
    code: CodeSpec
    scheme: SchemeSpec
    packets: int = 100_000
    seed: int = 0
    gamma: float = 0.95

    def __post_init__(self):
        _check_sampling(self.packets, self.gamma, self.seed)


def _check_sampling(packets: int, gamma: float, seed: int = 0):
    """Refuse a packet count below 1, a confidence level outside (0, 1)
    and a negative seed."""
    if packets < 1:
        raise ValueError(f"packet count must be >= 1, got {packets}")
    if not 0.0 < gamma < 1.0:
        raise ValueError(f"confidence level must be in (0, 1), got {gamma!r}")
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")


def _check_workers(workers: int):
    """Refuse a worker count below 1."""
    if workers < 1:
        raise ValueError(f"worker count must be >= 1, got {workers}")


@dataclass(frozen=True)
class CiEstimate:
    """Loss-rate estimate with its two-sided Wilson confidence interval.

    ``degenerate`` flags estimates of exactly 0 or 1, where the estimate
    itself says little and only the interval's far bound informs.
    """

    p_hat: float
    lo: float
    hi: float
    packets: int
    gamma: float
    losses: int
    degenerate: bool


def confidence_interval(p_hat: float, packets: int, gamma: float):
    """Two-sided Wilson score interval around a proportion estimate.

    With t the standard normal quantile at (1 + gamma) / 2 and N the
    packet count, the bounds are
    (p_hat + t²/2N -+ t * sqrt(p_hat * (1 - p_hat) / N + t²/4N²)) / (1 + t²/N),
    clamped to [0, 1].  Unlike the normal interval it keeps a width at
    an estimate of 0 or 1 and covers close to gamma at a few losses.
    """
    if not 0.0 <= p_hat <= 1.0:
        raise ValueError(f"estimate must be in [0, 1], got {p_hat!r}")
    _check_sampling(packets, gamma)
    quantile = statistics.NormalDist().inv_cdf((1.0 + gamma) / 2.0)
    spread = quantile * quantile / packets
    centre = p_hat + spread / 2.0
    half = quantile * math.sqrt(p_hat * (1.0 - p_hat) / packets + spread / packets / 4.0)
    # at an estimate of 0 or 1 the near bound is that end exactly; the
    # formula would leave a rounding residue there
    lo = (centre - half) / (1.0 + spread) if p_hat > 0.0 else 0.0
    hi = (centre + half) / (1.0 + spread) if p_hat < 1.0 else 1.0
    return max(0.0, lo), min(1.0, hi)


def _batch_rng(seed: int, index: int) -> np.random.Generator:
    key = np.random.SeedSequence(seed, spawn_key=(index,))
    return np.random.Generator(np.random.Philox(key))


def _run_lengths(rng, rate, cap, size=None):
    """Geometric run lengths at ``rate``, clipped to ``cap``; ``rate`` is
    one float, or an array of one rate per run.

    Clipping changes nothing inside a window of ``cap`` slots and keeps
    numpy's saturated draws at tiny rates from overflowing running sums.
    A run at rate 0 (alpha, where (1 - nacf) * ber rounds to 0) never
    ends, so it lasts the whole window, ``cap``, and draws nothing.

    Below ``_SEARCH_RATE`` numpy draws a geometric length by inversion,
    ceil(E / -log1p(-rate)) for one standard exponential E; an array of
    draws at one rate does the same in a few array operations, on the
    same exponentials, so it returns the same integers.  From 1e-300 up
    the quotient stays finite (E < 45).
    """
    if isinstance(rate, np.ndarray):
        if not rate.all():
            lengths = np.full(rate.shape, cap)
            ends = rate > 0.0
            lengths[ends] = _run_lengths(rng, rate[ends], cap)
            return lengths
    elif rate == 0.0:
        return cap if size is None else np.full(size, cap)
    elif size is not None and 1e-300 <= rate < _SEARCH_RATE:
        draw = rng.standard_exponential(size)
        draw /= -math.log1p(-rate)
        np.ceil(draw, out=draw)
        np.minimum(draw, cap, out=draw)
        return draw.astype(np.int64)
    return np.minimum(rng.geometric(rate, size), cap)


def _error_runs(rng, start, stop, ber, alpha, beta):
    """Bad runs of one stationary channel stream over slots start..stop-1.

    Returns (begin, length) arrays in stream order: the stream errs in
    slots begin..begin+length-1, the last run clipped to ``stop``.  The
    first slot draws its state from the stationary law, and by
    memorylessness the rest of the opening run is geometric like any
    other.  Run lengths are drawn in (bad, good) pairs, per round the
    mean pair count still to cover plus three times its square root.
    """
    slots = stop - start
    # slot where the stream's next bad run begins
    begin = start if rng.random() < ber else start + int(_run_lengths(rng, alpha, slots))
    # at alpha = 0 a good run never ends, so one pair covers the window
    mean_pair = (1.0 / alpha if alpha > 0.0 else math.inf) + 1.0 / beta
    runs = []
    while begin < stop:
        expected = (stop - begin) / mean_pair
        pairs = int(expected + 3.0 * math.sqrt(expected)) + 1
        bad = _run_lengths(rng, beta, slots, pairs)
        good = _run_lengths(rng, alpha, slots, pairs)
        # edge[k] is where run k begins, edge[pairs] where the round ends
        edge = np.empty(pairs + 1, dtype=np.int64)
        edge[0] = begin
        np.add(bad, good, out=edge[1:])
        np.cumsum(edge, out=edge)
        inside = int(np.searchsorted(edge[:pairs], stop))  # starts only grow
        runs.append((edge[:inside], bad[:inside]))
        begin = int(edge[pairs])
    if not runs:
        return np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64)
    begin, length = runs[0] if len(runs) == 1 else map(np.concatenate, zip(*runs))
    # runs are disjoint, so only the last can cross the end
    length[-1] = min(length[-1], stop - begin[-1])
    return begin, length


def _expand(first, length):
    """Every slot first..first+length-1 of each run, run after run."""
    shift = np.repeat(first - (np.cumsum(length) - length), length)
    return np.arange(shift.size) + shift


def _error_slots(batches, bits, ber, nacf):
    """Position r * bits + slot of every error in a group of packet batches.

    ``batches`` is a list of (generator, rows) pairs, one per batch of
    ``rows`` packets of ``bits`` slots; packet r counts through the
    whole group, so batch k's packets follow the packets of the batches
    before it.  Each batch's packets are cut from one stationary stream
    of rows * bits slots: packet r reads it from position r * bits on.
    A packet first draws its own stationary start state; where that
    differs from the stream's state at r * bits, the packet opens with a
    fresh geometric run of its own state and then reads the stream,
    shifted by that run's length, dropping what the shift pushes past
    its end.  Given the stream's state at r * bits, its future is
    independent of its past, and in a two-state chain a run of the other
    state followed by the stream is the chain started in that other
    state.  So each packet is the chain from its own fresh stationary
    start, whatever came before it, and the packets are independent and
    identically distributed.

    Each batch draws from its own generator, in this order: its
    stream's runs, its packets' start states, then the opening runs of
    its flipped packets; so a group's positions are each batch's own,
    offset by the packets before it.  Everything else (the packet-start
    test, the run expansion, the moves and the drops) is array work done
    once for the group, so its memory grows with the group's errors.  No
    run leaves its batch's window, so the group's stream positions come
    out sorted, and one ``searchsorted`` on them finds the errors of the
    few packets that flip their start state; only those errors move.
    The opening bad runs of the flipped packets come first in the result.
    """
    counts = [rows for _, rows in batches]
    rows = sum(counts)
    if ber == 0.0:
        return np.zeros(0, dtype=np.int64)
    if ber == 1.0:
        return np.arange(rows * bits)
    alpha, beta = _two_state_rates(ber, nacf)
    runs, own = [], []
    start = 0
    for rng, count in batches:
        stop = start + count * bits
        runs.append(_error_runs(rng, start, stop, ber, alpha, beta))
        own.append(rng.random(count) < ber)
        start = stop
    if len(batches) == 1:
        (begin, length), (own_bad,) = runs[0], own
    else:
        begin, length = map(np.concatenate, zip(*runs))
        own_bad = np.concatenate(own)
    del runs  # leaves begin and length the only holders, so the expansion frees them
    first = np.arange(0, rows * bits, bits)
    stream_bad = np.zeros(rows, dtype=bool)
    if begin.size:
        # bad when the last run to begin by the packet's first slot lasts past it
        last = np.searchsorted(begin, first, side="right") - 1
        stream_bad = (last >= 0) & (begin[last] + length[last] > first)
    flip = np.flatnonzero(own_bad != stream_bad)
    rates = np.where(own_bad[flip], beta, alpha)
    # each batch draws the opening runs of its own flipped packets
    bounds = np.searchsorted(flip, np.cumsum(counts)[:-1]).tolist()
    shift = np.concatenate([
        _run_lengths(rng, rates[low:high], bits)
        for (rng, _), low, high in zip(batches, [0, *bounds], [*bounds, flip.size])
    ])

    # _expand, in place and with the runs freed before the arange: at
    # c = 0, where runs are about as many as errors, a batch holds three
    # error-sized arrays at once, not five, and its heap is not given
    # back and faulted in again on every batch
    before = np.cumsum(length)
    before -= length
    begin -= before
    pos = np.repeat(begin, length)
    del before, begin, length
    pos += np.arange(pos.size)
    # a flipped packet's errors before end - shift move on by shift, the
    # ones from there to its end fall off
    start = first[flip]
    low, cut, stop = np.searchsorted(pos, (start, start + bits - shift, start + bits))
    pos[_expand(low, cut - low)] += np.repeat(shift, cut - low)
    # the kept errors are the slices between the dropped stretches
    dropped = np.flatnonzero(stop > cut)
    keep_from = [0, *stop[dropped].tolist()]
    keep_to = [*cut[dropped].tolist(), pos.size]
    kept = [pos[a:b] for a, b in zip(keep_from, keep_to)]
    opening = own_bad[flip]
    return np.concatenate([_expand(start[opening], shift[opening]), *kept])


def dar1_stream(channel: ChannelSpec, length: int, seed: int) -> np.ndarray:
    """One channel bit error stream as a boolean array; deterministic in seed.

    Dense view of the run sampler that ``simulate_packets`` uses; its law
    is that of the DAR(1) recursion with the channel's ``ber`` and
    ``nacf``.
    """
    if length < 1:
        raise ValueError(f"stream length must be >= 1, got {length}")
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))
    stream = np.zeros(length, dtype=bool)
    stream[_error_slots([(rng, 1)], length, channel.ber, channel.nacf)] = True
    return stream


def simulate_packets(cfg: SimConfig, workers: int = 1) -> CiEstimate:
    """Estimate the packet loss probability by direct simulation.

    Each packet is one continuous channel stream (fresh stationary
    start) of blocks * depth * n bits, cut from its batch's stream as
    ``_error_slots`` describes.  Each error position goes straight to
    its codeword key (pos // (n * depth)) * depth + pos % depth, which
    is packet * codewords + codeword because a packet is a whole number
    of blocks; one ``bincount`` over the keys gives every codeword's
    error count.  A codeword fails when that count exceeds code.l, and
    the packet is lost when any of its codewords fails: the lost
    packets are the distinct failed keys // codewords.

    The 1024-packet batches fix the draws; the groups of consecutive
    batches that share one pass fix only the array work.  A group has
    as many batches as keep its expected errors (1024 * bits * ber a
    batch) within ``_GROUP_ERRORS`` and its codeword counters within
    ``_GROUP_COUNTS``, and at least one, so the group size follows from
    the configuration alone and no estimate depends on it.  The keys of
    a group are counted in chunks of at most ``_COUNT_BINS`` codewords,
    which bounds a single batch of long packets.  Worker threads take
    whole groups.
    """
    _check_workers(workers)
    code, scheme = cfg.code, cfg.scheme
    bits = scheme.packet_bits(code.n)
    block_bits = code.n * scheme.depth

    spans = [
        (index, min(_BATCH_PACKETS, cfg.packets - start))
        for index, start in enumerate(range(0, cfg.packets, _BATCH_PACKETS))
    ]
    # consecutive batches share one array pass, as many as keep the
    # group's expected errors and codeword counters within bounds
    errors = _BATCH_PACKETS * bits * cfg.channel.ber  # expected in one batch
    size = _GROUP_COUNTS // (_BATCH_PACKETS * scheme.codewords)
    if size * errors > _GROUP_ERRORS:
        size = int(_GROUP_ERRORS / errors)
    size = max(1, size)
    groups = [spans[first:first + size] for first in range(0, len(spans), size)]

    def group_losses(group):
        batches = [(_batch_rng(cfg.seed, index), count) for index, count in group]
        count = sum(rows for _, rows in group)
        pos = _error_slots(batches, bits, cfg.channel.ber, cfg.channel.nacf)
        # slot u of a block carries its codeword u % depth; the key
        # (pos // block_bits) * depth + pos % depth, with the remainder
        # taken as pos - (pos // depth) * depth
        key = pos // block_bits
        key -= pos // scheme.depth
        key *= scheme.depth
        key += pos
        # one count per codeword, at most _COUNT_BINS of them at a time
        step = max(1, _COUNT_BINS // scheme.codewords)
        if count > step:
            key = np.sort(key)  # so each chunk of rows is one slice
        losses = 0
        for first in range(0, count, step):
            rows = min(step, count - first)
            part = key
            if rows < count:
                low = first * scheme.codewords
                bounds = np.searchsorted(key, (low, low + rows * scheme.codewords))
                part = key[slice(*bounds)] - low
            counts = np.bincount(part, minlength=rows * scheme.codewords)
            failed = np.flatnonzero(counts > code.l) // scheme.codewords
            # the packets of failed codewords, ascending: count the distinct ones
            losses += failed.size - int(np.count_nonzero(failed[1:] == failed[:-1]))
        return losses

    if workers > 1:
        # imported here: a plain import of the package skips concurrent.futures
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=workers) as pool:
            losses = sum(pool.map(group_losses, groups))
    else:
        losses = sum(map(group_losses, groups))

    p_hat = losses / cfg.packets
    lo, hi = confidence_interval(p_hat, cfg.packets, cfg.gamma)
    return CiEstimate(
        p_hat=p_hat,
        lo=lo,
        hi=hi,
        packets=cfg.packets,
        gamma=cfg.gamma,
        losses=losses,
        degenerate=losses in (0, cfg.packets),
    )
