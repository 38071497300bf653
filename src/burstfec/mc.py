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
for any worker count.  Confidence intervals are Wilson score intervals.
"""

from __future__ import annotations

import math
import statistics
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .channel import ChannelSpec, CodeSpec, SchemeSpec, _two_state_rates

BIT_GENERATOR = "philox"  # pinned counter-based generator, echoed in reports
SAMPLER = "sojourn-cut"  # error-stream construction, echoed in reports next to the generator
_BATCH_PACKETS = 1024  # RNG partition size; independent of the worker count
_COUNT_BINS = 2**20  # codeword counts held at once, so long packets stay bounded


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
        _check_sampling(self.packets, self.gamma)


def _check_sampling(packets: int, gamma: float):
    """Refuse a packet count below 1 and a confidence level outside (0, 1)."""
    if packets < 1:
        raise ValueError(f"packet count must be >= 1, got {packets}")
    if not 0.0 < gamma < 1.0:
        raise ValueError(f"confidence level must be in (0, 1), got {gamma!r}")


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
    """
    if isinstance(rate, np.ndarray):
        if not rate.all():
            lengths = np.full(rate.shape, cap)
            ends = rate > 0.0
            lengths[ends] = _run_lengths(rng, rate[ends], cap)
            return lengths
    elif rate == 0.0:
        return cap if size is None else np.full(size, cap)
    return np.minimum(rng.geometric(rate, size), cap)


def _error_runs(rng, slots, ber, alpha, beta):
    """Bad runs of one stationary channel stream of ``slots`` slots.

    Returns (begin, length) arrays in stream order: the stream errs in
    slots begin..begin+length-1, the last run clipped to ``slots``.  The
    first slot draws its state from the stationary law, and by
    memorylessness the rest of the opening run is geometric like any
    other.  Run lengths are drawn in (bad, good) pairs, per round the
    mean pair count still to cover plus three times its square root.
    """
    # slot where the stream's next bad run begins
    begin = 0 if rng.random() < ber else int(_run_lengths(rng, alpha, slots))
    # at alpha = 0 a good run never ends, so one pair covers the window
    mean_pair = (1.0 / alpha if alpha > 0.0 else math.inf) + 1.0 / beta
    runs = [(np.zeros(0, dtype=np.int64),) * 2]
    while begin < slots:
        expected = (slots - begin) / mean_pair
        pairs = int(expected + 3.0 * math.sqrt(expected)) + 1
        bad = _run_lengths(rng, beta, slots, pairs)
        good = _run_lengths(rng, alpha, slots, pairs)
        ends = begin + np.cumsum(bad + good)
        starts = ends - good - bad
        inside = int(np.searchsorted(starts, slots))  # starts only grow
        runs.append((starts[:inside], bad[:inside]))
        begin = int(ends[-1])
    begin, length = (np.concatenate(parts) for parts in zip(*runs))
    if begin.size:  # runs are disjoint, so only the last can cross the end
        length[-1] = min(length[-1], slots - begin[-1])
    return begin, length


def _expand(first, length):
    """Every slot first..first+length-1 of each run, run after run."""
    shift = np.repeat(first - (np.cumsum(length) - length), length)
    return np.arange(shift.size) + shift


def _error_slots(rng, rows, bits, ber, nacf):
    """Position r * bits + slot of every error in ``rows`` packets of ``bits`` slots.

    The packets are cut from one stationary stream of rows * bits
    slots: packet r reads the stream from position r * bits on.  It
    first draws its own stationary start state; where that differs from
    the stream's state at r * bits, the packet opens with a fresh
    geometric run of its own state and then reads the stream, shifted by
    that run's length, dropping what the shift pushes past its end.
    Given the stream's state at r * bits, its future is independent of
    its past, and in a two-state chain a run of the other state followed
    by the stream is the chain started in that other state.  So each
    packet is the chain from its own fresh stationary start, whatever
    came before it, and the packets are independent and identically
    distributed.

    The stream's positions come out sorted, so one ``searchsorted`` on
    them finds the errors of the few packets that flip their start
    state, and only those errors move.  The opening bad runs of the
    flipped packets come first in the result.
    """
    if ber == 0.0:
        return np.zeros(0, dtype=np.int64)
    if ber == 1.0:
        return np.arange(rows * bits)
    alpha, beta = _two_state_rates(ber, nacf)
    begin, length = _error_runs(rng, rows * bits, ber, alpha, beta)
    first = np.arange(0, rows * bits, bits)
    stream_bad = np.zeros(rows, dtype=bool)
    if begin.size:
        # bad when the last run to begin by the packet's first slot lasts past it
        last = np.searchsorted(begin, first, side="right") - 1
        stream_bad = (last >= 0) & (begin[last] + length[last] > first)
    own_bad = rng.random(rows) < ber
    flip = np.flatnonzero(own_bad != stream_bad)
    shift = _run_lengths(rng, np.where(own_bad[flip], beta, alpha), bits)

    pos = _expand(begin, length)
    # a flipped packet's errors before end - shift move on by shift, the
    # ones from there to its end fall off
    start = first[flip]
    low, cut, stop = np.searchsorted(pos, (start, start + bits - shift, start + bits))
    pos[_expand(low, cut - low)] += np.repeat(shift, cut - low)
    kept = np.ones(pos.size, dtype=bool)
    kept[_expand(cut, stop - cut)] = False
    opening = own_bad[flip]
    return np.concatenate((_expand(start[opening], shift[opening]), pos[kept]))


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
    stream[_error_slots(rng, 1, length, channel.ber, channel.nacf)] = True
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
    """
    _check_workers(workers)
    code, scheme = cfg.code, cfg.scheme
    bits = scheme.packet_bits(code.n)
    block_bits = code.n * scheme.depth

    spans = [
        (index, min(_BATCH_PACKETS, cfg.packets - start))
        for index, start in enumerate(range(0, cfg.packets, _BATCH_PACKETS))
    ]

    def batch_losses(span):
        index, count = span
        rng = _batch_rng(cfg.seed, index)
        pos = _error_slots(rng, count, bits, cfg.channel.ber, cfg.channel.nacf)
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
        with ThreadPoolExecutor(max_workers=workers) as pool:
            losses = sum(pool.map(batch_losses, spans))
    else:
        losses = sum(map(batch_losses, spans))

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
