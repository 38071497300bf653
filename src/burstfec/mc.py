"""Monte Carlo reference: sojourn-time bit errors, interleaved decoding, CIs.

The bit error stream is the two-state interrupted-Bernoulli channel of
``ibp_from_stats`` (stochastically identical to a DAR(1) recursion with
the same ``ber`` and ``nacf``), sampled through its sojourn times as in
Gilbert (1960): a stream alternates geometric good runs, rate
alpha = (1 - nacf) * ber, and geometric bad runs, rate
beta = (1 - nacf) * (1 - ber), starting from the stationary law.  Only
the bad runs are expanded into error slots, so the work and memory of a
batch grow with its error count, not with its bit count.

Packets are simulated in fixed-size batches whose RNG streams derive
from (seed, batch index) only, so estimates are bit-for-bit reproducible
for any worker count.
"""

from __future__ import annotations

import math
import statistics
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .channel import ChannelSpec, CodeSpec, SchemeSpec, _two_state_rates

BIT_GENERATOR = "philox"  # pinned counter-based generator, echoed in reports
SAMPLER = "sojourn"  # error-stream construction, echoed in reports next to the generator
_BATCH_PACKETS = 1024  # RNG partition size; independent of the worker count


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
    """Loss-rate estimate with its two-sided normal confidence interval.

    ``degenerate`` flags estimates of exactly 0 or 1, where the normal
    interval collapses and says nothing useful.
    """

    p_hat: float
    lo: float
    hi: float
    packets: int
    gamma: float
    losses: int
    degenerate: bool


def confidence_interval(p_hat: float, packets: int, gamma: float):
    """Two-sided normal interval around a proportion estimate.

    Half width is t * sqrt(p_hat * (1 - p_hat) / packets) with t the
    standard normal quantile at (1 + gamma) / 2; bounds are clamped to
    [0, 1].
    """
    if not 0.0 <= p_hat <= 1.0:
        raise ValueError(f"estimate must be in [0, 1], got {p_hat!r}")
    _check_sampling(packets, gamma)
    quantile = statistics.NormalDist().inv_cdf((1.0 + gamma) / 2.0)
    half = quantile * math.sqrt(p_hat * (1.0 - p_hat) / packets)
    return max(0.0, p_hat - half), min(1.0, p_hat + half)


def _batch_rng(seed: int, index: int) -> np.random.Generator:
    key = np.random.SeedSequence(seed, spawn_key=(index,))
    return np.random.Generator(np.random.Philox(key))


def _error_runs(rng, rows, bits, ber, nacf):
    """Bad runs of ``rows`` independent channel streams of ``bits`` slots.

    Returns (row, begin, stop) arrays: stream ``row`` errs in slots
    begin..stop-1, with stop clipped to ``bits``.  The first slot draws
    its state from the stationary law, and by memorylessness the rest of
    the opening run is geometric like any other.  Run lengths are drawn
    in (bad, good) pairs, per round the mean pair count still to cover
    plus three times its square root; only streams that have not yet
    reached ``bits`` draw another round.  Lengths are clipped to
    ``bits``, which changes nothing inside the window and keeps numpy's
    saturated draws at tiny rates from overflowing the running sums.
    """
    empty = np.zeros(0, dtype=np.int64)
    if ber == 0.0:
        return empty, empty, empty
    if ber == 1.0:
        return np.arange(rows), np.zeros(rows, dtype=np.int64), np.full(rows, bits)
    alpha, beta = _two_state_rates(ber, nacf)
    mean_pair = 1.0 / alpha + 1.0 / beta

    row = np.arange(rows)
    # slot where each stream's next bad run begins
    begin = np.where(
        rng.random(rows) < ber, 0, np.minimum(rng.geometric(alpha, rows), bits)
    )
    runs = [(empty, empty, empty)]
    while True:
        live = begin < bits
        row, begin = row[live], begin[live]
        if not row.size:
            break
        expected = (bits - int(begin.min())) / mean_pair
        pairs = int(expected + 3.0 * math.sqrt(expected)) + 1
        bad = np.minimum(rng.geometric(beta, (row.size, pairs)), bits)
        good = np.minimum(rng.geometric(alpha, (row.size, pairs)), bits)
        ends = begin[:, np.newaxis] + np.cumsum(bad + good, axis=1)
        stop = ends - good
        starts = stop - bad
        hit = starts < bits
        runs.append((
            np.broadcast_to(row[:, np.newaxis], hit.shape)[hit],
            starts[hit],
            np.minimum(stop[hit], bits),
        ))
        begin = ends[:, -1]
    return tuple(np.concatenate(parts) for parts in zip(*runs))


def _error_slots(rng, rows, bits, ber, nacf):
    """(row, slot) of every bit error in ``rows`` streams of ``bits`` slots."""
    row, begin, stop = _error_runs(rng, rows, bits, ber, nacf)
    length = stop - begin
    # slot = position within the flattened runs + that run's begin - its offset
    shift = np.repeat(begin - (np.cumsum(length) - length), length)
    return np.repeat(row, length), np.arange(int(length.sum())) + shift


def dar1_stream(channel: ChannelSpec, length: int, seed: int) -> np.ndarray:
    """One channel bit error stream as a boolean array; deterministic in seed.

    Dense view of the run sampler that ``simulate_packets`` uses; its law
    is that of the DAR(1) recursion with the channel's ``ber`` and
    ``nacf``.
    """
    if length < 1:
        raise ValueError(f"stream length must be >= 1, got {length}")
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))
    _, slot = _error_slots(rng, 1, length, channel.ber, channel.nacf)
    stream = np.zeros(length, dtype=bool)
    stream[slot] = True
    return stream


def simulate_packets(cfg: SimConfig, workers: int = 1) -> CiEstimate:
    """Estimate the packet loss probability by direct simulation.

    Each packet is one continuous channel stream (fresh stationary
    start) of blocks * depth * n bits; a codeword fails when its
    deinterleaved error count exceeds code.l, and the packet is lost
    when any of its codewords fails.
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
        row, slot = _error_slots(rng, count, bits, cfg.channel.ber, cfg.channel.nacf)
        # column-wise interleaving: slot u of a block carries its codeword u % depth
        codeword = slot // block_bits * scheme.depth + slot % scheme.depth
        counts = np.bincount(
            row * scheme.codewords + codeword, minlength=count * scheme.codewords
        )
        return int(np.count_nonzero((counts.reshape(count, -1) > code.l).any(axis=1)))

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
