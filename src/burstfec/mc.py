"""Monte Carlo reference: sojourn-time bit errors, interleaved decoding, CIs.

The bit error stream is the two-state interrupted-Bernoulli channel of
``ibp_from_stats`` (stochastically identical to a DAR(1) recursion with
the same ``ber`` and ``nacf``), starting from the stationary law, with
the rates alpha = (1 - nacf) * ber (good to bad) and
beta = (1 - nacf) * (1 - ber) (bad to good).  It has two encodings,
chosen by the channel alone.  Where beta <= 1/2 it is sampled through
its sojourn times as in Gilbert (1960): a stream alternates geometric
good runs, rate alpha, and geometric bad runs, rate beta, and only the
bad runs are expanded into error slots.  Where beta > 1/2 bad runs last
less than two slots on average, and it is sampled through the gaps
between its errors as in Fritchman (1967): after an error the next one
lies G slots on, with P(G = 1) = 1 - beta and
P(G > 1 + k) = beta * (1 - alpha)**k, the gaps independent.  The runs
take two uniforms a bad run, 2 * beta an error, and the gaps one an
error, so each encoding draws fewer where it is chosen.  Either way the
work and memory of a batch grow with its error count, not with its bit
count.

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
codeword key, packet * codewords + codeword, in a few floor divisions,
done in 32-bit integers, whose divisions are cheaper, when the group's
stream has fewer than 2**31 slots.  A zero rate alpha, where
(1 - nacf) * ber rounds to 0, is a good run that never ends.

Packets are simulated in fixed-size batches whose RNG streams derive
from (seed, batch index) only, so estimates are bit-for-bit reproducible
for any worker count.  Batch k's generator is Philox with the key that
``SeedSequence(seed, spawn_key=(k,))`` gives it; one array pass of
numpy's SeedSequence hash makes the keys of all batches.  Consecutive
batches form a group that shares one array pass: each batch still makes
its own draws from its own generator, in its own order, and only the
array work after the draws is done once for the whole group.  A group
holds at most ``_GROUP_ERRORS`` expected errors and ``_GROUP_COUNTS``
codeword counters (one batch at least), so its memory stays bounded
whatever the packet count; at p_E 0.002 and 16 codewords a packet that
is four batches, at p_E 0.02 one.

Every run length is one uniform U of ``Generator.random``, inverted:
L = floor(log1p(-U) / log1p(-rate)) + 1, clipped to the window, which is
geometric at ``rate``; every gap is one too, inverted as
G = max(1, floor((log1p(-U) - log(beta)) / log1p(-alpha)) + 2), clipped
to the window.  Each batch draws its uniforms in a fixed order: its
stream's start state; one for the first run if that is good; per round,
one (2, pairs) fill of (bad, good) run pairs, bad row first, or on the
gap side one 1-D fill of gaps; its packets' start states; then one for
each opening run of its flipped packets, which all batches of a group
fill into one array.  So the simulator takes nothing from numpy's
Generator but the uniforms of the pinned Philox stream.  Confidence
intervals are Wilson score intervals.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from dataclasses import dataclass

import numpy as np

from .channel import ChannelSpec, CodeSpec, SchemeSpec, _two_state_rates

BIT_GENERATOR = "philox"  # pinned counter-based generator, echoed in reports
SAMPLER = "sojourn-or-gap-cut-inversion"  # error-stream encodings and length rule, echoed in reports
_BATCH_PACKETS = 1024  # RNG partition size; independent of the worker count
_COUNT_BINS = 2**20  # codeword counts held at once, so long packets stay bounded
_GROUP_ERRORS = 2**15  # expected errors of one group of batches
_GROUP_COUNTS = 2**16  # codeword counters of one group of batches


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
    # imported here: statistics loads fractions and decimal, which
    # the analytic verbs never need
    import statistics

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


def _hashmix(value, const, multiplier):
    """One hash step of numpy's SeedSequence on 32-bit words: the hashed
    word and the next hash constant.  ``value`` is a Python int or a
    uint32 array, ``const`` a Python int."""
    value = value ^ const
    const = const * multiplier & 0xFFFFFFFF
    value = value * const & 0xFFFFFFFF
    return value ^ value >> 16, const


def _mix(word, value):
    """numpy's SeedSequence mix of a pool word with a hashed word."""
    mixed = ((0xCA01F9DD * word & 0xFFFFFFFF) - (0x4973F715 * value & 0xFFFFFFFF)) & 0xFFFFFFFF
    return mixed ^ mixed >> 16


def _batch_keys(seed: int, count: int) -> np.ndarray:
    """Philox keys of batches 0 .. count - 1, one row of two uint64 words
    each: the key that ``SeedSequence(seed, spawn_key=(index,))`` gives
    a Philox generator, without a SeedSequence per batch.

    numpy's SeedSequence hashes its entropy words (the seed's 32-bit
    words, padded with zeros to its pool of 4, then the index) into the
    pool, and the pool into the key.  Every word but the index is the
    same for all batches, so those steps run once on Python ints, and
    only the index's and the key's run, on arrays of all the batches.
    An index is one entropy word, so ``count`` is at most 2**32.
    """
    seed = operator.index(seed)  # numpy integers have no bit_length
    words = [seed >> shift & 0xFFFFFFFF for shift in range(0, max(seed.bit_length(), 1), 32)]
    words += [0] * (4 - len(words))
    const = 0x43B0D7E5
    pool = []
    for word in words[:4]:
        value, const = _hashmix(word, const, 0x931E8875)
        pool.append(value)
    # each pool word takes in the hash of every other one, then that of
    # each entropy word past the pool, the index last
    for source in range(4):
        for target in range(4):
            if source != target:
                value, const = _hashmix(pool[source], const, 0x931E8875)
                pool[target] = _mix(pool[target], value)
    for word in [*words[4:], np.arange(count, dtype=np.uint32)]:
        for target in range(4):
            value, const = _hashmix(word, const, 0x931E8875)
            pool[target] = _mix(pool[target], value)
    const = 0x8B51F9DD
    key = []
    for word in pool:
        value, const = _hashmix(word, const, 0x58F38DED)
        key.append(value.astype(np.uint64))
    # two 32-bit words make one 64-bit word, low word first
    return np.stack((key[0] | key[1] << 32, key[2] | key[3] << 32), axis=1)


@functools.cache
def _key_type():
    """A seed sequence that hands a Philox generator a ``_batch_keys``
    row; made on first use, so that importing the package leaves
    numpy.random out."""
    from numpy.random.bit_generator import ISeedSequence

    class Key(ISeedSequence):
        def __init__(self, key):
            self.key = key

        def generate_state(self, n_words, dtype=np.uint32):
            return self.key

    return Key


def _batch_rng(key) -> np.random.Generator:
    """The generator of the batch whose ``_batch_keys`` row is ``key``."""
    return np.random.Generator(np.random.Philox(_key_type()(key)))


def _log_stay(rate):
    """log1p(-rate), and -inf at rate 1, where a run lasts one slot."""
    return math.log1p(-rate) if rate < 1.0 else -math.inf


def _lengths(uniform, divisor, cap, least):
    """Geometric run lengths L = min(floor(log1p(-U) / log1p(-rate)) + 1,
    cap) of uniforms U in [0, 1): L > k exactly when 1 - U <= (1 - rate)**k.

    ``uniform`` is one float (never at rate 0, whose run draws none), or
    an array worked in place, and then ``divisor``, log1p(-rate), may be
    an array that broadcasts against it; ``least`` is its value nearest
    0.  As log1p(-U) > -37, no length reaches ``cap`` when
    37 / -least + 1 <= cap, and the clip is skipped.
    Otherwise it is done in floats, before the integer cast, and makes
    ``cap`` of a quotient that overflows (near rate 5e-324) or is inf or
    nan (rate 0, divisor -0.0): a run that lasts the window.
    """
    if isinstance(uniform, float):  # numpy's log1p, as for an array
        quotient = float(np.log1p(-uniform)) / divisor
        return math.floor(quotient) + 1 if quotient < cap - 1 else cap
    np.negative(uniform, out=uniform)
    np.log1p(uniform, out=uniform)
    if (cap - 1) * -least >= 37.0:
        uniform /= divisor
        length = uniform.astype(np.int64)  # the quotients are >= 0: their floor
        length += 1
        return length
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        uniform /= divisor
    np.floor(uniform, out=uniform)
    uniform += 1.0
    np.fmin(uniform, cap, out=uniform)
    return uniform.astype(np.int64)


def _error_runs(rng, start, stop, ber, alpha, beta):
    """Bad runs of one stationary channel stream over slots start..stop-1.

    Returns (begin, length) arrays in stream order: the stream errs in
    slots begin..begin+length-1, the last run clipped to ``stop``.  The
    first slot draws its state from the stationary law, and by
    memorylessness the rest of the opening run is geometric like any
    other.  Run lengths are drawn in (bad, good) pairs, per round the
    mean pair count still to cover plus three times its square root,
    from one (2, pairs) uniform fill: its bad lengths, then its good ones.
    """
    slots = stop - start
    stay = _log_stay(beta), _log_stay(alpha)
    # slot where the stream's next bad run begins; a good run at alpha = 0
    # never ends, so it lasts the window, draws nothing, and one pair of
    # runs covers the window
    begin = start
    if rng.random() >= ber:
        begin += _lengths(rng.random(), stay[1], slots, stay[1]) if alpha > 0.0 else slots
    mean_pair = (1.0 / alpha if alpha > 0.0 else math.inf) + 1.0 / beta
    divisor = np.array(((stay[0],), (stay[1],)))  # a fill's bad row, then its good row
    runs = []
    while begin < stop:
        expected = (stop - begin) / mean_pair
        pairs = int(expected + 3.0 * math.sqrt(expected)) + 1
        bad, good = _lengths(rng.random((2, pairs)), divisor, slots, max(stay))
        # edge[k] is where run k begins, edge[pairs] where the round ends
        edge = np.empty(pairs + 1, dtype=np.int64)
        edge[0] = begin
        np.add(bad, good, out=edge[1:])
        edge.cumsum(out=edge)
        inside = int(edge[:pairs].searchsorted(stop))  # starts only grow
        runs.append((edge[:inside], bad[:inside]))
        begin = int(edge[pairs])
    if not runs:
        return np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64)
    begin, length = runs[0] if len(runs) == 1 else map(np.concatenate, zip(*runs))
    # runs are disjoint, so only the last can cross the end
    length[-1] = min(length[-1], stop - begin[-1])
    return begin, length


def _gaps(uniform, leave, stay, cap):
    """Gaps G = max(1, floor((log1p(-U) - log(beta)) / log1p(-alpha)) + 2)
    between consecutive errors of uniforms U in [0, 1), clipped to ``cap``,
    worked in place: ``leave`` is log(beta) and ``stay`` log1p(-alpha).
    The gaps come back as whole floats, which an int64 buffer takes by
    assignment, so no third error-sized array is made for the cast.

    After an error the next slot errs too unless the bad run ends (rate
    beta), and then a geometric good run (rate alpha) passes first, so
    P(G = 1) = 1 - beta and P(G > 1 + k) = beta * (1 - alpha)**k, and
    G > 1 + k exactly when 1 - U <= beta * (1 - alpha)**k.  The clip is
    done in floats before the integer cast: ``fmin`` makes the window of
    a quotient that overflows (near alpha 5e-324) or is nan, then the
    gaps below one, where the bad run goes on, become one.
    """
    np.negative(uniform, out=uniform)
    np.log1p(uniform, out=uniform)
    uniform -= leave
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        uniform /= stay
    np.floor(uniform, out=uniform)
    uniform += 2.0
    np.fmin(uniform, cap, out=uniform)
    np.fmax(uniform, 1.0, out=uniform)
    return uniform


def _error_gaps(rng, start, stop, ber, alpha, beta):
    """Error slots of one stationary channel stream over slots
    start..stop-1, ascending, drawn as the i.i.d. gaps between errors.

    The first slot draws its state from the stationary law; a good start
    waits a geometric good run (rate alpha, lasting the window at alpha
    0) for its first error.  Each error after it lies one ``_gaps`` gap
    on, drawn per round as many as the mean error count still to cover
    (the mean gap is 1 / ber) plus three times its square root, in one
    1-D uniform fill.  One uniform an error, where the runs take one for
    each end of every bad run: the cheaper encoding when beta > 1/2.
    """
    slots = stop - start
    stay = _log_stay(alpha)
    # slot of the stream's next error
    begin = start
    if rng.random() >= ber:
        begin += _lengths(rng.random(), stay, slots, stay) if alpha > 0.0 else slots
    leave = math.log(beta)
    rounds = []
    while begin < stop:
        expected = (stop - begin) * ber
        count = int(expected + 3.0 * math.sqrt(expected)) + 1
        # edge[k] is error k of the round, edge[count] the next round's first
        edge = np.empty(count + 1, dtype=np.int64)
        edge[0] = begin
        edge[1:] = _gaps(rng.random(count), leave, stay, slots)
        edge.cumsum(out=edge)
        rounds.append(edge[:int(edge[:count].searchsorted(stop))])  # errors only grow
        begin = int(edge[count])
    if not rounds:
        return np.zeros(0, dtype=np.int64)
    return rounds[0] if len(rounds) == 1 else np.concatenate(rounds)


def _expand(first, length):
    """Every slot first..first+length-1 of each run, run after run."""
    shift = (first - (length.cumsum() - length)).repeat(length)
    return np.arange(shift.size) + shift


def _bad_at_packet_starts(begin, length, rows, bits):
    """Whether a stream of ``rows`` packets of ``bits`` slots is bad at
    each packet's first slot r * bits, given its bad runs (``begin``
    ascending, runs disjoint): where the last run to begin by that slot
    lasts past it.  The runs that begin by slot r * bits are those whose
    next packet start, ceil(begin / bits), is r or before; with fewer
    runs than four a packet, counting them per packet is cheaper than a
    binary search per packet."""
    if not begin.size:
        return np.zeros(rows, dtype=bool)
    first = np.arange(0, rows * bits, bits)
    if begin.size < 4 * rows:
        after = begin + (bits - 1)
        after //= bits
        last = np.bincount(after, minlength=rows + 1)[:rows].cumsum()
        last -= 1
    else:
        last = begin.searchsorted(first, side="right") - 1
    return (last >= 0) & (begin[last] + length[last] > first)


def _opening_runs(rngs, cuts, bad, alpha, beta, cap):
    """Opening run lengths of flipped packets, clipped to ``cap``: a bad
    run (rate ``beta``) where ``bad``, a good one (rate ``alpha``)
    elsewhere.  Generator ``rngs[k]`` fills entries cuts[k] to
    cuts[k + 1] - 1 of one array of uniforms, and each entry is divided
    by the log1p(-rate) of its own run."""
    uniform = np.empty(bad.size)
    for rng, low, high in zip(rngs, cuts, cuts[1:]):
        rng.random(out=uniform[low:high])
    divisor = _log_stay(beta), _log_stay(alpha)
    return _lengths(uniform, np.where(bad, *divisor), cap, max(divisor))


def _error_slots(batches, bits, ber, nacf):
    """Position r * bits + slot of every error in a group of packet batches.

    ``batches`` is a list of (generator, rows) pairs, one per batch of
    ``rows`` packets of ``bits`` slots; packet r counts through the
    whole group, so batch k's packets follow the packets of the batches
    before it.  Each batch's packets are cut from one stationary stream
    of rows * bits slots: packet r reads it from position r * bits on.
    Where a packet's own stationary start state differs from the
    stream's state at r * bits, the packet opens with a fresh geometric
    run of its own state and then reads the stream, shifted by that
    run's length, dropping what the shift pushes past its end; as the
    module docstring shows, the packets are then independent and
    identically distributed, each the chain from a stationary start.

    The stream is drawn as gaps between errors (``_error_gaps``) where
    beta > 1/2, and as (bad, good) run pairs (``_error_runs``) elsewhere;
    the gaps give the errors themselves, runs of one slot, so that side
    has no run expansion.  Each batch draws only uniforms, from its own
    generator, in this order: its stream's start state, the first good
    run's if it starts good, then its runs or gaps, its packets' start
    states, then one for each opening run of its flipped packets; so a
    group's positions are each batch's own, offset by the packets before
    it.  One ``_opening_runs`` call takes the openings of all the group's
    batches.  Everything else (the packet-start test, the run expansion,
    the moves and the drops) is array work done once for the group, so
    its memory grows with the group's errors.  No run leaves its batch's
    window, so the group's stream positions come out sorted, and one
    ``searchsorted`` on them finds the errors of the few packets that
    flip their start state; only those errors move.  The opening bad
    runs of the flipped packets come first in the result.
    """
    counts = [rows for _, rows in batches]
    rows = sum(counts)
    if ber == 0.0:
        return np.zeros(0, dtype=np.int64)
    if ber == 1.0:
        return np.arange(rows * bits)
    alpha, beta = _two_state_rates(ber, nacf)
    # the gaps take one uniform an error, the runs two a bad run: 2 * beta an error
    gaps = beta > 0.5
    runs, own = [], []
    start = 0
    for rng, count in batches:
        stop = start + count * bits
        runs.append((_error_gaps if gaps else _error_runs)(rng, start, stop, ber, alpha, beta))
        own.append(rng.random(count) < ber)
        start = stop
    if gaps:  # the errors themselves, as runs of one slot
        begin = runs[0] if len(runs) == 1 else np.concatenate(runs)
        length = np.broadcast_to(np.int64(1), begin.shape)
    else:
        begin, length = runs[0] if len(runs) == 1 else map(np.concatenate, zip(*runs))
    own_bad = own[0] if len(own) == 1 else np.concatenate(own)
    del runs  # leaves begin and length the only holders, so the expansion frees them
    flip = (own_bad != _bad_at_packet_starts(begin, length, rows, bits)).nonzero()[0]
    # each batch draws the opening runs of its own flipped packets
    cuts = [0, *flip.searchsorted(list(itertools.accumulate(counts[:-1]))).tolist(), flip.size]
    opening = own_bad[flip]
    shift = _opening_runs([rng for rng, _ in batches], cuts, opening, alpha, beta, bits)

    if gaps:
        pos = begin
    else:
        # _expand, in place and with the runs freed before the arange: at
        # beta near 1/2, where runs are about half as many as errors, a
        # batch holds three error-sized arrays at once, not five, and its
        # heap is not given back and faulted in again on every batch
        before = length.cumsum()
        before -= length
        begin -= before
        pos = begin.repeat(length)
        del before, begin, length
        pos += np.arange(pos.size)
    # a flipped packet's errors before end - shift move on by shift, the
    # ones from there to its end fall off
    start = flip * bits
    low, cut, stop = pos.searchsorted((start, start + bits - shift, start + bits))
    pos[_expand(low, cut - low)] += shift.repeat(cut - low)
    # the kept errors are the slices between the dropped stretches
    dropped = (stop > cut).nonzero()[0]
    keep_from = [0, *stop[dropped].tolist()]
    keep_to = [*cut[dropped].tolist(), pos.size]
    kept = [pos[a:b] for a, b in zip(keep_from, keep_to)]
    return np.concatenate([_expand(start[opening], shift[opening]), *kept])


def dar1_stream(channel: ChannelSpec, length: int, seed: int) -> np.ndarray:
    """One channel bit error stream as a boolean array; deterministic in seed.

    Dense view of the stream sampler that ``simulate_packets`` uses: it
    draws the errors as runs, or as gaps where the bad-to-good rate
    (1 - nacf)(1 - ber) is above 1/2 (see ``_error_slots``).  Its law is
    that of the DAR(1) recursion with the channel's ``ber`` and ``nacf``.
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
    keys = _batch_keys(cfg.seed, len(spans))

    def group_losses(group):
        batches = [(_batch_rng(keys[index]), count) for index, count in group]
        count = sum(rows for _, rows in group)
        pos = _error_slots(batches, bits, cfg.channel.ber, cfg.channel.nacf)
        if count * bits < 2**31:  # keys fit int32, whose divisions are cheaper
            pos = pos.astype(np.int32)
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
            key.sort()  # so each chunk of rows is one slice
        losses = 0
        for first in range(0, count, step):
            rows = min(step, count - first)
            part = key
            if rows < count:
                low = first * scheme.codewords
                bounds = key.searchsorted((low, low + rows * scheme.codewords))
                part = key[slice(*bounds)] - low
            counts = np.bincount(part, minlength=rows * scheme.codewords)
            failed = (counts > code.l).nonzero()[0] // scheme.codewords
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
