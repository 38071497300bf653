import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from burstfec.channel import ChannelSpec, CodeSpec, SchemeSpec, ibp_from_stats
from burstfec.mc import (
    CiEstimate,
    SimConfig,
    _bad_at_packet_starts,
    _batch_keys,
    _batch_rng,
    _error_runs,
    _error_slots,
    _lengths,
    _log_stay,
    _opening_runs,
    confidence_interval,
    dar1_stream,
    simulate_packets,
)
from reference_stats import binomial_packet_error, lag1_autocorr, stat_standard_errors

STREAM_BITS = 1_000_000
Z95 = 1.9599639845400545  # standard normal quantile at 0.975


def batch_rng(seed, index):
    """Batch ``index``'s generator, as numpy's SeedSequence spawns it."""
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(seed, spawn_key=(index,))))


def rule(uniform, rate, cap):
    """The run-length rule worked one uniform at a time, in Python floats:
    floor(log1p(-U) / log1p(-rate)) + 1, at most ``cap``, where a run at
    rate 0 never ends and so lasts ``cap``."""
    if rate == 0.0:
        return [cap] * len(uniform)
    stay = math.log1p(-rate) if rate < 1.0 else -math.inf
    lengths = []
    for u in uniform:
        quotient = float(np.log1p(-u)) / stay
        lengths.append(cap if quotient >= cap else int(min(math.floor(quotient) + 1.0, cap)))
    return lengths


def mean_se(ber, nacf, count):
    # variance of the mean of a geometrically correlated binary series
    return math.sqrt(ber * (1 - ber) * (1 + nacf) / (1 - nacf) / count)


# ----------------------------------------------------------------------
# DAR(1) stream statistics
# ----------------------------------------------------------------------


@pytest.mark.parametrize(
    "ber,nacf",
    [(p, c) for p in (0.001, 0.01, 0.5) for c in (0.0, 0.6, 0.9)],
)
def test_stream_matches_target_statistics(ber, nacf):
    bits = dar1_stream(ChannelSpec(ber=ber, nacf=nacf), STREAM_BITS, seed=42)
    se_m, se_r1 = stat_standard_errors(ber, nacf, STREAM_BITS)
    assert np.mean(bits) == pytest.approx(ber, abs=3 * se_m)
    assert lag1_autocorr(bits) == pytest.approx(nacf, abs=3 * se_r1)


def test_stream_run_lengths_match_geometric_law():
    # at ber=0.5 a run of either value ends only when a redraw flips it,
    # so the mean run length is 1 / ((1-c)/2) = 2/(1-c)
    nacf = 0.9
    bits = dar1_stream(ChannelSpec(ber=0.5, nacf=nacf), STREAM_BITS, seed=3).astype(np.int8)
    changes = int(np.count_nonzero(np.diff(bits))) + 1
    mean_run = len(bits) / changes
    expected = 2.0 / (1.0 - nacf)
    assert mean_run == pytest.approx(expected, rel=0.05)


def test_stream_pair_law_matches_two_state_model():
    # empirical two-slot law vs pi[a] * D[a, b] of the equivalent chain
    channel = ChannelSpec(ber=0.2, nacf=0.7)
    model = ibp_from_stats(channel)
    bits = dar1_stream(channel, STREAM_BITS, seed=9).astype(np.int8)
    counts = np.zeros((2, 2))
    np.add.at(counts, (bits[:-1], bits[1:]), 1.0)
    freq = counts / (len(bits) - 1)
    for a in (0, 1):
        for b in (0, 1):
            expected = model.pi[a] * model.transition[a, b]
            se = 4 * mean_se(expected, channel.nacf, STREAM_BITS)
            assert freq[a, b] == pytest.approx(expected, abs=se)


def test_stream_is_deterministic_in_seed():
    channel = ChannelSpec(ber=0.1, nacf=0.8)
    first = dar1_stream(channel, 10_000, seed=123)
    second = dar1_stream(channel, 10_000, seed=123)
    np.testing.assert_array_equal(first, second)
    assert not np.array_equal(first, dar1_stream(channel, 10_000, seed=124))


def test_stream_degenerate_rates():
    assert not dar1_stream(ChannelSpec(ber=0.0, nacf=0.9), 1000, seed=1).any()
    assert dar1_stream(ChannelSpec(ber=1.0, nacf=0.0), 1000, seed=1).all()


# ----------------------------------------------------------------------
# packet simulation
# ----------------------------------------------------------------------


def small_config(**overrides):
    defaults = dict(
        channel=ChannelSpec(ber=0.01, nacf=0.6),
        code=CodeSpec(63, 45, 3),
        scheme=SchemeSpec(depth=4, blocks=4),
        packets=5_000,
        seed=77,
    )
    defaults.update(overrides)
    return SimConfig(**defaults)


def test_simulation_error_free_channel():
    estimate = simulate_packets(small_config(channel=ChannelSpec(ber=0.0, nacf=0.5)))
    assert estimate.p_hat == 0.0
    assert estimate.losses == 0
    # Wilson's interval keeps its upper bound t^2 / (N + t^2) at no loss
    assert estimate.lo == 0.0
    assert estimate.hi == pytest.approx(Z95**2 / (5_000 + Z95**2), rel=1e-12, abs=0.0)
    assert estimate.degenerate


def test_simulation_is_reproducible_across_workers():
    base = simulate_packets(small_config())
    for workers in (2, 3, 7):
        again = simulate_packets(small_config(), workers=workers)
        assert again == base


def test_simulation_seed_changes_estimate():
    # individual counts can tie by chance, but three independent seeds
    # cannot all collapse to one value unless seeding is broken
    losses = {simulate_packets(small_config(seed=seed)).losses for seed in (77, 79, 81)}
    assert len(losses) > 1


def assert_matches_exact(ber, nacf, code, depth, blocks, seed):
    # estimate must land within 4 binomial SEs of the exact packet error
    from burstfec.oracle import exact_loss

    channel = ChannelSpec(ber=ber, nacf=nacf)
    n, k, l = code
    exact = exact_loss(ibp_from_stats(channel), n, depth, l, blocks)[1]
    cfg = SimConfig(
        channel=channel,
        code=CodeSpec(n, k, l),
        scheme=SchemeSpec(depth=depth, blocks=blocks),
        packets=100_000,
        seed=seed,
    )
    estimate = simulate_packets(cfg)
    se = math.sqrt(exact * (1 - exact) / cfg.packets)
    assert estimate.p_hat == pytest.approx(exact, abs=4 * se)


def test_simulation_matches_exact_small_instance():
    assert_matches_exact(0.1, 0.5, (5, 3, 1), depth=3, blocks=2, seed=5)


@pytest.mark.parametrize(
    "ber,nacf,code,depth,blocks,seed",
    [
        # runs span several slots of every block
        (0.05, 0.9, (5, 3, 1), 4, 3, 31),
        (0.02, 0.95, (10, 6, 2), 2, 4, 32),
        (0.1, 0.8, (6, 4, 1), 3, 2, 33),
        # paper scale: 1008-bit packets
        (0.01, 0.9, (63, 45, 3), 8, 2, 34),
    ],
)
def test_simulation_matches_exact_correlated_instance(ber, nacf, code, depth, blocks, seed):
    assert_matches_exact(ber, nacf, code, depth, blocks, seed)


def test_simulation_total_loss_channel_loses_every_packet():
    # 2500 packets: two full batches and a partial one, all of them lost
    estimate = simulate_packets(
        small_config(channel=ChannelSpec(ber=1.0, nacf=0.5), packets=2_500)
    )
    assert estimate.losses == 2_500
    assert estimate.p_hat == 1.0
    assert estimate.degenerate


def test_simulation_counts_the_partial_last_batch():
    # batch 0 is the same draw in both runs, so the 476 packets of the
    # partial second batch must add losses on this lossy channel
    channel = ChannelSpec(ber=0.1, nacf=0.8)
    full = simulate_packets(small_config(channel=channel, packets=1_024, seed=41))
    longer = simulate_packets(small_config(channel=channel, packets=1_500, seed=41))
    assert longer.packets == 1_500
    assert longer.losses > full.losses
    assert longer.p_hat == longer.losses / 1_500


def test_first_slot_follows_the_stationary_law():
    # at c = 0.9 a stream that always opened in one state would keep its
    # first slots far from p_E for about ten slots
    ber, rows, bits = 0.05, 200_000, 8
    row, slot = divmod(_error_slots([(batch_rng(51, 0), rows)], bits, ber, 0.9), bits)
    se = math.sqrt(ber * (1 - ber) / rows)
    for position in (0, bits - 1):
        freq = np.count_nonzero(slot == position) / rows
        assert freq == pytest.approx(ber, abs=4 * se)
    # runs never overlap or leave the window
    assert 0 <= slot.min() and slot.max() < bits and row.max() < rows
    assert np.unique(row * bits + slot).size == slot.size


@pytest.mark.parametrize("bits", [5, 32])
@pytest.mark.parametrize("nacf", [0.9, 0.99])
def test_packets_cut_from_one_stream_are_independent(bits, nacf):
    # a batch's packets are cut from one stream; packet r + 1 must not
    # carry on from the end of packet r, and every slot keeps the law p_E
    ber, rows = 0.05, 200_000
    row, slot = divmod(_error_slots([(batch_rng(53, 0), rows)], bits, ber, nacf), bits)
    errors = np.zeros((rows, bits), dtype=bool)
    errors[row, slot] = True
    se = math.sqrt(ber * (1 - ber) / rows)
    freq = errors.mean(axis=0)
    assert np.all(np.abs(freq - ber) <= 4 * se), freq
    last, first = errors[:-1, -1], errors[1:, 0]
    corr = np.corrcoef(last, first)[0, 1]
    assert abs(corr) <= 4 / math.sqrt(rows - 1)


@pytest.mark.parametrize(
    "ber,nacf,code,depth,blocks,seed",
    [
        # packets of 36 and 45 bits whose runs outlast them
        (0.01, 0.99, (6, 5, 0), 2, 3, 35),
        (0.1, 0.95, (5, 3, 1), 3, 3, 36),
    ],
)
def test_simulation_matches_exact_where_runs_cross_packets(ber, nacf, code, depth, blocks, seed):
    assert_matches_exact(ber, nacf, code, depth, blocks, seed)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(
    rows=st.integers(1, 12),
    bits=st.integers(1, 40),
    ber=st.one_of(st.sampled_from([0.0, 1.0]), st.floats(1e-6, 1 - 1e-6)),
    nacf=st.floats(0.0, 0.999),
    seed=st.integers(0, 2**32),
)
def test_error_slots_stay_in_their_packets(rows, bits, ber, nacf, seed):
    position = _error_slots([(batch_rng(seed, 0), rows)], bits, ber, nacf)
    assert position.dtype == np.int64
    row, slot = divmod(position, bits)
    assert row.size == slot.size
    if row.size:
        assert 0 <= row.min() and row.max() < rows
        assert 0 <= slot.min() and slot.max() < bits
    assert np.unique(row * bits + slot).size == slot.size
    if ber in (0.0, 1.0):
        assert slot.size == ber * rows * bits
    # one packet is the dense stream of the same seed
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))
    alone = _error_slots([(rng, 1)], bits, ber, nacf)
    stream = dar1_stream(ChannelSpec(ber=ber, nacf=nacf), bits, seed)
    np.testing.assert_array_equal(np.sort(alone), np.flatnonzero(stream))


RULE_RATES = [
    1.0, np.nextafter(1 / 3, 0.0), 1 / 3, np.nextafter(1 / 3, 1.0), 1e-300, 5e-324,
]


@pytest.mark.parametrize("rate", RULE_RATES)
@pytest.mark.parametrize("cap", [1, 7, 10**9, 2**62])
def test_lengths_map_chosen_uniforms_to_the_formula(rate, cap):
    # the ends of [0, 1) and its middle; at rate 1e-300 and below only
    # U = 0 gives a run shorter than any cap, and near 5e-324 the quotient
    # overflows to inf and is clipped before the integer cast
    uniform = [0.0, 0.5, 1 - 2**-53]
    stay = _log_stay(rate)
    lengths = _lengths(np.array(uniform), stay, cap, stay)
    assert lengths.dtype == np.int64
    assert lengths.tolist() == rule(uniform, rate, cap)
    assert [_lengths(u, stay, cap, stay) for u in uniform] == rule(uniform, rate, cap)


@pytest.mark.parametrize("rate", [0.002, 0.1, 1 / 3, 0.5, 0.98, 1e-300, 1.0])
@pytest.mark.parametrize("cap", [7, 10**9])
def test_a_uniform_gives_one_length_alone_or_in_an_array(rate, cap):
    # a stream's first run takes one uniform alone, as a float, and its
    # other runs and the openings take theirs inside arrays: one uniform,
    # one length, clipped or not
    alone, together = batch_rng(73, 0), batch_rng(73, 0)
    stay, other = _log_stay(rate), _log_stay(0.3)
    single = [_lengths(alone.random(), stay, cap, stay) for _ in range(2_000)]
    assert single == _lengths(together.random(2_000), stay, cap, stay).tolist()
    # and inside a fill of two rows, each with its own rate
    bad, good = _lengths(together.random((2, 500)), np.array([[stay], [other]]), cap, max(stay, other))
    assert bad.tolist() == [_lengths(alone.random(), stay, cap, stay) for _ in range(500)]
    assert good.tolist() == [_lengths(alone.random(), other, cap, other) for _ in range(500)]


@pytest.mark.parametrize("rate", [0.002, 0.1, 0.5, 0.9, 1e-300, 1.0])
def test_length_tails_follow_the_geometric_law(rate):
    # P(L > k) = (1 - rate)**k, within 4 binomial SEs of 10**6 seeded
    # draws, at k from 1 up to k * rate = 5; at rate 1e-300 every such k
    # is past the cap, so the law there is P(L > k) = 1 up to cap - 1
    draws, cap = 10**6, 2**62
    stay = _log_stay(rate)
    lengths = _lengths(batch_rng(74, 0).random(draws), stay, cap, stay)
    assert 1 <= lengths.min() and lengths.max() <= cap
    for mean_runs in (0.0, 0.05, 0.5, 1.0, 2.0, 5.0):
        k = max(1, min(math.ceil(mean_runs / rate), cap - 1))
        expected = math.exp(k * stay)
        se = math.sqrt(expected * (1.0 - expected) / draws)
        assert np.count_nonzero(lengths > k) / draws == pytest.approx(expected, abs=4 * se)


def two_call_error_runs(rng, start, stop, ber, alpha, beta):
    # _error_runs as two uniform fills a round, bad then good, each worked
    # by the rule one uniform at a time, and a scalar walk over the pairs
    # in place of the array sums
    slots = stop - start
    if rng.random() < ber:
        begin = start
    else:
        # a good run at rate 0 lasts the window and draws nothing
        begin = start + (rule(rng.random(1), alpha, slots)[0] if alpha > 0.0 else slots)
    mean_pair = (1.0 / alpha if alpha > 0.0 else math.inf) + 1.0 / beta
    begins, lengths = [], []
    while begin < stop:
        expected = (stop - begin) / mean_pair
        pairs = int(expected + 3.0 * math.sqrt(expected)) + 1
        bad = rule(rng.random(pairs), beta, slots)
        good = rule(rng.random(pairs), alpha, slots)
        for b, g in zip(bad, good):
            if begin < stop:
                begins.append(begin)
                lengths.append(min(b, stop - begin))
            begin += b + g
    return begins, lengths


@settings(max_examples=150, deadline=None, derandomize=True)
@given(
    start=st.integers(0, 10**6),
    slots=st.integers(1, 20_000),
    ber=st.one_of(st.floats(1e-6, 1 - 1e-6), st.sampled_from([5e-324, 1e-17])),
    # nacf 0 with p_E 1e-17 makes beta 1; with p_E 5e-324, alpha 0
    nacf=st.one_of(st.floats(0.67, 0.999), st.floats(0.0, 0.999), st.just(0.0)),
    seed=st.integers(0, 2**32),
)
def test_error_runs_draw_as_two_run_length_calls_a_round(start, slots, ber, nacf, seed):
    ours, theirs = batch_rng(seed, 0), batch_rng(seed, 0)
    alpha, beta = (1.0 - nacf) * ber, (1.0 - nacf) * (1.0 - ber)
    begin, length = _error_runs(ours, start, start + slots, ber, alpha, beta)
    assert begin.dtype == length.dtype == np.int64
    assert (begin.tolist(), length.tolist()) == two_call_error_runs(
        theirs, start, start + slots, ber, alpha, beta
    )
    assert ours.random() == theirs.random()


def test_run_lengths_at_rate_zero_last_the_window_and_draw_nothing():
    # the rule at rate 0 (divisor -0.0): every run lasts the window, U = 0
    # too, whose quotient is nan
    uniform = np.array([0.0, 0.5, 1 - 2**-53])
    np.testing.assert_array_equal(_lengths(uniform, -0.0, 9, -0.0), [9, 9, 9])
    # alpha = (1 - c) * p_E rounds to 0: a stream that starts good stays
    # good, and its first run draws no uniform past the start state's
    alpha, beta = 0.5 * 5e-324, 0.5
    assert alpha == 0.0
    ours, theirs = batch_rng(72, 0), batch_rng(72, 0)
    begin, length = _error_runs(ours, 0, 100, 5e-324, alpha, beta)
    assert begin.size == length.size == 0
    theirs.random()
    assert ours.random() == theirs.random()
    # a good opening at rate 0 lasts its packet; a bad one keeps the rule
    ours, theirs = batch_rng(72, 1), batch_rng(72, 1)
    bad = np.array([False, True, False])
    lengths = _opening_runs([ours], [0, 3], bad, alpha, beta, 9)
    uniform = theirs.random(3)
    assert lengths.tolist() == [9, rule(uniform[1:2], beta, 9)[0], 9]
    assert ours.random() == theirs.random()


# rates from 0 to 1: small and large, at the ends, and below 1e-300,
# where the quotient can overflow to inf
RATES = st.one_of(
    st.floats(0.0, 1.0),
    st.floats(1e-300, 1e-6),
    st.sampled_from([0.0, 5e-324, 5e-301, 1e-300, np.nextafter(1 / 3, 0.0), 1 / 3, 1.0]),
)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(
    rates=st.tuples(RATES, RATES),
    bad=st.lists(st.booleans(), max_size=60),
    data=st.data(),
    cap=st.sampled_from([1, 7, 4032, 10**9]),
    seed=st.integers(0, 2**32),
)
def test_opening_runs_are_each_batchs_geometric_draws(rates, bad, data, cap, seed):
    # uneven cuts, empty batches among them: each generator fills its own
    # entries with uniforms, each worked by the rule at its own rate, and
    # is left in step
    alpha, beta = rates
    bad = np.array(bad, dtype=bool)
    inner = data.draw(st.lists(st.integers(0, bad.size), max_size=4), label="cuts")
    cuts = [0, *sorted(inner), bad.size]
    batches = len(cuts) - 1
    ours = [batch_rng(seed, k) for k in range(batches)]
    theirs = [batch_rng(seed, k) for k in range(batches)]
    lengths = _opening_runs(ours, cuts, bad, alpha, beta, cap)
    assert lengths.dtype == np.int64
    for rng, low, high in zip(theirs, cuts, cuts[1:]):
        uniform = rng.random(high - low)
        expected = [
            rule([u], beta if b else alpha, cap)[0] for u, b in zip(uniform, bad[low:high])
        ]
        assert lengths[low:high].tolist() == expected
    assert [rng.random() for rng in ours] == [rng.random() for rng in theirs]


class OnlyUniforms:
    """A generator with nothing but ``random``, drawn from a real one."""

    def __init__(self, rng):
        self.random = rng.random


@settings(max_examples=150, deadline=None, derandomize=True)
@given(
    sizes=st.lists(st.integers(1, 9), min_size=1, max_size=4),
    bits=st.integers(1, 40),
    ber=st.one_of(st.floats(1e-6, 1 - 1e-6), st.sampled_from([5e-324, 1e-17, 0.5])),
    nacf=st.one_of(st.floats(0.0, 0.999), st.just(0.0)),
    seed=st.integers(0, 2**32),
)
def test_error_slots_need_nothing_but_uniforms(sizes, bits, ber, nacf, seed):
    # every draw of a group, runs, start states and openings, is a uniform
    # fill: stand-ins that offer only Generator.random give the same slots
    real = _error_slots([(batch_rng(seed, k), r) for k, r in enumerate(sizes)], bits, ber, nacf)
    stand_ins = [(OnlyUniforms(batch_rng(seed, k)), r) for k, r in enumerate(sizes)]
    np.testing.assert_array_equal(_error_slots(stand_ins, bits, ber, nacf), real)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(
    # one to nine 32-bit seed words: short seeds are padded to the pool
    # of four, long ones mix in past it
    seed=st.one_of(
        st.integers(0, 2**64), st.integers(0, 2**288),
        st.sampled_from([0, 2**32 - 1, 2**32, 2**128 - 1, 2**128]),
        # numpy integers, which SeedSequence takes too
        st.integers(0, 2**63 - 1).map(np.int64), st.integers(0, 2**64 - 1).map(np.uint64),
    ),
    count=st.integers(1, 40),
)
def test_batch_keys_are_the_spawned_seed_sequences_keys(seed, count):
    keys = _batch_keys(seed, count)
    assert keys.dtype == np.uint64 and keys.shape == (count, 2)
    for index in range(count):
        spawned = np.random.SeedSequence(seed, spawn_key=(index,))
        np.testing.assert_array_equal(keys[index], spawned.generate_state(2, np.uint64))
    ours, theirs = _batch_rng(keys[-1]), batch_rng(seed, count - 1)
    assert ours.random(3).tolist() == theirs.random(3).tolist()


@settings(max_examples=300, deadline=None, derandomize=True)
@given(
    rows=st.integers(1, 40),
    bits=st.integers(1, 40),
    density=st.floats(0.0, 1.0),
    seed=st.integers(0, 2**32),
)
def test_bad_at_packet_starts_reads_the_dense_stream(rows, bits, density, seed):
    # fewer runs than four a packet are counted per packet, more are
    # found by binary search; both read the stream at each r * bits
    dense = np.random.default_rng(seed).random(rows * bits) < density
    edges = np.diff(np.concatenate(([False], dense, [False])).astype(np.int8))
    begin, end = np.flatnonzero(edges == 1), np.flatnonzero(edges == -1)
    bad = _bad_at_packet_starts(begin, end - begin, rows, bits)
    np.testing.assert_array_equal(bad, dense[::bits])


@settings(max_examples=120, deadline=None, derandomize=True)
@given(
    sizes=st.lists(st.integers(1, 9), min_size=1, max_size=5),
    bits=st.integers(1, 40),
    ber=st.one_of(st.sampled_from([0.0, 1.0]), st.floats(1e-6, 1 - 1e-6)),
    nacf=st.floats(0.0, 0.999),
    seed=st.integers(0, 2**32),
)
def test_a_group_of_batches_is_each_batch_alone(sizes, bits, ber, nacf, seed):
    # full batches of sizes[0] rows and a last one of at most that many:
    # the group's positions are each batch's own, after the rows before it
    rows = [sizes[0]] * (len(sizes) - 1) + [min(sizes[-1], sizes[0])]
    group = _error_slots([(batch_rng(seed, k), r) for k, r in enumerate(rows)], bits, ber, nacf)
    assert group.dtype == np.int64
    offsets = np.cumsum([0, *rows[:-1]]) * bits
    alone = [
        _error_slots([(batch_rng(seed, k), r)], bits, ber, nacf) + offset
        for k, (r, offset) in enumerate(zip(rows, offsets))
    ]
    np.testing.assert_array_equal(np.sort(group), np.sort(np.concatenate(alone)))


def test_grouped_pass_memory_is_bounded():
    # 100 000 packets at the paper's p_E 0.002: groups of 4 batches, about
    # 8 000 errors and 65 536 codeword counters each
    import tracemalloc

    for nacf in (0.0, 0.9):
        cfg = small_config(channel=ChannelSpec(ber=0.002, nacf=nacf), packets=100_000, seed=63)
        tracemalloc.start()
        try:
            estimate = simulate_packets(cfg)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert 0 < estimate.losses < cfg.packets
        assert peak < 2 * 2**20


@settings(max_examples=150, deadline=None, derandomize=True)
@given(
    rows=st.integers(1, 30),
    n=st.integers(2, 7),
    depth=st.integers(1, 5),
    blocks=st.integers(1, 4),
    data=st.data(),
    ber=st.one_of(st.sampled_from([0.0, 1.0]), st.floats(1e-3, 1 - 1e-3)),
    nacf=st.floats(0.0, 0.99),
    seed=st.integers(0, 2**32),
    bins=st.sampled_from([1, 7, 2**20]),
)
def test_losses_match_a_dense_recount_of_the_error_slots(
    rows, n, depth, blocks, data, ber, nacf, seed, bins
):
    # the dense recount deinterleaves by reshaping, with no key formula:
    # slot j * depth + i of block m is bit j of that block's codeword i
    from unittest import mock

    import burstfec.mc

    l = data.draw(st.integers(0, n - 1), label="l")
    bits = n * depth * blocks
    errors = np.zeros(rows * bits, dtype=np.int64)
    errors[_error_slots([(batch_rng(seed, 0), rows)], bits, ber, nacf)] = 1
    counts = errors.reshape(rows, blocks, n, depth).sum(axis=2)
    expected = int(np.count_nonzero((counts > l).any(axis=(1, 2))))
    cfg = SimConfig(
        channel=ChannelSpec(ber=ber, nacf=nacf),
        code=CodeSpec(n, n - 1, l),
        scheme=SchemeSpec(depth=depth, blocks=blocks),
        packets=rows,
        seed=seed,
    )
    with mock.patch.object(burstfec.mc, "_COUNT_BINS", bins):
        assert simulate_packets(cfg).losses == expected


def test_losses_match_a_recount_where_the_keys_need_64_bits():
    # one batch whose stream has 3 * 2**31 / 2 slots: half its errors lie
    # past 2**31 - 1, where 32-bit keys would wrap.  A dense recount
    # would hold every slot, so numpy's unravel_index splits each error
    # position into (packet, block, bit, codeword) instead of a reshape
    rows, n, depth, blocks, l = 1024, 3 * 2**18, 2, 2, 1
    ber, nacf, seed = 1e-6, 0.5, 29
    bits = n * depth * blocks
    assert rows * bits > 2**31
    pos = _error_slots([(batch_rng(seed, 0), rows)], bits, ber, nacf)
    assert np.count_nonzero(pos >= 2**31) > 100
    row, block, _, codeword = np.unravel_index(pos, (rows, blocks, n, depth))
    keys, counts = np.unique(np.stack([row, block, codeword]), axis=1, return_counts=True)
    expected = np.unique(keys[0][counts > l]).size
    cfg = SimConfig(
        channel=ChannelSpec(ber=ber, nacf=nacf),
        code=CodeSpec(n, n - 1, l),
        scheme=SchemeSpec(depth=depth, blocks=blocks),
        packets=rows,
        seed=seed,
    )
    assert 0 < simulate_packets(cfg).losses == expected


@pytest.mark.parametrize(
    "ber,nacf",
    [
        (1e-300, 0.999999),
        (0.999999, 0.999999),
        (0.5, 0.0),
        (1.0, 0.5),
        (0.0, 0.3),
        # alpha = (1 - c) * p_E rounds to 0: the good state never ends
        (5e-324, 0.5),
    ],
)
@pytest.mark.parametrize("scheme", [SchemeSpec(depth=1, blocks=1), SchemeSpec(depth=4, blocks=8)])
def test_simulation_is_warning_free_at_extreme_channels(ber, nacf, scheme):
    cfg = SimConfig(
        channel=ChannelSpec(ber=ber, nacf=nacf),
        code=CodeSpec(3, 1, 1),
        scheme=scheme,
        packets=2_100,
        seed=57,
    )
    with warnings.catch_warnings(), np.errstate(all="raise"):
        warnings.simplefilter("error")
        estimate = simulate_packets(cfg)
    assert 0 <= estimate.losses <= cfg.packets
    assert 0.0 <= estimate.lo <= estimate.p_hat <= estimate.hi <= 1.0


def test_full_batch_of_long_packets_counts_in_bounded_chunks():
    # 1024 packets of 10**6 bits: 10**4 codewords each, so one count per
    # codeword of the whole batch would need about 80 MB of bins
    import tracemalloc

    cfg = SimConfig(
        channel=ChannelSpec(ber=1e-4, nacf=0.5),
        code=CodeSpec(100, 80, 5),
        scheme=SchemeSpec(depth=10, blocks=1_000),
        packets=1_024,
        seed=62,
    )
    assert cfg.scheme.packet_bits(cfg.code.n) == 1_000_000
    tracemalloc.start()
    try:
        estimate = simulate_packets(cfg)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert estimate.packets == 1_024
    assert 0 <= estimate.losses <= 1_024
    assert peak < 24 * 2**20


def test_long_packets_use_memory_in_proportion_to_errors():
    # 4 packets of 10**6 bits: a dense per-bit draw would need 32 MB of
    # float64 uniforms alone; about 4000 error slots need far less
    import tracemalloc

    cfg = SimConfig(
        channel=ChannelSpec(ber=0.001, nacf=0.5),
        code=CodeSpec(100, 80, 5),
        scheme=SchemeSpec(depth=10, blocks=1_000),
        packets=4,
        seed=61,
    )
    assert cfg.scheme.packet_bits(cfg.code.n) == 1_000_000
    tracemalloc.start()
    try:
        estimate = simulate_packets(cfg)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert estimate.packets == 4
    assert 0 <= estimate.losses <= 4
    assert peak < 8 * 2**20


@pytest.mark.parametrize("bins", [1, 64, 100, 5_000])
def test_counting_in_row_chunks_changes_no_loss(monkeypatch, bins):
    # 16 codewords a packet: chunks of 1, 4 and 6 rows (the last one
    # partial), and 312 rows for 5000 bins
    import burstfec.mc

    cfg = small_config(channel=ChannelSpec(ber=0.05, nacf=0.8), packets=2_100)
    whole = simulate_packets(cfg)
    monkeypatch.setattr(burstfec.mc, "_COUNT_BINS", bins)
    assert simulate_packets(cfg) == whole


# exact losses of simulate_packets: while the draws, their order and the
# batch partition stay, no change to how errors are counted may move one
PINNED_LOSSES = [
    # ber, nacf, (n, k, l), depth, blocks, seed, count bins, losses
    (0.002, 0.0, (63, 57, 1), 4, 4, 201, None, 270),
    (0.02, 0.0, (63, 45, 3), 4, 4, 202, None, 1106),
    (0.002, 0.9, (63, 45, 3), 16, 2, 203, None, 17),
    (0.02, 0.9, (15, 11, 1), 1, 3, 204, None, 219),
    (0.02, 0.99, (31, 21, 2), 4, 3, 205, None, 215),
    (0.3, 0.0, (15, 7, 5), 1, 2, 206, None, 1169),
    (0.3, 0.99, (7, 4, 1), 16, 2, 207, None, 1435),
    # 12 codewords a packet in 64 bins: chunks of 5 rows
    (0.3, 0.9, (5, 3, 1), 4, 3, 208, 64, 1944),
    # alpha = beta = 0.5: half the packets open with a run of their own
    # start state
    (0.5, 0.0, (15, 1, 7), 2, 1, 209, None, 1893),
]


@pytest.mark.parametrize("ber,nacf,code,depth,blocks,seed,bins,losses", PINNED_LOSSES)
def test_simulation_losses_are_pinned(
    monkeypatch, ber, nacf, code, depth, blocks, seed, bins, losses
):
    # 2500 packets: two full batches and a partial third
    import burstfec.mc

    if bins is not None:
        monkeypatch.setattr(burstfec.mc, "_COUNT_BINS", bins)
    cfg = SimConfig(
        channel=ChannelSpec(ber=ber, nacf=nacf),
        code=CodeSpec(*code),
        scheme=SchemeSpec(depth=depth, blocks=blocks),
        packets=2_500,
        seed=seed,
    )
    assert simulate_packets(cfg).losses == losses


# the same where several batches share one array pass; the c 0.9 count
# was recorded before batches were grouped
PINNED_GROUP_LOSSES = [
    # ber, nacf, (n, k, l), depth, blocks, seed, packets, losses
    (0.002, 0.0, (63, 57, 1), 4, 4, 211, 3_100, 331),
    (0.002, 0.9, (63, 45, 3), 4, 4, 210, 3_100, 152),
]


@pytest.mark.parametrize("ber,nacf,code,depth,blocks,seed,packets,losses", PINNED_GROUP_LOSSES)
def test_grouped_simulation_losses_are_pinned(
    monkeypatch, ber, nacf, code, depth, blocks, seed, packets, losses
):
    # 3100 packets: one group of three full batches and a partial fourth
    import burstfec.mc

    groups = []

    def recording(batches, *args):
        groups.append([rows for _, rows in batches])
        return _error_slots(batches, *args)

    monkeypatch.setattr(burstfec.mc, "_error_slots", recording)
    cfg = SimConfig(
        channel=ChannelSpec(ber=ber, nacf=nacf),
        code=CodeSpec(*code),
        scheme=SchemeSpec(depth=depth, blocks=blocks),
        packets=packets,
        seed=seed,
    )
    assert simulate_packets(cfg).losses == losses
    assert groups == [[1_024, 1_024, 1_024, 28]]


def test_simulation_uncorrelated_matches_baseline():
    channel = ChannelSpec(ber=0.01, nacf=0.0)
    code = CodeSpec(63, 45, 3)
    scheme = SchemeSpec(depth=2, blocks=8)
    expected = binomial_packet_error(0.01, code.n, code.l, 16)
    cfg = SimConfig(channel=channel, code=code, scheme=scheme, packets=100_000, seed=13)
    estimate = simulate_packets(cfg)
    se = math.sqrt(expected * (1 - expected) / cfg.packets)
    assert estimate.p_hat == pytest.approx(expected, abs=4 * se)


def test_simulation_rejects_bad_parameters():
    with pytest.raises(ValueError):
        small_config(packets=0)
    with pytest.raises(ValueError):
        small_config(gamma=1.0)
    with pytest.raises(ValueError):
        simulate_packets(small_config(), workers=0)
    with pytest.raises(ValueError, match=r"^seed must be >= 0, got -1$"):
        small_config(seed=-1)


# ----------------------------------------------------------------------
# confidence intervals
# ----------------------------------------------------------------------


def test_interval_quantile_value():
    # two-sided 95%: quantile 1.959964...; Wilson's half width at p = 1/2
    # is t * sqrt(1/4N + t^2/4N^2) / (1 + t^2/N), centred on 1/2
    n = 10_000
    lo, hi = confidence_interval(0.5, n, 0.95)
    half = Z95 * math.sqrt(0.25 / n + Z95**2 / (4 * n * n)) / (1 + Z95**2 / n)
    assert hi - lo == pytest.approx(2 * half, rel=1e-12, abs=0.0)
    assert (lo + hi) / 2 == pytest.approx(0.5, abs=1e-15)


def test_interval_clamps_to_unit_range():
    # the normal interval at (0.999, 100, 0.99) reached past 1; Wilson's
    # stays inside [0, 1] and around the estimate at every estimate
    for packets in (1, 100, 10**9):
        for p_hat in (0.0, 1e-9, 0.001, 0.5, 0.999, 1 - 1e-9, 1.0):
            lo, hi = confidence_interval(p_hat, packets, 0.99)
            assert 0.0 <= lo <= p_hat <= hi <= 1.0


def test_interval_degenerate_estimate_collapses():
    # at 0 and 1 only the far bound moves off the estimate: t^2 / (N + t^2)
    far = Z95**2 / (1000 + Z95**2)
    lo, hi = confidence_interval(0.0, 1000, 0.95)
    assert lo == 0.0 and hi == pytest.approx(far, rel=1e-12, abs=0.0)
    lo, hi = confidence_interval(1.0, 1000, 0.95)
    assert hi == 1.0 and lo == pytest.approx(1 - far, rel=1e-12, abs=0.0)


def binomial_pmf(k, n, p):
    log = math.lgamma(n + 1) - math.lgamma(k + 1) - math.lgamma(n - k + 1)
    return math.exp(log + k * math.log(p) + (n - k) * math.log1p(-p))


@pytest.mark.parametrize("expected", [0.1, 0.3, 1.0, 3.0, 10.0])
def test_interval_covers_at_a_few_expected_losses(expected):
    # exact coverage, summed over the binomial law of the loss count; the
    # normal interval covers 0.095 of it at 0.1 expected losses, 0.63 at 1
    packets = 100_000
    p = expected / packets
    coverage = math.fsum(
        binomial_pmf(k, packets, p)
        for k in range(int(expected + 20 * math.sqrt(expected)) + 20)
        if (bounds := confidence_interval(k / packets, packets, 0.95))[0] <= p <= bounds[1]
    )
    assert coverage >= 0.90


def test_interval_width_shrinks_with_confidence():
    narrow = confidence_interval(0.3, 1000, 0.5)
    wide = confidence_interval(0.3, 1000, 0.999)
    assert wide[1] - wide[0] > narrow[1] - narrow[0]


@pytest.mark.parametrize("gamma", [0.0, 1.0, -0.5, 2.0])
def test_interval_rejects_bad_confidence(gamma):
    with pytest.raises(ValueError):
        confidence_interval(0.5, 100, gamma)
