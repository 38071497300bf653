import math

import numpy as np
import pytest

from burstfec.channel import ChannelSpec, CodeSpec, SchemeSpec, ibp_from_stats
from burstfec.mc import (
    CiEstimate,
    SimConfig,
    confidence_interval,
    dar1_stream,
    simulate_packets,
)
from reference_stats import lag1_autocorr, stat_standard_errors

STREAM_BITS = 1_000_000


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
    assert (estimate.lo, estimate.hi) == (0.0, 0.0)
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
    from burstfec.oracle import exact_packet_error

    channel = ChannelSpec(ber=ber, nacf=nacf)
    n, k, l = code
    exact = exact_packet_error(ibp_from_stats(channel), n, depth, l, blocks)
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
    from burstfec.mc import _batch_rng, _error_slots

    ber, rows, bits = 0.05, 200_000, 8
    row, slot = _error_slots(_batch_rng(51, 0), rows, bits, ber, 0.9)
    se = math.sqrt(ber * (1 - ber) / rows)
    for position in (0, bits - 1):
        freq = np.count_nonzero(slot == position) / rows
        assert freq == pytest.approx(ber, abs=4 * se)
    # runs never overlap or leave the window
    assert 0 <= slot.min() and slot.max() < bits and row.max() < rows
    assert np.unique(row * bits + slot).size == slot.size


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


def test_simulation_uncorrelated_matches_baseline():
    from burstfec.models import binomial_baseline

    channel = ChannelSpec(ber=0.01, nacf=0.0)
    code = CodeSpec(63, 45, 3)
    scheme = SchemeSpec(depth=2, blocks=8)
    expected = binomial_baseline(0.01, code, 16)
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


# ----------------------------------------------------------------------
# confidence intervals
# ----------------------------------------------------------------------


def test_interval_quantile_value():
    # two-sided 95%: quantile 1.959964...
    lo, hi = confidence_interval(0.5, 10_000, 0.95)
    half = 1.9599639845400545 * math.sqrt(0.25 / 10_000)
    assert hi - lo == pytest.approx(2 * half, rel=1e-12)
    assert (lo + hi) / 2 == pytest.approx(0.5, abs=1e-15)


def test_interval_clamps_to_unit_range():
    lo, hi = confidence_interval(0.999, 100, 0.99)
    assert 0.0 <= lo <= hi <= 1.0
    assert hi == 1.0


def test_interval_degenerate_estimate_collapses():
    assert confidence_interval(0.0, 1000, 0.95) == (0.0, 0.0)
    assert confidence_interval(1.0, 1000, 0.95) == (1.0, 1.0)


def test_interval_width_shrinks_with_confidence():
    narrow = confidence_interval(0.3, 1000, 0.5)
    wide = confidence_interval(0.3, 1000, 0.999)
    assert wide[1] - wide[0] > narrow[1] - narrow[0]


@pytest.mark.parametrize("gamma", [0.0, 1.0, -0.5, 2.0])
def test_interval_rejects_bad_confidence(gamma):
    with pytest.raises(ValueError):
        confidence_interval(0.5, 100, gamma)
