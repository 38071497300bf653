import numpy as np
import pytest

from burstfec.channel import (
    ChannelParameterError,
    ChannelSpec,
    CodeSpec,
    FsmcModel,
    SchemeSpec,
    ibp_from_stats,
    split_transition_matrix,
    stationary_vector,
)

STAT_GRID = [(p, c) for p in (0.001, 0.01, 0.1, 0.5) for c in (0.0, 0.3, 0.6, 0.9)]


def test_ibp_reference_rates():
    # (1-c)*ber and (1-c)*(1-ber) for ber=0.01, c=0.6
    model = ibp_from_stats(ChannelSpec(ber=0.01, nacf=0.6))
    assert model.transition[0, 1] == pytest.approx(0.004, abs=1e-15)
    assert model.transition[1, 0] == pytest.approx(0.396, abs=1e-15)


def test_ibp_uncorrelated_half():
    model = ibp_from_stats(ChannelSpec(ber=0.5, nacf=0.0))
    assert model.transition[0, 1] == pytest.approx(0.5, abs=1e-15)
    assert model.transition[1, 0] == pytest.approx(0.5, abs=1e-15)


@pytest.mark.parametrize("ber,nacf", STAT_GRID)
def test_ibp_round_trips_stats(ber, nacf):
    model = ibp_from_stats(ChannelSpec(ber=ber, nacf=nacf))
    assert model.ber == pytest.approx(ber, abs=1e-14)
    if 0.0 < ber < 1.0:
        assert model.lag1_nacf() == pytest.approx(nacf, abs=1e-12)
    # second eigenvalue of the 2-state matrix is 1 - alpha - beta = nacf
    assert 1.0 - model.transition[0, 1] - model.transition[1, 0] == pytest.approx(
        nacf, abs=1e-14
    )


@pytest.mark.parametrize("ber,nacf", STAT_GRID)
def test_model_invariants(ber, nacf):
    model = ibp_from_stats(ChannelSpec(ber=ber, nacf=nacf))
    np.testing.assert_allclose(model.transition.sum(axis=1), 1.0, atol=1e-12)
    np.testing.assert_allclose(model.d0 + model.d1, model.transition, atol=1e-15)
    assert np.max(np.abs(model.pi @ model.transition - model.pi)) <= 1e-12
    assert np.all(model.d0 >= 0.0) and np.all(model.d1 >= 0.0)


def test_split_attaches_errors_to_destination():
    transition = np.array([[0.7, 0.2, 0.1], [0.3, 0.4, 0.3], [0.1, 0.1, 0.8]])
    profile = np.array([0.0, 0.5, 1.0])
    d0, d1 = split_transition_matrix(transition, profile)
    np.testing.assert_allclose(d1, transition * profile, atol=1e-15)
    np.testing.assert_allclose(d0 + d1, transition, atol=1e-15)
    # error-free state never contributes to d1, always-erring state never to d0
    assert np.all(d1[:, 0] == 0.0)
    assert np.all(d0[:, 2] == 0.0)


def test_split_all_good_profile():
    transition = np.array([[0.9, 0.1], [0.5, 0.5]])
    d0, d1 = split_transition_matrix(transition, np.zeros(2))
    np.testing.assert_allclose(d0, transition, atol=1e-15)
    assert np.all(d1 == 0.0)


def test_stationary_two_state_closed_form():
    transition = np.array([[0.99, 0.01], [0.3, 0.7]])
    pi = stationary_vector(transition)
    np.testing.assert_allclose(pi, [0.3 / 0.31, 0.01 / 0.31], atol=1e-15)


def test_stationary_large_chain_residual():
    rng = np.random.default_rng(1234)
    raw = rng.random((5, 5)) + 0.01
    transition = raw / raw.sum(axis=1, keepdims=True)
    pi = stationary_vector(transition)
    assert pi.shape == (5,)
    assert pi.sum() == pytest.approx(1.0, abs=1e-12)
    assert np.max(np.abs(pi @ transition - pi)) <= 1e-12


@pytest.mark.parametrize(
    "transition",
    [
        np.eye(2),
        np.eye(3),
        np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.5, 0.5, 0.0]]),
    ],
)
def test_stationary_rejects_reducible(transition):
    with pytest.raises(ValueError):
        stationary_vector(transition)


def test_stationary_periodic_chain_is_fine():
    pi = stationary_vector(np.array([[0.0, 1.0], [1.0, 0.0]]))
    np.testing.assert_allclose(pi, [0.5, 0.5], atol=1e-15)


@pytest.mark.parametrize(
    "ber,nacf",
    [(-0.1, 0.0), (1.5, 0.0), (0.01, 1.0), (0.01, -0.2), (0.01, 2.0)],
)
def test_channel_spec_rejects_bad_stats(ber, nacf):
    with pytest.raises(ChannelParameterError):
        ChannelSpec(ber=ber, nacf=nacf)


def test_fsmc_rejects_bad_matrices():
    with pytest.raises(ValueError):
        FsmcModel(np.array([[0.9, 0.2], [0.5, 0.5]]), np.array([0.0, 1.0]))
    with pytest.raises(ValueError, match="^need at least two states$"):
        FsmcModel(np.array([[1.0]]), np.array([1.0]))
    with pytest.raises(ValueError):
        FsmcModel(np.array([[0.9, 0.1], [0.5, 0.5]]), np.array([0.0, 1.5]))


@pytest.mark.parametrize(
    "transition,profile,message",
    [
        ([[0.9, 0.1]], [0.0, 1.0], "transition matrix must be square"),
        ([0.5, 0.5], [0.0, 1.0], "transition matrix must be square"),
        ([[0.9, 0.1], [0.1, 0.9]], [0.0, 1.0, 1.0], "error profile length must match the state count"),
        ([[0.9, 0.1], [0.1, 0.9]], [[0.0, 1.0]], "error profile length must match the state count"),
    ],
)
def test_fsmc_and_split_refuse_mismatched_shapes(transition, profile, message):
    for call in (FsmcModel, split_transition_matrix):
        with pytest.raises(ValueError, match=f"^{message}$"):
            call(transition, profile)


@pytest.mark.parametrize("transition", [[[0.9, 0.1]], [0.5, 0.5], np.full((2, 2, 2), 0.5)])
def test_stationary_refuses_a_non_square_matrix(transition):
    with pytest.raises(ValueError, match="^transition matrix must be square$"):
        stationary_vector(transition)


@pytest.mark.parametrize(
    "transition,profile,message",
    [
        ([[0.9, 0.1], [0.1, 0.9]], [0.0, np.nan], "error profile entries must be finite, got nan"),
        ([[0.9, 0.1], [0.1, 0.9]], [-np.inf, 1.0], "error profile entries must be finite, got -inf"),
        ([[0.9, np.nan], [0.1, 0.9]], [0.0, 1.0], "transition matrix entries must be finite, got nan"),
        ([[np.nan] * 2] * 2, [0.0, 1.0], "transition matrix entries must be finite, got nan"),
        ([[0.9, 0.1], [np.inf, 0.9]], [0.0, 1.0], "transition matrix entries must be finite, got inf"),
    ],
)
def test_fsmc_rejects_non_finite_entries(transition, profile, message):
    # NaN passes every comparison-based range check, so it is refused by name
    with pytest.raises(ValueError, match=f"^{message}$"):
        FsmcModel(transition, profile)


@pytest.mark.parametrize(
    "call,message",
    [
        pytest.param(
            lambda: stationary_vector([[np.nan, np.nan], [np.nan, np.nan]]),
            "transition matrix entries must be finite, got nan", id="stationary-two-state-nan",
        ),
        pytest.param(
            lambda: stationary_vector([[0.5, 0.5, 0.0], [0.0, 0.5, np.inf], [0.3, 0.3, 0.4]]),
            "transition matrix entries must be finite, got inf", id="stationary-three-state-inf",
        ),
        pytest.param(
            lambda: split_transition_matrix([[0.9, 0.1], [0.1, 0.9]], [0.0, np.nan]),
            "error profile entries must be finite, got nan", id="split-profile-nan",
        ),
        pytest.param(
            lambda: split_transition_matrix([[0.9, -np.inf], [0.1, 0.9]], [0.0, 1.0]),
            "transition matrix entries must be finite, got -inf", id="split-transition-inf",
        ),
    ],
)
def test_every_channel_entry_point_refuses_non_finite_entries(call, message):
    # NaN passes the stationary residual test and the split's arithmetic, so it is
    # refused by name, with FsmcModel's message
    with pytest.raises(ValueError, match=f"^{message}$"):
        call()


def test_fsmc_three_state_stats():
    transition = np.array([[0.8, 0.15, 0.05], [0.2, 0.6, 0.2], [0.05, 0.15, 0.8]])
    profile = np.array([0.001, 0.05, 0.4])
    model = FsmcModel(transition, profile)
    pi = model.pi
    assert model.ber == pytest.approx(float(pi @ profile), abs=1e-15)
    # lag-1 NACF from its definition: (E[X0 X1] - p^2) / (p - p^2)
    joint = sum(
        pi[s] * profile[s] * transition[s, t] * profile[t]
        for s in range(3)
        for t in range(3)
    )
    p = float(pi @ profile)
    assert model.lag1_nacf() == pytest.approx((joint - p * p) / (p - p * p), abs=1e-13)


@pytest.mark.parametrize("n,k,l", [(63, 63, 1), (63, 0, 1), (63, 45, 63), (63, 45, -1)])
def test_code_spec_rejects_bad_parameters(n, k, l):
    with pytest.raises(ValueError):
        CodeSpec(n=n, k=k, l=l)


def test_scheme_packet_bits_and_codewords():
    scheme = SchemeSpec(4, 4)
    assert scheme.packet_bits(63) == 1008
    assert scheme.codewords == 16


@pytest.mark.parametrize("depth,blocks", [(0, 1), (1, 0), (-2, 3)])
def test_scheme_rejects_bad_layout(depth, blocks):
    with pytest.raises(ValueError):
        SchemeSpec(depth=depth, blocks=blocks)
