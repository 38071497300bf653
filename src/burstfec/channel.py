"""Markov-modulated bit error models for correlated wireless channels.

The bit error process is a finite-state Markov chain whose states each
carry a bit error probability.  The chain's transition matrix is split
into two parts, ``d0`` and ``d1``, holding the probability flow for a
correct respectively incorrect reception of the bit associated with the
*destination* state of each transition.  Every recursion downstream
(error-count distributions, codeword-level chains) consumes that split,
so the whole toolkit works for any finite-state model, not only the
two-state one built by :func:`ibp_from_stats`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# Tolerance for stochasticity checks (row sums, stationarity residuals).
# Double precision leaves several digits of headroom at the recursion
# horizons this package deals with (around a thousand slots).
STOCHASTIC_TOL = 1e-12


class ChannelParameterError(ValueError):
    """Channel statistics that no supported model can represent."""


@dataclass(frozen=True)
class ChannelSpec:
    """User-facing channel description.

    ber   -- long-run bit error rate, in [0, 1].
    nacf  -- lag-1 normalized autocorrelation of the bit error indicator,
             in [0, 1).  A value of 1 would freeze the channel in its
             initial state forever and is rejected.

    Time enters only as the bit index: a channel is described per bit
    slot, whatever the slot's duration.
    """

    ber: float
    nacf: float

    def __post_init__(self):
        if not 0.0 <= self.ber <= 1.0:
            raise ChannelParameterError(f"ber must be in [0, 1], got {self.ber!r}")
        if not 0.0 <= self.nacf < 1.0:
            raise ChannelParameterError(f"nacf must be in [0, 1), got {self.nacf!r}")


@dataclass(frozen=True)
class CodeSpec:
    """(n, k, l) block code under hard-decision bounded-distance decoding.

    A codeword of n bits carrying k data bits decodes correctly iff it
    contains at most l bit errors.  That threshold is the only property
    of the code the models ever use, so any code with an error-count
    decodability threshold fits this description.
    """

    n: int
    k: int
    l: int

    def __post_init__(self):
        if not 0 < self.k < self.n:
            raise ValueError(f"need 0 < k < n, got n={self.n}, k={self.k}")
        if not 0 <= self.l < self.n:
            raise ValueError(f"need 0 <= l < n, got n={self.n}, l={self.l}")


@dataclass(frozen=True)
class SchemeSpec:
    """Interleaving layout of one packet.

    A packet consists of ``blocks`` consecutive codeblocks; each
    codeblock interleaves ``depth`` codewords column-wise, so adjacent
    bits of one codeword are ``depth`` transmission slots apart.
    """

    depth: int
    blocks: int

    def __post_init__(self):
        if self.depth < 1:
            raise ValueError(f"interleaving depth must be >= 1, got {self.depth}")
        if self.blocks < 1:
            raise ValueError(f"block count must be >= 1, got {self.blocks}")

    def packet_bits(self, n: int) -> int:
        """Total bits per packet for codewords of length n."""
        return self.depth * self.blocks * n

    @property
    def codewords(self) -> int:
        return self.depth * self.blocks


class FsmcModel:
    """Finite-state Markov bit error model.

    Holds the transition matrix, the per-state error profile, the d0/d1
    split and the stationary vector.  Instances are immutable (the arrays
    are marked read-only) and safe to share across worker threads.
    """

    def __init__(self, transition, error_profile):
        transition = np.array(transition, dtype=float)
        error_profile = np.array(error_profile, dtype=float)
        if transition.ndim != 2 or transition.shape[0] != transition.shape[1]:
            raise ValueError("transition matrix must be square")
        if transition.shape[0] < 2:
            raise ValueError("need at least two states")
        if error_profile.shape != (transition.shape[0],):
            raise ValueError("error profile length must match the state count")
        if np.any(transition < 0.0) or np.any(
            np.abs(transition.sum(axis=1) - 1.0) > STOCHASTIC_TOL
        ):
            raise ValueError("transition matrix must be row-stochastic")
        if np.any(error_profile < 0.0) or np.any(error_profile > 1.0):
            raise ValueError("per-state error probabilities must be in [0, 1]")

        self.transition = transition
        self.error_profile = error_profile
        self.d0, self.d1 = split_transition_matrix(transition, error_profile)
        self.pi = stationary_vector(transition)
        for arr in (self.transition, self.error_profile, self.d0, self.d1, self.pi):
            arr.setflags(write=False)

    @property
    def states(self) -> int:
        return self.transition.shape[0]

    @property
    def ber(self) -> float:
        """Stationary bit error probability."""
        return float(self.pi @ self.error_profile)

    def lag1_nacf(self) -> float:
        """Lag-1 normalized autocorrelation of the stationary error indicator.

        Zero when the indicator is degenerate (error probability 0 or 1),
        where correlation is undefined.
        """
        profile = self.error_profile
        p = float(self.pi @ profile)
        var = p - p * p
        if var <= 0.0:
            return 0.0
        joint = float(self.pi @ (profile[:, None] * self.transition) @ profile)
        return (joint - p * p) / var

    def __repr__(self):
        return f"FsmcModel(states={self.states}, ber={self.ber:.6g})"


def split_transition_matrix(transition, error_profile):
    """Split a transition matrix into (d0, d1) by reception outcome.

    The error indicator is attached to the destination state:
    ``d1[s, t] = transition[s, t] * error_profile[t]`` and ``d0`` is the
    complement, so ``d0 + d1`` reproduces the full matrix exactly.
    """
    transition = np.asarray(transition, dtype=float)
    error_profile = np.asarray(error_profile, dtype=float)
    if transition.ndim != 2 or transition.shape[0] != transition.shape[1]:
        raise ValueError("transition matrix must be square")
    if error_profile.shape != (transition.shape[0],):
        raise ValueError("error profile length must match the state count")
    d1 = transition * error_profile[np.newaxis, :]
    return transition - d1, d1


def stationary_vector(transition):
    """Stationary row vector: pi @ transition = pi, entries sum to 1.

    Two-state chains use the closed form; larger chains solve the linear
    system.  Chains without a unique stationary law (several closed
    communicating classes, e.g. the identity matrix) are rejected.
    """
    transition = np.asarray(transition, dtype=float)
    if transition.ndim != 2 or transition.shape[0] != transition.shape[1]:
        raise ValueError("transition matrix must be square")
    size = transition.shape[0]
    if size == 2:
        up, down = transition[0, 1], transition[1, 0]
        if up + down <= 0.0:
            raise ValueError("no unique stationary distribution: both states absorbing")
        pi = np.array([down, up]) / (up + down)
    else:
        balance = transition.T - np.eye(size)
        svals = np.linalg.svd(balance, compute_uv=False)
        null_dim = int(np.sum(svals < 1e-10 * max(float(svals[0]), 1.0)))
        if null_dim != 1:
            raise ValueError("no unique stationary distribution: chain is reducible")
        system = np.vstack([balance, np.ones(size)])
        rhs = np.zeros(size + 1)
        rhs[-1] = 1.0
        pi, *_ = np.linalg.lstsq(system, rhs, rcond=None)
        if np.any(pi < -STOCHASTIC_TOL):
            raise ValueError("stationary solve produced negative probabilities")
        pi = np.clip(pi, 0.0, None)
        pi = pi / pi.sum()
    residual = float(np.max(np.abs(pi @ transition - pi)))
    if residual > STOCHASTIC_TOL:
        raise ValueError(
            f"stationary residual {residual:g} exceeds tolerance {STOCHASTIC_TOL:g}"
        )
    return pi


def ibp_from_stats(spec: ChannelSpec) -> FsmcModel:
    """Two-state interrupted-Bernoulli model matching (ber, nacf) exactly.

    State 0 never errs and state 1 always errs; the off-diagonal rates
    are alpha = (1-nacf)*ber and beta = (1-nacf)*(1-ber).  By
    construction the stationary error probability equals ``ber`` and the
    lag-1 autocorrelation of the error indicator equals ``nacf``.
    """
    alpha = (1.0 - spec.nacf) * spec.ber
    beta = (1.0 - spec.nacf) * (1.0 - spec.ber)
    transition = np.array([[1.0 - alpha, alpha], [beta, 1.0 - beta]])
    return FsmcModel(transition, np.array([0.0, 1.0]))
