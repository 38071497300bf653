"""Markov-modulated bit error models for correlated wireless channels.

The bit error process is a finite-state Markov chain whose states each
carry a bit error probability, which belongs to the *destination* state
of each transition.  The count recursions and the exact oracle take the
transition matrix and that per-state error profile as they are, so the
whole toolkit works for any finite-state model, not only the two-state
one built by :func:`ibp_from_stats`.
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


# The Monte Carlo's input checks, here so that a sweep makes them before
# any row without loading the simulator.


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


class FsmcModel:
    """Finite-state Markov bit error model.

    Holds the transition matrix, the per-state error profile and the
    stationary vector.  Instances are immutable (the arrays are marked
    read-only) and safe to share across worker threads.
    """

    def __init__(self, transition, error_profile):
        transition = np.array(transition, dtype=float)
        error_profile = np.array(error_profile, dtype=float)
        if transition.ndim != 2 or transition.shape[0] != transition.shape[1]:
            raise ValueError("transition matrix must be square")
        if error_profile.shape != (transition.shape[0],):
            raise ValueError("error profile length must match the state count")
        _require_finite("transition matrix", transition)
        _require_finite("error profile", error_profile)
        if transition.shape[0] < 2:
            raise ValueError("need at least two states")
        # one reduction per check: every entry is finite here, so no NaN
        # slips past a comparison of the least or largest entry
        if transition.min() < 0.0 or (
            np.abs(transition.sum(axis=1) - 1.0).max() > STOCHASTIC_TOL
        ):
            raise ValueError("transition matrix must be row-stochastic")
        if error_profile.min() < 0.0 or error_profile.max() > 1.0:
            raise ValueError("per-state error probabilities must be in [0, 1]")

        self.transition = transition
        self.error_profile = error_profile
        self.pi = _stationary(transition)  # finite: checked above
        for arr in (self.transition, self.error_profile, self.pi):
            arr.setflags(write=False)
        # the statistics every model and sweep row reads, worked out once
        self._ber = float(self.pi @ self.error_profile)
        self._nacf = _lag1_nacf(self.pi, self.transition, self.error_profile, self._ber)

    @property
    def states(self) -> int:
        return self.transition.shape[0]

    @property
    def ber(self) -> float:
        """Stationary bit error probability."""
        return self._ber

    def lag1_nacf(self) -> float:
        """Lag-1 normalized autocorrelation of the stationary error indicator.

        Zero when the indicator is degenerate (error probability 0 or 1),
        where correlation is undefined.
        """
        return self._nacf

    def __repr__(self):
        return f"FsmcModel(states={self.states}, ber={self.ber:.6g})"


def _lag1_nacf(pi, transition, error_profile, ber):
    """Lag-1 NACF of the error indicator of the chain with stationary law
    ``pi`` and stationary error probability ``ber``; 0 when degenerate."""
    var = ber - ber * ber
    if var <= 0.0:
        return 0.0
    joint = float(pi @ (error_profile[:, None] * transition) @ error_profile)
    return (joint - ber * ber) / var


def _require_finite(name, values):
    """Refuse an array with a NaN or infinite entry, naming the first one."""
    if not np.isfinite(values).all():
        bad = float(values[~np.isfinite(values)][0])
        raise ValueError(f"{name} entries must be finite, got {bad}")


_TWO_ABSORBING_STATES = "no unique stationary distribution: both states absorbing"


def _two_state_rates(error_rate, nacf):
    """The rates alpha = (1-nacf)*error_rate (error-free to error state)
    and beta = (1-nacf)*(1-error_rate) (back) of the two-state chain with
    this stationary error rate and lag-1 NACF; array inputs give arrays."""
    scale = 1.0 - nacf
    return scale * error_rate, scale * (1.0 - error_rate)


def stationary_vector(transition):
    """Stationary row vector: pi @ transition = pi, entries sum to 1.

    Two-state chains use the closed form; larger chains solve the linear
    system.  Chains without a unique stationary law (several closed
    communicating classes, e.g. the identity matrix) are rejected.
    """
    transition = np.asarray(transition, dtype=float)
    if transition.ndim != 2 or transition.shape[0] != transition.shape[1]:
        raise ValueError("transition matrix must be square")
    _require_finite("transition matrix", transition)
    return _stationary(transition)


def _stationary(transition):
    """:func:`stationary_vector` of a square matrix with finite entries."""
    size = transition.shape[0]
    if size == 2:
        up, down = transition[0, 1], transition[1, 0]
        if up + down <= 0.0:
            raise ValueError(_TWO_ABSORBING_STATES)
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
    residual = float(np.abs(pi @ transition - pi).max())
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
    alpha, beta = _two_state_rates(spec.ber, spec.nacf)
    transition = np.array([[1.0 - alpha, alpha], [beta, 1.0 - beta]])
    return FsmcModel(transition, np.array([0.0, 1.0]))
