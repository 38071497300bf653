"""Packet error models built on the error-count distributions.

Three analytic routes lead from bit-level statistics to the probability
that an interleaved codeblock (and then a whole packet) is lost:

* model 1 -- joint two-codeword law -> two-state codeword chain;
* model 2 -- one-codeword law plus the bit-level correlation -> the same
  two-state chain (cheaper, no joint law needed);
* model 3 -- joint law -> absorbing chain over bucketed error counts;

plus the memoryless binomial baseline that all three collapse to when
the channel is uncorrelated.  Each route prices the residual correlation
between codewords of one block differently, which is exactly what
distinguishes their accuracy on bursty channels.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .channel import (
    _TWO_ABSORBING_STATES,
    CodeSpec,
    FsmcModel,
    SchemeSpec,
    _two_state_stationary,
)
from .dist import (
    _powers,
    joint_error_distribution,
    marginal_error_distribution,
    sequential_joint_distribution,
)

ANALYTIC_MODELS = ("model1", "model2", "model3", "baseline")


# ======================================================================
# the chain stage over a channel stack
# ======================================================================
#
# Every chain function below takes a stack: its arrays carry one entry
# per channel along a leading axis, and ``errors`` holds one message (or
# None) per channel.  A channel the chain cannot represent gets the
# message of the first check it fails and keeps computing along with the
# rest; its numbers are never read.  evaluate_models is the only caller:
# one channel is a stack of one.


def _fail(errors, rejected, message, *values):
    """Give each channel flagged in ``rejected`` that has no error yet the
    ``message``, formatted with its entries of the ``values`` arrays."""
    for i in rejected.nonzero()[0]:
        if errors[i] is None:
            errors[i] = message.format(*(value.item(i) for value in values))


def _absorbed(start, transient, steps):
    """P(absorbed within ``steps`` transitions, one count for the stack or
    one per chain) of each chain of a stack: one minus the mass that
    ``start`` (B x k) keeps in the transient states ``transient``
    (B x k x k), clipped to [0, 1]."""
    flow = start[:, None, :] @ _powers(transient, steps)
    return np.minimum(np.maximum(1.0 - flow[:, 0].sum(axis=1), 0.0), 1.0)


# ----------------------------------------------------------------------
# model 3: absorbing chain over bucketed error counts
# ----------------------------------------------------------------------


def _absorbing_chains(q, l: int):
    """The transient matrices (B x (l+1) x (l+1)) and start vectors
    (B x (l+1)) of the absorbing count chains of a stack of joint laws
    ``q`` (B x (l+2) x (l+2)).

    Transient states are the bucketed error counts 0..l of the current
    codeword; absorption means "some codeword was undecodable".  Each row
    of a joint is conditioned on the first codeword's count, so it is
    normalized by its marginal mass; a count with no mass (not ``live``)
    gets a zero row, i.e. certain absorption.  The first codeword itself
    is consumed by the start vector.
    """
    mass = q.sum(axis=2)
    live = mass[:, : l + 1] > 0.0
    scale = np.where(live, mass[:, : l + 1], 1.0)
    transient = np.where(live[..., None], q[:, : l + 1, : l + 1] / scale[..., None], 0.0)
    return transient, mass[:, : l + 1]


def _model3_blocks(q, l: int, depths, errors):
    """Codeblock error probability of each joint law of a stack via the
    absorbing count chain: the block fails unless the chain survives all
    ``depths`` codewords (one depth for the stack or one per law), the
    first consumed by the start vector and the remaining depth-1 by chain
    transitions."""
    transient, start = _absorbing_chains(q, l)
    return _absorbed(start, transient, np.subtract(depths, 1))


# ----------------------------------------------------------------------
# models 1 and 2: two-state codeword chain
# ----------------------------------------------------------------------


def _chain_rates(error_rate, nacf):
    """The chains' rates alpha and beta, and where they leave [0, 1]."""
    scale = 1.0 - nacf
    alpha = scale * error_rate
    beta = scale * (1.0 - error_rate)
    outside = ~((np.minimum(alpha, beta) >= 0.0) & (np.maximum(alpha, beta) <= 1.0))  # NaN too
    return alpha, beta, outside


def _chains(error_rate, nacf, errors):
    """(alpha, beta) of the two-state codeword chains over outcomes (0
    decoded, 1 failed) with these error rates and lag-1 NACFs: alpha is
    P(decoded -> failed), beta P(failed -> decoded).  A degenerate chain
    (error rate exactly 0 or 1) has no correlation and is parameterized
    as i.i.d."""
    degenerate = (error_rate == 0.0) | (error_rate == 1.0)
    nacf = np.where(degenerate, 0.0, nacf)
    alpha, beta, outside = _chain_rates(error_rate, nacf)
    _fail(
        errors, outside,
        "(error_rate={!r}, nacf={!r}) is outside the two-state chain's parameter range",
        error_rate, nacf,
    )
    return alpha, beta


def _rate_chains(error_rate, nacf, errors):
    """_chains after range checks of the error rates and NACFs themselves:
    the model 2 parameterization, which reuses the bit-level correlation
    at the codeword level."""
    _fail(errors, ~((0.0 <= error_rate) & (error_rate <= 1.0)),
          "error rate must be in [0, 1], got {!r}", error_rate)
    _fail(errors, ~((-1.0 < nacf) & (nacf < 1.0)), "lag-1 NACF must be in (-1, 1), got {!r}", nacf)
    return _chains(error_rate, nacf, errors)


def _quadrants(q, l: int):
    """nu00, nu01, nu10, nu11 of a stack of joint laws: the probabilities
    that the first and the second codeword decode (0) or fail (1)."""
    head, tail = slice(None, l + 1), slice(l + 1, None)
    return [
        q[:, rows, cols].sum(axis=(1, 2))
        for rows, cols in ((head, head), (head, tail), (tail, head), (tail, tail))
    ]


def _joint_chains(quadrants, errors):
    """_chains fitted to the quadrants of joint laws: the error rate is
    a codeword's failure probability and the lag-1 NACF is the quadrant
    covariance normalized by the binary variance."""
    nu00, nu01, nu10, nu11 = quadrants
    error_rate = np.minimum(np.maximum(nu10 + nu11, 0.0), 1.0)
    variance = error_rate - error_rate * error_rate
    ok = 1.0 - error_rate
    covariance = (
        error_rate * error_rate * nu00
        - error_rate * ok * (nu01 + nu10)
        + ok * ok * nu11
    )
    nacf = covariance / np.where(variance <= 0.0, 1.0, variance)  # 0 variance is degenerate
    return _chains(error_rate, nacf, errors)


def _two_state_blocks(alpha, beta, depths, errors):
    """P(at least one of ``depths`` consecutive codewords fails, one depth
    for the stack or one per chain) under each two-state codeword chain
    of a stack, started from stationarity."""
    _fail(errors, alpha + beta <= 0.0, _TWO_ABSORBING_STATES)
    decoded_flow = np.zeros((len(alpha), 2, 2))
    decoded_flow[:, 0, 0] = 1.0 - alpha
    decoded_flow[:, 1, 0] = beta
    with np.errstate(invalid="ignore", over="ignore"):  # rejected chains only
        return _absorbed(_two_state_stationary(alpha, beta), decoded_flow, depths)


def _model1_blocks(q, l: int, depths, errors):
    alpha, beta = _joint_chains(_quadrants(q, l), errors)
    return _two_state_blocks(alpha, beta, depths, errors)


def _model2_blocks(probs, nacf, l: int, depths, errors):
    error_rate = np.minimum(np.maximum(1.0 - probs[:, : l + 1].sum(axis=1), 0.0), 1.0)
    alpha, beta = _rate_chains(error_rate, nacf, errors)
    return _two_state_blocks(alpha, beta, depths, errors)


# ======================================================================
# packet-level composition
# ======================================================================


@dataclass(frozen=True)
class PacketErrorResult:
    """One model's prediction for one configuration.

    A model whose chain stage rejects its inputs carries the reason in
    ``error`` and no probabilities.
    """

    block_error: float | None  # P(an interleaved codeblock is lost)
    packet_error: float | None  # P(the whole packet is lost)
    error: str | None = None


def block_to_packet(block_error: float, blocks: int) -> float:
    """Lift the codeblock error probability to the packet.

    Codeblocks are treated as independent: p = 1 - (1 - p_block)**blocks,
    evaluated in log space so tiny probabilities keep full relative
    precision.
    """
    if not 0.0 <= block_error <= 1.0:
        raise ValueError(f"block error must be in [0, 1], got {block_error!r}")
    if blocks < 1:
        raise ValueError(f"block count must be >= 1, got {blocks}")
    if block_error == 1.0:
        return 1.0
    if blocks == 1:
        return block_error
    return -math.expm1(blocks * math.log1p(-block_error))


def _binomial_tail_above(n: int, l: int, p: float) -> float:
    """P(X > l) for X ~ Binomial(n, p), via exact combinatorics and fsum."""
    if l >= n:
        return 0.0
    if p <= 0.0:
        return 0.0
    if p >= 1.0:
        return 1.0
    terms = [
        math.comb(n, i) * p**i * (1.0 - p) ** (n - i) for i in range(l + 1, n + 1)
    ]
    return min(math.fsum(terms), 1.0)


def binomial_baseline(ber: float, code: CodeSpec, codewords: int) -> float:
    """Packet error probability over a memoryless channel.

    Every one of ``codewords`` i.i.d. codewords must stay within the
    correction budget; interleaving is irrelevant without memory.
    """
    if codewords < 1:
        raise ValueError(f"codeword count must be >= 1, got {codewords}")
    if not 0.0 <= ber <= 1.0:
        raise ValueError(f"ber must be in [0, 1], got {ber!r}")
    return block_to_packet(_binomial_tail_above(code.n, code.l, ber), codewords)


def _joint_laws(channels, n: int, depths, cap: int):
    """The joint law q of each channel of a stack: the depth-1 channels
    from one sequential recursion, all others from one joint recursion."""
    q = np.empty((len(channels), cap + 1, cap + 1))
    sequential = [i for i, depth in enumerate(depths) if depth == 1]
    paired = [i for i, depth in enumerate(depths) if depth != 1]
    if sequential:
        laws = sequential_joint_distribution([channels[i] for i in sequential], n, cap)
        q[sequential] = [joint.q for joint in laws]
    if paired:
        laws = joint_error_distribution(
            [channels[i] for i in paired], n, [depths[i] for i in paired], cap
        )
        q[paired] = [joint.q for joint in laws]
    return q


def _baseline_results(channels, code: CodeSpec, schemes):
    """The baseline result of each channel, worked out once per distinct
    (ber, depth, codewords)."""
    keys = [(c.ber, s.depth, s.codewords) for c, s in zip(channels, schemes)]
    memo = {}
    for key in keys:
        if key in memo:
            continue
        ber, depth, codewords = key
        try:
            codeword_error = _binomial_tail_above(code.n, code.l, ber)
            block = block_to_packet(codeword_error, depth)
            packet = block_to_packet(codeword_error, codewords)
            memo[key] = PacketErrorResult(block, packet)
        except ValueError as exc:
            memo[key] = PacketErrorResult(None, None, error=str(exc))
    return [memo[key] for key in keys]


def _chain_results(stage, *args, blocks):
    """One model's result for each channel of a stack, from its stacked
    chain stage and each channel's block count; a ValueError of the whole
    stage is every channel's error."""
    count = len(blocks)
    errors = [None] * count
    try:
        block_errors = stage(*args, errors).tolist()
    except ValueError as exc:
        block_errors, errors = [None] * count, [str(exc)] * count
    results = []
    for block, error, packet_blocks in zip(block_errors, errors, blocks):
        if error is None:
            try:
                results.append(PacketErrorResult(block, block_to_packet(block, packet_blocks)))
                continue
            except ValueError as exc:
                error = str(exc)
        results.append(PacketErrorResult(None, None, error=error))
    return results


def evaluate_models(model, code: CodeSpec, scheme, which=ANALYTIC_MODELS):
    """Evaluate the requested analytic models on one configuration.

    ``model`` is one FsmcModel, giving one dict of results by model name,
    or a sequence of them with equal state counts, giving a list of such
    dicts: the count recursions and each model's chain stage then run
    once over the whole stack.  ``scheme`` is one SchemeSpec, or for a
    stack one per channel, so a sweep over depths is one stack too; a
    channel's results do not depend on the rest of its stack.

    Models 1 and 3 consume the identical joint distribution object, so
    any disagreement between them isolates their second-stage
    approximations rather than the shared first stage.  A model whose
    chain stage fails on a channel (e.g. a codeword NACF outside the
    two-state chain's range) gets a result with ``error`` set; the other
    models and channels keep their numbers.
    """
    unknown = set(which) - set(ANALYTIC_MODELS)
    if unknown:
        raise ValueError(f"unknown models: {sorted(unknown)}")
    channels = [model] if isinstance(model, FsmcModel) else list(model)
    schemes = [scheme] * len(channels) if isinstance(scheme, SchemeSpec) else list(scheme)
    if len(schemes) != len(channels):
        raise ValueError(f"got {len(schemes)} schemes for {len(channels)} channels")
    cap, l = code.l + 1, code.l
    depths = [s.depth for s in schemes]
    stages = {}
    if "model1" in which or "model3" in which:
        q = _joint_laws(channels, code.n, depths, cap)
        stages["model1"] = (_model1_blocks, q, l, depths)
        stages["model3"] = (_model3_blocks, q, l, depths)
    if "model2" in which:
        laws = marginal_error_distribution(channels, code.n, depths, cap)
        probs = np.array([law for _, law in laws])
        nacf = np.array([channel.lag1_nacf() for channel in channels])
        stages["model2"] = (_model2_blocks, probs, nacf, l, depths)
    blocks = [s.blocks for s in schemes]
    columns = {
        name: _baseline_results(channels, code, schemes) if name == "baseline"
        else _chain_results(*stages[name], blocks=blocks)
        for name in ANALYTIC_MODELS
        if name in which
    }
    results = [
        {name: column[i] for name, column in columns.items()} for i in range(len(channels))
    ]
    return results[0] if isinstance(model, FsmcModel) else results
