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

import decimal
import math
from dataclasses import dataclass

import numpy as np

from .channel import (
    _TWO_ABSORBING_STATES,
    CodeSpec,
    FsmcModel,
    SchemeSpec,
    _two_state_rates,
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
# rest; its numbers are never read.  evaluate_models is the only caller,
# and one channel is a stack of one.


def _fail(errors, rejected, message, *values):
    """Give each channel flagged in ``rejected`` that has no error yet the
    ``message``, formatted with its entries of the ``values`` arrays."""
    for i in rejected.nonzero()[0]:
        if errors[i] is None:
            errors[i] = message.format(*(value.item(i) for value in values))


def _absorbed(start, transient, depths, offset: int):
    """P(absorbed within depth - ``offset`` transitions, one depth per
    chain) of each chain of a stack: one minus the mass that ``start``
    (B x k) keeps in the transient states ``transient`` (B x k x k),
    clipped to [0, 1]."""
    flow = start[:, None, :] @ _powers(transient, depths, offset)
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
    has a row of zeros, which is divided by 1 and stays a zero row, i.e.
    certain absorption.  The first codeword itself is consumed by the
    start vector, and the block fails unless the chain survives the
    remaining depth-1 codewords.
    """
    start = q.sum(axis=2)[:, : l + 1]
    live = start > 0.0
    return q[:, : l + 1, : l + 1] / np.where(live, start, 1.0)[..., None], start


# ----------------------------------------------------------------------
# models 1 and 2: two-state codeword chain
# ----------------------------------------------------------------------


def _chains(error_rate, nacf, errors):
    """(alpha, beta) of the two-state codeword chains over outcomes (0
    decoded, 1 failed) with these error rates and lag-1 NACFs: alpha is
    P(decoded -> failed), beta P(failed -> decoded).  A degenerate chain
    (error rate exactly 0 or 1) has no correlation and is parameterized
    as i.i.d."""
    degenerate = (error_rate == 0.0) | (error_rate == 1.0)
    nacf = np.where(degenerate, 0.0, nacf)
    alpha, beta = _two_state_rates(error_rate, nacf)
    outside = ~((np.minimum(alpha, beta) >= 0.0) & (np.maximum(alpha, beta) <= 1.0))  # NaN too
    _fail(
        errors, outside,
        "(error_rate={!r}, nacf={!r}) is outside the two-state chain's parameter range",
        error_rate, nacf,
    )
    return alpha, beta


def _quadrants(q, l: int):
    """nu00, nu01, nu10, nu11 of a stack of joint laws: the probabilities
    that the first and the second codeword decode (0) or fail (1)."""
    head, tail = slice(None, l + 1), slice(l + 1, None)
    return [
        q[:, rows, cols].sum(axis=(1, 2))
        for rows, cols in ((head, head), (head, tail), (tail, head), (tail, tail))
    ]


def _joint_chains(quadrants):
    """Model 1's fit to the quadrants of joint laws: the error rate is a
    codeword's failure probability and the lag-1 NACF is the quadrant
    covariance normalized by the binary variance."""
    nu00, nu01, nu10, nu11 = quadrants
    error_rate = np.minimum(np.maximum(nu10 + nu11, 0.0), 1.0)
    square = error_rate * error_rate
    variance = error_rate - square
    ok = 1.0 - error_rate
    covariance = square * nu00 - error_rate * ok * (nu01 + nu10) + ok * ok * nu11
    nacf = covariance / np.where(variance <= 0.0, 1.0, variance)  # 0 variance is degenerate
    return error_rate, nacf


def _two_state_blocks(alpha, beta, depths, errors):
    """P(at least one of ``depths`` consecutive codewords fails, one depth
    per chain) under each two-state codeword chain of a stack, started
    from stationarity."""
    total = alpha + beta
    _fail(errors, total <= 0.0, _TWO_ABSORBING_STATES)
    decoded_flow = np.zeros((len(alpha), 2, 2))
    decoded_flow[:, 0, 0] = 1.0 - alpha
    decoded_flow[:, 1, 0] = beta
    stationary = np.empty((len(alpha), 2))  # [beta, alpha] / (alpha + beta)
    stationary[:, 0], stationary[:, 1] = beta, alpha
    with np.errstate(invalid="ignore", over="ignore"):  # rejected chains only
        stationary /= total[:, None]
        return _absorbed(stationary, decoded_flow, depths, 0)


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


def _lift(block_errors, counts) -> list:
    """``block_to_packet`` of each block error with its entry of ``counts``,
    in the same float steps; a None block error (a rejected channel's)
    stays None.  The column is range-checked once, with the same message."""
    for block in block_errors:
        if block is not None and not 0.0 <= block <= 1.0:
            raise ValueError(f"block error must be in [0, 1], got {block!r}")
    log1p, expm1 = math.log1p, math.expm1
    return [
        block if block is None or block == 1.0 or m == 1 else -expm1(m * log1p(-block))
        for block, m in zip(block_errors, counts)
    ]


def _binomial_tails(n: int, ls, p: float) -> list[float]:
    """P(X > l) for X ~ Binomial(n, p) and each l of ``ls``: the terms
    P(X = i) from the exact ``math.comb`` are worked out once, and each
    tail is the fsum of its own.  Where a coefficient overflows a float
    (n >= 1030), the terms are 40-digit decimals, each rounded to a float."""
    if p <= 0.0 or p >= 1.0:
        return [float(p >= 1.0)] * len(ls)
    low, q = min(ls) + 1, 1.0 - p
    try:
        terms = [math.comb(n, i) * p**i * q ** (n - i) for i in range(low, n + 1)]
    except OverflowError:
        with decimal.localcontext() as context:
            context.prec = 40
            p = decimal.Decimal(p)
            q = 1 - p  # exact, unlike the float 1 - p
            terms = [float(math.comb(n, i) * p**i * q ** (n - i)) for i in range(low, n + 1)]
    return [min(math.fsum(terms[l + 1 - low :]), 1.0) for l in ls]


def binomial_baseline(ber: float, code: CodeSpec, codewords: int) -> float:
    """Packet error probability over a memoryless channel.

    Every one of ``codewords`` i.i.d. codewords must stay within the
    correction budget; interleaving is irrelevant without memory.  Only
    perfbench's binomial check calls it; it is not a package export.
    """
    if not 0.0 <= ber <= 1.0:
        raise ValueError(f"ber must be in [0, 1], got {ber!r}")
    return block_to_packet(_binomial_tails(code.n, (code.l,), ber)[0], codewords)


def _joint_laws(channels, n: int, depths, caps):
    """The joint law q of each channel of a stack, one stack per cap: the
    depth-1 channels from one sequential recursion, all others from one
    joint recursion; a stack of one kind takes its recursion's laws."""
    sequential = [i for i, depth in enumerate(depths) if depth == 1]
    if not sequential:
        return joint_error_distribution(channels, n, depths, caps)
    if len(sequential) == len(channels):
        return sequential_joint_distribution(channels, n, caps)
    laws = [np.empty((len(channels), cap + 1, cap + 1)) for cap in caps]
    paired = [i for i, depth in enumerate(depths) if depth != 1]
    for q, first, second in zip(
        laws,
        sequential_joint_distribution([channels[i] for i in sequential], n, caps),
        joint_error_distribution(
            [channels[i] for i in paired], n, [depths[i] for i in paired], caps
        ),
    ):
        q[sequential], q[paired] = first, second
    return laws


def evaluate_models(model, code, scheme, which=ANALYTIC_MODELS):
    """Evaluate the requested analytic models on one configuration.

    ``model`` is a non-empty sequence of FsmcModels with equal state
    counts, a stack: the count recursions and each model's chain stage run
    once over it, giving one column triple per model name, (block errors,
    packet errors, errors), lists with one entry per channel.  A model
    whose chain stage rejects a channel (e.g. a codeword NACF outside the
    two-state chain's range) has None for its two errors and the reason
    in ``errors``; the other models and channels keep their numbers.  One
    FsmcModel is a stack of one, giving a dict of PacketErrorResult by
    model name from entry 0 of each column.  ``scheme`` is one
    SchemeSpec, or for a stack one per channel, so a sweep over depths
    is one stack too; a channel's results do not depend on the rest of
    its stack.  ``code`` is one CodeSpec, or a sequence of codes with one
    n, giving a list of one such result per code: each count recursion
    runs once for all the codes, each code's chain stages on its laws.

    Models 1 and 3 consume the identical joint law array, so
    any disagreement between them isolates their second-stage
    approximations rather than the shared first stage.  Model 2 reads
    only the counts 0..l of a marginal law whose cap may be larger.
    """
    unknown = set(which) - set(ANALYTIC_MODELS)
    if unknown:
        raise ValueError(f"unknown models: {sorted(unknown)}")
    codes = [code] if isinstance(code, CodeSpec) else list(code)
    if len({c.n for c in codes}) != 1:
        raise ValueError(f"need codes of one length n, got {sorted({c.n for c in codes})}")
    channels = [model] if isinstance(model, FsmcModel) else list(model)
    if not channels:
        raise ValueError("need at least one channel, got an empty sequence")
    schemes = [scheme] * len(channels) if isinstance(scheme, SchemeSpec) else list(scheme)
    if len(schemes) != len(channels):
        raise ValueError(f"got {len(schemes)} schemes for {len(channels)} channels")
    n, caps = codes[0].n, [c.l + 1 for c in codes]
    depths = [s.depth for s in schemes]
    count = len(channels)
    if "model1" in which or "model3" in which:
        laws = _joint_laws(channels, n, depths, caps)
    if "model2" in which:
        # model 2 reuses the bit-level correlation at the codeword level
        probs = marginal_error_distribution(channels, n, depths, max(caps))
        nacf = np.array([channel.lag1_nacf() for channel in channels])
    stages = [{} for _ in codes]  # per code: name -> (block errors, errors)
    # models 1 and 2 differ only in their (error rate, NACF) fits: the
    # chains of every code are one stack, model 1's channels first per code
    fits = []  # (code index, name, (error rate, NACF), one error or None per channel)
    for k, l in enumerate(c.l for c in codes):
        if "model1" in which:
            fits.append((k, "model1", _joint_chains(_quadrants(laws[k], l)), [None] * count))
        if "model3" in which:
            transient, start = _absorbing_chains(laws[k], l)
            stages[k]["model3"] = (_absorbed(start, transient, depths, 1).tolist(), [None] * count)
        if "model2" in which:
            error_rate = np.minimum(np.maximum(1.0 - probs[:, : l + 1].sum(axis=1), 0.0), 1.0)
            errors = [None] * count
            _fail(errors, np.isnan(error_rate), "error rate must be in [0, 1], got {!r}", error_rate)
            _fail(errors, ~((-1.0 < nacf) & (nacf < 1.0)),
                  "lag-1 NACF must be in (-1, 1), got {!r}", nacf)
            fits.append((k, "model2", (error_rate, nacf), errors))
    if fits:
        error_rate, nacf_fits = map(np.concatenate, zip(*(rates for _, _, rates, _ in fits)))
        errors = [error for *_, model_errors in fits for error in model_errors]
        alpha, beta = _chains(error_rate, nacf_fits, errors)
        block_errors = _two_state_blocks(alpha, beta, depths * len(fits), errors)
        for i, (k, name, _, _) in enumerate(fits):
            part = slice(i * count, (i + 1) * count)
            stages[k][name] = (block_errors[part].tolist(), errors[part])
    if "baseline" in which:  # the binomial terms of each distinct ber once, for every code
        ls = [c.l for c in codes]
        tails = {ber: _binomial_tails(n, ls, ber) for ber in {c.ber for c in channels}}
    blocks = [s.blocks for s in schemes]
    coded = []
    for k, code_stages in enumerate(stages):
        columns = {}  # name -> (block errors, packet errors, errors)
        for name in ANALYTIC_MODELS:
            if name == "baseline" and name in which:
                codeword_errors = [tails[c.ber][k] for c in channels]
                packet_errors = _lift(codeword_errors, [s.codewords for s in schemes])
                columns[name] = (_lift(codeword_errors, depths), packet_errors, [None] * count)
            elif name in code_stages:
                block_errors, errors = code_stages[name]
                if errors.count(None) != count:
                    block_errors = [b if e is None else None for b, e in zip(block_errors, errors)]
                columns[name] = (block_errors, _lift(block_errors, blocks), errors)
        if isinstance(model, FsmcModel):  # one channel: entry 0 of each column
            columns = {name: PacketErrorResult(b[0], p[0], e[0])
                       for name, (b, p, e) in columns.items()}
        coded.append(columns)
    return coded[0] if isinstance(code, CodeSpec) else coded
