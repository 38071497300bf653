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
    JointErrorDistribution,
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
# rest; its numbers are never read.  The per-channel public functions are
# stacks of one.


def _fail(errors, rejected, message, *values):
    """Give each channel flagged in ``rejected`` that has no error yet the
    ``message``, formatted with its entries of the ``values`` arrays."""
    for i in rejected.nonzero()[0]:
        if errors[i] is None:
            errors[i] = message.format(*(value.item(i) for value in values))


def _check_cap(joint: JointErrorDistribution, l: int):
    if joint.cap != l + 1:
        raise ValueError(f"joint computed with cap {joint.cap}, need l + 1 = {l + 1}")


def _absorbed(start, transient, steps: int):
    """P(absorbed within ``steps`` transitions) of each chain of a stack:
    one minus the mass that ``start`` (B x k) keeps in the transient
    states ``transient`` (B x k x k), clipped to [0, 1]."""
    flow = start[:, None, :] @ np.linalg.matrix_power(transient, steps)
    return np.minimum(np.maximum(1.0 - flow[:, 0].sum(axis=1), 0.0), 1.0)


# ----------------------------------------------------------------------
# model 3: absorbing chain over bucketed error counts
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class AbsorbingChain:
    """Codeword-reception chain with one absorbing failure state.

    Transient states are the bucketed error counts 0..l of the current
    codeword; absorption means "some codeword was undecodable".  Row
    ``i`` of ``transient`` plus ``absorb[i]`` sums to one.

    start          -- sub-distribution of the first codeword's count.
    start_absorbed -- mass absorbed immediately (first codeword failed).
    dead_rows      -- transient states with zero reachable mass, whose
                      rows were replaced by certain absorption so the
                      chain stays well defined.
    """

    transient: np.ndarray
    absorb: np.ndarray
    start: np.ndarray
    start_absorbed: float
    dead_rows: tuple[int, ...] = ()

    def absorption_cdf(self, steps: int) -> float:
        """P(absorbed within ``steps`` transitions after the first codeword)."""
        if steps < 0:
            raise ValueError(f"step count must be >= 0, got {steps}")
        return _absorbed(self.start[None], self.transient[None], steps).item(0)


def _absorbing_chains(q, l: int):
    """The absorbing chains of a stack of joint laws ``q`` (B x (l+2) x
    (l+2)): transient, absorb and start as stacks, the immediately
    absorbed mass and the mask of live (reachable) transient states.

    Each row of a joint is conditioned on the first codeword's count, so
    it is normalized by its marginal mass; the first codeword itself is
    consumed by the start vector.
    """
    mass = q.sum(axis=2)
    live = mass[:, : l + 1] > 0.0
    scale = np.where(live, mass[:, : l + 1], 1.0)
    transient = np.where(live[..., None], q[:, : l + 1, : l + 1] / scale[..., None], 0.0)
    absorb = np.where(live, q[:, : l + 1, l + 1] / scale, 1.0)
    return transient, absorb, mass[:, : l + 1], mass[:, l + 1], live


def absorbing_chain_from_joint(joint: JointErrorDistribution, l: int) -> AbsorbingChain:
    """Build the absorbing codeword chain from the two-codeword joint law."""
    _check_cap(joint, l)
    transient, absorb, start, absorbed, live = (
        part[0] for part in _absorbing_chains(joint.q[None], l)
    )
    return AbsorbingChain(
        transient=transient,
        absorb=absorb,
        start=start,
        start_absorbed=float(absorbed),
        dead_rows=tuple(np.flatnonzero(~live).tolist()),
    )


def model3_block_error(joint: JointErrorDistribution, l: int, depth: int) -> float:
    """Codeblock error probability via the absorbing count chain.

    The block fails unless the chain survives all ``depth`` codewords:
    the first is consumed by the start vector, the remaining depth-1 by
    chain transitions.
    """
    if depth < 1:
        raise ValueError(f"interleaving depth must be >= 1, got {depth}")
    return absorbing_chain_from_joint(joint, l).absorption_cdf(depth - 1)


def _model3_blocks(q, l: int, depth: int, errors):
    transient, _, start, _, _ = _absorbing_chains(q, l)
    return _absorbed(start, transient, depth - 1)


# ----------------------------------------------------------------------
# models 1 and 2: two-state codeword chain
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class CodewordProcess:
    """Two-state Markov chain over codeword outcomes (0 decoded, 1 failed).

    nu00..nu11 are the stationary probabilities of consecutive outcome
    pairs; ``degenerate`` marks an error rate of exactly 0 or 1, where
    correlation is undefined and the chain is parameterized as i.i.d.
    """

    error_rate: float
    nacf: float
    alpha: float  # P(decoded -> failed)
    beta: float  # P(failed -> decoded)
    nu00: float
    nu01: float
    nu10: float
    nu11: float
    degenerate: bool = False


def _chain_rates(error_rate, nacf):
    """The chains' rates alpha and beta, and where they leave [0, 1]."""
    scale = 1.0 - nacf
    alpha = scale * error_rate
    beta = scale * (1.0 - error_rate)
    outside = ~((np.minimum(alpha, beta) >= 0.0) & (np.maximum(alpha, beta) <= 1.0))  # NaN too
    return alpha, beta, outside


def _chains(error_rate, nacf, errors):
    """(nacf, alpha, beta, degenerate) of the two-state codeword chains
    with these error rates and lag-1 NACFs; a degenerate chain (error
    rate exactly 0 or 1) has no correlation and is parameterized as i.i.d."""
    degenerate = (error_rate == 0.0) | (error_rate == 1.0)
    nacf = np.where(degenerate, 0.0, nacf)
    alpha, beta, outside = _chain_rates(error_rate, nacf)
    _fail(
        errors, outside,
        "(error_rate={!r}, nacf={!r}) is outside the two-state chain's parameter range",
        error_rate, nacf,
    )
    return nacf, alpha, beta, degenerate


def _rate_chains(error_rate, nacf, errors):
    """_chains after the checks of codeword_process_from_rates."""
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
    """(error_rate, *_chains) fitted to the quadrants of joint laws, as in
    codeword_process_from_joint."""
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
    return error_rate, *_chains(error_rate, nacf, errors)


def _process(error_rate, nacf, alpha, beta, degenerate, pairs=None) -> CodewordProcess:
    """The CodewordProcess of the one chain in stacks of one; its
    outcome-pair probabilities are ``pairs`` where given and the chain is
    not degenerate, else the chain's own stationary two-step law."""
    error_rate, nacf, alpha, beta, degenerate = (
        x.item(0) for x in (error_rate, nacf, alpha, beta, degenerate)
    )
    if pairs is None or degenerate:
        ok = 1.0 - error_rate
        pairs = (ok * (1.0 - alpha), ok * alpha, error_rate * beta, error_rate * (1.0 - beta))
    else:
        pairs = (pair.item(0) for pair in pairs)
    return CodewordProcess(error_rate, nacf, alpha, beta, *pairs, degenerate=degenerate)


def _raise_first(errors):
    if errors[0] is not None:
        raise ValueError(errors[0])


def codeword_process_from_rates(error_rate: float, nacf: float) -> CodewordProcess:
    """Codeword chain from (error rate, lag-1 NACF) directly.

    The outcome-pair probabilities are the chain's own stationary
    two-step law.  This is the model 2 parameterization, which reuses
    the bit-level correlation at the codeword level.
    """
    errors = [None]
    error_rate = np.array([error_rate], dtype=float)
    chains = _rate_chains(error_rate, np.array([nacf], dtype=float), errors)
    _raise_first(errors)
    return _process(error_rate, *chains)


def codeword_process_from_joint(joint: JointErrorDistribution, l: int) -> CodewordProcess:
    """Parameterize the codeword chain from the two-codeword joint law.

    The error rate and the outcome quadrants come straight from the
    joint; the lag-1 NACF is the quadrant covariance normalized by the
    binary variance.
    """
    _check_cap(joint, l)
    errors = [None]
    quadrants = _quadrants(joint.q[None], l)
    chains = _joint_chains(quadrants, errors)
    _raise_first(errors)
    return _process(*chains, pairs=quadrants)


def _two_state_blocks(alpha, beta, depth: int, errors):
    """P(at least one of ``depth`` consecutive codewords fails) under
    each two-state codeword chain of a stack, started from stationarity."""
    _fail(errors, alpha + beta <= 0.0, _TWO_ABSORBING_STATES)
    decoded_flow = np.zeros((len(alpha), 2, 2))
    decoded_flow[:, 0, 0] = 1.0 - alpha
    decoded_flow[:, 1, 0] = beta
    with np.errstate(invalid="ignore", over="ignore"):  # rejected chains only
        return _absorbed(_two_state_stationary(alpha, beta), decoded_flow, depth)


def two_state_block_error(proc: CodewordProcess, depth: int) -> float:
    """P(at least one of ``depth`` consecutive codewords fails) under the
    two-state codeword chain started from stationarity."""
    if depth < 1:
        raise ValueError(f"interleaving depth must be >= 1, got {depth}")
    errors = [None]
    block = _two_state_blocks(np.array([proc.alpha]), np.array([proc.beta]), depth, errors)
    _raise_first(errors)
    return block.item(0)


def _model1_blocks(q, l: int, depth: int, errors):
    _, _, alpha, beta, _ = _joint_chains(_quadrants(q, l), errors)
    return _two_state_blocks(alpha, beta, depth, errors)


def _model2_blocks(probs, nacf, l: int, depth: int, errors):
    error_rate = np.minimum(np.maximum(1.0 - probs[:, : l + 1].sum(axis=1), 0.0), 1.0)
    _, alpha, beta, _ = _rate_chains(error_rate, nacf, errors)
    return _two_state_blocks(alpha, beta, depth, errors)


# ======================================================================
# packet-level composition
# ======================================================================


@dataclass(frozen=True)
class PacketErrorResult:
    """One model's prediction for one configuration.

    A model whose chain stage rejects its inputs carries the reason in
    ``error`` and no probabilities.
    """

    model: str
    block_error: float | None  # P(an interleaved codeblock is lost)
    packet_error: float | None  # P(the whole packet is lost)
    code: CodeSpec
    scheme: SchemeSpec
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


def _joint_for(model, n: int, depth: int, cap: int):
    if depth >= 2:
        return joint_error_distribution(model, n, depth, cap)
    return sequential_joint_distribution(model, n, cap)


def _baseline_results(channels, code: CodeSpec, scheme: SchemeSpec):
    """The baseline result of each channel, worked out once per distinct ber."""
    bers = [channel.ber for channel in channels]
    by_ber = {}
    for ber in bers:
        if ber in by_ber:
            continue
        try:
            codeword_error = _binomial_tail_above(code.n, code.l, ber)
            block = block_to_packet(codeword_error, scheme.depth)
            packet = block_to_packet(codeword_error, scheme.codewords)
            by_ber[ber] = PacketErrorResult("baseline", block, packet, code, scheme)
        except ValueError as exc:
            by_ber[ber] = PacketErrorResult("baseline", None, None, code, scheme, error=str(exc))
    return [by_ber[ber] for ber in bers]


def _chain_results(name, stage, *args, count: int, code: CodeSpec, scheme: SchemeSpec):
    """One model's result for each channel of a stack, from its stacked
    chain stage; a ValueError of the whole stage is every channel's error."""
    errors = [None] * count
    try:
        blocks = stage(*args, errors).tolist()
    except ValueError as exc:
        blocks, errors = [None] * count, [str(exc)] * count
    results = []
    for block, error in zip(blocks, errors):
        if error is None:
            try:
                packet = block_to_packet(block, scheme.blocks)
                results.append(PacketErrorResult(name, block, packet, code, scheme))
                continue
            except ValueError as exc:
                error = str(exc)
        results.append(PacketErrorResult(name, None, None, code, scheme, error=error))
    return results


def evaluate_models(model, code: CodeSpec, scheme: SchemeSpec, which=ANALYTIC_MODELS):
    """Evaluate the requested analytic models on one configuration.

    ``model`` is one FsmcModel, giving one dict of results by model name,
    or a sequence of them with equal state counts, giving a list of such
    dicts: the count recursions and each model's chain stage then run
    once over the whole stack.

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
    cap, l, depth = code.l + 1, code.l, scheme.depth
    stages = {}
    if "model1" in which or "model3" in which:
        q = np.array([joint.q for joint in _joint_for(channels, code.n, depth, cap)])
        stages["model1"] = (_model1_blocks, q, l, depth)
        stages["model3"] = (_model3_blocks, q, l, depth)
    if "model2" in which:
        laws = marginal_error_distribution(channels, code.n, depth, cap)
        probs = np.array([law for _, law in laws])
        nacf = np.array([channel.lag1_nacf() for channel in channels])
        stages["model2"] = (_model2_blocks, probs, nacf, l, depth)
    columns = {
        name: _baseline_results(channels, code, scheme) if name == "baseline"
        else _chain_results(name, *stages[name], count=len(channels), code=code, scheme=scheme)
        for name in ANALYTIC_MODELS
        if name in which
    }
    results = [
        {name: column[i] for name, column in columns.items()} for i in range(len(channels))
    ]
    return results[0] if isinstance(model, FsmcModel) else results
