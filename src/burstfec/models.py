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

from .channel import CodeSpec, FsmcModel, SchemeSpec, split_transition_matrix, stationary_vector
from .dist import (
    JointErrorDistribution,
    joint_error_distribution,
    marginal_error_distribution,
    sequential_joint_distribution,
)

ANALYTIC_MODELS = ("model1", "model2", "model3", "baseline")


# ======================================================================
# model 3: absorbing chain over bucketed error counts
# ======================================================================


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
        survived = self.start @ np.linalg.matrix_power(self.transient, steps)
        return min(max(1.0 - float(survived.sum()), 0.0), 1.0)


def absorbing_chain_from_joint(joint: JointErrorDistribution, l: int) -> AbsorbingChain:
    """Build the absorbing codeword chain from the two-codeword joint law.

    Each row of the joint is conditioned on the first codeword's count,
    so it is normalized by its marginal mass; the first codeword itself
    is consumed by the start vector.
    """
    if joint.cap != l + 1:
        raise ValueError(f"joint computed with cap {joint.cap}, need l + 1 = {l + 1}")
    q = joint.q
    mass = q.sum(axis=1)
    transient = np.zeros((l + 1, l + 1))
    absorb = np.zeros(l + 1)
    dead = []
    for i in range(l + 1):
        if mass[i] > 0.0:
            transient[i] = q[i, : l + 1] / mass[i]
            absorb[i] = q[i, l + 1] / mass[i]
        else:
            absorb[i] = 1.0
            dead.append(i)
    return AbsorbingChain(
        transient=transient,
        absorb=absorb,
        start=mass[: l + 1].copy(),
        start_absorbed=float(mass[l + 1]),
        dead_rows=tuple(dead),
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


# ======================================================================
# models 1 and 2: two-state codeword chain
# ======================================================================


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


def _chain_rates(error_rate: float, nacf: float):
    alpha = (1.0 - nacf) * error_rate
    beta = (1.0 - nacf) * (1.0 - error_rate)
    if not 0.0 <= alpha <= 1.0 or not 0.0 <= beta <= 1.0:
        raise ValueError(
            f"(error_rate={error_rate!r}, nacf={nacf!r}) is outside the "
            "two-state chain's parameter range"
        )
    return alpha, beta


def codeword_process_from_rates(error_rate: float, nacf: float) -> CodewordProcess:
    """Codeword chain from (error rate, lag-1 NACF) directly.

    The outcome-pair probabilities are the chain's own stationary
    two-step law.  This is the model 2 parameterization, which reuses
    the bit-level correlation at the codeword level.
    """
    if not 0.0 <= error_rate <= 1.0:
        raise ValueError(f"error rate must be in [0, 1], got {error_rate!r}")
    if not -1.0 < nacf < 1.0:
        raise ValueError(f"lag-1 NACF must be in (-1, 1), got {nacf!r}")
    degenerate = error_rate in (0.0, 1.0)
    if degenerate:
        nacf = 0.0
    alpha, beta = _chain_rates(error_rate, nacf)
    ok = 1.0 - error_rate
    return CodewordProcess(
        error_rate=error_rate,
        nacf=nacf,
        alpha=alpha,
        beta=beta,
        nu00=ok * (1.0 - alpha),
        nu01=ok * alpha,
        nu10=error_rate * beta,
        nu11=error_rate * (1.0 - beta),
        degenerate=degenerate,
    )


def codeword_process_from_joint(
    joint: JointErrorDistribution, l: int, bit_nacf: float | None = None
) -> CodewordProcess:
    """Parameterize the codeword chain from the two-codeword joint law.

    The error rate and the outcome quadrants come straight from the
    joint; the lag-1 NACF is the quadrant covariance normalized by the
    binary variance.  Passing ``bit_nacf`` overrides that estimate with
    the bit-process value (the simplified coupling used when only
    one-codeword statistics are available).
    """
    if joint.cap != l + 1:
        raise ValueError(f"joint computed with cap {joint.cap}, need l + 1 = {l + 1}")
    q = joint.q
    nu00 = float(q[: l + 1, : l + 1].sum())
    nu01 = float(q[: l + 1, l + 1 :].sum())
    nu10 = float(q[l + 1 :, : l + 1].sum())
    nu11 = float(q[l + 1 :, l + 1 :].sum())
    error_rate = min(max(nu10 + nu11, 0.0), 1.0)
    variance = error_rate - error_rate * error_rate
    if variance <= 0.0:
        return codeword_process_from_rates(float(round(error_rate)), 0.0)
    if bit_nacf is None:
        ok = 1.0 - error_rate
        covariance = (
            error_rate * error_rate * nu00
            - error_rate * ok * (nu01 + nu10)
            + ok * ok * nu11
        )
        nacf = covariance / variance
    else:
        nacf = bit_nacf
    alpha, beta = _chain_rates(error_rate, nacf)
    return CodewordProcess(
        error_rate=error_rate,
        nacf=nacf,
        alpha=alpha,
        beta=beta,
        nu00=nu00,
        nu01=nu01,
        nu10=nu10,
        nu11=nu11,
    )


def two_state_block_error(proc: CodewordProcess, depth: int) -> float:
    """P(at least one of ``depth`` consecutive codewords fails) under the
    two-state codeword chain started from stationarity."""
    if depth < 1:
        raise ValueError(f"interleaving depth must be >= 1, got {depth}")
    transition = np.array(
        [[1.0 - proc.alpha, proc.alpha], [proc.beta, 1.0 - proc.beta]]
    )
    decoded_flow, _ = split_transition_matrix(transition, np.array([0.0, 1.0]))
    pi = stationary_vector(transition)
    all_ok = float(pi @ np.linalg.matrix_power(decoded_flow, depth) @ np.ones(2))
    return min(max(1.0 - all_ok, 0.0), 1.0)


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


def _single_model(name: str, model: FsmcModel, code: CodeSpec, scheme: SchemeSpec):
    result = evaluate_models(model, code, scheme, (name,))[name]
    if result.error is not None:
        raise ValueError(result.error)
    return result


def model1_packet_error(model: FsmcModel, code: CodeSpec, scheme: SchemeSpec) -> PacketErrorResult:
    """Joint two-codeword law -> two-state codeword chain -> packet."""
    return _single_model("model1", model, code, scheme)


def model2_packet_error(model: FsmcModel, code: CodeSpec, scheme: SchemeSpec) -> PacketErrorResult:
    """One-codeword law plus bit-level NACF -> two-state chain -> packet."""
    return _single_model("model2", model, code, scheme)


def model3_packet_error(model: FsmcModel, code: CodeSpec, scheme: SchemeSpec) -> PacketErrorResult:
    """Joint two-codeword law -> absorbing count chain -> packet."""
    return _single_model("model3", model, code, scheme)


def _chain_stage(name, model, joint, probs, code, scheme) -> PacketErrorResult:
    """One model's result on one channel, from that channel's count laws."""
    try:
        if name == "baseline":
            codeword_error = _binomial_tail_above(code.n, code.l, model.ber)
            block = block_to_packet(codeword_error, scheme.depth)
            packet = block_to_packet(codeword_error, scheme.codewords)
            return PacketErrorResult(name, block, packet, code, scheme)
        if name == "model1":
            block = two_state_block_error(codeword_process_from_joint(joint, code.l), scheme.depth)
        elif name == "model2":
            error_rate = min(max(1.0 - float(probs[: code.l + 1].sum()), 0.0), 1.0)
            proc = codeword_process_from_rates(error_rate, model.lag1_nacf())
            block = two_state_block_error(proc, scheme.depth)
        else:
            block = model3_block_error(joint, code.l, scheme.depth)
        return PacketErrorResult(name, block, block_to_packet(block, scheme.blocks), code, scheme)
    except ValueError as exc:
        return PacketErrorResult(name, None, None, code, scheme, error=str(exc))


def evaluate_models(model, code: CodeSpec, scheme: SchemeSpec, which=ANALYTIC_MODELS):
    """Evaluate the requested analytic models on one configuration.

    ``model`` is one FsmcModel, giving one dict of results by model name,
    or a sequence of them with equal state counts, giving a list of such
    dicts: the count recursions then run once over the whole stack, and
    the chain stage once per channel.

    Models 1 and 3 consume the identical joint distribution object, so
    any disagreement between them isolates their second-stage
    approximations rather than the shared first stage.  A model whose
    chain stage fails (e.g. a codeword NACF outside the two-state
    chain's range) gets a result with ``error`` set; the other models
    keep their numbers.
    """
    unknown = set(which) - set(ANALYTIC_MODELS)
    if unknown:
        raise ValueError(f"unknown models: {sorted(unknown)}")
    channels = [model] if isinstance(model, FsmcModel) else list(model)
    cap = code.l + 1
    joints = probs = [None] * len(channels)
    if "model1" in which or "model3" in which:
        joints = _joint_for(channels, code.n, scheme.depth, cap)
    if "model2" in which:
        laws = marginal_error_distribution(channels, code.n, scheme.depth, cap)
        probs = [law for _, law in laws]
    results = [
        {
            name: _chain_stage(name, channel, joint, law, code, scheme)
            for name in ANALYTIC_MODELS
            if name in which
        }
        for channel, joint, law in zip(channels, joints, probs)
    ]
    return results[0] if isinstance(model, FsmcModel) else results
