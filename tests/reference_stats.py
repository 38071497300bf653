"""Shared references for the tests: the statistics of the stream-fidelity
tests, the memoryless packet loss that the Monte Carlo checks take as
truth, a channel's two reception kernels for the brute-force references,
and one channel's results from the stacked model evaluation.

The sample mean and sample lag-1 autocorrelation of a binary Markov
chain have asymptotic variances given by the Markov-chain CLT; Gaussian
AR(1) formulas badly underestimate the autocorrelation noise for sparse
binary series, so the covariance is computed exactly on the pair chain
and mapped through the delta method.
"""

import math
from collections import namedtuple

import numpy as np

from burstfec.channel import ChannelSpec, ibp_from_stats
from burstfec.models import ANALYTIC_MODELS, evaluate_models


def stat_standard_errors(ber: float, nacf: float, count: int):
    """(se of the sample mean, se of the sample lag-1 autocorrelation).

    Works on the pair chain z_t = (x_t, x_{t+1}): the long-run covariance
    of g(z) = (x_t, x_t * x_{t+1}) comes from the fundamental matrix, and
    the gradient of r1 = (q - p^2) / (p - p^2) maps it to the estimator.
    """
    model = ibp_from_stats(ChannelSpec(ber=ber, nacf=nacf))
    transition = model.transition
    pi = model.pi
    states = [(a, b) for a in (0, 1) for b in (0, 1)]
    pair = np.zeros((4, 4))
    for i, (_, b) in enumerate(states):
        for j, (b2, c) in enumerate(states):
            if b2 == b:
                pair[i, j] = transition[b, c]
    pair_pi = np.array([pi[a] * transition[a, b] for (a, b) in states])
    g = np.array([[a, a * b] for (a, b) in states], dtype=float)
    mu = pair_pi @ g
    instant = (g * pair_pi[:, None]).T @ g - np.outer(mu, mu)
    stationary = np.tile(pair_pi, (4, 1))
    fundamental = np.linalg.inv(np.eye(4) - pair + stationary)
    lagged_sum = (g * pair_pi[:, None]).T @ (pair @ fundamental - stationary) @ g
    sigma = instant + lagged_sum + lagged_sum.T

    p, q = mu
    var = p - p * p
    grad = np.array(
        [(-2 * p * var - (q - p * p) * (1 - 2 * p)) / var**2, 1.0 / var]
    )
    se_mean = math.sqrt(max(float(sigma[0, 0]), 0.0) / count)
    se_r1 = math.sqrt(max(float(grad @ sigma @ grad), 0.0) / count)
    return se_mean, se_r1


def lag1_autocorr(bits) -> float:
    centered = np.asarray(bits, dtype=float) - np.mean(bits)
    return float(centered[:-1] @ centered[1:]) / float(centered @ centered)


def binomial_packet_error(ber: float, n: int, l: int, codewords: int) -> float:
    """P(some codeword of ``codewords`` i.i.d. ones of length n has more
    than l errors) at bit error rate ``ber``, from the binomial tail summed
    by math.fsum; written here, apart from the package's baseline."""
    tail = math.fsum(math.comb(n, i) * ber**i * (1.0 - ber) ** (n - i) for i in range(l + 1, n + 1))
    return -math.expm1(codewords * math.log1p(-tail))


def kernels(model):
    """(d0, d1) of a channel: its transition matrix T split by the error
    probability e of each destination state, d1 = T * e for an erred bit
    and d0 = T - d1 for a correct one, so d0 + d1 is T exactly.  Built
    here, apart from the package's count recursions."""
    d1 = model.transition * model.error_profile
    return model.transition - d1, d1


Result = namedtuple("Result", "block_error packet_error error")


def one(model, code, scheme, which=ANALYTIC_MODELS):
    """One channel's results: ``evaluate_models`` on a stack of one channel
    and one code, entry 0 of each column, as a Result by model name."""
    [columns] = evaluate_models([model], [code], [scheme], which)
    return {name: Result(*(column[0] for column in triple)) for name, triple in columns.items()}
