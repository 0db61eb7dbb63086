"""Entropy budget machinery and the sparsity penalty.

A budget caps the fraction of 1-valued bits in the network: a target
bit-width h_star (bits/weight) converts through the inverse binary entropy
into p_star = h^-1(h_star) on [0, 1/2], a maximum count of ones
M = N * p_star, and the expected-connections fraction EC = M / N = p_star.
The penalty is the hinge ReLU(ones_fraction - EC); its weight lambda is
re-solved every step so the penalty term stays a fixed fraction gamma of
the total loss.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .binquant import ValidationError

#: below this penalty value the constraint is treated as satisfied and
#: lambda collapses to 0 (the penalty term vanishes there anyway)
J_EPSILON = 1e-12


def binary_entropy(p: float) -> float:
    """h(p) = -p*log2(p) - (1-p)*log2(1-p), with h(0) = h(1) = 0."""
    if not 0.0 <= p <= 1.0:
        raise ValidationError(f"p = {p} outside [0, 1]")
    if p == 0.0 or p == 1.0:
        return 0.0
    return float(-p * np.log2(p) - (1.0 - p) * np.log2(1.0 - p))


def inverse_binary_entropy(h_star: float) -> float:
    """The unique p in [0, 1/2] with h(p) = h_star, by bisection to an
    absolute tolerance of 1e-12 in p."""
    if not 0.0 <= h_star <= 1.0:
        raise ValidationError(f"h_star = {h_star} outside [0, 1]")
    if h_star == 0.0:
        return 0.0
    if h_star == 1.0:
        return 0.5
    lo, hi = 0.0, 0.5
    while hi - lo > 1e-12:
        mid = 0.5 * (lo + hi)
        if binary_entropy(mid) < h_star:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


@dataclass(frozen=True)
class SparsityBudget:
    """Entropy budget for a network of `n` weights: at most `m` ones."""

    h_star: float
    n: int
    p_star: float
    m: float
    ec: float

    @classmethod
    def from_ec(cls, ec: float, n: int) -> "SparsityBudget":
        """Budget entered directly as an EC fraction (e.g. from a target
        sparsity s via ec = 1 - s)."""
        if not 0.0 <= ec <= 0.5:
            raise ValidationError(f"ec = {ec} outside [0, 1/2]")
        if n < 1:
            raise ValidationError("n must be >= 1")
        return cls(h_star=binary_entropy(ec), n=n, p_star=ec, m=n * ec, ec=ec)


def make_budget(h_star: float, n: int) -> SparsityBudget:
    if n < 1:
        raise ValidationError("n must be >= 1")
    p_star = inverse_binary_entropy(h_star)
    return SparsityBudget(h_star=h_star, n=n, p_star=p_star, m=n * p_star, ec=p_star)


def penalty_g(bits, ec: float) -> float:
    """Hinge penalty on the {0,1} weights of the whole network:
    max(0, ones/N - ec)."""
    bits = np.asarray(bits)
    n = bits.size
    if n < 1:
        raise ValidationError("empty bit vector")
    ones = int(np.count_nonzero(bits))
    return max(0.0, ones / n - ec)


def penalty_j(wb, ec: float) -> float:
    """The same hinge on sign weights: max(0, sum((wb+1)/2)/N - ec), which
    is penalty_g of the +1 positions. This is the form the training loop
    differentiates (subgradient 1/(2N) per weight while active, 0 at the
    hinge point)."""
    return penalty_g(np.asarray(wb) == 1, ec)


def lambda_update(loss_bnn: float, j_value: float, gamma: float) -> float:
    """Solve gamma = lambda*j / (loss_bnn + lambda*j) for lambda:

        lambda = gamma * loss_bnn / ((1 - gamma) * j)

    Returns 0 when the penalty is inactive (j <= J_EPSILON) or gamma = 0.
    """
    if not 0.0 <= gamma < 1.0:
        raise ValidationError(f"gamma = {gamma} outside [0, 1)")
    if loss_bnn < 0.0:
        raise ValidationError("loss must be non-negative")
    if gamma == 0.0 or j_value <= J_EPSILON:
        return 0.0
    return gamma * loss_bnn / ((1.0 - gamma) * j_value)
