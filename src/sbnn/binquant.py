"""Per-layer binarization math: sign quantization, the two-value weight
domain, and the closed-form least-squares fit of that domain to real weights.

A layer's binary domain {alpha, beta} is stored as (tau, phi):

    alpha = -tau + phi,   beta = tau + phi     (tau > 0 canonical)

The engine's remap reads the derived eta = beta - alpha and alpha: a bit
vector w01 and a +-1 input x give w . x = eta * (w01 . x) + alpha * sum(x).
A domain with tau == 0 is degenerate: a constant layer, alpha == beta == phi.

Sign weights live in {-1, +1}; bit weights live in {0, 1}; they correspond
via bit = (sign + 1) / 2, and bit 1 maps to beta.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


class ValidationError(ValueError):
    """Input violates a documented precondition."""


class DataError(ValidationError):
    """A file, dataset or batch whose contents cannot be used. The command
    line exits 3 for one, and 2 for any other ValidationError."""


def _as_float_vector(w, name="w"):
    arr = np.asarray(w, dtype=np.float64)
    if arr.ndim != 1:
        arr = arr.reshape(-1)
    if arr.size < 1:
        raise ValidationError(f"{name} must have at least one entry")
    if not np.all(np.isfinite(arr)):
        raise ValidationError(f"{name} contains non-finite entries")
    return arr


def sign_binarize(w):
    """Map real weights to {-1, +1}. Zero maps to +1 so the output never
    contains 0 and the {0,1} round-trip is total."""
    return 1 - 2 * (_as_float_vector(w) < 0.0).view(np.int8)


def ste_mask(w_latent):
    """Where the clipped straight-through estimator passes a gradient: |w| <= 1."""
    return np.abs(w_latent) <= 1.0


def ste_gradient(upstream, w_latent):
    """Clipped straight-through gradient: `upstream * ste_mask(w)`, which
    passes `upstream` where the latent value is in [-1, 1] (inclusive) and
    zeroes it elsewhere; a NaN or infinite upstream at a clipped value gives
    NaN. Works elementwise, a scalar giving a 0-d array."""
    return np.asarray(upstream, dtype=np.float64) * ste_mask(w_latent)


def signs_to_bits(wb):
    """{-1,+1} -> {0,1} via bit = (sign + 1) / 2."""
    wb = np.asarray(wb)
    return ((wb + 1) // 2).astype(np.uint8)


@dataclass(frozen=True)
class OmegaParams:
    """A layer's binary weight domain.

    `tau > 0` is the canonical orientation (alpha < beta). A fit may produce
    tau <= 0; the raw value is kept and `canonical_*` accessors swap the two
    domain values so consumers always see alpha < beta. A domain with
    tau == 0 is degenerate: the constant-layer fallback, every weight phi.
    """

    tau: float
    phi: float

    @property
    def degenerate(self) -> bool:
        return self.tau == 0.0

    @property
    def alpha(self) -> float:
        return -self.tau + self.phi

    @property
    def beta(self) -> float:
        return self.tau + self.phi

    @property
    def eta(self) -> float:
        return self.beta - self.alpha

    def canonical(self) -> "OmegaParams":
        """Equivalent domain with tau > 0 (alpha < beta). Swapping the roles
        of the two values is a relabeling: bit 1 then selects the larger one."""
        if self.tau >= 0.0:
            return self
        return OmegaParams(tau=-self.tau, phi=self.phi)


PM1_DOMAIN = OmegaParams(tau=1.0, phi=0.0)  # {-1, +1}: alpha = -1, eta = 2


@dataclass(frozen=True)
class QuantStats:
    """Counts of the two domain values in a sign vector."""

    u: int  # number of +1 entries (beta-valued / bit 1)
    l: int  # number of -1 entries (alpha-valued / bit 0)

    @property
    def n(self) -> int:
        return self.u + self.l

    @property
    def p(self) -> float:
        return self.u / self.n


def quant_stats(wb) -> QuantStats:
    wb = np.asarray(wb)
    if wb.size < 1:
        raise ValidationError("empty sign vector")
    u = int(np.count_nonzero(wb == 1))
    l = int(np.count_nonzero(wb == -1))
    if u + l != wb.size:
        raise ValidationError("sign vector has entries outside {-1, +1}")
    return QuantStats(u=u, l=l)


def _fit_inputs(w, wb):
    w = _as_float_vector(w)
    wb = np.asarray(wb)
    if wb.shape != w.shape:
        raise ValidationError("weight and sign vectors differ in length")
    stats = quant_stats(wb)
    return w, wb, stats


def fit_omega(w, wb) -> OmegaParams:
    """Least-squares-optimal (tau, phi) for reconstructing `w` as
    tau * wb + phi, assuming wb = sign_binarize(w) so that sum(w * wb)
    equals the l1 norm of w.

    A constant sign vector (p in {0, 1}) has no unique two-value fit and
    yields the degenerate tau = 0, phi = mean(w): the layer carries no
    binary information and reconstructs as a constant. A result with
    tau <= 0 is returned as-is (non-canonical); consumers go through
    OmegaParams.canonical().
    """
    w, wb, stats = _fit_inputs(w, wb)
    if stats.u == 0 or stats.l == 0:
        return OmegaParams(tau=0.0, phi=float(np.mean(w)))
    n = stats.n
    s = 2.0 * stats.p - 1.0
    l1 = float(np.sum(np.abs(w)))
    total = float(np.sum(w))
    denom = n * (1.0 - s * s)
    tau = (l1 - s * total) / denom
    phi = (total - s * l1) / denom
    return OmegaParams(tau=tau, phi=phi)


def binarization_loss(w, wb, omega: OmegaParams) -> float:
    """Squared l2 reconstruction error ||w - (tau*wb + phi)||^2. The squared
    form has the same argmin as the norm itself and matches the factor-2
    gradient below."""
    w, wb, _ = _fit_inputs(w, wb)
    r = w - (omega.tau * wb + omega.phi)
    return float(np.dot(r, r))


def grad_binarization_loss(w, wb, omega: OmegaParams):
    """Gradient of binarization_loss with respect to (tau, phi):

        d/dtau = 2 * (-||w||_1 + N * (tau + phi * (2p - 1)))
        d/dphi = 2 * (-sum(w) + N * (phi + tau * (2p - 1)))

    Like fit_omega, this uses ||w||_1 for sum(w * wb) and therefore
    assumes wb = sign_binarize(w).
    """
    w, wb, stats = _fit_inputs(w, wb)
    n = stats.n
    s = 2.0 * stats.p - 1.0
    l1 = float(np.sum(np.abs(w)))
    total = float(np.sum(w))
    dtau = 2.0 * (-l1 + n * (omega.tau + omega.phi * s))
    dphi = 2.0 * (-total + n * (omega.phi + omega.tau * s))
    return dtau, dphi


def canonicalize_with_bits(omega: OmegaParams, bits):
    """Return an equivalent (omega, bits) pair with tau > 0. Negating tau
    swaps which domain value each bit selects, so the bits are flipped in
    the same move and every mapped value is preserved exactly."""
    bits = np.asarray(bits, dtype=np.uint8)
    if omega.tau >= 0.0:
        return omega, bits
    return omega.canonical(), (1 - bits).astype(np.uint8)

