"""Local models of tall orbits: moment maps, defining monomial, reduced chart.

A model is presented by an exponent vector xi on C^(h+1); the stabilizer it
encodes is the kernel of the character z -> prod z_j^xi_j, whose identity
component acts with the weights derived in ``lattice``.  The dual of the
acting torus's Lie algebra is identified with the annihilator-plus-dual
splitting through the standard Euclidean pairing in the chosen basis.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import NotTall
from .lattice import DefiningVector, slice_weights_from_xi

TAU_RANGE = (1e-3, 1e3)  # scale window for zero-level sampling; avoids overflow in z^xi


@dataclass(frozen=True)
class LocalModel:
    """Slice presentation of a local model on C^(h+1)."""

    xi: DefiningVector
    slice_weights: tuple[tuple[int, ...], ...] = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "slice_weights", slice_weights_from_xi(self.xi))

    @classmethod
    def from_xi(cls, entries) -> "LocalModel":
        return cls(xi=DefiningVector.from_entries(entries))

    @property
    def h(self) -> int:
        return len(self.slice_weights[0]) if self.slice_weights else 0

    @property
    def coords(self) -> int:
        return len(self.xi.xi)


@dataclass(frozen=True)
class ModelPoint:
    """Representative [1, alpha, z] of a model point."""

    alpha: tuple[float, ...]
    z: tuple[complex, ...]


def phi_H(model: LocalModel, z) -> np.ndarray:
    """Homogeneous moment map of the stabilizer: 1/2 sum_i eta_i |z_i|^2."""
    z = np.asarray(z, dtype=complex)
    if z.shape[-1] != model.coords:
        raise ValueError(f"expected {model.coords} coordinates, got {z.shape[-1]}")
    sq = np.abs(z) ** 2
    eta = np.array(model.slice_weights, dtype=float).reshape(model.coords, model.h)
    return 0.5 * sq @ eta


def phi_Y(model: LocalModel, pt: ModelPoint) -> np.ndarray:
    """Moment map alpha + phi_H(z) in the fixed splitting of the dual algebra."""
    return np.concatenate([np.asarray(pt.alpha, dtype=float), phi_H(model, pt.z)])


def defining_poly_eval(xi: DefiningVector, z):
    """prod_j z_j^xi_j; negative exponents divide (raw evaluation).

    Powers are repeated products, so Gaussian-integer inputs with modest
    exponents evaluate exactly.
    """
    z = np.asarray(z, dtype=complex)
    out = np.ones(z.shape[:-1], dtype=complex)
    for j, e in enumerate(xi.xi):
        for _ in range(abs(e)):
            out = out * z[..., j] if e > 0 else out / z[..., j]
    return out if out.shape else complex(out)


def reduced_chart_constant(xi: DefiningVector) -> float:
    """Scale C with |z|^2 = C |P(z)|^(2/N) on the zero level of phi_H.

    On that level |z_j|^2 = tau * xi_j for a single tau >= 0 (the exponent
    vector spans the unique relation among the weights), which gives
    C = N * (prod_{xi_j > 0} xi_j^xi_j)^(-1/N).
    """
    if not xi.tall or xi.degree_N < 1:
        raise NotTall(f"chart constant needs a tall model, got {xi.xi}")
    n = xi.degree_N
    return n * math.exp(-math.log(xi.q) / n)


def sample_zero_level(xi: DefiningVector, count: int, seed: int) -> np.ndarray:
    """Deterministic samples of the zero level of phi_H, shape (count, h+1).

    tau is drawn log-uniform in TAU_RANGE, angles uniform; coordinates with
    xi_j = 0 are pinned to zero (forced on the level set).
    """
    if not xi.tall or any(e < 0 for e in xi.xi):
        raise NotTall(f"zero-level sampler needs xi >= 0, got {xi.xi}")
    rng = np.random.default_rng(seed)
    lo, hi = np.log(TAU_RANGE)
    tau = np.exp(rng.uniform(lo, hi, size=count))
    theta = rng.uniform(0.0, 2.0 * np.pi, size=(count, len(xi.xi)))
    radii = np.sqrt(tau[:, None] * np.array(xi.xi, dtype=float)[None, :])
    return radii * np.exp(1j * theta)
