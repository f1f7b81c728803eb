"""Local models of tall orbits: defining monomial, reduced chart, zero level.

A model is presented by an exponent vector xi on C^(h+1); the stabilizer it
encodes is the kernel of the character z -> prod z_j^xi_j, whose identity
component acts with the weights derived in ``lattice``; its moment map phi_H
is that of ``classifier.local_model_system(xi)``.  The dual of the acting
torus's Lie algebra is identified with the annihilator-plus-dual splitting
through the standard Euclidean pairing in the chosen basis.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import NotTall
from .lattice import DefiningVector

TAU_RANGE = (1e-3, 1e3)  # scale window for zero-level sampling; avoids overflow in z^xi


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
