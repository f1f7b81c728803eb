"""The explicit family on C^n: g is the imaginary part of the defining
monomial of the torus action, and every derived quantity has a closed
polar form.

Points are canonically polar (radius, angle) because the criticality
residuals and the critical Hessian are diagonal in those coordinates;
cartesian input is accepted and converted.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .classifier import SystemSpec, support_of
from .errors import ConditionsNotMet, UnsupportedSupport
from .jets import InvariantPolynomial
from .lattice import WeightMatrix, defining_vector

COND_TOL = 1e-8


def build_family(w: WeightMatrix, name: str = "") -> SystemSpec:
    """System (C^n, Phi, Im of the defining monomial) for a weight matrix."""
    xi = defining_vector(w)
    g = InvariantPolynomial.imag_defining_monomial(xi)
    return SystemSpec(weights=w.entries, xi=xi, g=g, name=name, weight_matrix=w)


@dataclass(frozen=True)
class PolarPoint:
    """Radii and angles; z keeps complex coordinates the point was listed in."""

    r: tuple[float, ...]
    theta: tuple[float, ...]
    z: tuple[complex, ...] | None = None

    def __post_init__(self):
        if any(x < 0 for x in self.r):
            raise ValueError("radii must be nonnegative")
        if len(self.r) != len(self.theta):
            raise ValueError("radius and angle lists must have equal length")

    @property
    def support(self) -> tuple[int, ...]:
        return support_of(self.r)

    def to_complex(self) -> np.ndarray:
        if self.z is not None:
            return np.array(self.z, dtype=complex)
        r = np.asarray(self.r, dtype=float)
        th = np.asarray(self.theta, dtype=float)
        return r * np.exp(1j * th)

    @classmethod
    def from_complex(cls, z) -> "PolarPoint":
        z = np.asarray(z, dtype=complex)
        return cls(
            r=tuple(float(x) for x in np.abs(z)),
            theta=tuple(float(x) for x in np.angle(z)),
            z=tuple(complex(x) for x in z),
        )


def eval_polar(sys: SystemSpec, w: PolarPoint) -> tuple[np.ndarray, float]:
    """Moment map and g at a polar point.

    The product-sine form of g applies whenever the exponents vanish on the
    support; otherwise g is evaluated in cartesian coordinates.
    """
    r = np.asarray(w.r, dtype=float)
    phi = sys.phi(r)
    xi = sys.xi.xi
    support = set(w.support)
    if all(xi[i] == 0 for i in support):
        others = [j for j in range(sys.coords) if j not in support]
        modulus = float(np.prod([r[j] ** abs(xi[j]) for j in others], initial=1.0))
        angle = float(sum(xi[j] * w.theta[j] for j in others))
        g = modulus * np.sin(angle)
    else:
        g = sys.g_value(w.to_complex())
    return phi, float(g)


def singularity_conditions(sys: SystemSpec, w: PolarPoint) -> tuple[float, float]:
    """Residuals of the two closed-form criticality conditions.

    Zero residuals (angle-sum cosine and exponent-weighted inverse-square
    radius sum) characterize the critical points of g modulo Phi on the
    open stratum where the exponents vanish on the support.
    """
    xi = sys.xi.xi
    support = set(w.support)
    if any(xi[i] != 0 for i in support):
        raise UnsupportedSupport(
            f"support {sorted(support)} carries nonzero exponents"
        )
    others = [j for j in range(sys.coords) if j not in support]
    c1 = float(np.cos(sum(xi[j] * w.theta[j] for j in others)))
    c2 = float(sum(xi[j] * abs(xi[j]) / w.r[j] ** 2 for j in others))
    return c1, c2


def _check_conditions(sys: SystemSpec, w: PolarPoint) -> tuple[list[int], float]:
    c1, c2 = singularity_conditions(sys, w)
    xi = sys.xi.xi
    others = [j for j in range(sys.coords) if j not in set(w.support)]
    scale = sum(abs(xi[j]) ** 2 / w.r[j] ** 2 for j in others)
    if abs(c1) > COND_TOL or abs(c2) > COND_TOL * max(scale, 1.0):
        raise ConditionsNotMet(f"residuals ({c1:.2e}, {c2:.2e}) not within tolerance")
    return others, scale


def classify_family_point(sys: SystemSpec, w: PolarPoint) -> str:
    """Closed-form label, same vocabulary as the generic classifier."""
    support = w.support
    xi_r = sys.xi.restrict(support)
    n_support = xi_r.degree_N

    if n_support == 0:
        # criticality is cut out by the two closed-form conditions
        try:
            _check_conditions(sys, w)
        except ConditionsNotMet:
            return "regular" if not support else "regular-mod-phi-elliptic"
        return "purely-elliptic"
    if not xi_r.tall:
        return "short-elliptic" if n_support == 2 else "unclassified-degenerate"
    if n_support == 1:
        return "regular-mod-phi-elliptic" if len(support) >= 2 else "regular"
    if n_support == 2:
        if xi_r.component_count() > 1:
            return "nondegenerate-ephemeral(hyperbolic-disconnected)"
        return "nondegenerate-ephemeral(focus-focus)"
    return "degenerate-ephemeral"
