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
from .lattice import DefiningVector, WeightMatrix, defining_vector, properness_check

COND_TOL = 1e-8


@dataclass(frozen=True)
class FamilySystem:
    weights: WeightMatrix
    xi: DefiningVector
    proper: bool
    system: SystemSpec

    @property
    def n(self) -> int:
        return self.weights.n


def build_family(w: WeightMatrix, name: str = "") -> FamilySystem:
    """System (C^n, Phi, Im of the defining monomial) for a weight matrix."""
    xi = defining_vector(w)
    g = InvariantPolynomial.imag_defining_monomial(xi)
    return FamilySystem(
        weights=w,
        xi=xi,
        proper=properness_check(w),
        system=SystemSpec(weights=w.entries, xi=xi, g=g, name=name),
    )


@dataclass(frozen=True)
class PolarPoint:
    r: tuple[float, ...]
    theta: tuple[float, ...]

    def __post_init__(self):
        if any(x < 0 for x in self.r):
            raise ValueError("radii must be nonnegative")
        if len(self.r) != len(self.theta):
            raise ValueError("radius and angle lists must have equal length")

    @property
    def support(self) -> tuple[int, ...]:
        return support_of(self.r)

    def to_complex(self) -> np.ndarray:
        r = np.asarray(self.r, dtype=float)
        th = np.asarray(self.theta, dtype=float)
        return r * np.exp(1j * th)

    @classmethod
    def from_complex(cls, z) -> "PolarPoint":
        z = np.asarray(z, dtype=complex)
        return cls(
            r=tuple(float(x) for x in np.abs(z)),
            theta=tuple(float(x) for x in np.angle(z)),
        )


def eval_polar(sys: FamilySystem, w: PolarPoint) -> tuple[np.ndarray, float]:
    """Moment map and g at a polar point.

    The product-sine form of g applies whenever the exponents vanish on the
    support; otherwise g is evaluated in cartesian coordinates.
    """
    r = np.asarray(w.r, dtype=float)
    phi = np.array(
        [0.5 * sum(row[j] * r[j] ** 2 for j in range(sys.n)) for row in sys.weights.entries]
    )
    xi = sys.xi.xi
    support = set(w.support)
    if all(xi[i] == 0 for i in support):
        others = [j for j in range(sys.n) if j not in support]
        modulus = float(np.prod([r[j] ** abs(xi[j]) for j in others], initial=1.0))
        angle = float(sum(xi[j] * w.theta[j] for j in others))
        g = modulus * np.sin(angle)
    else:
        g = sys.system.g_value(w.to_complex())
    return phi, float(g)


def singularity_conditions(sys: FamilySystem, w: PolarPoint) -> tuple[float, float]:
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
    others = [j for j in range(sys.n) if j not in support]
    c1 = float(np.cos(sum(xi[j] * w.theta[j] for j in others)))
    c2 = float(sum(xi[j] * abs(xi[j]) / w.r[j] ** 2 for j in others))
    return c1, c2


def _check_conditions(sys: FamilySystem, w: PolarPoint) -> tuple[list[int], float]:
    c1, c2 = singularity_conditions(sys, w)
    xi = sys.xi.xi
    others = [j for j in range(sys.n) if j not in set(w.support)]
    scale = sum(abs(xi[j]) ** 2 / w.r[j] ** 2 for j in others)
    if abs(c1) > COND_TOL or abs(c2) > COND_TOL * max(scale, 1.0):
        raise ConditionsNotMet(f"residuals ({c1:.2e}, {c2:.2e}) not within tolerance")
    return others, scale


def family_hessian(sys: FamilySystem, w: PolarPoint) -> np.ndarray:
    """Hessian of g - Phi^mu at a closed-form critical point, polar coords.

    Basis order (theta_j..., r_j...) over the non-vanishing coordinates.
    The angle block is -xi_j xi_k g(w); the radius block is
    |xi_j||xi_k| g(w) / (r_j r_k) minus twice the diagonal |xi_j| g(w)/r_j^2;
    mixed blocks vanish.
    """
    others, _ = _check_conditions(sys, w)
    _, g_w = eval_polar(sys, w)
    xi = sys.xi.xi
    m = len(others)
    out = np.zeros((2 * m, 2 * m))
    for a, j in enumerate(others):
        for b, k in enumerate(others):
            out[a, b] = -xi[j] * xi[k] * g_w
            rr = abs(xi[j]) * abs(xi[k]) / (w.r[j] * w.r[k]) * g_w
            if j == k:
                rr -= 2.0 * abs(xi[j]) / w.r[j] ** 2 * g_w
            out[m + a, m + b] = rr
    return out


def hessian_profile_values(sys: FamilySystem, w: PolarPoint) -> tuple[float, float]:
    """The two diagonal quadratic-form values of the critical Hessian.

    Evaluated on the angle vector (xi_j) and the radius vector (xi_j / r_j);
    closed forms: -(sum xi_j^2)^2 g(w) and -2 (sum xi_j^2 |xi_j| / r_j^4) g(w).
    """
    others, _ = _check_conditions(sys, w)
    hess = family_hessian(sys, w)
    xi = sys.xi.xi
    m = len(others)
    v_theta = np.array([float(xi[j]) for j in others])
    v_r = np.array([xi[j] / w.r[j] for j in others])
    theta_val = float(v_theta @ hess[:m, :m] @ v_theta)
    r_val = float(v_r @ hess[m:, m:] @ v_r)
    return theta_val, r_val


def classify_family_point(sys: FamilySystem, w: PolarPoint) -> str:
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


def support_pattern_point(
    sys: FamilySystem, support, rng, critical: bool = False
) -> PolarPoint:
    """Random point with exact zeros on the given support.

    With critical=True (only sensible off the support of the exponents),
    one angle and one radius are solved so both closed-form residuals
    vanish; requires mixed exponent signs among the free coordinates.
    """
    n = sys.n
    support = sorted(set(support))
    r = [0.0 if i in support else float(rng.uniform(0.5, 2.0)) for i in range(n)]
    theta = [float(rng.uniform(0.0, 2.0 * np.pi)) for _ in range(n)]
    if not critical:
        return PolarPoint(r=tuple(r), theta=tuple(theta))
    xi = sys.xi.xi
    others = [j for j in range(n) if j not in support]
    free = [j for j in others if xi[j] != 0]
    neg = [j for j in free if xi[j] < 0]
    pos = [j for j in free if xi[j] > 0]
    if not neg or not pos:
        raise ValueError("critical points need mixed exponent signs off the support")
    # solve the radial condition for one negative-exponent radius
    j0 = neg[0]
    rest = sum(xi[j] * abs(xi[j]) / r[j] ** 2 for j in free if j != j0)
    if rest <= 0:
        raise ValueError("remaining radial sum must be positive")
    r[j0] = float(abs(xi[j0]) / rest**0.5)
    # solve the angle condition with the last free angle
    k0 = free[-1]
    partial = sum(xi[j] * theta[j] for j in free if j != k0)
    theta[k0] = float((np.pi / 2.0 - partial) / xi[k0])
    return PolarPoint(r=tuple(r), theta=tuple(theta))
