"""Reference code that only the tests use: numerical and exact oracles,
seeded test points and polynomials, and the writer side of the coefficient
and term round trips."""

import functools
import json
import math
from dataclasses import dataclass
from fractions import Fraction
from importlib import resources

import jsonschema
import numpy as np
from jsonschema.exceptions import best_match

from ephemera.classifier import SystemSpec
from ephemera.family import PolarPoint, _check_conditions, eval_polar
from ephemera.jets import (
    ChartFunction,
    InvariantPolynomial,
    RationalComplex,
    _coerce,
    c_complex,
    c_is_exact,
)
from ephemera.lattice import DefiningVector, WeightMatrix


def gbar(chart, t, psi) -> np.ndarray:
    """The reduced function R(t) sin(psi) of a fiber-scan chart."""
    return chart.radius_profile(t) * np.sin(np.asarray(psi, dtype=float))


def fourier_motzkin_proper(w: WeightMatrix) -> bool:
    """Whether some covector pairs strictly positively with every weight.

    Decided exactly, independently of the kernel vector: Fourier-Motzkin
    elimination over the rationals on the system <eta_j, v> >= 1 (scale
    invariance makes strict feasibility and this system equivalent).
    """
    # constraints sum_a c[a] v[a] >= rhs, one per weight (column of w)
    cons = [([Fraction(x) for x in col], Fraction(1)) for col in zip(*w.entries)]
    for a in range(w.torus_dim):
        pos = [c for c in cons if c[0][a] > 0]
        neg = [c for c in cons if c[0][a] < 0]
        new = [c for c in cons if c[0][a] == 0]
        for cp, rp in pos:
            for cn, rn in neg:
                # eliminate v[a] between cp (positive coeff) and cn (negative)
                scale_p = -cn[a]
                scale_n = cp[a]
                coeffs = [scale_p * x + scale_n * y for x, y in zip(cp, cn)]
                new.append((coeffs, scale_p * rp + scale_n * rn))
        cons = new
    return all(rhs <= 0 for _, rhs in cons)


def _compositions(total: int, parts: int):
    if parts == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in _compositions(total - first, parts - 1):
            yield (first,) + rest


def radius_power(xi: DefiningVector, m: int) -> InvariantPolynomial:
    """(|z|^2)^m expanded multinomially into z^alpha zbar^alpha terms."""
    terms = {}
    for alpha in _compositions(m, len(xi.xi)):
        coeff = Fraction(math.factorial(m))
        for e in alpha:
            coeff /= math.factorial(e)
        terms[(alpha, alpha)] = RationalComplex.of(coeff, 0)
    return InvariantPolynomial(terms=terms, xi=xi)


def scale(p: InvariantPolynomial, factor) -> InvariantPolynomial:
    """p times a real factor, exact for int and Fraction factors."""
    if isinstance(factor, (int, Fraction)):
        factor = RationalComplex.of(factor)
    elif not isinstance(factor, RationalComplex):
        factor = complex(factor)
        if factor.imag != 0:
            raise ValueError("scaling a real polynomial needs a real factor")
    return InvariantPolynomial(terms={k: c * factor for k, c in p.terms.items()}, xi=p.xi)


def pullback_rotation(p: InvariantPolynomial, angles) -> InvariantPolynomial:
    """Precompose p with the coordinatewise rotation z -> lambda * z."""
    angles = np.asarray(angles, dtype=float)
    terms = {}
    for (a, b), c in p.terms.items():
        phase = np.exp(1j * float(np.dot(np.subtract(a, b), angles)))
        terms[(a, b)] = c_complex(c) * phase
    return InvariantPolynomial(terms=terms, xi=p.xi)


@dataclass(frozen=True)
class ModelPoint:
    """Representative [1, alpha, z] of a model point."""

    alpha: tuple[float, ...]
    z: tuple[complex, ...]


def phi_Y(model: SystemSpec, pt: ModelPoint) -> np.ndarray:
    """Moment map alpha + phi_H(z) of a slice system, in the fixed splitting."""
    return np.concatenate([np.asarray(pt.alpha, dtype=float), model.phi(pt.z)])


def family_hessian(sys: SystemSpec, w: PolarPoint) -> np.ndarray:
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


def bisection_profile_root(chart) -> float:
    """The profile maximum of a family chart by plain bisection.

    Bisects [0, 1] on the exact sign of L(t) = sum |xi_j| (s1_j - s0_j) / s_j(t)
    until the midpoint stops moving, one integer sign test per step (about
    53); ReducedSurfaceChart.profile_critical_points must return this float.
    """
    moving = [(abs(e), a, b - a) for e, a, b in zip(chart.xi, chart.s_start, chart.s_end) if e]
    den = math.lcm(*(x.denominator for _, a, b in moving for x in (a, b)))
    terms = [(k, int(a * den), int(b * den)) for k, a, b in moving]

    def slope(t: float) -> int:
        p, q = t.as_integer_ratio()
        s = [a * q + b * p for _, a, b in terms]
        return sum(k * b * math.prod(s[:j] + s[j + 1:]) for j, (k, _, b) in enumerate(terms))

    lo, hi, mid = 0.0, 1.0, 0.5
    while mid not in (lo, hi):
        value = slope(mid)
        if value == 0:
            break
        lo, hi = (mid, hi) if value > 0 else (lo, mid)
        mid = 0.5 * (lo + hi)
    return mid


def hessian_profile_values(sys: SystemSpec, w: PolarPoint) -> tuple[float, float]:
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


def support_pattern_point(
    sys: SystemSpec, support, rng, critical: bool = False
) -> PolarPoint:
    """Random point with exact zeros on the given support.

    With critical=True (only sensible off the support of the exponents),
    one angle and one radius are solved so both closed-form residuals
    vanish; requires mixed exponent signs among the free coordinates.
    """
    n = sys.coords
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


@functools.cache
def schema_validator(name: str):
    """A validator for a shipped schema; the program itself uses none."""
    with resources.files("ephemera").joinpath("schemas").joinpath(name).open() as fh:
        schema = json.load(fh)
    return jsonschema.validators.validator_for(schema)(schema)


def validate_report_bundle(data: dict) -> None:
    """Raise the most relevant violation of the shipped report-bundle schema."""
    error = best_match(schema_validator("report_bundle.schema.json").iter_errors(data))
    if error is not None:
        raise error


def real_defining_monomial(xi: DefiningVector) -> InvariantPolynomial:
    """Re(z^{xi+} zbar^{xi-})."""
    a = tuple(max(e, 0) for e in xi.xi)
    b = tuple(max(-e, 0) for e in xi.xi)
    return InvariantPolynomial.hermitian({(a, b): RationalComplex.of(Fraction(1, 2), 0)}, xi)


def chart_eval(fn: ChartFunction, u: complex) -> float:
    """Value of a chart function at u, with tau = (|u|^2 / q)^(1/N)."""
    q = float(fn.xi.q)
    n = fn.degree_N
    tau = (abs(u) ** 2 / q) ** (1.0 / n) if u != 0 else 0.0
    total = 0.0 + 0.0j
    for (k, d), c in fn.terms.items():
        base = u**k if k >= 0 else np.conj(u) ** (-k)
        total += c_complex(c) * base * tau**d
    return float(total.real)


def count_zero_rays(fn: ChartFunction, n_angles: int = 256, n_radii: int = 64) -> int:
    """Numerical ray count of the zero set on a polar grid."""
    radii = np.linspace(0.1, 2.0, n_radii)
    values = np.empty((n_angles, n_radii))
    for i in range(n_angles):
        theta = 2 * np.pi * i / n_angles
        for j, r in enumerate(radii):
            values[i, j] = chart_eval(fn, r * np.exp(1j * theta))
    scale = np.abs(values).max() or 1.0
    ray = np.all(np.abs(values) <= 1e-7 * scale, axis=1)
    crossing = np.zeros(n_angles, dtype=bool)
    for i in range(n_angles):
        prev = values[(i - 1) % n_angles]
        if not ray[i] and not ray[(i - 1) % n_angles]:
            crossing[i] = np.all(prev * values[i] < 0)
    return int(ray.sum() + crossing.sum())


def mat_mul(a, b) -> tuple[tuple[int, ...], ...]:
    bt = list(zip(*b)) if b else []
    return tuple(tuple(int(sum(x * y for x, y in zip(row, col))) for col in bt) for row in a)


def mat_det(a) -> int:
    """Determinant of a square integer matrix (fraction-free Bareiss)."""
    n = len(a)
    if n == 0:
        return 1
    m = [list(row) for row in a]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            for i in range(k + 1, n):
                if m[i][k] != 0:
                    m[k], m[i] = m[i], m[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
        prev = m[k][k]
    return sign * m[n - 1][n - 1]


def format_coefficient(c) -> str:
    """Coefficient string that serial.parse_coefficient reads back."""
    if c_is_exact(c):
        c = _coerce(c)
        if c.im == 0:
            return str(c.re)
        im = f"{c.im}i" if c.im < 0 or c.re == 0 else f"+{c.im}i"
        re_part = str(c.re) if c.re != 0 else ""
        return f"{re_part}{im}"
    z = c_complex(c)
    return f"~{z.real!r},{z.imag!r}"


def polynomial_to_terms(p: InvariantPolynomial) -> list[dict]:
    """The spec's g_terms list of a polynomial, read back by serial.polynomial_from_terms."""
    return [
        {"a": list(a), "b": list(b), "c": format_coefficient(p.terms[(a, b)])}
        for (a, b) in sorted(p.terms)
    ]
