"""Reference code that only the tests use: numerical and exact oracles, and
the writer side of the coefficient and term round trips."""

from fractions import Fraction

import numpy as np

from ephemera.jets import (
    ChartFunction,
    InvariantPolynomial,
    RationalComplex,
    _coerce,
    c_complex,
    c_is_exact,
)
from ephemera.lattice import DefiningVector


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
