"""Invariant polynomials on a slice, their push-down to the reduced chart,
and the decidable zero-set test on degree-N chart data.

A real-valued invariant polynomial is stored as a sparse map from exponent
pairs (a, b) to coefficients of z^a zbar^b.  Coefficients are Gaussian
rationals (`RationalComplex`) whenever the input is exact, and complex
floats otherwise; predicates run exactly on the rational path and with a
relative tolerance of FLOAT_TOL on the float path.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import (
    NotInvariant,
    NotTall,
    OrderOutOfRange,
    PrerequisiteVanishingFailed,
)
from .lattice import DefiningVector

FLOAT_TOL = 1e-9


@dataclass(frozen=True)
class RationalComplex:
    """Exact complex number with rational real and imaginary parts."""

    re: Fraction
    im: Fraction

    @classmethod
    def of(cls, re, im=0) -> "RationalComplex":
        return cls(Fraction(re), Fraction(im))

    def __add__(self, other):
        other = _coerce(other)
        if isinstance(other, RationalComplex):
            return RationalComplex(self.re + other.re, self.im + other.im)
        return complex(self) + other

    __radd__ = __add__

    def __mul__(self, other):
        other = _coerce(other)
        if isinstance(other, RationalComplex):
            return RationalComplex(
                self.re * other.re - self.im * other.im,
                self.re * other.im + self.im * other.re,
            )
        return complex(self) * other

    __rmul__ = __mul__

    def __neg__(self):
        return RationalComplex(-self.re, -self.im)

    def conjugate(self):
        return RationalComplex(self.re, -self.im)

    def __complex__(self):
        return complex(float(self.re), float(self.im))

    def is_zero(self) -> bool:
        return self.re == 0 and self.im == 0


def _coerce(value):
    if isinstance(value, RationalComplex):
        return value
    if isinstance(value, (int, Fraction)):
        return RationalComplex(Fraction(value), Fraction(0))
    return complex(value)


def c_complex(x) -> complex:
    return complex(_coerce(x))


def c_is_zero(x, scale: float = 1.0) -> bool:
    x = _coerce(x)
    if isinstance(x, RationalComplex):
        return x.is_zero()
    return abs(x) <= FLOAT_TOL * scale


def c_is_exact(x) -> bool:
    return isinstance(_coerce(x), RationalComplex)


ExponentPair = tuple[tuple[int, ...], tuple[int, ...]]


@dataclass(frozen=True)
class InvariantPolynomial:
    """Real-valued sum of c_{a,b} z^a zbar^b, invariant under ker(chi_xi)."""

    terms: dict
    xi: DefiningVector

    def __post_init__(self):
        cleaned = {}
        k = len(self.xi.xi)
        for (a, b), c in self.terms.items():
            a, b = tuple(map(int, a)), tuple(map(int, b))
            if len(a) != k or len(b) != k:
                raise ValueError(f"exponents must have length {k}")
            c = _coerce(c)
            if not c_is_zero(c):
                cleaned[(a, b)] = c
        for (a, b), c in cleaned.items():
            mirror = cleaned.get((b, a))
            defect = c.conjugate() if mirror is None else c.conjugate() + -mirror
            if not c_is_zero(defect, scale=1.0 + abs(c_complex(c))):
                raise ValueError(f"not real-valued: term {(a, b)} lacks conjugate mirror")
        object.__setattr__(self, "terms", cleaned)

    # -- builders ---------------------------------------------------------

    @classmethod
    def hermitian(cls, half_terms: dict, xi: DefiningVector) -> "InvariantPolynomial":
        """Build from one term per conjugate pair; mirrors are filled in."""
        full = {}
        for (a, b), c in half_terms.items():
            a, b = tuple(a), tuple(b)
            c = _coerce(c)
            full[(a, b)] = full.get((a, b), 0) + c
            if a != b:
                full[(b, a)] = full.get((b, a), 0) + c.conjugate()
        return cls(terms=full, xi=xi)

    @classmethod
    def imag_defining_monomial(cls, xi: DefiningVector) -> "InvariantPolynomial":
        """Im(z^{xi+} zbar^{xi-}), the canonical invariant of the model."""
        a = tuple(max(e, 0) for e in xi.xi)
        b = tuple(max(-e, 0) for e in xi.xi)
        return cls.hermitian({(a, b): RationalComplex.of(0, Fraction(-1, 2))}, xi)

    # -- algebra ----------------------------------------------------------

    def __add__(self, other: "InvariantPolynomial") -> "InvariantPolynomial":
        if other.xi != self.xi:
            raise ValueError("mismatched invariance contexts")
        terms = dict(self.terms)
        for key, c in other.terms.items():
            terms[key] = terms.get(key, 0) + c
        return InvariantPolynomial(terms=terms, xi=self.xi)

    def without_constant(self) -> "InvariantPolynomial":
        k = len(self.xi.xi)
        zero = (tuple([0] * k), tuple([0] * k))
        if zero not in self.terms:
            return self
        terms = {key: c for key, c in self.terms.items() if key != zero}
        return InvariantPolynomial(terms=terms, xi=self.xi)

    def degree(self) -> int:
        return max((sum(a) + sum(b) for a, b in self.terms), default=0)

    def coefficient_scale(self) -> float:
        return 1.0 + max((abs(c_complex(c)) for c in self.terms.values()), default=0.0)

    # -- evaluation -------------------------------------------------------

    def eval(self, z) -> float:
        return float(eval_terms(self.terms, z).real)

    def wirtinger(self, j: int, conjugate: bool = False) -> dict:
        """Raw term dict of the derivative with respect to z_j (or zbar_j)."""
        return wirtinger_terms(self.terms, j, conjugate)


def eval_terms(terms: dict, z) -> complex:
    """Value at a point of a raw (not necessarily real) term dict."""
    z = np.asarray(z, dtype=complex)
    total = 0.0 + 0.0j
    for (a, b), c in terms.items():
        mono = c_complex(c)
        for j, e in enumerate(a):
            if e:
                mono *= z[j] ** e
        for j, e in enumerate(b):
            if e:
                mono *= np.conj(z[j]) ** e
        total += mono
    return complex(total)


def wirtinger_terms(terms: dict, j: int, conjugate: bool = False) -> dict:
    """Raw term dict of the derivative of a raw term dict by z_j (or zbar_j)."""
    out: dict = {}
    for (a, b), c in terms.items():
        exps = b if conjugate else a
        if exps[j] == 0:
            continue
        new = list(exps)
        new[j] -= 1
        key = (a, tuple(new)) if conjugate else (tuple(new), b)
        out[key] = out.get(key, 0) + c * exps[j]
    return out


def invariance_defect(p: InvariantPolynomial):
    """First term outside the invariant lattice, or None."""
    xi = p.xi.xi
    for (a, b) in p.terms:
        diff = [x - y for x, y in zip(a, b)]
        k = None
        for d, e in zip(diff, xi):
            if e != 0:
                if d % e != 0:
                    return (a, b)
                q = d // e
                if k is None:
                    k = q
                elif q != k:
                    return (a, b)
        if k is None:
            k = 0
        if any(d != k * e for d, e in zip(diff, xi)):
            return (a, b)
    return None


def check_invariance(p: InvariantPolynomial) -> bool:
    """True iff every exponent difference a - b is an integer multiple of xi."""
    return invariance_defect(p) is None


@dataclass(frozen=True)
class ChartFunction:
    """Push-down of an invariant polynomial to the reduced chart C.

    Stored as a map (k, d) -> coefficient of u^k * tau^d, with
    tau = (|u|^2 / prod xi_j^xi_j)^(1/N) and u^k meaning ubar^|k| for k < 0.
    """

    terms: dict
    xi: DefiningVector

    @property
    def degree_N(self) -> int:
        return self.xi.degree_N

    def is_zero(self, scale: float = 1.0) -> bool:
        return all(c_is_zero(c, scale) for c in self.terms.values())


def reduced_taylor(p: InvariantPolynomial, order: int) -> ChartFunction:
    """Truncate to total degree <= order and push down to the chart.

    Each invariant monomial z^a zbar^b with a - b = k xi and componentwise
    minimum m evaluates on the zero level to
    (prod xi_j^m_j) * tau^|m| * u^k.
    """
    if not p.xi.tall or any(e < 0 for e in p.xi.xi):
        raise NotTall(f"chart reduction needs xi >= 0, got {p.xi.xi}")
    defect = invariance_defect(p)
    if defect is not None:
        raise NotInvariant(f"term {defect} is outside the invariant lattice")
    xi = p.xi.xi
    out: dict = {}
    for (a, b), c in p.terms.items():
        if sum(a) + sum(b) > order:
            continue
        m = tuple(min(x, y) for x, y in zip(a, b))
        diff = [x - y for x, y in zip(a, b)]
        k = 0
        for d, e in zip(diff, xi):
            if e != 0:
                k = d // e
                break
        factor = 1
        for e, mj in zip(xi, m):
            factor *= e**mj
        key = (k, sum(m))
        out[key] = out.get(key, 0) + c * factor
    out = {key: c for key, c in out.items() if not c_is_zero(c)}
    return ChartFunction(terms=out, xi=p.xi)


def vanishes_below_order_mod_phi(p: InvariantPolynomial, order: int) -> bool:
    """Whether p lies in the moment-map ideal up to terms of degree >= order.

    Decided through the chart: the truncation to degree order - 1 pushes
    down to zero exactly when every collected pure-modulus coefficient sum
    vanishes.  The constant term is normalized away first.
    """
    n = p.xi.degree_N
    if not (0 < order <= n):
        raise OrderOutOfRange(f"need 0 < order <= {n}, got {order}")
    if not p.xi.tall:
        raise NotTall(f"{p.xi.xi} is not tall")
    reduced = reduced_taylor(p.without_constant(), order - 1)
    return reduced.is_zero(scale=p.coefficient_scale())


@dataclass(frozen=True)
class ChartJet:
    """Degree-N chart data A*Re(u) + B*Im(u) + D*|u|."""

    A: float
    B: float
    D: float
    degree: int
    exact: tuple | None = None  # (A, B, D^2) as Fractions when available

    def margin(self) -> float:
        return self.A**2 + self.B**2 - self.D**2

    def is_marginal(self) -> bool:
        if self.exact is not None:
            return False
        scale = self.A**2 + self.B**2 + self.D**2
        return abs(self.margin()) <= FLOAT_TOL * scale


def chart_jet(p: InvariantPolynomial) -> ChartJet:
    """Degree-N reduced chart coefficients of a polynomial vanishing below N.

    Raises PrerequisiteVanishingFailed unless vanishes_below_order_mod_phi
    holds at N; the jet is then read off the degree-N push-down: u (with
    its conjugate mirror) and |u| are its only terms of degree N.
    """
    n = p.xi.degree_N
    if not vanishes_below_order_mod_phi(p, n):
        raise PrerequisiteVanishingFailed(
            "reduced truncation below the model degree does not vanish"
        )
    reduced = reduced_taylor(p.without_constant(), n)
    c_plus = reduced.terms.get((1, 0), 0)
    s_mod = reduced.terms.get((0, n // 2), 0) if n % 2 == 0 else 0
    a = 2.0 * c_complex(c_plus).real
    b = -2.0 * c_complex(c_plus).imag
    # D = Re(s_mod) / sqrt(q); exact even powers of two keep a huge q finite
    q = p.xi.q
    e = max(q.bit_length() - 1000, 0) & ~1
    d_val = math.ldexp(c_complex(s_mod).real / math.sqrt(float(q >> e)), -e // 2)
    exact = None
    if c_is_exact(c_plus) and c_is_exact(s_mod):
        cp = _coerce(c_plus)
        sm = _coerce(s_mod)
        exact = (2 * cp.re, -2 * cp.im, sm.re**2 / Fraction(p.xi.q))
    return ChartJet(A=a, B=b, D=d_val, degree=n, exact=exact)


def ephemeral_zero_set_test(jet: ChartJet) -> bool:
    """Whether the zero set of the degree-N chart function is a line.

    In polar coordinates A*Re(u)+B*Im(u)+D*|u| vanishes on r = 0 together
    with the angles solving A cos + B sin = -D; two rays (a line) appear
    exactly when A^2 + B^2 > D^2 strictly.
    """
    if jet.exact is not None:
        a, b, d2 = jet.exact
        return a * a + b * b > d2
    return jet.margin() > 0.0


def slice_restriction(
    p: InvariantPolynomial,
    point,
    support,
    xi_restricted: DefiningVector,
    max_degree: int | None = None,
) -> InvariantPolynomial:
    """Taylor data of p at a point, restricted to the vanishing coordinates.

    Every monomial splits as (coordinates on the support) x (the rest
    evaluated at the base point); the result is a polynomial on the slice,
    invariant for the restricted exponent vector.  Coefficients become
    complex floats unless the base point is exactly zero off-support.
    """
    point = np.asarray(point, dtype=complex)
    support = sorted(set(support))
    others = [j for j in range(len(point)) if j not in support]
    terms: dict = {}
    for (a, b), c in p.terms.items():
        deg = sum(a[i] + b[i] for i in support)
        if max_degree is not None and deg > max_degree:
            continue
        factor = 1.0 + 0.0j
        ok = True
        for j in others:
            if a[j]:
                if point[j] == 0:
                    ok = False
                    break
                factor *= point[j] ** a[j]
            if b[j]:
                if point[j] == 0:
                    ok = False
                    break
                factor *= np.conj(point[j]) ** b[j]
        if not ok:
            continue
        key = (
            tuple(a[i] for i in support),
            tuple(b[i] for i in support),
        )
        add = c if factor == 1.0 + 0.0j else c * complex(factor)
        terms[key] = terms.get(key, 0) + add
    return InvariantPolynomial(terms=terms, xi=xi_restricted)
