"""Invariant polynomials, chart reduction, and the zero-set predicate."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ephemera.errors import NotInvariant, OrderOutOfRange, PrerequisiteVanishingFailed
from ephemera.jets import (
    ChartJet,
    InvariantPolynomial,
    RationalComplex,
    chart_jet,
    check_invariance,
    ephemeral_zero_set_test,
    reduced_taylor,
    slice_restriction,
    vanishes_below_order_mod_phi,
)
from ephemera.lattice import DefiningVector
from oracle_helpers import (
    chart_eval,
    count_zero_rays,
    pullback_rotation,
    radius_power,
    real_defining_monomial,
    scale,
)

XI_11 = DefiningVector.from_entries((1, 1))
XI_21 = DefiningVector.from_entries((2, 1))
XI_N = {n: DefiningVector.from_entries((n,)) for n in range(2, 7)}


def imag_z1z2():
    return InvariantPolynomial.imag_defining_monomial(XI_11)


def test_rational_complex_arithmetic():
    a = RationalComplex.of(Fraction(1, 2), Fraction(-1, 3))
    b = RationalComplex.of(2, 1)
    assert (a + b) == RationalComplex.of(Fraction(5, 2), Fraction(2, 3))
    assert (a * b) == RationalComplex.of(
        Fraction(1, 2) * 2 + Fraction(1, 3), Fraction(1, 2) - Fraction(2, 3)
    )
    assert a.conjugate().im == Fraction(1, 3)
    assert complex(a) == complex(0.5, -1 / 3)


def test_reality_enforced():
    with pytest.raises(ValueError):
        InvariantPolynomial(
            terms={((1, 0), (0, 0)): RationalComplex.of(1)}, xi=XI_11
        )
    # diagonal terms must be real
    with pytest.raises(ValueError):
        InvariantPolynomial(
            terms={((1, 0), (1, 0)): RationalComplex.of(0, 1)}, xi=XI_11
        )


def test_check_invariance_examples():
    assert check_invariance(imag_z1z2()) is True
    sq = radius_power(XI_11, 1)
    assert check_invariance(sq) is True
    re_z1 = InvariantPolynomial.hermitian(
        {((1, 0), (0, 0)): RationalComplex.of(Fraction(1, 2))}, XI_11
    )
    assert check_invariance(re_z1) is False


def test_polynomial_evaluation():
    p = imag_z1z2()
    assert p.eval([2.0, 3.0j]) == pytest.approx(6.0)
    assert p.eval([1 + 1j, 1 - 1j]) == pytest.approx(0.0)
    sq = radius_power(XI_11, 2)
    assert sq.eval([1.0, 2.0]) == pytest.approx(25.0)


def test_reduced_taylor_of_imag_monomial_is_imag_u():
    for xi in (XI_11, XI_21, XI_N[3]):
        p = InvariantPolynomial.imag_defining_monomial(xi)
        fn = reduced_taylor(p, xi.degree_N)
        for u in (1.0, 1j, 0.3 - 0.7j, -2.0 + 0.1j):
            assert chart_eval(fn, u) == pytest.approx(u.imag, abs=1e-12)


def test_reduced_taylor_truncation():
    p = radius_power(XI_11, 2)  # degree 4
    assert reduced_taylor(p, 3).is_zero()


def test_reduced_taylor_radius_is_scaled_modulus():
    p = radius_power(XI_11, 1)
    fn = reduced_taylor(p, 2)
    for u in (1.0, 2j, 0.5 - 0.5j):
        assert chart_eval(fn, u) == pytest.approx(2.0 * abs(u))


def test_vanishing_examples():
    for xi in (XI_11, XI_21, XI_N[2], XI_N[5]):
        p = InvariantPolynomial.imag_defining_monomial(xi)
        assert vanishes_below_order_mod_phi(p, xi.degree_N) is True
    # |z1|^2 - |z2|^2 is twice the moment map for xi=(1,1): in the ideal
    diff = InvariantPolynomial.hermitian(
        {
            ((1, 0), (1, 0)): RationalComplex.of(1),
            ((0, 1), (0, 1)): RationalComplex.of(-1),
        },
        XI_11,
    )
    assert vanishes_below_order_mod_phi(diff, 2) is True
    # |z|^2 is quadratic, so it vanishes below order 2 outright; its modulus
    # content shows up in the degree-2 chart slot instead
    total = radius_power(XI_11, 1)
    assert vanishes_below_order_mod_phi(total, 2) is True
    jet = chart_jet(total)
    assert (jet.A, jet.B) == (0.0, 0.0)
    assert jet.D == pytest.approx(2.0)
    # a quadratic modulus term below the model degree does obstruct vanishing
    low = InvariantPolynomial.imag_defining_monomial(XI_21) + (
        InvariantPolynomial.hermitian({((1, 0), (1, 0)): RationalComplex.of(1)}, XI_21)
    )
    assert vanishes_below_order_mod_phi(low, 3) is False


def test_vanishing_order_one_always_true():
    # degree-0 data is normalized away, so the order-1 condition is empty
    p = InvariantPolynomial.hermitian(
        {((0, 0), (0, 0)): RationalComplex.of(7)}, XI_11
    ) + InvariantPolynomial.imag_defining_monomial(XI_11)
    assert vanishes_below_order_mod_phi(p, 1) is True


def test_vanishing_order_range():
    p = imag_z1z2()
    with pytest.raises(OrderOutOfRange):
        vanishes_below_order_mod_phi(p, 0)
    with pytest.raises(OrderOutOfRange):
        vanishes_below_order_mod_phi(p, 3)


def test_chart_jet_examples():
    jet = chart_jet(imag_z1z2())
    assert (jet.A, jet.B, jet.D) == (0.0, 1.0, 0.0)
    jet = chart_jet(real_defining_monomial(XI_11))
    assert (jet.A, jet.B, jet.D) == (1.0, 0.0, 0.0)
    # adding eps * |z|^2 at degree N=2 contributes 2*eps to the modulus slot
    mixed = imag_z1z2() + scale(radius_power(XI_11, 1), Fraction(1, 10))
    jet = chart_jet(mixed)
    assert jet.A == pytest.approx(0.0)
    assert jet.B == pytest.approx(1.0)
    assert jet.D == pytest.approx(0.2)
    assert jet.exact is not None


def test_chart_jet_modulus_slot_when_q_overflows_a_float():
    # xi = (200, 2): q = 200^200 * 2^2 is beyond a float, sqrt(q) and D are
    # not; D = Re(s_mod) / sqrt(q) must agree with the exact D^2 = s_mod^2 / q
    xi = DefiningVector.from_entries((200, 2))
    assert xi.q > 2**1100
    p = InvariantPolynomial.imag_defining_monomial(xi) + radius_power(xi, 101)
    jet = chart_jet(p)
    assert (jet.A, jet.B, jet.degree) == (0.0, 1.0, 202)
    assert jet.D > 0 and jet.D == pytest.approx(math.sqrt(jet.exact[2]), rel=1e-14)


def test_chart_jet_requires_vanishing():
    p = InvariantPolynomial.imag_defining_monomial(XI_21) + (
        InvariantPolynomial.hermitian({((1, 0), (1, 0)): RationalComplex.of(1)}, XI_21)
    )
    with pytest.raises(PrerequisiteVanishingFailed):
        chart_jet(p)


def test_chart_jet_rejects_noninvariant():
    p = InvariantPolynomial.hermitian(
        {((1, 0), (0, 0)): RationalComplex.of(1)}, XI_11
    )
    with pytest.raises(NotInvariant):
        reduced_taylor(p, 2)


def test_zero_set_predicate():
    assert ephemeral_zero_set_test(ChartJet(0, 1, 0, 2)) is True
    assert ephemeral_zero_set_test(ChartJet(0, 0, 0.5, 2)) is False
    assert ephemeral_zero_set_test(ChartJet(0, 1, 0.2, 2)) is True
    assert ephemeral_zero_set_test(ChartJet(0, 1, 1.5, 2)) is False
    # exact boundary case is decidable on the rational path
    boundary = ChartJet(0, 1, 1, 2, exact=(Fraction(0), Fraction(1), Fraction(1)))
    assert ephemeral_zero_set_test(boundary) is False


def test_zero_ray_oracle_agrees_with_predicate():
    cases = [
        imag_z1z2(),
        InvariantPolynomial.imag_defining_monomial(XI_21),
        InvariantPolynomial.imag_defining_monomial(XI_N[4]),
        imag_z1z2() + scale(radius_power(XI_11, 1), Fraction(1, 10)),
        radius_power(XI_11, 1),
        imag_z1z2() + scale(radius_power(XI_11, 1), Fraction(3, 4)),
    ]
    for p in cases:
        n = p.xi.degree_N
        if not vanishes_below_order_mod_phi(p, n):
            continue
        jet = chart_jet(p)
        fn = reduced_taylor(p.without_constant(), n)
        rays = count_zero_rays(fn)
        if ephemeral_zero_set_test(jet):
            assert rays == 2, (jet, rays)
        else:
            assert rays <= 1, (jet, rays)


def test_rotation_invariance_of_margin():
    rng = np.random.default_rng(6)
    for p in (imag_z1z2(), InvariantPolynomial.imag_defining_monomial(XI_21)):
        base = chart_jet(p)
        base_margin = base.margin()
        verdict = ephemeral_zero_set_test(base)
        for _ in range(100):
            angles = rng.uniform(0, 2 * np.pi, size=len(p.xi.xi))
            rotated = pullback_rotation(p, angles)
            jet = chart_jet(rotated)
            assert abs(jet.margin() - base_margin) <= 1e-12
            assert jet.D == pytest.approx(base.D, abs=1e-12)
            assert ephemeral_zero_set_test(jet) == verdict
            # (A, B) rotates by the monomial's value on the torus element
            phase = np.exp(1j * float(np.dot(p.xi.xi, angles)))
            target = (base.A + 1j * base.B) * np.conj(phase)
            assert jet.A + 1j * jet.B == pytest.approx(target, abs=1e-12)


_TALL_XI = st.lists(st.integers(0, 4), min_size=1, max_size=3).filter(any)
_SMALL_RATIONALS = st.fractions(min_value=-2, max_value=2, max_denominator=8)


@settings(derandomize=True, max_examples=200, deadline=None)
@given(entries=_TALL_XI, real=_SMALL_RATIONALS, radial=_SMALL_RATIONALS, data=st.data())
def test_rotation_invariance_of_margin_on_generated_models(entries, real, radial, data):
    # a coordinate rotation turns (A, B) and keeps D, so the margin moves
    # only by rounding and the verdict holds wherever the float jet is not
    # marginal; the radial term reaches the degree-N jet only for even N
    xi = DefiningVector.from_entries(entries)
    n = xi.degree_N
    p = InvariantPolynomial.imag_defining_monomial(xi) + scale(real_defining_monomial(xi), real)
    if n % 2 == 0:
        p = p + scale(radius_power(xi, n // 2), radial)
    base = chart_jet(p)
    angles = data.draw(
        st.lists(st.floats(0.0, 2.0 * math.pi), min_size=len(entries), max_size=len(entries))
    )
    jet = chart_jet(pullback_rotation(p, angles))
    size = base.A**2 + base.B**2 + base.D**2
    assert abs(jet.margin() - base.margin()) <= 1e-12 * size, (jet, base)
    if not jet.is_marginal():
        assert ephemeral_zero_set_test(jet) == ephemeral_zero_set_test(base), (jet, base)


def test_reduced_taylor_equals_zero_level_evaluation():
    # the chart push-down is evaluation on the zero level: for sampled z
    # there, p(z) must equal the chart function at u = P(z)
    from ephemera.localmodel import defining_poly_eval, sample_zero_level

    cases = [
        InvariantPolynomial.imag_defining_monomial(XI_11),
        InvariantPolynomial.imag_defining_monomial(XI_21),
        radius_power(XI_21, 2),
        InvariantPolynomial.imag_defining_monomial(XI_11)
        + scale(radius_power(XI_11, 2), Fraction(2, 7)),
        InvariantPolynomial.hermitian(
            {
                ((1, 0), (1, 0)): RationalComplex.of(Fraction(3, 4)),
                ((2, 1), (1, 0)): RationalComplex.of(Fraction(1, 5), Fraction(-1, 3)),
            },
            XI_11,
        ),
    ]
    for p in cases:
        assert check_invariance(p)
        fn = reduced_taylor(p, p.degree())
        z = sample_zero_level(p.xi, 200, seed=3)
        for zk in z:
            u = defining_poly_eval(p.xi, zk)
            direct = p.eval(zk)
            assert chart_eval(fn, complex(u)) == pytest.approx(direct, rel=1e-9, abs=1e-9)


def test_marginal_band_on_float_path():
    # the boundary case is exactly decidable with rational coefficients but
    # flagged as marginal once rotations push it onto the float path
    boundary = imag_z1z2() + scale(radius_power(XI_11, 1), Fraction(1, 2))
    jet = chart_jet(boundary)
    assert jet.exact is not None
    assert ephemeral_zero_set_test(jet) is False
    assert jet.is_marginal() is False
    rotated = chart_jet(pullback_rotation(boundary, [0.37, 1.21]))
    assert rotated.exact is None
    assert rotated.is_marginal() is True
    clear = chart_jet(pullback_rotation(imag_z1z2(), [0.37, 1.21]))
    assert clear.is_marginal() is False
    assert ephemeral_zero_set_test(clear) is True


def test_slice_restriction_matches_direct_expansion():
    # restrict Im(z1 z2 zbar3) to the first two coordinates at w3 = 1 and i
    xi = DefiningVector.from_entries((1, 1, -1))
    p = InvariantPolynomial.imag_defining_monomial(xi)
    sub = DefiningVector.from_entries((1, 1))
    at_one = slice_restriction(p, [0, 0, 1.0], (0, 1), sub)
    for z in ([1.0, 2.0], [1j, 0.5], [0.3 + 0.4j, -1.0]):
        full = p.eval([z[0], z[1], 1.0])
        assert at_one.eval(z) == pytest.approx(full)
    at_i = slice_restriction(p, [0, 0, 1j], (0, 1), sub)
    for z in ([1.0, 2.0], [1j, 0.5]):
        full = p.eval([z[0], z[1], 1j])
        assert at_i.eval(z) == pytest.approx(full)
        # prefactor conj(i) turns the imaginary part into -Re(z1 z2)
        assert at_i.eval(z) == pytest.approx(-(z[0] * z[1]).real)


def test_serialization_roundtrip_via_eval():
    p = imag_z1z2() + scale(radius_power(XI_11, 1), Fraction(1, 3))
    clone = InvariantPolynomial(terms=dict(p.terms), xi=p.xi)
    rng = np.random.default_rng(8)
    for _ in range(10):
        z = rng.normal(size=2) + 1j * rng.normal(size=2)
        assert clone.eval(z) == pytest.approx(p.eval(z))
