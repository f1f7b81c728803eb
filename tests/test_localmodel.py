"""Local models: moment maps, defining monomial, reduced-chart scale."""

import numpy as np
import pytest

from ephemera.classifier import local_model_system
from ephemera.errors import NotTall
from ephemera.lattice import DefiningVector, slice_weights_from_xi
from ephemera.localmodel import (
    defining_poly_eval,
    reduced_chart_constant,
    sample_zero_level,
)
from oracle_helpers import ModelPoint, phi_Y

CATALOG_XI = [(2,), (1, 1), (2, 1), (3, 1, 2)]


def test_slice_weights_of_models():
    def weights(entries):
        return slice_weights_from_xi(DefiningVector.from_entries(entries))

    assert weights((1, 1)) == ((1,), (-1,))
    assert weights((2, 1)) == ((1,), (-2,))
    assert weights((4,)) == ((),)


def test_phi_h_examples():
    # phi_H of a model is the moment map of its slice system
    m = local_model_system((1, 1))
    assert np.allclose(m.phi([0, 0]), 0.0)
    for a in (0.3, 1.7, 5.0):
        assert np.allclose(m.phi([a, a]), 0.0)
    m = local_model_system((2, 1))
    assert np.allclose(m.phi([np.sqrt(2), 1.0]), 0.0)
    assert m.phi([1.0, 0.0]) == pytest.approx(0.5)


def test_phi_y_examples():
    m = local_model_system((1, 1))
    assert np.allclose(phi_Y(m, ModelPoint(alpha=(), z=(0, 0))), 0.0)
    out = phi_Y(m, ModelPoint(alpha=(0.7, -0.2), z=(0, 0)))
    assert np.allclose(out, [0.7, -0.2, 0.0])
    out = phi_Y(m, ModelPoint(alpha=(0.0,), z=(1.0, 0.0)))
    assert np.allclose(out, [0.0, 0.5])


def test_defining_poly_examples():
    xi = DefiningVector.from_entries((5,))
    z = 1.3 - 0.4j
    assert defining_poly_eval(xi, [z]) == pytest.approx(z**5)
    xi = DefiningVector.from_entries((1, 1))
    assert defining_poly_eval(xi, [2, 3j]) == pytest.approx(6j)
    xi = DefiningVector.from_entries((2, 1))
    assert defining_poly_eval(xi, [1 + 1j, 1]) == pytest.approx(2j)


def test_homogeneity():
    rng = np.random.default_rng(4)
    for entries in CATALOG_XI:
        m = local_model_system(entries)
        n = m.xi.degree_N
        for _ in range(20):
            z = rng.normal(size=m.coords) + 1j * rng.normal(size=m.coords)
            s = float(rng.uniform(0.2, 3.0))
            lhs = m.phi(s * z)
            rhs = s**2 * m.phi(z)
            assert np.allclose(lhs, rhs, rtol=1e-12, atol=1e-12)
            pl = defining_poly_eval(m.xi, s * z)
            pr = s**n * defining_poly_eval(m.xi, z)
            assert abs(pl - pr) <= 1e-12 * (abs(pl) + 1)


@pytest.mark.parametrize("entries", CATALOG_XI)
def test_sampler_stays_on_zero_level(entries):
    m = local_model_system(entries)
    z = sample_zero_level(m.xi, 500, seed=7)
    levels = m.phi(z)
    norms = 1.0 + np.sum(np.abs(z) ** 2, axis=1)
    assert np.all(np.max(np.abs(levels), axis=-1, initial=0.0) <= 1e-12 * norms)
    # deterministic per seed
    z2 = sample_zero_level(m.xi, 500, seed=7)
    assert np.array_equal(z, z2)
    assert not np.array_equal(z, sample_zero_level(m.xi, 500, seed=8))


def test_sampler_rejects_mixed_signs():
    with pytest.raises(NotTall):
        sample_zero_level(DefiningVector.restriction((1, -1)), 10, seed=0)


def test_chart_constant_closed_forms():
    assert reduced_chart_constant(DefiningVector.from_entries((3,))) == pytest.approx(1.0)
    assert reduced_chart_constant(DefiningVector.from_entries((1, 1))) == pytest.approx(2.0)
    assert reduced_chart_constant(DefiningVector.from_entries((2, 1))) == pytest.approx(
        3.0 * 4.0 ** (-1.0 / 3.0)
    )


@pytest.mark.parametrize("entries", CATALOG_XI)
def test_chart_constant_against_samples(entries):
    # |z|^2 / |P(z)|^(2/N) is constant on the zero level and equals C
    xi = DefiningVector.from_entries(entries)
    c = reduced_chart_constant(xi)
    z = sample_zero_level(xi, 10_000, seed=11)
    norm_sq = np.sum(np.abs(z) ** 2, axis=1)
    p = np.abs(defining_poly_eval(xi, z)) ** (2.0 / xi.degree_N)
    rel = np.abs(norm_sq - c * p) / norm_sq
    assert float(rel.max()) <= 1e-9


def test_chart_injectivity_invariants():
    # P(z) = P(z') on the zero level iff tau and the angle sum agree
    xi = DefiningVector.from_entries((2, 1))
    rng = np.random.default_rng(5)
    for _ in range(200):
        tau = float(rng.uniform(0.5, 2.0))
        th = rng.uniform(0, 2 * np.pi, size=2)
        th2 = rng.uniform(0, 2 * np.pi, size=2)
        z = np.sqrt(tau * np.array([2.0, 1.0])) * np.exp(1j * th)
        z2 = np.sqrt(tau * np.array([2.0, 1.0])) * np.exp(1j * th2)
        p1 = defining_poly_eval(xi, z)
        p2 = defining_poly_eval(xi, z2)
        same_angle = np.isclose(
            np.exp(1j * (2 * th[0] + th[1])), np.exp(1j * (2 * th2[0] + th2[1]))
        )
        assert np.isclose(p1, p2) == same_angle
    # different tau separates moduli
    z = np.sqrt(1.0 * np.array([2.0, 1.0]))
    z2 = np.sqrt(1.5 * np.array([2.0, 1.0]))
    assert not np.isclose(
        abs(defining_poly_eval(xi, z)), abs(defining_poly_eval(xi, z2))
    )
