"""Generic classification pipeline: criticality, multipliers, block types."""

import itertools

import numpy as np
import pytest

from ephemera.classifier import (
    SystemSpec,
    classify_point,
    fiber_verdicts,
    is_critical_mod_phi,
    lagrange_multiplier,
    local_model_system,
    slice_hessian_blocks,
    stabilizer_slice,
    standard_complex_structure,
    support_of,
)
from ephemera.errors import InvalidAction, NotCriticalModPhi
from ephemera.family import PolarPoint, build_family
from ephemera.jets import InvariantPolynomial
from ephemera.lattice import WeightMatrix, smith_normal_form

FAMILY_11M1 = build_family(WeightMatrix(((1, 0, 1), (0, 1, 1))))
FAMILY_21M1 = build_family(WeightMatrix(((1, 0, 2), (0, 1, 1))))

CATALOG_POINT = PolarPoint(
    r=(np.sqrt(2.0), np.sqrt(2.0), 1.0), theta=(np.pi / 2.0, 0.0, 0.0)
)




def test_system_rejects_noninvariant_g():
    from ephemera.errors import NotInvariant
    from ephemera.jets import RationalComplex

    bad = InvariantPolynomial.hermitian(
        {((1, 0, 0), (0, 0, 0)): RationalComplex.of(1)}, FAMILY_11M1.xi
    )
    with pytest.raises(NotInvariant):
        SystemSpec(weights=FAMILY_11M1.weights.entries, xi=FAMILY_11M1.xi, g=bad)


def test_g_invariant_along_orbits():
    # sampling oracle: g is constant along torus orbits to 1e-9
    rng = np.random.default_rng(22)
    for fam in (FAMILY_11M1, FAMILY_21M1):
        sys = fam.system
        for _ in range(50):
            z = rng.normal(size=3) + 1j * rng.normal(size=3)
            base = sys.g_value(z)
            t = rng.uniform(0, 2 * np.pi, size=2)
            phases = np.exp(
                1j * np.array([sum(w[j] * t[a] for a, w in enumerate(sys.weights))
                               for j in range(3)])
            )
            moved = sys.g_value(z * phases)
            assert abs(moved - base) <= 1e-9 * (1.0 + abs(base))


def test_support_detection():
    assert support_of([0.0, 1.0, 0.0]) == (0, 2)
    assert support_of([1e-30, 1.0]) == (0,)
    assert support_of([0.0, 0.0]) == (0, 1)


def test_gradient_and_hessian_match_finite_differences():
    rng = np.random.default_rng(9)
    sys = FAMILY_21M1.system
    for _ in range(25):
        z = rng.normal(size=3) + 1j * rng.normal(size=3)
        x = np.empty(6)
        x[0::2], x[1::2] = z.real, z.imag

        def g_of(xvec):
            return sys.g_value(xvec[0::2] + 1j * xvec[1::2])

        h = 1e-5
        grad = sys.grad_g(z)
        hess = sys.hess_g(z)
        assert np.allclose(hess, hess.T)
        for i in range(6):
            e = np.zeros(6)
            e[i] = h
            fd = (g_of(x + e) - g_of(x - e)) / (2 * h)
            assert abs(fd - grad[i]) <= 1e-6 * (1.0 + abs(grad[i]))
            for j in range(6):
                e2 = np.zeros(6)
                e2[j] = h
                fd2 = (
                    g_of(x + e + e2) - g_of(x + e - e2) - g_of(x - e + e2) + g_of(x - e - e2)
                ) / (4 * h * h)
                assert abs(fd2 - hess[i, j]) <= 1e-4 * (1.0 + abs(hess[i, j]))


def test_dphi_matches_finite_differences():
    rng = np.random.default_rng(10)
    sys = FAMILY_11M1.system
    for _ in range(10):
        z = rng.normal(size=3) + 1j * rng.normal(size=3)
        x = np.empty(6)
        x[0::2], x[1::2] = z.real, z.imag
        dphi = sys.dphi(z)
        h = 1e-6
        for i in range(6):
            e = np.zeros(6)
            e[i] = h
            fd = (
                sys.phi((x + e)[0::2] + 1j * (x + e)[1::2])
                - sys.phi((x - e)[0::2] + 1j * (x - e)[1::2])
            ) / (2 * h)
            assert np.allclose(fd, dphi[:, i], atol=1e-6, rtol=1e-6)


def test_catalog_point_is_critical():
    sys = FAMILY_11M1.system
    z = CATALOG_POINT.to_complex()
    assert is_critical_mod_phi(sys, z) is True
    # same radii, zero angles: the angle residual is 1, not critical
    flat = PolarPoint(r=CATALOG_POINT.r, theta=(0.0, 0.0, 0.0))
    assert is_critical_mod_phi(sys, flat.to_complex()) is False
    # the origin is critical: every derivative below the degree vanishes
    assert is_critical_mod_phi(sys, np.zeros(3, dtype=complex)) is True


def test_lagrange_multiplier_catalog_value():
    sys = FAMILY_11M1.system
    z = CATALOG_POINT.to_complex()
    mu = lagrange_multiplier(sys, z)
    assert np.allclose(mu, [1.0, 1.0], atol=1e-9)
    residual = sys.dphi(z).T @ mu - sys.grad_g(z)
    assert np.linalg.norm(residual) <= 1e-8 * (1 + np.linalg.norm(sys.grad_g(z)))
    with pytest.raises(NotCriticalModPhi):
        lagrange_multiplier(sys, PolarPoint(CATALOG_POINT.r, (0.0, 0.0, 0.0)).to_complex())


def test_multiplier_zero_at_fixed_point():
    # at a torus fixed point with vanishing dg the multiplier is zero
    sys = FAMILY_11M1.system
    mu = lagrange_multiplier(sys, np.zeros(3, dtype=complex))
    assert np.allclose(mu, 0.0)


def test_multiplier_zero_for_zero_g():
    zero_g = InvariantPolynomial(terms={}, xi=FAMILY_11M1.xi)
    sys = SystemSpec(
        weights=FAMILY_11M1.weights.entries, xi=FAMILY_11M1.xi, g=zero_g
    )
    rng = np.random.default_rng(11)
    z = rng.normal(size=3) + 1j * rng.normal(size=3)
    assert np.allclose(lagrange_multiplier(sys, z), 0.0)


def test_catalog_point_elliptic_blocks():
    sys = FAMILY_11M1.system
    z = CATALOG_POINT.to_complex()
    mu = lagrange_multiplier(sys, z)
    blocks, degenerate, diag = slice_hessian_blocks(sys, z, mu)
    assert degenerate is False
    assert [b.kind for b in blocks] == ["elliptic"]
    assert diag["slice_dim"] == 2
    assert diag["j_invariance_defect"] <= 1e-8


def test_block_oracle_on_local_models():
    # weight-(1,-1) circle model: quadruple, so a focus-focus pairing
    sys = local_model_system((1, 1))
    blocks, degenerate, diag = slice_hessian_blocks(
        sys, np.zeros(2, complex), np.zeros(1)
    )
    assert degenerate is False
    assert {b.kind for b in blocks} == {"focus-focus"}
    # the g-only spectrum alone is a real pair (recorded, not used as label)
    g_only = np.array(diag["g_only_eigenvalues"])
    assert np.allclose(np.abs(g_only.imag), 0.0, atol=1e-8)

    # cyclic two-fold cover on C: hyperbolic pair, disconnected group
    sys = local_model_system((2,))
    blocks, degenerate, _ = slice_hessian_blocks(
        sys, np.zeros(1, complex), np.zeros(0)
    )
    assert degenerate is False
    assert {b.kind for b in blocks} == {"hyperbolic"}

    # cubic model: the slice Hessian of g vanishes identically
    sys = local_model_system((2, 1))
    blocks, degenerate, _ = slice_hessian_blocks(
        sys, np.zeros(2, complex), np.zeros(1)
    )
    assert degenerate is True


def test_eigenvalue_symmetry_catalog():
    # spectra close under negation and conjugation (linearized flows are Hamiltonian)
    points = [
        (FAMILY_11M1.system, CATALOG_POINT.to_complex()),
        (local_model_system((1, 1)), np.zeros(2, complex)),
        (local_model_system((2,)), np.zeros(1, complex)),
        (local_model_system((3, 2)), np.zeros(2, complex)),
    ]
    for sys, z in points:
        mu = lagrange_multiplier(sys, z)
        _, _, diag = slice_hessian_blocks(sys, z, mu)
        eigs = np.array(diag["eigenvalues"])
        if not len(eigs):
            continue
        scale = np.max(np.abs(eigs)) or 1.0
        for lam in eigs:
            assert np.min(np.abs(eigs - (-lam))) <= 1e-8 * scale
            assert np.min(np.abs(eigs - np.conj(lam))) <= 1e-8 * scale


def test_classify_point_labels():
    sys = FAMILY_11M1.system
    assert classify_point(sys, CATALOG_POINT.to_complex()).label == "purely-elliptic"
    rng = np.random.default_rng(12)
    z = rng.normal(size=3) + 1j * rng.normal(size=3)
    assert classify_point(sys, z).label == "regular"
    # vanishing first two coordinates: quadratic slice, ephemeral
    rep = classify_point(sys, np.array([0.0, 0.0, 1.0], dtype=complex))
    assert rep.label == "nondegenerate-ephemeral(focus-focus)"
    assert rep.tall and rep.degree_N == 2
    # the cubic family: same support now carries degree-3 slice data
    rep = classify_point(FAMILY_21M1.system, np.array([0.0, 0.0, 1.0], dtype=complex))
    assert rep.label == "degenerate-ephemeral"
    assert rep.degree_N == 3
    assert rep.diagnostics["degree2_taylor_vanishes"] is True


def test_classify_local_models():
    # quadratic cyclic model: ephemeral with hyperbolic block, two components
    rep = classify_point(local_model_system((2,)), np.zeros(1, complex))
    assert rep.label == "nondegenerate-ephemeral(hyperbolic-disconnected)"
    assert rep.stabilizer.component_count == 2
    # higher cyclic models are ephemeral and degenerate
    for n in (3, 4, 5, 6):
        rep = classify_point(local_model_system((n,)), np.zeros(1, complex))
        assert rep.label == "degenerate-ephemeral"
    # weight-(1,-1) model at the origin
    rep = classify_point(local_model_system((1, 1)), np.zeros(2, complex))
    assert rep.label == "nondegenerate-ephemeral(focus-focus)"


def test_report_invariants():
    # ephemeral labels imply tall and degree > 1
    systems = [
        (FAMILY_11M1.system, np.array([0.0, 0.0, 1.0], complex)),
        (FAMILY_21M1.system, np.array([0.0, 0.0, 1.0], complex)),
        (local_model_system((2,)), np.zeros(1, complex)),
        (local_model_system((4,)), np.zeros(1, complex)),
    ]
    for sys, z in systems:
        rep = classify_point(sys, z)
        if "ephemeral" in rep.label:
            assert rep.tall and rep.degree_N > 1


def test_trichotomy_on_catalog():
    # nondegenerate tall critical points carry exactly one of the three labels
    tall_critical = [
        classify_point(FAMILY_11M1.system, CATALOG_POINT.to_complex()),
        classify_point(FAMILY_11M1.system, np.array([0, 0, 1.0], complex)),
        classify_point(local_model_system((2,)), np.zeros(1, complex)),
        classify_point(local_model_system((1, 1)), np.zeros(2, complex)),
    ]
    for rep in tall_critical:
        assert rep.tall and rep.critical_mod_phi
        trichotomy = [
            rep.label == "purely-elliptic",
            rep.label == "hyperbolic-connected",
            "ephemeral" in rep.label,
        ]
        assert sum(trichotomy) == 1


def test_fiber_verdicts():
    eph = classify_point(FAMILY_21M1.system, np.array([0, 0, 1.0], complex))
    verdict = fiber_verdicts([eph, eph, eph])
    assert verdict.connectivity_expected is True
    assert verdict.obstruction is True  # three orbits of slice degree 3
    assert verdict.genericity_ok is True
    two = fiber_verdicts([eph, eph])
    assert two.obstruction is False
    # synthetic hyperbolic-connected entry flips the connectivity verdict
    fake = classify_point(FAMILY_11M1.system, CATALOG_POINT.to_complex())
    fake.label = "hyperbolic-connected"
    assert fiber_verdicts([fake]).connectivity_expected is False


def generated_weight_matrices(count: int, seed: int) -> list[WeightMatrix]:
    """Seeded valid (n-1) x n weight matrices, n in 2..5, entries in [-3, 3]."""
    rng = np.random.default_rng(seed)
    out = []
    while len(out) < count:
        n = int(rng.integers(2, 6))
        a = rng.integers(-3, 4, size=(n - 1, n))
        try:
            out.append(WeightMatrix(tuple(tuple(int(x) for x in row) for row in a)))
        except InvalidAction:
            continue
    return out


def test_stabilizer_slice_matches_snf_oracle_on_generated_weights():
    # oracle: the stabilizer has as many components as the product of the
    # nonzero Smith invariants of the weights of the non-vanishing coordinates
    for w in generated_weight_matrices(60, seed=4):
        system = build_family(w).system
        for k in range(w.n + 1):
            for support in itertools.combinations(range(w.n), k):
                s = stabilizer_slice(system, support)
                rows = [w.weight(j) for j in range(w.n) if j not in support]
                oracle = 1
                if rows:
                    _, d, _ = smith_normal_form(rows)
                    for i in range(min(len(rows), w.torus_dim)):
                        if d[i][i] != 0:
                            oracle *= d[i][i]
                assert s.component_count == oracle, (w.entries, support)
                assert s.rank == len(s.lie_basis)
                for zeta in s.lie_basis:
                    for eta in rows:
                        assert sum(x * y for x, y in zip(eta, zeta)) == 0
                xi = s.xi_restricted.xi
                for comp in range(s.rank):
                    assert sum(x * eta[comp] for x, eta in zip(xi, s.slice_weights)) == 0


def test_slice_basis_choice_does_not_change_labels():
    # classification is stable under a rescaled ambient metric on the slice
    sys = FAMILY_11M1.system
    z = CATALOG_POINT.to_complex()
    mu = lagrange_multiplier(sys, z)
    blocks, degenerate, _ = slice_hessian_blocks(sys, z, mu)
    # perturb the point along the orbit: the label must be unchanged
    for t in (0.3, 1.1, 2.7):
        rotated = z * np.exp(1j * np.array([t, -0.5 * t, 0.5 * t]))
        rep = classify_point(sys, rotated)
        assert rep.label == "purely-elliptic"


def test_j_matrix():
    j = standard_complex_structure(2)
    assert np.allclose(j @ j, -np.eye(4))


def test_regular_mod_phi_points_have_degree_one_models():
    # points that are singular yet regular modulo the moment map always
    # sit on degree-1 tall local models
    rng = np.random.default_rng(20)
    for fam in (FAMILY_11M1, FAMILY_21M1):
        for support in [(0,), (1,), (2,), (0, 2), (1, 2)]:
            for _ in range(20):
                from ephemera.family import support_pattern_point

                w = support_pattern_point(fam, support, rng)
                rep = classify_point(fam.system, w.to_complex())
                if rep.label == "regular-mod-phi-elliptic":
                    assert rep.tall is True
                    assert rep.degree_N == 1


def test_trichotomy_transition_under_elliptic_perturbation():
    # adding a growing multiple of |z|^2 to Im(z1 z2) drives the chart
    # zero set from a line to a point; the float block oracle and the
    # exact chart predicate must flip together
    from fractions import Fraction

    from ephemera.jets import chart_jet, ephemeral_zero_set_test
    from ephemera.lattice import DefiningVector

    xi = DefiningVector.from_entries((1, 1))
    base = InvariantPolynomial.imag_defining_monomial(xi)
    for eps, expected in [
        (Fraction(1, 10), "nondegenerate-ephemeral(focus-focus)"),
        (Fraction(3, 10), "nondegenerate-ephemeral(focus-focus)"),
        (Fraction(4, 5), "purely-elliptic"),
        (Fraction(6, 5), "purely-elliptic"),
    ]:
        g = base + InvariantPolynomial.radius_power(xi, 1).scale(eps)
        sys = local_model_system(xi, g=g)
        rep = classify_point(sys, np.zeros(2, complex))
        assert rep.label == expected, eps
        ephemeral = ephemeral_zero_set_test(chart_jet(g))
        assert ephemeral == ("ephemeral" in expected)


def test_block_typing_invariant_under_multiplier_shift():
    # the multiplier is unique only modulo the stabilizer algebra; shifting
    # by a stabilizer generator must not change block types
    sys = FAMILY_11M1.system
    z = np.array([0.0, 0.0, 1.0], dtype=complex)
    mu = lagrange_multiplier(sys, z)
    blocks0, degen0, _ = slice_hessian_blocks(sys, z, mu)
    stab = stabilizer_slice(sys, (0, 1))
    assert stab.lie_basis  # positive-dimensional stabilizer
    for zeta in stab.lie_basis:
        shifted = mu + 0.7 * np.array(zeta, dtype=float)
        residual = sys.dphi(z).T @ shifted - sys.grad_g(z)
        assert np.linalg.norm(residual) <= 1e-10
        blocks1, degen1, _ = slice_hessian_blocks(sys, z, shifted)
        assert sorted(b.kind for b in blocks1) == sorted(b.kind for b in blocks0)
        assert degen1 == degen0
