"""Generic classification pipeline: criticality, multipliers, block types."""

import functools
import itertools
import json
from collections import Counter
from fractions import Fraction
from importlib import resources

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ephemera.classifier
from ephemera.cli import CATALOG_NAMES
from ephemera.classifier import (
    RANK_TOL,
    SystemSpec,
    _dphi_svd,
    classify_point,
    classify_points,
    fiber_verdicts,
    local_model_system,
    slice_hessian_blocks,
    stabilizer_slice,
    standard_complex_structure,
    support_of,
)
from ephemera.errors import InvalidAction
from ephemera.family import PolarPoint, build_family
from ephemera.jets import InvariantPolynomial, eval_terms, wirtinger_terms
from ephemera.lattice import DefiningVector, WeightMatrix, smith_normal_form
from ephemera.serial import load_spec_bytes, report_to_json
from oracle_helpers import (
    EPHEMERAL_LABELS,
    pullback_rotation,
    radius_power,
    real_defining_monomial,
    scale,
    support_pattern_point,
)

FAMILY_11M1 = build_family(WeightMatrix(((1, 0, 1), (0, 1, 1))))
FAMILY_21M1 = build_family(WeightMatrix(((1, 0, 2), (0, 1, 1))))

CATALOG_POINT = PolarPoint(
    r=(np.sqrt(2.0), np.sqrt(2.0), 1.0), theta=(np.pi / 2.0, 0.0, 0.0)
)


def _degenerate(rep) -> bool:
    """Whether the slice blocks of a critical point are degenerate: its
    label says so exactly then."""
    return rep.label in ("degenerate-ephemeral", "unclassified-degenerate")


def test_system_rejects_noninvariant_g():
    from ephemera.errors import NotInvariant
    from ephemera.jets import RationalComplex

    bad = InvariantPolynomial.hermitian(
        {((1, 0, 0), (0, 0, 0)): RationalComplex.of(1)}, FAMILY_11M1.xi
    )
    with pytest.raises(NotInvariant):
        SystemSpec(weights=FAMILY_11M1.weights, xi=FAMILY_11M1.xi, g=bad)


def test_family_spec_is_its_weight_matrix_with_g_im_p():
    from ephemera.errors import NotInvariant

    w, xi = FAMILY_11M1.weight_matrix, FAMILY_11M1.xi
    radial = FAMILY_11M1.g + radius_power(xi, 1)
    with pytest.raises(NotInvariant):
        SystemSpec(weights=w.entries, xi=xi, g=radial, weight_matrix=w)
    with pytest.raises(InvalidAction):
        SystemSpec(weights=FAMILY_21M1.weights, xi=xi, g=FAMILY_11M1.g, weight_matrix=w)
    # without a weight matrix the same g is a system, and never a proper one
    assert FAMILY_11M1.proper and not SystemSpec(weights=w.entries, xi=xi, g=radial).proper


def test_system_spec_refuses_any_other_shape():
    # an (n-1)-torus on C^n whose rows pair to 0 with xi, with or without a
    # weight matrix: family_21m1's rows against family_11m1's xi, and d = k
    # rows that xi annihilates
    xi, g = FAMILY_11M1.xi, FAMILY_11M1.g
    with pytest.raises(InvalidAction):
        SystemSpec(weights=FAMILY_21M1.weights, xi=xi, g=g)
    square = DefiningVector.from_entries((1, 1))
    with pytest.raises(InvalidAction):
        SystemSpec(weights=((1, -1), (2, -2)), xi=square,
                   g=InvariantPolynomial.imag_defining_monomial(square))
    assert local_model_system((1, 1)).weights == ((1, -1),)


def test_g_invariant_along_orbits():
    # sampling oracle: g is constant along torus orbits to 1e-9
    rng = np.random.default_rng(22)
    for fam in (FAMILY_11M1, FAMILY_21M1):
        sys = fam
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
    sys = FAMILY_21M1
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
    sys = FAMILY_11M1
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


def _moment_map_systems() -> list[SystemSpec]:
    """The catalog systems and local models, (4,) having no weight rows."""
    systems = []
    for name in CATALOG_NAMES:
        raw = resources.files("ephemera").joinpath("data", f"{name}.json").read_bytes()
        systems.append(load_spec_bytes(raw, name)[0])
    return systems + [
        local_model_system(xi, name=str(xi)) for xi in ((1, 1), (2, 1), (3, 1, 2), (4,))
    ]


@pytest.mark.parametrize("sys", _moment_map_systems(), ids=lambda s: s.name)
def test_moment_map_matches_its_definitions(sys):
    rng = np.random.default_rng(13)
    k, d = sys.coords, sys.torus_dim
    batch = rng.normal(size=(6, k)) + 1j * rng.normal(size=(6, k))
    rows = np.array([sys.phi(z) for z in batch]).reshape(6, d)
    assert np.array_equal(sys.phi(batch), rows)
    for count in {1, k + 1} - {k}:  # refused, not broadcast
        with pytest.raises(ValueError):
            sys.phi(np.ones((2, count)))
    # mu . Phi is quadratic, so central differences give its Hessian
    mu = rng.normal(size=d)
    x = np.empty(2 * k)
    x[0::2], x[1::2] = batch[0].real, batch[0].imag

    def mu_phi(xvec):
        return float(mu @ sys.phi(xvec[0::2] + 1j * xvec[1::2]))

    h = 1e-3
    steps = h * np.eye(2 * k)
    fd = np.array(
        [
            [
                mu_phi(x + a + b) - mu_phi(x + a - b) - mu_phi(x - a + b) + mu_phi(x - a - b)
                for b in steps
            ]
            for a in steps
        ]
    ) / (4 * h * h)
    assert np.allclose(fd, sys.hess_phi(mu), rtol=0.0, atol=1e-7)


def test_catalog_point_is_critical():
    sys = FAMILY_11M1
    z = CATALOG_POINT.to_complex()
    assert classify_point(sys, z).critical_mod_phi is True
    # same radii, zero angles: the angle residual is 1, not critical
    flat = PolarPoint(r=CATALOG_POINT.r, theta=(0.0, 0.0, 0.0))
    assert classify_point(sys, flat.to_complex()).critical_mod_phi is False
    # the origin is critical: every derivative below the degree vanishes
    assert classify_point(sys, np.zeros(3, dtype=complex)).critical_mod_phi is True


def test_lagrange_multiplier_catalog_value():
    sys = FAMILY_11M1
    z = CATALOG_POINT.to_complex()
    mu = np.array(classify_point(sys, z).multiplier)
    assert np.allclose(mu, [1.0, 1.0], atol=1e-9)
    residual = sys.dphi(z).T @ mu - sys.grad_g(z)
    assert np.linalg.norm(residual) <= 1e-8 * (1 + np.linalg.norm(sys.grad_g(z)))


def test_multiplier_is_the_minimum_norm_solve_on_the_stratum():
    # every critical report's multiplier, at its point put on its stratum,
    # solves D(Phi)^T mu = grad g within the criticality bound and is
    # orthogonal to the stabilizer's Lie algebra (the kernel of D(Phi)^T),
    # so it is the minimum-norm solution: on the criterion-5 families, the
    # local models and seeded generated families on C^3 to C^5, at points
    # of every support pattern and closed-form critical points
    rng = np.random.default_rng(44)
    systems = [FAMILY_11M1, FAMILY_21M1]
    systems += [local_model_system(xi) for xi in ((1, 1), (2, 1), (3, 1, 2), (4,))]
    systems += [build_family(w) for w in generated_weight_matrices(12, seed=45) if w.n >= 3]
    seen = Counter()
    for sys in systems:
        points = _points_of_every_support(sys, rng)
        try:
            points += [support_pattern_point(sys, (), rng, critical=True).to_complex()
                       for _ in range(3)]
        except ValueError:  # exponents of one sign: no critical open point
            pass
        for report in classify_points(sys, points):
            if not report.critical_mod_phi:
                continue
            z = np.array(report.point)
            z[list(report.support)] = 0
            mu = np.array(report.multiplier)
            grad = sys.grad_g(z)
            residual = np.linalg.norm(sys.dphi(z).T @ mu - grad)
            assert residual <= RANK_TOL * (1 + np.linalg.norm(grad)), (sys.name, z)
            for zeta in np.array(report.stabilizer.lie_basis, dtype=float):
                bound = 1e-12 * (1 + np.linalg.norm(mu)) * np.linalg.norm(zeta)
                assert abs(mu @ zeta) <= bound, (sys.name, z, mu, zeta)
            seen[report.stabilizer.rank > 0, bool(report.support)] += 1
    assert set(seen) == {(False, False), (True, True), (False, True)}, seen


def test_multiplier_zero_at_fixed_point():
    # at a torus fixed point with vanishing dg the multiplier is zero
    sys = FAMILY_11M1
    mu = classify_point(sys, np.zeros(3, dtype=complex)).multiplier
    assert np.allclose(mu, 0.0)


def test_multiplier_zero_for_zero_g():
    zero_g = InvariantPolynomial(terms={}, xi=FAMILY_11M1.xi)
    sys = SystemSpec(
        weights=FAMILY_11M1.weights, xi=FAMILY_11M1.xi, g=zero_g
    )
    rng = np.random.default_rng(11)
    z = rng.normal(size=3) + 1j * rng.normal(size=3)
    assert np.allclose(classify_point(sys, z).multiplier, 0.0)


def test_catalog_point_elliptic_blocks():
    sys = FAMILY_11M1
    rep = classify_point(sys, CATALOG_POINT.to_complex())
    assert _degenerate(rep) is False
    assert [b.kind for b in rep.blocks] == ["elliptic"]
    assert rep.diagnostics["slice_dim"] == 2
    assert rep.diagnostics["j_invariance_defect"] <= 1e-8


def test_block_oracle_on_local_models():
    # weight-(1,-1) circle model: quadruple, so a focus-focus pairing
    rep = classify_point(local_model_system((1, 1)), np.zeros(2, complex))
    assert rep.multiplier == (0.0,)
    assert _degenerate(rep) is False
    assert {b.kind for b in rep.blocks} == {"focus-focus"}
    # the g-only spectrum alone is a real pair (recorded, not used as label)
    g_only = np.array(rep.diagnostics["g_only_eigenvalues"])
    assert np.allclose(np.abs(g_only.imag), 0.0, atol=1e-8)

    # cyclic two-fold cover on C: hyperbolic pair, disconnected group
    rep = classify_point(local_model_system((2,)), np.zeros(1, complex))
    assert rep.multiplier == ()
    assert _degenerate(rep) is False
    assert {b.kind for b in rep.blocks} == {"hyperbolic"}

    # cubic model: the slice Hessian of g vanishes identically
    rep = classify_point(local_model_system((2, 1)), np.zeros(2, complex))
    assert rep.multiplier == (0.0,)
    assert _degenerate(rep) is True


def test_eigenvalue_symmetry_catalog():
    # spectra close under negation and conjugation (linearized flows are Hamiltonian)
    points = [
        (FAMILY_11M1, CATALOG_POINT.to_complex()),
        (local_model_system((1, 1)), np.zeros(2, complex)),
        (local_model_system((2,)), np.zeros(1, complex)),
        (local_model_system((3, 2)), np.zeros(2, complex)),
    ]
    for sys, z in points:
        rep = classify_point(sys, z)
        assert rep.critical_mod_phi
        eigs = np.array(rep.diagnostics["eigenvalues"])
        if not len(eigs):
            continue
        scale = np.max(np.abs(eigs)) or 1.0
        for lam in eigs:
            assert np.min(np.abs(eigs - (-lam))) <= 1e-8 * scale
            assert np.min(np.abs(eigs - np.conj(lam))) <= 1e-8 * scale


def test_classify_point_labels():
    sys = FAMILY_11M1
    assert classify_point(sys, CATALOG_POINT.to_complex()).label == "purely-elliptic"
    rng = np.random.default_rng(12)
    z = rng.normal(size=3) + 1j * rng.normal(size=3)
    assert classify_point(sys, z).label == "regular"
    # vanishing first two coordinates: quadratic slice, ephemeral
    rep = classify_point(sys, np.array([0.0, 0.0, 1.0], dtype=complex))
    assert rep.label == "nondegenerate-ephemeral(focus-focus)"
    assert rep.tall and rep.degree_N == 2
    # the cubic family: same support now carries degree-3 slice data
    rep = classify_point(FAMILY_21M1, np.array([0.0, 0.0, 1.0], dtype=complex))
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
        (FAMILY_11M1, np.array([0.0, 0.0, 1.0], complex)),
        (FAMILY_21M1, np.array([0.0, 0.0, 1.0], complex)),
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
        classify_point(FAMILY_11M1, CATALOG_POINT.to_complex()),
        classify_point(FAMILY_11M1, np.array([0, 0, 1.0], complex)),
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
    eph = classify_point(FAMILY_21M1, np.array([0, 0, 1.0], complex))
    verdict = fiber_verdicts([eph, eph, eph])
    assert verdict.connectivity_expected is True
    assert verdict.obstruction is True  # three orbits of slice degree 3
    assert verdict.genericity_ok is True
    two = fiber_verdicts([eph, eph])
    assert two.obstruction is False
    # synthetic hyperbolic-connected entry flips the connectivity verdict
    fake = classify_point(FAMILY_11M1, CATALOG_POINT.to_complex())
    fake.label = "hyperbolic-connected"
    assert fiber_verdicts([fake]).connectivity_expected is False


@functools.cache
def _generated_tall_reports() -> tuple:
    """Tall reports at points of every support pattern of 8 seeded valid
    families (n in {3, 4}, entries in [-2, 2], as in the generated-family
    label gate), two points per pattern."""
    rng = np.random.default_rng(2025)
    families = []
    while len(families) < 8:
        n = int(rng.integers(3, 5))
        entries = rng.integers(-2, 3, size=(n - 1, n))
        try:
            families.append(build_family(WeightMatrix(tuple(map(tuple, entries.tolist())))))
        except InvalidAction:
            continue
    reports = []
    for fam in families:
        points = [support_pattern_point(fam, support, rng).to_complex()
                  for k in range(fam.coords + 1)
                  for support in itertools.combinations(range(fam.coords), k)
                  for _ in range(2)]
        reports += [r for r in classify_points(fam, points) if r.tall]
    return tuple(reports)


def test_generated_tall_reports_span_both_degree_sides():
    degrees = Counter(r.degree_N > 2 for r in _generated_tall_reports())
    assert degrees[True] >= 3 and degrees[False] >= 3, degrees


@settings(derandomize=True, max_examples=200, deadline=None)
@given(st.data())
def test_connectivity_obstruction_counts_tall_reports_of_degree_above_two(data):
    # fiber_verdicts' obstruction holds exactly when at least three tall
    # reports of the fiber have degree_N > 2, in whatever order they come
    pool = _generated_tall_reports()
    fiber = data.draw(st.lists(st.sampled_from(pool), max_size=7))
    expected = sum(r.degree_N > 2 for r in fiber) >= 3
    assert fiber_verdicts(fiber).obstruction is expected
    shuffled = data.draw(st.permutations(fiber))
    assert fiber_verdicts(shuffled).obstruction is expected


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
        system = build_family(w)
        for k in range(w.n + 1):
            for support in itertools.combinations(range(w.n), k):
                s = stabilizer_slice(system, support)
                rows = [col for j, col in enumerate(zip(*w.entries)) if j not in support]
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
    sys = FAMILY_11M1
    z = CATALOG_POINT.to_complex()
    assert classify_point(sys, z).label == "purely-elliptic"
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
                w = support_pattern_point(fam, support, rng)
                rep = classify_point(fam, w.to_complex())
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
        g = base + scale(radius_power(xi, 1), eps)
        sys = local_model_system(xi, g=g)
        rep = classify_point(sys, np.zeros(2, complex))
        assert rep.label == expected, eps
        ephemeral = ephemeral_zero_set_test(chart_jet(g))
        assert ephemeral == ("ephemeral" in expected)


def test_block_typing_invariant_under_multiplier_shift():
    # the multiplier is unique only modulo the stabilizer algebra; shifting
    # by a stabilizer generator must not change block types
    sys = FAMILY_11M1
    z = np.array([0.0, 0.0, 1.0], dtype=complex)
    rep = classify_point(sys, z)
    mu = np.array(rep.multiplier)
    stab = stabilizer_slice(sys, (0, 1))
    kernel = _dphi_svd(sys.dphi(z))[2][:, sys.torus_dim - stab.rank:]
    assert stab.lie_basis  # positive-dimensional stabilizer
    lie = np.array(stab.lie_basis, dtype=float)
    for zeta in lie:
        shifted = mu + 0.7 * zeta
        residual = sys.dphi(z).T @ shifted - sys.grad_g(z)
        assert np.linalg.norm(residual) <= 1e-10
        blocks1, degen1, _ = slice_hessian_blocks(sys, z, shifted, kernel, lie)
        assert sorted(b.kind for b in blocks1) == sorted(b.kind for b in rep.blocks)
        assert degen1 == _degenerate(rep)


def test_classify_point_derives_each_quantity_once(monkeypatch):
    # D(Phi), its kernel, grad g and the stabilizer are built once per point,
    # whether the point is critical (the catalog point, a tall point) or not
    counts = Counter()

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    for owner, name in (
        (SystemSpec, "dphi"),
        (SystemSpec, "grad_g"),
        (ephemera.classifier, "_dphi_svd"),
        (ephemera.classifier, "stabilizer_slice"),
    ):
        monkeypatch.setattr(owner, name, counted(name, getattr(owner, name)))
    sys = FAMILY_11M1
    flat = PolarPoint(r=CATALOG_POINT.r, theta=(0.0, 0.0, 0.0))
    for z, critical in (
        (CATALOG_POINT.to_complex(), True),
        (np.array([0.0, 0.0, 1.0], dtype=complex), True),
        (flat.to_complex(), False),
    ):
        counts.clear()
        assert classify_point(sys, z).critical_mod_phi is critical
        assert counts == {"dphi": 1, "grad_g": 1, "_dphi_svd": 1, "stabilizer_slice": 1}



def _derivatives_oracle(sys: SystemSpec, z) -> tuple[np.ndarray, np.ndarray]:
    """grad g and hess g with every Wirtinger derivative rebuilt from the
    exact terms of g at each call."""
    k = sys.coords
    grad = np.zeros(2 * k)
    hess = np.zeros((2 * k, 2 * k))
    for j in range(k):
        dz = wirtinger_terms(sys.g.terms, j)
        fz = eval_terms(dz, z)
        grad[2 * j] = 2.0 * fz.real
        grad[2 * j + 1] = -2.0 * fz.imag
        for l in range(j, k):
            p = eval_terms(wirtinger_terms(dz, l, conjugate=False), z)
            q = eval_terms(wirtinger_terms(dz, l, conjugate=True), z)
            hess[2 * j, 2 * l] = 2.0 * (p + q).real
            hess[2 * j, 2 * l + 1] = -2.0 * (p - q).imag
            hess[2 * j + 1, 2 * l] = -2.0 * (p + q).imag
            hess[2 * j + 1, 2 * l + 1] = -2.0 * (p - q).real
    return grad, np.triu(hess) + np.triu(hess, 1).T


def _derivative_systems() -> list[SystemSpec]:
    """Catalog systems, the four local models, seeded generated families, and
    a g with many terms per derivative, exact and with float coefficients."""
    xi = DefiningVector.from_entries((1, 2, 1))
    dense = (
        InvariantPolynomial.imag_defining_monomial(xi)
        + scale(real_defining_monomial(xi), Fraction(1, 3))
        + scale(radius_power(xi, 2), Fraction(1, 5))
        + scale(radius_power(xi, 3), Fraction(-1, 7))
    )
    return (
        _moment_map_systems()
        + [local_model_system((2,), name="(2,)")]
        + [build_family(w) for w in generated_weight_matrices(12, seed=31)]
        + [
            local_model_system(xi, g=dense, name="dense"),
            local_model_system(
                xi, g=pullback_rotation(dense, (0.3, -1.1, 2.0)), name="dense-float"
            ),
        ]
    )


def test_compiled_derivatives_match_per_call_oracle_bit_for_bit():
    # the tables hold the same exact derivatives, converted to complex once,
    # in the same term order: every float must come out identical
    rng = np.random.default_rng(32)
    for sys in _derivative_systems():
        k = sys.coords
        for support in itertools.chain.from_iterable(
            itertools.combinations(range(k), m) for m in range(k + 1)
        ):
            for _ in range(3):
                z = rng.uniform(0.5, 2.0, size=k) * np.exp(1j * rng.uniform(0, 2 * np.pi, size=k))
                z[list(support)] = 0.0
                grad, hess = _derivatives_oracle(sys, z)
                assert sys.grad_g(z).tobytes() == grad.tobytes(), (sys.name, support)
                assert sys.hess_g(z).tobytes() == hess.tobytes(), (sys.name, support)


def _wirtinger_calls(monkeypatch) -> Counter:
    counts = Counter()
    original = InvariantPolynomial.wirtinger

    def counted(self, *args, **kwargs):
        counts["wirtinger"] += 1
        return original(self, *args, **kwargs)

    monkeypatch.setattr(InvariantPolynomial, "wirtinger", counted)
    return counts


def test_derivatives_of_g_are_built_once_per_spec(monkeypatch):
    # classifying 1 or 50 points of one spec derives g the same number of times
    counts = _wirtinger_calls(monkeypatch)
    rng = np.random.default_rng(33)
    points = [
        support_pattern_point(FAMILY_21M1, support, rng).to_complex()
        for support in ((), (0,), (1,), (0, 1), (2,)) * 10
    ]
    made = []
    for batch in (points[:1], points):
        counts.clear()
        sys = SystemSpec(weights=FAMILY_21M1.weights, xi=FAMILY_21M1.xi, g=FAMILY_21M1.g)
        for z in batch:
            classify_point(sys, z)
        made.append(counts["wirtinger"])
    assert made[0] == made[1] == sys.coords


def test_fiber_scan_never_derives_g(monkeypatch, tmp_path):
    # the tables are built on first use, and a fiber scan never evaluates grad g
    from ephemera.cli import main

    counts = _wirtinger_calls(monkeypatch)
    assert main(["fiber-scan", "family_11m1", "--out", str(tmp_path / "scan.json")]) == 0
    assert counts["wirtinger"] == 0


def test_memoised_stabilizer_slice_matches_a_fresh_spec():
    # every support, visited in a shuffled order with repeats, against a
    # new SystemSpec (empty memo) that computes that support alone
    rng = np.random.default_rng(34)
    systems = _moment_map_systems() + [
        build_family(w) for w in generated_weight_matrices(30, seed=35)
    ]
    for sys in systems:
        k = sys.coords
        supports = [
            s for m in range(k + 1) for s in itertools.combinations(range(k), m)
        ] * 2
        memo = SystemSpec(weights=sys.weights, xi=sys.xi, g=sys.g, name=sys.name)
        for i in rng.permutation(len(supports)):
            support = supports[i]
            fresh = SystemSpec(weights=sys.weights, xi=sys.xi, g=sys.g, name=sys.name)
            got = stabilizer_slice(memo, tuple(reversed(support)))
            assert got == stabilizer_slice(fresh, support), (sys.name, support)
            assert stabilizer_slice(memo, support) is got
        assert len(memo.stabilizers) == 2**k


def test_batched_derivatives_match_per_call_oracle_bit_for_bit():
    # every row of one (m, k) call equals the per-point oracle bit for bit,
    # signed zeros on the support included, so batching changes no float
    rng = np.random.default_rng(36)
    for sys in _derivative_systems():
        k = sys.coords
        supports = [
            s for m in range(k + 1) for s in itertools.combinations(range(k), m)
        ] * 3
        z = rng.uniform(0.5, 2.0, size=(len(supports), k)) * np.exp(
            1j * rng.uniform(0, 2 * np.pi, size=(len(supports), k))
        )
        for i, support in enumerate(supports):
            z[i, list(support)] = complex(-0.0, -0.0) if i % 2 else 0.0
        grad, hess = sys.grad_g(z), sys.hess_g(z)
        assert grad.shape == (len(z), 2 * k) and hess.shape == (len(z), 2 * k, 2 * k)
        for row, grad_row, hess_row in zip(z, grad, hess):
            want_grad, want_hess = _derivatives_oracle(sys, row)
            assert grad_row.tobytes() == want_grad.tobytes(), (sys.name, row)
            assert hess_row.tobytes() == want_hess.tobytes(), (sys.name, row)
        # more than one leading axis
        assert sys.grad_g(z[:4].reshape(2, 2, k)).tobytes() == grad[:4].tobytes()
        assert sys.hess_g(z[:4].reshape(2, 2, k)).tobytes() == hess[:4].tobytes()


def _points_of_every_support(
    sys: SystemSpec, rng, per_support: int = 3, scales=(1e-12, 1e-9)
) -> list:
    """Random points with exact zeros on each support, and per support one
    point for each of scales, whose vanishing coordinates sit at about that
    size relative to the others (1e-12 and 1e-9 are inside SUPPORT_TOL, so
    those points share the support, its stabilizer and its kernel width)."""
    k = sys.coords
    points = []
    for m in range(k + 1):
        for support in itertools.combinations(range(k), m):
            for tiny in (0.0,) * per_support + tuple(scales):
                z = rng.uniform(0.5, 2.0, size=k) * np.exp(1j * rng.uniform(0, 2 * np.pi, size=k))
                z[list(support)] *= tiny
                points.append(z)
    return points


def _batch_cases() -> list[tuple[SystemSpec, list]]:
    """The catalog systems with their listed points, the local models, and
    seeded generated families with closed-form critical points, each with
    points of every support pattern, shuffled."""
    rng = np.random.default_rng(37)
    cases = []
    for name in CATALOG_NAMES:
        raw = resources.files("ephemera").joinpath("data", f"{name}.json").read_bytes()
        system, listed = load_spec_bytes(raw, name)[:2]
        cases.append((system, [w.to_complex() for w in listed]))
    for xi in ((1, 1), (2, 1), (3, 1, 2), (4,)):
        cases.append((local_model_system(xi), [np.zeros(len(xi), complex)]))
    families = [FAMILY_11M1, FAMILY_21M1] + [
        build_family(w) for w in generated_weight_matrices(10, seed=38)
    ]
    for fam in families:
        critical = []
        for _ in range(4):
            try:
                critical.append(support_pattern_point(fam, (), rng, critical=True).to_complex())
            except ValueError:  # exponents of one sign: no critical open point
                break
        cases.append((fam, critical))
    out = []
    for sys, extra in cases:
        points = _points_of_every_support(sys, rng) + extra
        out.append((sys, [points[i] for i in rng.permutation(len(points))]))
    return out


def _assert_close(a, b, what) -> None:
    """Equal within 1e-12 of the largest modulus of either list."""
    a, b = np.asarray(a, dtype=complex), np.asarray(b, dtype=complex)
    assert a.shape == b.shape, what
    scale = max(np.max(np.abs(a), initial=0.0), np.max(np.abs(b), initial=0.0))
    assert np.all(np.abs(a - b) <= 1e-12 * scale), what


def _assert_same_report(batched, single) -> None:
    for key in ("point", "label", "support", "stabilizer", "tall", "degree_N", "critical_mod_phi"):
        assert getattr(batched, key) == getattr(single, key), key
    assert [b.kind for b in batched.blocks] == [b.kind for b in single.blocks]
    for got, want in zip(batched.blocks, single.blocks):
        # a block lists lambda, -lambda, ...; which of two moduli equal to
        # rounding comes first is not part of the result
        remaining = list(want.eigenvalues)
        for lam in got.eigenvalues:
            near = min(remaining, key=lambda mu: abs(mu - lam))
            _assert_close([lam], [near], "block eigenvalues")
            remaining.remove(near)
    if single.multiplier is None:
        assert batched.multiplier is None
    else:
        _assert_close(batched.multiplier, single.multiplier, "multiplier")
    d_batched, d_single = batched.diagnostics, single.diagnostics
    assert list(d_batched) == list(d_single)
    for key, want in d_single.items():
        if key in ("eigenvalues", "g_only_eigenvalues"):
            _assert_close(d_batched[key], want, key)
        elif key.endswith("_defect"):
            assert d_batched[key] <= 1e-12 and want <= 1e-12, key
        else:  # slice_dim, form_span_rank, chart_jet and the exact flags
            assert d_batched[key] == want, key


def test_classify_points_matches_classify_point():
    # one batch per system (shuffled supports, critical points and
    # tolerance zeros at 1e-12 and 1e-9 mixed in) against one call per point
    seen = Counter()
    for sys, points in _batch_cases():
        singles = [classify_point(sys, z) for z in points]
        batched = ephemera.classifier.classify_points(sys, np.array(points))
        assert len(batched) == len(points)
        for single, report in zip(singles, batched):
            _assert_same_report(report, single)
            seen[report.label] += 1
            seen["critical"] += report.critical_mod_phi
    assert seen["critical"] > 50
    assert {"regular", "regular-mod-phi-elliptic", "purely-elliptic"} <= set(seen)
    assert any(label in seen for label in EPHEMERAL_LABELS)
    assert ephemera.classifier.classify_points(FAMILY_11M1, []) == []


def test_every_shape_follows_the_stabilizer_of_the_support():
    # one vanishing rule: the support fixes the stabilizer, and its rank
    # fixes D(Phi)'s rank, so a critical report's symplectic slice has
    # complex dimension rank + 1 and a non-critical report is regular
    # exactly when the stabilizer is finite, however small the vanishing
    # coordinates are; batch and single classification agree on the way
    rng = np.random.default_rng(42)
    families = [FAMILY_11M1, FAMILY_21M1] + [
        build_family(w) for w in generated_weight_matrices(10, seed=38)
    ]
    seen = Counter()
    for fam in families:
        sys = fam
        points = _points_of_every_support(
            sys, rng, per_support=1, scales=(1e-12, 3e-10, 1e-9, 3e-9, 1e-8)
        )
        batched = classify_points(sys, np.array(points))
        for z, report in zip(points, batched):
            rank = report.stabilizer.rank
            if report.critical_mod_phi:
                assert report.diagnostics["slice_dim"] == 2 * (rank + 1), (fam.xi.xi, z)
            else:
                regular = report.label == "regular"
                assert regular == (rank == 0), (fam.xi.xi, z, report.label)
            _assert_same_report(report, classify_point(sys, z))
            seen[report.critical_mod_phi, rank > 0] += 1
    assert set(seen) == {(c, r) for c in (True, False) for r in (True, False)}, seen


def _orbit_complement_slice(sys: SystemSpec, z) -> tuple[np.ndarray, np.ndarray]:
    """(kernel, slice basis), the slice built the long way round: the
    orthonormal complement, inside ker D(Phi), of the orbit directions
    J D(Phi)^T (the Hamiltonian vector fields of the components of Phi)."""
    dphi = sys.dphi(z)
    kernel = _dphi_svd(dphi)[2][:, sys.torus_dim - stabilizer_slice(sys, support_of(z)).rank:]
    orbit = standard_complex_structure(sys.coords) @ dphi.T
    q = orbit[:, :0]
    if orbit.size:
        u, s, _ = np.linalg.svd(orbit, full_matrices=False)
        q = u[:, : np.sum(s > RANK_TOL * max(s[0], 1e-300))]
    u, s, _ = np.linalg.svd(kernel - q @ (q.T @ kernel), full_matrices=False)
    return kernel, u[:, : np.sum(s > 0.5)]


def test_symplectic_slice_matches_orbit_complement_oracle():
    # ker D(Phi) ∩ J ker D(Phi) is the orbit's complement in the kernel:
    # equal dimensions and spans (largest principal angle, through its
    # sine) on the catalog systems, the local models and seeded generated
    # families, at points of every support (tolerance zeros at 1e-12 and
    # 1e-9 included)
    rng = np.random.default_rng(40)
    systems = _moment_map_systems() + [
        build_family(w) for w in generated_weight_matrices(12, seed=41)
    ]
    dims = Counter()
    for sys in systems:
        for z in _points_of_every_support(sys, rng, per_support=2):
            kernel, want = _orbit_complement_slice(sys, z)
            u, dim = ephemera.classifier._symplectic_slice(sys.complex_structure, kernel)
            assert dim == want.shape[1], (sys.name, z)
            got = u[:, :dim]
            assert np.linalg.norm(got - want @ (want.T @ got), 2) <= 1e-10, (sys.name, z)
            dims[int(dim)] += 1
    assert {2, 4, 6, 8} <= set(dims), dims


def test_classify_points_derives_once_per_call_support_and_rank(monkeypatch):
    # 50 points over 5 supports: the stabilizer is derived once per support;
    # D(Phi), its SVD (_dphi_svd) and grad g once per call; the criticality
    # rule once per stabilizer rank, and the multipliers and the slice
    # eigenproblem once per rank among the critical points
    counts = Counter()

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    for owner, name in (
        (SystemSpec, "dphi"),
        (SystemSpec, "grad_g"),
        (ephemera.classifier, "_dphi_svd"),
        (ephemera.classifier, "stabilizer_slice"),
        (ephemera.classifier, "is_critical_mod_phi"),
        (ephemera.classifier, "lagrange_multiplier"),
        (ephemera.classifier, "slice_hessian_blocks"),
    ):
        monkeypatch.setattr(owner, name, counted(name, getattr(owner, name)))
    rng = np.random.default_rng(39)
    supports = ((), (0,), (1,), (0, 1), (2,)) * 10
    points = [support_pattern_point(FAMILY_21M1, s, rng).to_complex() for s in supports]
    reports = ephemera.classifier.classify_points(FAMILY_21M1, points)
    assert [r.support for r in reports] == list(supports)
    ranks = {r.stabilizer.rank for r in reports}
    critical_ranks = {r.stabilizer.rank for r in reports if r.critical_mod_phi}
    assert len(ranks) < 5 and critical_ranks, (ranks, critical_ranks)
    assert counts == {
        "dphi": 1, "grad_g": 1, "_dphi_svd": 1, "stabilizer_slice": 5,
        "is_critical_mod_phi": len(ranks), "lagrange_multiplier": len(critical_ranks),
        "slice_hessian_blocks": len(critical_ranks),
    }


def test_rank_stacks_give_the_reports_of_one_stack_per_support():
    # a shuffled batch of every support pattern, tolerance zeros and
    # closed-form critical points gives, point for point, the same report
    # JSON strings as classify_points on each support's points alone: the
    # stacks of one stabilizer rank mix supports without moving a bit
    rng = np.random.default_rng(47)
    families = [FAMILY_11M1, FAMILY_21M1] + [
        build_family(w) for w in generated_weight_matrices(14, seed=47) if w.n >= 3
    ]
    assert {fam.coords for fam in families} == {3, 4, 5}
    mixed = 0
    for fam in families:
        points = _points_of_every_support(fam, rng)
        for _ in range(4):
            try:
                points.append(support_pattern_point(fam, (), rng, critical=True).to_complex())
            except ValueError:  # exponents of one sign: no critical open point
                break
        points = [points[i] for i in rng.permutation(len(points))]
        batched = classify_points(fam, np.array(points))
        by_support = {}
        for i, report in enumerate(batched):
            by_support.setdefault(report.support, []).append(i)
        for rows in by_support.values():
            alone = classify_points(fam, np.array([points[i] for i in rows]))
            for i, report in zip(rows, alone):
                assert json.dumps(report_to_json(batched[i])) == json.dumps(
                    report_to_json(report)
                ), (fam.xi.xi, batched[i].support)
        # critical stacks of one rank that hold points of two supports or more
        supports_per_rank = Counter(
            rank for rank, _ in {(r.stabilizer.rank, r.support) for r in batched
                                 if r.critical_mod_phi}
        )
        mixed += sum(n > 1 for n in supports_per_rank.values())
    assert mixed >= len(families)


def test_near_zero_coordinates_are_classified_on_their_stratum():
    # the one vanishing rule decides the numbers too: with the coordinates of
    # a support moved to 1e-12, 1e-9 and up to 1e-8 of the point's scale, a
    # report equals that of the same point with those coordinates exactly 0,
    # apart from the point it lists; every tall point of degree N >= 2 is
    # then critical mod Phi (invariance kills the angle derivatives, and
    # D(Phi) spans the radial directions of the other coordinates)
    rng = np.random.default_rng(44)
    families = [FAMILY_11M1, FAMILY_21M1] + [
        build_family(w) for w in generated_weight_matrices(10, seed=38)
    ]
    seen = Counter()
    for fam in families:
        sys = fam
        k = sys.coords
        near, exact = [], []
        for m in range(1, k + 1):
            for support in itertools.combinations(range(k), m):
                for tiny in (1e-12, 1e-9, rng.uniform(1e-9, 1e-8)):
                    z = rng.uniform(0.5, 2.0, size=k) * np.exp(1j * rng.uniform(0, 2 * np.pi, k))
                    z[list(support)] = 0.0
                    exact.append(z.copy())
                    angles = np.exp(1j * rng.uniform(0, 2 * np.pi, m))
                    z[list(support)] = tiny * np.max(np.abs(z)) * angles
                    near.append(z)
        for z, got, want in zip(
            near, classify_points(sys, np.array(near)), classify_points(sys, np.array(exact))
        ):
            assert got.support == want.support == support_of(z), (fam.xi.xi, z)
            for key in ("label", "stabilizer", "critical_mod_phi", "multiplier", "blocks",
                        "diagnostics", "jet", "ephemeral"):
                assert getattr(got, key) == getattr(want, key), (fam.xi.xi, z, key)
            if got.tall and got.degree_N >= 2:
                assert got.critical_mod_phi, (fam.xi.xi, z)
                seen["tall"] += 1
            seen[got.label] += 1
    assert seen["tall"] >= 100, seen
    assert any(label in seen for label in EPHEMERAL_LABELS), seen
