"""Closed-form family on C^n: polar evaluation, Hessian, classification."""

import itertools

import numpy as np
import pytest

from ephemera.classifier import classify_point, slice_data
from ephemera.errors import ConditionsNotMet, NotTall, UnsupportedSupport
from ephemera.family import (
    PolarPoint,
    build_family,
    classify_family_point,
    eval_polar,
    family_hessian,
    hessian_profile_values,
    singularity_conditions,
    support_pattern_point,
)
from ephemera.jets import check_invariance
from ephemera.lattice import WeightMatrix

FAM = build_family(WeightMatrix(((1, 0, 1), (0, 1, 1))))
FAM_CUBIC = build_family(WeightMatrix(((1, 0, 2), (0, 1, 1))))
CATALOG_POINT = PolarPoint(
    r=(np.sqrt(2.0), np.sqrt(2.0), 1.0), theta=(np.pi / 2.0, 0.0, 0.0)
)


def test_build_family_examples():
    assert FAM.xi.xi == (1, 1, -1)
    assert FAM.proper is True
    assert FAM_CUBIC.xi.xi == (2, 1, -1)
    assert FAM_CUBIC.proper is True
    flat = build_family(WeightMatrix(((1, -1),)))
    assert flat.xi.xi == (1, 1)
    assert flat.proper is False


def test_eval_polar_examples():
    phi, g = eval_polar(FAM, PolarPoint((0.0, 0.0, 0.0), (0.0, 0.0, 0.0)))
    assert np.allclose(phi, 0.0) and g == 0.0
    _, g = eval_polar(FAM, CATALOG_POINT)
    assert g == pytest.approx(2.0)
    _, g = eval_polar(FAM, PolarPoint(CATALOG_POINT.r, (0.0, 0.0, 0.0)))
    assert g == pytest.approx(0.0)


def test_polar_cartesian_agreement():
    rng = np.random.default_rng(13)
    for fam in (FAM, FAM_CUBIC):
        for _ in range(200):
            w = PolarPoint(
                r=tuple(rng.uniform(0.1, 2.0, size=3)),
                theta=tuple(rng.uniform(0, 2 * np.pi, size=3)),
            )
            _, g_polar = eval_polar(fam, w)
            g_cart = fam.system.g_value(w.to_complex())
            assert abs(g_polar - g_cart) <= 1e-12 * (1 + abs(g_polar))


def test_singularity_conditions():
    c1, c2 = singularity_conditions(FAM, CATALOG_POINT)
    assert abs(c1) <= 1e-12
    assert abs(c2) <= 1e-12
    c1, _ = singularity_conditions(FAM, PolarPoint(CATALOG_POINT.r, (0, 0, 0)))
    assert c1 == pytest.approx(1.0)
    _, c2 = singularity_conditions(FAM, PolarPoint((1, 1, 1), (0, 0, 0)))
    assert c2 == pytest.approx(1.0)
    with pytest.raises(UnsupportedSupport):
        singularity_conditions(FAM, PolarPoint((0.0, 1.0, 1.0), (0, 0, 0)))


def test_family_hessian_catalog_values():
    theta_val, r_val = hessian_profile_values(FAM, CATALOG_POINT)
    assert theta_val == pytest.approx(-18.0, rel=1e-8)
    assert r_val == pytest.approx(-6.0, rel=1e-8)
    with pytest.raises(ConditionsNotMet):
        family_hessian(FAM, PolarPoint((1, 1, 1), (0, 0, 0)))


def test_family_hessian_matches_finite_differences():
    rng = np.random.default_rng(14)
    for fam in (FAM, FAM_CUBIC):
        for _ in range(12):
            w = support_pattern_point(fam, (), rng, critical=True)
            c1, c2 = singularity_conditions(fam, w)
            assert abs(c1) <= 1e-9 and abs(c2) <= 1e-9
            hess = family_hessian(fam, w)
            mu_sys = fam.system
            from ephemera.classifier import lagrange_multiplier

            mu = lagrange_multiplier(mu_sys, w.to_complex())

            def g_tilde(rr, tt):
                z = np.asarray(rr) * np.exp(1j * np.asarray(tt))
                return mu_sys.g_value(z) - float(mu @ mu_sys.phi(z))

            n = fam.n
            h = 1e-5
            for a in range(n):
                for b in range(n):
                    # theta-theta block
                    tp, tm = list(w.theta), list(w.theta)
                    fd = _second_diff(
                        lambda da, db, a=a, b=b: g_tilde(
                            w.r, _bump(w.theta, [(a, da), (b, db)])
                        ),
                        h,
                    )
                    assert abs(fd - hess[a, b]) <= 1e-4 * (1 + abs(hess[a, b]))
                    # r-r block
                    fd = _second_diff(
                        lambda da, db, a=a, b=b: g_tilde(
                            _bump(w.r, [(a, da), (b, db)]), w.theta
                        ),
                        h,
                    )
                    assert abs(fd - hess[n + a, n + b]) <= 1e-4 * (1 + abs(hess[n + a, n + b]))
                    # mixed block vanishes
                    fd = _second_diff(
                        lambda da, db, a=a, b=b: g_tilde(
                            _bump(w.r, [(a, da)]), _bump(w.theta, [(b, db)])
                        ),
                        h,
                    )
                    assert abs(fd) <= 1e-4 * (1 + abs(fd))


def _bump(values, deltas):
    out = list(values)
    for idx, d in deltas:
        out[idx] = out[idx] + d
    return out


def _second_diff(f, h):
    return (f(h, h) - f(h, -h) - f(-h, h) + f(-h, -h)) / (4 * h * h)


def test_gradient_formulas_match_finite_differences():
    # analytic polar first derivatives against central differences
    rng = np.random.default_rng(15)
    for fam in (FAM, FAM_CUBIC):
        xi = fam.xi.xi
        for _ in range(50):
            w = PolarPoint(
                r=tuple(rng.uniform(0.3, 2.0, size=3)),
                theta=tuple(rng.uniform(0, 2 * np.pi, size=3)),
            )
            r, th = np.array(w.r), np.array(w.theta)
            _, g_w = eval_polar(fam, w)
            modulus = np.prod(r ** np.abs(xi))
            angle = float(np.dot(xi, th))
            h = 1e-5
            for j in range(3):
                # moment map: d(phi_a) = eta_a_j r_j dr_j
                for a, row in enumerate(fam.weights.entries):
                    fd = (
                        _phi_at(fam, _bump(w.r, [(j, h)]), a)
                        - _phi_at(fam, _bump(w.r, [(j, -h)]), a)
                    ) / (2 * h)
                    assert abs(fd - row[j] * r[j]) <= 1e-6 * (1 + abs(row[j] * r[j]))
                # dg/dr_j = |xi_j| g / r_j, dg/dtheta_j = xi_j * modulus * cos(angle)
                fd = (
                    eval_polar(fam, PolarPoint(tuple(_bump(w.r, [(j, h)])), w.theta))[1]
                    - eval_polar(fam, PolarPoint(tuple(_bump(w.r, [(j, -h)])), w.theta))[1]
                ) / (2 * h)
                expect = abs(xi[j]) * g_w / r[j]
                assert abs(fd - expect) <= 1e-6 * (1 + abs(expect))
                fd = (
                    eval_polar(fam, PolarPoint(w.r, tuple(_bump(w.theta, [(j, h)]))))[1]
                    - eval_polar(fam, PolarPoint(w.r, tuple(_bump(w.theta, [(j, -h)]))))[1]
                ) / (2 * h)
                expect = xi[j] * modulus * np.cos(angle)
                assert abs(fd - expect) <= 1e-6 * (1 + abs(expect))


def _phi_at(fam, radii, a):
    return 0.5 * sum(
        fam.weights.entries[a][j] * radii[j] ** 2 for j in range(fam.n)
    )


def slice_data_at(fam, w):
    return slice_data(fam.system, w.to_complex(), w.support)


def test_slice_data_examples():
    w = PolarPoint((0.0, 0.0, 1.0), (0.0, 0.0, 0.0))
    p = slice_data_at(FAM, w)
    assert check_invariance(p)
    # prefactor wbar_3 = 1: the slice data is Im(z1 z2)
    for z in ([1.0, 2.0], [1j, 1.0], [0.5 + 0.5j, -1.0]):
        assert p.eval(z) == pytest.approx((z[0] * z[1]).imag)
    # prefactor wbar_3 = -i turns it into -Re(z1 z2)
    w = PolarPoint((0.0, 0.0, 1.0), (0.0, 0.0, np.pi / 2.0))
    p = slice_data_at(FAM, w)
    for z in ([1.0, 2.0], [1j, 1.0]):
        assert p.eval(z) == pytest.approx(-(z[0] * z[1]).real)
    # cubic family at the same support
    w = PolarPoint((0.0, 0.0, 1.0), (0.0, 0.0, 0.0))
    p = slice_data_at(FAM_CUBIC, w)
    for z in ([1.0, 2.0], [1j, 1.0]):
        assert p.eval(z) == pytest.approx((z[0] ** 2 * z[1]).imag)
    with pytest.raises(NotTall):
        slice_data_at(FAM, PolarPoint((1.0, 0.0, 0.0), (0.0,) * 3))


def test_classify_family_point_rules():
    assert classify_family_point(FAM, CATALOG_POINT) == "purely-elliptic"
    assert (
        classify_family_point(FAM, PolarPoint((0, 0, 1.0), (0, 0, 0)))
        == "nondegenerate-ephemeral(focus-focus)"
    )
    assert (
        classify_family_point(FAM_CUBIC, PolarPoint((0, 0, 1.0), (0, 0, 0)))
        == "degenerate-ephemeral"
    )
    # origin: exponents mix signs, short
    assert classify_family_point(FAM, PolarPoint((0, 0, 0), (0, 0, 0))) in (
        "short-elliptic",
        "unclassified-degenerate",
    )
    rng = np.random.default_rng(16)
    w = support_pattern_point(FAM, (), rng)
    assert classify_family_point(FAM, w) == "regular"


def test_family_agrees_with_generic_classifier():
    rng = np.random.default_rng(17)
    per_pattern = 60  # acceptance runs the full 500
    for fam in (FAM, FAM_CUBIC):
        patterns = [
            s
            for k in range(fam.n + 1)
            for s in itertools.combinations(range(fam.n), k)
        ]
        for support in patterns:
            for trial in range(per_pattern):
                critical = trial % 3 == 0 and not support
                try:
                    w = support_pattern_point(fam, support, rng, critical=critical)
                except ValueError:
                    continue
                closed = classify_family_point(fam, w)
                generic = classify_point(fam.system, w.to_complex()).label
                assert closed == generic, (fam.xi.xi, support, w, closed, generic)


def test_agreement_with_zero_weight_coordinate():
    # a fourth coordinate with zero exponent exercises the toric-elliptic
    # slice directions and the short branches
    fam = build_family(
        WeightMatrix(((1, 0, 1, 0), (0, 1, 1, 0), (0, 0, 0, 1)))
    )
    assert fam.xi.xi == (1, 1, -1, 0)
    assert fam.proper is True
    rng = np.random.default_rng(21)
    patterns = [
        s for k in range(fam.n + 1) for s in itertools.combinations(range(fam.n), k)
    ]
    seen = set()
    for support in patterns:
        for trial in range(25):
            critical = trial % 4 == 0 and all(fam.xi.xi[i] == 0 for i in support)
            try:
                w = support_pattern_point(fam, support, rng, critical=critical)
            except ValueError:
                continue
            closed = classify_family_point(fam, w)
            generic = classify_point(fam.system, w.to_complex()).label
            assert closed == generic, (support, w, closed, generic)
            seen.add(closed)
    assert "purely-elliptic" in seen
    assert "short-elliptic" in seen
    assert "regular-mod-phi-elliptic" in seen
    assert "nondegenerate-ephemeral(focus-focus)" in seen
    assert "unclassified-degenerate" in seen


def test_high_degree_open_stratum_points_are_regular():
    # degree 39: |dg| reaches ~1e10 at these radii, which must not hide the
    # full rank of D(Phi) on the open stratum
    fam = build_family(WeightMatrix(((2, 1, 1, 0), (0, 2, -1, 2), (1, -2, -1, 2))))
    assert fam.xi.xi == (8, 2, -18, -11)
    rng = np.random.default_rng(3)
    for _ in range(20):
        w = PolarPoint(
            r=tuple(rng.uniform(1.5, 2.0, 4)),
            theta=tuple(rng.uniform(0.0, 2.0 * np.pi, 4)),
        )
        assert classify_family_point(fam, w) == "regular"
        assert classify_point(fam.system, w.to_complex()).label == "regular", w


def test_family_hessian_on_zero_exponent_support():
    # critical points with a vanishing zero-exponent coordinate still admit
    # the closed-form Hessian over the moving coordinates
    fam = build_family(WeightMatrix(((1, 0, 1, 0), (0, 1, 1, 0), (0, 0, 0, 1))))
    rng = np.random.default_rng(24)
    for _ in range(10):
        w = support_pattern_point(fam, (3,), rng, critical=True)
        c1, c2 = singularity_conditions(fam, w)
        assert abs(c1) <= 1e-9 and abs(c2) <= 1e-9
        theta_val, r_val = hessian_profile_values(fam, w)
        _, g_w = eval_polar(fam, w)
        assert g_w != 0.0
        # both quadratic values have the opposite sign of g(w)
        assert np.sign(theta_val) == -np.sign(g_w)
        assert np.sign(r_val) == -np.sign(g_w)
        moving = [j for j in range(4) if j != 3]
        xi = fam.xi.xi
        expected_theta = -sum(xi[j] ** 2 for j in moving) ** 2 * g_w
        assert theta_val == pytest.approx(expected_theta, rel=1e-10)
        rep = classify_point(fam.system, w.to_complex())
        assert rep.label == "purely-elliptic"


def test_ephemeral_predicate_tracks_support_degree():
    # slice data is ephemeral exactly when the support degree is at least 2
    from ephemera.jets import chart_jet, ephemeral_zero_set_test, vanishes_below_order_mod_phi

    rng = np.random.default_rng(18)
    for fam in (FAM, FAM_CUBIC):
        for support in [(0,), (1,), (0, 1)]:
            w = support_pattern_point(fam, support, rng)
            xi_r = fam.xi.restrict(support)
            if not xi_r.tall or xi_r.degree_N < 2:
                continue
            p = slice_data_at(fam, w)
            assert vanishes_below_order_mod_phi(p, xi_r.degree_N)
            assert ephemeral_zero_set_test(chart_jet(p)) is True
