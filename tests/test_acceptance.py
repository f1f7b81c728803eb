"""Acceptance gate: every criterion at its stated tolerance and budget.

Each test prints one PASS line on success (run with -s or check captured
output); a failure raises before the line prints.
"""

import contextlib
import itertools
import time
from dataclasses import replace
from fractions import Fraction

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from ephemera.classifier import (
    RANK_TOL,
    classify_point,
    classify_points,
    local_model_system,
)
from ephemera.family import (
    PolarPoint,
    build_family,
    classify_family_point,
    eval_polar,
    singularity_conditions,
)
from ephemera.errors import InvalidAction
from ephemera.fiberlab import connectivity_report
from ephemera.jets import (
    InvariantPolynomial,
    chart_jet,
    ephemeral_zero_set_test,
    vanishes_below_order_mod_phi,
)
from ephemera.lattice import (
    DefiningVector,
    WeightMatrix,
    defining_vector,
    degree_gt2_criterion,
    slice_weights_from_xi,
)
from ephemera.localmodel import (
    defining_poly_eval,
    reduced_chart_constant,
    sample_zero_level,
)
from oracle_helpers import (
    family_hessian,
    hessian_profile_values,
    mat_mul,
    pullback_rotation,
    radius_power,
    scale,
    support_pattern_point,
)

FAMILY_11M1 = build_family(WeightMatrix(((1, 0, 1), (0, 1, 1))))
FAMILY_21M1 = build_family(WeightMatrix(((1, 0, 2), (0, 1, 1))))
CATALOG_POINT = PolarPoint(
    r=(np.sqrt(2.0), np.sqrt(2.0), 1.0), theta=(np.pi / 2.0, 0.0, 0.0)
)


def _budget(started: float, seconds: float, label: str) -> None:
    elapsed = time.perf_counter() - started
    assert elapsed < seconds, f"{label} took {elapsed:.1f}s (budget {seconds}s)"
    print(f"PASS {label} [{elapsed:.2f}s]")


def _positive_compositions(total: int):
    """All tuples of positive integers with the given sum."""
    if total == 0:
        yield ()
        return
    for first in range(1, total + 1):
        for rest in _positive_compositions(total - first):
            yield (first,) + rest


def _gauss_power(a: int, b: int, n: int) -> complex:
    """(a + b i)^n in exact integer arithmetic."""
    re, im = 1, 0
    for _ in range(n):
        re, im = re * a - im * b, re * b + im * a
    return complex(re, im)


def test_criterion_1_defining_polynomials():
    started = time.perf_counter()
    gauss = [(1, 0), (0, 1), (1, 1), (2, -1), (-1, 2), (3, 2)]
    for n in range(2, 7):
        xi = DefiningVector.from_entries((n,))
        assert xi.degree_N == n and xi.tall
        # exact: repeated products of exact Gaussian integers
        for a, b in gauss:
            assert defining_poly_eval(xi, [complex(a, b)]) == _gauss_power(a, b, n)
    for p, q in [(1, -1), (2, -1), (1, -3), (3, -2), (1, 0), (0, 1), (5, -4)]:
        w = WeightMatrix(((p, q),))
        xi = defining_vector(w)
        assert xi.xi == (abs(q), abs(p))
        assert xi.degree_N == abs(p) + abs(q)
        assert xi.tall is True
        for a, b in gauss:
            for c, d in gauss:
                expected = _gauss_power(a, b, abs(q)) * _gauss_power(c, d, abs(p))
                assert defining_poly_eval(xi, [complex(a, b), complex(c, d)]) == expected
    for p, q in [(1, 1), (2, 3), (1, 2)]:
        xi = defining_vector(WeightMatrix(((p, q),)))
        assert xi.tall is False
    _budget(started, 1.0, "criterion 1: defining polynomials")


def test_criterion_2_chart_constant():
    started = time.perf_counter()
    for entries in [(2,), (1, 1), (2, 1), (3, 1, 2)]:
        xi = DefiningVector.from_entries(entries)
        c = reduced_chart_constant(xi)
        z = sample_zero_level(xi, 10_000, seed=0)
        norm_sq = np.sum(np.abs(z) ** 2, axis=1)
        p = np.abs(defining_poly_eval(xi, z)) ** (2.0 / xi.degree_N)
        rel = np.abs(norm_sq / p - c) / c
        assert float(rel.max()) <= 1e-9, entries
    _budget(started, 5.0, "criterion 2: reduced-chart scale constant")


def test_criterion_3_ephemeral_predicate():
    started = time.perf_counter()
    checked = 0
    for n in range(2, 7):
        for entries in _positive_compositions(n):
            xi = DefiningVector.from_entries(entries)
            p = InvariantPolynomial.imag_defining_monomial(xi)
            assert vanishes_below_order_mod_phi(p, n) is True, entries
            assert ephemeral_zero_set_test(chart_jet(p)) is True, entries
            checked += 1
        if n % 2 == 0:
            for entries in _positive_compositions(n):
                xi = DefiningVector.from_entries(entries)
                radius = radius_power(xi, n // 2)
                assert vanishes_below_order_mod_phi(radius, n) is True
                jet = chart_jet(radius)
                assert ephemeral_zero_set_test(jet) is False, entries
    assert checked == sum(2 ** (n - 1) for n in range(2, 7))
    _budget(started, 1.0, "criterion 3: ephemeral predicate on catalog data")


def test_criterion_4_degree_criterion_exhaustive():
    started = time.perf_counter()
    for length in (1, 2, 3):
        for entries in itertools.product(range(5), repeat=length):
            if all(x == 0 for x in entries):
                continue
            xi = DefiningVector.from_entries(entries)
            weights = slice_weights_from_xi(xi)
            got = degree_gt2_criterion(weights, xi.component_count())
            assert got == (sum(entries) > 2), entries
    _budget(started, 1.0, "criterion 4: degree-greater-than-two equivalence")


def test_criterion_5_family_reproduction():
    started = time.perf_counter()
    rng = np.random.default_rng(1)
    for fam in (FAMILY_11M1, FAMILY_21M1):
        patterns = [
            s
            for k in range(fam.coords + 1)
            for s in itertools.combinations(range(fam.coords), k)
        ]
        for support in patterns:
            mismatches = 0
            for trial in range(500):
                critical = not support and trial % 5 == 0
                w = support_pattern_point(fam, support, rng, critical=critical)
                if classify_family_point(fam, w) != classify_point(
                    fam, w.to_complex()
                ).label:
                    mismatches += 1
            assert mismatches == 0, (fam.xi.xi, support)
    # the closed-form critical point with its stated invariants
    sys = FAMILY_11M1
    c1, c2 = singularity_conditions(FAMILY_11M1, CATALOG_POINT)
    assert abs(c1) <= 1e-12 and abs(c2) <= 1e-12
    report = classify_point(sys, CATALOG_POINT.to_complex())
    z = CATALOG_POINT.to_complex()
    singular = np.linalg.svd(np.vstack([sys.dphi(z), sys.grad_g(z)]), compute_uv=False)
    assert singular[-1] <= RANK_TOL * singular[0]  # dF drops rank: singular
    assert report.critical_mod_phi is True
    assert report.label == "purely-elliptic"
    theta_val, r_val = hessian_profile_values(FAMILY_11M1, CATALOG_POINT)
    assert abs(theta_val - (-18.0)) <= 1e-8 * 18.0
    assert abs(r_val - (-6.0)) <= 1e-8 * 6.0
    _budget(started, 30.0, "criterion 5: closed-form family reproduction")


def test_criterion_6_derivative_checks():
    started = time.perf_counter()
    rng = np.random.default_rng(2)
    h = 1e-5
    checked = 0
    while checked < 100:
        fam = FAMILY_11M1 if checked % 2 else FAMILY_21M1
        xi = fam.xi.xi
        w = PolarPoint(
            r=tuple(rng.uniform(0.3, 2.0, size=3)),
            theta=tuple(rng.uniform(0.0, 2.0 * np.pi, size=3)),
        )
        r = np.array(w.r)
        _, g_w = eval_polar(fam, w)
        modulus = float(np.prod(r ** np.abs(xi)))
        angle = float(np.dot(xi, w.theta))
        for j in range(3):
            rp = list(w.r)
            rm = list(w.r)
            rp[j] += h
            rm[j] -= h
            for a, row in enumerate(fam.weights):
                fd = (
                    0.5 * sum(row[k] * rp[k] ** 2 for k in range(3))
                    - 0.5 * sum(row[k] * rm[k] ** 2 for k in range(3))
                ) / (2 * h)
                assert abs(fd - row[j] * r[j]) <= 1e-6 * (1 + abs(row[j] * r[j]))
            fd = (
                eval_polar(fam, PolarPoint(tuple(rp), w.theta))[1]
                - eval_polar(fam, PolarPoint(tuple(rm), w.theta))[1]
            ) / (2 * h)
            expected = abs(xi[j]) * g_w / r[j]
            assert abs(fd - expected) <= 1e-6 * (1 + abs(expected))
            tp = list(w.theta)
            tm = list(w.theta)
            tp[j] += h
            tm[j] -= h
            fd = (
                eval_polar(fam, PolarPoint(w.r, tuple(tp)))[1]
                - eval_polar(fam, PolarPoint(w.r, tuple(tm)))[1]
            ) / (2 * h)
            expected = xi[j] * modulus * np.cos(angle)
            assert abs(fd - expected) <= 1e-6 * (1 + abs(expected))
        checked += 1
    # second order at closed-form critical points
    rng = np.random.default_rng(3)
    for fam in (FAMILY_11M1, FAMILY_21M1):
        for _ in range(10):
            w = support_pattern_point(fam, (), rng, critical=True)
            hess = family_hessian(fam, w)
            rep = classify_point(fam, w.to_complex())
            assert rep.critical_mod_phi
            mu = np.array(rep.multiplier)

            def g_tilde(radii, angles):
                z = np.asarray(radii) * np.exp(1j * np.asarray(angles))
                return fam.g_value(z) - float(mu @ fam.phi(z))

            n = fam.coords
            for a in range(n):
                for b in range(n):
                    fd = _mixed_second(
                        lambda da, db: g_tilde(w.r, _shift(w.theta, a, da, b, db)), h
                    )
                    assert abs(fd - hess[a, b]) <= 1e-4 * (1 + abs(hess[a, b]))
                    fd = _mixed_second(
                        lambda da, db: g_tilde(_shift(w.r, a, da, b, db), w.theta), h
                    )
                    assert abs(fd - hess[n + a, n + b]) <= 1e-4 * (
                        1 + abs(hess[n + a, n + b])
                    )
    _budget(started, 5.0, "criterion 6: analytic derivatives vs finite differences")


def _shift(values, a, da, b, db):
    out = list(values)
    out[a] += da
    out[b] += db
    return out


def _mixed_second(f, h):
    return (f(h, h) - f(h, -h) - f(-h, h) + f(-h, -h)) / (4 * h * h)


def test_criterion_7_connectivity_desk_scale():
    started = time.perf_counter()
    betas = [
        (a, b)
        for a in np.linspace(0.8, 2.4, 5)
        for b in np.linspace(0.8, 2.4, 5)
    ]
    report = connectivity_report(
        FAMILY_11M1, betas, c_count=21, resolution=512, synthetic_check=True
    )
    ok_charts = [c for c in report.charts if c.status == "ok"]
    assert len(ok_charts) == 25
    for chart in ok_charts:
        counts = list(chart.levels.values())
        assert all(k == 1 for k in counts if k > 0)
        assert any(k == 1 for k in counts)
        idx0, idx1, idx2 = chart.morse.index_counts()
        assert idx1 == 0
        assert chart.morse.euler_characteristic == 2
        assert chart.consistent is True
    synth = report.synthetic_check
    assert synth.no_saddles is False
    assert synth.all_levels_connected is False
    assert synth.consistent is True
    assert report.all_consistent is True
    _budget(started, 120.0, "criterion 7: desk-scale connectivity verification")


def test_criterion_8_rotation_invariance():
    started = time.perf_counter()
    rng = np.random.default_rng(4)
    catalog = [
        InvariantPolynomial.imag_defining_monomial(DefiningVector.from_entries(e))
        for e in [(2,), (1, 1), (2, 1), (3, 1, 2)]
    ]
    catalog.append(
        InvariantPolynomial.imag_defining_monomial(DefiningVector.from_entries((1, 1)))
        + scale(radius_power(DefiningVector.from_entries((1, 1)), 1), Fraction(1, 10))
    )
    for p in catalog:
        base = chart_jet(p)
        verdict = ephemeral_zero_set_test(base)
        for _ in range(100):
            angles = rng.uniform(0.0, 2.0 * np.pi, size=len(p.xi.xi))
            jet = chart_jet(pullback_rotation(p, angles))
            assert abs(jet.margin() - base.margin()) <= 1e-12
            assert ephemeral_zero_set_test(jet) == verdict
    _budget(started, 2.0, "criterion 8: rotation invariance of the verdict")


def test_criterion_9_eigenvalue_symmetry():
    started = time.perf_counter()
    cases = [
        (FAMILY_11M1, CATALOG_POINT.to_complex()),
        (FAMILY_11M1, np.array([0, 0, 1.0], complex)),
        (FAMILY_21M1, np.array([0, 0, 1.0], complex)),
        (local_model_system((2,)), np.zeros(1, complex)),
        (local_model_system((1, 1)), np.zeros(2, complex)),
        (local_model_system((2, 1)), np.zeros(2, complex)),
        (local_model_system((3, 1, 2)), np.zeros(3, complex)),
    ]
    for sys, z in cases:
        rep = classify_point(sys, z)
        assert rep.critical_mod_phi
        eigs = np.array(rep.diagnostics["eigenvalues"])
        if not len(eigs):
            continue
        scale = float(np.max(np.abs(eigs))) or 1.0
        for lam in eigs:
            assert np.min(np.abs(eigs + lam)) <= 1e-8 * scale
            assert np.min(np.abs(eigs - np.conj(lam))) <= 1e-8 * scale
    _budget(started, 1.0, "criterion 9: Hamiltonian eigenvalue symmetry")


def test_generated_family_label_gate():
    # criterion 5 on random families: 8 seeded valid weight matrices
    # (n in {3, 4}, entries in [-2, 2]), every support pattern, 10 points
    # each, every fifth open-stratum point critical where the signs allow
    started = time.perf_counter()
    rng = np.random.default_rng(2024)
    families = []
    while len(families) < 8:
        n = int(rng.integers(3, 5))
        entries = rng.integers(-2, 3, size=(n - 1, n))
        try:
            weights = WeightMatrix(tuple(tuple(int(x) for x in row) for row in entries))
        except InvalidAction:
            continue
        families.append(build_family(weights))
    checked, critical_points = 0, 0
    for fam in families:
        mixed = min(fam.xi.xi) < 0 < max(fam.xi.xi)
        for k in range(fam.coords + 1):
            for support in itertools.combinations(range(fam.coords), k):
                for trial in range(10):
                    critical = mixed and not support and trial % 5 == 0
                    try:
                        w = support_pattern_point(fam, support, rng, critical=critical)
                    except ValueError:  # no positive radial sum to solve against
                        critical = False
                        w = support_pattern_point(fam, support, rng)
                    generic = classify_point(fam, w.to_complex()).label
                    assert classify_family_point(fam, w) == generic, (
                        fam.weights, support, w)
                    checked += 1
                    critical_points += critical
    assert critical_points > 0
    _budget(started, 15.0, f"generated-family label gate ({checked} points)")


# Symmetry gate: the paper's objects do not depend on a point's place on
# its torus orbit or on a basis of the torus, so neither may the labels or
# the scans, on any g.  Seeded generated families, every support pattern.


@st.composite
def _family_and_points(draw):
    """A family on C^n (n in {3, 4}, weight entries in [-2, 2]) and points of
    every support pattern: three per support, and one closed-form critical
    point on the open stratum where the exponent signs allow (tall supports
    of degree 2 and above are critical on their stratum)."""
    n = draw(st.sampled_from((3, 4)))
    row = st.lists(st.integers(-2, 2), min_size=n, max_size=n)
    entries = draw(st.lists(row, min_size=n - 1, max_size=n - 1))
    try:
        fam = build_family(WeightMatrix(tuple(map(tuple, entries))))
    except InvalidAction:
        assume(False)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    points = [
        support_pattern_point(fam, support, rng)
        for k in range(n + 1)
        for support in itertools.combinations(range(n), k)
        for _ in range(3)
    ]
    with contextlib.suppress(ValueError):  # no mixed exponent signs to solve with
        points.append(support_pattern_point(fam, (), rng, critical=True))
    return fam, np.array([w.to_complex() for w in points])


def _labels(sys, z) -> list[str]:
    return [r.label for r in classify_points(sys, z)]


@settings(derandomize=True, max_examples=40, deadline=None)
@given(_family_and_points(), st.lists(st.floats(-np.pi, np.pi), min_size=3, max_size=3))
def _torus_orbit_block(case, theta):
    fam, z = case
    # z_j -> exp(i <w_j, theta>) z_j, with w_j the j-th weight column
    turned = z * np.exp(1j * (np.array(theta[: fam.torus_dim]) @ fam.weight_array))
    assert _labels(fam, turned) == _labels(fam, z)


def test_symmetry_torus_orbit_leaves_labels_unchanged():
    started = time.perf_counter()
    _torus_orbit_block()
    _budget(started, 10.0, "symmetry: labels constant on torus orbits")


def _unimodular(data, d: int) -> list[list[int]]:
    """A d x d integer matrix of determinant +-1: row additions with
    multipliers in [-2, 2], and sign flips where a row meets itself."""
    u = [[int(i == j) for j in range(d)] for i in range(d)]
    for _ in range(data.draw(st.integers(1, 4))):
        i, j = data.draw(st.integers(0, d - 1)), data.draw(st.integers(0, d - 1))
        k = data.draw(st.integers(-2, 2))
        u[i] = [-a for a in u[i]] if i == j else [a + k * b for a, b in zip(u[i], u[j])]
    return u


def _scan_data(report) -> list:
    """Each chart's verdict, Morse data and level counts, its target aside."""
    return [replace(chart, beta=()) for chart in report.charts]


@settings(derandomize=True, max_examples=40, deadline=None)
@given(_family_and_points(), st.data())
def _basis_change_block(case, data):
    fam, z = case
    u = _unimodular(data, fam.torus_dim)
    changed = build_family(WeightMatrix(mat_mul(u, fam.weights)))
    assert changed.xi == fam.xi
    assert _labels(changed, z) == _labels(fam, z)
    if not fam.proper:
        return
    # targets (1/2) W s over positive squared radii s, and arbitrary ones
    # that may miss the moment image; W -> U W moves the target to U beta
    part = st.fractions(min_value=Fraction(1, 8), max_value=8, max_denominator=8)
    radii = data.draw(st.lists(st.lists(part, min_size=fam.coords, max_size=fam.coords),
                               min_size=1, max_size=3))
    betas = [[sum(w * x for w, x in zip(row, s)) / 2 for row in fam.weights] for s in radii]
    free = st.fractions(min_value=-2, max_value=2, max_denominator=4)
    betas += data.draw(st.lists(st.lists(free, min_size=fam.torus_dim,
                                         max_size=fam.torus_dim), max_size=2))
    moved = [[sum(a * b for a, b in zip(row, beta)) for row in u] for beta in betas]
    options = dict(c_count=5, resolution=64, synthetic_check=False)
    assert _scan_data(connectivity_report(changed, moved, **options)) == _scan_data(
        connectivity_report(fam, betas, **options))


def test_symmetry_basis_change_leaves_labels_and_scans_unchanged():
    started = time.perf_counter()
    _basis_change_block()
    _budget(started, 10.0, "symmetry: labels and scans constant under W -> U W")
