"""Exact lattice algebra: normal forms, defining vectors, stabilizers."""

import itertools
from fractions import Fraction
from math import gcd

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ephemera.classifier import stabilizer_slice
from ephemera.errors import InvalidAction
from ephemera.family import build_family
from ephemera.lattice import (
    DefiningVector,
    WeightMatrix,
    canonical_sign,
    connectivity_obstruction,
    defining_vector,
    degree_gt2_criterion,
    kernel_basis,
    properness_check,
    slice_weights_from_xi,
    smith_normal_form,
    tall_and_degree,
)
from oracle_helpers import fourier_motzkin_proper, mat_det, mat_mul


def stabilizer_of(w, support):
    return stabilizer_slice(build_family(w), support)


def assert_snf_contract(a):
    u, d, v = smith_normal_form(a)
    assert mat_mul(mat_mul(u, a), v) == d
    assert abs(mat_det(u)) == 1
    assert abs(mat_det(v)) == 1
    m, n = len(a), len(a[0]) if a else 0
    diag = [d[i][i] for i in range(min(m, n))]
    for i in range(m):
        for j in range(n):
            if i != j:
                assert d[i][j] == 0
    for x, y in zip(diag, diag[1:]):
        assert x >= 0 and y >= 0
        if x != 0:
            assert y % x == 0
        else:
            assert y == 0
    return diag


def test_snf_identity():
    eye = ((1, 0), (0, 1))
    u, d, v = smith_normal_form(eye)
    assert (u, d, v) == (eye, eye, eye)


def test_snf_diag_2_3():
    diag = assert_snf_contract([[2, 0], [0, 3]])
    assert diag == [1, 6]


def test_snf_single_row_vs_brute_force():
    # brute force: minimize the leading entry of U [1,-1] V over small unimodular U, V
    a = [[1, -1]]
    best = None
    for u00 in (1, -1):
        for v in itertools.product(range(-3, 4), repeat=4):
            vm = [[v[0], v[1]], [v[2], v[3]]]
            if abs(mat_det(vm)) != 1:
                continue
            prod = mat_mul([[u00]], mat_mul(a, vm))
            if prod[0][1] == 0 and prod[0][0] > 0:
                if best is None or prod[0][0] < best:
                    best = prod[0][0]
    assert best == 1
    diag = assert_snf_contract(a)
    assert diag == [1]
    _, d, _ = smith_normal_form(a)
    assert d == ((1, 0),)


def test_snf_random_matrices():
    rng = np.random.default_rng(0)
    for _ in range(1000):
        m = int(rng.integers(1, 5))
        n = int(rng.integers(1, 6))
        a = [[int(x) for x in row] for row in rng.integers(-9, 10, size=(m, n))]
        assert_snf_contract(a)


def test_snf_stress_larger_entries():
    rng = np.random.default_rng(100)
    for _ in range(200):
        m = int(rng.integers(1, 7))
        n = int(rng.integers(1, 7))
        a = [[int(x) for x in row] for row in rng.integers(-99, 100, size=(m, n))]
        assert_snf_contract(a)
    # rank-deficient and zero matrices
    assert_snf_contract([[0, 0], [0, 0]])
    assert_snf_contract([[2, 4], [1, 2], [3, 6]])


def _product(a, b) -> list[list[int]]:
    return [[sum(x * b[t][j] for t, x in enumerate(row)) for j in range(len(b[0]))] for row in a]


def _det_by_elimination(a) -> Fraction:
    """Determinant by Gaussian elimination over the rationals."""
    m = [[Fraction(x) for x in row] for row in a]
    det = Fraction(1)
    for c in range(len(m)):
        pivot = next((r for r in range(c, len(m)) if m[r][c] != 0), None)
        if pivot is None:
            return Fraction(0)
        if pivot != c:
            m[c], m[pivot] = m[pivot], m[c]
            det = -det
        det *= m[c][c]
        for r in range(c + 1, len(m)):
            f = m[r][c] / m[c][c]
            m[r] = [x - f * y for x, y in zip(m[r], m[c])]
    return det


_INTEGER_MATRICES = st.integers(1, 4).flatmap(
    lambda m: st.integers(1, 5).flatmap(
        lambda n: st.lists(
            st.lists(st.integers(-12, 12), min_size=n, max_size=n), min_size=m, max_size=m
        )
    )
)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(_INTEGER_MATRICES)
def test_snf_contract_property(a):
    # oracles independent of ephemera.lattice: u a v = d, |det u| = |det v| = 1,
    # d diagonal with each diagonal entry dividing the next
    u, d, v = smith_normal_form(a)
    assert _product(_product(u, a), v) == [list(row) for row in d]
    assert abs(_det_by_elimination(u)) == 1
    assert abs(_det_by_elimination(v)) == 1
    m, n = len(a), len(a[0])
    assert all(d[i][j] == 0 for i in range(m) for j in range(n) if i != j)
    diag = [d[i][i] for i in range(min(m, n))]
    for x, y in zip(diag, diag[1:]):
        assert y == 0 if x == 0 else y % x == 0


def test_kernel_basis_annihilates():
    rng = np.random.default_rng(1)
    for _ in range(200):
        m = int(rng.integers(1, 4))
        n = int(rng.integers(1, 5))
        a = [[int(x) for x in row] for row in rng.integers(-5, 6, size=(m, n))]
        for vec in kernel_basis(a):
            assert all(sum(r * x for r, x in zip(row, vec)) == 0 for row in a)


def test_canonical_sign():
    assert canonical_sign((0, -2, 1)) == (0, 2, -1)
    assert canonical_sign((3, -1)) == (3, -1)
    assert canonical_sign((0, 0)) == (0, 0)


W_11M1 = WeightMatrix(((1, 0, 1), (0, 1, 1)))
W_21M1 = WeightMatrix(((1, 0, 2), (0, 1, 1)))
W_N2 = WeightMatrix(((1, -1),))


@pytest.mark.parametrize(
    "w,xi,deg,tall",
    [
        (W_11M1, (1, 1, -1), 3, False),
        (W_21M1, (2, 1, -1), 4, False),
        (W_N2, (1, 1), 2, True),
    ],
)
def test_defining_vector_examples(w, xi, deg, tall):
    dv = defining_vector(w)
    assert dv.xi == xi
    assert dv.degree_N == deg
    assert dv.tall is tall
    # oracle: exact annihilation and primitivity
    for row in w.entries:
        assert sum(r * x for r, x in zip(row, dv.xi)) == 0
    g = 0
    for x in dv.xi:
        g = gcd(g, abs(x))
    assert g == 1


def test_defining_vector_column_permutation_consistency():
    rng = np.random.default_rng(2)
    base = defining_vector(W_11M1)
    for _ in range(20):
        perm = rng.permutation(3)
        cols = [tuple(row[int(j)] for row in W_11M1.entries) for j in perm]
        w = WeightMatrix(tuple(zip(*cols)))
        dv = defining_vector(w)
        permuted = canonical_sign([base.xi[int(j)] for j in perm])
        assert dv.xi == permuted


def test_weight_matrix_keeps_kernel_and_integer_right_inverse():
    # the one Smith normal form of validation gives both: W R = I exactly,
    # and the kernel equals the basis a fresh normal form would give
    rng = np.random.default_rng(13)
    count = 0
    seen = set()
    while count < 1000:
        n = int(rng.integers(2, 6))
        a = rng.integers(-3, 4, size=(n - 1, n))
        try:
            w = WeightMatrix(tuple(tuple(int(x) for x in row) for row in a))
        except InvalidAction:
            continue
        count += 1
        seen.add(n)
        identity = tuple(tuple(int(i == j) for j in range(n - 1)) for i in range(n - 1))
        assert mat_mul(w.entries, w.right_inverse) == identity, w.entries
        assert all(isinstance(x, int) for row in w.right_inverse for x in row)
        assert w.kernel == kernel_basis(w.entries)[0], w.entries
    assert seen == {2, 3, 4, 5}


def test_weight_matrix_validation():
    with pytest.raises(InvalidAction):
        WeightMatrix(((2, 0, 2), (0, 1, 1)))  # not surjective
    with pytest.raises(InvalidAction):
        WeightMatrix(((1, 2),) * 2)  # wrong shape: kernel rank 0 side
    with pytest.raises(InvalidAction):
        WeightMatrix(((1,),))  # n must be >= 2


def test_tall_and_degree():
    assert tall_and_degree((4,)) == (True, 4)
    assert tall_and_degree((1, 2)) == (True, 3)
    assert tall_and_degree((1, -1)) == (False, 2)
    assert tall_and_degree((0, -2, -1)) == (True, 3)


def test_stabilizer_examples():
    s = stabilizer_of(W_11M1, (0, 1))
    assert s.rank == 1
    assert s.component_count == 1
    assert s.slice_weights == ((1,), (-1,))
    assert s.xi_restricted.xi == (1, 1)
    assert s.xi_restricted.degree_N == 2

    s = stabilizer_of(W_21M1, (0, 1))
    assert s.rank == 1
    assert s.component_count == 1
    assert s.slice_weights == ((1,), (-2,))
    assert s.xi_restricted.xi == (2, 1)
    assert s.xi_restricted.degree_N == 3

    s = stabilizer_of(W_N2, ())
    assert s.rank == 0
    assert s.component_count == 1
    assert s.xi_restricted.degree_N == 0


def test_stabilizer_slice_weights_annihilated_by_xi():
    # sum_i xi_i eta_i|_h = 0 holds exactly on every support set
    for w in (W_11M1, W_21M1):
        for k in range(w.n + 1):
            for support in itertools.combinations(range(w.n), k):
                s = stabilizer_of(w, support)
                xi = s.xi_restricted.xi
                for comp in range(s.rank):
                    assert sum(x * eta[comp] for x, eta in zip(xi, s.slice_weights)) == 0


def test_stabilizer_component_count_matches_gcd():
    # finite part of the stabilizer is the gcd of the restricted exponents
    for w in (W_11M1, W_21M1):
        xi = defining_vector(w).xi
        for k in range(w.n + 1):
            for support in itertools.combinations(range(w.n), k):
                s = stabilizer_of(w, support)
                g = 0
                for i in support:
                    g = gcd(g, abs(xi[i]))
                assert s.component_count == (g if g > 0 else 1)


def test_component_count_equals_gcd_exhaustive():
    for length in (1, 2, 3):
        for xi in itertools.product(range(6), repeat=length):
            if all(x == 0 for x in xi):
                continue
            dv = DefiningVector.from_entries(xi)
            g = 0
            for x in xi:
                g = gcd(g, x)
            assert dv.component_count() == g


def test_properness():
    assert properness_check(W_11M1) is True
    assert properness_check(W_N2) is False  # contains eta and -eta
    w = WeightMatrix(((1, 0, -1), (0, 1, 0)))
    assert properness_check(w) is False


def test_properness_equals_mixed_sign_kernel():
    # properness_check reads the signs of xi (Gordan's alternative); the
    # reference decides the same half-space certificate by Fourier-Motzkin
    # elimination on the weights, without the kernel vector
    rng = np.random.default_rng(3)
    count = 0
    seen = set()
    while count < 240:
        n = int(rng.integers(2, 6))
        a = rng.integers(-3, 4, size=(n - 1, n))
        try:
            w = WeightMatrix(tuple(tuple(int(x) for x in row) for row in a))
        except InvalidAction:
            continue
        count += 1
        proper = fourier_motzkin_proper(w)
        assert proper == (not defining_vector(w).tall), w.entries
        assert properness_check(w) == proper, w.entries
        seen.add((n, proper))
    assert seen == {(n, p) for n in range(2, 6) for p in (True, False)}


def slice_data_from_xi(xi_entries):
    dv = DefiningVector.from_entries(xi_entries)
    return slice_weights_from_xi(dv), dv.component_count()


def test_degree_gt2_examples():
    weights, comps = slice_data_from_xi((1, 1))
    assert weights == ((1,), (-1,))
    assert comps == 1
    assert degree_gt2_criterion(weights, comps) is False

    assert degree_gt2_criterion(((0,),), 3) is True

    weights, comps = slice_data_from_xi((2, 1))
    assert weights == ((1,), (-2,))
    assert degree_gt2_criterion(weights, comps) is True

    # a stabilizer's slice_weights list only the vanishing coordinates; the
    # criterion adds the slice's zero weights itself, so a free orbit and a
    # support on which xi restricts to zero have degree below 3
    free = stabilizer_of(W_11M1, ())
    assert free.slice_weights == () and free.rank == 0
    assert degree_gt2_criterion(free.slice_weights, free.component_count) is False
    circle = stabilizer_of(WeightMatrix(((1, 0, 0), (0, 1, 1))), (0,))
    assert circle.xi_restricted.xi == (0,) and circle.slice_weights == ((1,),)
    assert degree_gt2_criterion(circle.slice_weights, circle.component_count) is False


def test_degree_gt2_equals_degree_exhaustive():
    # over all nonnegative exponent vectors, criterion == (degree > 2)
    for length in (1, 2, 3):
        for xi in itertools.product(range(5), repeat=length):
            if all(x == 0 for x in xi):
                continue
            weights, comps = slice_data_from_xi(xi)
            assert degree_gt2_criterion(weights, comps) == (sum(xi) > 2), xi


def test_connectivity_obstruction():
    bad = stabilizer_of(W_21M1, (0, 1))  # restricted degree 3
    ok = stabilizer_of(W_11M1, (0, 1))  # restricted degree 2
    assert connectivity_obstruction([bad, bad, bad]) is True
    assert connectivity_obstruction([bad, bad]) is False
    assert connectivity_obstruction([ok, ok, ok]) is False
    assert connectivity_obstruction([ok, bad, bad, bad]) is True
    # free orbits and a support on which xi vanishes have degree below 3: the
    # slice direction along the non-vanishing coordinates has weight zero
    free = stabilizer_of(W_11M1, ())
    assert connectivity_obstruction([free, free, free]) is False
    circle = stabilizer_of(WeightMatrix(((1, 0, 0), (0, 1, 1))), (0,))
    assert circle.xi_restricted.xi == (0,) and circle.rank == 1
    assert connectivity_obstruction([circle, circle, circle, bad, bad]) is False
