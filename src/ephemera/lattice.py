"""Exact integer-lattice algebra for complexity-one torus actions.

Everything in this module is computed with arbitrary-precision integers;
no floating point enters.
Weight matrices are stored as tuples of rows; the j-th *column* is the
isotropy weight of the torus action on the j-th complex coordinate.
Index sets are 0-based throughout.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import gcd, prod

from .errors import InvalidAction

Matrix = tuple[tuple[int, ...], ...]


def _identity(n: int) -> list[list[int]]:
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def _freeze(rows) -> Matrix:
    return tuple(tuple(int(x) for x in row) for row in rows)


def smith_normal_form(a) -> tuple[Matrix, Matrix, Matrix]:
    """Smith normal form of an integer matrix.

    Returns (u, d, v) with u a v = d, u and v unimodular, d diagonal with
    each d[i][i] dividing d[i+1][i+1].  Total function: any shape, any
    integer entries.
    """
    m = len(a)
    n = len(a[0]) if m else 0
    mat = [[int(x) for x in row] for row in a]
    u = _identity(m)
    v = _identity(n)

    def row_op(i, j, q):
        # row_i -= q * row_j
        for c in range(n):
            mat[i][c] -= q * mat[j][c]
        for c in range(m):
            u[i][c] -= q * u[j][c]

    def col_op(i, j, q):
        # col_i -= q * col_j
        for r in range(m):
            mat[r][i] -= q * mat[r][j]
        for r in range(n):
            v[r][i] -= q * v[r][j]

    def row_swap(i, j):
        mat[i], mat[j] = mat[j], mat[i]
        u[i], u[j] = u[j], u[i]

    def col_swap(i, j):
        for r in range(m):
            mat[r][i], mat[r][j] = mat[r][j], mat[r][i]
        for r in range(n):
            v[r][i], v[r][j] = v[r][j], v[r][i]

    for s in range(min(m, n)):
        while True:
            # move the nonzero entry of least magnitude in the trailing block to (s, s)
            pivot = None
            best = None
            for i in range(s, m):
                for j in range(s, n):
                    if mat[i][j] != 0 and (best is None or abs(mat[i][j]) < best):
                        best = abs(mat[i][j])
                        pivot = (i, j)
            if pivot is None:
                break
            if pivot[0] != s:
                row_swap(s, pivot[0])
            if pivot[1] != s:
                col_swap(s, pivot[1])
            # clear the edging below and to the right of (s, s)
            dirty = False
            for i in range(s + 1, m):
                if mat[i][s] != 0:
                    row_op(i, s, mat[i][s] // mat[s][s])
                    dirty = dirty or mat[i][s] != 0
            for j in range(s + 1, n):
                if mat[s][j] != 0:
                    col_op(j, s, mat[s][j] // mat[s][s])
                    dirty = dirty or mat[s][j] != 0
            if dirty:
                continue
            # divisibility: fold in any trailing entry the pivot does not divide
            fixed = True
            for i in range(s + 1, m):
                if any(mat[i][j] % mat[s][s] != 0 for j in range(s + 1, n)):
                    row_op(s, i, -1)
                    fixed = False
                    break
            if fixed:
                break
        if mat[s][s] < 0:
            for c in range(n):
                mat[s][c] = -mat[s][c]
            for c in range(m):
                u[s][c] = -u[s][c]

    return _freeze(u), _freeze(mat), _freeze(v)


def kernel_basis(a) -> tuple[tuple[int, ...], ...]:
    """Basis of the saturated integer kernel lattice {x : a x = 0}.

    Each basis vector is sign-normalized so its first nonzero entry is
    positive, which makes downstream weight data deterministic.
    """
    m = len(a)
    n = len(a[0]) if m else 0
    _, d, v = smith_normal_form(a)
    rank = sum(1 for i in range(min(m, n)) if d[i][i] != 0)
    return tuple(
        canonical_sign(tuple(v[r][j] for r in range(n))) for j in range(rank, n)
    )


def canonical_sign(entries) -> tuple[int, ...]:
    """Flip an integer vector so its first nonzero entry is positive."""
    vec = tuple(int(x) for x in entries)
    for x in vec:
        if x != 0:
            return vec if x > 0 else tuple(-y for y in vec)
    return vec


def tall_and_degree(entries) -> tuple[bool, int]:
    """Tall flag (no two entries of opposite sign) and degree sum(|xi_i|)."""
    vec = [int(x) for x in entries]
    tall = not (any(x > 0 for x in vec) and any(x < 0 for x in vec))
    return tall, sum(abs(x) for x in vec)


@dataclass(frozen=True)
class DefiningVector:
    """Exponent vector of the defining monomial of a local model.

    Canonical sign: the first nonzero entry is positive.  The gcd of the
    entries is the number of components of the group it presents, so the
    vector is deliberately *not* reduced to a primitive one.
    """

    xi: tuple[int, ...]
    degree_N: int
    tall: bool

    @classmethod
    def from_entries(cls, entries) -> "DefiningVector":
        vec = cls.restriction(entries)
        if vec.degree_N == 0:
            raise InvalidAction("defining vector must be nonzero")
        return vec

    @classmethod
    def restriction(cls, entries) -> "DefiningVector":
        # restrictions to a support set may legitimately be zero or empty
        vec = canonical_sign(entries)
        tall, deg = tall_and_degree(vec)
        return cls(xi=vec, degree_N=deg, tall=tall)

    def restrict(self, support) -> "DefiningVector":
        return DefiningVector.restriction([self.xi[i] for i in sorted(support)])

    def component_count(self) -> int:
        g = 0
        for x in self.xi:
            g = gcd(g, abs(x))
        return g if g > 0 else 1

    @property
    def q(self) -> int:
        """prod over positive exponents of xi_j^xi_j, the chart's modulus normalizer."""
        return prod(e**e for e in self.xi if e > 0)


@dataclass(frozen=True)
class WeightMatrix:
    """Isotropy weights of an (n-1)-torus acting on C^n, one weight per column.

    Its one Smith normal form u W v = [I_d 0] gives, uncompared, the kernel
    (v's last column, canonical sign) and the integer right_inverse v[:, :d] u."""

    entries: Matrix
    kernel: tuple[int, ...] = field(init=False, repr=False, compare=False)
    right_inverse: Matrix = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "entries", _freeze(self.entries))
        d = len(self.entries)
        n = len(self.entries[0]) if d else 0
        if n < 2 or d != n - 1:
            raise InvalidAction(
                f"need an (n-1) x n matrix with n >= 2, got {d} x {n}"
            )
        if any(len(row) != n for row in self.entries):
            raise InvalidAction("ragged weight matrix")
        u, diag, v = smith_normal_form(self.entries)
        invariants = [diag[i][i] for i in range(d)]
        if any(x == 0 for x in invariants):
            raise InvalidAction("kernel of the character map has rank > 1")
        if any(x != 1 for x in invariants):
            raise InvalidAction("character map is not surjective onto the lattice")
        object.__setattr__(self, "kernel", canonical_sign(row[d] for row in v))
        object.__setattr__(self, "right_inverse", _freeze(
            [sum(row[i] * u[i][a] for i in range(d)) for a in range(d)] for row in v))

    @property
    def n(self) -> int:
        return len(self.entries[0])

    @property
    def torus_dim(self) -> int:
        return len(self.entries)


def defining_vector(w: WeightMatrix) -> DefiningVector:
    """Primitive generator of the kernel of the character map, canonical sign."""
    return DefiningVector.from_entries(w.kernel)


@dataclass(frozen=True)
class StabilizerData:
    """Stabilizer of the points whose coordinates vanish exactly on a support set.

    slice_weights lists the weights of the identity component on the
    vanishing coordinates, written in the integral basis lie_basis of its
    Lie algebra inside the acting torus.
    """

    rank: int
    component_count: int
    slice_weights: tuple[tuple[int, ...], ...]
    xi_restricted: DefiningVector
    lie_basis: tuple[tuple[int, ...], ...]


def slice_weights_from_xi(xi: DefiningVector) -> tuple[tuple[int, ...], ...]:
    """Weights of ker(chi_xi) acting on the coordinates, one vector per coordinate.

    The Lie algebra of the kernel is the integer null space of xi; in an
    integral basis (v_1, ..., v_h) the weight on the i-th coordinate is
    (v_1[i], ..., v_h[i]).  Finite stabilizers give empty weight vectors.
    """
    basis = kernel_basis([list(xi.xi)])
    return tuple(tuple(vec[i] for vec in basis) for i in range(len(xi.xi)))


def properness_check(w: WeightMatrix) -> bool:
    """Whether some covector pairs strictly positively with every weight.

    By Gordan's alternative such a covector exists exactly when no nonzero
    c >= 0 has sum_j c_j eta_j = 0.  Every relation among the weights is a
    multiple of xi, so that holds exactly when xi mixes signs.
    """
    return not defining_vector(w).tall


def degree_gt2_criterion(slice_weights, component_count: int) -> bool:
    """Whether a tall model with these stabilizer data has defining degree > 2.

    slice_weights is a sequence of integer weight vectors of one length, the
    stabilizer rank (empty vectors when the stabilizer is finite).  A tall
    orbit's symplectic slice has rank + 1 complex dimensions; those the
    list leaves out, such as the non-vanishing direction of a free orbit,
    carry weight zero and are appended here.  Holds exactly if a zero weight
    forces more than two components and an opposite pair forces a
    disconnected group.
    """
    weights = [tuple(v) for v in slice_weights]
    rank = len(weights[0]) if weights else 0
    weights += [(0,) * rank] * (rank + 1 - len(weights))
    for eta in weights:
        if all(x == 0 for x in eta) and component_count <= 2:
            return False
    for i in range(len(weights)):
        for j in range(i + 1, len(weights)):
            paired = all(x + y == 0 for x, y in zip(weights[i], weights[j]))
            if paired and component_count == 1:
                return False
    return True


def connectivity_obstruction(orbit_slices) -> bool:
    """Whether at least three orbit slices block every nondegenerate extension.

    Input: stabilizer data for tall orbits lying in one moment fiber.  True
    when three or more of them have defining degree > 2, in which case no
    extension whose tall singular points are all non-degenerate can have
    every fiber connected.
    """
    hits = 0
    for s in orbit_slices:
        hits += degree_gt2_criterion(s.slice_weights, s.component_count)
    return hits >= 3
