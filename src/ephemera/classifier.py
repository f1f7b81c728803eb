"""Singular-point classification for systems (Phi, g) on C^k.

A system is a torus acting linearly with integer weights (quadratic moment
map Phi) together with an invariant polynomial g.  Points are classified by
support, stabilizer, criticality modulo Phi, slice Hessian block types, and
the chart zero-set predicate; every report carries one label.  Every system
has an (n-1)-torus acting on C^n, the kernel of its defining character.

Real coordinates are ordered (x_1, y_1, ..., x_k, y_k).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidAction, NotInvariant, NotTall, PrerequisiteVanishingFailed
from .jets import (
    ChartJet,
    InvariantPolynomial,
    c_complex,
    chart_jet,
    check_invariance,
    ephemeral_zero_set_test,
    slice_restriction,
    wirtinger_terms,
)
from .lattice import (
    DefiningVector,
    StabilizerData,
    WeightMatrix,
    connectivity_obstruction,
    kernel_basis,
    properness_check,
    slice_weights_from_xi,
)

RANK_TOL = 1e-8
# The one vanishing rule: a coordinate is zero at or below 1e-8 of the
# point's scale.  The support fixes the stabilizer, whose rank fixes that of
# D(Phi); a smaller tolerance would keep in the row space directions of
# singular value below 1e-8, which an SVD fixes only to about eps over it
# and whose inverse scales the multiplier.
SUPPORT_TOL = 1e-8
EIG_TOL = 1e-7

# deterministic generic-combination coefficients for the block oracle
_GENERIC_COEFFS = (1.0, 0.6180339887498949, 0.7548776662466927, 0.5698402909980532,
                   0.8191725133961645, 0.6823278038280193)


@dataclass(frozen=True)
class SystemSpec:
    """Torus weights plus an invariant polynomial g.

    weights has one row per generator of a (k-1)-torus on C^k (no rows
    when k = 1) and xi presents the kernel of the defining character, kept
    non-primitive for disconnected stabilizers; each row must pair to 0
    with xi, or InvalidAction is raised.  A family on C^n also keeps its
    validated weight_matrix (whose entries and kernel are weights and xi),
    and its g is Im P, the imaginary part of the defining monomial; proper
    says whether its moment map is proper, and is False without a weight
    matrix.  weight_array holds the weights once more as an integer (d, k)
    array and complex_structure the standard J on R^2k.
    The Wirtinger derivative tables of g are built on first use (a fiber
    scan never needs them), and stabilizers holds the stabilizer data of
    each support seen so far.
    """

    weights: tuple[tuple[int, ...], ...]
    xi: DefiningVector
    g: InvariantPolynomial
    name: str = ""
    weight_matrix: WeightMatrix | None = None
    proper: bool = field(init=False, compare=False)
    weight_array: np.ndarray = field(init=False, repr=False, compare=False)
    complex_structure: np.ndarray = field(init=False, repr=False, compare=False)
    stabilizers: dict = field(init=False, repr=False, compare=False, default_factory=dict)
    g_derivatives: tuple | None = field(init=False, repr=False, compare=False, default=None)

    def __post_init__(self):
        k = self.coords
        if self.torus_dim != k - 1 or any(
                len(row) != k or sum(w * x for w, x in zip(row, self.xi.xi))
                for row in self.weights):
            raise InvalidAction(f"weights {self.weights} are not a {k - 1} x {k} "
                                f"matrix that xi = {self.xi.xi} annihilates")
        if self.g.xi != self.xi:
            raise NotInvariant("g carries a different invariance context than the system")
        if not check_invariance(self.g):
            raise NotInvariant("g has a term outside the invariant lattice")
        matrix = self.weight_matrix
        if matrix is not None:
            if (self.weights, self.xi.xi) != (matrix.entries, matrix.kernel):
                raise InvalidAction("weights and xi differ from the weight matrix's")
            if self.g != InvariantPolynomial.imag_defining_monomial(self.xi):
                raise NotInvariant("a family's g must be Im P of its defining vector")
        object.__setattr__(self, "proper", matrix is not None and properness_check(matrix))
        w = np.array(self.weights, dtype=int).reshape(k - 1, k)
        object.__setattr__(self, "weight_array", w)
        object.__setattr__(self, "complex_structure", standard_complex_structure(k))

    @property
    def coords(self) -> int:
        return len(self.xi.xi)

    @property
    def torus_dim(self) -> int:
        return len(self.weights)

    # -- moment map ------------------------------------------------------
    # Integer weights, (-w) * y and sums started at 0.0 give the floats of a
    # term-by-term sum, signed zeros included.  Every method takes one point
    # or a batch with leading axes, as phi does.

    def phi(self, z) -> np.ndarray:
        """Phi_a(z) = 1/2 sum_j w_aj |z_j|^2 for one point or a (..., k) batch."""
        sq = np.abs(np.asarray(z, dtype=complex)) ** 2
        if sq.shape[-1:] != (self.coords,):
            raise ValueError(f"expected {self.coords} coordinates, got shape {sq.shape}")
        return 0.5 * np.sum(self.weight_array * sq[..., None, :], axis=-1, initial=0.0)

    def dphi(self, z) -> np.ndarray:
        """D(Phi) by rows, (..., d, 2k)."""
        z = np.asarray(z, dtype=complex)
        xy = np.stack([z.real, z.imag], axis=-1)
        out = self.weight_array[:, :, None] * xy[..., None, :, :]
        return out.reshape(z.shape[:-1] + (self.torus_dim, 2 * self.coords))

    def hess_phi(self, mu) -> np.ndarray:
        """Hessian of mu . Phi, (..., 2k, 2k) for mu of shape (..., d)."""
        mu = np.asarray(mu, dtype=float)
        diag = np.sum(mu[..., :, None] * self.weight_array, axis=-2, initial=0.0)
        out = np.zeros(diag.shape[:-1] + (2 * self.coords, 2 * self.coords))
        idx = np.arange(2 * self.coords)
        out[..., idx, idx] = np.repeat(diag, 2, axis=-1)
        return out

    # -- invariant function ----------------------------------------------

    def g_value(self, z) -> float:
        return self.g.eval(z)

    def _derivative_tables(self) -> tuple[list, dict]:
        """(d g/d z_j by j, (d2 g/dz_l dz_j, d2 g/dzbar_l dz_j) by (j, l >= j)).

        Compiled term lists (see _compile_terms), derived exactly once and
        converted once, in the term order of wirtinger_terms.
        """
        if self.g_derivatives is None:
            k = self.coords
            dz = [self.g.wirtinger(j) for j in range(k)]
            first = [_compile_terms(d) for d in dz]
            second = {
                (j, l): (
                    _compile_terms(wirtinger_terms(dz[j], l, conjugate=False)),
                    _compile_terms(wirtinger_terms(dz[j], l, conjugate=True)),
                )
                for j in range(k)
                for l in range(j, k)
            }
            object.__setattr__(self, "g_derivatives", (first, second))
        return self.g_derivatives

    def grad_g(self, z) -> np.ndarray:
        """Real gradient of g, (..., 2k); equal bit for bit to eval_terms per point."""
        z = np.asarray(z, dtype=complex)
        first, _ = self._derivative_tables()
        powers = _Powers(z.reshape(-1, self.coords))
        out = np.zeros((len(powers.z), 2 * self.coords))
        for j, terms in enumerate(first):
            re, im = _eval_compiled(terms, powers)
            out[:, 2 * j] = 2.0 * re
            out[:, 2 * j + 1] = -2.0 * im
        return out.reshape(z.shape[:-1] + out.shape[-1:])

    def hess_g(self, z) -> np.ndarray:
        """Real Hessian of g, (..., 2k, 2k); equal bit for bit to eval_terms per point."""
        z = np.asarray(z, dtype=complex)
        _, second = self._derivative_tables()
        powers = _Powers(z.reshape(-1, self.coords))
        out = np.zeros((len(powers.z), 2 * self.coords, 2 * self.coords))
        for (j, l), (p_terms, q_terms) in second.items():
            pr, pi = _eval_compiled(p_terms, powers)
            qr, qi = _eval_compiled(q_terms, powers)
            out[:, 2 * j, 2 * l] = 2.0 * (pr + qr)
            out[:, 2 * j, 2 * l + 1] = -2.0 * (pi - qi)
            out[:, 2 * j + 1, 2 * l] = -2.0 * (pi + qi)
            out[:, 2 * j + 1, 2 * l + 1] = -2.0 * (pr - qr)
        # symmetrize: mixed partials commute for polynomials
        out = np.triu(out) + np.swapaxes(np.triu(out, 1), -1, -2)
        return out.reshape(z.shape[:-1] + out.shape[-2:])


def _compile_terms(terms: dict) -> tuple:
    """A raw term dict as ((coefficient, ((j, e, conjugate), ...)), ...),
    with each factor z_j^e (or zbar_j^e) in the order eval_terms multiplies."""
    return tuple(
        (
            c_complex(c),
            tuple((j, e, False) for j, e in enumerate(a) if e)
            + tuple((j, e, True) for j, e in enumerate(b) if e),
        )
        for (a, b), c in terms.items()
    )


class _Powers:
    """Real and imaginary parts of z_j^e and zbar_j^e over the rows of an
    (m, k) array, each computed once.  np.power takes the same integer
    power loop as a complex scalar's ** (the array operator's fast path
    for ** 2 squares differently)."""

    def __init__(self, z: np.ndarray):
        self.z = z
        self._parts: dict = {}

    def __getitem__(self, key) -> tuple[np.ndarray, np.ndarray]:
        parts = self._parts.get(key)
        if parts is None:
            j, e, conjugate = key
            col = np.conj(self.z[:, j]) if conjugate else self.z[:, j]
            value = np.power(col, e)
            parts = self._parts[key] = (value.real, value.imag)
        return parts


def _eval_compiled(terms: tuple, powers: _Powers) -> tuple[np.ndarray, np.ndarray]:
    """Real and imaginary parts of eval_terms at each row, bit for bit.

    Products are spelled out in unfused real arithmetic, as a complex
    scalar multiplies; numpy's vectorised complex multiply rounds differently.
    """
    m = len(powers.z)
    total_re, total_im = np.zeros(m), np.zeros(m)
    for c, factors in terms:
        re, im = c.real, c.imag
        for key in factors:
            pr, pi = powers[key]
            re, im = re * pr - im * pi, re * pi + im * pr
        total_re += re
        total_im += im
    return total_re, total_im


def standard_complex_structure(k: int) -> np.ndarray:
    return np.kron(np.eye(k), [[0, -1], [1, 0]])


def local_model_system(
    xi_entries, g: InvariantPolynomial | None = None, name: str = ""
) -> SystemSpec:
    """Slice system of a local model: identity-component weights plus the
    kernel character; g defaults to the imaginary part of the defining
    monomial."""
    xi = (
        xi_entries
        if isinstance(xi_entries, DefiningVector)
        else DefiningVector.from_entries(xi_entries)
    )
    rows = tuple(zip(*slice_weights_from_xi(xi)))
    if g is None:
        g = InvariantPolynomial.imag_defining_monomial(xi)
    return SystemSpec(weights=rows, xi=xi, g=g, name=name)


def _vanishing(z: np.ndarray) -> np.ndarray:
    """Mask of the coordinates that count as zero, for one point or a (..., k)
    batch: |z_j| <= SUPPORT_TOL * max_i |z_i| (exact zeros always count)."""
    size = np.abs(z)
    return size <= SUPPORT_TOL * np.max(size, axis=-1, initial=0.0, keepdims=True)


def support_of(z) -> tuple[int, ...]:
    """Indices of the vanishing coordinates (exact zeros always count)."""
    return tuple(np.flatnonzero(_vanishing(np.asarray(z, dtype=complex))).tolist())


def _groups(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(distinct rows of an (m, k) array, the index of each row among them)."""
    if np.all(keys == keys[:1]):  # the common case, and every single point
        return keys[:1], np.zeros(len(keys), dtype=int)
    unique, inverse = np.unique(keys, axis=0, return_inverse=True)
    return unique, inverse.reshape(-1)


def stabilizer_slice(sys: SystemSpec, support) -> StabilizerData:
    """Stabilizer data of the points whose coordinates vanish exactly on a support set.

    The identity component's Lie algebra is the integer kernel of the
    weights of the non-vanishing coordinates (the whole torus when every
    coordinate vanishes); the component count is the gcd of the restricted
    defining exponents (the finite part lives in the kernel character, not
    in the weight rows).
    """
    support = tuple(sorted(set(support)))
    cached = sys.stabilizers.get(support)
    if cached is not None:
        return cached
    others = [j for j in range(sys.coords) if j not in support]
    d = sys.torus_dim
    rows = [[sys.weights[a][j] for a in range(d)] for j in others]
    lie = kernel_basis(rows or [[0] * d])
    slice_w = tuple(
        tuple(sum(sys.weights[a][i] * vec[a] for a in range(d)) for vec in lie)
        for i in support
    )
    xi_r = sys.xi.restrict(support)
    stab = StabilizerData(
        rank=len(lie),
        component_count=xi_r.component_count(),
        slice_weights=slice_w,
        xi_restricted=xi_r,
        lie_basis=lie,
    )
    sys.stabilizers[support] = stab
    return stab


def slice_data(sys: SystemSpec, point, support) -> InvariantPolynomial:
    """Lowest-degree slice data of g at a point, on the vanishing coordinates.

    The Taylor data of g up to the restricted degree N, constant term
    dropped; for the family it equals the imaginary part of (prefactor *
    defining monomial of the slice), the prefactor collecting the frozen
    coordinates.  The support must be tall.
    """
    xi_r = sys.xi.restrict(support)
    if not xi_r.tall:
        raise NotTall(f"support exponents {xi_r.xi} mix signs")
    return slice_restriction(sys.g, point, support, xi_r).without_constant()


def _dphi_svd(dphi: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(u, s, v) of one stacked SVD of D(Phi) listed by rows, (..., d, 2k),
    with dphi = u diag(s) v[..., :d]^T.  A point's rank q of D(Phi) is
    sys.torus_dim minus the stabilizer rank of its support, so no threshold
    reads it: the first q columns of v span the row space and the rest are
    an orthonormal basis of the kernel (with no rows, v = I)."""
    u, s, vt = np.linalg.svd(dphi)
    return u, s, np.swapaxes(vt, -1, -2)


def is_critical_mod_phi(kernel, grad, tolerance_scale: float = 1.0):
    """Whether grad g vanishes on ker D(Phi), the orthonormal columns of kernel.

    The one criticality rule: |kernel^T grad| <= RANK_TOL * tolerance_scale
    * (1 + |grad|); an empty kernel passes.  kernel (..., 2k, n) and grad
    (..., 2k) may carry batch axes; a batch gives a boolean array.
    """
    kernel = np.asarray(kernel, dtype=float)
    grad = np.asarray(grad, dtype=float)
    along = (np.swapaxes(kernel, -1, -2) @ grad[..., None])[..., 0]
    critical = np.linalg.norm(along, axis=-1) <= RANK_TOL * tolerance_scale * (
        1.0 + np.linalg.norm(grad, axis=-1)
    )
    return bool(critical) if critical.ndim == 0 else critical


def lagrange_multiplier(u, s, row_space, grad) -> np.ndarray:
    """The minimum-norm mu with D(Phi)^T mu = grad on the row space of D(Phi).

    u (..., d, q), s (..., q) and row_space (..., 2k, q) are the first q
    singular triplets of D(Phi) from _dphi_svd, q its rank, and grad
    (..., 2k); mu = u diag(1/s) row_space^T grad.  The residual is grad's
    part in ker D(Phi), which is_critical_mod_phi has already bounded.
    """
    along = (np.swapaxes(row_space, -1, -2) @ grad[..., None])[..., 0] / s
    return (u @ along[..., None])[..., 0]


@dataclass
class BlockData:
    kind: str  # elliptic | hyperbolic | focus-focus | degenerate
    eigenvalues: tuple[complex, ...]


def _symplectic_slice(jmat: np.ndarray, kernel: np.ndarray) -> tuple[np.ndarray, int]:
    """(u, dim): the first dim columns of u span ker ∩ J ker for kernels
    (..., 2k, n) of one width n.  The rows of D(Phi) span an isotropic
    subspace, so the orbit J ker^perp lies in ker and dim = n - (2k - n);
    ker projects onto J ker with singular values 1 on the slice and 0 on
    the orbit."""
    jk = jmat @ kernel
    u, _, _ = np.linalg.svd(jk @ (np.swapaxes(jk, -1, -2) @ kernel), full_matrices=False)
    return u, 2 * kernel.shape[-1] - kernel.shape[-2]


def slice_hessian_blocks(sys: SystemSpec, z, mu, kernel, lie_basis):
    """Block types of the linearized flow on the reduced symplectic slice.

    kernel holds ker D(Phi) at z as orthonormal columns and lie_basis the
    Lie basis of z's stabilizer as an (r, d) array; the point must be
    critical modulo Phi with multiplier mu.  Builds the slice ker D(Phi) ∩
    J ker D(Phi), of real dimension 2(r + 1) for a stabilizer of rank r,
    restricts the Hessian of g~ = g - Phi^mu and the stabilizer's quadratic
    moment components, and reads block types off the spectrum of J times a
    fixed generic combination.  Degeneracy: a near-zero eigenvalue, or the
    restricted forms spanning less than the complex slice dimension.

    Returns (blocks, degenerate, diagnostics).  For a stack of points of one
    stabilizer rank r (z (m, k), mu (m, d), kernel (m, 2k, n), lie_basis
    (m, r, d)) it returns a list of these, one per point; the linear algebra
    runs stacked.
    """
    z = np.asarray(z, dtype=complex)
    single = z.ndim == 1
    k = sys.coords
    z = z.reshape(-1, k)
    m = len(z)
    mu = np.asarray(mu, dtype=float).reshape(m, sys.torus_dim)
    kernel = np.asarray(kernel, dtype=float)
    kernel = kernel.reshape((m,) + kernel.shape[-2:])
    lie_basis = np.asarray(lie_basis, dtype=float)
    lie_basis = lie_basis.reshape((m,) + lie_basis.shape[-2:])
    u, dim = _symplectic_slice(sys.complex_structure, kernel)
    results = _slice_spectra(sys, z, mu, kernel, u[:, :, :dim], lie_basis)
    return results[0] if single else results


def _slice_spectra(sys, z, mu, kernel, slice_basis, lie_basis) -> list:
    """slice_hessian_blocks for a stack of one stabilizer rank r:
    kernel (m, 2k, n), slice_basis (m, 2k, dim), lie_basis (m, r, d)."""
    dim = slice_basis.shape[-1]
    jmat = sys.complex_structure
    basis_t = np.swapaxes(slice_basis, -1, -2)
    # J-invariance and symplectic orthogonality (S stays in ker) cross-checks
    j_s = basis_t @ jmat @ slice_basis
    leak = np.linalg.norm(jmat @ slice_basis - slice_basis @ j_s, axis=(-2, -1)).tolist()
    orthogonality = None
    if kernel.shape[-1] < 2 * sys.coords:
        orthogonality = np.linalg.norm(
            slice_basis - kernel @ (np.swapaxes(kernel, -1, -2) @ slice_basis), axis=(-2, -1)
        ).tolist()
    hess_gt = sys.hess_g(z) - sys.hess_phi(mu)
    forms = np.concatenate(
        [(basis_t @ hess_gt @ slice_basis)[:, None],
         basis_t[:, None] @ sys.hess_phi(lie_basis) @ slice_basis[:, None]],
        axis=1,
    )
    # span rank of the restricted quadratic forms
    upper = np.triu_indices(dim)
    sv = np.linalg.svd(forms[:, :, upper[0], upper[1]], compute_uv=False)
    span_rank = np.sum(sv > EIG_TOL * np.maximum(sv[:, :1], 1e-300), axis=1)
    norms = np.linalg.norm(forms, axis=(-2, -1))
    combo = np.zeros(slice_basis.shape[:1] + (dim, dim))
    for i in range(forms.shape[1]):
        kept = norms[:, i] > 1e-300
        scaled = _GENERIC_COEFFS[i % len(_GENERIC_COEFFS)] * forms[:, i]
        scaled /= np.where(kept, norms[:, i], 1.0)[:, None, None]
        combo += np.where(kept[:, None, None], scaled, 0.0)
    eigs = np.linalg.eigvals(j_s @ combo)
    # the pairing's numpy work for the whole stack, in one call each
    moduli = np.abs(eigs)
    scales = np.max(moduli, axis=-1).tolist()
    orders = np.argsort(-moduli, axis=-1).tolist()
    values = eigs.astype(complex).tolist()
    g_values = np.linalg.eigvals(j_s @ forms[:, 0]).astype(complex).tolist()
    short = (span_rank < dim // 2).tolist()
    out = []
    for p, rank in enumerate(span_rank.tolist()):
        diagnostics: dict = {"slice_dim": dim, "j_invariance_defect": leak[p]}
        if orthogonality is not None:
            diagnostics["symplectic_orthogonality_defect"] = orthogonality[p]
        diagnostics["form_span_rank"] = rank
        diagnostics["eigenvalues"] = tuple(values[p])
        diagnostics["g_only_eigenvalues"] = tuple(g_values[p])
        blocks, degenerate = _pair_blocks(values[p], orders[p], scales[p], short[p])
        out.append((blocks, degenerate, diagnostics))
    return out


def _pair_blocks(values: list, order: list, scale: float,
                 degenerate: bool) -> tuple[list[BlockData], bool]:
    """Group a Hamiltonian spectrum into blocks, largest modulus first.

    values are the eigenvalues as Python complex numbers, order their
    indices by falling modulus and scale the largest modulus, all read off
    the stack by _slice_spectra.  The pairing runs on Python scalars: the
    same IEEE operations as numpy scalars (abs is hypot in both), without
    their per-operation overhead.
    """
    degenerate = degenerate or scale == 0.0
    blocks: list[BlockData] = []
    used = [False] * len(values)
    for idx in order:
        if used[idx]:
            continue
        lam = values[idx]
        used[idx] = True
        if abs(lam) <= EIG_TOL * scale:
            degenerate = True
            blocks.append(BlockData("degenerate", (lam,)))
            continue
        partners = [idx]
        for target in (-lam, lam.conjugate(), -lam.conjugate()):
            cand = next(
                (i2 for i2, v in enumerate(values)
                 if not used[i2] and abs(v - target) <= 1e-6 * scale),
                None,
            )
            if cand is not None:
                used[cand] = True
                partners.append(cand)
        group = tuple(values[i2] for i2 in partners)
        if abs(lam.real) <= EIG_TOL * abs(lam):
            blocks.append(BlockData("elliptic", group))
        elif abs(lam.imag) <= EIG_TOL * abs(lam):
            blocks.append(BlockData("hyperbolic", group))
        else:
            blocks.append(BlockData("focus-focus", group))
    return blocks, degenerate


@dataclass
class SingularityReport:
    point: tuple[complex, ...]
    support: tuple[int, ...]
    stabilizer: StabilizerData
    tall: bool
    degree_N: int
    critical_mod_phi: bool
    multiplier: tuple[float, ...] | None
    blocks: list[BlockData]
    label: str
    diagnostics: dict = field(default_factory=dict)
    # chart jet and ephemeral verdict of a tall critical point of degree N >= 2
    # (None and False elsewhere); not serialised, ephemeral-test reports them
    jet: ChartJet | None = None
    ephemeral: bool = False


def classify_point(sys: SystemSpec, point, tolerance_scale: float = 1.0) -> SingularityReport:
    """Full classification pipeline for one point: classify_points on [point]."""
    return classify_points(sys, [point], tolerance_scale)[0]


def classify_points(
    sys: SystemSpec, points, tolerance_scale: float = 1.0
) -> list[SingularityReport]:
    """Classify each point of an (m, k) array (or a list of points), in order.

    Each point is put on its stratum, with its vanishing coordinates set to
    0 (exact zeros, signed ones included, stay as they are); the numbers
    are taken there, and the reports list the points as given.  The
    stabilizer is derived once per support.  D(Phi), its one stacked SVD
    and grad g are computed once per call.  A support's stabilizer rank r
    fixes every shape (D(Phi) has rank q = d - r), so the criticality rule,
    the multipliers and the slice eigenproblem run once per rank, reading
    each point's kernel and singular triplets off the SVD.  The eigenvalue
    pairing and the exact jet path run per point.  tolerance_scale
    multiplies the criticality threshold.
    """
    k, d = sys.coords, sys.torus_dim
    z_all = np.asarray(points, dtype=complex)
    if z_all.size == 0:
        return []
    if z_all.ndim != 2 or z_all.shape[1] != k:
        raise ValueError(f"expected points of {k} coordinates, got shape {z_all.shape}")
    vanishing = _vanishing(z_all)
    z = np.where(vanishing & (z_all != 0), 0, z_all)
    masks, which = _groups(vanishing)
    supports = [tuple(np.flatnonzero(mask).tolist()) for mask in masks]
    stabs = [stabilizer_slice(sys, support) for support in supports]
    ranks = np.array([stab.rank for stab in stabs])[which]
    u, s, v = _dphi_svd(sys.dphi(z))
    grad = sys.grad_g(z)
    critical_data = {}
    for r in np.unique(ranks).tolist():
        q = d - r
        rows = np.flatnonzero(ranks == r)
        kernel = np.ascontiguousarray(v[rows, :, q:])
        on = is_critical_mod_phi(kernel, grad[rows], tolerance_scale)
        rows = rows[on]
        if len(rows):
            mu = lagrange_multiplier(u[rows, :, :q], s[rows, :q], v[rows, :, :q], grad[rows])
            lie = np.array([stabs[w].lie_basis for w in which[rows]], dtype=float)
            blocks = slice_hessian_blocks(
                sys, z[rows], mu, kernel[on], lie.reshape(len(rows), r, d)
            )
            critical_data.update((i, (m, *b)) for i, m, b in zip(rows.tolist(), mu, blocks))
    return [
        _report(sys, z_all[i], supports[w], stabs[w], critical_data.get(i))
        for i, w in enumerate(which.tolist())
    ]


def _report(sys, z, support, stab, critical_data) -> SingularityReport:
    """One point's label from its batched data; critical_data is (mu, blocks,
    degenerate, block diagnostics), or None when g is not critical mod Phi.

    A tall critical point of degree N >= 2 also gets the chart jet of its
    slice data and the ephemeral verdict; every tall critical point is then
    labelled by one ladder, which reads the verdict (False below degree 2),
    degeneracy and the block kinds.
    """
    xi_r = stab.xi_restricted
    n_support = xi_r.degree_N
    diagnostics: dict = {"support_degree": n_support}
    mu, jet, ephemeral = None, None, False
    blocks: list[BlockData] = []
    if critical_data is None:
        # g is not critical modulo Phi, so dF = (D(Phi), dg) has full rank
        # exactly when D(Phi) does, that is when the stabilizer is finite
        label = "regular" if stab.rank == 0 else "regular-mod-phi-elliptic"
    else:
        mu, blocks, degenerate, block_diag = critical_data
        diagnostics.update(block_diag)
        kinds = {b.kind for b in blocks}
        if not xi_r.tall:
            label = "unclassified-degenerate" if degenerate else "short-elliptic"
        else:
            if n_support >= 2:
                p_slice = slice_data(sys, z, support)
                try:
                    jet = chart_jet(p_slice)
                except PrerequisiteVanishingFailed:
                    pass  # no jet: the slice data do not vanish below degree N
                else:
                    ephemeral = ephemeral_zero_set_test(jet)
                    diagnostics["chart_jet"] = (jet.A, jet.B, jet.D)
                diagnostics["vanishes_below_degree"] = jet is not None
                if n_support > 2:
                    # exact witness: all slice terms have degree >= n_support > 2
                    diagnostics["degree2_taylor_vanishes"] = all(
                        sum(a) + sum(b) > 2 for a, b in p_slice.terms
                    )
            if degenerate:
                label = "degenerate-ephemeral" if ephemeral else "unclassified-degenerate"
            elif not ephemeral and kinds <= {"elliptic"}:
                label = "purely-elliptic"
            elif not ephemeral and "hyperbolic" in kinds and stab.component_count == 1:
                label = "hyperbolic-connected"
            elif "focus-focus" not in kinds and (
                "hyperbolic" in kinds or stab.component_count > 1
            ):
                label = "nondegenerate-ephemeral(hyperbolic-disconnected)"
            else:
                label = "nondegenerate-ephemeral(focus-focus)"

    return SingularityReport(
        point=tuple(map(complex, z)),
        support=support,
        stabilizer=stab,
        tall=xi_r.tall,
        degree_N=max(n_support, 1),
        critical_mod_phi=critical_data is not None,
        multiplier=None if mu is None else tuple(map(float, mu)),
        blocks=blocks,
        label=label,
        diagnostics=diagnostics,
        jet=jet,
        ephemeral=ephemeral,
    )


@dataclass
class FiberVerdict:
    connectivity_expected: bool
    obstruction: bool
    genericity_ok: bool


def fiber_verdicts(reports) -> FiberVerdict:
    """Aggregate connectivity predicates over the reports of one moment fiber."""
    hyperbolic = [
        r
        for r in reports
        if r.label
        in ("hyperbolic-connected", "nondegenerate-ephemeral(hyperbolic-disconnected)")
    ]
    return FiberVerdict(
        connectivity_expected=not any(
            r.label == "hyperbolic-connected" for r in reports
        ),
        obstruction=connectivity_obstruction(
            [r.stabilizer for r in reports if r.tall]
        ),
        genericity_ok=len(hyperbolic) <= 1,
    )
