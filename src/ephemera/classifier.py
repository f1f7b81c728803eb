"""Singular-point classification for systems (Phi, g) on C^k.

A system is a torus acting linearly with integer weights (quadratic moment
map Phi) together with an invariant polynomial g.  Points are classified by
support, stabilizer, criticality modulo Phi, slice Hessian block types, and
the chart zero-set predicate; every report carries one label from LABELS.

Real coordinates are ordered (x_1, y_1, ..., x_k, y_k).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import NotCriticalModPhi, NotInvariant, NotTall
from .jets import (
    InvariantPolynomial,
    chart_jet,
    check_invariance,
    ephemeral_zero_set_test,
    eval_terms,
    slice_restriction,
    vanishes_below_order_mod_phi,
    wirtinger_terms,
)
from .lattice import (
    DefiningVector,
    StabilizerData,
    connectivity_obstruction,
    kernel_basis,
    slice_weights_from_xi,
)

RANK_TOL = 1e-8
SUPPORT_TOL = 1e-10
EIG_TOL = 1e-7

LABELS = (
    "regular",
    "regular-mod-phi-elliptic",
    "purely-elliptic",
    "hyperbolic-connected",
    "nondegenerate-ephemeral(focus-focus)",
    "nondegenerate-ephemeral(hyperbolic-disconnected)",
    "degenerate-ephemeral",
    "short-elliptic",
    "unclassified-degenerate",
)

EPHEMERAL_LABELS = (
    "nondegenerate-ephemeral(focus-focus)",
    "nondegenerate-ephemeral(hyperbolic-disconnected)",
    "degenerate-ephemeral",
)

# deterministic generic-combination coefficients for the block oracle
_GENERIC_COEFFS = (1.0, 0.6180339887498949, 0.7548776662466927, 0.5698402909980532,
                   0.8191725133961645, 0.6823278038280193)


@dataclass(frozen=True)
class SystemSpec:
    """Torus weights plus an invariant polynomial g.

    weights has one row per torus generator (possibly zero rows for a
    finite group); xi presents the kernel of the defining character and is
    kept non-primitive for disconnected stabilizers.  weight_array holds
    the weights once more as an integer (d, k) array.
    """

    weights: tuple[tuple[int, ...], ...]
    xi: DefiningVector
    g: InvariantPolynomial
    name: str = ""
    weight_array: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.g.xi != self.xi:
            raise NotInvariant("g carries a different invariance context than the system")
        if not check_invariance(self.g):
            raise NotInvariant("g has a term outside the invariant lattice")
        w = np.array(self.weights, dtype=int).reshape(len(self.weights), self.coords)
        object.__setattr__(self, "weight_array", w)

    @property
    def coords(self) -> int:
        return len(self.xi.xi)

    @property
    def torus_dim(self) -> int:
        return len(self.weights)

    # -- moment map ------------------------------------------------------
    # Integer weights, (-w) * y and sums started at 0.0 give the floats of a
    # term-by-term sum, signed zeros included.

    def phi(self, z) -> np.ndarray:
        """Phi_a(z) = 1/2 sum_j w_aj |z_j|^2 for one point or a (..., k) batch."""
        sq = np.abs(np.asarray(z, dtype=complex)) ** 2
        if sq.shape[-1:] != (self.coords,):
            raise ValueError(f"expected {self.coords} coordinates, got shape {sq.shape}")
        return 0.5 * np.sum(self.weight_array * sq[..., None, :], axis=-1, initial=0.0)

    def dphi(self, z) -> np.ndarray:
        z = np.asarray(z, dtype=complex)
        xy = np.stack([z.real, z.imag], axis=-1)
        return (self.weight_array[:, :, None] * xy).reshape(self.torus_dim, 2 * self.coords)

    def hess_phi(self, mu) -> np.ndarray:
        mu = np.asarray(mu, dtype=float)
        diag = np.sum(mu[:, None] * self.weight_array, axis=0, initial=0.0)
        return np.diag(np.repeat(diag, 2))

    def orbit_directions(self, z) -> np.ndarray:
        """Hamiltonian vector fields of the components of Phi, as columns."""
        z = np.asarray(z, dtype=complex)
        w = self.weight_array
        columns = np.stack([(-w) * z.imag, w * z.real], axis=-1)
        return columns.reshape(self.torus_dim, 2 * self.coords).T

    # -- invariant function ----------------------------------------------

    def g_value(self, z) -> float:
        return self.g.eval(z)

    def grad_g(self, z) -> np.ndarray:
        z = np.asarray(z, dtype=complex)
        out = np.zeros(2 * self.coords)
        for j in range(self.coords):
            fz = eval_terms(self.g.wirtinger(j), z)
            out[2 * j] = 2.0 * fz.real
            out[2 * j + 1] = -2.0 * fz.imag
        return out

    def hess_g(self, z) -> np.ndarray:
        z = np.asarray(z, dtype=complex)
        k = self.coords
        out = np.zeros((2 * k, 2 * k))
        dz = [self.g.wirtinger(j) for j in range(k)]
        for j in range(k):
            for l in range(j, k):
                p = eval_terms(wirtinger_terms(dz[j], l, conjugate=False), z)
                q = eval_terms(wirtinger_terms(dz[j], l, conjugate=True), z)
                out[2 * j, 2 * l] = 2.0 * (p + q).real
                out[2 * j, 2 * l + 1] = -2.0 * (p - q).imag
                out[2 * j + 1, 2 * l] = -2.0 * (p + q).imag
                out[2 * j + 1, 2 * l + 1] = -2.0 * (p - q).real
        # symmetrize: mixed partials commute for polynomials
        out = np.triu(out) + np.triu(out, 1).T
        return out


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


def support_of(z, tol: float = SUPPORT_TOL) -> tuple[int, ...]:
    """Indices of the vanishing coordinates (exact zeros always count)."""
    z = np.asarray(z, dtype=complex)
    scale = float(np.max(np.abs(z))) if z.size else 0.0
    return tuple(i for i in range(len(z)) if abs(z[i]) <= tol * scale)


def stabilizer_slice(sys: SystemSpec, support) -> StabilizerData:
    """Stabilizer data of the points whose coordinates vanish exactly on a support set.

    The identity component's Lie algebra is the integer kernel of the
    weights of the non-vanishing coordinates; the component count is the
    gcd of the restricted defining exponents (the finite part lives in the
    kernel character, not in the weight rows).
    """
    support = sorted(set(support))
    others = [j for j in range(sys.coords) if j not in support]
    d = sys.torus_dim
    rows = [[sys.weights[a][j] for a in range(d)] for j in others]
    if rows:
        lie = kernel_basis(rows)
    else:
        lie = tuple(
            tuple(1 if r == j else 0 for r in range(d)) for j in range(d)
        )
    slice_w = tuple(
        tuple(sum(sys.weights[a][i] * vec[a] for a in range(d)) for vec in lie)
        for i in support
    )
    xi_r = sys.xi.restrict(support)
    return StabilizerData(
        rank=len(lie),
        component_count=xi_r.component_count(),
        slice_weights=slice_w,
        xi_restricted=xi_r,
        lie_basis=lie,
    )


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
    return slice_restriction(
        sys.g, point, support, xi_r, max_degree=xi_r.degree_N
    ).without_constant()


def _kernel_of(matrix: np.ndarray, ambient: int) -> np.ndarray:
    """Orthonormal kernel basis (columns) of a row-listed linear map."""
    if matrix.size == 0 or not matrix.shape[0]:
        return np.eye(ambient)
    u, s, vt = np.linalg.svd(matrix)
    smax = s[0] if len(s) else 0.0
    rank = int(np.sum(s > RANK_TOL * max(smax, 1e-300)))
    return vt[rank:].T


def _grad_vanishes_on(kernel: np.ndarray, grad: np.ndarray, tolerance_scale: float) -> bool:
    """Whether grad is zero on the kernel columns, relative to 1 + |grad|."""
    if kernel.shape[1] == 0:
        return True
    tol = RANK_TOL * tolerance_scale
    return float(np.linalg.norm(kernel.T @ grad)) <= tol * (1.0 + float(np.linalg.norm(grad)))


def is_critical_mod_phi(sys: SystemSpec, z, tolerance_scale: float = 1.0) -> bool:
    """Whether the derivative of g vanishes on the kernel of D(Phi).

    tolerance_scale multiplies the relative threshold RANK_TOL.
    """
    kernel = _kernel_of(sys.dphi(z), 2 * sys.coords)
    return _grad_vanishes_on(kernel, sys.grad_g(z), tolerance_scale)


def lagrange_multiplier(sys: SystemSpec, z, tolerance_scale: float = 1.0) -> np.ndarray:
    """Least-squares mu with d(g - Phi^mu) = 0 at z."""
    grad = sys.grad_g(z)
    dphi = sys.dphi(z)
    if not _grad_vanishes_on(_kernel_of(dphi, 2 * sys.coords), grad, tolerance_scale):
        raise NotCriticalModPhi(f"point {z} is not critical modulo the moment map")
    if sys.torus_dim == 0:
        return np.zeros(0)
    mu, *_ = np.linalg.lstsq(dphi.T, grad, rcond=None)
    residual = float(np.linalg.norm(dphi.T @ mu - grad))
    if residual > RANK_TOL * tolerance_scale * (1.0 + float(np.linalg.norm(grad))):
        raise NotCriticalModPhi(f"multiplier residual {residual:.2e} too large")
    return mu


@dataclass
class BlockData:
    kind: str  # elliptic | hyperbolic | focus-focus | degenerate
    eigenvalues: tuple[complex, ...]


def slice_hessian_blocks(
    sys: SystemSpec, z, mu, tolerance_scale: float = 1.0
) -> tuple[list[BlockData], bool, dict]:
    """Block types of the linearized flow on the reduced symplectic slice.

    Builds the orthogonal complement of the orbit directions inside
    ker D(Phi) (a J-invariant symplectic subspace), restricts the Hessian
    of g~ = g - Phi^mu and the stabilizer's quadratic moment components,
    and reads block types off the spectrum of J times a fixed generic
    combination.  Degeneracy: a near-zero eigenvalue, or the restricted
    forms spanning less than the complex slice dimension.
    """
    z = np.asarray(z, dtype=complex)
    k = sys.coords
    kernel = _kernel_of(sys.dphi(z), 2 * k)
    if not _grad_vanishes_on(kernel, sys.grad_g(z), tolerance_scale):
        raise NotCriticalModPhi(f"point {z} is not critical modulo the moment map")
    orbit = sys.orbit_directions(z)
    if orbit.size:
        q, s, _ = np.linalg.svd(orbit, full_matrices=False)
        orbit_on = q[:, s > RANK_TOL * max(s[0] if len(s) else 0.0, 1e-300)]
    else:
        orbit_on = np.zeros((2 * k, 0))
    reduced = kernel - orbit_on @ (orbit_on.T @ kernel)
    u, s, _ = np.linalg.svd(reduced, full_matrices=False)
    slice_basis = u[:, s > 0.5]  # kernel columns keep unit length off the orbit
    dim = slice_basis.shape[1]
    jmat = standard_complex_structure(k)
    diagnostics: dict = {"slice_dim": dim}
    if dim == 0:
        return [], False, diagnostics
    assert dim % 2 == 0, "slice of a symplectic complement must be even-dimensional"
    s_cplx = dim // 2
    # J-invariance and symplectic orthogonality cross-checks
    j_s = slice_basis.T @ jmat @ slice_basis
    leak = np.linalg.norm(jmat @ slice_basis - slice_basis @ j_s)
    diagnostics["j_invariance_defect"] = float(leak)
    if orbit_on.shape[1]:
        diagnostics["symplectic_orthogonality_defect"] = float(
            np.linalg.norm(orbit_on.T @ jmat @ slice_basis)
        )
    hess_gt = sys.hess_g(z) - sys.hess_phi(mu)
    stab = stabilizer_slice(sys, support_of(z))
    forms = [slice_basis.T @ hess_gt @ slice_basis]
    for zeta in stab.lie_basis:
        forms.append(slice_basis.T @ sys.hess_phi(zeta) @ slice_basis)
    # span rank of the restricted quadratic forms
    vecs = np.array([f[np.triu_indices(dim)] for f in forms])
    sv = np.linalg.svd(vecs, compute_uv=False)
    span_rank = int(np.sum(sv > EIG_TOL * max(sv[0] if len(sv) else 0.0, 1e-300)))
    diagnostics["form_span_rank"] = span_rank
    combo = np.zeros((dim, dim))
    for i, f in enumerate(forms):
        norm = np.linalg.norm(f)
        if norm > 1e-300:
            combo += _GENERIC_COEFFS[i % len(_GENERIC_COEFFS)] * f / norm
    eigs = np.linalg.eigvals(j_s @ combo)
    diagnostics["eigenvalues"] = tuple(map(complex, eigs))
    diagnostics["g_only_eigenvalues"] = tuple(
        map(complex, np.linalg.eigvals(j_s @ forms[0]))
    )
    scale = float(np.max(np.abs(eigs))) if len(eigs) else 0.0
    degenerate = span_rank < s_cplx or scale == 0.0
    blocks: list[BlockData] = []
    used = np.zeros(len(eigs), dtype=bool)
    order = np.argsort(-np.abs(eigs))
    for idx in order:
        if used[idx]:
            continue
        lam = eigs[idx]
        used[idx] = True
        if abs(lam) <= EIG_TOL * scale:
            degenerate = True
            blocks.append(BlockData("degenerate", (complex(lam),)))
            continue
        partners = [idx]
        for target in (-lam, np.conj(lam), -np.conj(lam)):
            cand = None
            for i2 in range(len(eigs)):
                if used[i2]:
                    continue
                if abs(eigs[i2] - target) <= 1e-6 * scale and (cand is None):
                    cand = i2
            if cand is not None:
                used[cand] = True
                partners.append(cand)
        group = tuple(complex(eigs[i2]) for i2 in partners)
        if abs(lam.real) <= EIG_TOL * abs(lam):
            blocks.append(BlockData("elliptic", group))
        elif abs(lam.imag) <= EIG_TOL * abs(lam):
            blocks.append(BlockData("hyperbolic", group))
        else:
            blocks.append(BlockData("focus-focus", group))
    return blocks, degenerate, diagnostics


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


def classify_point(sys: SystemSpec, point, tolerance_scale: float = 1.0) -> SingularityReport:
    """Full classification pipeline for one point of the system.

    tolerance_scale multiplies the criticality and multiplier thresholds.
    """
    z = np.asarray(point, dtype=complex)
    support = support_of(z)
    stab = stabilizer_slice(sys, support)
    xi_r = stab.xi_restricted
    tall = xi_r.tall
    n_support = xi_r.degree_N
    diagnostics: dict = {"support_degree": n_support}
    critical = is_critical_mod_phi(sys, z, tolerance_scale)
    mu = None
    blocks: list[BlockData] = []

    if not critical:
        # g is not critical modulo Phi, so dF = (D(Phi), dg) has full rank
        # exactly when D(Phi) does; thresholding the stacked singular values
        # against the largest one instead lets a large |dg| hide a rank drop
        kernel = _kernel_of(sys.dphi(z), 2 * sys.coords)
        dphi_full = kernel.shape[1] == 2 * sys.coords - sys.torus_dim
        label = "regular" if dphi_full else "regular-mod-phi-elliptic"
    else:
        mu = lagrange_multiplier(sys, z, tolerance_scale)
        blocks, degenerate, block_diag = slice_hessian_blocks(sys, z, mu, tolerance_scale)
        diagnostics.update(block_diag)
        kinds = {b.kind for b in blocks}
        if not tall:
            label = "unclassified-degenerate" if degenerate else "short-elliptic"
        elif n_support >= 2:
            p_slice = slice_data(sys, z, support)
            vanishes = vanishes_below_order_mod_phi(p_slice, n_support)
            ephemeral = False
            if vanishes:
                jet = chart_jet(p_slice)
                ephemeral = ephemeral_zero_set_test(jet)
                diagnostics["chart_jet"] = (jet.A, jet.B, jet.D)
            diagnostics["vanishes_below_degree"] = vanishes
            if n_support > 2:
                # exact witness: all slice terms have degree >= n_support > 2
                diagnostics["degree2_taylor_vanishes"] = all(
                    sum(a) + sum(b) > 2 for a, b in p_slice.terms
                )
            if ephemeral and degenerate:
                label = "degenerate-ephemeral"
            elif ephemeral:
                if "focus-focus" in kinds:
                    label = "nondegenerate-ephemeral(focus-focus)"
                elif "hyperbolic" in kinds:
                    label = "nondegenerate-ephemeral(hyperbolic-disconnected)"
                elif stab.component_count > 1:
                    label = "nondegenerate-ephemeral(hyperbolic-disconnected)"
                else:
                    label = "nondegenerate-ephemeral(focus-focus)"
            elif degenerate:
                label = "unclassified-degenerate"
            elif kinds <= {"elliptic"}:
                label = "purely-elliptic"
            elif "hyperbolic" in kinds and stab.component_count == 1:
                label = "hyperbolic-connected"
            elif "focus-focus" in kinds:
                label = "nondegenerate-ephemeral(focus-focus)"
            else:
                label = "nondegenerate-ephemeral(hyperbolic-disconnected)"
        else:
            label = "unclassified-degenerate" if degenerate else "purely-elliptic"

    return SingularityReport(
        point=tuple(map(complex, z)),
        support=tuple(support),
        stabilizer=stab,
        tall=tall,
        degree_N=max(n_support, 1),
        critical_mod_phi=critical,
        multiplier=None if mu is None else tuple(map(float, mu)),
        blocks=blocks,
        label=label,
        diagnostics=diagnostics,
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
