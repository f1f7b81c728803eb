"""Reduced surfaces of the family and desk-scale connectivity checks.

A moment fiber of a proper family reduces to a surface of revolution over
a segment: squared radii solve an affine system clipped to the positive
orthant (solved exactly over the rationals), and the leftover angle psi is
the kernel combination of the coordinate angles.  The induced function is
R(t) sin(psi) with R the radius profile; Morse data and level-set
component counts are computed on grids and cross-checked against each
other.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .errors import ChartUnsupported, EmptyFiber, NotMorse, NotProper
from .family import FamilySystem
from .lattice import smith_normal_form

MIN_RESOLUTION = 64
CRITICAL_LEVEL_OFFSET = 1e-3  # nudge levels off critical values by this times range


@dataclass(frozen=True)
class ReducedSurfaceChart:
    """Segment-times-circle chart of one reduced space."""

    beta: tuple[float, ...]
    xi: tuple[int, ...]
    s_start: tuple[Fraction, ...]
    s_end: tuple[Fraction, ...]
    support_start: tuple[int, ...]
    support_end: tuple[int, ...]
    collapse_start: bool
    collapse_end: bool
    degenerate: bool  # single-point reduced space

    def radius_profile(self, t) -> np.ndarray:
        """R(t) = prod s_j(t)^(|xi_j|/2) over the moving coordinates."""
        t = np.asarray(t, dtype=float)
        s0 = np.array([float(x) for x in self.s_start])
        s1 = np.array([float(x) for x in self.s_end])
        out = np.ones_like(t, dtype=float)
        for j, e in enumerate(self.xi):
            if e == 0:
                continue
            sj = np.clip(s0[j] + (s1[j] - s0[j]) * t, 0.0, None)
            out = out * sj ** (abs(e) / 2.0)
        return out

    def gbar(self, t, psi) -> np.ndarray:
        return self.radius_profile(t) * np.sin(np.asarray(psi, dtype=float))


def reduced_surface(sys: FamilySystem, beta) -> ReducedSurfaceChart:
    """Exact segment solve of the reduced space over a target value.

    The squared radii satisfy (1/2) W s = beta with s >= 0; the solution
    set is the segment s* + c xi clipped to the orthant.  An endpoint
    circle collapses to a point exactly when some clipped coordinate has a
    nonzero exponent; a surviving circle at an endpoint is reported as
    unsupported.
    """
    if not sys.proper:
        raise NotProper("fiber scans require a proper moment map")
    beta = [Fraction(str(b)) if isinstance(b, float) else Fraction(b) for b in beta]
    w = sys.weights.entries
    d, n = len(w), sys.n
    if len(beta) != d:
        raise ValueError(f"target must have {d} components")
    u, diag, v = smith_normal_form(w)
    rhs = [sum(u[i][a] * 2 * beta[a] for a in range(d)) for i in range(d)]
    y = [rhs[i] / diag[i][i] for i in range(d)] + [Fraction(0)] * (n - d)
    s_star = [sum(Fraction(v[j][i]) * y[i] for i in range(n)) for j in range(n)]
    xi = sys.xi.xi
    c_min, c_max = None, None
    for j in range(n):
        if xi[j] > 0:
            bound = -s_star[j] / xi[j]
            c_min = bound if c_min is None else max(c_min, bound)
        elif xi[j] < 0:
            bound = s_star[j] / (-xi[j])
            c_max = bound if c_max is None else min(c_max, bound)
        elif s_star[j] < 0:
            raise EmptyFiber(f"coordinate {j} is forced negative")
    assert c_min is not None and c_max is not None  # proper => mixed signs
    if c_min > c_max:
        raise EmptyFiber(f"segment empty: {float(c_min):.3g} > {float(c_max):.3g}")
    s0 = tuple(s_star[j] + c_min * xi[j] for j in range(n))
    s1 = tuple(s_star[j] + c_max * xi[j] for j in range(n))
    supp0 = tuple(j for j in range(n) if s0[j] == 0)
    supp1 = tuple(j for j in range(n) if s1[j] == 0)
    degenerate = c_min == c_max
    collapse0 = any(xi[j] != 0 for j in supp0) or degenerate
    collapse1 = any(xi[j] != 0 for j in supp1) or degenerate
    if not (collapse0 and collapse1):
        raise ChartUnsupported(
            "an endpoint circle does not collapse; chart form not applicable"
        )
    return ReducedSurfaceChart(
        beta=tuple(map(float, beta)),
        xi=xi,
        s_start=s0,
        s_end=s1,
        support_start=supp0,
        support_end=supp1,
        collapse_start=collapse0,
        collapse_end=collapse1,
        degenerate=degenerate,
    )


@dataclass
class MorseReport:
    critical_points: list  # (t, psi, value, index)

    def index_counts(self) -> tuple[int, int, int]:
        counts = [0, 0, 0]
        for _, _, _, idx in self.critical_points:
            counts[idx] += 1
        return tuple(counts)

    @property
    def euler_characteristic(self) -> int:
        idx0, idx1, idx2 = self.index_counts()
        return idx0 - idx1 + idx2


def _refine_extremum(profile, lo, hi, iterations: int = 60):
    """Golden-section search for an interior extremum of the profile."""
    golden = (np.sqrt(5.0) - 1.0) / 2.0
    maximize = profile(0.5 * (lo + hi)) >= max(profile(lo), profile(hi))
    sign = 1.0 if maximize else -1.0
    a, b = lo, hi
    c = b - golden * (b - a)
    d = a + golden * (b - a)
    fc, fd = sign * profile(c), sign * profile(d)
    for _ in range(iterations):
        if fc >= fd:
            b, d, fd = d, c, fc
            c = b - golden * (b - a)
            fc = sign * profile(c)
        else:
            a, c, fc = c, d, fd
            d = a + golden * (b - a)
            fd = sign * profile(d)
    return 0.5 * (a + b)


def critical_scan(chart, resolution: int = 256) -> MorseReport:
    """Interior critical points of R(t) sin(psi) with discrete indices.

    Critical points sit where the profile derivative vanishes and the
    angle is an extremum of the sine; collapsed endpoints are candidate
    extrema and count only when a surrounding ring has single-signed
    values (the profile vanishing there normally makes them regular).
    """
    resolution = max(int(resolution), MIN_RESOLUTION)

    def profile(t):
        return float(chart.radius_profile(t))

    ts = np.linspace(0.0, 1.0, resolution + 1)
    rv = chart.radius_profile(ts)
    if float(np.max(np.abs(rv))) <= 1e-14:
        raise NotMorse("chart function is identically zero")
    crit_ts = []
    dr = np.diff(rv)
    for i in range(1, len(dr)):
        if dr[i - 1] == 0.0 and dr[i] == 0.0:
            continue
        if dr[i - 1] * dr[i] <= 0.0 and (dr[i - 1] != 0.0 or dr[i] != 0.0):
            t_c = _refine_extremum(profile, ts[max(i - 1, 0)], ts[min(i + 1, resolution)])
            if all(abs(t_c - prev) > 2.0 / resolution for prev in crit_ts):
                crit_ts.append(t_c)
    points = []
    h = 1.0 / resolution
    for t_c in crit_ts:
        r_c = profile(t_c)
        second = (profile(min(t_c + h, 1.0)) - 2.0 * r_c + profile(max(t_c - h, 0.0))) / h**2
        concave = second < 0.0
        points.append((t_c, np.pi / 2.0, r_c, 2 if concave else 1))
        points.append((t_c, 3.0 * np.pi / 2.0, -r_c, 0 if concave else 1))
    for t_end, collapsed in ((0.0, chart.collapse_start), (1.0, chart.collapse_end)):
        if not collapsed:
            continue
        # collapsed endpoints carry the value 0; they are critical extrema
        # only when a surrounding ring stays on one side of that value
        ring_t = h if t_end == 0.0 else 1.0 - h
        ring = chart.gbar(np.full(16, ring_t), np.linspace(0, 2 * np.pi, 16, endpoint=False))
        if np.all(ring > 1e-12):
            points.append((t_end, 0.0, 0.0, 0))
        elif np.all(ring < -1e-12):
            points.append((t_end, 0.0, 0.0, 2))
    return MorseReport(critical_points=points)


class _UnionFind:
    def __init__(self):
        self.parent: dict = {}

    def add(self, x):
        if x not in self.parent:
            self.parent[x] = x

    def find(self, x):
        root = x
        while self.parent[root] != root:
            root = self.parent[root]
        while self.parent[x] != root:
            self.parent[x], x = root, self.parent[x]
        return root

    def union(self, a, b):
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self.parent[rb] = ra

    def component_count(self) -> int:
        return sum(1 for x in self.parent if self.parent[x] == x)


def level_components(chart, c: float, resolution: int = 256) -> int:
    """Connected components of the level set {gbar = c} on a cell grid.

    Cells are marked when the corner values straddle c strictly (bilinear
    interpolants cross exactly then); marked cells are merged when edge
    adjacent, wrapping in the angle and identifying collapsed endpoint
    columns through the pole.  Deterministic fixed scan order.
    """
    resolution = max(int(resolution), MIN_RESOLUTION)
    ts = np.linspace(0.0, 1.0, resolution + 1)
    psis = np.linspace(0.0, 2.0 * np.pi, resolution, endpoint=False)
    values = chart.radius_profile(ts)[:, None] * np.sin(psis)[None, :]
    corner = [values, np.roll(values, -1, axis=1)]
    lo = np.minimum(
        np.minimum(corner[0][:-1], corner[1][:-1]),
        np.minimum(corner[0][1:], corner[1][1:]),
    )
    hi = np.maximum(
        np.maximum(corner[0][:-1], corner[1][:-1]),
        np.maximum(corner[0][1:], corner[1][1:]),
    )
    marked = (lo < c) & (c < hi)
    cells = np.argwhere(marked)
    if not len(cells):
        return 0
    uf = _UnionFind()
    marked_set = set(map(tuple, cells))
    for cell in sorted(marked_set):
        uf.add(cell)
        i, j = cell
        for ni, nj in ((i - 1, j), (i, (j - 1) % resolution)):
            if (ni, nj) in marked_set:
                uf.union((ni, nj), cell)
    first_col = sorted(cell for cell in marked_set if cell[0] == 0)
    if chart.collapse_start and len(first_col) > 1:
        for cell in first_col[1:]:
            uf.union(first_col[0], cell)
    last_col = sorted(cell for cell in marked_set if cell[0] == resolution - 1)
    if chart.collapse_end and len(last_col) > 1:
        for cell in last_col[1:]:
            uf.union(last_col[0], cell)
    return uf.component_count()


@dataclass(frozen=True)
class SyntheticChart:
    """Profile-only stand-in chart for oracle tests.

    dip < 1/3 keeps a single interior maximum; larger dips split the
    profile into two maxima with a saddle pair between them.
    """

    dip: float = 0.7
    collapse_start: bool = True
    collapse_end: bool = True
    beta: tuple[float, ...] = ()
    xi: tuple[int, ...] = ()
    degenerate: bool = False

    def radius_profile(self, t) -> np.ndarray:
        t = np.asarray(t, dtype=float)
        s = np.sin(np.pi * t)
        return s * (1.0 - self.dip * s**2)

    def gbar(self, t, psi) -> np.ndarray:
        return self.radius_profile(t) * np.sin(np.asarray(psi, dtype=float))


@dataclass
class ChartVerdict:
    beta: tuple[float, ...]
    status: str  # ok | empty | point | unsupported | not-morse
    morse: MorseReport | None = None
    levels: dict = field(default_factory=dict)
    no_saddles: bool | None = None
    all_levels_connected: bool | None = None
    euler_is_sphere: bool | None = None
    consistent: bool | None = None


@dataclass
class ConnectivityReport:
    charts: list
    resolution: int
    all_consistent: bool
    synthetic_check: ChartVerdict | None = None


def off_critical_levels(morse: MorseReport, count: int, r_max: float) -> list[float]:
    """Evenly spread sample levels nudged away from critical values."""
    critical_values = sorted({v for _, _, v, _ in morse.critical_points})
    span = 2.0 * r_max
    delta = CRITICAL_LEVEL_OFFSET * span
    levels = []
    for c in np.linspace(-0.95 * r_max, 0.95 * r_max, count):
        c = float(c)
        for v in critical_values:
            if abs(c - v) < delta:
                c = v + delta if c >= v else v - delta
        levels.append(c)
    return levels


def _verdict_for_chart(chart, c_count: int, resolution: int) -> ChartVerdict:
    verdict = ChartVerdict(beta=tuple(chart.beta), status="ok")
    try:
        morse = critical_scan(chart, resolution)
    except NotMorse:
        verdict.status = "not-morse"
        return verdict
    r_max = float(np.max(chart.radius_profile(np.linspace(0, 1, resolution + 1))))
    levels = off_critical_levels(morse, c_count, r_max)
    counts = {c: level_components(chart, c, resolution) for c in levels}
    verdict.morse = morse
    verdict.levels = counts
    idx0, idx1, idx2 = morse.index_counts()
    verdict.no_saddles = idx1 == 0
    verdict.all_levels_connected = all(k <= 1 for k in counts.values()) and any(
        k == 1 for k in counts.values()
    )
    verdict.euler_is_sphere = morse.euler_characteristic == 2
    verdict.consistent = verdict.no_saddles == (
        verdict.all_levels_connected and verdict.euler_is_sphere
    )
    return verdict


def _chart_row(sys: FamilySystem, beta, c_count: int, resolution: int) -> ChartVerdict:
    try:
        chart = reduced_surface(sys, beta)
    except EmptyFiber:
        return ChartVerdict(beta=tuple(map(float, beta)), status="empty")
    except ChartUnsupported:
        return ChartVerdict(beta=tuple(map(float, beta)), status="unsupported")
    if chart.degenerate:
        return ChartVerdict(beta=tuple(chart.beta), status="point")
    return _verdict_for_chart(chart, c_count, resolution)


def connectivity_report(
    sys: FamilySystem,
    beta_grid,
    c_count: int = 21,
    resolution: int = 512,
    synthetic_check: bool = True,
) -> ConnectivityReport:
    """Morse data and level components for each target on the grid.

    Each chart is checked two independent ways: no index-1 critical points
    versus (every sampled nonempty level connected and Euler number 2).
    The verdict is consistent when the two sides agree; an injected
    synthetic saddle profile must come out consistent with both sides
    negative.  Charts are scanned one after another in grid order.
    """
    if not sys.proper:
        raise NotProper("fiber scans require a proper moment map")
    charts = [_chart_row(sys, b, c_count, resolution) for b in beta_grid]
    ok = all(c.consistent for c in charts if c.status == "ok")
    synthetic = None
    if synthetic_check:
        synthetic = _verdict_for_chart(SyntheticChart(dip=0.7), c_count, resolution)
        saddle_seen = not synthetic.no_saddles
        disconnection_seen = not (
            synthetic.all_levels_connected and synthetic.euler_is_sphere
        )
        if not (synthetic.consistent and saddle_seen and disconnection_seen):
            ok = False
    return ConnectivityReport(
        charts=charts,
        resolution=resolution,
        all_consistent=ok,
        synthetic_check=synthetic,
    )
