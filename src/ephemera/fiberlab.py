"""Reduced surfaces of the family and desk-scale connectivity checks.

A moment fiber of a proper family reduces to a surface of revolution over
a segment: squared radii solve an affine system clipped to the positive
orthant (solved exactly over the rationals), and the leftover angle psi is
the kernel combination of the coordinate angles.  The induced function is
R(t) sin(psi) with R the radius profile.  Both end circles collapse, so
every chart is a sphere and R is exactly 0 at t = 0 and t = 1.  Each
chart states the critical points of its own profile exactly, so the Morse
data do not depend on any grid resolution; level-set component counts are
taken on a cell grid, and the two are cross-checked against each other.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .errors import EmptyFiber, NotProper
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

    def profile_critical_points(self) -> list[tuple[float, bool]]:
        """The one interior critical point of R as [(t, is_max)]: a maximum.

        log R = sum (|xi_j|/2) log s_j(t) sums logarithms of affine functions
        positive on (0, 1), so it is strictly concave, and its doubled
        derivative L(t) = sum |xi_j| (s1_j - s0_j) / s_j(t) falls from +inf
        at the collapsed start to -inf at the collapsed end.  Bisection on
        the sign of L stops when the midpoint stops moving; a float sum too
        small to trust its sign is redone exactly, so t brackets the exact
        root to the last bit.
        """
        moving = [(abs(e), a, b) for e, a, b in zip(self.xi, self.s_start, self.s_end) if e]
        floats = [(k * float(b - a), float(a), float(b)) for k, a, b in moving]

        def slope(t: float):
            terms = [num / (a * (1.0 - t) + b * t) for num, a, b in floats]
            total = math.fsum(terms)
            # each term is off by under 8 roundings of 2**-53, so beyond
            # 2**-49 times the magnitudes the float sum has the sign of L
            if abs(total) > 2.0**-49 * math.fsum(map(abs, terms)):
                return total
            t = Fraction(t)
            return sum(k * (b - a) / (a + (b - a) * t) for k, a, b in moving)

        lo, hi, mid = 0.0, 1.0, 0.5
        while mid not in (lo, hi):
            value = slope(mid)
            if value == 0:
                break
            lo, hi = (mid, hi) if value > 0 else (lo, mid)
            mid = 0.5 * (lo + hi)
        return [(mid, True)]


def reduced_surface(sys: FamilySystem, beta) -> ReducedSurfaceChart:
    """Exact segment solve of the reduced space over a target value.

    The squared radii satisfy (1/2) W s = beta with s >= 0; the solution
    set is the segment s* + c xi clipped to the orthant.  Properness gives
    xi both signs; c_min is where a coordinate with xi_j > 0 reaches 0 and
    c_max where one with xi_j < 0 does, so each endpoint support holds a
    nonzero exponent and both end circles collapse to points.
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
    return ReducedSurfaceChart(
        beta=tuple(map(float, beta)),
        xi=xi,
        s_start=s0,
        s_end=s1,
        support_start=supp0,
        support_end=supp1,
        degenerate=c_min == c_max,
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


def critical_scan(chart) -> MorseReport:
    """Critical points of R(t) sin(psi) with their Morse indices.

    The chart states the interior critical points of its profile R exactly,
    so the report does not depend on any grid resolution.  Each one gives
    two critical points, at psi = pi/2 and 3 pi/2 where the sine is
    extremal; the Hessian there is diag(R'' sin psi, -R sin psi).
    Collapsed endpoints carry none: gbar is 0 there, and every ring around
    one takes both signs and vanishes only at psi = 0 and pi.
    """
    points = []
    for t, is_max in chart.profile_critical_points():
        r = float(chart.radius_profile(t))
        points.append((t, np.pi / 2.0, r, 2 if is_max else 1))
        points.append((t, 3.0 * np.pi / 2.0, -r, 0 if is_max else 1))
    return MorseReport(critical_points=points)


def level_components(chart, levels, resolution: int = 256) -> list[int]:
    """Connected components of each level set {gbar = c} on a cell grid.

    Cells are marked when the corner values straddle c strictly (bilinear
    interpolants cross exactly then); marked cells are merged when edge
    adjacent, wrapping in the angle.  The poles need no identification:
    R is 0 at both ends, so the marked cells of a pole row are those whose
    inner corners R sin(psi) pass c.  At c != 0 they form one run of
    adjacent columns, since the sine is unimodal on each half-turn, and the
    left-neighbour joins connect it; at c = 0 only the cell across psi = pi
    is marked, since sin(0) is exactly 0.  The corner bounds are
    built once per chart; the marked cells of level k are numbered
    k*n^2 + i*n + j so that cells of different levels never join, and all
    levels are labelled together by min-label hooking with pointer jumping.
    Returns one count per level, in order.
    """
    n = max(int(resolution), MIN_RESOLUTION)
    ts = np.linspace(0.0, 1.0, n + 1)
    psis = np.linspace(0.0, 2.0 * np.pi, n, endpoint=False)
    values = chart.radius_profile(ts)[:, None] * np.sin(psis)[None, :]
    rolled = np.roll(values, -1, axis=1)
    lo = np.minimum(values[:-1], rolled[:-1])
    np.minimum(lo, values[1:], out=lo)
    np.minimum(lo, rolled[1:], out=lo)
    hi = np.maximum(values[:-1], rolled[:-1])
    np.maximum(hi, values[1:], out=hi)
    np.maximum(hi, rolled[1:], out=hi)
    size = n * n
    cells = np.concatenate(  # the empty head keeps levels=[] valid
        [np.zeros(0, dtype=np.int64)]
        + [np.flatnonzero((lo < c) & (c < hi)) + k * size for k, c in enumerate(levels)]
    )
    level, local = np.divmod(cells, size)
    row, col = np.divmod(local, n)
    # join each marked cell to its marked up (i-1, j) and left (i, j-1 mod n)
    # neighbours, found by position in the sorted cell numbers
    has_up = np.flatnonzero(row > 0)
    a = np.concatenate([has_up, np.arange(len(cells))])
    target = np.concatenate([cells[has_up] - n, np.where(col > 0, cells - 1, cells + n - 1)])
    b = np.searchsorted(cells, target)
    hit = cells.take(b, mode="clip") == target
    a, b = a[hit], b[hit]
    parent = np.arange(len(cells))
    while True:
        ra, rb = parent[a], parent[b]
        apart = ra != rb
        if not apart.any():
            break
        a, b, ra, rb = a[apart], b[apart], ra[apart], rb[apart]
        # parent[x] <= x holds for every cell, so hooking the larger root onto
        # the smaller makes no cycle; pointer jumping flattens the forest again
        np.minimum.at(parent, np.maximum(ra, rb), np.minimum(ra, rb))
        while True:
            jumped = parent[parent]
            if np.array_equal(jumped, parent):
                break
            parent = jumped
    roots = level[parent == np.arange(len(cells))]
    return np.bincount(roots, minlength=len(levels)).tolist()


@dataclass(frozen=True)
class SyntheticChart:
    """Profile-only stand-in chart for oracle tests.

    dip < 1/3 keeps a single interior maximum; larger dips split the
    profile into two maxima with a saddle pair between them.
    """

    dip: float = 0.7
    beta: tuple[float, ...] = ()

    def radius_profile(self, t) -> np.ndarray:
        t = np.asarray(t, dtype=float)
        s = np.sin(np.pi * t)
        return s * (1.0 - self.dip * s**2)

    def profile_critical_points(self) -> list[tuple[float, bool]]:
        """R' = pi cos(pi t) (1 - 3 dip sin(pi t)^2): t = 1/2, a maximum
        while R''(1/2) = -pi^2 (1 - 3 dip) <= 0, and for dip > 1/3 the two
        maxima where sin(pi t) = 1/sqrt(3 dip)."""
        if self.dip <= 1.0 / 3.0:
            return [(0.5, True)]
        side = math.asin(1.0 / math.sqrt(3.0 * self.dip)) / math.pi
        return [(side, True), (0.5, False), (1.0 - side, True)]

    def gbar(self, t, psi) -> np.ndarray:
        return self.radius_profile(t) * np.sin(np.asarray(psi, dtype=float))


@dataclass
class ChartVerdict:
    beta: tuple[float, ...]
    status: str  # ok | empty | point (single-point reduced space); Morse data exact when ok
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
    morse = critical_scan(chart)
    r_max = float(np.max(chart.radius_profile(np.linspace(0, 1, resolution + 1))))
    levels = off_critical_levels(morse, c_count, r_max)
    counts = dict(zip(levels, level_components(chart, levels, resolution)))
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
    negative.  Charts are scanned one after another in grid order.  The
    resolution is clamped to MIN_RESOLUTION once, here, and the clamped
    value sets every grid of the scan and is the one recorded.
    """
    if not sys.proper:
        raise NotProper("fiber scans require a proper moment map")
    resolution = max(int(resolution), MIN_RESOLUTION)
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
