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

import functools
import math
import operator
from dataclasses import dataclass, field
from decimal import Decimal
from fractions import Fraction

import numpy as np

from .classifier import SystemSpec
from .errors import EmptyFiber, NotProper, OutOfFloatRange

MIN_RESOLUTION = 64
STACK_CELLS = 1 << 16  # grid cells per labelled stack of charts
CRITICAL_LEVEL_OFFSET = 1e-3  # nudge levels off critical values by this times range


@dataclass(frozen=True)
class ReducedSurfaceChart:
    """Segment-times-circle chart of one reduced space.

    profile_terms holds, uncompared, the float (start, rate, power) of each
    moving coordinate, s_j(t) = start + rate t and R = prod s_j^power,
    converted from the exact endpoints once per chart; endpoints beyond
    the float range are refused with OutOfFloatRange.
    """

    beta: tuple[float, ...]
    xi: tuple[int, ...]
    s_start: tuple[Fraction, ...]
    s_end: tuple[Fraction, ...]
    support_start: tuple[int, ...]
    support_end: tuple[int, ...]
    degenerate: bool  # single-point reduced space
    profile_terms: tuple[tuple[float, float, float], ...] = field(
        init=False, repr=False, compare=False
    )

    def __post_init__(self):
        terms = []
        try:
            for e, a, b in zip(self.xi, self.s_start, self.s_end):
                if e:
                    start = float(a)
                    terms.append((start, float(b) - start, abs(e) / 2.0))
        except OverflowError:
            raise OutOfFloatRange(f"target {self.beta}: squared radii overflow floats") from None
        object.__setattr__(self, "profile_terms", tuple(terms))

    def radius_profile(self, t) -> np.ndarray:
        """R(t) = prod s_j(t)^(|xi_j|/2) over the moving coordinates."""
        t = np.asarray(t, dtype=float)
        factors = (np.maximum(start + rate * t, 0.0) ** power
                   for start, rate, power in self.profile_terms)
        return functools.reduce(operator.mul, factors)

    def profile_critical_points(self) -> list[tuple[float, bool]]:
        """The one interior critical point of R as [(t, is_max)]: a maximum.

        log R = sum (|xi_j|/2) log s_j(t) sums logarithms of affine functions
        positive on (0, 1), so it is strictly concave, and its doubled
        derivative L(t) = sum |xi_j| (s1_j - s0_j) / s_j(t) falls from +inf
        at the collapsed start to -inf at the collapsed end.  The root is
        pinned between the two adjacent floats lo < hi where the sign of L
        changes, and 0.5 * (lo + hi) is returned (a float where L is
        exactly 0 is returned as it is).  A float Newton iteration on L,
        kept inside a shrinking bracket, only proposes where to look; the
        signs that decide are exact, taken at that float and at floats
        stepped away from it by a doubling number of ulps until the sign
        turns, then bisected down to adjacent floats.  Each sign is decided
        in integers: over a common denominator den, A_j = den s0_j,
        B_j = den (s1_j - s0_j); at t = p/q, S_j = A_j q + B_j p > 0 and
        L(t) = q sum |xi_j| B_j / S_j has the sign of sum |xi_j| B_j prod_{i!=j} S_i.
        """
        moving = [(abs(e), a, b) for e, a, b in zip(self.xi, self.s_start, self.s_end) if e]
        den = math.lcm(*(x.denominator for _, a, b in moving for x in (a, b)))
        terms = []
        for k, a, b in moving:
            start = a.numerator * (den // a.denominator)
            terms.append((k, start, b.numerator * (den // b.denominator) - start))

        def slope(t: float) -> int:
            p, q = t.as_integer_ratio()
            s = [a * q + b * p for _, a, b in terms]
            return sum(k * b * math.prod(s[:j] + s[j + 1:]) for j, (k, _, b) in enumerate(terms))

        guess = _log_slope_root_guess(self.profile_terms)
        value = slope(guess)
        if value == 0:
            return [(guess, True)]
        # step towards the root, from one ulp and doubling, until the sign
        # turns; the ends need no test: L is +inf at 0 and -inf at 1
        rising = value > 0
        inner, end = guess, 1.0 if rising else 0.0
        step = math.nextafter(guess, end) - guess
        while True:
            probe = inner + step
            if not 0.0 < probe < 1.0:
                probe = end
                break
            value = slope(probe)
            if value == 0:
                return [(probe, True)]
            if (value > 0) != rising:
                break
            inner, step = probe, 2.0 * step
        lo, hi = (inner, probe) if rising else (probe, inner)
        mid = 0.5 * (lo + hi)
        while mid not in (lo, hi):
            value = slope(mid)
            if value == 0:
                break
            lo, hi = (mid, hi) if value > 0 else (lo, mid)
            mid = 0.5 * (lo + hi)
        return [(mid, True)]


def _log_slope_root_guess(profile_terms) -> float:
    """A float in (0, 1) near the root of L(t)/2 = sum p_j r_j / (a_j + r_j t),
    for the (start a_j, rate r_j, power p_j) of the chart's profile_terms.

    Newton steps, replaced by the bracket's midpoint whenever they leave the
    bracket that the float signs of L keep; it stops when a step no longer
    moves, or when rounding makes some s_j(t) vanish near an end.
    """
    lo, hi, t = 0.0, 1.0, 0.5
    for _ in range(64):
        value = derivative = 0.0
        for start, rate, power in profile_terms:
            s = start + rate * t
            if s <= 0.0:
                return t
            ratio = rate / s
            value += power * ratio
            derivative -= power * ratio * ratio
        if value > 0.0:
            lo = t
        elif value < 0.0:
            hi = t
        else:
            return t
        step = t - value / derivative
        if step == t:
            break
        if not lo < step < hi:
            step = 0.5 * (lo + hi)
            if step in (lo, hi):
                break
        t = step
    return t


def _ratio(b) -> tuple[int, int]:
    """b as numerator and denominator: a float by its shortest decimal string
    (the value as written), any other rational as it is."""
    if isinstance(b, float):
        return Decimal(str(b)).as_integer_ratio()
    b = Fraction(b)
    return b.numerator, b.denominator


def reduced_surface(sys: SystemSpec, beta) -> ReducedSurfaceChart:
    """Exact segment solve of the reduced space over a target value.

    The squared radii satisfy (1/2) W s = beta with s >= 0; the solution
    set is the segment s* + c xi clipped to the orthant, with s* = 2 R beta
    for the weights' integer right inverse R.  Properness gives xi both
    signs; c_min is where a coordinate with xi_j > 0 reaches 0 and
    c_max where one with xi_j < 0 does, so each endpoint support holds a
    nonzero exponent and both end circles collapse to points.  The solve
    runs in integers: over a common denominator den of beta,
    star = den s* = 2 R (den beta), each bound is a ratio of integers
    compared by cross-multiplication, and the endpoints become Fractions
    at the end.
    """
    if not sys.proper:
        raise NotProper("fiber scans require a proper moment map")
    beta = [_ratio(b) for b in beta]
    d, n = sys.torus_dim, sys.coords
    if len(beta) != d:
        raise ValueError(f"target must have {d} components")
    den = math.lcm(*(q for _, q in beta))
    scaled = [p * (den // q) for p, q in beta]
    inverse = sys.weight_matrix.right_inverse
    star = [2 * sum(x * b for x, b in zip(row, scaled)) for row in inverse]
    xi = sys.xi.xi
    # c_min = lo_num / (den lo_den) and c_max = hi_num / (den hi_den), lo_den, hi_den > 0
    lo_num = lo_den = hi_num = hi_den = None
    for j in range(n):
        if xi[j] > 0:
            if lo_num is None or -star[j] * lo_den > lo_num * xi[j]:
                lo_num, lo_den = -star[j], xi[j]
        elif xi[j] < 0:
            if hi_num is None or star[j] * hi_den < hi_num * -xi[j]:
                hi_num, hi_den = star[j], -xi[j]
        elif star[j] < 0:
            raise EmptyFiber(f"coordinate {j} is forced negative")
    assert lo_num is not None and hi_num is not None  # proper => mixed signs
    gap = hi_num * lo_den - lo_num * hi_den  # sign of c_max - c_min
    if gap < 0:
        c_min, c_max = Fraction(lo_num, den * lo_den), Fraction(hi_num, den * hi_den)
        raise EmptyFiber(f"segment empty: {float(c_min):.3g} > {float(c_max):.3g}")
    # s_j at c_min and c_max, times den lo_den and den hi_den
    s0 = [star[j] * lo_den + lo_num * xi[j] for j in range(n)]
    s1 = [star[j] * hi_den + hi_num * xi[j] for j in range(n)]
    return ReducedSurfaceChart(
        beta=tuple(p / q for p, q in beta),
        xi=xi,
        s_start=tuple(Fraction(x, den * lo_den) for x in s0),
        s_end=tuple(Fraction(x, den * hi_den) for x in s1),
        support_start=tuple(j for j in range(n) if s0[j] == 0),
        support_end=tuple(j for j in range(n) if s1[j] == 0),
        degenerate=gap == 0,
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
        with np.errstate(over="ignore"):  # an infinite maximum is refused with the levels
            r = float(chart.radius_profile(t))
        points.append((t, np.pi / 2.0, r, 2 if is_max else 1))
        points.append((t, 3.0 * np.pi / 2.0, -r, 0 if is_max else 1))
    return MorseReport(critical_points=points)


def level_components(charts, levels, resolution: int) -> list[list[int]]:
    """Connected components of each level set {R sin(psi) = c} of a stack
    of charts, on one cell grid per chart.

    levels holds one sequence of levels per chart.  Cells are marked when
    the corner values straddle c strictly (bilinear interpolants cross
    exactly then); marked cells are merged when edge adjacent, wrapping in
    the angle.  The sines fall strictly along both half-turns of the
    angle, from the column of the largest sine to that of the smallest,
    so the marked cells of one level in one row band form at most one run
    on each half-turn (see _crossed_runs).  The runs are the nodes: a run
    joins the run of its half-turn in the band above when the two
    overlap, and the two runs of one band meet when both start at the
    top column or both end at the bottom one.  The poles need no
    identification: R is 0 at both ends, so a pole row's runs are the
    cells whose inner corners R sin(psi) pass c.

    A run has at most one link up and one down, so the up-links join the
    runs of a half-turn into chains over consecutive bands; numbered in
    band order on each half-turn, a band's two runs sit on chains
    (chain_0, chain_1), and neither number falls from one band to the
    next.  A meet whose pair differs from the last meet's pair thus has a
    number larger than every earlier meet's on its half-turn: it reaches
    a chain that no earlier meet touched, and the distinct meets form a
    forest over the chains.  Each level set has as many components as
    chains less distinct meets.

    Each chart's levels are padded with +inf to the stack's widest count
    m, which no corner value reaches, and the stack's levels are counted
    together, each on its own.  Returns, per chart, one count per level,
    in the order given; equal levels are marked alike and get equal
    counts.  A radius profile negative on the grid is refused with
    ValueError.
    """
    n = max(int(resolution), MIN_RESOLUTION)
    m = max(map(len, levels), default=0)
    padded = np.full((len(charts), m), np.inf)
    for row, chart_levels in zip(padded, levels):
        row[:len(chart_levels)] = chart_levels
    first, stop, halves = _crossed_runs(charts, padded, n)
    live = first < stop
    above = np.zeros_like(live)  # overlaps the run of its half-turn in the band above
    above[..., 1:] = np.maximum(first[..., 1:], first[..., :-1]) < np.minimum(
        stop[..., 1:], stop[..., :-1])
    meet = live[0] & live[1] & ((first[0] == 0) & (first[1] == 0) | (
        (stop[0] == len(halves[0]) - 1) & (stop[1] == len(halves[1]) - 1)))
    del first, stop
    chain = np.cumsum(live & ~above, axis=-1, dtype=np.int32)  # a live run's chain
    # each meet's pair as one key below (n + 1)^2; keys never fall, so a change marks a
    # distinct pair
    joins = np.maximum.accumulate(np.where(meet, chain[0] * (n + 1) + chain[1], -1), axis=-1)
    distinct = np.count_nonzero(joins[..., 1:] != joins[..., :-1], axis=-1) + (joins[..., 0] >= 0)
    components = chain[0, ..., -1] + chain[1, ..., -1] - distinct
    return [row[:len(chart_levels)].tolist() for row, chart_levels in zip(components, levels)]


def _half_turns(n: int):
    """The n grid columns' sines in increasing order, each column's rank
    in that order (a stable sort), and the two half-turns: the columns from
    rank n - 1 (top) to rank 0 (bottom), forwards and backwards, along which
    the ranks fall strictly (tested for every resolution the CLI allows)."""
    sines = np.sin(np.linspace(0.0, 2.0 * np.pi, n, endpoint=False))
    by_sine = np.argsort(sines, kind="stable")
    top, bottom = by_sine[-1], by_sine[0]
    halves = (np.arange(top, top + (bottom - top) % n + 1) % n,
              np.arange(top, top - (top - bottom) % n - 1, -1) % n)
    return sines[by_sine], np.argsort(by_sine), halves


def _crossed_runs(charts, levels, n: int):
    """The cells whose four corner values straddle a level strictly, as
    runs [first, stop) of cells along a half-turn, of shape (2, charts,
    levels, bands), with the two half-turns' columns (see _half_turns).

    levels holds m levels per chart, in any order.  Corner (i, j) has the
    value R_i sin_j, R = radius_profile(ts) >= 0, and no grid of them is
    built.  Rounded products with one R_i >= 0 keep the order of the
    sines, so with sigma_j the rank of sin_j, the corners of row i below
    c_k are the columns with sigma < below(i, k), and those not above it
    the columns with sigma < upto(i, k): a search of c_k / R_i among the
    sorted sines guesses each cut, and exact tests of the products step
    it there.  Cell p of a half-turn joins its columns p and p + 1, where
    sigma falls, so it has a corner below c_k when sigma_{p+1} < high, the
    larger below of rows i and i + 1, and one above it when sigma_p >= low,
    the smaller upto.  With A(r) the number of the half-turn's columns of
    rank >= r, these are the cells A(high) - 1 <= p < A(low).
    """
    ts = np.linspace(0.0, 1.0, n + 1)
    sines, sigma, halves = _half_turns(n)
    radii = np.array([chart.radius_profile(ts) for chart in charts]).reshape(-1, 1, n + 1)
    if (radii < 0).any():
        raise ValueError("a chart's radius profile is negative; level crossings need R >= 0")
    levels = levels[:, :, None]
    # the sines before and after cut g sit at g and g + 1; the end nans fail every test
    bounded = np.concatenate([[np.nan], sines, [np.nan]])
    below = np.searchsorted(sines, levels / np.where(radii == 0, 1.0, radii))
    np.copyto(below, n * (levels > 0), where=radii == 0)
    while True:
        back = radii * bounded[below] >= levels
        on = radii * bounded[below + 1] < levels
        if not (back.any() or on.any()):
            break
        below += on
        below -= back
    upto = np.where(radii == 0, n * (levels >= 0), below)
    while (on := radii * bounded[upto + 1] <= levels).any():
        upto += on
    high = np.maximum(below[..., :-1], below[..., 1:])
    low = np.minimum(upto[..., :-1], upto[..., 1:])
    del below, upto, back, on
    # A(r) of each half-turn, r = 0 ... n, fits int32 (A <= n); each half-turn's runs are
    # gathered into their own C-contiguous block, which the counting reads in order
    first = np.empty((2, *high.shape), dtype=np.int32)
    stop = np.empty_like(first)
    for h, half in enumerate(halves):
        at_least = np.bincount(sigma[half], minlength=n + 1)[::-1].cumsum()[::-1].astype(np.int32)
        np.take(np.maximum(at_least - 1, 0), high, out=first[h])
        np.take(np.minimum(at_least, len(half) - 1), low, out=stop[h])
    return first, stop, halves


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
    """Evenly spread sample levels nudged away from critical values.

    Nudging can move several levels onto one value; each value is kept
    once, at its first place, so at most count levels are returned.
    """
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
    return list(dict.fromkeys(levels))


def _stack_verdicts(charts, c_count: int, resolution: int) -> list[ChartVerdict]:
    """The verdicts of a stack of nondegenerate charts: exact Morse data
    and sampled levels chart by chart, then one labelling of the stack."""
    scans = []
    for chart in charts:
        morse = critical_scan(chart)
        r_max = max(v for _, _, v, _ in morse.critical_points)  # R is 0 at both ends
        if not np.finfo(float).tiny <= r_max <= np.finfo(float).max / 2:
            raise OutOfFloatRange(f"target {chart.beta}: r_max = {r_max} is out of float range")
        scans.append((morse, off_critical_levels(morse, c_count, r_max)))
    counts = level_components(charts, [levels for _, levels in scans], resolution)
    return [_verdict(chart.beta, morse, dict(zip(levels, k)))
            for chart, (morse, levels), k in zip(charts, scans, counts)]


def _verdict(beta, morse: MorseReport, counts: dict) -> ChartVerdict:
    idx0, idx1, idx2 = morse.index_counts()
    verdict = ChartVerdict(beta=tuple(beta), status="ok", morse=morse, levels=counts)
    verdict.no_saddles = idx1 == 0
    verdict.all_levels_connected = all(k <= 1 for k in counts.values()) and any(
        k == 1 for k in counts.values()
    )
    verdict.euler_is_sphere = morse.euler_characteristic == 2
    verdict.consistent = verdict.no_saddles == (
        verdict.all_levels_connected and verdict.euler_is_sphere
    )
    return verdict


def connectivity_report(
    sys: SystemSpec,
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
    negative.  The grid is walked in order, and its nondegenerate charts
    are labelled in stacks of as many as fit STACK_CELLS grid cells (at
    least one), one stack held at a time; the verdicts keep grid order.
    The resolution is clamped to MIN_RESOLUTION once, here, and the
    clamped value sets every grid of the scan and is the one recorded.
    A chart whose r_max or 2 r_max is not a normal float is refused.
    """
    if not sys.proper:
        raise NotProper("fiber scans require a proper moment map")
    resolution = max(int(resolution), MIN_RESOLUTION)
    per_stack = max(STACK_CELLS // resolution**2, 1)
    charts, stack, slots = [], [], []

    def label_stack():
        for i, verdict in zip(slots, _stack_verdicts(stack, c_count, resolution)):
            charts[i] = verdict
        stack.clear()
        slots.clear()

    for beta in beta_grid:
        try:
            chart = reduced_surface(sys, beta)
        except EmptyFiber:
            charts.append(ChartVerdict(beta=tuple(map(float, beta)), status="empty"))
            continue
        if chart.degenerate:
            charts.append(ChartVerdict(beta=tuple(chart.beta), status="point"))
            continue
        slots.append(len(charts))
        charts.append(None)
        stack.append(chart)
        if len(stack) == per_stack:
            label_stack()
    if stack:
        label_stack()
    ok = all(c.consistent for c in charts if c.status == "ok")
    synthetic = None
    if synthetic_check:
        (synthetic,) = _stack_verdicts([SyntheticChart(dip=0.7)], c_count, resolution)
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
