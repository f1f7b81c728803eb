"""Reduced surfaces, Morse scans, and level-set component counts."""

import math
from collections import Counter, deque
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from ephemera.errors import EmptyFiber, InvalidAction, NotProper
from ephemera.family import PolarPoint, build_family, eval_polar
from ephemera.fiberlab import (
    MIN_RESOLUTION,
    SyntheticChart,
    connectivity_report,
    critical_scan,
    level_components,
    off_critical_levels,
    reduced_surface,
)
from ephemera.lattice import WeightMatrix

FAM = build_family(WeightMatrix(((1, 0, 1), (0, 1, 1))))
FAM_CUBIC = build_family(WeightMatrix(((1, 0, 2), (0, 1, 1))))
FLAT = build_family(WeightMatrix(((1, -1),)))


def test_segment_solve_exact():
    chart = reduced_surface(FAM, (1, 1))
    # endpoints: s3 = 0 on one side, s1 = s2 = 0 on the other
    assert chart.s_start == (Fraction(0), Fraction(0), Fraction(2))
    assert chart.s_end == (Fraction(2), Fraction(2), Fraction(0))
    assert chart.support_start == (0, 1)
    assert chart.support_end == (2,)
    assert not chart.degenerate
    # interior squared radii satisfy the moment equations exactly
    for t in (0.25, 0.5, 0.75):
        s = [
            float(a) + (float(b) - float(a)) * t
            for a, b in zip(chart.s_start, chart.s_end)
        ]
        for a, row in enumerate(FAM.weights.entries):
            assert 0.5 * sum(row[j] * s[j] for j in range(3)) == pytest.approx(
                chart.beta[a]
            )


def test_segment_outside_image():
    with pytest.raises(EmptyFiber):
        reduced_surface(FAM, (-1, 1))


def test_boundary_point_chart():
    chart = reduced_surface(FAM, (0, 0))
    assert chart.degenerate


def test_not_proper_rejected():
    with pytest.raises(NotProper):
        reduced_surface(FLAT, (Fraction(1),))


def test_gbar_matches_lifted_points():
    rng = np.random.default_rng(19)
    chart = reduced_surface(FAM, (1, 1))
    xi = FAM.xi.xi
    for _ in range(1000):
        t = float(rng.uniform(0.05, 0.95))
        psi = float(rng.uniform(0, 2 * np.pi))
        s = np.array(
            [
                float(a) + (float(b) - float(a)) * t
                for a, b in zip(chart.s_start, chart.s_end)
            ]
        )
        # lift: distribute psi onto the angles along the kernel direction
        theta = np.zeros(3)
        theta[0] = psi / xi[0]
        w = PolarPoint(r=tuple(np.sqrt(s)), theta=tuple(theta))
        _, g_lift = eval_polar(FAM, w)
        assert float(chart.gbar(t, psi)) == pytest.approx(g_lift, rel=1e-10, abs=1e-10)


def test_gbar_trivial_values():
    chart = reduced_surface(FAM, (1, 1))
    for t in (0.0, 0.3, 0.8, 1.0):
        assert float(chart.gbar(t, 0.0)) == pytest.approx(0.0)
    assert float(chart.gbar(0.5, np.pi / 2)) > 0.0
    # collapsed endpoints carry the value zero
    assert float(chart.gbar(0.0, 1.234)) == pytest.approx(0.0)
    assert float(chart.gbar(1.0, 4.321)) == pytest.approx(0.0)


def test_critical_scan_sphere_chart():
    chart = reduced_surface(FAM, (1, 1))
    report = critical_scan(chart)
    idx0, idx1, idx2 = report.index_counts()
    assert (idx0, idx1, idx2) == (1, 0, 1)
    assert report.euler_characteristic == 2
    # critical angles are the two sine extrema
    for _, psi, _, _ in report.critical_points:
        assert min(abs(psi - np.pi / 2), abs(psi - 3 * np.pi / 2)) <= 1e-9


def test_critical_scan_synthetic_saddles():
    chart = SyntheticChart(dip=0.7)
    report = critical_scan(chart)
    idx0, idx1, idx2 = report.index_counts()
    assert idx1 == 2
    assert (idx0, idx2) == (2, 2)
    assert report.euler_characteristic == 2


def _exact_log_slope(chart, t: Fraction) -> Fraction:
    """L(t) = sum |xi_j| (s1_j - s0_j) / s_j(t), twice (log R)', exactly."""
    return sum(
        abs(e) * (b - a) / (a + (b - a) * t)
        for e, a, b in zip(chart.xi, chart.s_start, chart.s_end)
        if e
    )


def _exact_bisection(chart) -> Fraction:
    """Root of L by exact bisection, to an eighth of a float spacing."""
    lo, hi = Fraction(0), Fraction(1)
    while hi - lo > Fraction(math.ulp(float(lo + hi) / 2)) / 8:
        mid = (lo + hi) / 2
        value = _exact_log_slope(chart, mid)
        if value == 0:
            return mid
        lo, hi = (mid, hi) if value > 0 else (lo, mid)
    return (lo + hi) / 2


@st.composite
def _proper_family_charts(draw):
    """A generated proper family (entries in [-3, 3]) and ok charts over
    targets (1/2) W s for positive rational squared radii s."""
    n = draw(st.sampled_from((3, 4, 2)))
    row = st.lists(st.integers(-3, 3), min_size=n, max_size=n)
    entries = draw(st.lists(row, min_size=n - 1, max_size=n - 1))
    try:
        fam = build_family(WeightMatrix(tuple(map(tuple, entries))))
    except InvalidAction:
        assume(False)
    assume(fam.proper)
    radius = st.fractions(min_value=Fraction(1, 16), max_value=16, max_denominator=16)
    charts = []
    for s in draw(st.lists(st.lists(radius, min_size=n, max_size=n), min_size=1, max_size=3)):
        beta = [sum(w * x for w, x in zip(r, s)) / 2 for r in fam.weights.entries]
        charts.append(reduced_surface(fam, beta))
    return charts


@settings(derandomize=True, max_examples=60, deadline=None)
@given(_proper_family_charts())
def test_family_chart_has_one_exact_interior_maximum(charts):
    for chart in charts:
        assert not chart.degenerate
        # both end circles collapse: each end support holds a nonzero exponent
        for support in (chart.support_start, chart.support_end):
            assert any(chart.xi[j] != 0 for j in support)
        assert chart.radius_profile(0.0) == chart.radius_profile(1.0) == 0.0
        (t, is_max), = chart.profile_critical_points()
        assert 0.0 < t < 1.0 and is_max
        assert abs(Fraction(t) - _exact_bisection(chart)) <= 4 * Fraction(math.ulp(t))
        below, above = math.nextafter(t, 0.0), math.nextafter(t, 1.0)
        assert _exact_log_slope(chart, Fraction(below)) > 0 > _exact_log_slope(
            chart, Fraction(above)
        )
        assert critical_scan(chart).index_counts() == (1, 0, 1)


@pytest.mark.parametrize("dip", [0.0, 0.2, 0.5, 0.7, 0.9])
def test_synthetic_closed_form_matches_sampled_derivative(dip):
    chart = SyntheticChart(dip=dip)
    ts = np.linspace(0.0, 1.0, 200001)
    slope = np.diff(chart.radius_profile(ts))
    keep = np.flatnonzero(slope != 0.0)
    turns = np.flatnonzero(np.sign(slope[keep[1:]]) != np.sign(slope[keep[:-1]]))
    sampled = [(ts[keep[i + 1]], bool(slope[keep[i]] > 0)) for i in turns]
    stated = chart.profile_critical_points()
    assert len(stated) == len(sampled)
    for (t, is_max), (t_sampled, max_sampled) in zip(stated, sampled):
        assert abs(t - t_sampled) <= 1e-3
        assert is_max == max_sampled
    maxima = sum(is_max for _, is_max in stated)
    minima = len(stated) - maxima
    assert critical_scan(chart).index_counts() == (maxima, 2 * minima, maxima)


def test_level_components_sphere():
    chart = reduced_surface(FAM, (1, 1))
    report = critical_scan(chart)
    r_max = float(np.max(chart.radius_profile(np.linspace(0, 1, 513))))
    assert level_components(chart, [2.0 * r_max], 512) == [0]
    levels = off_critical_levels(report, 21, r_max)
    for c, count in zip(levels, level_components(chart, levels, 512), strict=True):
        assert count == 1, c


def test_level_components_synthetic_two_loops():
    chart = SyntheticChart(dip=0.7)
    # saddle value and peak value of the profile
    ts = np.linspace(0, 1, 2049)
    rv = chart.radius_profile(ts)
    saddle, peak = rv[1024], float(rv.max())
    between = 0.5 * (saddle + peak)
    assert level_components(chart, [between], 512) == [2]
    below = 0.5 * saddle
    assert level_components(chart, [below], 512) == [1]


def _interval_count_oracle(chart, c, samples=4096):
    """Level components of R(t) sin(psi) = c by profile-interval counting.

    For off-critical c != 0 the level is one closed loop per maximal
    interval where the profile exceeds |c|; at c = 0 the two zero-angle
    lines join through the collapsed poles into one circle.
    """
    if c == 0.0:
        return 1
    ts = np.linspace(0.0, 1.0, samples)
    above = chart.radius_profile(ts) > abs(c)
    runs = 0
    prev = False
    for flag in above:
        if flag and not prev:
            runs += 1
        prev = flag
    return runs


def test_level_components_against_interval_oracle():
    rng = np.random.default_rng(23)
    charts = [reduced_surface(FAM, (1, 1)), SyntheticChart(dip=0.7), SyntheticChart(dip=0.2)]
    for chart in charts:
        r_max = float(np.max(chart.radius_profile(np.linspace(0, 1, 1025))))
        report = critical_scan(chart)
        levels = off_critical_levels(report, 21, r_max)
        for c, got in zip(levels, level_components(chart, levels, 512), strict=True):
            assert got == _interval_count_oracle(chart, c), (chart, c)
        levels = []
        for _ in range(20):
            c = float(rng.uniform(-0.9, 0.9)) * r_max
            values = [v for _, _, v, _ in report.critical_points]
            if any(abs(c - v) < 5e-3 * r_max for v in values + [0.0]):
                continue
            levels.append(c)
        for c, got in zip(levels, level_components(chart, levels, 512), strict=True):
            assert got == _interval_count_oracle(chart, c), (chart, c)


def _flood_fill_count(chart, c, resolution):
    """Level components of gbar = c by breadth-first search over cells.

    Rebuilds the strict-straddle mask from gbar on the cell corners and
    reads nothing else of the chart: neighbours are edge neighbours,
    wrapping in the angle.
    """
    n = resolution
    ts = np.linspace(0.0, 1.0, n + 1)
    psis = np.linspace(0.0, 2.0 * np.pi, n, endpoint=False)
    values = chart.gbar(ts[:, None], psis[None, :])
    shifted = np.roll(values, -1, axis=1)
    corners = np.stack([values[:-1], shifted[:-1], values[1:], shifted[1:]])
    marked = (corners.min(axis=0) < c) & (c < corners.max(axis=0))
    seen = np.zeros_like(marked)
    count = 0
    for start in zip(*np.nonzero(marked)):
        if seen[start]:
            continue
        count += 1
        seen[start] = True
        queue = deque([start])
        while queue:
            i, j = queue.popleft()
            neighbours = [(i - 1, j), (i + 1, j), (i, (j - 1) % n), (i, (j + 1) % n)]
            for cell in neighbours:
                if 0 <= cell[0] < n and marked[cell] and not seen[cell]:
                    seen[cell] = True
                    queue.append(cell)
    return count


def test_level_components_matches_flood_fill():
    grid = [(a, b) for a in np.linspace(0.8, 2.4, 5) for b in np.linspace(0.8, 2.4, 5)]
    charts = [reduced_surface(fam, beta) for fam in (FAM, FAM_CUBIC) for beta in grid]
    charts += [SyntheticChart(dip=0.2), SyntheticChart(dip=0.7)]
    for chart in charts:
        r_max = float(np.max(chart.radius_profile(np.linspace(0, 1, 65))))
        levels = off_critical_levels(critical_scan(chart), 21, r_max)
        levels += [0.0, 1.5 * r_max]
        got = level_components(chart, levels, 64)
        assert got == [_flood_fill_count(chart, c, 64) for c in levels], chart


def test_level_components_levels_are_independent():
    for chart in (reduced_surface(FAM, (1, 1)), SyntheticChart(dip=0.7)):
        r_max = float(np.max(chart.radius_profile(np.linspace(0, 1, 129))))
        levels = off_critical_levels(critical_scan(chart), 21, r_max) + [0.0]
        together = level_components(chart, levels, 128)
        assert together == [level_components(chart, [c], 128)[0] for c in levels]
        assert level_components(chart, levels[::-1], 128) == together[::-1]
        assert level_components(chart, [], 128) == []
        assert level_components(chart, levels, MIN_RESOLUTION // 2) == level_components(
            chart, levels, MIN_RESOLUTION
        )


def test_scan_is_deterministic():
    betas = [(a, b) for a in (0.9, 1.5) for b in (1.0, 1.8)]
    first = connectivity_report(FAM, betas, c_count=7, resolution=128)
    second = connectivity_report(FAM, betas, c_count=7, resolution=128)
    assert first.all_consistent == second.all_consistent
    assert [c.beta for c in first.charts] == [tuple(map(float, b)) for b in betas]
    for a, b in zip(first.charts, second.charts, strict=True):
        assert a.beta == b.beta
        assert a.status == b.status
        assert a.levels == b.levels
        assert a.morse.critical_points == b.morse.critical_points
        assert a.consistent == b.consistent


def test_connectivity_report_clamps_resolution_once():
    betas = [(a, b) for a in (0.9, 1.5) for b in (1.0, 1.8)]
    low = connectivity_report(FAM, betas, c_count=7, resolution=MIN_RESOLUTION // 2)
    assert low.resolution == MIN_RESOLUTION
    assert low == connectivity_report(FAM, betas, c_count=7, resolution=MIN_RESOLUTION)


def test_resolution_stability():
    chart = reduced_surface(FAM, (1, 1))
    report = critical_scan(chart)
    r_max = float(np.max(chart.radius_profile(np.linspace(0, 1, 257))))
    levels = off_critical_levels(report, 11, r_max)
    assert level_components(chart, levels, 256) == level_components(chart, levels, 512)
    synth = SyntheticChart(dip=0.7)
    report = critical_scan(synth)
    levels = off_critical_levels(report, 11, 1.0)
    assert level_components(synth, levels, 256) == level_components(synth, levels, 512)


def test_connectivity_report_consistent():
    betas = [(a, b) for a in (0.8, 1.4) for b in (0.9, 1.3)]
    report = connectivity_report(FAM, betas, c_count=11, resolution=128)
    assert report.all_consistent is True
    ok_charts = [c for c in report.charts if c.status == "ok"]
    assert len(ok_charts) == len(betas)
    for chart in ok_charts:
        assert chart.no_saddles is True
        assert chart.all_levels_connected is True
        assert chart.euler_is_sphere is True
        assert chart.consistent is True
    synth = report.synthetic_check
    assert synth is not None
    assert synth.no_saddles is False
    assert synth.all_levels_connected is False
    assert synth.consistent is True


def test_connectivity_report_flags_empty():
    report = connectivity_report(
        FAM, [(-1.0, 1.0), (1.0, 1.0)], c_count=5, resolution=64, synthetic_check=False
    )
    statuses = [c.status for c in report.charts]
    assert statuses == ["empty", "ok"]


def test_connectivity_report_statuses_on_wide_grid():
    axis = np.linspace(-1.0, 2.5, 15)
    betas = [(a, b) for a in axis for b in axis]
    report = connectivity_report(FAM, betas, c_count=5, resolution=64)
    assert report.all_consistent is True
    statuses = Counter(c.status for c in report.charts)
    assert statuses == {"ok": 100, "empty": 104, "point": 21}
