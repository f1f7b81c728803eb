"""Reduced surfaces, Morse scans, and level-set component counts."""

import json
import math
import os
import subprocess
import sys
from collections import Counter, deque
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import ephemera.lattice
from ephemera.cli import MAX_RESOLUTION, main
from ephemera.errors import EmptyFiber, InvalidAction, NotProper, OutOfFloatRange
from ephemera.family import PolarPoint, build_family, eval_polar
from ephemera.fiberlab import (
    MIN_RESOLUTION,
    STACK_CELLS,
    SyntheticChart,
    _crossed_runs,
    _half_turns,
    _stack_verdicts,
    connectivity_report,
    critical_scan,
    level_components,
    off_critical_levels,
    reduced_surface,
)
from ephemera.lattice import WeightMatrix
from oracle_helpers import bisection_profile_root, gbar

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
        for a, row in enumerate(FAM.weights):
            assert 0.5 * sum(row[j] * s[j] for j in range(3)) == pytest.approx(
                chart.beta[a]
            )


def test_segment_outside_image():
    with pytest.raises(EmptyFiber):
        reduced_surface(FAM, (-1, 1))


def test_boundary_point_chart():
    chart = reduced_surface(FAM, (0, 0))
    assert chart.degenerate
    # a segment of length 1e-30 is still a segment
    chart = reduced_surface(FAM, (1, Fraction(1, 2 * 10**30)))
    assert not chart.degenerate
    assert chart.s_start[2] - chart.s_end[2] == Fraction(1, 10**30)


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
        assert float(gbar(chart, t, psi)) == pytest.approx(g_lift, rel=1e-10, abs=1e-10)


def test_gbar_trivial_values():
    chart = reduced_surface(FAM, (1, 1))
    for t in (0.0, 0.3, 0.8, 1.0):
        assert float(gbar(chart, t, 0.0)) == pytest.approx(0.0)
    assert float(gbar(chart, 0.5, np.pi / 2)) > 0.0
    # collapsed endpoints carry the value zero
    assert float(gbar(chart, 0.0, 1.234)) == pytest.approx(0.0)
    assert float(gbar(chart, 1.0, 4.321)) == pytest.approx(0.0)


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
def _proper_family_charts(draw, sizes=(3, 4, 2)):
    """A generated proper family on C^n, n from sizes (entries in [-3, 3]),
    and ok charts over targets (1/2) W s for positive rational squared
    radii s."""
    n = draw(st.sampled_from(sizes))
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
        beta = [sum(w * x for w, x in zip(r, s)) / 2 for r in fam.weights]
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


@settings(derandomize=True, max_examples=100, deadline=None)
@given(_proper_family_charts(sizes=(3, 4, 5)))
def test_profile_root_is_the_bisection_float_on_generated_families(charts):
    for chart in charts:
        (t, _), = chart.profile_critical_points()
        assert t == bisection_profile_root(chart), chart


def _charts_over_positive_radii(fam, seed, count):
    """Ok charts of fam over targets (1/2) W s, s drawn from (1/16) [1, 256]^n."""
    rng = np.random.default_rng(seed)
    charts = []
    for _ in range(count):
        s = [Fraction(int(x), 16) for x in rng.integers(1, 257, size=fam.coords)]
        beta = [sum(w * x for w, x in zip(row, s)) / 2 for row in fam.weights]
        charts.append(reduced_surface(fam, beta))
    return charts


# xi (1, -1), (1, -3), (3, -1) and (1, -1, 0): two moving coordinates, so
# L = k0 / t - k1 / (1 - t) is exactly 0 at the dyadic t = k0 / (k0 + k1);
# xi (1, 1, -2) on a target where both positive coordinates collapse at the
# start: L = 2 / t - 2 / (1 - t), exactly 0 at t = 1/2
@pytest.mark.parametrize(
    "weights, beta, root",
    [(((1, 1),), (1,), 0.5), (((3, 1),), (Fraction(7, 3),), 0.25),
     (((1, 3),), (2.5,), 0.75), (((1, 1, 0), (0, 0, 1)), (1, 2), 0.5),
     (((1, 1, 1), (1, -1, 0)), (3, 0), 0.5)],
)
def test_profile_root_where_the_slope_is_exactly_zero(weights, beta, root):
    chart = reduced_surface(build_family(WeightMatrix(weights)), beta)
    (t, _), = chart.profile_critical_points()
    assert t == root == bisection_profile_root(chart)
    assert _exact_log_slope(chart, Fraction(t)) == 0


def test_profile_root_does_not_depend_on_the_guess(monkeypatch):
    # the float guess only says where the exact sign tests start: from a
    # guess one ulp off, far off or next to an end the same float comes out
    import ephemera.fiberlab

    charts = [reduced_surface(build_family(WeightMatrix(((1, 1),))), (1,)),
              reduced_surface(build_family(WeightMatrix(((3, 1),))), (2,))]
    charts += _charts_over_positive_radii(FAM, 37, 3) + _charts_over_positive_radii(FAM_CUBIC, 41, 3)
    for chart in charts:
        root = bisection_profile_root(chart)
        for guess in (root, math.nextafter(root, 0.0), math.nextafter(root, 1.0),
                      root * (1 - 1e-12), root * (1 + 1e-9), 0.5 * root, 0.5 + 0.5 * root,
                      5e-324, 1e-300, math.nextafter(1.0, 0.0)):
            monkeypatch.setattr(ephemera.fiberlab, "_log_slope_root_guess", lambda _: guess)
            assert chart.profile_critical_points() == [(root, True)], (chart, guess)


N_LARGE = 2 * 10**9 + 1


@pytest.mark.parametrize(
    "weights, beta, end",
    [(((N_LARGE, 1),), (1,), 0.0), (((1, N_LARGE),), (1,), 1.0),
     (((N_LARGE, 1, 0), (0, 1, 1)), (1, 5), 0.0),
     (((N_LARGE, 1, 0), (0, 1, 1)), (Fraction(1, 3), 7), 0.0),
     (((N_LARGE, 1, 1), (0, 1, -1)), (10**10, 1), 0.0),
     (((1, 0, N_LARGE), (0, 1, 1)), (2, 1), 1.0),
     (((1, 0, N_LARGE), (0, 1, 1)), (Fraction(1, 3), 7), 1.0)],
)
def test_profile_root_next_to_an_end(weights, beta, end):
    chart = reduced_surface(build_family(WeightMatrix(weights)), beta)
    (t, _), = chart.profile_critical_points()
    assert 0.0 < abs(t - end) < 1e-9
    assert t == bisection_profile_root(chart)


@pytest.mark.parametrize(
    "weights",
    [((1, 1),), ((1, 2),), ((5, 3),), ((1, 1, 0), (0, 0, 1)), ((2, 1, 0), (0, 0, 1)),
     ((1, 0, 0), (0, 7, 4)), ((1, 0, 1, 0), (0, 1, 0, 0), (0, 0, 0, 1))],
)
def test_profile_root_with_two_moving_coordinates(weights):
    fam = build_family(WeightMatrix(weights))
    assert fam.proper and sum(e != 0 for e in fam.xi.xi) == 2
    for chart in _charts_over_positive_radii(fam, 29, 20):
        (t, _), = chart.profile_critical_points()
        assert t == bisection_profile_root(chart), chart


def test_profile_root_on_the_degree_193_family():
    fam = build_family(WeightMatrix(
        ((-3, 0, -2, -2, -2), (1, -2, 1, 2, 1), (1, 1, -2, 3, -3), (0, 0, 2, -3, -3))))
    assert fam.xi.xi == (130, -76, -117, -87, 9)
    charts = _charts_over_positive_radii(fam, 31, 60)
    for chart in charts:
        (t, _), = chart.profile_critical_points()
        assert t == bisection_profile_root(chart), chart
    assert len({chart.support_start + chart.support_end for chart in charts}) > 1


@settings(derandomize=True, max_examples=30, deadline=None)
@given(_proper_family_charts())
def test_generated_family_fiber_scan_is_consistent(charts):
    # g is the imaginary part of the defining monomial, so every chart has
    # one maximum and one minimum and no saddle: the scan's two sides must
    # agree, and every sampled level be connected
    for chart, verdict in zip(charts, _stack_verdicts(charts, 21, 512), strict=True):
        assert verdict.status == "ok"
        assert verdict.consistent, chart.beta
        assert verdict.morse.index_counts()[1] == 0, chart.beta
        assert verdict.all_levels_connected, (chart.beta, verdict.levels)


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
    assert level_components([chart], [[2.0 * r_max]], 512)[0] == [0]
    levels = off_critical_levels(report, 21, r_max)
    for c, count in zip(levels, level_components([chart], [levels], 512)[0], strict=True):
        assert count == 1, c


def test_level_components_synthetic_two_loops():
    chart = SyntheticChart(dip=0.7)
    # saddle value and peak value of the profile
    ts = np.linspace(0, 1, 2049)
    rv = chart.radius_profile(ts)
    saddle, peak = rv[1024], float(rv.max())
    between = 0.5 * (saddle + peak)
    assert level_components([chart], [[between]], 512)[0] == [2]
    below = 0.5 * saddle
    assert level_components([chart], [[below]], 512)[0] == [1]


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
        for c, got in zip(levels, level_components([chart], [levels], 512)[0], strict=True):
            assert got == _interval_count_oracle(chart, c), (chart, c)
        levels = []
        for _ in range(20):
            c = float(rng.uniform(-0.9, 0.9)) * r_max
            values = [v for _, _, v, _ in report.critical_points]
            if any(abs(c - v) < 5e-3 * r_max for v in values + [0.0]):
                continue
            levels.append(c)
        for c, got in zip(levels, level_components([chart], [levels], 512)[0], strict=True):
            assert got == _interval_count_oracle(chart, c), (chart, c)


def _corner_values(chart, resolution):
    """gbar on the corners of the level grid: resolution + 1 rows in t,
    resolution columns in psi (the angle wraps)."""
    ts = np.linspace(0.0, 1.0, resolution + 1)
    psis = np.linspace(0.0, 2.0 * np.pi, resolution, endpoint=False)
    return gbar(chart, ts[:, None], psis[None, :])


def _straddle_mask(chart, c, resolution):
    """Cells whose four corner values straddle c strictly."""
    values = _corner_values(chart, resolution)
    shifted = np.roll(values, -1, axis=1)
    corners = np.stack([values[:-1], shifted[:-1], values[1:], shifted[1:]])
    return (corners.min(axis=0) < c) & (c < corners.max(axis=0))


def _flood_fill_count(chart, c, resolution):
    """Level components of gbar = c by breadth-first search over cells.

    Rebuilds the strict-straddle mask from gbar on the cell corners and
    reads nothing else of the chart: neighbours are edge neighbours,
    wrapping in the angle.
    """
    n = resolution
    marked = _straddle_mask(chart, c, n)
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
        got = level_components([chart], [levels], 64)[0]
        assert got == [_flood_fill_count(chart, c, 64) for c in levels], chart


def test_level_components_levels_are_independent():
    for chart in (reduced_surface(FAM, (1, 1)), SyntheticChart(dip=0.7)):
        r_max = float(np.max(chart.radius_profile(np.linspace(0, 1, 129))))
        levels = off_critical_levels(critical_scan(chart), 21, r_max) + [0.0]
        together = level_components([chart], [levels], 128)[0]
        assert together == [level_components([chart], [[c]], 128)[0][0] for c in levels]
        assert level_components([chart], [levels[::-1]], 128)[0] == together[::-1]
        assert level_components([chart], [[]], 128)[0] == []
        assert level_components([chart], [levels], MIN_RESOLUTION // 2) == level_components(
            [chart], [levels], MIN_RESOLUTION
        )


def _tied_levels(chart, resolution, rng):
    """Shuffled levels that tie the grid: values of gbar at seeded corners
    away from 0, some twice, both zeros, and levels beyond +-r_max."""
    values = _corner_values(chart, resolution).ravel()
    ties = [float(v) for v in rng.choice(values[values != 0.0], 8)]
    r_max = max(v for _, _, v, _ in critical_scan(chart).critical_points)
    levels = ties + ties[:3] + [0.0, -0.0, 0.0, 1.5 * r_max, -1.5 * r_max, 2.0 * r_max, -2.0 * r_max]
    rng.shuffle(levels)
    return levels


def _check_tied_levels(chart, resolution, rng):
    levels = _tied_levels(chart, resolution, rng)
    got = level_components([chart], [levels], resolution)[0]
    assert got == [_flood_fill_count(chart, c, resolution) for c in levels], chart
    assert level_components([chart], [levels[::-1]], resolution)[0] == got[::-1]
    for c, count in zip(levels, got):
        assert count == got[levels.index(c)]  # equal levels (0.0 and -0.0 too) agree


@pytest.mark.parametrize("resolution", [64, 97])
def test_level_components_ties_and_order_on_shipped_charts(resolution):
    rng = np.random.default_rng(resolution)
    for fam in (FAM, FAM_CUBIC):
        for beta in [(0.8, 1.6), (1.6, 1.6), (2.4, 0.8)]:
            _check_tied_levels(reduced_surface(fam, beta), resolution, rng)
    _check_tied_levels(SyntheticChart(dip=0.7), resolution, rng)


@settings(derandomize=True, max_examples=15, deadline=None)
@given(_proper_family_charts(), st.sampled_from([64, 97]), st.integers(0, 2**32 - 1))
def test_level_components_ties_and_order_on_generated_charts(charts, resolution, seed):
    rng = np.random.default_rng(seed)
    for chart in charts:
        _check_tied_levels(chart, resolution, rng)


def test_level_components_many_levels():
    # 300 distinct levels: ranks outgrow 8 bits, and the cells of the steep
    # flanks straddle several levels at once
    for chart in (reduced_surface(FAM_CUBIC, (1.2, 1.6)), SyntheticChart(dip=0.7)):
        r_max = max(v for _, _, v, _ in critical_scan(chart).critical_points)
        levels = [float(c) for c in np.linspace(-1.1 * r_max, 1.1 * r_max, 300)]
        got = level_components([chart], [levels], 64)[0]
        assert got == [level_components([chart], [[c]], 64)[0][0] for c in levels]
        for c, count in list(zip(levels, got))[::23]:
            assert count == _flood_fill_count(chart, c, 64), c
        marks = sum(_straddle_mask(chart, c, 64).astype(int) for c in levels)
        assert marks.max() > 1


def _check_stack(charts, levels, resolution, every=1):
    """One stack against one-chart stacks, and every `every`-th level of
    each chart against the flood fill; returns the stack's counts."""
    got = level_components(charts, levels, resolution)
    assert got == [level_components([chart], [chart_levels], resolution)[0]
                   for chart, chart_levels in zip(charts, levels, strict=True)]
    for chart, chart_levels, counts in zip(charts, levels, got, strict=True):
        assert len(counts) == len(chart_levels)
        for c, count in list(zip(chart_levels, counts))[::every]:
            assert count == _flood_fill_count(chart, c, resolution), (chart, c)
    return got


def _sampled_levels(chart, count):
    morse = critical_scan(chart)
    r_max = max(v for _, _, v, _ in morse.critical_points)
    return off_critical_levels(morse, count, r_max)


def test_level_components_stack_holds_one_chart_twice():
    # the same chart twice: its counts come out twice, not merged across
    # the two grids, whose bands share the stack's arrays
    for chart in (reduced_surface(FAM, (1.2, 1.6)), SyntheticChart(dip=0.7)):
        levels = _sampled_levels(chart, 9) + [0.0]
        (once,) = _check_stack([chart], [levels], 64)
        assert _check_stack([chart, chart], [levels, levels], 64) == [once, once]
    assert 2 in once  # the synthetic control's two loops, in each copy


def test_level_components_stack_of_mixed_level_counts():
    synth = SyntheticChart(dip=0.7)
    deduped = _sampled_levels(synth, 2001)  # nudging merges levels near critical values
    assert len(deduped) < 2001
    charts = [reduced_surface(FAM, (1.2, 1.6)), synth, reduced_surface(FAM_CUBIC, (0.8, 2.4)),
              SyntheticChart(dip=0.2), synth]
    r_max = max(v for _, _, v, _ in critical_scan(charts[2]).critical_points)
    levels = [_sampled_levels(charts[0], 21), [], [0.3 * r_max, -0.0, 0.3 * r_max, 0.0],
              [0.5], deduped]
    got = _check_stack(charts, levels, 64, every=97)
    assert [len(counts) for counts in got] == [21, 0, 4, 1, len(deduped)]
    assert level_components([], [], 64) == []
    assert level_components(charts[:2], [[], []], 64) == [[], []]


class _KnotChart:
    """Stand-in chart: R interpolates nonnegative values at knots of [0, 1]."""

    def __init__(self, knots, values):
        self.knots, self.values = knots, values

    def radius_profile(self, t):
        return np.interp(t, self.knots, self.values)


def _knot_chart(rng):
    """A random-walk profile of several bumps, with a run of zero rows, a
    plateau of tied rows and every value rounded to tenths (more ties)."""
    knots = np.linspace(0.0, 1.0, 17)
    values = np.round(np.abs(np.cumsum(rng.normal(0.0, 0.5, 17))), 1)
    zero, flat = rng.choice(np.arange(1, 15), 2, replace=False)
    values[zero:zero + 2] = 0.0
    values[flat + 1] = values[flat]
    if rng.random() < 0.5:
        values[[0, -1]] = 0.0
    return _KnotChart(knots, values)


@pytest.mark.parametrize("resolution", [64, 65])
def test_level_components_many_components_on_stand_in_charts(resolution):
    # level sets of three and more components: one loop per bump of R above
    # |c|, split further by zero rows, against the flood fill
    rng = np.random.default_rng(resolution)
    charts = [_knot_chart(rng) for _ in range(10)]
    levels = []
    for chart in charts:
        r_max = float(chart.values.max())
        tie = float(_corner_values(chart, resolution)[12, 5])
        levels.append([float(c) for c in rng.uniform(-1.1, 1.1, 10) * r_max] + [tie, 0.0])
    got = _check_stack(charts, levels, resolution)
    assert max(max(counts) for counts in got) >= 3


def _sorted_stack(levels):
    """Each chart's levels padded with +inf to the widest count and sorted,
    as level_components hands them to _crossed_runs."""
    padded = np.full((len(levels), max(map(len, levels), default=0)), np.inf)
    for row, chart_levels in zip(padded, levels):
        row[:len(chart_levels)] = chart_levels
    return np.sort(padded, axis=1)


def _check_runs(charts, levels, resolution):
    """_crossed_runs against the cells that _straddle_mask marks from gbar,
    cell for cell: every run is expanded to the grid cells it covers, and
    each cell must be covered once if marked and never otherwise.  Returns
    the number of crossed (chart, cell, level) pairs."""
    ordered = _sorted_stack(levels)
    n = resolution
    first, stop, halves = _crossed_runs(charts, ordered, n)
    covered = np.zeros((*ordered.shape, n, n), dtype=np.int8)  # chart, level, band, column
    for half_first, half_stop, half in zip(first, stop, halves, strict=True):
        # cell p of a half-turn lies between its columns p and p + 1
        columns = np.where((half[:-1] + 1) % n == half[1:], half[:-1], half[1:])
        p = np.arange(len(columns))
        covered[..., columns] += (half_first[..., None] <= p) & (p < half_stop[..., None])
    expected = np.zeros_like(covered)
    for index, (chart, row) in enumerate(zip(charts, ordered)):
        for k, c in enumerate(row):
            expected[index, k] = _straddle_mask(chart, c, n)
    assert np.array_equal(covered, expected), charts
    return int(expected.sum())


def test_ranks_fall_strictly_along_both_half_turns():
    # the precondition of one run per half-turn: from the column of rank
    # n - 1 to that of rank 0, forwards and backwards, every resolution the
    # CLI allows and a few beyond
    for n in [*range(MIN_RESOLUTION, MAX_RESOLUTION + 1), 4096, 10007, 65536]:
        _, rank, halves = _half_turns(n)
        assert len(halves[0]) + len(halves[1]) == n + 2, n
        for half in halves:
            assert rank[half[0]] == n - 1 and rank[half[-1]] == 0, n
            assert (np.diff(rank[half]) < 0).all(), n


@pytest.mark.parametrize("resolution", [64, 97, 512])
def test_crossed_pairs_match_the_straddle_mask(resolution):
    rng = np.random.default_rng(resolution)
    charts = [reduced_surface(fam, beta) for fam in (FAM, FAM_CUBIC)
              for beta in [(0.8, 1.6), (1.6, 1.6), (2.4, 0.8)]]
    charts += [SyntheticChart(dip=0.7), SyntheticChart(dip=0.2)]
    levels = [_tied_levels(chart, resolution, rng) for chart in charts]
    for chart, chart_levels in zip(charts, levels):
        assert _check_runs([chart], [chart_levels], resolution) > 0
    # a padded stack of mixed level counts, one chart twice
    stack = [charts[0], charts[6], charts[4], charts[0]]
    _check_runs(stack, [levels[0][:5], [], levels[4], levels[0]], resolution)


@settings(derandomize=True, max_examples=15, deadline=None)
@given(_proper_family_charts(), st.sampled_from([64, 97]), st.integers(0, 2**32 - 1))
def test_crossed_pairs_match_the_straddle_mask_on_generated_charts(charts, resolution, seed):
    rng = np.random.default_rng(seed)
    levels = [_tied_levels(chart, resolution, rng) for chart in charts]
    _check_runs(charts, [chart_levels[:3 + 5 * k] for k, chart_levels in enumerate(levels)],
                resolution)


def test_crossed_pairs_match_the_straddle_mask_at_2048():
    # three levels: a corner value, which ties the grid, 0 and one between
    chart = reduced_surface(FAM_CUBIC, (1.2, 1.6))
    tie = float(_corner_values(chart, 2048)[700, 300])
    r_max = max(v for _, _, v, _ in critical_scan(chart).critical_points)
    _check_runs([chart], [[0.3 * r_max, 0.0, tie]], 2048)


@pytest.mark.parametrize("resolution, betas", [
    (64, [(0.8, 1.6), (1.6, 1.6), (2.4, 0.8)]), (512, [(1.6, 1.2)])])
def test_crossed_runs_are_contiguous_int32_blocks(resolution, betas):
    # the counting walks first and stop along their last axis and combines
    # the two half-turns elementwise, so each must be one C-contiguous block
    # of shape (half-turn, chart, level, band), not a strided gather
    charts = [reduced_surface(FAM, beta) for beta in betas]
    levels = _sorted_stack([[0.1, 0.5, 1.0, 2.0, 0.0]] * len(charts))
    first, stop, _ = _crossed_runs(charts, levels, resolution)
    for runs in (first, stop):
        assert runs.shape == (2, len(charts), 5, resolution)
        assert runs.dtype == np.int32
        assert runs.flags.c_contiguous


def test_level_components_refuses_a_negative_profile():
    # R = s (1 - dip s^2) dips below 0 where s^2 > 1 / dip; the cuts need
    # R >= 0 to keep the order of the sines (without it their steps need not
    # end), so it is refused
    chart = SyntheticChart(dip=1.5)
    assert chart.radius_profile(0.5) < 0
    with pytest.raises(ValueError, match="radius profile"):
        level_components([chart], [[0.1]], 64)
    with pytest.raises(ValueError, match="radius profile"):
        level_components([SyntheticChart(dip=0.7), chart], [[0.1], []], 64)


def _fresh_python_output(script):
    """Standard output of script run in a fresh interpreter that imports the
    same ephemera as the tests."""
    root = os.path.dirname(os.path.dirname(os.path.abspath(ephemera.lattice.__file__)))
    path = os.pathsep.join(filter(None, [root, os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": path}, check=True).stdout


@pytest.mark.skipif(sys.platform != "linux", reason="counts the faults of glibc's heap")
def test_default_scan_stops_faulting_its_working_set_in():
    # glibc trims the top of its heap once that holds twice the largest
    # block it has unmapped, so the count depends on what the process held
    # before; here one 513 x 512 float grid, as in the benchmark worker,
    # whose calibration passes build such grids between calls.  A warm
    # default scan then runs in the heap it already has (the full-grid
    # labeller took about 31,000 faults)
    script = """
import resource
import numpy as np
from ephemera.family import build_family
from ephemera.fiberlab import connectivity_report
from ephemera.lattice import WeightMatrix
fam = build_family(WeightMatrix(((1, 0, 1), (0, 1, 1))))
grid = [(a, b) for a in np.linspace(0.8, 2.4, 5) for b in np.linspace(0.8, 2.4, 5)]
grid_values = np.ones((513, 512))
del grid_values
connectivity_report(fam, grid, resolution=512)
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
connectivity_report(fam, grid, resolution=512)
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""
    assert int(_fresh_python_output(script)) < 5000


@pytest.mark.skipif(sys.platform != "linux", reason="counts the faults of glibc's heap")
def test_default_scan_stops_faulting_in_a_pristine_interpreter():
    # as above, but with no block made and dropped first: the second scan
    # runs in the heap that the first one left
    script = """
import resource
import numpy as np
from ephemera.family import build_family
from ephemera.fiberlab import connectivity_report
from ephemera.lattice import WeightMatrix
fam = build_family(WeightMatrix(((1, 0, 1), (0, 1, 1))))
grid = [(a, b) for a in np.linspace(0.8, 2.4, 5) for b in np.linspace(0.8, 2.4, 5)]
connectivity_report(fam, grid, resolution=512)
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
connectivity_report(fam, grid, resolution=512)
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""
    assert int(_fresh_python_output(script)) < 200


@pytest.mark.skipif(sys.platform != "linux", reason="reads VmHWM in /proc/self/status")
def test_one_chart_at_the_caps_stays_under_144_mb(tmp_path):
    # one family_11m1 chart at MAX_RESOLUTION with 1024 levels, through the
    # CLI in a fresh process; VmHWM is the peak of the process's own memory,
    # where ru_maxrss would start from the peak of the test process that
    # spawned it
    script = f"""
from ephemera.cli import main
code = main(["fiber-scan", "family_11m1", "--beta-grid=1.6:1.6:1,1.2:1.2:1",
             "--resolution", "{MAX_RESOLUTION}", "--c-grid", "1024", "--no-synthetic-check",
             "--out", {str(tmp_path / "cap.json")!r}])
with open("/proc/self/status") as status:
    peak = next(line.split()[1] for line in status if line.startswith("VmHWM:"))
print(code, peak)
"""
    code, peak_kb = map(int, _fresh_python_output(script).split())
    assert code == 0
    assert peak_kb < 144 * 1024


def _recording_stacks(monkeypatch):
    """The charts and levels of each level_components call, in order."""
    import ephemera.fiberlab

    stacks = []

    def recording(charts, levels, resolution):
        stacks.append((list(charts), [list(chart_levels) for chart_levels in levels], resolution))
        return level_components(charts, levels, resolution)

    monkeypatch.setattr(ephemera.fiberlab, "level_components", recording)
    return stacks


@pytest.mark.parametrize(("resolution", "sizes"), [
    (64, [16, 16, 4, 1]), (97, [6] * 6 + [1]), (256, [1] * 37), (512, [1] * 37)])
def test_scan_labels_charts_in_stacks_of_the_cell_budget(resolution, sizes, monkeypatch):
    # 36 ok charts (with 32 empty and 13 point charts between them), then the
    # synthetic control on its own: each stack holds as many charts as fit
    # STACK_CELLS cells, and the last one of the grid may be partial
    stacks = _recording_stacks(monkeypatch)
    axis = np.linspace(-1.0, 3.0, 9)
    betas = [(a, b) for a in axis for b in axis]
    report = connectivity_report(FAM, betas, c_count=3, resolution=resolution)
    assert [len(charts) for charts, _, _ in stacks] == sizes
    assert all(max(STACK_CELLS // resolution**2, 1) >= size for size in sizes)
    assert Counter(c.status for c in report.charts) == {"ok": 36, "empty": 32, "point": 13}
    ok = [c for c in report.charts if c.status == "ok"]
    assert [c.beta for c in ok] == [chart.beta for charts, _, _ in stacks[:-1] for chart in charts]
    assert [tuple(c.levels) for c in ok] == [
        tuple(chart_levels) for _, levels, _ in stacks[:-1] for chart_levels in levels]
    assert stacks[-1][0] == [SyntheticChart(dip=0.7)]


def test_scan_with_a_partial_last_stack_at_resolution_97():
    # 6 charts fit a stack at 97; 15 ok charts make stacks of 6, 6 and 3
    betas = [(a, b) for a in np.linspace(0.6, 2.4, 5) for b in np.linspace(0.6, 2.4, 3)]
    report = connectivity_report(FAM_CUBIC, betas, c_count=7, resolution=97)
    assert [c.status for c in report.charts] == ["ok"] * 15
    for beta, verdict in zip(betas, report.charts, strict=True):
        chart = reduced_surface(FAM_CUBIC, beta)
        levels = list(verdict.levels)
        (counts,) = _check_stack([chart], [levels], 97)
        assert list(verdict.levels.values()) == counts, beta
    synth = report.synthetic_check
    (counts,) = _check_stack([SyntheticChart(dip=0.7)], [list(synth.levels)], 97)
    assert list(synth.levels.values()) == counts
    assert 2 in counts and synth.consistent


@pytest.mark.parametrize("synthetic_check", [True, False])
def test_scan_of_a_grid_with_no_ok_chart(synthetic_check, monkeypatch):
    stacks = _recording_stacks(monkeypatch)
    betas = [(-1.0, 1.0), (0.0, 0.0), (1.0, -0.5), (-2.0, -2.0)]
    report = connectivity_report(FAM, betas, c_count=5, resolution=64,
                                 synthetic_check=synthetic_check)
    assert [c.status for c in report.charts] == ["empty", "point", "empty", "empty"]
    assert report.all_consistent is True
    assert [charts for charts, _, _ in stacks] == [[SyntheticChart(dip=0.7)]] * synthetic_check
    assert (report.synthetic_check is not None) == synthetic_check


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


def test_sampled_levels_do_not_depend_on_resolution():
    # the levels are spread over the exact profile maximum, so every chart,
    # the synthetic control included, samples the same levels at any grid
    betas = [(a, b) for a in (0.9, 1.5, 2.2) for b in (0.6, 1.0, 1.8)]
    for fam in (FAM, FAM_CUBIC):
        coarse = connectivity_report(fam, betas, c_count=7, resolution=64)
        fine = connectivity_report(fam, betas, c_count=7, resolution=512)
        assert sum(c.status == "ok" for c in coarse.charts) >= 6
        for a, b in zip(coarse.charts + [coarse.synthetic_check],
                        fine.charts + [fine.synthetic_check]):
            assert list(a.levels) == list(b.levels), a.beta


def test_coinciding_levels_are_sampled_once(monkeypatch):
    # at 2001 levels nudging moves several onto the same value next to the
    # synthetic control's critical values; each value is labelled once and
    # every labelled level is reported
    stacks = _recording_stacks(monkeypatch)
    (verdict,) = _stack_verdicts([SyntheticChart(dip=0.7)], 2001, MIN_RESOLUTION)
    ((_, (levels,), _),) = stacks
    assert len(set(levels)) == len(levels) < 2001
    assert list(verdict.levels) == levels
    assert levels == sorted(levels)


def test_resolution_stability():
    chart = reduced_surface(FAM, (1, 1))
    report = critical_scan(chart)
    r_max = float(np.max(chart.radius_profile(np.linspace(0, 1, 257))))
    levels = off_critical_levels(report, 11, r_max)
    assert level_components([chart], [levels], 256) == level_components([chart], [levels], 512)
    synth = SyntheticChart(dip=0.7)
    report = critical_scan(synth)
    levels = off_critical_levels(report, 11, 1.0)
    assert level_components([synth], [levels], 256) == level_components([synth], [levels], 512)


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


def test_targets_out_of_float_range_are_refused_and_the_rest_consistent():
    # powers of ten from below the subnormals to the top of the float range:
    # a chart whose squared radii overflow floats, or whose largest value is
    # not a normal float or has no finite double, is refused, naming its
    # target; every other chart comes out consistent
    seen = Counter()
    for fam in (FAM, FAM_CUBIC):
        for k in range(-330, 309, 7):
            x = float(f"1e{k}")
            for beta in [(x, x), (x, 1.0), (1.0, x)]:
                try:
                    report = connectivity_report(fam, [beta], resolution=64, synthetic_check=False)
                except OutOfFloatRange as exc:
                    assert str(beta) in str(exc)
                    seen["refused"] += 1
                    continue
                (verdict,) = report.charts
                assert verdict.status == "point" or verdict.consistent, beta
                seen[verdict.status] += 1
    assert seen["refused"] > 0 and seen["point"] > 0 and seen["ok"] > seen["refused"]


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


@pytest.mark.parametrize("axis", ["1:1:1", "0.8:2.4:4"])
def test_fiber_scan_takes_one_smith_normal_form_per_family(axis, tmp_path, monkeypatch):
    # the segment solve reads the weight matrix's right inverse, so loading
    # the family is the one normal form of a scan, whatever its chart count
    calls = []

    def counted(a):
        calls.append(a)
        return snf(a)

    snf = ephemera.lattice.smith_normal_form
    for module in list(sys.modules.values()):
        if module.__name__.startswith("ephemera") and hasattr(module, "smith_normal_form"):
            monkeypatch.setattr(module, "smith_normal_form", counted)
    out = tmp_path / "scan.json"
    argv = ["fiber-scan", "family_11m1", f"--beta-grid={axis},{axis}", "--c-grid", "3",
            "--resolution", "64", "--no-synthetic-check", "--out", str(out)]
    assert main(argv) == 0
    charts = json.loads(out.read_text())["connectivity"]["charts"]
    assert len(charts) == int(axis.rsplit(":", 1)[1]) ** 2
    assert sum(c["status"] == "ok" for c in charts) >= 1
    assert len(calls) == 1
