"""Independent checks of the report bundles the program writes.

Nothing here is copied from the program's output or its algorithms: the
fiber scan is checked against a float solve of the reduced segment and a
sampled radius profile, and point labels against the closed-form table of
the family g = Im(prod z^max(xi,0) zbar^max(-xi,0)).  Each check returns
one verdict per operation (chart or point).
"""

from __future__ import annotations

import itertools
import math

import numpy as np

PROFILE_SAMPLES = 8193
SEGMENT_TOL = 1e-9
COND_TOL = 1e-8  # the closed-form criticality tolerance of the table

# the known fault: a regular open-stratum point of a high-degree family
# comes out "regular-mod-phi-elliptic" (classifier._df_rank_full)
KNOWN_FAULT = ("regular", "regular-mod-phi-elliptic")


# -- fiber scan ------------------------------------------------------------


def grid_betas(axes) -> list[tuple[float, ...]]:
    """The beta targets of lo:hi:count axes, first axis outermost."""
    values = [np.linspace(float(lo), float(hi), int(count)) for lo, hi, count in axes]
    return [tuple(float(v) for v in combo) for combo in itertools.product(*values)]


def segments(weights, xi, betas):
    """Float solve of (1/2) W s = beta, s >= 0, for each target.

    The solutions form the segment s* + c xi clipped to the orthant.
    Returns the statuses ("empty", "point" or "ok") and the segment ends.
    """
    w = np.asarray(weights, dtype=float)
    xi = np.asarray(xi, dtype=float)
    rhs = 2.0 * np.asarray(betas, dtype=float).reshape(-1, w.shape[0])
    s_star = np.linalg.lstsq(w, rhs.T, rcond=None)[0].T
    tol = SEGMENT_TOL * (1.0 + np.max(np.abs(s_star), axis=1))
    pos, neg = xi > 0, xi < 0
    c_min = np.max(-s_star[:, pos] / xi[pos], axis=1)
    c_max = np.min(s_star[:, neg] / -xi[neg], axis=1)
    empty = np.any((xi == 0) & (s_star < -tol[:, None]), axis=1) | (c_min > c_max + tol)
    status = np.where(empty, "empty", np.where(c_max - c_min <= tol, "point", "ok"))
    s0 = np.clip(s_star + c_min[:, None] * xi, 0.0, None)
    s1 = np.clip(s_star + c_max[:, None] * xi, 0.0, None)
    return [str(x) for x in status], s0, s1


def radius_profile(xi, s0, s1, samples: int = PROFILE_SAMPLES) -> np.ndarray:
    """R(t) = prod_j s_j(t)^(|xi_j|/2) on [0, 1]."""
    t = np.linspace(0.0, 1.0, samples)[:, None]
    s = np.clip(s0[None, :] + (s1 - s0)[None, :] * t, 0.0, None)
    return np.prod(s ** (np.abs(np.asarray(xi, dtype=float)) / 2.0)[None, :], axis=1)


def intervals_above(profile: np.ndarray, level: float) -> int:
    """Maximal runs of samples with R > |level| (one at level 0)."""
    if level == 0.0:
        return 1
    above = profile > abs(level)
    return int(np.count_nonzero(above[1:] & ~above[:-1]) + int(above[0]))


def interior_minima(profile: np.ndarray) -> int:
    """Strict interior local minima of the sampled profile (plateaus merged)."""
    d = np.diff(profile)
    d = d[d != 0.0]
    return int(np.count_nonzero((d[:-1] < 0.0) & (d[1:] > 0.0)))


def check_chart(chart: dict, xi, beta, status, s0, s1, levels: int) -> str | None:
    """None when the chart agrees with its segment, else why not."""
    if list(chart["beta"]) != list(beta):
        return f"beta {chart['beta']} != grid {list(beta)}"
    if chart["status"] != status:
        return f"status {chart['status']} != oracle {status}"
    if status != "ok":
        return None
    profile = radius_profile(xi, s0, s1)
    got = chart.get("levels", [])
    if len(got) != levels:
        return f"{len(got)} levels != {levels}"
    for entry in got:
        want = intervals_above(profile, entry["c"])
        if entry["components"] != want:
            return f"level {entry['c']!r}: {entry['components']} components != {want}"
    saddles = 2 * interior_minima(profile)
    if chart["index_counts"][1] != saddles:
        return f"{chart['index_counts'][1]} index-1 points != {saddles}"
    if chart["euler_characteristic"] != 2:
        return f"Euler number {chart['euler_characteristic']} != 2"
    if chart["consistent"] is not True:
        return "chart not consistent"
    return None


def check_scan_bundle(bundle: dict, job) -> list[str | None]:
    """One verdict per grid chart; the synthetic control and the overall
    flag are folded into the first chart's verdict."""
    conn = bundle["connectivity"]
    charts = conn["charts"]
    betas = grid_betas(job.axes)
    statuses, s0, s1 = segments(job.family.weights, job.family.xi, betas)
    verdicts = [
        check_chart(charts[i], job.family.xi, beta, statuses[i], s0[i], s1[i], job.levels)
        if i < len(charts) else "chart missing"
        for i, beta in enumerate(betas)
    ]
    whole = []
    if len(charts) != len(verdicts):
        whole.append(f"{len(charts)} charts != {len(verdicts)} grid targets")
    synth = conn.get("synthetic_check")
    if not job.control:
        if synth is not None:
            whole.append("synthetic control present though switched off")
    elif synth is None:
        whole.append("synthetic control missing")
    elif not (synth["no_saddles"] is False
              and synth["index_counts"][1] > 0
              and (synth["all_levels_connected"] is False
                   or synth["euler_is_sphere"] is False)
              and synth["consistent"] is True):
        whole.append("synthetic control shows no saddle, no split level, "
                     "or is inconsistent")
    if conn["all_consistent"] is not True:
        whole.append("report not all_consistent")
    if whole:
        verdicts[0] = "; ".join(filter(None, [verdicts[0]] + whole))
    return verdicts


# -- point labels ------------------------------------------------------------


def closed_form_label(xi, support, r, theta) -> str:
    """The paper's table for the family: support degree N, mixed signs,
    gcd of the restricted exponents, and the two open-stratum residuals."""
    sub = [xi[i] for i in support]
    degree = sum(abs(x) for x in sub)
    mixed = any(x > 0 for x in sub) and any(x < 0 for x in sub)
    if degree == 0:
        others = [j for j in range(len(xi)) if j not in support]
        c1 = math.cos(sum(xi[j] * theta[j] for j in others))
        c2 = sum(xi[j] * abs(xi[j]) / r[j] ** 2 for j in others)
        scale = max(sum(xi[j] ** 2 / r[j] ** 2 for j in others), 1.0)
        if abs(c1) <= COND_TOL and abs(c2) <= COND_TOL * scale:
            return "purely-elliptic"
        return "regular-mod-phi-elliptic" if support else "regular"
    if mixed:
        return "short-elliptic" if degree == 2 else "unclassified-degenerate"
    if degree == 1:
        return "regular-mod-phi-elliptic" if len(support) >= 2 else "regular"
    if degree == 2:
        if math.gcd(*(abs(x) for x in sub)) > 1:
            return "nondegenerate-ephemeral(hyperbolic-disconnected)"
        return "nondegenerate-ephemeral(focus-focus)"
    return "degenerate-ephemeral"


def expected_labels(job) -> list[str]:
    xi = job.family.xi
    return [closed_form_label(xi, p.support, p.r, p.theta) for p in job.points]


def check_classify_bundle(bundle: dict, job, expected: list[str]):
    """One (verdict, known_fault) pair per listed point; verdict is None
    when the report agrees with the table."""
    reports = bundle["reports"]
    out = []
    for i, (point, want) in enumerate(zip(job.points, expected)):
        if i >= len(reports):
            out.append(("report missing", False))
            continue
        rep = reports[i]
        if tuple(rep["support"]) != point.support:
            out.append((f"support {rep['support']} != {list(point.support)}", False))
        elif rep["label"] != want:
            known = (job.fault_family and not point.support
                     and (want, rep["label"]) == KNOWN_FAULT)
            out.append((f"label {rep['label']} != {want}", known))
        else:
            out.append((None, False))
    if len(reports) != len(job.points):
        out[0] = (f"{len(reports)} reports != {len(job.points)} points", False)
    return out
