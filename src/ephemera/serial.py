"""JSON wire formats: system spec files, polynomials, report bundles.

Polynomial coefficients serialize as Gaussian-rational strings ("1/2",
"-1/2i", "1/3+2/5i") so exact data survives a round trip; float
coefficients fall back to repr-exact decimal strings tagged with "~".
"""

from __future__ import annotations

import hashlib
import json
import math
import re
import sys
from fractions import Fraction

import numpy as np

from .classifier import SingularityReport, local_model_system
from .errors import InvalidAction, ParseError
from .family import PolarPoint, build_family
from .fiberlab import ChartVerdict, ConnectivityReport
from .jets import InvariantPolynomial, RationalComplex, c_complex
from .lattice import DefiningVector, WeightMatrix


# Fraction builds a decimal exponent's power of ten exactly, so an
# exponent of seven digits already takes seconds; no coefficient needs this
MAX_DECIMAL_EXPONENT = 1000
_DECIMAL_EXPONENT = re.compile(r"[eE]([-+]?[0-9_]+)")


def _fraction(text: str) -> Fraction:
    """Fraction(text), refusing a decimal exponent beyond MAX_DECIMAL_EXPONENT."""
    exponent = _DECIMAL_EXPONENT.search(text)
    if exponent and abs(int(exponent.group(1))) > MAX_DECIMAL_EXPONENT:
        raise ValueError(f"decimal exponent beyond {MAX_DECIMAL_EXPONENT}")
    return Fraction(text)


def _parse_imaginary_body(body: str) -> Fraction:
    if body in ("", "+"):
        return Fraction(1)
    if body == "-":
        return Fraction(-1)
    return _fraction(body)


def parse_coefficient(text: str):
    """A coefficient string: exact "1/2", "-1/2i", "1/3+2/5i", or float "~re,im"."""
    text = text.strip().replace(" ", "")
    try:
        if text.startswith("~"):
            re_s, im_s = text[1:].split(",")
            return complex(float(re_s), float(im_s))
        if not text.endswith("i"):
            return RationalComplex(_fraction(text), Fraction(0))
        body = text[:-1]
        # an interior sign separates the real part from the imaginary one;
        # a sign after e or E belongs to an exponent
        split = max(
            (p for p in range(1, len(body)) if body[p] in "+-" and body[p - 1] not in "eE"),
            default=None,
        )
        if split is None:
            return RationalComplex(Fraction(0), _parse_imaginary_body(body))
        return RationalComplex(
            _fraction(body[:split]), _parse_imaginary_body(body[split:])
        )
    except (ValueError, ZeroDivisionError) as exc:
        raise ParseError(f"bad coefficient string {text!r}") from exc


def polynomial_from_terms(terms: list, xi: DefiningVector) -> InvariantPolynomial:
    """The polynomial of a spec's g_terms, and the one check of each entry:
    exactly the keys a, b and c, a and b lists of integers >= 0, c a string."""
    parsed = {}
    for item in terms:
        if (not isinstance(item, dict) or set(item) != {"a", "b", "c"}
                or not isinstance(item["c"], str)):
            raise ParseError(f"bad g_terms: entry {item} is not exactly a, b and a string c")
        key = tuple(tuple(_numbers(item[k], f"bad g_terms: {k}", "an integer >= 0")) for k in "ab")
        if key in parsed:
            raise ParseError(f"bad g_terms: exponent pair a={item['a']}, b={item['b']} repeats")
        parsed[key] = parse_coefficient(item["c"])
    try:
        return InvariantPolynomial(terms=parsed, xi=xi)
    except (ValueError, OverflowError) as exc:
        raise ParseError(f"bad g_terms: {exc}") from exc


# the top-level keys of system_spec.schema.json, each with its JSON type
_SPEC_KEYS = {"name": str, "description": str, "kind": str, "weights": list,
              "xi": list, "g_terms": list, "points": list, "metadata": dict}
_JSON_TYPES = {str: "a string", list: "an array", dict: "an object"}


def load_system_spec(data: dict):
    """Check a spec dict and build the system it describes.

    The one check of a spec, each field checked where it is read: it
    accepts what system_spec.schema.json and the system's checks accept.
    Returns (system, points), a SystemSpec and PolarPoints.  Family
    entries give the system of build_family, whose g is Im P (g_terms are
    refused); local-model entries give a system on the slice.  Every
    listed point must have one finite coordinate per system coordinate,
    and a largest radius of 0 or of at least the smallest normal float.
    """
    if not isinstance(data, dict):
        raise ParseError("spec file invalid: not an object")
    for key, value in data.items():
        if key not in _SPEC_KEYS:
            raise ParseError(f"spec file invalid: unknown key {key!r}")
        if not isinstance(value, _SPEC_KEYS[key]):
            raise ParseError(f"spec file invalid: {key} is not {_JSON_TYPES[_SPEC_KEYS[key]]}")
    name, kind = data.get("name"), data.get("kind")
    if not name or kind not in ("family", "local_model") or (
            ("weights" if kind == "family" else "xi") not in data):
        raise ParseError("spec file invalid: needs a name, a kind (family or "
                         "local_model), and a family's weights or a local model's xi")
    for row in data.get("weights", []):
        _numbers(row, "spec file invalid: a weights row", "an integer", min_length=2)
    if "xi" in data:
        _numbers(data["xi"], "spec file invalid: xi", "an integer", min_length=1)
    points = [parse_point(p) for p in data.get("points", [])]
    if kind == "family":
        if "g_terms" in data:
            raise ParseError("g_terms are not supported on a family spec: its g is Im P")
        weights = WeightMatrix(tuple(tuple(row) for row in data["weights"]))
        system = build_family(weights, name=name)
        if "xi" in data and tuple(data["xi"]) != system.xi.xi:
            raise ParseError(
                f"xi override {data['xi']} does not generate the kernel "
                f"(expected {list(system.xi.xi)})"
            )
    else:
        try:  # a ParseError, as the g_terms entries checked after xi may break the schema
            xi = DefiningVector.from_entries(data["xi"])
        except InvalidAction as exc:
            raise ParseError(f"bad xi: {exc}") from exc
        g = None
        if "g_terms" in data:
            g = polynomial_from_terms(data["g_terms"], xi)
        system = local_model_system(xi, g=g, name=name)
    coords = len(system.xi.xi)
    for i, point in enumerate(points):
        if len(point.r) != coords:
            raise ParseError(
                f"point {i} has {len(point.r)} coordinates, the system has {coords}"
            )
        if not all(math.isfinite(x) for x in point.r + point.theta):
            raise ParseError(f"point {i} has a non-finite coordinate")
        # a subnormal coordinate keeps fewer than 53 bits, and the
        # classifier's tolerances assume full precision; exact zeros are fine
        if 0.0 < max(point.r) < sys.float_info.min:
            raise ParseError(
                f"point {i} is too small for floats: its largest radius "
                f"{max(point.r):.3g} is below {sys.float_info.min:.3g}"
            )
    # finite input may still overflow; (coefficient scale * (2 max(1, |z|))^deg)^2
    # bounds every squared value: deg >= 2 covers Phi, 2^deg the Taylor factors
    terms = system.g.terms
    degree = max([2] + [sum(a) + sum(b) for a, b in terms])
    radius = max([1.0] + [r for point in points for r in point.r])
    try:
        scale = max([1.0] + [abs(c_complex(c)) for c in terms.values()])
        bound = (scale * (2.0 * radius) ** degree) ** 2
    except OverflowError:
        bound = math.inf
    if not math.isfinite(bound):
        raise ParseError(
            f"spec overflows a float: degree {degree}, max(1, |z|) = {radius:.3g}"
        )
    return system, points


def _numbers(value, what: str, kind="a number", min_length=0) -> list:
    """value as a list of at least min_length JSON numbers (true and false
    are not), each of a kind: "a number" fits a float, "an integer" is an
    int or an integral float, as the schema counts them, or "an integer >= 0".
    Integers must fit numpy's int64, the type of SystemSpec.weight_array."""
    if not isinstance(value, list):
        raise ParseError(f"{what} is not a list")
    if len(value) < min_length:
        raise ParseError(f"{what} has fewer than {min_length} entries")
    for x in value:
        if (isinstance(x, bool) or not isinstance(x, (int, float))
                or kind != "a number" and isinstance(x, float) and not x.is_integer()
                or kind == "an integer >= 0" and x < 0):
            raise ParseError(f"{what} holds {x!r}, not {kind}")
        if kind != "a number" and not -2**63 <= x < 2**63:
            raise ParseError(f"{what} holds {x!r}, beyond a 64-bit integer")
        if kind == "a number":
            try:
                float(x)
            except OverflowError as exc:
                raise ParseError(f"{what} holds a number beyond a float") from exc
    return value


def parse_point(entry) -> PolarPoint:
    """One listed point: {"r": [...], "theta": [...]} or {"z": [[re, im], ...]}.

    The one check of a point's shape (the schema only asks for an object):
    exactly one of the two key sets, lists of numbers, nonnegative radii as
    many as the angles, and each z entry a pair.  Finiteness and the
    coordinate count are checked against the system by load_system_spec.
    """
    if not isinstance(entry, dict) or set(entry) not in ({"r", "theta"}, {"z"}):
        raise ParseError(f"bad point {entry}: expected the keys r and theta, or z alone")
    try:  # the message names the point only once a check fails
        if "r" in entry:
            return PolarPoint(r=tuple(_numbers(entry["r"], "r")),
                              theta=tuple(_numbers(entry["theta"], "theta")))
        if not isinstance(entry["z"], list):
            raise ParseError("z is not a list")
        z = []
        for pair in entry["z"]:
            if len(_numbers(pair, "a z entry")) != 2:
                raise ParseError(f"z entry {pair} is not a pair")
            z.append(complex(pair[0], pair[1]))
    except (ParseError, ValueError) as exc:
        raise ParseError(f"bad point {entry}: {exc}") from exc
    return PolarPoint.from_complex(np.array(z))


def point_to_json(w: PolarPoint) -> dict:
    return {"r": list(w.r), "theta": list(w.theta)}


def read_spec_bytes(path: str) -> bytes:
    try:
        with open(path, "rb") as fh:
            return fh.read()
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc


def load_spec_bytes(raw: bytes, label: str):
    """Parse, validate and hash a spec: (system, points, sha256)."""
    try:
        data = json.loads(raw)
    except ValueError as exc:
        raise ParseError(f"{label} is not valid JSON: {exc}") from exc
    system, points = load_system_spec(data)
    return system, points, hashlib.sha256(raw).hexdigest()


def load_spec_file(path: str):
    return load_spec_bytes(read_spec_bytes(path), path)


# -- reports ---------------------------------------------------------------


def _pairs(values) -> list:
    """Complex numbers as JSON [re, im] pairs."""
    return [[z.real, z.imag] for z in values]


def report_to_json(report: SingularityReport) -> dict:
    """A report as JSON data; of the diagnostics, only the two spectra,
    eigenvalues and g_only_eigenvalues, are not JSON values already."""
    diagnostics = dict(report.diagnostics)
    for key in ("eigenvalues", "g_only_eigenvalues"):
        if key in diagnostics:
            diagnostics[key] = _pairs(diagnostics[key])
    return {
        "point": _pairs(report.point),
        "support": list(report.support),
        "stabilizer": {
            "rank": report.stabilizer.rank,
            "component_count": report.stabilizer.component_count,
            "slice_weights": [list(w) for w in report.stabilizer.slice_weights],
            "xi_restricted": list(report.stabilizer.xi_restricted.xi),
        },
        "tall": report.tall,
        "degree": report.degree_N,
        "critical_mod_phi": report.critical_mod_phi,
        "multiplier": list(report.multiplier) if report.multiplier is not None else None,
        "blocks": [{"kind": b.kind, "eigenvalues": _pairs(b.eigenvalues)} for b in report.blocks],
        "label": report.label,
        "diagnostics": diagnostics,
    }


def chart_verdict_to_json(chart: ChartVerdict) -> dict:
    out = {
        "beta": list(chart.beta),
        "status": chart.status,
        "no_saddles": chart.no_saddles,
        "all_levels_connected": chart.all_levels_connected,
        "euler_is_sphere": chart.euler_is_sphere,
        "consistent": chart.consistent,
    }
    if chart.morse is not None:
        idx0, idx1, idx2 = chart.morse.index_counts()
        out["critical_points"] = [
            {"t": t, "psi": psi, "value": v, "index": idx}
            for t, psi, v, idx in chart.morse.critical_points
        ]
        out["index_counts"] = [idx0, idx1, idx2]
        out["euler_characteristic"] = chart.morse.euler_characteristic
        out["levels"] = [
            {"c": c, "components": k} for c, k in sorted(chart.levels.items())
        ]
    return out


def connectivity_to_json(report: ConnectivityReport) -> dict:
    return {
        "resolution": report.resolution,
        "all_consistent": report.all_consistent,
        "charts": [chart_verdict_to_json(c) for c in report.charts],
        "synthetic_check": (
            chart_verdict_to_json(report.synthetic_check)
            if report.synthetic_check is not None
            else None
        ),
    }


def connectivity_csv_rows(report: ConnectivityReport) -> list[list]:
    """Flat rows: beta, c, components, idx0, idx1, idx2, chi, verdict."""
    rows = [["beta", "c", "components", "idx0", "idx1", "idx2", "chi", "verdict"]]
    for chart in report.charts:
        beta = " ".join(repr(b) for b in chart.beta)
        if chart.status != "ok" or chart.morse is None:
            rows.append([beta, "", "", "", "", "", "", chart.status])
            continue
        idx0, idx1, idx2 = chart.morse.index_counts()
        verdict = "consistent" if chart.consistent else "inconsistent"
        for c, k in sorted(chart.levels.items()):
            rows.append(
                [beta, repr(c), k, idx0, idx1, idx2,
                 chart.morse.euler_characteristic, verdict]
            )
    return rows

