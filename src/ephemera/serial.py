"""JSON wire formats: system spec files, polynomials, report bundles.

Polynomial coefficients serialize as Gaussian-rational strings ("1/2",
"-1/2i", "1/3+2/5i") so exact data survives a round trip; float
coefficients fall back to repr-exact decimal strings tagged with "~".
"""

from __future__ import annotations

import functools
import hashlib
import json
import math
import re
from fractions import Fraction
from importlib import resources

import jsonschema
import numpy as np
from jsonschema.exceptions import best_match

from .classifier import BlockData, SingularityReport, local_model_system
from .errors import ParseError
from .family import FamilySystem, PolarPoint, build_family
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


def polynomial_from_terms(terms: list[dict], xi: DefiningVector) -> InvariantPolynomial:
    parsed = {}
    for item in terms:
        key = (tuple(item["a"]), tuple(item["b"]))
        if key in parsed:
            raise ParseError(f"bad g_terms: exponent pair a={item['a']}, b={item['b']} repeats")
        parsed[key] = parse_coefficient(item["c"])
    try:
        return InvariantPolynomial(terms=parsed, xi=xi)
    except (ValueError, OverflowError) as exc:
        raise ParseError(f"bad g_terms: {exc}") from exc


@functools.cache
def _validator(name: str):
    """Validator for a shipped schema, built on first use."""
    with resources.files("ephemera").joinpath("schemas").joinpath(name).open() as fh:
        schema = json.load(fh)
    return jsonschema.validators.validator_for(schema)(schema)


def _schema_error(data, name: str):
    """The most relevant violation of a shipped schema, or None."""
    return best_match(_validator(name).iter_errors(data))


def load_system_spec(data: dict):
    """Validate a spec dict and build the system it describes.

    Returns (system_or_family, points).  Family entries give a
    FamilySystem; local-model entries give a SystemSpec on the slice.
    Every listed point must have one finite coordinate per system
    coordinate.
    """
    error = _schema_error(data, "system_spec.schema.json")
    if error is not None:
        raise ParseError(f"spec file invalid: {error.message}") from error
    name = data["name"]
    points = [parse_point(p) for p in data.get("points", [])]
    if data["kind"] == "family":
        weights = WeightMatrix(tuple(tuple(row) for row in data["weights"]))
        system = build_family(weights, name=name)
        if "xi" in data and tuple(data["xi"]) != system.xi.xi:
            raise ParseError(
                f"xi override {data['xi']} does not generate the kernel "
                f"(expected {list(system.xi.xi)})"
            )
    else:
        xi = DefiningVector.from_entries(data["xi"])
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
    # finite input may still overflow; (coefficient scale * (2 max(1, |z|))^deg)^2
    # bounds every squared value: deg >= 2 covers Phi, 2^deg the Taylor factors
    g = (system.system if isinstance(system, FamilySystem) else system).g
    degree = max([2] + [sum(a) + sum(b) for a, b in g.terms])
    radius = max([1.0] + [r for point in points for r in point.r])
    try:
        scale = max([1.0] + [abs(c_complex(c)) for c in g.terms.values()])
        bound = (scale * (2.0 * radius) ** degree) ** 2
    except OverflowError:
        bound = math.inf
    if not math.isfinite(bound):
        raise ParseError(
            f"spec overflows a float: degree {degree}, max(1, |z|) = {radius:.3g}"
        )
    return system, points


def _point_numbers(entry, value, what: str) -> list:
    """value as a list of JSON numbers that fit a float (true/false are not numbers)."""
    if not isinstance(value, list):
        raise ParseError(f"bad point {entry}: {what} is not a list")
    for x in value:
        if isinstance(x, bool) or not isinstance(x, (int, float)):
            raise ParseError(f"bad point {entry}: {what} holds {x!r}, not a number")
        try:
            float(x)
        except OverflowError as exc:
            raise ParseError(f"bad point {entry}: {what} holds a number beyond a float") from exc
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
    if "r" in entry:
        r = _point_numbers(entry, entry["r"], "r")
        theta = _point_numbers(entry, entry["theta"], "theta")
        try:
            return PolarPoint(r=tuple(r), theta=tuple(theta))
        except ValueError as exc:
            raise ParseError(f"bad point {entry}: {exc}") from exc
    pairs = entry["z"]
    if not isinstance(pairs, list):
        raise ParseError(f"bad point {entry}: z is not a list")
    z = []
    for pair in pairs:
        re_im = _point_numbers(entry, pair, "a z entry")
        if len(re_im) != 2:
            raise ParseError(f"bad point {entry}: z entry {pair} is not a pair")
        z.append(complex(re_im[0], re_im[1]))
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


def block_to_json(block: BlockData) -> dict:
    return {
        "kind": block.kind,
        "eigenvalues": [[lam.real, lam.imag] for lam in block.eigenvalues],
    }


def report_to_json(report: SingularityReport) -> dict:
    return {
        "point": [[z.real, z.imag] for z in report.point],
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
        "blocks": [block_to_json(b) for b in report.blocks],
        "label": report.label,
        "diagnostics": _jsonable(report.diagnostics),
    }


def _jsonable(value):
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, complex):
        return [value.real, value.imag]
    if isinstance(value, (np.floating, np.integer)):
        return value.item()
    if isinstance(value, np.bool_):
        return bool(value)
    return value


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

