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
from fractions import Fraction
from importlib import resources

import jsonschema
import numpy as np
from jsonschema.exceptions import best_match

from .classifier import (
    BlockData,
    SingularityReport,
    SystemSpec,
    local_model_system,
)
from .errors import ParseError
from .family import FamilySystem, PolarPoint, build_family
from .fiberlab import ChartVerdict, ConnectivityReport
from .jets import InvariantPolynomial, RationalComplex, _coerce, c_complex, c_is_exact
from .lattice import DefiningVector, WeightMatrix


def format_coefficient(c) -> str:
    if c_is_exact(c):
        c = _coerce(c)
        if c.im == 0:
            return str(c.re)
        im = f"{c.im}i" if c.im < 0 or c.re == 0 else f"+{c.im}i"
        re_part = str(c.re) if c.re != 0 else ""
        return f"{re_part}{im}"
    z = c_complex(c)
    return f"~{z.real!r},{z.imag!r}"


def _parse_imaginary_body(body: str) -> Fraction:
    if body in ("", "+"):
        return Fraction(1)
    if body == "-":
        return Fraction(-1)
    return Fraction(body)


def parse_coefficient(text: str):
    """Inverse of format_coefficient: "1/2", "-1/2i", "1/3+2/5i", "~re,im"."""
    text = text.strip().replace(" ", "")
    try:
        if text.startswith("~"):
            re_s, im_s = text[1:].split(",")
            return complex(float(re_s), float(im_s))
        if not text.endswith("i"):
            return RationalComplex(Fraction(text), Fraction(0))
        body = text[:-1]
        # an interior sign separates the real part from the imaginary one
        split = max(
            (p for p in range(1, len(body)) if body[p] in "+-"), default=None
        )
        if split is None:
            return RationalComplex(Fraction(0), _parse_imaginary_body(body))
        return RationalComplex(
            Fraction(body[:split]), _parse_imaginary_body(body[split:])
        )
    except (ValueError, ZeroDivisionError) as exc:
        raise ParseError(f"bad coefficient string {text!r}") from exc


def polynomial_to_terms(p: InvariantPolynomial) -> list[dict]:
    out = []
    for (a, b) in sorted(p.terms):
        out.append(
            {"a": list(a), "b": list(b), "c": format_coefficient(p.terms[(a, b)])}
        )
    return out


def polynomial_from_terms(terms: list[dict], xi: DefiningVector) -> InvariantPolynomial:
    parsed = {}
    for item in terms:
        key = (tuple(item["a"]), tuple(item["b"]))
        parsed[key] = parse_coefficient(item["c"])
    try:
        return InvariantPolynomial(terms=parsed, xi=xi)
    except ValueError as exc:
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

    Returns (system_or_family, points, data).  Family entries give a
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
    return system, points, data


def parse_point(entry: dict) -> PolarPoint:
    if "r" in entry:
        try:
            return PolarPoint(r=tuple(entry["r"]), theta=tuple(entry["theta"]))
        except ValueError as exc:
            raise ParseError(f"bad point {entry}: {exc}") from exc
    z = [complex(re_im[0], re_im[1]) for re_im in entry["z"]]
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
    """Parse, validate and hash a spec: (system, points, data, sha256)."""
    try:
        data = json.loads(raw)
    except ValueError as exc:
        raise ParseError(f"{label} is not valid JSON: {exc}") from exc
    system, points, data = load_system_spec(data)
    return system, points, data, hashlib.sha256(raw).hexdigest()


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


def validate_report_bundle(data: dict) -> None:
    error = _schema_error(data, "report_bundle.schema.json")
    if error is not None:
        raise error
