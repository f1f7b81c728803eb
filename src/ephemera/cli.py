"""Command-line entry points: classify, fiber-scan, ephemeral-test, catalog.

Exit codes: 0 success, 2 validation or parse error, 3 failed
Morse-connectivity cross-check.  No command draws a random number, and
reports are written atomically by a single writer.  A report bundle is
one line of compact JSON with a trailing newline (`python -m json.tool`
pretty-prints it); `catalog show --json` prints a shipped spec file as it
is stored, indented.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import dataclasses
import io
import itertools
import json
import math
import os
import sys
import time
from importlib import resources

import numpy as np

from . import __version__
from .classifier import classify_points, fiber_verdicts
from .errors import EphemeraError, ParseError, UnknownName
from .family import PolarPoint
from .fiberlab import MIN_RESOLUTION, connectivity_report
from .serial import (
    connectivity_csv_rows,
    connectivity_to_json,
    load_spec_bytes,
    point_to_json,
    read_spec_bytes,
    report_to_json,
)

CATALOG_NAMES = ("ex1_zN", "ex2_pq", "family_11m1", "family_21m1")
# fiber-scan size caps, checked while parsing: a chart of resolution n holds
# a few arrays of n cuts or runs per level, and every level and chart adds
# to the labelling work and to the report (one family_11m1 chart at 2048,
# with --no-synthetic-check, peaked at 38 MB of memory, ru_maxrss, with 21
# levels and at 153 MB with 1024, on Python 3.11 and numpy 2.4)
MAX_RESOLUTION = 2048
MAX_LEVELS = 1024
MAX_CHARTS = 1 << 16


def _catalog_bytes(name: str) -> bytes:
    if name not in CATALOG_NAMES:
        raise UnknownName(f"no catalog entry named {name!r}")
    return resources.files("ephemera").joinpath("data").joinpath(f"{name}.json").read_bytes()


def resolve_spec_path(path_or_name: str):
    """Bytes and label of a path on disk, or of a shipped catalog name.

    A path that exists is read.  Otherwise only a catalog name itself, bare
    or with .json appended, names a shipped spec: any other argument (one
    with a directory part or another suffix) must be a file."""
    if os.path.exists(path_or_name):
        return read_spec_bytes(path_or_name), path_or_name
    name, suffix = os.path.splitext(path_or_name)
    if name in CATALOG_NAMES and suffix in ("", ".json"):
        return _catalog_bytes(name), name
    raise ParseError(f"{path_or_name} is neither a file nor a catalog name")


def _load(path_or_name: str):
    raw, label = resolve_spec_path(path_or_name)
    return (*load_spec_bytes(raw, label), label)


def _emit(bundle: dict, out: str | None, extra=()) -> None:
    """Write the JSON bundle to out (stdout if None) and each extra (path, text).

    The bundle is one line of compact JSON, which the C encoder writes;
    `python -m json.tool` pretty-prints it.  All or none: every file is
    staged to a temporary name, and a target that is a directory is
    refused, before any is renamed into place; stdout is written last.
    Two targets that resolve to the same file are refused before any is
    staged.
    """
    outputs = [(out, json.dumps(bundle) + "\n"), *extra]
    targets = {}
    for path in filter(None, (path for path, _ in outputs)):
        real = os.path.realpath(path)
        if real in targets:
            raise ParseError(f"{targets[real]} and {path} name the same file")
        targets[real] = path
    staged = []
    try:
        for path, text in outputs:
            if path:
                staged.append((f"{path}.tmp.{os.getpid()}.{len(staged)}", path))
                with open(staged[-1][0], "w") as fh:
                    fh.write(text)
        for _, path in staged:
            if os.path.isdir(path):
                raise IsADirectoryError("is a directory")
        for tmp, path in staged:
            os.replace(tmp, path)
    except OSError as exc:
        for tmp, _ in staged:
            with contextlib.suppress(OSError):
                os.remove(tmp)
        raise ParseError(f"cannot write {path}: {exc}") from exc
    for path, text in outputs:
        if not path:
            sys.stdout.write(text)


def _bundle(args, input_hash: str, label: str, started: float) -> dict:
    return {
        "tool": "ephemera",
        "version": __version__,
        "command": args.command,
        "input": label,
        "input_sha256": input_hash,
        "timing_seconds": time.perf_counter() - started,
    }


def _classified(args, tolerance_scale: float = 1.0):
    """(system, points, reports, sha256, label): the spec's listed points (or
    the one at --point-index, or the origin when none is listed), each with
    its classify_points report."""
    system, listed, digest, label = _load(args.spec)
    points = list(listed)
    if args.point_index is not None:
        if not (0 <= args.point_index < len(points)):
            raise ParseError(
                f"point index {args.point_index} out of range (have {len(points)})"
            )
        points = [points[args.point_index]]
    if not points:
        # default probe: the origin of the slice or of the ambient space
        points = [PolarPoint(r=(0.0,) * system.coords, theta=(0.0,) * system.coords)]
    reports = classify_points(system, [w.to_complex() for w in points], tolerance_scale)
    return system, points, reports, digest, label


def cmd_classify(args) -> int:
    started = time.perf_counter()
    system, _, reports, digest, label = _classified(args, args.tolerance_scale)
    bundle = _bundle(args, digest, label, started)
    bundle["reports"] = [report_to_json(r) for r in reports]
    bundle["fiber_verdict"] = (
        None if system.weight_matrix is None else dataclasses.asdict(fiber_verdicts(reports))
    )
    bundle["timing_seconds"] = time.perf_counter() - started
    _emit(bundle, args.out)
    return 0


def _ephemeral_entry(w: PolarPoint, report) -> dict:
    """One ephemeral-test entry, read off the point's classify report: the
    chart jet and verdict where classify tested them (tall supports of
    degree N >= 2), else why the test does not apply."""
    diagnostics = report.diagnostics
    entry: dict = {"point": point_to_json(w), "support_degree": diagnostics["support_degree"]}
    if "vanishes_below_degree" not in diagnostics:
        entry["ephemeral"] = False
        entry["reason"] = "support degree below 2" if report.tall else "support not tall"
        return entry
    jet = report.jet
    entry["vanishes_below_degree"] = jet is not None
    if jet is not None:
        entry["jet"] = {"A": jet.A, "B": jet.B, "D": jet.D, "degree": jet.degree}
    entry["ephemeral"] = report.ephemeral
    if jet is not None:
        entry["marginal"] = jet.is_marginal()
    return entry


def cmd_ephemeral_test(args) -> int:
    started = time.perf_counter()
    _, points, reports, digest, label = _classified(args)
    bundle = _bundle(args, digest, label, started)
    bundle["ephemeral_tests"] = [_ephemeral_entry(w, r) for w, r in zip(points, reports)]
    bundle["timing_seconds"] = time.perf_counter() - started
    _emit(bundle, args.out)
    return 0


def _beta_axes(text: str) -> list[np.ndarray]:
    """Comma-separated axes lo:hi:count with finite bounds, count >= 1 (and
    lo == hi when count is 1), and at most MAX_CHARTS grid points in all."""
    parsed = []
    for part in text.split(","):
        try:
            lo, hi, count = part.split(":")
            lo, hi, count = float(lo), float(hi), int(count)
        except ValueError:
            raise argparse.ArgumentTypeError(f"axis {part!r} is not lo:hi:count") from None
        if not (math.isfinite(lo) and math.isfinite(hi) and count >= 1):
            raise argparse.ArgumentTypeError(
                f"axis {part!r} needs finite bounds and a count of at least 1"
            )
        if count == 1 and lo != hi:
            raise argparse.ArgumentTypeError(f"axis {part!r} has one point, so needs lo == hi")
        parsed.append((lo, hi, count))
    if math.prod(count for _, _, count in parsed) > MAX_CHARTS:
        raise argparse.ArgumentTypeError(f"beta grid {text!r} has more than {MAX_CHARTS} points")
    return [np.linspace(lo, hi, count) for lo, hi, count in parsed]


def cmd_fiber_scan(args) -> int:
    started = time.perf_counter()
    system, _, digest, label = _load(args.spec)
    if system.weight_matrix is None:
        raise ParseError("fiber-scan needs a family spec (kind = \"family\")")
    if args.resolution < MIN_RESOLUTION:
        print(
            f"warning: resolution {args.resolution} below minimum, clamped to {MIN_RESOLUTION}",
            file=sys.stderr,
        )
    axes = args.beta_grid
    if len(axes) != system.torus_dim:
        raise ParseError(f"beta grid needs {system.torus_dim} axes, got {len(axes)}")
    betas = [tuple(float(v) for v in combo) for combo in itertools.product(*axes)]
    report = connectivity_report(
        system,
        betas,
        c_count=args.c_grid,
        resolution=args.resolution,
        synthetic_check=not args.no_synthetic_check,
    )
    bundle = _bundle(args, digest, label, started)
    bundle["connectivity"] = connectivity_to_json(report)
    bundle["timing_seconds"] = time.perf_counter() - started
    extra = []
    if args.csv:
        buf = io.StringIO()
        writer = csv.writer(buf, quoting=csv.QUOTE_MINIMAL, lineterminator="\r\n")
        writer.writerows(connectivity_csv_rows(report))
        extra.append((args.csv, buf.getvalue()))
    _emit(bundle, args.out, extra)
    return 0 if report.all_consistent else 3


def cmd_catalog(args) -> int:
    if args.action == "list":
        for name in CATALOG_NAMES:
            data = json.loads(_catalog_bytes(name))
            print(f"{name}: {data['description']}")
        return 0
    data = json.loads(_catalog_bytes(args.name))
    if args.json:
        print(json.dumps(data, indent=2))
    else:
        print(f"name: {data['name']}")
        print(f"kind: {data['kind']}")
        if "weights" in data:
            print(f"weights: {data['weights']}")
        if "xi" in data:
            print(f"xi: {data['xi']}")
        print(f"description: {data['description']}")
    return 0


def _positive_float(text: str) -> float:
    value = float(text)
    if not (math.isfinite(value) and value > 0):
        raise argparse.ArgumentTypeError(f"must be finite and positive, got {text}")
    return value


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {text}")
    return value


def _level_count(text: str) -> int:
    value = _positive_int(text)
    if value > MAX_LEVELS:
        raise argparse.ArgumentTypeError(f"must be at most {MAX_LEVELS}, got {text}")
    return value


def _resolution(text: str) -> int:
    value = int(text)
    if value > MAX_RESOLUTION:
        raise argparse.ArgumentTypeError(f"must be at most {MAX_RESOLUTION}, got {text}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ephemera",
        description=(
            "Classify singular points and verify fiber connectivity for "
            "integrable systems extending complexity-one torus actions"
        ),
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--out", help="write the JSON report here (default stdout)")
    listed = argparse.ArgumentParser(add_help=False)
    listed.add_argument("spec", help="spec file path or catalog name")
    listed.add_argument("--point-index", type=int, help="use only this listed point")

    p = sub.add_parser("classify", parents=[common, listed], help="classify listed points")
    p.add_argument(
        "--tolerance-scale",
        type=_positive_float,
        default=1.0,
        help="multiply the criticality tolerance by this factor",
    )
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser(
        "ephemeral-test", parents=[common, listed], help="run the chart zero-set predicate"
    )
    p.set_defaults(func=cmd_ephemeral_test)

    p = sub.add_parser(
        "fiber-scan", parents=[common], help="Morse/connectivity scan over a beta grid"
    )
    p.add_argument("spec", help="family spec file path or catalog name")
    p.add_argument(
        "--beta-grid",
        type=_beta_axes,
        default="0.8:2.4:5,0.8:2.4:5",
        help="comma-separated axes lo:hi:count (default 0.8:2.4:5 per axis)",
    )
    p.add_argument(
        "--c-grid",
        type=_level_count,
        default=21,
        help=f"levels per chart, at most {MAX_LEVELS} (levels that coincide are sampled once)",
    )
    p.add_argument(
        "--resolution",
        type=_resolution,
        default=512,
        help=f"cells per side of each chart's level grid, {MIN_RESOLUTION} to {MAX_RESOLUTION}"
        " (lower values are clamped)",
    )
    p.add_argument("--csv", help="also write the flat CSV table here")
    p.add_argument(
        "--no-synthetic-check",
        action="store_true",
        help="skip the injected saddle-profile control row",
    )
    p.set_defaults(func=cmd_fiber_scan)

    p = sub.add_parser("catalog", help="list or show shipped example systems")
    p.add_argument("action", choices=["list", "show"])
    p.add_argument("name", nargs="?", help="catalog entry name (for show)")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_catalog)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "catalog" and (args.action == "show") != (args.name is not None):
        parser.error(
            "catalog show needs a name" if args.name is None else "catalog list takes no name"
        )
    try:
        return args.func(args)
    except EphemeraError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
