"""CLI surface: exit codes, JSON schemas, catalog round trips."""

import contextlib
import copy
import importlib.util
import io
import itertools
import json
import os
import random
import subprocess
import sys
import time
from collections import Counter
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ephemera
import ephemera.classifier
from ephemera.classifier import local_model_system, slice_data
from ephemera.cli import (
    CATALOG_NAMES,
    MAX_CHARTS,
    MAX_LEVELS,
    MAX_RESOLUTION,
    build_parser,
    main,
)
from ephemera.errors import EphemeraError, ParseError, PrerequisiteVanishingFailed
from ephemera.family import classify_family_point
from ephemera.jets import InvariantPolynomial, RationalComplex, chart_jet, ephemeral_zero_set_test
from ephemera.lattice import DefiningVector
from ephemera.serial import (
    load_spec_bytes,
    load_system_spec,
    parse_coefficient,
    parse_point,
    polynomial_from_terms,
)
from oracle_helpers import (
    format_coefficient,
    polynomial_to_terms,
    radius_power,
    scale,
    schema_validator,
    validate_report_bundle,
)


# the child process imports the same ephemera as the tests, installed or not
PACKAGE_ROOT = str(Path(ephemera.__file__).resolve().parents[1])


def run_python(args, **kwargs):
    path = os.pathsep.join(filter(None, [PACKAGE_ROOT, os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, *args],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
        **kwargs,
    )


def run_cli(args, **kwargs):
    return run_python(["-m", "ephemera.cli", *args], **kwargs)


def catalog_path(name: str) -> bytes:
    from importlib import resources

    return resources.files("ephemera").joinpath("data").joinpath(f"{name}.json").read_bytes()


def test_coefficient_strings_roundtrip():
    cases = [
        RationalComplex.of(Fraction(1, 2)),
        RationalComplex.of(Fraction(-1, 2)),
        RationalComplex.of(0, Fraction(-1, 2)),
        RationalComplex.of(0, 1),
        RationalComplex.of(Fraction(1, 3), Fraction(2, 5)),
        RationalComplex.of(Fraction(-2, 7), Fraction(-3, 11)),
        complex(0.25, -1.5),
    ]
    for c in cases:
        text = format_coefficient(c)
        back = parse_coefficient(text)
        if isinstance(c, RationalComplex):
            assert back == c, text
        else:
            assert back == c


def test_polynomial_terms_roundtrip():
    xi = DefiningVector.from_entries((1, 1))
    p = InvariantPolynomial.imag_defining_monomial(xi) + (
        scale(radius_power(xi, 1), Fraction(1, 3))
    )
    terms = polynomial_to_terms(p)
    back = polynomial_from_terms(terms, xi)
    assert back.terms == p.terms


def test_catalog_files_roundtrip_byte_identical():
    for name in CATALOG_NAMES:
        raw = catalog_path(name)
        data = json.loads(raw)
        assert (json.dumps(data, indent=2) + "\n").encode() == raw


@pytest.mark.parametrize("name", CATALOG_NAMES)
def test_cli_catalog_show_json_prints_the_shipped_file(name, capsys):
    assert main(["catalog", "show", name, "--json"]) == 0
    assert capsys.readouterr().out.encode() == catalog_path(name)


_BUNDLE_COMMANDS = {
    "classify": ["classify", "family_21m1"],
    "ephemeral-test": ["ephemeral-test", "ex2_pq"],
    "fiber-scan": ["fiber-scan", "family_11m1", "--beta-grid", "1.0:1.4:2,1.0:1.4:2",
                   "--c-grid", "3", "--resolution", "64"],
}


@pytest.mark.parametrize("to_file", [True, False], ids=["out", "stdout"])
@pytest.mark.parametrize("command", sorted(_BUNDLE_COMMANDS))
def test_report_bundles_are_one_line_of_compact_json(command, to_file, tmp_path, capsys):
    out = tmp_path / "bundle.json"
    argv = _BUNDLE_COMMANDS[command] + (["--out", str(out)] if to_file else [])
    assert main(argv) == 0
    printed = capsys.readouterr().out
    if to_file:
        assert printed == ""
        raw = out.read_bytes()
    else:
        raw = printed.encode()
    assert raw == (json.dumps(json.loads(raw)) + "\n").encode()
    assert raw.count(b"\n") == 1
    validate_report_bundle(json.loads(raw))


def test_catalog_files_validate_and_load():
    for name in CATALOG_NAMES:
        data = json.loads(catalog_path(name))
        system, points = load_system_spec(data)
        assert system is not None
        assert len(points) >= 1


def test_spec_validation_rejects_bad_xi_override():
    data = json.loads(catalog_path("family_11m1"))
    data["xi"] = [5, 5, 5]
    with pytest.raises(ParseError):
        load_system_spec(data)


def test_cli_classify_catalog_point():
    # the catalog name works bare and with a .json suffix
    for spec in ("family_11m1", "family_11m1.json"):
        result = run_cli(["classify", spec, "--point-index", "0"])
        assert result.returncode == 0
        bundle = json.loads(result.stdout)
        validate_report_bundle(bundle)
        assert bundle["reports"][0]["label"] == "nondegenerate-ephemeral(focus-focus)"


@pytest.mark.parametrize("command", ["classify", "ephemeral-test", "fiber-scan"])
@pytest.mark.parametrize("spec", ["/nonexistent/dir/family_11m1.json", "typo/family_21m1",
                                  "family_11m1.csv", "./family_11m1"])
def test_missing_spec_path_is_not_read_as_a_catalog_name(command, spec, tmp_path, capsys):
    # only a bare catalog name, or one with .json appended, names a shipped
    # spec; any other argument is a path, and a missing file exits 2
    out = tmp_path / "out.json"
    assert main([command, spec, "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"error: {spec} is neither a file nor a catalog name\n"
    assert not out.exists()


def test_load_spec_file_helper(tmp_path):
    from ephemera.serial import load_spec_file

    spec = tmp_path / "fam.json"
    payload = {"name": "fam", "kind": "family", "weights": [[1, 0, 1], [0, 1, 1]]}
    spec.write_text(json.dumps(payload))
    system, points, digest = load_spec_file(str(spec))
    assert system.weight_matrix.entries == ((1, 0, 1), (0, 1, 1)) and system.proper
    assert points == []
    assert len(digest) == 64
    with pytest.raises(ParseError):
        load_spec_file(str(tmp_path / "missing.json"))


def test_cli_classify_cubic_family_has_degenerate_entry():
    result = run_cli(["classify", "family_21m1"])
    assert result.returncode == 0
    bundle = json.loads(result.stdout)
    validate_report_bundle(bundle)
    labels = [r["label"] for r in bundle["reports"]]
    assert "degenerate-ephemeral" in labels


def test_cli_classify_malformed_file(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    result = run_cli(["classify", str(bad)])
    assert result.returncode == 2
    assert "error" in result.stderr


def test_cli_classify_schema_invalid_file(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"name": "x", "kind": "family"}))
    result = run_cli(["classify", str(bad)])
    assert result.returncode == 2


def test_cli_fiber_scan_clamps_resolution(tmp_path):
    out = tmp_path / "scan.json"
    result = run_cli(
        [
            "fiber-scan",
            "family_11m1",
            "--beta-grid",
            "1.0:1.5:2,1.0:1.5:2",
            "--c-grid",
            "5",
            "--resolution",
            "8",
            "--out",
            str(out),
        ]
    )
    assert result.returncode == 0
    assert "clamped" in result.stderr
    bundle = json.loads(out.read_text())
    validate_report_bundle(bundle)
    assert bundle["connectivity"]["resolution"] == 64


def test_cli_fiber_scan_rejects_non_proper(tmp_path):
    spec = tmp_path / "flat.json"
    spec.write_text(
        json.dumps({"name": "flat", "kind": "family", "weights": [[1, -1]]})
    )
    # one weight row, so a one-axis grid: the refusal is the properness check's
    result = run_cli(["fiber-scan", str(spec), "--beta-grid=1:2:2"])
    assert result.returncode == 2
    assert "proper" in result.stderr


@pytest.mark.parametrize("name, grid", [("ex2_pq", "1:2:2"), ("ex1_zN", None)])
def test_cli_fiber_scan_refuses_a_local_model(name, grid, capsys):
    # ex2_pq has one weight row, so its own axis count is one; ex1_zN has
    # none (its stabilizer is finite), which no grid can state, and the
    # refusal comes before the axis count is checked
    assert main(["fiber-scan", name] + ([f"--beta-grid={grid}"] if grid else [])) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: fiber-scan needs a family spec")


def test_cli_refuses_g_terms_on_a_family_spec(tmp_path, capsys):
    spec = {"name": "radial", "kind": "family", "weights": [[1, 0, 1], [0, 1, 1]],
            "g_terms": [{"a": [1, 0, 0], "b": [1, 0, 0], "c": "3"}],
            "points": [{"r": [1, 0, 0], "theta": [0, 0, 0]}]}
    path = tmp_path / "radial.json"
    path.write_text(json.dumps(spec))
    for command in ("classify", "ephemeral-test", "fiber-scan"):
        assert main([command, str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "g_terms" in err, command


def test_cli_fiber_scan_csv(tmp_path):
    out_csv = tmp_path / "rows.csv"
    result = run_cli(
        [
            "fiber-scan",
            "family_11m1",
            "--beta-grid",
            "1.0:1.4:2,1.0:1.4:2",
            "--c-grid",
            "3",
            "--resolution",
            "64",
            "--out",
            str(tmp_path / "o.json"),
            "--csv",
            str(out_csv),
        ]
    )
    assert result.returncode == 0
    lines = out_csv.read_text().splitlines()
    assert lines[0] == "beta,c,components,idx0,idx1,idx2,chi,verdict"
    assert len(lines) > 4


GOLDEN = Path(__file__).resolve().parent / "golden"
GOLDEN_SCAN = ["--beta-grid=-1:3:9,-1:3:9", "--resolution", "64", "--c-grid", "5"]
GOLDEN_CAPS = ["--beta-grid=1.6:1.6:1,1.2:1.2:1", "--resolution", "2048", "--c-grid", "1024",
               "--no-synthetic-check"]
GOLDEN_CASES = [
    # 81 targets: 36 ok charts, labelled in stacks of 16, 16 and 4, and 32
    # empty and 13 point charts between them
    *(pytest.param(name, GOLDEN_SCAN, f"fiber_scan_{name}.csv", id=name)
      for name in ["family_11m1", "family_21m1"]),
    # the default scan: 5 x 5 ok charts, 21 levels, resolution 512
    *(pytest.param(name, [], f"fiber_scan_{name}_r512.csv", id=f"{name}_r512")
      for name in ["family_11m1", "family_21m1"]),
    # the default grid at resolution 97, odd: the columns of the largest and
    # smallest sine do not face each other across the angle
    *(pytest.param(name, ["--resolution", "97"], f"fiber_scan_{name}_r97.csv", id=f"{name}_r97")
      for name in ["family_11m1", "family_21m1"]),
    # one chart at the caps: resolution 2048 and 1024 levels
    *(pytest.param(name, GOLDEN_CAPS, f"fiber_scan_{name}_r2048_c1024.csv", id=f"{name}_caps")
      for name in ["family_11m1", "family_21m1"]),
]


@pytest.mark.parametrize(("name", "scan", "golden"), GOLDEN_CASES)
def test_cli_fiber_scan_csv_matches_golden_bytes(name, scan, golden, tmp_path):
    out_csv = tmp_path / "rows.csv"
    code = main(["fiber-scan", name, *scan, "--out", str(tmp_path / "o.json"),
                 "--csv", str(out_csv)])
    assert code == 0
    assert out_csv.read_bytes() == (GOLDEN / golden).read_bytes()


def test_spec_file_with_custom_polynomial(tmp_path):
    # a local-model spec may override g with serialized terms; the perturbed
    # invariant keeps the ephemeral verdict but shifts the modulus slot
    spec = tmp_path / "perturbed.json"
    spec.write_text(
        json.dumps(
            {
                "name": "perturbed",
                "kind": "local_model",
                "xi": [1, 1],
                "g_terms": [
                    {"a": [1, 1], "b": [0, 0], "c": "-1/2i"},
                    {"a": [0, 0], "b": [1, 1], "c": "1/2i"},
                    {"a": [1, 0], "b": [1, 0], "c": "1/10"},
                    {"a": [0, 1], "b": [0, 1], "c": "1/10"},
                ],
            }
        )
    )
    result = run_cli(["ephemeral-test", str(spec)])
    assert result.returncode == 0
    entry = json.loads(result.stdout)["ephemeral_tests"][0]
    assert entry["ephemeral"] is True
    assert entry["jet"]["D"] == pytest.approx(0.2)
    result = run_cli(["classify", str(spec)])
    assert result.returncode == 0
    labels = [r["label"] for r in json.loads(result.stdout)["reports"]]
    assert labels == ["nondegenerate-ephemeral(focus-focus)"]


def test_cli_ephemeral_test_catalog():
    result = run_cli(["ephemeral-test", "ex2_pq"])
    assert result.returncode == 0
    bundle = json.loads(result.stdout)
    entry = bundle["ephemeral_tests"][0]
    assert entry["support_degree"] == 3
    assert entry["ephemeral"] is True


@pytest.mark.parametrize("name", CATALOG_NAMES)
def test_cli_ephemeral_test_every_catalog_entry(name, tmp_path):
    out = tmp_path / "e.json"
    assert main(["ephemeral-test", name, "--out", str(out)]) == 0
    listed = json.loads(catalog_path(name))["points"]
    entries = json.loads(out.read_text())["ephemeral_tests"]
    assert len(entries) == len(listed)


def test_cli_ephemeral_test_reports_short_support(tmp_path):
    # family_11m1 at the origin: support exponents (1, 1, -1) mix signs
    origin = {"point": {"r": [0.0] * 3, "theta": [0.0] * 3}, "support_degree": 3,
              "ephemeral": False, "reason": "support not tall"}
    out = tmp_path / "e.json"
    assert main(["ephemeral-test", "family_11m1", "--point-index", "3", "--out", str(out)]) == 0
    assert json.loads(out.read_text())["ephemeral_tests"] == [origin]
    payload = json.loads(catalog_path("family_11m1"))
    del payload["points"]  # the default probe is the origin
    spec = tmp_path / "no_points.json"
    spec.write_text(json.dumps(payload))
    assert main(["ephemeral-test", str(spec), "--out", str(out)]) == 0
    assert json.loads(out.read_text())["ephemeral_tests"] == [origin]


def test_cli_high_degree_support_reports(tmp_path):
    # xi (130, -76, -117, -87, 9); on support (1, 2) the restricted degree is
    # 193 and q = 76^76 117^117 is beyond a float.  Both commands report,
    # and the label is the closed form's
    point = {"r": [1.0, 0.0, 0.0, 1.0, 1.0], "theta": [0.0] * 5}
    spec = tmp_path / "high_degree.json"
    spec.write_text(json.dumps({
        "name": "high_degree",
        "kind": "family",
        "description": "valid family with a degree-193 support",
        "weights": [[-3, 0, -2, -2, -2], [1, -2, 1, 2, 1], [1, 1, -2, 3, -3], [0, 0, 2, -3, -3]],
        "points": [point],
    }))
    out = tmp_path / "out.json"
    assert main(["classify", str(spec), "--out", str(out)]) == 0
    (report,) = json.loads(out.read_text())["reports"]
    system, listed = load_spec_bytes(spec.read_bytes(), "high_degree")[:2]
    assert system.xi.xi == (130, -76, -117, -87, 9)
    assert report["label"] == classify_family_point(system, listed[0]) == "degenerate-ephemeral"
    assert main(["ephemeral-test", str(spec), "--out", str(out)]) == 0
    (entry,) = json.loads(out.read_text())["ephemeral_tests"]
    assert entry["support_degree"] == 193 and entry["ephemeral"] is True


def _reference_ephemeral_entry(spec, w) -> dict:
    """The entry of a point built straight from the slice data: its support's
    degree, then the reason the chart test does not apply, or whether the
    slice data vanish below that degree, the jet, the zero-set verdict and
    whether the float jet sits on the margin."""
    xi_r = spec.xi.restrict(w.support)
    entry = {"point": {"r": list(w.r), "theta": list(w.theta)}, "support_degree": xi_r.degree_N}
    if not xi_r.tall or xi_r.degree_N < 2:
        entry["ephemeral"] = False
        entry["reason"] = "support not tall" if not xi_r.tall else "support degree below 2"
        return entry
    try:
        jet = chart_jet(slice_data(spec, w.to_complex(), w.support))
    except PrerequisiteVanishingFailed:
        entry.update(vanishes_below_degree=False, ephemeral=False)
        return entry
    entry["vanishes_below_degree"] = True
    entry["jet"] = {"A": jet.A, "B": jet.B, "D": jet.D, "degree": jet.degree}
    entry["ephemeral"] = ephemeral_zero_set_test(jet)
    entry["marginal"] = jet.is_marginal()
    return entry


def _every_support_family(rng) -> dict:
    """A seeded proper family (xi (3, -2, 6)) with points of every support
    pattern, the vanishing radii exactly 0 or at 1e-9 of the others."""
    points = []
    for m in range(4):
        for support in itertools.combinations(range(3), m):
            for tiny in (0.0, 0.0, 1e-9):
                r = rng.uniform(0.5, 2.0, size=3)
                r[list(support)] *= tiny
                points.append({"r": r.tolist(), "theta": rng.uniform(0, 2 * np.pi, 3).tolist()})
    return {"name": "every_support", "kind": "family", "description": "points of every support",
            "weights": [[2, 3, 0], [0, 3, 1]], "points": points}


# Im of the defining monomial plus 2 |z2|^2, at the origin of the model:
# with xi (1, 1) the modulus term outweighs the monomial (not ephemeral),
# with xi (2, 1) it survives below the degree N = 3
_RADIAL_MODELS = [
    {"name": f"radial_{xi[0]}{xi[1]}", "kind": "local_model", "xi": xi,
     "g_terms": [{"a": xi, "b": [0, 0], "c": "-1/2i"}, {"a": [0, 0], "b": xi, "c": "1/2i"},
                 {"a": [0, 1], "b": [0, 1], "c": "2"}],
     "points": [{"z": [[0, 0], [0, 0]]}, {"r": [1.0, 1e-9], "theta": [1.0, 0.0]}]}
    for xi in ([1, 1], [2, 1])
]


def test_ephemeral_test_entries_match_the_slice_data(tmp_path):
    # each ephemeral-test entry, read off the classify report, is the entry
    # the slice data, the chart jet and the zero-set test give directly, in
    # the same key order
    specs = [catalog_path(name) for name in CATALOG_NAMES] + [
        json.dumps(payload).encode()
        for payload in (_every_support_family(np.random.default_rng(45)), *_RADIAL_MODELS)
    ]
    seen = Counter()
    for i, raw in enumerate(specs):
        path, out = tmp_path / f"spec{i}.json", tmp_path / "e.json"
        path.write_bytes(raw)
        system, listed = load_spec_bytes(raw, str(path))[:2]
        assert main(["ephemeral-test", str(path), "--out", str(out)]) == 0
        entries = json.loads(out.read_text())["ephemeral_tests"]
        assert len(entries) == len(listed)
        for entry, w in zip(entries, listed):
            want = _reference_ephemeral_entry(system, w)
            assert json.dumps(entry) == json.dumps(want), (i, w)
            seen[want.get("reason", (want.get("vanishes_below_degree"), want["ephemeral"]))] += 1
    assert set(seen) == {
        "support not tall", "support degree below 2", (True, True), (True, False), (False, False)
    }, seen


def test_cli_labels_an_open_stratum_saddle_hyperbolic_connected(tmp_path):
    # xi (1, 1), g = Im(z1 z2) + |z1|^2 + |z2|^2 - |z1|^2 |z2|^2 / 2: at
    # z = (1, -i) the reduced function has a saddle.  The point is critical
    # with multiplier 0, a hyperbolic block and a trivial stabilizer, so it
    # is hyperbolic-connected on the one ladder of tall labels; a point off
    # the critical set stays regular
    spec = tmp_path / "saddle.json"
    spec.write_text(json.dumps({
        "name": "saddle",
        "kind": "local_model",
        "xi": [1, 1],
        "g_terms": [
            {"a": [1, 1], "b": [0, 0], "c": "-1/2i"},
            {"a": [0, 0], "b": [1, 1], "c": "1/2i"},
            {"a": [1, 0], "b": [1, 0], "c": "1"},
            {"a": [0, 1], "b": [0, 1], "c": "1"},
            {"a": [1, 1], "b": [1, 1], "c": "-1/2"},
        ],
        "points": [{"z": [[1, 0], [0, -1]]}, {"z": [[0.5**0.5, 0], [0, -(0.5**0.5)]]}],
    }))
    out = tmp_path / "c.json"
    assert main(["classify", str(spec), "--out", str(out)]) == 0
    saddle, off = json.loads(out.read_text())["reports"]
    assert saddle["critical_mod_phi"] and saddle["tall"] and saddle["multiplier"] == [0.0]
    assert [b["kind"] for b in saddle["blocks"]] == ["hyperbolic"]
    assert saddle["stabilizer"]["rank"] == 0 and saddle["stabilizer"]["component_count"] == 1
    assert saddle["label"] == "hyperbolic-connected"
    assert not off["critical_mod_phi"] and off["label"] == "regular"


def test_cli_catalog_list_and_show():
    result = run_cli(["catalog", "list"])
    assert result.returncode == 0
    assert len(result.stdout.strip().splitlines()) >= 4
    result = run_cli(["catalog", "show", "ex1_zN"])
    assert result.returncode == 0
    assert "xi: [4]" in result.stdout
    result = run_cli(["catalog", "show", "ex2_pq"])
    assert result.returncode == 0
    assert "xi: [1, 2]" in result.stdout
    assert "tall" in result.stdout
    result = run_cli(["catalog", "show", "nope"])
    assert result.returncode == 2


def test_cli_fiber_scan_exit_3_on_cross_check_failure(monkeypatch, tmp_path):
    import ephemera.cli as cli_mod
    from ephemera.fiberlab import ConnectivityReport

    def broken_report(*args, **kwargs):
        return ConnectivityReport(charts=[], resolution=64, all_consistent=False)

    monkeypatch.setattr(cli_mod, "connectivity_report", broken_report)
    code = main(
        [
            "fiber-scan",
            "family_11m1",
            "--beta-grid",
            "1.0:1.2:2,1.0:1.2:2",
            "--resolution",
            "64",
            "--out",
            str(tmp_path / "o.json"),
        ]
    )
    assert code == 3


def test_main_in_process_exit_codes(tmp_path):
    assert main(["catalog", "list"]) == 0
    bad = tmp_path / "bad.json"
    bad.write_text("[1, 2")
    assert main(["classify", str(bad)]) == 2


def _classify_in_process(capsys, spec_path):
    code = main(["classify", str(spec_path)])
    err = capsys.readouterr().err
    return code, err


def test_cli_classify_directory_is_a_parse_error(tmp_path, capsys):
    code, err = _classify_in_process(capsys, tmp_path)
    assert code == 2
    assert err.startswith("error: cannot read")


def test_cli_classify_rejects_ragged_polar_point(tmp_path, capsys):
    spec = tmp_path / "ragged.json"
    payload = json.loads(catalog_path("family_11m1"))
    payload["points"] = [{"r": [1.0, 1.0, 1.0], "theta": [0.0, 0.0]}]
    spec.write_text(json.dumps(payload))
    code, err = _classify_in_process(capsys, spec)
    assert code == 2
    assert err.startswith("error: bad point")


def test_cli_classify_rejects_point_of_wrong_length(tmp_path, capsys):
    spec = tmp_path / "short.json"
    payload = json.loads(catalog_path("family_11m1"))
    payload["points"] = [{"r": [1.0, 1.0], "theta": [0.0, 0.0]}]
    spec.write_text(json.dumps(payload))
    code, err = _classify_in_process(capsys, spec)
    assert code == 2
    assert "has 2 coordinates, the system has 3" in err


def test_tolerance_scale_does_not_leak_between_calls(tmp_path):
    # a point just off the critical circle: critical only under a scaled tolerance
    spec = tmp_path / "near.json"
    payload = json.loads(catalog_path("family_11m1"))
    r = 1.4142135623730951
    payload["points"] = [{"r": [r, r, 1.0], "theta": [1.5707963267948966 + 1e-5, 0.0, 0.0]}]
    spec.write_text(json.dumps(payload))
    scaled, default = tmp_path / "scaled.json", tmp_path / "default.json"
    assert main(["classify", str(spec), "--tolerance-scale", "1e6", "--out", str(scaled)]) == 0
    assert main(["classify", str(spec), "--out", str(default)]) == 0
    labels = [json.loads(p.read_text())["reports"][0]["label"] for p in (scaled, default)]
    assert labels == ["purely-elliptic", "regular"]


@pytest.mark.parametrize("value", ["inf", "1e400", "nan", "-1"])
def test_tolerance_scale_must_be_finite_and_positive(value, tmp_path, capsys):
    # an infinite scale made every tolerance infinite and every point critical
    out = tmp_path / "o.json"
    with pytest.raises(SystemExit) as exc:
        main(["classify", "family_11m1", f"--tolerance-scale={value}", "--out", str(out)])
    assert exc.value.code == 2
    assert "must be finite and positive" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["fiber-scan", "family_11m1", "--tolerance-scale", "2"],
        ["fiber-scan", "family_11m1", "--seed", "1"],
        ["classify", "family_11m1", "--seed", "1"],
        ["classify", "family_11m1", "--tolerance-scale", "0"],
        ["fiber-scan", "family_11m1", "--beta-grid", "1:2"],
        ["fiber-scan", "family_11m1", "--beta-grid", "1:2:3,1:2:x"],
        ["fiber-scan", "family_11m1", "--beta-grid", "nan:1:1,1:1:1"],
        ["fiber-scan", "family_11m1", "--c-grid", "-1"],
        ["fiber-scan", "family_11m1", "--c-grid", "0"],
        ["catalog", "list", "ex1_zN"],
        ["catalog", "show"],
        ["ephemeral-test", "family_11m1", "--tolerance-scale", "2"],
    ],
)
def test_cli_rejects_removed_and_invalid_options(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv, message",
    [
        (["--resolution", str(MAX_RESOLUTION + 1)], f"at most {MAX_RESOLUTION}"),
        (["--resolution", "100000"], f"at most {MAX_RESOLUTION}"),
        (["--c-grid", str(MAX_LEVELS + 1)], f"at most {MAX_LEVELS}"),
        ([f"--beta-grid=0:1:{MAX_CHARTS + 1},1:1:1"], f"more than {MAX_CHARTS} points"),
        (["--beta-grid=0:1:257,0:1:256"], f"more than {MAX_CHARTS} points"),
        (["--beta-grid=0:1:1000000000000,0:1:1000000000000"], f"more than {MAX_CHARTS} points"),
        (["--beta-grid=1:2:1,1:1:1"], "needs lo == hi"),
    ],
)
def test_cli_fiber_scan_refuses_sizes_over_the_caps(argv, message, capsys):
    # refused while parsing, before any grid is allocated; argv that would
    # pass the caps are never run here
    with pytest.raises(SystemExit) as exc:
        main(["fiber-scan", "family_11m1", *argv])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "error:" in err and message in err


@pytest.mark.parametrize("grid", [
    "1e308:1e308:1,1:1:1",  # a squared radius overflows floats
    "1e300:1e300:1,1e300:1e300:1",  # the largest value of R sin(psi) overflows
    "1e-300:1e-300:1,1e-300:1e-300:1",  # it underflows to 0
])
def test_cli_fiber_scan_refuses_a_target_out_of_float_range(grid, tmp_path, capsys):
    out = tmp_path / "o.json"
    code = main(["fiber-scan", "family_11m1", f"--beta-grid={grid}", "--resolution", "64",
                 "--c-grid", "3", "--out", str(out)])
    assert code == 2
    target = tuple(float(axis.split(":")[0]) for axis in grid.split(","))
    assert f"error: target {target}" in capsys.readouterr().err
    assert not out.exists()


def test_cli_fiber_scan_accepts_sizes_at_the_caps():
    # parsing only: a scan this size is left to the user
    args = build_parser().parse_args(
        ["fiber-scan", "family_11m1", "--resolution", str(MAX_RESOLUTION),
         "--c-grid", str(MAX_LEVELS), "--beta-grid=0:1:256,0:1:256"]
    )
    assert (args.resolution, args.c_grid) == (MAX_RESOLUTION, MAX_LEVELS)
    assert [len(axis) for axis in args.beta_grid] == [256, 256]
    args = build_parser().parse_args(["fiber-scan", "family_11m1", "--beta-grid=1.5:1.5:1,0:1:3"])
    assert [axis.tolist() for axis in args.beta_grid] == [[1.5], [0.0, 0.5, 1.0]]


def _local_model_spec(g_terms) -> str:
    return json.dumps({"name": "bad", "kind": "local_model", "xi": [1, 1], "g_terms": g_terms})


def _mirrored_product_terms(coefficient: str) -> list[dict]:
    """c z1 z2 plus its conjugate mirror, invariant for xi (1, 1)."""
    return [
        {"a": [1, 1], "b": [0, 0], "c": coefficient},
        {"a": [0, 0], "b": [1, 1], "c": coefficient},
    ]


def _family_spec_with_point(point_text: str) -> str:
    payload = json.loads(catalog_path("family_11m1"))
    payload["points"] = ["POINT"]
    return json.dumps(payload).replace('"POINT"', point_text)


def test_cli_classify_reports_z_point_as_listed(tmp_path):
    # a point listed by its complex coordinates is classified and reported at
    # those coordinates, not at r e^{i theta} rebuilt from its polar form
    listed = [[0.1, 0.7], [-1, 0], [0.3, -0.0]]
    spec = tmp_path / "z.json"
    spec.write_text(_family_spec_with_point(json.dumps({"z": listed})))
    out = tmp_path / "c.json"
    assert main(["classify", str(spec), "--out", str(out)]) == 0
    point = json.loads(out.read_text())["reports"][0]["point"]
    assert [[float(x).hex() for x in pair] for pair in point] == [
        [float(x).hex() for x in pair] for pair in listed
    ]


@pytest.mark.parametrize(
    "command, text",
    [
        pytest.param(
            "classify",
            _local_model_spec([{"a": [1, 1, 0], "b": [0, 0, 0], "c": "1"}]),
            id="exponent-length",
        ),
        pytest.param(
            "classify",
            _local_model_spec([{"a": [1, 1], "b": [0, 0], "c": "-1/2i"}]),
            id="no-conjugate-mirror",
        ),
        pytest.param(
            "classify",
            _local_model_spec([{"a": [1, 0], "b": [1, 0], "c": "~1"}]),
            id="float-coefficient-one-part",
        ),
        pytest.param(
            "classify",
            _local_model_spec([{"a": [1, 0], "b": [1, 0], "c": "~1,x"}]),
            id="float-coefficient-not-a-number",
        ),
        pytest.param(
            "classify",
            _family_spec_with_point('{"r": [1e400, 1.0, 1.0], "theta": [0, 0, 0]}'),
            id="classify-overflowing-radius",
        ),
        pytest.param(
            "classify",
            _family_spec_with_point('{"r": [1.0, 1.0, 1.0], "theta": [NaN, 0, 0]}'),
            id="classify-nan-angle",
        ),
        pytest.param(
            "classify",
            _family_spec_with_point('{"z": [[Infinity, 0], [1, 0], [1, 0]]}'),
            id="classify-infinite-z",
        ),
        pytest.param(
            "ephemeral-test",
            _family_spec_with_point('{"r": [0, 0, NaN], "theta": [0, 0, 0]}'),
            id="ephemeral-test-nan-radius",
        ),
        pytest.param(
            "ephemeral-test",
            _family_spec_with_point('{"r": [0, 0, 1], "theta": [0, 0, Infinity]}'),
            id="ephemeral-test-infinite-angle",
        ),
        pytest.param(
            "ephemeral-test",
            _family_spec_with_point('{"z": [[0, 0], [0, 0], [NaN, 0]]}'),
            id="ephemeral-test-nan-z",
        ),
        pytest.param(
            "classify",
            _family_spec_with_point('{"z": [[1, 0], [0, 1], [1e308, 1e308]]}'),
            id="classify-z-overflows-g",
        ),
        pytest.param(
            "classify",
            _family_spec_with_point('{"r": [1e200, 1e200, 1e200], "theta": [0, 0, 0]}'),
            id="classify-radii-overflow-g",
        ),
        pytest.param(
            "ephemeral-test",
            _family_spec_with_point('{"r": [1e200, 1e200, 1e200], "theta": [0, 0, 0]}'),
            id="ephemeral-test-radii-overflow-g",
        ),
        pytest.param(
            "classify",
            _local_model_spec(_mirrored_product_terms("~1e300,0")),
            id="classify-coefficient-overflows-jet",
        ),
        pytest.param(
            "ephemeral-test",
            _local_model_spec(_mirrored_product_terms("~1e300,0")),
            id="ephemeral-test-coefficient-overflows-jet",
        ),
        pytest.param(
            "classify",
            _local_model_spec(_mirrored_product_terms("1e400")),
            id="exact-coefficient-beyond-float",
        ),
    ],
)
def test_cli_rejects_malformed_spec_file(command, text, tmp_path, capsys):
    spec = tmp_path / "bad.json"
    spec.write_text(text)
    assert main([command, str(spec)]) == 2
    assert capsys.readouterr().err.startswith("error:")


@pytest.mark.parametrize(
    "repeat",
    [
        pytest.param(_mirrored_product_terms("-1/2i"), id="both-terms-twice"),
        pytest.param([{"a": [1, 1], "b": [0, 0], "c": "1/3"}], id="other-coefficient"),
    ],
)
def test_cli_rejects_repeated_g_terms_pair(repeat, tmp_path, capsys):
    # Im(z1 z2) listed once, then a term of the same exponent pair again
    terms = [
        {"a": [1, 1], "b": [0, 0], "c": "-1/2i"},
        {"a": [0, 0], "b": [1, 1], "c": "1/2i"},
    ] + repeat
    spec = tmp_path / "repeat.json"
    spec.write_text(_local_model_spec(terms))
    assert main(["classify", str(spec)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: bad g_terms: exponent pair a=[1, 1], b=[0, 0] repeats")


def _spec_with_integer(field: str, value: int) -> str:
    """A spec with value as a weight, an entry of xi or a g_terms exponent."""
    if field == "weights":
        return json.dumps({"name": "big", "kind": "family",
                           "weights": [[1, 0, value], [0, 1, 1]],
                           "points": [{"r": [1, 1, 1], "theta": [0, 0, 0]}]})
    spec = {"name": "big", "kind": "local_model", "xi": [1, 1],
            "points": [{"r": [1, 1], "theta": [0, 0]}]}
    if field == "xi":
        spec["xi"] = [value, 1]
    else:  # |z1|^(2 value), invariant for any xi
        spec["g_terms"] = [{"a": [value, 0], "b": [value, 0], "c": "1"}]
    return json.dumps(spec)


def _extreme_specs():
    """(spec text, the word of its refusal message, or None where it need
    not be refused): integers of every size in weights, xi and g_terms
    exponents, g coefficients near the largest float, radii of 1e-300 and
    1e300, and points whose largest radius is subnormal."""
    for field in ("weights", "xi", "g_terms"):
        for value in (2**31, 2**53, 2**63, 2**64, 10**30, -(2**63) - 1):
            if value > 0 or field != "g_terms":  # a negative exponent is refused as such
                beyond_int64 = not -(2**63) <= value < 2**63
                yield _spec_with_integer(field, value), "64-bit" if beyond_int64 else None
    for c in ("1e308", "1.7976931348623157e308", "~1e308,0", "~1.7976931348623157e308,0"):
        yield _local_model_spec(_mirrored_product_terms(c)), None
    for r in (1e-300, 1e300):
        for point in ([r, 1.0, 1.0], [r, r, r], [0.0, 0.0, r]):
            yield _family_spec_with_point(json.dumps({"r": point, "theta": [0, 1, 2]})), None
    for point in ([1e-310] * 3, [5e-324] * 3, [0, 0, 1e-310]):
        yield _family_spec_with_point(json.dumps({"r": point, "theta": [0, 1, 2]})), "too small"


@pytest.mark.parametrize("command", ["classify", "ephemeral-test", "fiber-scan"])
def test_cli_extreme_numbers_exit_cleanly(command, tmp_path):
    # JSON integers have no size limit; a weight, an entry of xi or an
    # exponent of any size, a coefficient near the largest float and a
    # radius of 1e-300 or 1e300 exit 0, 2 or 3 with no other exception; an
    # integer beyond 64 bits, and a point whose largest radius is subnormal,
    # are refused with exit 2
    spec = tmp_path / "extreme.json"
    argv = [command, str(spec), "--out", str(tmp_path / "out.json")]
    if command == "fiber-scan":
        argv += ["--beta-grid=0:1:2,0:1:2", "--c-grid", "3", "--resolution", "64"]
    for text, refusal in _extreme_specs():
        spec.write_text(text)
        code, err = _exit_code_and_message(argv)
        assert code in (0, 2, 3), (text, code, err)
        if refusal:
            assert code == 2 and err.startswith("error:") and refusal in err, (text, err)


@pytest.mark.parametrize("option", ["--out", "--csv"])
def test_cli_unwritable_output_path_exits_2(option, tmp_path):
    if option == "--out":
        argv = ["classify", "family_11m1"]
    else:
        argv = ["fiber-scan", "family_11m1", "--beta-grid=1:1:1,1:1:1", "--c-grid", "3",
                "--resolution", "64", "--no-synthetic-check",
                "--out", str(tmp_path / "scan.json")]
    missing = tmp_path / "no" / "such" / "x"
    code, err = _exit_code_and_message(argv + [option, str(missing)])
    assert code == 2
    assert err.startswith(f"error: cannot write {missing}: ")
    # a directory as the target: the temporary files are written, then
    # removed, and no other output of the run is left behind
    target = tmp_path / "taken"
    target.mkdir()
    code, err = _exit_code_and_message(argv + [option, str(target)])
    assert code == 2
    assert err.startswith(f"error: cannot write {target}: ")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["taken"]


def test_cli_fiber_scan_unwritable_csv_prints_nothing(tmp_path, capsys):
    # the JSON bundle goes to stdout only once the CSV is in place
    argv = ["fiber-scan", "family_11m1", "--beta-grid=1:1:1,1:1:1", "--c-grid", "3",
            "--resolution", "64", "--no-synthetic-check"]
    for target in (tmp_path / "no" / "such.csv", tmp_path):
        assert main(argv + ["--csv", str(target)]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith(f"error: cannot write {target}: ")
    assert main(argv + ["--csv", str(tmp_path / "scan.csv")]) == 0
    assert json.loads(capsys.readouterr().out)["command"] == "fiber-scan"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["scan.csv"]


@pytest.mark.parametrize(
    "point_text",
    [
        pytest.param('{"r": [1, 1, 1], "theta": [0, 0, 0], "z": []}', id="extra-key"),
        pytest.param('{"r": [1, 1, 1]}', id="missing-key"),
        pytest.param('{}', id="no-key"),
        pytest.param('[1, 1, 1]', id="not-an-object"),
        pytest.param('{"r": 1, "theta": [0, 0, 0]}', id="r-not-a-list"),
        pytest.param('{"z": {"re": 1}}', id="z-not-a-list"),
        pytest.param('{"z": [1, 0, 0]}', id="z-entry-not-a-list"),
        pytest.param('{"r": [1, true, 1], "theta": [0, 0, 0]}', id="boolean-radius"),
        pytest.param('{"r": [1, 1, 1], "theta": [0, false, 0]}', id="boolean-angle"),
        pytest.param('{"z": [[1, 0], [true, 0], [1, 0]]}', id="boolean-z"),
        pytest.param('{"r": [1, "1", 1], "theta": [0, 0, 0]}', id="string-radius"),
        pytest.param('{"r": [1, null, 1], "theta": [0, 0, 0]}', id="null-radius"),
        pytest.param('{"r": [1, -0.5, 1], "theta": [0, 0, 0]}', id="negative-radius"),
        pytest.param('{"z": [[1, 0], [1], [1, 0]]}', id="z-entry-single"),
        pytest.param('{"z": [[1, 0], [1, 0, 0], [1, 0]]}', id="z-entry-triple"),
        pytest.param('{"r": [1, 1, 1' + "0" * 400 + '], "theta": [0, 0, 0]}', id="radius-beyond-float"),
    ],
)
def test_parse_point_rejects_malformed_shape(point_text, tmp_path, capsys):
    # parse_point is the one check of a point's shape (the schema asks only
    # for an object), and the CLI turns each rejection into exit 2
    with pytest.raises(ParseError, match="^bad point"):
        parse_point(json.loads(point_text))
    spec = tmp_path / "bad.json"
    spec.write_text(_family_spec_with_point(point_text))
    assert main(["classify", str(spec)]) == 2
    assert capsys.readouterr().err.startswith("error:")


def _exit_code_and_message(argv) -> tuple[int, str]:
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, err.getvalue()


_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=5), inner, max_size=3),
    max_leaves=10,
)
_NUMBERS = st.integers(-2, 2) | st.floats(-3.0, 3.0) | st.integers() | st.floats() | st.booleans()
_POINT_LIKE = (
    st.dictionaries(
        st.sampled_from(["r", "theta", "z", "w"]),
        st.lists(_NUMBERS | st.lists(_NUMBERS, max_size=3), min_size=2, max_size=4)
        | _JSON_VALUES,
        min_size=1,
        max_size=3,
    )
    | st.fixed_dictionaries(
        {"r": st.lists(_NUMBERS, min_size=3, max_size=3),
         "theta": st.lists(_NUMBERS, min_size=3, max_size=3)}
    )
    | st.fixed_dictionaries(
        {"z": st.lists(st.lists(_NUMBERS, min_size=2, max_size=2), min_size=3, max_size=3)}
    )
)
_COEFFICIENT_LIKE = st.from_regex(r"\A~?[-+]?[0-9./e]{0,5}([-+,][0-9./ei]{0,5})?i?\Z")


@settings(derandomize=True, max_examples=150, deadline=None)
@given(entry=_JSON_VALUES | _POINT_LIKE)
def test_fuzzed_point_entries_exit_0_or_2(entry, tmp_path_factory):
    # any JSON value as a listed point: a report or exit 2 with a message,
    # never a traceback
    spec = tmp_path_factory.mktemp("fuzz") / "spec.json"
    spec.write_text(_family_spec_with_point(json.dumps(entry)))
    for command in ("classify", "ephemeral-test"):
        code, err = _exit_code_and_message([command, str(spec), "--out", str(spec) + ".out"])
        assert code in (0, 2)
        assert code == 0 or err.startswith("error:")


@settings(derandomize=True, max_examples=150, deadline=None)
@given(text=st.text(max_size=12) | _COEFFICIENT_LIKE)
def test_fuzzed_coefficient_strings_exit_0_or_2(text, tmp_path_factory):
    # parse_coefficient returns a coefficient or raises ParseError, and a spec
    # carrying the string gives a report or exit 2 with a message
    try:
        parse_coefficient(text)
    except ParseError:
        pass
    spec = tmp_path_factory.mktemp("fuzz") / "spec.json"
    spec.write_text(_local_model_spec(_mirrored_product_terms(text)))
    code, err = _exit_code_and_message(["classify", str(spec), "--out", str(spec) + ".out"])
    assert code in (0, 2)
    assert code == 0 or err.startswith("error:")


# values that JSON Schema types differently from what a field needs: 2.0 is
# an integer to the schema, true is no number, 2.5 no integer
_ODD_VALUES = (True, 2.0, 2.5, "", [], {}, -1, 0, 2, None, "x")


def _spec_bases() -> list[dict]:
    """The catalog specs, and each local model again with g = Im of its
    defining monomial as g_terms, so entries can be edited."""
    bases = [json.loads(catalog_path(name)) for name in CATALOG_NAMES]
    for base in list(bases):
        if base["kind"] == "local_model":
            xi = DefiningVector.from_entries(base["xi"])
            terms = polynomial_to_terms(InvariantPolynomial.imag_defining_monomial(xi))
            bases.append(dict(base, g_terms=terms))
    return bases


def _edit_list(rng, items: list) -> None:
    """Swap, append or drop one entry of a list, in place."""
    op = rng.randrange(3)
    if op == 0 and items:
        items[rng.randrange(len(items))] = copy.deepcopy(rng.choice(_ODD_VALUES))
    elif op == 1:
        items.append(copy.deepcopy(rng.choice(_ODD_VALUES)))
    elif items:
        items.pop(rng.randrange(len(items)))


def _mutate_spec(rng, spec: dict) -> None:
    """One random edit of a spec dict, in place: a key dropped, an unknown
    or missing key added, a value swapped for an odd one, or a weights
    row, xi, a g_terms entry or a point edited."""
    op = rng.randrange(7)
    if op == 0 and spec:
        del spec[rng.choice(sorted(spec))]
    elif op == 1:
        key = rng.choice(["extra", "Name", "weights", "xi", "g_terms", "metadata", "points"])
        spec[key] = copy.deepcopy(rng.choice(
            _ODD_VALUES + ([[1, 0, 1], [0, 1, 1]], [[1, 0], [0]], [[1, 0], [2.5, 1]],
                           [[1, 0, 1], [0, 1, True]], [1, 1, -1], [[]])))
    elif op == 2 and spec:
        spec[rng.choice(sorted(spec))] = copy.deepcopy(rng.choice(_ODD_VALUES))
    elif op == 3 and isinstance(spec.get("weights"), list) and spec["weights"]:
        rows = spec["weights"]
        row = rng.randrange(len(rows))
        if isinstance(rows[row], list) and rng.random() < 0.8:
            _edit_list(rng, rows[row])
        else:
            rows[row] = copy.deepcopy(rng.choice(_ODD_VALUES))
    elif op == 4 and isinstance(spec.get("g_terms"), list) and spec["g_terms"]:
        terms = spec["g_terms"]
        entry = terms[rng.randrange(len(terms))]
        if not isinstance(entry, dict):
            terms.append(copy.deepcopy(rng.choice(_ODD_VALUES)))
        elif rng.random() < 0.15:
            entry.pop(rng.choice("abc"), None)
        elif rng.random() < 0.15:
            entry["d"] = 0
        else:
            key = rng.choice("abc")
            if isinstance(entry.get(key), list) and rng.random() < 0.7:
                _edit_list(rng, entry[key])
            else:
                entry[key] = copy.deepcopy(rng.choice(_ODD_VALUES))
    elif op == 5 and isinstance(spec.get("xi"), list):
        _edit_list(rng, spec["xi"])
    elif op == 6 and isinstance(spec.get("points"), list) and spec["points"]:
        point = rng.choice(spec["points"])
        if isinstance(point, dict) and point:
            values = point[rng.choice(sorted(point))]
            if isinstance(values, list) and values:
                target = rng.choice(values) if isinstance(values[0], list) else values
                if isinstance(target, list):
                    _edit_list(rng, target)


def _spec_mutations(count: int, seed: int) -> list:
    """count seeded mutants of the catalog specs, one to three edits each,
    after a few values that are not objects at all."""
    rng = random.Random(seed)
    bases = _spec_bases()
    mutants = [None, True, 2, "spec", [], [bases[0]]]
    while len(mutants) < count:
        spec = copy.deepcopy(rng.choice(bases))
        for _ in range(rng.randint(1, 3)):
            _mutate_spec(rng, spec)
        mutants.append(spec)
    return mutants


def test_spec_parser_refuses_what_the_schema_refuses():
    # load_system_spec checks specs with no schema engine; held to the shipped
    # schema on seeded mutants, it refuses each schema-invalid one with a
    # ParseError, and no input raises anything but an EphemeraError
    schema = schema_validator("system_spec.schema.json")
    outcomes, slipped = Counter(), []
    for spec in _spec_mutations(4000, seed=25):
        valid = schema.is_valid(spec)
        try:
            load_system_spec(spec)
            outcome = "loaded"
        except ParseError:
            outcome = "refused"
        except EphemeraError:
            outcome = "refused by the system"
        outcomes[valid, outcome] += 1
        if not valid and outcome != "refused":
            slipped.append(spec)
    assert slipped == []
    # the corpus reaches every branch: invalid specs, and valid ones both
    # loaded and refused by a semantic check
    assert outcomes[False, "refused"] > 2000
    assert outcomes[True, "loaded"] > 500
    assert outcomes[True, "refused"] + outcomes[True, "refused by the system"] > 100


@pytest.mark.parametrize("text", ["1e1000000", "1e10000000", "-1e-1000000", "1+1e1000000i"])
def test_huge_decimal_exponent_exits_2_at_once(text, tmp_path):
    # Fraction would build the exact power of ten (seconds at seven digits);
    # the exponent bound refuses it before that
    spec = tmp_path / "spec.json"
    spec.write_text(_local_model_spec(_mirrored_product_terms(text)))
    _exit_code_and_message(["classify", "family_11m1", "--out", str(tmp_path / "warm.json")])
    started = time.perf_counter()
    code, err = _exit_code_and_message(["classify", str(spec), "--out", str(spec) + ".out"])
    elapsed = time.perf_counter() - started
    assert code == 2 and err.startswith("error:") and "coefficient" in err
    assert elapsed < 0.1, elapsed


def test_signs_inside_exponents_parse(tmp_path):
    # a sign after e belongs to the exponent, not to the imaginary part
    assert parse_coefficient("2e-3i") == parse_coefficient("1/500i")
    assert parse_coefficient("1+2e-3i") == parse_coefficient("1+1/500i")
    assert parse_coefficient("1-2E-3i") == parse_coefficient("1-1/500i")
    assert parse_coefficient("-2e+3") == parse_coefficient("-2000")
    bundles = []
    for plus, minus in (("1+2e-3i", "1-2e-3i"), ("1+1/500i", "1-1/500i")):
        spec = tmp_path / f"{len(bundles)}.json"
        spec.write_text(_local_model_spec([
            {"a": [1, 1], "b": [0, 0], "c": plus},
            {"a": [0, 0], "b": [1, 1], "c": minus},
        ]))
        out = tmp_path / f"{len(bundles)}.out.json"
        assert main(["classify", str(spec), "--out", str(out)]) == 0
        bundles.append(json.loads(out.read_text())["reports"])
    assert bundles[0] == bundles[1]


def test_package_exports_resolve_once():
    assert len(ephemera.__all__) == len(set(ephemera.__all__))
    for name in ephemera.__all__:
        assert hasattr(ephemera, name), name


def _bench_tracing():
    path = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("bench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing


def test_bench_trace_sees_every_classifier_stage():
    # bench/tracing.py wraps each target where callers look it up (module
    # globals, class attributes); a stage reached any other way, such as a
    # private core behind the public name, would drop out of the trace
    tracing = _bench_tracing()
    family, points = load_system_spec(json.loads(catalog_path("family_11m1")))
    cases = [(family, w.to_complex()) for w in points]
    cases.append((local_model_system((2, 1)), np.zeros(2, complex)))  # tall, N = 3
    tracer = tracing.Tracer()
    tracer.install()
    try:
        reports = [ephemera.classifier.classify_point(spec, z) for spec, z in cases]
    finally:
        tracer.uninstall()
    assert any(r.tall and r.degree_N >= 2 and r.critical_mod_phi for r in reports)
    calls = Counter(tracer.names[k] for k in tracer.name_idx)
    critical = sum(r.critical_mod_phi for r in reports)
    for name, module, _ in tracing.TARGETS:
        if module in ("ephemera.classifier", "ephemera.jets"):
            assert calls[name] > 0, name
    assert calls["classifier.is_critical_mod_phi"] == len(cases)
    assert calls["classifier.stabilizer_slice"] == len(cases)
    assert calls["classifier.lagrange_multiplier"] == critical
    assert calls["classifier.slice_hessian_blocks"] == critical


def test_cli_import_loads_no_jsonschema():
    # serial checks spec files itself; the schema engine and its dependencies
    # cost every CLI start time and memory
    engine = ("jsonschema", "referencing", "rpds", "attrs")
    code = (
        "import sys, ephemera.cli; "
        f"print(sorted(m for m in sys.modules if m.split('.')[0] in {engine!r}))"
    )
    result = run_python(["-c", code])
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "[]"


def test_cli_import_loads_no_scipy():
    # importing scipy alone adds tens of MB and most of a second to every
    # CLI start; the program needs numpy only
    code = (
        "import sys, ephemera.cli; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    result = run_python(["-c", code])
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "[]"
