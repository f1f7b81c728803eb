"""CLI surface: exit codes, JSON schemas, catalog round trips."""

import importlib
import importlib.util
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import ephemera
from ephemera.cli import CATALOG_NAMES, main
from ephemera.errors import ParseError
from ephemera.jets import InvariantPolynomial, RationalComplex
from ephemera.lattice import DefiningVector
from ephemera.serial import (
    format_coefficient,
    load_system_spec,
    parse_coefficient,
    polynomial_from_terms,
    polynomial_to_terms,
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
        InvariantPolynomial.radius_power(xi, 1).scale(Fraction(1, 3))
    )
    terms = polynomial_to_terms(p)
    back = polynomial_from_terms(terms, xi)
    assert back.terms == p.terms


def test_catalog_files_roundtrip_byte_identical():
    for name in CATALOG_NAMES:
        raw = catalog_path(name)
        data = json.loads(raw)
        assert (json.dumps(data, indent=2) + "\n").encode() == raw


def test_catalog_files_validate_and_load():
    for name in CATALOG_NAMES:
        data = json.loads(catalog_path(name))
        system, points, _ = load_system_spec(data)
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


def test_load_spec_file_helper(tmp_path):
    from ephemera.family import FamilySystem
    from ephemera.serial import load_spec_file

    spec = tmp_path / "fam.json"
    payload = {"name": "fam", "kind": "family", "weights": [[1, 0, 1], [0, 1, 1]]}
    spec.write_text(json.dumps(payload))
    system, points, data, digest = load_spec_file(str(spec))
    assert isinstance(system, FamilySystem)
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
    result = run_cli(["fiber-scan", str(spec)])
    assert result.returncode == 2


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
    ],
)
def test_cli_rejects_removed_and_invalid_options(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "error:" in capsys.readouterr().err


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


def test_package_exports_resolve_once():
    assert len(ephemera.__all__) == len(set(ephemera.__all__))
    for name in ephemera.__all__:
        assert hasattr(ephemera, name), name


def test_bench_trace_targets_resolve():
    # bench/tracing.py wraps layer functions by module and name; a renamed
    # or moved target makes every traced benchmark run fail
    path = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("bench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    assert tracing.TARGETS
    for name, module, attr in tracing.TARGETS:
        owner = importlib.import_module(module)
        if "." in attr:
            cls_name, method = attr.split(".")
            target = vars(getattr(owner, cls_name, object)).get(method)
        else:
            target = getattr(owner, attr, None)
        assert callable(target), name


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
