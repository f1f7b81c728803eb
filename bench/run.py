"""Benchmark of the ephemera command line, end to end and layer by layer.

    python3 bench/run.py --workload scan-fine --seed 0 --seconds 20 --trace 0

Run from the root of a source checkout (the program is imported from
src/).  Writes the workload's generated spec files under .bench_work/,
measures set-up in fresh interpreters, runs the workload's CLI calls in
one fresh single-threaded process for --seconds of whole rounds, checks
every report bundle against the oracles in oracles.py, and prints one
JSON result as the last line: end-to-end metrics with --trace 0, per-layer
metrics from a traced run with --trace 1.  See README.md.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import calibrate
import inputs
import oracles
import tracing

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_SAMPLES = 6
WORKER_TIMEOUT_S = 150
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def _env() -> dict:
    env = {k: v for k, v in os.environ.items() if k != "EPHEMERA_THREADS"}
    env.update({k: "1" for k in THREAD_VARS})
    return env


def _spawn(plan: dict, work: Path, tag: str) -> tuple[dict, float]:
    """Run worker.py on a plan; returns its result and the monotonic
    time taken just before the interpreter was started."""
    plan_path, result_path = work / f"{tag}.plan.json", work / f"{tag}.result.json"
    plan_path.write_text(json.dumps(plan))
    cmd = [sys.executable, str(Path(__file__).with_name("worker.py")),
           str(plan_path), str(result_path)]
    started = time.clock_gettime(time.CLOCK_MONOTONIC)
    proc = subprocess.run(cmd, env=_env(), cwd=ROOT, timeout=WORKER_TIMEOUT_S,
                          stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"worker {tag} exited {proc.returncode}: {proc.stderr[-2000:]}")
    return json.loads(result_path.read_text()), started


def _cross_check_table(jobs) -> list[str]:
    """The benchmark's closed-form table against family.classify_family_point."""
    sys.path.insert(0, str(SRC))
    from ephemera.family import PolarPoint, build_family, classify_family_point
    from ephemera.lattice import WeightMatrix

    errors = []
    for job in jobs:
        fam = build_family(WeightMatrix(job.family.weights))
        for point, want in zip(job.points, oracles.expected_labels(job)):
            got = classify_family_point(fam, PolarPoint(r=point.r, theta=point.theta))
            if got != want:
                errors.append(f"{job.name} {point}: table {want}, family {got}")
    return errors


def _check_round(jobs, rnd, bundle_dir: Path, expected) -> tuple[int, int, list]:
    """(attempted, known-fault failures, other failures) for one round."""
    attempted, known, other = 0, 0, []
    for job, (code, _) in zip(jobs, rnd["calls"]):
        attempted += job.operations
        path = bundle_dir / rnd["tag"] / f"{job.name}.json"
        if code != 0 or not path.exists():
            other += [f"{job.name}: exit code {code}"] * job.operations
            continue
        for verdict, is_known in _verdicts(job, json.loads(path.read_text()), expected):
            if verdict is None:
                continue
            if is_known:
                known += 1
            else:
                other.append(f"{rnd['tag']} {job.name}: {verdict}")
    return attempted, known, other


def _verdicts(job, bundle: dict, expected) -> list:
    if job.kind == "scan":
        return [(v, False) for v in oracles.check_scan_bundle(bundle, job)]
    return oracles.check_classify_bundle(bundle, job, expected[job.name])


def _self_check(job, bundle: dict, expected) -> str | None:
    """A bundle with one component count or one label altered must fail once more."""
    before = sum(v is not None for v, _ in _verdicts(job, bundle, expected))
    altered = json.loads(json.dumps(bundle))
    if job.kind == "scan":
        chart = next(c for c in altered["connectivity"]["charts"] if c["status"] == "ok")
        chart["levels"][0]["components"] += 1
    else:
        report = altered["reports"][0]
        report["label"] = "hyperbolic-connected" if report["label"] != "hyperbolic-connected" \
            else "regular"
    after = sum(v is not None for v, _ in _verdicts(job, altered, expected))
    if after != before + 1:
        return f"self-check: altering one {job.kind} result changed failures {before} -> {after}"
    return None


def _provenance() -> dict:
    # the ceiling keeps git from reporting an enclosing repository
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                             capture_output=True, text=True, timeout=10).stdout.strip()
        sha = sha or "unknown"
    except (OSError, subprocess.SubprocessError):
        sha = "unknown"
    versions = {}
    for pkg in ("numpy", "scipy", "jsonschema"):
        try:
            versions[pkg] = importlib.metadata.version(pkg)
        except importlib.metadata.PackageNotFoundError:
            versions[pkg] = "absent"
    return {"git_sha": sha, "nproc": os.cpu_count(),
            "python": sys.version.split()[0], **versions}


def measure(workload: str, seed: int, seconds: int, trace: bool, work: Path) -> dict:
    spec_dir, bundle_dir = work / "specs", work / "bundles"
    spec_dir.mkdir(parents=True)
    bundle_dir.mkdir()
    jobs = inputs.make_jobs(workload, seed, str(spec_dir))
    expected = {j.name: oracles.expected_labels(j) for j in jobs if j.kind == "classify"}
    errors = _cross_check_table([j for j in jobs if j.kind == "classify"])

    specs = list(dict.fromkeys(j.spec_path for j in jobs))
    setup_plan = {"mode": "setup", "src": str(SRC), "specs": specs}

    def time_setup(tag: str) -> float:
        result, started = _spawn(setup_plan, work, tag)
        return result["setup_done"] - started

    # set-up samples before and after the measured process, so that the
    # median spans more than one moment of a host whose speed drifts
    setup = [time_setup(f"setup{i}") for i in range(SETUP_SAMPLES // 2)]
    plan = {
        "mode": "run", "src": str(SRC), "specs": specs, "seconds": seconds,
        "trace": trace, "bundle_dir": str(bundle_dir), "spans": str(work / "spans.npz"),
        "jobs": [[j.name, j.argv] for j in jobs], "warmup": [inputs.warmup_argv(jobs)],
        "reference": inputs.REFERENCE[workload],
    }
    result, started = _spawn(plan, work, "run")
    setup.append(result["setup_done"] - started)
    setup += [time_setup(f"setup{i}") for i in range(SETUP_SAMPLES // 2, SETUP_SAMPLES)]

    attempted, failed = 0, 0
    for rnd in result["rounds"]:
        n, known, other = _check_round(jobs, rnd, bundle_dir, expected)
        attempted += n
        failed += known + len(other)
        errors += other
    last = result["rounds"][-1]["tag"]
    errors += filter(None, [_self_check(
        jobs[0], json.loads((bundle_dir / last / f"{jobs[0].name}.json").read_text()),
        expected)])

    ops = sum(j.operations for j in jobs)
    timed = [r for r in result["rounds"] if r["traced"] == trace]
    if trace:
        untraced = [r["seconds"] for r in result["rounds"] if not r["traced"]]
        traced = [r["seconds"] for r in timed]
        metrics = tracing.layer_metrics(plan["spans"], len(traced), sum(traced))
        metrics["trace.overhead_s"] = statistics.median(traced) - statistics.median(untraced)
        units = {name: unit for name, unit, _ in tracing.metric_specs()}
    else:
        large_grids = inputs.REFERENCE[workload][1]
        rate = ops / statistics.median(
            calibrate.rescaled_seconds(r, large_grids) for r in timed)
        metrics = {
            "charts_per_s": rate,
            "points_per_s": rate,
            "setup_s": statistics.median(setup),
            "peak_rss_mb": result["peak_rss_kb"] / 1024.0,
        }
        units = {"charts_per_s": "charts/s", "points_per_s": "points/s",
                 "setup_s": "s", "peak_rss_mb": "MB"}
    return {
        "errors": errors,
        "attempted": attempted,
        "failed": failed,
        "rounds": len(timed),
        "ops_per_round": ops,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=inputs.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "ephemera" / "cli.py").is_file():
        print(f"error: no ephemera sources under {SRC}", file=sys.stderr)
        return 2
    work = ROOT / ".bench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        out = measure(args.workload, args.seed, args.seconds, bool(args.trace), work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:  # another run is using it
            pass
    for err in out["errors"][:20]:
        print(f"check failed: {err}")
    for name, m in out["metrics"].items():
        print(f"{name:45s} {m['value']:.6g} {m['unit']}")
    print(f"rounds {out['rounds']} x {out['ops_per_round']} operations; "
          f"attempted {out['attempted']}, failed {out['failed']}")
    print("provenance " + json.dumps(_provenance()))
    print(json.dumps({
        "correct": not out["errors"],
        "attempted": out["attempted"],
        "failed": out["failed"],
        "metrics": out["metrics"],
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
