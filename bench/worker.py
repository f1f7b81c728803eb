"""The measured process of one benchmark run.

Started fresh by run.py with BLAS/OpenMP pinned to one thread.  Reads a
plan (JSON), imports ephemera.cli, loads and validates the workload's spec
files, then calls ephemera.cli.main in-process, round after round, with
passes of calibrate.reference around each call, and writes what it timed
to the result file.  Mode "setup" stops after the
spec files are loaded.  The result's setup_done is CLOCK_MONOTONIC, so the
parent can measure from before it started this interpreter.

    python3 worker.py PLAN.json RESULT.json
"""

import json
import os
import resource
import sys
import time


def _now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def _call(cli, argv) -> tuple[int, float]:
    started = time.perf_counter()
    try:
        code = cli.main(argv)
    except SystemExit as exc:  # argparse rejects its input this way
        code = exc.code if isinstance(exc.code, int) else 2
    return code, time.perf_counter() - started


def _round(cli, plan, tag: str) -> dict:
    """One call of each job, each between two gaps of timed passes of the
    reference computation (calibrate.py); a gap's mean pass time gauges
    the host.  A round of n calls has n + 1 gaps."""
    from calibrate import reference  # not before set-up is timed

    def gap() -> float:
        passes, large_grids = plan["reference"]
        return sum(reference(large_grids) for _ in range(passes)) / passes

    out_dir = os.path.join(plan["bundle_dir"], tag)
    os.makedirs(out_dir)
    calls, gaps = [], [gap()]
    for name, argv in plan["jobs"]:
        calls.append(_call(cli, argv + ["--out", os.path.join(out_dir, f"{name}.json")]))
        gaps.append(gap())
    return {"tag": tag, "calls": calls, "seconds": sum(s for _, s in calls),
            "reference_s": gaps}


def _rounds(cli, plan, tracer=None) -> list:
    """Whole rounds while the next one is expected to end within the budget.

    With a tracer, rounds alternate untraced and traced (at least one of
    each), so that the two kinds see the same machine state.
    """
    done = []
    spent = 0.0
    pair = 2 if tracer else 1
    while len(done) < pair or spent + pair * spent / len(done) <= plan["seconds"]:
        traced = tracer is not None and len(done) % 2 == 1
        if traced:
            tracer.install()
        started = time.perf_counter()
        try:
            r = _round(cli, plan, f"r{len(done)}")
        finally:
            if traced:
                tracer.uninstall()
        r["traced"] = traced
        done.append(r)
        spent += time.perf_counter() - started
    return done


def main() -> int:
    plan_path, result_path = sys.argv[1:3]
    with open(plan_path) as fh:
        plan = json.load(fh)
    sys.path.insert(0, plan["src"])
    import ephemera.cli as cli
    from ephemera.serial import load_spec_file

    for path in plan["specs"]:
        load_spec_file(path)
    result = {"setup_done": _now()}
    if plan["mode"] == "run":
        for argv in plan["warmup"]:
            _call(cli, argv + ["--out", os.path.join(plan["bundle_dir"], "warmup.json")])
        if plan["trace"]:
            from tracing import Tracer

            tracer = Tracer()
            result["rounds"] = _rounds(cli, plan, tracer)
            tracer.save(plan["spans"])
        else:
            result["rounds"] = _rounds(cli, plan)
        result["peak_rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    with open(result_path, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
