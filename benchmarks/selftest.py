#!/usr/bin/env python3
"""Seconds-long self-test of the benchmark; not part of the test suite.

    python3 benchmarks/selftest.py

It runs one job of each kind (factor-check aside, which takes seconds) and
checks that every declared metric is printed with its unit, that a job given
a wrong expected value is counted as failed, that traced counts repeat, that
the layers' self times plus the benchmark's own time add up to the traced
wall time, that a renamed function is reported as missing rather than
crashing, and that the compare verdicts follow their rule.
"""

from __future__ import annotations

import json
import math
import os
import shutil
import sys
import time
from functools import partial

import run


def expect(ok: bool, what: str):
    if not ok:
        raise SystemExit(f"selftest FAILED: {what}")


def subset(wl):
    """First job of each kind, without the seconds-long factor-check."""
    seen, jobs = set(), []
    for job in wl.jobs:
        if job.kind not in seen and job.kind != "factor-check":
            seen.add(job.kind)
            jobs.append(job)
    return jobs


def check_line(line: str, declared: list[dict]) -> dict:
    obj = json.loads(line)
    expect(set(obj) == {"correct", "attempted", "failed", "metrics"},
           "result line keys")
    for m in declared:
        got = obj["metrics"].get(m["name"])
        expect(got is not None, f"metric {m['name']} not printed")
        expect(got["unit"] == m["unit"],
               f"{m['name']} unit {got['unit']!r} != {m['unit']!r}")
        expect(isinstance(got["value"], (int, float))
               and math.isfinite(got["value"]), f"{m['name']} value")
    return obj


def traced(cli, harness, Tracer, wl, jobs):
    tracer = Tracer()
    tracer.install()
    try:
        t0 = time.perf_counter()
        harness.run_pass(cli, wl, tracer, jobs=jobs)
        wall = time.perf_counter() - t0
    finally:
        tracer.uninstall()
    return tracer.metrics(wall, wall)


def main() -> int:
    spec = run.bootstrap()
    import mostinf.cli as cli
    from mostinf import cube, search
    import compare
    import harness
    import workloads
    from spans import Tracer

    root = run.WORK / f"selftest-{os.getpid()}"
    setup = [run.time_setup("scan", 1)]
    try:
        for name in run.WORKLOADS:
            wl = workloads.build(name, 1, str(root / name))
            jobs = subset(wl)
            t0 = time.perf_counter()
            results = harness.run_pass(cli, wl, jobs=jobs)
            wall = time.perf_counter() - t0
            bad = [r.failure for r in results if r.failure]
            expect(not bad, f"{name} jobs failed: {bad}")
            metrics = harness.end_to_end(results, wall, setup)
            check_line(harness.result_line(spec["end_to_end"], metrics,
                                           len(results), 0),
                       spec["end_to_end"])

            first, second = (traced(cli, harness, Tracer, wl, jobs)
                             for _ in range(2))
            layer_metrics, missing = first
            expect(not missing, f"{name} missing metrics: {missing}")
            check_line(harness.result_line(spec["per_layer"], layer_metrics,
                                           len(jobs), 0), spec["per_layer"])
            counts = {k: v for k, v in layer_metrics.items()
                      if v[1] in ("count", "B")}
            again = {k: v for k, v in second[0].items() if k in counts}
            expect(counts == again, f"{name} counts differ between runs")
            total = sum(layer_metrics[f"{layer}.self_ms"][0]
                        for layer in ("cli", "search", "cube", "sphere",
                                      "gauss", "entropy"))
            total += layer_metrics["bench.self_ms"][0]
            wall_ms = layer_metrics["trace.wall_ms"][0]
            expect(abs(total - wall_ms) <= 1e-6 * wall_ms,
                   f"{name} self times {total} != wall {wall_ms}")
            print(f"selftest {name}: {len(jobs)} job kinds ok")

        # A job checked against a deliberately wrong expected value fails.
        wl = workloads.build("scan", 1, str(root / "wrong"))
        good = next(j for j in wl.jobs if j.kind == "verify-n4")
        alpha = float(good.argv[good.argv.index("--alpha") + 1])
        wrong = workloads.Job(good.kind, good.argv, partial(
            workloads.check_verify_n4, alpha=alpha + 0.01))
        results = harness.run_pass(cli, wl, jobs=[good, wrong])
        metrics = harness.end_to_end(results, 1.0, setup)
        expect(metrics["fail_ratio"][0] == 0.5, "wrong value not counted")
        obj = check_line(harness.result_line(spec["end_to_end"], metrics,
                                             2, 1), spec["end_to_end"])
        expect(obj["correct"] is False, "correct flag")
        print("selftest wrong expected value: counted in fail_ratio")

        # A transform folded into a name the tracer does not know is
        # reported missing, and the run still completes.
        saved = cube._hadamard_inplace

        def folded(a):
            return saved(a)
        cube._hadamard_inplace = search._hadamard_inplace = folded
        try:
            _, missing = traced(cli, harness, Tracer, wl, subset(wl))
        finally:
            cube._hadamard_inplace = search._hadamard_inplace = saved
        expect("cube.fwht_calls" in missing and "cube.fwht_bytes" in missing,
               f"renamed transform not reported missing: {missing}")
        print("selftest renamed function: reported missing")
    finally:
        shutil.rmtree(root, ignore_errors=True)

    parent = {s: 100.0 + (s % 3) for s in range(10)}
    cases = {"gain": {s: 80.0 + (s % 3) for s in range(10)},
             "regression": {s: 130.0 + (s % 3) for s in range(10)},
             "within bound": {s: 101.0 + (s % 3) for s in range(10)},
             "unresolved": {s: 100.0 + 40 * (s % 2) for s in range(10)}}
    for want, change in cases.items():
        got = compare.verdict(parent, change, "lower", 0.1)[3]
        expect(got == want, f"compare verdict {got!r} != {want!r}")
    print("selftest compare verdicts: ok")
    print("selftest ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
