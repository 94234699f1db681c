#!/usr/bin/env python3
"""Benchmark of the mostinf lab: the README's CLI commands, end to end.

Run one workload (the last stdout line is the JSON result):

    python3 benchmarks/run.py --workload scan --seed 1 --seconds 30 --trace 0

``--workload all`` runs scan, exact and continuum in turn and prints each.
``--trace 1`` runs an untraced, a traced and an untraced pass of the
workload and reports the per-layer metrics instead of the end-to-end ones.
Compare the result sets of two commits (directories given to ``--results``):

    python3 benchmarks/run.py --compare PARENT_RESULTS CHANGE_RESULTS

The benchmark imports the package from ``src/`` next to this directory and
refuses to run without it.  See README.md here for what each metric means.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".bench_work"
WORKLOADS = ("scan", "exact", "continuum")
SETUPS = 5       # set-ups timed per untraced run; setup_s is their median
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def bootstrap() -> dict:
    """Check the checkout, cap BLAS/OpenMP threads at nproc and put the
    checkout's src/ first on sys.path.  Returns BENCHMARK.json."""
    if not (ROOT / "src" / "mostinf" / "__init__.py").is_file():
        sys.exit(f"benchmark: no src/mostinf under {ROOT}; "
                 "run it from a checkout of the repository")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    nproc = os.cpu_count() or 1
    for var in THREAD_VARS:
        current = os.environ.get(var, "")
        if not current.isdigit() or not 1 <= int(current) <= nproc:
            os.environ[var] = str(nproc)
    sys.path.insert(0, str(ROOT / "src"))
    import mostinf
    if not Path(mostinf.__file__).resolve().is_relative_to(ROOT / "src"):
        sys.exit(f"benchmark: imported mostinf from {mostinf.__file__}, "
                 f"not from {ROOT / 'src'}")
    return spec


def time_setup(workload: str, seed: int) -> float:
    """Seconds from starting a fresh process until its first job is ready."""
    cmd = [sys.executable, str(HERE / "run.py"), "--setup-only",
           "--workload", workload, "--seed", str(seed)]
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True)
    ready = proc.stdout.readline()
    seconds = time.perf_counter() - t0
    _, err = proc.communicate(timeout=120)
    if ready.strip() != "ready" or proc.returncode != 0:
        raise RuntimeError(f"set-up process failed: {err.strip()}")
    return seconds


def setup_only(args) -> int:
    import mostinf.cli  # noqa: F401 - the import is what is being timed
    import workloads
    workdir = WORK / f"setup-{os.getpid()}"
    try:
        workloads.build(args.workload, args.seed, str(workdir))
        print("ready", flush=True)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return 0


def run_one(args, spec: dict) -> int:
    import mostinf.cli as cli
    import harness
    import workloads
    from spans import Tracer

    workdir = WORK / f"run-{args.workload}-{os.getpid()}"
    results_dir = Path(args.results)
    results_dir.mkdir(parents=True, exist_ok=True)
    wl = workloads.build(args.workload, args.seed, str(workdir))
    try:
        if args.trace:
            # Untraced, traced, untraced: the overhead ratio divides by the
            # mean of the passes on either side, so warm-up does not bias it.
            t0 = time.perf_counter()
            results = harness.run_pass(cli, wl)
            untraced_s = time.perf_counter() - t0
            tracer = Tracer()
            tracer.install()
            try:
                t0 = time.perf_counter()
                results += harness.run_pass(cli, wl, tracer)
                traced_s = time.perf_counter() - t0
            finally:
                tracer.uninstall()
            t0 = time.perf_counter()
            results += harness.run_pass(cli, wl)
            untraced_s = (untraced_s + time.perf_counter() - t0) / 2
            metrics, missing = tracer.metrics(traced_s, untraced_s)
            tracer.write(str(results_dir /
                             f"spans-{args.workload}-s{args.seed}.npz"))
            declared = spec["per_layer"]
            passes = 3
        else:
            setups = [time_setup(args.workload, args.seed)
                      for _ in range(SETUPS)]
            # Whole passes only, so every run measures the same job mix;
            # stop before a pass that would end well after --seconds.
            results, passes = [], 0
            t0 = time.perf_counter()
            while True:
                results += harness.run_pass(cli, wl)
                passes += 1
                elapsed = time.perf_counter() - t0
                if elapsed + elapsed / passes / 2 > args.seconds:
                    break
            wall_s = time.perf_counter() - t0
            metrics = harness.end_to_end(results, wall_s, setups)
            missing = []
            declared = spec["end_to_end"]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failures = [f"{r.kind}: {r.failure}" for r in results if r.failure]
    for line in failures[:10]:
        print(f"FAILED {line}", file=sys.stderr)
    for name, m in metrics.items():
        extra = f"  n={m[2]} {m[3]}" if len(m) > 2 else ""
        print(f"{args.workload:<10} {name:<28} {m[0]:>14.6g} {m[1]}{extra}")
    if missing:
        print(f"{args.workload:<10} missing (reported as 0): "
              + ", ".join(missing))
    thread_cap = {v: os.environ.get(v) for v in THREAD_VARS}
    record = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "seconds": args.seconds, "passes": passes,
        "attempted": len(results), "failed": len(failures),
        "failures": failures[:10], "missing": missing,
        "job_ms_by_kind": harness.by_kind(results),
        "metrics": {name: {"value": m[0], "unit": m[1],
                           **({"samples": m[2]} if len(m) > 2 else {})}
                    for name, m in metrics.items()},
        "machine": harness.machine_record(ROOT, wl, args.seed, thread_cap),
    }
    (results_dir / f"{args.workload}-s{args.seed}-t{args.trace}.json") \
        .write_text(json.dumps(record, indent=1) + "\n")
    print("record " + json.dumps(record["machine"]))
    print(harness.result_line(declared, metrics, len(results), len(failures)))
    return 1 if failures else 0


def run_all(args) -> int:
    """Run every workload in its own process, one after the other."""
    worst = 0
    for workload in WORKLOADS:
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--results", args.results]
        worst = max(worst, subprocess.run(cmd, cwd=ROOT).returncode)
    return worst


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measured time, rounded to whole passes "
                             "(default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--results", default=str(WORK / "results"),
                        help="directory for the per-run records")
    parser.add_argument("--compare", nargs=2,
                        metavar=("PARENT_RESULTS", "CHANGE_RESULTS"))
    parser.add_argument("--setup-only", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    spec = bootstrap()
    if args.compare:
        import compare
        return compare.compare(*args.compare, spec["end_to_end"])
    if args.workload is None:
        parser.error("--workload or --compare is required")
    if args.seconds is None:
        args.seconds = spec["run_seconds"]
    if args.setup_only:
        return setup_only(args)
    if args.workload == "all":
        return run_all(args)
    return run_one(args, spec)


if __name__ == "__main__":
    sys.exit(main())
