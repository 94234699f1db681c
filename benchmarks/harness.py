"""Closed-loop job runner, end-to-end metrics and the run record.

One client runs the CLI in-process through ``mostinf.cli.main``; each job
starts only after the previous one has finished and been checked.
"""

from __future__ import annotations

import io
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

from workloads import Job, Workload


@dataclass
class JobResult:
    kind: str
    seconds: float
    failure: str | None
    tables: int


class _Capture(io.TextIOBase):
    """Stand-in for sys.stdout/sys.stderr that keeps bytes in memory."""

    def __init__(self):
        self.buffer = io.BytesIO()

    def write(self, text: str) -> int:
        self.buffer.write(text.encode())
        return len(text)


def run_job(cli, job: Job) -> tuple[float, int, bytes, str]:
    """Run one CLI command in-process; returns (seconds, exit, out, err)."""
    out, err = _Capture(), _Capture()
    saved = sys.stdout, sys.stderr
    sys.stdout, sys.stderr = out, err
    t0 = time.perf_counter()
    try:
        code = cli.main(job.argv)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 1
    except Exception:  # noqa: BLE001 - the CLI would exit 1 with a traceback
        code = 1
        err.write(traceback.format_exc())
    finally:
        seconds = time.perf_counter() - t0
        sys.stdout, sys.stderr = saved
    return seconds, code, out.buffer.getvalue(), err.buffer.getvalue().decode()


def run_pass(cli, workload: Workload, tracer=None,
             jobs: list[Job] | None = None) -> list[JobResult]:
    """Run every job of one pass in order and check each output."""
    workload.reset()
    results = []
    for job_id, job in enumerate(workload.jobs if jobs is None else jobs):
        if tracer is not None:
            tracer.begin_job(job_id)
            tracer.on = True
        seconds, code, out, err = run_job(cli, job)
        if tracer is not None:
            tracer.on = False
        try:
            failure = job.check(code, out)
        except (ValueError, KeyError, IndexError, TypeError,
                AttributeError) as exc:
            failure = f"unreadable output: {type(exc).__name__}: {exc}"
        if failure is not None and err.strip():
            failure += f" | stderr: {err.strip().splitlines()[-1]}"
        results.append(JobResult(job.kind, seconds, failure, job.tables))
    return results


def quantile(values: list[float], q: int) -> float:
    """q-th percentile by the exclusive method of statistics.quantiles."""
    return statistics.quantiles(values, n=100, method="exclusive")[q - 1]


def peak_rss_mb() -> float:
    """High-water RSS of this process plus the largest reaped child, MiB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def end_to_end(results: list[JobResult], wall_s: float,
               setup_s: list[float]) -> dict:
    """Every end-to-end metric as name -> (value, unit, samples, note)."""
    times = [r.seconds for r in results]
    failed = sum(r.failure is not None for r in results)
    p90 = quantile(times, 90)
    beyond = sum(t > p90 for t in times)
    out = {
        "setup_s": (statistics.median(setup_s), "s", len(setup_s),
                    "median of separate set-ups"),
        "jobs_per_s": (len(results) / wall_s, "1/s", len(results),
                       f"{len(results)} jobs in {wall_s:.3f} s"),
        "job_p50_ms": (statistics.median(times) * 1e3, "ms", len(times), ""),
        "job_p90_ms": (p90 * 1e3, "ms", len(times), f"{beyond} beyond"),
        "fail_ratio": (failed / len(results), "ratio", len(results),
                       f"{failed}/{len(results)} failed"),
        "peak_rss_mb": (peak_rss_mb(), "MiB", 1,
                        "this process plus the largest reaped child"),
    }
    verify = [r for r in results if r.tables]
    if verify:
        spent = sum(r.seconds for r in verify)
        tables = sum(r.tables for r in verify)
        out["tables_per_s"] = (tables / spent, "1/s", len(verify),
                               f"{tables} tables in {spent:.3f} s of verify")
    return out


def by_kind(results: list[JobResult]) -> dict:
    """Job count and median job time per kind of job."""
    kinds: dict[str, list[float]] = {}
    for r in results:
        kinds.setdefault(r.kind, []).append(r.seconds * 1e3)
    return {k: {"jobs": len(v), "median_ms": statistics.median(v)}
            for k, v in kinds.items()}


def _cache_sizes() -> dict:
    """L2/L3 sizes of cpu0 from sysfs, or None where it is not readable."""
    sizes = {"L2": None, "L3": None}
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    try:
        for index in sorted(base.glob("index*")):
            level = (index / "level").read_text().strip()
            if f"L{level}" in sizes:
                sizes[f"L{level}"] = (index / "size").read_text().strip()
    except OSError:
        pass
    return sizes


def _git_commit(root: Path) -> str | None:
    """Commit of a git checkout, read from .git without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def machine_record(root: Path, workload: Workload, seed: int,
                   thread_cap: dict) -> dict:
    import numpy
    import scipy
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "thread_cap": thread_cap,
        "cache": _cache_sizes(),
        "commit": _git_commit(root),
        "workload": workload.name,
        "seed": seed,
        "jobs_per_pass": len(workload.jobs),
        "working_set_bytes": workload.working_set,
    }


def result_line(declared: list[dict], metrics: dict, attempted: int,
                failed: int) -> str:
    """The last stdout line: declared metrics only, each with its unit."""
    return json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]][0],
                                "unit": metrics[m["name"]][1]}
                    for m in declared},
    })
