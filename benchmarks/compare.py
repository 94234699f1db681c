"""Compare the result sets of two commits, one row per (workload, metric).

A result set is a directory of the per-run records that run.py writes.
Runs of the two sides are paired by workload seed.  The verdict follows the
rule the benchmark was built for:

* gain: the change wins at least 9 of 10 pairs (ties count for neither) and
  the medians differ by more than the parent's interquartile range;
* regression: the change's median is worse than the parent's by more than
  the metric's bound;
* unresolved: either side's interquartile range, as a share of its median,
  is wider than the bound, unless every run of the change beats every run
  of the parent;
* otherwise: within bound.
"""

from __future__ import annotations

import json
import statistics
from pathlib import Path

# Reported by every untraced run but not declared in BENCHMARK.json, where
# each metric must exist on every workload: tables_per_s exists only on
# scan.
EXTRA = [{"name": "tables_per_s", "unit": "1/s", "better": "higher",
          "bound": 0.25}]


def load(directory: str) -> dict:
    """(workload, metric) -> {seed: value}, from untraced run records."""
    out: dict = {}
    failed: dict = {}
    for path in sorted(Path(directory).glob("*.json")):
        rec = json.loads(path.read_text())
        if rec.get("trace") != 0:
            continue
        w = rec["workload"]
        bad, total = failed.get(w, (0, 0))
        failed[w] = (bad + rec["failed"], total + rec["attempted"])
        for name, m in rec["metrics"].items():
            out.setdefault((w, name), {})[rec["seed"]] = m["value"]
    return {"values": out, "failed": failed}


def _summary(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3


def verdict(parent: dict, change: dict, better: str, bound: float) -> tuple:
    """Verdict for one metric on one workload; values keyed by seed."""
    def wins(a, b):
        return b > a if better == "higher" else b < a
    a_vals, b_vals = list(parent.values()), list(change.values())
    a_med, a_q1, a_q3 = _summary(a_vals)
    b_med, b_q1, b_q3 = _summary(b_vals)
    seeds = sorted(set(parent) & set(change))
    won = sum(wins(parent[s], change[s]) for s in seeds)
    all_better = all(wins(a, b) for a in a_vals for b in b_vals)
    spread = max((a_q3 - a_q1) / a_med if a_med else 0.0,
                 (b_q3 - b_q1) / b_med if b_med else 0.0)
    worse = (b_med - a_med) if better == "lower" else (a_med - b_med)
    worse_share = worse / a_med if a_med else 0.0
    if spread > bound and not all_better:
        text = "unresolved"
    elif (seeds and won >= 0.9 * len(seeds) and wins(a_med, b_med)
          and abs(b_med - a_med) > a_q3 - a_q1):
        text = "gain"
    elif worse_share > bound:
        text = "regression"
    else:
        text = "within bound"
    return ((a_med, a_q1, a_q3, len(a_vals)), (b_med, b_q1, b_q3, len(b_vals)),
            f"{won}/{len(seeds)}", text)


def compare(parent_dir: str, change_dir: str, declared: list[dict]) -> int:
    """Print one row per (workload, metric); returns 1 on any regression."""
    parent, change = load(parent_dir), load(change_dir)
    metrics = declared + EXTRA
    workloads = sorted({w for w, _ in parent["values"]}
                       | {w for w, _ in change["values"]})
    print(f"{'workload':<10} {'metric':<13} {'parent median [q1, q3] n':<34}"
          f" {'change median [q1, q3] n':<34} {'wins':>6}  verdict")
    regressed = False
    for w in workloads:
        for m in metrics:
            a = parent["values"].get((w, m["name"]))
            b = change["values"].get((w, m["name"]))
            if not a or not b:
                continue
            sa, sb, won, text = verdict(a, b, m["better"], m["bound"])
            regressed |= text == "regression"
            cells = [f"{s[0]:.5g} [{s[1]:.5g}, {s[2]:.5g}] {s[3]}"
                     for s in (sa, sb)]
            print(f"{w:<10} {m['name']:<13} {cells[0]:<34} {cells[1]:<34}"
                  f" {won:>6}  {text} ({m['unit']}, {m['better']} is better,"
                  f" bound {m['bound']:.0%})")
        for side, data in (("parent", parent), ("change", change)):
            bad, total = data["failed"].get(w, (0, 0))
            print(f"{w:<10} {'failed':<13} {side}: {bad}/{total} jobs")
    return 1 if regressed else 0
