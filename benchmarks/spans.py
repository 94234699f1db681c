"""In-memory span tracer for the six mostinf layers.

The tracer wraps functions from outside, in memory, so no file of the package
changes.  It wraps every public function and public method of each layer
module, plus every underscore name that another layer reaches (by ``from
.cube import _x`` or by ``cube._x``), because such a name is that layer's
interface.  A few more names are wrapped because a per-layer metric is
measured at them (``METRIC_NAMES``).  A name that a later version removes is
simply not wrapped; the metrics measured at it are then reported as missing.

A span holds a name, start, end, parent span and job id.  Spans are kept in
flat arrays while the run lasts and written out once it ends.
"""

from __future__ import annotations

import ast
import functools
import importlib
import inspect
import json
import math
import os
import time
from array import array

import numpy as np

LAYERS = ("cli", "search", "cube", "sphere", "gauss", "entropy")

# Names wrapped even when private and used only inside their own module,
# because a per-layer metric is measured at them.
METRIC_NAMES = {("cube", "_mi_multi_output")}

_FWHT = "cube._hadamard_inplace"
_KERNEL_MATRIX = "sphere.SpherePointSet.kernel_matrix"
_SCALAR_FACTORS = ("gauss.a_factor", "gauss.r_factor", "gauss.u_rho_N",
                   "gauss.q_rho", "gauss.poisson_factor")

# Per-layer metrics that add up the span durations, or count the spans, of
# named functions: metric -> names.
_NAMED_MS = {
    "cube.symmetric_mi_ms": ("cube.symmetric_mi",),
    "cube.multi_output_ms": ("cube._mi_multi_output",),
    "cube.perfect_code_ms": ("cube.perfect_code_mi",),
    "cli.emit_ms": ("cli.emit",),
    "sphere.kernel_matrix_ms": (_KERNEL_MATRIX,),
    "gauss.quad_ms": ("gauss.neg_cond_entropy",),
    "gauss.gh_ms": ("gauss.neg_cond_entropy_gh",),
    "gauss.mc_ms": ("gauss.poisson_factor_mass_mc",
                    "gauss.decomposition_integral_check"),
}
_NAMED_CALLS = {
    "sphere.kernel_apply_calls": ("sphere.kernel_apply",),
    "sphere.kernel_matrix_calls": (_KERNEL_MATRIX,),
    "sphere.polarize_calls": ("sphere.polarize",),
    "gauss.scalar_factor_calls": _SCALAR_FACTORS,
}
# Metrics counted by hooks: metric -> names the hook sits on.
_HOOKED = {
    "cube.fwht_calls": (_FWHT,),
    "cube.fwht_rows": (_FWHT,),
    "cube.fwht_ops": (_FWHT,),
    "cube.fwht_bytes": (_FWHT,),
    "search.tables_certified": ("search.scan_n5", "search.exhaustive_verify"),
    "search.checkpoint_bytes": ("search.scan_n5",),
    "sphere.kernel_builds": (_KERNEL_MATRIX,),
    "sphere.kernel_reuse_ratio": (_KERNEL_MATRIX,),
    "entropy.scalar_calls": ("entropy.binary_entropy",),
}


def _layer_modules():
    return {layer: importlib.import_module(f"mostinf.{layer}")
            for layer in LAYERS}


def _defined_in(obj, module) -> bool:
    return getattr(obj, "__module__", None) == module.__name__


def _cross_layer_names(modules) -> dict:
    """Underscore names of each layer that another layer module reaches."""
    by_module = {mod.__name__: layer for layer, mod in modules.items()}
    used = {layer: set() for layer in modules}
    for layer, mod in modules.items():
        aliases = {name: by_module[val.__name__]
                   for name, val in vars(mod).items()
                   if inspect.ismodule(val) and val.__name__ in by_module
                   and val is not mod}
        for name, val in vars(mod).items():
            owner = by_module.get(getattr(val, "__module__", None))
            if owner is not None and owner != layer and callable(val):
                used[owner].add(name)
        tree = ast.parse(inspect.getsource(mod))
        for node in ast.walk(tree):
            if (isinstance(node, ast.Attribute)
                    and isinstance(node.value, ast.Name)
                    and node.value.id in aliases):
                used[aliases[node.value.id]].add(node.attr)
    return used


class Tracer:
    """Records spans at the layer boundaries of mostinf while installed."""

    def __init__(self):
        self.on = False
        self.job = -1
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.sid = array("i")
        self.parent = array("q")
        self.jobid = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self._patches: list = []
        self.wrapped: set[str] = set()
        self.counts = {"fwht_rows": 0, "fwht_ops": 0, "fwht_bytes": 0,
                       "tables": 0, "checkpoint_bytes": 0,
                       "kernel_builds": 0, "entropy_scalar": 0}
        self.hook_errors: dict[str, str] = {}
        self._kernels_seen: set = set()

    # -- installation -------------------------------------------------------

    def install(self):
        modules = _layer_modules()
        cross = _cross_layer_names(modules)
        wrappers: dict[int, object] = {}
        for layer, mod in modules.items():
            for name, fn in list(vars(mod).items()):
                owner = next((lay for lay, m in modules.items()
                              if _defined_in(fn, m)), None)
                if owner is None or not inspect.isfunction(fn):
                    continue
                if name.startswith("_") and name not in cross[owner] \
                        and (owner, name) not in METRIC_NAMES:
                    continue
                if id(fn) not in wrappers:
                    wrappers[id(fn)] = self._wrap(
                        fn, f"{owner}.{fn.__qualname__}")
                self._patch(mod, name, fn, wrappers[id(fn)])
            for cls in [c for c in vars(mod).values()
                        if inspect.isclass(c) and _defined_in(c, mod)]:
                self._install_methods(layer, cls)

    def _install_methods(self, layer: str, cls):
        for name, attr in list(vars(cls).items()):
            if name.startswith("_") and name != "__call__":
                continue
            kind = type(attr)
            if kind in (classmethod, staticmethod):
                fn = attr.__func__
            elif inspect.isfunction(attr):
                fn = attr
            else:
                continue  # properties and data
            wrapper = self._wrap(fn, f"{layer}.{fn.__qualname__}")
            new = kind(wrapper) if kind in (classmethod, staticmethod) \
                else wrapper
            self._patch(cls, name, attr, new)

    def _patch(self, owner, name, old, new):
        setattr(owner, name, new)
        self._patches.append((owner, name, old))

    def uninstall(self):
        self.on = False
        for owner, name, old in reversed(self._patches):
            setattr(owner, name, old)
        self._patches.clear()

    def begin_job(self, job: int):
        self.job = job
        self._kernels_seen.clear()

    # -- recording ----------------------------------------------------------

    def _wrap(self, fn, span_name: str):
        self.wrapped.add(span_name)
        sid = self._name_ids.setdefault(span_name, len(self.names))
        if sid == len(self.names):
            self.names.append(span_name)
        hook = self._hook_for(span_name, fn)
        tracer = self
        stack = self._stack
        sids, parents, jobs = self.sid, self.parent, self.jobid
        starts, ends = self.start, self.end
        clock = time.perf_counter

        @functools.wraps(fn)
        def span(*args, **kwargs):
            if not tracer.on:
                return fn(*args, **kwargs)
            after = hook(args, kwargs) if hook is not None else None
            i = len(sids)
            sids.append(sid)
            parents.append(stack[-1])
            jobs.append(tracer.job)
            ends.append(0.0)
            stack.append(i)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[i] = clock()
                stack.pop()
            if after is not None:
                after(result)
            return result

        return span

    def _guarded(self, metric: str, body):
        """Run a counting hook; a hook that no longer fits the code it
        watches marks its metric missing instead of failing the job."""
        def hook(args, kwargs):
            if metric in self.hook_errors:
                return None
            try:
                return body(args, kwargs)
            except Exception as exc:  # noqa: BLE001 - reported as missing
                self.hook_errors[metric] = f"{type(exc).__name__}: {exc}"
                return None
        return hook

    def _hook_for(self, span_name: str, fn):
        counts = self.counts
        if span_name == _FWHT:
            def fwht(args, kwargs):
                shape = np.shape(args[0])
                size = shape[-1]
                rows = math.prod(shape[:-1])
                stages = size.bit_length() - 1
                counts["fwht_rows"] += rows
                counts["fwht_ops"] += rows * (size // 2) * stages
                # Computed, not measured: one read and one write of the
                # float64 array per stage, plus the input copy.
                counts["fwht_bytes"] += 8 * rows * size * (2 * stages + 2)
            return self._guarded("cube.fwht_rows", fwht)
        if span_name in ("search.scan_n5", "search.exhaustive_verify"):
            sig = inspect.signature(fn)

            def certified(args, kwargs):
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                path = bound.arguments.get("checkpoint")
                before = _checkpoint_scanned(path)

                def after(report):
                    counts["tables"] += report.functions_scanned - before
                    if path and os.path.exists(path):
                        chunk = bound.arguments["chunk_size"]
                        writes = math.ceil(
                            (report.functions_scanned - before) / 2 / chunk)
                        counts["checkpoint_bytes"] += \
                            os.path.getsize(path) * writes
                return after
            return self._guarded("search.tables_certified", certified)
        if span_name == _KERNEL_MATRIX:
            def builds(args, kwargs):
                key = (args[0], args[1] if len(args) > 1
                       else kwargs["kernel"])
                if key not in self._kernels_seen:
                    self._kernels_seen.add(key)
                    counts["kernel_builds"] += 1
            return self._guarded("sphere.kernel_builds", builds)
        if span_name.startswith("entropy.") and span_name.count(".") == 1:
            def scalar(args, kwargs):
                if args and np.ndim(args[0]) == 0:
                    counts["entropy_scalar"] += 1
            return self._guarded("entropy.scalar_calls", scalar)
        return None

    # -- results ------------------------------------------------------------

    def write(self, path: str):
        """Write every span to a compressed .npz file."""
        np.savez_compressed(
            path, span_names=np.array(self.names), name=self.sid,
            start=self.start, end=self.end, parent=self.parent,
            job=self.jobid)

    def metrics(self, wall_s: float, untraced_wall_s: float) -> tuple:
        """Per-layer metrics over every span recorded so far.

        Returns (metrics, missing): metrics maps name -> (value, unit);
        missing lists the metrics whose wrapped names or hooks are gone.
        """
        sid = np.array(self.sid, dtype=np.int64)
        parent = np.array(self.parent, dtype=np.int64)
        dur = np.array(self.end) - np.array(self.start)
        n_spans = sid.size
        layer_of = np.array([LAYERS.index(name.split(".", 1)[0])
                             for name in self.names] or [0], dtype=np.int64)
        layer = layer_of[sid]
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent],
                            minlength=n_spans)
        self_time = dur - child
        n_layers = len(LAYERS)
        layer_self = np.bincount(layer, weights=self_time, minlength=n_layers)
        layer_calls = np.bincount(layer, minlength=n_layers)
        # A layer is busy while any of its spans is open; count only the
        # spans with no open ancestor of the same layer.
        par, lay = parent.tolist(), layer.tolist()
        above = [0] * n_spans
        for i in range(n_spans):
            p = par[i]
            if p >= 0:
                above[i] = above[p] | (1 << lay[p])
        outer = (np.array(above, dtype=np.int64) >> layer) & 1 == 0
        layer_busy = np.bincount(layer[outer], weights=dur[outer],
                                 minlength=n_layers)
        by_name_ms = np.bincount(sid, weights=dur,
                                 minlength=len(self.names)) * 1e3
        by_name_calls = np.bincount(sid, minlength=len(self.names))

        def over(names, per_name):
            return sum(float(per_name[self._name_ids[n]]) for n in names
                       if n in self._name_ids)

        out: dict[str, tuple] = {}
        for i, name in enumerate(LAYERS):
            out[f"{name}.calls"] = (int(layer_calls[i]), "count")
            out[f"{name}.busy_ms"] = (float(layer_busy[i]) * 1e3, "ms")
            out[f"{name}.self_ms"] = (float(layer_self[i]) * 1e3, "ms")
        for metric, names in _NAMED_MS.items():
            out[metric] = (over(names, by_name_ms), "ms")
        for metric, names in _NAMED_CALLS.items():
            out[metric] = (int(over(names, by_name_calls)), "count")
        c = self.counts
        fwht_calls = int(over((_FWHT,), by_name_calls))
        out["cube.fwht_calls"] = (fwht_calls, "count")
        out["cube.fwht_rows"] = (c["fwht_rows"], "count")
        out["cube.fwht_ops"] = (c["fwht_ops"], "count")
        out["cube.fwht_bytes"] = (c["fwht_bytes"], "B")
        out["search.tables_certified"] = (c["tables"], "count")
        out["search.checkpoint_bytes"] = (c["checkpoint_bytes"], "B")
        matrix_calls = out["sphere.kernel_matrix_calls"][0]
        out["sphere.kernel_builds"] = (c["kernel_builds"], "count")
        out["sphere.kernel_reuse_ratio"] = (
            1.0 - c["kernel_builds"] / matrix_calls if matrix_calls else 0.0,
            "ratio")
        out["entropy.scalar_calls"] = (c["entropy_scalar"], "count")
        roots_s = float(np.sum(dur[~has_parent]))
        out["bench.self_ms"] = ((wall_s - roots_s) * 1e3, "ms")
        out["trace.wall_ms"] = (wall_s * 1e3, "ms")
        out["trace.spans"] = (int(n_spans), "count")
        out["trace.overhead_ratio"] = (wall_s / untraced_wall_s, "ratio")

        missing = []
        hooked_metric = {"cube.fwht_rows": ("cube.fwht_rows", "cube.fwht_ops",
                                            "cube.fwht_bytes"),
                         "search.tables_certified": (
                             "search.tables_certified",
                             "search.checkpoint_bytes"),
                         "sphere.kernel_builds": ("sphere.kernel_builds",
                                                  "sphere.kernel_reuse_ratio"),
                         "entropy.scalar_calls": ("entropy.scalar_calls",)}
        for key, metrics in hooked_metric.items():
            if key in self.hook_errors:
                missing.extend(metrics)
        named = {**_NAMED_MS, **_NAMED_CALLS, **_HOOKED}
        for metric, names in named.items():
            if not any(n in self.wrapped for n in names):
                missing.append(metric)
        return out, sorted(set(missing))


def _checkpoint_scanned(path) -> int:
    if not path or not os.path.exists(path):
        return 0
    with open(path) as fh:
        return int(json.load(fh)["scanned"])
