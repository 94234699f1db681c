"""Command-line front end: every check and experiment, machine-readable.

Each command performs one logical check and writes exactly one run record
(JSON object with sorted keys and 17-significant-digit floats, or CSV rows
``name,value``).  Commands with a natural table (kernel convergence,
polarization traces, small full scans) emit that table under ``--format
csv``.  Exit code 0 on success, 1 when a check reports pass=false, 2 on
usage errors, including input a handler rejects (one line on stderr).
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from dataclasses import dataclass, field

import numpy as np

from . import __version__
from .entropy import PsiSpec, binary_entropy, gaussian_isoperimetric
from . import cube
from . import gauss
from . import search
from . import sphere

_PSI_NAMES = {
    "neg-entropy": PsiSpec.neg_binary_entropy,
    "square": PsiSpec.square,
}


def _psi_from_name(name: str) -> PsiSpec:
    if name in _PSI_NAMES:
        return _PSI_NAMES[name]()
    if name.startswith("abs:"):
        return PsiSpec.abs_power(float(name.split(":", 1)[1]))
    raise argparse.ArgumentTypeError(f"unknown psi {name!r}")


def _psi_name(value: str) -> str:
    _psi_from_name(value)  # reject unknown names at parse time
    return value


def _alpha(value: str) -> float:
    a = float(value)
    if not 0.0 <= a <= 0.5:
        raise argparse.ArgumentTypeError("alpha must lie in [0, 0.5]")
    return a


def _rho(value: str) -> float:
    r = float(value)
    if not 0.0 <= r < 1.0:
        raise argparse.ArgumentTypeError("rho must lie in [0, 1)")
    return r


@dataclass
class RunRecord:
    command: str
    params: dict
    seed: int
    results: list = field(default_factory=list)
    passed: bool | None = None
    wall_time_ms: int = 0
    version: str = __version__

    def add(self, name: str, value):
        self.results.append({"name": name, "value": value})

    def add_all(self, metrics: dict):
        for name, value in metrics.items():
            self.add(name, value)


def _format_float(v: float) -> str:
    if not math.isfinite(v):
        raise ValueError(f"non-finite metric value {v!r}")
    return format(v, ".17g")


def _json_render(v) -> str:
    if isinstance(v, (bool, np.bool_)):
        return "true" if v else "false"
    if isinstance(v, (np.floating, float)):
        return _format_float(float(v))
    if isinstance(v, (np.integer, int)):
        return str(int(v))
    if v is None:
        return "null"
    if isinstance(v, str):
        return json.dumps(v)
    if isinstance(v, dict):
        inner = ",".join(f"{json.dumps(str(k))}:{_json_render(v[k])}"
                         for k in sorted(v))
        return "{" + inner + "}"
    if isinstance(v, (list, tuple)):
        return "[" + ",".join(_json_render(x) for x in v) + "]"
    raise TypeError(f"cannot serialize {type(v)!r}")


def emit(record: RunRecord, fmt: str = "json") -> bytes:
    """Serialize one run record; output is byte-identical per record."""
    obj = {
        "command": record.command,
        "params": record.params,
        "results": record.results,
        "seed": record.seed,
        "version": record.version,
        "wall_time_ms": record.wall_time_ms,
    }
    if record.passed is not None:
        obj["pass"] = record.passed
    if fmt == "json":
        return (_json_render(obj) + "\n").encode()
    if fmt == "csv":
        lines = ["name,value"]
        for item in record.results:
            v = item["value"]
            text = v if isinstance(v, str) else _json_render(v)
            lines.append(f"{item['name']},{text}")
        return ("\n".join(lines) + "\n").encode()
    raise ValueError(f"unknown format {fmt!r}")


def _csv_table(header: list[str], rows: list[list]) -> bytes:
    lines = [",".join(header)]
    for row in rows:
        cells = [_format_float(c) if isinstance(c, float) else str(c)
                 for c in row]
        lines.append(",".join(cells))
    return ("\n".join(lines) + "\n").encode()


def _write(payload: bytes, out_path: str | None):
    if out_path:
        with open(out_path, "wb") as fh:
            fh.write(payload)
    else:
        sys.stdout.buffer.write(payload)
        sys.stdout.buffer.flush()


def _hex_table(n: int, table_int: int) -> str:
    f = cube.BooleanFunction.from_int(n, table_int)
    return cube.format_truth_table(f, hex_form=True).splitlines()[1]


# ---------------------------------------------------------------------------
# command handlers; each returns (record, optional csv table bytes)


def _cmd_boolean_verify(args):
    report = search.exhaustive_verify(args.n, args.alpha,
                                      checkpoint=args.checkpoint,
                                      chunk_size=args.chunk,
                                      max_chunks=args.max_chunks)
    rec = RunRecord("boolean verify",
                    {"n": args.n, "alpha": args.alpha}, args.seed)
    rec.add("max_mi", report.max_mi)
    rec.add("bound", report.bound)
    rec.add("margin", report.bound - report.max_mi)
    rec.add("functions_scanned", report.functions_scanned)
    rec.add("argmax_count", len(report.argmax))
    rec.add("argmax_hex", ";".join(_hex_table(report.n, t)
                                   for t in report.argmax[:16]))
    rec.add("argmax_is_dictators", report.argmax_is_dictators)
    dict_expected = 0.0 < args.alpha < 0.5
    if report.functions_scanned < 1 << (1 << args.n):
        # Unfinished chunked scan: a bound violation fails outright, but an
        # incomplete pass certifies nothing either way.
        rec.add("scan_complete", False)
        rec.passed = None if report.max_mi <= report.bound + 1e-12 else False
    else:
        rec.passed = report.bound_satisfied and (
            report.argmax_is_dictators if dict_expected else True)
    table = None
    if args.format == "csv" and args.n <= 3:
        size = 1 << args.n
        tables = search._bits_matrix(
            np.arange(1 << size, dtype=np.int64), size)
        mi = search._batched_mi(tables, args.alpha)
        table = _csv_table(["function_index", "mi"],
                           [[i, float(v)] for i, v in enumerate(mi)])
    return rec, table


def _cmd_boolean_mi(args):
    with open(args.tt) as fh:
        text = fh.read()
    params = {"tt": args.tt, "alpha": args.alpha}
    rec = RunRecord("boolean mi", params, args.seed)
    if args.multi:
        f = _parse_multi_table(text, args.multi)
        rec.params["multi"] = args.multi
        rec.add("mi", cube.mutual_information_direct(f, args.alpha))
        rec.add("per_bit", rec.results[-1]["value"] / args.multi)
    else:
        f = cube.parse_truth_table(text)
        mi = cube.mutual_information_direct(f, args.alpha)
        rec.add("mi", mi)
        rec.add("mean", float(np.mean(f.bits)))
        pm = cube.BooleanFunction(f.n, f.bits, cube.PLUS_MINUS)
        mi_phi = cube.mutual_information_phi(pm, 1.0 - 2.0 * args.alpha)
        rec.add("mi_phi_path", mi_phi)
        rec.add("path_difference", abs(mi - mi_phi))
    return rec, None


def _parse_multi_table(text: str, k: int) -> cube.MultiOutputFunction:
    lines = [ln.strip() for ln in text.strip().splitlines() if ln.strip()]
    if not lines:
        raise ValueError("empty truth table")
    n = int(cube._header_fields(lines[0], "n")["n"])
    table = [int(tok, 0) for tok in " ".join(lines[1:]).split()]
    return cube.MultiOutputFunction(n, k, np.asarray(table))


# The family parameter each kind takes, and the flag that carries it.
_FAMILY_OPTION = {"dictator": ("i", "i"), "and_k": ("k", "k"),
                  "lex": ("count", "count"),
                  "hamming_ball": ("ones_count", "ones")}


def _cmd_boolean_family(args):
    params = {"kind": args.kind, "n": args.n, "alpha": args.alpha}
    build_args = {"n": args.n}
    if args.kind in _FAMILY_OPTION:
        key, flag = _FAMILY_OPTION[args.kind]
        build_args[key] = params[key] = getattr(args, flag)
    f = cube.make_family(args.kind, **build_args)
    rec = RunRecord("boolean family", params, args.seed)
    rec.add("mean", float(np.mean(f.bits)))
    rec.add("mi", cube.mutual_information_direct(f.reread(cube.ZERO_ONE),
                                                 args.alpha))
    rec.add("w1", cube.degree_weight(cube.fwht(f), 1))
    if args.kind == "and_k":
        exact = cube.and_mi_exact(args.k, args.alpha)
        quoted = cube.and_mi_simple_form(args.k, args.alpha)
        rec.add("mi_exact_form", exact)
        rec.add("mi_simple_form", quoted)
        rec.add("simple_form_ratio",
                quoted / exact if exact > 0.0 else float(quoted == 0.0))
    return rec, None


def _cmd_boolean_perfect_code(args):
    mi, per_bit = cube.perfect_code_mi(args.alpha)
    bound = 1.0 - binary_entropy(args.alpha)
    rec = RunRecord("boolean perfect-code", {"alpha": args.alpha}, args.seed)
    rec.add("mi", mi)
    rec.add("per_bit", per_bit)
    rec.add("bound", bound)
    rec.add("margin", per_bit - bound)
    rec.passed = per_bit > bound
    return rec, None


def _cmd_boolean_lex_failure(args):
    r = search.lex_failure_scan(args.k, args.n, args.alpha)
    rec = RunRecord("boolean lex-failure",
                    {"k": args.k, "n": args.n, "alpha": args.alpha},
                    args.seed)
    rec.add("mi_ball", r.mi_ball)
    rec.add("mi_and", r.mi_and)
    rec.add("mi_ratio", r.mi_ball / r.mi_and if r.mi_and > 0.0 else 0.0)
    rec.add("w1_ball", r.w1_ball)
    rec.add("w1_and", r.w1_and)
    rec.add("w1_limit_ratio",
            gaussian_isoperimetric(2.0 ** (-args.k)) ** 2 / r.w1_and)
    rec.add("ball_wins", r.ball_wins)
    return rec, None


def _cmd_boolean_taylor(args):
    metrics = cube.taylor_check(args.n, args.trials, args.seed)
    rec = RunRecord("boolean taylor",
                    {"n": args.n, "trials": args.trials}, args.seed)
    rec.passed = metrics.pop("pass")
    rec.add_all(metrics)
    return rec, None


def _cmd_sphere_polarize_check(args):
    metrics = sphere.polarization_check(args.grid, args.rho, args.psi,
                                        args.trials, args.seed)
    rec = RunRecord(
        "sphere polarize-check",
        {"grid": args.grid, "rho": args.rho, "psi": args.psi_name,
         "trials": args.trials}, args.seed)
    rec.passed = metrics.pop("pass")
    rec.add_all(metrics)
    return rec, None


def _cmd_sphere_rearrange(args):
    grid = sphere.circle_grid(args.grid)
    kernel = sphere.KernelSpec.poisson(args.rho, 2)
    psi = PsiSpec.neg_binary_entropy()
    rng = np.random.default_rng(args.seed)
    f = sphere.SphericalField(
        grid, rng.integers(0, 2, args.grid).astype(float))
    res = sphere.iterate_polarizations(f, args.seed, args.steps,
                                       kernel=kernel, psi=psi)
    l1 = res["l1_to_rearranged"]
    jt = res["j_trace"]
    j_rearranged = sphere.functional_J(psi, kernel, sphere.rearrange(f))
    l1_monotone = bool(np.all(np.diff(l1) <= 1e-12))
    j_monotone = bool(np.all(np.diff(jt) >= -1e-12))
    rec = RunRecord("sphere rearrange",
                    {"grid": args.grid, "rho": args.rho,
                     "steps": args.steps}, args.seed)
    rec.add("l1_initial", float(l1[0]))
    rec.add("l1_final", float(l1[-1]))
    rec.add("l1_monotone", l1_monotone)
    rec.add("j_initial", float(jt[0]))
    rec.add("j_final", float(jt[-1]))
    rec.add("j_rearranged", j_rearranged)
    rec.add("j_monotone", j_monotone)
    rec.passed = bool(l1_monotone and j_monotone
                      and jt[-1] <= j_rearranged + 1e-10)
    table = None
    if args.format == "csv":
        rows = [[i, float(jt[i]), float(l1[i])] for i in range(len(l1))]
        table = _csv_table(["step", "J", "l1_distance"], rows)
    return rec, table


def _cmd_sphere_mc(args):
    ps = sphere.sphere_sample(args.dim, args.points, args.seed)
    rng = np.random.default_rng(args.seed + 1)
    f = sphere.SphericalField(
        ps, rng.integers(0, 2, args.points).astype(float))
    kernel = sphere.KernelSpec.poisson(args.rho, args.dim)
    res = sphere.polarization_inequality_check(f, ps.reflections[0], kernel,
                                               PsiSpec.square())
    mean_proj = float(np.mean(ps.points @ ps.pole))
    rec = RunRecord("sphere mc",
                    {"dim": args.dim, "points": args.points,
                     "rho": args.rho}, args.seed)
    rec.add("weight_sum", float(np.sum(ps.weights)))
    rec.add("mean_pole_projection", mean_proj)
    for key in ("j_before", "j_after", "max_sum_dev", "min_diff_margin"):
        rec.add(key, res[key])
    rec.passed = bool(res["pass"] and res["max_sum_dev"] <= 1e-10
                      and res["min_diff_margin"] >= -1e-10
                      and abs(mean_proj) <= 3.0 / math.sqrt(args.points))
    return rec, None


def _cmd_gauss_halfspace_vs(args):
    rng = np.random.default_rng(args.seed)
    if args.spec:
        spec = gauss.GaussianSetSpec.interval_union(json.loads(args.spec))
    else:
        spec = gauss.random_interval_union(args.measure, args.pieces, rng)
    mu = spec.measure()
    halfspace = gauss.GaussianSetSpec.halfspace_with_measure(mu)
    nce_set = gauss.neg_cond_entropy(spec, args.rho)
    nce_half = gauss.neg_cond_entropy(halfspace, args.rho)
    rec = RunRecord("gauss halfspace-vs",
                    {"measure": args.measure, "rho": args.rho,
                     "pieces": args.pieces}, args.seed)
    rec.add("set_measure", mu)
    rec.add("neg_cond_entropy_set", nce_set)
    rec.add("neg_cond_entropy_halfspace", nce_half)
    rec.add("margin", nce_half - nce_set)
    rec.add("mi_set", binary_entropy(mu) + nce_set)
    rec.add("mi_halfspace", binary_entropy(mu) + nce_half)
    rec.passed = nce_half >= nce_set - 1e-8
    return rec, None


def _cmd_gauss_kernel_limit(args):
    big_ns = [int(tok) for tok in args.bigN.split(",")]
    if args.n == 2:
        y = np.array([0.5, 0.0])
        z = np.array([0.2, 0.3])
    else:
        rng = np.random.default_rng(args.seed)
        y = rng.uniform(-0.5, 0.5, args.n)
        z = rng.uniform(-0.5, 0.5, args.n)
    ref = gauss.mehler_kernel(y, z, args.rho)
    rows = []
    for big_n in big_ns:
        val = gauss.u_rho_N(y, z, args.rho,
                            gauss.LimitParams(N=big_n, n=args.n))
        rows.append([big_n, val, ref, abs(val - ref), abs(val - ref) / ref])
    rec = RunRecord("gauss kernel-limit",
                    {"n": args.n, "rho": args.rho, "bigN": args.bigN},
                    args.seed)
    for row in rows:
        rec.add(f"rel_err_N{row[0]}", row[4])
    monotone = all(a[4] > b[4] for a, b in zip(rows, rows[1:]))
    rec.add("errors_monotone", monotone)
    rec.passed = monotone and rows[-1][4] < 0.05
    table = None
    if args.format == "csv":
        table = _csv_table(["N", "value", "reference", "abs_err", "rel_err"],
                           rows)
    return rec, table


def _cmd_gauss_factor_check(args):
    metrics = gauss.factor_check(gauss.LimitParams(N=args.bigN, n=args.n),
                                 args.rho, args.trials, args.samples,
                                 args.seed)
    rec = RunRecord("gauss factor-check",
                    {"bigN": args.bigN, "n": args.n, "rho": args.rho,
                     "trials": args.trials, "samples": args.samples},
                    args.seed)
    rec.passed = metrics.pop("pass")
    rec.add_all(metrics)
    return rec, None


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=("json", "csv"), default="json")
    common.add_argument("--out", default=None)
    common.add_argument("--seed", type=int, default=0)

    parser = argparse.ArgumentParser(
        prog="mostinf",
        description="Numerical checks for noise-channel information "
                    "functionals on the cube, the sphere, and Gaussian "
                    "space.")
    top = parser.add_subparsers(dest="group", required=True)

    b = top.add_parser("boolean").add_subparsers(dest="cmd", required=True)
    p = b.add_parser("verify", parents=[common])
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--alpha", type=_alpha, required=True)
    p.add_argument("--checkpoint", default=None)
    p.add_argument("--chunk", type=int, default=1 << 16)
    p.add_argument("--max-chunks", type=int, default=None)
    p.set_defaults(handler=_cmd_boolean_verify)
    p = b.add_parser("mi", parents=[common])
    p.add_argument("--tt", required=True)
    p.add_argument("--alpha", type=_alpha, required=True)
    p.add_argument("--multi", type=int, default=None)
    p.set_defaults(handler=_cmd_boolean_mi)
    p = b.add_parser("family", parents=[common])
    p.add_argument("--kind", required=True,
                   choices=("dictator", "and_k", "lex", "hamming_ball",
                            "majority"))
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--alpha", type=_alpha, required=True)
    p.add_argument("--i", type=int, default=1)
    p.add_argument("--k", type=int, default=2)
    p.add_argument("--count", type=int, default=0)
    p.add_argument("--ones", type=int, default=0)
    p.set_defaults(handler=_cmd_boolean_family)
    p = b.add_parser("perfect-code", parents=[common])
    p.add_argument("--alpha", type=_alpha, required=True)
    p.set_defaults(handler=_cmd_boolean_perfect_code)
    p = b.add_parser("lex-failure", parents=[common])
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--alpha", type=_alpha, required=True)
    p.set_defaults(handler=_cmd_boolean_lex_failure)
    p = b.add_parser("taylor", parents=[common])
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--trials", type=int, default=200)
    p.set_defaults(handler=_cmd_boolean_taylor)

    s = top.add_parser("sphere").add_subparsers(dest="cmd", required=True)
    p = s.add_parser("polarize-check", parents=[common])
    p.add_argument("--grid", type=int, required=True)
    p.add_argument("--rho", type=_rho, required=True)
    p.add_argument("--psi", dest="psi_name", type=_psi_name,
                   default="neg-entropy")
    p.add_argument("--trials", type=int, default=100)
    p.set_defaults(handler=_cmd_sphere_polarize_check)
    p = s.add_parser("rearrange", parents=[common])
    p.add_argument("--grid", type=int, required=True)
    p.add_argument("--rho", type=_rho, required=True)
    p.add_argument("--steps", type=int, default=500)
    p.set_defaults(handler=_cmd_sphere_rearrange)
    p = s.add_parser("mc", parents=[common])
    p.add_argument("--dim", type=int, required=True)
    p.add_argument("--points", type=int, required=True)
    p.add_argument("--rho", type=_rho, default=0.5)
    p.set_defaults(handler=_cmd_sphere_mc)

    g = top.add_parser("gauss").add_subparsers(dest="cmd", required=True)
    p = g.add_parser("halfspace-vs", parents=[common])
    p.add_argument("--measure", type=float, required=True)
    p.add_argument("--rho", type=_rho, required=True)
    p.add_argument("--spec", default=None)
    p.add_argument("--pieces", type=int, default=3)
    p.set_defaults(handler=_cmd_gauss_halfspace_vs)
    p = g.add_parser("kernel-limit", parents=[common])
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--rho", type=_rho, required=True)
    p.add_argument("--bigN", required=True)
    p.set_defaults(handler=_cmd_gauss_kernel_limit)
    p = g.add_parser("factor-check", parents=[common])
    p.add_argument("--bigN", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--rho", type=_rho, default=0.5)
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--samples", type=int, default=20000)
    p.set_defaults(handler=_cmd_gauss_factor_check)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if hasattr(args, "psi_name"):
        args.psi = _psi_from_name(args.psi_name)
    start = time.monotonic()
    try:
        record, table = args.handler(args)
    except (ValueError, OSError) as exc:
        # Input the handler rejects (out-of-range sizes, unreadable files, a
        # stale checkpoint) is a usage error; a numerical guard's
        # AssertionError still propagates with exit code 1.
        print(f"{parser.prog}: error: {exc}", file=sys.stderr)
        return 2
    record.wall_time_ms = int(1000 * (time.monotonic() - start))
    if table is None or args.format != "csv":
        table = emit(record, args.format)
    try:
        _write(table, args.out)
    except OSError as exc:
        # An unwritable --out path is a usage error too.
        print(f"{parser.prog}: error: {exc}", file=sys.stderr)
        return 2
    if record.passed is False:
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
