"""Command-line front end: every check and experiment, machine-readable.

Each command is one library call, which ``_run`` renders as one run record
(JSON object with sorted keys and 17-significant-digit floats, or CSV rows
``name,value``).  The call returns a dict: the metrics in record order, the
verdict under "pass" (None: no verdict) and, for a command with a natural
table, ``(header, rows)`` under "table", which ``--format csv`` emits
instead.  Exit code 0 on success, 1 when the verdict is false, 2 on usage
errors, including input the library rejects (one line on stderr).
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import __version__
from .entropy import PsiSpec
from . import cube
from . import gauss
from . import search
from . import sphere

_PSI_NAMES = {
    "neg-entropy": PsiSpec.neg_binary_entropy,
    "square": PsiSpec.square,
}


def _psi(name: str) -> PsiSpec:
    """The PsiSpec that --psi names: neg-entropy, square or abs:p."""
    if name.startswith("abs:"):
        return PsiSpec.abs_power(float(name.split(":", 1)[1]))
    if name not in _PSI_NAMES:
        raise ValueError(f"unknown psi {name!r}")
    return _PSI_NAMES[name]()


def _alpha(value: str) -> float:
    a = float(value)
    if not 0.0 <= a <= 0.5:
        raise argparse.ArgumentTypeError("alpha must lie in [0, 0.5]")
    return a


def _spec(text: str) -> list:
    """--spec: JSON that must be a list of [a, b] pairs of numbers."""
    try:
        spec = json.loads(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None
    if not isinstance(spec, list) or not all(
            isinstance(pair, list) and len(pair) == 2
            and all(type(x) in (int, float) for x in pair)  # no true/false
            for pair in spec):
        raise argparse.ArgumentTypeError(
            f"must be a JSON list of [a, b] pairs of numbers, got {text!r}")
    return spec


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


def _json_render(v) -> str:
    if isinstance(v, (bool, np.bool_)):
        return "true" if v else "false"
    if isinstance(v, (np.floating, float)):
        if not math.isfinite(v):
            raise ValueError(f"non-finite metric value {float(v)!r}")
        return format(float(v), ".17g")
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
        return _csv_table(["name", "value"], [[item["name"], item["value"]]
                                              for item in record.results])
    raise ValueError(f"unknown format {fmt!r}")


def _csv_table(header: list[str], rows: list[list]) -> bytes:
    lines = [",".join(header)]
    for row in rows:
        cells = [c if isinstance(c, str) else _json_render(c) for c in row]
        lines.append(",".join(cells))
    return ("\n".join(lines) + "\n").encode()


def _run(args) -> tuple[RunRecord, bytes | None]:
    """The record of the command's one library call, and under --format csv
    the bytes of the "table" it returned (else None)."""
    params = args.params(args) if callable(args.params) \
        else {name: getattr(args, name) for name in args.params}
    record = RunRecord(f"{args.group} {args.cmd}", params, args.seed)
    metrics = args.call(args)
    record.passed = metrics.pop("pass", None)
    table = metrics.pop("table", None)
    record.add_all(metrics)
    csv = table is not None and args.format == "csv"
    return record, _csv_table(*table) if csv else None


# The family parameter each kind takes (the --ones flag stores ones_count).
_FAMILY_OPTION = {"dictator": "i", "and_k": "k", "lex": "count",
                  "hamming_ball": "ones_count"}


def _family_option(args) -> dict:
    key = _FAMILY_OPTION.get(args.kind)
    return {key: getattr(args, key)} if key else {}


class _Parser(argparse.ArgumentParser):
    """Its errors reach ``main`` as ValueError; only --help exits."""

    def error(self, message):
        raise ValueError(message)


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=("json", "csv"), default="json")
    common.add_argument("--out", default=None)
    common.add_argument("--seed", type=int, default=0)

    parser = _Parser(
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
    p.set_defaults(params=("n", "alpha"), call=lambda a: search.verify_check(
        a.n, a.alpha, checkpoint=a.checkpoint, chunk_size=a.chunk,
        max_chunks=a.max_chunks))
    p = b.add_parser("mi", parents=[common])
    p.add_argument("--tt", required=True)
    p.add_argument("--alpha", type=_alpha, required=True)
    p.add_argument("--multi", type=int, default=None)
    p.set_defaults(
        params=lambda a: {"tt": a.tt, "alpha": a.alpha,
                          **({} if a.multi is None else {"multi": a.multi})},
        call=lambda a: cube.mi_check(Path(a.tt).read_text(), a.alpha,
                                     a.multi))
    p = b.add_parser("family", parents=[common])
    p.add_argument("--kind", required=True,
                   choices=("dictator", "and_k", "lex", "hamming_ball",
                            "majority"))
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--alpha", type=_alpha, required=True)
    p.add_argument("--i", type=int, default=1)
    p.add_argument("--k", type=int, default=2)
    p.add_argument("--count", type=int, default=0)
    p.add_argument("--ones", dest="ones_count", type=int, default=0,
                   metavar="ONES")
    p.set_defaults(
        params=lambda a: {"kind": a.kind, "n": a.n, "alpha": a.alpha,
                          **_family_option(a)},
        call=lambda a: cube.family_check(a.kind, a.n, a.alpha,
                                         **_family_option(a)))
    p = b.add_parser("perfect-code", parents=[common])
    p.add_argument("--alpha", type=_alpha, required=True)
    p.set_defaults(params=("alpha",),
                   call=lambda a: cube.perfect_code_check(a.alpha))
    p = b.add_parser("lex-failure", parents=[common])
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--alpha", type=_alpha, required=True)
    p.set_defaults(params=("k", "n", "alpha"),
                   call=lambda a: search.lex_failure_check(a.k, a.n, a.alpha))
    p = b.add_parser("taylor", parents=[common])
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--trials", type=int, default=200)
    p.set_defaults(params=("n", "trials"),
                   call=lambda a: cube.taylor_check(a.n, a.trials, a.seed))

    s = top.add_parser("sphere").add_subparsers(dest="cmd", required=True)
    p = s.add_parser("polarize-check", parents=[common])
    p.add_argument("--grid", type=int, required=True)
    p.add_argument("--rho", type=float, required=True)
    p.add_argument("--psi", default="neg-entropy", metavar="PSI_NAME")
    p.add_argument("--trials", type=int, default=100)
    p.set_defaults(params=("grid", "rho", "psi", "trials"), call=lambda a:
                   sphere.polarization_check(a.grid, a.rho, _psi(a.psi),
                                             a.trials, a.seed))
    p = s.add_parser("rearrange", parents=[common])
    p.add_argument("--grid", type=int, required=True)
    p.add_argument("--rho", type=float, required=True)
    p.add_argument("--steps", type=int, default=500)
    p.set_defaults(params=("grid", "rho", "steps"), call=lambda a:
                   sphere.rearrange_check(a.grid, a.rho, a.steps, a.seed))
    p = s.add_parser("mc", parents=[common])
    p.add_argument("--dim", type=int, required=True)
    p.add_argument("--points", type=int, required=True)
    p.add_argument("--rho", type=float, default=0.5)
    p.set_defaults(params=("dim", "points", "rho"), call=lambda a:
                   sphere.mc_check(a.dim, a.points, a.rho, a.seed))

    g = top.add_parser("gauss").add_subparsers(dest="cmd", required=True)
    p = g.add_parser("halfspace-vs", parents=[common])
    p.add_argument("--measure", type=float, required=True)
    p.add_argument("--rho", type=float, required=True)
    p.add_argument("--spec", type=_spec, default=None)
    p.add_argument("--pieces", type=int, default=3)
    # A --spec union leaves --measure and --pieces unread.
    p.set_defaults(
        params=lambda a: {"measure": a.measure, "pieces": a.pieces,
                          "rho": a.rho} if a.spec is None
        else {"rho": a.rho, "spec": a.spec},
        call=lambda a: gauss.halfspace_check(
            a.measure, a.rho, a.pieces, a.seed, a.spec))
    p = g.add_parser("kernel-limit", parents=[common])
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--rho", type=float, required=True)
    p.add_argument("--bigN", required=True)
    p.set_defaults(params=("n", "rho", "bigN"), call=(
        lambda a: gauss.kernel_limit_check(
            a.n, a.rho, [int(tok) for tok in a.bigN.split(",")], a.seed)))
    p = g.add_parser("factor-check", parents=[common])
    p.add_argument("--bigN", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--rho", type=float, default=0.5)
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--samples", type=int, default=20000)
    p.set_defaults(params=("bigN", "n", "rho", "trials", "samples"), call=(
        lambda a: gauss.factor_check(gauss.LimitParams(N=a.bigN, n=a.n),
                                     a.rho, a.trials, a.samples, a.seed)))
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        start = time.monotonic()
        record, payload = _run(args)
        record.wall_time_ms = int(1000 * (time.monotonic() - start))
        if payload is None:
            payload = emit(record, args.format)
        if args.out:
            with open(args.out, "wb") as fh:
                fh.write(payload)
        else:
            sys.stdout.buffer.write(payload)
            sys.stdout.buffer.flush()
    except (ValueError, OSError) as exc:
        # A bad command line, input the library rejects, a non-finite metric
        # and an unwritable --out path are usage errors; a numerical guard's
        # AssertionError still propagates with exit code 1.
        print(f"{parser.prog}: error: {exc}", file=sys.stderr)
        return 2
    if record.passed is False:
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
