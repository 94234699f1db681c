"""The three benchmark workloads: fixed job lists drawn from a seed.

Each workload is a fixed list of CLI jobs.  The seed draws only values
(alpha, rho, truth tables, interval unions and the commands' ``--seed``);
the number of jobs of each kind and every problem size are fixed, so the
distribution of job times is the same for every seed.  Every job carries a
check that compares its output with a route independent of the code under
test, using the library's own tolerances.

Why each workload exists:

* ``scan``: the n = 5 certification scan is the headline workload; batched
  transforms over many 16- and 32-entry rows do almost all the work and a
  checkpoint write follows every chunk, so scan kernels, workers and
  checkpointing show here and nowhere else.
* ``exact``: one large table at a time instead of many small rows; it is
  the only workload for symmetric_mi and the multi-output path, and its
  many few-millisecond jobs make CLI parsing and rendering visible.
* ``continuum``: sphere and Gaussian commands only; cube and search do no
  work, so it is the bypass workload for every cube or search change.

Job counts are chosen so that the median and the 90th percentile of job
time fall inside a block of jobs of one kind and size, never on the edge
between two kinds, which would make them jump between runs.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, field
from functools import partial
from typing import Callable

import numpy as np

N5_CHUNK = 1 << 16           # the CLI's default --chunk
N5_CHUNKS_PER_SLICE = 2      # --max-chunks of every n = 5 slice
MI_TOL = 1e-10               # dual-path and closed-form agreement in tests
WITNESS_TOL = 1e-12          # scan bound slack and oracle agreement in tests
# factor-check's verdict includes two 3-sigma Monte Carlo tests, which fail
# by chance on about one seed in two hundred whatever the code does.  Its
# --seed is drawn from 0..59, every one of which passes at the commit that
# defined this benchmark, so a failure there means the code changed.
FACTOR_CHECK_SEEDS = 60


@dataclass
class Job:
    kind: str
    argv: list[str]
    # check(exit_code, stdout_bytes) -> None when correct, else a reason.
    check: Callable[[int, bytes], str | None]
    tables: int = 0          # truth tables certified when the job passes


@dataclass
class Workload:
    name: str
    jobs: list[Job]
    workdir: str
    checkpoint: str | None = None
    working_set: dict = field(default_factory=dict)

    def reset(self):
        """Start a pass from a fresh n = 5 checkpoint."""
        if self.checkpoint and os.path.exists(self.checkpoint):
            os.remove(self.checkpoint)


# ---------------------------------------------------------------------------
# independent reference routes


def h2(p):
    """Binary entropy in bits, elementwise, for p in [0, 1]."""
    p = np.clip(np.asarray(p, dtype=float), 0.0, 1.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        out = -np.where(p > 0, p * np.log2(p), 0.0) \
            - np.where(p < 1, (1 - p) * np.log2(1 - p), 0.0)
    return out


def smooth(tables: np.ndarray, alpha: float) -> np.ndarray:
    """Noise operator on the last axis of 2^n-entry tables.

    Applies the 2x2 flip kernel once per coordinate, so it shares nothing
    with the package's Fourier route.
    """
    size = tables.shape[-1]
    n = size.bit_length() - 1
    lead = tables.shape[:-1]
    k = np.array([[1 - alpha, alpha], [alpha, 1 - alpha]])
    a = np.asarray(tables, dtype=float).reshape(lead + (2,) * n)
    for axis in range(len(lead), len(lead) + n):
        a = np.moveaxis(np.tensordot(k, a, axes=([1], [axis])), 0, axis)
    return a.reshape(lead + (size,))


def mi_table(bits: np.ndarray, alpha: float) -> float:
    """I(f(X); Y) of a 0/1 table through the per-coordinate route."""
    return float(h2(bits.mean()) - h2(smooth(bits, alpha)).mean())


def mi_multi(table: np.ndarray, k: int, alpha: float) -> float:
    """I(f(X); Y) of a k-bit output table, one smoothing per output value."""
    onehot = (table[None, :] == np.arange(1 << k)[:, None]).astype(float)
    cond = smooth(onehot, alpha)
    marginal = onehot.mean(axis=1)

    def ent(p, axis):
        with np.errstate(divide="ignore", invalid="ignore"):
            return -np.sum(np.where(p > 0, p * np.log2(p), 0.0), axis=axis)
    return float(ent(marginal, 0) - ent(np.clip(cond, 0, 1), 0).mean())


def popcount(j: np.ndarray) -> np.ndarray:
    return np.array([bin(int(v)).count("1") for v in j])


def results_of(out: bytes) -> tuple[dict, dict]:
    rec = json.loads(out)
    return rec, {item["name"]: item["value"] for item in rec["results"]}


def _fail_unless(ok: bool, what: str) -> str | None:
    return None if ok else what


def _exit_and_pass(rc: int, out: bytes) -> str | None:
    if rc != 0:
        return f"exit code {rc}"
    rec, _ = results_of(out)
    return _fail_unless(rec.get("pass") is True, "verdict is not pass")


# ---------------------------------------------------------------------------
# scan


def check_verify_n4(rc, out, *, alpha):
    if rc != 0:
        return f"exit code {rc}"
    rec, res = results_of(out)
    bound = 1.0 - float(h2(alpha))
    if abs(res["max_mi"] - bound) > MI_TOL:
        return f"max_mi {res['max_mi']!r} != 1 - h(alpha) {bound!r}"
    return _fail_unless(res["argmax_is_dictators"] is True
                        and rec.get("pass") is True,
                        "argmax is not the dictators")


def check_verify_n3_csv(rc, out, *, alpha):
    if rc != 0:
        return f"exit code {rc}"
    lines = out.decode().splitlines()
    if lines[0] != "function_index,mi" or len(lines) != 257:
        return "csv shape"
    rows = np.array([[float(c) for c in ln.split(",")] for ln in lines[1:]])
    if not np.array_equal(rows[:, 0], np.arange(256)):
        return "csv index column"
    tables = (np.arange(256)[:, None] >> np.arange(8)[None, :]) & 1
    smoothed = smooth(tables.astype(float), alpha)
    expect = h2(tables.mean(axis=1)) - h2(smoothed).mean(axis=1)
    worst = float(np.max(np.abs(rows[:, 1] - expect)))
    if worst > WITNESS_TOL:
        return f"mi column off by {worst:.3g}"
    return _fail_unless(abs(rows[:, 1].max() - (1 - float(h2(alpha))))
                        <= MI_TOL, "max mi != 1 - h(alpha)")


def check_verify_n5(rc, out, *, alpha, scanned):
    if rc != 0:
        return f"exit code {rc}"
    rec, res = results_of(out)
    if "pass" in rec or res.get("scan_complete") is not False:
        return "an unfinished slice must report no verdict"
    if res["functions_scanned"] != scanned:
        return f"watermark {res['functions_scanned']} != {scanned}"
    if res["max_mi"] > 1.0 - float(h2(alpha)) + WITNESS_TOL:
        return "max_mi above the dictator bound"
    hex_table = res["argmax_hex"].split(";")[0]
    direct = _witness_mi(hex_table, alpha)
    return _fail_unless(abs(direct - res["max_mi"]) <= WITNESS_TOL,
                        f"witness MI {direct!r} != max_mi {res['max_mi']!r}")


def _witness_mi(hex_table: str, alpha: float) -> float:
    from mostinf import cube
    f = cube.parse_truth_table(f"n=5 conv=zero_one\n{hex_table}\n")
    return cube.mutual_information_direct(f, alpha)


def scan(seed: int, workdir: str) -> Workload:
    """40 n = 3 csv dumps, 47 n = 4 full scans, 13 n = 5 slices."""
    rng = np.random.default_rng([seed, 1])
    ckpt = os.path.join(workdir, "n5.ckpt.json")
    alpha5 = float(rng.uniform(0.05, 0.45))
    kinds = {"verify-n3": [], "verify-n4": [], "verify-n5": []}
    for _ in range(40):
        a = float(rng.uniform(0.05, 0.45))
        kinds["verify-n3"].append(Job(
            "verify-n3",
            ["boolean", "verify", "--n", "3", "--alpha", repr(a),
             "--format", "csv"],
            partial(check_verify_n3_csv, alpha=a), tables=256))
    for _ in range(47):
        a = float(rng.uniform(0.05, 0.45))
        kinds["verify-n4"].append(Job(
            "verify-n4", ["boolean", "verify", "--n", "4", "--alpha", repr(a)],
            partial(check_verify_n4, alpha=a), tables=1 << 16))
    per_slice = N5_CHUNKS_PER_SLICE * N5_CHUNK
    for i in range(13):
        kinds["verify-n5"].append(Job(
            "verify-n5",
            ["boolean", "verify", "--n", "5", "--alpha", repr(alpha5),
             "--max-chunks", str(N5_CHUNKS_PER_SLICE), "--checkpoint", ckpt],
            partial(check_verify_n5, alpha=alpha5,
                    scanned=2 * per_slice * (i + 1)),
            tables=2 * per_slice))
    return Workload("scan", interleave(kinds), workdir, checkpoint=ckpt,
                    working_set={"n5_chunk_bytes": N5_CHUNK * 32 * 8})


# ---------------------------------------------------------------------------
# exact


def check_mi_table(rc, out, *, alpha, bits):
    if rc != 0:
        return f"exit code {rc}"
    _, res = results_of(out)
    if res["path_difference"] > MI_TOL:
        return f"path difference {res['path_difference']!r}"
    if res["mean"] != bits.sum() / bits.size:
        return "mean"
    expect = mi_table(bits.astype(float), alpha)
    return _fail_unless(abs(res["mi"] - expect) <= MI_TOL,
                        f"mi {res['mi']!r} != {expect!r}")


def check_mi_multi(rc, out, *, alpha, table, k):
    if rc != 0:
        return f"exit code {rc}"
    _, res = results_of(out)
    expect = mi_multi(table, k, alpha)
    return _fail_unless(abs(res["mi"] - expect) <= MI_TOL,
                        f"multi mi {res['mi']!r} != {expect!r}")


def check_and_k(rc, out, *, k):
    if rc != 0:
        return f"exit code {rc}"
    _, res = results_of(out)
    if res["mean"] != 2.0 ** -k:
        return "mean"
    return _fail_unless(abs(res["mi"] - res["mi_exact_form"]) <= MI_TOL,
                        "mi != mi_exact_form")


def check_ball(rc, out, *, alpha, n, radius):
    if rc != 0:
        return f"exit code {rc}"
    _, res = results_of(out)
    bits = (popcount(np.arange(1 << n)) <= radius).astype(float)
    if res["mean"] != bits.mean():
        return "mean"
    expect = mi_table(bits, alpha)
    return _fail_unless(abs(res["mi"] - expect) <= MI_TOL,
                        f"ball mi {res['mi']!r} != {expect!r}")


def check_lex_failure(rc, out, *, alpha, k):
    if rc != 0:
        return f"exit code {rc}"
    _, res = results_of(out)
    and_table = np.zeros(1 << k)
    and_table[0] = 1.0
    expect = mi_table(and_table, alpha)
    if abs(res["mi_and"] - expect) > MI_TOL:
        return f"mi_and {res['mi_and']!r} != {expect!r}"
    # Strong data processing: I(f(X); Y) <= (1 - 2 alpha)^2 h(E f).
    sdpi = (1 - 2 * alpha) ** 2 * float(h2(2.0 ** -k))
    return _fail_unless(0.0 <= res["mi_ball"] <= sdpi + WITNESS_TOL,
                        "mi_ball outside [0, (1 - 2 alpha)^2 h(mu)]")


def check_taylor(rc, out):
    err = _exit_and_pass(rc, out)
    if err:
        return err
    _, res = results_of(out)
    return _fail_unless(res["failures"] == 0, "taylor failures")


def _write_table(path: str, bits: np.ndarray, hex_form: bool):
    n = bits.size.bit_length() - 1
    if hex_form:
        nibbles = bits.reshape(-1, 4) @ (1 << np.arange(4))
        body = "0x" + "".join(format(int(v), "x") for v in nibbles)
    else:
        body = "".join("1" if b else "0" for b in bits)
    with open(path, "w") as fh:
        fh.write(f"n={n} conv=zero_one\n{body}\n")


def exact(seed: int, workdir: str) -> Workload:
    """52 single-table MI (44 of them at n = 12), 8 multi-output MI,
    12 families, 4 perfect-code, 20 lex-failure and 4 taylor jobs."""
    rng = np.random.default_rng([seed, 2])
    kinds = {}

    def alpha():
        return float(rng.uniform(0.05, 0.45))

    jobs = kinds.setdefault("mi", [])
    for i, n in enumerate(list(range(8, 16)) + [12] * 44):
        bits = rng.integers(0, 2, 1 << n).astype(np.uint8)
        path = os.path.join(workdir, f"table{i}.tt")
        # The n = 12 block is all hex, so the median sits in one kind.
        # Hex only in the one-per-size jobs; the n = 12 block holds the
        # median and stays one kind.
        _write_table(path, bits, hex_form=n != 12 and bool(i % 2))
        a = alpha()
        jobs.append(Job("mi", ["boolean", "mi", "--tt", path,
                               "--alpha", repr(a)],
                        partial(check_mi_table, alpha=a, bits=bits)))
    jobs = kinds.setdefault("mi-multi", [])
    for i in range(8):
        table = rng.integers(0, 8, 1 << 10)
        path = os.path.join(workdir, f"multi{i}.tt")
        with open(path, "w") as fh:
            fh.write("n=10 k=3\n" + " ".join(map(str, table)) + "\n")
        a = alpha()
        jobs.append(Job("mi-multi", ["boolean", "mi", "--tt", path,
                                     "--alpha", repr(a), "--multi", "3"],
                        partial(check_mi_multi, alpha=a, table=table, k=3)))
    jobs = kinds.setdefault("family", [])
    for i in range(4):
        n, a = 8 + i, alpha()
        k = int(rng.integers(2, 7))
        jobs.append(Job("family", ["boolean", "family", "--kind", "and_k",
                                   "--n", str(n), "--k", str(k),
                                   "--alpha", repr(a)],
                        partial(check_and_k, k=k)))
        n, a = 8 + i, alpha()
        radius = int(rng.integers(1, n // 2))
        ones = sum(math.comb(n, r) for r in range(radius + 1))
        jobs.append(Job("family", ["boolean", "family", "--kind",
                                   "hamming_ball", "--n", str(n),
                                   "--ones", str(ones), "--alpha", repr(a)],
                        partial(check_ball, alpha=a, n=n, radius=radius)))
        n, a = 7 + 2 * (i % 2), alpha()
        jobs.append(Job("family", ["boolean", "family", "--kind", "majority",
                                   "--n", str(n), "--alpha", repr(a)],
                        partial(check_ball, alpha=a, n=n,
                                radius=(n - 1) // 2)))
    kinds["perfect-code"] = [
        Job("perfect-code", ["boolean", "perfect-code", "--alpha",
                             repr(float(rng.uniform(0.08, 0.3)))],
            _exit_and_pass) for _ in range(4)]
    jobs = kinds.setdefault("lex-failure", [])
    for n, count in ((500, 2), (1000, 15), (2000, 3)):
        for _ in range(count):
            k, a = int(rng.integers(2, 13)), float(rng.uniform(0.05, 0.49))
            jobs.append(Job("lex-failure", ["boolean", "lex-failure",
                                            "--k", str(k), "--n", str(n),
                                            "--alpha", repr(a)],
                            partial(check_lex_failure, alpha=a, k=k)))
    kinds["taylor"] = [
        Job("taylor", ["boolean", "taylor", "--n", "8", "--trials", "20",
                       "--seed", str(int(rng.integers(1 << 30)))],
            check_taylor) for _ in range(4)]
    return Workload("exact", interleave(kinds), workdir,
                    working_set={"largest_table_bytes": 8 << 15})


# ---------------------------------------------------------------------------
# continuum


def check_polarize(rc, out, *, trials, grid):
    err = _exit_and_pass(rc, out)
    if err:
        return err
    _, res = results_of(out)
    return _fail_unless(res["checks"] == trials * (grid - 1)
                        and res["failures"] == 0, "polarization checks")


def check_halfspace(rc, out, *, intervals):
    err = _exit_and_pass(rc, out)
    if err:
        return err
    _, res = results_of(out)

    def cdf(z):
        return 0.5 * math.erfc(-z / math.sqrt(2.0))
    measure = math.fsum(cdf(b) - cdf(a) for a, b in intervals)
    return _fail_unless(abs(res["set_measure"] - measure) <= WITNESS_TOL,
                        "set measure")


def check_kernel_limit(rc, out, *, rho, big_ns):
    if rc != 0:
        return f"exit code {rc}"
    lines = out.decode().splitlines()
    if lines[0] != "N,value,reference,abs_err,rel_err" \
            or len(lines) != len(big_ns) + 1:
        return "csv shape"
    # The n = 2 points are the CLI's fixed y = (0.5, 0), z = (0.2, 0.3).
    quad_form = rho ** 2 * 0.25 - 2 * rho * 0.1 + rho ** 2 * 0.13
    ref = math.exp(-quad_form / (2 * (1 - rho ** 2))) / (1 - rho ** 2)
    for line, big_n in zip(lines[1:], big_ns):
        cells = line.split(",")
        if int(cells[0]) != big_n or abs(float(cells[2]) - ref) > \
                WITNESS_TOL * ref:
            return f"reference column at N={big_n}"
    return None


def check_factor(rc, out):
    err = _exit_and_pass(rc, out)
    if err:
        return err
    _, res = results_of(out)
    return _fail_unless(res["a_bound_violations"] == 0, "A-bound violations")


def _interval_union(rng, pieces: int) -> list:
    edges = np.sort(rng.uniform(-2.5, 2.5, 2 * pieces))
    return [(float(edges[2 * i]), float(edges[2 * i + 1]))
            for i in range(pieces)]


def continuum(seed: int, workdir: str) -> Workload:
    """2 kernel-limit, 4 halfspace-vs, 4 rearrange, 85 mc, 4 polarize-check
    (50 trials each) and 1 factor-check jobs.

    The median and the 90th percentile both sit in the mc block: its time
    is ruled by memory traffic over a 32 MB kernel, so it moves least with
    the clock speed of a shared host, while the interpreter-bound commands
    vary by about a fifth from minute to minute there.  The few long
    polarize-check jobs, each reusing one M = 64 kernel over 50 x 63
    reflections, and factor-check sit above the 90th percentile.
    """
    rng = np.random.default_rng([seed, 3])

    def rho():
        return repr(float(rng.uniform(0.2, 0.8)))

    def cmd_seed():
        return str(int(rng.integers(1 << 30)))

    kinds = {}
    big_ns = [50, 200, 1000]
    jobs = kinds.setdefault("kernel-limit", [])
    for _ in range(2):
        r = rho()
        jobs.append(Job("kernel-limit", [
            "gauss", "kernel-limit", "--n", "2", "--rho", r,
            "--bigN", ",".join(map(str, big_ns)), "--format", "csv"],
            partial(check_kernel_limit, rho=float(r), big_ns=big_ns)))
    jobs = kinds.setdefault("halfspace-vs", [])
    for i in range(4):
        intervals = _interval_union(rng, 1 + i % 4)
        measure = sum(0.5 * math.erfc(-b / math.sqrt(2))
                      - 0.5 * math.erfc(-a / math.sqrt(2))
                      for a, b in intervals)
        jobs.append(Job("halfspace-vs", [
            "gauss", "halfspace-vs", "--measure", repr(measure),
            "--rho", rho(), "--spec", json.dumps(intervals)],
            partial(check_halfspace, intervals=intervals)))
    kinds["polarize-check"] = [
        Job("polarize-check", [
            "sphere", "polarize-check", "--grid", "64", "--rho", rho(),
            "--psi", "neg-entropy", "--trials", "50", "--seed", cmd_seed()],
            partial(check_polarize, trials=50, grid=64)) for _ in range(4)]
    kinds["rearrange"] = [
        Job("rearrange", ["sphere", "rearrange", "--grid", "64",
                          "--rho", rho(), "--steps", "500",
                          "--seed", cmd_seed()],
            _exit_and_pass) for _ in range(4)]
    kinds["mc"] = [
        Job("mc", ["sphere", "mc", "--dim", "4", "--points", "2000",
                   "--rho", rho(), "--seed", cmd_seed()],
            _exit_and_pass) for _ in range(85)]
    kinds["factor-check"] = [
        Job("factor-check", [
            "gauss", "factor-check", "--bigN", "9", "--n", "2",
            "--seed", str(int(rng.integers(FACTOR_CHECK_SEEDS)))],
            check_factor)]
    return Workload("continuum", interleave(kinds), workdir,
                    working_set={"sphere_kernel_bytes": 2000 * 2000 * 8})


WORKLOADS = {"scan": scan, "exact": exact, "continuum": continuum}


def interleave(kinds: dict) -> list[Job]:
    """Spread each kind evenly over the pass, so that any stretch of it
    holds a similar mix."""
    keyed = []
    for order, jobs in enumerate(kinds.values()):
        for i, job in enumerate(jobs):
            keyed.append(((i + 0.5) / len(jobs), order, job))
    keyed.sort(key=lambda item: item[:2])
    return [job for _, _, job in keyed]


def build(name: str, seed: int, workdir: str) -> Workload:
    os.makedirs(workdir, exist_ok=True)
    return WORKLOADS[name](seed, workdir)
