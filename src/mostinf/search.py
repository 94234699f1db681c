"""Exhaustive and structured search over Boolean functions.

Every batched mutual-information call goes through one count-vector kernel
(``_batched_mi``, n <= 5).  For a 0/1 table the smoothed value at y is
T_rho f(y) = sum_d w_d c_d(y), where c_d(y) counts the ones at Hamming
distance d from y and w_d = alpha^d (1 - alpha)^(n - d).  The count vector
(c_0..c_n) takes at most 17,424 values (n = 5), so one exact float32 matmul
gives each y a mixed-radix code (and each table its ones count), one gather
reads the binary entropy of that code's smoothed value from a cached
table, and one row mean finishes the Jensen gap.  One chunked driver,
``exhaustive_verify``, scans all tables for n = 2..5 through their even
table integers (a complement has the same value), with a resumable
checkpoint at every n: n <= 4 takes milliseconds in one chunk, n = 5
(2^31 representatives) 12-27 s at alpha = 0.1 on a shared 2-core host.

The scan sends only some tables through the kernel.  Split a table f on
a coordinate i into f0 and f1, its restrictions to x_i = 0 and x_i = 1 as
(n - 1)-bit tables.  Then T_rho f(b, y') = (1 - alpha) T_rho f_b(y')
+ alpha T_rho f_(1-b)(y') at every point y' of the other coordinates, and h
is concave, so E h(T_rho f) >= (H(f0) + H(f1)) / 2 with H(g) = E h(T_rho g)
on n - 1 bits.  Hence, for every coordinate i,

    I(f) <= U_i(f) = h((|f0| + |f1|) / 2^n) - (H(f0) + H(f1)) / 2.

H(g) does not change when the coordinates of g are permuted, so one table
of H over all (n - 1)-bit halves serves every i, read through any fixed
order of the other coordinates that both halves share.  The scan first
computes U_(n-1), the split into the low 2^(n-1) bits and the high bits of
the table integer, for every table, and then U_(n-2), ..., U_0 for the
tables still left.  A table whose U_i lies more than ``PRUNE_SLACK``
(1e-9) below the running maximum, for some i, is skipped.  The float error
of each U_i and of the kernel is about 1e-16, far below PRUNE_SLACK
- 2 ``TIE_TOL``, so a skipped table is neither the maximum nor a near-tie
of it: ``max_mi``, the witnesses and every checkpoint are the numbers a
scan of every table gives.
"""

from __future__ import annotations

import functools
import json
import math
import os
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .entropy import binary_entropy, gaussian_isoperimetric
from .cube import (
    BooleanFunction,
    SymmetricProfile,
    _distance_weights,
    _flip_probability,
    _level_masses,
    _popcount,
    and_mi_exact,
    dictator,
    format_truth_table,
    hamming_ball_w1_exact,
    symmetric_mi,
)

__all__ = [
    "SearchReport",
    "LexFailureRecord",
    "exhaustive_verify",
    "verify_check",
    "fixed_mean_max",
    "lex_failure_scan",
    "lex_failure_check",
    "ball_profile_for_mean",
]

ARGMAX_CAP = 64
TIE_TOL = 1e-12


@dataclass
class SearchReport:
    n: int
    alpha: float
    max_mi: float
    argmax: list[int]
    bound: float
    bound_satisfied: bool
    functions_scanned: int
    argmax_is_dictators: bool


MAX_KERNEL_N = 5
# Scans at this many alpha values keep their tables cached; each reads the
# n-bit and the (n - 1)-bit kernel.
CACHED_ALPHAS = 16


@functools.lru_cache(maxsize=2 * CACHED_ALPHAS)
def _count_kernel(n: int, alpha: float) -> tuple[np.ndarray, np.ndarray]:
    """Code matrix R and entropy table H of the count-vector kernel.

    ``tables @ R`` gives, at each y, the mixed-radix code of the count
    vector (c_0..c_n), c_d = number of ones at Hamming distance d from y,
    and in a last column the table's ones count; ``H[code]`` is the binary
    entropy of T_rho f(y) = sum_d w_d c_d.  H is built from the smaller of
    the two smoothed masses, so a table and its complement read
    bit-identical entropies and a constant table reads 0.
    """
    sizes = np.array([math.comb(n, d) for d in range(n + 1)])
    radix = np.concatenate(([1], np.cumprod(sizes + 1)[:-1]))
    j = np.arange(1 << n)
    # Codes stay below 2^24, so every float32 partial sum is exact.
    R = np.hstack((radix[_popcount(j[:, None] ^ j[None, :])],
                   np.ones((1 << n, 1), dtype=int))).astype(np.float32)
    counts = np.arange(int(np.prod(sizes + 1)))[:, None] // radix % (sizes + 1)
    w = _distance_weights(n, alpha)
    p = np.zeros(counts.shape[0])
    q = np.zeros(counts.shape[0])
    # One fixed summation order: p of a count vector and q of its
    # complement are then the same float.
    for d in range(n + 1):
        p += w[d] * counts[:, d]
        q += w[d] * (sizes[d] - counts[:, d])
    H = binary_entropy(np.minimum(p, q))
    R.flags.writeable = False
    H.flags.writeable = False
    return R, H


def _kernel_terms(tables: np.ndarray,
                  alpha: float) -> tuple[np.ndarray, np.ndarray]:
    """Ones count and E_y h(T_rho f(y)) of many 0/1 tables at once; rows
    are tables.

    One float32 matmul turns every row into count-vector codes and its ones
    count, one gather reads the codes' smoothed entropies, and one row mean
    averages them.
    """
    n = int(tables.shape[-1]).bit_length() - 1
    if tables.shape[-1] != 1 << n or not 1 <= n <= MAX_KERNEL_N:
        raise ValueError(f"count-vector kernel needs 2^n columns with "
                         f"1 <= n <= {MAX_KERNEL_N}, got {tables.shape[-1]}")
    R, H = _count_kernel(n, float(alpha))
    codes = (tables.astype(np.float32) @ R).astype(np.int32)
    return codes[..., -1], np.mean(H[codes[..., :-1]], axis=-1)


@functools.lru_cache(maxsize=MAX_KERNEL_N)
def _mean_entropy(size: int) -> np.ndarray:
    """h(k / size) for k = 0..size, the entropy of every ones count."""
    out = binary_entropy(np.arange(size + 1) / size)
    out.flags.writeable = False
    return out


def _batched_mi(tables: np.ndarray, alpha: float) -> np.ndarray:
    """Mutual information of many 0/1 tables at once; rows are tables: the
    Jensen gap h(E f) - E_y h(T_rho f(y))."""
    ones, smoothed = _kernel_terms(tables, alpha)
    return np.take(_mean_entropy(tables.shape[-1]), ones) - smoothed


def _bits_matrix(table_ints: np.ndarray, size: int) -> np.ndarray:
    """0/1 rows of the tables, table bit j in column j (uint8)."""
    raw = np.ascontiguousarray(table_ints, dtype="<i8").view(np.uint8)
    return np.unpackbits(raw.reshape(-1, 8), axis=1, count=size,
                         bitorder="little")


PRUNE_SLACK = 1e-9     # > 2 TIE_TOL plus the float error of U and the kernel
PRUNE_PROBE = 64       # rows of greatest U evaluated before the cut is set
KERNEL_BLOCK = 1 << 14  # rows per kernel call


@functools.lru_cache(maxsize=CACHED_ALPHAS)
def _half_bounds(n: int, alpha: float) -> tuple[np.ndarray, ...]:
    """The terms of the split bound U for n-bit tables that depend on
    alpha: the ones count and H(g) = E h(T_rho g) of every (n - 1)-bit half
    g, indexed by its table integer.

    Only the halves below 2^(2^(n-1) - 1) go through the kernel: the rest
    are their complements, whose entropies the kernel reads bit-identical.
    """
    half = 1 << (n - 1)
    ints = np.arange(1 << (half - 1), dtype=np.int64)
    ones, ent = (np.concatenate(terms) for terms in zip(*(
        _kernel_terms(_bits_matrix(ints[lo:lo + KERNEL_BLOCK], half), alpha)
        for lo in range(0, ints.size, KERNEL_BLOCK))))
    # Half g >= 2^(half - 1) is the complement of 2^half - 1 - g.
    out = (np.concatenate((ones, half - ones[::-1])),
           np.concatenate((ent, ent[::-1])))
    for a in out:
        a.flags.writeable = False
    return out


def _swap_top(tables: np.ndarray, i: int, n: int) -> np.ndarray:
    """The n-bit table integers with input coordinates i and n - 1 swapped,
    by one delta swap: each table bit j < 2^(n-1) with bit i of j set trades
    places with bit j + 2^(n-1) - 2^i."""
    half, width = 1 << (n - 1), 1 << i
    shift = half - width
    # Those bits j: runs of 2^i ones every 2^(i + 1) bits, from bit 2^i.
    mask = ((1 << half) - 1) // ((1 << width) + 1) << width
    d = ((tables >> shift) ^ tables) & mask
    return tables ^ d ^ (d << shift)


def _pruned_mi(lo: int, hi: int, n: int, alpha: float,
               best: float) -> tuple[np.ndarray, np.ndarray]:
    """The even tables 2 lo, 2 lo + 2, ..., 2 hi - 2 that the kernel
    evaluated, ascending, and their MI.

    A table is skipped when a split bound U_i puts it more than
    PRUNE_SLACK below the cut.  U_(n-1), the top split, is computed for
    every table first.  Of the tables whose U_(n-1) reaches ``best`` less
    the slack, the PRUNE_PROBE of greatest U_(n-1) are evaluated, and the
    cut is the greater of ``best`` and their best MI.  The other tables
    then need U_(n-1) and U_(n-2), ..., U_0 in turn to reach the cut less
    the slack."""
    size, half = 1 << n, 1 << (n - 1)
    ones, ent = _half_bounds(n, alpha)
    # Table 2 p has the high half p // width and the low half 2 (p % width),
    # so the top split's terms of the range are a slice of a grid with one
    # row per high half and one column per even low half.
    width = 1 << (half - 1)
    r0, r1 = lo // width, (hi - 1) // width + 1
    c0, c1 = (lo - r0 * width, hi - r0 * width) if r1 - r0 == 1 \
        else (0, width)
    f1, f0 = np.arange(r0, r1)[:, None], slice(2 * c0, 2 * c1, 2)
    # h(|f| / 2^n), the first term of every U_i.
    h_mean = np.take(_mean_entropy(size), ones[f0] + ones[f1])
    bound = h_mean - 0.5 * (ent[f0] + ent[f1])
    start = lo - r0 * width - c0
    h_mean, bound = (a.ravel()[start:start + hi - lo] for a in (h_mean, bound))
    rest = np.flatnonzero(bound >= best - PRUNE_SLACK)
    if not rest.size:
        return 2 * (lo + rest), np.empty(0)
    later = np.full(rest.size, rest.size > PRUNE_PROBE)
    if rest.size > PRUNE_PROBE:
        top = np.argpartition(bound[rest], -PRUNE_PROBE)[-PRUNE_PROBE:]
        later[top] = False
    probe = rest[~later]
    probe_mi = _batched_mi(_bits_matrix(2 * (lo + probe), size), alpha)
    cut = max(best, float(np.max(probe_mi))) - PRUNE_SLACK
    rest = rest[later & (bound[rest] >= cut)]
    for i in range(n - 2, -1, -1):
        if not rest.size:
            break
        swapped = _swap_top(2 * (lo + rest), i, n)
        g0, g1 = swapped & ((1 << half) - 1), swapped >> half
        rest = rest[h_mean[rest] - 0.5 * (np.take(ent, g0) + np.take(ent, g1))
                    >= cut]
    tables = 2 * (lo + np.concatenate((probe, rest)))
    mi = np.concatenate([probe_mi] + [
        _batched_mi(_bits_matrix(tables[k:k + KERNEL_BLOCK], size), alpha)
        for k in range(probe.size, tables.size, KERNEL_BLOCK)])
    order = np.argsort(tables)
    return tables[order], mi[order]


def _scan_report(n: int, alpha: float, max_mi: float, argmax: list[int],
                 scanned: int, finished: bool = True) -> SearchReport:
    """The verdict every scan shares: max_mi against the dictator bound
    1 - h(alpha), and whether the least winners are exactly the 2n
    dictators of both signs (then there are no others: 2n < ARGMAX_CAP)."""
    bound = 1.0 - binary_entropy(alpha)
    dictators = {dictator(n, i).table_int() for i in range(1, n + 1)}
    dictators |= {t ^ ((1 << (1 << n)) - 1) for t in dictators}
    return SearchReport(
        n=n,
        alpha=alpha,
        max_mi=max_mi,
        argmax=argmax,
        bound=bound,
        bound_satisfied=bool(finished and max_mi <= bound + 1e-12),
        functions_scanned=scanned,
        argmax_is_dictators=finished and set(argmax) == dictators,
    )


def fixed_mean_max(n: int, m: int, alpha: float) -> SearchReport:
    """Maximize mutual information over tables with exactly m ones."""
    if not 2 <= n <= 4:
        raise ValueError(f"full scan supports 2 <= n <= 4, got {n}")
    size = 1 << n
    if not 0 <= m <= size:
        raise ValueError(f"ones count {m} outside 0..{size}")
    alpha = _flip_probability(alpha)
    all_ints = np.arange(1 << size, dtype=np.int64)
    sel = all_ints[_popcount(all_ints) == m]
    mi = _batched_mi(_bits_matrix(sel, size), alpha)
    max_mi = float(np.max(mi))
    winners = sel[mi >= max_mi - TIE_TOL]
    return _scan_report(n, alpha, max_mi, winners[:ARGMAX_CAP].tolist(),
                        int(sel.size))


def ball_profile_for_mean(n: int, mu: float) -> SymmetricProfile:
    """Level profile of the ball with exact mean mu: full low levels plus a
    fractional boundary level."""
    q = _level_masses(n)
    cum = np.cumsum(q)
    full = int(np.searchsorted(cum, mu, side="right"))
    levels = (np.arange(n + 1) < full).astype(float)
    if full <= n:
        acc = cum[full - 1] if full else 0.0
        levels[full] = max(0.0, (mu - acc) / q[full])
    return SymmetricProfile(n, levels)


@dataclass
class LexFailureRecord:
    k: int
    n: int
    alpha: float
    mi_ball: float
    mi_and: float
    w1_ball: float
    w1_and: float
    ball_wins: bool


def lex_failure_scan(k: int, n: int, alpha: float) -> LexFailureRecord:
    """Compare the exact-mean ball against the k-wise AND at mean 2^-k."""
    if not 1 <= k <= 20:
        raise ValueError(f"arity {k} outside 1..20")
    if not k <= n <= 2000:
        raise ValueError(f"dimension {n} outside {k}..2000")
    alpha = float(alpha)
    mu = 2.0 ** (-k)
    profile = ball_profile_for_mean(n, mu)
    mi_ball = symmetric_mi(profile, alpha)
    mi_and = and_mi_exact(k, alpha)
    # Full-level radius whose point count best approximates mu * 2^n.
    boundary = int(np.nonzero(profile.levels < 1.0)[0][0]) \
        if np.any(profile.levels < 1.0) else n
    cum = np.cumsum(_level_masses(n))
    cands = [r for r in (boundary - 1, boundary) if 0 <= r < n]
    r_best = min(cands, key=lambda r: abs(cum[r] - mu))
    w1_ball = hamming_ball_w1_exact(n, r_best)
    w1_and = k * 4.0 ** (-k)
    return LexFailureRecord(
        k=k, n=n, alpha=alpha,
        mi_ball=mi_ball, mi_and=mi_and,
        w1_ball=w1_ball, w1_and=w1_and,
        ball_wins=bool(mi_ball > mi_and),
    )


def lex_failure_check(k: int, n: int, alpha: float) -> dict:
    """``lex_failure_scan`` as report metrics, with ball-to-AND ratios."""
    r = lex_failure_scan(k, n, alpha)
    return {"mi_ball": r.mi_ball, "mi_and": r.mi_and,
            "mi_ratio": r.mi_ball / r.mi_and if r.mi_and > 0.0 else 0.0,
            "w1_ball": r.w1_ball, "w1_and": r.w1_and,
            "w1_limit_ratio":
                gaussian_isoperimetric(2.0 ** (-k)) ** 2 / r.w1_and,
            "ball_wins": r.ball_wins}


_CHECKPOINT_KEYS = {"n", "alpha", "next", "max_mi", "witnesses", "scanned"}
PROGRESS_EVERY_S = 10.0
# Largest --chunk: a chunk's working arrays take about 40 B a representative
# (some 240 MiB of peak RSS at this cap).
MAX_CHUNK = 1 << 22


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _load_checkpoint(path: Path, n: int, alpha: float) -> dict:
    """Scan state from a checkpoint; any unusable file is one ValueError."""
    try:
        state = json.loads(path.read_text())
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise ValueError(f"checkpoint {path} is unreadable ({exc}); "
                         "delete it to restart the scan") from None
    if not isinstance(state, dict) or not _CHECKPOINT_KEYS <= state.keys():
        raise ValueError(f"checkpoint {path} lacks the scan fields "
                         f"{sorted(_CHECKPOINT_KEYS)}")
    if state["n"] != n or state["alpha"] != alpha:
        raise ValueError(f"checkpoint {path} was written for n={state['n']}, "
                         f"alpha={state['alpha']}, not n={n}, alpha={alpha}")
    reps = 1 << ((1 << n) - 1)
    nxt, best, witnesses = state["next"], state["max_mi"], state["witnesses"]
    if not (_is_int(nxt) and 0 <= nxt <= reps
            and _is_int(state["scanned"]) and state["scanned"] == 2 * nxt
            and (_is_int(best) or isinstance(best, float))
            and math.isfinite(best) and isinstance(witnesses, list)
            and all(_is_int(t) and 0 <= t < 2 * reps for t in witnesses)):
        raise ValueError(f"checkpoint {path} needs an integer next in "
                         f"0..{reps}, scanned = 2 next, a finite max_mi and "
                         f"integer witnesses in 0..{2 * reps - 1}; delete it "
                         "to restart the scan")
    return state


def _save_checkpoint(path: Path, state: dict) -> None:
    """Write the state beside the checkpoint, then rename it into place, so
    a scan killed mid-write leaves the previous checkpoint intact."""
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_text(json.dumps(state))
    os.replace(tmp, path)


def _report_progress(n: int, done: int, first: int, total: int,
                     chunk_size: int, mark: tuple, rate: float,
                     evaluated: int) -> tuple:
    """One stderr line: chunks done, raw tables per second since ``mark``
    (time and watermark of the line before; early chunks evaluate more
    rows), time left at that rate and the share of this call's tables that
    the kernel evaluated.  Returns the new mark and rate."""
    now = time.monotonic()
    if done > mark[1] and now > mark[0]:
        rate = 2 * (done - mark[1]) / (now - mark[0])
    eta = f"{2 * (total - done) / rate:.0f} s" if rate > 0.0 else "unknown"
    chunks = f"{math.ceil(done / chunk_size)}/{math.ceil(total / chunk_size)}"
    share = 100.0 * evaluated / (done - first)
    print(f"scan_n{n}: {chunks} chunks, {rate:.4g} tables/s, ETA {eta}, "
          f"evaluated {share:.1f}%", file=sys.stderr, flush=True)
    return (now, done), rate


def exhaustive_verify(n: int, alpha: float, checkpoint: str | None = None,
                      chunk_size: int = 1 << 16,
                      max_chunks: int | None = None) -> SearchReport:
    """Scan all 2^(2^n) truth tables and compare the best against 1 - h(alpha).

    Even table integers are scanned ``chunk_size`` (at most ``MAX_CHUNK``)
    at a time; argmax holds the least ``ARGMAX_CAP`` winners, complements
    included.  ``checkpoint`` is JSON keyed by a table-index watermark,
    replaced after every chunk; ``max_chunks`` ends the call early, and an
    unfinished scan certifies nothing.  A scan of several chunks prints
    progress (chunks, tables/s, ETA, share of tables evaluated) to stderr
    at most every ``PROGRESS_EVERY_S`` s and when it ends.

    The kernel evaluates only the tables whose split bounds
    I(f) <= U_i(f) = h((|f0| + |f1|) / 2^n) - (H(f0) + H(f1)) / 2 all reach
    the running maximum less PRUNE_SLACK = 1e-9, where f0 and f1 are f
    restricted to x_i = 0 and x_i = 1 (see the module docstring); the
    others are skipped.  The bound holds for a split on any coordinate i,
    because h is concave and the noise acts on each coordinate alone, and
    one table of H(g) serves every i, because H is invariant under
    permutations of g's coordinates.  PRUNE_SLACK exceeds 2 ``TIE_TOL`` by
    far more than the float error (about 1e-16), so no skipped table could
    have been the maximum or one of its near-ties, and the report and
    checkpoint are those of a scan of every table.
    """
    if not 2 <= n <= MAX_KERNEL_N:
        raise ValueError(f"full scan supports 2 <= n <= {MAX_KERNEL_N}, "
                         f"got {n}")
    if not 1 <= chunk_size <= MAX_CHUNK or (
            max_chunks is not None and max_chunks < 0):
        raise ValueError(f"scan needs 1 <= chunk_size <= {MAX_CHUNK} and "
                         f"max_chunks >= 0, got {chunk_size} and {max_chunks}")
    alpha = _flip_probability(alpha)
    size = 1 << n
    full = (1 << size) - 1
    total_reps = 1 << (size - 1)
    state = {"n": n, "alpha": alpha, "next": 0, "max_mi": -1.0,
             "witnesses": [], "scanned": 0}
    path = Path(checkpoint) if checkpoint else None
    if path is not None and path.exists():
        state = _load_checkpoint(path, n, alpha)
    first = state["next"]
    end = total_reps if max_chunks is None \
        else min(total_reps, first + max_chunks * chunk_size)
    if end == first == 0:
        raise ValueError("max_chunks=0 on a fresh scan scans nothing")
    progress = total_reps > chunk_size
    evaluated = 0
    mark, rate = (time.monotonic(), first), 0.0
    for lo in range(first, end, chunk_size):
        hi = min(lo + chunk_size, end)
        tables, mi = _pruned_mi(lo, hi, n, alpha, state["max_mi"])
        evaluated += tables.size
        chunk_max = float(np.max(mi, initial=-np.inf))
        if chunk_max > state["max_mi"] + TIE_TOL:
            state["max_mi"] = chunk_max
            state["witnesses"] = []
        hits = tables[mi >= state["max_mi"] - TIE_TOL]
        # The least hits and the complements of the greatest ones.
        near = np.concatenate((hits[:ARGMAX_CAP], hits[-ARGMAX_CAP:] ^ full))
        state["witnesses"] = sorted(
            set(state["witnesses"]) | set(near.tolist()))[:ARGMAX_CAP]
        state["next"] = hi
        state["scanned"] = 2 * hi
        if path is not None:
            _save_checkpoint(path, state)
        if progress and time.monotonic() - mark[0] >= PROGRESS_EVERY_S:
            mark, rate = _report_progress(n, hi, first, total_reps,
                                          chunk_size, mark, rate, evaluated)
    if progress and end > first:
        _report_progress(n, end, first, total_reps, chunk_size, mark, rate,
                         evaluated)
    # A checkpoint may hold even witnesses only.
    witnesses = sorted(
        set(state["witnesses"])
        | set(t ^ full for t in state["witnesses"]))[:ARGMAX_CAP]
    return _scan_report(n, alpha, state["max_mi"], witnesses,
                        state["scanned"], state["next"] >= total_reps)


def verify_check(n: int, alpha: float, **scan) -> dict:
    """``exhaustive_verify(n, alpha, **scan)`` as metrics and verdict (none
    while an unfinished scan keeps the bound); n <= 3 tabulates every MI."""
    report = exhaustive_verify(n, alpha, **scan)
    hexes = [format_truth_table(BooleanFunction.from_int(n, t)).splitlines()[1]
             for t in report.argmax[:16]]
    metrics = {"max_mi": report.max_mi, "bound": report.bound,
               "margin": report.bound - report.max_mi,
               "functions_scanned": report.functions_scanned,
               "argmax_count": len(report.argmax),
               "argmax_hex": ";".join(hexes),
               "argmax_is_dictators": report.argmax_is_dictators}
    if report.functions_scanned < 1 << (1 << n):
        metrics["scan_complete"] = False
        metrics["pass"] = None if report.max_mi <= report.bound + 1e-12 \
            else False
    else:
        metrics["pass"] = report.bound_satisfied and (
            report.argmax_is_dictators if 0.0 < alpha < 0.5 else True)
    if n <= 3:
        size = 1 << n
        mi = _batched_mi(
            _bits_matrix(np.arange(1 << size, dtype=np.int64), size), alpha)
        metrics["table"] = (["function_index", "mi"], list(enumerate(mi)))
    return metrics
