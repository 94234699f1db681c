"""Exhaustive and structured search over Boolean functions.

Every batched mutual-information call goes through one count-vector kernel
(``_batched_mi``, n <= 5).  For a 0/1 table the smoothed value at y is
T_rho f(y) = sum_d w_d c_d(y), where c_d(y) counts the ones at Hamming
distance d from y and w_d = alpha^d (1 - alpha)^(n - d).  The count vector
(c_0..c_n) takes at most 17,424 values (n = 5), so one exact float32 matmul
gives each y a mixed-radix code, one gather reads the binary entropy of
that code's smoothed value from a cached table, and one row mean finishes
the Jensen gap.  One chunked driver, ``exhaustive_verify``, scans all
tables for n = 2..5 through their even table integers (a complement has the
same value), with a resumable checkpoint at every n: n <= 4 takes
milliseconds in one chunk, n = 5 (2^31 representatives) minutes.
"""

from __future__ import annotations

import functools
import json
import math
import os
import sys
import time
from dataclasses import dataclass, replace
from itertools import permutations
from pathlib import Path

import numpy as np

from .entropy import binary_entropy
from .cube import (
    BooleanFunction,
    SymmetricProfile,
    _distance_weights,
    _log_binom,
    _popcount,
    and_mi_exact,
    dictator,
    hamming_ball_w1_exact,
    lex,
    mutual_information_direct,
    symmetric_mi,
)

__all__ = [
    "SearchReport",
    "LexFailureRecord",
    "exhaustive_verify",
    "fixed_mean_max",
    "canonical_form",
    "lex_failure_scan",
    "ball_profile_for_mean",
]

ARGMAX_CAP = 64
TIE_TOL = 1e-12


@dataclass
class SearchReport:
    n: int
    alpha: float
    constraint: int | None
    max_mi: float
    argmax: list[int]
    bound: float
    bound_satisfied: bool
    functions_scanned: int
    argmax_is_dictators: bool = False
    lex_attains: bool | None = None


MAX_KERNEL_N = 5


@functools.lru_cache(maxsize=8)
def _count_kernel(n: int, alpha: float) -> tuple[np.ndarray, np.ndarray]:
    """Code matrix R and entropy table H of the count-vector kernel.

    ``tables @ R`` gives, at each y, the mixed-radix code of the count
    vector (c_0..c_n), c_d = number of ones at Hamming distance d from y;
    ``H[code]`` is the binary entropy of T_rho f(y) = sum_d w_d c_d.  H is
    built from the smaller of the two smoothed masses, so a table and its
    complement read bit-identical entropies and a constant table reads 0.
    """
    sizes = np.array([math.comb(n, d) for d in range(n + 1)])
    radix = np.concatenate(([1], np.cumprod(sizes + 1)[:-1]))
    j = np.arange(1 << n)
    # Codes stay below 2^24, so every float32 partial sum is exact.
    R = radix[_popcount(j[:, None] ^ j[None, :])].astype(np.float32)
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


def _batched_mi(tables: np.ndarray, alpha: float) -> np.ndarray:
    """Mutual information of many 0/1 tables at once; rows are tables.

    One float32 matmul turns every row into count-vector codes, one gather
    reads their smoothed entropies, and one row mean finishes the Jensen
    gap h(E f) - E_y h(T_rho f(y)).
    """
    n = int(tables.shape[-1]).bit_length() - 1
    if tables.shape[-1] != 1 << n or not 1 <= n <= MAX_KERNEL_N:
        raise ValueError(f"count-vector kernel needs 2^n columns with "
                         f"1 <= n <= {MAX_KERNEL_N}, got {tables.shape[-1]}")
    R, H = _count_kernel(n, float(alpha))
    codes = (tables.astype(np.float32) @ R).astype(np.int32)
    mu = np.mean(tables, axis=-1)
    return binary_entropy(mu) - np.mean(H[codes], axis=-1)


def _bits_matrix(table_ints: np.ndarray, size: int) -> np.ndarray:
    """0/1 rows of the tables, table bit j in column j (uint8)."""
    raw = np.ascontiguousarray(table_ints, dtype="<i8").view(np.uint8)
    return np.unpackbits(raw.reshape(-1, 8), axis=1, count=size,
                         bitorder="little")


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
        constraint=None,
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
    alpha = float(alpha)
    all_ints = np.arange(1 << size, dtype=np.int64)
    sel = all_ints[_popcount(all_ints) == m]
    mi = _batched_mi(_bits_matrix(sel, size), alpha)
    max_mi = float(np.max(mi))
    winners = sel[mi >= max_mi - TIE_TOL]
    report = _scan_report(n, alpha, max_mi, winners[:ARGMAX_CAP].tolist(),
                          int(sel.size))
    return replace(report, constraint=m,
                   lex_attains=bool(lex(n, m).table_int() in winners))


@functools.lru_cache(maxsize=None)
def _orbit_index_maps(n: int) -> list[np.ndarray]:
    """Source-index maps for every coordinate permutation, before negation."""
    j = np.arange(1 << n)
    planes = [(j >> (n - i)) & 1 for i in range(1, n + 1)]
    maps = []
    for perm in permutations(range(1, n + 1)):
        s = np.zeros(1 << n, dtype=np.int64)
        for i, target in enumerate(perm, start=1):
            s |= planes[i - 1] << (n - target)
        maps.append(s)
    return maps


def canonical_form(f: BooleanFunction) -> BooleanFunction:
    """Least table in the orbit under coordinate permutations, input
    negations, and output complement; idempotent by construction."""
    if f.n > 5:
        raise ValueError("canonical form supported for n <= 5")
    bits = f.bits
    best = None
    for smap in _orbit_index_maps(f.n):
        for mask in range(1 << f.n):
            cand = bits[smap ^ mask]
            for variant in (cand, 1 - cand):
                key = variant.astype(np.uint8).tobytes()
                if best is None or key < best:
                    best = key
    out = np.frombuffer(best, dtype=np.uint8)
    return BooleanFunction(f.n, out, f.convention)


def ball_profile_for_mean(n: int, mu: float) -> SymmetricProfile:
    """Level profile of the ball with exact mean mu: full low levels plus a
    fractional boundary level."""
    q = np.exp(_log_binom(n, np.arange(n + 1)) - n * math.log(2.0))
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
    q = np.exp(_log_binom(n, np.arange(n + 1)) - n * math.log(2.0))
    cum = np.cumsum(q)
    cands = [r for r in (boundary - 1, boundary) if 1 <= r < n]
    r_best = min(cands, key=lambda r: abs(cum[r] - mu))
    w1_ball = hamming_ball_w1_exact(n, r_best)
    w1_and = k * 4.0 ** (-k)
    return LexFailureRecord(
        k=k, n=n, alpha=alpha,
        mi_ball=mi_ball, mi_and=mi_and,
        w1_ball=w1_ball, w1_and=w1_and,
        ball_wins=bool(mi_ball > mi_and),
    )


_CHECKPOINT_KEYS = {"n", "alpha", "next", "max_mi", "witnesses", "scanned"}
PROGRESS_EVERY_S = 10.0


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
    return state


def _save_checkpoint(path: Path, state: dict) -> None:
    """Write the state beside the checkpoint, then rename it into place, so
    a scan killed mid-write leaves the previous checkpoint intact."""
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_text(json.dumps(state))
    os.replace(tmp, path)


def _report_progress(n: int, done: int, first: int, total: int,
                     chunk_size: int, elapsed: float) -> None:
    """One stderr line: chunks done, raw tables per second, time left."""
    rate = 2 * (done - first) / elapsed if elapsed > 0.0 else 0.0
    eta = f"{2 * (total - done) / rate:.0f} s" if rate > 0.0 else "unknown"
    chunks = f"{math.ceil(done / chunk_size)}/{math.ceil(total / chunk_size)}"
    print(f"scan_n{n}: {chunks} chunks, {rate:.4g} tables/s, ETA {eta}",
          file=sys.stderr, flush=True)


def exhaustive_verify(n: int, alpha: float, checkpoint: str | None = None,
                      chunk_size: int = 1 << 16,
                      max_chunks: int | None = None) -> SearchReport:
    """Scan all 2^(2^n) truth tables and compare the best against 1 - h(alpha).

    Even table integers are scanned ``chunk_size`` at a time; argmax holds
    the least ``ARGMAX_CAP`` winners, complements included.  ``checkpoint``
    is JSON keyed by a table-index watermark, replaced after every chunk;
    ``max_chunks`` ends the call early, and an unfinished scan certifies
    nothing.  A scan of several chunks prints progress (chunks, tables/s,
    ETA) to stderr at most every ``PROGRESS_EVERY_S`` s and when it ends.
    """
    if not 2 <= n <= MAX_KERNEL_N:
        raise ValueError(f"full scan supports 2 <= n <= {MAX_KERNEL_N}, "
                         f"got {n}")
    if chunk_size < 1 or (max_chunks is not None and max_chunks < 0):
        raise ValueError(f"scan needs chunk_size >= 1 and max_chunks >= 0, "
                         f"got {chunk_size} and {max_chunks}")
    alpha = float(alpha)
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
    progress = total_reps > chunk_size
    start = last_report = time.monotonic()
    for lo in range(first, end, chunk_size):
        hi = min(lo + chunk_size, end)
        reps = np.arange(lo, hi, dtype=np.int64) << 1  # even table ints
        mi = _batched_mi(_bits_matrix(reps, size), alpha)
        chunk_max = float(np.max(mi))
        if chunk_max > state["max_mi"] + TIE_TOL:
            state["max_mi"] = chunk_max
            state["witnesses"] = []
        hits = reps[mi >= state["max_mi"] - TIE_TOL]
        # The least hits and the complements of the greatest ones.
        near = np.concatenate((hits[:ARGMAX_CAP], hits[-ARGMAX_CAP:] ^ full))
        state["witnesses"] = sorted(
            set(state["witnesses"]) | set(near.tolist()))[:ARGMAX_CAP]
        state["next"] = hi
        state["scanned"] = 2 * hi
        if path is not None:
            _save_checkpoint(path, state)
        now = time.monotonic()
        if progress and now - last_report >= PROGRESS_EVERY_S:
            _report_progress(n, hi, first, total_reps, chunk_size, now - start)
            last_report = now
    if progress and end > first:
        _report_progress(n, end, first, total_reps, chunk_size,
                         time.monotonic() - start)
    # A checkpoint may hold even witnesses only.
    witnesses = sorted(
        set(state["witnesses"])
        | set(t ^ full for t in state["witnesses"]))[:ARGMAX_CAP]
    return _scan_report(n, alpha, state["max_mi"], witnesses,
                        state["scanned"], state["next"] >= total_reps)
