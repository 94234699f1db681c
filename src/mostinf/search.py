"""Exhaustive and structured search over Boolean functions.

Every batched mutual-information call goes through one count-vector kernel
(``_batched_mi``, n <= 5).  For a 0/1 table the smoothed value at y is
T_rho f(y) = sum_d w_d c_d(y), where c_d(y) counts the ones at Hamming
distance d from y and w_d = alpha^d (1 - alpha)^(n - d).  The count vector
(c_0..c_n) takes at most 17,424 values (n = 5), so one exact float32 matmul
gives each y a mixed-radix code, one gather reads the binary entropy of
that code's smoothed value from a cached table, and one row mean finishes
the Jensen gap.  The full scan covers every truth table up to n = 4 (65536
functions) in milliseconds.  n = 5 is an optional chunked scan with an
atomically replaced, resumable checkpoint; it halves the raw 2^32 space
through output complementation and reports its own method.
"""

from __future__ import annotations

import functools
import json
import math
import os
import sys
import time
from dataclasses import dataclass, field
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
    "scan_n5",
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


def _dictator_table_ints(n: int) -> set[int]:
    """Table integers of the 2n one-coordinate functions (both signs)."""
    tables = {dictator(n, i).table_int() for i in range(1, n + 1)}
    full = (1 << (1 << n)) - 1
    return tables | {t ^ full for t in tables}


def _bits_matrix(table_ints: np.ndarray, size: int) -> np.ndarray:
    """0/1 rows of the tables, table bit j in column j (uint8)."""
    raw = np.ascontiguousarray(table_ints, dtype="<i8").view(np.uint8)
    return np.unpackbits(raw.reshape(-1, 8), axis=1, count=size,
                         bitorder="little")


def exhaustive_verify(n: int, alpha: float) -> SearchReport:
    """Scan all 2^(2^n) truth tables and compare the best against 1 - h(alpha)."""
    if not 2 <= n <= 4:
        raise ValueError(f"full scan supports 2 <= n <= 4, got {n}")
    alpha = float(alpha)
    size = 1 << n
    count = 1 << size
    tables = _bits_matrix(np.arange(count, dtype=np.int64), size)
    mi = _batched_mi(tables, alpha)
    max_mi = float(np.max(mi))
    winners = np.nonzero(mi >= max_mi - TIE_TOL)[0]
    argmax = [int(t) for t in winners[:ARGMAX_CAP]]
    bound = 1.0 - binary_entropy(alpha)
    return SearchReport(
        n=n,
        alpha=alpha,
        constraint=None,
        max_mi=max_mi,
        argmax=argmax,
        bound=bound,
        bound_satisfied=bool(max_mi <= bound + 1e-12),
        functions_scanned=count,
        argmax_is_dictators=set(argmax) == _dictator_table_ints(n)
        and winners.size == 2 * n,
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
    tables = _bits_matrix(sel, size)
    mi = _batched_mi(tables, alpha)
    max_mi = float(np.max(mi))
    winners = sel[mi >= max_mi - TIE_TOL]
    lex_int = lex(n, m).table_int()
    return SearchReport(
        n=n,
        alpha=alpha,
        constraint=m,
        max_mi=max_mi,
        argmax=[int(t) for t in winners[:ARGMAX_CAP]],
        bound=1.0 - binary_entropy(alpha),
        bound_satisfied=bool(max_mi <= 1.0 - binary_entropy(alpha) + 1e-12),
        functions_scanned=int(sel.size),
        argmax_is_dictators=set(int(t) for t in winners) ==
        _dictator_table_ints(n),
        lex_attains=bool(lex_int in set(int(t) for t in winners)),
    )


_INDEX_MAP_CACHE: dict = {}


def _orbit_index_maps(n: int) -> list[np.ndarray]:
    """Source-index maps for every coordinate permutation, before negation."""
    if n in _INDEX_MAP_CACHE:
        return _INDEX_MAP_CACHE[n]
    j = np.arange(1 << n)
    planes = [(j >> (n - i)) & 1 for i in range(1, n + 1)]
    maps = []
    for perm in permutations(range(1, n + 1)):
        s = np.zeros(1 << n, dtype=np.int64)
        for i, target in enumerate(perm, start=1):
            s |= planes[i - 1] << (n - target)
        maps.append(s)
    _INDEX_MAP_CACHE[n] = maps
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


def _report_progress(done: int, first: int, total: int, chunk_size: int,
                     elapsed: float) -> None:
    """One stderr line: chunks done, raw tables per second, time left."""
    rate = 2 * (done - first) / elapsed if elapsed > 0.0 else 0.0
    eta = f"{2 * (total - done) / rate:.0f} s" if rate > 0.0 else "unknown"
    chunks = f"{math.ceil(done / chunk_size)}/{math.ceil(total / chunk_size)}"
    print(f"scan_n5: {chunks} chunks, {rate:.4g} tables/s, ETA {eta}",
          file=sys.stderr, flush=True)


def scan_n5(alpha: float, checkpoint: str | None = None,
            chunk_size: int = 1 << 16,
            max_chunks: int | None = None) -> SearchReport:
    """Optional long-running n = 5 scan.

    Output complement preserves mutual information, so only even table
    integers (entry 0 equal to 0) are enumerated: 2^31 representatives of
    the 2^32 raw tables.  Progress is checkpointed as plain JSON keyed by a
    table-index watermark, so an interrupted scan resumes where it left
    off; the file is replaced atomically after every chunk.  Progress lines
    (chunks done, tables per second, ETA) go to stderr at most every
    ``PROGRESS_EVERY_S`` seconds, plus one when the call ends.  This is a
    brute-force certification of the n = 5 bound; no claim is made about
    how larger published verifications were organized.
    """
    alpha = float(alpha)
    n, size = 5, 32
    total_reps = 1 << (size - 1)
    state = {"n": n, "alpha": alpha, "next": 0, "max_mi": -1.0,
             "witnesses": [], "scanned": 0}
    path = Path(checkpoint) if checkpoint else None
    if path is not None and path.exists():
        state = _load_checkpoint(path, n, alpha)
    chunks_done = 0
    first = state["next"]
    start = last_report = time.monotonic()
    while state["next"] < total_reps:
        if max_chunks is not None and chunks_done >= max_chunks:
            break
        lo = state["next"]
        hi = min(lo + chunk_size, total_reps)
        reps = np.arange(lo, hi, dtype=np.int64) << 1  # even table ints
        mi = _batched_mi(_bits_matrix(reps, size), alpha)
        chunk_max = float(np.max(mi))
        if chunk_max > state["max_mi"] + TIE_TOL:
            state["max_mi"] = chunk_max
            state["witnesses"] = []
        if chunk_max >= state["max_mi"] - TIE_TOL:
            hits = reps[mi >= state["max_mi"] - TIE_TOL]
            state["witnesses"] = sorted(
                set(state["witnesses"]) | set(int(t) for t in hits)
            )[:ARGMAX_CAP]
        state["next"] = int(hi)
        state["scanned"] = 2 * int(hi)
        chunks_done += 1
        if path is not None:
            _save_checkpoint(path, state)
        now = time.monotonic()
        if now - last_report >= PROGRESS_EVERY_S:
            _report_progress(state["next"], first, total_reps, chunk_size,
                             now - start)
            last_report = now
    if chunks_done:
        _report_progress(state["next"], first, total_reps, chunk_size,
                         time.monotonic() - start)
    finished = state["next"] >= total_reps
    full_mask = (1 << size) - 1
    witnesses = sorted(
        set(state["witnesses"])
        | set(t ^ full_mask for t in state["witnesses"]))[:ARGMAX_CAP]
    bound = 1.0 - binary_entropy(alpha)
    return SearchReport(
        n=n,
        alpha=alpha,
        constraint=None,
        max_mi=state["max_mi"],
        argmax=witnesses,
        bound=bound,
        bound_satisfied=bool(finished and state["max_mi"] <= bound + 1e-12),
        functions_scanned=state["scanned"],
        argmax_is_dictators=finished
        and set(witnesses) == _dictator_table_ints(n),
    )
